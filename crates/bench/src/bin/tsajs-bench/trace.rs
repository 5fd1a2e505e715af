//! In-memory span recorder for `--trace` runs.
//!
//! Spans are taken only around the benchmark's own calls into each layer
//! (nothing inside the program under test is instrumented), kept in a
//! `Vec`, and written as JSONL when the run ends. A disabled tracer
//! records nothing, so the untraced run that produces the end-to-end
//! numbers pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` is the id of the span that caused it
/// (0 for a root); spans of one operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span now, so that spans it causes can name it as their
    /// parent before it ends; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: u32) {
        if id > 0 {
            let end = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Named per-layer numbers with their units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Ledger(pub BTreeMap<String, (f64, &'static str)>);

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        assert_eq!(off.open("op", 0, 0), 0);
        assert!(off.durations_ms("op").is_empty());

        let mut t = Tracer::new(true);
        let root = t.open("op", 0, 3);
        let start = Instant::now();
        let child = t.record("child", root, 3, start, Instant::now());
        t.close(root);
        assert_eq!(child, 2);
        assert_eq!(t.spans[1].parent, root);
        assert!(t.total_ms("op") >= t.total_ms("child"));
    }
}
