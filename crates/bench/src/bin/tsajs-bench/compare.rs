//! `compare A/ B/`: applies the `BENCHMARK.json` bounds to two sets of
//! untraced result files (A the parent, B the change) and prints one row
//! per workload × end-to-end metric. Latency tails, reported only where
//! the sample supports them, are judged with the `latency_ms_p50` bound;
//! the services' `full_tier_share` with the `utility` bound.

use crate::stats::{median, quartiles};
use crate::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    /// The run-to-run spread is wider than the bound, so "unchanged"
    /// cannot be told apart from a regression.
    Unresolved,
}

/// Interquartile range over the median's magnitude.
fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => f64::INFINITY,
    }
}

/// Judges the change `b` against the parent `a`, runs in the order they
/// were made (pairs are `a[i]`, `b[i]`). Returns the verdict and the
/// relative change of the median, positive when worse.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let spread_a = spread(a);
    if every_run_better && -worse > spread_a.min(bound) {
        return (Verdict::Improved, worse);
    }
    if spread_a.max(spread(b)) > bound {
        return (Verdict::Unresolved, worse);
    }
    if worse > bound {
        return (Verdict::Worse, worse);
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if -worse > spread_a && pairs > 0 && wins * 10 >= pairs * 9 {
        return (Verdict::Improved, worse);
    }
    (Verdict::Unchanged, worse)
}

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("an end_to_end entry lacks `{k}`"));
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// workload → metric → values, in file-name (run) order, from the
/// untraced results files in `dir`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let entry = runs.entry(workload.to_string()).or_default();
        for key in ["metrics", "judged"] {
            for m in doc.get(key).and_then(Value::as_array).into_iter().flatten() {
                if let (Some(name), Some(value)) = (
                    m.get("name").and_then(Value::as_str),
                    m.get("value").and_then(Value::as_f64),
                ) {
                    entry.entry(name.to_string()).or_default().push(value);
                }
            }
        }
    }
    Ok(runs)
}

/// Prints the comparison; `Ok(false)` when any row is worse.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            dirs.push(arg.clone());
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        return Err("expected two result directories: compare A/ B/".into());
    };
    let bounds = read_bounds(Path::new(&bounds_path))?;
    let (a, b) = (load(Path::new(a_dir))?, load(Path::new(b_dir))?);
    // Undeclared metrics borrow the bound of the declared one they refine.
    let judged: Vec<Bound> = [
        ("latency_ms_p90", "ms", "latency_ms_p50"),
        ("latency_ms_p99", "ms", "latency_ms_p50"),
        ("full_tier_share", "share", "utility"),
    ]
    .iter()
    .filter_map(|&(name, unit, like)| {
        let declared = bounds.iter().find(|m| m.name == like)?;
        Some(Bound {
            name: name.to_string(),
            unit: unit.to_string(),
            lower_is_better: declared.lower_is_better,
            bound: declared.bound,
        })
    })
    .collect();

    println!(
        "{:<15} {:<17} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut any_worse = false;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let fmt = |v: &[f64]| match quartiles(v) {
        Some([q1, _, q3]) => format!("{:.4} [{q1:.4}, {q3:.4}]", median(v)),
        None => format!("{:.4} [n={}]", median(v), v.len()),
    };
    for workload in WORKLOADS {
        let (Some(wa), Some(wb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for m in bounds.iter().chain(&judged) {
            let (Some(va), Some(vb)) = (wa.get(&m.name), wb.get(&m.name)) else {
                continue;
            };
            let (verdict, change) = judge(va, vb, m.bound, m.lower_is_better);
            any_worse |= verdict == Verdict::Worse;
            let label = match verdict {
                Verdict::Improved => "improved",
                Verdict::Unchanged => "unchanged",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            };
            *counts.entry(label).or_default() += 1;
            println!(
                "{workload:<15} {:<17} {:>30} {:>30} {:>+7.2}% {:>5.1}%  {label} ({} vs {} runs, {})",
                m.name,
                fmt(va),
                fmt(vb),
                change * 1e2,
                m.bound * 1e2,
                va.len(),
                vb.len(),
                m.unit,
            );
        }
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("summary: {}", summary.join(", "));
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound and the noise.
        assert_eq!(
            judge(&a, &[10.02, 9.95, 10.1, 10.0, 9.98], 0.1, true).0,
            Verdict::Unchanged
        );
        // A clear regression beyond a 10 % bound.
        assert_eq!(
            judge(&a, &[11.5, 11.6, 11.4, 11.5, 11.7], 0.1, true).0,
            Verdict::Worse
        );
        // Every run better: improved.
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], 0.1, true).0,
            Verdict::Improved
        );
        // Higher-is-better metrics flip the sign.
        let (verdict, change) = judge(&a, &[8.0, 8.1, 7.9, 8.0, 8.05], 0.1, false);
        assert_eq!(verdict, Verdict::Worse);
        assert!(change > 0.0);
        // A parent whose quartiles spread wider than the bound cannot
        // call a small move unchanged.
        let noisy = [5.0, 10.0, 15.0, 7.0, 13.0];
        assert_eq!(
            judge(&noisy, &[10.5, 11.0, 9.0, 12.0, 10.0], 0.1, true).0,
            Verdict::Unresolved
        );
    }
}
