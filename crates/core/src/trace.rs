//! Per-epoch search diagnostics.

use serde::{Deserialize, Serialize};

/// One temperature epoch's summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Temperature during this epoch.
    pub temperature: f64,
    /// Objective of the current (accepted) solution at epoch end.
    pub current_objective: f64,
    /// Best objective seen so far.
    pub best_objective: f64,
    /// Worsening moves accepted during this epoch.
    pub accepted_worse: u32,
    /// Improving moves accepted during this epoch.
    pub accepted_better: u32,
    /// Whether the threshold trigger fired at the end of this epoch
    /// (fast cooling applied).
    pub trigger_fired: bool,
    /// Proposals of this epoch that the move bound ruled out without
    /// pricing them ([`IncrementalObjective::bound`]); `0` in traces
    /// recorded before the bound existed.
    ///
    /// [`IncrementalObjective::bound`]: mec_system::IncrementalObjective::bound
    #[serde(default)]
    pub bounded: u32,
    /// Null moves (empty proposals, e.g. a swap of two local users) of
    /// this epoch, settled without pricing them. On a finite state each
    /// is also an accepted worse move, so it feeds the threshold trigger;
    /// `0` in traces recorded before the count existed.
    #[serde(default)]
    pub null: u32,
}

/// The full per-epoch history of one annealing run (recorded only when
/// [`TtsaConfig::record_trace`](crate::TtsaConfig) is set).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// One record per temperature epoch, in order.
    pub epochs: Vec<EpochRecord>,
}

impl SearchTrace {
    /// Number of epochs recorded.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// How many epochs ended with the fast-cooling trigger fired.
    pub fn trigger_count(&self) -> usize {
        self.epochs.iter().filter(|e| e.trigger_fired).count()
    }

    /// Renders the trace as CSV (one row per epoch), ready for plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,temperature,current_objective,best_objective,accepted_worse,accepted_better,trigger_fired,bounded,null\n",
        );
        for (i, e) in self.epochs.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                i,
                e.temperature,
                e.current_objective,
                e.best_objective,
                e.accepted_worse,
                e.accepted_better,
                e.trigger_fired,
                e.bounded,
                e.null
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(temp: f64, best: f64, fired: bool) -> EpochRecord {
        EpochRecord {
            temperature: temp,
            current_objective: best - 0.1,
            best_objective: best,
            accepted_worse: 3,
            accepted_better: 2,
            trigger_fired: fired,
            bounded: 7,
            null: 2,
        }
    }

    #[test]
    fn trace_accumulates_and_summarizes() {
        let mut trace = SearchTrace::default();
        assert!(trace.is_empty());
        trace.epochs.push(record(3.0, 1.0, false));
        trace.epochs.push(record(2.91, 1.5, true));
        trace.epochs.push(record(2.62, 1.5, false));
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.trigger_count(), 1);
    }

    #[test]
    fn records_without_a_bounded_count_deserialize_to_zero() {
        let old = r#"{"temperature":3.0,"current_objective":0.9,"best_objective":1.0,"accepted_worse":3,"accepted_better":2,"trigger_fired":false}"#;
        let e: EpochRecord = serde_json::from_str(old).unwrap();
        assert_eq!(e.bounded, 0);
        assert_eq!(e.null, 0);
        assert_eq!(e.accepted_worse, 3);
    }

    #[test]
    fn csv_has_one_row_per_epoch_plus_header() {
        let mut trace = SearchTrace::default();
        trace.epochs.push(record(3.0, 1.0, false));
        trace.epochs.push(record(2.91, 1.5, true));
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("epoch,temperature"));
        assert!(lines[0].ends_with(",trigger_fired,bounded,null"));
        assert!(lines[2].ends_with("true,7,2"));
        assert!(lines[1].starts_with("0,3,"));
    }
}
