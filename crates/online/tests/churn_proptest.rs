//! Property tests: arbitrary arrive/depart/move interleavings keep the
//! patched online schedule feasible (constraints 12b–12d) and keep the
//! reported utility consistent with a fresh evaluation and with a fresh
//! [`IncrementalObjective`] resync.

use mec_online::{
    AdmitAll, CapacityGate, ChurnEvent, ChurnEventKind, ChurnProcess, OnlineConfig, OnlineEngine,
};
use mec_system::{Evaluator, IncrementalObjective};
use mec_types::Seconds;
use mec_workloads::ExperimentParams;
use proptest::prelude::*;
use tsajs::{ResolveMode, TtsaConfig};

/// A scripted churn process built from a proptest-generated interleaving.
struct ScriptedChurn {
    events: Vec<ChurnEvent>,
    next: usize,
}

impl ChurnProcess for ScriptedChurn {
    fn drain_until(&mut self, now: Seconds, out: &mut Vec<ChurnEvent>) {
        while self.next < self.events.len() && self.events[self.next].at.as_secs() <= now.as_secs()
        {
            out.push(self.events[self.next]);
            self.next += 1;
        }
    }
}

/// Turns a list of ±deltas into a valid event script: positive entries
/// arrive fresh users, negative entries depart the oldest live user.
/// Events for step `k` land at `k * epoch_duration`.
fn script(deltas: &[i8], epoch_secs: f64) -> ScriptedChurn {
    let mut events = Vec::new();
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    for (k, &d) in deltas.iter().enumerate() {
        let at = Seconds::new(k as f64 * epoch_secs);
        if d >= 0 {
            for _ in 0..d {
                events.push(ChurnEvent {
                    at,
                    user: next_id,
                    kind: ChurnEventKind::Arrival,
                });
                live.push(next_id);
                next_id += 1;
            }
        } else {
            for _ in 0..(-d) {
                if live.is_empty() {
                    break;
                }
                let user = live.remove(0);
                events.push(ChurnEvent {
                    at,
                    user,
                    kind: ChurnEventKind::Departure,
                });
            }
        }
    }
    ScriptedChurn { events, next: 0 }
}

fn quick_config() -> OnlineConfig {
    OnlineConfig::pedestrian()
        .with_base(TtsaConfig::paper_default().with_min_temperature(1e-2))
        .with_mode(ResolveMode::warm(100))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every epoch of an arbitrary interleaving the live schedule
    /// satisfies 12b–12d, the reported utility matches a fresh
    /// `Evaluator` pass, and a fresh `IncrementalObjective` built from
    /// the same assignment agrees after `resync()` — all within 1e-9.
    #[test]
    fn random_interleavings_keep_the_patched_schedule_valid(
        seed in 0u64..1_000,
        deltas in proptest::collection::vec(-3i8..=4, 3..8),
    ) {
        let params = ExperimentParams::paper_default().with_servers(4);
        let config = quick_config();
        let epoch_secs = config.epoch_duration.as_secs();
        let mut engine = OnlineEngine::new(
            params,
            config,
            Box::new(script(&deltas, epoch_secs)),
            Box::new(AdmitAll),
            seed,
        ).unwrap();

        for _ in 0..deltas.len() {
            let report = engine.step().unwrap();
            prop_assert_eq!(
                report.scheduled + report.forced_local,
                report.active_users
            );
            if let Some((scenario, assignment)) = engine.last_schedule() {
                // 12b–12d: one slot per user, no subchannel reuse within
                // a server, slots within range.
                assignment.verify_feasible(scenario).unwrap();
                let fresh = Evaluator::new(scenario).objective(assignment);
                prop_assert!(
                    (report.utility - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
                    "reported {} vs fresh {}", report.utility, fresh
                );
                let mut inc =
                    IncrementalObjective::new(scenario, assignment.clone()).unwrap();
                prop_assert!(
                    (inc.current() - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
                    "incremental {} vs fresh {}", inc.current(), fresh
                );
                inc.resync();
                prop_assert!(
                    (inc.current() - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
                    "resynced {} vs fresh {}", inc.current(), fresh
                );
            } else {
                prop_assert_eq!(report.scheduled, 0);
                prop_assert_eq!(report.utility, 0.0);
            }
        }
    }

    /// A rejecting capacity gate never lets the scheduled population past
    /// its cap, no matter the interleaving.
    #[test]
    fn capacity_gate_holds_under_random_churn(
        seed in 0u64..1_000,
        deltas in proptest::collection::vec(0i8..=5, 3..6),
    ) {
        let params = ExperimentParams::paper_default().with_servers(3);
        let config = quick_config();
        let epoch_secs = config.epoch_duration.as_secs();
        let mut engine = OnlineEngine::new(
            params,
            config,
            Box::new(script(&deltas, epoch_secs)),
            Box::new(CapacityGate::rejecting(6)),
            seed,
        ).unwrap();
        for _ in 0..deltas.len() {
            let report = engine.step().unwrap();
            prop_assert!(report.scheduled <= 6);
        }
    }
}
