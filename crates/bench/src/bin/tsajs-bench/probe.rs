//! Layer probes run after a workload's timed section, on that workload's
//! own scenario and final decision.

use crate::stats::median;
use crate::trace::Ledger;
use mec_system::{Assignment, Evaluator, IncrementalObjective, Scenario};
use mec_types::UserId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use tsajs::{NeighborhoodKernel, SearchTrace};

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Bytes of the gain table the radio layer builds for `scenario`,
/// computed from its shape (one `f64` per user, server and, unless the
/// table is shared across subchannels, subchannel), in MB.
pub fn gain_table_mb(scenario: &Scenario) -> f64 {
    let rows = if scenario.gains().is_subchannel_shared() {
        1
    } else {
        scenario.num_subchannels()
    };
    (scenario.num_users() * scenario.num_servers() * rows * 8) as f64 / 1e6
}

/// Fills `system.propose_ns` / `apply_undo_ns` / `score_ns` from one
/// seeded stream of `moves` proposals drawn against `decision`, timed
/// three times (draw only; draw + `apply` + `undo`; draw + `score`) so
/// each call's cost is a difference of block times, not of per-call
/// clock reads as slow as the calls themselves.
pub fn objective_stream(
    ledger: &mut Ledger,
    scenario: &Scenario,
    decision: &Assignment,
    seed: u64,
    moves: usize,
) {
    let kernel = NeighborhoodKernel::new();
    let mut inc = IncrementalObjective::new(scenario, decision.clone())
        .expect("the workload's decision fits its scenario");
    let mut block = |mode: u8| {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        for _ in 0..moves {
            let (mv, _) = kernel.propose_move(scenario, inc.assignment(), &mut rng);
            match mode {
                0 => {
                    black_box(&mv);
                }
                1 => {
                    black_box(inc.apply(&mv));
                    inc.undo();
                }
                _ => {
                    black_box(inc.score(&mv));
                }
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / moves as f64
    };
    // Warm the caches once, then take each block twice and keep the faster.
    block(2);
    let propose = block(0).min(block(0));
    let apply_undo = block(1).min(block(1));
    let score = block(2).min(block(2));
    ledger.set("system.propose_ns", propose, "ns");
    ledger.set("system.apply_undo_ns", apply_undo - propose, "ns");
    ledger.set("system.score_ns", score - propose, "ns");
}

/// Fills `radio.gain_table_mb` and the whole-decision `system.*` calls:
/// `evaluate_ms` (one full `Evaluator::evaluate`), `resync_ms` (one
/// `IncrementalObjective::new`, a full resync) and `patch_us`
/// (`Assignment::patched` under a seeded 10 % churn).
pub fn system_calls(ledger: &mut Ledger, scenario: &Scenario, decision: &Assignment, seed: u64) {
    ledger.set("radio.gain_table_mb", gain_table_mb(scenario), "MB");
    let evaluator = Evaluator::new(scenario);
    ledger.set(
        "system.evaluate_ms",
        time_ms(5, || {
            evaluator.evaluate(decision).expect("feasible decision")
        }),
        "ms",
    );
    ledger.set(
        "system.resync_ms",
        time_ms(5, || {
            IncrementalObjective::new(scenario, decision.clone())
                .expect("feasible decision")
                .current()
        }),
        "ms",
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    // One user in ten departs and an arrival takes its index.
    let map: Vec<Option<UserId>> = (0..decision.num_users())
        .map(|v| rng.gen_bool(0.9).then(|| UserId::new(v)))
        .collect();
    ledger.set(
        "system.patch_us",
        time_ms(9, || decision.patched(&map).expect("valid survivor map")) * 1e3,
        "us",
    );
}

/// Fills `core.anneal.accept_share` and `core.anneal.trigger_share` from
/// the search traces of solves that spent `proposals` proposals in total.
pub fn search_shares(ledger: &mut Ledger, traces: &[&SearchTrace], proposals: u64) {
    let accepted: u64 = traces
        .iter()
        .flat_map(|t| &t.epochs)
        .map(|e| u64::from(e.accepted_better) + u64::from(e.accepted_worse))
        .sum();
    let epochs: usize = traces.iter().map(|t| t.len()).sum();
    let triggers: usize = traces.iter().map(|t| t.trigger_count()).sum();
    ledger.set(
        "core.anneal.accept_share",
        accepted as f64 / proposals.max(1) as f64,
        "share",
    );
    ledger.set(
        "core.anneal.trigger_share",
        triggers as f64 / epochs.max(1) as f64,
        "share",
    );
}

/// Fills the core-layer cost numbers from proposals spent and time spent
/// in the core's calls per operation, and the objective's share of that
/// time (`proposals × (propose + score)`, the annealer's per-proposal
/// work, over the core time). Needs [`objective_stream`] to have run.
pub fn core_costs(ledger: &mut Ledger, proposals_per_op: f64, core_ms_per_op: f64) {
    ledger.set("core.anneal.proposals", proposals_per_op, "count");
    let ns = core_ms_per_op * 1e6 / proposals_per_op.max(1.0);
    ledger.set("core.anneal.ns_per_proposal", ns, "ns");
    let per_proposal = ledger.get("system.propose_ns").unwrap_or(f64::NAN)
        + ledger.get("system.score_ns").unwrap_or(f64::NAN);
    ledger.set("core.anneal.objective_share", per_proposal / ns, "share");
}
