//! Head-to-head: paper single-chain TTSA vs the parallel-tempering
//! engine at the paper's largest population (U = 90).
//!
//! Not a criterion bench: the acceptance criterion is a wall-clock
//! speedup ratio at equal-or-better mean quality over fixed seeds, so
//! this is a plain harness that runs both engines over seeds 11/23/47,
//! prints a table and writes the machine-readable verdict to
//! `BENCH_tempering.json` (override the path with `TSAJS_BENCH_OUT`).
//!
//! Modes:
//! - `cargo bench --bench tempering` — full run, U = 90.
//! - `TSAJS_BENCH_QUICK=1 cargo bench --bench tempering` — CI smoke
//!   run, U = 30 with a shortened ladder.
//! - The harness runs only when `cargo bench` passes it `--bench`.
//!   `cargo test` runs a `harness = false` target with no arguments, so
//!   there it returns at once and the test suite never pays for a
//!   benchmark.

use mec_system::Solver;
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use std::time::Instant;
use tsajs::{TemperingConfig, TsajsSolver, TtsaConfig};

const SEEDS: [u64; 3] = [11, 23, 47];

struct Run {
    seed: u64,
    utility: f64,
    seconds: f64,
    proposals: u64,
}

/// Runs the same solve `REPS` times and keeps the fastest wall-clock
/// (the run least disturbed by the OS); the result itself is seeded and
/// identical across repetitions.
const REPS: u32 = 40;

fn run_solver(make: impl Fn() -> TsajsSolver, scenario: &mec_system::Scenario, seed: u64) -> Run {
    let mut best_seconds = f64::INFINITY;
    let mut utility = f64::NEG_INFINITY;
    let mut proposals = 0;
    for _ in 0..REPS {
        let mut solver = make();
        let start = Instant::now();
        let solution = solver.solve(scenario).expect("solve");
        best_seconds = best_seconds.min(start.elapsed().as_secs_f64());
        utility = solution.utility;
        proposals = solution.stats.objective_evaluations;
    }
    Run {
        seed,
        utility,
        seconds: best_seconds,
        proposals,
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

fn json_runs(runs: &[Run]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"seed\":{},\"utility\":{},\"seconds\":{},\"proposals\":{},\"proposals_per_sec\":{}}}",
                r.seed,
                r.utility,
                r.seconds,
                r.proposals,
                r.proposals as f64 / r.seconds
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test` passes no arguments
    // to a `harness = false` target, and there is nothing to test here
    // beyond compilation.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let quick = mec_service::quick_from_env();
    let users = if quick { 30 } else { 90 };
    let base = if quick {
        TtsaConfig::paper_default().with_min_temperature(1e-3)
    } else {
        TtsaConfig::paper_default()
    };
    // Tuning overrides, so a ladder sweep doesn't need a recompile:
    // TSAJS_BENCH_REPLICAS / _LADDER / _FACTOR / _QUENCH / _INTERVAL.
    let mut tempering = TemperingConfig::paper_default();
    if let Ok(v) = std::env::var("TSAJS_BENCH_REPLICAS") {
        tempering.replicas = v.parse().expect("TSAJS_BENCH_REPLICAS");
    }
    if let Ok(v) = std::env::var("TSAJS_BENCH_LADDER") {
        tempering.ladder_ratio = v.parse().expect("TSAJS_BENCH_LADDER");
    }
    if let Ok(v) = std::env::var("TSAJS_BENCH_FACTOR") {
        tempering.schedule_factor = v.parse().expect("TSAJS_BENCH_FACTOR");
    }
    if let Ok(v) = std::env::var("TSAJS_BENCH_QUENCH") {
        tempering.quench_epochs = v.parse().expect("TSAJS_BENCH_QUENCH");
    }
    if let Ok(v) = std::env::var("TSAJS_BENCH_INTERVAL") {
        tempering.exchange_interval = v.parse().expect("TSAJS_BENCH_INTERVAL");
    }
    if let Ok(v) = std::env::var("TSAJS_BENCH_BIAS") {
        tempering.cold_bias = v.parse().expect("TSAJS_BENCH_BIAS");
    }

    let generator = ScenarioGenerator::new(ExperimentParams::paper_default().with_users(users));
    let mut single = Vec::new();
    let mut tempered = Vec::new();
    println!("tempering bench: U={users}, seeds {SEEDS:?}, quick={quick}");
    println!(
        "{:<10} {:>6} {:>14} {:>10} {:>12} {:>12}",
        "engine", "seed", "utility", "time(s)", "proposals", "prop/s"
    );
    for seed in SEEDS {
        let scenario = generator.generate(seed).expect("scenario");
        let run = run_solver(|| TsajsSolver::new(base.with_seed(seed)), &scenario, seed);
        println!(
            "{:<10} {:>6} {:>14.6} {:>10.3} {:>12} {:>12.0}",
            "single",
            seed,
            run.utility,
            run.seconds,
            run.proposals,
            run.proposals as f64 / run.seconds
        );
        single.push(run);
        let run = run_solver(
            || TsajsSolver::new(base.with_seed(seed)).with_tempering(tempering),
            &scenario,
            seed,
        );
        println!(
            "{:<10} {:>6} {:>14.6} {:>10.3} {:>12} {:>12.0}",
            "tempering",
            seed,
            run.utility,
            run.seconds,
            run.proposals,
            run.proposals as f64 / run.seconds
        );
        tempered.push(run);
    }

    let single_time = mean(single.iter().map(|r| r.seconds));
    let tempered_time = mean(tempered.iter().map(|r| r.seconds));
    let single_j = mean(single.iter().map(|r| r.utility));
    let tempered_j = mean(tempered.iter().map(|r| r.utility));
    let single_tp = mean(single.iter().map(|r| r.proposals as f64 / r.seconds));
    let tempered_tp = mean(tempered.iter().map(|r| r.proposals as f64 / r.seconds));
    let speedup = single_time / tempered_time;
    println!(
        "mean: single {single_j:.6} in {single_time:.3}s, \
         tempering {tempered_j:.6} in {tempered_time:.3}s \
         => speedup {speedup:.2}x, quality delta {:+.6}",
        tempered_j - single_j
    );

    let json = format!(
        "{{\n  \"users\": {users},\n  \"quick\": {quick},\n  \
         \"replicas\": {},\n  \"seeds\": [11, 23, 47],\n  \
         \"single_chain\": {},\n  \"tempering\": {},\n  \
         \"mean_utility_single\": {single_j},\n  \
         \"mean_utility_tempering\": {tempered_j},\n  \
         \"mean_seconds_single\": {single_time},\n  \
         \"mean_seconds_tempering\": {tempered_time},\n  \
         \"mean_proposals_per_sec_single\": {single_tp},\n  \
         \"mean_proposals_per_sec_tempering\": {tempered_tp},\n  \
         \"speedup\": {speedup}\n}}\n",
        tempering.replicas,
        json_runs(&single),
        json_runs(&tempered)
    );
    let out =
        std::env::var("TSAJS_BENCH_OUT").unwrap_or_else(|_| "BENCH_tempering.json".to_string());
    std::fs::write(&out, json).expect("write bench report");
    println!("wrote {out}");
}
