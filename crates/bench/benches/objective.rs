//! The objective-evaluation hot path: per-proposal cost and data-layout
//! ablation at the paper's largest population (U = 90).
//!
//! Not a criterion bench: the acceptance criterion is a per-proposal
//! speedup ratio of the speculative scoring path over the apply/undo
//! incremental baseline at equal mean quality over fixed seeds, so this
//! is a plain harness that measures both paths over seeds 11/23/47,
//! prints two tables (per-proposal metrics and the SoA layout ablation)
//! and writes the machine-readable verdict to `BENCH_objective.json`
//! (override the path with `TSAJS_BENCH_OUT`).
//!
//! Modes:
//! - `cargo bench --bench objective` — full run, U = 90.
//! - `TSAJS_BENCH_QUICK=1 cargo bench --bench objective` — CI smoke
//!   run, U = 30 with shortened measurement loops.
//! - `cargo test` passes `--test`, which exits immediately so the
//!   tier-1 suite never pays for a benchmark.

use mec_radio::ChannelGains;
use mec_system::pr1_baseline::Pr1IncrementalObjective;
use mec_system::simd::{add_assign_rows, padded_len};
use mec_system::{
    Assignment, CoefficientBlocks, Evaluator, IncrementalObjective, Scenario, Solver,
};
use mec_types::{ServerId, SubchannelId, UserId};
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use tsajs::{NeighborhoodKernel, TsajsSolver, TtsaConfig};

const SEEDS: [u64; 3] = [11, 23, 47];

/// The PR-1 `incremental_delta` per-proposal figure at U = 90 recorded
/// in EXPERIMENTS.md (criterion harness, propose included, this
/// machine) — the denominator of the headline speedup. The same-day
/// cross-check lives in the same-harness `incremental_delta` column.
const PR1_RECORDED_NS: f64 = 276.0;

/// One timed pass of `iters` iterations, in nanoseconds per iteration.
///
/// [`measure`] interleaves one pass of *every* metric per repetition
/// and keeps each metric's fastest pass: the container's clock-phase
/// swings last minutes, so timing each metric's repetitions
/// back-to-back would let a phase shift mid-run skew *ratios* between
/// metrics — interleaved, every metric samples every phase and the
/// minima are comparable.
fn time_ns<F: FnMut()>(iters: u64, mut op: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Populates roughly half the users, round-robin over servers.
fn half_populated(scenario: &Scenario) -> Assignment {
    let mut x = Assignment::all_local(scenario);
    for u in 0..scenario.num_users() {
        if u % 2 == 0 {
            let s = ServerId::new(u % scenario.num_servers());
            if let Some(j) = x.free_subchannel(s) {
                x.assign(UserId::new(u), s, j).expect("free slot");
            }
        }
    }
    x
}

#[derive(Default, Clone)]
struct Metrics {
    closed_form: f64,
    full_evaluate: f64,
    propose_only: f64,
    cloning_proposal: f64,
    pr1_incremental_delta: f64,
    incremental_delta: f64,
    score_path: f64,
    solver_step: f64,
    aos_scalar: f64,
    soa_scalar: f64,
    soa_chunked: f64,
}

fn measure(scenario: &Scenario, reps: u32, iters: u64) -> Metrics {
    let inf = f64::INFINITY;
    let mut m = Metrics {
        closed_form: inf,
        full_evaluate: inf,
        propose_only: inf,
        cloning_proposal: inf,
        pr1_incremental_delta: inf,
        incremental_delta: inf,
        score_path: inf,
        solver_step: inf,
        aos_scalar: inf,
        soa_scalar: inf,
        soa_chunked: inf,
    };
    let x = half_populated(scenario);
    let evaluator = Evaluator::new(scenario);
    let kernel = NeighborhoodKernel::new();

    // Persistent per-metric state, set up once so every repetition
    // continues the same walk (and the incremental states stay warm).
    let mut rng_propose = StdRng::seed_from_u64(7);
    let mut scratch = mec_system::EvalScratch::default();
    let mut rng_clone = StdRng::seed_from_u64(7);
    let mut pr1_inc = Pr1IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut rng_pr1 = StdRng::seed_from_u64(7);
    let mut inc_delta = IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut rng_delta = StdRng::seed_from_u64(7);
    let mut inc_score = IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut rng_score = StdRng::seed_from_u64(7);
    let mut inc_step = IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut current_step = inc_step.current();
    let mut rng_step = StdRng::seed_from_u64(7);

    // Layout-ablation state: the Γ bookkeeping row-op (add one user's
    // weighted-gain row for subchannel j into the per-server totals),
    //   aos_scalar  — gather `γ_u · g(u,s,j)` from the AoS gain table,
    //   soa_scalar  — plain indexed loop over a precomputed flat row,
    //   soa_chunked — the padded `chunks_exact(4)` kernel.
    let users = scenario.num_users();
    let servers = scenario.num_servers();
    let subs = scenario.num_subchannels();
    let stride = padded_len(servers);
    let gains: &ChannelGains = scenario.gains();
    let blocks = CoefficientBlocks::pack(scenario.user_ids().map(|u| {
        (
            scenario.coefficients(u),
            scenario.tx_powers_watts()[u.index()],
        )
    }));
    // Precomputed SoA rows: wgain[(u·N + j)·stride + s] = γ_u·g(u,s,j).
    let mut wgain = vec![0.0f64; users * subs * stride];
    for u in 0..users {
        for j in 0..subs {
            for s in 0..servers {
                wgain[(u * subs + j) * stride + s] = blocks.gamma_num[u]
                    * gains.gain(UserId::new(u), ServerId::new(s), SubchannelId::new(j));
            }
        }
    }
    let mut totals = vec![0.0f64; subs * stride];
    let rows = (users * subs) as f64;

    for _ in 0..reps {
        m.closed_form = m.closed_form.min(time_ns(iters.min(20_000), || {
            black_box(evaluator.objective(black_box(&x)));
        }));
        m.full_evaluate = m.full_evaluate.min(time_ns(iters.min(20_000), || {
            black_box(evaluator.evaluate(black_box(&x)).expect("evaluate"));
        }));

        // Move generation alone (no evaluation): the cost shared by
        // every proposal path below, so their evaluation-only costs can
        // be separated out.
        m.propose_only = m.propose_only.min(time_ns(iters, || {
            black_box(kernel.propose_move(scenario, &x, &mut rng_propose));
        }));

        // The pre-incremental path (PR-0's baseline): clone the
        // decision, mutate the clone, re-evaluate J*(X) from scratch.
        m.cloning_proposal = m.cloning_proposal.min(time_ns(iters.min(20_000), || {
            let (candidate, _) = kernel.propose(scenario, &x, &mut rng_clone);
            black_box(evaluator.objective_with(&candidate, &mut scratch));
        }));

        // The PR-1 incremental baseline, measured live: the AoS/scalar
        // evaluator exactly as it shipped in PR 1 is vendored into
        // `mec_system::pr1_baseline` so this runs in the same process
        // on the same machine state as the new paths — a same-run
        // denominator immune to the container's clock-phase swings that
        // a recorded number from another day is hostage to.
        m.pr1_incremental_delta = m.pr1_incremental_delta.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, pr1_inc.assignment(), &mut rng_pr1);
            pr1_inc.apply(&mv);
            black_box(pr1_inc.current());
            pr1_inc.undo();
        }));

        // The same loop shape on this tree's evaluator: propose a
        // compact move, apply it to the maintained sums, read the
        // objective, roll it back. Every rejected proposal pays the
        // mutation, the journal and the undo.
        m.incremental_delta = m.incremental_delta.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, inc_delta.assignment(), &mut rng_delta);
            inc_delta.apply(&mv);
            black_box(inc_delta.current());
            inc_delta.undo();
        }));

        // This PR's speculative path: propose, then *score* the move —
        // the same arithmetic as apply, replayed against borrowed
        // state, with no mutation, no journal and no undo.
        m.score_path = m.score_path.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, inc_score.assignment(), &mut rng_score);
            black_box(inc_score.score(&mv));
        }));

        // The solver's full step: propose, score, and apply + commit
        // only an accepted move, so the walk advances like the real
        // annealing loop. The Metropolis factor is fixed so the accept
        // rate stays representative rather than temperature-swept.
        m.solver_step = m.solver_step.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, inc_step.assignment(), &mut rng_step);
            let candidate = inc_step.score(&mv);
            let delta = candidate - current_step;
            if delta > 0.0 || (delta * 2.0).exp() > rng_step.gen::<f64>() {
                inc_step.apply(&mv);
                inc_step.commit();
                current_step = candidate;
            }
        }));

        totals.fill(0.0);
        m.aos_scalar = m.aos_scalar.min(
            time_ns(iters.min(4_000), || {
                for u in 0..users {
                    let gamma = blocks.gamma_num[u];
                    let uid = UserId::new(u);
                    for j in 0..subs {
                        let jid = SubchannelId::new(j);
                        let row = &mut totals[j * stride..j * stride + servers];
                        for (s, t) in row.iter_mut().enumerate() {
                            *t += gamma * gains.gain(uid, ServerId::new(s), jid);
                        }
                    }
                }
                black_box(&mut totals);
            }) / rows,
        );

        totals.fill(0.0);
        m.soa_scalar = m.soa_scalar.min(
            time_ns(iters.min(4_000), || {
                for u in 0..users {
                    for j in 0..subs {
                        let src =
                            &wgain[(u * subs + j) * stride..(u * subs + j) * stride + servers];
                        let dst = &mut totals[j * stride..j * stride + servers];
                        for (t, w) in dst.iter_mut().zip(src) {
                            *t += w;
                        }
                    }
                }
                black_box(&mut totals);
            }) / rows,
        );

        totals.fill(0.0);
        m.soa_chunked = m.soa_chunked.min(
            time_ns(iters.min(4_000), || {
                for u in 0..users {
                    for j in 0..subs {
                        let base = (u * subs + j) * stride;
                        add_assign_rows(
                            &mut totals[j * stride..(j + 1) * stride],
                            &wgain[base..base + stride],
                        );
                    }
                }
                black_box(&mut totals);
            }) / rows,
        );
    }

    m
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

fn main() {
    // `cargo test` executes bench targets with `--test`; there is
    // nothing to smoke-test here beyond compilation.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let quick = std::env::var("TSAJS_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let users = if quick { 30 } else { 90 };
    let reps = if quick { 3 } else { 7 };
    let iters: u64 = if quick { 20_000 } else { 100_000 };
    let base = if quick {
        TtsaConfig::paper_default().with_min_temperature(1e-1)
    } else {
        TtsaConfig::paper_default()
    };

    let generator = ScenarioGenerator::new(ExperimentParams::paper_default().with_users(users));
    println!("objective bench: U={users}, seeds {SEEDS:?}, quick={quick}");

    let mut all: Vec<Metrics> = Vec::new();
    let mut utilities: Vec<f64> = Vec::new(); // per seed
    for seed in SEEDS {
        let scenario = generator.generate(seed).expect("scenario");
        all.push(measure(&scenario, reps, iters));
        // Solution quality: the solver replays the PR-1 trajectory bit
        // for bit (pinned by the determinism tests), so its J IS the
        // baseline J.
        let mut solver = TsajsSolver::new(base.with_seed(seed));
        utilities.push(solver.solve(&scenario).expect("solve").utility);
    }

    let agg = |f: fn(&Metrics) -> f64| mean(all.iter().map(f));
    let closed_form = agg(|m| m.closed_form);
    let full_evaluate = agg(|m| m.full_evaluate);
    let propose_only = agg(|m| m.propose_only);
    let cloning = agg(|m| m.cloning_proposal);
    let pr1_incremental = agg(|m| m.pr1_incremental_delta);
    let incremental = agg(|m| m.incremental_delta);
    let score = agg(|m| m.score_path);
    let solver_step = agg(|m| m.solver_step);
    let aos = agg(|m| m.aos_scalar);
    let soa = agg(|m| m.soa_scalar);
    let chunked = agg(|m| m.soa_chunked);

    println!("\nper-proposal metrics (mean of per-seed fastest, ns):");
    println!("{:<22} {:>12}", "path", "ns/proposal");
    for (name, ns) in [
        ("closed_form", closed_form),
        ("full_evaluate", full_evaluate),
        ("propose_only", propose_only),
        ("cloning_proposal", cloning),
        ("pr1_incremental_delta", pr1_incremental),
        ("incremental_delta", incremental),
        ("score_path", score),
        ("solver_step", solver_step),
    ] {
        println!("{name:<22} {ns:>12.1}");
    }

    println!("\nlayout ablation (Γ row-op, ns per user-row of S servers):");
    println!("{:<22} {:>12}", "layout", "ns/row");
    for (name, ns) in [
        ("aos_scalar", aos),
        ("soa_scalar", soa),
        ("soa_chunked", chunked),
    ] {
        println!("{name:<22} {ns:>12.2}");
    }

    let speedup_vs_recorded = PR1_RECORDED_NS / score;
    let speedup_same_run = pr1_incremental / score;
    let speedup = incremental / score;
    let speedup_vs_clone = cloning / score;
    let mean_j = mean(utilities.iter().copied());
    println!(
        "\nspeculative scoring vs the PR-1 incremental baseline: \
         {speedup_vs_recorded:.2}x per proposal vs the {PR1_RECORDED_NS:.0} ns recorded in \
         EXPERIMENTS.md, {speedup_same_run:.2}x vs the vendored PR-1 evaluator measured in \
         this run ({speedup:.2}x vs this tree's apply/undo, {speedup_vs_clone:.0}x vs the \
         cloning path)"
    );
    println!(
        "mean J: {mean_j:.6} (trajectory-identical to the PR-1 baseline, so it \
         is the baseline J)"
    );

    let per_seed: Vec<String> = SEEDS
        .iter()
        .zip(utilities.iter())
        .map(|(seed, j)| format!("{{\"seed\":{seed},\"utility\":{j}}}"))
        .collect();
    let json = format!(
        "{{\n  \"users\": {users},\n  \"quick\": {quick},\n  \"seeds\": [11, 23, 47],\n  \
         \"per_proposal_ns\": {{\n    \"closed_form\": {closed_form},\n    \
         \"full_evaluate\": {full_evaluate},\n    \"propose_only\": {propose_only},\n    \
         \"cloning_proposal\": {cloning},\n    \
         \"pr1_incremental_delta\": {pr1_incremental},\n    \
         \"incremental_delta\": {incremental},\n    \
         \"score_path\": {score},\n    \"solver_step\": {solver_step}\n  }},\n  \
         \"layout_ns_per_row\": {{\n    \"aos_scalar\": {aos},\n    \
         \"soa_scalar\": {soa},\n    \"soa_chunked\": {chunked}\n  }},\n  \
         \"pr1_recorded_baseline_ns\": {PR1_RECORDED_NS},\n  \
         \"speedup_score_vs_pr1_recorded\": {speedup_vs_recorded},\n  \
         \"speedup_score_vs_pr1_same_run\": {speedup_same_run},\n  \
         \"speedup_score_vs_applyundo\": {speedup},\n  \
         \"speedup_score_vs_cloning\": {speedup_vs_clone},\n  \
         \"mean_utility\": {mean_j},\n  \
         \"baseline_note\": \"pr1_recorded_baseline_ns is the U=90 incremental_delta figure \
         recorded by PR 1 in EXPERIMENTS.md on this machine; part of that ratio is \
         methodology (criterion mean there vs keep-fastest here). \
         pr1_incremental_delta is the PR-1 evaluator itself (vendored, bit-exact against \
         this tree, same loop shape) measured live in this run — the same-machine-state \
         denominator. The solver replays the PR-1 apply/undo trajectory bit-exactly (pinned \
         by determinism tests), so mean_utility equals the baseline mean J\",\n  \
         \"solves\": [{}]\n}}\n",
        per_seed.join(",")
    );
    let out =
        std::env::var("TSAJS_BENCH_OUT").unwrap_or_else(|_| "BENCH_objective.json".to_string());
    std::fs::write(&out, json).expect("write bench report");
    println!("wrote {out}");
}
