//! The objective-evaluation hot path: per-proposal cost and data-layout
//! ablation at the paper's largest population (U = 90).
//!
//! A plain harness: it times each evaluation path per proposal (among
//! them the scoring path against the apply/undo loop) over seeds
//! 11/23/47, checks the mean solver quality on the same seeds, prints
//! two tables (per-proposal metrics and the SoA layout ablation) and
//! writes the machine-readable verdict to `BENCH_objective.json`
//! (override the path with `TSAJS_BENCH_OUT`).
//!
//! Modes:
//! - `cargo bench --bench objective` — full run, U = 90.
//! - `TSAJS_BENCH_QUICK=1 cargo bench --bench objective` — CI smoke
//!   run, U = 30 with shortened measurement loops.
//! - The harness runs only when `cargo bench` passes it `--bench`.
//!   `cargo test` runs a `harness = false` target with no arguments, so
//!   there it returns at once and the test suite never pays for a
//!   benchmark.

use mec_radio::ChannelGains;
use mec_system::simd::{add_assign_rows, padded_len};
use mec_system::{
    Assignment, CoefficientBlocks, Evaluator, IncrementalObjective, Scenario, Solver,
};
use mec_types::{ServerId, SubchannelId, UserId};
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tsajs::annealing::{step, Step};
use tsajs::{NeighborhoodKernel, TsajsSolver, TtsaConfig};

const SEEDS: [u64; 3] = [11, 23, 47];

/// Fixed temperature of the timed `solver_step` walk.
const STEP_TEMPERATURE: f64 = 0.5;

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
    incremental_delta: f64,
    score_path: f64,
    bound_path: f64,
    solver_step: f64,
    /// Share of the timed solver steps that were null moves, settled
    /// before the bound.
    null_share: f64,
    /// Share of the timed solver steps that the bound settled unpriced
    /// (null moves not included).
    settled_share: f64,
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
        incremental_delta: inf,
        score_path: inf,
        bound_path: inf,
        solver_step: inf,
        null_share: 0.0,
        settled_share: 0.0,
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
    let mut inc_delta = IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut rng_delta = StdRng::seed_from_u64(7);
    let mut inc_score = IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut rng_score = StdRng::seed_from_u64(7);
    let mut inc_bound = IncrementalObjective::new(scenario, x.clone()).expect("feasible");
    let mut rng_bound = StdRng::seed_from_u64(7);
    let (mut steps, mut null, mut settled) = (0u64, 0u64, 0u64);
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

        // The incremental loop: propose a compact move, apply it to the
        // maintained sums, read the objective, roll it back. Every
        // proposal pays the mutation, the journal and the undo.
        m.incremental_delta = m.incremental_delta.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, inc_delta.assignment(), &mut rng_delta);
            inc_delta.apply(&mv);
            black_box(inc_delta.current());
            inc_delta.undo();
        }));

        // The scoring path: propose, then *score* the move. A slot take
        // is priced straight-line without touching the state; any other
        // move is applied, read and undone.
        m.score_path = m.score_path.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, inc_score.assignment(), &mut rng_score);
            black_box(inc_score.score(&mv));
        }));

        // A proposal the bound settles: propose, then bound the move's
        // objective change without a single `log2` Γ refresh.
        m.bound_path = m.bound_path.min(time_ns(iters, || {
            let (mv, _) = kernel.propose_move(scenario, inc_bound.assignment(), &mut rng_bound);
            black_box(inc_bound.bound(&mv));
        }));

        // The solver's full gated step, `tsajs::annealing::step`: draw a
        // neighbor; a null move is settled on its one Metropolis uniform,
        // a slot take is bounded and priced straight-line, any other move
        // through its `MoveDesc`; a move that cannot improve is rejected
        // unpriced when its bound already loses to the uniform, and only
        // an accepted move is applied + committed, so the walk advances
        // like the real annealing loop. The temperature is fixed so the
        // accept rate stays representative rather than temperature-swept.
        m.solver_step = m.solver_step.min(time_ns(iters, || {
            steps += 1;
            match step(
                &kernel,
                &mut inc_step,
                &mut current_step,
                STEP_TEMPERATURE,
                &mut rng_step,
            ) {
                Step::Null => null += 1,
                Step::Bounded => settled += 1,
                Step::Rejected | Step::Better | Step::Worse => {}
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

    m.null_share = null as f64 / steps as f64;
    m.settled_share = settled as f64 / steps as f64;
    m
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
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
        // Solution quality: the solver's seeded trajectory is pinned by
        // the regression tests, so this J only moves with a decision.
        let mut solver = TsajsSolver::new(base.with_seed(seed));
        utilities.push(solver.solve(&scenario).expect("solve").utility);
    }

    let agg = |f: fn(&Metrics) -> f64| mean(all.iter().map(f));
    let closed_form = agg(|m| m.closed_form);
    let full_evaluate = agg(|m| m.full_evaluate);
    let propose_only = agg(|m| m.propose_only);
    let cloning = agg(|m| m.cloning_proposal);
    let incremental = agg(|m| m.incremental_delta);
    let score = agg(|m| m.score_path);
    let bound_path = agg(|m| m.bound_path);
    let solver_step = agg(|m| m.solver_step);
    let null_share = agg(|m| m.null_share);
    let settled_share = agg(|m| m.settled_share);
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
        ("incremental_delta", incremental),
        ("score_path", score),
        ("bound_path", bound_path),
        ("solver_step", solver_step),
    ] {
        println!("{name:<22} {ns:>12.1}");
    }
    println!(
        "solver_step: {:.1} % of the proposals were null moves and the bound settled \
         {:.1} % unpriced",
        100.0 * null_share,
        100.0 * settled_share
    );

    println!("\nlayout ablation (Γ row-op, ns per user-row of S servers):");
    println!("{:<22} {:>12}", "layout", "ns/row");
    for (name, ns) in [
        ("aos_scalar", aos),
        ("soa_scalar", soa),
        ("soa_chunked", chunked),
    ] {
        println!("{name:<22} {ns:>12.2}");
    }

    let speedup = incremental / score;
    let speedup_vs_clone = cloning / score;
    let mean_j = mean(utilities.iter().copied());
    println!(
        "\nscore path: {speedup:.2}x per proposal vs the apply/undo loop, \
         {speedup_vs_clone:.0}x vs the cloning path"
    );
    println!("mean J: {mean_j:.6}");

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
         \"incremental_delta\": {incremental},\n    \
         \"score_path\": {score},\n    \"bound_path\": {bound_path},\n    \
         \"solver_step\": {solver_step}\n  }},\n  \
         \"solver_step_null_share\": {null_share},\n  \
         \"solver_step_settled_share\": {settled_share},\n  \
         \"layout_ns_per_row\": {{\n    \"aos_scalar\": {aos},\n    \
         \"soa_scalar\": {soa},\n    \"soa_chunked\": {chunked}\n  }},\n  \
         \"speedup_score_vs_applyundo\": {speedup},\n  \
         \"speedup_score_vs_cloning\": {speedup_vs_clone},\n  \
         \"mean_utility\": {mean_j},\n  \
         \"solves\": [{}]\n}}\n",
        per_seed.join(",")
    );
    let out =
        std::env::var("TSAJS_BENCH_OUT").unwrap_or_else(|_| "BENCH_objective.json".to_string());
    std::fs::write(&out, json).expect("write bench report");
    println!("wrote {out}");
}
