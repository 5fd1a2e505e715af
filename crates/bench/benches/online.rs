//! Online re-solve cost per epoch: cold full anneal vs. warm-started
//! refresh from the patched previous decision, at U = 90 under 10%
//! population churn (9 of 90 users replaced between epochs).
//!
//! Mirrors `mec_online::OnlineEngine`'s epoch pipeline with the raw
//! primitives so the two arms differ only in the re-solve strategy. The
//! achieved utilities of both arms are printed once so the speed/quality
//! trade-off can be read off the same run (see EXPERIMENTS.md). Each arm
//! is timed over [`SAMPLES`] re-solves and reported as the median
//! (`cargo bench -p mec-bench --bench online`).
//!
//! The harness runs only when `cargo bench` passes it `--bench`.
//! `cargo test` runs a `harness = false` target with no arguments, so
//! there it returns at once.

use mec_online::RandomWaypoint;
use mec_system::Evaluator;
use mec_types::{Seconds, UserId};
use mec_workloads::{epoch_seed, ExperimentParams, ScenarioGenerator, CHAIN_STREAM};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tsajs::{anneal, anneal_from, NeighborhoodKernel, ResolveMode, TtsaConfig};

const USERS: usize = 90;
const CHURNED: usize = 9; // 10% of the population replaced per epoch
const SEED: u64 = 7;
/// Timed re-solves per arm.
const SAMPLES: usize = 10;

/// Runs `solve` [`SAMPLES`] times and prints the median and fastest
/// wall-clock time of one run.
fn report<T>(name: &str, mut solve: impl FnMut() -> T) {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(solve());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    println!(
        "online_resolve/{name}: median {:.3} ms, fastest {:.3} ms over {SAMPLES} runs",
        times[SAMPLES / 2],
        times[0]
    );
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test` passes no arguments
    // to a `harness = false` target, and there is nothing to test here
    // beyond compilation.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let params = ExperimentParams::paper_default().with_users(USERS);
    let generator = ScenarioGenerator::new(params);
    let layout = generator.layout().expect("layout");
    let speed_range = (0.5, 2.0);
    let mut motion_rng = StdRng::seed_from_u64(SEED);
    let mut motion = RandomWaypoint::new(&layout, USERS, speed_range, &mut motion_rng);

    // Epoch k: solve the population cold — this is the decision the warm
    // arm patches forward.
    let prev_scenario = generator
        .generate_at(motion.positions(), SEED)
        .expect("epoch-k scenario");
    let base = TtsaConfig::paper_default();
    let kernel = NeighborhoodKernel::new();
    let mut rng = StdRng::seed_from_u64(SEED ^ CHAIN_STREAM);
    let prev = anneal(&prev_scenario, &base, &kernel, &mut rng);

    // Epoch k+1: survivors move 10 s of pedestrian motion; 10% of the
    // population is replaced (departures freeing slots, fresh arrivals).
    motion.step(&layout, Seconds::new(10.0), &mut motion_rng);
    let mut old_of_new: Vec<Option<UserId>> = (0..USERS).map(|u| Some(UserId::new(u))).collect();
    let mut positions = motion.positions().to_vec();
    for k in 0..CHURNED {
        // Spread departures across the population, replace with arrivals
        // at fresh uniform positions.
        let victim = k * (USERS / CHURNED);
        old_of_new[victim] = None;
        let fresh = motion.add_user(&layout, speed_range, &mut motion_rng);
        positions[victim] = motion.positions()[fresh];
        motion.remove_user(fresh);
    }
    let next_scenario = generator
        .generate_at(&positions, epoch_seed(SEED, 0))
        .expect("epoch-k+1 scenario");
    let patched = prev
        .assignment
        .patched(&old_of_new)
        .expect("patch survivors");
    let refresh = ResolveMode::warm(3_000).refresh_config(&base);

    // Report the utility gap once, outside the timed loops.
    let mut rng = StdRng::seed_from_u64(SEED ^ CHAIN_STREAM);
    let cold_outcome = anneal(&next_scenario, &base, &kernel, &mut rng);
    let mut rng = StdRng::seed_from_u64(SEED ^ CHAIN_STREAM);
    let warm_outcome = anneal_from(&next_scenario, &refresh, &kernel, &mut rng, patched.clone());
    let evaluator = Evaluator::new(&next_scenario);
    eprintln!(
        "online re-solve @ U={USERS}, {CHURNED} churned: cold J = {:.6} ({} proposals), \
         warm J = {:.6} ({} proposals), gap = {:.3}%",
        cold_outcome.objective,
        cold_outcome.proposals,
        warm_outcome.objective,
        warm_outcome.proposals,
        100.0 * (cold_outcome.objective - warm_outcome.objective)
            / cold_outcome.objective.max(f64::MIN_POSITIVE),
    );
    assert!(
        (evaluator.objective(&warm_outcome.assignment) - warm_outcome.objective).abs() <= 1e-9,
        "warm outcome must be self-consistent"
    );

    report("cold_u90_churn10", || {
        let mut rng = StdRng::seed_from_u64(SEED ^ CHAIN_STREAM);
        anneal(&next_scenario, &base, &kernel, &mut rng)
    });
    report("warm_u90_churn10", || {
        let mut rng = StdRng::seed_from_u64(SEED ^ CHAIN_STREAM);
        anneal_from(&next_scenario, &refresh, &kernel, &mut rng, patched.clone())
    });
}
