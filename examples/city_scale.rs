//! A "smart city" scenario in two acts.
//!
//! **Act 1 — a heterogeneous district** built with the low-level API:
//! mixed device classes, mixed application workloads, and prioritized
//! first responders (higher provider preference `λ_u`) — the use case the
//! paper's §III-B motivates. Demonstrates composing `mec-topology` +
//! `mec-radio` + `mec-system` directly instead of going through
//! `ExperimentParams`.
//!
//! **Act 2 — the whole metro**: 100 000 users over a 36-cell deployment,
//! solved end to end with the sharded engine (`ShardSolver`). The
//! generator stores subchannel-shared blocked gains, the partitioner
//! clusters the cells, every cluster cold-solves in parallel, and
//! pipelined Jacobi-with-aging epochs reconcile cross-cluster
//! interference. The
//! reported objective is the monolithic resync, so what prints is the
//! true city-wide `J*(X)`.
//!
//! ```text
//! cargo run --release --example city_scale
//! CITY_USERS=250000 cargo run --release --example city_scale
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use tsajs_mec::prelude::*;
use tsajs_mec::radio::ChannelModel;
use tsajs_mec::topology::place_users_uniform;

/// An application profile from the paper's motivating scenarios.
#[derive(Clone, Copy)]
struct AppProfile {
    name: &'static str,
    data_kb: f64,
    workload_mcycles: f64,
    beta_time: f64,
}

const APPS: [AppProfile; 3] = [
    // Interactive AR overlay: small input, heavy compute, latency-critical.
    AppProfile {
        name: "ar-overlay",
        data_kb: 150.0,
        workload_mcycles: 3000.0,
        beta_time: 0.8,
    },
    // Traffic-camera video analytics: big input, heavy compute, balanced.
    AppProfile {
        name: "video-analytics",
        data_kb: 1200.0,
        workload_mcycles: 4000.0,
        beta_time: 0.5,
    },
    // Navigation re-planning on a battery-constrained wearable.
    AppProfile {
        name: "navigation",
        data_kb: 80.0,
        workload_mcycles: 800.0,
        beta_time: 0.2,
    },
];

fn main() -> Result<(), Error> {
    let mut rng = StdRng::seed_from_u64(777);
    let num_users = 45;

    // 9 hexagonal cells, 1 km apart, users uniform over the coverage area.
    let layout = NetworkLayout::hexagonal(9, constants::INTER_SITE_DISTANCE)?;
    let positions = place_users_uniform(&layout, num_users, &mut rng);
    let gains = ChannelModel::paper_default().generate(
        &layout,
        &positions,
        constants::DEFAULT_NUM_SUBCHANNELS,
        &mut rng,
    );

    // Heterogeneous population: random app mix, two device classes, and
    // every 9th user is a first responder with top provider priority.
    let mut users = Vec::with_capacity(num_users);
    let mut app_of = Vec::with_capacity(num_users);
    for i in 0..num_users {
        let app = APPS[rng.gen_range(0..APPS.len())];
        app_of.push(app.name);
        let flagship = rng.gen_bool(0.4);
        let device = DeviceProfile::new(
            if flagship {
                Hertz::from_giga(1.5)
            } else {
                Hertz::from_giga(0.8)
            },
            constants::DEFAULT_KAPPA,
            constants::DEFAULT_TX_POWER,
        )?;
        let lambda = if i % 9 == 0 {
            ProviderPreference::MAX // first responder
        } else {
            ProviderPreference::new(0.6)?
        };
        users.push(UserSpec {
            task: Task::new(
                Bits::from_kilobytes(app.data_kb),
                Cycles::from_mega(app.workload_mcycles),
            )?,
            device,
            preferences: UserPreferences::new(app.beta_time)?,
            lambda,
        });
    }

    let scenario = Scenario::new(
        users,
        vec![ServerProfile::paper_default(); layout.num_stations()],
        OfdmaConfig::paper_default(),
        gains,
        constants::DEFAULT_NOISE.to_watts(),
    )?;

    let mut solver = TsajsSolver::new(TtsaConfig::paper_default().with_seed(777));
    let solution = solver.solve(&scenario)?;
    let report = solution.evaluate(&scenario)?;

    println!("city-scale TSAJS schedule (45 users, 9 cells):");
    println!("  system utility : {:.3}", solution.utility);
    println!(
        "  offloaded      : {}/{}",
        report.num_offloaded,
        scenario.num_users()
    );

    // Offloading rate per application class.
    for app in APPS {
        let (total, offloaded): (usize, usize) = scenario
            .user_ids()
            .filter(|u| app_of[u.index()] == app.name)
            .fold((0, 0), |(t, o), u| {
                (t + 1, o + usize::from(solution.assignment.is_offloaded(u)))
            });
        println!("  {:<16} {:>2}/{:<2} offloaded", app.name, offloaded, total);
    }

    // First responders should be served preferentially.
    let responders_offloaded = scenario
        .user_ids()
        .filter(|u| u.index() % 9 == 0)
        .filter(|u| solution.assignment.is_offloaded(*u))
        .count();
    println!("  first responders offloaded: {responders_offloaded}/5");

    // ---- Act 2: the whole metro through the sharded engine ------------
    let metro_users: usize = std::env::var("CITY_USERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let params = ExperimentParams::paper_default()
        .with_users(metro_users)
        .with_servers(36)
        .with_workload(Cycles::from_mega(1500.0));
    let scenario = ScenarioGenerator::new(params).generate(11)?;
    println!(
        "\ncity-scale sharded solve ({} users, {} cells, blocked gains: {}):",
        scenario.num_users(),
        scenario.num_servers(),
        scenario.gains().is_subchannel_shared(),
    );

    let config = ShardConfig::paper_default().with_seed(11).with_ttsa(
        TtsaConfig::paper_default()
            .with_min_temperature(1e-2)
            .with_proposal_budget(4_000),
    );
    let mut solver = ShardSolver::new(config);
    let started = Instant::now();
    let solution = solver.solve(&scenario)?;
    let elapsed = started.elapsed();
    let outcome = solver.last_outcome().expect("solve just ran");
    println!("  system utility : {:.3}", solution.utility);
    println!(
        "  offloaded      : {}/{} ({} slots)",
        solution.assignment.num_offloaded(),
        scenario.num_users(),
        scenario.num_servers() * scenario.num_subchannels(),
    );
    println!(
        "  clusters       : {} ({} sweeps, converged: {})",
        outcome.clusters, outcome.sweeps, outcome.converged,
    );
    println!("  halo residual  : {:.2e}", outcome.halo_residual);
    println!("  wall clock     : {:.2?}", elapsed);
    Ok(())
}
