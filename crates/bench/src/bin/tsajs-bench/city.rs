//! `city_cold` and `city_churn`: the shard engine on one city (U = 5 000,
//! S = 36, N = 3, users in 18 hotspots of 250 m), closed loop on one
//! worker.
//!
//! Both workloads solve one fixed city (generation seed [`CITY_SEED`]).
//! Solve cost follows the city's shape: at U = 100 000, over ten seeded
//! cities, the median cold solve ranged from 396 to 565 ms and the median
//! churn round from 122 to 198 ms, more than any bound could absorb. With
//! the city fixed, runs compare equal work. The shard seeds are fixed too
//! (see [`POOL`]); in `city_churn`, `--seed` picks where the churn
//! rotation starts. One worker, because two-worker runs on a shared
//! two-core host scatter far more than one-worker runs.
//!
//! The city is sized so that its gain table (1.4 MB) fits the 2 MB L2
//! cache of each core. At U = 100 000 (a 29 MB table) and 20 000, whose
//! working sets live in the last-level cache the host shares with other
//! machines, ten runs of the same work spread by 25–31 % between
//! quartiles; at 5 000, run alongside them, by 8 %.

use crate::cpus::Hopper;
use crate::gauge::Gauge;
use crate::probe;
use crate::stats::{mean, median, tail_or_max};
use crate::trace::Tracer;
use crate::{derive_seed, ms, peak_rss_mb, repeat_setup, Run, Settings};
use mec_system::{Assignment, Evaluator, Scenario};
use mec_types::{Error, ServerId, UserId};
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tsajs::{
    resolve_sharded, solve_sharded, temper, NeighborhoodKernel, Partition, ShardConfig,
    ShardOutcome, ShardRun, TtsaConfig,
};

/// Generation seed of the city every run solves.
const CITY_SEED: u64 = 11;
const SHARD_STREAM: u64 = 0x7368_6172_645F_7365;
/// Shard seeds a `city_cold` run cycles through, in whole cycles, derived
/// from [`CITY_SEED`] and not from `--seed`. A shard seed sets how many
/// reconcile epochs a cold solve takes, so with seeded shard seeds the
/// median solve jumped between those costs, and ten seeded runs spread by
/// 32 % between quartiles. Sixteen, so the reported median rests on many
/// solves.
const POOL: u64 = 16;
const WORKERS: usize = 1;
/// The shard engine's own audit tolerance on the halo accounting gap.
const HALO_TOLERANCE: f64 = 1e-9;

fn params(smoke: bool) -> ExperimentParams {
    let (users, servers, hotspots) = if smoke { (600, 8, 4) } else { (5_000, 36, 18) };
    ExperimentParams::paper_default()
        .with_users(users)
        .with_servers(servers)
        .with_hotspots(hotspots, 250.0)
}

/// The reconcile-city configuration of the shard bench (two-server
/// clusters with an 8 000-proposal tempered cold solve each, pipelined
/// reconciliation up to 32 epochs), with the descent floor at 1e-3. At
/// the shard bench's 1e-4, two shard seeds in five hit the 32-epoch cap
/// and take four times as long as the rest, so a run's median rested on
/// two or three solves; at 1e-3 every solve settles in 3 to 7 epochs.
fn config(smoke: bool) -> ShardConfig {
    let budget = if smoke { 400 } else { 8_000 };
    ShardConfig::paper_default()
        .with_cluster_size(2)
        .with_max_sweeps(32)
        .with_descent_floor(1e-3)
        .with_ttsa(
            TtsaConfig::paper_default()
                .with_min_temperature(1e-3)
                .with_proposal_budget(budget),
        )
}

fn generate(smoke: bool) -> Result<Scenario, String> {
    ScenarioGenerator::new(params(smoke))
        .generate(CITY_SEED)
        .map_err(|e| format!("city generation: {e}"))
}

fn shard_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, SHARD_STREAM, k)
}

/// One shard solve, cold when `prev` is `None`, else warm from `prev`
/// under the survivor map. Untraced it is exactly `solve_sharded` /
/// `resolve_sharded`; traced it steps `ShardRun` the same way those do,
/// with one span per phase under one span for the operation.
fn solve(
    city: &Scenario,
    config: ShardConfig,
    prev: Option<(&ShardOutcome, &[Option<UserId>])>,
    tracer: &mut Tracer,
    op: u64,
) -> Result<ShardOutcome, Error> {
    if !tracer.on() {
        return match prev {
            None => solve_sharded(city, &config, WORKERS),
            Some((p, map)) => resolve_sharded(city, &config, WORKERS, p, map),
        };
    }
    let root = tracer.open("city.op", 0, op);
    let start = Instant::now();
    let (mut run, phase) = match prev {
        None => (ShardRun::new(city, config, WORKERS)?, "core.shard.cold"),
        Some((p, map)) => (
            ShardRun::warm(city, config, WORKERS, p, map)?,
            "core.shard.warm",
        ),
    };
    tracer.record(phase, root, op, start, Instant::now());
    while run.sweeps() < config.max_sweeps {
        let start = Instant::now();
        let more = run.sweep()?;
        tracer.record("core.shard.epoch", root, op, start, Instant::now());
        if !more {
            break;
        }
    }
    let start = Instant::now();
    let out = run.finish()?;
    tracer.record("core.shard.resync", root, op, start, Instant::now());
    tracer.close(root);
    Ok(out)
}

/// What the shard layer did over a run's operations, for the ledger.
#[derive(Default)]
struct Tally {
    /// Idle time between consecutive operations (the loop's own cost).
    gaps_ms: Vec<f64>,
    ops: usize,
    proposals: u64,
    resolved: usize,
    reused: usize,
    converged: usize,
    halo_residual_max: f64,
}

impl Tally {
    fn add(&mut self, out: &ShardOutcome) {
        self.ops += 1;
        self.proposals += out.proposals;
        self.resolved += out.resolved_clusters;
        self.reused += out.reused_clusters;
        self.converged += usize::from(out.converged);
        self.halo_residual_max = self.halo_residual_max.max(out.halo_residual);
    }
}

/// The shard engine's own audit: the halo-accounting residual within
/// tolerance and a non-negative objective.
fn audited(out: &ShardOutcome) -> bool {
    out.halo_residual <= HALO_TOLERANCE && out.objective >= 0.0
}

/// The full check of a new answer: the audit, a feasible assignment, and
/// an independent full evaluation that matches the objective.
fn check(run: &mut Run, city: &Scenario, out: &ShardOutcome, what: &str) {
    let audited = audited(out);
    let feasible = out.assignment.verify_feasible(city).is_ok();
    let rescored = Evaluator::new(city).objective(&out.assignment);
    let agree = (rescored - out.objective).abs() <= 1e-9 * out.objective.abs().max(1.0);
    run.check(audited && feasible && agree, 1, || {
        format!(
            "{what}: halo residual {:e}, J {}, feasible {feasible}, re-score agrees {agree}",
            out.halo_residual, out.objective
        )
    });
}

pub fn run_cold(settings: &Settings, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut gauge = Gauge::new();
    let city = repeat_setup(settings, &mut run, &mut gauge, || generate(settings.smoke))?;
    let config = config(settings.smoke);

    let mut first: Vec<Option<ShardOutcome>> = vec![None; POOL as usize];
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(settings.seconds);
    let start = Instant::now();
    let mut last_end = start;
    let mut op = 0u64;
    let mut hopper = Hopper::new();
    // Whole cycles over the pool only.
    while op == 0 || start.elapsed() < budget {
        for (slot, pinned) in first.iter_mut().enumerate() {
            hopper.tick();
            let shard = config.with_seed(shard_seed(CITY_SEED, slot as u64));
            let slowdown = gauge.read();
            let t0 = Instant::now();
            let solved = solve(&city, shard, None, tracer, op);
            let t1 = Instant::now();
            run.latencies_ms.push(ms(t1 - t0) / slowdown);
            tally.gaps_ms.push(ms(t0 - last_end));
            run.attempted += 1;
            match (solved, pinned.as_ref()) {
                (Err(e), _) => {
                    run.check(false, 1, || format!("shard seed slot {slot}: {e}"));
                }
                (Ok(out), None) => {
                    check(&mut run, &city, &out, "cold solve");
                    tally.add(&out);
                    *pinned = Some(out);
                }
                (Ok(out), Some(pinned)) => {
                    let same = out.objective.to_bits() == pinned.objective.to_bits()
                        && out.assignment == pinned.assignment;
                    run.check(same, 1, || {
                        format!("shard seed slot {slot}: a repeated solve gave a different answer")
                    });
                    tally.add(&out);
                }
            }
            op += 1;
            last_end = Instant::now();
        }
    }
    drop(hopper);
    run.summarise_closed_loop();
    run.peak_rss_mb = peak_rss_mb()?;
    let first: Vec<ShardOutcome> = first.into_iter().flatten().collect();
    if first.is_empty() {
        return Err("no cold solve succeeded".into());
    }
    run.utility = mean(&first.iter().map(|o| o.objective).collect::<Vec<_>>());

    if tracer.on() {
        let partition_ms = probe::time_ms(3, || {
            Partition::build(&city, config.cluster_size, shard_seed(CITY_SEED, 0))
                .expect("valid partition")
        });
        let cold_ms = median(&tracer.durations_ms("core.shard.cold"));
        run.layers
            .set("core.shard.partition_ms", partition_ms, "ms");
        run.layers
            .set("core.shard.cold_ms", cold_ms - partition_ms, "ms");
        let last = &first[first.len() - 1];
        shard_layers(&mut run, settings, tracer, &city, &config, last, &tally);
    }
    run.layers
        .set("bench.host_slowdown", gauge.median_slowdown(), "ratio");
    Ok(run)
}

pub fn run_churn(settings: &Settings, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    // The shard seed of `city_cold`'s first slot. A seeded shard seed made
    // the set-up's cold solve and the rounds after it differ in cost from
    // seed to seed.
    let stream = config(settings.smoke).with_seed(shard_seed(CITY_SEED, 0));
    let mut generate_s = Vec::new();
    let mut gauge = Gauge::new();
    let (city, cold) = repeat_setup(settings, &mut run, &mut gauge, || {
        let start = Instant::now();
        let city = generate(settings.smoke)?;
        generate_s.push(start.elapsed().as_secs_f64());
        let cold = solve_sharded(&city, &stream, WORKERS).map_err(|e| format!("cold: {e}"))?;
        Ok((city, cold))
    })?;
    check(&mut run, &city, &cold, "set-up cold solve");

    let n = city.num_users();
    let populated: Vec<usize> = (0..cold.partition.num_clusters())
        .filter(|&c| !cold.partition.clusters()[c].users.is_empty())
        .collect();
    let cycle = populated.len();
    let offset = (settings.seed % cycle as u64) as usize;
    let mut first_end: Option<ShardOutcome> = None;
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(settings.seconds);
    let start = Instant::now();
    let mut last_end = start;
    let mut op = 0u64;
    // Whole cycles only. Round r of a cycle empties and refills populated
    // cluster r (rotated by the seed), capped at a tenth of the city. Every
    // cycle replays its rounds from the set-up's cold solve, so a round is
    // the same work in every cycle and every cycle must end in the same
    // decision, whose J is the reported utility.
    let mut hopper = Hopper::new();
    while op == 0 || start.elapsed() < budget {
        let first_cycle = first_end.is_none();
        let mut prev: Option<ShardOutcome> = None;
        for r in 0..cycle {
            let from = prev.as_ref().unwrap_or(&cold);
            let target = populated[(offset + r) % cycle];
            let mut map: Vec<Option<UserId>> = (0..n).map(|v| Some(UserId::new(v))).collect();
            for &u in from.partition.clusters()[target].users.iter().take(n / 10) {
                map[u.index()] = None;
            }
            hopper.tick();
            let slowdown = gauge.read();
            let t0 = Instant::now();
            let solved = solve(&city, stream, Some((from, &map)), tracer, op);
            let t1 = Instant::now();
            run.latencies_ms.push(ms(t1 - t0) / slowdown);
            tally.gaps_ms.push(ms(t0 - last_end));
            run.attempted += 1;
            match solved {
                Err(e) => run.check(false, 1, || format!("round {r}: {e}")),
                Ok(out) => {
                    if first_cycle {
                        check(&mut run, &city, &out, &format!("round {r}"));
                    } else {
                        run.check(audited(&out), 1, || {
                            format!(
                                "round {r}: halo residual {:e}, J {}",
                                out.halo_residual, out.objective
                            )
                        });
                    }
                    tally.add(&out);
                    prev = Some(out);
                }
            }
            op += 1;
            last_end = Instant::now();
        }
        match (prev, &first_end) {
            (Some(end), None) => first_end = Some(end),
            (Some(end), Some(pinned)) => {
                let same = end.objective.to_bits() == pinned.objective.to_bits()
                    && end.assignment == pinned.assignment;
                run.check(same, 1, || {
                    "a replayed churn cycle ended in a different decision".into()
                });
            }
            (None, _) => {}
        }
    }
    drop(hopper);
    run.summarise_closed_loop();
    run.peak_rss_mb = peak_rss_mb()?;
    let end = first_end.ok_or("no churn round succeeded")?;
    run.utility = end.objective;

    if tracer.on() {
        run.layers
            .set("workloads.generate_ms", median(&generate_s) * 1e3, "ms");
        let partition_ms =
            probe::time_ms(3, || end.partition.rebuild_users(&city).expect("same city"));
        let warm_ms = median(&tracer.durations_ms("core.shard.warm"));
        run.layers
            .set("core.shard.partition_ms", partition_ms, "ms");
        run.layers
            .set("core.shard.warm_ms", warm_ms - partition_ms, "ms");
        shard_layers(&mut run, settings, tracer, &city, &stream, &end, &tally);
    }
    run.layers
        .set("bench.host_slowdown", gauge.median_slowdown(), "ratio");
    Ok(run)
}

/// The layer numbers both city workloads share.
fn shard_layers(
    run: &mut Run,
    settings: &Settings,
    tracer: &Tracer,
    city: &Scenario,
    config: &ShardConfig,
    last: &ShardOutcome,
    tally: &Tally,
) {
    let ops = tally.ops.max(1) as f64;
    if run.layers.get("workloads.generate_ms").is_none() {
        run.layers
            .set("workloads.generate_ms", median(&run.setup_s) * 1e3, "ms");
    }
    probe::system_calls(&mut run.layers, city, &last.assignment, settings.seed);

    let epochs = tracer.durations_ms("core.shard.epoch");
    let layers = &mut run.layers;
    layers.set("core.shard.epoch_ms_p50", median(&epochs), "ms");
    layers.set("core.shard.epochs", epochs.len() as f64 / ops, "count");
    layers.set(
        "core.shard.resync_ms",
        median(&tracer.durations_ms("core.shard.resync")),
        "ms",
    );
    let proposals = tally.proposals as f64 / ops;
    layers.set("core.shard.proposals", proposals, "count");
    layers.set(
        "core.shard.reused_share",
        tally.reused as f64 / (tally.resolved + tally.reused).max(1) as f64,
        "share",
    );
    layers.set(
        "core.shard.converged_share",
        tally.converged as f64 / ops,
        "share",
    );
    layers.set(
        "core.shard.halo_residual_max",
        tally.halo_residual_max,
        "ratio",
    );

    // Proposals run on cluster subsets, not on the city: the objective
    // stream and one traced re-run of the cold tempered cluster solve
    // (acceptance shares) use the first populated cluster, without its
    // halo.
    let members = last
        .partition
        .clusters()
        .iter()
        .find(|c| !c.users.is_empty())
        .expect("a populated cluster");
    let subset = city
        .subset(&members.users, &members.servers)
        .expect("cluster subset");
    let mut local = Assignment::with_dims(
        members.users.len(),
        members.servers.len(),
        city.num_subchannels(),
    );
    for (k, &u) in members.users.iter().enumerate() {
        let Some((s, j)) = last.assignment.slot(u) else {
            continue;
        };
        if let Ok(t) = members.servers.binary_search(&s) {
            local
                .assign(UserId::new(k), ServerId::new(t), j)
                .expect("a free local slot");
        }
    }
    probe::objective_stream(layers, &subset, &local, settings.seed, 200_000);
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let outcome = temper(
        &subset,
        &config.tempering,
        &config.ttsa.with_trace(),
        &NeighborhoodKernel::new(),
        &mut rng,
        1,
    );
    let trace = outcome.trace.expect("trace requested");
    probe::search_shares(layers, &[&trace], outcome.proposals);

    // Core time per operation: the cluster solves and the epochs, without
    // the final monolithic re-score.
    let phases = ["core.shard.cold", "core.shard.warm", "core.shard.epoch"];
    let core_ms: f64 = phases.iter().map(|p| tracer.total_ms(p)).sum();
    probe::core_costs(layers, proposals, core_ms / ops);

    layers.set("bench.gen_lag_ms_p99", tail_or_max(&tally.gaps_ms), "ms");
    let op_ms = tracer.total_ms("city.op");
    let covered = core_ms + tracer.total_ms("core.shard.resync");
    let unattributed = 1.0 - covered / op_ms;
    layers.set("ledger.unattributed_share", unattributed, "share");
    // The phases must account for the operation they split.
    run.check(unattributed.abs() <= 0.05, 1, || {
        format!(
            "shard phase spans cover {:.1}% of the op spans",
            covered / op_ms * 1e2
        )
    });
}
