//! `paper_solve`: the paper's own operation. Closed loop on one thread:
//! cold TTSA solves (`TsajsSolver`, single chain, paper schedule) of a
//! seeded set of paper-default instances, pass after pass. Service, shard
//! and tempering layers are bypassed; nearly all time is the annealer and
//! the incremental objective, on a working set that fits in cache.

use crate::cpus::Hopper;
use crate::gauge::Gauge;
use crate::probe;
use crate::stats::{mean, median, tail_or_max};
use crate::trace::Tracer;
use crate::{derive_seed, ms, peak_rss_mb, repeat_setup, Run, Settings};
use mec_system::{Evaluator, Scenario, Solution, Solver};
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use std::time::{Duration, Instant};
use tsajs::{SearchTrace, TsajsSolver, TtsaConfig};

/// Instances per set, of the paper's U = 90, S = 9, N = 3 shape. Mean J
/// over 64 instances spread by 6 % between seeds; 256 quarter that
/// variance and still give every instance eight repeats in ten seconds.
const INSTANCES: usize = 256;
const INSTANCE_STREAM: u64 = 0x7061_7065_725F_736F;

pub fn run(settings: &Settings, tracer: &mut Tracer) -> Result<Run, String> {
    let (count, users, servers, subchannels) = if settings.smoke {
        (4, 10, 4, 2)
    } else {
        (INSTANCES, 90, 9, 3)
    };
    let generator = ScenarioGenerator::new(
        ExperimentParams::paper_default()
            .with_users(users)
            .with_servers(servers)
            .with_subchannels(subchannels),
    );
    let mut run = Run::default();
    let mut gauge = Gauge::new();
    let instances: Vec<Scenario> = repeat_setup(settings, &mut run, &mut gauge, || {
        (0..count)
            .map(|i| generator.generate(derive_seed(settings.seed, INSTANCE_STREAM, i as u64)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("instance generation: {e}"))
    })?;

    // Whole passes only, so every run solves each instance equally often.
    // Solver `i` is seeded with `i`: every pass repeats pass 0 exactly.
    let mut first: Vec<Option<Solution>> = vec![None; count];
    let mut traces: Vec<SearchTrace> = Vec::new();
    let mut gaps_ms = Vec::new();
    let budget = Duration::from_secs_f64(settings.seconds);
    let start = Instant::now();
    let mut last_end = start;
    let mut op = 0u64;
    let mut hopper = Hopper::new();
    while op == 0 || start.elapsed() < budget {
        for (i, scenario) in instances.iter().enumerate() {
            hopper.tick();
            let mut config = TtsaConfig::paper_default().with_seed(i as u64);
            if tracer.on() {
                config = config.with_trace();
            }
            let mut solver = TsajsSolver::new(config);
            let slowdown = gauge.read();
            let t0 = Instant::now();
            let solved = solver.solve(scenario);
            let t1 = Instant::now();
            run.latencies_ms.push(ms(t1 - t0) / slowdown);
            gaps_ms.push(ms(t0 - last_end));
            tracer.record("core.anneal.solve", 0, op, t0, t1);
            run.attempted += 1;
            match (solved, &first[i]) {
                (Err(e), _) => {
                    run.check(false, 1, || format!("instance {i}: solve failed: {e}"));
                }
                (Ok(solution), None) => {
                    if let Some(trace) = solver.last_trace() {
                        traces.push(trace.clone());
                    }
                    first[i] = Some(solution);
                }
                (Ok(solution), Some(pinned)) => {
                    let same = solution.utility.to_bits() == pinned.utility.to_bits()
                        && solution.assignment == pinned.assignment;
                    run.check(same, 1, || {
                        format!("instance {i}: a repeated seeded solve gave a different answer")
                    });
                }
            }
            op += 1;
            last_end = Instant::now();
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    drop(hopper);
    run.summarise_closed_loop();
    run.peak_rss_mb = peak_rss_mb()?;

    // Pass 0 answers, checked once each (later passes are pinned to them):
    // feasible, and an independent full evaluation agrees with the score.
    let first: Vec<Solution> = first.into_iter().flatten().collect();
    if first.len() < count {
        return Err("an instance never solved; nothing to score".into());
    }
    for (i, (scenario, solution)) in instances.iter().zip(&first).enumerate() {
        let feasible = solution.assignment.verify_feasible(scenario).is_ok();
        let rescored = Evaluator::new(scenario).objective(&solution.assignment);
        let agree = (rescored - solution.utility).abs() <= 1e-9 * solution.utility.abs().max(1.0);
        run.check(feasible && agree, 1, || {
            format!(
                "instance {i}: feasible={feasible}, utility {} vs re-scored {rescored}",
                solution.utility
            )
        });
    }
    let utilities: Vec<f64> = first.iter().map(|s| s.utility).collect();
    run.utility = mean(&utilities);

    if tracer.on() {
        let layers = &mut run.layers;
        layers.set(
            "workloads.generate_ms",
            median(&run.setup_s) * 1e3 / count as f64,
            "ms",
        );
        probe::objective_stream(
            layers,
            &instances[0],
            &first[0].assignment,
            settings.seed,
            200_000,
        );
        probe::system_calls(layers, &instances[0], &first[0].assignment, settings.seed);
        let proposals: Vec<f64> = first.iter().map(|s| s.stats.iterations as f64).collect();
        // Wall time, like the probes' own timings.
        let solve_ms = mean(&tracer.durations_ms("core.anneal.solve"));
        probe::core_costs(layers, mean(&proposals), solve_ms);
        let refs: Vec<&SearchTrace> = traces.iter().collect();
        probe::search_shares(layers, &refs, proposals.iter().sum::<f64>() as u64);
        layers.set("bench.gen_lag_ms_p99", tail_or_max(&gaps_ms), "ms");
        let solving = tracer.total_ms("core.anneal.solve");
        layers.set(
            "ledger.unattributed_share",
            1.0 - solving / (measured_s * 1e3),
            "share",
        );
    }
    run.layers
        .set("bench.host_slowdown", gauge.median_slowdown(), "ratio");
    Ok(run)
}
