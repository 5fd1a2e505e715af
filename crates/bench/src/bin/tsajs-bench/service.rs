//! `service_steady`: the threaded scheduler service (`ServiceRuntime`, one
//! solve worker) under an open-loop Poisson stream.
//!
//! S = 36, N = 3, 300 users admitted in set-up, production batch policy
//! (16 requests or 50 ms) and tier policy. Half the requests are arrivals,
//! half departures; sojourns are exponential with mean `300 / arrival
//! rate`, so the population stays near 300 (well under the 432-user
//! admission cap). One generator thread sends each request
//! when it is due, whatever the service is doing, and reads one snapshot
//! after each send. A request's latency runs from its due time to the
//! receipt of the `BatchReport` of the batch that decided it, so a stall
//! anywhere (generator, queue, batch fill, solve, publish) is charged to
//! every request behind it.

use crate::gauge::Gauge;
use crate::probe;
use crate::stats::{best_window_median, drive_open_loop, mean, median, tail_or_max, tails, Clock};
use crate::trace::Tracer;
use crate::{derive_seed, ms, peak_rss_mb, repeat_setup, Run, Settings};
use mec_service::{
    BatchReport, LogEntry, RequestKind, SchedulerCore, ServiceConfig, ServiceRequest,
    ServiceRuntime, ServiceSnapshot,
};
use mec_system::{Assignment, Evaluator, Scenario};
use mec_topology::place_users_uniform;
use mec_types::UserId;
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tsajs::{anneal_from, temper_from, InitialTemperature, NeighborhoodKernel, TtsaConfig};

const POPULATION: usize = 300;
const SCHEDULE_STREAM: u64 = 0x7363_6865_6475_6C65;
const SERVICE_STREAM: u64 = 0x7365_7276_6963_6573;
const REENACT_STREAM: u64 = 0x7265_656E_6163_7400;
/// Ingestion queue bound: 2 s of traffic, so that a host hiccup
/// stalling the worker shows as latency rather than as refusals.
const QUEUE_CAPACITY: usize = 4_096;
/// How long the service may take to decide the last requests after the
/// schedule ends before they count as undecided.
const DRAIN: Duration = Duration::from_secs(30);
/// Batches whose stages are re-enacted for the traced batch split.
const REENACT_BATCHES: usize = 400;
/// Length of the stretches the schedule is cut into for `latency_ms_p50`,
/// which is the best stretch's median: about 4 000 requests each, and
/// shorter than most of the host's slow spells (3 to 40 s).
const WINDOW_S: f64 = 2.0;

fn config(smoke: bool, seed: u64) -> (ServiceConfig, usize) {
    let seed = derive_seed(seed, SERVICE_STREAM, 0);
    if smoke {
        (ServiceConfig::quick(seed).with_threads(Some(1)), 12)
    } else {
        let params = ExperimentParams::paper_default().with_servers(36);
        (
            ServiceConfig::new(params, seed).with_threads(Some(1)),
            POPULATION,
        )
    }
}

/// One scheduled request.
struct Due {
    at: f64,
    kind: RequestKind,
}

fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

/// The seeded request schedule over `[0, seconds)`. Users `0..population`
/// are the set-up population and only depart; later ids arrive, and
/// depart again if their sojourn ends inside the window.
fn schedule(seed: u64, rate_hz: f64, seconds: f64, population: usize) -> Vec<Due> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SCHEDULE_STREAM, rate_hz as u64));
    let arrivals_hz = rate_hz / 2.0;
    let sojourn_s = population as f64 / arrivals_hz;
    let mut due = Vec::new();
    for user in 0..population as u64 {
        let at = exponential(&mut rng, sojourn_s);
        if at < seconds {
            due.push(Due {
                at,
                kind: RequestKind::Departure { user },
            });
        }
    }
    let mut t = 0.0;
    let mut user = population as u64;
    loop {
        t += exponential(&mut rng, 1.0 / arrivals_hz);
        if t >= seconds {
            break;
        }
        due.push(Due {
            at: t,
            kind: RequestKind::Arrival { user },
        });
        let leave = t + exponential(&mut rng, sojourn_s);
        if leave < seconds {
            due.push(Due {
                at: leave,
                kind: RequestKind::Departure { user },
            });
        }
        user += 1;
    }
    // Stable: a user's arrival stays ahead of a departure due at the
    // same instant.
    due.sort_by(|a, b| a.at.total_cmp(&b.at));
    due
}

/// Set-up: a fresh core with `population` users admitted in full batches.
fn prefill(
    config: &ServiceConfig,
    population: usize,
) -> Result<(SchedulerCore, Vec<BatchReport>), String> {
    let mut core = SchedulerCore::new(config.clone()).map_err(|e| format!("service: {e}"))?;
    let mut reports = Vec::new();
    let ids: Vec<u64> = (0..population as u64).collect();
    for chunk in ids.chunks(config.batch.max_size) {
        for &user in chunk {
            core.submit(ServiceRequest::arrival(user, 0.0));
        }
        reports.extend(core.close_batch(0.0).map_err(|e| format!("prefill: {e}"))?);
    }
    Ok((core, reports))
}

/// The generator's clock: seconds since the schedule started. While it
/// waits for the next due time it collects batch reports, stamping each
/// with its receipt time.
struct ReportClock<'a> {
    t0: Instant,
    rx: &'a mpsc::Receiver<BatchReport>,
    got: Vec<(f64, BatchReport)>,
}

impl ReportClock<'_> {
    fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn take(&mut self, report: BatchReport) {
        let at = self.now_s();
        self.got.push((at, report));
    }

    /// Waits up to `until` for one report; false once the channel closed
    /// or the time ran out.
    fn next_report(&mut self, until: Instant) -> bool {
        let left = until.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(left) {
            Ok(report) => {
                self.take(report);
                true
            }
            Err(_) => false,
        }
    }

    fn decided(&self) -> usize {
        self.got.iter().map(|(_, r)| r.requests).sum()
    }
}

impl Clock for ReportClock<'_> {
    fn now(&mut self) -> f64 {
        self.now_s()
    }

    fn wait_until(&mut self, t: f64) {
        loop {
            let left = t - self.now_s();
            if left <= 0.0 {
                return;
            }
            match self.rx.recv_timeout(Duration::from_secs_f64(left)) {
                Ok(report) => self.take(report),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                // The worker is gone; keep the schedule's pace anyway.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    std::thread::sleep(Duration::from_secs_f64(left))
                }
            }
        }
    }
}

pub fn run(settings: &Settings, tracer: &mut Tracer, rate_hz: f64) -> Result<Run, String> {
    let (config, population) = config(settings.smoke, settings.seed);
    let mut run = Run::default();
    let mut gauge = Gauge::new();
    let (core, prefill_reports) = repeat_setup(settings, &mut run, &mut gauge, || {
        prefill(&config, population)
    })?;
    let requests = schedule(settings.seed, rate_hz, settings.seconds, population);
    let due: Vec<f64> = requests.iter().map(|d| d.at).collect();

    // ── Timed section ────────────────────────────────────────────────
    let (tx, rx) = mpsc::channel();
    let runtime = ServiceRuntime::spawn_streaming(core, QUEUE_CAPACITY, tx);
    let reader = runtime.reader();
    let runtime_zero = runtime.now_s();
    let mut clock = ReportClock {
        t0: Instant::now(),
        rx: &rx,
        got: Vec::new(),
    };
    let mut accepted: Vec<usize> = Vec::with_capacity(requests.len());
    let mut refused = 0u64;
    let mut stopped = false;
    let mut submit_us = Vec::with_capacity(requests.len());
    let mut read_us = Vec::with_capacity(requests.len());
    let lag = drive_open_loop(&due, &mut clock, |i, _| {
        if stopped {
            return;
        }
        let overloads = runtime.rejections();
        let start = Instant::now();
        let sent = runtime.submit(requests[i].kind);
        submit_us.push(ms(start.elapsed()) * 1e3);
        match sent {
            Ok(()) => accepted.push(i),
            Err(_) if runtime.rejections() > overloads => refused += 1,
            Err(_) => stopped = true,
        }
        let start = Instant::now();
        black_box(reader.snapshot().version);
        read_us.push(ms(start.elapsed()) * 1e3);
    });
    let deadline = Instant::now() + DRAIN;
    while clock.decided() < accepted.len() && clock.next_report(deadline) {}
    let core = runtime
        .shutdown()
        .map_err(|e| format!("service stopped: {e}"))?;
    while let Ok(report) = rx.try_recv() {
        clock.take(report);
    }
    let t0 = clock.t0;
    let reports = clock.got;
    let measured_s = reports.last().map_or(0.0, |(at, _)| *at);
    run.peak_rss_mb = peak_rss_mb()?;

    // ── Who decided what ────────────────────────────────────────────
    // The worker takes requests in submission order and each batch takes
    // the oldest pending ones, so the k-th accepted request was decided by
    // the batch whose running request count first passes k.
    run.attempted = requests.len() as u64;
    run.check(!stopped, 1, || {
        "the service stopped accepting requests".into()
    });
    run.check(refused == 0, refused, || {
        format!("{refused} requests refused at the full ingestion queue")
    });
    let mut decided_at = Vec::with_capacity(accepted.len());
    for (at, report) in &reports {
        decided_at.extend(std::iter::repeat_n(*at, report.requests));
    }
    let (decided, sent) = (decided_at.len(), accepted.len());
    run.check(decided == sent, sent.abs_diff(decided) as u64, || {
        format!("{sent} requests accepted but {decided} decisions reported")
    });
    run.latencies_ms = accepted
        .iter()
        .zip(&decided_at)
        .map(|(&i, at)| (at - due[i]) * 1e3)
        .collect();
    let due_s: Vec<f64> = accepted.iter().map(|&i| due[i]).collect();
    let windows = (settings.seconds / WINDOW_S).round().max(1.0) as usize;
    run.latency_ms_p50 = best_window_median(&due_s, &run.latencies_ms, settings.seconds, windows);
    run.throughput_ops_s = run.latencies_ms.len() as f64 / measured_s;
    let admitted: usize = reports
        .iter()
        .map(|(_, r)| r.arrivals + r.departures + r.rejected)
        .sum();
    run.check(admitted == decided, 1, || {
        format!("{decided} requests decided but {admitted} applied")
    });
    let rejected: usize = reports.iter().map(|(_, r)| r.rejected).sum();
    run.check(rejected == 0, rejected as u64, || {
        format!("{rejected} arrivals refused at the admission cap")
    });
    let lag_p99_ms = tail_or_max(&lag) * 1e3;
    if lag_p99_ms > 1.0 {
        eprintln!(
            "warning: the generator ran late (p99 {lag_p99_ms:.3} ms > 1 ms); \
             this run timed the generator as much as the service"
        );
    }
    // Published J per active user over the Full-tier batches, and the
    // share of batches served at Full. Quality over all batches is not
    // one number here: near the knee the tier mix follows the host's
    // speed, so their median swung with it (one seeded run in ten read
    // exactly 0), and GreedyAdmit batches publish J far below zero.
    let full: Vec<&BatchReport> = reports
        .iter()
        .map(|(_, r)| r)
        .filter(|r| r.tier == "full")
        .collect();
    let j: f64 = full.iter().map(|r| r.utility).sum();
    let users: usize = full.iter().map(|r| r.active_users).sum();
    run.utility = j / users as f64;
    run.full_tier_share = Some((
        full.len() as f64 / reports.len().max(1) as f64,
        reports.len(),
    ));

    // ── Replay: the ingestion log must reproduce every live batch ────
    let live: Vec<&BatchReport> = prefill_reports
        .iter()
        .chain(reports.iter().map(|(_, r)| r))
        .collect();
    let mut replay = SchedulerCore::new(config.clone()).map_err(|e| format!("replay: {e}"))?;
    let stride = (reports.len() / REENACT_BATCHES).max(1);
    let mut split = Split::default();
    let mut rng = StdRng::seed_from_u64(derive_seed(settings.seed, REENACT_STREAM, 0));
    let layout = ScenarioGenerator::new(config.params)
        .layout()
        .map_err(|e| format!("layout: {e}"))?;
    let mut batch = 0usize;
    for entry in core.ingestion_log() {
        let time_s = match entry {
            LogEntry::Request(request) => {
                replay.submit(*request);
                continue;
            }
            LogEntry::BatchClose { time_s } => *time_s,
        };
        let before = replay.snapshot();
        let start = Instant::now();
        let report = replay
            .close_batch(time_s)
            .map_err(|e| format!("replay: {e}"))?;
        let apply_ms = ms(start.elapsed());
        let same = match (&report, live.get(batch)) {
            (Some(r), Some(l)) => {
                r.utility.to_bits() == l.utility.to_bits()
                    && r.tier == l.tier
                    && r.requests == l.requests
            }
            _ => false,
        };
        let ops = live.get(batch).map_or(1, |l| l.requests.max(1)) as u64;
        run.check(same, ops, || {
            format!("replayed batch {batch} differs from the live batch")
        });
        let runtime_batch = batch >= prefill_reports.len();
        if runtime_batch {
            split.apply_ms.push(apply_ms);
        }
        if tracer.on() && runtime_batch && batch.is_multiple_of(stride) {
            if let Some(report) = &report {
                let after = replay.snapshot();
                split.reenact(
                    &config, &layout, &before, &after, report, apply_ms, &mut rng,
                )?;
            }
        }
        batch += 1;
    }
    run.check(batch == live.len(), 1, || {
        format!("the log replays {batch} batches, {} ran live", live.len())
    });
    run.layers
        .set("bench.host_slowdown", gauge.median_slowdown(), "ratio");

    if tracer.on() {
        let layers = Layers {
            t0,
            reports: &reports,
            accepted: &accepted,
            due: &due,
            runtime_zero,
            lag: &lag,
            submit_us: &submit_us,
            read_us: &read_us,
        };
        layers.fill(
            &mut run,
            tracer,
            &config,
            &split,
            &core,
            settings.seed,
            &mut rng,
        )?;
    }
    Ok(run)
}

/// Per-batch stage times from re-enacting sampled batches: regenerate
/// the scenario at the batch's population, patch the previous decision,
/// re-solve at the batch's tier, evaluate.
#[derive(Default)]
struct Split {
    apply_ms: Vec<f64>,
    sampled_apply_ms: Vec<f64>,
    generate_ms: Vec<f64>,
    patch_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    full_solve_ms: Vec<f64>,
    evaluate_ms: Vec<f64>,
    solved_proposals: Vec<f64>,
}

impl Split {
    #[allow(clippy::too_many_arguments)]
    fn reenact(
        &mut self,
        config: &ServiceConfig,
        layout: &mec_topology::NetworkLayout,
        before: &ServiceSnapshot,
        after: &ServiceSnapshot,
        report: &BatchReport,
        apply_ms: f64,
        rng: &mut StdRng,
    ) -> Result<(), String> {
        let n = after.users.len();
        if n == 0 || before.users.is_empty() {
            return Ok(());
        }
        let positions = place_users_uniform(layout, n, rng);
        let generator = ScenarioGenerator::new(config.params.with_users(n));
        let start = Instant::now();
        let scenario = generator
            .generate_at(&positions, rng.gen())
            .map_err(|e| format!("re-enact: {e}"))?;
        let generate_ms = ms(start.elapsed());

        let start = Instant::now();
        let map: Vec<Option<UserId>> = after
            .users
            .iter()
            .map(|id| {
                before
                    .users
                    .iter()
                    .position(|old| old == id)
                    .map(UserId::new)
            })
            .collect();
        let warm = before
            .assignment
            .patched(&map)
            .map_err(|e| format!("re-enact: {e}"))?;
        let patch_ms = ms(start.elapsed());

        let kernel = NeighborhoodKernel::new();
        let start = Instant::now();
        let solved = match report.tier.as_str() {
            "full" => Some(temper_from(
                &scenario,
                &config.tempering,
                &refresh(config, config.full_budget),
                &kernel,
                rng,
                1,
                warm.clone(),
            )),
            "shortened" => Some(anneal_from(
                &scenario,
                &refresh(config, config.short_budget),
                &kernel,
                rng,
                warm.clone(),
            )),
            _ => None,
        };
        let solve_ms = ms(start.elapsed());
        let decision = solved.as_ref().map_or(&warm, |o| &o.assignment);

        let start = Instant::now();
        black_box(
            Evaluator::new(&scenario)
                .evaluate(decision)
                .map_err(|e| format!("re-enact: {e}"))?,
        );
        let evaluate_ms = ms(start.elapsed());

        self.sampled_apply_ms.push(apply_ms);
        self.generate_ms.push(generate_ms);
        self.patch_ms.push(patch_ms);
        self.solve_ms.push(solve_ms);
        self.evaluate_ms.push(evaluate_ms);
        if let Some(outcome) = &solved {
            self.solved_proposals.push(outcome.proposals as f64);
            if report.tier == "full" {
                self.full_solve_ms.push(solve_ms);
            }
        }
        Ok(())
    }
}

/// A warm refresh schedule as the service builds it.
fn refresh(config: &ServiceConfig, budget: u64) -> TtsaConfig {
    config
        .base
        .with_proposal_budget(budget)
        .with_initial_temperature(InitialTemperature::Fixed(config.refresh_temperature))
}

/// What the traced run measured, turned into layer numbers.
struct Layers<'a> {
    /// The instant the schedule's time 0 stands for.
    t0: Instant,
    reports: &'a [(f64, BatchReport)],
    accepted: &'a [usize],
    due: &'a [f64],
    runtime_zero: f64,
    lag: &'a [f64],
    submit_us: &'a [f64],
    read_us: &'a [f64],
}

/// Sets `name_p50` / `name_p99` (each only when the sample supports it).
fn set_quantiles(run: &mut Run, name: &str, samples: &[f64], unit: &'static str) {
    run.layers
        .set(&format!("{name}_p50"), median(samples), unit);
    if let Some(&(_, v)) = tails(samples).iter().find(|(q, _)| *q == "p99") {
        run.layers.set(&format!("{name}_p99"), v, unit);
    }
}

impl Layers<'_> {
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &self,
        run: &mut Run,
        tracer: &mut Tracer,
        config: &ServiceConfig,
        split: &Split,
        core: &SchedulerCore,
        seed: u64,
        rng: &mut StdRng,
    ) -> Result<(), String> {
        // Spans: each batch from its cut to its report's receipt, and each
        // request from its due time to that receipt, split at the cut.
        let at = |s: f64| self.t0 + Duration::from_secs_f64(s.max(0.0));
        let mut queue_ms = Vec::new();
        let mut batch_ms = Vec::new();
        let mut k = 0usize;
        for (b, (received, report)) in self.reports.iter().enumerate() {
            let cut = report.time_s - self.runtime_zero;
            batch_ms.push((received - cut) * 1e3);
            let batch_span = tracer.record("service.batch", 0, b as u64, at(cut), at(*received));
            for &i in self.accepted.iter().skip(k).take(report.requests) {
                queue_ms.push((cut - self.due[i]) * 1e3);
                let request = tracer.record(
                    "service.request",
                    batch_span,
                    i as u64,
                    at(self.due[i]),
                    at(*received),
                );
                tracer.record(
                    "service.queue_wait",
                    request,
                    i as u64,
                    at(self.due[i]),
                    at(cut),
                );
            }
            k += report.requests;
        }
        set_quantiles(run, "service.queue_wait_ms", &queue_ms, "ms");
        set_quantiles(run, "service.batch_ms", &batch_ms, "ms");
        set_quantiles(run, "service.read_us", self.read_us, "us");
        set_quantiles(run, "service.apply_ms", &split.apply_ms, "ms");
        let sizes: Vec<f64> = self
            .reports
            .iter()
            .map(|(_, r)| r.requests as f64)
            .collect();
        let layers = &mut run.layers;
        layers.set("service.batch_size_mean", mean(&sizes), "count");
        let backlog = self
            .reports
            .iter()
            .map(|(_, r)| r.backlog)
            .max()
            .unwrap_or(0);
        layers.set("service.backlog_max", backlog as f64, "count");
        if let Some(&(_, v)) = tails(self.submit_us).last() {
            layers.set("service.submit_us_p99", v, "us");
        }
        for tier in ["full", "shortened", "greedy_admit"] {
            let per_user: Vec<f64> = self
                .reports
                .iter()
                .filter(|(_, r)| r.tier == tier && r.active_users > 0)
                .map(|(_, r)| r.utility / r.active_users as f64)
                .collect();
            layers.set(
                &format!("service.tier_share.{tier}"),
                per_user.len() as f64 / self.reports.len().max(1) as f64,
                "share",
            );
            // Published J per active user at this tier; all-local is 0.
            if !per_user.is_empty() {
                layers.set(
                    &format!("service.tier_utility.{tier}"),
                    median(&per_user),
                    "utility",
                );
            }
        }
        layers.set("service.stage.generate_ms", mean(&split.generate_ms), "ms");
        layers.set("service.stage.patch_ms", mean(&split.patch_ms), "ms");
        layers.set("service.stage.solve_ms", mean(&split.solve_ms), "ms");
        layers.set("service.stage.evaluate_ms", mean(&split.evaluate_ms), "ms");
        let staged: f64 = [
            &split.generate_ms,
            &split.patch_ms,
            &split.solve_ms,
            &split.evaluate_ms,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
        layers.set(
            "ledger.unattributed_share",
            1.0 - staged / split.sampled_apply_ms.iter().sum::<f64>(),
            "share",
        );
        layers.set("workloads.generate_ms", median(&split.generate_ms), "ms");
        let full: Vec<f64> = self
            .reports
            .iter()
            .filter(|(_, r)| r.tier == "full")
            .map(|(_, r)| r.proposals as f64)
            .collect();
        layers.set("core.temper.proposals_per_batch", mean(&full), "count");
        layers.set("core.temper.solve_ms", median(&split.full_solve_ms), "ms");
        layers.set("bench.gen_lag_ms_p99", tail_or_max(self.lag) * 1e3, "ms");
        // What the service itself reports as decision latency (its
        // histogram's bucket bounds, set-up batches included), beside the
        // due-to-receipt latency measured here.
        let inprogram = &core.metrics().decision_latency;
        for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
            layers.set(
                &format!("service.inprogram_latency_ms_{name}"),
                inprogram.quantile_s(q) * 1e3,
                "ms",
            );
        }

        // The system and core probes run on a scenario at the final
        // population, from the final published decision.
        let snapshot = core.snapshot();
        let n = snapshot.users.len().max(1);
        let layout = ScenarioGenerator::new(config.params)
            .layout()
            .map_err(|e| format!("layout: {e}"))?;
        let positions = place_users_uniform(&layout, n, rng);
        let scenario: Scenario = ScenarioGenerator::new(config.params.with_users(n))
            .generate_at(&positions, rng.gen())
            .map_err(|e| format!("probe scenario: {e}"))?;
        let decision = if snapshot.users.is_empty() {
            Assignment::all_local(&scenario)
        } else {
            snapshot.assignment.clone()
        };
        probe::objective_stream(layers, &scenario, &decision, seed, 200_000);
        probe::system_calls(layers, &scenario, &decision, seed);
        probe::core_costs(layers, mean(&split.solved_proposals), mean(&split.solve_ms));
        let mut chain = StdRng::seed_from_u64(seed);
        let outcome = temper_from(
            &scenario,
            &config.tempering,
            &refresh(config, config.full_budget).with_trace(),
            &NeighborhoodKernel::new(),
            &mut chain,
            1,
            decision,
        );
        let trace = outcome.trace.expect("trace requested");
        probe::search_shares(layers, &[&trace], outcome.proposals);
        Ok(())
    }
}
