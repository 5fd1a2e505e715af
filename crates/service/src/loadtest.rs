//! Closed-loop load generation: find the maximum sustainable arrival
//! rate at a decision-latency SLO.
//!
//! A *probe* runs the full threaded service ([`ServiceRuntime`]) for a
//! fixed wall-clock window at one offered arrival rate λ: a seeded
//! Poisson arrival process with exponential sojourns (an M/M/∞ offered
//! load), a query thread hammering lock-free snapshot reads the whole
//! time, and the ingestion queue providing real backpressure. A probe is
//! **sustained** when the p99 decision latency (request submission →
//! snapshot publication) meets the SLO and nothing was rejected at the
//! queue.
//!
//! [`run_loadtest`] then searches λ: it probes `rate_lo`, then
//! `rate_hi`, doubling the rate while the probes are sustained (at most
//! [`MAX_RATE_DOUBLINGS`] times), then binary-searches between the last
//! sustained rate and the first failed one (geometric midpoints — rates
//! live on a log scale) and reports the largest sustained rate. When
//! every doubling was sustained, the report flags the answer as a lower
//! bound (`ceiling_reached`). The verdict is machine-dependent by nature —
//! it measures *this* host's service capacity — but each probe's
//! scheduling decisions are still a deterministic function of its
//! recorded ingestion log.

use crate::batch::RequestKind;
use crate::core::{BatchReport, SchedulerCore, ServiceConfig};
use crate::metrics::ServiceMetrics;
use crate::runtime::ServiceRuntime;
use crate::tier::Tier;
use mec_types::{Error, Seconds};
use mec_workloads::ExperimentParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Loadtest knobs.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// The service under test.
    pub service: ServiceConfig,
    /// Users prefilled (and scheduled) before the clock starts.
    pub initial_users: usize,
    /// Decision-latency SLO checked at p99.
    pub slo_p99: Seconds,
    /// Lower bound of the rate search (Hz).
    pub rate_lo_hz: f64,
    /// First rate probed above the floor (Hz); the search doubles it
    /// while probes are sustained.
    pub rate_hi_hz: f64,
    /// Wall-clock window per probe.
    pub probe_secs: f64,
    /// Binary-search refinement probes once a failed rate brackets the
    /// search.
    pub refine_steps: usize,
    /// Ingestion-queue bound (the backpressure surface).
    pub queue_capacity: usize,
    /// Mean user sojourn: each arrival departs after Exp(mean) seconds.
    pub mean_sojourn_s: f64,
    /// Seed for the arrival/sojourn processes.
    pub seed: u64,
}

impl LoadtestConfig {
    /// CI-scale preset: finishes in a few seconds on any host.
    pub fn quick(seed: u64) -> Self {
        Self {
            service: ServiceConfig::quick(seed),
            initial_users: 6,
            slo_p99: Seconds::new(0.25),
            rate_lo_hz: 20.0,
            rate_hi_hz: 2_000.0,
            probe_secs: 0.6,
            refine_steps: 3,
            queue_capacity: 256,
            mean_sojourn_s: 1.0,
            seed,
        }
    }

    /// Production-shaped preset: the service over the paper's default
    /// network, a 20-user prefill, 5 s probes and 5 refinement steps.
    pub fn full(seed: u64) -> Self {
        Self {
            service: ServiceConfig::new(ExperimentParams::paper_default(), seed),
            initial_users: 20,
            probe_secs: 5.0,
            refine_steps: 5,
            ..Self::quick(seed)
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for degenerate rates, windows
    /// or sojourns (and whatever the service config rejects).
    pub fn validate(&self) -> Result<(), Error> {
        self.service.validate()?;
        if !(self.rate_lo_hz > 0.0 && self.rate_hi_hz >= self.rate_lo_hz) {
            return Err(Error::invalid("rate", "need 0 < rate_lo <= rate_hi"));
        }
        if !(self.probe_secs > 0.0 && self.probe_secs.is_finite()) {
            return Err(Error::invalid("probe_secs", "must be positive"));
        }
        if !(self.mean_sojourn_s > 0.0 && self.mean_sojourn_s.is_finite()) {
            return Err(Error::invalid("mean_sojourn_s", "must be positive"));
        }
        if !(self.slo_p99.as_secs() > 0.0 && self.slo_p99.as_secs().is_finite()) {
            return Err(Error::invalid("slo_p99", "must be positive"));
        }
        if self.queue_capacity == 0 {
            return Err(Error::invalid("queue_capacity", "must be positive"));
        }
        Ok(())
    }
}

/// One probe's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ProbeOutcome {
    /// Offered arrival rate.
    pub rate_hz: f64,
    /// Requests offered (arrivals + departures attempted).
    pub offered: u64,
    /// Requests refused at the ingestion queue.
    pub rejected: u64,
    /// Requests decided by the service.
    pub decided: u64,
    /// Micro-batches applied.
    pub batches: u64,
    /// Median decision latency.
    pub p50_ms: f64,
    /// Tail decision latency checked against the SLO.
    pub p99_ms: f64,
    /// Mean decision latency.
    pub mean_ms: f64,
    /// Completion-time SLA hit rate over the probe.
    pub sla_hit_rate: f64,
    /// Fraction of batches served per tier
    /// (full/shortened/greedy/city-scale).
    pub tier_occupancy: [f64; 4],
    /// Tier changes during the probe.
    pub tier_transitions: u64,
    /// Lock-free snapshot reads completed by the query thread.
    pub snapshot_reads: u64,
    /// Whether the probe met the SLO with zero queue rejections.
    pub sustained: bool,
}

/// The machine-readable loadtest verdict (`BENCH_service.json`).
#[derive(Debug, Clone, Serialize)]
pub struct LoadtestReport {
    /// Seed of the offered-load processes.
    pub seed: u64,
    /// The p99 SLO in milliseconds.
    pub slo_p99_ms: f64,
    /// Search floor (Hz).
    pub rate_lo_hz: f64,
    /// First rate probed above the floor (Hz).
    pub rate_hi_hz: f64,
    /// Wall-clock window per probe.
    pub probe_secs: f64,
    /// Worker cap in force (`null` = auto).
    pub threads: Option<usize>,
    /// Every probe, in execution order.
    pub probes: Vec<ProbeOutcome>,
    /// The largest sustained rate found (0 when even the floor failed).
    pub max_sustainable_hz: f64,
    /// Whether [`MAX_RATE_DOUBLINGS`] stopped the search with every probe
    /// sustained, so `max_sustainable_hz` is a lower bound rather than
    /// the capacity.
    pub ceiling_reached: bool,
}

/// Most times the search doubles the rate above `rate_hi` while probes
/// are sustained: 64× `rate_hi` at most, so a run takes at most six
/// probes more than a bracketed one.
pub const MAX_RATE_DOUBLINGS: u32 = 6;

/// The rate search, over a probe that reports whether a rate is
/// sustained: the floor, then `rate_hi` doubled while sustained (at most
/// [`MAX_RATE_DOUBLINGS`] times), then `refine_steps` geometric
/// bisections between the last sustained rate and the first failed one.
/// Returns the largest sustained rate (0 when the floor failed) and
/// whether the doubling cap stopped the search.
fn search_rate(
    cfg: &LoadtestConfig,
    mut sustained_at: impl FnMut(f64) -> Result<bool, Error>,
) -> Result<(f64, bool), Error> {
    let mut lo = cfg.rate_lo_hz;
    if !sustained_at(lo)? {
        return Ok((0.0, false));
    }
    let mut hi = cfg.rate_hi_hz;
    if hi <= lo {
        return Ok((lo, false));
    }
    let mut doublings = 0;
    while sustained_at(hi)? {
        lo = hi;
        if doublings == MAX_RATE_DOUBLINGS {
            return Ok((lo, true));
        }
        hi *= 2.0;
        doublings += 1;
    }
    for _ in 0..cfg.refine_steps {
        // Geometric midpoint: rates live on a log scale.
        let mid = (lo * hi).sqrt();
        if !(mid.is_finite() && mid > lo && mid < hi) {
            break;
        }
        if sustained_at(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, false))
}

/// Everything a loadtest run produces.
pub struct LoadtestOutcome {
    /// The verdict.
    pub report: LoadtestReport,
    /// Metrics of the best sustained probe (or the last probe run).
    pub final_metrics: ServiceMetrics,
    /// Batch reports streamed by that probe, in order.
    pub final_reports: Vec<BatchReport>,
}

struct ProbeRun {
    outcome: ProbeOutcome,
    metrics: ServiceMetrics,
    reports: Vec<BatchReport>,
}

/// Ordered by *earliest* departure time (min-heap via `Reverse`); times
/// are non-negative so the IEEE bit pattern orders like the float.
type DepartureQueue = BinaryHeap<std::cmp::Reverse<(u64, u64)>>;

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    // 1 - U ∈ (0, 1] keeps ln away from zero.
    -(1.0 - rng.gen::<f64>()).ln() * mean
}

fn run_probe(cfg: &LoadtestConfig, rate_hz: f64) -> Result<ProbeRun, Error> {
    let mut core = SchedulerCore::new(cfg.service.clone())?;
    // Prefill and schedule the standing population, then zero the
    // counters so the probe measures steady state only.
    for id in 0..cfg.initial_users as u64 {
        core.submit(crate::batch::ServiceRequest::arrival(id, 0.0));
    }
    core.flush(0.0)?;
    *core.metrics_mut() = ServiceMetrics::default();

    let (report_tx, report_rx) = mpsc::channel();
    let runtime = ServiceRuntime::spawn_streaming(core, cfg.queue_capacity, report_tx);

    // Query thread: hammer lock-free reads for the whole probe.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = runtime.reader();
    let query = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let _ = reader.snapshot();
                reads += 1;
            }
            reads
        })
    };

    // Closed-loop offered load: Poisson arrivals, exponential sojourns.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ rate_hz.to_bits());
    let mut departures: DepartureQueue = BinaryHeap::new();
    let mut next_id = cfg.initial_users as u64;
    let mut offered = 0u64;
    let started = Instant::now();
    let window = Duration::from_secs_f64(cfg.probe_secs);
    let mut next_arrival = exp_sample(&mut rng, 1.0 / rate_hz);
    while started.elapsed() < window {
        let now = started.elapsed().as_secs_f64();
        let next_departure = departures.peek().map(|r| f64::from_bits(r.0 .0));
        let due = next_departure
            .map(|d| d.min(next_arrival))
            .unwrap_or(next_arrival);
        if due > now {
            let wait = (due - now).min(cfg.probe_secs / 50.0);
            std::thread::sleep(Duration::from_secs_f64(wait.max(1e-5)));
            continue;
        }
        if next_departure.is_some_and(|d| d <= next_arrival) {
            let std::cmp::Reverse((_, user)) = departures.pop().expect("peeked");
            offered += 1;
            let _ = runtime.submit(RequestKind::Departure { user });
        } else {
            let user = next_id;
            next_id += 1;
            offered += 1;
            if runtime.submit(RequestKind::Arrival { user }).is_ok() {
                let leave = next_arrival + exp_sample(&mut rng, cfg.mean_sojourn_s);
                departures.push(std::cmp::Reverse((leave.to_bits(), user)));
            }
            next_arrival += exp_sample(&mut rng, 1.0 / rate_hz);
        }
    }

    let rejected = runtime.rejections();
    let core = runtime.shutdown()?;
    stop.store(true, Ordering::Relaxed);
    let snapshot_reads = query.join().expect("query thread never panics");
    let reports: Vec<BatchReport> = report_rx.try_iter().collect();
    let metrics = core.metrics().clone();

    let p99_s = metrics.decision_latency.quantile_s(0.99);
    let sustained = rejected == 0 && p99_s <= cfg.slo_p99.as_secs();
    let outcome = ProbeOutcome {
        rate_hz,
        offered,
        rejected,
        decided: metrics.requests,
        batches: metrics.batches,
        p50_ms: metrics.decision_latency.quantile_s(0.50) * 1e3,
        p99_ms: p99_s * 1e3,
        mean_ms: metrics.decision_latency.mean_s() * 1e3,
        sla_hit_rate: metrics.sla_hit_rate(),
        tier_occupancy: [
            metrics.tier_occupancy(Tier::Full),
            metrics.tier_occupancy(Tier::Shortened),
            metrics.tier_occupancy(Tier::GreedyAdmit),
            metrics.tier_occupancy(Tier::CityScale),
        ],
        tier_transitions: metrics.tier_transitions,
        snapshot_reads,
        sustained,
    };
    Ok(ProbeRun {
        outcome,
        metrics,
        reports,
    })
}

/// Runs the full search. `observer` sees every probe as it completes
/// (progress reporting).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for an invalid config and
/// propagates service failures out of any probe.
pub fn run_loadtest(
    cfg: &LoadtestConfig,
    mut observer: impl FnMut(&ProbeOutcome),
) -> Result<LoadtestOutcome, Error> {
    cfg.validate()?;
    let mut probes = Vec::new();
    let mut best: Option<ProbeRun> = None;
    let mut last: Option<ProbeRun> = None;

    let (max_sustainable, ceiling_reached) = search_rate(cfg, |rate| {
        let probe = run_probe(cfg, rate)?;
        observer(&probe.outcome);
        let sustained = probe.outcome.sustained;
        probes.push(probe.outcome.clone());
        let replace = sustained && best.as_ref().is_none_or(|b| rate > b.outcome.rate_hz);
        if replace {
            best = Some(probe);
        } else {
            last = Some(probe);
        }
        Ok(sustained)
    })?;

    let chosen = best.or(last).expect("at least one probe ran");
    Ok(LoadtestOutcome {
        report: LoadtestReport {
            seed: cfg.seed,
            slo_p99_ms: cfg.slo_p99.as_secs() * 1e3,
            rate_lo_hz: cfg.rate_lo_hz,
            rate_hi_hz: cfg.rate_hi_hz,
            probe_secs: cfg.probe_secs,
            threads: cfg.service.threads,
            probes,
            max_sustainable_hz: max_sustainable,
            ceiling_reached,
        },
        final_metrics: chosen.metrics,
        final_reports: chosen.reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_preset_differs_from_quick_only_in_scale() {
        let (quick, full) = (LoadtestConfig::quick(3), LoadtestConfig::full(3));
        full.validate().unwrap();
        assert_eq!(full.service.params, ExperimentParams::paper_default());
        assert_eq!(full.service.seed, 3);
        assert_eq!(
            (full.initial_users, full.probe_secs, full.refine_steps),
            (20, 5.0, 5)
        );
        assert_eq!(full.slo_p99, quick.slo_p99);
        assert_eq!(full.queue_capacity, quick.queue_capacity);
        assert_eq!(full.mean_sojourn_s, quick.mean_sojourn_s);
    }

    #[test]
    fn config_validation_rejects_degenerate_knobs() {
        let mut cfg = LoadtestConfig::quick(1);
        cfg.rate_lo_hz = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = LoadtestConfig::quick(1);
        cfg.rate_hi_hz = cfg.rate_lo_hz / 2.0;
        assert!(cfg.validate().is_err());
        let mut cfg = LoadtestConfig::quick(1);
        cfg.probe_secs = -1.0;
        assert!(cfg.validate().is_err());
        assert!(LoadtestConfig::quick(1).validate().is_ok());
    }

    #[test]
    fn a_tiny_loadtest_produces_a_verdict() {
        // Minutes-proof micro run: with `rate_hi == rate_lo` the floor is
        // the only probe (the search's shape is covered by the
        // `search_rate` tests below).
        let mut cfg = LoadtestConfig::quick(7);
        cfg.probe_secs = 0.15;
        cfg.refine_steps = 1;
        cfg.rate_lo_hz = 10.0;
        cfg.rate_hi_hz = 10.0;
        let mut seen = 0;
        let outcome = run_loadtest(&cfg, |_| seen += 1).unwrap();
        assert!(seen >= 1);
        assert_eq!(outcome.report.probes.len(), seen);
        assert!(outcome.report.max_sustainable_hz >= 0.0);
        assert!(outcome.final_metrics.batches > 0 || outcome.final_metrics.requests == 0);
        let json = serde_json::to_string_pretty(&outcome.report).unwrap();
        for key in [
            "max_sustainable_hz",
            "ceiling_reached",
            "probes",
            "slo_p99_ms",
            "rate_hi_hz",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    /// Runs the search against a host that sustains every rate up to
    /// `capacity`, returning the probed rates and the verdict.
    fn search_against(cfg: &LoadtestConfig, capacity: f64) -> (Vec<f64>, f64, bool) {
        let mut probed = Vec::new();
        let (max, ceiling) = search_rate(cfg, |rate| {
            probed.push(rate);
            Ok(rate <= capacity)
        })
        .unwrap();
        (probed, max, ceiling)
    }

    #[test]
    fn a_sustained_rate_hi_is_probed_beyond() {
        let mut cfg = LoadtestConfig::quick(1);
        cfg.rate_lo_hz = 20.0;
        cfg.rate_hi_hz = 2_000.0;
        cfg.refine_steps = 3;
        let (probed, max, ceiling) = search_against(&cfg, 5_000.0);
        // Floor, rate_hi, its doublings until 8 kHz fails, then bisection
        // inside (4 kHz, 8 kHz).
        assert_eq!(probed[..4], [20.0, 2_000.0, 4_000.0, 8_000.0]);
        assert_eq!(probed.len(), 4 + cfg.refine_steps);
        assert!(probed.iter().any(|&r| r > cfg.rate_hi_hz && r <= 5_000.0));
        assert!(max > 4_000.0 && max <= 5_000.0, "{max}");
        assert!(!ceiling);
    }

    #[test]
    fn the_doubling_cap_marks_a_lower_bound() {
        let cfg = LoadtestConfig::quick(1);
        let (probed, max, ceiling) = search_against(&cfg, f64::INFINITY);
        let top = cfg.rate_hi_hz * f64::from(1u32 << MAX_RATE_DOUBLINGS);
        assert_eq!(probed.len(), 2 + MAX_RATE_DOUBLINGS as usize);
        assert_eq!(max, top);
        assert!(ceiling);
    }

    #[test]
    fn a_failed_floor_or_rate_hi_keeps_the_bracketed_search() {
        let cfg = LoadtestConfig::quick(1);
        assert_eq!(
            search_against(&cfg, 1.0),
            (vec![cfg.rate_lo_hz], 0.0, false)
        );
        let (probed, max, ceiling) = search_against(&cfg, 100.0);
        assert_eq!(probed[..2], [cfg.rate_lo_hz, cfg.rate_hi_hz]);
        assert_eq!(probed.len(), 2 + cfg.refine_steps);
        assert!(max >= cfg.rate_lo_hz && max <= 100.0 && !ceiling);
    }
}
