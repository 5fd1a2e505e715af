//! Service capacity bench: the closed-loop loadtest as a harness.
//!
//! Not a criterion bench: the verdict is the maximum sustainable arrival
//! rate at a p99 decision-latency SLO, measured by `mec-service`'s
//! binary-search loadtest against the full threaded runtime (micro-batch
//! ingestion, lock-free snapshot reads, degradation tiers). The verdict
//! is machine-dependent by design — it measures *this* host — so there is
//! no pass/fail threshold, just the machine-readable report
//! `BENCH_service.json` (override the path with `TSAJS_BENCH_OUT`).
//!
//! Modes:
//! - `cargo bench --bench service` — production-shaped service config,
//!   5 s probes.
//! - `TSAJS_BENCH_QUICK=1 cargo bench --bench service` — CI smoke run,
//!   sub-second probes on the quick service preset.
//! - The harness runs only when `cargo bench` passes it `--bench`.
//!   `cargo test` runs a `harness = false` target with no arguments, so
//!   there it returns at once and the test suite never pays for a
//!   benchmark.

use mec_service::{quick_from_env, run_loadtest, LoadtestConfig};

fn main() {
    // `cargo bench` passes `--bench`; `cargo test` passes no arguments
    // to a `harness = false` target, and there is nothing to test here
    // beyond compilation.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let quick = quick_from_env();
    let seed = 7u64;
    let mut cfg = if quick {
        LoadtestConfig::quick(seed)
    } else {
        LoadtestConfig::full(seed)
    };
    if quick {
        // Keep the whole smoke run to a couple of probes.
        cfg.probe_secs = 0.4;
        cfg.refine_steps = 2;
    }
    if let Ok(v) = std::env::var("TSAJS_BENCH_THREADS") {
        cfg.service.threads = Some(v.parse().expect("TSAJS_BENCH_THREADS"));
    }

    println!(
        "service loadtest: quick={quick}, slo p99 {:.0} ms, rates [{:.0}, {:.0}] Hz, \
         {:.1} s probes",
        cfg.slo_p99.as_secs() * 1e3,
        cfg.rate_lo_hz,
        cfg.rate_hi_hz,
        cfg.probe_secs
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>20} {:>10}",
        "rate(Hz)", "p99(ms)", "decided", "rejected", "tiers f/s/g (%)", "verdict"
    );
    let outcome = run_loadtest(&cfg, |probe| {
        println!(
            "{:>10.1} {:>10.2} {:>10} {:>10} {:>8.0}/{:>4.0}/{:>4.0} {:>10}",
            probe.rate_hz,
            probe.p99_ms,
            probe.decided,
            probe.rejected,
            probe.tier_occupancy[0] * 100.0,
            probe.tier_occupancy[1] * 100.0,
            probe.tier_occupancy[2] * 100.0,
            if probe.sustained {
                "sustained"
            } else {
                "failed"
            }
        );
    })
    .expect("loadtest");

    println!(
        "max sustainable rate: {:.1} Hz over {} probes ({} snapshot reads in the last probe)",
        outcome.report.max_sustainable_hz,
        outcome.report.probes.len(),
        outcome
            .report
            .probes
            .last()
            .map(|p| p.snapshot_reads)
            .unwrap_or(0)
    );
    if outcome.report.ceiling_reached {
        println!("every doubling above the search's rate_hi was sustained: a lower bound");
    }

    let out = std::env::var("TSAJS_BENCH_OUT").unwrap_or_else(|_| "BENCH_service.json".to_string());
    let json = serde_json::to_string_pretty(&outcome.report).expect("serialize report");
    std::fs::write(&out, json).expect("write bench report");
    println!("wrote {out}");
}
