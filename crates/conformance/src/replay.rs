//! Online seed-replay verification.
//!
//! The online engine promises that a run is a pure function of its
//! `(params, config, churn process, seed)` inputs and that every streamed
//! [`OnlineEpochReport`] is internally consistent with the schedule it
//! describes. This module replays a seeded engine twice — once stepping
//! and auditing each epoch against a cold re-evaluation, once
//! end-to-end — and demands identical report streams.

use crate::oracle::Oracle;
use mec_online::{AdmitAll, OnlineConfig, OnlineEngine, OnlineEpochReport, PoissonChurn};
use mec_system::Evaluator;
use mec_types::{Error, Seconds};
use mec_workloads::ExperimentParams;
use tsajs::{ResolveMode, TtsaConfig};

/// Shape of the replayed online run.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Initial population.
    pub users: usize,
    /// Number of servers.
    pub servers: usize,
    /// Poisson arrival rate (users per second).
    pub arrival_rate: f64,
    /// Mean sojourn time of each user, in seconds.
    pub mean_sojourn_s: f64,
    /// Warm-start refresh budget per epoch.
    pub refresh_budget: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            users: 5,
            servers: 3,
            arrival_rate: 0.1,
            mean_sojourn_s: 60.0,
            refresh_budget: 150,
        }
    }
}

fn build_engine(config: &ReplayConfig, seed: u64) -> Result<OnlineEngine, Error> {
    let params = ExperimentParams::paper_default()
        .with_users(config.users)
        .with_servers(config.servers);
    let online = OnlineConfig::pedestrian()
        .with_base(TtsaConfig::paper_default().with_min_temperature(1e-2))
        .with_mode(ResolveMode::warm(config.refresh_budget));
    let churn = PoissonChurn::new(
        config.users,
        config.arrival_rate,
        Seconds::new(config.mean_sojourn_s),
        seed,
    )?;
    OnlineEngine::new(params, online, Box::new(churn), Box::new(AdmitAll), seed)
}

fn audit_report(report: &OnlineEpochReport) -> Result<(), String> {
    if report.scheduled + report.forced_local != report.active_users {
        return Err(format!(
            "epoch {}: scheduled {} + forced_local {} ≠ active {}",
            report.epoch, report.scheduled, report.forced_local, report.active_users
        ));
    }
    if report.num_offloaded > report.scheduled {
        return Err(format!(
            "epoch {}: {} offloaded out of {} scheduled",
            report.epoch, report.num_offloaded, report.scheduled
        ));
    }
    if !(0.0..=1.0).contains(&report.deadline_hit_rate) {
        return Err(format!(
            "epoch {}: deadline hit rate {} outside [0, 1]",
            report.epoch, report.deadline_hit_rate
        ));
    }
    if !report.utility.is_finite() {
        return Err(format!("epoch {}: non-finite utility", report.epoch));
    }
    Ok(())
}

/// Replays one seeded online run for `epochs` epochs. Each streamed
/// report is audited for internal consistency; whenever the engine
/// exposes its epoch schedule, the decision is run through the static
/// oracle checks and its utility is recomputed cold. A second engine
/// built from the same seed must then produce an identical stream.
///
/// Returns the worst relative residual between streamed utilities and
/// their cold recomputation.
///
/// # Errors
///
/// Returns a description of the first inconsistency or divergence.
pub fn check_online_replay(
    config: &ReplayConfig,
    seed: u64,
    epochs: usize,
    tolerance: f64,
) -> Result<f64, String> {
    let oracle = Oracle::with_tolerance(tolerance);
    let mut engine =
        build_engine(config, seed).map_err(|e| format!("engine construction failed: {e}"))?;
    let mut stream = Vec::with_capacity(epochs);
    let mut worst = 0.0f64;
    for _ in 0..epochs {
        let report = engine
            .step()
            .map_err(|e| format!("epoch {} failed: {e}", stream.len()))?;
        audit_report(&report)?;
        match engine.last_schedule() {
            Some((scenario, x)) => {
                oracle
                    .check_feasibility(scenario, x)
                    .map_err(|e| format!("epoch {}: {e}", report.epoch))?;
                oracle
                    .check_kkt(scenario, x)
                    .map_err(|e| format!("epoch {}: {e}", report.epoch))?;
                let cold = Evaluator::new(scenario).objective(x);
                let residual = (cold - report.utility).abs() / cold.abs().max(1.0);
                worst = worst.max(residual);
                if residual > tolerance {
                    return Err(format!(
                        "epoch {}: streamed utility {} but a cold solve of the \
                         epoch's schedule evaluates to {cold} (residual {residual:.3e})",
                        report.epoch, report.utility
                    ));
                }
            }
            None => {
                if report.scheduled > 0 {
                    return Err(format!(
                        "epoch {}: {} scheduled users but no schedule exposed",
                        report.epoch, report.scheduled
                    ));
                }
                if report.utility != 0.0 {
                    return Err(format!(
                        "epoch {}: empty schedule reported utility {}",
                        report.epoch, report.utility
                    ));
                }
            }
        }
        stream.push(report);
    }
    // Determinism: an identically-seeded engine must reproduce the
    // stream bit-for-bit.
    let replayed = build_engine(config, seed)
        .map_err(|e| format!("replay engine construction failed: {e}"))?
        .run(epochs)
        .map_err(|e| format!("replay run failed: {e}"))?;
    if replayed != stream {
        let first = stream
            .iter()
            .zip(&replayed)
            .position(|(a, b)| a != b)
            .unwrap_or(stream.len().min(replayed.len()));
        return Err(format!(
            "equal seeds diverged at epoch {first}: identical inputs must \
             produce identical report streams"
        ));
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_replays_are_clean() {
        for seed in 0..2 {
            let worst = check_online_replay(&ReplayConfig::default(), seed, 4, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(worst <= 1e-9, "seed {seed}: residual {worst}");
        }
    }
}
