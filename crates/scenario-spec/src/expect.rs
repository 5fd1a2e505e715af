//! Executing a spec's `[expect]` block: the golden-assertion runner the
//! corpus CI job is built on.
//!
//! Offline specs (no `[online]` section) are materialized at the expect
//! seed and solved once with TTSA; online specs run their full epoch
//! schedule through the engine. Every failed assertion becomes one line
//! in [`ExpectReport::failures`], so a corpus run reports *all* broken
//! expectations of a spec, not just the first.

use crate::error::SpecError;
use crate::schema::{ExpectSpec, ScenarioSpec};
use mec_online::OnlineEpochReport;
use mec_types::effective_parallelism;
use mec_workloads::CHAIN_STREAM;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsajs::{anneal, solve_sharded, NeighborhoodKernel, ShardConfig, TtsaConfig};

/// Termination temperature used when a spec carries no `[effort]` block —
/// quick-scale so the corpus stays CI-friendly.
const DEFAULT_MIN_TEMPERATURE: f64 = 1e-2;

/// Per-cluster proposal budget for `solver = "shard"` expect runs. City
/// clusters can hold tens of thousands of users, so the corpus caps cold
/// solves the same way the anytime service tiers do.
const SHARD_PROPOSAL_BUDGET: u64 = 4000;

/// The outcome of one spec's expectation run.
#[derive(Debug, Clone)]
pub struct ExpectReport {
    /// Spec name.
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// Number of assertions evaluated.
    pub checks: usize,
    /// One line per failed assertion (empty = all green).
    pub failures: Vec<String>,
}

impl ExpectReport {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Aggregates of one online run, exposed for callers that assert beyond
/// the built-in `[expect]` fields.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// Every epoch report, in order.
    pub reports: Vec<OnlineEpochReport>,
    /// Timeline events applied across the run.
    pub events_applied: usize,
    /// Servers in service after the final epoch.
    pub final_servers_up: usize,
    /// Total admitted arrivals.
    pub total_arrivals: usize,
    /// Peak simultaneous active users.
    pub peak_active: usize,
    /// Mean per-epoch deadline hit rate.
    pub mean_deadline_hit_rate: f64,
}

/// Runs a spec's online schedule and summarizes it.
///
/// # Errors
///
/// Returns [`SpecError`] if the spec has no `[online]` section or the
/// engine fails mid-run.
pub fn run_online(spec: &ScenarioSpec, seed: u64) -> Result<OnlineOutcome, SpecError> {
    let mut plan = spec.online_plan(seed)?;
    let reports = plan
        .engine
        .run(plan.epochs)
        .map_err(|e| SpecError::model("online", &e))?;
    let events_applied = plan.engine.events_applied();
    let final_servers_up = plan.engine.servers_up().iter().filter(|&&up| up).count();
    let total_arrivals = reports.iter().map(|r| r.arrivals).sum();
    let peak_active = reports.iter().map(|r| r.active_users).max().unwrap_or(0);
    let mean_deadline_hit_rate = if reports.is_empty() {
        1.0
    } else {
        reports.iter().map(|r| r.deadline_hit_rate).sum::<f64>() / reports.len() as f64
    };
    Ok(OnlineOutcome {
        reports,
        events_applied,
        final_servers_up,
        total_arrivals,
        peak_active,
        mean_deadline_hit_rate,
    })
}

fn default_expect() -> ExpectSpec {
    ExpectSpec {
        seed: 0,
        solver: None,
        feasible: true,
        min_utility: None,
        max_utility: None,
        min_offloaded: None,
        users: None,
        servers: None,
        subchannels: None,
        min_deadline_hit_rate: None,
        min_arrivals: None,
        min_events_applied: None,
        final_servers_up: None,
        min_peak_active: None,
    }
}

/// Executes the spec and checks its `[expect]` assertions. A spec with no
/// `[expect]` block still executes (decode/validate/materialize/run) so
/// the corpus catches crashes, just with zero assertions.
///
/// # Errors
///
/// Returns [`SpecError`] for invalid specs or execution failures — a
/// *failed assertion* is not an error; it lands in
/// [`ExpectReport::failures`].
pub fn check_expectations(spec: &ScenarioSpec) -> Result<ExpectReport, SpecError> {
    spec.validate()?;
    let expect = spec.expect.clone().unwrap_or_else(default_expect);
    let mut checks = 0usize;
    let mut failures = Vec::new();
    let mut check = |ok: bool, line: String| {
        checks += 1;
        if !ok {
            failures.push(line);
        }
    };

    if spec.online.is_some() {
        let outcome = run_online(spec, expect.seed)?;
        if let Some(floor) = expect.min_deadline_hit_rate {
            check(
                outcome.mean_deadline_hit_rate >= floor,
                format!(
                    "mean deadline hit rate {:.4} below floor {floor}",
                    outcome.mean_deadline_hit_rate
                ),
            );
        }
        if let Some(floor) = expect.min_arrivals {
            check(
                outcome.total_arrivals >= floor,
                format!(
                    "{} arrivals, expected at least {floor}",
                    outcome.total_arrivals
                ),
            );
        }
        if let Some(floor) = expect.min_events_applied {
            check(
                outcome.events_applied >= floor,
                format!(
                    "{} timeline events applied, expected at least {floor}",
                    outcome.events_applied
                ),
            );
        }
        if let Some(exact) = expect.final_servers_up {
            check(
                outcome.final_servers_up == exact,
                format!(
                    "{} servers up at the end, expected {exact}",
                    outcome.final_servers_up
                ),
            );
        }
        if let Some(floor) = expect.min_peak_active {
            check(
                outcome.peak_active >= floor,
                format!(
                    "peak {} active users, expected at least {floor}",
                    outcome.peak_active
                ),
            );
        }
        if let Some(floor) = expect.min_utility {
            let best = outcome
                .reports
                .iter()
                .map(|r| r.utility)
                .fold(f64::NEG_INFINITY, f64::max);
            check(
                best >= floor,
                format!("best epoch utility {best:.4} below floor {floor}"),
            );
        }
        if let Some(cap) = expect.max_utility {
            let worst = outcome
                .reports
                .iter()
                .map(|r| r.utility)
                .fold(f64::NEG_INFINITY, f64::max);
            check(
                worst <= cap,
                format!("epoch utility {worst:.4} above cap {cap}"),
            );
        }
        if expect.feasible {
            // Feasibility holds per epoch by construction; nothing extra
            // to re-check beyond the run having succeeded.
            check(true, String::new());
        }
    } else {
        let scenario = spec.materialize(expect.seed)?;
        if let Some(exact) = expect.users {
            check(
                scenario.num_users() == exact,
                format!(
                    "{} users materialized, expected {exact}",
                    scenario.num_users()
                ),
            );
        }
        if let Some(exact) = expect.servers {
            check(
                scenario.num_servers() == exact,
                format!(
                    "{} servers materialized, expected {exact}",
                    scenario.num_servers()
                ),
            );
        }
        if let Some(exact) = expect.subchannels {
            check(
                scenario.num_subchannels() == exact,
                format!(
                    "{} subchannels materialized, expected {exact}",
                    scenario.num_subchannels()
                ),
            );
        }
        let min_temperature = spec
            .effort
            .as_ref()
            .map(|e| e.ttsa_min_temperature)
            .unwrap_or(DEFAULT_MIN_TEMPERATURE);
        let (objective, assignment) = if expect.solver.as_deref() == Some("shard") {
            let config = ShardConfig::paper_default()
                .with_seed(expect.seed)
                .with_ttsa(
                    TtsaConfig::paper_default()
                        .with_min_temperature(min_temperature)
                        .with_proposal_budget(SHARD_PROPOSAL_BUDGET),
                );
            let out = solve_sharded(&scenario, &config, effective_parallelism(None))
                .map_err(|e| SpecError::model("expect.solver", &e))?;
            (out.objective, out.assignment)
        } else {
            let config = TtsaConfig::paper_default().with_min_temperature(min_temperature);
            let kernel = NeighborhoodKernel::new();
            // Same solver-stream decorrelation as the epoch drivers.
            let mut rng = StdRng::seed_from_u64(expect.seed ^ CHAIN_STREAM);
            let outcome = anneal(&scenario, &config, &kernel, &mut rng);
            (outcome.objective, outcome.assignment)
        };
        if expect.feasible {
            check(
                assignment.verify_feasible(&scenario).is_ok(),
                "solver produced an infeasible assignment".into(),
            );
        }
        if let Some(floor) = expect.min_utility {
            check(
                objective >= floor,
                format!("objective {objective:.4} below floor {floor}"),
            );
        }
        if let Some(cap) = expect.max_utility {
            check(
                objective <= cap,
                format!("objective {objective:.4} above cap {cap}"),
            );
        }
        if let Some(floor) = expect.min_offloaded {
            let n = assignment.num_offloaded();
            check(
                n >= floor,
                format!("{n} users offloaded, expected at least {floor}"),
            );
        }
    }

    Ok(ExpectReport {
        name: spec.name.clone(),
        seed: expect.seed,
        checks,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;

    #[test]
    fn offline_expectations_pass_for_sane_bounds() {
        let spec = ScenarioBuilder::new("offline")
            .servers(4)
            .users(6)
            .expect(|e| {
                e.seed = 2;
                e.users = Some(6);
                e.servers = Some(4);
                e.subchannels = Some(3);
                e.min_utility = Some(0.0);
                e.min_offloaded = Some(1);
            })
            .try_build()
            .unwrap();
        let report = check_expectations(&spec).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report.checks >= 6);
    }

    #[test]
    fn broken_expectations_report_every_failure() {
        let spec = ScenarioBuilder::new("broken")
            .servers(4)
            .users(6)
            .expect(|e| {
                e.users = Some(7);
                e.max_utility = Some(-1.0);
            })
            .try_build()
            .unwrap();
        let report = check_expectations(&spec).unwrap();
        assert!(!report.passed());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    }

    #[test]
    fn online_expectations_cover_timeline_effects() {
        let spec = ScenarioBuilder::new("online")
            .servers(4)
            .users(6)
            .poisson_churn(0.05, 120.0)
            .online(|o| {
                o.epochs = 4;
                o.warm_budget = Some(150);
                o.min_temperature = Some(1e-2);
            })
            .server_outage(15.0, 1)
            .expect(|e| {
                e.seed = 5;
                e.min_arrivals = Some(6);
                e.min_events_applied = Some(1);
                e.final_servers_up = Some(3);
                e.min_peak_active = Some(6);
            })
            .try_build()
            .unwrap();
        let report = check_expectations(&spec).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures);
    }
}
