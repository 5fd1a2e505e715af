//! Provider-priority study (extension): does raising `λ_u` actually get
//! a user served under contention?
//!
//! §III-B motivates `λ_u` with first responders "whose tasks must be
//! given top priority", but no figure exercises the knob. Here a crowded
//! network (more users than offloading slots) carries a minority of
//! priority users (`λ = 1`) among standard users (`λ = λ_std < 1`); we
//! report the offload rate of each class under TSAJS. The weighted
//! objective should trade standard users away first.

use super::Scheme;
use crate::params::{ExperimentParams, Preset};
use crate::report::Table;
use crate::stats::SampleStats;
use crate::ScenarioGenerator;
use mec_system::{Scenario, UserSpec};
use mec_types::{Error, ProviderPreference, UserId};

/// Priority-study configuration.
#[derive(Debug, Clone)]
pub struct PriorityConfig {
    /// Standard users' provider weight `λ_std` (priority users get 1).
    pub lambda_standard: f64,
    /// Number of priority users (the first `k` user ids).
    pub num_priority: usize,
    /// Total users (should exceed `S·N` so the slots contend).
    pub num_users: usize,
    /// Monte-Carlo trials.
    pub trials: usize,
    /// Effort preset.
    pub preset: Preset,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Network parameters (user count overridden by `num_users`).
    pub params: ExperimentParams,
}

impl PriorityConfig {
    /// Default: 40 users contending for 9 slots (N = 1), 8 first
    /// responders. Slot-level scarcity is what makes `λ` decisive: with
    /// abundant slots the marginal offloader is chosen by channel quality
    /// and the weight barely matters.
    pub fn paper(preset: Preset) -> Self {
        Self {
            lambda_standard: 0.4,
            num_priority: 8,
            num_users: 40,
            trials: preset.trials,
            preset,
            base_seed: 13_000,
            params: ExperimentParams::paper_default()
                .with_subchannels(1)
                .with_workload(mec_types::Cycles::from_mega(2000.0)),
        }
    }
}

/// Builds the mixed-priority scenario for one seed: same radio as the
/// generator's draw, but the first `num_priority` users get `λ = 1` and
/// the rest `λ = lambda_standard`.
fn mixed_scenario(config: &PriorityConfig, seed: u64) -> Result<Scenario, Error> {
    let params = config.params.with_users(config.num_users);
    let base = ScenarioGenerator::new(params).generate(seed)?;
    let mut users: Vec<UserSpec> = base.users().to_vec();
    for (i, user) in users.iter_mut().enumerate() {
        user.lambda = if i < config.num_priority {
            ProviderPreference::MAX
        } else {
            ProviderPreference::new(config.lambda_standard)?
        };
    }
    // Rebuild with the same radio but the new priorities.
    Scenario::new(
        users,
        base.servers().to_vec(),
        *base.ofdma(),
        base.gains().clone(),
        base.noise(),
    )
}

/// Runs the priority study: offload rate per user class, for a couple of
/// `λ_std` settings.
///
/// # Errors
///
/// Propagates scenario-generation and solver errors.
pub fn run(config: &PriorityConfig) -> Result<Vec<Table>, Error> {
    let mut table = Table::new(
        format!(
            "Priority: offload rate by class (U={}, {} priority users, TSAJS)",
            config.num_users, config.num_priority
        ),
        vec![
            "lambda_std".into(),
            "priority offload rate".into(),
            "standard offload rate".into(),
        ],
    );
    for lambda_std in [1.0, config.lambda_standard] {
        let sub_config = PriorityConfig {
            lambda_standard: lambda_std,
            ..config.clone()
        };
        // run_trials wants a generator; we need per-seed custom scenarios,
        // so run the trials by hand (sequentially — TSAJS solves are the
        // cost, trials are few).
        let mut priority_rates = Vec::with_capacity(config.trials);
        let mut standard_rates = Vec::with_capacity(config.trials);
        for t in 0..config.trials as u64 {
            let seed = config.base_seed + t;
            let scenario = mixed_scenario(&sub_config, seed)?;
            let mut solver = Scheme::TSAJS.build(config.preset, seed);
            let solution = solver.solve(&scenario)?;
            let offloaded = |range: std::ops::Range<usize>| -> f64 {
                let total = range.len().max(1) as f64;
                range
                    .filter(|i| solution.assignment.is_offloaded(UserId::new(*i)))
                    .count() as f64
                    / total
            };
            priority_rates.push(offloaded(0..config.num_priority));
            standard_rates.push(offloaded(config.num_priority..config.num_users));
        }
        table.push_row(vec![
            format!("{lambda_std:.2}"),
            SampleStats::from_sample(&priority_rates).display(3),
            SampleStats::from_sample(&standard_rates).display(3),
        ]);
    }
    Ok(vec![table])
}

/// Runs the default study at the given preset.
///
/// # Errors
///
/// See [`run`].
pub fn paper(preset: Preset) -> Result<Vec<Table>, Error> {
    run(&PriorityConfig::paper(preset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PriorityConfig {
        PriorityConfig {
            lambda_standard: 0.3,
            num_priority: 3,
            num_users: 12,
            trials: 3,
            preset: Preset::Quick,
            base_seed: 2,
            params: ExperimentParams::paper_default()
                .with_servers(3)
                .with_subchannels(2)
                .with_workload(mec_types::Cycles::from_mega(2000.0)),
        }
    }

    #[test]
    fn produces_two_rows_with_rates_in_unit_interval() {
        let tables = run(&quick()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
        for row in &tables[0].rows {
            for cell in &row[1..] {
                let rate: f64 = cell.split('±').next().unwrap().trim().parse().unwrap();
                assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
            }
        }
    }

    #[test]
    fn priority_users_win_under_contention() {
        // 12 users, 6 slots: with λ_std well below 1, priority users must
        // offload at a higher rate than standard users.
        let tables = run(&quick()).unwrap();
        let row = &tables[0].rows[1]; // the λ_std < 1 row
        let parse = |c: &str| -> f64 { c.split('±').next().unwrap().trim().parse().unwrap() };
        let priority = parse(&row[1]);
        let standard = parse(&row[2]);
        assert!(
            priority >= standard,
            "priority {priority} should be >= standard {standard}"
        );
    }
}
