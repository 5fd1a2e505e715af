//! Mobility studies: scheme behavior under movement, and the
//! incremental-refresh trade-off.

use crate::dynamic::{DynamicSimulation, MobilityConfig};
use mec_system::Solver;
use mec_types::Error;
use mec_workloads::{ExperimentParams, SampleStats, Table};
use tsajs::{ResolveMode, TsajsSolver, TtsaConfig};

/// Configuration of the dynamics study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Network parameters.
    pub params: ExperimentParams,
    /// Scheduling epochs per case.
    pub epochs: usize,
    /// Simulation seed.
    pub seed: u64,
    /// TTSA schedule used by the solvers.
    pub ttsa: TtsaConfig,
    /// Proposal budget of the incremental refresh.
    pub refresh_budget: u64,
}

impl StudyConfig {
    /// Defaults: U = 30 on the paper network, 20 epochs, quick schedule.
    pub fn default_study() -> Self {
        Self {
            params: ExperimentParams::paper_default().with_users(30),
            epochs: 20,
            seed: 17,
            ttsa: TtsaConfig::paper_default().with_min_temperature(1e-3),
            refresh_budget: 300,
        }
    }
}

fn summarize(label: &str, scheme: &str, history: &crate::dynamic::History, table: &mut Table) {
    let utility =
        SampleStats::from_sample(&history.epochs.iter().map(|e| e.utility).collect::<Vec<_>>());
    let churn: Vec<f64> = history.epochs[1..]
        .iter()
        .map(|e| e.reassignments as f64)
        .collect();
    let handovers: Vec<f64> = history.epochs[1..]
        .iter()
        .map(|e| e.handovers as f64)
        .collect();
    let proposals: Vec<f64> = history.epochs.iter().map(|e| e.proposals as f64).collect();
    table.push_row(vec![
        label.into(),
        scheme.into(),
        utility.display(3),
        SampleStats::from_sample(&handovers).display(2),
        SampleStats::from_sample(&churn).display(2),
        format!("{:.0}", SampleStats::from_sample(&proposals).mean),
    ]);
}

/// Runs the dynamics study: TSAJS vs Greedy under pedestrian and
/// vehicular mobility, plus full-resolve vs incremental-refresh TSAJS.
///
/// # Errors
///
/// Propagates configuration, scenario-generation and solver errors.
pub fn run(config: &StudyConfig) -> Result<Vec<Table>, Error> {
    let mut table = Table::new(
        format!(
            "Dynamics: per-epoch utility / handovers / churn / effort (U={}, {} epochs)",
            config.params.num_users, config.epochs
        ),
        vec![
            "mobility".into(),
            "scheduler".into(),
            "avg utility".into(),
            "handovers/epoch".into(),
            "reassignments/epoch".into(),
            "avg proposals".into(),
        ],
    );

    for (label, mut mobility) in [
        ("pedestrian", MobilityConfig::pedestrian()),
        ("vehicular", MobilityConfig::vehicular()),
    ] {
        // Epochs are seconds apart: shadowing does not decorrelate on
        // that timescale, so hold it fixed and let the moving path loss
        // drive the channel dynamics. This is also the regime where an
        // incremental refresh is meaningful at all.
        mobility.redraw_shadowing = false;
        // Full TSAJS re-solve each epoch.
        let mut sim = DynamicSimulation::new(config.params, mobility, config.seed)?;
        let ttsa = config.ttsa;
        let history = sim.run(config.epochs, move |seed| {
            Box::new(TsajsSolver::new(ttsa.with_seed(seed))) as Box<dyn Solver>
        })?;
        summarize(label, "TSAJS (full)", &history, &mut table);

        // Incremental refresh.
        let mut sim = DynamicSimulation::new(config.params, mobility, config.seed)?;
        let history = sim.run_ttsa(
            config.epochs,
            config.ttsa,
            ResolveMode::warm(config.refresh_budget),
        )?;
        summarize(label, "TSAJS (incremental)", &history, &mut table);

        // Greedy reference.
        let mut sim = DynamicSimulation::new(config.params, mobility, config.seed)?;
        let history = sim.run(config.epochs, |_| {
            Box::new(mec_baselines::GreedySolver::new()) as Box<dyn Solver>
        })?;
        summarize(label, "Greedy", &history, &mut table);
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> StudyConfig {
        StudyConfig {
            params: ExperimentParams::paper_default()
                .with_users(8)
                .with_servers(3),
            epochs: 4,
            seed: 1,
            ttsa: TtsaConfig::paper_default().with_min_temperature(1e-2),
            refresh_budget: 90,
        }
    }

    #[test]
    fn study_produces_six_rows() {
        let tables = run(&quick()).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 6, "2 mobility × 3 schedulers");
        assert_eq!(tables[0].headers.len(), 6);
    }

    #[test]
    fn incremental_spends_less_effort_than_full() {
        let tables = run(&quick()).unwrap();
        let effort = |scheduler: &str, mobility: &str| -> f64 {
            tables[0]
                .rows
                .iter()
                .find(|r| r[0] == mobility && r[1] == scheduler)
                .map(|r| r[5].parse().unwrap())
                .unwrap()
        };
        for mobility in ["pedestrian", "vehicular"] {
            assert!(
                effort("TSAJS (incremental)", mobility) < effort("TSAJS (full)", mobility),
                "incremental should be cheaper under {mobility}"
            );
        }
    }
}
