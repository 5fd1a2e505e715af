//! Mobility study (extension, not a paper figure): TSAJS full re-solve vs
//! incremental refresh vs Greedy, under pedestrian and vehicular mobility.
//! Each row runs one static population through `mec_online::OnlineEngine`.
//! Pass `--full` for more epochs.

use mec_online::{OnlineConfig, OnlineEngine, OnlineEpochReport};
use mec_system::Solver;
use mec_types::Error;
use mec_workloads::{ExperimentParams, SampleStats, Table};
use tsajs::{ResolveMode, TsajsSolver, TtsaConfig};

/// Configuration of the dynamics study.
#[derive(Debug, Clone)]
struct StudyConfig {
    /// Network parameters.
    params: ExperimentParams,
    /// Scheduling epochs per case.
    epochs: usize,
    /// Simulation seed.
    seed: u64,
    /// TTSA schedule used by the solvers.
    ttsa: TtsaConfig,
    /// Proposal budget of the incremental refresh.
    refresh_budget: u64,
}

impl StudyConfig {
    /// Defaults: U = 30 on the paper network, 20 epochs, quick schedule.
    fn default_study() -> Self {
        Self {
            params: ExperimentParams::paper_default().with_users(30),
            epochs: 20,
            seed: 17,
            ttsa: TtsaConfig::paper_default().with_min_temperature(1e-3),
            refresh_budget: 300,
        }
    }
}

/// Runs one static population for `config.epochs` epochs, re-solved by
/// `make_solver` or, without one, by the engine's configured mode.
fn episode(
    config: &StudyConfig,
    online: OnlineConfig,
    make_solver: Option<&dyn Fn(u64) -> Box<dyn Solver>>,
) -> Result<Vec<OnlineEpochReport>, Error> {
    let mut engine = OnlineEngine::with_static_population(config.params, online, config.seed)?;
    (0..config.epochs)
        .map(|_| match make_solver {
            Some(make_solver) => engine.step_with_solver(make_solver),
            None => engine.step(),
        })
        .collect()
}

fn summarize(label: &str, scheme: &str, reports: &[OnlineEpochReport], table: &mut Table) {
    let stats = |values: Vec<f64>| SampleStats::from_sample(&values);
    // Handovers and reassignments need a previous epoch.
    let later = &reports[1..];
    table.push_row(vec![
        label.into(),
        scheme.into(),
        stats(reports.iter().map(|r| r.utility).collect()).display(3),
        stats(later.iter().map(|r| r.handovers as f64).collect()).display(2),
        stats(later.iter().map(|r| r.reassignments as f64).collect()).display(2),
        format!(
            "{:.0}",
            stats(reports.iter().map(|r| r.proposals as f64).collect()).mean
        ),
    ]);
}

/// Runs the dynamics study: TSAJS vs Greedy under pedestrian and
/// vehicular mobility, plus full-resolve vs incremental-refresh TSAJS.
fn run(config: &StudyConfig) -> Result<Vec<Table>, Error> {
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

    let ttsa = config.ttsa;
    let tsajs =
        move |seed: u64| Box::new(TsajsSolver::new(ttsa.with_seed(seed))) as Box<dyn Solver>;
    let greedy = |_: u64| Box::new(mec_baselines::GreedySolver::new()) as Box<dyn Solver>;
    for (label, mut mobility) in [
        ("pedestrian", OnlineConfig::pedestrian()),
        ("vehicular", OnlineConfig::vehicular()),
    ] {
        // Epochs are seconds apart: shadowing does not decorrelate on
        // that timescale, so hold it fixed and let the moving path loss
        // drive the channel dynamics. This is also the regime where an
        // incremental refresh is meaningful at all.
        mobility.redraw_shadowing = false;
        let full = episode(config, mobility, Some(&tsajs))?;
        summarize(label, "TSAJS (full)", &full, &mut table);

        let refresh = mobility
            .with_base(config.ttsa)
            .with_mode(ResolveMode::warm(config.refresh_budget));
        let incremental = episode(config, refresh, None)?;
        summarize(label, "TSAJS (incremental)", &incremental, &mut table);

        let reference = episode(config, mobility, Some(&greedy))?;
        summarize(label, "Greedy", &reference, &mut table);
    }
    Ok(vec![table])
}

fn main() {
    let preset = mec_bench::preset_from_args();
    let mut config = StudyConfig::default_study();
    config.epochs = if preset.is_full() { 40 } else { 10 };
    let tables = run(&config).expect("study failed");
    mec_bench::emit(&tables, "dynamics", preset).expect("failed to write results");
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
