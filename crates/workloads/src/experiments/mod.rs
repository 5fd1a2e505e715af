//! Per-figure experiment drivers.
//!
//! Each `figN` module regenerates the data behind the corresponding figure
//! of the paper's evaluation. Every driver follows the same pattern: a
//! `*Config` struct holding the sweep values (defaulting to the paper's),
//! a `run(&config)` function returning [`Table`](crate::Table)s, and a `paper(preset)`
//! convenience wrapper.

pub mod ablation;
pub mod bound_gap;
pub mod convergence;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hotspot;
pub mod priority;

use crate::params::Preset;
use crate::runner::TrialOutcome;
use crate::stats::SampleStats;
use crate::{run_trials, ScenarioGenerator};
use mec_baselines::{ExhaustiveSolver, GreedySolver, HJtoraSolver, LocalSearchSolver};
use mec_system::Solver;
use mec_types::Error;
use tsajs::{TsajsSolver, TtsaConfig};

/// The schemes compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// TSAJS with a given epoch length `L` (the paper uses 10, 30, 50).
    Tsajs {
        /// Proposals per temperature epoch.
        inner_iterations: usize,
    },
    /// Exhaustive search (global optimum; small networks only).
    Exhaustive,
    /// The hJTORA-style heuristic.
    HJtora,
    /// First-improvement local search.
    LocalSearch,
    /// Strongest-signal greedy offloading.
    Greedy,
}

impl Scheme {
    /// TSAJS with the paper's default `L = 30`.
    pub const TSAJS: Scheme = Scheme::Tsajs {
        inner_iterations: 30,
    };

    /// The four-scheme lineup of Figs. 4–8 (TSAJS, hJTORA, LocalSearch,
    /// Greedy) with the given TSAJS epoch length.
    pub fn lineup(inner_iterations: usize) -> Vec<Scheme> {
        vec![
            Scheme::Tsajs { inner_iterations },
            Scheme::HJtora,
            Scheme::LocalSearch,
            Scheme::Greedy,
        ]
    }

    /// Display name used as a table column header.
    pub fn name(&self) -> String {
        match self {
            Scheme::Tsajs { .. } => "TSAJS".into(),
            Scheme::Exhaustive => "Exhaustive".into(),
            Scheme::HJtora => "hJTORA".into(),
            Scheme::LocalSearch => "LocalSearch".into(),
            Scheme::Greedy => "Greedy".into(),
        }
    }

    /// Builds a fresh solver instance for one trial.
    pub fn build(&self, preset: Preset, seed: u64) -> Box<dyn Solver> {
        match *self {
            Scheme::Tsajs { inner_iterations } => Box::new(TsajsSolver::new(
                TtsaConfig::paper_default()
                    .with_inner_iterations(inner_iterations)
                    .with_min_temperature(preset.ttsa_min_temperature)
                    .with_seed(seed),
            )),
            Scheme::Exhaustive => Box::new(ExhaustiveSolver::new()),
            Scheme::HJtora => Box::new(HJtoraSolver::new()),
            Scheme::LocalSearch => Box::new(LocalSearchSolver::with_seed(seed)),
            Scheme::Greedy => Box::new(GreedySolver::new()),
        }
    }
}

/// Aggregated results of one (scheme, configuration) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Per-trial outcomes, in seed order.
    pub outcomes: Vec<TrialOutcome>,
}

impl CellResult {
    /// Mean ± CI of the achieved system utility.
    pub fn utility(&self) -> SampleStats {
        SampleStats::from_sample(&self.samples(|o| o.utility))
    }

    /// Mean ± CI of the solver wall-clock time in milliseconds.
    pub fn time_ms(&self) -> SampleStats {
        SampleStats::from_sample(&self.samples(|o| o.elapsed.as_secs_f64() * 1e3))
    }

    /// Mean ± CI of the all-user average energy (J).
    pub fn average_energy(&self) -> SampleStats {
        SampleStats::from_sample(&self.samples(|o| o.evaluation.average_energy().as_joules()))
    }

    /// Mean ± CI of the all-user average completion delay (s).
    pub fn average_delay(&self) -> SampleStats {
        SampleStats::from_sample(
            &self.samples(|o| o.evaluation.average_completion_time().as_secs()),
        )
    }

    fn samples<F: Fn(&TrialOutcome) -> f64>(&self, f: F) -> Vec<f64> {
        self.outcomes.iter().map(f).collect()
    }
}

/// Runs `trials` Monte-Carlo trials of `scheme` on scenarios drawn from
/// `generator`, starting at `base_seed`.
///
/// # Errors
///
/// Propagates scenario-generation and solver errors.
pub fn run_cell(
    generator: &ScenarioGenerator,
    scheme: Scheme,
    preset: Preset,
    trials: usize,
    base_seed: u64,
) -> Result<CellResult, Error> {
    let outcomes = run_trials(generator, trials, base_seed, |seed| {
        scheme.build(preset, seed)
    })?;
    Ok(CellResult { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExperimentParams;

    #[test]
    fn scheme_names_match_the_paper() {
        assert_eq!(Scheme::TSAJS.name(), "TSAJS");
        assert_eq!(Scheme::Exhaustive.name(), "Exhaustive");
        assert_eq!(Scheme::HJtora.name(), "hJTORA");
        assert_eq!(Scheme::LocalSearch.name(), "LocalSearch");
        assert_eq!(Scheme::Greedy.name(), "Greedy");
    }

    #[test]
    fn lineup_is_the_four_figure_schemes() {
        let lineup = Scheme::lineup(10);
        assert_eq!(lineup.len(), 4);
        assert_eq!(
            lineup[0],
            Scheme::Tsajs {
                inner_iterations: 10
            }
        );
    }

    #[test]
    fn run_cell_aggregates_trials() {
        let generator = ScenarioGenerator::new(ExperimentParams::small_network());
        let cell = run_cell(&generator, Scheme::Greedy, Preset::Quick, 3, 0).unwrap();
        assert_eq!(cell.outcomes.len(), 3);
        let u = cell.utility();
        assert_eq!(u.n, 3);
        assert!(u.mean.is_finite());
        assert!(cell.time_ms().mean >= 0.0);
        assert!(cell.average_energy().mean > 0.0);
        assert!(cell.average_delay().mean > 0.0);
    }

    #[test]
    fn tsajs_scheme_builds_with_preset_schedule() {
        // Quick preset → truncated schedule; solver still produces valid
        // solutions on a small scenario.
        let generator = ScenarioGenerator::new(ExperimentParams::small_network());
        let cell = run_cell(&generator, Scheme::TSAJS, Preset::Quick, 2, 5).unwrap();
        for o in &cell.outcomes {
            assert!(o.utility >= 0.0);
        }
    }
}
