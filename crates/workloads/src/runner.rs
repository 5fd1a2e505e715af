//! Multi-trial, thread-parallel solver execution.

use crate::generator::ScenarioGenerator;
use mec_system::{Solver, SystemEvaluation};
use mec_types::threads::fan_out;
use mec_types::{effective_parallelism, Error};
use std::time::Duration;

/// What one (scenario realization, solver) trial produced.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// The trial's seed (also its index offset from the base seed).
    pub seed: u64,
    /// The solver's achieved system utility `J*(X)`.
    pub utility: f64,
    /// Wall-clock time the solver spent.
    pub elapsed: Duration,
    /// Objective evaluations the solver performed.
    pub objective_evaluations: u64,
    /// The full per-user evaluation of the returned decision.
    pub evaluation: SystemEvaluation,
}

/// Runs `trials` independent Monte-Carlo trials of one solver family.
///
/// Trial `i` generates the scenario with seed `base_seed + i` and solves
/// it with a fresh solver built by `make_solver(base_seed + i)` — so
/// results are reproducible regardless of how trials are scheduled over
/// threads. Trials run in parallel through [`fan_out`] on up to
/// [`effective_parallelism`] workers (`TSAJS_THREADS` caps the pool),
/// each worker claiming the next trial as soon as it finishes one.
///
/// # Errors
///
/// Returns the first error in trial order (scenario generation or solver
/// failure).
pub fn run_trials<F>(
    generator: &ScenarioGenerator,
    trials: usize,
    base_seed: u64,
    make_solver: F,
) -> Result<Vec<TrialOutcome>, Error>
where
    F: Fn(u64) -> Box<dyn Solver> + Sync,
{
    let seeds: Vec<u64> = (0..trials as u64).map(|i| base_seed + i).collect();
    fan_out(effective_parallelism(None), seeds, |seed| {
        run_one(generator, seed, &make_solver)
    })
    .into_iter()
    .collect()
}

fn run_one<F>(
    generator: &ScenarioGenerator,
    seed: u64,
    make_solver: &F,
) -> Result<TrialOutcome, Error>
where
    F: Fn(u64) -> Box<dyn Solver> + Sync,
{
    let scenario = generator.generate(seed)?;
    let mut solver = make_solver(seed);
    let solution = solver.solve(&scenario)?;
    let evaluation = solution.evaluate(&scenario)?;
    Ok(TrialOutcome {
        seed,
        utility: solution.utility,
        elapsed: solution.stats.elapsed,
        objective_evaluations: solution.stats.objective_evaluations,
        evaluation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExperimentParams;
    use mec_baselines::{GreedySolver, RandomSolver};

    fn generator() -> ScenarioGenerator {
        ScenarioGenerator::new(ExperimentParams::small_network())
    }

    #[test]
    fn runs_the_requested_number_of_trials() {
        let outcomes = run_trials(&generator(), 5, 100, |_| Box::new(GreedySolver::new())).unwrap();
        assert_eq!(outcomes.len(), 5);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.seed, 100 + i as u64);
            assert!(o.utility.is_finite());
        }
    }

    #[test]
    fn deterministic_solvers_reproduce_across_runs() {
        let a = run_trials(&generator(), 4, 7, |_| Box::new(GreedySolver::new())).unwrap();
        let b = run_trials(&generator(), 4, 7, |_| Box::new(GreedySolver::new())).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.utility, y.utility);
        }
    }

    #[test]
    fn seeded_stochastic_solvers_reproduce_too() {
        let mk = |seed: u64| -> Box<dyn Solver> { Box::new(RandomSolver::with_seed(seed)) };
        let a = run_trials(&generator(), 4, 11, mk).unwrap();
        let b = run_trials(&generator(), 4, 11, mk).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.utility, y.utility);
        }
    }

    #[test]
    fn different_seeds_vary_outcomes() {
        let outcomes = run_trials(&generator(), 6, 0, |_| Box::new(GreedySolver::new())).unwrap();
        let first = outcomes[0].utility;
        assert!(
            outcomes.iter().any(|o| (o.utility - first).abs() > 1e-12),
            "all trials identical — shadowing/placement is not varying"
        );
    }

    #[test]
    fn zero_trials_is_empty() {
        let outcomes = run_trials(&generator(), 0, 0, |_| Box::new(GreedySolver::new())).unwrap();
        assert!(outcomes.is_empty());
    }

    #[test]
    fn evaluations_are_attached() {
        let outcomes = run_trials(&generator(), 2, 3, |_| Box::new(GreedySolver::new())).unwrap();
        for o in &outcomes {
            assert_eq!(o.evaluation.users.len(), 6);
            assert!((o.evaluation.system_utility - o.utility).abs() < 1e-9);
        }
    }
}
