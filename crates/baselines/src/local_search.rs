//! First-improvement hill climbing (the *LocalSearch* baseline).

use mec_system::{Assignment, IncrementalObjective, Scenario, Solution, Solver, SolverStats};
use mec_types::Error;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
// LocalSearch deliberately reuses TSAJS's neighborhood kernel so the only
// experimental difference between the two schemes is the acceptance rule
// (greedy vs Metropolis-with-threshold-cooling).
use tsajs::NeighborhoodKernel;

/// The LocalSearch baseline (§V): *"continuously search for neighboring
/// states of the current state …, accept better neighboring states to
/// gradually improve the quality of the solution; stop when the algorithm
/// converges or reaches the maximum number of iterations."*
///
/// Uses the same move kernel as TSAJS but only ever accepts improvements,
/// so it converges quickly to the nearest local optimum.
#[derive(Debug, Clone)]
pub struct LocalSearchSolver {
    rng: StdRng,
}

impl LocalSearchSolver {
    /// Proposal budget.
    pub const DEFAULT_MAX_ITERATIONS: u64 = 20_000;
    /// Convergence patience (consecutive non-improving proposals).
    pub const DEFAULT_PATIENCE: u64 = 1_500;

    /// Proposals between full re-synchronizations of the incremental
    /// objective state (bounds floating-point drift; see
    /// [`IncrementalObjective::resync`]).
    const RESYNC_INTERVAL: u64 = 4_096;

    /// Creates the solver with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Solver for LocalSearchSolver {
    fn name(&self) -> &str {
        "LocalSearch"
    }

    fn solve(&mut self, scenario: &Scenario) -> Result<Solution, Error> {
        let start = Instant::now();
        let kernel = NeighborhoodKernel::new();

        // Delta-evaluation hot loop: propose a compact move and score it
        // against the maintained sums; only an accepted move is applied
        // and committed, and a rejected one (the vast majority once the
        // climb stalls) leaves the state as it found it. Draw order and
        // trajectory match the historical apply/undo loop bit for bit.
        let mut inc = IncrementalObjective::new(scenario, Assignment::all_local(scenario))?;
        let mut current_obj = 0.0;
        let mut evals: u64 = 0;
        let mut stale: u64 = 0;
        let mut iterations: u64 = 0;

        while iterations < Self::DEFAULT_MAX_ITERATIONS && stale < Self::DEFAULT_PATIENCE {
            let (mv, _) = kernel.propose_move(scenario, inc.assignment(), &mut self.rng);
            let obj = inc.score(&mv);
            evals += 1;
            iterations += 1;
            if obj > current_obj {
                inc.apply(&mv);
                inc.commit();
                current_obj = obj;
                stale = 0;
            } else {
                stale += 1;
            }
            if iterations.is_multiple_of(Self::RESYNC_INTERVAL) {
                inc.resync();
                current_obj = inc.current();
            }
        }

        Ok(Solution {
            assignment: inc.into_assignment(),
            utility: current_obj,
            stats: SolverStats {
                objective_evaluations: evals,
                iterations,
                elapsed: start.elapsed(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::UserSpec;
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};

    fn scenario(users: usize, gain: f64) -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            ChannelGains::uniform(users, 2, 2, gain).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    #[test]
    fn improves_over_all_local_on_good_channels() {
        let sc = scenario(4, 1e-10);
        let solution = LocalSearchSolver::with_seed(0).solve(&sc).unwrap();
        assert!(solution.utility > 0.0);
        solution.assignment.verify_feasible(&sc).unwrap();
    }

    #[test]
    fn never_goes_below_the_starting_point() {
        let sc = scenario(3, 1e-17);
        let solution = LocalSearchSolver::with_seed(1).solve(&sc).unwrap();
        // Starting at all-local (0.0) and only accepting improvements, the
        // result can never be negative.
        assert!(solution.utility >= 0.0);
    }

    #[test]
    fn stops_early_when_stale() {
        let sc = scenario(2, 1e-10);
        let solution = LocalSearchSolver::with_seed(3).solve(&sc).unwrap();
        assert!(solution.stats.iterations < LocalSearchSolver::DEFAULT_MAX_ITERATIONS);
    }

    #[test]
    fn deterministic_under_seed() {
        let sc = scenario(5, 1e-10);
        let a = LocalSearchSolver::with_seed(7).solve(&sc).unwrap();
        let b = LocalSearchSolver::with_seed(7).solve(&sc).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.utility, b.utility);
    }
}
