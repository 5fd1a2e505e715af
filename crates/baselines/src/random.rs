//! Best-of-k random feasible decisions.

use mec_system::{Assignment, Evaluator, Scenario, Solution, Solver, SolverStats};
use mec_types::{Error, ServerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Samples [`RandomSolver::DEFAULT_ATTEMPTS`] random feasible decisions
/// and keeps the best (the all-local decision is always included, so the
/// result is never worse than 0).
///
/// Not one of the paper's baselines — included as a sanity floor for
/// tests and benches: any serious solver must beat it.
#[derive(Debug, Clone)]
pub struct RandomSolver {
    rng: StdRng,
}

impl RandomSolver {
    /// Number of random decisions sampled.
    pub const DEFAULT_ATTEMPTS: u64 = 100;

    /// Probability that a sampled decision tries to offload a user.
    const OFFLOAD_PROBABILITY: f64 = 0.5;

    /// Creates the solver with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples one random feasible decision.
    fn sample(&mut self, scenario: &Scenario) -> Assignment {
        let mut x = Assignment::all_local(scenario);
        for u in scenario.user_ids() {
            if self.rng.gen_bool(Self::OFFLOAD_PROBABILITY) {
                let s = ServerId::new(self.rng.gen_range(0..scenario.num_servers()));
                if let Some(j) = x.free_subchannel(s) {
                    x.assign(u, s, j).expect("slot reported free");
                }
            }
        }
        x
    }
}

impl Solver for RandomSolver {
    fn name(&self) -> &str {
        "Random"
    }

    fn solve(&mut self, scenario: &Scenario) -> Result<Solution, Error> {
        let start = Instant::now();
        let evaluator = Evaluator::new(scenario);
        let mut best = Assignment::all_local(scenario);
        let mut best_obj = 0.0;
        for _ in 0..Self::DEFAULT_ATTEMPTS {
            let x = self.sample(scenario);
            let obj = evaluator.objective(&x);
            if obj > best_obj {
                best = x;
                best_obj = obj;
            }
        }
        Ok(Solution {
            assignment: best,
            utility: best_obj,
            stats: SolverStats {
                objective_evaluations: Self::DEFAULT_ATTEMPTS,
                iterations: Self::DEFAULT_ATTEMPTS,
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

    fn scenario(gain: f64) -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); 4],
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            ChannelGains::uniform(4, 2, 2, gain).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    #[test]
    fn never_negative() {
        let sc = scenario(1e-17);
        let solution = RandomSolver::with_seed(0).solve(&sc).unwrap();
        assert_eq!(solution.utility, 0.0);
        assert_eq!(solution.assignment.num_offloaded(), 0);
    }

    #[test]
    fn finds_something_positive_on_good_channels() {
        let sc = scenario(1e-10);
        let solution = RandomSolver::with_seed(1).solve(&sc).unwrap();
        assert!(solution.utility > 0.0);
        solution.assignment.verify_feasible(&sc).unwrap();
    }

    #[test]
    fn attempts_are_counted() {
        let sc = scenario(1e-10);
        let solution = RandomSolver::with_seed(2).solve(&sc).unwrap();
        assert_eq!(
            solution.stats.objective_evaluations,
            RandomSolver::DEFAULT_ATTEMPTS
        );
    }
}
