//! An hJTORA-style heuristic (after Tran & Pompili, IEEE TVT 2019,
//! reference \[37\] of the paper).
//!
//! The original hJTORA alternates exact resource allocation with an
//! exhaustive *single-user adjustment* search: starting from a feasible
//! decision, it repeatedly scores every admissible one-user change —
//! admitting a local user to any free slot, relocating an offloaded user,
//! or removing one — under the optimal allocation, and applies the best
//! strictly-improving adjustment until none exists (steepest ascent).
//!
//! This reproduces the properties the paper measures against it: solution
//! quality slightly below TSAJS (it stops at the first local optimum of
//! the adjustment neighborhood), and a runtime that grows markedly with
//! the number of subchannels because every round scans `O(U·S·N)`
//! candidates (Fig. 8).

use mec_system::{
    Assignment, IncrementalObjective, MoveDesc, Scenario, Solution, Solver, SolverStats,
};
use mec_types::{Error, SubchannelId};
use std::time::Instant;

/// The hJTORA-style steepest-ascent baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct HJtoraSolver;

impl HJtoraSolver {
    /// Cap on improvement rounds (each round applies one adjustment, so
    /// this also caps the number of offloading changes).
    pub const DEFAULT_MAX_ROUNDS: u64 = 10_000;

    /// How much an adjustment must raise the objective to count as an
    /// improvement.
    const IMPROVEMENT_TOLERANCE: f64 = 1e-12;

    /// Creates the solver.
    pub fn new() -> Self {
        Self
    }

    /// All candidate single-user adjustments plus pairwise swaps.
    fn candidate_moves(scenario: &Scenario, x: &Assignment) -> Vec<Move> {
        let mut moves = Vec::new();
        for u in scenario.user_ids() {
            let current = x.slot(u);
            // Removal (only for offloaded users).
            if current.is_some() {
                moves.push(Move::Relocate {
                    user: u,
                    target: None,
                });
            }
            // Admission / relocation to every free slot.
            for s in scenario.server_ids() {
                for j in 0..scenario.num_subchannels() {
                    let j = SubchannelId::new(j);
                    if x.occupant(s, j).is_none() && current != Some((s, j)) {
                        moves.push(Move::Relocate {
                            user: u,
                            target: Some((s, j)),
                        });
                    }
                }
            }
        }
        // Pairwise swaps where at least one side is offloaded (two locals
        // swapping is a no-op). This is the "interference-aware exchange"
        // adjustment of the original heuristic.
        for a in scenario.user_ids() {
            for b in scenario.user_ids().skip(a.index() + 1) {
                if (x.is_offloaded(a) || x.is_offloaded(b)) && x.slot(a) != x.slot(b) {
                    moves.push(Move::Swap { a, b });
                }
            }
        }
        moves
    }
}

#[derive(Debug, Clone, Copy)]
enum Move {
    /// Move `user` to `target` (`None` = back to local execution).
    Relocate {
        user: mec_types::UserId,
        target: Option<(mec_types::ServerId, SubchannelId)>,
    },
    /// Exchange the slots of users `a` and `b`.
    Swap {
        a: mec_types::UserId,
        b: mec_types::UserId,
    },
}

impl Move {
    /// Lowers the adjustment to the primitive-op language of the
    /// incremental evaluator, against the decision it will be applied to.
    fn to_desc(self, x: &Assignment) -> MoveDesc {
        match self {
            Move::Relocate { user, target } => MoveDesc::relocate(x, user, target),
            Move::Swap { a, b } => MoveDesc::swap(x, a, b),
        }
    }
}

impl Solver for HJtoraSolver {
    fn name(&self) -> &str {
        "hJTORA"
    }

    fn solve(&mut self, scenario: &Scenario) -> Result<Solution, Error> {
        let start = Instant::now();
        let mut evals: u64 = 0;
        let mut rounds: u64 = 0;

        // Multi-start steepest ascent: once from the empty decision and
        // once from a strongest-signal fill (the original heuristic begins
        // from the full request set and prunes). Keep the better optimum.
        let mut best: Option<(Assignment, f64)> = None;
        for init in [
            Assignment::all_local(scenario),
            strongest_signal_fill(scenario),
        ] {
            let (x, obj) = self.ascend(scenario, init, &mut evals, &mut rounds)?;
            if best.as_ref().is_none_or(|(_, b)| obj > *b) {
                best = Some((x, obj));
            }
        }
        let (assignment, utility) = best.expect("at least one start ran");

        Ok(Solution {
            assignment,
            utility,
            stats: SolverStats {
                objective_evaluations: evals,
                iterations: rounds,
                elapsed: start.elapsed(),
            },
        })
    }
}

/// Fills every station to its subchannel limit, strongest signal first
/// (the same admission order as the Greedy baseline) — the "all requests
/// admitted" starting point the original hJTORA prunes from.
fn strongest_signal_fill(scenario: &Scenario) -> Assignment {
    let gains = scenario.gains();
    let j0 = SubchannelId::new(0);
    let mut order: Vec<_> = scenario.user_ids().collect();
    order.sort_by(|a, b| {
        let ga = gains.gain(*a, gains.best_server(*a), j0);
        let gb = gains.gain(*b, gains.best_server(*b), j0);
        gb.partial_cmp(&ga).expect("gains are finite")
    });
    let mut x = Assignment::all_local(scenario);
    for u in order {
        let mut stations: Vec<_> = scenario.server_ids().collect();
        stations.sort_by(|a, b| {
            gains
                .gain(u, *b, j0)
                .partial_cmp(&gains.gain(u, *a, j0))
                .expect("gains are finite")
        });
        for s in stations {
            if let Some(j) = x.free_subchannel(s) {
                x.assign(u, s, j).expect("slot reported free");
                break;
            }
        }
    }
    x
}

impl HJtoraSolver {
    /// Steepest ascent from `x` until no adjustment improves; returns the
    /// local optimum and its objective.
    ///
    /// Every candidate is scored against persistent
    /// [`IncrementalObjective`] state
    /// ([`score`](IncrementalObjective::score) equals the apply-path
    /// arithmetic bit for bit and leaves the state as it found it), so a
    /// round costs `O(candidates · S)`. The state is re-synchronized
    /// after each applied adjustment, which bounds drift to a single
    /// round.
    fn ascend(
        &self,
        scenario: &Scenario,
        x: Assignment,
        evals: &mut u64,
        rounds: &mut u64,
    ) -> Result<(Assignment, f64), Error> {
        let mut inc = IncrementalObjective::new(scenario, x)?;
        let mut best_obj = inc.current();
        *evals += 1;
        while *rounds < Self::DEFAULT_MAX_ROUNDS {
            let mut best_move: Option<(MoveDesc, f64)> = None;
            for mv in Self::candidate_moves(scenario, inc.assignment()) {
                let desc = mv.to_desc(inc.assignment());
                let obj = inc.score(&desc);
                *evals += 1;
                if obj > best_obj + Self::IMPROVEMENT_TOLERANCE
                    && best_move.is_none_or(|(_, prev)| obj > prev)
                {
                    best_move = Some((desc, obj));
                }
            }
            match best_move {
                Some((desc, obj)) => {
                    inc.apply(&desc);
                    inc.commit();
                    inc.resync();
                    best_obj = obj;
                    *rounds += 1;
                }
                None => break, // Local optimum of the adjustment neighborhood.
            }
        }
        Ok((inc.into_assignment(), best_obj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::UserSpec;
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_scenario(users: usize, servers: usize, subs: usize, gain: f64) -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subs).unwrap(),
            ChannelGains::uniform(users, servers, subs, gain).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    fn random_scenario(seed: u64, users: usize, servers: usize, subs: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = ChannelGains::from_fn(users, servers, subs, |_, _, _| {
            10.0_f64.powf(rng.gen_range(-12.0..-9.0))
        })
        .unwrap();
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subs).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap()
    }

    #[test]
    fn finds_positive_utility_and_stays_feasible() {
        let sc = uniform_scenario(5, 2, 2, 1e-10);
        let solution = HJtoraSolver::new().solve(&sc).unwrap();
        assert!(solution.utility > 0.0);
        solution.assignment.verify_feasible(&sc).unwrap();
    }

    #[test]
    fn keeps_all_local_on_terrible_channels() {
        let sc = uniform_scenario(3, 2, 2, 1e-17);
        let solution = HJtoraSolver::new().solve(&sc).unwrap();
        assert_eq!(solution.assignment.num_offloaded(), 0);
        assert_eq!(solution.utility, 0.0);
    }

    #[test]
    fn close_to_exhaustive_on_small_instances() {
        for seed in 0..5 {
            let sc = random_scenario(seed, 4, 2, 2);
            let opt = ExhaustiveSolver::new().solve(&sc).unwrap();
            let h = HJtoraSolver::new().solve(&sc).unwrap();
            assert!(
                h.utility <= opt.utility + 1e-9,
                "heuristic can't beat the optimum"
            );
            assert!(
                h.utility >= 0.90 * opt.utility,
                "seed {seed}: hJTORA {} too far below optimum {}",
                h.utility,
                opt.utility
            );
        }
    }

    #[test]
    fn is_deterministic() {
        let sc = random_scenario(9, 6, 3, 2);
        let a = HJtoraSolver::new().solve(&sc).unwrap();
        let b = HJtoraSolver::new().solve(&sc).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.utility, b.utility);
    }

    #[test]
    fn evaluation_count_scales_with_subchannels() {
        // The defining cost behavior behind Fig. 8: more subchannels →
        // more candidates per round → more evaluations.
        let small = uniform_scenario(4, 2, 2, 1e-10);
        let large = uniform_scenario(4, 2, 6, 1e-10);
        let a = HJtoraSolver::new().solve(&small).unwrap();
        let b = HJtoraSolver::new().solve(&large).unwrap();
        assert!(b.stats.objective_evaluations > a.stats.objective_evaluations);
    }
}
