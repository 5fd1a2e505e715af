//! Exhaustive (brute-force) search — the global optimum.

use mec_system::{Assignment, EvalScratch, Evaluator, Scenario, Solution, Solver, SolverStats};
use mec_types::threads::fan_out;
use mec_types::{effective_parallelism, Error, SubchannelId, UserId};
use std::time::Instant;

/// Enumerates every feasible offloading decision and returns the best.
///
/// The search walks users in id order; each user either stays local or
/// takes one currently-free `(server, subchannel)` slot, so only feasible
/// decisions (constraints 12b–12d) are ever visited. The number of leaves
/// is at most `(S·N + 1)^U`; a guard refuses instances whose upper bound
/// exceeds [`ExhaustiveSolver::DEFAULT_MAX_LEAVES`], because this
/// method is meant for the confined networks of Fig. 3 (`U=6, S=4, N=2` ⇒
/// ≤ 9⁶ ≈ 5.3·10⁵ leaves).
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveSolver {
    parallel: bool,
    threads: Option<usize>,
}

impl ExhaustiveSolver {
    /// The guard: 5·10⁷ leaf evaluations.
    pub const DEFAULT_MAX_LEAVES: f64 = 5.0e7;

    /// Creates the solver (parallel search on).
    pub fn new() -> Self {
        Self {
            parallel: true,
            threads: None,
        }
    }

    /// Disables the branch-parallel search (single-threaded DFS). The
    /// result is identical either way; parallel mode splits the first
    /// user's branches across threads.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Caps the worker threads of the branch-parallel search. Without an
    /// explicit cap, `TSAJS_THREADS` and then the hardware parallelism
    /// decide (see [`mec_types::effective_parallelism`]). Thread count
    /// never affects the result.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Upper bound on the number of leaves for a scenario.
    pub fn leaf_bound(scenario: &Scenario) -> f64 {
        let options = (scenario.num_servers() * scenario.num_subchannels() + 1) as f64;
        options.powi(scenario.num_users() as i32)
    }
}

impl Default for ExhaustiveSolver {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-user slot key for the lexicographic tie order: local execution is
/// the smallest option (`0`), and slot `(s, j)` maps to `1 + s·N + j` —
/// exactly the order in which the DFS enumerates options.
fn slot_key(x: &Assignment, user_index: usize) -> usize {
    match x.slot(UserId::new(user_index)) {
        None => 0,
        Some((s, j)) => 1 + s.index() * x.num_subchannels() + j.index(),
    }
}

/// `true` if `a` precedes `b` in the lexicographic order over per-user
/// slot keys. Ties in objective value break toward the smaller
/// assignment, which makes the search result independent of thread count
/// and branch-completion order.
fn lex_smaller(a: &Assignment, b: &Assignment) -> bool {
    debug_assert_eq!(a.num_users(), b.num_users());
    for u in 0..a.num_users() {
        let (ka, kb) = (slot_key(a, u), slot_key(b, u));
        if ka != kb {
            return ka < kb;
        }
    }
    false
}

struct Search<'a> {
    scenario: &'a Scenario,
    evaluator: Evaluator<'a>,
    scratch: EvalScratch,
    current: Assignment,
    best: Assignment,
    best_obj: f64,
    leaves: u64,
}

impl Search<'_> {
    fn recurse(&mut self, user_index: usize) {
        if user_index == self.scenario.num_users() {
            self.leaves += 1;
            let obj = self
                .evaluator
                .objective_with(&self.current, &mut self.scratch);
            if obj > self.best_obj
                || (obj == self.best_obj && lex_smaller(&self.current, &self.best))
            {
                self.best_obj = obj;
                self.best = self.current.clone();
            }
            return;
        }
        let user = UserId::new(user_index);

        // Option 1: local execution.
        self.recurse(user_index + 1);

        // Option 2: every currently-free slot.
        for s in self.scenario.server_ids() {
            for j in 0..self.scenario.num_subchannels() {
                let j = SubchannelId::new(j);
                if self.current.occupant(s, j).is_none() {
                    self.current.assign(user, s, j).expect("slot checked free");
                    self.recurse(user_index + 1);
                    self.current.release(user);
                }
            }
        }
    }
}

impl Solver for ExhaustiveSolver {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn solve(&mut self, scenario: &Scenario) -> Result<Solution, Error> {
        let bound = Self::leaf_bound(scenario);
        if bound > Self::DEFAULT_MAX_LEAVES {
            return Err(Error::UnsupportedScenario(format!(
                "exhaustive search bound {bound:.2e} exceeds the {:.2e} guard \
                 (U={}, S={}, N={})",
                Self::DEFAULT_MAX_LEAVES,
                scenario.num_users(),
                scenario.num_servers(),
                scenario.num_subchannels()
            )));
        }
        let start = Instant::now();
        let (best, best_obj, leaves) = if self.parallel && scenario.num_users() > 1 {
            solve_parallel(scenario, self.threads)
        } else {
            let all_local = Assignment::all_local(scenario);
            let mut search = Search {
                scenario,
                evaluator: Evaluator::new(scenario),
                scratch: EvalScratch::default(),
                current: all_local.clone(),
                best: all_local,
                best_obj: 0.0, // X = 0 scores exactly 0.
                leaves: 0,
            };
            search.recurse(0);
            (search.best, search.best_obj, search.leaves)
        };
        Ok(Solution {
            assignment: best,
            utility: best_obj,
            stats: SolverStats {
                objective_evaluations: leaves,
                iterations: leaves,
                elapsed: start.elapsed(),
            },
        })
    }
}

/// Splits the first user's options (local + every slot) across worker
/// threads with [`fan_out`], each branch running the sequential DFS over
/// the remaining users.
/// Branch results are folded in branch order, breaking objective ties
/// toward the lexicographically smallest assignment, so the outcome is
/// bit-identical to the sequential search at any thread count.
fn solve_parallel(scenario: &Scenario, threads: Option<usize>) -> (Assignment, f64, u64) {
    let first = UserId::new(0);
    // Branch 0 = user 0 local; branches 1.. = user 0 on each slot.
    let mut branches = vec![None];
    for s in scenario.server_ids() {
        for j in 0..scenario.num_subchannels() {
            branches.push(Some((s, SubchannelId::new(j))));
        }
    }

    let results = fan_out(effective_parallelism(threads), branches, |branch| {
        let mut current = Assignment::all_local(scenario);
        if let Some((s, j)) = branch {
            current
                .assign(first, s, j)
                .expect("slot is free in a fresh X");
        }
        let mut search = Search {
            scenario,
            evaluator: Evaluator::new(scenario),
            scratch: EvalScratch::default(),
            best: current.clone(),
            current,
            best_obj: f64::NEG_INFINITY,
            leaves: 0,
        };
        search.recurse(1);
        (search.best, search.best_obj, search.leaves)
    });

    // Fold in branch order; start from the all-local reference of 0.0 just
    // like the sequential path.
    let mut best = Assignment::all_local(scenario);
    let mut best_obj = 0.0;
    let mut leaves = 0;
    for (b, obj, n) in results {
        leaves += n;
        if obj > best_obj || (obj == best_obj && lex_smaller(&b, &best)) {
            best = b;
            best_obj = obj;
        }
    }
    (best, best_obj, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::UserSpec;
    use mec_types::{Cycles, Hertz, ServerId, ServerProfile, Watts};
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
    fn leaf_count_matches_closed_form_when_slots_exceed_users() {
        // With K = S·N slots and U users, the exact leaf count is
        // Σ_m C(U, m) · P(K, m) for m offloaded users.
        let sc = uniform_scenario(2, 2, 1, 1e-10);
        let solution = ExhaustiveSolver::new().solve(&sc).unwrap();
        // U=2, K=2: m=0 → 1, m=1 → 2·2=4, m=2 → 1·2·1·... C(2,2)·P(2,2)=2.
        assert_eq!(solution.stats.objective_evaluations, 1 + 4 + 2);
    }

    #[test]
    fn finds_the_obvious_optimum() {
        // One user, good channel: the optimum offloads it.
        let sc = uniform_scenario(1, 2, 2, 1e-10);
        let solution = ExhaustiveSolver::new().solve(&sc).unwrap();
        assert_eq!(solution.assignment.num_offloaded(), 1);
        assert!(solution.utility > 0.0);
    }

    #[test]
    fn all_local_wins_on_terrible_channels() {
        let sc = uniform_scenario(3, 2, 2, 1e-17);
        let solution = ExhaustiveSolver::new().solve(&sc).unwrap();
        assert_eq!(solution.assignment.num_offloaded(), 0);
        assert_eq!(solution.utility, 0.0);
    }

    #[test]
    fn beats_or_ties_every_random_feasible_decision() {
        let sc = random_scenario(1, 4, 2, 2);
        let opt = ExhaustiveSolver::new().solve(&sc).unwrap();
        let ev = Evaluator::new(&sc);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let mut x = Assignment::all_local(&sc);
            for u in sc.user_ids() {
                if rng.gen_bool(0.6) {
                    let s = ServerId::new(rng.gen_range(0..sc.num_servers()));
                    if let Some(j) = x.free_subchannel(s) {
                        x.assign(u, s, j).unwrap();
                    }
                }
            }
            assert!(ev.objective(&x) <= opt.utility + 1e-12);
        }
    }

    #[test]
    fn separable_case_matches_independent_optimum() {
        // One user per cell on orthogonal subchannels is optimal when
        // channels are clean and capacity abundant; the optimum for 2
        // users, 2 servers, 2 subchannels must use different subchannels
        // (and different servers) to dodge interference.
        let sc = uniform_scenario(2, 2, 2, 1e-10);
        let solution = ExhaustiveSolver::new().solve(&sc).unwrap();
        let slots: Vec<_> = solution.assignment.offloaded().collect();
        assert_eq!(slots.len(), 2);
        assert_ne!(
            slots[0].2, slots[1].2,
            "optimal decisions avoid co-channel interference"
        );
    }

    #[test]
    fn size_guard_refuses_large_instances() {
        let sc = uniform_scenario(10, 4, 3, 1e-10);
        // 13^10 ≈ 1.4e11 > the guard.
        let result = ExhaustiveSolver::new().solve(&sc);
        assert!(matches!(result, Err(Error::UnsupportedScenario(_))));
        assert!(ExhaustiveSolver::leaf_bound(&sc) > ExhaustiveSolver::DEFAULT_MAX_LEAVES);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // 3 servers × 2 subchannels give 7 first-user branches, so 16
        // workers is more workers than branches.
        for seed in 0..3 {
            let sc = random_scenario(seed, 5, 3, 2);
            let seq = ExhaustiveSolver::new().sequential().solve(&sc).unwrap();
            let widths = [
                ExhaustiveSolver::new(),
                ExhaustiveSolver::new().with_threads(1),
                ExhaustiveSolver::new().with_threads(2),
                ExhaustiveSolver::new().with_threads(3),
                ExhaustiveSolver::new().with_threads(16),
            ];
            for mut solver in widths {
                let par = solver.solve(&sc).unwrap();
                assert_eq!(par.assignment, seq.assignment, "seed {seed} {solver:?}");
                assert_eq!(par.utility, seq.utility);
                assert_eq!(
                    par.stats.objective_evaluations,
                    seq.stats.objective_evaluations
                );
            }
        }
    }

    #[test]
    fn ties_break_toward_the_lexicographically_smallest_assignment() {
        // A single user over uniform gains and identical servers scores
        // the same on every slot — a genuine 4-way tie. The winner must
        // be the lexicographically smallest option, slot (s0, j0), in
        // both search modes.
        let sc = uniform_scenario(1, 2, 2, 1e-10);
        let ev = Evaluator::new(&sc);
        let u = UserId::new(0);
        let best = ExhaustiveSolver::new().solve(&sc).unwrap();
        for s in 0..2 {
            for j in 0..2 {
                let mut x = Assignment::all_local(&sc);
                x.assign(u, ServerId::new(s), SubchannelId::new(j)).unwrap();
                assert_eq!(
                    ev.objective(&x),
                    best.utility,
                    "every slot of (s{s}, j{j}) must tie for this test to bite"
                );
            }
        }
        for mut solver in [
            ExhaustiveSolver::new(),
            ExhaustiveSolver::new().sequential(),
        ] {
            let solution = solver.solve(&sc).unwrap();
            assert_eq!(
                solution.assignment.slot(u),
                Some((ServerId::new(0), SubchannelId::new(0))),
                "ties must break toward the lexicographically smallest slot"
            );
        }
    }

    #[test]
    fn lex_order_ranks_local_before_any_slot_and_slots_by_server_then_channel() {
        let sc = uniform_scenario(2, 2, 2, 1e-10);
        let local = Assignment::all_local(&sc);
        let mut s0j1 = local.clone();
        s0j1.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(1))
            .unwrap();
        let mut s1j0 = local.clone();
        s1j0.assign(UserId::new(0), ServerId::new(1), SubchannelId::new(0))
            .unwrap();
        assert!(lex_smaller(&local, &s0j1));
        assert!(lex_smaller(&s0j1, &s1j0));
        assert!(!lex_smaller(&s1j0, &s0j1));
        assert!(!lex_smaller(&local, &local));
        // Earlier users dominate the comparison.
        let mut u1_off = local.clone();
        u1_off
            .assign(UserId::new(1), ServerId::new(1), SubchannelId::new(1))
            .unwrap();
        assert!(lex_smaller(&u1_off, &s0j1));
    }

    #[test]
    fn fig3_sized_instance_completes() {
        // U=6, S=4, N=2 — the paper's Fig. 3 configuration.
        let sc = random_scenario(5, 6, 4, 2);
        let solution = ExhaustiveSolver::new().solve(&sc).unwrap();
        assert!(solution.utility >= 0.0);
        assert!(solution.stats.objective_evaluations > 0);
        solution.assignment.verify_feasible(&sc).unwrap();
    }
}
