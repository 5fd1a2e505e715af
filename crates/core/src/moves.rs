//! The neighborhood move kernel (Algorithm 2, *GetNeighborhood*).
//!
//! Given the current decision `X_old`, the kernel picks one random user and
//! applies one of four mutations, with the paper's probability split:
//!
//! | branch | probability | effect |
//! |---|---|---|
//! | move to another server | 55 % (`0.20 < r < 0.75`) | re-attach to a different server, preferring a free subchannel |
//! | change subchannel | 25 % (`r ≥ 0.75`, needs `N > 1`) | keep the server, switch subchannel |
//! | swap with another user | 15 % (`0.05 < r ≤ 0.20`) | exchange two users' slots |
//! | toggle offloading | 5 % (`r ≤ 0.05`) | flip between local and offloaded |
//!
//! Interpretation choices for under-specified cases are documented in
//! DESIGN.md §2: a *local* target user is assigned rather than moved, and
//! "allocate one randomly if none are free" evicts the previous occupant
//! to local execution so constraint (12d) can never be violated.

use mec_system::{Assignment, MoveDesc, Scenario};
use mec_types::{ServerId, SubchannelId, UserId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which mutation a proposal applied (for diagnostics and mix ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MoveKind {
    /// Re-attach the user to a different server.
    MoveServer,
    /// Switch subchannel on the same server.
    ChangeSubchannel,
    /// Exchange slots with another user.
    Swap,
    /// Flip between local execution and offloading.
    Toggle,
}

/// The branch probabilities of Algorithm 2, expressed as the cumulative
/// thresholds the paper draws against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoveMix {
    /// `r ≤ toggle_below` → toggle (paper: 0.05).
    pub toggle_below: f64,
    /// `toggle_below < r ≤ swap_below` → swap (paper: 0.20).
    pub swap_below: f64,
    /// `swap_below < r < move_server_below` → move server;
    /// `r ≥ move_server_below` → change subchannel (paper: 0.75).
    pub move_server_below: f64,
}

impl MoveMix {
    /// The paper's 5/15/55/25 split.
    pub fn paper_default() -> Self {
        Self {
            toggle_below: 0.05,
            swap_below: 0.20,
            move_server_below: 0.75,
        }
    }

    /// A uniform mix over the four move kinds (ablation).
    pub fn uniform() -> Self {
        Self {
            toggle_below: 0.25,
            swap_below: 0.50,
            move_server_below: 0.75,
        }
    }
}

impl Default for MoveMix {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A reusable neighborhood generator bound to a move mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborhoodKernel {
    mix: MoveMix,
}

impl NeighborhoodKernel {
    /// Creates a kernel with the paper's move mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a kernel with a custom mix.
    pub fn with_mix(mix: MoveMix) -> Self {
        Self { mix }
    }

    /// The configured mix.
    pub fn mix(&self) -> MoveMix {
        self.mix
    }

    /// Produces a neighbor of `current` (Algorithm 2). Returns the mutated
    /// copy and the move kind applied.
    ///
    /// Every returned assignment is feasible by construction. This is the
    /// cloning convenience wrapper over [`propose_move`]; search hot loops
    /// use `propose_move` directly with an
    /// [`IncrementalObjective`](mec_system::IncrementalObjective) so a
    /// proposal costs neither a clone nor a full re-evaluation. Both paths
    /// consume the identical RNG stream.
    ///
    /// [`propose_move`]: Self::propose_move
    pub fn propose<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        current: &Assignment,
        rng: &mut R,
    ) -> (Assignment, MoveKind) {
        let (mv, kind) = self.propose_move(scenario, current, rng);
        let mut next = current.clone();
        mv.apply_to(&mut next)
            .expect("proposed moves are feasible against the decision they were built for");
        (next, kind)
    }

    /// In-place variant of [`propose`](Self::propose): draws the same move
    /// from the same RNG stream but returns it as a compact [`MoveDesc`]
    /// (at most four primitive assign/release ops) instead of a mutated
    /// clone of `current`.
    pub fn propose_move<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        current: &Assignment,
        rng: &mut R,
    ) -> (MoveDesc, MoveKind) {
        let user = UserId::new(rng.gen_range(0..scenario.num_users()));
        let r: f64 = rng.gen();

        if r > self.mix.swap_below {
            if r < self.mix.move_server_below || scenario.num_subchannels() == 1 {
                (
                    self.move_server(scenario, current, user, rng),
                    MoveKind::MoveServer,
                )
            } else {
                (
                    self.change_subchannel(scenario, current, user, rng),
                    MoveKind::ChangeSubchannel,
                )
            }
        } else if r > self.mix.toggle_below {
            let other = self.pick_other_user(scenario, user, rng);
            (MoveDesc::swap(current, user, other), MoveKind::Swap)
        } else {
            (self.toggle(scenario, current, user, rng), MoveKind::Toggle)
        }
    }

    fn pick_other_user<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        user: UserId,
        rng: &mut R,
    ) -> UserId {
        if scenario.num_users() == 1 {
            return user; // Swap degenerates to a no-op.
        }
        loop {
            let other = UserId::new(rng.gen_range(0..scenario.num_users()));
            if other != user {
                return other;
            }
        }
    }

    /// Attach `user` to `(server, j)` where `j` is a free subchannel if one
    /// exists, otherwise a uniformly random one whose occupant gets evicted
    /// to local execution.
    ///
    /// Draw-compatible with the historical cloning implementation: the
    /// free-slot pick is `gen_range(0..free_count)` and the eviction pick
    /// is the same rejection loop, so seeded runs are unchanged.
    fn attach<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        x: &Assignment,
        user: UserId,
        server: ServerId,
        exclude: Option<SubchannelId>,
        rng: &mut R,
    ) -> MoveDesc {
        let is_free = |j: SubchannelId| x.occupant(server, j).is_none() && exclude != Some(j);
        let free_count = (0..scenario.num_subchannels())
            .map(SubchannelId::new)
            .filter(|j| is_free(*j))
            .count();
        let j = if free_count == 0 {
            // "Allocate one randomly if none are free" — pick any (except
            // the excluded one) and evict its occupant.
            loop {
                let j = SubchannelId::new(rng.gen_range(0..scenario.num_subchannels()));
                if exclude != Some(j) {
                    break j;
                }
            }
        } else {
            let pick = rng.gen_range(0..free_count);
            (0..scenario.num_subchannels())
                .map(SubchannelId::new)
                .filter(|j| is_free(*j))
                .nth(pick)
                .expect("pick is below the free count")
        };
        MoveDesc::relocate_evicting(x, user, server, j)
    }

    fn move_server<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        x: &Assignment,
        user: UserId,
        rng: &mut R,
    ) -> MoveDesc {
        let current_server = x.slot(user).map(|(s, _)| s);
        if scenario.num_servers() == 1 && current_server.is_some() {
            // No "other" server exists; fall back to a subchannel change so
            // the proposal still explores.
            return self.change_subchannel(scenario, x, user, rng);
        }
        let target = loop {
            let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
            if Some(s) != current_server || scenario.num_servers() == 1 {
                break s;
            }
        };
        self.attach(scenario, x, user, target, None, rng)
    }

    fn change_subchannel<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        x: &Assignment,
        user: UserId,
        rng: &mut R,
    ) -> MoveDesc {
        match x.slot(user) {
            Some((s, j)) => {
                if scenario.num_subchannels() > 1 {
                    self.attach(scenario, x, user, s, Some(j), rng)
                } else {
                    // K == 1: Algorithm 2 leaves X unchanged.
                    MoveDesc::noop()
                }
            }
            None => {
                // Local target user: interpret as "start offloading" to a
                // random server (DESIGN.md interpretation note 1).
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                self.attach(scenario, x, user, s, None, rng)
            }
        }
    }

    fn toggle<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        x: &Assignment,
        user: UserId,
        rng: &mut R,
    ) -> MoveDesc {
        if x.is_offloaded(user) {
            MoveDesc::relocate(x, user, None)
        } else {
            let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
            self.attach(scenario, x, user, s, None, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::UserSpec;
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn scenario(users: usize, servers: usize, subchannels: usize) -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
            ChannelGains::uniform(users, servers, subchannels, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    #[test]
    fn proposals_are_always_feasible() {
        let sc = scenario(6, 3, 2);
        let kernel = NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut x = Assignment::all_local(&sc);
        for _ in 0..2000 {
            let (next, _) = kernel.propose(&sc, &x, &mut rng);
            next.verify_feasible(&sc)
                .expect("kernel emitted infeasible X");
            x = next;
        }
    }

    #[test]
    fn move_mix_matches_configured_probabilities() {
        let sc = scenario(8, 3, 3);
        let kernel = NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(1);
        // Start from a populated assignment so all branches are real moves.
        let mut x = Assignment::all_local(&sc);
        for u in 0..6 {
            let s = ServerId::new(u % 3);
            let j = x.free_subchannel(s).unwrap();
            x.assign(UserId::new(u), s, j).unwrap();
        }
        let mut counts: HashMap<MoveKind, usize> = HashMap::new();
        let trials = 40_000;
        for _ in 0..trials {
            let (_, kind) = kernel.propose(&sc, &x, &mut rng);
            *counts.entry(kind).or_default() += 1;
        }
        let frac = |k: MoveKind| *counts.get(&k).unwrap_or(&0) as f64 / trials as f64;
        assert!((frac(MoveKind::MoveServer) - 0.55).abs() < 0.02);
        assert!((frac(MoveKind::ChangeSubchannel) - 0.25).abs() < 0.02);
        assert!((frac(MoveKind::Swap) - 0.15).abs() < 0.02);
        assert!((frac(MoveKind::Toggle) - 0.05).abs() < 0.01);
    }

    #[test]
    fn single_subchannel_redirects_change_to_move() {
        let sc = scenario(4, 2, 1);
        let kernel = NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Assignment::all_local(&sc);
        for _ in 0..2000 {
            let (next, kind) = kernel.propose(&sc, &x, &mut rng);
            assert_ne!(kind, MoveKind::ChangeSubchannel, "K=1 forbids it");
            next.verify_feasible(&sc).unwrap();
        }
    }

    #[test]
    fn single_server_single_user_degenerate_cases_stay_feasible() {
        let sc = scenario(1, 1, 1);
        let kernel = NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Assignment::all_local(&sc);
        for _ in 0..500 {
            let (next, _) = kernel.propose(&sc, &x, &mut rng);
            next.verify_feasible(&sc).unwrap();
            x = next;
        }
    }

    #[test]
    fn toggle_flips_offloading_state() {
        let sc = scenario(1, 2, 2);
        // Force the toggle branch with a mix that always toggles.
        let kernel = NeighborhoodKernel::with_mix(MoveMix {
            toggle_below: 1.1,
            swap_below: 1.2,
            move_server_below: 1.3,
        });
        let mut rng = StdRng::seed_from_u64(4);
        let x = Assignment::all_local(&sc);
        let (next, kind) = kernel.propose(&sc, &x, &mut rng);
        assert_eq!(kind, MoveKind::Toggle);
        assert!(next.is_offloaded(UserId::new(0)), "local user toggles on");
        let (back, _) = kernel.propose(&sc, &next, &mut rng);
        assert!(
            !back.is_offloaded(UserId::new(0)),
            "offloaded user toggles off"
        );
    }

    #[test]
    fn full_server_forces_eviction_not_violation() {
        // 3 users, 1 server with a single subchannel: attaching a second
        // user must evict the first, never double-book.
        let sc = scenario(3, 1, 1);
        let kernel = NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = Assignment::all_local(&sc);
        x.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
            .unwrap();
        let mut saw_eviction = false;
        for _ in 0..500 {
            let (next, _) = kernel.propose(&sc, &x, &mut rng);
            next.verify_feasible(&sc).unwrap();
            if next.num_offloaded() == 1
                && next.occupant(ServerId::new(0), SubchannelId::new(0))
                    != x.occupant(ServerId::new(0), SubchannelId::new(0))
                && next
                    .occupant(ServerId::new(0), SubchannelId::new(0))
                    .is_some()
                && x.occupant(ServerId::new(0), SubchannelId::new(0)).is_some()
            {
                saw_eviction = true;
            }
            x = next;
        }
        assert!(saw_eviction, "eviction path was never exercised");
    }

    #[test]
    fn proposals_never_mutate_the_input() {
        let sc = scenario(5, 2, 2);
        let kernel = NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mut x = Assignment::all_local(&sc);
        x.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
            .unwrap();
        let snapshot = x.clone();
        for _ in 0..200 {
            let _ = kernel.propose(&sc, &x, &mut rng);
            assert_eq!(x, snapshot);
        }
    }
}
