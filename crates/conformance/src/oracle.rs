//! The invariant oracle: model-level checks any `(Scenario, Assignment)`
//! pair must satisfy, independent of which solver produced the decision.
//!
//! Four families of invariants, each traceable to the paper:
//!
//! * **Feasibility** — constraints 12b–12d (one slot per user, one user
//!   per slot), re-counted independently of `Assignment`'s own
//!   bookkeeping.
//! * **KKT allocation** — the closed-form CRA optimum of Eq. 22
//!   (`f*_us = f_s·√η_u / Σ_v √η_v`), its capacity exhaustion, and the
//!   agreement of Λ (Eq. 23) with the direct cost `Σ η_u / f*_us`.
//! * **Per-user benefit bounds** — Eq. 10: local users score exactly 0,
//!   offloaded users stay below `β_t + β_e`, and the weighted sum of
//!   per-user benefits reproduces both `SystemEvaluation::system_utility`
//!   and the closed-form `Evaluator::objective`.
//! * **Incremental agreement** — after arbitrary apply/undo/commit
//!   sequences, [`IncrementalObjective`] must agree with a fresh
//!   [`Evaluator`] to within the configured tolerance, and undo must be
//!   bit-exact.
//! * **Move-bound dominance** — the log2-free bound the search loops
//!   gate pricing on ([`IncrementalObjective::bound`]) never falls below
//!   the exact change a move prices at (Eqs. 3, 23, 24), so the gate can
//!   only ever skip rejections.
//! * **Null-move identity** — the empty move the TTSA step settles
//!   without pricing changes neither the decision nor the objective, so
//!   settling it can change neither the incumbent nor the best.

use crate::fuzz;
use mec_radio::ChannelGains;
use mec_system::{
    kkt_allocation, optimal_lambda_cost, Assignment, Evaluator, IncrementalObjective, MoveDesc,
    Scenario,
};
use mec_types::{ServerId, SubchannelId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsajs::shard::{descent, DESCENT_IMPROVEMENT_FLOOR};

/// The oracle's tolerance knob. All residuals are relative (normalized
/// by the magnitude of the quantity under test, floored at 1).
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    /// Maximum relative residual accepted by every check.
    pub tolerance: f64,
}

impl Default for Oracle {
    fn default() -> Self {
        Self { tolerance: 1e-9 }
    }
}

fn rel(actual: f64, expected: f64) -> f64 {
    (actual - expected).abs() / expected.abs().max(1.0)
}

impl Oracle {
    /// An oracle with an explicit tolerance.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self { tolerance }
    }

    /// Constraints 12b–12d, re-counted from scratch: every user holds at
    /// most one slot, every slot at most one user, and the assignment's
    /// forward (`slot`) and reverse (`occupant`) tables agree.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn check_feasibility(&self, scenario: &Scenario, x: &Assignment) -> Result<f64, String> {
        x.verify_feasible(scenario)
            .map_err(|e| format!("verify_feasible rejected the assignment: {e}"))?;
        let mut occupied = 0usize;
        for s in scenario.server_ids() {
            for j in 0..scenario.num_subchannels() {
                let j = mec_types::SubchannelId::new(j);
                if let Some(u) = x.occupant(s, j) {
                    occupied += 1;
                    if x.slot(u) != Some((s, j)) {
                        return Err(format!(
                            "occupant table says {u} holds ({s}, {j}) but slot({u}) disagrees"
                        ));
                    }
                }
            }
        }
        let offloaded = scenario.user_ids().filter(|&u| x.is_offloaded(u)).count();
        if occupied != offloaded {
            return Err(format!(
                "{offloaded} users claim slots but {occupied} slots are occupied \
                 (constraints 12c/12d)"
            ));
        }
        if offloaded != x.num_offloaded() {
            return Err(format!(
                "num_offloaded() caches {} but {offloaded} users are offloaded",
                x.num_offloaded()
            ));
        }
        Ok(0.0)
    }

    /// The KKT allocation of Eq. 22: square-root shares, exact capacity
    /// exhaustion on every loaded server, constraint 12e/12f feasibility,
    /// and Λ (Eq. 23) equal to the direct cost `Σ η_u / f*_us`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first residual above tolerance.
    pub fn check_kkt(&self, scenario: &Scenario, x: &Assignment) -> Result<f64, String> {
        let f = kkt_allocation(scenario, x);
        f.verify(scenario, x)
            .map_err(|e| format!("KKT allocation violates 12e/12f: {e}"))?;
        let mut worst = 0.0f64;
        let mut direct_cost = 0.0f64;
        for s in scenario.server_ids() {
            if x.server_users_iter(s).next().is_none() {
                continue;
            }
            let capacity = scenario.server(s).capacity().as_hz();
            let denom: f64 = x
                .server_users_iter(s)
                .map(|u| scenario.coefficients(u).eta.sqrt())
                .sum();
            let mut load = 0.0f64;
            for u in x.server_users_iter(s) {
                let share = f.share(u).as_hz();
                load += share;
                let eta = scenario.coefficients(u).eta;
                if denom > 0.0 {
                    // f*_us · Σ√η must equal f_s · √η_u (Eq. 22).
                    let residual = rel(share * denom, capacity * eta.sqrt());
                    worst = worst.max(residual);
                    if residual > self.tolerance {
                        return Err(format!(
                            "Eq. 22 residual {residual:.3e} for {u} on {s} \
                             (share {share:.6e} Hz)"
                        ));
                    }
                }
                if eta > 0.0 {
                    direct_cost += eta / share;
                }
            }
            // The optimal split exhausts the server (Σ f*_us = f_s).
            let residual = rel(load, capacity);
            worst = worst.max(residual);
            if residual > self.tolerance {
                return Err(format!(
                    "{s} hands out {load:.6e} of {capacity:.6e} Hz \
                     (capacity-exhaustion residual {residual:.3e})"
                ));
            }
        }
        // Closed-form Λ (Eq. 23) against the direct per-user cost.
        let lambda = optimal_lambda_cost(scenario, x);
        let residual = rel(direct_cost, lambda);
        worst = worst.max(residual);
        if residual > self.tolerance {
            return Err(format!(
                "Λ (Eq. 23) = {lambda:.6e} but Σ η/f* = {direct_cost:.6e} \
                 (residual {residual:.3e})"
            ));
        }
        Ok(worst)
    }

    /// Per-user benefit bounds (Eq. 10) and objective consistency: local
    /// users score exactly 0 at their local cost, offloaded users stay
    /// below `β_t + β_e`, the reported benefit matches its recomputation
    /// from the reported times/energies, and `Σ λ_u J_u` reproduces both
    /// the evaluation's `system_utility` and `Evaluator::objective`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound or residual.
    pub fn check_user_bounds(&self, scenario: &Scenario, x: &Assignment) -> Result<f64, String> {
        let evaluator = Evaluator::new(scenario);
        let eval = evaluator
            .evaluate(x)
            .map_err(|e| format!("evaluate failed: {e}"))?;
        let mut worst = 0.0f64;
        let mut weighted_sum = 0.0f64;
        for u in scenario.user_ids() {
            let m = &eval.users[u.index()];
            let spec = scenario.user(u);
            let local = scenario.local_cost(u);
            if m.offloaded != x.is_offloaded(u) {
                return Err(format!(
                    "{u}: metrics and assignment disagree on offloading"
                ));
            }
            if m.offloaded {
                let bound = spec.preferences.beta_time() + spec.preferences.beta_energy();
                if !m.utility.is_finite() || m.utility >= bound {
                    return Err(format!(
                        "{u}: J_u = {} outside (-inf, {bound}) (Eq. 10)",
                        m.utility
                    ));
                }
                // Recompute Eq. 10 from the reported times and energies.
                let expected = spec.preferences.beta_time()
                    * (local.time.as_secs() - m.completion_time.as_secs())
                    / local.time.as_secs()
                    + spec.preferences.beta_energy()
                        * (local.energy.as_joules() - m.energy.as_joules())
                        / local.energy.as_joules();
                let residual = rel(m.utility, expected);
                worst = worst.max(residual);
                if residual > self.tolerance {
                    return Err(format!(
                        "{u}: reported J_u = {} but Eq. 10 over the reported \
                         metrics gives {expected} (residual {residual:.3e})",
                        m.utility
                    ));
                }
            } else {
                if m.utility != 0.0 {
                    return Err(format!("{u}: local user scored J_u = {} ≠ 0", m.utility));
                }
                if m.completion_time != local.time || m.energy != local.energy {
                    return Err(format!("{u}: local metrics differ from the local cost"));
                }
            }
            weighted_sum += spec.lambda.value() * m.utility;
        }
        // Σ λ_u J_u = system utility (Eq. 11) = closed-form J*(X) (Eq. 24).
        let residual = rel(eval.system_utility, weighted_sum);
        worst = worst.max(residual);
        if residual > self.tolerance {
            return Err(format!(
                "system_utility = {} but Σ λ_u J_u = {weighted_sum} (residual {residual:.3e})",
                eval.system_utility
            ));
        }
        let closed_form = evaluator.objective(x);
        let residual = rel(closed_form, eval.system_utility);
        worst = worst.max(residual);
        if residual > self.tolerance {
            return Err(format!(
                "closed-form J*(X) = {closed_form} but the direct evaluation \
                 gives {} (residual {residual:.3e})",
                eval.system_utility
            ));
        }
        Ok(worst)
    }

    /// Drives [`IncrementalObjective`] through `moves` random
    /// apply/undo/commit steps against a shadow assignment, checking that
    /// undo is bit-exact, that the maintained objective tracks a fresh
    /// [`Evaluator`] within tolerance, and that a final `resync` lands on
    /// the same value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence, tagged with the
    /// step at which it appeared.
    pub fn check_incremental_walk(
        &self,
        scenario: &Scenario,
        seed: u64,
        moves: usize,
    ) -> Result<f64, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = fuzz::assignment(scenario, 0.7, seed ^ 0x9e37_79b9_7f4a_7c15);
        let evaluator = Evaluator::new(scenario);
        let mut inc = IncrementalObjective::new(scenario, start.clone())
            .map_err(|e| format!("incremental state rejected a feasible start: {e}"))?;
        let mut shadow = start;
        let mut worst = 0.0f64;
        for step in 0..moves {
            let mv = fuzz::random_move(inc.assignment(), scenario, &mut rng);
            let before = inc.current();
            let _ = inc.apply(&mv);
            if rng.gen_bool(0.5) {
                inc.undo();
                let after = inc.current();
                if after != before {
                    return Err(format!(
                        "step {step}: undo is not bit-exact ({before} became {after})"
                    ));
                }
            } else {
                mv.apply_to(&mut shadow)
                    .map_err(|e| format!("step {step}: move no longer applies to shadow: {e}"))?;
                inc.commit();
            }
            if step % 16 == 15 {
                if inc.assignment() != &shadow {
                    return Err(format!(
                        "step {step}: incremental assignment drifted from the shadow"
                    ));
                }
                let fresh = evaluator.objective(inc.assignment());
                let residual = rel(inc.current(), fresh);
                worst = worst.max(residual);
                if residual > self.tolerance {
                    return Err(format!(
                        "step {step}: incremental objective {} vs fresh {fresh} \
                         (residual {residual:.3e})",
                        inc.current()
                    ));
                }
            }
        }
        if inc.assignment() != &shadow {
            return Err("final incremental assignment drifted from the shadow".into());
        }
        inc.resync();
        let fresh = evaluator.objective(inc.assignment());
        let residual = rel(inc.current(), fresh);
        worst = worst.max(residual);
        if residual > self.tolerance {
            return Err(format!(
                "after resync: incremental objective {} vs fresh {fresh} \
                 (residual {residual:.3e})",
                inc.current()
            ));
        }
        Ok(worst)
    }

    /// Soundness of the move bound the search loops gate pricing on. On
    /// the scenario — with a random halo (`external_rx`) installed on
    /// even seeds, as a shard cluster sees one — a walk of `moves`
    /// [`fuzz::random_move`] moves, then one full scan of the shard
    /// descent's neighborhood (every release, every slot take, every swap
    /// of two occupied slots), must price no move above its
    /// [`IncrementalObjective::bound`] (slot takes through
    /// [`IncrementalObjective::bound_take`]), and the descent's server
    /// gate ([`IncrementalObjective::settles_local_takes`]) must settle
    /// no local user's block of takes at a threshold below the block's
    /// largest bound. The gated [`descent`] then runs from that state:
    /// it must not lose objective and must count its bound-settled
    /// candidates within its spent budget. Finally the state with one
    /// user's links cut (a non-finite state) must bound every move at
    /// `+∞`, and its server gate must settle no block below that.
    ///
    /// The bound carries its own rounding slack, so there is no
    /// tolerance: a passing check reports a zero residual.
    ///
    /// # Errors
    ///
    /// Returns a description of the first move priced above its bound.
    pub fn check_move_bound(
        &self,
        scenario: &Scenario,
        seed: u64,
        moves: usize,
    ) -> Result<f64, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0_0d);
        let scenario = haloed_scenario(scenario, seed, &mut rng)?;
        let mut inc = fuzz_state(&scenario, seed)?;
        for step in 0..moves {
            let mv = fuzz::random_move(inc.assignment(), &scenario, &mut rng);
            bound_dominates(&mut inc, &mv).map_err(|e| format!("walk step {step}: {e}"))?;
            let _ = inc.apply(&mv);
            inc.commit();
        }

        let n = scenario.num_subchannels();
        let slots: Vec<(ServerId, SubchannelId)> = scenario
            .server_ids()
            .flat_map(|s| SubchannelId::all(n).map(move |j| (s, j)))
            .collect();
        for u in scenario.user_ids() {
            let from = inc.assignment().slot(u);
            if from.is_some() {
                let release = MoveDesc::relocate(inc.assignment(), u, None);
                bound_dominates(&mut inc, &release).map_err(|e| format!("scan: {e}"))?;
            }
            for &(s, j) in slots.iter().filter(|&&slot| from != Some(slot)) {
                let delta = inc.score_take(u, s, j) - inc.current();
                let bound = inc.bound_take(u, s, j);
                if bound < delta {
                    return Err(format!(
                        "scan: {u} taking ({s}, {j}) prices at {delta:e}, above its bound {bound:e}"
                    ));
                }
            }
            if from.is_none() {
                for s in scenario.server_ids() {
                    server_gate_is_sound(&mut inc, u, s).map_err(|e| format!("scan: {e}"))?;
                }
            }
        }
        for (p, &(s1, j1)) in slots.iter().enumerate() {
            for &(s2, j2) in &slots[p + 1..] {
                let occupants = (
                    inc.assignment().occupant(s1, j1),
                    inc.assignment().occupant(s2, j2),
                );
                if let (Some(a), Some(b)) = occupants {
                    let swap = MoveDesc::swap(inc.assignment(), a, b);
                    bound_dominates(&mut inc, &swap).map_err(|e| format!("scan: {e}"))?;
                }
            }
        }
        let before = inc.current();
        let outcome = descent(&mut inc, 100_000, DESCENT_IMPROVEMENT_FLOOR);
        if inc.current() < before || outcome.bounded > outcome.spent {
            return Err(format!(
                "gated descent went from {before} to {} with {} of {} candidates settled",
                inc.current(),
                outcome.bounded,
                outcome.spent
            ));
        }

        // On the cut-link state every move must bound at +∞, and the
        // server gate must settle no block below that.
        let (dead, x) = cut_link_state(&scenario, inc.assignment())?;
        let mut cut = non_finite_state(&dead, x)?;
        for u in dead.user_ids() {
            if cut.assignment().is_offloaded(u) {
                continue;
            }
            for s in dead.server_ids() {
                server_gate_is_sound(&mut cut, u, s).map_err(|e| format!("cut state: {e}"))?;
            }
        }
        for _ in 0..moves.min(16) {
            let mv = fuzz::random_move(cut.assignment(), &dead, &mut rng);
            let bound = cut.bound(&mv);
            if bound != f64::INFINITY {
                return Err(format!("non-finite state bounds {mv:?} at {bound}, not +∞"));
            }
        }
        Ok(0.0)
    }

    /// A null move never changes the incumbent or the best: the TTSA step
    /// settles the empty [`MoveDesc`] without pricing it, as an accepted
    /// move on a finite state. On the scenario — with a random halo
    /// (`external_rx`) installed on even seeds — at every state of a
    /// walk of `moves` [`fuzz::random_move`] moves, and then along a
    /// short walk from the state with one user's links cut (objective
    /// `−∞`), the empty move must bound at `+∞`, score exactly
    /// [`IncrementalObjective::current`] bit for bit, and leave the
    /// assignment and the objective bit for bit unchanged under `apply`
    /// + `commit`.
    ///
    /// Every comparison is exact, so a passing check reports a zero
    /// residual.
    ///
    /// # Errors
    ///
    /// Returns a description of the first state the empty move changed.
    pub fn check_null_move(
        &self,
        scenario: &Scenario,
        seed: u64,
        moves: usize,
    ) -> Result<f64, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x004e_5511);
        let scenario = haloed_scenario(scenario, seed, &mut rng)?;
        let mut inc = fuzz_state(&scenario, seed)?;
        for step in 0..moves {
            null_move_is_identity(&mut inc).map_err(|e| format!("walk step {step}: {e}"))?;
            let mv = fuzz::random_move(inc.assignment(), &scenario, &mut rng);
            let _ = inc.apply(&mv);
            inc.commit();
        }
        null_move_is_identity(&mut inc).map_err(|e| format!("walk end: {e}"))?;

        let (dead, x) = cut_link_state(&scenario, inc.assignment())?;
        let mut cut = non_finite_state(&dead, x)?;
        for step in 0..moves.min(16) {
            null_move_is_identity(&mut cut).map_err(|e| format!("cut-link step {step}: {e}"))?;
            let mv = fuzz::random_move(cut.assignment(), &dead, &mut rng);
            let _ = cut.apply(&mv);
            cut.commit();
        }
        Ok(0.0)
    }
}

/// `scenario` with a random halo (`external_rx`, drawn from `rng`)
/// installed on even seeds, as a shard cluster sees one.
fn haloed_scenario(scenario: &Scenario, seed: u64, rng: &mut StdRng) -> Result<Scenario, String> {
    let mut scenario = scenario.clone();
    if seed.is_multiple_of(2) {
        let ext = (0..scenario.num_subchannels() * scenario.num_servers())
            .map(|_| 10.0_f64.powf(rng.gen_range(-14.0..-10.0)))
            .collect();
        scenario
            .set_external_rx(Some(ext))
            .map_err(|e| format!("halo rejected: {e}"))?;
    }
    Ok(scenario)
}

/// The incremental state of the seed's fuzzed start on `scenario`.
fn fuzz_state(scenario: &Scenario, seed: u64) -> Result<IncrementalObjective<'_>, String> {
    let start = fuzz::assignment(scenario, 0.7, seed ^ 0x9e37_79b9_7f4a_7c15);
    IncrementalObjective::new(scenario, start)
        .map_err(|e| format!("incremental state rejected a feasible start: {e}"))
}

/// `scenario` with user 0's links cut, and `x` with user 0 offloaded
/// (to the first slot, evicting its occupant if it was local): a state
/// whose user 0 has a non-finite Γ term.
fn cut_link_state(scenario: &Scenario, x: &Assignment) -> Result<(Scenario, Assignment), String> {
    let dead = ChannelGains::from_fn(
        scenario.num_users(),
        scenario.num_servers(),
        scenario.num_subchannels(),
        |u, s, j| {
            if u.index() == 0 {
                0.0
            } else {
                scenario.gains().gain(u, s, j)
            }
        },
    )
    .and_then(|gains| {
        Scenario::new(
            scenario.users().to_vec(),
            scenario.servers().to_vec(),
            *scenario.ofdma(),
            gains,
            scenario.noise(),
        )
    })
    .map_err(|e| format!("cut-link scenario rejected: {e}"))?;
    let mut x = x.clone();
    if !x.is_offloaded(UserId::new(0)) {
        x.assign_evicting(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
            .map_err(|e| format!("offloading the cut user failed: {e}"))?;
    }
    Ok((dead, x))
}

/// The incremental state of a [`cut_link_state`], checked to score `−∞`.
fn non_finite_state(dead: &Scenario, x: Assignment) -> Result<IncrementalObjective<'_>, String> {
    let cut = IncrementalObjective::new(dead, x)
        .map_err(|e| format!("incremental state rejected the cut-link start: {e}"))?;
    if cut.current() == f64::NEG_INFINITY {
        Ok(cut)
    } else {
        Err(format!("cut-link state scores {}, not −∞", cut.current()))
    }
}

/// Checks that the empty move bounds at `+∞`, scores the current
/// objective bit for bit, and leaves the state unchanged when applied
/// and committed.
fn null_move_is_identity(inc: &mut IncrementalObjective<'_>) -> Result<(), String> {
    let noop = MoveDesc::noop();
    let before = inc.current();
    let x = inc.assignment().clone();
    let bound = inc.bound(&noop);
    if bound != f64::INFINITY {
        return Err(format!("the empty move bounds at {bound}, not +∞"));
    }
    let score = inc.score(&noop);
    if score.to_bits() != before.to_bits() {
        return Err(format!("the empty move scores {score}, not {before}"));
    }
    let _ = inc.apply(&noop);
    inc.commit();
    if inc.assignment() != &x {
        return Err("applying the empty move changed the assignment".into());
    }
    if inc.current().to_bits() != before.to_bits() {
        return Err(format!(
            "applying the empty move moved the objective from {before} to {}",
            inc.current()
        ));
    }
    Ok(())
}

/// Checks that the server gate of the shard descent settles no block of
/// the local `u`'s takes at `s` that the exact bounds do not: with `B`
/// the largest [`IncrementalObjective::bound_take`] over the server's
/// subchannels, [`IncrementalObjective::settles_local_takes`] must
/// answer `false` at the next float below `B`, and at `0.0` unless
/// `B ≤ 0`.
fn server_gate_is_sound(
    inc: &mut IncrementalObjective<'_>,
    u: UserId,
    s: ServerId,
) -> Result<(), String> {
    let largest = SubchannelId::all(inc.scenario().num_subchannels())
        .map(|j| inc.bound_take(u, s, j))
        .fold(f64::NEG_INFINITY, f64::max);
    for threshold in [largest.next_down(), 0.0] {
        if threshold < largest && inc.settles_local_takes(u, s, threshold) {
            return Err(format!(
                "the server gate settles {u}'s takes at {s} at {threshold:e}, \
                 below their largest bound {largest:e}"
            ));
        }
    }
    Ok(())
}

/// Checks `bound(mv) ≥ score(mv) − current()` on a finite state (the
/// fuzzed scenarios have no dead links, so every walked state is
/// finite).
fn bound_dominates(inc: &mut IncrementalObjective<'_>, mv: &MoveDesc) -> Result<(), String> {
    let delta = inc.score(mv) - inc.current();
    let bound = inc.bound(mv);
    if bound >= delta {
        Ok(())
    } else {
        Err(format!(
            "{mv:?} prices at {delta:e}, above its bound {bound:e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FuzzConfig;

    #[test]
    fn fuzzed_pairs_pass_every_static_check() {
        let oracle = Oracle::default();
        let cfg = FuzzConfig::smoke();
        for seed in 0..30 {
            let sc = fuzz::scenario(&cfg, seed);
            let x = fuzz::assignment(&sc, cfg.offload_probability, seed);
            oracle.check_feasibility(&sc, &x).unwrap();
            oracle.check_kkt(&sc, &x).unwrap();
            oracle.check_user_bounds(&sc, &x).unwrap();
        }
    }

    #[test]
    fn incremental_walks_agree_with_fresh_evaluation() {
        let oracle = Oracle::default();
        let cfg = FuzzConfig::smoke();
        for seed in 0..10 {
            let sc = fuzz::scenario(&cfg, seed);
            let worst = oracle.check_incremental_walk(&sc, seed, 64).unwrap();
            assert!(worst <= oracle.tolerance);
        }
    }

    #[test]
    fn feasibility_check_rejects_foreign_dimensions() {
        let oracle = Oracle::default();
        let sc = fuzz::scenario(&FuzzConfig::smoke(), 1);
        let wrong =
            Assignment::with_dims(sc.num_users() + 1, sc.num_servers(), sc.num_subchannels());
        assert!(oracle.check_feasibility(&sc, &wrong).is_err());
    }

    #[test]
    fn a_zero_tolerance_oracle_still_accepts_exact_identities() {
        // All-local: every sum is empty, so every residual is exactly 0.
        let oracle = Oracle::with_tolerance(0.0);
        let sc = fuzz::scenario(&FuzzConfig::smoke(), 2);
        let x = Assignment::all_local(&sc);
        oracle.check_feasibility(&sc, &x).unwrap();
        oracle.check_kkt(&sc, &x).unwrap();
        oracle.check_user_bounds(&sc, &x).unwrap();
    }
}
