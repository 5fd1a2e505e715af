//! Interference-free upper bounds on the JTORA optimum.
//!
//! For any feasible decision `X` (Eq. 24):
//!
//! * the uplink cost only grows with interference: `γ_us ≤ SNR_us`
//!   implies `Γ_u(γ_us) ≥ Γ_u(SNR_us)`;
//! * the execution cost is superadditive: `(Σ_u √η_u)²/f_s ≥ Σ_u η_u/f_s`,
//!   so each offloaded user pays at least its *alone-on-the-server* cost.
//!
//! Therefore `J*(X) ≤ Σ_{u offloaded} value(u, slot(u))` where
//! `value(u, s, j) = λ_u(β_t+β_e) − download_cost
//!                  − (φ_u + ψ_u p_u)/log₂(1+SNR_us^j) − η_u/f_s`,
//! and the slots are pairwise distinct (constraint 12d). Maximizing the
//! right-hand side over injective user→slot assignments — a max-weight
//! bipartite matching, solved exactly by [`max_weight_assignment`] — gives
//! a certified upper bound on the optimum that is computable at scales
//! where exhaustive search is hopeless. Benchmarks report the heuristics'
//! *gap to this bound*.

use crate::hungarian::max_weight_assignment;
use mec_system::Scenario;
use mec_types::{ServerId, SubchannelId};

/// A certified upper bound on the JTORA optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpperBound {
    /// The matching-based bound (tighter: distinct slots enforced).
    pub assignment_bound: f64,
    /// The loose per-user bound (every user takes its best slot,
    /// conflicts ignored) — cheaper, and useful as a sanity cross-check
    /// since it always dominates the matching bound.
    pub independent_bound: f64,
}

/// The interference-free value of user `u` on slot `(s, j)` (can be
/// negative; the bound clamps at "stay local" = 0 via the matching).
fn slot_value(scenario: &Scenario, u: mec_types::UserId, s: ServerId, j: SubchannelId) -> f64 {
    let c = scenario.coefficients(u);
    let p = scenario.tx_powers_watts()[u.index()];
    let snr = p * scenario.gains().gain(u, s, j) / scenario.noise().as_watts();
    let uplink = (c.phi + c.psi * p) / (1.0 + snr).log2();
    let exec_floor = c.eta / scenario.server(s).capacity().as_hz();
    c.gain_constant - c.download_cost - uplink - exec_floor
}

impl UpperBound {
    /// The fraction of this bound that `utility` achieves (clamped to 0
    /// when the bound is 0, i.e. offloading can never pay on this
    /// scenario). A solver reporting `quality(…) = 0.9` is certifiably
    /// within 10 % of the true optimum — no exhaustive search needed.
    pub fn quality(&self, utility: f64) -> f64 {
        if self.assignment_bound <= 0.0 {
            return if utility >= 0.0 { 1.0 } else { 0.0 };
        }
        (utility / self.assignment_bound).clamp(0.0, 1.0)
    }
}

/// The interference-free value of every user on every slot, one row per
/// user: `values[u][s·N + j]` is user `u` on server `s`, subchannel `j`
/// (see the module docs; it can be negative, and staying local is worth
/// 0). These are the weights of the matching behind
/// [`UpperBound::assignment_bound`].
pub fn slot_values(scenario: &Scenario) -> Vec<Vec<f64>> {
    let n = scenario.num_subchannels();
    scenario
        .user_ids()
        .map(|u| {
            scenario
                .server_ids()
                .flat_map(|s| (0..n).map(move |j| slot_value(scenario, u, s, SubchannelId::new(j))))
                .collect()
        })
        .collect()
}

/// Computes both interference-free upper bounds for a scenario.
///
/// The matching bound is exact for the relaxed (interference-free,
/// exclusive-slot) problem, hence `optimum ≤ assignment_bound ≤
/// independent_bound`.
pub fn upper_bound(scenario: &Scenario) -> UpperBound {
    let weights = slot_values(scenario);
    let independent = weights.iter().fold(0.0, |total, row| {
        total + row.iter().fold(0.0f64, |best, &v| best.max(v))
    });
    let (assignment_bound, _) = max_weight_assignment(&weights);
    UpperBound {
        assignment_bound,
        independent_bound: independent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExhaustiveSolver;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::{Solver, UserSpec};
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn bound_dominates_the_exhaustive_optimum() {
        for seed in 0..8 {
            let sc = random_scenario(seed, 5, 2, 2);
            let optimum = ExhaustiveSolver::new().solve(&sc).unwrap().utility;
            let bound = upper_bound(&sc);
            assert!(
                bound.assignment_bound >= optimum - 1e-9,
                "seed {seed}: bound {} below optimum {optimum}",
                bound.assignment_bound
            );
            assert!(bound.independent_bound >= bound.assignment_bound - 1e-9);
        }
    }

    #[test]
    fn bound_is_tight_without_interference_pressure() {
        // A single user: no interference, no server sharing — the bound
        // must equal the optimum exactly.
        let sc = random_scenario(3, 1, 2, 2);
        let optimum = ExhaustiveSolver::new().solve(&sc).unwrap().utility;
        let bound = upper_bound(&sc);
        assert!((bound.assignment_bound - optimum).abs() < 1e-9);
        assert!((bound.independent_bound - optimum).abs() < 1e-9);
    }

    #[test]
    fn slot_contention_separates_the_two_bounds() {
        // Many users, a single slot: independently everyone takes it, but
        // the matching admits only the single best user.
        let sc = random_scenario(5, 4, 1, 1);
        let bound = upper_bound(&sc);
        assert!(
            bound.independent_bound > bound.assignment_bound + 1e-9,
            "independent {} vs matching {}",
            bound.independent_bound,
            bound.assignment_bound
        );
    }

    #[test]
    fn quality_certificate_behaves() {
        let sc = random_scenario(1, 5, 2, 2);
        let bound = upper_bound(&sc);
        let optimum = ExhaustiveSolver::new().solve(&sc).unwrap().utility;
        let q = bound.quality(optimum);
        assert!((0.0..=1.0).contains(&q));
        assert!(q > 0.5, "the optimum should be within 2x of the bound here");
        // Degenerate bound: doing nothing is 'perfect'.
        let zero = UpperBound {
            assignment_bound: 0.0,
            independent_bound: 0.0,
        };
        assert_eq!(zero.quality(0.0), 1.0);
        assert_eq!(zero.quality(-1.0), 0.0);
    }

    #[test]
    fn bound_is_nonnegative() {
        // Terrible channels: all slot values are negative, so both bounds
        // collapse to 0 (everyone local).
        let gains = ChannelGains::uniform(3, 2, 2, 1e-17).unwrap();
        let sc = Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); 3],
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap();
        let bound = upper_bound(&sc);
        assert_eq!(bound.assignment_bound, 0.0);
        assert_eq!(bound.independent_bound, 0.0);
    }
}
