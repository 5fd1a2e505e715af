//! Computing-resource allocation (the CRA subproblem, Eqs. 20–23).
//!
//! For a fixed offloading decision the CRA problem
//! `min Σ η_u / f_us  s.t.  Σ_u f_us ≤ f_s` is convex with a diagonal,
//! positive-definite Hessian, and its KKT conditions yield the closed-form
//! square-root rule of Eq. 22. [`kkt_allocation`] implements that rule;
//! [`optimal_lambda_cost`] evaluates the resulting cost Λ(X, F*) (Eq. 23)
//! without materializing the allocation — the hot path for search.

use crate::assignment::Assignment;
use crate::scenario::Scenario;
use mec_types::{Error, Hertz, ServerId, UserId};

/// A computing-resource allocation `F = {f_us}`: the CPU share (Hz) each
/// offloaded user receives from its serving MEC server. Local users hold
/// zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceAllocation {
    shares: Vec<f64>,
}

impl ResourceAllocation {
    /// Builds an allocation from raw per-user shares in Hz (used by the
    /// numeric CRA check).
    #[cfg(test)]
    pub(crate) fn from_shares(shares: Vec<f64>) -> Self {
        Self { shares }
    }

    /// The CPU share of user `u` (zero if it executes locally).
    #[inline]
    pub fn share(&self, u: UserId) -> Hertz {
        Hertz::new(self.shares[u.index()])
    }

    /// All shares indexed by user.
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// Total capacity handed out by server `s` under assignment `x`.
    pub fn server_load(&self, s: ServerId, x: &Assignment) -> Hertz {
        Hertz::new(x.server_users_iter(s).map(|u| self.shares[u.index()]).sum())
    }

    /// Checks constraints (12e) and (12f): every offloaded user receives a
    /// strictly positive share and no server is oversubscribed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InfeasibleAllocation`] naming the first violation.
    pub fn verify(&self, scenario: &Scenario, x: &Assignment) -> Result<(), Error> {
        for (u, _, _) in x.offloaded() {
            if self.shares[u.index()] <= 0.0 {
                return Err(Error::InfeasibleAllocation(format!(
                    "offloaded user {u} received a non-positive share (constraint 12e)"
                )));
            }
        }
        for u in scenario.user_ids() {
            if !x.is_offloaded(u) && self.shares[u.index()] != 0.0 {
                return Err(Error::InfeasibleAllocation(format!(
                    "local user {u} received a non-zero share"
                )));
            }
        }
        for s in scenario.server_ids() {
            let load = self.server_load(s, x).as_hz();
            let cap = scenario.server(s).capacity().as_hz();
            if load > cap * (1.0 + 1e-9) {
                return Err(Error::InfeasibleAllocation(format!(
                    "server {s} oversubscribed: {load} Hz > {cap} Hz (constraint 12f)"
                )));
            }
        }
        Ok(())
    }
}

/// Computes the KKT-optimal allocation of Eq. 22:
/// `f*_us = f_s·√η_u / Σ_{v∈U_s} √η_v`.
///
/// If every user attached to a server has `η = 0` (all pure energy-minded,
/// `β_time = 0`), any split is optimal for the objective; an equal split is
/// returned so execution times stay finite for reporting.
///
/// # Example
///
/// ```
/// use mec_radio::{ChannelGains, OfdmaConfig};
/// use mec_system::{kkt_allocation, Assignment, Scenario, UserSpec};
/// use mec_types::*;
///
/// # fn main() -> std::result::Result<(), mec_types::Error> {
/// let scenario = Scenario::new(
///     vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0))?; 2],
///     vec![ServerProfile::paper_default()],
///     OfdmaConfig::new(Hertz::from_mega(20.0), 2)?,
///     ChannelGains::uniform(2, 1, 2, 1e-10)?,
///     Watts::new(1e-13),
/// )?;
/// let mut x = Assignment::all_local(&scenario);
/// x.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))?;
/// x.assign(UserId::new(1), ServerId::new(0), SubchannelId::new(1))?;
///
/// // Two identical users split the 20 GHz server evenly.
/// let f = kkt_allocation(&scenario, &x);
/// assert!((f.share(UserId::new(0)).as_giga() - 10.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn kkt_allocation(scenario: &Scenario, x: &Assignment) -> ResourceAllocation {
    let mut shares = vec![0.0; scenario.num_users()];
    for s in scenario.server_ids() {
        // Two passes over the occupancy row instead of collecting `U_s`.
        let mut count = 0usize;
        let mut denom = 0.0f64;
        for u in x.server_users_iter(s) {
            count += 1;
            denom += scenario.coefficients(u).eta.sqrt();
        }
        if count == 0 {
            continue;
        }
        let capacity = scenario.server(s).capacity().as_hz();
        if denom > 0.0 {
            for u in x.server_users_iter(s) {
                shares[u.index()] = capacity * scenario.coefficients(u).eta.sqrt() / denom;
            }
        } else {
            let equal = capacity / count as f64;
            for u in x.server_users_iter(s) {
                shares[u.index()] = equal;
            }
        }
    }
    ResourceAllocation { shares }
}

/// An equal-split allocation (`f_us = f_s / |U_s|`), used as the ablation
/// baseline against the KKT rule.
pub fn equal_share_allocation(scenario: &Scenario, x: &Assignment) -> ResourceAllocation {
    let mut shares = vec![0.0; scenario.num_users()];
    for s in scenario.server_ids() {
        let count = x.server_users_iter(s).count();
        if count == 0 {
            continue;
        }
        let equal = scenario.server(s).capacity().as_hz() / count as f64;
        for u in x.server_users_iter(s) {
            shares[u.index()] = equal;
        }
    }
    ResourceAllocation { shares }
}

/// The optimal execution-cost term Λ(X, F*) of Eq. 23:
/// `Λ = Σ_s (Σ_{u∈U_s} √η_u)² / f_s`.
///
/// Equals `Σ_u η_u / f*_us` under [`kkt_allocation`] but costs `O(|U_off|)`
/// with no allocation vector.
pub fn optimal_lambda_cost(scenario: &Scenario, x: &Assignment) -> f64 {
    let mut total = 0.0;
    for s in scenario.server_ids() {
        let sum_sqrt: f64 = x
            .server_users_iter(s)
            .map(|u| scenario.coefficients(u).eta.sqrt())
            .sum();
        if sum_sqrt > 0.0 {
            total += sum_sqrt * sum_sqrt / scenario.server(s).capacity().as_hz();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::UserSpec;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_types::{
        Bits, Cycles, DeviceProfile, Hertz, ProviderPreference, ServerProfile, SubchannelId, Task,
        UserPreferences, Watts,
    };

    fn scenario_with_prefs(beta_times: &[f64]) -> Scenario {
        let users: Vec<UserSpec> = beta_times
            .iter()
            .map(|bt| UserSpec {
                task: Task::new(Bits::from_kilobytes(420.0), Cycles::from_mega(1000.0)).unwrap(),
                device: DeviceProfile::paper_default(),
                preferences: UserPreferences::new(*bt).unwrap(),
                lambda: ProviderPreference::MAX,
            })
            .collect();
        let n = users.len();
        Scenario::new(
            users,
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 4).unwrap(),
            ChannelGains::uniform(n, 2, 4, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    fn offload_all_to_server0(scenario: &Scenario) -> Assignment {
        let mut x = Assignment::all_local(scenario);
        for (i, u) in scenario.user_ids().enumerate() {
            x.assign(u, ServerId::new(0), SubchannelId::new(i)).unwrap();
        }
        x
    }

    #[test]
    fn equal_etas_split_evenly() {
        let sc = scenario_with_prefs(&[0.5, 0.5, 0.5, 0.5]);
        let x = offload_all_to_server0(&sc);
        let f = kkt_allocation(&sc, &x);
        for u in sc.user_ids() {
            assert!(
                (f.share(u).as_giga() - 5.0).abs() < 1e-9,
                "20 GHz / 4 users"
            );
        }
        f.verify(&sc, &x).unwrap();
    }

    #[test]
    fn shares_follow_square_root_of_eta() {
        // η ∝ β_time, so a user with β_time = 0.8 gets √(0.8/0.2) = 2x the
        // share of a user with β_time = 0.2.
        let sc = scenario_with_prefs(&[0.8, 0.2]);
        let x = offload_all_to_server0(&sc);
        let f = kkt_allocation(&sc, &x);
        let ratio = f.share(UserId::new(0)) / f.share(UserId::new(1));
        assert!((ratio - 2.0).abs() < 1e-9, "got {ratio}");
        // Shares exhaust the server exactly.
        let used = f.server_load(ServerId::new(0), &x).as_hz();
        assert!((used - 20.0e9).abs() < 1.0);
        f.verify(&sc, &x).unwrap();
    }

    #[test]
    fn closed_form_lambda_matches_allocation_cost() {
        let sc = scenario_with_prefs(&[0.7, 0.5, 0.3]);
        let x = offload_all_to_server0(&sc);
        let f = kkt_allocation(&sc, &x);
        let direct: f64 = sc
            .user_ids()
            .map(|u| {
                let eta = sc.coefficients(u).eta;
                if x.is_offloaded(u) {
                    eta / f.share(u).as_hz()
                } else {
                    0.0
                }
            })
            .sum();
        let closed = optimal_lambda_cost(&sc, &x);
        assert!((direct - closed).abs() / closed < 1e-12);
    }

    #[test]
    fn kkt_beats_equal_share_on_heterogeneous_etas() {
        let sc = scenario_with_prefs(&[0.9, 0.1, 0.5]);
        let x = offload_all_to_server0(&sc);
        let kkt = kkt_allocation(&sc, &x);
        let eq = equal_share_allocation(&sc, &x);
        let cost = |f: &ResourceAllocation| -> f64 {
            sc.user_ids()
                .map(|u| sc.coefficients(u).eta / f.share(u).as_hz())
                .sum()
        };
        assert!(cost(&kkt) < cost(&eq), "KKT must dominate equal split");
        // And on homogeneous etas they coincide.
        let sc2 = scenario_with_prefs(&[0.5, 0.5]);
        let x2 = offload_all_to_server0(&sc2);
        assert_eq!(kkt_allocation(&sc2, &x2), equal_share_allocation(&sc2, &x2));
    }

    #[test]
    fn all_zero_eta_users_fall_back_to_equal_split() {
        let sc = scenario_with_prefs(&[0.0, 0.0]);
        let x = offload_all_to_server0(&sc);
        let f = kkt_allocation(&sc, &x);
        for u in sc.user_ids() {
            assert!((f.share(u).as_giga() - 10.0).abs() < 1e-9);
        }
        assert_eq!(optimal_lambda_cost(&sc, &x), 0.0);
        f.verify(&sc, &x).unwrap();
    }

    #[test]
    fn local_users_hold_zero_share() {
        let sc = scenario_with_prefs(&[0.5, 0.5, 0.5]);
        let mut x = Assignment::all_local(&sc);
        x.assign(UserId::new(1), ServerId::new(1), SubchannelId::new(0))
            .unwrap();
        let f = kkt_allocation(&sc, &x);
        assert_eq!(f.share(UserId::new(0)).as_hz(), 0.0);
        assert_eq!(f.share(UserId::new(2)).as_hz(), 0.0);
        assert!((f.share(UserId::new(1)).as_giga() - 20.0).abs() < 1e-9);
        f.verify(&sc, &x).unwrap();
    }

    #[test]
    fn all_local_costs_nothing() {
        let sc = scenario_with_prefs(&[0.5, 0.5]);
        let x = Assignment::all_local(&sc);
        assert_eq!(optimal_lambda_cost(&sc, &x), 0.0);
        let f = kkt_allocation(&sc, &x);
        assert!(f.shares().iter().all(|s| *s == 0.0));
        f.verify(&sc, &x).unwrap();
    }

    #[test]
    fn verify_catches_violations() {
        let sc = scenario_with_prefs(&[0.5, 0.5]);
        let x = offload_all_to_server0(&sc);
        // Zero share for an offloaded user violates (12e).
        let f = ResourceAllocation {
            shares: vec![0.0, 1.0e9],
        };
        assert!(f.verify(&sc, &x).is_err());
        // Oversubscription violates (12f).
        let f = ResourceAllocation {
            shares: vec![15.0e9, 15.0e9],
        };
        assert!(f.verify(&sc, &x).is_err());
        // Non-zero share for a local user is inconsistent.
        let x_local = Assignment::all_local(&sc);
        let f = ResourceAllocation {
            shares: vec![1.0, 0.0],
        };
        assert!(f.verify(&sc, &x_local).is_err());
    }
}
