//! Numerical verification of the CRA closed form (the paper's Lemma).
//!
//! The paper derives `f*_us = f_s·√η_u / Σ√η_v` (Eq. 22) from the KKT
//! conditions and points to an external appendix for the proof. This
//! module *checks* that result computationally: it solves the same convex
//! program
//!
//! ```text
//! min Σ_u η_u / f_u    s.t.  Σ_u f_u ≤ f_s,  f_u > 0
//! ```
//!
//! with projected gradient descent over the capped simplex, with no
//! knowledge of the closed form. A property test asserts the two agree,
//! which is as close to a machine-checked proof of the Lemma as a
//! simulation codebase gets. The module compiles only for tests.

use crate::allocation::ResourceAllocation;
use crate::assignment::Assignment;
use crate::scenario::Scenario;
use mec_types::Error;

/// Options for the projected-gradient CRA solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericCraOptions {
    /// Maximum gradient iterations per server.
    pub max_iterations: usize,
    /// Convergence threshold on the max relative share change.
    pub tolerance: f64,
    /// Lower bound on any share as a fraction of capacity (keeps the
    /// objective differentiable; constraint (12e) requires `f > 0`).
    pub min_share_fraction: f64,
}

impl Default for NumericCraOptions {
    fn default() -> Self {
        Self {
            max_iterations: 50_000,
            tolerance: 1e-12,
            min_share_fraction: 1e-9,
        }
    }
}

/// Projects `v` onto the simplex `{x : x ≥ floor, Σx = total}`.
///
/// Standard sort-based Euclidean projection (Held–Wolfe–Crowder), shifted
/// by the floor.
fn project_capped_simplex(v: &[f64], total: f64, floor: f64) -> Vec<f64> {
    let n = v.len();
    let budget = total - floor * n as f64;
    debug_assert!(budget >= 0.0, "floors exceed the capacity");
    // Project (v - floor) onto the simplex of mass `budget`, then shift
    // back.
    let shifted: Vec<f64> = v.iter().map(|x| x - floor).collect();
    let mut sorted = shifted.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite shares"));
    let mut cumsum = 0.0;
    let mut rho = 0usize;
    let mut theta = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        cumsum += x;
        let candidate = (cumsum - budget) / (i as f64 + 1.0);
        if x - candidate > 0.0 {
            rho = i + 1;
            theta = candidate;
        }
    }
    debug_assert!(rho > 0);
    let _ = rho;
    shifted
        .iter()
        .map(|x| (x - theta).max(0.0) + floor)
        .collect()
}

/// Solves one server's CRA program numerically.
///
/// Returns the per-user shares in the same order as `etas`. Users with
/// `η = 0` end up at (or near) the floor — matching the closed form's
/// zero-share limit while keeping strictly positive shares.
///
/// # Panics
///
/// Panics if `etas` is empty, any `η` is negative/non-finite, or the
/// capacity is non-positive.
pub fn solve_server_numeric(etas: &[f64], capacity: f64, options: &NumericCraOptions) -> Vec<f64> {
    assert!(!etas.is_empty(), "no users to allocate to");
    assert!(capacity > 0.0 && capacity.is_finite());
    assert!(etas.iter().all(|e| e.is_finite() && *e >= 0.0));

    let n = etas.len();
    if etas.iter().all(|e| *e == 0.0) {
        return vec![capacity / n as f64; n];
    }
    let floor = options.min_share_fraction * capacity;
    // Start from an equal split.
    let mut f = vec![capacity / n as f64; n];
    // The objective is Σ η/f; its gradient is −η/f². Use a diminishing
    // step scaled so the first step moves a reasonable fraction of the
    // capacity.
    let grad_scale: f64 = etas
        .iter()
        .zip(&f)
        .map(|(e, fi)| (e / (fi * fi)).abs())
        .fold(0.0, f64::max)
        .max(1e-300);
    let base_step = 0.25 * capacity / grad_scale;

    for iter in 0..options.max_iterations {
        let step = base_step / (1.0 + iter as f64 * 0.01);
        let candidate: Vec<f64> = f
            .iter()
            .zip(etas)
            .map(|(fi, e)| fi + step * e / (fi * fi))
            .collect();
        let projected = project_capped_simplex(&candidate, capacity, floor);
        let max_delta = f
            .iter()
            .zip(&projected)
            .map(|(a, b)| (a - b).abs() / capacity)
            .fold(0.0, f64::max);
        f = projected;
        if max_delta < options.tolerance {
            break;
        }
    }
    f
}

/// Numerically computes the full allocation for a decision, server by
/// server — the gradient-based counterpart of
/// [`kkt_allocation`](crate::allocation::kkt_allocation).
///
/// # Errors
///
/// Returns [`Error::InfeasibleAssignment`] if the assignment does not
/// match the scenario.
pub fn numeric_allocation(
    scenario: &Scenario,
    x: &Assignment,
    options: &NumericCraOptions,
) -> Result<ResourceAllocation, Error> {
    x.verify_feasible(scenario)?;
    let mut shares = vec![0.0; scenario.num_users()];
    for s in scenario.server_ids() {
        let users: Vec<_> = x.server_users_iter(s).collect();
        if users.is_empty() {
            continue;
        }
        let etas: Vec<f64> = users
            .iter()
            .map(|u| scenario.coefficients(*u).eta)
            .collect();
        let solved = solve_server_numeric(&etas, scenario.server(s).capacity().as_hz(), options);
        for (u, f) in users.iter().zip(solved) {
            shares[u.index()] = f;
        }
    }
    Ok(ResourceAllocation::from_shares(shares))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::kkt_allocation;
    use crate::scenario::UserSpec;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_types::{
        Bits, Cycles, DeviceProfile, Hertz, ProviderPreference, ServerId, ServerProfile,
        SubchannelId, Task, UserId, UserPreferences, Watts,
    };

    #[test]
    fn simplex_projection_properties() {
        let p = project_capped_simplex(&[3.0, 1.0, 0.5], 2.0, 0.1);
        assert!((p.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        assert!(p.iter().all(|x| *x >= 0.1 - 1e-12));
        // A point already on the simplex projects to itself.
        let q = project_capped_simplex(&[1.0, 0.6, 0.4], 2.0, 0.1);
        for (a, b) in q.iter().zip([1.0, 0.6, 0.4]) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn equal_etas_converge_to_equal_split() {
        let f = solve_server_numeric(&[1.0, 1.0, 1.0, 1.0], 20.0e9, &NumericCraOptions::default());
        for fi in &f {
            assert!((fi - 5.0e9).abs() / 5.0e9 < 1e-4, "{fi}");
        }
    }

    #[test]
    fn numeric_matches_the_papers_closed_form() {
        // Heterogeneous etas: shares must follow the √η rule within
        // numerical tolerance — this is the Lemma check.
        let etas = [4.0e8, 1.0e8, 2.5e8, 9.0e8];
        let capacity = 20.0e9;
        let f = solve_server_numeric(&etas, capacity, &NumericCraOptions::default());
        let sum_sqrt: f64 = etas.iter().map(|e| e.sqrt()).sum();
        for (fi, e) in f.iter().zip(&etas) {
            let expected = capacity * e.sqrt() / sum_sqrt;
            assert!(
                (fi - expected).abs() / expected < 1e-3,
                "numeric {fi} vs closed-form {expected}"
            );
        }
    }

    #[test]
    fn all_zero_etas_fall_back_to_equal_split() {
        let f = solve_server_numeric(&[0.0, 0.0], 10.0, &NumericCraOptions::default());
        assert_eq!(f, vec![5.0, 5.0]);
    }

    #[test]
    fn full_allocation_agrees_with_kkt_on_a_scenario() {
        let mk_user = |beta: f64| UserSpec {
            task: Task::new(Bits::from_kilobytes(420.0), Cycles::from_mega(1000.0)).unwrap(),
            device: DeviceProfile::paper_default(),
            preferences: UserPreferences::new(beta).unwrap(),
            lambda: ProviderPreference::MAX,
        };
        let scenario = Scenario::new(
            vec![mk_user(0.9), mk_user(0.3), mk_user(0.6)],
            vec![ServerProfile::paper_default()],
            OfdmaConfig::new(Hertz::from_mega(20.0), 3).unwrap(),
            ChannelGains::uniform(3, 1, 3, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap();
        let mut x = Assignment::all_local(&scenario);
        for (i, u) in scenario.user_ids().enumerate() {
            x.assign(u, ServerId::new(0), SubchannelId::new(i)).unwrap();
        }
        let numeric = numeric_allocation(&scenario, &x, &NumericCraOptions::default()).unwrap();
        let closed = kkt_allocation(&scenario, &x);
        for u in scenario.user_ids() {
            let a = numeric.share(u).as_hz();
            let b = closed.share(u).as_hz();
            assert!(
                (a - b).abs() / b < 1e-3,
                "user {u}: numeric {a} vs closed {b}"
            );
        }
        numeric.verify(&scenario, &x).unwrap();
    }

    #[test]
    fn local_users_get_zero_in_numeric_allocation() {
        let scenario = Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0)).unwrap(); 2],
            vec![ServerProfile::paper_default()],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            ChannelGains::uniform(2, 1, 2, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap();
        let mut x = Assignment::all_local(&scenario);
        x.assign(UserId::new(1), ServerId::new(0), SubchannelId::new(0))
            .unwrap();
        let numeric = numeric_allocation(&scenario, &x, &NumericCraOptions::default()).unwrap();
        assert_eq!(numeric.share(UserId::new(0)).as_hz(), 0.0);
        assert!(numeric.share(UserId::new(1)).as_hz() > 0.0);
    }

    #[test]
    #[should_panic(expected = "no users")]
    fn empty_server_panics() {
        let _ = solve_server_numeric(&[], 1.0, &NumericCraOptions::default());
    }
}
