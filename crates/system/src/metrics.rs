//! Per-user and system-level evaluation reports.

use mec_types::{BitsPerSecond, Joules, Seconds};
use serde::{Deserialize, Serialize};

/// What one user experiences under a given decision and allocation.
///
/// For a local user, `completion_time`/`energy` are the local execution
/// figures and the uplink fields are zero; for an offloaded user they are
/// `t_u = t_upload + t_execute` (Eq. 8) and `E_u = p_u·t_upload` (Eq. 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserMetrics {
    /// Whether the user offloads.
    pub offloaded: bool,
    /// Uplink SINR `γ_us` (zero for local users).
    pub sinr: f64,
    /// Uplink rate `R_us` (zero for local users).
    pub rate: BitsPerSecond,
    /// Uplink transfer time `t_upload` (zero for local users).
    pub upload_time: Seconds,
    /// Downlink result-return time (zero for local users and when the
    /// downlink is not modeled).
    pub download_time: Seconds,
    /// Execution time: on the MEC share for offloaded users, on the local
    /// CPU otherwise.
    pub execute_time: Seconds,
    /// Task completion time: `t_u` when offloaded, `t_local` otherwise.
    pub completion_time: Seconds,
    /// Energy drawn from the device battery: `E_u` when offloaded,
    /// `E_local` otherwise.
    pub energy: Joules,
    /// The offloading benefit `J_u` (Eq. 10); zero for local users.
    pub utility: f64,
}

/// The full system-level evaluation of a decision (with the KKT-optimal
/// allocation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemEvaluation {
    /// The system utility `J(X, F*) = Σ_u λ_u·J_u` (Eq. 11) — the quantity
    /// every figure in the paper plots.
    pub system_utility: f64,
    /// First term of Eq. 16: `Σ_{offloaded} λ_u(β_t + β_e)`.
    pub gain_constant: f64,
    /// The uplink cost `Γ(X)` (transmission part of Eq. 19).
    pub gamma_cost: f64,
    /// The execution cost `Λ(X, F*)` (Eq. 23).
    pub lambda_cost: f64,
    /// Per-user details, indexed by user.
    pub users: Vec<UserMetrics>,
    /// How many users offload.
    pub num_offloaded: usize,
}

impl SystemEvaluation {
    /// Mean task completion time across *all* users (offloaded users
    /// contribute `t_u`, local users `t_local`) — the quantity of
    /// Fig. 9(b).
    pub fn average_completion_time(&self) -> Seconds {
        self.average_of(|m| m.completion_time.as_secs())
            .map(Seconds::new)
            .unwrap_or(Seconds::ZERO)
    }

    /// Mean device energy across all users — the quantity of Fig. 9(a).
    pub fn average_energy(&self) -> Joules {
        self.average_of(|m| m.energy.as_joules())
            .map(Joules::new)
            .unwrap_or(Joules::ZERO)
    }

    fn average_of<F: Fn(&UserMetrics) -> f64>(&self, f: F) -> Option<f64> {
        if self.users.is_empty() {
            return None;
        }
        Some(self.users.iter().map(f).sum::<f64>() / self.users.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(completion: f64, energy: f64, utility: f64) -> UserMetrics {
        UserMetrics {
            offloaded: true,
            sinr: 1.0,
            rate: BitsPerSecond::new(1.0e6),
            upload_time: Seconds::new(0.1),
            download_time: Seconds::ZERO,
            execute_time: Seconds::new(0.2),
            completion_time: Seconds::new(completion),
            energy: Joules::new(energy),
            utility,
        }
    }

    #[test]
    fn averages_are_arithmetic_means() {
        let eval = SystemEvaluation {
            system_utility: 1.0,
            gain_constant: 2.0,
            gamma_cost: 0.5,
            lambda_cost: 0.5,
            users: vec![metric(1.0, 2.0, 0.4), metric(3.0, 4.0, 0.6)],
            num_offloaded: 2,
        };
        assert_eq!(eval.average_completion_time(), Seconds::new(2.0));
        assert_eq!(eval.average_energy(), Joules::new(3.0));
    }

    #[test]
    fn empty_user_list_yields_zeroes() {
        let eval = SystemEvaluation {
            system_utility: 0.0,
            gain_constant: 0.0,
            gamma_cost: 0.0,
            lambda_cost: 0.0,
            users: vec![],
            num_offloaded: 0,
        };
        assert_eq!(eval.average_completion_time(), Seconds::ZERO);
        assert_eq!(eval.average_energy(), Joules::ZERO);
    }
}
