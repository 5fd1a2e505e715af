//! Per-user SLA accounting: deadline hits, accumulated benefit,
//! time-in-system.
//!
//! Every scheduling epoch scores each active user once (completion time
//! vs. the configured deadline, offloading benefit `J_u`); when the user
//! departs, its record is finalized into a [`CompletedUser`] entry of the
//! engine's [`SlaLog`].

use serde::{Deserialize, Serialize};

/// The finalized SLA record of one departed user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedUser {
    /// Stable user id (from the churn process).
    pub id: u64,
    /// Arrival time (seconds of simulated time).
    pub arrived_at_s: f64,
    /// Departure time (seconds of simulated time).
    pub departed_at_s: f64,
    /// Sojourn `departed - arrived`.
    pub time_in_system_s: f64,
    /// Scheduling epochs the user was present for.
    pub epochs_served: u32,
    /// Epochs in which the user's task met the deadline.
    pub deadline_hits: u32,
    /// Sum of the per-epoch offloading benefit `J_u` (zero while local).
    pub total_benefit: f64,
    /// Whether admission pinned the user to local execution.
    pub forced_local: bool,
}

impl CompletedUser {
    /// Fraction of served epochs that met the deadline (1 for a user that
    /// departed before being scheduled at all — it was never violated).
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.epochs_served == 0 {
            1.0
        } else {
            f64::from(self.deadline_hits) / f64::from(self.epochs_served)
        }
    }
}

/// The append-only log of departed users' SLA outcomes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SlaLog {
    completed: Vec<CompletedUser>,
}

impl SlaLog {
    /// Appends a finalized record.
    pub fn push(&mut self, user: CompletedUser) {
        self.completed.push(user);
    }

    /// All finalized records, in departure order.
    pub fn completed(&self) -> &[CompletedUser] {
        &self.completed
    }

    /// Number of departed users.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no user has departed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Epoch-weighted deadline hit rate across all departed users
    /// (1 when no epochs were served at all).
    pub fn deadline_hit_rate(&self) -> f64 {
        let (hits, epochs) = self.completed.iter().fold((0u64, 0u64), |(h, e), u| {
            (
                h + u64::from(u.deadline_hits),
                e + u64::from(u.epochs_served),
            )
        });
        if epochs == 0 {
            1.0
        } else {
            hits as f64 / epochs as f64
        }
    }

    /// Mean time-in-system over departed users (0 when empty).
    pub fn mean_time_in_system_s(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|u| u.time_in_system_s)
            .sum::<f64>()
            / self.completed.len() as f64
    }

    /// Mean accumulated benefit over departed users (0 when empty).
    pub fn mean_total_benefit(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed.iter().map(|u| u.total_benefit).sum::<f64>() / self.completed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(epochs: u32, hits: u32, sojourn: f64, benefit: f64) -> CompletedUser {
        CompletedUser {
            id: 0,
            arrived_at_s: 0.0,
            departed_at_s: sojourn,
            time_in_system_s: sojourn,
            epochs_served: epochs,
            deadline_hits: hits,
            total_benefit: benefit,
            forced_local: false,
        }
    }

    #[test]
    fn per_user_hit_rate() {
        assert_eq!(user(4, 3, 10.0, 0.0).deadline_hit_rate(), 0.75);
        assert_eq!(user(0, 0, 1.0, 0.0).deadline_hit_rate(), 1.0);
    }

    #[test]
    fn log_aggregates_epoch_weighted() {
        let mut log = SlaLog::default();
        assert!(log.is_empty());
        assert_eq!(log.deadline_hit_rate(), 1.0);
        assert_eq!(log.mean_time_in_system_s(), 0.0);
        log.push(user(4, 4, 10.0, 2.0));
        log.push(user(8, 2, 30.0, 1.0));
        assert_eq!(log.len(), 2);
        // (4 + 2) hits over (4 + 8) epochs — weighted, not averaged.
        assert!((log.deadline_hit_rate() - 0.5).abs() < 1e-12);
        assert!((log.mean_time_in_system_s() - 20.0).abs() < 1e-12);
        assert!((log.mean_total_benefit() - 1.5).abs() < 1e-12);
    }
}
