//! Injected timeline events: scripted disruptions an online run replays.
//!
//! A scenario spec's `[[timeline]]` compiles into an [`EventSchedule`]
//! which the engine drains at each epoch boundary, exactly like churn:
//! every event with `at <= now` fires before the epoch is scheduled.
//! Events are deterministic — a schedule is data, so equal seeds plus
//! equal schedules give bit-identical runs.

use mec_types::Seconds;

/// One scripted disruption the engine knows how to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// The server leaves service: its gains are masked out of the epoch
    /// scenario and users it hosted are re-patched elsewhere.
    ServerOutage {
        /// Index of the failing server.
        server: usize,
    },
    /// A previously-failed server returns to service.
    ServerRecovery {
        /// Index of the recovering server.
        server: usize,
    },
    /// A burst of simultaneous arrivals (drawn through admission like any
    /// other arrival; sojourns are exponential with the given mean).
    FlashCrowd {
        /// Number of users arriving at once.
        arrivals: usize,
        /// Mean sojourn of burst users.
        mean_sojourn: Seconds,
    },
    /// Scales the churn process's arrival rate
    /// ([`ChurnProcess::scale_rate`](crate::ChurnProcess::scale_rate)).
    LoadRamp {
        /// Multiplicative factor on the arrival rate.
        rate_factor: f64,
    },
    /// Teleports a fraction of active users next to one cell's station.
    HotspotDrift {
        /// Target cell (server index).
        cell: usize,
        /// Fraction of active users that drift, in `(0, 1]`.
        fraction: f64,
    },
}

impl EngineEvent {
    /// Short display name (epoch logs).
    pub fn name(&self) -> &'static str {
        match self {
            Self::ServerOutage { .. } => "server_outage",
            Self::ServerRecovery { .. } => "server_recovery",
            Self::FlashCrowd { .. } => "flash_crowd",
            Self::LoadRamp { .. } => "load_ramp",
            Self::HotspotDrift { .. } => "hotspot_drift",
        }
    }
}

/// An event pinned to a point of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// When the event fires.
    pub at: Seconds,
    /// What happens.
    pub event: EngineEvent,
}

/// A time-ordered queue of [`TimedEvent`]s, drained like churn.
#[derive(Debug, Clone, Default)]
pub struct EventSchedule {
    events: Vec<TimedEvent>,
    next: usize,
}

impl EventSchedule {
    /// Builds a schedule, sorting events by time (ties keep insertion
    /// order, so spec order breaks ties deterministically).
    pub fn new(mut events: Vec<TimedEvent>) -> Self {
        events.sort_by(|a, b| {
            a.at.as_secs()
                .partial_cmp(&b.at.as_secs())
                .expect("event times are finite")
        });
        Self { events, next: 0 }
    }

    /// An empty schedule (no scripted events).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Appends every not-yet-delivered event with `at <= now` to `out`,
    /// in time order.
    pub fn drain_until(&mut self, now: Seconds, out: &mut Vec<TimedEvent>) {
        while self.next < self.events.len() && self.events[self.next].at.as_secs() <= now.as_secs()
        {
            out.push(self.events[self.next].clone());
            self.next += 1;
        }
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Total number of events in the schedule.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: f64, event: EngineEvent) -> TimedEvent {
        TimedEvent {
            at: Seconds::new(t),
            event,
        }
    }

    #[test]
    fn drains_in_time_order_without_replay() {
        let mut s = EventSchedule::new(vec![
            at(20.0, EngineEvent::ServerRecovery { server: 1 }),
            at(5.0, EngineEvent::ServerOutage { server: 1 }),
            at(
                5.0,
                EngineEvent::FlashCrowd {
                    arrivals: 3,
                    mean_sojourn: Seconds::new(30.0),
                },
            ),
        ]);
        assert_eq!(s.len(), 3);
        let mut out = Vec::new();
        s.drain_until(Seconds::new(10.0), &mut out);
        assert_eq!(out.len(), 2);
        // Stable sort: spec order breaks the 5.0 s tie.
        assert_eq!(out[0].event.name(), "server_outage");
        assert_eq!(out[1].event.name(), "flash_crowd");
        assert_eq!(s.remaining(), 1);
        out.clear();
        s.drain_until(Seconds::new(10.0), &mut out);
        assert!(out.is_empty(), "no replay");
        s.drain_until(Seconds::new(100.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(s.remaining(), 0);
    }
}
