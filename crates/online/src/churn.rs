//! The event source feeding the engine: a pluggable arrival process.
//!
//! The engine does not care *how* churn events are produced — it drains
//! whatever the configured [`ChurnProcess`] yields, in time order. The
//! stock implementation replays a precomputed
//! [`mec_workloads::ChurnTrace`] (typically from
//! [`mec_workloads::PoissonChurn`]); custom processes
//! (deterministic schedules, trace files, diurnal rates) just implement
//! the trait.

use mec_types::{Error, Seconds};
use mec_workloads::{ChurnEvent, ChurnEventKind, ChurnTrace, PoissonChurn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stream of arrival/departure events, consumed in time order.
///
/// Implementations must yield events monotonically: once `drain_until(t)`
/// has been called, no event at or before `t` may appear later. They must
/// also be deterministic for seeded engine runs to reproduce.
pub trait ChurnProcess: Send {
    /// Appends every not-yet-delivered event with `at <= now` to `out`,
    /// in time order.
    fn drain_until(&mut self, now: Seconds, out: &mut Vec<ChurnEvent>);

    /// Scales the process's arrival rate by `factor` (timeline
    /// `load_ramp` events call this). Precomputed traces cannot change
    /// rate after the fact, so the default is a no-op; rate-aware
    /// processes such as [`AdaptivePoissonChurn`] override it.
    fn scale_rate(&mut self, _factor: f64) {}
}

/// Replays a precomputed [`ChurnTrace`].
#[derive(Debug, Clone)]
pub struct TraceChurn {
    events: Vec<ChurnEvent>,
    next: usize,
}

impl TraceChurn {
    /// Wraps a trace for replay.
    pub fn new(trace: ChurnTrace) -> Self {
        Self {
            events: trace.into_events(),
            next: 0,
        }
    }

    /// Convenience: generates a seeded [`PoissonChurn`] trace over
    /// `horizon` and wraps it.
    pub fn poisson(model: &PoissonChurn, horizon: Seconds, seed: u64) -> Self {
        Self::new(model.trace(horizon, seed))
    }

    /// Events not yet delivered.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl ChurnProcess for TraceChurn {
    fn drain_until(&mut self, now: Seconds, out: &mut Vec<ChurnEvent>) {
        while self.next < self.events.len() && self.events[self.next].at.as_secs() <= now.as_secs()
        {
            out.push(self.events[self.next]);
            self.next += 1;
        }
    }
}

/// A Poisson arrival process generated *lazily*, so its rate can change
/// mid-run: timeline `load_ramp` events multiply the arrival rate and
/// every later inter-arrival gap is drawn at the new rate (the pending
/// gap is rescaled proportionally). Departures are exponential sojourns
/// scheduled at each arrival, exactly like
/// [`mec_workloads::PoissonChurn`].
///
/// Runs are deterministic functions of `(parameters, seed, the times at
/// which `scale_rate` is called)` — the engine calls it at epoch
/// boundaries, which are themselves deterministic.
#[derive(Debug, Clone)]
pub struct AdaptivePoissonChurn {
    rng: StdRng,
    rate_hz: f64,
    mean_sojourn_s: f64,
    /// Absolute time of the next (not yet emitted) arrival.
    next_arrival_s: f64,
    /// Time the pending inter-arrival gap was anchored at (its draw
    /// time); rate changes rescale the gap relative to this point.
    anchor_s: f64,
    next_id: u64,
    /// Scheduled but not yet emitted departures, sorted by time.
    pending: Vec<ChurnEvent>,
}

impl AdaptivePoissonChurn {
    /// Creates the process: `initial_users` arrive at `t = 0`, later
    /// arrivals follow a Poisson process of `arrival_rate_hz`, and every
    /// user stays an exponential sojourn of mean `mean_sojourn`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a negative/non-finite rate
    /// or a non-positive sojourn.
    pub fn new(
        initial_users: usize,
        arrival_rate_hz: f64,
        mean_sojourn: Seconds,
        seed: u64,
    ) -> Result<Self, Error> {
        if !arrival_rate_hz.is_finite() || arrival_rate_hz < 0.0 {
            return Err(Error::invalid(
                "arrival_rate_hz",
                "must be finite and non-negative",
            ));
        }
        if !mean_sojourn.as_secs().is_finite() || mean_sojourn.as_secs() <= 0.0 {
            return Err(Error::invalid("mean_sojourn", "must be positive"));
        }
        let mean_sojourn_s = mean_sojourn.as_secs();
        let mut this = Self {
            rng: StdRng::seed_from_u64(seed),
            rate_hz: arrival_rate_hz,
            mean_sojourn_s,
            next_arrival_s: f64::INFINITY,
            anchor_s: 0.0,
            next_id: 0,
            pending: Vec::new(),
        };
        // Initial population: arrivals at t = 0 with their departures.
        for _ in 0..initial_users {
            let id = this.next_id;
            this.next_id += 1;
            this.insert_pending(ChurnEvent {
                at: Seconds::new(0.0),
                user: id,
                kind: ChurnEventKind::Arrival,
            });
            let sojourn = sample_exponential(mean_sojourn_s, &mut this.rng);
            this.insert_pending(ChurnEvent {
                at: Seconds::new(sojourn),
                user: id,
                kind: ChurnEventKind::Departure,
            });
        }
        this.next_arrival_s = this.draw_gap(0.0);
        Ok(this)
    }

    /// Current arrival rate (after any ramps).
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    fn draw_gap(&mut self, from_s: f64) -> f64 {
        self.anchor_s = from_s;
        if self.rate_hz > 0.0 {
            from_s + sample_exponential(1.0 / self.rate_hz, &mut self.rng)
        } else {
            f64::INFINITY
        }
    }

    fn insert_pending(&mut self, event: ChurnEvent) {
        // Stable order: time, then arrivals before departures, then id —
        // the canonical trace order.
        let key = |e: &ChurnEvent| {
            (
                e.at.as_secs(),
                matches!(e.kind, ChurnEventKind::Departure),
                e.user,
            )
        };
        let pos = self.pending.partition_point(|e| key(e) <= key(&event));
        self.pending.insert(pos, event);
    }
}

impl ChurnProcess for AdaptivePoissonChurn {
    fn drain_until(&mut self, now: Seconds, out: &mut Vec<ChurnEvent>) {
        let now_s = now.as_secs();
        loop {
            let pending_at = self.pending.first().map(|e| e.at.as_secs());
            let arrival_due =
                self.next_arrival_s <= now_s && pending_at.is_none_or(|p| self.next_arrival_s <= p);
            if arrival_due {
                let at = self.next_arrival_s;
                let id = self.next_id;
                self.next_id += 1;
                out.push(ChurnEvent {
                    at: Seconds::new(at),
                    user: id,
                    kind: ChurnEventKind::Arrival,
                });
                let sojourn = sample_exponential(self.mean_sojourn_s, &mut self.rng);
                self.insert_pending(ChurnEvent {
                    at: Seconds::new(at + sojourn),
                    user: id,
                    kind: ChurnEventKind::Departure,
                });
                self.next_arrival_s = self.draw_gap(at);
            } else if pending_at.is_some_and(|p| p <= now_s) {
                out.push(self.pending.remove(0));
            } else {
                return;
            }
        }
    }

    fn scale_rate(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate factor must be positive"
        );
        self.rate_hz *= factor;
        if self.next_arrival_s.is_finite() {
            // Rescale the pending gap so the memoryless property holds at
            // the new rate.
            self.next_arrival_s = self.anchor_s + (self.next_arrival_s - self.anchor_s) / factor;
        } else if self.rate_hz > 0.0 {
            self.next_arrival_s = self.draw_gap(self.anchor_s);
        }
    }
}

/// Inverse-CDF exponential sampling (mirrors the private helper in
/// `mec_workloads::churn`).
fn sample_exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at: f64, user: u64, kind: ChurnEventKind) -> ChurnEvent {
        ChurnEvent {
            at: Seconds::new(at),
            user,
            kind,
        }
    }

    #[test]
    fn drains_in_windows_without_replay() {
        let trace = ChurnTrace::from_events(vec![
            event(0.0, 0, ChurnEventKind::Arrival),
            event(3.0, 1, ChurnEventKind::Arrival),
            event(7.0, 0, ChurnEventKind::Departure),
        ]);
        let mut process = TraceChurn::new(trace);
        assert_eq!(process.remaining(), 3);

        let mut out = Vec::new();
        process.drain_until(Seconds::new(0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].user, 0);

        out.clear();
        process.drain_until(Seconds::new(5.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].user, 1);

        out.clear();
        process.drain_until(Seconds::new(100.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ChurnEventKind::Departure);
        assert_eq!(process.remaining(), 0);

        // Nothing left.
        out.clear();
        process.drain_until(Seconds::new(1000.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn poisson_constructor_matches_manual_wrapping() {
        let model = PoissonChurn::new(3, 0.2, Seconds::new(50.0)).unwrap();
        let a = TraceChurn::poisson(&model, Seconds::new(100.0), 9);
        let b = TraceChurn::new(model.trace(Seconds::new(100.0), 9));
        assert_eq!(a.remaining(), b.remaining());
    }

    #[test]
    fn adaptive_poisson_is_deterministic_and_ordered() {
        let run = |seed: u64| {
            let mut p = AdaptivePoissonChurn::new(4, 0.2, Seconds::new(30.0), seed).unwrap();
            let mut out = Vec::new();
            for t in [0.0, 10.0, 20.0, 50.0, 100.0] {
                p.drain_until(Seconds::new(t), &mut out);
            }
            out
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a, run(4));
        // Time order, arrivals at t = 0 for the initial population.
        assert!(a.windows(2).all(|w| w[0].at.as_secs() <= w[1].at.as_secs()));
        assert_eq!(
            a.iter()
                .filter(|e| e.at.as_secs() == 0.0 && e.kind == ChurnEventKind::Arrival)
                .count(),
            4
        );
        // Every departure follows its own arrival.
        for e in a.iter().filter(|e| e.kind == ChurnEventKind::Departure) {
            let arr = a
                .iter()
                .find(|x| x.user == e.user && x.kind == ChurnEventKind::Arrival)
                .expect("departure has an arrival");
            assert!(arr.at.as_secs() <= e.at.as_secs());
        }
    }

    #[test]
    fn ramped_rate_accelerates_arrivals() {
        let horizon = 400.0;
        let arrivals = |ramp: Option<f64>| {
            let mut p = AdaptivePoissonChurn::new(0, 0.05, Seconds::new(1e9), 7).unwrap();
            let mut out = Vec::new();
            p.drain_until(Seconds::new(horizon / 2.0), &mut out);
            if let Some(factor) = ramp {
                p.scale_rate(factor);
            }
            p.drain_until(Seconds::new(horizon), &mut out);
            out.iter()
                .filter(|e| e.kind == ChurnEventKind::Arrival)
                .count()
        };
        let flat = arrivals(None);
        let ramped = arrivals(Some(8.0));
        assert!(
            ramped > flat,
            "8x ramp should add arrivals: flat {flat}, ramped {ramped}"
        );
        // A precomputed trace ignores ramps (default no-op).
        let model = PoissonChurn::new(1, 0.1, Seconds::new(50.0)).unwrap();
        let mut t = TraceChurn::poisson(&model, Seconds::new(100.0), 1);
        let before = t.remaining();
        t.scale_rate(100.0);
        assert_eq!(t.remaining(), before);
    }

    #[test]
    fn zero_rate_stays_silent_even_after_ramps() {
        let mut p = AdaptivePoissonChurn::new(0, 0.0, Seconds::new(10.0), 0).unwrap();
        p.scale_rate(5.0);
        let mut out = Vec::new();
        p.drain_until(Seconds::new(1e6), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.rate_hz(), 0.0);
    }
}
