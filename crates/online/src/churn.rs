//! The event source feeding the engine: arrivals and departures.
//!
//! The engine does not care *how* churn events are produced — it drains
//! whatever the configured [`ChurnProcess`] yields, in time order. The
//! stock process is [`PoissonChurn`], the classic M/M/∞ population model:
//! with arrival rate `λ` and mean sojourn `E[W]`, the steady-state
//! population is `λ·E[W]` users — calibrate both to hit a target
//! population and churn fraction. Custom processes (a scripted schedule,
//! a recorded event log) just implement the trait.

use mec_types::{Error, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Whether a churn event brings a user in or takes one out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// The user enters the system and requests scheduling.
    Arrival,
    /// The user leaves the system; its slot (if any) is freed.
    Departure,
}

/// One arrival or departure, stamped with the user's stable id.
///
/// Ids are stable across the whole run: the departure of user `k`
/// refers to the same `k` that arrived earlier, regardless of how many
/// other users came and went in between.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Simulated time of the event.
    pub at: Seconds,
    /// Stable user id.
    pub user: u64,
    /// Arrival or departure.
    pub kind: ChurnEventKind,
}

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
    /// `load_ramp` events call this). A scripted process has no rate to
    /// change, so the default is a no-op; [`PoissonChurn`] overrides it.
    fn scale_rate(&mut self, _factor: f64) {}
}

/// The M/M/∞ churn process: `initial_users` present at `t = 0`, new users
/// arriving as a Poisson process, every user (initial ones included)
/// staying for an independent exponential sojourn.
///
/// Events are generated *lazily*, so the rate can change mid-run:
/// timeline `load_ramp` events multiply the arrival rate and every later
/// inter-arrival gap is drawn at the new rate (the pending gap is
/// rescaled proportionally). Departures are scheduled at each arrival.
///
/// Runs are deterministic functions of `(parameters, seed, the times at
/// which `scale_rate` is called)` — the engine calls it at epoch
/// boundaries, which are themselves deterministic.
#[derive(Debug, Clone)]
pub struct PoissonChurn {
    rng: StdRng,
    rate_hz: f64,
    mean_sojourn_s: f64,
    /// Absolute time of the next (not yet emitted) arrival.
    next_arrival_s: f64,
    /// Time the pending inter-arrival gap was anchored at (its draw
    /// time); rate changes rescale the gap relative to this point.
    anchor_s: f64,
    next_id: u64,
    /// Scheduled but not yet emitted events (the initial arrivals and
    /// every departure), earliest on top.
    pending: BinaryHeap<Reverse<Pending>>,
}

/// A queued event under the process's total order: time, then arrivals
/// before departures, then id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending(ChurnEvent);

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        let rank = |e: &ChurnEvent| (matches!(e.kind, ChurnEventKind::Departure), e.user);
        let (a, b) = (&self.0, &other.0);
        a.at.as_secs()
            .total_cmp(&b.at.as_secs())
            .then_with(|| rank(a).cmp(&rank(b)))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PoissonChurn {
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
            pending: BinaryHeap::with_capacity(2 * initial_users),
        };
        // Initial population: arrivals at t = 0 with their departures.
        for _ in 0..initial_users {
            let id = this.next_id;
            this.next_id += 1;
            this.push_pending(ChurnEvent {
                at: Seconds::new(0.0),
                user: id,
                kind: ChurnEventKind::Arrival,
            });
            let sojourn = sample_exponential(mean_sojourn_s, &mut this.rng);
            this.push_pending(ChurnEvent {
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

    fn push_pending(&mut self, event: ChurnEvent) {
        self.pending.push(Reverse(Pending(event)));
    }
}

impl ChurnProcess for PoissonChurn {
    fn drain_until(&mut self, now: Seconds, out: &mut Vec<ChurnEvent>) {
        let now_s = now.as_secs();
        loop {
            let pending_at = self.pending.peek().map(|Reverse(p)| p.0.at.as_secs());
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
                self.push_pending(ChurnEvent {
                    at: Seconds::new(at + sojourn),
                    user: id,
                    kind: ChurnEventKind::Departure,
                });
                self.next_arrival_s = self.draw_gap(at);
            } else if pending_at.is_some_and(|p| p <= now_s) {
                let Reverse(Pending(event)) = self.pending.pop().expect("peeked");
                out.push(event);
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

/// Inverse-CDF exponential sample with the given mean; `1 - u` keeps the
/// argument of `ln` in `(0, 1]`. Adding `0.0` turns the `u = 0` draw's
/// −0 into +0 (and changes no other value), so a zero sojourn still
/// orders after its arrival at the same time under `total_cmp`.
pub(crate) fn sample_exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln() + 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(p: &mut PoissonChurn, times: &[f64]) -> Vec<ChurnEvent> {
        let mut out = Vec::new();
        for &t in times {
            p.drain_until(Seconds::new(t), &mut out);
        }
        out
    }

    fn arrivals(events: &[ChurnEvent]) -> impl Iterator<Item = &ChurnEvent> {
        events.iter().filter(|e| e.kind == ChurnEventKind::Arrival)
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let sojourn = Seconds::new(10.0);
        assert!(PoissonChurn::new(1, -1.0, sojourn, 0).is_err());
        assert!(PoissonChurn::new(1, f64::NAN, sojourn, 0).is_err());
        assert!(PoissonChurn::new(1, f64::INFINITY, sojourn, 0).is_err());
        assert!(PoissonChurn::new(1, 1.0, Seconds::new(0.0), 0).is_err());
        assert!(PoissonChurn::new(1, 1.0, Seconds::new(f64::NAN), 0).is_err());
    }

    #[test]
    fn poisson_is_deterministic_and_ordered() {
        // (initial users, rate Hz, mean sojourn s, drain times)
        let cases: [(usize, f64, f64, &[f64]); 2] = [
            (4, 0.2, 30.0, &[0.0, 10.0, 20.0, 50.0, 100.0]),
            (5, 1.0, 30.0, &[0.0, 25.0, 50.0, 75.0, 100.0, 200.0]),
        ];
        for (initial, rate, sojourn, times) in cases {
            let run = |seed: u64| {
                let mut p = PoissonChurn::new(initial, rate, Seconds::new(sojourn), seed).unwrap();
                drain(&mut p, times)
            };
            let a = run(3);
            assert_eq!(a, run(3));
            assert_ne!(a, run(4));
            // The full key order: time, then arrivals before departures,
            // then id. So the initial population arrives first, at t = 0,
            // ascending by id.
            let key =
                |e: &ChurnEvent| (e.at.as_secs(), e.kind == ChurnEventKind::Departure, e.user);
            assert!(a.windows(2).all(|w| key(&w[0]) < key(&w[1])));
            assert!(a[..initial]
                .iter()
                .zip(0..)
                .all(|(e, id)| e.kind == ChurnEventKind::Arrival
                    && e.at.as_secs() == 0.0
                    && e.user == id));
            assert_eq!(
                arrivals(&a).filter(|e| e.at.as_secs() == 0.0).count(),
                initial
            );
            // Every departure falls strictly after its own arrival.
            for e in a.iter().filter(|e| e.kind == ChurnEventKind::Departure) {
                let arr = arrivals(&a)
                    .find(|x| x.user == e.user)
                    .expect("departure has an arrival");
                assert!(arr.at.as_secs() < e.at.as_secs());
            }
        }
    }

    #[test]
    fn steady_state_population_is_approached() {
        // λ = 0.9/s, E[W] = 100 s ⇒ ~90 users in steady state.
        let mut p = PoissonChurn::new(90, 0.9, Seconds::new(100.0), 11).unwrap();
        let population: i64 = drain(&mut p, &[300.0])
            .iter()
            .map(|e| match e.kind {
                ChurnEventKind::Arrival => 1,
                ChurnEventKind::Departure => -1,
            })
            .sum();
        assert!(
            (50..=130).contains(&population),
            "population drifted to {population}"
        );
    }

    #[test]
    fn ramped_rate_accelerates_arrivals() {
        let horizon = 400.0;
        let arrivals = |ramp: Option<f64>| {
            let mut p = PoissonChurn::new(0, 0.05, Seconds::new(1e9), 7).unwrap();
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
    }

    #[test]
    fn zero_rate_stays_silent_even_after_ramps() {
        let mut p = PoissonChurn::new(0, 0.0, Seconds::new(10.0), 0).unwrap();
        p.scale_rate(5.0);
        let mut out = Vec::new();
        p.drain_until(Seconds::new(1e6), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.rate_hz(), 0.0);

        // With an initial population, rate 0 yields only its arrivals, all
        // at t = 0, and a repeated drain at the same time replays nothing.
        let mut p = PoissonChurn::new(4, 0.0, Seconds::new(10.0), 0).unwrap();
        let first = drain(&mut p, &[0.0, 1000.0]);
        assert_eq!(arrivals(&first).count(), 4);
        assert!(arrivals(&first).all(|e| e.at.as_secs() == 0.0));
        assert!(drain(&mut p, &[1000.0]).is_empty(), "no replay");
    }
}
