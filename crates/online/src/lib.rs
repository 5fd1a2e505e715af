//! Event-driven online scheduling for the TSAJS MEC model.
//!
//! The offline solver ([`tsajs`]) answers "given this snapshot of users,
//! what is the best joint offloading/subchannel/compute decision?". This
//! crate keeps that answer *alive* while the population churns: users
//! arrive by a Poisson process, sojourn for an exponential time, move
//! between epochs, and depart — and every scheduling epoch the engine
//! patches the previous decision onto the surviving population and
//! re-solves with a warm-started, reduced-temperature TTSA refresh on the
//! incremental evaluation path.
//!
//! The moving parts:
//!
//! - [`OnlineEngine`] — the step/run API; one [`OnlineEpochReport`] per
//!   epoch, plus an [`SlaLog`] of per-user outcomes at departure.
//! - [`ChurnProcess`] — pluggable arrival/departure event source;
//!   [`PoissonChurn`] is the seeded M/M/∞ process (Poisson arrivals,
//!   exponential sojourns) whose rate timeline `load_ramp` events scale.
//! - [`AdmissionPolicy`] — pluggable overload control; [`AdmitAll`] and
//!   [`CapacityGate`] (reject vs. force-local) are built in.
//! - [`RandomWaypoint`] — the users' motion between epochs. A static
//!   population ([`OnlineEngine::with_static_population`]) only moves:
//!   the setting of the `dynamics` study and `tsajs-sim simulate`.
//!
//! # Example
//!
//! ```
//! use mec_online::{AdmitAll, OnlineConfig, OnlineEngine, PoissonChurn};
//! use mec_types::Seconds;
//! use mec_workloads::ExperimentParams;
//! use tsajs::{ResolveMode, TtsaConfig};
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! let params = ExperimentParams::paper_default().with_servers(3);
//! let config = OnlineConfig::pedestrian()
//!     .with_base(TtsaConfig::paper_default().with_min_temperature(1e-2))
//!     .with_mode(ResolveMode::warm(150));
//! let churn = PoissonChurn::new(6, 0.05, Seconds::new(120.0), 7)?;
//! let mut engine = OnlineEngine::new(
//!     params,
//!     config,
//!     Box::new(churn),
//!     Box::new(AdmitAll),
//!     7,
//! )?;
//! let reports = engine.run(3)?;
//! assert_eq!(reports.len(), 3);
//! assert!(reports.iter().all(|r| r.utility >= 0.0));
//! # Ok(())
//! # }
//! ```
//!
//! Determinism: a run is a pure function of `(params, config, churn,
//! seed)`. Motion draws from a stream seeded with `seed`, each epoch's
//! scenario from `epoch_seed(seed, epoch)` (or `seed` while shadowing is
//! held) and the re-solve from `seed ^ CHAIN_STREAM`, so equal seeds yield
//! bit-identical report streams.

#![warn(missing_docs)]

pub mod admission;
pub mod churn;
pub mod engine;
pub mod events;
pub mod sla;
pub mod waypoint;

pub use admission::{
    AdmissionContext, AdmissionDecision, AdmissionPolicy, AdmitAll, CapacityGate, OverflowAction,
};
pub use churn::{ChurnEvent, ChurnEventKind, ChurnProcess, PoissonChurn};
pub use engine::{OnlineConfig, OnlineEngine, OnlineEpochReport};
pub use events::{EngineEvent, EventSchedule, TimedEvent};
pub use sla::{CompletedUser, SlaLog};
pub use waypoint::RandomWaypoint;
