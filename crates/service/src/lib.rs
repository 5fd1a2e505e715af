//! # mec-service
//!
//! The production scheduler service: everything between a raw request
//! stream and a published scheduling decision.
//!
//! The solver stack below this crate is batch-shaped — give it a
//! [`mec_system::Scenario`], get an [`mec_system::Assignment`]. This
//! crate promotes it to a *service* under sustained load, the setting
//! the TSAJS paper actually targets (and the ROADMAP's north star):
//!
//! * [`batch`] — micro-batched ingestion: arrivals/departures accumulate
//!   under a size/age policy and each batch costs **one** warm-started
//!   re-solve instead of one refresh per request;
//! * [`snapshot`] — lock-free read snapshots: query traffic loads the
//!   live decision through a hand-rolled arc-swap
//!   ([`snapshot::SnapshotCell`]), so reads never block the solve loop;
//! * [`tier`] — graceful degradation: `Full` (warm tempered ladder) →
//!   `Shortened` (reduced warm anneal) → `GreedyAdmit` (admission only),
//!   driven by backlog depth and batch age, with hysteresis and a
//!   deterministic transition log;
//! * [`metrics`] — the operational surface: per-batch throughput,
//!   p50/p99 decision latency, SLA hit rate, tier occupancy, overload
//!   rejections; streamed as JSONL and dumped as Prometheus text;
//! * [`core`] — the deterministic, clock-free core tying it together,
//!   with an ingestion log whose cold replay reproduces the final
//!   assignment bit-for-bit;
//! * [`runtime`] — the threaded wrapper: bounded ingestion queue (a full
//!   queue answers [`ServiceError::Overloaded`]), one solve loop,
//!   cloneable lock-free readers;
//! * [`loadtest`] — the closed-loop harness: binary-search the maximum
//!   sustainable arrival rate at a p99 decision-latency SLO
//!   (`tsajs-sim loadtest`, `BENCH_service.json`).
//!
//! See DESIGN.md §6 for the architecture and docs/SERVICE.md for a
//! quickstart.
//!
//! ## Example
//!
//! ```
//! use mec_service::{RequestKind, SchedulerCore, ServiceConfig, ServiceRequest};
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! let mut core = SchedulerCore::new(ServiceConfig::quick(7))?;
//! for user in 0..5 {
//!     core.submit(ServiceRequest::arrival(user, 0.0));
//! }
//! core.flush(0.05)?;
//! let snapshot = core.snapshot();
//! assert_eq!(snapshot.users.len(), 5);
//! println!("utility {:.3} at version {}", snapshot.utility, snapshot.version);
//! # Ok(())
//! # }
//! ```

// The snapshot module is the workspace's single audited exception to the
// no-unsafe rule (see its module docs for the reclamation proof); deny
// everywhere else.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod core;
pub mod loadtest;
pub mod metrics;
pub mod runtime;
pub mod snapshot;
pub mod tier;

pub use batch::{Batch, BatchPolicy, MicroBatcher, RequestKind, ServiceRequest};
pub use core::{BatchReport, LogEntry, SchedulerCore, ServiceConfig, ServiceSnapshot};
pub use loadtest::{run_loadtest, LoadtestConfig, LoadtestOutcome, LoadtestReport, ProbeOutcome};
pub use metrics::{LatencyHistogram, ServiceMetrics};
pub use runtime::{ServiceError, ServiceRuntime, SnapshotReader, DEFAULT_QUEUE_CAPACITY};
pub use snapshot::SnapshotCell;
pub use tier::{Tier, TierController, TierPolicy, TierTransition};
