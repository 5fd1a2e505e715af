//! # mec-system
//!
//! The JTORA (Joint Task Offloading and Resource Allocation) problem
//! substrate: scenario construction, feasible offloading decisions
//! (constraints 12b–12d), closed-form KKT computing-resource allocation
//! (Eqs. 20–23), objective evaluation (Eqs. 5–11, 16–19, 24) and the
//! [`Solver`] abstraction implemented by `tsajs` and every baseline.
//!
//! ## The model in brief
//!
//! Each user either runs its task locally or offloads it to exactly one
//! `(server, subchannel)` pair. Offloading costs uplink time/energy
//! (interference-coupled across cells) plus execution time on the server's
//! share of compute; the benefit `J_u` weighs relative time and energy
//! savings by user preferences. For any fixed decision, the optimal compute
//! split is the closed-form square-root rule `f*_us ∝ √η_u` — so the whole
//! problem reduces to searching the discrete decision space with the exact
//! `J*(X)` from Eq. 24 as the score, which is what [`Evaluator::objective`]
//! computes.
//!
//! ## Example
//!
//! ```
//! use mec_system::{Assignment, Evaluator, Scenario, UserSpec};
//! use mec_radio::{ChannelGains, OfdmaConfig};
//! use mec_types::*;
//!
//! # fn main() -> std::result::Result<(), mec_types::Error> {
//! // Two users, one server, two subchannels, clean 1e-10 channels.
//! let users = vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0))?; 2];
//! let scenario = Scenario::new(
//!     users,
//!     vec![ServerProfile::paper_default(); 1],
//!     OfdmaConfig::new(Hertz::from_mega(20.0), 2)?,
//!     ChannelGains::uniform(2, 1, 2, 1e-10)?,
//!     constants::DEFAULT_NOISE.to_watts(),
//! )?;
//!
//! let mut x = Assignment::all_local(&scenario);
//! x.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))?;
//! x.assign(UserId::new(1), ServerId::new(0), SubchannelId::new(1))?;
//!
//! let evaluator = Evaluator::new(&scenario);
//! let report = evaluator.evaluate(&x)?;
//! assert!(report.system_utility > 0.0, "offloading should pay off here");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path layout gates: range loops that should be iterator/chunk sweeps
// and oversized stack buffers are bugs here, not style.
#![deny(clippy::needless_range_loop)]
#![deny(clippy::large_stack_arrays)]

pub mod allocation;
pub mod assignment;
pub mod coefficients;
#[cfg(test)]
mod cra_numeric;
pub mod evaluation;
pub mod incremental;
pub mod metrics;
pub mod scenario;
pub mod simd;
pub mod snapshot;
pub mod solver;

pub use allocation::{
    equal_share_allocation, kkt_allocation, optimal_lambda_cost, ResourceAllocation,
};
pub use assignment::{reassigned_survivors, survivor_map, Assignment};
pub use coefficients::{CoefficientBlocks, UserCoefficients};
pub use evaluation::{EvalScratch, Evaluator};
pub use incremental::{IncrementalObjective, MoveDesc, ObjectiveTables, PrimOp};
pub use metrics::{SystemEvaluation, UserMetrics};
pub use scenario::{Scenario, UserSpec};
pub use snapshot::ScenarioSnapshot;
pub use solver::{Solution, Solver, SolverStats};
