//! # tsajs
//!
//! The paper's primary contribution: **TSAJS**, a joint task-offloading and
//! resource-allocation scheme for multi-server MEC built from
//!
//! * **TTSA** — Threshold-Triggered Simulated Annealing over the discrete
//!   offloading-decision space (Algorithm 1), with the paper's four-way
//!   neighborhood move kernel (Algorithm 2), and
//! * the **closed-form KKT** computing-resource allocation (Eq. 22),
//!   already folded into the exact objective `J*(X)` evaluated by
//!   `mec-system`.
//!
//! The "threshold trigger" is what distinguishes TTSA from plain simulated
//! annealing: accepted *worsening* moves are counted, and when the count
//! crosses `maxCount = 1.75·L` the cooling rate switches from the slow
//! `α₁ = 0.97` to the fast `α₂ = 0.90` and the counter resets — spending
//! temperature budget where the landscape is rough and sprinting through
//! plateaus.
//!
//! ## Quickstart
//!
//! ```
//! use tsajs::{TsajsSolver, TtsaConfig};
//! use mec_system::{Scenario, Solver, UserSpec};
//! use mec_radio::{ChannelGains, OfdmaConfig};
//! use mec_types::{constants, Cycles, ServerProfile};
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! let scenario = Scenario::new(
//!     vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0))?; 4],
//!     vec![ServerProfile::paper_default(); 2],
//!     OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, 2)?,
//!     ChannelGains::uniform(4, 2, 2, 1e-10)?,
//!     constants::DEFAULT_NOISE.to_watts(),
//! )?;
//!
//! let mut solver = TsajsSolver::new(TtsaConfig::paper_default().with_seed(42));
//! let solution = solver.solve(&scenario)?;
//! assert!(solution.utility > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path layout gates: range loops that should be iterator/chunk sweeps
// and oversized stack buffers are bugs here, not style.
#![deny(clippy::needless_range_loop)]
#![deny(clippy::large_stack_arrays)]

pub mod annealing;
pub mod config;
pub mod moves;
pub mod power;
pub mod shard;
pub mod solver;
pub mod tempering;
pub mod trace;

pub use annealing::{anneal, anneal_from};
pub use config::{
    Cooling, InitialSolution, InitialTemperature, ResolveMode, SearchStrategy, TemperingConfig,
    TtsaConfig, DEFAULT_REFRESH_TEMPERATURE,
};
pub use moves::{MoveKind, MoveMix, NeighborhoodKernel};
pub use power::{solve_with_power_control, PowerControlConfig, PowerControlOutcome};
pub use shard::{
    cluster_external, halo_totals, publish_halo_delta, resolve_sharded, solve_sharded, Descent,
    Partition, ShardConfig, ShardOutcome, ShardRun, ShardSolver, ShardStats,
    DESCENT_IMPROVEMENT_FLOOR,
};
pub use solver::TsajsSolver;
pub use tempering::{temper, temper_from};
pub use trace::{EpochRecord, SearchTrace};
