//! # mec-workloads
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V):
//!
//! * [`params`] — the paper's default simulation parameters as a
//!   composable [`ExperimentParams`] value,
//! * [`generator`] — seeded scenario generation (hex layout → uniform user
//!   placement → shadowed channels → [`mec_system::Scenario`]),
//! * [`runner`] — multi-trial, thread-parallel solver execution,
//! * [`stats`] — mean / standard deviation / 95 % confidence intervals,
//! * [`report`] — markdown and CSV rendering of result tables,
//! * [`experiments`] — one driver per figure (`fig3` … `fig9`), each
//!   returning the rows the corresponding plot is drawn from.
//!
//! ## Example: a miniature Fig. 3 row
//!
//! ```
//! use mec_workloads::{ExperimentParams, ScenarioGenerator};
//! use mec_baselines::GreedySolver;
//! use mec_system::Solver;
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! let params = ExperimentParams::small_network(); // U=6, S=4, N=2
//! let scenario = ScenarioGenerator::new(params).generate(42)?;
//! let solution = GreedySolver::new().solve(&scenario)?;
//! assert!(solution.utility.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod generator;
pub mod params;
pub mod report;
pub mod runner;
pub mod stats;

pub use generator::{epoch_seed, ScenarioGenerator, CHAIN_STREAM, SHADOWING_STREAM};
pub use params::{ExperimentParams, PlacementModel, Preset};
pub use report::Table;
pub use runner::{run_trials, TrialOutcome};
pub use stats::{paired_difference, SampleStats};
