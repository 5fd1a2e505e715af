//! # mec-baselines
//!
//! The comparison schemes from the paper's evaluation (§V):
//!
//! * [`ExhaustiveSolver`] — enumerates every feasible offloading decision
//!   (the global optimum; only viable on small instances, exactly as in
//!   Fig. 3's confined network).
//! * [`HJtoraSolver`] — an hJTORA-style steepest-ascent heuristic after
//!   Tran & Pompili (TVT 2019), the paper's strongest baseline.
//! * [`GreedySolver`] — offloads every admissible task, strongest signal
//!   first.
//! * [`LocalSearchSolver`] — first-improvement hill climbing over the TTSA
//!   neighborhood.
//! * [`RandomSolver`] — best of `k` random feasible decisions (sanity
//!   floor, not in the paper's figures).
//! * [`AllLocalSolver`] — the do-nothing reference with utility 0.
//!
//! All of them implement [`mec_system::Solver`] and score candidates with
//! the same exact `J*(X)` objective as TSAJS, so utility comparisons are
//! apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot-path layout gates: range loops that should be iterator/chunk sweeps
// and oversized stack buffers are bugs here, not style.
#![deny(clippy::needless_range_loop)]
#![deny(clippy::large_stack_arrays)]

pub mod all_local;
pub mod exhaustive;
pub mod greedy;
pub mod hjtora;
pub mod hungarian;
pub mod local_search;
pub mod random;
pub mod upper_bound;

pub use all_local::AllLocalSolver;
pub use exhaustive::ExhaustiveSolver;
pub use greedy::GreedySolver;
pub use hjtora::HJtoraSolver;
pub use hungarian::max_weight_assignment;
pub use local_search::LocalSearchSolver;
pub use random::RandomSolver;
pub use upper_bound::{slot_values, upper_bound, UpperBound};
