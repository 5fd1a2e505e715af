//! # tsajs-mec
//!
//! Umbrella crate for the TSAJS reproduction: re-exports the whole stack
//! so applications can depend on a single crate.
//!
//! * [`types`] — units, ids, tasks, devices, preferences ([`mec_types`])
//! * [`topology`] — hexagonal layouts and user placement ([`mec_topology`])
//! * [`radio`] — path loss, shadowing, OFDMA, SINR ([`mec_radio`])
//! * [`system`] — scenarios, assignments, KKT allocation, objective
//!   ([`mec_system`])
//! * [`tsajs`] — the TTSA solver (the paper's contribution)
//! * [`baselines`] — exhaustive / hJTORA / greedy / local-search solvers
//!   ([`mec_baselines`])
//! * [`workloads`] — experiment harness for every paper figure
//!   ([`mec_workloads`])
//! * [`online`] — event-driven online engine: churn, random-waypoint
//!   mobility, warm-started re-solves, SLA tracking ([`mec_online`])
//! * [`conformance`] — seeded oracle harness: invariant checks, solver
//!   differential/metamorphic testing, online replay
//!   ([`mec_conformance`])
//! * [`service`] — the C-RAN scheduler service (the paper's centralized
//!   BBU): micro-batched ingestion, lock-free snapshots, degradation
//!   tiers, loadtest harness ([`mec_service`])
//! * [`viz`] — dependency-free SVG rendering of networks and schedules
//!   ([`mec_viz`])
//!
//! ## Quickstart
//!
//! ```
//! use tsajs_mec::prelude::*;
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! // Generate a paper-default scenario and schedule it with TSAJS.
//! let params = ExperimentParams::paper_default().with_users(12);
//! let scenario = ScenarioGenerator::new(params).generate(7)?;
//! let mut solver = TsajsSolver::new(
//!     TtsaConfig::paper_default().with_min_temperature(1e-3).with_seed(7),
//! );
//! let solution = solver.solve(&scenario)?;
//! println!("system utility: {:.3}", solution.utility);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mec_baselines as baselines;
pub use mec_conformance as conformance;
pub use mec_online as online;
pub use mec_radio as radio;
pub use mec_service as service;
pub use mec_system as system;
pub use mec_topology as topology;
pub use mec_types as types;
pub use mec_viz as viz;
pub use mec_workloads as workloads;
pub use tsajs;

/// The most common imports in one place.
pub mod prelude {
    pub use mec_baselines::{
        AllLocalSolver, ExhaustiveSolver, GreedySolver, HJtoraSolver, LocalSearchSolver,
        RandomSolver,
    };
    pub use mec_conformance::{run_conformance, ConformanceConfig, VerdictReport};
    pub use mec_radio::{ChannelGains, ChannelModel, OfdmaConfig};
    pub use mec_system::{
        Assignment, Evaluator, Scenario, Solution, Solver, SystemEvaluation, UserSpec,
    };
    pub use mec_topology::{NetworkLayout, Point2};
    pub use mec_types::{
        constants, Bits, Cycles, DeviceProfile, Error, Hertz, ProviderPreference, Seconds,
        ServerId, ServerProfile, SubchannelId, Task, UserId, UserPreferences, Watts,
    };
    pub use mec_workloads::{ExperimentParams, Preset, SampleStats, ScenarioGenerator};
    pub use tsajs::{ShardConfig, ShardSolver, TsajsSolver, TtsaConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_work() {
        use crate::prelude::*;
        let _ = ExperimentParams::paper_default();
        let _ = TtsaConfig::paper_default();
        let _ = GreedySolver::new();
    }
}
