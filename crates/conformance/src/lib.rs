//! # mec-conformance
//!
//! Conformance and differential-testing harness for the TSAJS
//! reproduction: a seeded scenario fuzzer ([`fuzz`]), an invariant
//! oracle tying any `(Scenario, Assignment)` pair back to the paper's
//! equations ([`oracle`]), a differential driver pitting every solver
//! against the exhaustive optimum and the certified upper bounds plus
//! metamorphic transforms ([`differential`]), and seed-replay
//! verification of the online engine ([`replay`]).
//!
//! The entry point is [`run_conformance`], which sweeps a range of
//! seeds and produces a JSON-serializable [`VerdictReport`] — the same
//! artifact the `tsajs-sim conformance` subcommand emits. Every check
//! is a pure function of its seed, so any failure in the report can be
//! replayed from the seed it names.
//!
//! ## Example
//!
//! ```
//! use mec_conformance::{run_conformance, ConformanceConfig};
//!
//! let report = run_conformance(&ConformanceConfig::smoke().with_seeds(3));
//! assert!(report.passed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod emit;
pub mod fuzz;
pub mod oracle;
pub mod replay;
pub mod report;

pub use emit::{explicit_spec, scenario_fingerprint, write_violation_artifacts};
pub use fuzz::FuzzConfig;
pub use oracle::Oracle;
pub use replay::ReplayConfig;
pub use report::{InvariantVerdict, VerdictReport};

/// Everything one conformance run does, in one knob set.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceConfig {
    /// Number of fuzzed scenario seeds to sweep.
    pub seeds: u64,
    /// First seed of the sweep (checks for seed `i` use `base_seed + i`).
    pub base_seed: u64,
    /// Relative tolerance for every residual check.
    pub tolerance: f64,
    /// Length of each random apply/undo/commit walk.
    pub moves_per_walk: usize,
    /// Proposal budget handed to the TTSA solver in differential runs.
    pub ttsa_budget: u64,
    /// Run the solver-panel differential on every `k`-th seed.
    pub differential_stride: u64,
    /// Run the metamorphic transforms on every `k`-th seed.
    pub metamorphic_stride: u64,
    /// Number of independent online replays.
    pub online_replays: u64,
    /// Epochs per online replay.
    pub online_epochs: usize,
    /// Scenario shape ranges.
    pub fuzz: FuzzConfig,
    /// Online run shape.
    pub replay: ReplayConfig,
}

impl ConformanceConfig {
    /// The fast tier-1 sweep: 200 seeds over small instances, with the
    /// expensive solver panel and metamorphic transforms strided so the
    /// whole run stays well under a minute.
    pub fn smoke() -> Self {
        Self {
            seeds: 200,
            base_seed: 0,
            tolerance: 1e-9,
            moves_per_walk: 48,
            ttsa_budget: 1500,
            differential_stride: 4,
            metamorphic_stride: 8,
            online_replays: 2,
            online_epochs: 4,
            fuzz: FuzzConfig::smoke(),
            replay: ReplayConfig::default(),
        }
    }

    /// The standalone-gate default (`tsajs-sim conformance`): every seed
    /// gets the full solver panel, every other seed the metamorphic
    /// transforms.
    pub fn standard() -> Self {
        Self {
            seeds: 50,
            differential_stride: 1,
            metamorphic_stride: 2,
            moves_per_walk: 64,
            online_replays: 3,
            online_epochs: 5,
            ..Self::smoke()
        }
    }

    /// The nightly deep sweep: more seeds, larger instances, longer
    /// walks, bigger budgets.
    pub fn deep() -> Self {
        Self {
            seeds: 400,
            moves_per_walk: 256,
            ttsa_budget: 5000,
            differential_stride: 1,
            metamorphic_stride: 1,
            online_replays: 6,
            online_epochs: 8,
            fuzz: FuzzConfig::deep(),
            ..Self::smoke()
        }
    }

    /// Overrides the number of seeds.
    pub fn with_seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds;
        self
    }

    /// Overrides the first seed.
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }
}

/// Sweeps `config.seeds` fuzzed instances through every invariant and
/// returns the aggregated verdict. Never panics on a failing invariant —
/// failures are collected into the report so a broken build still
/// produces a complete, actionable artifact.
pub fn run_conformance(config: &ConformanceConfig) -> VerdictReport {
    let oracle = Oracle::with_tolerance(config.tolerance);
    let mut feasibility = InvariantVerdict::new("feasibility_12b_12d");
    let mut kkt = InvariantVerdict::new("kkt_allocation_eq22");
    let mut bounds = InvariantVerdict::new("user_benefit_bounds_eq10");
    let mut incremental = InvariantVerdict::new("incremental_vs_resync");
    let mut order = InvariantVerdict::new("solver_partial_order");
    let mut threads = InvariantVerdict::new("tempering_thread_independence");
    let mut shard = InvariantVerdict::new("shard_equivalence");
    let mut shard_warm = InvariantVerdict::new("shard_warm_equivalence");
    let mut pipelined = InvariantVerdict::new("pipelined_halo_determinism");
    let mut permutation = InvariantVerdict::new("metamorphic_user_permutation");
    let mut rescale = InvariantVerdict::new("metamorphic_lambda_rescale");
    let mut online = InvariantVerdict::new("online_seed_replay");

    for i in 0..config.seeds {
        let seed = config.base_seed.wrapping_add(i);
        let scenario = fuzz::scenario(&config.fuzz, seed);
        let x = fuzz::assignment(
            &scenario,
            config.fuzz.offload_probability,
            seed ^ 0x9e37_79b9_7f4a_7c15,
        );
        feasibility.record(seed, oracle.check_feasibility(&scenario, &x));
        kkt.record(seed, oracle.check_kkt(&scenario, &x));
        bounds.record(seed, oracle.check_user_bounds(&scenario, &x));
        incremental.record(
            seed,
            oracle.check_incremental_walk(&scenario, seed, config.moves_per_walk),
        );
        if i % config.differential_stride.max(1) == 0 {
            order.record(
                seed,
                differential::check_partial_order(
                    &scenario,
                    seed,
                    config.ttsa_budget,
                    config.tolerance,
                ),
            );
            threads.record(
                seed,
                differential::check_thread_independence(&scenario, seed, config.ttsa_budget),
            );
            shard.record(
                seed,
                differential::check_shard_equivalence(&scenario, seed, config.tolerance),
            );
            shard_warm.record(
                seed,
                differential::check_shard_warm_equivalence(&scenario, seed, config.tolerance),
            );
            pipelined.record(
                seed,
                differential::check_pipelined_halo_determinism(&scenario, config.tolerance),
            );
        }
        if i % config.metamorphic_stride.max(1) == 0 {
            permutation.record(
                seed,
                differential::check_permutation(&scenario, seed, config.tolerance),
            );
            rescale.record(
                seed,
                differential::check_lambda_rescale(&scenario, 0.5, config.tolerance),
            );
        }
    }
    for r in 0..config.online_replays {
        // Salted away from the scenario seeds so replays explore churn
        // traces unrelated to the fuzz sweep.
        let seed = config.base_seed.wrapping_add(1_000_003 + r);
        online.record(
            seed,
            replay::check_online_replay(
                &config.replay,
                seed,
                config.online_epochs,
                config.tolerance,
            ),
        );
    }

    VerdictReport::new(
        config.seeds,
        config.base_seed,
        config.tolerance,
        vec![
            feasibility,
            kkt,
            bounds,
            incremental,
            order,
            threads,
            shard,
            shard_warm,
            pipelined,
            permutation,
            rescale,
            online,
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 acceptance sweep: ≥ 200 seeds, every invariant clean.
    #[test]
    fn smoke_sweep_has_zero_violations() {
        let config = ConformanceConfig::smoke();
        assert!(config.seeds >= 200);
        let report = run_conformance(&config);
        assert!(
            report.passed,
            "violations: {:?}",
            report
                .invariants
                .iter()
                .filter(|v| !v.ok())
                .map(|v| (v.invariant, &v.examples))
                .collect::<Vec<_>>()
        );
        // Every invariant actually ran.
        for verdict in &report.invariants {
            assert!(verdict.checks > 0, "{} never ran", verdict.invariant);
        }
        // And none of them sails anywhere near the tolerance.
        for verdict in &report.invariants {
            assert!(
                verdict.worst_residual <= config.tolerance,
                "{}: worst residual {}",
                verdict.invariant,
                verdict.worst_residual
            );
        }
    }

    #[test]
    fn reports_echo_their_configuration() {
        let report = run_conformance(&ConformanceConfig::smoke().with_seeds(2).with_base_seed(7));
        assert_eq!(report.seeds, 2);
        assert_eq!(report.base_seed, 7);
        assert_eq!(report.invariants.len(), 12);
    }
}
