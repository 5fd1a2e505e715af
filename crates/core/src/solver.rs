//! The [`Solver`] wrapper around the TTSA loop.

use crate::annealing::anneal;
use crate::config::{TemperingConfig, TtsaConfig};
use crate::moves::{MoveMix, NeighborhoodKernel};
use crate::tempering::temper;
use crate::trace::SearchTrace;
use mec_system::{Scenario, Solution, Solver, SolverStats};
use mec_types::{effective_parallelism, Error};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The TSAJS scheduler: TTSA task offloading + KKT resource allocation.
///
/// `solve` runs the paper's single chain by default, or the cooperative
/// parallel-tempering ladder after [`with_tempering`](Self::with_tempering).
/// Both are deterministic under the configured seed, at any worker-thread
/// count.
///
/// Implements [`Solver`]; repeated `solve` calls advance the internal RNG,
/// so solving the same scenario twice explores different trajectories
/// (construct a fresh solver for bit-identical reruns).
#[derive(Debug, Clone)]
pub struct TsajsSolver {
    config: TtsaConfig,
    kernel: NeighborhoodKernel,
    rng: StdRng,
    tempering: Option<TemperingConfig>,
    threads: Option<usize>,
    last_trace: Option<SearchTrace>,
}

impl TsajsSolver {
    /// Creates a solver from a configuration (seeded by `config.seed`).
    pub fn new(config: TtsaConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(config.seed),
            kernel: NeighborhoodKernel::new(),
            config,
            tempering: None,
            threads: None,
            last_trace: None,
        }
    }

    /// Creates a solver with the paper's defaults and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(TtsaConfig::paper_default().with_seed(seed))
    }

    /// Replaces the neighborhood move mix (ablation hook).
    pub fn with_move_mix(mut self, mix: MoveMix) -> Self {
        self.kernel = NeighborhoodKernel::with_mix(mix);
        self
    }

    /// Selects the parallel-tempering engine in place of the single chain.
    pub fn with_tempering(mut self, tempering: TemperingConfig) -> Self {
        self.tempering = Some(tempering);
        self
    }

    /// Caps the worker threads of the tempering engine; the single chain
    /// always runs on the caller. Without an explicit cap, `TSAJS_THREADS`
    /// and then the hardware parallelism decide (see
    /// [`mec_types::effective_parallelism`]). Thread count never affects
    /// results, only wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &TtsaConfig {
        &self.config
    }

    /// The per-epoch trace of the most recent `solve`, when
    /// [`TtsaConfig::record_trace`] was set.
    pub fn last_trace(&self) -> Option<&SearchTrace> {
        self.last_trace.as_ref()
    }

    /// Validates the chain configuration and, when set, the ladder.
    fn validate(&self) -> Result<(), Error> {
        self.config.validate()?;
        self.tempering
            .as_ref()
            .map_or(Ok(()), TemperingConfig::validate)
    }
}

impl Solver for TsajsSolver {
    fn name(&self) -> &str {
        match self.tempering {
            Some(_) => "TSAJS-PT",
            None => "TSAJS",
        }
    }

    fn solve(&mut self, scenario: &Scenario) -> Result<Solution, Error> {
        self.validate()?;
        let start = Instant::now();
        let (outcome, initial_solutions) = match self.tempering {
            None => (
                anneal(scenario, &self.config, &self.kernel, &mut self.rng),
                1u64,
            ),
            Some(tcfg) => (
                temper(
                    scenario,
                    &tcfg,
                    &self.config,
                    &self.kernel,
                    &mut self.rng,
                    effective_parallelism(self.threads),
                ),
                tcfg.replicas as u64,
            ),
        };
        let elapsed = start.elapsed();
        self.last_trace = outcome.trace;
        Ok(Solution {
            assignment: outcome.assignment,
            utility: outcome.objective,
            stats: SolverStats {
                // One evaluation per proposal plus the initial solution(s).
                objective_evaluations: outcome.proposals + initial_solutions,
                iterations: outcome.proposals,
                elapsed,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Cooling, TemperingConfig};
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::{Evaluator, UserSpec};
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};

    fn scenario(users: usize) -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            ChannelGains::uniform(users, 2, 2, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    fn quick() -> TtsaConfig {
        TtsaConfig::paper_default().with_min_temperature(1e-3)
    }

    #[test]
    fn solver_reports_consistent_utility() {
        let sc = scenario(4);
        let mut solver = TsajsSolver::new(quick().with_seed(1));
        let solution = solver.solve(&sc).unwrap();
        let recomputed = Evaluator::new(&sc).objective(&solution.assignment);
        assert!((solution.utility - recomputed).abs() < 1e-12);
        assert!(solution.stats.objective_evaluations > 0);
        assert_eq!(
            solution.stats.objective_evaluations,
            solution.stats.iterations + 1
        );
    }

    #[test]
    fn fresh_solvers_with_same_seed_agree() {
        let sc = scenario(5);
        let a = TsajsSolver::new(quick().with_seed(3)).solve(&sc).unwrap();
        let b = TsajsSolver::new(quick().with_seed(3)).solve(&sc).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.utility, b.utility);
    }

    #[test]
    fn repeated_solves_advance_the_rng() {
        let sc = scenario(5);
        let mut solver = TsajsSolver::new(quick().with_seed(3));
        let first = solver.solve(&sc).unwrap();
        let second = solver.solve(&sc).unwrap();
        // Both runs are valid; they explored different trajectories (the
        // proposals differ with overwhelming probability, and utilities
        // stay within the same ballpark).
        assert!(first.utility > 0.0 && second.utility > 0.0);
    }

    #[test]
    fn trace_is_exposed_after_solve() {
        let sc = scenario(3);
        let mut solver = TsajsSolver::new(quick().with_seed(2).with_trace());
        assert!(solver.last_trace().is_none());
        let _ = solver.solve(&sc).unwrap();
        let trace = solver.last_trace().expect("trace recorded");
        assert!(!trace.is_empty());
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let sc = scenario(2);
        let mut solver = TsajsSolver::new(quick().with_cooling(Cooling::Geometric { alpha: 1.5 }));
        assert!(solver.solve(&sc).is_err());
        let mut bad_ladder = TsajsSolver::new(quick())
            .with_tempering(TemperingConfig::paper_default().with_replicas(0));
        assert!(bad_ladder.solve(&sc).is_err());
    }

    #[test]
    fn name_tracks_the_strategy() {
        assert_eq!(TsajsSolver::with_seed(0).name(), "TSAJS");
        assert_eq!(
            TsajsSolver::with_seed(0)
                .with_tempering(TemperingConfig::paper_default())
                .name(),
            "TSAJS-PT"
        );
    }

    #[test]
    fn tempering_strategy_solves_and_is_thread_independent() {
        let sc = scenario(8);
        let tcfg = TemperingConfig::paper_default()
            .with_replicas(4)
            .with_rounds(5);
        let run = |threads: usize| {
            TsajsSolver::new(quick().with_seed(6))
                .with_tempering(tcfg)
                .with_threads(threads)
                .solve(&sc)
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.utility, b.utility);
        assert_eq!(a.stats.iterations, b.stats.iterations);
        a.assignment.verify_feasible(&sc).unwrap();
        assert!(a.utility >= 0.0);
        let recomputed = Evaluator::new(&sc).objective(&a.assignment);
        assert!((a.utility - recomputed).abs() < 1e-9);
    }

    #[test]
    fn resolve_dispatches_on_the_mode_and_the_warm_start() {
        use crate::config::{ResolveMode, TemperingConfig};
        use crate::{anneal, anneal_from, temper_from, NeighborhoodKernel};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let sc = scenario(6);
        let base = quick();
        let kernel = NeighborhoodKernel::new();
        let rng = || StdRng::seed_from_u64(3);
        let warm = TsajsSolver::new(quick().with_seed(5))
            .solve(&sc)
            .unwrap()
            .assignment;
        let key = |o: crate::annealing::AnnealOutcome| (o.assignment, o.objective.to_bits());
        let cold = key(anneal(&sc, &base, &kernel, &mut rng()));
        let warm_start = ResolveMode::warm(200);
        let tempered = ResolveMode::WarmTempered {
            refresh_budget: 200,
            refresh_temperature: 0.05,
            tempering: TemperingConfig::paper_default().with_replicas(2),
        };
        for mode in [ResolveMode::Cold, warm_start, tempered] {
            // No warm start, or the cold mode: a full anneal from scratch.
            let resolved = mode.resolve(&sc, &base, &kernel, &mut rng(), 2, None);
            assert_eq!(key(resolved), cold);
        }
        let resolved =
            ResolveMode::Cold.resolve(&sc, &base, &kernel, &mut rng(), 2, Some(warm.clone()));
        assert_eq!(key(resolved), cold);
        let refresh = warm_start.refresh_config(&base);
        assert_eq!(
            key(warm_start.resolve(&sc, &base, &kernel, &mut rng(), 2, Some(warm.clone()))),
            key(anneal_from(
                &sc,
                &refresh,
                &kernel,
                &mut rng(),
                warm.clone()
            ))
        );
        let ladder = TemperingConfig::paper_default().with_replicas(2);
        let refresh = tempered.refresh_config(&base);
        assert_eq!(
            key(tempered.resolve(&sc, &base, &kernel, &mut rng(), 2, Some(warm.clone()))),
            key(temper_from(
                &sc,
                &ladder,
                &refresh,
                &kernel,
                &mut rng(),
                1,
                warm
            ))
        );
    }
}
