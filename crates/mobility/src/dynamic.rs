//! Dynamic re-scheduling: move, regenerate channels, re-solve, repeat.

use crate::waypoint::RandomWaypoint;
use mec_system::{Assignment, Scenario, Solver};
use mec_types::{effective_parallelism, Error, Seconds, ServerId, UserId};
use mec_workloads::{epoch_seed, ExperimentParams, ScenarioGenerator, CHAIN_STREAM};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Mobility-side knobs of a dynamic simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityConfig {
    /// Per-user speed range in m/s.
    pub speed_range_mps: (f64, f64),
    /// Simulated time between scheduling epochs.
    pub epoch_duration: Seconds,
    /// Whether shadowing is redrawn each epoch (`true`, the default:
    /// users move far enough that the shadowing decorrelates) or held
    /// fixed from the first epoch.
    pub redraw_shadowing: bool,
}

impl MobilityConfig {
    /// Pedestrians: 0.5–2 m/s, 10 s epochs.
    pub fn pedestrian() -> Self {
        Self {
            speed_range_mps: (0.5, 2.0),
            epoch_duration: Seconds::new(10.0),
            redraw_shadowing: true,
        }
    }

    /// Vehicles: 8–20 m/s (≈ 30–70 km/h), 5 s epochs.
    pub fn vehicular() -> Self {
        Self {
            speed_range_mps: (8.0, 20.0),
            epoch_duration: Seconds::new(5.0),
            redraw_shadowing: true,
        }
    }
}

/// What happened in one scheduling epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Achieved system utility `J*(X)`.
    pub utility: f64,
    /// Users offloading this epoch.
    pub num_offloaded: usize,
    /// Users whose *nearest* station changed since the previous epoch
    /// (radio handovers, decision-independent).
    pub handovers: usize,
    /// Users whose offloading slot changed since the previous epoch
    /// (decision churn: local↔offloaded or a different `(s, j)`).
    pub reassignments: usize,
    /// Search effort spent this epoch (objective evaluations /
    /// neighborhood proposals).
    pub proposals: u64,
}

/// The full trajectory of a dynamic run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// Per-epoch reports, in order.
    pub epochs: Vec<EpochReport>,
}

impl History {
    /// Mean utility over all epochs (0 for an empty history).
    pub fn average_utility(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.utility).sum::<f64>() / self.epochs.len() as f64
    }

    /// Total decision churn over the run.
    pub fn total_reassignments(&self) -> usize {
        self.epochs.iter().map(|e| e.reassignments).sum()
    }
}

/// A mobile MEC network that is re-scheduled every epoch.
#[derive(Debug)]
pub struct DynamicSimulation {
    generator: ScenarioGenerator,
    mobility: MobilityConfig,
    model: RandomWaypoint,
    rng: StdRng,
    seed: u64,
    epoch: usize,
}

impl DynamicSimulation {
    /// Creates a simulation over the given network parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for degenerate parameters.
    pub fn new(
        params: ExperimentParams,
        mobility: MobilityConfig,
        seed: u64,
    ) -> Result<Self, Error> {
        let generator = ScenarioGenerator::new(params);
        let layout = generator.layout()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let model = RandomWaypoint::new(
            &layout,
            params.num_users,
            mobility.speed_range_mps,
            &mut rng,
        );
        Ok(Self {
            generator,
            mobility,
            model,
            rng,
            seed,
            epoch: 0,
        })
    }

    /// Runs `epochs` scheduling epochs. `make_solver(seed)` builds the
    /// solver used for one epoch (a fresh one per epoch keeps runs
    /// reproducible regardless of solver state).
    ///
    /// # Errors
    ///
    /// Propagates scenario-generation and solver errors.
    pub fn run<F>(&mut self, epochs: usize, make_solver: F) -> Result<History, Error>
    where
        F: Fn(u64) -> Box<dyn Solver>,
    {
        self.run_epochs(epochs, |scenario, shadowing_seed, _| {
            let solution = make_solver(shadowing_seed).solve(scenario)?;
            Ok((
                solution.assignment,
                solution.utility,
                solution.stats.iterations,
            ))
        })
    }

    /// Runs `epochs` epochs re-solved with TTSA under `mode`:
    /// [`ResolveMode::Cold`] anneals every epoch from scratch with `base`;
    /// the warm modes seed each epoch's refresh with the previous epoch's
    /// decision under a tight proposal budget at a low fixed restart
    /// temperature. The first epoch is always a cold solve; there is
    /// nothing to warm-start from.
    ///
    /// # Errors
    ///
    /// Propagates configuration, scenario-generation and solver errors.
    ///
    /// [`ResolveMode::Cold`]: tsajs::ResolveMode::Cold
    pub fn run_ttsa(
        &mut self,
        epochs: usize,
        base: tsajs::TtsaConfig,
        mode: tsajs::ResolveMode,
    ) -> Result<History, Error> {
        base.validate()?;
        mode.validate()?;
        let kernel = tsajs::NeighborhoodKernel::new();
        let mut chain_rng = StdRng::seed_from_u64(self.seed ^ CHAIN_STREAM);
        let workers = effective_parallelism(None);
        self.run_epochs(epochs, |scenario, _, previous| {
            let outcome = mode.resolve(
                scenario,
                &base,
                &kernel,
                &mut chain_rng,
                workers,
                previous.cloned(),
            );
            Ok((outcome.assignment, outcome.objective, outcome.proposals))
        })
    }

    /// The epoch loop behind [`run`](Self::run) and
    /// [`run_ttsa`](Self::run_ttsa): regenerate the scenario at the current
    /// positions, let `solve(scenario, shadowing seed, previous decision)`
    /// return `(decision, utility, proposals)`, count handovers and
    /// reassignments, report, and move the users.
    fn run_epochs<F>(&mut self, epochs: usize, mut solve: F) -> Result<History, Error>
    where
        F: FnMut(&Scenario, u64, Option<&Assignment>) -> Result<(Assignment, f64, u64), Error>,
    {
        let layout = self.generator.layout()?;
        let mut reports = Vec::with_capacity(epochs);
        let mut previous: Option<Assignment> = None;
        let mut previous_nearest: Option<Vec<ServerId>> = None;

        for _ in 0..epochs {
            let shadowing_seed = if self.mobility.redraw_shadowing {
                epoch_seed(self.seed, self.epoch as u64)
            } else {
                self.seed
            };
            let scenario = self
                .generator
                .generate_at(self.model.positions(), shadowing_seed)?;
            let (assignment, utility, proposals) =
                solve(&scenario, shadowing_seed, previous.as_ref())?;

            let nearest: Vec<ServerId> = self
                .model
                .positions()
                .iter()
                .map(|p| layout.nearest_station(*p))
                .collect();
            let handovers = previous_nearest
                .as_ref()
                .map(|prev| prev.iter().zip(&nearest).filter(|(a, b)| a != b).count())
                .unwrap_or(0);
            let reassignments = previous
                .as_ref()
                .map(|prev| {
                    (0..scenario.num_users())
                        .filter(|i| prev.slot(UserId::new(*i)) != assignment.slot(UserId::new(*i)))
                        .count()
                })
                .unwrap_or(0);

            reports.push(EpochReport {
                epoch: self.epoch,
                utility,
                num_offloaded: assignment.num_offloaded(),
                handovers,
                reassignments,
                proposals,
            });
            previous = Some(assignment);
            previous_nearest = Some(nearest);
            self.model
                .step(&layout, self.mobility.epoch_duration, &mut self.rng);
            self.epoch += 1;
        }
        Ok(History { epochs: reports })
    }

    /// Current user positions (after the steps taken so far).
    pub fn positions(&self) -> &[mec_topology::Point2] {
        self.model.positions()
    }

    /// How many epochs have been simulated so far.
    pub fn epochs_run(&self) -> usize {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_baselines::GreedySolver;

    fn params() -> ExperimentParams {
        ExperimentParams::paper_default()
            .with_users(8)
            .with_servers(3)
    }

    fn greedy_factory(_: u64) -> Box<dyn Solver> {
        Box::new(GreedySolver::new())
    }

    #[test]
    fn runs_the_requested_epochs_with_sane_reports() {
        let mut sim = DynamicSimulation::new(params(), MobilityConfig::vehicular(), 1).unwrap();
        let history = sim.run(5, greedy_factory).unwrap();
        assert_eq!(history.epochs.len(), 5);
        assert_eq!(sim.epochs_run(), 5);
        for (i, e) in history.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert!(e.utility.is_finite());
            assert!(e.num_offloaded <= 8);
            assert!(e.handovers <= 8);
            assert!(e.reassignments <= 8);
        }
        // The first epoch has no predecessor.
        assert_eq!(history.epochs[0].handovers, 0);
        assert_eq!(history.epochs[0].reassignments, 0);
    }

    #[test]
    fn static_users_on_fixed_shadowing_never_churn() {
        let mobility = MobilityConfig {
            speed_range_mps: (0.0, 0.0),
            epoch_duration: Seconds::new(10.0),
            redraw_shadowing: false,
        };
        let mut sim = DynamicSimulation::new(params(), mobility, 2).unwrap();
        // Greedy is deterministic, positions and channels frozen: identical
        // decisions every epoch.
        let history = sim.run(4, greedy_factory).unwrap();
        for e in &history.epochs[1..] {
            assert_eq!(e.handovers, 0);
            assert_eq!(e.reassignments, 0);
        }
        let u0 = history.epochs[0].utility;
        for e in &history.epochs {
            assert_eq!(e.utility, u0);
        }
    }

    #[test]
    fn fast_movers_cause_more_handovers_than_slow_ones() {
        let run_with = |speed: (f64, f64), seed: u64| -> usize {
            let mobility = MobilityConfig {
                speed_range_mps: speed,
                epoch_duration: Seconds::new(30.0),
                redraw_shadowing: false,
            };
            let mut sim = DynamicSimulation::new(
                ExperimentParams::paper_default().with_users(20),
                mobility,
                seed,
            )
            .unwrap();
            let history = sim.run(12, greedy_factory).unwrap();
            history.epochs.iter().map(|e| e.handovers).sum()
        };
        let mut slow_total = 0;
        let mut fast_total = 0;
        for seed in 0..3 {
            slow_total += run_with((0.5, 1.0), seed);
            fast_total += run_with((20.0, 40.0), seed);
        }
        assert!(
            fast_total > slow_total,
            "fast movers should hand over more: {fast_total} vs {slow_total}"
        );
    }

    #[test]
    fn history_summaries() {
        let mut sim = DynamicSimulation::new(params(), MobilityConfig::pedestrian(), 3).unwrap();
        let history = sim.run(3, greedy_factory).unwrap();
        assert!(history.average_utility().is_finite());
        assert_eq!(
            history.total_reassignments(),
            history
                .epochs
                .iter()
                .map(|e| e.reassignments)
                .sum::<usize>()
        );
        assert_eq!(History { epochs: vec![] }.average_utility(), 0.0);
    }

    #[test]
    fn incremental_rescheduling_is_cheap_after_the_first_epoch() {
        let base = tsajs::TtsaConfig::paper_default().with_min_temperature(1e-3);
        let mut sim = DynamicSimulation::new(params(), MobilityConfig::pedestrian(), 9).unwrap();
        let history = sim
            .run_ttsa(5, base, tsajs::ResolveMode::warm(120))
            .unwrap();
        assert_eq!(history.epochs.len(), 5);
        let cold = history.epochs[0].proposals;
        for e in &history.epochs[1..] {
            assert!(
                e.proposals <= 120 + base.inner_iterations as u64,
                "refresh exceeded its budget: {}",
                e.proposals
            );
            assert!(e.proposals < cold, "refresh not cheaper than cold solve");
            assert!(e.utility.is_finite());
        }
    }

    #[test]
    fn incremental_tracks_churn_and_rejects_zero_budget() {
        let base = tsajs::TtsaConfig::paper_default().with_min_temperature(1e-2);
        let mut sim = DynamicSimulation::new(params(), MobilityConfig::vehicular(), 4).unwrap();
        assert!(sim.run_ttsa(2, base, tsajs::ResolveMode::warm(0)).is_err());
        let history = sim.run_ttsa(3, base, tsajs::ResolveMode::warm(60)).unwrap();
        assert_eq!(history.epochs[0].reassignments, 0, "no predecessor");
        for e in &history.epochs {
            assert!(e.reassignments <= 8);
        }
    }

    #[test]
    fn run_ttsa_cold_and_warm_share_one_code_path() {
        let base = tsajs::TtsaConfig::paper_default().with_min_temperature(1e-2);
        let warm_direct = {
            let mut sim =
                DynamicSimulation::new(params(), MobilityConfig::pedestrian(), 7).unwrap();
            sim.run_ttsa(4, base, tsajs::ResolveMode::warm(80)).unwrap()
        };
        // The cold fallback re-anneals every epoch: no epoch is cheaper
        // than the warm refreshes.
        let cold = {
            let mut sim =
                DynamicSimulation::new(params(), MobilityConfig::pedestrian(), 7).unwrap();
            sim.run_ttsa(4, base, tsajs::ResolveMode::Cold).unwrap()
        };
        assert_eq!(cold.epochs.len(), 4);
        let min_cold = cold.epochs.iter().map(|e| e.proposals).min().unwrap();
        let max_warm = warm_direct.epochs[1..]
            .iter()
            .map(|e| e.proposals)
            .max()
            .unwrap();
        assert!(
            max_warm < min_cold,
            "warm refreshes ({max_warm}) should undercut cold solves ({min_cold})"
        );
        // Cold mode ignores any previous decision, so its first two
        // epochs both pay the full schedule.
        assert!(cold.epochs[1].proposals >= min_cold);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut sim =
                DynamicSimulation::new(params(), MobilityConfig::vehicular(), seed).unwrap();
            sim.run(4, greedy_factory).unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
