//! The event-driven online scheduling engine.
//!
//! [`OnlineEngine::step`] advances one scheduling epoch:
//!
//! 1. drain churn events due now (departures free their slots and
//!    finalize SLA records; arrivals pass admission and spawn into the
//!    mobility model),
//! 2. rebuild the epoch's [`Scenario`] at the survivors' current
//!    positions and *patch* the previous [`Assignment`] onto the new
//!    population ([`Assignment::patched`] — survivors keep their slots),
//! 3. re-solve through [`ResolveMode::resolve`]: a warm refresh seeded
//!    from the patched decision ([`ResolveMode::WarmStart`] or
//!    [`ResolveMode::WarmTempered`]) or a full cold anneal
//!    ([`ResolveMode::Cold`]); [`OnlineEngine::step_with_solver`] cold-solves
//!    with any [`Solver`] instead,
//! 4. score every active user against the SLA deadline, count radio
//!    handovers, and emit a serializable [`OnlineEpochReport`].
//!
//! [`OnlineEngine::with_static_population`] runs the same epoch over a
//! fixed population that only moves: the mobility study's setting.
//!
//! Everything is driven by seeded RNG streams, so a run is a pure
//! function of `(params, config, churn process, seed)` — equal seeds give
//! bit-identical report streams.

use crate::admission::{AdmissionContext, AdmissionDecision, AdmissionPolicy, AdmitAll};
use crate::churn::{sample_exponential, ChurnEvent, ChurnEventKind, ChurnProcess, PoissonChurn};
use crate::events::{EngineEvent, EventSchedule, TimedEvent};
use crate::sla::{CompletedUser, SlaLog};
use crate::waypoint::RandomWaypoint;
use mec_system::{reassigned_survivors, survivor_map, Assignment, Evaluator, Scenario, Solver};
use mec_topology::{NetworkLayout, Point2};
use mec_types::{effective_parallelism, DeviceProfile, Error, Seconds, ServerId, Task, UserId};
use mec_workloads::{epoch_seed, ExperimentParams, ScenarioGenerator, CHAIN_STREAM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tsajs::{NeighborhoodKernel, ResolveMode, TtsaConfig};

/// User ids injected by flash-crowd events live in a high range so they
/// can never collide with churn-process ids.
const INJECTED_ID_BASE: u64 = 1 << 40;

/// Engine-level knobs of an online run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Simulated time between scheduling epochs.
    pub epoch_duration: Seconds,
    /// Per-user speed range in m/s (random-waypoint motion).
    pub speed_range_mps: (f64, f64),
    /// Whether shadowing is redrawn each epoch.
    pub redraw_shadowing: bool,
    /// The full TTSA schedule used for cold solves (and as the base of
    /// warm refreshes).
    pub base: TtsaConfig,
    /// How epochs after the first re-solve.
    pub mode: ResolveMode,
    /// Per-task completion-time SLA deadline.
    pub deadline: Seconds,
    /// Explicit cap on solver worker threads for warm-tempered epochs.
    /// `None` defers to `TSAJS_THREADS` and then the hardware count (see
    /// [`effective_parallelism`]).
    #[serde(default)]
    pub threads: Option<usize>,
}

impl OnlineConfig {
    /// Pedestrian motion (0.5–2 m/s), 10 s epochs, shadowing redrawn,
    /// paper-default TTSA base, warm refreshes of 3000 proposals (enough
    /// to land within 1% of a cold solve at U = 90 under 10% churn — see
    /// EXPERIMENTS.md), and a 1 s deadline (the local execution time of
    /// the default task, so local execution exactly meets it).
    pub fn pedestrian() -> Self {
        Self {
            epoch_duration: Seconds::new(10.0),
            speed_range_mps: (0.5, 2.0),
            redraw_shadowing: true,
            base: TtsaConfig::paper_default(),
            mode: ResolveMode::warm(3_000),
            deadline: Seconds::new(1.0),
            threads: None,
        }
    }

    /// Vehicles: [`pedestrian`](Self::pedestrian) with 8–20 m/s motion
    /// (≈ 30–70 km/h) and 5 s epochs.
    pub fn vehicular() -> Self {
        Self::pedestrian()
            .with_speed_range((8.0, 20.0))
            .with_epoch_duration(Seconds::new(5.0))
    }

    /// Replaces the base TTSA schedule.
    pub fn with_base(mut self, base: TtsaConfig) -> Self {
        self.base = base;
        self
    }

    /// Replaces the re-solve mode.
    pub fn with_mode(mut self, mode: ResolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the SLA deadline.
    pub fn with_deadline(mut self, deadline: Seconds) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replaces the epoch duration.
    pub fn with_epoch_duration(mut self, duration: Seconds) -> Self {
        self.epoch_duration = duration;
        self
    }

    /// Replaces the speed range.
    pub fn with_speed_range(mut self, range_mps: (f64, f64)) -> Self {
        self.speed_range_mps = range_mps;
        self
    }

    /// Caps solver worker threads (`None` = `TSAJS_THREADS`, then
    /// hardware).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive durations or
    /// deadlines, an invalid speed range, or invalid TTSA/mode settings.
    pub fn validate(&self) -> Result<(), Error> {
        self.base.validate()?;
        self.mode.validate()?;
        if !self.epoch_duration.as_secs().is_finite() || self.epoch_duration.as_secs() <= 0.0 {
            return Err(Error::invalid("epoch_duration", "must be positive"));
        }
        if !self.deadline.as_secs().is_finite() || self.deadline.as_secs() <= 0.0 {
            return Err(Error::invalid("deadline", "must be positive"));
        }
        let (lo, hi) = self.speed_range_mps;
        if !lo.is_finite() || !hi.is_finite() || lo < 0.0 || hi < lo {
            return Err(Error::invalid(
                "speed_range_mps",
                "must be a finite non-negative interval",
            ));
        }
        Ok(())
    }
}

/// What one scheduling epoch did — the engine's streamable output.
///
/// Deliberately excludes wall-clock timing so that equal seeds produce
/// identical report streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineEpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Simulated time at the start of the epoch.
    pub time_s: f64,
    /// Users in the system this epoch (scheduled + forced-local).
    pub active_users: usize,
    /// Users eligible for offloading decisions.
    pub scheduled: usize,
    /// Users pinned to local execution by admission.
    pub forced_local: usize,
    /// Arrivals admitted this epoch.
    pub arrivals: usize,
    /// Departures processed this epoch.
    pub departures: usize,
    /// Arrivals rejected by admission this epoch.
    pub rejected: usize,
    /// Achieved system utility `J*(X)` over the scheduled population.
    pub utility: f64,
    /// Users offloading this epoch.
    pub num_offloaded: usize,
    /// Surviving scheduled users whose slot changed since last epoch.
    pub reassignments: usize,
    /// Active users present last epoch whose nearest station changed
    /// (radio handovers; decision-independent, 0 in the first epoch).
    pub handovers: usize,
    /// Neighborhood proposals spent re-solving this epoch.
    pub proposals: u64,
    /// Whether the re-solve warm-started from the patched decision.
    pub warm_started: bool,
    /// Fraction of active users whose task met the deadline this epoch.
    pub deadline_hit_rate: f64,
    /// Timeline events applied at this epoch boundary.
    pub events_applied: usize,
    /// Servers in service this epoch (after outages/recoveries).
    pub servers_up: usize,
}

impl OnlineEpochReport {
    /// Every JSON field of a serialized report, in declaration order —
    /// the schema contract that JSONL consumers of the `online`
    /// subcommand rely on. Keep in lockstep with the struct definition;
    /// the golden-schema tests diff serialized output against this list.
    pub const FIELD_NAMES: [&'static str; 17] = [
        "epoch",
        "time_s",
        "active_users",
        "scheduled",
        "forced_local",
        "arrivals",
        "departures",
        "rejected",
        "utility",
        "num_offloaded",
        "reassignments",
        "handovers",
        "proposals",
        "warm_started",
        "deadline_hit_rate",
        "events_applied",
        "servers_up",
    ];
}

/// One live user, aligned index-for-index with the mobility model.
#[derive(Debug, Clone, Copy)]
struct ActiveUser {
    id: u64,
    arrived_at_s: f64,
    forced_local: bool,
    epochs: u32,
    deadline_hits: u32,
    benefit_sum: f64,
    /// Nearest station at the start of the user's last epoch (`None`
    /// before its first).
    station: Option<ServerId>,
}

/// The previous epoch's decision, keyed by stable user ids.
#[derive(Debug, Clone)]
struct PrevEpoch {
    sched_ids: Vec<u64>,
    /// Full-layout server indices behind the assignment's (possibly
    /// outage-compacted) server axis.
    server_ids: Vec<usize>,
    assignment: Assignment,
}

/// The long-running online scheduler (see the module docs for the epoch
/// pipeline).
pub struct OnlineEngine {
    params: ExperimentParams,
    config: OnlineConfig,
    layout: NetworkLayout,
    churn: Box<dyn ChurnProcess>,
    admission: Box<dyn AdmissionPolicy>,
    motion: RandomWaypoint,
    users: Vec<ActiveUser>,
    motion_rng: StdRng,
    chain_rng: StdRng,
    kernel: NeighborhoodKernel,
    clock_s: f64,
    epoch: usize,
    seed: u64,
    prev: Option<PrevEpoch>,
    last: Option<(Scenario, Assignment)>,
    sla: SlaLog,
    local_time_s: f64,
    rejected_total: u64,
    event_buf: Vec<ChurnEvent>,
    /// Scripted timeline events, drained at epoch boundaries.
    events: EventSchedule,
    /// Which full-layout servers are in service.
    server_up: Vec<bool>,
    /// Dedicated stream for event randomness (flash-crowd sojourns,
    /// drift selection) so schedules never perturb motion or solving.
    event_rng: StdRng,
    /// Flash-crowd arrivals/departures waiting to be merged with churn.
    injected: Vec<ChurnEvent>,
    injected_next_id: u64,
    events_applied_total: usize,
    timed_buf: Vec<TimedEvent>,
}

impl OnlineEngine {
    /// Creates an engine over the given network parameters.
    /// `params.num_users` is ignored — the population is whatever the
    /// churn process produces.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for degenerate parameters or
    /// configuration.
    pub fn new(
        params: ExperimentParams,
        config: OnlineConfig,
        churn: Box<dyn ChurnProcess>,
        admission: Box<dyn AdmissionPolicy>,
        seed: u64,
    ) -> Result<Self, Error> {
        config.validate()?;
        let layout = ScenarioGenerator::new(params).layout()?;
        let mut motion_rng = StdRng::seed_from_u64(seed);
        let motion = RandomWaypoint::new(&layout, 0, config.speed_range_mps, &mut motion_rng);
        // Forced-local users never enter a Scenario, so their completion
        // time comes straight from the task's local cost.
        let device = DeviceProfile::new(params.user_cpu, params.kappa, params.tx_power)?;
        let task = match params.task_output {
            Some(output) => Task::with_output(params.task_data, params.task_workload, output)?,
            None => Task::new(params.task_data, params.task_workload)?,
        };
        let local_time_s = task.local_cost(&device).time.as_secs();
        Ok(Self {
            params,
            config,
            layout,
            churn,
            admission,
            motion,
            users: Vec::new(),
            motion_rng,
            // Decorrelate the solver stream from the motion stream.
            chain_rng: StdRng::seed_from_u64(seed ^ CHAIN_STREAM),
            kernel: NeighborhoodKernel::new(),
            clock_s: 0.0,
            epoch: 0,
            seed,
            prev: None,
            last: None,
            sla: SlaLog::default(),
            local_time_s,
            rejected_total: 0,
            event_buf: Vec::new(),
            events: EventSchedule::empty(),
            server_up: vec![true; params.num_servers],
            event_rng: StdRng::seed_from_u64(seed ^ 0x94D0_49BB_1331_11EB),
            injected: Vec::new(),
            injected_next_id: INJECTED_ID_BASE,
            events_applied_total: 0,
            timed_buf: Vec::new(),
        })
    }

    /// Creates an engine over a fixed population: `params.num_users` users
    /// (ids `0..n`) present from the start, admitted, and never departing
    /// (the churn process is silent). One [`RandomWaypoint::new`] draw
    /// places them (all positions, then destinations, then speeds), so
    /// they move exactly as a standalone model on the engine's seed would.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), and [`Error::InvalidParameter`] for an empty
    /// population.
    pub fn with_static_population(
        params: ExperimentParams,
        config: OnlineConfig,
        seed: u64,
    ) -> Result<Self, Error> {
        let n = params.num_users;
        if n == 0 {
            return Err(Error::invalid("U", "need at least one user"));
        }
        // No user ever arrives, so the sojourn is never drawn.
        let silent = PoissonChurn::new(0, 0.0, Seconds::new(1.0), seed)?;
        let mut engine = Self::new(params, config, Box::new(silent), Box::new(AdmitAll), seed)?;
        engine.motion = RandomWaypoint::new(
            &engine.layout,
            n,
            config.speed_range_mps,
            &mut engine.motion_rng,
        );
        engine.users = (0..n as u64)
            .map(|id| ActiveUser {
                id,
                arrived_at_s: 0.0,
                forced_local: false,
                epochs: 0,
                deadline_hits: 0,
                benefit_sum: 0.0,
                station: None,
            })
            .collect();
        Ok(engine)
    }

    /// Attaches a scripted event timeline; events fire at the first epoch
    /// boundary at or after their timestamp, before churn is drained.
    #[must_use]
    pub fn with_events(mut self, schedule: EventSchedule) -> Self {
        self.events = schedule;
        self
    }

    /// Applies every timeline event due at the current clock. Returns how
    /// many fired.
    fn apply_events(&mut self) -> usize {
        let mut due = std::mem::take(&mut self.timed_buf);
        due.clear();
        self.events
            .drain_until(Seconds::new(self.clock_s), &mut due);
        let fired = due.len();
        for timed in &due {
            match timed.event {
                EngineEvent::ServerOutage { server } => {
                    if server < self.server_up.len() {
                        self.server_up[server] = false;
                    }
                }
                EngineEvent::ServerRecovery { server } => {
                    if server < self.server_up.len() {
                        self.server_up[server] = true;
                    }
                }
                EngineEvent::FlashCrowd {
                    arrivals,
                    mean_sojourn,
                } => {
                    let now = Seconds::new(self.clock_s);
                    for _ in 0..arrivals {
                        let id = self.injected_next_id;
                        self.injected_next_id += 1;
                        let sojourn =
                            sample_exponential(mean_sojourn.as_secs(), &mut self.event_rng);
                        self.injected.push(ChurnEvent {
                            at: now,
                            user: id,
                            kind: ChurnEventKind::Arrival,
                        });
                        self.injected.push(ChurnEvent {
                            at: Seconds::new(self.clock_s + sojourn),
                            user: id,
                            kind: ChurnEventKind::Departure,
                        });
                    }
                    // Keep the pending queue time-sorted (arrivals are at
                    // `now`, departures later; a stable sort preserves the
                    // arrival-before-departure order per user).
                    self.injected.sort_by(|a, b| {
                        a.at.as_secs()
                            .partial_cmp(&b.at.as_secs())
                            .expect("event times are finite")
                    });
                }
                EngineEvent::LoadRamp { rate_factor } => {
                    self.churn.scale_rate(rate_factor);
                }
                EngineEvent::HotspotDrift { cell, fraction } => {
                    let stations = self.layout.stations();
                    if cell >= stations.len() || self.users.is_empty() {
                        continue;
                    }
                    let target = stations[cell];
                    let count = ((self.users.len() as f64 * fraction).ceil() as usize)
                        .clamp(1, self.users.len());
                    // Choose a distinct random subset (partial
                    // Fisher-Yates over population indices).
                    let mut order: Vec<usize> = (0..self.users.len()).collect();
                    for k in 0..count {
                        let pick = self.event_rng.gen_range(k..order.len());
                        order.swap(k, pick);
                    }
                    for &i in &order[..count] {
                        // Jitter inside the cell so the crowd does not
                        // collapse onto a single point; fall back to the
                        // station itself if the jitter exits coverage.
                        let dx = self.event_rng.gen_range(-100.0..=100.0);
                        let dy = self.event_rng.gen_range(-100.0..=100.0);
                        let jittered = Point2::new(target.x + dx, target.y + dy);
                        let dest = if self.layout.contains(jittered) {
                            jittered
                        } else {
                            target
                        };
                        self.motion.relocate_user(i, dest);
                    }
                }
            }
        }
        due.clear();
        self.timed_buf = due;
        self.events_applied_total += fired;
        fired
    }

    fn population_counts(&self) -> (usize, usize) {
        let forced = self.users.iter().filter(|u| u.forced_local).count();
        (self.users.len() - forced, forced)
    }

    fn apply_churn(&mut self) -> (usize, usize, usize) {
        let mut events = std::mem::take(&mut self.event_buf);
        events.clear();
        self.churn
            .drain_until(Seconds::new(self.clock_s), &mut events);
        // Merge flash-crowd injections due now (both queues are already
        // time-sorted; injected events break ties after churn events).
        let due = self
            .injected
            .partition_point(|e| e.at.as_secs() <= self.clock_s);
        if due > 0 {
            events.extend(self.injected.drain(..due));
            events.sort_by(|a, b| {
                a.at.as_secs()
                    .partial_cmp(&b.at.as_secs())
                    .expect("event times are finite")
            });
        }
        let offload_slots =
            self.server_up.iter().filter(|&&up| up).count() * self.params.num_subchannels;
        let (mut arrivals, mut departures, mut rejected) = (0, 0, 0);
        for e in &events {
            match e.kind {
                ChurnEventKind::Arrival => {
                    let (scheduled, forced) = self.population_counts();
                    let ctx = AdmissionContext {
                        active_users: self.users.len(),
                        scheduled_users: scheduled,
                        forced_local_users: forced,
                        offload_slots,
                    };
                    let decision = self.admission.decide(&ctx);
                    if decision == AdmissionDecision::Reject {
                        rejected += 1;
                        continue;
                    }
                    self.motion.add_user(
                        &self.layout,
                        self.config.speed_range_mps,
                        &mut self.motion_rng,
                    );
                    self.users.push(ActiveUser {
                        id: e.user,
                        arrived_at_s: e.at.as_secs(),
                        forced_local: decision == AdmissionDecision::ForceLocal,
                        epochs: 0,
                        deadline_hits: 0,
                        benefit_sum: 0.0,
                        station: None,
                    });
                    arrivals += 1;
                }
                ChurnEventKind::Departure => {
                    // Departures of rejected users have no one to remove.
                    if let Some(idx) = self.users.iter().position(|u| u.id == e.user) {
                        let user = self.users.remove(idx);
                        self.motion.remove_user(idx);
                        departures += 1;
                        self.sla.push(CompletedUser {
                            id: user.id,
                            arrived_at_s: user.arrived_at_s,
                            departed_at_s: e.at.as_secs(),
                            time_in_system_s: e.at.as_secs() - user.arrived_at_s,
                            epochs_served: user.epochs,
                            deadline_hits: user.deadline_hits,
                            total_benefit: user.benefit_sum,
                            forced_local: user.forced_local,
                        });
                    }
                }
            }
        }
        self.event_buf = events;
        (arrivals, departures, rejected)
    }

    /// Advances one scheduling epoch and reports what happened.
    ///
    /// # Errors
    ///
    /// Propagates scenario-generation, patching and evaluation errors.
    pub fn step(&mut self) -> Result<OnlineEpochReport, Error> {
        self.advance(None)
    }

    /// Advances one epoch like [`step`](Self::step), but cold-solves it
    /// with `make_solver(scenario seed)` instead of the configured
    /// [`ResolveMode`]; the report's `warm_started` is `false`. The scenario
    /// seed is the epoch's shadowing seed: `epoch_seed(seed, epoch)`, or
    /// the engine seed while shadowing is held.
    ///
    /// # Errors
    ///
    /// As [`step`](Self::step), plus the solver's own errors.
    pub fn step_with_solver(
        &mut self,
        make_solver: &dyn Fn(u64) -> Box<dyn Solver>,
    ) -> Result<OnlineEpochReport, Error> {
        self.advance(Some(make_solver))
    }

    /// The epoch body behind [`step`](Self::step) and
    /// [`step_with_solver`](Self::step_with_solver); they differ only in
    /// the re-solve.
    fn advance(
        &mut self,
        make_solver: Option<&dyn Fn(u64) -> Box<dyn Solver>>,
    ) -> Result<OnlineEpochReport, Error> {
        let events_applied = self.apply_events();
        let (arrivals, departures, rejected) = self.apply_churn();

        // Full-layout indices of the servers in service this epoch; the
        // epoch scenario's compact server axis maps through this list.
        let cur_server_ids: Vec<usize> = self
            .server_up
            .iter()
            .enumerate()
            .filter_map(|(i, &up)| up.then_some(i))
            .collect();
        let up_count = cur_server_ids.len();

        // Radio handovers: users present last epoch whose nearest station
        // changed. Arrivals have no previous station.
        let mut handovers = 0;
        for (user, &p) in self.users.iter_mut().zip(self.motion.positions()) {
            let nearest = self.layout.nearest_station(p);
            handovers += usize::from(user.station.is_some_and(|s| s != nearest));
            user.station = Some(nearest);
        }

        // The schedulable subset, in population order. `sched_pos[v]` is
        // the population index behind scenario user `v`.
        let mut sched_pos = Vec::new();
        let mut sched_ids = Vec::new();
        let mut positions = Vec::new();
        for (i, u) in self.users.iter().enumerate() {
            if !u.forced_local {
                sched_pos.push(i);
                sched_ids.push(u.id);
                positions.push(self.motion.positions()[i]);
            }
        }
        let scheduled = sched_ids.len();

        let shadowing_seed = if self.config.redraw_shadowing {
            epoch_seed(self.seed, self.epoch as u64)
        } else {
            self.seed
        };

        let deadline_s = self.config.deadline.as_secs();
        let mut epoch_hits = 0usize;
        let (utility, num_offloaded, proposals, reassignments, warm_started);
        if sched_ids.is_empty() || up_count == 0 {
            // Nothing to schedule: an empty population, or a total outage
            // (offload-eligible users get no service until a recovery).
            // `prev` keeps the last real decision, so a recovery patches
            // from it.
            (
                utility,
                num_offloaded,
                proposals,
                reassignments,
                warm_started,
            ) = (0.0, 0, 0, 0, false);
            self.last = None;
        } else {
            let generator = ScenarioGenerator::new(self.params.with_users(sched_ids.len()));
            let scenario =
                generator.generate_at_subset(&positions, shadowing_seed, &self.server_up)?;
            // Patch the previous decision onto the new population:
            // survivors keep their `(s, j)` slots, arrivals start local,
            // departures free capacity.
            let patched = match &self.prev {
                Some(prev) => {
                    let map = survivor_map(&prev.sched_ids, &sched_ids);
                    let warm = if prev.server_ids == cur_server_ids {
                        prev.assignment.patched(&map)?
                    } else {
                        // The server axis changed (outage or recovery):
                        // re-home surviving slots by full-layout server
                        // id, dropping users whose server left service.
                        let mut remapped = Assignment::with_dims(
                            sched_ids.len(),
                            up_count,
                            self.params.num_subchannels,
                        );
                        for (v, old) in map.iter().enumerate() {
                            let Some(old) = old else { continue };
                            let Some((s_old, j)) = prev.assignment.slot(*old) else {
                                continue;
                            };
                            let full = prev.server_ids[s_old.index()];
                            if let Some(s_new) = cur_server_ids.iter().position(|&f| f == full) {
                                remapped.assign(UserId::new(v), ServerId::new(s_new), j)?;
                            }
                        }
                        remapped
                    };
                    Some((warm, map))
                }
                None => None,
            };
            let assignment;
            (assignment, utility, proposals) = match make_solver {
                None => {
                    let outcome = self.config.mode.resolve(
                        &scenario,
                        &self.config.base,
                        &self.kernel,
                        &mut self.chain_rng,
                        effective_parallelism(self.config.threads),
                        patched.as_ref().map(|(warm, _)| warm.clone()),
                    );
                    (outcome.assignment, outcome.objective, outcome.proposals)
                }
                Some(make_solver) => {
                    let solution = make_solver(shadowing_seed).solve(&scenario)?;
                    let iterations = solution.stats.iterations;
                    (solution.assignment, solution.utility, iterations)
                }
            };
            warm_started =
                make_solver.is_none() && patched.is_some() && self.config.mode != ResolveMode::Cold;
            reassignments = patched.as_ref().map_or(0, |(warm, map)| {
                reassigned_survivors(map, warm, &assignment)
            });

            let evaluation = Evaluator::new(&scenario).evaluate(&assignment)?;
            for (v, &pi) in sched_pos.iter().enumerate() {
                let metrics = &evaluation.users[v];
                let user = &mut self.users[pi];
                user.epochs += 1;
                user.benefit_sum += metrics.utility;
                if metrics.completion_time.as_secs() <= deadline_s {
                    user.deadline_hits += 1;
                    epoch_hits += 1;
                }
            }
            num_offloaded = assignment.num_offloaded();
            self.prev = Some(PrevEpoch {
                sched_ids,
                server_ids: cur_server_ids,
                assignment: assignment.clone(),
            });
            self.last = Some((scenario, assignment));
        }

        // Forced-local users run on their own CPU every epoch.
        for user in self.users.iter_mut().filter(|u| u.forced_local) {
            user.epochs += 1;
            if self.local_time_s <= deadline_s {
                user.deadline_hits += 1;
                epoch_hits += 1;
            }
        }

        let active = self.users.len();
        let report = OnlineEpochReport {
            epoch: self.epoch,
            time_s: self.clock_s,
            active_users: active,
            scheduled,
            forced_local: active - scheduled,
            arrivals,
            departures,
            rejected,
            utility,
            num_offloaded,
            reassignments,
            handovers,
            proposals,
            warm_started,
            deadline_hit_rate: if active == 0 {
                1.0
            } else {
                epoch_hits as f64 / active as f64
            },
            events_applied,
            servers_up: up_count,
        };

        self.rejected_total += rejected as u64;
        self.motion.step(
            &self.layout,
            self.config.epoch_duration,
            &mut self.motion_rng,
        );
        self.clock_s += self.config.epoch_duration.as_secs();
        self.epoch += 1;
        Ok(report)
    }

    /// Runs `epochs` consecutive steps, collecting their reports.
    ///
    /// # Errors
    ///
    /// As [`step`](Self::step); stops at the first failing epoch.
    pub fn run(&mut self, epochs: usize) -> Result<Vec<OnlineEpochReport>, Error> {
        (0..epochs).map(|_| self.step()).collect()
    }

    /// Current user positions, in population order (after the epochs
    /// stepped so far).
    pub fn positions(&self) -> &[Point2] {
        self.motion.positions()
    }

    /// Current simulated time.
    pub fn clock(&self) -> Seconds {
        Seconds::new(self.clock_s)
    }

    /// Users currently in the system.
    pub fn active_users(&self) -> usize {
        self.users.len()
    }

    /// Total arrivals rejected by admission so far.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_total
    }

    /// Total timeline events applied so far.
    pub fn events_applied(&self) -> usize {
        self.events_applied_total
    }

    /// Per-server in-service flags (full layout indices).
    pub fn servers_up(&self) -> &[bool] {
        &self.server_up
    }

    /// The SLA log of departed users.
    pub fn sla(&self) -> &SlaLog {
        &self.sla
    }

    /// The engine configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Caps solver worker threads mid-flight. A pure wall-clock lever:
    /// the tempering engine's results are identical at any worker count,
    /// so this never perturbs a run (which is why it is safe to apply on
    /// top of a declarative spec).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.config.threads = threads;
    }

    /// The most recent epoch's scenario and decision (`None` before the
    /// first step and while the scheduled population is empty) — the hook
    /// property tests use to audit feasibility and objective consistency.
    pub fn last_schedule(&self) -> Option<(&Scenario, &Assignment)> {
        self.last.as_ref().map(|(s, a)| (s, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmitAll, CapacityGate};
    use crate::churn::PoissonChurn;
    use tsajs::TemperingConfig;

    fn quick_config() -> OnlineConfig {
        OnlineConfig::pedestrian()
            .with_base(TtsaConfig::paper_default().with_min_temperature(1e-2))
            .with_mode(ResolveMode::warm(120))
    }

    fn engine(seed: u64, initial: usize, rate: f64) -> OnlineEngine {
        let params = ExperimentParams::paper_default()
            .with_users(initial)
            .with_servers(4);
        let churn = PoissonChurn::new(initial, rate, Seconds::new(60.0), seed).unwrap();
        OnlineEngine::new(
            params,
            quick_config(),
            Box::new(churn),
            Box::new(AdmitAll),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn thread_cap_is_honored_without_changing_results() {
        // Tempered refreshes resolve their worker count from
        // `config.threads`; the tempering engine guarantees the result is
        // identical at any worker count, so the knob must be a pure
        // wall-clock lever.
        let tempered = quick_config().with_mode(ResolveMode::WarmTempered {
            refresh_budget: 150,
            refresh_temperature: 0.05,
            tempering: TemperingConfig::paper_default().with_replicas(2),
        });
        let run = |threads: Option<usize>| {
            let params = ExperimentParams::paper_default()
                .with_users(5)
                .with_servers(4);
            let churn = PoissonChurn::new(5, 0.05, Seconds::new(60.0), 3).unwrap();
            let mut e = OnlineEngine::new(
                params,
                tempered.with_threads(threads),
                Box::new(churn),
                Box::new(AdmitAll),
                3,
            )
            .unwrap();
            e.run(3).unwrap()
        };
        let capped = run(Some(1));
        let wide = run(Some(4));
        let default = run(None);
        assert_eq!(capped, wide);
        assert_eq!(capped, default);
    }

    #[test]
    fn report_serialization_matches_the_declared_field_names() {
        let mut e = engine(7, 4, 0.05);
        let report = e.step().unwrap();
        let value: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        let serde_json::Value::Object(entries) = value else {
            panic!("a report serializes to an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            OnlineEpochReport::FIELD_NAMES,
            "FIELD_NAMES must mirror the struct declaration order"
        );
    }

    #[test]
    fn epochs_advance_population_and_reports_are_sane() {
        let mut e = engine(1, 6, 0.1);
        let reports = e.run(5).unwrap();
        assert_eq!(reports.len(), 5);
        assert_eq!(e.epoch, 5);
        assert_eq!(e.clock().as_secs(), 50.0);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, i);
            assert_eq!(r.time_s, i as f64 * 10.0);
            assert!(r.utility.is_finite());
            assert!(r.scheduled + r.forced_local == r.active_users);
            assert!(r.num_offloaded <= r.scheduled);
            assert!((0.0..=1.0).contains(&r.deadline_hit_rate));
        }
        // The first epoch has the initial arrivals (no handovers: an
        // arrival has no previous station) and cold-solves.
        assert_eq!(reports[0].arrivals, 6);
        assert_eq!(reports[0].handovers, 0);
        assert!(!reports[0].warm_started);
        // Every later epoch with a predecessor warm-starts.
        assert!(reports[1..].iter().all(|r| r.warm_started));
    }

    #[test]
    fn warm_refreshes_undercut_the_cold_first_solve() {
        let mut e = engine(3, 8, 0.05);
        let reports = e.run(4).unwrap();
        let cold = reports[0].proposals;
        for r in &reports[1..] {
            assert!(r.proposals <= 120 + 30, "budget exceeded: {}", r.proposals);
            assert!(r.proposals < cold);
        }
    }

    #[test]
    fn departures_finalize_sla_records() {
        // Short sojourns: everyone leaves quickly.
        let params = ExperimentParams::paper_default().with_servers(4);
        let churn = PoissonChurn::new(5, 0.0, Seconds::new(15.0), 2).unwrap();
        let mut e = OnlineEngine::new(
            params,
            quick_config(),
            Box::new(churn),
            Box::new(AdmitAll),
            2,
        )
        .unwrap();
        let reports = e.run(20).unwrap();
        assert_eq!(e.sla().len(), 5, "all users departed");
        assert_eq!(e.active_users(), 0);
        for u in e.sla().completed() {
            assert!(u.time_in_system_s > 0.0);
            assert!(u.deadline_hits <= u.epochs_served);
        }
        // Once empty, epochs still run and report zero utility.
        let tail = reports.last().unwrap();
        assert_eq!(tail.active_users, 0);
        assert_eq!(tail.utility, 0.0);
        assert_eq!(tail.deadline_hit_rate, 1.0);
    }

    #[test]
    fn rejecting_gate_bounds_the_scheduled_population() {
        let params = ExperimentParams::paper_default().with_servers(4);
        let churn = PoissonChurn::new(12, 0.3, Seconds::new(500.0), 4).unwrap();
        let mut e = OnlineEngine::new(
            params,
            quick_config(),
            Box::new(churn),
            Box::new(CapacityGate::rejecting(8)),
            4,
        )
        .unwrap();
        let reports = e.run(10).unwrap();
        assert!(reports.iter().all(|r| r.scheduled <= 8));
        assert!(e.rejected_total() > 0, "overload should reject someone");
        assert!(reports.iter().all(|r| r.forced_local == 0));
    }

    #[test]
    fn force_local_gate_admits_overload_without_scheduling_it() {
        let params = ExperimentParams::paper_default().with_servers(4);
        let churn = PoissonChurn::new(12, 0.3, Seconds::new(500.0), 4).unwrap();
        let mut e = OnlineEngine::new(
            params,
            quick_config(),
            Box::new(churn),
            Box::new(CapacityGate::forcing_local(8)),
            4,
        )
        .unwrap();
        let reports = e.run(10).unwrap();
        assert!(reports.iter().all(|r| r.scheduled <= 8));
        assert_eq!(e.rejected_total(), 0);
        assert!(reports.iter().any(|r| r.forced_local > 0));
        // Forced-local users still meet the default deadline (local time
        // for the default task is exactly 1 s).
        assert!(reports.iter().all(|r| r.deadline_hit_rate > 0.0));
    }

    #[test]
    fn cold_mode_never_warm_starts() {
        let params = ExperimentParams::paper_default().with_servers(4);
        let churn = PoissonChurn::new(6, 0.05, Seconds::new(100.0), 5).unwrap();
        let mut e = OnlineEngine::new(
            params,
            quick_config().with_mode(ResolveMode::Cold),
            Box::new(churn),
            Box::new(AdmitAll),
            5,
        )
        .unwrap();
        let reports = e.run(3).unwrap();
        assert!(reports.iter().all(|r| !r.warm_started));
        // Reassignments are still tracked against the previous epoch.
        assert_eq!(reports[0].reassignments, 0);
    }

    #[test]
    fn last_schedule_is_feasible_and_consistent() {
        let mut e = engine(6, 8, 0.1);
        let report = e.step().unwrap();
        let (scenario, assignment) = e.last_schedule().expect("scheduled an epoch");
        assignment.verify_feasible(scenario).unwrap();
        let recomputed = Evaluator::new(scenario).objective(assignment);
        assert!((report.utility - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let params = ExperimentParams::paper_default();
        let churn = PoissonChurn::new(1, 0.0, Seconds::new(10.0), 0).unwrap();
        let bad = quick_config().with_epoch_duration(Seconds::new(0.0));
        assert!(OnlineEngine::new(params, bad, Box::new(churn), Box::new(AdmitAll), 0).is_err());
        assert!(quick_config()
            .with_deadline(Seconds::new(-1.0))
            .validate()
            .is_err());
        assert!(quick_config()
            .with_speed_range((2.0, 1.0))
            .validate()
            .is_err());
        assert!(quick_config()
            .with_mode(ResolveMode::warm(0))
            .validate()
            .is_err());
    }

    fn greedy(_: u64) -> Box<dyn Solver> {
        Box::new(mec_baselines::GreedySolver::new())
    }

    fn static_engine(users: usize, config: OnlineConfig, seed: u64) -> OnlineEngine {
        let params = ExperimentParams::paper_default()
            .with_users(users)
            .with_servers(3);
        OnlineEngine::with_static_population(params, config, seed).unwrap()
    }

    fn run_with_greedy(engine: &mut OnlineEngine, epochs: usize) -> Vec<OnlineEpochReport> {
        (0..epochs)
            .map(|_| engine.step_with_solver(&greedy).unwrap())
            .collect()
    }

    #[test]
    fn a_static_population_is_present_from_the_start_and_stays() {
        let mut e = static_engine(8, OnlineConfig::vehicular(), 1);
        assert_eq!(e.active_users(), 8);
        assert_eq!(e.positions().len(), 8);
        let reports = run_with_greedy(&mut e, 5);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, i);
            assert_eq!((r.active_users, r.scheduled), (8, 8));
            assert_eq!((r.arrivals, r.departures), (0, 0));
            assert!(!r.warm_started, "a solver hook always solves cold");
            assert!(r.utility.is_finite());
            assert!(r.handovers <= 8 && r.reassignments <= 8);
        }
        // The first epoch has no predecessor.
        assert_eq!(reports[0].handovers, 0);
        assert_eq!(reports[0].reassignments, 0);
        assert!(e.sla().is_empty(), "nobody departs");
        assert_eq!(e.clock().as_secs(), 25.0, "vehicular epochs are 5 s");
        // Seeded like every other run.
        let again = run_with_greedy(&mut static_engine(8, OnlineConfig::vehicular(), 1), 5);
        assert_eq!(reports, again);
        let other = run_with_greedy(&mut static_engine(8, OnlineConfig::vehicular(), 2), 5);
        assert_ne!(reports, other);
        let nobody = ExperimentParams::paper_default().with_users(0);
        assert!(
            OnlineEngine::with_static_population(nobody, OnlineConfig::vehicular(), 1).is_err()
        );
    }

    #[test]
    fn static_users_on_held_shadowing_never_churn() {
        let mut config = OnlineConfig::pedestrian().with_speed_range((0.0, 0.0));
        config.redraw_shadowing = false;
        let mut e = static_engine(8, config, 2);
        let before = e.positions().to_vec();
        // Greedy is deterministic, positions and channels frozen:
        // identical decisions every epoch.
        let reports = run_with_greedy(&mut e, 4);
        assert_eq!(e.positions(), before.as_slice());
        for r in &reports {
            assert_eq!((r.handovers, r.reassignments), (0, 0));
            assert_eq!(r.utility, reports[0].utility);
        }
    }

    #[test]
    fn fast_movers_hand_over_more_than_slow_ones() {
        let handovers = |speed: (f64, f64), seed: u64| -> usize {
            let mut config = OnlineConfig::pedestrian()
                .with_speed_range(speed)
                .with_epoch_duration(Seconds::new(30.0));
            config.redraw_shadowing = false;
            let params = ExperimentParams::paper_default().with_users(20);
            let mut e = OnlineEngine::with_static_population(params, config, seed).unwrap();
            run_with_greedy(&mut e, 12)
                .iter()
                .map(|r| r.handovers)
                .sum()
        };
        let slow: usize = (0..3).map(|seed| handovers((0.5, 1.0), seed)).sum();
        let fast: usize = (0..3).map(|seed| handovers((20.0, 40.0), seed)).sum();
        assert!(
            fast > slow,
            "fast movers should hand over more: {fast} vs {slow}"
        );
    }

    fn timed(at: f64, event: EngineEvent) -> TimedEvent {
        TimedEvent {
            at: Seconds::new(at),
            event,
        }
    }

    #[test]
    fn an_empty_schedule_changes_nothing() {
        let baseline: Vec<_> = engine(11, 5, 0.05).run(4).unwrap();
        let mut e = engine(11, 5, 0.05).with_events(EventSchedule::empty());
        let with_events = e.run(4).unwrap();
        assert_eq!(baseline, with_events, "no events must be a no-op");
        assert!(baseline.iter().all(|r| r.servers_up == 4));
        assert!(baseline.iter().all(|r| r.events_applied == 0));
    }

    #[test]
    fn outage_masks_the_server_and_recovery_restores_it() {
        let mut e = engine(12, 8, 0.02).with_events(EventSchedule::new(vec![
            timed(15.0, EngineEvent::ServerOutage { server: 1 }),
            timed(35.0, EngineEvent::ServerRecovery { server: 1 }),
        ]));
        let reports = e.run(6).unwrap();
        // Events fire at the first epoch boundary at/after their time:
        // epochs start at t = 0, 10, 20, ... so 15 s fires at epoch 2.
        assert_eq!(reports[0].servers_up, 4);
        assert_eq!(reports[1].servers_up, 4);
        assert_eq!(reports[2].servers_up, 3);
        assert_eq!(reports[2].events_applied, 1);
        assert_eq!(reports[3].servers_up, 3);
        assert_eq!(
            reports[4].servers_up, 4,
            "recovery at 35 s fires at epoch 4"
        );
        assert_eq!(e.events_applied(), 2);
        assert_eq!(e.servers_up(), &[true, true, true, true]);
        for r in &reports {
            assert!(r.utility.is_finite());
        }
    }

    #[test]
    fn service_resumes_after_a_total_outage() {
        // Every server down for one epoch, then one back: the first
        // recovery epoch warm-starts from the last real decision.
        let params = ExperimentParams::paper_default().with_servers(2);
        let churn = PoissonChurn::new(5, 0.0, Seconds::new(1.0e9), 8).unwrap();
        let mut e = OnlineEngine::new(
            params,
            quick_config().with_mode(ResolveMode::warm(100)),
            Box::new(churn),
            Box::new(AdmitAll),
            8,
        )
        .unwrap()
        .with_events(EventSchedule::new(vec![
            timed(10.0, EngineEvent::ServerOutage { server: 0 }),
            timed(10.0, EngineEvent::ServerOutage { server: 1 }),
            timed(20.0, EngineEvent::ServerRecovery { server: 0 }),
        ]));
        let reports = e.run(4).unwrap();
        assert_eq!(
            reports.iter().map(|r| r.servers_up).collect::<Vec<_>>(),
            [2, 0, 1, 1]
        );
        assert_eq!(reports[1].utility, 0.0, "nothing is served in an outage");
        assert!(reports[2..].iter().all(|r| r.warm_started));
        let (scenario, assignment) = e.last_schedule().expect("service resumed");
        assignment.verify_feasible(scenario).unwrap();
    }

    #[test]
    fn flash_crowd_spikes_arrivals_and_then_drains() {
        let params = ExperimentParams::paper_default().with_servers(4);
        let churn = PoissonChurn::new(3, 0.0, Seconds::new(1.0e9), 9).unwrap();
        let mut e = OnlineEngine::new(
            params,
            quick_config(),
            Box::new(churn),
            Box::new(AdmitAll),
            9,
        )
        .unwrap()
        .with_events(EventSchedule::new(vec![timed(
            20.0,
            EngineEvent::FlashCrowd {
                arrivals: 6,
                mean_sojourn: Seconds::new(15.0),
            },
        )]));
        let reports = e.run(12).unwrap();
        assert_eq!(reports[0].active_users, 3);
        assert_eq!(reports[2].arrivals, 6, "burst lands at epoch 2");
        assert_eq!(reports[2].active_users, 9);
        // Burst users depart on their exponential sojourns; the base
        // population (near-infinite sojourn) stays.
        let tail = reports.last().unwrap();
        assert!(tail.active_users < 9, "burst should drain");
        assert!(tail.active_users >= 3);
        assert!(
            !e.sla().is_empty(),
            "departed burst users reach the SLA log"
        );
    }

    #[test]
    fn hotspot_drift_moves_users_without_breaking_the_run() {
        let mut e = engine(13, 10, 0.0).with_events(EventSchedule::new(vec![timed(
            10.0,
            EngineEvent::HotspotDrift {
                cell: 0,
                fraction: 0.5,
            },
        )]));
        let reports = e.run(3).unwrap();
        assert_eq!(reports[1].events_applied, 1);
        for r in &reports {
            assert!(r.utility.is_finite());
        }
        let (scenario, assignment) = e.last_schedule().expect("population is non-empty");
        assignment.verify_feasible(scenario).unwrap();
    }

    #[test]
    fn event_runs_are_deterministic_under_equal_seeds() {
        let schedule = || {
            EventSchedule::new(vec![
                timed(10.0, EngineEvent::ServerOutage { server: 2 }),
                timed(
                    20.0,
                    EngineEvent::FlashCrowd {
                        arrivals: 4,
                        mean_sojourn: Seconds::new(25.0),
                    },
                ),
                timed(40.0, EngineEvent::ServerRecovery { server: 2 }),
            ])
        };
        let run = |seed: u64| {
            engine(seed, 6, 0.05)
                .with_events(schedule())
                .run(6)
                .unwrap()
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }
}
