//! City-scale sharded solving: cluster decomposition + halo reconciliation.
//!
//! The paper's interference structure (Eq. 3) only couples users served by
//! *different* servers on the *same* subchannel, and that coupling is
//! low-rank: everything a cluster needs to know about the rest of the city
//! is the per-`(subchannel, server)` received-power totals its own users
//! did not generate — the **halo**. That makes the metro-scale problem
//! decomposable:
//!
//! 1. **Partition** ([`Partition::build`]) — servers are split into
//!    deterministic, seeded clusters of at most `cluster_size`; every user
//!    joins the cluster of its strongest server (the hex-cell attachment
//!    rule), so each cluster is a self-contained TSAJS subproblem.
//! 2. **Cold shard solve** — each non-empty cluster runs the tempered TTSA
//!    engine on its own [`Scenario::subset`], in parallel through
//!    [`fan_out`]. Per-cluster seeds are derived from the shard seed in
//!    cluster order *before* any work is dispatched, and each cluster's
//!    search depends only on its own stream, so the result is
//!    bit-identical at any worker count.
//! 3. **Halo reconciliation** ([`ShardRun::sweep`]) — a Jacobi-with-aging
//!    epoch. Every cluster descends against an epoch-stamped snapshot of
//!    the external field taken from a running per-`(subchannel, server)`
//!    totals exchange, concurrently through the same `fan_out`. Changed
//!    clusters publish their halo *delta* into the exchange through a
//!    double-buffered contribution pair, in cluster index order at the
//!    epoch barrier. **Aging** skips the visit of any cluster that is at a
//!    local optimum (`settled`) and whose snapshot drifted less than
//!    [`STALE_THRESHOLD`] since its last descent — so steady clusters
//!    stop paying the per-visit resync + full neighborhood re-scan long
//!    before the city converges.
//! 4. **Convergence** — once an epoch with skips changes nothing, the next
//!    epoch is a **certification epoch** that forces every cluster to
//!    descend against its exact current snapshot, and only a change-free
//!    certification epoch marks the run converged. The run therefore ends
//!    at a Nash fixed point of the decomposition (every cluster at a local
//!    optimum *given* the others), or stops at [`ShardConfig::max_sweeps`].
//! 5. **Warm re-solves** ([`ShardRun::warm`], [`resolve_sharded`],
//!    [`ShardSolver::resolve_from`]) — a churned population re-solve
//!    reuses the previous outcome's [`Partition`] (server clusters are
//!    frozen; users re-attach by the same strongest-server rule), patches
//!    survivor slots via [`Assignment::patched`], and classifies each
//!    cluster: *fresh* (no survivor — cold tempered solve, identical to
//!    the cold path), *dirty* (membership churn or halo pressure beyond
//!    [`WARM_HALO_THRESHOLD`] — a shortened [`WARM_BUDGET`] tempered
//!    refresh from the patched slice), or *clean* (the patched slice is
//!    kept verbatim). Cold and warm runs share one solve phase — a cold
//!    run is every cluster fresh — and the usual reconciliation then
//!    polishes the merged schedule, so a warm re-solve from an empty
//!    previous decision is bit-identical to a cold solve.
//!
//! The reported objective is **not** the sum of per-cluster objectives: at
//! the end the merged city-wide assignment is re-scored monolithically by
//! the reference [`Evaluator::objective`], and the per-cluster
//! halo-accounting sum is cross-checked against it
//! ([`ShardOutcome::halo_residual`], expected at the `1e-9` relative
//! tolerance shared by the conformance suite). Equality holds because the
//! objective is separable given the totals: each user's SINR depends only
//! on its own server's per-subchannel total, and the halo supplies exactly
//! the cross-cluster share of that total. Eq. 24 sums over offloaded users
//! only, so this final re-score reads only their gains: `O(offloaded·S)`.
//!
//! ## Determinism
//!
//! Every stage is deterministic under [`ShardConfig::seed`]: the partition
//! is a pure function of `(geometry, cluster_size, seed)`, per-cluster
//! search seeds are derived in cluster order before dispatch, `fan_out`
//! returns results in cluster order whichever worker ran a cluster, and
//! the reconciliation epochs are RNG-free: eligibility is decided by the
//! coordinator before dispatch, every visit reads only its own cluster's
//! state plus the epoch-frozen exchange snapshot, and all deltas are
//! published at the barrier in cluster index order — so the worker count
//! changes *when* a cluster is descended, never *what* it computes.

use crate::config::{InitialTemperature, TemperingConfig, TtsaConfig, DEFAULT_REFRESH_TEMPERATURE};
use crate::moves::NeighborhoodKernel;
use crate::tempering;
use mec_system::{
    Assignment, EvalScratch, Evaluator, IncrementalObjective, MoveDesc, ObjectiveTables, Scenario,
    Solution, Solver, SolverStats,
};
use mec_types::threads::fan_out;
use mec_types::{effective_parallelism, Error, ServerId, SubchannelId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the sharded engine.
///
/// Use [`ShardConfig::paper_default`] and the `with_*` builders, mirroring
/// [`TtsaConfig`]. The embedded `ttsa`/`tempering` configs drive each
/// cluster's cold solve; give `ttsa` a proposal budget to make the shard
/// phase anytime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Maximum number of servers per cluster.
    pub cluster_size: usize,
    /// Hard cap on halo-reconciliation epochs, including the certification
    /// epoch.
    pub max_sweeps: usize,
    /// Shard seed: drives the partition rotation and every per-cluster
    /// search seed.
    pub seed: u64,
    /// Relative improvement floor for sweep-phase descent moves: a move is
    /// accepted only if it improves the cluster objective by more than
    /// this fraction of its magnitude. The default
    /// [`DESCENT_IMPROVEMENT_FLOOR`] only guards against floating-point
    /// drift; raising it damps boundary users whose relocation gains less
    /// than the floor but whose interference externality would otherwise
    /// keep two neighboring clusters trading the same user forever (a
    /// block-coordinate limit cycle — the sweep cap exists for exactly
    /// that case).
    pub descent_floor: f64,
    /// Base TTSA schedule for the per-cluster cold solves.
    pub ttsa: TtsaConfig,
    /// Tempering ladder for the per-cluster cold solves.
    pub tempering: TemperingConfig,
}

impl ShardConfig {
    /// Defaults matched to the paper's geometry: clusters of 8 servers, at
    /// most 8 reconciliation sweeps, and the paper-default TTSA/tempering
    /// schedules for the cluster solves.
    pub fn paper_default() -> Self {
        Self {
            cluster_size: 8,
            max_sweeps: 8,
            seed: 0,
            descent_floor: DESCENT_IMPROVEMENT_FLOOR,
            ttsa: TtsaConfig::paper_default(),
            tempering: TemperingConfig::paper_default(),
        }
    }

    /// Sets the maximum cluster size (servers per cluster).
    pub fn with_cluster_size(mut self, size: usize) -> Self {
        self.cluster_size = size;
        self
    }

    /// Sets the sweep cap.
    pub fn with_max_sweeps(mut self, sweeps: usize) -> Self {
        self.max_sweeps = sweeps;
        self
    }

    /// Sets the shard seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the relative improvement floor for sweep-phase descent moves.
    pub fn with_descent_floor(mut self, floor: f64) -> Self {
        self.descent_floor = floor;
        self
    }

    /// Replaces the per-cluster TTSA schedule.
    pub fn with_ttsa(mut self, ttsa: TtsaConfig) -> Self {
        self.ttsa = ttsa;
        self
    }

    /// Replaces the per-cluster tempering ladder.
    pub fn with_tempering(mut self, tempering: TemperingConfig) -> Self {
        self.tempering = tempering;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a zero cluster size or sweep
    /// cap, or a negative or non-finite descent floor, and propagates
    /// validation of the embedded TTSA and tempering configurations.
    pub fn validate(&self) -> Result<(), Error> {
        if self.cluster_size == 0 {
            return Err(Error::invalid(
                "cluster_size",
                "must hold at least 1 server",
            ));
        }
        if self.max_sweeps == 0 {
            return Err(Error::invalid("max_sweeps", "must allow at least 1 sweep"));
        }
        if !self.descent_floor.is_finite() || self.descent_floor < 0.0 {
            return Err(Error::invalid("descent_floor", "must be finite and >= 0"));
        }
        self.ttsa.validate()?;
        self.tempering.validate()
    }
}

impl Default for ShardConfig {
    /// Defaults to [`ShardConfig::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The members of one cluster, in ascending global-id order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterMembers {
    /// Servers owned by the cluster.
    pub servers: Vec<ServerId>,
    /// Users attached to the cluster (strongest-server rule).
    pub users: Vec<UserId>,
}

/// A deterministic, seeded partition of a scenario into server clusters.
///
/// Servers are split into contiguous index chunks of at most
/// `cluster_size`, rotated by `seed mod S` so different seeds group
/// different neighbors; every user lands in the cluster of its
/// strongest-gain server (ties break toward the lowest server index).
/// Every server and every user belongs to **exactly one** cluster — the
/// property the `shard_props` suite pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    cluster_size: usize,
    server_cluster: Vec<usize>,
    /// Each user's cluster, narrowed to 32 bits: a cluster index is below
    /// the server count, which `Scenario::new` caps at 2²⁰.
    user_cluster: Vec<u32>,
    clusters: Vec<ClusterMembers>,
}

impl Partition {
    /// Builds the partition for a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a zero `cluster_size`.
    pub fn build(scenario: &Scenario, cluster_size: usize, seed: u64) -> Result<Self, Error> {
        if cluster_size == 0 {
            return Err(Error::invalid(
                "cluster_size",
                "must hold at least 1 server",
            ));
        }
        let s_count = scenario.num_servers();
        let offset = (seed % s_count as u64) as usize;
        let server_cluster: Vec<usize> = (0..s_count)
            .map(|i| ((i + offset) % s_count) / cluster_size)
            .collect();
        Ok(Self::from_server_clusters(
            scenario,
            cluster_size,
            server_cluster,
        ))
    }

    /// Assembles a partition from an explicit server→cluster map,
    /// attaching every user to the cluster of its strongest server.
    fn from_server_clusters(
        scenario: &Scenario,
        cluster_size: usize,
        server_cluster: Vec<usize>,
    ) -> Self {
        let num_clusters = server_cluster.iter().max().map_or(0, |&c| c + 1);
        let mut clusters = vec![ClusterMembers::default(); num_clusters];
        for (i, &c) in server_cluster.iter().enumerate() {
            clusters[c].servers.push(ServerId::new(i));
        }

        let gains = scenario.gains();
        let user_cluster: Vec<u32> = scenario
            .user_ids()
            .map(|u| server_cluster[gains.best_server(u).index()] as u32)
            .collect();
        for (u, &c) in user_cluster.iter().enumerate() {
            clusters[c as usize].users.push(UserId::new(u));
        }

        Self {
            cluster_size,
            server_cluster,
            user_cluster,
            clusters,
        }
    }

    /// Carries the partition onto a churned population: the server
    /// clustering is kept verbatim (so a warm re-solve patches the *same*
    /// subproblems the previous decision solved), and user attachment is
    /// recomputed for the new scenario by the same strongest-server rule.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the scenario's server count
    /// differs from the partition's.
    pub fn rebuild_users(&self, scenario: &Scenario) -> Result<Self, Error> {
        if scenario.num_servers() != self.server_cluster.len() {
            return Err(Error::DimensionMismatch {
                what: "partition servers vs scenario servers",
                expected: self.server_cluster.len(),
                actual: scenario.num_servers(),
            });
        }
        Ok(Self::from_server_clusters(
            scenario,
            self.cluster_size,
            self.server_cluster.clone(),
        ))
    }

    /// Number of clusters (including user-empty ones).
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The configured maximum cluster size.
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// All clusters, in index order.
    pub fn clusters(&self) -> &[ClusterMembers] {
        &self.clusters
    }

    /// The cluster owning server `s`.
    pub fn cluster_of_server(&self, s: ServerId) -> usize {
        self.server_cluster[s.index()]
    }

    /// The cluster user `u` is attached to.
    pub fn cluster_of_user(&self, u: UserId) -> usize {
        self.user_cluster[u.index()] as usize
    }
}

/// The city-wide halo: per-`(subchannel, server)` received-power totals of
/// **all** offloaded users, laid out `[j·S + s]` (subchannel-major, the
/// [`Scenario::external_rx`] layout). Accumulated in ascending user order,
/// so the result is a pure deterministic function of the assignment.
pub fn halo_totals(scenario: &Scenario, x: &Assignment) -> Vec<f64> {
    let s_count = scenario.num_servers();
    let powers = scenario.tx_powers_watts();
    let gains = scenario.gains();
    let mut totals = vec![0.0; scenario.num_subchannels() * s_count];
    for (u, _s, j) in x.offloaded() {
        let p = powers[u.index()];
        let row = &mut totals[j.index() * s_count..][..s_count];
        for (t, server) in row.iter_mut().zip(ServerId::all(s_count)) {
            *t += p * gains.gain(u, server, j);
        }
    }
    totals
}

/// The halo **seen by** `cluster`: [`halo_totals`] restricted to the
/// contributions of users *outside* the cluster, in the same global
/// `[j·S + s]` layout. This is exactly what the engine installs (re-indexed
/// to the cluster's local servers) as the subset's
/// [`Scenario::external_rx`].
pub fn cluster_external(
    scenario: &Scenario,
    partition: &Partition,
    cluster: usize,
    x: &Assignment,
) -> Vec<f64> {
    let offloaded: Vec<_> = x.offloaded().collect();
    external_from(scenario, partition, cluster, &offloaded)
}

/// [`cluster_external`] over an already collected `offloaded` list (in
/// ascending user order), so one scan of the assignment serves every
/// cluster.
fn external_from(
    scenario: &Scenario,
    partition: &Partition,
    cluster: usize,
    offloaded: &[(UserId, ServerId, SubchannelId)],
) -> Vec<f64> {
    let s_count = scenario.num_servers();
    let powers = scenario.tx_powers_watts();
    let gains = scenario.gains();
    let mut totals = vec![0.0; scenario.num_subchannels() * s_count];
    for &(u, _s, j) in offloaded {
        if partition.cluster_of_user(u) == cluster {
            continue;
        }
        let p = powers[u.index()];
        let row = &mut totals[j.index() * s_count..][..s_count];
        for (t, server) in row.iter_mut().zip(ServerId::all(s_count)) {
            *t += p * gains.gain(u, server, j);
        }
    }
    totals
}

/// Accumulates the halo contribution of one cluster's users into `out`
/// (global `[j·S + s]` layout, overwritten): `local` is the cluster's
/// schedule in local ids, `users` the local→global user map.
fn own_contribution_into(
    scenario: &Scenario,
    users: &[UserId],
    local: &Assignment,
    out: &mut [f64],
) {
    out.iter_mut().for_each(|v| *v = 0.0);
    let s_count = scenario.num_servers();
    let powers = scenario.tx_powers_watts();
    let gains = scenario.gains();
    for (ul, _sl, j) in local.offloaded() {
        let u = users[ul.index()];
        let p = powers[u.index()];
        let row = &mut out[j.index() * s_count..][..s_count];
        for (t, server) in row.iter_mut().zip(ServerId::all(s_count)) {
            *t += p * gains.gain(u, server, j);
        }
    }
}

/// Publishes one cluster's halo delta into the exchange totals:
/// `totals += next − previous`, entrywise, returning the largest absolute
/// entry of the delta. This is the barrier-time half of the reconciler's
/// double buffer — allocation-free, so the counting-allocator gate in
/// `crates/core/tests/shard_alloc_free.rs` can pin the publish cycle.
pub fn publish_halo_delta(totals: &mut [f64], previous: &[f64], next: &[f64]) -> f64 {
    debug_assert_eq!(totals.len(), previous.len());
    debug_assert_eq!(totals.len(), next.len());
    let mut max_delta = 0.0f64;
    for ((t, p), n) in totals.iter_mut().zip(previous.iter()).zip(next.iter()) {
        let d = n - p;
        *t += d;
        max_delta = max_delta.max(d.abs());
    }
    max_delta
}

/// One non-empty cluster's solving state: the subset scenario (whose
/// `external_rx` is refreshed before every visit), its objective tables
/// and the local↔global id maps, plus the persistent per-cluster exchange
/// state the reconciler ages between epochs.
struct ClusterWork {
    /// Index into the partition's cluster list.
    index: usize,
    scenario: Scenario,
    /// The subset's [`ObjectiveTables`], packed once for the run: the
    /// tempered solve and every epoch visit build their states on it.
    /// Installing a halo changes only the subset's `external_rx`, which
    /// the pack never reads.
    tables: Arc<ObjectiveTables>,
    users: Vec<UserId>,
    servers: Vec<ServerId>,
    /// Current local schedule (the source of truth between reconciliation
    /// epochs; re-merged into the global decision at the barrier).
    local: Assignment,
    /// This cluster's halo contribution currently folded into the
    /// exchange totals (global layout).
    contrib: Vec<f64>,
    /// Double-buffer partner of `contrib`: the recomputed contribution
    /// awaiting its barrier publish.
    contrib_next: Vec<f64>,
    /// Epoch-stamped external snapshot (local `[j·s_local + t]` layout).
    ext: Vec<f64>,
    /// The external snapshot this cluster last descended against — the
    /// aging reference for the staleness gate.
    seen: Vec<f64>,
    /// Whether the last descent ended at a local optimum (as opposed to
    /// exhausting its budget). Unsettled clusters never skip.
    settled: bool,
    /// Whether the coordinator selected this cluster for the current
    /// epoch's descent phase.
    eligible: bool,
    /// Whether the current epoch's descent changed the schedule (consumed
    /// at the barrier).
    changed: bool,
    /// Proposals spent by the current epoch's descent (consumed at the
    /// barrier).
    spent: u64,
}

impl ClusterWork {
    fn new(
        index: usize,
        subset: Scenario,
        users: Vec<UserId>,
        servers: Vec<ServerId>,
        s_count: usize,
    ) -> Self {
        let n = subset.num_subchannels();
        let s_local = servers.len();
        Self {
            index,
            local: Assignment::with_dims(users.len(), s_local, n),
            contrib: vec![0.0; n * s_count],
            contrib_next: vec![0.0; n * s_count],
            ext: vec![0.0; n * s_local],
            seen: vec![0.0; n * s_local],
            settled: false,
            eligible: true,
            changed: false,
            spent: 0,
            tables: Arc::new(ObjectiveTables::new(&subset)),
            scenario: subset,
            users,
            servers,
        }
    }
}

/// The result of a sharded solve.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The merged city-wide decision.
    pub assignment: Assignment,
    /// Its objective, re-scored monolithically (not a per-cluster sum)
    /// by [`ShardRun::finish`] with [`Evaluator::objective`].
    pub objective: f64,
    /// Non-empty clusters that were solved.
    pub clusters: usize,
    /// Reconciliation sweeps (epochs) executed, excluding the cold shard
    /// solve.
    pub sweeps: usize,
    /// Whether the run reached a fixed point (a change-free
    /// certification epoch), as opposed to hitting
    /// [`ShardConfig::max_sweeps`].
    pub converged: bool,
    /// Total proposals across cluster solves and descent sweeps.
    pub proposals: u64,
    /// Relative gap between the per-cluster halo-accounting objective sum
    /// and the monolithic re-score — the decomposition's self-check,
    /// expected within the suite-wide `1e-9` tolerance.
    pub halo_residual: f64,
    /// The per-sweep residual: largest halo-exchange delta published in
    /// the last sweep, relative to the largest halo magnitude. Zero at a
    /// fixed point.
    pub sweep_residual: f64,
    /// Clusters actually (re-)solved: all of them on the cold path; only
    /// fresh + dirty clusters on the warm path.
    pub resolved_clusters: usize,
    /// Clusters whose previous schedule was carried over verbatim by the
    /// warm path.
    pub reused_clusters: usize,
    /// The partition behind the decision — the warm path reuses it.
    pub partition: Partition,
    /// The final halo totals `[j·S + s]` of the decision — the warm
    /// path's halo-pressure reference.
    pub halo: Vec<f64>,
}

impl ShardOutcome {
    /// The empty previous decision: no users, no halo, the seeded
    /// partition of the scenario. Warm-resolving from it is bit-identical
    /// to a cold [`solve_sharded`] (pass an all-`None` survivor map) —
    /// the equivalence the `shard_warm_equivalence` invariant pins.
    ///
    /// # Errors
    ///
    /// Propagates [`Partition::build`] failures.
    pub fn empty(scenario: &Scenario, config: &ShardConfig) -> Result<Self, Error> {
        let partition = Partition::build(scenario, config.cluster_size, config.seed)?;
        Ok(Self {
            assignment: Assignment::with_dims(
                0,
                scenario.num_servers(),
                scenario.num_subchannels(),
            ),
            objective: 0.0,
            clusters: 0,
            sweeps: 0,
            converged: true,
            proposals: 0,
            halo_residual: 0.0,
            sweep_residual: 0.0,
            resolved_clusters: 0,
            reused_clusters: 0,
            partition,
            halo: vec![0.0; scenario.num_subchannels() * scenario.num_servers()],
        })
    }
}

/// A stepping handle over a sharded solve: construction runs the parallel
/// cluster solve phase, every cluster fresh ([`ShardRun::new`]) or after
/// the warm patch-and-classify step ([`ShardRun::warm`]), each
/// [`sweep`](Self::sweep) runs one reconciliation epoch, and
/// [`finish`](Self::finish) re-scores the merged schedule
/// monolithically. [`solve_sharded`] / [`resolve_sharded`] drive it to
/// convergence; the property suite steps it manually to audit the halos
/// between sweeps.
pub struct ShardRun<'a> {
    scenario: &'a Scenario,
    config: ShardConfig,
    workers: usize,
    partition: Partition,
    works: Vec<ClusterWork>,
    global: Assignment,
    /// The halo exchange: current per-`(subchannel, server)` totals of
    /// all offloaded users, maintained by barrier-time delta publishes.
    totals: Vec<f64>,
    sweeps: usize,
    converged: bool,
    /// The next epoch is a certification epoch (every cluster descends,
    /// no aging skips).
    certifying: bool,
    proposals: u64,
    /// Largest exchange delta of the last sweep, relative to the largest
    /// halo magnitude.
    last_residual: f64,
    resolved_clusters: usize,
    reused_clusters: usize,
}

impl<'a> ShardRun<'a> {
    /// Partitions the scenario and runs the parallel per-cluster cold
    /// solves (`workers` caps the pool; it never affects the result).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an invalid configuration
    /// and propagates subset-construction failures.
    pub fn new(scenario: &'a Scenario, config: ShardConfig, workers: usize) -> Result<Self, Error> {
        config.validate()?;
        let partition = Partition::build(scenario, config.cluster_size, config.seed)?;
        let works = cluster_works(scenario, &partition)?;
        let plans = works.iter().map(|_| Plan::Fresh).collect();
        Ok(Self::solve_clusters(
            scenario, config, workers, partition, works, plans,
        ))
    }

    /// The solve phase shared by [`ShardRun::new`] and [`ShardRun::warm`]:
    /// solves every cluster by its plan through [`fan_out`], merges the
    /// local schedules into the global decision and seeds the halo
    /// exchange from every cluster's contribution, all in cluster index
    /// order, then hands the clean clusters to the sweeps settled.
    fn solve_clusters(
        scenario: &'a Scenario,
        config: ShardConfig,
        workers: usize,
        partition: Partition,
        mut works: Vec<ClusterWork>,
        plans: Vec<Plan>,
    ) -> Self {
        // Per-cluster seeds are derived for *every* cluster in index order
        // before any dispatch, so a cluster's stream does not depend on
        // which other clusters happen to be user-empty, clean, or on which
        // worker it runs.
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let cluster_seeds: Vec<u64> = (0..partition.num_clusters())
            .map(|_| seed_rng.gen())
            .collect();
        let kernel = NeighborhoodKernel::new();
        let refresh = config
            .ttsa
            .with_proposal_budget(WARM_BUDGET)
            .with_initial_temperature(InitialTemperature::Fixed(DEFAULT_REFRESH_TEMPERATURE));

        // Tempered TTSA per cluster, single-threaded inside (parallelism
        // lives at the cluster level). `None` marks a clean cluster, whose
        // slice is kept verbatim at zero proposals.
        let jobs: Vec<(&mut ClusterWork, Plan)> = works.iter_mut().zip(plans).collect();
        let spent: Vec<Option<u64>> = fan_out(workers, jobs, |(work, plan)| {
            let mut rng = StdRng::seed_from_u64(cluster_seeds[work.index]);
            let outcome = match plan {
                Plan::Fresh => tempering::run(
                    &work.scenario,
                    &work.tables,
                    &config.tempering,
                    &config.ttsa,
                    &kernel,
                    &mut rng,
                    1,
                    None,
                ),
                Plan::Dirty(start) => tempering::run(
                    &work.scenario,
                    &work.tables,
                    &config.tempering,
                    &refresh,
                    &kernel,
                    &mut rng,
                    1,
                    Some(start),
                ),
                Plan::Clean(slice) => {
                    work.local = slice;
                    return None;
                }
            };
            work.local = outcome.assignment;
            Some(outcome.proposals)
        });

        // Merge: cluster solves only touch their own (disjoint) servers,
        // so the union is conflict-free by construction.
        let s_count = scenario.num_servers();
        let mut global = Assignment::all_local(scenario);
        let mut totals = vec![0.0; scenario.num_subchannels() * s_count];
        for work in works.iter_mut() {
            for (ul, sl, j) in work.local.offloaded() {
                global
                    .assign(work.users[ul.index()], work.servers[sl.index()], j)
                    .expect("cluster servers are disjoint");
            }
            own_contribution_into(scenario, &work.users, &work.local, &mut work.contrib);
            for (t, c) in totals.iter_mut().zip(work.contrib.iter()) {
                *t += c;
            }
        }

        // Clean clusters enter the sweep phase settled: their slice was a
        // descent fixed point under the previous decision's halo, so the
        // aging gate — not an unconditional first visit — decides when
        // they re-descend. Their `seen` snapshot is stamped from the
        // patched exchange so the first epoch measures genuine drift
        // rather than distance from the zero-initialized buffer. The
        // certification epoch still visits every cluster before the run
        // may converge, so the exact fixed-point contract is unchanged.
        for (work, _) in works.iter_mut().zip(&spent).filter(|(_, p)| p.is_none()) {
            let s_local = work.servers.len();
            for (j, seen_row) in work.seen.chunks_exact_mut(s_local).enumerate() {
                let totals_row = &totals[j * s_count..][..s_count];
                let contrib_row = &work.contrib[j * s_count..][..s_count];
                for (dst, sid) in seen_row.iter_mut().zip(work.servers.iter()) {
                    *dst = (totals_row[sid.index()] - contrib_row[sid.index()]).max(0.0);
                }
            }
            work.settled = true;
        }

        let resolved_clusters = spent.iter().flatten().count();
        let reused_clusters = works.len() - resolved_clusters;
        Self {
            scenario,
            config,
            workers,
            partition,
            works,
            global,
            totals,
            sweeps: 0,
            converged: false,
            certifying: false,
            proposals: spent.iter().flatten().sum(),
            last_residual: f64::INFINITY,
            resolved_clusters,
            reused_clusters,
        }
    }

    /// Warm construction from a previous outcome: reuses `prev`'s server
    /// clustering ([`Partition::rebuild_users`]), patches survivor slots
    /// via [`Assignment::patched`] (`old_of_new[v]` names the previous
    /// user that new index `v` continues, `None` for arrivals), and
    /// classifies every non-empty cluster:
    ///
    /// - **fresh** — no surviving user: the full cold tempered solve,
    ///   with the same derived seed as the cold path (which is why a warm
    ///   run from [`ShardOutcome::empty`] is bit-identical to
    ///   [`ShardRun::new`]);
    /// - **dirty** — membership churn (an arrival, a departure, a
    ///   survivor that changed clusters or held a slot outside its new
    ///   cluster) or halo pressure beyond [`WARM_HALO_THRESHOLD`] against
    ///   `prev.halo`: a shortened [`WARM_BUDGET`] tempered refresh from
    ///   the patched slice;
    /// - **clean** — the patched slice is carried over verbatim, zero
    ///   proposals.
    ///
    /// The reconciliation sweeps then run exactly as on the cold path.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `old_of_new` doesn't cover
    /// the scenario's population or `prev` has a different `(S, N)`
    /// geometry, and propagates configuration, patch and subset failures.
    pub fn warm(
        scenario: &'a Scenario,
        config: ShardConfig,
        workers: usize,
        prev: &ShardOutcome,
        old_of_new: &[Option<UserId>],
    ) -> Result<Self, Error> {
        config.validate()?;
        if old_of_new.len() != scenario.num_users() {
            return Err(Error::DimensionMismatch {
                what: "old_of_new vs scenario users",
                expected: scenario.num_users(),
                actual: old_of_new.len(),
            });
        }
        let s_count = scenario.num_servers();
        let n = scenario.num_subchannels();
        if prev.assignment.num_servers() != s_count
            || prev.assignment.num_subchannels() != n
            || prev.halo.len() != n * s_count
        {
            return Err(Error::DimensionMismatch {
                what: "previous shard outcome vs scenario geometry",
                expected: n * s_count,
                actual: prev.halo.len(),
            });
        }
        let partition = prev.partition.rebuild_users(scenario)?;
        let mut patched = prev.assignment.patched(old_of_new)?;
        let mut dirty = vec![false; partition.num_clusters()];

        // Survivors whose slot landed outside their (possibly new)
        // attachment cluster go local again; both clusters re-solve.
        for v in 0..old_of_new.len() {
            let u = UserId::new(v);
            if let Some((s, _)) = patched.slot(u) {
                let cu = partition.cluster_of_user(u);
                let cs = partition.cluster_of_server(s);
                if cu != cs {
                    patched.release(u);
                    dirty[cu] = true;
                    dirty[cs] = true;
                }
            }
        }

        // Membership churn: arrivals dirty their cluster, moved survivors
        // dirty both sides, departures dirty the cluster they left.
        let mut continued = vec![false; prev.assignment.num_users()];
        for (v, old) in old_of_new.iter().enumerate() {
            let c = partition.cluster_of_user(UserId::new(v));
            match old {
                None => dirty[c] = true,
                Some(o) => {
                    continued[o.index()] = true;
                    let co = prev.partition.cluster_of_user(*o);
                    if co != c {
                        dirty[c] = true;
                        if co < dirty.len() {
                            dirty[co] = true;
                        }
                    }
                }
            }
        }
        for (o, was_continued) in continued.iter().enumerate() {
            if !was_continued {
                let co = prev.partition.cluster_of_user(UserId::new(o));
                if co < dirty.len() {
                    dirty[co] = true;
                }
            }
        }

        // Halo pressure: clusters whose servers' external field moved
        // beyond the threshold re-solve even with untouched membership.
        let patched_halo = halo_totals(scenario, &patched);
        let scale = halo_scale(&patched_halo).max(halo_scale(&prev.halo));
        let halo_gate = WARM_HALO_THRESHOLD * scale;
        for (k, (new_v, old_v)) in patched_halo.iter().zip(prev.halo.iter()).enumerate() {
            if (new_v - old_v).abs() > halo_gate {
                dirty[partition.cluster_of_server(ServerId::new(k % s_count))] = true;
            }
        }

        // Dirty clusters refresh against the patched city's halo; fresh
        // clusters must stay bit-identical to the cold path, so their
        // subsets keep no external.
        let mut works = cluster_works(scenario, &partition)?;
        let mut plans = Vec::with_capacity(works.len());
        for work in works.iter_mut() {
            let survivors = work.users.iter().any(|&u| old_of_new[u.index()].is_some());
            plans.push(if !survivors {
                Plan::Fresh
            } else if dirty[work.index] {
                let ext = cluster_external(scenario, &partition, work.index, &patched);
                install_external(work, &ext, s_count)?;
                Plan::Dirty(local_assignment(work, &patched)?)
            } else {
                Plan::Clean(local_assignment(work, &patched)?)
            });
        }
        Ok(Self::solve_clusters(
            scenario, config, workers, partition, works, plans,
        ))
    }

    /// The partition driving the run.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The current merged city-wide decision.
    pub fn assignment(&self) -> &Assignment {
        &self.global
    }

    /// Reconciliation sweeps executed so far.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Whether a fixed point has been reached.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Total proposals spent so far.
    pub fn proposals(&self) -> u64 {
        self.proposals
    }

    /// The largest per-sweep halo-exchange residual (see
    /// [`ShardOutcome::sweep_residual`]); `INFINITY` before the first
    /// sweep.
    pub fn sweep_residual(&self) -> f64 {
        self.last_residual
    }

    /// Runs one pipelined Jacobi-with-aging reconciliation epoch:
    ///
    /// 1. **Snapshot** (coordinator) — every cluster's external is read
    ///    off the exchange (`totals − own contribution`, clamped at 0
    ///    against cancellation residue) and its drift against the
    ///    last-descended snapshot decides eligibility: settled clusters
    ///    whose drift stays under [`STALE_THRESHOLD`] skip
    ///    the epoch (unless this is a certification epoch).
    /// 2. **Descend** ([`fan_out`]) — eligible clusters install their
    ///    snapshot and run the deterministic descent concurrently; each
    ///    visit touches only its own cluster's state, so the schedule of
    ///    visits over workers cannot affect any result.
    /// 3. **Publish** (coordinator, cluster index order) — changed
    ///    clusters re-merge into the global decision and publish their
    ///    contribution delta into the exchange via the double buffer.
    ///
    /// Convergence requires a change-free **certification epoch** (no
    /// aging skips): epochs that skipped anyone only schedule one, so the
    /// fixed point is certified, not assumed.
    ///
    /// Returns whether another epoch is needed; `false` marks the run
    /// converged.
    ///
    /// # Errors
    ///
    /// Propagates the first halo installation failure in cluster order
    /// (none occur for states produced by [`ShardRun::new`] /
    /// [`ShardRun::warm`]). Every eligible cluster is descended before
    /// the error returns, and none of them is merged or published, so the
    /// run should be dropped after an error.
    pub fn sweep(&mut self) -> Result<bool, Error> {
        if self.converged {
            return Ok(false);
        }
        let s_count = self.scenario.num_servers();
        let scale = halo_scale(&self.totals);
        let force = self.certifying;

        // Phase 1: epoch-stamp the exchange into per-cluster snapshots
        // and decide eligibility.
        let stale_gate = STALE_THRESHOLD * scale;
        for work in self.works.iter_mut() {
            let s_local = work.servers.len();
            let mut drift = 0.0f64;
            for (j, (ext_row, seen_row)) in work
                .ext
                .chunks_exact_mut(s_local)
                .zip(work.seen.chunks_exact(s_local))
                .enumerate()
            {
                let totals_row = &self.totals[j * s_count..][..s_count];
                let contrib_row = &work.contrib[j * s_count..][..s_count];
                for ((dst, &old), sid) in ext_row
                    .iter_mut()
                    .zip(seen_row.iter())
                    .zip(work.servers.iter())
                {
                    let v = (totals_row[sid.index()] - contrib_row[sid.index()]).max(0.0);
                    drift = drift.max((v - old).abs());
                    *dst = v;
                }
            }
            work.eligible = force || !work.settled || drift > stale_gate;
        }

        // Phase 2: concurrent descents against the frozen snapshots.
        let scenario = self.scenario;
        let budget = DESCENT_BUDGET;
        let floor = self.config.descent_floor;
        let eligible: Vec<&mut ClusterWork> =
            self.works.iter_mut().filter(|w| w.eligible).collect();
        fan_out(self.workers, eligible, |work| {
            pipelined_visit(work, scenario, budget, floor)
        })
        .into_iter()
        .collect::<Result<(), Error>>()?;

        // Phase 3: barrier — merge and publish deltas in cluster index
        // order (deterministic regardless of who descended where).
        let mut epoch_changed = false;
        let mut max_delta = 0.0f64;
        for work in self.works.iter_mut() {
            if !work.eligible {
                continue;
            }
            self.proposals += work.spent;
            work.spent = 0;
            if work.changed {
                work.changed = false;
                epoch_changed = true;
                for &u in &work.users {
                    self.global.release(u);
                }
                for (ul, sl, j) in work.local.offloaded() {
                    self.global
                        .assign(work.users[ul.index()], work.servers[sl.index()], j)
                        .expect("cluster servers are disjoint");
                }
                max_delta = max_delta.max(publish_halo_delta(
                    &mut self.totals,
                    &work.contrib,
                    &work.contrib_next,
                ));
                std::mem::swap(&mut work.contrib, &mut work.contrib_next);
            }
        }

        self.sweeps += 1;
        self.last_residual = max_delta / scale;
        if epoch_changed {
            self.certifying = false;
            return Ok(true);
        }
        if self.works.iter().any(|w| !w.eligible) {
            // A change-free epoch that skipped someone proves nothing yet:
            // certify the fixed point with one full epoch.
            self.certifying = true;
            return Ok(true);
        }
        self.certifying = false;
        self.converged = true;
        Ok(false)
    }

    /// Re-scores the merged schedule with the reference
    /// [`Evaluator::objective`], cross-checks it against the per-cluster
    /// halo-accounting sum, and returns the outcome. Falls back to the
    /// all-local decision if the merged schedule is worse than doing
    /// nothing (matching every other engine's contract).
    ///
    /// Eq. 24 sums over offloaded users only, and the reference evaluator
    /// reads just their gain rows, so each score costs `O(offloaded·S)`.
    /// It runs the same float operations in the same order as a fresh
    /// [`IncrementalObjective`], so the objective matches the engine's
    /// own scoring bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates halo-installation and local-slice failures (none occur
    /// for states produced by [`ShardRun::new`] / [`ShardRun::warm`]).
    pub fn finish(mut self) -> Result<ShardOutcome, Error> {
        // Halo accounting: with the final halos installed, the objective
        // decomposes exactly into per-cluster terms — each user's SINR
        // depends only on its own server's per-subchannel total, and the
        // external supplies the cross-cluster share of it.
        let s_count = self.scenario.num_servers();
        let offloaded: Vec<_> = self.global.offloaded().collect();
        let mut scratch = EvalScratch::default();
        let mut cluster_sum = 0.0;
        for work in self.works.iter_mut() {
            let ext = external_from(self.scenario, &self.partition, work.index, &offloaded);
            install_external(work, &ext, s_count)?;
            let local = local_assignment(work, &self.global)?;
            cluster_sum += Evaluator::new(&work.scenario).objective_with(&local, &mut scratch);
        }

        let clusters = self.works.len();
        let mut objective =
            Evaluator::new(self.scenario).objective_with(&self.global, &mut scratch);
        let halo_residual = (cluster_sum - objective).abs() / objective.abs().max(1.0);
        let mut assignment = self.global;
        if objective < 0.0 {
            assignment = Assignment::all_local(self.scenario);
            objective = 0.0;
        }
        let halo = halo_totals(self.scenario, &assignment);
        let sweep_residual = if self.last_residual.is_finite() {
            self.last_residual
        } else {
            0.0
        };
        Ok(ShardOutcome {
            assignment,
            objective,
            clusters,
            sweeps: self.sweeps,
            converged: self.converged,
            proposals: self.proposals,
            halo_residual,
            sweep_residual,
            resolved_clusters: self.resolved_clusters,
            reused_clusters: self.reused_clusters,
            partition: self.partition,
            halo,
        })
    }
}

/// What the solve phase does with one non-empty cluster.
enum Plan {
    /// No surviving user (every cluster of a cold run): the full cold
    /// tempered solve.
    Fresh,
    /// Membership churn or halo pressure: a shortened [`WARM_BUDGET`]
    /// tempered refresh at the online engine's fixed refresh
    /// temperature, from the patched local slice, against the
    /// pre-installed patched-city halo.
    Dirty(Assignment),
    /// Untouched: the patched local slice is kept verbatim.
    Clean(Assignment),
}

/// One [`ClusterWork`] per non-empty cluster of `partition`, in cluster
/// index order.
fn cluster_works(scenario: &Scenario, partition: &Partition) -> Result<Vec<ClusterWork>, Error> {
    let s_count = scenario.num_servers();
    let mut works = Vec::new();
    for (index, members) in partition.clusters().iter().enumerate() {
        if members.users.is_empty() {
            continue;
        }
        works.push(ClusterWork::new(
            index,
            scenario.subset(&members.users, &members.servers)?,
            members.users.clone(),
            members.servers.clone(),
            s_count,
        ));
    }
    Ok(works)
}

/// The exchange's magnitude scale: the largest absolute halo entry,
/// floored away from zero so relative gates stay well-defined on an
/// all-local city.
fn halo_scale(totals: &[f64]) -> f64 {
    totals
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE)
}

/// Installs a global-layout halo into a cluster subset's `external_rx`,
/// re-indexed to the cluster's local servers. Recycles the subset's
/// previous external buffer ([`Scenario::take_external_rx`]) so repeated
/// visits don't allocate.
fn install_external(work: &mut ClusterWork, ext: &[f64], s_count: usize) -> Result<(), Error> {
    let s_local = work.servers.len();
    let n = work.scenario.num_subchannels();
    let mut local_ext = work.scenario.take_external_rx().unwrap_or_default();
    local_ext.clear();
    local_ext.resize(n * s_local, 0.0);
    for (j, row) in local_ext.chunks_exact_mut(s_local).enumerate() {
        let global_row = &ext[j * s_count..][..s_count];
        for (dst, sid) in row.iter_mut().zip(work.servers.iter()) {
            *dst = global_row[sid.index()];
        }
    }
    work.scenario.set_external_rx(Some(local_ext))
}

/// Installs the cluster's already-local epoch snapshot (`work.ext`) as
/// its subset's `external_rx`, recycling the previous buffer.
fn install_snapshot(work: &mut ClusterWork) -> Result<(), Error> {
    let mut buf = work.scenario.take_external_rx().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(&work.ext);
    work.scenario.set_external_rx(Some(buf))
}

/// One epoch visit: install the frozen snapshot, descend on a state
/// built on the cluster's run-long [`ObjectiveTables`] pack, and
/// stage the results (`changed`/`spent`/`settled`, the refreshed
/// contribution, the aging reference) for the barrier. Reads
/// nothing outside its own cluster's state, which is what makes the
/// epoch worker-count independent.
fn pipelined_visit(
    work: &mut ClusterWork,
    scenario: &Scenario,
    budget: u64,
    floor: f64,
) -> Result<(), Error> {
    install_snapshot(work)?;
    let local = std::mem::replace(&mut work.local, Assignment::with_dims(0, 0, 0));
    let mut inc =
        IncrementalObjective::with_tables(&work.scenario, Arc::clone(&work.tables), local)?;
    let outcome = descent(&mut inc, budget, floor);
    work.local = inc.into_assignment();
    work.settled = !outcome.exhausted;
    work.changed = outcome.changed;
    work.spent = outcome.spent;
    work.seen.copy_from_slice(&work.ext);
    if outcome.changed {
        own_contribution_into(scenario, &work.users, &work.local, &mut work.contrib_next);
    }
    Ok(())
}

/// Extracts a cluster's slice of the merged global assignment in local
/// ids. Cluster users only ever hold slots on cluster servers, so the
/// server lookup cannot fail.
fn local_assignment(work: &ClusterWork, global: &Assignment) -> Result<Assignment, Error> {
    let mut local = Assignment::with_dims(
        work.users.len(),
        work.servers.len(),
        work.scenario.num_subchannels(),
    );
    for (k, &u) in work.users.iter().enumerate() {
        if let Some((s, j)) = global.slot(u) {
            let sl = work
                .servers
                .binary_search(&s)
                .expect("cluster users stay on cluster servers");
            local.assign(UserId::new(k), ServerId::new(sl), j)?;
        }
    }
    Ok(local)
}

/// Default relative improvement floor for [`descent`]: an accepted move
/// must beat the incumbent by more than this fraction of its magnitude.
/// The incremental score/apply arithmetic drifts by a few ulps (~`1e-16`
/// relative) per accepted move, so without a floor a pair of moves that
/// nets to zero can each look "improving" by ~`1e-15` and the descent
/// cycles forever; `1e-12` is two orders of magnitude above the drift and
/// three below the suite-wide `1e-9` tolerance, so it keeps the fixed
/// point stable without discarding any improvement the conformance suite
/// could see. See [`ShardConfig::descent_floor`] for when to raise it.
pub const DESCENT_IMPROVEMENT_FLOOR: f64 = 1e-12;

/// Cap on [`descent`] proposals per cluster per reconciliation epoch: the
/// anytime bound on the reconciliation phase.
pub const DESCENT_BUDGET: u64 = 200_000;

/// Aging gate of [`ShardRun::sweep`]: a settled cluster skips its epoch
/// visit while its external snapshot has drifted by less than this
/// fraction of the largest halo magnitude since its last descent. The
/// certification epoch ignores it, so the gate trades intermediate
/// visits, not the fixed-point contract.
pub const STALE_THRESHOLD: f64 = 1e-3;

/// Tempered-refresh proposal budget for a *dirty* cluster on the warm
/// path ([`ShardRun::warm`]); fresh clusters always run the full cold
/// schedule.
pub const WARM_BUDGET: u64 = 20_000;

/// Warm-path halo pressure gate of [`ShardRun::warm`]: a cluster with only
/// clean survivors still counts as dirty when any of its servers' halo
/// entries moved by more than this fraction of the largest halo magnitude
/// since the previous outcome.
pub const WARM_HALO_THRESHOLD: f64 = 0.05;

/// What one [`descent`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descent {
    /// Whether any move was accepted.
    pub changed: bool,
    /// Proposals spent, counting the candidates the bound settled.
    pub spent: u64,
    /// Whether the budget ran out before a full improvement-free pass —
    /// i.e. the state may *not* be a local optimum. The reconciler's aging
    /// gate only ever skips clusters that ended unexhausted (`settled`).
    pub exhausted: bool,
    /// Candidates skipped unpriced because their bound ruled out an
    /// improvement above the floor (a subset of `spent`).
    pub bounded: u64,
}

/// Deterministic, RNG-free first-improvement descent over TTSA's
/// relocation neighborhood (every single-user relocation including
/// evictions, then pairwise slot swaps), repeated until a local optimum
/// or the budget. This is the one systematic scan of the crate: the
/// per-cluster proposal loop of [`ShardRun::sweep`] and, with `floor =
/// 0.0` (plain `candidate > current` for a finite incumbent), the
/// tempering quench. A move is accepted only if it improves the
/// objective by more than `floor` relative to its magnitude — at the
/// default [`DESCENT_IMPROVEMENT_FLOOR`] that merely makes the fixed
/// point stable under floating-point drift; see
/// [`ShardConfig::descent_floor`] for the limit-cycle damping use.
///
/// Every candidate is bounded first ([`IncrementalObjective::bound`],
/// no `log2` refresh) and priced only when its bound clears the
/// acceptance threshold `floor · max(|current|, 1)`; a skipped candidate
/// could not have been accepted, and it still counts toward the budget,
/// so the decisions, `spent` and `exhausted` are those of pricing every
/// candidate. A local user's takes are asked first a server at a time
/// ([`IncrementalObjective::settles_local_takes`]): when that gate
/// proves every take of the server's `N` slots bounded at or below the
/// threshold and all `N` fit in the budget, the block is settled whole,
/// as the per-candidate bounds would have settled it one by one, so
/// `bounded` is unchanged too. Slot takes are bounded and priced
/// straight-line ([`IncrementalObjective::bound_take`],
/// [`IncrementalObjective::score_take`]), so a [`MoveDesc`] is built
/// only for the other shapes and for an accepted move. The loop reuses
/// the incremental state's buffers only, so at a fixed point it
/// allocates nothing — the counting-allocator gate in
/// `tests/shard_alloc_free.rs` pins that for both floors.
pub fn descent(inc: &mut IncrementalObjective<'_>, budget: u64, floor: f64) -> Descent {
    let scenario = inc.scenario();
    let mut current = inc.current();
    let mut spent: u64 = 0;
    let mut bounded: u64 = 0;
    let mut changed = false;
    let mut exhausted = false;
    let mut improved = true;
    let n = scenario.num_subchannels();
    let width = n as u64;
    let total_slots = scenario.num_servers() * n;
    let slot = |p: usize| (ServerId::new(p / n), SubchannelId::new(p % n));
    'descent: while improved && spent < budget {
        improved = false;
        // Phase 1: every single-user relocation — back to local, or onto
        // any slot, evicting its occupant when taken — a server's block
        // of `n` slots at a time.
        for u in scenario.user_ids() {
            for block in std::iter::once(None).chain(scenario.server_ids().map(Some)) {
                // A local user's block whose every take the server gate
                // bounds at or below the threshold is settled whole, as
                // the per-candidate loop would settle it one by one.
                if let Some(s) = block {
                    if budget - spent >= width
                        && inc.settles_local_takes(u, s, floor * current.abs().max(1.0))
                    {
                        spent += width;
                        bounded += width;
                        continue;
                    }
                }
                let slots = if block.is_some() { n } else { 1 };
                for j in 0..slots {
                    let target = block.map(|s| (s, SubchannelId::new(j)));
                    if spent >= budget {
                        exhausted = true;
                        break 'descent;
                    }
                    let from = inc.assignment().slot(u);
                    if from == target {
                        continue;
                    }
                    spent += 1;
                    debug_assert_eq!(current.to_bits(), inc.current().to_bits());
                    let threshold = floor * current.abs().max(1.0);
                    let candidate = match target {
                        None => {
                            let mv = MoveDesc::relocate(inc.assignment(), u, None);
                            if inc.bound(&mv) <= threshold {
                                bounded += 1;
                                continue;
                            }
                            inc.score(&mv)
                        }
                        Some((s, j)) => {
                            if inc.bound_take(u, s, j) <= threshold {
                                bounded += 1;
                                continue;
                            }
                            inc.score_take(u, s, j)
                        }
                    };
                    if candidate - current > threshold {
                        let mv = match target {
                            None => MoveDesc::relocate(inc.assignment(), u, None),
                            Some((s, j)) => MoveDesc::relocate_evicting(inc.assignment(), u, s, j),
                        };
                        inc.apply(&mv);
                        inc.commit();
                        current = candidate;
                        improved = true;
                        changed = true;
                    }
                }
            }
        }
        // Phase 2: pairwise slot exchanges between offloaded users.
        for p in 0..total_slots {
            for q in (p + 1)..total_slots {
                if spent >= budget {
                    exhausted = true;
                    break 'descent;
                }
                let (s1, j1) = slot(p);
                let (s2, j2) = slot(q);
                let (Some(a), Some(b)) = (
                    inc.assignment().occupant(s1, j1),
                    inc.assignment().occupant(s2, j2),
                ) else {
                    continue;
                };
                let mv = MoveDesc::swap(inc.assignment(), a, b);
                if mv.is_empty() {
                    continue;
                }
                spent += 1;
                let threshold = floor * current.abs().max(1.0);
                if inc.bound(&mv) <= threshold {
                    bounded += 1;
                    continue;
                }
                let candidate = inc.score(&mv);
                if candidate - current > threshold {
                    inc.apply(&mv);
                    inc.commit();
                    current = candidate;
                    improved = true;
                    changed = true;
                }
            }
        }
    }
    // Exiting the while because `improved && spent >= budget` also means
    // the budget cut a pass short of proving a local optimum.
    Descent {
        changed,
        spent,
        exhausted: exhausted || (improved && spent >= budget),
        bounded,
    }
}

/// Runs the sharded engine to convergence (or the sweep cap): cold shard
/// phase, pipelined Jacobi-with-aging reconcile epochs
/// ([`ShardRun::sweep`]), monolithic re-score.
///
/// `workers` caps the cluster-solve pool (resolve it with
/// [`mec_types::effective_parallelism`]); it never affects the result.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for an invalid configuration and
/// propagates scenario-subset failures.
pub fn solve_sharded(
    scenario: &Scenario,
    config: &ShardConfig,
    workers: usize,
) -> Result<ShardOutcome, Error> {
    let mut run = ShardRun::new(scenario, *config, workers)?;
    while run.sweeps() < config.max_sweeps {
        if !run.sweep()? {
            break;
        }
    }
    run.finish()
}

/// Warm-resolves a churned population against a previous outcome: the
/// [`ShardRun::warm`] patch-and-refresh phase, then the same
/// reconciliation drive as [`solve_sharded`]. With
/// `prev = `[`ShardOutcome::empty`] and an all-`None` map this is
/// bit-identical to [`solve_sharded`].
///
/// `workers` caps the cluster-solve pool; it never affects the result.
///
/// # Errors
///
/// As [`ShardRun::warm`].
pub fn resolve_sharded(
    scenario: &Scenario,
    config: &ShardConfig,
    workers: usize,
    prev: &ShardOutcome,
    old_of_new: &[Option<UserId>],
) -> Result<ShardOutcome, Error> {
    let mut run = ShardRun::warm(scenario, *config, workers, prev, old_of_new)?;
    while run.sweeps() < config.max_sweeps {
        if !run.sweep()? {
            break;
        }
    }
    run.finish()
}

/// The sharded city-scale scheduler behind `--solver shard`.
///
/// Implements [`Solver`]. Unlike [`TsajsSolver`](crate::TsajsSolver),
/// repeated `solve` calls are bit-identical: the shard seed fully
/// determines the partition and every cluster stream.
#[derive(Debug, Clone)]
pub struct ShardSolver {
    config: ShardConfig,
    threads: Option<usize>,
    last_outcome: Option<ShardOutcome>,
}

impl ShardSolver {
    /// Creates a solver from a configuration.
    pub fn new(config: ShardConfig) -> Self {
        Self {
            config,
            threads: None,
            last_outcome: None,
        }
    }

    /// Creates a solver with [`ShardConfig::paper_default`] and the given
    /// seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(ShardConfig::paper_default().with_seed(seed))
    }

    /// Caps the cluster-solve worker pool. Without an explicit cap,
    /// `TSAJS_THREADS` and the hardware parallelism decide (see
    /// [`mec_types::effective_parallelism`]). Thread count never affects
    /// results.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The outcome of the most recent [`Solver::solve`] or
    /// [`ShardSolver::resolve_from`]: its diagnostics (clusters, sweeps,
    /// convergence, residuals, resolved and reused clusters) and the
    /// previous decision a follow-up `resolve_from` patches.
    pub fn last_outcome(&self) -> Option<&ShardOutcome> {
        self.last_outcome.as_ref()
    }

    /// Warm-resolves a churned scenario against a previous outcome (see
    /// [`resolve_sharded`]): only fresh/dirty clusters re-solve, clean
    /// clusters keep their patched slices, and the usual reconciliation
    /// polishes the merge. Records the outcome for the next chain link.
    ///
    /// # Errors
    ///
    /// As [`resolve_sharded`].
    pub fn resolve_from(
        &mut self,
        scenario: &Scenario,
        prev: &ShardOutcome,
        old_of_new: &[Option<UserId>],
    ) -> Result<Solution, Error> {
        let start = Instant::now();
        let workers = effective_parallelism(self.threads);
        let out = resolve_sharded(scenario, &self.config, workers, prev, old_of_new)?;
        let elapsed = start.elapsed();
        Ok(self.record(out, elapsed))
    }

    /// Stores the outcome and shapes the [`Solution`].
    fn record(&mut self, out: ShardOutcome, elapsed: std::time::Duration) -> Solution {
        let solution = Solution {
            assignment: out.assignment.clone(),
            utility: out.objective,
            stats: SolverStats {
                // One evaluation per proposal plus each cluster's initial
                // solution and the final monolithic re-score.
                objective_evaluations: out.proposals + out.clusters as u64 + 1,
                iterations: out.proposals,
                elapsed,
            },
        };
        self.last_outcome = Some(out);
        solution
    }
}

impl Solver for ShardSolver {
    fn name(&self) -> &str {
        "TSAJS-SHARD"
    }

    fn solve(&mut self, scenario: &Scenario) -> Result<Solution, Error> {
        let start = Instant::now();
        let workers = effective_parallelism(self.threads);
        let out = solve_sharded(scenario, &self.config, workers)?;
        let elapsed = start.elapsed();
        Ok(self.record(out, elapsed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::UserSpec;
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};

    /// A scenario with block-diagonal-dominant gains: user `u` hears
    /// server `u mod servers` best, so the strongest-server rule spreads
    /// users over every cluster.
    fn scenario(users: usize, servers: usize, subchannels: usize) -> Scenario {
        let gains = ChannelGains::shared_from_fn(users, servers, subchannels, |u, s| {
            if u.index() % servers == s.index() {
                1e-10
            } else {
                2e-11 + 1e-13 * ((u.index() + s.index()) % 7) as f64
            }
        })
        .unwrap();
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap()
    }

    fn quick_config() -> ShardConfig {
        ShardConfig::paper_default()
            .with_cluster_size(2)
            .with_ttsa(TtsaConfig::paper_default().with_min_temperature(1e-2))
            .with_tempering(
                TemperingConfig::paper_default()
                    .with_replicas(4)
                    .with_rounds(4),
            )
    }

    #[test]
    fn partition_covers_every_entity_exactly_once() {
        let sc = scenario(12, 5, 2);
        let p = Partition::build(&sc, 2, 7).unwrap();
        assert_eq!(p.num_clusters(), 3);
        let mut seen_servers = [0usize; 5];
        let mut seen_users = [0usize; 12];
        for (c, members) in p.clusters().iter().enumerate() {
            assert!(members.servers.len() <= 2);
            for &s in &members.servers {
                seen_servers[s.index()] += 1;
                assert_eq!(p.cluster_of_server(s), c);
            }
            for &u in &members.users {
                seen_users[u.index()] += 1;
                assert_eq!(p.cluster_of_user(u), c);
            }
        }
        assert!(seen_servers.iter().all(|&n| n == 1));
        assert!(seen_users.iter().all(|&n| n == 1));
    }

    #[test]
    fn partition_rotation_depends_on_seed() {
        let sc = scenario(8, 6, 2);
        let a = Partition::build(&sc, 2, 0).unwrap();
        let b = Partition::build(&sc, 2, 1).unwrap();
        assert_ne!(a, b, "different seeds must rotate the chunk boundaries");
        let a2 = Partition::build(&sc, 2, 0).unwrap();
        assert_eq!(a, a2, "same seed must reproduce the partition");
    }

    #[test]
    fn solves_and_matches_monolithic_rescore() {
        let sc = scenario(10, 4, 2);
        let out = solve_sharded(&sc, &quick_config(), 2).unwrap();
        out.assignment.verify_feasible(&sc).unwrap();
        assert!(out.objective > 0.0, "got {}", out.objective);
        assert!(out.clusters >= 2);
        assert!(out.sweeps >= 1);
        assert!(out.halo_residual <= 1e-9, "residual {}", out.halo_residual);
        // The reported objective IS the monolithic re-score, bit for bit,
        // and so is a fresh incremental state's.
        let fresh = Evaluator::new(&sc).objective(&out.assignment);
        assert_eq!(out.objective.to_bits(), fresh.to_bits());
        let inc = IncrementalObjective::new(&sc, out.assignment.clone()).unwrap();
        assert_eq!(out.objective.to_bits(), inc.current().to_bits());
    }

    #[test]
    fn bit_identical_at_any_worker_count() {
        let sc = scenario(12, 4, 2);
        let cfg = quick_config().with_seed(23);
        let runs: Vec<ShardOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&w| solve_sharded(&sc, &cfg, w).unwrap())
            .collect();
        for run in &runs[1..] {
            assert_eq!(runs[0].assignment, run.assignment);
            assert_eq!(runs[0].objective.to_bits(), run.objective.to_bits());
            assert_eq!(runs[0].proposals, run.proposals);
            assert_eq!(runs[0].sweeps, run.sweeps);
        }
    }

    #[test]
    fn stepping_api_exposes_consistent_halos() {
        let sc = scenario(10, 4, 2);
        let mut run = ShardRun::new(&sc, quick_config(), 1).unwrap();
        let _ = run.sweep().unwrap();
        // Accounting identity: for every cluster, what it sees (external)
        // plus what it emits equals the global halo.
        let totals = halo_totals(&sc, run.assignment());
        for c in 0..run.partition().num_clusters() {
            let ext = cluster_external(&sc, run.partition(), c, run.assignment());
            let own: Vec<f64> = {
                let all = halo_totals(&sc, run.assignment());
                all.iter().zip(ext.iter()).map(|(t, e)| t - e).collect()
            };
            for ((t, e), o) in totals.iter().zip(ext.iter()).zip(own.iter()) {
                assert!((t - (e + o)).abs() <= 1e-12 * t.abs().max(1.0));
            }
        }
    }

    #[test]
    fn sweeps_reach_a_fixed_point_within_the_cap() {
        let sc = scenario(10, 4, 2);
        let out = solve_sharded(&sc, &quick_config(), 1).unwrap();
        assert!(
            out.converged,
            "expected a fixed point, ran {} sweeps",
            out.sweeps
        );
        assert!(out.sweeps <= quick_config().max_sweeps);
    }

    #[test]
    fn single_cluster_degenerates_to_plain_solve() {
        let sc = scenario(6, 3, 2);
        let cfg = quick_config().with_cluster_size(8);
        let out = solve_sharded(&sc, &cfg, 2).unwrap();
        assert_eq!(out.clusters, 1);
        assert!(out.converged);
        out.assignment.verify_feasible(&sc).unwrap();
        assert!(out.objective >= 0.0);
    }

    #[test]
    fn solver_trait_reports_stats() {
        let sc = scenario(10, 4, 2);
        let mut solver = ShardSolver::new(quick_config()).with_threads(2);
        assert_eq!(solver.name(), "TSAJS-SHARD");
        assert!(solver.last_outcome().is_none());
        let solution = solver.solve(&sc).unwrap();
        solution.assignment.verify_feasible(&sc).unwrap();
        let outcome = solver.last_outcome().expect("outcome recorded");
        assert!(outcome.clusters >= 2);
        assert!(outcome.halo_residual <= 1e-9);
        let recomputed = Evaluator::new(&sc).objective(&solution.assignment);
        assert!((solution.utility - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0));
    }

    #[test]
    fn repeated_solves_are_bit_identical() {
        let sc = scenario(8, 4, 2);
        let mut solver = ShardSolver::new(quick_config());
        let a = solver.solve(&sc).unwrap();
        let b = solver.solve(&sc).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.utility.to_bits(), b.utility.to_bits());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let sc = scenario(4, 2, 2);
        assert!(Partition::build(&sc, 0, 0).is_err());
        assert!(quick_config().with_cluster_size(0).validate().is_err());
        assert!(quick_config().with_max_sweeps(0).validate().is_err());
        let mut solver = ShardSolver::new(quick_config().with_max_sweeps(0));
        assert!(solver.solve(&sc).is_err());
    }

    #[test]
    fn reconciliation_converges_and_passes_the_audit() {
        let sc = scenario(12, 4, 2);
        let out = solve_sharded(&sc, &quick_config(), 1).unwrap();
        out.assignment.verify_feasible(&sc).unwrap();
        assert!(out.converged, "must reach a fixed point");
        assert!(out.objective > 0.0);
        assert!(out.halo_residual <= 1e-9, "residual {}", out.halo_residual);
        assert_eq!(
            out.sweep_residual, 0.0,
            "the last sweep of a converged run publishes no delta"
        );
    }

    #[test]
    fn pipelined_is_bit_identical_across_worker_counts() {
        let sc = scenario(14, 6, 2);
        for seed in [11u64, 23, 47] {
            let cfg = quick_config().with_seed(seed);
            let base = solve_sharded(&sc, &cfg, 1).unwrap();
            for workers in [2usize, 8] {
                let other = solve_sharded(&sc, &cfg, workers).unwrap();
                assert_eq!(base.assignment, other.assignment, "seed {seed}");
                assert_eq!(base.objective.to_bits(), other.objective.to_bits());
                assert_eq!(base.proposals, other.proposals);
                assert_eq!(base.sweeps, other.sweeps);
            }
        }
    }

    #[test]
    fn warm_from_empty_previous_is_bit_identical_to_cold() {
        let sc = scenario(12, 4, 2);
        let cfg = quick_config().with_seed(23);
        let cold = solve_sharded(&sc, &cfg, 2).unwrap();
        let empty = ShardOutcome::empty(&sc, &cfg).unwrap();
        let map = vec![None; sc.num_users()];
        let warm = resolve_sharded(&sc, &cfg, 2, &empty, &map).unwrap();
        assert_eq!(cold.assignment, warm.assignment);
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        assert_eq!(cold.proposals, warm.proposals);
        assert_eq!(cold.sweeps, warm.sweeps);
        assert_eq!(warm.reused_clusters, 0);
        assert_eq!(warm.resolved_clusters, cold.resolved_clusters);
    }

    #[test]
    fn warm_resolve_patches_churn_and_reuses_clean_clusters() {
        let sc = scenario(16, 4, 2);
        let cfg = quick_config().with_seed(7);
        let prior = solve_sharded(&sc, &cfg, 1).unwrap();
        // Identity churn: every user survives and no halo entry moves, so
        // all clusters come back clean and the fixed point must hold.
        let identity: Vec<Option<UserId>> =
            (0..sc.num_users()).map(|v| Some(UserId::new(v))).collect();
        let resolved = resolve_sharded(&sc, &cfg, 1, &prior, &identity).unwrap();
        resolved.assignment.verify_feasible(&sc).unwrap();
        assert_eq!(
            resolved.reused_clusters, resolved.clusters,
            "identity churn must reuse every cluster"
        );
        assert_eq!(resolved.resolved_clusters, 0);
        assert_eq!(resolved.assignment, prior.assignment);
        assert!(resolved.proposals < prior.proposals);
        // 25% churn: survivors keep slots, the decision stays feasible
        // and at least as good as a fixed point of the same engine.
        let churned: Vec<Option<UserId>> = (0..sc.num_users())
            .map(|v| {
                if v % 4 == 0 {
                    None
                } else {
                    Some(UserId::new(v))
                }
            })
            .collect();
        let warm = resolve_sharded(&sc, &cfg, 1, &prior, &churned).unwrap();
        warm.assignment.verify_feasible(&sc).unwrap();
        assert!(warm.objective > 0.0);
        assert!(
            warm.halo_residual <= 1e-9,
            "residual {}",
            warm.halo_residual
        );
    }

    #[test]
    fn warm_resolve_is_bit_identical_across_worker_counts() {
        let sc = scenario(16, 4, 2);
        let cfg = quick_config().with_seed(31);
        let prior = solve_sharded(&sc, &cfg, 1).unwrap();
        let churned: Vec<Option<UserId>> = (0..sc.num_users())
            .map(|v| {
                if v % 5 == 0 {
                    None
                } else {
                    Some(UserId::new(v))
                }
            })
            .collect();
        let base = resolve_sharded(&sc, &cfg, 1, &prior, &churned).unwrap();
        for workers in [2usize, 8] {
            let other = resolve_sharded(&sc, &cfg, workers, &prior, &churned).unwrap();
            assert_eq!(base.assignment, other.assignment, "workers {workers}");
            assert_eq!(base.objective.to_bits(), other.objective.to_bits());
            assert_eq!(base.proposals, other.proposals);
        }
    }

    #[test]
    fn warm_rejects_mismatched_shapes() {
        let sc = scenario(8, 4, 2);
        let cfg = quick_config();
        let prior = solve_sharded(&sc, &cfg, 1).unwrap();
        // Map shorter than the population.
        assert!(ShardRun::warm(&sc, cfg, 1, &prior, &[None]).is_err());
        // Previous outcome from a different geometry.
        let other = scenario(8, 5, 2);
        let map = vec![None; other.num_users()];
        assert!(ShardRun::warm(&other, cfg, 1, &prior, &map).is_err());
    }

    #[test]
    fn rebuild_users_preserves_server_clusters() {
        let sc = scenario(12, 5, 2);
        let p = Partition::build(&sc, 2, 9).unwrap();
        let rebuilt = p.rebuild_users(&sc).unwrap();
        assert_eq!(p, rebuilt, "same scenario ⇒ identical partition");
        let other = scenario(20, 5, 2);
        let carried = p.rebuild_users(&other).unwrap();
        assert_eq!(carried.num_clusters(), p.num_clusters());
        for s in other.server_ids() {
            assert_eq!(carried.cluster_of_server(s), p.cluster_of_server(s));
        }
        let mismatched = scenario(12, 4, 2);
        assert!(p.rebuild_users(&mismatched).is_err());
    }

    #[test]
    fn empty_outcome_matches_the_cold_partition() {
        let sc = scenario(10, 4, 2);
        let cfg = quick_config().with_seed(23);
        let empty = ShardOutcome::empty(&sc, &cfg).unwrap();
        assert_eq!(empty.assignment.num_users(), 0);
        assert_eq!(empty.halo.len(), sc.num_subchannels() * sc.num_servers());
        assert!(empty.halo.iter().all(|&h| h == 0.0));
        let cold = Partition::build(&sc, cfg.cluster_size, cfg.seed).unwrap();
        assert_eq!(empty.partition, cold);
    }
}
