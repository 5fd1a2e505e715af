//! Incremental (delta) evaluation of `J*(X)` for search hot loops.
//!
//! [`Evaluator::objective_with`](crate::Evaluator::objective_with)
//! recomputes the whole objective from scratch: `O(T·S)` for the
//! received-power totals plus `O(T)` for the cost sums, for every
//! candidate. But a neighborhood move touches at
//! most four `(server, subchannel)` slots, and `J*(X)` decomposes into
//! sums whose terms depend only on local state:
//!
//! * the benefit sum `Σ (gain_u − download_u)` — `O(1)` per join/leave;
//! * the execution cost `Λ = Σ_s (Σ_{u∈U_s} √η_u)²/f_s` — `O(1)` per
//!   affected server;
//! * the uplink cost `Γ = Σ_u (φ_u + ψ_u·p_u)/log2(1+γ_u)` — a user's
//!   SINR depends only on the totals `T[s][j] = Σ_{k on j} p_k·h[k][s][j]`
//!   of its own subchannel, so a membership change on subchannel `j`
//!   invalidates exactly the Γ terms of users transmitting on `j`.
//!
//! [`IncrementalObjective`] keeps all of that as persistent state and
//! exposes [`apply`](IncrementalObjective::apply) /
//! [`undo`](IncrementalObjective::undo): a proposal costs
//! `O(S · |affected subchannels|)` instead of `O(T·S)`, with no
//! allocation after warm-up. [`MoveDesc`] is the compact move language
//! the kernels speak — at most four primitive assign/release operations.
//!
//! ## Memory layout
//!
//! All per-`(server, subchannel)` state is stored as structure-of-arrays
//! blocks whose server dimension is padded to a multiple of
//! [`simd::LANES`]: the weighted gains `p_u·h[u][·][j]` as one contiguous
//! lane-padded row per `(user, subchannel)`, the received-power totals as
//! one row per subchannel. Every row sweep then runs through the
//! `chunks_exact`-based kernels of [`crate::simd`], which are
//! bit-identical to the scalar loops they replace (per-slot arithmetic is
//! independent across servers). Per-user constants live in flat
//! [`CoefficientBlocks`] columns instead of per-user structs.
//!
//! ## Speculative scoring
//!
//! [`score`](IncrementalObjective::score) evaluates a candidate move
//! *without mutating anything*: it replays exactly the floating-point
//! operations `apply` would perform, on local copies of the scalar sums
//! and a scratch totals row, and returns the candidate objective —
//! bit-identical to `apply` + [`current`](IncrementalObjective::current).
//! Search loops score first and only `apply`+`commit` accepted moves, so
//! a rejected proposal costs pure arithmetic: no assignment mutation, no
//! journaling, no undo. This is the proposal fast path of the
//! TTSA/tempering/local-search/hJTORA engines. The commonest shape, a
//! local user taking a slot (evicting its occupant), touches one server
//! and one subchannel; it is priced by one straight-line recipe, which
//! [`score_take`](IncrementalObjective::score_take) exposes without a
//! [`MoveDesc`] and `score` routes that shape through.
//!
//! ## Exactness and drift
//!
//! `undo` restores state *bit-exactly*. Expensive per-slot refreshes
//! (totals, fresh Γ terms) are write-behind: buffered as new values in
//! the move log, flushed into the persistent arrays only on commit, so
//! a reject simply drops them. The few eager writes (retiring a moved
//! user's Γ term, its cached signal, the server `Σ√η` sums, the mutated
//! assignment) journal their old values and are replayed in reverse;
//! scalar sums restore from snapshots. Rejected proposals therefore
//! leave no trace. Accepted moves update the sums in place, which
//! accumulates floating-point drift relative to a fresh evaluation — on
//! the order of an ulp per accepted move. Callers bound it by calling
//! [`resync`](IncrementalObjective::resync) periodically (the TTSA and
//! local-search loops do so every 4096 proposals); the property suite in
//! `tests/soa_props.rs` pins the drift below `1e-9` relative and the
//! score/apply deltas bit-exact against each other.

use crate::assignment::Assignment;
use crate::coefficients::CoefficientBlocks;
use crate::scenario::Scenario;
use crate::simd;
use mec_types::{Error, ServerId, SubchannelId, UserId};

/// One primitive mutation of an [`Assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimOp {
    /// Attach `user` (currently local) to the free slot `(server, subchannel)`.
    Assign {
        /// The user to attach.
        user: UserId,
        /// Target server.
        server: ServerId,
        /// Target subchannel.
        subchannel: SubchannelId,
    },
    /// Release `user` (currently offloaded) back to local execution.
    Release {
        /// The user to release.
        user: UserId,
    },
}

/// The most primitive operations any neighborhood move decomposes into
/// (a swap of two offloaded users: two releases plus two assigns).
pub const MAX_MOVE_OPS: usize = 4;

/// A compact, allocation-free description of one neighborhood move: a
/// sequence of at most [`MAX_MOVE_OPS`] primitive operations that is
/// valid when applied in order against the assignment it was built for.
///
/// Constructors take the current assignment so the op sequence respects
/// the mid-sequence invariants (`Assign` targets a free slot and a local
/// user, `Release` targets an offloaded user).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MoveDesc {
    ops: [Option<PrimOp>; MAX_MOVE_OPS],
    len: u8,
}

impl MoveDesc {
    /// The empty move (e.g. a swap of two local users).
    pub fn noop() -> Self {
        Self::default()
    }

    /// Appends a primitive op.
    ///
    /// # Panics
    ///
    /// Panics if the move already holds [`MAX_MOVE_OPS`] ops.
    pub fn push(&mut self, op: PrimOp) {
        let i = self.len as usize;
        assert!(i < MAX_MOVE_OPS, "a move holds at most {MAX_MOVE_OPS} ops");
        self.ops[i] = Some(op);
        self.len += 1;
    }

    /// The ops, in application order.
    pub fn ops(&self) -> impl Iterator<Item = PrimOp> + '_ {
        self.ops
            .iter()
            .take(self.len as usize)
            .map(|op| op.expect("ops below len are set"))
    }

    /// Number of primitive ops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the move changes nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the move changes nothing (alias of [`is_empty`](Self::is_empty)).
    pub fn is_noop(&self) -> bool {
        self.is_empty()
    }

    /// Moves `user` to `target` (`None` = back to local execution),
    /// assuming the target slot is free in `x`.
    pub fn relocate(
        x: &Assignment,
        user: UserId,
        target: Option<(ServerId, SubchannelId)>,
    ) -> Self {
        let mut mv = Self::noop();
        if x.slot(user) == target {
            return mv;
        }
        if x.is_offloaded(user) {
            mv.push(PrimOp::Release { user });
        }
        if let Some((server, subchannel)) = target {
            mv.push(PrimOp::Assign {
                user,
                server,
                subchannel,
            });
        }
        mv
    }

    /// Moves `user` to `(server, subchannel)`, evicting the slot's current
    /// occupant (if any) to local execution — the kernel's realization of
    /// Algorithm 2's "allocate one randomly if none are free".
    pub fn relocate_evicting(
        x: &Assignment,
        user: UserId,
        server: ServerId,
        subchannel: SubchannelId,
    ) -> Self {
        let mut mv = Self::noop();
        if x.slot(user) == Some((server, subchannel)) {
            return mv;
        }
        if let Some(victim) = x.occupant(server, subchannel) {
            mv.push(PrimOp::Release { user: victim });
        }
        if x.is_offloaded(user) {
            mv.push(PrimOp::Release { user });
        }
        mv.push(PrimOp::Assign {
            user,
            server,
            subchannel,
        });
        mv
    }

    /// Exchanges the slots of `a` and `b` (either may be local), matching
    /// [`Assignment::swap`].
    pub fn swap(x: &Assignment, a: UserId, b: UserId) -> Self {
        let mut mv = Self::noop();
        if a == b {
            return mv;
        }
        let slot_a = x.slot(a);
        let slot_b = x.slot(b);
        if slot_a.is_none() && slot_b.is_none() {
            return mv;
        }
        if slot_a.is_some() {
            mv.push(PrimOp::Release { user: a });
        }
        if slot_b.is_some() {
            mv.push(PrimOp::Release { user: b });
        }
        if let Some((server, subchannel)) = slot_b {
            mv.push(PrimOp::Assign {
                user: a,
                server,
                subchannel,
            });
        }
        if let Some((server, subchannel)) = slot_a {
            mv.push(PrimOp::Assign {
                user: b,
                server,
                subchannel,
            });
        }
        mv
    }

    /// Applies the move to a plain assignment (no incremental state).
    ///
    /// # Errors
    ///
    /// Fails if an op violates feasibility — i.e. the move was built for a
    /// different assignment. The assignment may be partially mutated on
    /// error.
    pub fn apply_to(&self, x: &mut Assignment) -> Result<(), Error> {
        for op in self.ops() {
            match op {
                PrimOp::Assign {
                    user,
                    server,
                    subchannel,
                } => x.assign(user, server, subchannel)?,
                PrimOp::Release { user } => {
                    if x.release(user).is_none() {
                        return Err(Error::InfeasibleAssignment(format!(
                            "release of local user {user} in a MoveDesc"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Log of the last [`IncrementalObjective::apply`]: totals and Γ writes are
/// buffered here (write-behind) and only flushed into the persistent arrays
/// by [`commit`](IncrementalObjective::commit), so
/// [`undo`](IncrementalObjective::undo) merely drops them — a rejected
/// proposal never touches the big arrays at all. The scalar sums and the
/// per-server Λ state *are* updated eagerly (they feed
/// [`current`](IncrementalObjective::current)), so their old values are
/// snapshotted for a bit-exact rollback. Buffers are reused across moves, so
/// steady-state applies do not allocate.
#[derive(Debug, Clone, Default)]
struct MoveLog {
    valid: bool,
    /// New values of every totals row the move rewrites — one group of
    /// `num_servers` values per entry of `touched_subs`, in the same
    /// order — flushed on commit.
    new_totals: Vec<f64>,
    /// Subchannel index of each buffered totals row in `new_totals`.
    touched_subs: Vec<usize>,
    /// `(user, new Γ term, new non-finite flag)` of every Γ term the move
    /// writes, flushed on commit.
    new_gammas: Vec<(usize, f64, bool)>,
    /// `(user, old Γ term, old non-finite flag)` of the moved users whose
    /// Γ terms were retired eagerly, replayed in reverse on undo.
    old_gammas: Vec<(usize, f64, bool)>,
    /// `(user, old cached signal)` of the moved users whose `p·h` cache was
    /// rewritten eagerly, replayed in reverse on undo.
    old_signals: Vec<(usize, f64)>,
    /// `(server, old Σ√η, old user count)` of every server sum written
    /// eagerly, replayed in reverse on undo.
    servers: Vec<(usize, f64, u32)>,
    /// Inverse assignment ops, in undo order.
    inverse: MoveDesc,
    gain_sum: f64,
    gamma_sum: f64,
    lambda_sum: f64,
    nonfinite: u32,
    num_offloaded: usize,
}

/// Persistent incremental state for `J*(X)` (Eq. 24) over one scenario.
///
/// Owns the current [`Assignment`] and keeps the per-`(s,j)` received-power
/// totals, per-user cached Γ terms, per-server `Σ√η` sums and the benefit
/// sum synchronized with it under [`apply`](Self::apply) /
/// [`undo`](Self::undo).
///
/// # Example
///
/// ```
/// use mec_radio::{ChannelGains, OfdmaConfig};
/// use mec_system::{Assignment, Evaluator, IncrementalObjective, MoveDesc, Scenario, UserSpec};
/// use mec_types::*;
///
/// # fn main() -> std::result::Result<(), mec_types::Error> {
/// let scenario = Scenario::new(
///     vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0))?; 2],
///     vec![ServerProfile::paper_default(); 1],
///     OfdmaConfig::new(Hertz::from_mega(20.0), 2)?,
///     ChannelGains::uniform(2, 1, 2, 1e-10)?,
///     Watts::new(1e-13),
/// )?;
/// let mut inc = IncrementalObjective::new(&scenario, Assignment::all_local(&scenario))?;
/// assert_eq!(inc.current(), 0.0);
///
/// let mv = MoveDesc::relocate(
///     inc.assignment(),
///     UserId::new(0),
///     Some((ServerId::new(0), SubchannelId::new(0))),
/// );
/// let delta = inc.apply(&mv);
/// assert!((inc.current() - delta).abs() < 1e-12);
/// assert!((inc.current() - Evaluator::new(&scenario).objective(inc.assignment())).abs() < 1e-12);
/// inc.undo();
/// assert_eq!(inc.current(), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalObjective<'a> {
    scenario: &'a Scenario,
    x: Assignment,
    num_sub: usize,
    /// The server-row stride: `num_servers` padded up to a multiple of
    /// [`simd::LANES`], so every per-server row is `chunks_exact`-clean.
    stride: usize,
    noise: f64,
    /// Per-user constants (`√η`, `φ+ψ·p`, net gain), hoisted out of the
    /// hot loop as flat SoA columns.
    coeffs: CoefficientBlocks,
    capacity: Vec<f64>,
    /// Weighted gains `p_u·h[u][s][j]`, laid out `[u][j][s]` with the
    /// server dimension padded to `stride` (padding lanes hold `0.0`), so
    /// the fused totals pass sweeps one lane-aligned row per op. When the
    /// gain tensor is subchannel-shared the `j` dimension is collapsed:
    /// one `[u][s]` row per user, shared by every subchannel
    /// (`wgain_shared`), cutting the dominant allocation by `N×`.
    wgain: Vec<f64>,
    /// Whether `wgain` stores one row per user (subchannel-shared gains)
    /// instead of one per `(user, subchannel)`.
    wgain_shared: bool,
    // Persistent sums.
    /// `totals[j·stride + s] = Σ_{k transmitting on j} p_k·h[k][s][j]` —
    /// per-subchannel lane-padded rows, contiguous for the hot loops.
    totals: Vec<f64>,
    /// Cached Γ term per user (`0.0` for local users and non-finite terms).
    gamma_of: Vec<f64>,
    /// Cached received signal `p_u·h[u][s][j]` of each user at its current
    /// slot (stale while local — only read for slot occupants).
    signal_of: Vec<f64>,
    /// Whether a user's Γ term is non-finite (zero SINR ⇒ `+∞` cost).
    gamma_bad: Vec<bool>,
    /// `Σ_{u∈U_s} √η_u` per server.
    sum_sqrt_eta: Vec<f64>,
    users_on: Vec<u32>,
    gain_sum: f64,
    gamma_sum: f64,
    lambda_sum: f64,
    nonfinite: u32,
    num_offloaded: usize,
    log: MoveLog,
    /// Scratch totals rows for [`score`](Self::score) — reused across
    /// calls so speculative scoring never allocates.
    score_totals: Vec<f64>,
    /// Scratch `(Γ numerator, SINR)` pairs for [`score`](Self::score)'s
    /// split Γ fold — gathered call-free, consumed by the `log2` pass.
    score_fold: Vec<(f64, f64)>,
}

impl<'a> IncrementalObjective<'a> {
    /// Builds the incremental state for `x` in `O(T·S)` — the same cost as
    /// one full evaluation.
    ///
    /// # Errors
    ///
    /// Fails if `x` does not fit the scenario's geometry.
    pub fn new(scenario: &'a Scenario, x: Assignment) -> Result<Self, Error> {
        x.verify_feasible(scenario)?;
        let users = scenario.num_users();
        let servers = scenario.num_servers();
        let num_sub = scenario.num_subchannels();
        let stride = simd::padded_len(servers);
        let powers = scenario.tx_powers_watts();
        let gains = scenario.gains();
        // Repack the gain tensor into lane-padded SoA rows (padding lanes
        // stay 0.0 and never contribute). Subchannel-shared tensors get
        // one `[u][·]` row per user instead of one per `(u, j)` — same
        // values, `N×` less memory, which is what keeps U=100k instances
        // affordable.
        let wgain_shared = gains.is_subchannel_shared();
        let rows_per_user = if wgain_shared { 1 } else { num_sub };
        let mut wgain = vec![0.0; users * rows_per_user * stride];
        for u in 0..users {
            for j in 0..rows_per_user {
                for s in 0..servers {
                    wgain[(u * rows_per_user + j) * stride + s] = powers[u]
                        * gains.gain(UserId::new(u), ServerId::new(s), SubchannelId::new(j));
                }
            }
        }
        let mut inc = Self {
            scenario,
            x,
            num_sub,
            stride,
            noise: scenario.noise().as_watts(),
            coeffs: CoefficientBlocks::pack(
                (0..users).map(|u| (scenario.coefficients(UserId::new(u)), powers[u])),
            ),
            capacity: (0..servers)
                .map(|s| scenario.server(ServerId::new(s)).capacity().as_hz())
                .collect(),
            wgain,
            wgain_shared,
            totals: vec![0.0; stride * num_sub],
            gamma_of: vec![0.0; users],
            signal_of: vec![0.0; users],
            gamma_bad: vec![false; users],
            sum_sqrt_eta: vec![0.0; servers],
            users_on: vec![0; servers],
            gain_sum: 0.0,
            gamma_sum: 0.0,
            lambda_sum: 0.0,
            nonfinite: 0,
            num_offloaded: 0,
            log: MoveLog::with_capacity(servers, stride),
            score_totals: Vec::with_capacity(MAX_MOVE_OPS * stride),
            score_fold: Vec::with_capacity(stride),
        };
        inc.resync();
        Ok(inc)
    }

    /// The scenario this state is bound to.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The current decision.
    pub fn assignment(&self) -> &Assignment {
        &self.x
    }

    /// Consumes the state, returning the current decision.
    pub fn into_assignment(self) -> Assignment {
        self.x
    }

    /// Replaces the current decision wholesale and rebuilds every
    /// maintained sum from it — the replica restore path of the tempering
    /// engine (elite migration, state exchange). Costs one full resync;
    /// any pending undo state is discarded. The destination's buffers are
    /// reused, so a replica can adopt another's snapshot without touching
    /// the heap.
    ///
    /// # Errors
    ///
    /// Fails (leaving the state unchanged) if `x` does not fit the
    /// scenario's geometry.
    pub fn replace_assignment(&mut self, x: &Assignment) -> Result<(), Error> {
        x.verify_feasible(self.scenario)?;
        self.x.clone_from(x);
        self.resync();
        Ok(())
    }

    /// The current `J*(X)`: `0.0` for the all-local decision, `−∞` when any
    /// offloaded user has a non-finite Γ term (zero SINR), otherwise the
    /// maintained `gain − Γ − Λ`.
    #[inline]
    pub fn current(&self) -> f64 {
        if self.num_offloaded == 0 {
            return 0.0;
        }
        if self.nonfinite > 0 {
            return f64::NEG_INFINITY;
        }
        self.gain_sum - self.gamma_sum - self.lambda_sum
    }

    /// Start of the lane-padded weighted-gain row `p_u·h[u][·][j]` —
    /// per-`(user, subchannel)` in the dense layout, per-user when the
    /// gain tensor is subchannel-shared.
    #[inline]
    fn wgain_base(&self, u: usize, j: usize) -> usize {
        if self.wgain_shared {
            u * self.stride
        } else {
            (u * self.num_sub + j) * self.stride
        }
    }

    /// The contiguous lane-padded weighted-gain row `p_u·h[u][·][j]`.
    #[inline]
    fn wgain_row(&self, u: usize, j: usize) -> &[f64] {
        &self.wgain[self.wgain_base(u, j)..][..self.stride]
    }

    /// Λ term of one server from its current `Σ√η` sum (Eq. 23).
    #[inline]
    fn lambda_term(&self, s: usize) -> f64 {
        lambda_term_from(self.sum_sqrt_eta[s], self.capacity[s])
    }

    /// Rebuilds every sum from the assignment, discarding accumulated
    /// drift and any pending undo state. Iterates in the same order as
    /// [`Evaluator::objective_with`] so the rebuilt value tracks the
    /// reference as closely as summation order allows.
    ///
    /// [`Evaluator::objective_with`]: crate::Evaluator::objective_with
    pub fn resync(&mut self) {
        self.log.discard();
        let servers = self.scenario.num_servers();
        let stride = self.stride;
        self.totals.iter_mut().for_each(|t| *t = 0.0);
        if let Some(ext) = self.scenario.external_rx() {
            // Seed each subchannel row with the frozen external received
            // power `[j·S + s]` (padding lanes stay zero) — the sharded
            // solver's halo baseline. `apply`/`score` inherit it
            // automatically because their buffered rows copy from here.
            for (row, ext_row) in self
                .totals
                .chunks_exact_mut(stride)
                .zip(ext.chunks_exact(servers))
            {
                row[..servers].copy_from_slice(ext_row);
            }
        }
        for (u, _, j) in self.x.offloaded() {
            let row = self.wgain_base(u.index(), j.index());
            simd::add_assign_rows(
                &mut self.totals[j.index() * stride..][..stride],
                &self.wgain[row..][..stride],
            );
        }

        self.gain_sum = 0.0;
        self.gamma_sum = 0.0;
        self.nonfinite = 0;
        self.num_offloaded = 0;
        self.gamma_of.iter_mut().for_each(|g| *g = 0.0);
        self.gamma_bad.iter_mut().for_each(|b| *b = false);
        for (u, s, j) in self.x.offloaded() {
            self.num_offloaded += 1;
            self.gain_sum += self.coeffs.gain_const[u.index()];
            self.signal_of[u.index()] = self.wgain_row(u.index(), j.index())[s.index()];
            let term = self.gamma_term(u, s, j);
            if term.is_finite() {
                self.gamma_sum += term;
                self.gamma_of[u.index()] = term;
            } else {
                self.gamma_bad[u.index()] = true;
                self.nonfinite += 1;
            }
        }

        self.lambda_sum = 0.0;
        for s in 0..servers {
            let mut sum = 0.0;
            let mut count = 0;
            for j in 0..self.num_sub {
                if let Some(u) = self.x.occupant(ServerId::new(s), SubchannelId::new(j)) {
                    sum += self.coeffs.sqrt_eta[u.index()];
                    count += 1;
                }
            }
            self.sum_sqrt_eta[s] = sum;
            self.users_on[s] = count;
            self.lambda_sum += self.lambda_term(s);
        }
    }

    /// The Γ term of user `u` transmitting at `(s, j)`, from the current
    /// totals — the exact expression of the reference evaluator.
    #[inline]
    fn gamma_term(&self, u: UserId, s: ServerId, j: SubchannelId) -> f64 {
        let signal = self.wgain_row(u.index(), j.index())[s.index()];
        let total = self.totals[j.index() * self.stride + s.index()];
        gamma_term_from(self.coeffs.gamma_num[u.index()], signal, total, self.noise)
    }

    /// Applies `mv` to the assignment and all sums, returning
    /// `J*(X_new) − J*(X_old)`. Writes to the totals and Γ arrays are
    /// buffered; call [`undo`](Self::undo) to roll back bit-exactly or
    /// [`commit`](Self::commit) to flush them. Applying a new move
    /// implicitly commits the previous one.
    ///
    /// Cost: `O(S)` per primitive op (totals update) plus `O(S)` per
    /// distinct affected subchannel (Γ refresh) — independent of the
    /// number of transmitters `T`.
    ///
    /// # Panics
    ///
    /// Panics if an op is invalid against the current assignment (the
    /// move was built for a different decision).
    pub fn apply(&mut self, mv: &MoveDesc) -> f64 {
        self.commit();
        let before = self.current();
        self.log.begin(
            self.gain_sum,
            self.gamma_sum,
            self.lambda_sum,
            self.nonfinite,
            self.num_offloaded,
        );

        // Subchannels whose membership changed: every user transmitting on
        // one of them needs its Γ term refreshed.
        let mut touched: [Option<SubchannelId>; MAX_MOVE_OPS] = [None; MAX_MOVE_OPS];
        let mut touch = |j: SubchannelId| {
            for slot in touched.iter_mut() {
                match slot {
                    Some(seen) if *seen == j => return,
                    None => {
                        *slot = Some(j);
                        return;
                    }
                    _ => {}
                }
            }
        };
        // Power contributions to fold into the totals, in op order:
        // `(user, subchannel, joined)`. Kept out of `leave`/`join` so the
        // totals pass below can journal each affected `(s, j)` slot once
        // instead of once per op.
        let mut changes: [Option<(UserId, SubchannelId, bool)>; MAX_MOVE_OPS] =
            [None; MAX_MOVE_OPS];
        let mut num_changes = 0usize;

        for op in mv.ops() {
            match op {
                PrimOp::Release { user } => {
                    let (s, j) = self
                        .x
                        .release(user)
                        .expect("MoveDesc releases an offloaded user");
                    self.leave(user, s);
                    touch(j);
                    changes[num_changes] = Some((user, j, false));
                    self.log.inverse.push(PrimOp::Assign {
                        user,
                        server: s,
                        subchannel: j,
                    });
                }
                PrimOp::Assign {
                    user,
                    server,
                    subchannel,
                } => {
                    self.x
                        .assign(user, server, subchannel)
                        .expect("MoveDesc assigns into a free slot");
                    self.join(user, server, subchannel);
                    touch(subchannel);
                    changes[num_changes] = Some((user, subchannel, true));
                    self.log.inverse.push(PrimOp::Release { user });
                }
            }
            num_changes += 1;
        }
        self.log.inverse.reverse();
        let changes = &changes[..num_changes];

        // Fused totals + Γ pass over each affected subchannel: seed the
        // buffered totals row from the committed values, sweep each op's
        // lane-padded weighted-gain row over it with the chunked kernels
        // (per-slot add order is the op order and per-slot arithmetic is
        // independent across servers, so the float rounding matches the
        // sequential scalar updates), then refresh every slot occupant's
        // Γ term from the buffered value.
        let servers = self.scenario.num_servers();
        let stride = self.stride;
        for j in touched.iter().flatten() {
            let ji = j.index();
            self.log.touched_subs.push(ji);
            let base = self.log.new_totals.len();
            self.log
                .new_totals
                .extend_from_slice(&self.totals[ji * stride..][..stride]);
            for (user, ja, joined) in changes.iter().flatten() {
                if ja != j {
                    continue;
                }
                let wb = self.wgain_base(user.index(), ji);
                let row = &self.wgain[wb..][..stride];
                let slots = &mut self.log.new_totals[base..][..stride];
                if *joined {
                    simd::add_assign_rows(slots, row);
                } else {
                    simd::sub_assign_rows(slots, row);
                }
            }
            // Two independent accumulators (retired and fresh terms) keep
            // the adds off the serial `gamma_sum` dependency chain; the
            // sum is folded in once per subchannel. The fold is split:
            // the gather pass retires each occupant's old term and
            // collects its post-move SINR call-free, then the second
            // pass runs the `log2` libm calls over the compact buffer
            // and patches the journaled Γ entries. Each accumulator's
            // add order is the server order either way, so the bits are
            // unchanged relative to a fused per-occupant loop. Users the
            // in-flight move relocated were already retired eagerly by
            // [`leave`](Self::leave), and the received signal comes from
            // the `p·h` cache maintained by [`join`](Self::join).
            let mut row_old = 0.0;
            let mut row_new = 0.0;
            self.score_fold.clear();
            for t in 0..servers {
                let total = self.log.new_totals[base + t];
                let t = ServerId::new(t);
                if let Some(occupant) = self.x.occupant(t, *j) {
                    let u = occupant.index();
                    let old = if self.gamma_bad[u] {
                        self.nonfinite -= 1;
                        0.0
                    } else {
                        self.gamma_of[u]
                    };
                    row_old += old;
                    self.score_fold.push((
                        self.coeffs.gamma_num[u],
                        sinr_from(self.signal_of[u], total, self.noise),
                    ));
                    self.log.new_gammas.push((u, 0.0, false));
                }
            }
            let refreshed = self.log.new_gammas.len() - self.score_fold.len();
            for (k, &(gamma_num, sinr)) in self.score_fold.iter().enumerate() {
                let term = gamma_term_from_sinr(gamma_num, sinr);
                let entry = &mut self.log.new_gammas[refreshed + k];
                let new = if term.is_finite() {
                    entry.1 = term;
                    term
                } else {
                    entry.2 = true;
                    self.nonfinite += 1;
                    0.0
                };
                row_new += new;
            }
            self.gamma_sum += row_new - row_old;
        }

        self.log.valid = true;
        self.current() - before
    }

    /// Membership bookkeeping when `user` leaves server `s`: benefit sum,
    /// server Λ term, and retirement of its Γ term. The totals row of its
    /// subchannel is updated by the caller's fused totals pass.
    fn leave(&mut self, user: UserId, s: ServerId) {
        let u = user.index();
        self.gain_sum -= self.coeffs.gain_const[u];
        self.num_offloaded -= 1;

        // Retire the user's Γ term eagerly (journaling the old cache), so
        // the refresh pass can read `gamma_of` without tracking which users
        // the in-flight move relocated.
        self.log
            .old_gammas
            .push((u, self.gamma_of[u], self.gamma_bad[u]));
        if self.gamma_bad[u] {
            self.nonfinite -= 1;
            self.gamma_bad[u] = false;
        } else {
            self.gamma_sum -= self.gamma_of[u];
        }
        self.gamma_of[u] = 0.0;

        let si = s.index();
        self.log
            .servers
            .push((si, self.sum_sqrt_eta[si], self.users_on[si]));
        let old_term = self.lambda_term(si);
        self.users_on[si] -= 1;
        if self.users_on[si] == 0 {
            // Pin the empty-server sum to exactly zero so drift cannot
            // leave a phantom Λ term behind.
            self.sum_sqrt_eta[si] = 0.0;
        } else {
            self.sum_sqrt_eta[si] -= self.coeffs.sqrt_eta[u];
        }
        self.lambda_sum += self.lambda_term(si) - old_term;
    }

    /// Membership bookkeeping when `user` joins slot `(s, j)`. Its Γ term
    /// is installed by the caller's refresh pass (its subchannel is
    /// touched) and the totals row by the caller's fused totals pass; the
    /// received-signal cache is rewritten here, eagerly and journaled.
    fn join(&mut self, user: UserId, s: ServerId, j: SubchannelId) {
        let u = user.index();
        self.gain_sum += self.coeffs.gain_const[u];
        self.num_offloaded += 1;

        self.log.old_signals.push((u, self.signal_of[u]));
        self.signal_of[u] = self.wgain_row(u, j.index())[s.index()];

        let si = s.index();
        self.log
            .servers
            .push((si, self.sum_sqrt_eta[si], self.users_on[si]));
        let old_term = self.lambda_term(si);
        self.users_on[si] += 1;
        self.sum_sqrt_eta[si] += self.coeffs.sqrt_eta[u];
        self.lambda_sum += self.lambda_term(si) - old_term;
    }

    /// Rolls back the last applied (uncommitted) move bit-exactly: the
    /// buffered totals and Γ writes are dropped unflushed, the eagerly
    /// updated scalars and server sums are restored from their snapshot,
    /// and the assignment is reverted by the logged inverse ops.
    ///
    /// # Panics
    ///
    /// Panics if there is no uncommitted move.
    pub fn undo(&mut self) {
        assert!(self.log.valid, "no uncommitted move to undo");
        self.log.valid = false;
        self.log.new_totals.clear();
        self.log.touched_subs.clear();
        self.log.new_gammas.clear();
        for (u, old_term, old_bad) in self.log.old_gammas.drain(..).rev() {
            self.gamma_of[u] = old_term;
            self.gamma_bad[u] = old_bad;
        }
        for (u, old_signal) in self.log.old_signals.drain(..).rev() {
            self.signal_of[u] = old_signal;
        }
        for (s, old_sum, old_count) in self.log.servers.drain(..).rev() {
            self.sum_sqrt_eta[s] = old_sum;
            self.users_on[s] = old_count;
        }
        self.gain_sum = self.log.gain_sum;
        self.gamma_sum = self.log.gamma_sum;
        self.lambda_sum = self.log.lambda_sum;
        self.nonfinite = self.log.nonfinite;
        self.num_offloaded = self.log.num_offloaded;
        let inverse = self.log.inverse;
        self.log.inverse = MoveDesc::noop();
        // The logged inverse ops are valid by construction, so skip the
        // feasibility checks of `MoveDesc::apply_to` on this hot path.
        for op in inverse.ops() {
            match op {
                PrimOp::Assign {
                    user,
                    server,
                    subchannel,
                } => self.x.restore_assign(user, server, subchannel),
                PrimOp::Release { user } => {
                    self.x.release(user);
                }
            }
        }
    }

    /// Accepts the last applied move, flushing its buffered totals and Γ
    /// writes into the persistent arrays. A no-op without a pending move
    /// (`undo` and `discard` leave the log empty, so there is nothing to
    /// clear — every speculative score starts with this check).
    pub fn commit(&mut self) {
        if !self.log.valid {
            return;
        }
        let stride = self.stride;
        for (k, &j) in self.log.touched_subs.iter().enumerate() {
            self.totals[j * stride..][..stride]
                .copy_from_slice(&self.log.new_totals[k * stride..][..stride]);
        }
        for &(u, term, bad) in &self.log.new_gammas {
            self.gamma_of[u] = term;
            self.gamma_bad[u] = bad;
        }
        self.log.discard();
    }
}

impl IncrementalObjective<'_> {
    /// Scores a candidate move *speculatively*: returns the objective
    /// `J*(X ⊕ mv)` the move would produce — bit-identical to
    /// [`apply`](Self::apply) followed by [`current`](Self::current) —
    /// without mutating the assignment, the persistent sums, or the move
    /// log. Any pending uncommitted move is committed first, exactly as
    /// `apply` would.
    ///
    /// This is the proposal fast path: search loops score each
    /// candidate (pure arithmetic — no journaling, no assignment writes,
    /// no undo) and only `apply` + [`commit`](Self::commit) an accepted
    /// one. The replay performs the same floating-point operations in the
    /// same order as `apply`: per-op benefit/Λ updates and Γ retirements
    /// on local copies of the scalar sums, then the fused per-subchannel
    /// chunked totals sweep and the ordered Γ refresh fold. The property
    /// suite in `tests/soa_props.rs` pins `score` and `apply` bit-exact
    /// against each other over long random walks.
    ///
    /// The move must have been built by a [`MoveDesc`] constructor against
    /// the current assignment; scoring a move built for a different
    /// decision yields a meaningless value (and panics in debug builds
    /// where the mismatch is detectable).
    ///
    /// The dominant shape — a local user taking a slot, evicting its
    /// occupant if any (`[Assign]` or `[Release occupant, Assign]`) — is
    /// priced by the same straight-line recipe as
    /// [`score_take`](Self::score_take); every other shape runs the
    /// overlay replay below.
    pub fn score(&mut self, mv: &MoveDesc) -> f64 {
        self.commit();
        let take = match mv.ops[..mv.len()] {
            [Some(PrimOp::Assign {
                user,
                server,
                subchannel,
            })] => Some((user, server, subchannel)),
            [Some(PrimOp::Release { user: victim }), Some(PrimOp::Assign {
                user,
                server,
                subchannel,
            })] if victim != user && self.x.occupant(server, subchannel) == Some(victim) => {
                Some((user, server, subchannel))
            }
            _ => None,
        };
        if let Some((user, server, subchannel)) = take {
            return self.price_take(user, server, subchannel);
        }
        // Local replicas of the scalar sums `apply` updates in place.
        let mut gain_sum = self.gain_sum;
        let mut gamma_sum = self.gamma_sum;
        let mut lambda_sum = self.lambda_sum;
        let mut nonfinite = self.nonfinite;
        let mut num_offloaded = self.num_offloaded;

        // Fixed-size overlays standing in for the assignment mutation
        // `apply` performs: per-user slots, per-server `Σ√η` sums, the
        // set of users whose Γ term this move retires, and the op-ordered
        // slot writes `(server, subchannel, user, joined)` the totals
        // sweep and the occupancy patches below are derived from.
        let mut slot_overlay: [Option<SlotWrite>; MAX_MOVE_OPS] = [None; MAX_MOVE_OPS];
        let mut server_overlay: [Option<(usize, f64, u32)>; MAX_MOVE_OPS] = [None; MAX_MOVE_OPS];
        let mut num_servers_touched = 0usize;
        let mut retired_user: [UserId; MAX_MOVE_OPS] = [UserId::new(0); MAX_MOVE_OPS];
        let mut num_retired = 0usize;
        let mut writes: [(usize, SubchannelId, UserId, bool); MAX_MOVE_OPS] =
            [(0, SubchannelId::new(0), UserId::new(0), false); MAX_MOVE_OPS];
        let mut num_ops = 0usize;

        // Touched subchannels, deduplicated in first-seen order like
        // `apply`'s pass.
        let mut touched: [Option<SubchannelId>; MAX_MOVE_OPS] = [None; MAX_MOVE_OPS];
        let mut touch = |j: SubchannelId| {
            for slot in touched.iter_mut() {
                match slot {
                    Some(seen) if *seen == j => return,
                    None => {
                        *slot = Some(j);
                        return;
                    }
                    _ => {}
                }
            }
        };

        for op in mv.ops() {
            // The latest overlaid Σ√η state of the op's server (ops may
            // repeat a server, so the chain must read its own writes).
            let mut update_server = |si: usize, sqrt_eta: f64, join: bool| {
                let mut found = None;
                for (i, e) in server_overlay[..num_servers_touched].iter().enumerate() {
                    if matches!(e, Some((s0, _, _)) if *s0 == si) {
                        found = Some(i);
                    }
                }
                let (sum0, count0) = match found {
                    Some(i) => {
                        let (_, a, b) = server_overlay[i].expect("found entries are set");
                        (a, b)
                    }
                    None => (self.sum_sqrt_eta[si], self.users_on[si]),
                };
                let old_term = lambda_term_from(sum0, self.capacity[si]);
                let (sum1, count1) = if join {
                    (sum0 + sqrt_eta, count0 + 1)
                } else if count0 == 1 {
                    // Same empty-server pin to exactly zero as `leave`.
                    (0.0, 0)
                } else {
                    (sum0 - sqrt_eta, count0 - 1)
                };
                lambda_sum += lambda_term_from(sum1, self.capacity[si]) - old_term;
                match found {
                    Some(i) => server_overlay[i] = Some((si, sum1, count1)),
                    None => {
                        server_overlay[num_servers_touched] = Some((si, sum1, count1));
                        num_servers_touched += 1;
                    }
                }
            };
            match op {
                PrimOp::Release { user } => {
                    let slot = slot_overlay[..num_ops]
                        .iter()
                        .rev()
                        .flatten()
                        .find(|(w, _)| *w == user)
                        .map(|(_, s)| *s)
                        .unwrap_or_else(|| self.x.slot(user));
                    let (s, j) = slot.expect("MoveDesc releases an offloaded user");
                    let u = user.index();
                    gain_sum -= self.coeffs.gain_const[u];
                    num_offloaded -= 1;
                    // Γ retirement, mirroring `leave` (the committed cache
                    // is authoritative — one move never releases a user
                    // twice).
                    if self.gamma_bad[u] {
                        nonfinite -= 1;
                    } else {
                        gamma_sum -= self.gamma_of[u];
                    }
                    retired_user[num_retired] = user;
                    num_retired += 1;
                    update_server(s.index(), self.coeffs.sqrt_eta[u], false);
                    slot_overlay[num_ops] = Some((user, None));
                    writes[num_ops] = (s.index(), j, user, false);
                    touch(j);
                }
                PrimOp::Assign {
                    user,
                    server,
                    subchannel,
                } => {
                    let u = user.index();
                    gain_sum += self.coeffs.gain_const[u];
                    num_offloaded += 1;
                    update_server(server.index(), self.coeffs.sqrt_eta[u], true);
                    slot_overlay[num_ops] = Some((user, Some((server, subchannel))));
                    writes[num_ops] = (server.index(), subchannel, user, true);
                    touch(subchannel);
                }
            }
            num_ops += 1;
        }

        // Fused totals + Γ pass, as in `apply`, but into the reusable
        // scratch rows and against occupancy patches instead of a mutated
        // assignment.
        let servers = self.capacity.len();
        let stride = self.stride;
        self.score_totals.clear();
        for j in touched.iter().flatten() {
            let ji = j.index();
            let base = self.score_totals.len();
            self.score_totals
                .extend_from_slice(&self.totals[ji * stride..][..stride]);
            // This subchannel's occupancy patches, last write per slot
            // wins (an evicting relocate writes `None` then `Some`).
            let mut patch_slot: [usize; MAX_MOVE_OPS] = [usize::MAX; MAX_MOVE_OPS];
            let mut patch_occ: [Option<UserId>; MAX_MOVE_OPS] = [None; MAX_MOVE_OPS];
            let mut num_patch = 0usize;
            for (si, ja, user, joined) in &writes[..num_ops] {
                if ja != j {
                    continue;
                }
                let wb = self.wgain_base(user.index(), ji);
                let row = &self.wgain[wb..][..stride];
                let slots = &mut self.score_totals[base..][..stride];
                if *joined {
                    simd::add_assign_rows(slots, row);
                } else {
                    simd::sub_assign_rows(slots, row);
                }
                let occ = joined.then_some(*user);
                match patch_slot[..num_patch].iter().position(|p| p == si) {
                    Some(i) => patch_occ[i] = occ,
                    None => {
                        patch_slot[num_patch] = *si;
                        patch_occ[num_patch] = occ;
                        num_patch += 1;
                    }
                }
            }
            // Ordered Γ refresh fold over the subchannel's post-move
            // occupants — same two accumulators and server order as
            // `apply`, so the rounding matches bit for bit. Occupants of
            // unpatched slots cannot have been touched by the move (a
            // user holds exactly one slot), so they read the committed
            // `gamma_of`/`signal_of` caches directly, exactly like
            // `apply`'s refresh after `leave`/`join` updated them; only
            // patched slots (at most one per op) resolve the
            // relocated-user special cases.
            let occ_row = &self.x.occupants_on(*j)[..servers];
            let mut row_old = 0.0;
            self.score_fold.clear();
            for (t, committed) in occ_row.iter().enumerate() {
                let patch = patch_slot[..num_patch].iter().position(|&p| p == t);
                let Some(v) = patch.map_or(*committed, |i| patch_occ[i]) else {
                    continue;
                };
                let u = v.index();
                let total = self.score_totals[base + t];
                let (old, was_bad, signal) = if patch.is_some() {
                    // `v` was assigned to this slot by the move. Its old
                    // term is zero if the move also released it first
                    // (`leave` retires eagerly); its signal is the
                    // new-slot `p·h`, as `join` caches eagerly.
                    let retired = retired_user[..num_retired].contains(&v);
                    let (old, was_bad) = if retired {
                        (0.0, false)
                    } else {
                        (self.gamma_of[u], self.gamma_bad[u])
                    };
                    (old, was_bad, self.wgain[self.wgain_base(u, ji) + t])
                } else {
                    (self.gamma_of[u], self.gamma_bad[u], self.signal_of[u])
                };
                if was_bad {
                    nonfinite -= 1;
                }
                row_old += old;
                self.score_fold.push((
                    self.coeffs.gamma_num[u],
                    sinr_from(signal, total, self.noise),
                ));
            }
            // Second pass runs the `log2` libm calls over the gathered
            // SINRs. Splitting the fold keeps the gather loop call-free
            // (no spills around the calls) and each accumulator's add
            // order is still the server order, so the bits match the
            // fused loop `apply` runs.
            let mut row_new = 0.0;
            for &(gamma_num, sinr) in &self.score_fold {
                let term = gamma_term_from_sinr(gamma_num, sinr);
                let fresh = if term.is_finite() {
                    term
                } else {
                    nonfinite += 1;
                    0.0
                };
                row_new += fresh;
            }
            gamma_sum += row_new - row_old;
        }

        if num_offloaded == 0 {
            0.0
        } else if nonfinite > 0 {
            f64::NEG_INFINITY
        } else {
            gain_sum - gamma_sum - lambda_sum
        }
    }

    /// Scores `user` taking the slot `(server, subchannel)`, evicting its
    /// occupant to local execution: the objective
    /// [`score`](Self::score)`(&MoveDesc::relocate_evicting(..))` returns
    /// for that move, bit for bit, without building the move. This is the
    /// systematic relocation scan's dominant candidate. For a local
    /// `user` it runs the straight-line recipe (one touched subchannel,
    /// one touched server, no overlays); an offloaded `user` falls back
    /// to the general replay. Taking the slot `user` already holds scores
    /// the current objective.
    pub fn score_take(&mut self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        if self.x.is_offloaded(user) {
            let mv = MoveDesc::relocate_evicting(&self.x, user, server, subchannel);
            return self.score(&mv);
        }
        self.commit();
        self.price_take(user, server, subchannel)
    }

    /// The straight-line price of local `user` taking `(server,
    /// subchannel)` from its occupant, if any — the overlay replay of
    /// `[Release occupant, Assign user]` with the overlays resolved
    /// statically: the same float operations in the same order (benefit,
    /// Γ retirement and Λ step of the eviction, then of the join, then
    /// the touched row's Γ refresh fold), with each post-move total
    /// formed slot by slot as `(committed − evicted) + joined` instead of
    /// sweeping a scratch row. The caller has committed.
    fn price_take(&mut self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        debug_assert!(!self.x.is_offloaded(user), "a take moves a local user");
        let (u, si, ji) = (user.index(), server.index(), subchannel.index());
        let victim = self.x.occupant(server, subchannel);
        let capacity = self.capacity[si];
        let mut gain_sum = self.gain_sum;
        let mut gamma_sum = self.gamma_sum;
        let mut lambda_sum = self.lambda_sum;
        let mut nonfinite = self.nonfinite;
        let mut sqrt_eta_sum = self.sum_sqrt_eta[si];
        if let Some(v) = victim {
            let v = v.index();
            gain_sum -= self.coeffs.gain_const[v];
            if self.gamma_bad[v] {
                nonfinite -= 1;
            } else {
                gamma_sum -= self.gamma_of[v];
            }
            let old_term = lambda_term_from(sqrt_eta_sum, capacity);
            // Same empty-server pin to exactly zero as `leave`.
            sqrt_eta_sum = if self.users_on[si] == 1 {
                0.0
            } else {
                sqrt_eta_sum - self.coeffs.sqrt_eta[v]
            };
            lambda_sum += lambda_term_from(sqrt_eta_sum, capacity) - old_term;
        }
        gain_sum += self.coeffs.gain_const[u];
        let old_term = lambda_term_from(sqrt_eta_sum, capacity);
        sqrt_eta_sum += self.coeffs.sqrt_eta[u];
        lambda_sum += lambda_term_from(sqrt_eta_sum, capacity) - old_term;

        // Γ refresh of the touched subchannel. As in `score`, the gather
        // pass collects each post-move occupant's SINR call-free and the
        // second pass runs the `log2` calls; both accumulators add in
        // server order, so the bits match the overlay replay.
        let servers = self.capacity.len();
        let joined_at = self.wgain_base(u, ji);
        let evicted_at = victim.map(|v| self.wgain_base(v.index(), ji));
        // Field-wise borrows: the fold scratch is written while the rows
        // are read.
        let Self {
            x,
            stride,
            noise,
            coeffs,
            wgain,
            totals,
            gamma_of,
            signal_of,
            gamma_bad,
            score_fold,
            ..
        } = self;
        let totals = &totals[ji * *stride..][..servers];
        let joined = &wgain[joined_at..][..servers];
        let evicted = evicted_at.map(|at| &wgain[at..][..servers]);
        let occupants = &x.occupants_on(subchannel)[..servers];
        score_fold.clear();
        let mut row_old = 0.0;
        for t in 0..servers {
            let (w, signal) = if t == si {
                (u, joined[t])
            } else if let Some(w) = occupants[t] {
                (w.index(), signal_of[w.index()])
            } else {
                continue;
            };
            let mut total = totals[t];
            if let Some(evicted) = evicted {
                total -= evicted[t];
            }
            total += joined[t];
            if gamma_bad[w] {
                nonfinite -= 1;
            }
            row_old += gamma_of[w];
            score_fold.push((coeffs.gamma_num[w], sinr_from(signal, total, *noise)));
        }
        let mut row_new = 0.0;
        for &(gamma_num, sinr) in score_fold.iter() {
            let term = gamma_term_from_sinr(gamma_num, sinr);
            row_new += if term.is_finite() {
                term
            } else {
                nonfinite += 1;
                0.0
            };
        }
        gamma_sum += row_new - row_old;

        // The joining user keeps at least one user offloaded.
        if nonfinite > 0 {
            f64::NEG_INFINITY
        } else {
            gain_sum - gamma_sum - lambda_sum
        }
    }
}

/// One overlaid per-user slot write of a speculative score:
/// `(user, its post-op slot)`.
type SlotWrite = (UserId, Option<(ServerId, SubchannelId)>);

/// Λ term of one server from a `Σ√η` sum against its capacity (Eq. 23).
#[inline]
fn lambda_term_from(sum: f64, capacity: f64) -> f64 {
    if sum > 0.0 {
        sum * sum / capacity
    } else {
        0.0
    }
}

/// The Γ term of a user receiving `signal` on a slot whose received-power
/// total is `total` — the exact expression of the reference evaluator,
/// shared verbatim by the apply and score paths so their rounding agrees.
#[inline]
fn gamma_term_from(gamma_num: f64, signal: f64, total: f64, noise: f64) -> f64 {
    gamma_term_from_sinr(gamma_num, sinr_from(signal, total, noise))
}

/// The SINR half of [`gamma_term_from`] — call-free, so gather loops
/// over a subchannel's occupants pipeline without spilling around libm.
#[inline]
fn sinr_from(signal: f64, total: f64, noise: f64) -> f64 {
    let interference = (total - signal).max(0.0);
    signal / (interference + noise)
}

/// The `log2` half of [`gamma_term_from`] (Eq. 24's rate denominator).
#[inline]
fn gamma_term_from_sinr(gamma_num: f64, sinr: f64) -> f64 {
    gamma_num / (1.0 + sinr).log2()
}

impl MoveDesc {
    /// Reverses the op order in place (used to turn a forward journal of
    /// inverse ops into undo order).
    pub(crate) fn reverse(&mut self) {
        self.ops[..self.len as usize].reverse();
    }
}

impl MoveLog {
    /// An empty journal with buffers sized for the worst-case move against
    /// `servers` stations (`stride` lane-padded totals slots per row), so
    /// even the first apply does not allocate.
    fn with_capacity(servers: usize, stride: usize) -> Self {
        Self {
            new_totals: Vec::with_capacity(MAX_MOVE_OPS * stride),
            touched_subs: Vec::with_capacity(MAX_MOVE_OPS),
            new_gammas: Vec::with_capacity(MAX_MOVE_OPS * (servers + 1)),
            old_gammas: Vec::with_capacity(MAX_MOVE_OPS),
            old_signals: Vec::with_capacity(MAX_MOVE_OPS),
            servers: Vec::with_capacity(2 * MAX_MOVE_OPS),
            ..Self::default()
        }
    }

    /// Snapshots the scalar sums for the next move. The log must already
    /// be clean — `apply` always commits (and thereby discards) first, and
    /// `undo` drains every buffer it touches.
    fn begin(
        &mut self,
        gain_sum: f64,
        gamma_sum: f64,
        lambda_sum: f64,
        nonfinite: u32,
        num_offloaded: usize,
    ) {
        debug_assert!(!self.valid && self.new_totals.is_empty() && self.inverse.is_empty());
        self.gain_sum = gain_sum;
        self.gamma_sum = gamma_sum;
        self.lambda_sum = lambda_sum;
        self.nonfinite = nonfinite;
        self.num_offloaded = num_offloaded;
    }

    fn discard(&mut self) {
        self.valid = false;
        self.new_totals.clear();
        self.touched_subs.clear();
        self.new_gammas.clear();
        self.old_gammas.clear();
        self.old_signals.clear();
        self.servers.clear();
        self.inverse = MoveDesc::noop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::{EvalScratch, Evaluator};
    use crate::scenario::UserSpec;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_scenario(seed: u64, users: usize, servers: usize, subs: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = ChannelGains::from_fn(users, servers, subs, |_, _, _| {
            10.0_f64.powf(rng.gen_range(-13.0..-9.0))
        })
        .unwrap();
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subs).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap()
    }

    fn random_assignment(scenario: &Scenario, seed: u64) -> Assignment {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::all_local(scenario);
        for u in scenario.user_ids() {
            if rng.gen_bool(0.6) {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                if let Some(j) = x.free_subchannel(s) {
                    x.assign(u, s, j).unwrap();
                }
            }
        }
        x
    }

    /// A random valid MoveDesc against `x`, mimicking the kernel's shapes.
    fn random_move(scenario: &Scenario, x: &Assignment, rng: &mut StdRng) -> MoveDesc {
        let u = UserId::new(rng.gen_range(0..scenario.num_users()));
        match rng.gen_range(0..4) {
            0 => MoveDesc::relocate(x, u, None),
            1 => {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                let j = SubchannelId::new(rng.gen_range(0..scenario.num_subchannels()));
                MoveDesc::relocate_evicting(x, u, s, j)
            }
            2 => {
                let v = UserId::new(rng.gen_range(0..scenario.num_users()));
                MoveDesc::swap(x, u, v)
            }
            _ => {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                match x.free_subchannel(s) {
                    Some(j) if !x.is_offloaded(u) => MoveDesc::relocate(x, u, Some((s, j))),
                    _ => MoveDesc::relocate(x, u, None),
                }
            }
        }
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        if a.is_finite() || b.is_finite() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{what}: incremental {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn fresh_build_matches_reference() {
        let mut scratch = EvalScratch::default();
        for seed in 0..6 {
            let sc = random_scenario(seed, 9, 3, 3);
            let x = random_assignment(&sc, seed + 40);
            let reference = Evaluator::new(&sc).objective_with(&x, &mut scratch);
            let inc = IncrementalObjective::new(&sc, x).unwrap();
            assert_close(inc.current(), reference, "fresh build");
        }
    }

    #[test]
    fn all_local_is_exactly_zero() {
        let sc = random_scenario(0, 4, 2, 2);
        let inc = IncrementalObjective::new(&sc, Assignment::all_local(&sc)).unwrap();
        assert_eq!(inc.current(), 0.0);
    }

    #[test]
    fn apply_tracks_reference_over_random_walks() {
        let mut scratch = EvalScratch::default();
        for seed in 0..5 {
            let sc = random_scenario(seed, 10, 3, 3);
            let ev = Evaluator::new(&sc);
            let mut rng = StdRng::seed_from_u64(seed + 7);
            let mut inc =
                IncrementalObjective::new(&sc, random_assignment(&sc, seed + 11)).unwrap();
            for step in 0..400 {
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                inc.apply(&mv);
                inc.commit();
                inc.assignment().verify_feasible(&sc).unwrap();
                let reference = ev.objective_with(inc.assignment(), &mut scratch);
                assert_close(
                    inc.current(),
                    reference,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
    }

    #[test]
    fn undo_is_bit_exact() {
        let sc = random_scenario(3, 8, 3, 2);
        let mut rng = StdRng::seed_from_u64(99);
        let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, 21)).unwrap();
        for _ in 0..300 {
            let x_before = inc.assignment().clone();
            let obj_before = inc.current();
            let mv = random_move(&sc, inc.assignment(), &mut rng);
            inc.apply(&mv);
            inc.undo();
            assert_eq!(inc.assignment(), &x_before, "assignment restored");
            assert_eq!(
                inc.current().to_bits(),
                obj_before.to_bits(),
                "objective restored bit-exactly"
            );
        }
    }

    #[test]
    fn delta_matches_before_after_difference() {
        let sc = random_scenario(5, 7, 2, 3);
        let mut rng = StdRng::seed_from_u64(17);
        let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, 31)).unwrap();
        for _ in 0..200 {
            let before = inc.current();
            let mv = random_move(&sc, inc.assignment(), &mut rng);
            let delta = inc.apply(&mv);
            assert_eq!(delta.to_bits(), (inc.current() - before).to_bits());
            if rng.gen_bool(0.5) {
                inc.undo();
            } else {
                inc.commit();
            }
        }
    }

    #[test]
    fn noop_move_changes_nothing() {
        let sc = random_scenario(2, 5, 2, 2);
        let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, 13)).unwrap();
        let before = inc.current();
        let delta = inc.apply(&MoveDesc::noop());
        assert_eq!(delta, 0.0);
        assert_eq!(inc.current().to_bits(), before.to_bits());
        inc.undo();
        assert_eq!(inc.current().to_bits(), before.to_bits());
    }

    #[test]
    fn resync_discards_drift_and_pending_moves() {
        let mut scratch = EvalScratch::default();
        let sc = random_scenario(8, 9, 3, 3);
        let ev = Evaluator::new(&sc);
        let mut rng = StdRng::seed_from_u64(5);
        let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, 3)).unwrap();
        for _ in 0..100 {
            let mv = random_move(&sc, inc.assignment(), &mut rng);
            inc.apply(&mv);
            inc.commit();
        }
        inc.resync();
        let reference = ev.objective_with(inc.assignment(), &mut scratch);
        assert_close(inc.current(), reference, "post-resync");
    }

    #[test]
    fn move_desc_constructors_match_assignment_semantics() {
        let sc = random_scenario(4, 6, 2, 2);
        let x = random_assignment(&sc, 77);

        // Swap equivalence against Assignment::swap.
        for (a, b) in [(0, 1), (2, 3), (4, 5), (1, 1)] {
            let (a, b) = (UserId::new(a), UserId::new(b));
            let mut via_desc = x.clone();
            MoveDesc::swap(&x, a, b).apply_to(&mut via_desc).unwrap();
            let mut via_swap = x.clone();
            via_swap.swap(a, b);
            assert_eq!(via_desc, via_swap);
        }

        // Evicting relocation equivalence against assign_evicting.
        for u in 0..sc.num_users() {
            let u = UserId::new(u);
            for s in 0..sc.num_servers() {
                for j in 0..sc.num_subchannels() {
                    let (s, j) = (ServerId::new(s), SubchannelId::new(j));
                    let mut via_desc = x.clone();
                    MoveDesc::relocate_evicting(&x, u, s, j)
                        .apply_to(&mut via_desc)
                        .unwrap();
                    let mut via_evict = x.clone();
                    via_evict.assign_evicting(u, s, j).unwrap();
                    assert_eq!(via_desc, via_evict);
                }
            }
        }
    }

    #[test]
    fn score_matches_apply_bit_exactly() {
        for seed in 0..6 {
            let sc = random_scenario(seed, 10, 3, 3);
            let mut rng = StdRng::seed_from_u64(seed + 71);
            let mut inc =
                IncrementalObjective::new(&sc, random_assignment(&sc, seed + 29)).unwrap();
            for step in 0..300 {
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                let speculative = inc.score(&mv);
                let x_before = inc.assignment().clone();
                let before = inc.current();
                inc.apply(&mv);
                let applied = inc.current();
                assert_eq!(
                    speculative.to_bits(),
                    applied.to_bits(),
                    "seed {seed} step {step}: score {speculative} vs apply {applied}"
                );
                // Scoring never mutates: the assignment and the committed
                // state are untouched after an undo of the real apply.
                inc.undo();
                assert_eq!(inc.assignment(), &x_before);
                assert_eq!(inc.current().to_bits(), before.to_bits());
                // Occasionally walk forward so scoring is exercised from
                // many committed states.
                if rng.gen_bool(0.3) {
                    inc.apply(&mv);
                    inc.commit();
                }
            }
        }
    }

    #[test]
    fn score_handles_noop_and_all_local() {
        let sc = random_scenario(12, 5, 2, 2);
        let mut inc = IncrementalObjective::new(&sc, Assignment::all_local(&sc)).unwrap();
        assert_eq!(inc.score(&MoveDesc::noop()), 0.0);
        let mv = MoveDesc::relocate(
            inc.assignment(),
            UserId::new(0),
            Some((ServerId::new(0), SubchannelId::new(0))),
        );
        let speculative = inc.score(&mv);
        inc.apply(&mv);
        assert_eq!(speculative.to_bits(), inc.current().to_bits());
        inc.commit();
        // Releasing the only offloaded user scores exactly 0.0 again.
        let back = MoveDesc::relocate(inc.assignment(), UserId::new(0), None);
        assert_eq!(inc.score(&back), 0.0);
    }

    #[test]
    fn padded_lanes_stay_zero_and_inert() {
        // A geometry whose server count is not a lane multiple: the padded
        // layout must agree with the reference evaluator everywhere.
        let mut scratch = EvalScratch::default();
        for servers in [1, 2, 3, 5, 6, 7, 9] {
            let sc = random_scenario(40 + servers as u64, 12, servers, 3);
            let x = random_assignment(&sc, 7);
            let inc = IncrementalObjective::new(&sc, x.clone()).unwrap();
            let reference = Evaluator::new(&sc).objective_with(&x, &mut scratch);
            assert_close(inc.current(), reference, &format!("{servers} servers"));
        }
    }

    /// As [`random_scenario`] but with a subchannel-shared gain tensor
    /// carrying the same per-link values as the dense one.
    fn shared_random_scenario(seed: u64, users: usize, servers: usize, subs: usize) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = ChannelGains::shared_from_fn(users, servers, subs, |_, _| {
            10.0_f64.powf(rng.gen_range(-13.0..-9.0))
        })
        .unwrap();
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subs).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap()
    }

    #[test]
    fn shared_gain_layout_is_bit_identical_to_dense() {
        // Build a dense twin of the shared tensor (same per-link values,
        // replicated across subchannels) and drive both through the same
        // move sequence: every objective must match bit for bit, because
        // the collapsed wgain rows hold the exact same numbers.
        for seed in 0..4 {
            let shared = shared_random_scenario(seed, 10, 3, 3);
            let dense_gains = ChannelGains::from_fn(10, 3, 3, |u, s, _| {
                shared.gains().gain(u, s, SubchannelId::new(0))
            })
            .unwrap();
            let dense = Scenario::new(
                shared.users().to_vec(),
                shared.servers().to_vec(),
                *shared.ofdma(),
                dense_gains,
                shared.noise(),
            )
            .unwrap();
            let x = random_assignment(&shared, seed + 3);
            let mut inc_s = IncrementalObjective::new(&shared, x.clone()).unwrap();
            let mut inc_d = IncrementalObjective::new(&dense, x).unwrap();
            assert!(inc_s.wgain_shared && !inc_d.wgain_shared);
            assert_eq!(inc_s.current().to_bits(), inc_d.current().to_bits());
            let mut rng = StdRng::seed_from_u64(seed + 500);
            for _ in 0..200 {
                let mv = random_move(&shared, inc_s.assignment(), &mut rng);
                let score_s = inc_s.score(&mv);
                let score_d = inc_d.score(&mv);
                assert_eq!(score_s.to_bits(), score_d.to_bits());
                inc_s.apply(&mv);
                inc_d.apply(&mv);
                inc_s.commit();
                inc_d.commit();
                assert_eq!(inc_s.current().to_bits(), inc_d.current().to_bits());
            }
            inc_s.resync();
            inc_d.resync();
            assert_eq!(inc_s.current().to_bits(), inc_d.current().to_bits());
        }
    }

    #[test]
    fn external_rx_flows_through_resync_apply_and_score() {
        let mut scratch = EvalScratch::default();
        for seed in 0..4 {
            let mut sc = random_scenario(seed, 9, 3, 3);
            sc.set_external_rx(Some((0..9).map(|i| 1e-12 * (1.0 + i as f64)).collect()))
                .unwrap();
            let ev = Evaluator::new(&sc);
            let x = random_assignment(&sc, seed + 9);
            let mut inc = IncrementalObjective::new(&sc, x).unwrap();
            assert_close(
                inc.current(),
                ev.objective_with(inc.assignment(), &mut scratch),
                "fresh build with external rx",
            );
            let mut rng = StdRng::seed_from_u64(seed + 1000);
            for step in 0..200 {
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                let speculative = inc.score(&mv);
                inc.apply(&mv);
                assert_eq!(speculative.to_bits(), inc.current().to_bits());
                inc.commit();
                let reference = ev.objective_with(inc.assignment(), &mut scratch);
                assert_close(
                    inc.current(),
                    reference,
                    &format!("seed {seed} step {step} with external rx"),
                );
            }
        }
    }

    #[test]
    fn score_take_matches_apply_on_every_slot() {
        // Three servers (not a lane multiple), a halo, and a user whose
        // links are all zero, so its Γ term is non-finite once offloaded.
        let gains = ChannelGains::from_fn(6, 3, 2, |u, s, j| {
            if u.index() == 5 {
                0.0
            } else {
                1e-11 * (1.0 + (u.index() * 7 + s.index() * 3 + j.index()) as f64)
            }
        })
        .unwrap();
        let mut sc = Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); 6],
            vec![ServerProfile::paper_default(); 3],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap();
        sc.set_external_rx(Some((0..6).map(|i| 1e-12 * (1.0 + i as f64)).collect()))
            .unwrap();
        let mut x = Assignment::all_local(&sc);
        x.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
            .unwrap();
        x.assign(UserId::new(1), ServerId::new(2), SubchannelId::new(1))
            .unwrap();
        for with_zero_gain_user in [false, true] {
            let mut x = x.clone();
            if with_zero_gain_user {
                x.assign(UserId::new(5), ServerId::new(1), SubchannelId::new(0))
                    .unwrap();
            }
            let mut inc = IncrementalObjective::new(&sc, x).unwrap();
            assert_eq!(inc.current().is_finite(), !with_zero_gain_user);
            for u in 0..6 {
                for s in 0..3 {
                    for j in 0..2 {
                        let (u, s, j) = (UserId::new(u), ServerId::new(s), SubchannelId::new(j));
                        let mv = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                        let take = inc.score_take(u, s, j);
                        assert_eq!(take.to_bits(), inc.score(&mv).to_bits());
                        inc.apply(&mv);
                        assert_eq!(
                            take.to_bits(),
                            inc.current().to_bits(),
                            "{u} takes ({s}, {j}): {take} vs {}",
                            inc.current()
                        );
                        inc.undo();
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no uncommitted move")]
    fn undo_without_apply_panics() {
        let sc = random_scenario(1, 3, 2, 2);
        let mut inc = IncrementalObjective::new(&sc, Assignment::all_local(&sc)).unwrap();
        inc.undo();
    }

    #[test]
    fn rejects_mismatched_geometry() {
        let sc = random_scenario(1, 3, 2, 2);
        assert!(IncrementalObjective::new(&sc, Assignment::with_dims(5, 2, 2)).is_err());
    }
}
