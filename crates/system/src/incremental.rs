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
//! [`CoefficientBlocks`] columns instead of per-user structs. Everything
//! that depends on the scenario alone (the weighted gains, the columns,
//! the capacities and the bound's noise-only floors) is packed once into
//! an [`ObjectiveTables`] that every state on the scenario shares.
//!
//! ## Scoring
//!
//! [`score`](IncrementalObjective::score) prices a candidate move: it
//! returns the objective the move would produce, bit-identical to `apply`
//! followed by [`current`](IncrementalObjective::current), and leaves the
//! state exactly as it found it. Search loops score first and only
//! `apply`+`commit` accepted moves. This is the proposal path of the
//! TTSA/tempering/local-search/hJTORA engines. The two commonest shapes
//! are slot takes: a local user taking a slot, and an offloaded user
//! relocating to another, each evicting the occupant. They touch at most
//! two servers and two subchannels and are priced by one straight-line
//! recipe that repeats `apply`'s float operations in the same order,
//! without mutating anything, so the price is bit-identical;
//! [`score_take`](IncrementalObjective::score_take) exposes it without a
//! [`MoveDesc`], and `score` routes both shapes through it. Every other
//! move (a release, a swap of two offloaded users, a hand-built move) is
//! priced by `apply`, `current` and `undo`, which the write-behind
//! journal (below) makes exact and allocation-free.
//!
//! ## Bound-gated pricing
//!
//! Most proposals a search makes are rejected, and an exact price pays
//! one `log2` Γ refresh per co-channel occupant of every touched
//! subchannel. [`bound`](IncrementalObjective::bound) (and its
//! straight-line take form [`bound_take`](IncrementalObjective::bound_take))
//! returns a sound upper bound on `score(mv) − current()` with no Γ
//! refresh at all: it relaxes away interference the way
//! `mec_baselines::upper_bound` does, charging each arrival only its
//! noise-only uplink floor and crediting every current co-channel
//! occupant's whole Γ term. Slot takes, local or relocating, are bounded
//! straight-line in the general bound's accumulation order, bit for bit.
//! The TTSA step and the shard descent bound each candidate first and
//! price only the ones the bound cannot rule out, so the gate settles
//! rejections only and never changes a decision.
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

use crate::assignment::{
    pack_slot, unpack_slot, Assignment, MAX_PACKED_USERS, SERVER_BITS, SUBCHANNEL_BITS,
};
use crate::coefficients::CoefficientBlocks;
use crate::scenario::Scenario;
use crate::simd;
use mec_types::{Error, ServerId, SubchannelId, UserId};
use std::fmt;
use std::sync::Arc;

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

/// Bits of a packed op word that hold the user index (the low bits).
const USER_BITS: u32 = u32::BITS;
/// The bit on top of a packed op word, above the user and the slot
/// word, that marks an `Assign`.
const ASSIGN_BIT: u64 = 1 << (USER_BITS + SERVER_BITS + SUBCHANNEL_BITS);

impl PrimOp {
    /// The op as one word: the user in the low 32 bits, then the slot
    /// word of an `Assign` (the server in 20 bits, the subchannel in 11;
    /// see [`crate::assignment`]), and the top bit set for an `Assign`. A
    /// `Release` is its user index alone.
    ///
    /// # Panics
    ///
    /// Panics if an id does not fit its field.
    #[inline]
    fn pack(self) -> u64 {
        match self {
            PrimOp::Assign {
                user,
                server,
                subchannel,
            } => {
                ASSIGN_BIT
                    | u64::from(pack_slot(server, subchannel)) << USER_BITS
                    | user.index() as u64
            }
            PrimOp::Release { user } => user.index() as u64,
        }
    }

    /// Decodes a word written by [`pack`](Self::pack).
    #[inline]
    fn unpack(word: u64) -> Self {
        let user = UserId::new((word & (MAX_PACKED_USERS - 1)) as usize);
        if word & ASSIGN_BIT == 0 {
            return PrimOp::Release { user };
        }
        let (server, subchannel) = unpack_slot((word >> USER_BITS) as u32);
        PrimOp::Assign {
            user,
            server,
            subchannel,
        }
    }
}

/// A compact, allocation-free description of one neighborhood move: a
/// sequence of at most [`MAX_MOVE_OPS`] primitive operations that is
/// valid when applied in order against the assignment it was built for.
///
/// Each op is stored as one packed word (see DESIGN.md §5, "The settled
/// path"), so a move is 40 bytes and every proposal builds and copies
/// it cheaply; [`ops`](Self::ops) decodes them. Unused words stay zero,
/// so equal op sequences compare equal.
///
/// Constructors take the current assignment so the op sequence respects
/// the mid-sequence invariants (`Assign` targets a free slot and a local
/// user, `Release` targets an offloaded user).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct MoveDesc {
    ops: [u64; MAX_MOVE_OPS],
    len: u8,
}

impl fmt::Debug for MoveDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MoveDesc ")?;
        f.debug_list().entries(self.ops()).finish()
    }
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
    /// Panics if the move already holds [`MAX_MOVE_OPS`] ops, or if an id
    /// does not fit the packed word ([`Scenario::new`] rejects geometries
    /// that could produce one).
    #[inline]
    pub fn push(&mut self, op: PrimOp) {
        let i = self.len as usize;
        assert!(i < MAX_MOVE_OPS, "a move holds at most {MAX_MOVE_OPS} ops");
        self.ops[i] = op.pack();
        self.len += 1;
    }

    /// The ops, in application order.
    pub fn ops(&self) -> impl Iterator<Item = PrimOp> + '_ {
        self.ops[..self.len()]
            .iter()
            .map(|&word| PrimOp::unpack(word))
    }

    /// Number of primitive ops.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the move changes nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

/// The scenario-only half of an [`IncrementalObjective`]: the tables a
/// state reads but never writes, packed once per scenario.
///
/// It holds the lane-padded weighted gains `p_u·h`, the per-user
/// coefficient columns, the server capacities, the noise power and the
/// noise-only uplink floors Γ⁰ the bounds charge. None of it depends on
/// the decision or on the scenario's `external_rx`, so every state on
/// one scenario can share one pack by [`Arc`]: a tempering ladder packs
/// once for its replicas and its quench, and a shard cluster packs once
/// for its tempered solve and every reconcile visit of the run
/// (DESIGN.md §5, "One pack per scenario").
#[derive(Debug)]
pub struct ObjectiveTables {
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
    /// Noise-only uplink floors Γ⁰ for
    /// [`bound`](IncrementalObjective::bound), one per `wgain` entry,
    /// filled at pack time for every real lane (padding lanes hold
    /// `0.0` and are never read). Empty when the table would exceed
    /// [`FLOOR_TABLE_MAX`] entries; such packs compute every floor on
    /// demand.
    floors: Vec<f64>,
}

impl ObjectiveTables {
    /// Packs the tables of `scenario` in `O(U·S·N)`, plus one `log2` per
    /// real weighted-gain entry when the floor table fits its 4 096-entry
    /// cap (32 KB).
    pub fn new(scenario: &Scenario) -> Self {
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
        let mut tables = Self {
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
            floors: Vec::new(),
        };
        if tables.wgain.len() <= FLOOR_TABLE_MAX {
            let mut floors = vec![0.0; tables.wgain.len()];
            for (at, floor) in floors.iter_mut().enumerate() {
                if at % stride < servers {
                    *floor = tables.floor_at(at / (rows_per_user * stride), at);
                }
            }
            tables.floors = floors;
        }
        tables
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

    /// Γ⁰: the noise-only uplink floor of `user` transmitting at
    /// `(server, subchannel)` — Eq. 24's uplink term at zero interference,
    /// the value `mec_baselines::upper_bound` relaxes every slot to. It
    /// depends on the scenario only, so the pack computes it once per
    /// entry, unless the table would hold more than [`FLOOR_TABLE_MAX`]
    /// entries, in which case every floor is computed on demand.
    #[inline]
    fn noise_floor(&self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        let at = self.wgain_base(user.index(), subchannel.index()) + server.index();
        match self.floors.get(at) {
            Some(&floor) => floor,
            None => self.floor_at(user.index(), at),
        }
    }

    /// Γ⁰ of user `u` at the `wgain` entry `at`, computed afresh.
    fn floor_at(&self, u: usize, at: usize) -> f64 {
        let signal = self.wgain[at];
        gamma_term_from(self.coeffs.gamma_num[u], signal, signal, self.noise)
    }

    /// Whether two packs hold the same geometry and the same bits in
    /// every table — what [`IncrementalObjective::with_tables`] checks in
    /// debug builds against a fresh pack of its scenario.
    fn same_bits(&self, other: &Self) -> bool {
        fn bits(a: &[f64], b: &[f64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        let (c, d) = (&self.coeffs, &other.coeffs);
        self.num_sub == other.num_sub
            && self.stride == other.stride
            && self.wgain_shared == other.wgain_shared
            && self.noise.to_bits() == other.noise.to_bits()
            && bits(&c.sqrt_eta, &d.sqrt_eta)
            && bits(&c.gamma_num, &d.gamma_num)
            && bits(&c.gain_const, &d.gain_const)
            && bits(&self.capacity, &other.capacity)
            && bits(&self.wgain, &other.wgain)
            && bits(&self.floors, &other.floors)
    }
}

/// Persistent incremental state for `J*(X)` (Eq. 24) over one scenario.
///
/// Owns the current [`Assignment`] and keeps the per-`(s,j)` received-power
/// totals, per-user cached Γ terms, per-server `Σ√η` sums and the benefit
/// sum synchronized with it under [`apply`](Self::apply) /
/// [`undo`](Self::undo). The scenario-only tables it reads live in a
/// shared [`ObjectiveTables`] pack.
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
    /// The scenario-only tables, shared with every other state on the
    /// same scenario.
    tables: Arc<ObjectiveTables>,
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
    /// Per subchannel, Σ of its occupants' cached Γ terms in server
    /// order: the relief the bounds credit. Rebuilt by `resync` and, for
    /// the rows a move touched, by `commit` after the Γ flush, with the
    /// same scan, so it equals a fresh scan bit for bit. Nothing else
    /// writes Γ between commits: `apply` buffers or journals, `undo`
    /// restores, and `bound` commits first.
    relief: Vec<f64>,
    /// `Σ_{u∈U_s} √η_u` per server.
    sum_sqrt_eta: Vec<f64>,
    users_on: Vec<u32>,
    gain_sum: f64,
    gamma_sum: f64,
    lambda_sum: f64,
    nonfinite: u32,
    num_offloaded: usize,
    log: MoveLog,
    /// Scratch `(Γ numerator, SINR)` pairs for the split Γ fold of
    /// [`apply`](Self::apply) and [`score_take`](Self::score_take) —
    /// gathered call-free, consumed by the `log2` pass.
    score_fold: Vec<(f64, f64)>,
    /// Per server, the `(ceiling, magnitude)` pair the server gate of
    /// [`settles_local_takes`](Self::settles_local_takes) reads: the
    /// largest state-only part of a local take's bound over the server's
    /// slots, and the magnitudes that part rounds against.
    server_gate: Vec<(f64, f64)>,
    /// Whether `server_gate` describes the committed state. `flush` and
    /// `resync` clear it; the next gate query refills it. `undo` leaves
    /// it set: it restores the committed state bit for bit.
    server_gate_fresh: bool,
}

impl<'a> IncrementalObjective<'a> {
    /// Builds the incremental state for `x` in `O(T·S)` — the same cost as
    /// one full evaluation — on a fresh [`ObjectiveTables`] pack of its
    /// own.
    ///
    /// # Errors
    ///
    /// Fails if `x` does not fit the scenario's geometry.
    pub fn new(scenario: &'a Scenario, x: Assignment) -> Result<Self, Error> {
        x.verify_feasible(scenario)?;
        Ok(Self::build(
            scenario,
            Arc::new(ObjectiveTables::new(scenario)),
            x,
        ))
    }

    /// [`new`](Self::new) on a shared pack: every state built from one
    /// pack reads the same tables, so only the per-state sums are built.
    ///
    /// The pack must come from this scenario
    /// (`ObjectiveTables::new(scenario)`). Only the scenario's
    /// `external_rx` may have changed since, because the pack never
    /// reads it; a pack of another scenario with the same geometry
    /// prices every move against the wrong gains. Debug builds assert
    /// that the pack equals a fresh pack of `scenario`.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::DimensionMismatch`] if the pack's users,
    /// servers or subchannels differ from the scenario's, and if `x` does
    /// not fit the scenario's geometry.
    pub fn with_tables(
        scenario: &'a Scenario,
        tables: Arc<ObjectiveTables>,
        x: Assignment,
    ) -> Result<Self, Error> {
        for (what, expected, actual) in [
            (
                "objective tables vs users",
                scenario.num_users(),
                tables.coeffs.len(),
            ),
            (
                "objective tables vs servers",
                scenario.num_servers(),
                tables.capacity.len(),
            ),
            (
                "objective tables vs subchannels",
                scenario.num_subchannels(),
                tables.num_sub,
            ),
        ] {
            if expected != actual {
                return Err(Error::DimensionMismatch {
                    what,
                    expected,
                    actual,
                });
            }
        }
        debug_assert!(
            tables.same_bits(&ObjectiveTables::new(scenario)),
            "the objective tables were packed from another scenario"
        );
        x.verify_feasible(scenario)?;
        Ok(Self::build(scenario, tables, x))
    }

    /// The per-state sums for `x` on `tables`, resynced.
    fn build(scenario: &'a Scenario, tables: Arc<ObjectiveTables>, x: Assignment) -> Self {
        let users = scenario.num_users();
        let servers = scenario.num_servers();
        let (num_sub, stride) = (tables.num_sub, tables.stride);
        let mut inc = Self {
            scenario,
            x,
            tables,
            totals: vec![0.0; stride * num_sub],
            gamma_of: vec![0.0; users],
            signal_of: vec![0.0; users],
            gamma_bad: vec![false; users],
            relief: vec![0.0; num_sub],
            sum_sqrt_eta: vec![0.0; servers],
            users_on: vec![0; servers],
            gain_sum: 0.0,
            gamma_sum: 0.0,
            lambda_sum: 0.0,
            nonfinite: 0,
            num_offloaded: 0,
            log: MoveLog::with_capacity(servers, stride),
            score_fold: Vec::with_capacity(stride),
            server_gate: vec![(0.0, 0.0); servers],
            server_gate_fresh: false,
        };
        inc.resync();
        inc
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

    /// Λ term of one server from its current `Σ√η` sum (Eq. 23).
    #[inline]
    fn lambda_term(&self, s: usize) -> f64 {
        lambda_term_from(self.sum_sqrt_eta[s], self.tables.capacity[s])
    }

    /// Rebuilds every sum from the assignment, discarding accumulated
    /// drift and any pending undo state. Iterates in the same order as
    /// [`Evaluator::objective_with`] so the rebuilt value tracks the
    /// reference as closely as summation order allows.
    ///
    /// [`Evaluator::objective_with`]: crate::Evaluator::objective_with
    pub fn resync(&mut self) {
        self.log.discard();
        self.server_gate_fresh = false;
        let servers = self.scenario.num_servers();
        let stride = self.tables.stride;
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
            let row = self.tables.wgain_base(u.index(), j.index());
            simd::add_assign_rows(
                &mut self.totals[j.index() * stride..][..stride],
                &self.tables.wgain[row..][..stride],
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
            self.gain_sum += self.tables.coeffs.gain_const[u.index()];
            self.signal_of[u.index()] = self.tables.wgain_row(u.index(), j.index())[s.index()];
            let term = self.gamma_term(u, s, j);
            if term.is_finite() {
                self.gamma_sum += term;
                self.gamma_of[u.index()] = term;
            } else {
                self.gamma_bad[u.index()] = true;
                self.nonfinite += 1;
            }
        }
        for j in 0..self.tables.num_sub {
            self.relief[j] = self.scan_relief(j);
        }

        self.lambda_sum = 0.0;
        for s in 0..servers {
            let mut sum = 0.0;
            let mut count = 0;
            for j in 0..self.tables.num_sub {
                if let Some(u) = self.x.occupant(ServerId::new(s), SubchannelId::new(j)) {
                    sum += self.tables.coeffs.sqrt_eta[u.index()];
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
        let signal = self.tables.wgain_row(u.index(), j.index())[s.index()];
        let total = self.totals[j.index() * self.tables.stride + s.index()];
        gamma_term_from(
            self.tables.coeffs.gamma_num[u.index()],
            signal,
            total,
            self.tables.noise,
        )
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
        let stride = self.tables.stride;
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
                let wb = self.tables.wgain_base(user.index(), ji);
                let row = &self.tables.wgain[wb..][..stride];
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
                        self.tables.coeffs.gamma_num[u],
                        sinr_from(self.signal_of[u], total, self.tables.noise),
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
        self.gain_sum -= self.tables.coeffs.gain_const[u];
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
            self.sum_sqrt_eta[si] -= self.tables.coeffs.sqrt_eta[u];
        }
        self.lambda_sum += self.lambda_term(si) - old_term;
    }

    /// Membership bookkeeping when `user` joins slot `(s, j)`. Its Γ term
    /// is installed by the caller's refresh pass (its subchannel is
    /// touched) and the totals row by the caller's fused totals pass; the
    /// received-signal cache is rewritten here, eagerly and journaled.
    fn join(&mut self, user: UserId, s: ServerId, j: SubchannelId) {
        let u = user.index();
        self.gain_sum += self.tables.coeffs.gain_const[u];
        self.num_offloaded += 1;

        self.log.old_signals.push((u, self.signal_of[u]));
        self.signal_of[u] = self.tables.wgain_row(u, j.index())[s.index()];

        let si = s.index();
        self.log
            .servers
            .push((si, self.sum_sqrt_eta[si], self.users_on[si]));
        let old_term = self.lambda_term(si);
        self.users_on[si] += 1;
        self.sum_sqrt_eta[si] += self.tables.coeffs.sqrt_eta[u];
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
    /// writes into the persistent arrays and rescanning the relief sums
    /// of the subchannels it touched. A no-op without a pending move
    /// (`undo` and `discard` leave the log empty, so there is nothing to
    /// clear — every score starts with this check, so the
    /// check inlines and the flush does not).
    #[inline]
    pub fn commit(&mut self) {
        if self.log.valid {
            self.flush();
        }
    }

    /// The flush of [`commit`](Self::commit) for a pending move.
    fn flush(&mut self) {
        let stride = self.tables.stride;
        for (k, &j) in self.log.touched_subs.iter().enumerate() {
            self.totals[j * stride..][..stride]
                .copy_from_slice(&self.log.new_totals[k * stride..][..stride]);
        }
        for &(u, term, bad) in &self.log.new_gammas {
            self.gamma_of[u] = term;
            self.gamma_bad[u] = bad;
        }
        for k in 0..self.log.touched_subs.len() {
            let j = self.log.touched_subs[k];
            self.relief[j] = self.scan_relief(j);
        }
        self.log.discard();
        self.server_gate_fresh = false;
    }
}

impl IncrementalObjective<'_> {
    /// Scores a candidate move: returns the objective `J*(X ⊕ mv)` the
    /// move would produce, bit-identical to [`apply`](Self::apply)
    /// followed by [`current`](Self::current), and leaves the state
    /// exactly as it found it. Any pending uncommitted move is committed
    /// first, exactly as `apply` would.
    ///
    /// This is the proposal path of the TTSA, tempering, local-search and
    /// hJTORA engines: they score each candidate and only `apply` +
    /// [`commit`](Self::commit) an accepted one. A slot take — `user` onto
    /// `(server, subchannel)`, evicting the occupant, in any of the four op
    /// shapes [`MoveDesc::relocate_evicting`] builds: `[Assign u]` or
    /// `[Release v, Assign u]` for a local `u`, `[Release u, Assign u]` or
    /// `[Release v, Release u, Assign u]` for an offloaded one — is priced
    /// by the same straight-line recipe as
    /// [`score_take`](Self::score_take), with no mutation at all. Releases,
    /// swaps of two offloaded users and hand-built moves are priced by
    /// `apply`, `current` and [`undo`](Self::undo): `apply` buffers its
    /// totals and Γ writes and `undo` restores everything `apply` wrote
    /// eagerly, bit for bit, so the price is `apply` + `current` by
    /// construction. The move log is pre-sized for the worst-case move, so
    /// neither path allocates.
    ///
    /// The move must have been built by a [`MoveDesc`] constructor against
    /// the current assignment; scoring a move built for a different
    /// decision yields a meaningless value, or panics where `apply` detects
    /// the mismatch.
    pub fn score(&mut self, mv: &MoveDesc) -> f64 {
        self.commit();
        match self.take_shape(mv) {
            Some((user, server, subchannel)) => self.price_take(user, server, subchannel),
            None => {
                self.apply(mv);
                let price = self.current();
                self.undo();
                price
            }
        }
    }

    /// Scores `user` taking the slot `(server, subchannel)`, evicting its
    /// occupant to local execution: the objective
    /// [`score`](Self::score)`(&MoveDesc::relocate_evicting(..))` returns
    /// for that move, bit for bit, without building the move. This is the
    /// TTSA step's and the systematic relocation scan's dominant
    /// candidate. A local `user` takes a slot and an offloaded one is
    /// relocated; both are priced straight-line, without mutating the
    /// state and without a scratch totals row. Taking the slot `user`
    /// already holds changes nothing and scores [`current`](Self::current).
    pub fn score_take(&mut self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        self.commit();
        if self.x.slot(user) == Some((server, subchannel)) {
            return self.current();
        }
        self.price_take(user, server, subchannel)
    }

    /// The straight-line price of `user` taking `(server, subchannel)`
    /// from its occupant, if any, on a committed state: `apply` + `current`
    /// of `[Release occupant]?, [Release user]?, [Assign user]`, with the
    /// assignment changes resolved statically instead of made. It performs
    /// `apply`'s float operations in the same order:
    ///
    /// * benefit, Γ retirement and Λ step of each op in op order (the
    ///   occupant's server, the user's old server, then the target; the
    ///   steps chain on one server's state when the servers coincide), as
    ///   `leave` and `join` take them;
    /// * the Γ refresh fold of each touched subchannel in first-seen
    ///   order — the target first when there is an occupant, the user's
    ///   old subchannel first otherwise — with each post-move total
    ///   formed slot by slot as `((committed − occupant) − leaver) +
    ///   joiner` from the rows that touch that subchannel. The user is
    ///   read at its new slot as a retired user (old term 0) when it was
    ///   offloaded, as `leave` retires it eagerly, and its old slot is
    ///   skipped.
    fn price_take(&mut self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        let (u, si, ji) = (user.index(), server.index(), subchannel.index());
        let from = self.x.slot(user).map(|(s, j)| (s.index(), j.index()));
        debug_assert_ne!(from, Some((si, ji)), "a take moves its user");
        let victim = self.x.occupant(server, subchannel).map(UserId::index);
        let capacity = self.tables.capacity[si];
        let mut gain_sum = self.gain_sum;
        let mut gamma_sum = self.gamma_sum;
        let mut lambda_sum = self.lambda_sum;
        let mut nonfinite = self.nonfinite;
        // The target server's `(Σ√η, user count)` as the ops step it.
        let mut target = (self.sum_sqrt_eta[si], self.users_on[si]);
        if let Some(v) = victim {
            gain_sum -= self.tables.coeffs.gain_const[v];
            if self.gamma_bad[v] {
                nonfinite -= 1;
            } else {
                gamma_sum -= self.gamma_of[v];
            }
            let (after, change) =
                lambda_step(target, self.tables.coeffs.sqrt_eta[v], false, capacity);
            target = after;
            lambda_sum += change;
        }
        if let Some((s0, _)) = from {
            gain_sum -= self.tables.coeffs.gain_const[u];
            if self.gamma_bad[u] {
                nonfinite -= 1;
            } else {
                gamma_sum -= self.gamma_of[u];
            }
            let sqrt_eta = self.tables.coeffs.sqrt_eta[u];
            let change = if s0 == si {
                let (after, change) = lambda_step(target, sqrt_eta, false, capacity);
                target = after;
                change
            } else {
                let source = (self.sum_sqrt_eta[s0], self.users_on[s0]);
                lambda_step(source, sqrt_eta, false, self.tables.capacity[s0]).1
            };
            lambda_sum += change;
        }
        gain_sum += self.tables.coeffs.gain_const[u];
        lambda_sum += lambda_step(target, self.tables.coeffs.sqrt_eta[u], true, capacity).1;

        // Γ refresh of the touched subchannels, in `apply`'s first-seen
        // order: the target first when there is an occupant, the user's
        // old subchannel first otherwise. The joiner is read as retired
        // (old term 0) when the move released it first, as `leave`
        // retires eagerly.
        let joined_row = self.tables.wgain_base(u, ji);
        let joiner = (
            si,
            u,
            self.tables.wgain[joined_row + si],
            match from {
                Some(_) => (0.0, false),
                None => (self.gamma_of[u], self.gamma_bad[u]),
            },
        );
        let victim_row = victim.map_or(joined_row, |v| self.tables.wgain_base(v, ji));
        let rows = [victim_row, joined_row, joined_row];
        let nf = &mut nonfinite;
        match (from, victim.is_some()) {
            (None, false) => {
                gamma_sum += self.take_fold(ji, Some(joiner), None, rows, nf, |c, _, _, j| c + j);
            }
            (None, true) => {
                gamma_sum +=
                    self.take_fold(ji, Some(joiner), None, rows, nf, |c, v, _, j| (c - v) + j);
            }
            (Some((s0, j0)), false) if j0 == ji => {
                gamma_sum += self.take_fold(ji, Some(joiner), Some(s0), rows, nf, |c, _, l, j| {
                    (c - l) + j
                });
            }
            (Some((s0, j0)), true) if j0 == ji => {
                gamma_sum += self.take_fold(ji, Some(joiner), Some(s0), rows, nf, |c, v, l, j| {
                    ((c - v) - l) + j
                });
            }
            (Some((s0, j0)), evicts) => {
                let left_row = self.tables.wgain_base(u, j0);
                let source = [left_row; 3];
                if evicts {
                    gamma_sum +=
                        self.take_fold(ji, Some(joiner), None, rows, nf, |c, v, _, j| (c - v) + j);
                    gamma_sum += self.take_fold(j0, None, Some(s0), source, nf, |c, _, l, _| c - l);
                } else {
                    gamma_sum += self.take_fold(j0, None, Some(s0), source, nf, |c, _, l, _| c - l);
                    gamma_sum +=
                        self.take_fold(ji, Some(joiner), None, rows, nf, |c, _, _, j| c + j);
                }
            }
        }

        // The user ends offloaded, so at least one user is.
        if nonfinite > 0 {
            f64::NEG_INFINITY
        } else {
            gain_sum - gamma_sum - lambda_sum
        }
    }

    /// The Γ refresh fold of one subchannel `j` a take touches: `row_new
    /// − row_old` over its post-move occupants in server order, the
    /// gather pass collecting each occupant's SINR call-free and the
    /// second pass running the `log2` calls, as in `apply`'s refresh.
    /// `joiner` is `(server, user, signal, (old Γ term, old non-finite
    /// flag))` of the user the take places on `j`, `vacated` the server
    /// whose slot on `j` it leaves. `total(committed, victim, leaver,
    /// joiner)` forms a slot's post-move total from the committed value
    /// and the slot's entries of the three `wgain` rows at `rows`, in op
    /// order. Counts retired and fresh non-finite terms into
    /// `nonfinite`.
    #[inline(always)]
    fn take_fold(
        &mut self,
        j: usize,
        joiner: Option<(usize, usize, f64, (f64, bool))>,
        vacated: Option<usize>,
        rows: [usize; 3],
        nonfinite: &mut u32,
        total: impl Fn(f64, f64, f64, f64) -> f64,
    ) -> f64 {
        let servers = self.tables.capacity.len();
        // Field-wise borrows: the fold scratch is written while the rows
        // are read.
        let Self {
            x,
            tables,
            totals,
            gamma_of,
            signal_of,
            gamma_bad,
            score_fold,
            ..
        } = self;
        let ObjectiveTables {
            stride,
            noise,
            coeffs,
            wgain,
            ..
        } = &**tables;
        let [victim, leaver, joined] = rows.map(|at| &wgain[at..][..servers]);
        let committed = &totals[j * *stride..][..servers];
        let occupants = &x.occupants_on(SubchannelId::new(j))[..servers];
        score_fold.clear();
        let mut row_old = 0.0;
        for t in 0..servers {
            let (w, signal, (old, was_bad)) = match joiner {
                Some((server, user, signal, old)) if server == t => (user, signal, old),
                _ if vacated == Some(t) => continue,
                _ => match occupants[t] {
                    Some(w) => {
                        let w = w.index();
                        (w, signal_of[w], (gamma_of[w], gamma_bad[w]))
                    }
                    None => continue,
                },
            };
            let total = total(committed[t], victim[t], leaver[t], joined[t]);
            if was_bad {
                *nonfinite -= 1;
            }
            row_old += old;
            score_fold.push((coeffs.gamma_num[w], sinr_from(signal, total, *noise)));
        }
        let mut row_new = 0.0;
        for &(gamma_num, sinr) in score_fold.iter() {
            let term = gamma_term_from_sinr(gamma_num, sinr);
            row_new += if term.is_finite() {
                term
            } else {
                *nonfinite += 1;
                0.0
            };
        }
        row_new - row_old
    }

    /// A sound upper bound on the objective change
    /// [`score`](Self::score)`(mv) − `[`current`](Self::current)`()`,
    /// computed without a single `log2` Γ refresh. With `A` the users the
    /// move's `Assign` ops place, `D` the users its `Release` ops remove
    /// and `T` the subchannels it touches:
    ///
    /// `ΔJ ≤ Σ_{a∈A} (g_a − Γ⁰_a) − Σ_{d∈D} g_d + Σ_{w on T} Γ_w − ΔΛ + slack`
    ///
    /// where `g` is the net gain of offloading, `Γ⁰_a` the arrival's
    /// noise-only uplink floor (interference is never negative, Eq. 3),
    /// `Γ_w` the cached Γ term of every current occupant of a touched
    /// subchannel (a leaver's term vanishes, a stayer's new term is still
    /// `≥ 0`), and `ΔΛ` the exact Eq. 23 change on the touched servers.
    /// The slack absorbs the rounding of the bound and of the score path;
    /// DESIGN.md §5 states the argument.
    ///
    /// The only `log2` the bound can pay is an arrival's floor, which
    /// depends on the scenario alone: the [`ObjectiveTables`] pack holds
    /// one per `(user, server, subchannel)`, computed at pack time (see
    /// `FLOOR_TABLE_MAX` for the size limit, above which every floor is
    /// computed on demand).
    ///
    /// The bound is `+∞` for an empty move and on a non-finite state, and
    /// `−∞` when an arrival's floor is non-finite (zero SNR prices the
    /// move at `−∞` exactly). A slot take, by a local or an offloaded user
    /// in any of the four shapes [`score`](Self::score) lists, is bounded
    /// by the same straight-line recipe as
    /// [`bound_take`](Self::bound_take); releases, swaps of two offloaded
    /// users and hand-built moves run the general bound, op by op. The
    /// move must have been built by a [`MoveDesc`] constructor against the
    /// current assignment (releases first, each from the user's committed
    /// slot). Any pending uncommitted move is committed first, as in
    /// `score`.
    pub fn bound(&mut self, mv: &MoveDesc) -> f64 {
        self.commit();
        match self.take_shape(mv) {
            Some((user, server, subchannel)) => self.take_bound(user, server, subchannel),
            None => self.general_bound(mv),
        }
    }

    /// The bound of [`bound`](Self::bound) for any move on a committed
    /// state, accumulated op by op.
    fn general_bound(&self, mv: &MoveDesc) -> f64 {
        if mv.is_empty() || self.nonfinite > 0 {
            return f64::INFINITY;
        }
        let mut gain = 0.0;
        let mut floors = 0.0;
        // Σ of the magnitudes the bound adds on top of the three sums.
        let mut magnitude = 0.0;
        let mut touched: [Option<SubchannelId>; MAX_MOVE_OPS] = [None; MAX_MOVE_OPS];
        // `(server, Σ√η change, user-count change)` per touched server.
        let mut steps: [(usize, f64, i64); MAX_MOVE_OPS] = [(usize::MAX, 0.0, 0); MAX_MOVE_OPS];
        let mut step = |si: usize, sqrt_eta: f64, count: i64| {
            let slot = steps
                .iter()
                .position(|&(s, _, _)| s == si || s == usize::MAX)
                .expect("a move touches at most MAX_MOVE_OPS servers");
            steps[slot] = (si, steps[slot].1 + sqrt_eta, steps[slot].2 + count);
        };
        let mut assigned = false;
        for op in mv.ops() {
            let (user, server, subchannel, sign) = match op {
                PrimOp::Release { user } => {
                    debug_assert!(!assigned, "constructors release before they assign");
                    let (s, j) = self
                        .x
                        .slot(user)
                        .expect("MoveDesc releases an offloaded user");
                    (user, s, j, -1)
                }
                PrimOp::Assign {
                    user,
                    server,
                    subchannel,
                } => {
                    assigned = true;
                    let floor = self.tables.noise_floor(user, server, subchannel);
                    if !floor.is_finite() {
                        return f64::NEG_INFINITY;
                    }
                    floors += floor;
                    magnitude += floor;
                    (user, server, subchannel, 1)
                }
            };
            let u = user.index();
            let g = self.tables.coeffs.gain_const[u];
            gain += f64::from(sign) * g;
            magnitude += g.abs();
            step(
                server.index(),
                f64::from(sign) * self.tables.coeffs.sqrt_eta[u],
                i64::from(sign),
            );
            if !touched.contains(&Some(subchannel)) {
                let free = touched.iter().position(Option::is_none);
                touched[free.expect("a move touches at most MAX_MOVE_OPS subchannels")] =
                    Some(subchannel);
            }
        }
        let mut lambda = 0.0;
        for &(si, d_sum, d_count) in steps.iter().take_while(|s| s.0 != usize::MAX) {
            let sum = self.sum_sqrt_eta[si];
            // Same empty-server pin to exactly zero as `leave`.
            let after = if i64::from(self.users_on[si]) + d_count == 0 {
                0.0
            } else {
                sum + d_sum
            };
            let after = lambda_term_from(after, self.tables.capacity[si]);
            lambda += after - lambda_term_from(sum, self.tables.capacity[si]);
            magnitude += after;
        }
        let relief: f64 = touched
            .iter()
            .flatten()
            .map(|j| self.relief[j.index()])
            .sum();
        self.slack_bound(gain - floors + relief - lambda, magnitude)
    }

    /// [`bound`](Self::bound) for `user` taking the slot `(server,
    /// subchannel)` and evicting its occupant: the bound of
    /// `MoveDesc::relocate_evicting(..)` bit for bit, without building
    /// the move. A local `user` takes a slot and an offloaded one is
    /// relocated; both are bounded straight-line, a relocation in the
    /// general bound's accumulation order. Taking the slot `user` already
    /// holds is the empty move, bounded at `+∞`.
    pub fn bound_take(&mut self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        self.commit();
        self.take_bound(user, server, subchannel)
    }

    /// The straight-line bound of `user` taking `(server, subchannel)`
    /// from its occupant, if any, on a committed state: `+∞` on a
    /// non-finite state and for the user's own slot, as the general
    /// bound. A local user's take resolves the general bound's terms with
    /// the single touched server and subchannel statically; an offloaded
    /// user's relocation is [`relocation_bound`](Self::relocation_bound).
    fn take_bound(&self, user: UserId, server: ServerId, subchannel: SubchannelId) -> f64 {
        let from = self.x.slot(user);
        if self.nonfinite > 0 || from == Some((server, subchannel)) {
            return f64::INFINITY;
        }
        let floor = self.tables.noise_floor(user, server, subchannel);
        if !floor.is_finite() {
            return f64::NEG_INFINITY;
        }
        let (u, si, ji) = (user.index(), server.index(), subchannel.index());
        let victim = self.x.occupant(server, subchannel).map(UserId::index);
        if let Some((s0, j0)) = from {
            return self.relocation_bound(u, (s0.index(), j0.index()), (si, ji), victim, floor);
        }
        let capacity = self.tables.capacity[si];
        let sum = self.sum_sqrt_eta[si];
        let mut gain = self.tables.coeffs.gain_const[u];
        let mut magnitude = gain.abs() + floor;
        let mut after = sum + self.tables.coeffs.sqrt_eta[u];
        if let Some(v) = victim {
            let g = self.tables.coeffs.gain_const[v];
            gain -= g;
            magnitude += g.abs();
            // Same empty-server pin to exactly zero as `leave`.
            after = if self.users_on[si] == 1 {
                self.tables.coeffs.sqrt_eta[u]
            } else {
                sum - self.tables.coeffs.sqrt_eta[v] + self.tables.coeffs.sqrt_eta[u]
            };
        }
        let after = lambda_term_from(after, capacity);
        let lambda = after - lambda_term_from(sum, capacity);
        magnitude += after;
        let relief = self.relief[ji];
        self.slack_bound(gain - floor + relief - lambda, magnitude)
    }

    /// The bound of offloaded user `u` relocating from `(s0, j0)` to
    /// `(si, ji)`, evicting `victim`, given the arrival's finite floor.
    /// It repeats the general bound's accumulation order over
    /// `[Release victim]?, [Release u], [Assign u]`: `gain` as `0 −
    /// g_victim − g_u + g_u`, the magnitudes, the arrival's floor, the
    /// per-server `(Σ√η, count)` steps in first-touched order and the
    /// relief summed over the touched subchannels in first-seen order.
    fn relocation_bound(
        &self,
        u: usize,
        (s0, j0): (usize, usize),
        (si, ji): (usize, usize),
        victim: Option<usize>,
        floor: f64,
    ) -> f64 {
        let g_u = self.tables.coeffs.gain_const[u];
        let sqrt_eta_u = self.tables.coeffs.sqrt_eta[u];
        let mut gain = 0.0;
        let mut magnitude = 0.0;
        // `(server, Σ√η change, user-count change)` in first-touched
        // order, as the general bound's `step` fills them.
        let mut steps = [(usize::MAX, 0.0, 0i64); 2];
        let mut step = |si: usize, sqrt_eta: f64, count: i64| {
            let k = usize::from(steps[0].0 != si && steps[0].0 != usize::MAX);
            steps[k] = (si, steps[k].1 + sqrt_eta, steps[k].2 + count);
        };
        if let Some(v) = victim {
            let g = self.tables.coeffs.gain_const[v];
            gain -= g;
            magnitude += g.abs();
            step(si, -self.tables.coeffs.sqrt_eta[v], -1);
        }
        gain -= g_u;
        magnitude += g_u.abs();
        step(s0, -sqrt_eta_u, -1);
        magnitude += floor;
        gain += g_u;
        magnitude += g_u.abs();
        step(si, sqrt_eta_u, 1);
        let mut lambda = 0.0;
        for &(si, d_sum, d_count) in steps.iter().take_while(|s| s.0 != usize::MAX) {
            let sum = self.sum_sqrt_eta[si];
            // Same empty-server pin to exactly zero as `leave`.
            let after = if i64::from(self.users_on[si]) + d_count == 0 {
                0.0
            } else {
                sum + d_sum
            };
            let after = lambda_term_from(after, self.tables.capacity[si]);
            lambda += after - lambda_term_from(sum, self.tables.capacity[si]);
            magnitude += after;
        }
        let other = (j0 != ji).then_some(j0);
        let touched = if victim.is_some() {
            [Some(ji), other]
        } else {
            [other, Some(ji)]
        };
        let relief: f64 = touched.iter().flatten().map(|&j| self.relief[j]).sum();
        self.slack_bound(gain - floor + relief - lambda, magnitude)
    }

    /// Whether every take of one of `server`'s slots by the local `user`
    /// bounds at or below `threshold`: `true` only when
    /// [`bound_take`](Self::bound_take)`(user, server, j)` is at most
    /// `threshold` for each of the server's subchannels `j`, so a caller
    /// that gates pricing on the bound can settle the server's whole
    /// block of takes with one comparison. `false` proves nothing: some
    /// take may still bound at or below `threshold`. Always `false` for
    /// an offloaded user, on a non-finite state and when one of the
    /// user's floors at the server is non-finite (a dead link).
    ///
    /// It relaxes the take bound's formula per server (DESIGN.md §5, "The
    /// server gate"): a user key read from the pack, the server's ceiling
    /// over its slots and a `1e-12` relative rounding allowance must
    /// sum to at most `threshold`. The ceilings come from a per-state
    /// cache that the first query after an accepted move or a resync
    /// refills in `O(S·N)`. Any pending move is committed first, as in
    /// `bound_take`. Debug builds check every settled block against the
    /// exact bounds.
    pub fn settles_local_takes(&mut self, user: UserId, server: ServerId, threshold: f64) -> bool {
        self.commit();
        if self.nonfinite > 0 || self.x.is_offloaded(user) {
            return false;
        }
        if !self.server_gate_fresh {
            self.refresh_server_gate();
        }
        // The lowest floor enters the user's key and the largest its
        // magnitude; subchannel-shared gains hold one floor per server.
        let rows = if self.tables.wgain_shared {
            1
        } else {
            self.tables.num_sub
        };
        let (mut lowest, mut largest) = (f64::INFINITY, 0.0_f64);
        for j in 0..rows {
            let floor = self.tables.noise_floor(user, server, SubchannelId::new(j));
            if !floor.is_finite() {
                return false;
            }
            lowest = lowest.min(floor);
            largest = largest.max(floor.abs());
        }
        let g = self.tables.coeffs.gain_const[user.index()];
        let key = g + BOUND_SLACK * g.abs() - (1.0 - BOUND_SLACK) * lowest;
        let (ceiling, magnitude) = self.server_gate[server.index()];
        let settles =
            key + ceiling + SERVER_GATE_SLACK * (g.abs() + largest + magnitude) <= threshold;
        debug_assert!(
            !settles
                || SubchannelId::all(self.tables.num_sub)
                    .all(|j| self.take_bound(user, server, j) <= threshold),
            "the server gate settled a block of {user} at {server} that the exact bound does not"
        );
        settles
    }

    /// Refills the server gate's per-server `(ceiling, magnitude)` pairs
    /// from the committed state. A take of `(s, j)` from its occupant `v`
    /// (if any) leaves `a₀` on the server before the taker's `√η` joins:
    /// `Σ√η_s` on a free slot, `0` when `v` is the server's only user and
    /// `Σ√η_s − √η_v` otherwise, as `take_bound` pins it. The ceiling is
    /// `max_j (−g_v + ε|g_v| + R_j + Λ(Σ√η_s) − (1 − ε)·Λ(a₀)) + ε·P` and
    /// the magnitude `max_j (|g_v| + |R_j| + 2·Λ(a₀)) + Λ(Σ√η_s) + P`,
    /// with `P` the bound's `1 + |Σ gain| + |Σ Γ| + |Σ Λ|`.
    fn refresh_server_gate(&mut self) {
        let scale = 1.0 + self.gain_sum.abs() + self.gamma_sum.abs() + self.lambda_sum.abs();
        let coeffs = &self.tables.coeffs;
        for (si, gate) in self.server_gate.iter_mut().enumerate() {
            let capacity = self.tables.capacity[si];
            let sum = self.sum_sqrt_eta[si];
            let held = lambda_term_from(sum, capacity);
            let (mut ceiling, mut peak) = (f64::NEG_INFINITY, 0.0_f64);
            for (j, &relief) in self.relief.iter().enumerate() {
                let (g, rest) = match self.x.occupant(ServerId::new(si), SubchannelId::new(j)) {
                    None => (0.0, sum),
                    Some(v) if self.users_on[si] == 1 => (coeffs.gain_const[v.index()], 0.0),
                    Some(v) => (
                        coeffs.gain_const[v.index()],
                        sum - coeffs.sqrt_eta[v.index()],
                    ),
                };
                let rest = lambda_term_from(rest, capacity);
                ceiling = ceiling
                    .max(-g + BOUND_SLACK * g.abs() + relief + held - (1.0 - BOUND_SLACK) * rest);
                peak = peak.max(g.abs() + relief.abs() + 2.0 * rest);
            }
            *gate = (ceiling + BOUND_SLACK * scale, peak + held + scale);
        }
        self.server_gate_fresh = true;
    }

    /// The take a move describes, if its ops are exactly those
    /// [`MoveDesc::relocate_evicting`] builds against the current
    /// assignment: `[Assign u]` onto a free slot or `[Release v, Assign
    /// u]` from its occupant `v` for a local `u`, and `[Release u, Assign
    /// u]` or `[Release v, Release u, Assign u]` for an offloaded `u`.
    /// These are the shapes [`score`](Self::score) and
    /// [`bound`](Self::bound) handle straight-line.
    #[inline]
    fn take_shape(&self, mv: &MoveDesc) -> Option<(UserId, ServerId, SubchannelId)> {
        let (&last, releases) = mv.ops[..mv.len()].split_last()?;
        let PrimOp::Assign {
            user,
            server,
            subchannel,
        } = PrimOp::unpack(last)
        else {
            return None;
        };
        let victim = self.x.occupant(server, subchannel);
        let leaver = self.x.is_offloaded(user).then_some(user);
        let release = |word: u64| PrimOp::unpack(word);
        let matches = match (releases, victim, leaver) {
            ([], None, None) => true,
            (&[a], Some(v), None) | (&[a], None, Some(v)) => {
                release(a) == PrimOp::Release { user: v }
            }
            (&[a, b], Some(v), Some(u)) => {
                v != u
                    && release(a) == PrimOp::Release { user: v }
                    && release(b) == PrimOp::Release { user: u }
            }
            _ => false,
        };
        matches.then_some((user, server, subchannel))
    }

    /// Σ of the cached Γ terms of every current occupant of subchannel
    /// `j`, in server order — the most a move touching `j` can relieve
    /// them by. [`resync`](Self::resync) and [`commit`](Self::commit)
    /// store it per subchannel in `relief`, which the bounds read.
    fn scan_relief(&self, j: usize) -> f64 {
        self.x.occupants_on(SubchannelId::new(j))[..self.tables.capacity.len()]
            .iter()
            .flatten()
            .map(|w| self.gamma_of[w.index()])
            .sum()
    }

    /// Adds the rounding slack to a bound: [`BOUND_SLACK`] relative to
    /// the three maintained sums plus `magnitude`, the magnitudes of the
    /// terms the bound adds on top of them.
    #[inline]
    fn slack_bound(&self, bound: f64, magnitude: f64) -> f64 {
        let scale =
            1.0 + self.gain_sum.abs() + self.gamma_sum.abs() + self.lambda_sum.abs() + magnitude;
        bound + BOUND_SLACK * scale
    }
}

/// Relative rounding slack of [`IncrementalObjective::bound`]: orders of
/// magnitude above the few ulps the bound and the score path each round
/// by, far below any objective change a search could act on.
const BOUND_SLACK: f64 = 1e-9;

/// Relative rounding allowance of
/// [`IncrementalObjective::settles_local_takes`]: the exact bound and the
/// gate each round by a few ulps of the magnitudes they add, about
/// 30·2⁻⁵³ ≈ 3.3e-15 of them in all, so this is 300 times that
/// (DESIGN.md §5, "The server gate").
const SERVER_GATE_SLACK: f64 = 1e-12;

/// Largest Γ⁰ table (entries, 8 bytes each) an [`ObjectiveTables`] pack
/// keeps: 32 KB, shared by every state built on the pack. Generated
/// gains are subchannel-shared (one row per user), so the paper's
/// U = 90, S = 9, N = 3 scenario needs 1 080 entries and a two-server
/// city cluster slice 4 per user. The service's U = 300, S = 36, N = 3
/// would need 10 800 (86 KB), so such packs compute their floors on
/// demand rather than grow the process's memory.
const FLOOR_TABLE_MAX: usize = 4_096;

/// One server's `(Σ√η, user count)` after a user with `sqrt_eta` joins
/// or leaves it, and the change of its Λ term: the step `join` and
/// `leave` take, with `leave`'s empty-server pin to exactly zero.
#[inline]
fn lambda_step(
    (sum, count): (f64, u32),
    sqrt_eta: f64,
    join: bool,
    capacity: f64,
) -> ((f64, u32), f64) {
    let old_term = lambda_term_from(sum, capacity);
    let after = if join {
        (sum + sqrt_eta, count + 1)
    } else if count == 1 {
        (0.0, 0)
    } else {
        (sum - sqrt_eta, count - 1)
    };
    (after, lambda_term_from(after.0, capacity) - old_term)
}

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
    use crate::assignment::{check_packed_geometry, MAX_PACKED_SERVERS, MAX_PACKED_SUBCHANNELS};
    use crate::evaluation::{EvalScratch, Evaluator};
    use crate::scenario::UserSpec;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_types::{
        Bits, BitsPerSecond, Cycles, Hertz, ServerProfile, Task, UserPreferences, Watts,
    };
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
        // A fresh build runs the reference evaluator's float operations in
        // the same order, so the two agree to the bit on every input
        // shape: dense and shared gains, zero-gain links, an external
        // field, a downlink and random β. The shard engine's final
        // re-score relies on this.
        let mut scratch = EvalScratch::default();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed + 4_000);
            let users = rng.gen_range(1..40);
            let servers = rng.gen_range(1..12);
            let subs = rng.gen_range(1..5);
            let dead_links = seed % 5 == 0;
            let draw = move |rng: &mut StdRng| {
                if dead_links && rng.gen_bool(0.1) {
                    0.0
                } else {
                    10.0_f64.powf(rng.gen_range(-13.0..-9.0))
                }
            };
            let gains = if seed % 2 == 0 {
                ChannelGains::from_fn(users, servers, subs, |_, _, _| draw(&mut rng))
            } else {
                ChannelGains::shared_from_fn(users, servers, subs, |_, _| draw(&mut rng))
            }
            .unwrap();
            let specs = (0..users)
                .map(|_| {
                    let task = Task::with_output(
                        Bits::from_kilobytes(rng.gen_range(100.0..800.0)),
                        Cycles::from_mega(rng.gen_range(500.0..3000.0)),
                        Bits::new(rng.gen_range(0.0..2.0e6)),
                    )
                    .unwrap();
                    UserSpec {
                        task,
                        preferences: UserPreferences::new(rng.gen_range(0.0..=1.0)).unwrap(),
                        ..UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0)).unwrap()
                    }
                })
                .collect();
            let mut sc = Scenario::new(
                specs,
                vec![ServerProfile::paper_default(); servers],
                OfdmaConfig::new(Hertz::from_mega(20.0), subs).unwrap(),
                gains,
                Watts::new(1e-13),
            )
            .unwrap();
            if rng.gen_bool(0.3) {
                sc = sc.with_downlink(BitsPerSecond::new(50.0e6)).unwrap();
            }
            if rng.gen_bool(0.5) {
                let ext = (0..subs * servers)
                    .map(|_| rng.gen_range(0.0..1e-11))
                    .collect();
                sc.set_external_rx(Some(ext)).unwrap();
            }
            let x = random_assignment(&sc, seed + 40);
            let reference = Evaluator::new(&sc).objective_with(&x, &mut scratch);
            let inc = IncrementalObjective::new(&sc, x).unwrap();
            assert_eq!(
                inc.current().to_bits(),
                reference.to_bits(),
                "seed {seed}: incremental {} vs reference {reference}",
                inc.current()
            );
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

    /// FNV-1a over little-endian 64-bit words, the fold of the
    /// integration tests' decision pins.
    struct Fingerprint(u64);

    impl Fingerprint {
        fn new() -> Self {
            Self(0xCBF2_9CE4_8422_2325)
        }

        fn word(&mut self, word: u64) {
            for byte in word.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    /// A release, an evicting relocation or a swap, one third each: the
    /// move mix the frozen baseline evaluator was checked against.
    fn baseline_move(scenario: &Scenario, x: &Assignment, rng: &mut StdRng) -> MoveDesc {
        let u = UserId::new(rng.gen_range(0..scenario.num_users()));
        match rng.gen_range(0..3) {
            0 => MoveDesc::relocate(x, u, None),
            1 => {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                let j = SubchannelId::new(rng.gen_range(0..scenario.num_subchannels()));
                MoveDesc::relocate_evicting(x, u, s, j)
            }
            _ => {
                let v = UserId::new(rng.gen_range(0..scenario.num_users()));
                MoveDesc::swap(x, u, v)
            }
        }
    }

    /// The baseline evaluator's arithmetic, pinned. The first incremental
    /// evaluator, kept frozen as a baseline, agreed with this walk bit for
    /// bit: every `apply` delta, every `current()` after an undo or a
    /// commit, and the objective after the final resync. That evaluator
    /// is no longer kept, so its bits live on as one fingerprint. Any
    /// reordering of a float fold in `apply`, `undo`, `commit` or
    /// `resync` moves it.
    #[test]
    fn apply_keeps_the_baseline_evaluator_bits() {
        let mut print = Fingerprint::new();
        for seed in [11u64, 23, 47] {
            let sc = random_scenario(seed, 24, 5, 3);
            let mut inc = IncrementalObjective::new(&sc, Assignment::all_local(&sc)).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xba5e);
            for _ in 0..2_000 {
                let mv = baseline_move(&sc, inc.assignment(), &mut rng);
                print.word(inc.apply(&mv).to_bits());
                if rng.gen_bool(0.5) {
                    inc.undo();
                } else {
                    inc.commit();
                }
                print.word(inc.current().to_bits());
            }
            inc.resync();
            print.word(inc.current().to_bits());
        }
        let pinned = 0x34e9_35b0_d6cb_a727;
        assert_eq!(
            print.0, pinned,
            "baseline evaluator bits moved (fingerprint {:#018x})",
            print.0
        );
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

    /// Asserts that `inc` is `before` bit for bit: the assignment, the
    /// scalar sums, every per-user and per-server cache `apply` writes
    /// eagerly, the totals and relief rows `commit` flushes, and an empty
    /// move log.
    fn assert_same_state(
        inc: &IncrementalObjective<'_>,
        before: &IncrementalObjective<'_>,
        what: &str,
    ) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(inc.x, before.x, "{what}: assignment");
        for (name, now, then) in [
            ("gamma_of", &inc.gamma_of, &before.gamma_of),
            ("signal_of", &inc.signal_of, &before.signal_of),
            ("sum_sqrt_eta", &inc.sum_sqrt_eta, &before.sum_sqrt_eta),
            ("totals", &inc.totals, &before.totals),
            ("relief", &inc.relief, &before.relief),
        ] {
            assert_eq!(bits(now), bits(then), "{what}: {name}");
        }
        assert_eq!(inc.gamma_bad, before.gamma_bad, "{what}: gamma_bad");
        assert_eq!(inc.users_on, before.users_on, "{what}: users_on");
        assert_eq!(
            bits(&[inc.gain_sum, inc.gamma_sum, inc.lambda_sum]),
            bits(&[before.gain_sum, before.gamma_sum, before.lambda_sum]),
            "{what}: scalar sums"
        );
        assert_eq!(
            (inc.nonfinite, inc.num_offloaded),
            (before.nonfinite, before.num_offloaded),
            "{what}: counts"
        );
        let log = &inc.log;
        assert!(
            !log.valid
                && log.inverse.is_empty()
                && log.new_totals.is_empty()
                && log.touched_subs.is_empty()
                && log.new_gammas.is_empty()
                && log.old_gammas.is_empty()
                && log.old_signals.is_empty()
                && log.servers.is_empty(),
            "{what}: the move log holds a pending move"
        );
    }

    #[test]
    fn score_matches_apply_bit_exactly() {
        // Scores every shape `random_move` draws (slot takes, releases,
        // swaps), checking that each leaves the state as it found it.
        let (mut takes, mut releases, mut swaps) = (0, 0, 0);
        for seed in 0..6 {
            let sc = random_scenario(seed, 10, 3, 3);
            let mut rng = StdRng::seed_from_u64(seed + 71);
            let mut inc =
                IncrementalObjective::new(&sc, random_assignment(&sc, seed + 29)).unwrap();
            for step in 0..300 {
                let what = format!("seed {seed} step {step}");
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                if inc.take_shape(&mv).is_some() {
                    takes += 1;
                } else if mv.ops().all(|op| matches!(op, PrimOp::Release { .. })) {
                    releases += usize::from(!mv.is_empty());
                } else {
                    swaps += 1;
                }
                let committed = inc.clone();
                let speculative = inc.score(&mv);
                assert_same_state(&inc, &committed, &what);
                inc.apply(&mv);
                let applied = inc.current();
                assert_eq!(
                    speculative.to_bits(),
                    applied.to_bits(),
                    "{what}: score {speculative} vs apply {applied}"
                );
                inc.undo();
                assert_same_state(&inc, &committed, &what);
                // Occasionally walk forward so scoring is exercised from
                // many committed states.
                if rng.gen_bool(0.3) {
                    inc.apply(&mv);
                    inc.commit();
                }
            }
        }
        assert!(
            takes > 0 && releases > 0 && swaps > 0,
            "shapes scored: {takes} takes, {releases} releases, {swaps} swaps"
        );
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
            assert!(inc_s.tables.wgain_shared && !inc_d.tables.wgain_shared);
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
    fn relocation_recipes_match_apply_and_the_general_bound() {
        // Six users with different workloads and time weights (so a
        // server's Σ√η sum can drift as users come and go) on three
        // servers (not a lane multiple) and two subchannels, so targets
        // are both free and taken. On even seeds user 0's links are dead
        // (its Γ term is non-finite once offloaded); a tenth of the other
        // links to servers 0 and 1 are dead too (an arrival there prices
        // at −∞); odd seeds add a halo. Each state is walked by random
        // moves without a resync, and every offloaded user is relocated
        // onto every slot.
        let (mut free, mut taken, mut same_server, mut other_server) = (0, 0, 0, 0);
        let (mut same_sub, mut other_sub, mut own, mut nonfinite) = (0, 0, 0, 0);
        let mut drifted_last_user = 0;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed + 1200);
            let gains = ChannelGains::from_fn(6, 3, 2, |u, s, _| {
                if (u.index() == 0 && seed % 2 == 0) || (s.index() < 2 && rng.gen_bool(0.1)) {
                    0.0
                } else {
                    10.0_f64.powf(rng.gen_range(-13.0..-9.0))
                }
            })
            .unwrap();
            let users = (0..6)
                .map(|u| {
                    let workload = Cycles::from_mega(500.0 + 370.0 * u as f64);
                    UserSpec {
                        preferences: UserPreferences::new(0.2 + 0.13 * u as f64).unwrap(),
                        ..UserSpec::paper_default_with_workload(workload).unwrap()
                    }
                })
                .collect();
            let mut sc = Scenario::new(
                users,
                vec![ServerProfile::paper_default(); 3],
                OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
                gains,
                Watts::new(1e-13),
            )
            .unwrap();
            if seed % 2 == 1 {
                sc.set_external_rx(Some((0..6).map(|i| 1e-12 * (1.0 + i as f64)).collect()))
                    .unwrap();
            }
            let x = random_assignment(&sc, seed + 60);
            let mut inc = IncrementalObjective::new(&sc, x).unwrap();
            // Leave server 2 to one user whose Σ√η sum drifted: empty it,
            // let `a` and then `b` join, and release `a`.
            let e = &inc.tables.coeffs.sqrt_eta;
            let (a, b) = (1..6)
                .flat_map(|a| (1..6).map(move |b| (a, b)))
                .find(|&(a, b)| a != b && (e[a] + e[b]) - e[a] != e[b])
                .expect("two users whose Σ√η sum drifts");
            let (a, b, server) = (UserId::new(a), UserId::new(b), ServerId::new(2));
            let occupants: Vec<_> = inc.assignment().occupants_on(SubchannelId::new(0))[2..3]
                .iter()
                .chain(&inc.assignment().occupants_on(SubchannelId::new(1))[2..3])
                .flatten()
                .copied()
                .chain([a, b])
                .collect();
            let sequence = occupants.into_iter().map(|w| (w, None)).chain([
                (a, Some(0)),
                (b, Some(1)),
                (a, None),
            ]);
            for (w, target) in sequence {
                let target = target.map(|j| (server, SubchannelId::new(j)));
                let mv = MoveDesc::relocate(inc.assignment(), w, target);
                inc.apply(&mv);
                inc.commit();
            }
            for step in 0..8 {
                let offloaded: Vec<_> = inc.assignment().offloaded().collect();
                for (u, s0, j0) in offloaded {
                    for (s, j) in (0..3).flat_map(|s| (0..2).map(move |j| (s, j))) {
                        let (s, j) = (ServerId::new(s), SubchannelId::new(j));
                        let what =
                            format!("seed {seed} step {step}: {u} from ({s0}, {j0}) to ({s}, {j})");
                        let mv = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                        let price = inc.score_take(u, s, j);
                        let bound = inc.bound_take(u, s, j);
                        if (s, j) == (s0, j0) {
                            own += 1;
                            assert!(mv.is_empty(), "{what}");
                            assert_eq!(price.to_bits(), inc.current().to_bits(), "{what}");
                            assert_eq!(bound, f64::INFINITY, "{what}");
                            continue;
                        }
                        match inc.assignment().occupant(s, j) {
                            Some(_) => taken += 1,
                            None => free += 1,
                        }
                        if s == s0 {
                            same_server += 1;
                        } else {
                            other_server += 1;
                            let si = s0.index();
                            if inc.current().is_finite()
                                && inc.users_on[si] == 1
                                && inc.sum_sqrt_eta[si] != inc.tables.coeffs.sqrt_eta[u.index()]
                            {
                                drifted_last_user += 1;
                            }
                        }
                        if j == j0 {
                            same_sub += 1;
                        } else {
                            other_sub += 1;
                        }
                        if !inc.current().is_finite() {
                            nonfinite += 1;
                        }
                        assert_eq!(bound.to_bits(), inc.general_bound(&mv).to_bits(), "{what}");
                        assert_eq!(inc.score(&mv).to_bits(), price.to_bits(), "{what}");
                        assert_eq!(inc.bound(&mv).to_bits(), bound.to_bits(), "{what}");
                        let delta = price - inc.current();
                        assert!(
                            bound >= delta || (delta.is_nan() && bound == f64::INFINITY),
                            "{what}: bound {bound} below delta {delta}"
                        );
                        inc.apply(&mv);
                        assert_eq!(price.to_bits(), inc.current().to_bits(), "{what}");
                        inc.undo();
                    }
                }
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                inc.apply(&mv);
                inc.commit();
            }
        }
        for (count, case) in [
            (free, "a free target"),
            (taken, "a taken target"),
            (same_server, "the same server"),
            (other_server, "another server"),
            (same_sub, "the same subchannel"),
            (other_sub, "another subchannel"),
            (own, "the user's own slot"),
            (nonfinite, "a non-finite state"),
            (
                drifted_last_user,
                "the last user leaving a drifted server sum",
            ),
        ] {
            assert!(count > 0, "no relocation covered {case}");
        }
    }

    /// Asserts `bound ≥ score − current` for `mv` on the current state.
    fn assert_dominates(inc: &mut IncrementalObjective<'_>, mv: &MoveDesc, what: &str) {
        let delta = inc.score(mv) - inc.current();
        let bound = inc.bound(mv);
        assert!(
            bound >= delta || (delta.is_nan() && bound == f64::INFINITY),
            "{what}: bound {bound} below delta {delta} for {mv:?}"
        );
    }

    #[test]
    fn bound_dominates_score_for_every_shape_and_take() {
        // Four users on two servers and two subchannels, a quarter of the
        // links dead (zero gain), with and without a halo: every random
        // move shape from fresh and walked states, and every take. The
        // server gate settles a local user's block of takes only at or
        // above every bound of the block, after each accepted move too.
        let mut settled = 0;
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed + 900);
            let gains = ChannelGains::from_fn(4, 2, 2, |_, _, _| {
                if rng.gen_bool(0.25) {
                    0.0
                } else {
                    10.0_f64.powf(rng.gen_range(-13.0..-9.0))
                }
            })
            .unwrap();
            let mut sc = Scenario::new(
                vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); 4],
                vec![ServerProfile::paper_default(); 2],
                OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
                gains,
                Watts::new(1e-13),
            )
            .unwrap();
            if seed % 2 == 1 {
                sc.set_external_rx(Some((0..4).map(|i| 1e-12 * (1.0 + i as f64)).collect()))
                    .unwrap();
            }
            let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, seed)).unwrap();
            for step in 0..40 {
                let what = format!("seed {seed} step {step}");
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                assert_dominates(&mut inc, &mv, &what);
                for (u, s, j) in
                    (0..4).flat_map(|u| (0..2).flat_map(move |s| (0..2).map(move |j| (u, s, j))))
                {
                    let (u, s, j) = (UserId::new(u), ServerId::new(s), SubchannelId::new(j));
                    let take = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                    assert_dominates(&mut inc, &take, &what);
                    assert_eq!(
                        inc.bound_take(u, s, j).to_bits(),
                        inc.bound(&take).to_bits()
                    );
                }
                for (u, s) in (0..4).flat_map(|u| (0..2).map(move |s| (u, s))) {
                    let (u, s) = (UserId::new(u), ServerId::new(s));
                    if inc.assignment().is_offloaded(u) {
                        continue;
                    }
                    let largest = (0..2)
                        .map(|j| inc.bound_take(u, s, SubchannelId::new(j)))
                        .fold(f64::NEG_INFINITY, f64::max);
                    assert!(
                        !inc.settles_local_takes(u, s, largest.next_down()),
                        "{what}: the gate settles {u} at {s} below its largest bound {largest}"
                    );
                    if inc.settles_local_takes(u, s, 0.0) {
                        assert!(largest <= 0.0, "{what}: {u} at {s} bounds at {largest}");
                        settled += 1;
                    }
                }
                if !inc.current().is_finite() {
                    assert_eq!(inc.bound(&mv), f64::INFINITY, "{what}: non-finite state");
                }
                assert_eq!(inc.bound(&MoveDesc::noop()), f64::INFINITY);
                inc.apply(&mv);
                inc.commit();
            }
        }
        assert!(settled > 0, "the server gate never settled a block");
    }

    #[test]
    fn floor_table_is_packed_for_small_scenarios_only() {
        // Within the cap the pack holds every real lane's floor, bit-equal
        // to the floor computed on demand from the scenario itself, in the
        // dense and the subchannel-shared layout.
        for sc in [
            random_scenario(5, 6, 3, 2),
            shared_random_scenario(5, 6, 3, 2),
        ] {
            let tables = ObjectiveTables::new(&sc);
            assert!(tables.wgain.len() <= FLOOR_TABLE_MAX);
            assert_eq!(tables.floors.len(), tables.wgain.len());
            let powers = sc.tx_powers_watts();
            let subchannels = sc.num_subchannels();
            for (u, s, j) in sc.user_ids().flat_map(|u| {
                sc.server_ids()
                    .flat_map(move |s| (0..subchannels).map(move |j| (u, s, SubchannelId::new(j))))
            }) {
                let c = sc.coefficients(u);
                let power = powers[u.index()];
                let signal = power * sc.gains().gain(u, s, j);
                let on_demand = gamma_term_from(c.phi + c.psi * power, signal, signal, 1e-13);
                let at = tables.wgain_base(u.index(), j.index()) + s.index();
                assert_eq!(tables.floors[at].to_bits(), on_demand.to_bits());
                assert_eq!(tables.noise_floor(u, s, j).to_bits(), on_demand.to_bits());
            }
        }

        // 48 users × 4 subchannels × 24 servers: a table above the cap,
        // so the pack keeps none and every floor is computed on demand —
        // and the bounds still dominate.
        let sc = random_scenario(5, 48, 24, 4);
        let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, 6)).unwrap();
        assert!(inc.tables.wgain.len() > FLOOR_TABLE_MAX);
        assert!(inc.tables.floors.is_empty());
        for u in 0..3 {
            for s in 0..24 {
                let (u, s, j) = (UserId::new(u), ServerId::new(s), SubchannelId::new(s % 4));
                let take = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                assert_dominates(&mut inc, &take, "large state");
            }
        }
        assert!(inc.tables.floors.is_empty());
    }

    #[test]
    fn with_tables_rejects_a_pack_of_another_geometry() {
        let sc = random_scenario(3, 6, 3, 2);
        for other in [
            random_scenario(3, 7, 3, 2),
            random_scenario(3, 6, 2, 2),
            random_scenario(3, 6, 3, 3),
        ] {
            let tables = Arc::new(ObjectiveTables::new(&other));
            let err = IncrementalObjective::with_tables(&sc, tables, Assignment::all_local(&sc))
                .unwrap_err();
            assert!(
                matches!(err, Error::DimensionMismatch { .. }),
                "got {err:?}"
            );
        }
        // Its own pack, shared by two states, is accepted.
        let tables = Arc::new(ObjectiveTables::new(&sc));
        let x = random_assignment(&sc, 4);
        let a = IncrementalObjective::with_tables(&sc, Arc::clone(&tables), x.clone()).unwrap();
        let b = IncrementalObjective::with_tables(&sc, Arc::clone(&tables), x).unwrap();
        assert_eq!(a.current().to_bits(), b.current().to_bits());
        assert_eq!(Arc::strong_count(&tables), 3);
    }

    #[test]
    fn packed_ops_round_trip_at_the_edges_of_the_id_range() {
        let users = [0, 1, MAX_PACKED_USERS as usize - 1];
        let servers = [0, 1, MAX_PACKED_SERVERS as usize - 1];
        let subchannels = [0, 1, MAX_PACKED_SUBCHANNELS as usize - 1];
        for &u in &users {
            let release = PrimOp::Release {
                user: UserId::new(u),
            };
            assert_eq!(PrimOp::unpack(release.pack()), release);
            for &s in &servers {
                for &j in &subchannels {
                    let assign = PrimOp::Assign {
                        user: UserId::new(u),
                        server: ServerId::new(s),
                        subchannel: SubchannelId::new(j),
                    };
                    assert_eq!(PrimOp::unpack(assign.pack()), assign);
                    let mut mv = MoveDesc::noop();
                    mv.push(release);
                    mv.push(assign);
                    assert_eq!(mv.ops().collect::<Vec<_>>(), [release, assign]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond the packed range")]
    fn pushing_an_op_beyond_the_packed_range_panics() {
        MoveDesc::noop().push(PrimOp::Assign {
            user: UserId::new(0),
            server: ServerId::new(0),
            subchannel: SubchannelId::new(MAX_PACKED_SUBCHANNELS as usize),
        });
    }

    #[test]
    fn a_move_is_at_most_forty_bytes_and_prints_its_ops() {
        assert!(std::mem::size_of::<MoveDesc>() <= 40);
        let mut mv = MoveDesc::noop();
        mv.push(PrimOp::Release {
            user: UserId::new(7),
        });
        let printed = format!("{mv:?}");
        assert!(printed.starts_with("MoveDesc [Release"), "{printed}");
        assert!(printed.contains('7'), "{printed}");
        assert_eq!(format!("{:?}", MoveDesc::noop()), "MoveDesc []");
    }

    #[test]
    fn scenarios_beyond_the_packed_range_are_rejected() {
        assert!(check_packed_geometry(1 << 32, 1 << 20, 1 << 11).is_ok());
        for (users, servers, subchannels, name) in [
            ((1 << 32) + 1, 1, 1, "U"),
            (1, (1 << 20) + 1, 1, "S"),
            (1, 1, (1 << 11) + 1, "N"),
        ] {
            match check_packed_geometry(users, servers, subchannels) {
                Err(Error::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("{name}: {other:?}"),
            }
        }
        let build = |subchannels: usize| {
            Scenario::new(
                vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap()],
                vec![ServerProfile::paper_default()],
                OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
                ChannelGains::uniform(1, 1, subchannels, 1e-10).unwrap(),
                Watts::new(1e-13),
            )
        };
        assert!(build(MAX_PACKED_SUBCHANNELS as usize).is_ok());
        assert!(matches!(
            build(MAX_PACKED_SUBCHANNELS as usize + 1),
            Err(Error::InvalidParameter { name: "N", .. })
        ));
    }

    /// Asserts every stored relief sum equals a fresh scan bit for bit.
    fn assert_relief_is_a_fresh_scan(inc: &IncrementalObjective<'_>, what: &str) {
        for j in 0..inc.tables.num_sub {
            assert_eq!(
                inc.relief[j].to_bits(),
                inc.scan_relief(j).to_bits(),
                "{what}: subchannel {j}"
            );
        }
    }

    #[test]
    fn relief_sums_match_a_fresh_scan_over_random_walks() {
        for seed in 0..3 {
            let mut sc = random_scenario(seed, 9, 3, 3);
            if seed == 1 {
                sc.set_external_rx(Some((0..9).map(|i| 1e-12 * (1.0 + i as f64)).collect()))
                    .unwrap();
            }
            let mut rng = StdRng::seed_from_u64(seed + 300);
            let mut inc = IncrementalObjective::new(&sc, random_assignment(&sc, seed + 5)).unwrap();
            assert_relief_is_a_fresh_scan(&inc, "fresh build");
            for step in 0..120 {
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                inc.apply(&mv);
                match rng.gen_range(0..3) {
                    0 => inc.undo(),
                    1 => inc.commit(),
                    // `bound` commits the pending move before it reads.
                    _ => {
                        let next = random_move(&sc, inc.assignment(), &mut rng);
                        let _ = inc.bound(&next);
                    }
                }
                if step % 40 == 39 {
                    inc.resync();
                }
                assert_relief_is_a_fresh_scan(&inc, &format!("seed {seed} step {step}"));
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
