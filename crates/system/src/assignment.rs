//! Offloading decisions (the binary matrix `X`).
//!
//! [`Assignment`] maintains the JTORA feasibility constraints as
//! *representation invariants*:
//!
//! * (12b/12c) each user holds at most one `(server, subchannel)` slot —
//!   enforced by storing the decision as one slot word per user, which
//!   names a single slot or local execution;
//! * (12d) each `(server, subchannel)` pair serves at most one user —
//!   enforced by an occupancy index checked on every mutation.
//!
//! Every mutating method either preserves feasibility or fails without
//! modifying the assignment, so solvers can never emit an infeasible `X`.
//!
//! A slot word is a `u32`: the server index in bits 0–19 and the
//! subchannel index in bits 20–30, with [`u32::MAX`] for a local user.
//! The top bit of a packed slot is always clear, so no slot equals the
//! local word. A held decision thus costs 4 bytes per user plus 8 per
//! slot. The same widths bound the ops of a packed `MoveDesc`, and
//! [`Scenario::new`] rejects geometries they cannot address.

use crate::scenario::Scenario;
use mec_radio::Transmission;
use mec_types::{Error, ServerId, SubchannelId, UserId};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::HashMap;
use std::fmt;

/// Bits of a slot word that hold the server index (the low bits).
pub(crate) const SERVER_BITS: u32 = 20;
/// Bits of a slot word that hold the subchannel index, above the server.
pub(crate) const SUBCHANNEL_BITS: u32 = 11;
/// Most users a decision can hold: a [`UserId`] is 32 bits.
pub(crate) const MAX_PACKED_USERS: u64 = 1 << u32::BITS;
/// Most servers a slot word can address.
pub(crate) const MAX_PACKED_SERVERS: u64 = 1 << SERVER_BITS;
/// Most subchannels a slot word can address.
pub(crate) const MAX_PACKED_SUBCHANNELS: u64 = 1 << SUBCHANNEL_BITS;
/// The slot word of a user that executes locally.
const LOCAL: u32 = u32::MAX;

/// Checks that every id of a `users × servers × subchannels` geometry
/// fits a slot word and a packed move, naming the first count that does
/// not.
pub(crate) fn check_packed_geometry(
    users: usize,
    servers: usize,
    subchannels: usize,
) -> Result<(), Error> {
    for (name, count, max) in [
        ("U", users, MAX_PACKED_USERS),
        ("S", servers, MAX_PACKED_SERVERS),
        ("N", subchannels, MAX_PACKED_SUBCHANNELS),
    ] {
        if count as u64 > max {
            return Err(Error::invalid(
                name,
                format!("{count} exceeds the {max} a packed decision can address"),
            ));
        }
    }
    Ok(())
}

/// The slot word of `(s, j)`.
///
/// # Panics
///
/// Panics if an id does not fit its field.
#[inline]
pub(crate) fn pack_slot(s: ServerId, j: SubchannelId) -> u32 {
    let (s, j) = (s.index() as u64, j.index() as u64);
    assert!(
        s < MAX_PACKED_SERVERS && j < MAX_PACKED_SUBCHANNELS,
        "slot ids beyond the packed range: server {s}, subchannel {j}"
    );
    ((j << SERVER_BITS) | s) as u32
}

/// Decodes the low 31 bits of a word written by [`pack_slot`].
#[inline]
pub(crate) fn unpack_slot(word: u32) -> (ServerId, SubchannelId) {
    const SERVER_MASK: u32 = (1 << SERVER_BITS) - 1;
    const SUBCHANNEL_MASK: u32 = (1 << SUBCHANNEL_BITS) - 1;
    (
        ServerId::new((word & SERVER_MASK) as usize),
        SubchannelId::new((word >> SERVER_BITS & SUBCHANNEL_MASK) as usize),
    )
}

/// A feasible offloading decision for a fixed `(U, S, N)` geometry.
///
/// # Example
///
/// ```
/// use mec_system::Assignment;
/// use mec_types::{ServerId, SubchannelId, UserId};
///
/// let mut x = Assignment::with_dims(3, 2, 2);
/// x.assign(UserId::new(0), ServerId::new(1), SubchannelId::new(0))?;
/// assert!(x.is_offloaded(UserId::new(0)));
/// assert_eq!(x.occupant(ServerId::new(1), SubchannelId::new(0)), Some(UserId::new(0)));
///
/// // Double-booking a slot is refused, keeping constraint (12d) intact.
/// assert!(x.assign(UserId::new(1), ServerId::new(1), SubchannelId::new(0)).is_err());
/// # Ok::<(), mec_types::Error>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct Assignment {
    num_servers: usize,
    num_subchannels: usize,
    /// Per-user slot word ([`pack_slot`]): [`LOCAL`] = local execution.
    slots: Vec<u32>,
    /// Reverse index `[j·S + s] -> occupant` (subchannel-major, so the
    /// per-subchannel server scans of the hot loops walk contiguous rows).
    occupancy: Vec<Option<UserId>>,
}

// Hand-written so `clone_from` reuses the destination's buffers: the search
// hot loops snapshot the incumbent via `best.clone_from(..)`, and the derived
// impl's `clone_from` (`*self = source.clone()`) would heap-allocate on every
// improving move.
impl Clone for Assignment {
    fn clone(&self) -> Self {
        Self {
            num_servers: self.num_servers,
            num_subchannels: self.num_subchannels,
            slots: self.slots.clone(),
            occupancy: self.occupancy.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.num_servers = source.num_servers;
        self.num_subchannels = source.num_subchannels;
        self.slots.clone_from(&source.slots);
        self.occupancy.clone_from(&source.occupancy);
    }
}

// Prints the decoded slots, as a derive over `Option<(ServerId,
// SubchannelId)>` per user would, rather than the raw words.
impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Assignment")
            .field("num_servers", &self.num_servers)
            .field("num_subchannels", &self.num_subchannels)
            .field("slots", &self.user_slots().collect::<Vec<_>>())
            .field("occupancy", &self.occupancy)
            .finish()
    }
}

impl Assignment {
    /// The all-local decision (`X = 0`) for a scenario's geometry.
    pub fn all_local(scenario: &Scenario) -> Self {
        Self::with_dims(
            scenario.num_users(),
            scenario.num_servers(),
            scenario.num_subchannels(),
        )
    }

    /// The all-local decision for explicit dimensions.
    ///
    /// # Panics
    ///
    /// Panics if an id of the geometry does not fit a slot word (more
    /// than 2³² users, 2²⁰ servers or 2¹¹ subchannels), as
    /// [`Scenario::new`] would refuse it.
    pub fn with_dims(num_users: usize, num_servers: usize, num_subchannels: usize) -> Self {
        if let Err(e) = check_packed_geometry(num_users, num_servers, num_subchannels) {
            panic!("assignment geometry: {e}");
        }
        Self {
            num_servers,
            num_subchannels,
            slots: vec![LOCAL; num_users],
            occupancy: vec![None; num_servers * num_subchannels],
        }
    }

    // Per-subchannel layout (`[j][s]`): the incremental evaluator refreshes
    // every occupant of one subchannel across servers, so that scan walks
    // contiguous memory.
    #[inline]
    fn occ_index(&self, s: ServerId, j: SubchannelId) -> usize {
        j.index() * self.num_servers + s.index()
    }

    fn check_ids(&self, u: UserId, s: ServerId, j: SubchannelId) -> Result<(), Error> {
        if u.index() >= self.slots.len() {
            return Err(Error::UnknownEntity {
                kind: "user",
                index: u.index(),
                count: self.slots.len(),
            });
        }
        if s.index() >= self.num_servers {
            return Err(Error::UnknownEntity {
                kind: "server",
                index: s.index(),
                count: self.num_servers,
            });
        }
        if j.index() >= self.num_subchannels {
            return Err(Error::UnknownEntity {
                kind: "subchannel",
                index: j.index(),
                count: self.num_subchannels,
            });
        }
        Ok(())
    }

    /// Number of users.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.slots.len()
    }

    /// Number of servers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of subchannels.
    #[inline]
    pub fn num_subchannels(&self) -> usize {
        self.num_subchannels
    }

    /// The slot held by user `u`, or `None` if it executes locally.
    #[inline]
    pub fn slot(&self, u: UserId) -> Option<(ServerId, SubchannelId)> {
        decode(self.slots[u.index()])
    }

    /// Whether user `u` offloads.
    #[inline]
    pub fn is_offloaded(&self, u: UserId) -> bool {
        self.slots[u.index()] != LOCAL
    }

    /// Every user's slot, in user order.
    fn user_slots(&self) -> impl Iterator<Item = Option<(ServerId, SubchannelId)>> + '_ {
        self.slots.iter().map(|&word| decode(word))
    }

    /// The user occupying `(s, j)`, if any.
    #[inline]
    pub fn occupant(&self, s: ServerId, j: SubchannelId) -> Option<UserId> {
        self.occupancy[self.occ_index(s, j)]
    }

    /// The contiguous occupancy row of subchannel `j`, indexed by server —
    /// the gather the incremental evaluator's Γ refresh and speculative
    /// scoring sweep across all servers at once.
    #[inline]
    pub fn occupants_on(&self, j: SubchannelId) -> &[Option<UserId>] {
        &self.occupancy[j.index() * self.num_servers..][..self.num_servers]
    }

    /// Number of offloading users `|U_offload|`.
    pub fn num_offloaded(&self) -> usize {
        self.slots.iter().filter(|&&word| word != LOCAL).count()
    }

    /// Iterates over `(user, server, subchannel)` for every offloaded user.
    pub fn offloaded(&self) -> impl Iterator<Item = (UserId, ServerId, SubchannelId)> + '_ {
        self.user_slots()
            .enumerate()
            .filter_map(|(u, slot)| slot.map(|(s, j)| (UserId::new(u), s, j)))
    }

    /// The active transmissions implied by this decision, for SINR
    /// computation.
    ///
    /// Allocates; hot loops should prefer [`Assignment::transmissions_iter`].
    pub fn transmissions(&self) -> Vec<Transmission> {
        self.transmissions_iter().collect()
    }

    /// Allocation-free variant of [`Assignment::transmissions`].
    pub fn transmissions_iter(&self) -> impl Iterator<Item = Transmission> + '_ {
        self.offloaded().map(|(u, s, j)| Transmission::new(u, s, j))
    }

    /// Users currently attached to server `s` (the set `U_s`), in
    /// subchannel order.
    pub fn server_users_iter(&self, s: ServerId) -> impl Iterator<Item = UserId> + '_ {
        (0..self.num_subchannels).filter_map(move |j| self.occupant(s, SubchannelId::new(j)))
    }

    /// The lowest-indexed free subchannel at server `s`, if any.
    pub fn free_subchannel(&self, s: ServerId) -> Option<SubchannelId> {
        (0..self.num_subchannels)
            .map(SubchannelId::new)
            .find(|j| self.occupant(s, *j).is_none())
    }

    /// The free subchannels at server `s`, in index order.
    pub fn free_subchannels_iter(&self, s: ServerId) -> impl Iterator<Item = SubchannelId> + '_ {
        (0..self.num_subchannels)
            .map(SubchannelId::new)
            .filter(move |j| self.occupant(s, *j).is_none())
    }

    /// Assigns user `u` to `(s, j)`.
    ///
    /// # Errors
    ///
    /// Fails (leaving the assignment unchanged) if `u` already offloads,
    /// if `(s, j)` is occupied, or if any id is out of range.
    pub fn assign(&mut self, u: UserId, s: ServerId, j: SubchannelId) -> Result<(), Error> {
        self.check_ids(u, s, j)?;
        if self.is_offloaded(u) {
            return Err(Error::InfeasibleAssignment(format!(
                "user {u} already offloads; release it first"
            )));
        }
        if let Some(other) = self.occupant(s, j) {
            return Err(Error::InfeasibleAssignment(format!(
                "slot ({s}, {j}) is occupied by {other}"
            )));
        }
        self.slots[u.index()] = pack_slot(s, j);
        let idx = self.occ_index(s, j);
        self.occupancy[idx] = Some(u);
        Ok(())
    }

    /// Re-applies a logged `Assign` op without feasibility checks — the
    /// undo path of the incremental evaluator, whose inverse ops are valid
    /// by construction (checked in debug builds).
    pub(crate) fn restore_assign(&mut self, u: UserId, s: ServerId, j: SubchannelId) {
        debug_assert!(!self.is_offloaded(u), "user already offloads");
        let idx = self.occ_index(s, j);
        debug_assert!(self.occupancy[idx].is_none(), "slot occupied");
        self.slots[u.index()] = pack_slot(s, j);
        self.occupancy[idx] = Some(u);
    }

    /// Releases user `u` back to local execution, returning its previous
    /// slot (or `None` if it was already local).
    pub fn release(&mut self, u: UserId) -> Option<(ServerId, SubchannelId)> {
        let slot = decode(std::mem::replace(&mut self.slots[u.index()], LOCAL));
        if let Some((s, j)) = slot {
            let idx = self.occ_index(s, j);
            self.occupancy[idx] = None;
        }
        slot
    }

    /// Moves user `u` to `(s, j)`, releasing its previous slot (if any)
    /// first. If the target slot is occupied by another user, fails and
    /// restores the original state.
    pub fn move_to(&mut self, u: UserId, s: ServerId, j: SubchannelId) -> Result<(), Error> {
        self.check_ids(u, s, j)?;
        if let Some(occupant) = self.occupant(s, j) {
            if occupant != u {
                return Err(Error::InfeasibleAssignment(format!(
                    "slot ({s}, {j}) is occupied by {occupant}"
                )));
            }
            return Ok(()); // Already there.
        }
        let prev = self.release(u);
        debug_assert!(self.occupant(s, j).is_none());
        let result = self.assign(u, s, j);
        if result.is_err() {
            // Unreachable in practice (target checked free above), but keep
            // the rollback for defensive symmetry.
            if let Some((ps, pj)) = prev {
                let _ = self.assign(u, ps, pj);
            }
        }
        result
    }

    /// Swaps the slots of two users. Either, both or neither may currently
    /// offload; a local user swaps "being local" to the other.
    pub fn swap(&mut self, a: UserId, b: UserId) {
        if a == b {
            return;
        }
        let slot_a = self.release(a);
        let slot_b = self.release(b);
        if let Some((s, j)) = slot_b {
            self.assign(a, s, j).expect("slot b was just freed");
        }
        if let Some((s, j)) = slot_a {
            self.assign(b, s, j).expect("slot a was just freed");
        }
    }

    /// Evicts the occupant of `(s, j)` (if any) to local execution and
    /// assigns `u` there. Returns the evicted user, if any.
    ///
    /// This is how the neighborhood kernel honors Algorithm 2's "allocate
    /// one randomly if none are free" without ever violating (12d).
    ///
    /// # Errors
    ///
    /// Fails if ids are out of range (the assignment is unchanged).
    pub fn assign_evicting(
        &mut self,
        u: UserId,
        s: ServerId,
        j: SubchannelId,
    ) -> Result<Option<UserId>, Error> {
        self.check_ids(u, s, j)?;
        let evicted = self.occupant(s, j).filter(|occ| *occ != u);
        if let Some(victim) = evicted {
            self.release(victim);
        }
        self.move_to(u, s, j)?;
        Ok(evicted)
    }

    /// Carries this decision onto a *new* user population with the same
    /// `(S, N)` geometry: `old_of_new[v]` names the user of `self` that
    /// the new index `v` continues (a survivor keeps its slot), or `None`
    /// for a fresh arrival (which starts local). Users of `self` that no
    /// index continues have departed; their slots are freed.
    ///
    /// This is the churn-patching primitive of the online engine: a
    /// survivor's placement is never invalidated by arrivals or
    /// departures, so the patched decision warm-starts the next epoch's
    /// re-solve.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] if a mapped old index is out of
    /// range and [`Error::InfeasibleAssignment`] if two new indices claim
    /// the same old user (which would double-book its slot).
    pub fn patched(&self, old_of_new: &[Option<UserId>]) -> Result<Assignment, Error> {
        let mut next =
            Assignment::with_dims(old_of_new.len(), self.num_servers, self.num_subchannels);
        let mut continued = vec![false; self.slots.len()];
        for (v, old) in old_of_new.iter().enumerate() {
            let Some(old) = old else { continue };
            if old.index() >= self.slots.len() {
                return Err(Error::UnknownEntity {
                    kind: "user",
                    index: old.index(),
                    count: self.slots.len(),
                });
            }
            if continued[old.index()] {
                return Err(Error::InfeasibleAssignment(format!(
                    "user {old} is continued by two new indices"
                )));
            }
            continued[old.index()] = true;
            if let Some((s, j)) = self.slot(*old) {
                next.assign(UserId::new(v), s, j)
                    .expect("injective survivor map preserves (12d)");
            }
        }
        Ok(next)
    }

    /// Buffer-reusing variant of [`Assignment::patched`]: rewrites `next`
    /// in place (its `(S, N)` geometry must match `self`'s) and reuses
    /// `continued` as the injectivity scratch. Allocation-free once the
    /// buffers have reached capacity — the warm shard path runs one patch
    /// per batch and must not touch the allocator.
    ///
    /// # Errors
    ///
    /// As [`Assignment::patched`], plus [`Error::InfeasibleAssignment`] if
    /// `next` has a different `(S, N)` geometry.
    pub fn patched_into(
        &self,
        old_of_new: &[Option<UserId>],
        next: &mut Assignment,
        continued: &mut Vec<bool>,
    ) -> Result<(), Error> {
        if next.num_servers != self.num_servers || next.num_subchannels != self.num_subchannels {
            return Err(Error::InfeasibleAssignment(
                "patched_into target has a different (S, N) geometry".into(),
            ));
        }
        next.slots.clear();
        next.slots.resize(old_of_new.len(), LOCAL);
        next.occupancy.iter_mut().for_each(|o| *o = None);
        continued.clear();
        continued.resize(self.slots.len(), false);
        for (v, old) in old_of_new.iter().enumerate() {
            let Some(old) = old else { continue };
            if old.index() >= self.slots.len() {
                return Err(Error::UnknownEntity {
                    kind: "user",
                    index: old.index(),
                    count: self.slots.len(),
                });
            }
            if continued[old.index()] {
                return Err(Error::InfeasibleAssignment(format!(
                    "user {old} is continued by two new indices"
                )));
            }
            continued[old.index()] = true;
            if let Some((s, j)) = self.slot(*old) {
                next.assign(UserId::new(v), s, j)
                    .expect("injective survivor map preserves (12d)");
            }
        }
        Ok(())
    }

    /// Exhaustively re-checks all representation invariants against a
    /// scenario's geometry. Intended for tests and debug assertions; the
    /// mutation API maintains these invariants by construction.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InfeasibleAssignment`] describing the first
    /// violated invariant.
    pub fn verify_feasible(&self, scenario: &Scenario) -> Result<(), Error> {
        if self.slots.len() != scenario.num_users()
            || self.num_servers != scenario.num_servers()
            || self.num_subchannels != scenario.num_subchannels()
        {
            return Err(Error::InfeasibleAssignment(
                "assignment dimensions do not match the scenario".into(),
            ));
        }
        // Occupancy must be the exact inverse of slots.
        let mut seen = vec![false; self.occupancy.len()];
        for (u, slot) in self.user_slots().enumerate() {
            if let Some((s, j)) = slot {
                let idx = self.occ_index(s, j);
                if seen[idx] {
                    return Err(Error::InfeasibleAssignment(format!(
                        "slot ({s}, {j}) is double-booked (constraint 12d)"
                    )));
                }
                seen[idx] = true;
                if self.occupancy[idx] != Some(UserId::new(u)) {
                    return Err(Error::InfeasibleAssignment(format!(
                        "occupancy index out of sync at ({s}, {j})"
                    )));
                }
            }
        }
        for (idx, occ) in self.occupancy.iter().enumerate() {
            if occ.is_some() && !seen[idx] {
                return Err(Error::InfeasibleAssignment(
                    "occupancy lists a user with no matching slot".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The slot a word names, or `None` for [`LOCAL`].
#[inline]
fn decode(word: u32) -> Option<(ServerId, SubchannelId)> {
    (word != LOCAL).then(|| unpack_slot(word))
}

/// The survivor map [`Assignment::patched`] takes, built from stable user
/// ids: entry `v` is the index of `ids[v]` in `prev_ids`, or `None` for an
/// arrival. An id listed twice in `prev_ids` maps to its first index, as
/// a `position` scan would, but in expected O(n) rather than O(n²).
///
/// The lists need not share an order: a user that departs and re-arrives
/// within one service batch moves to the end of the population and still
/// continues its old index.
pub fn survivor_map(prev_ids: &[u64], ids: &[u64]) -> Vec<Option<UserId>> {
    let mut index = HashMap::with_capacity(prev_ids.len());
    for (i, &id) in prev_ids.iter().enumerate() {
        index.entry(id).or_insert(i);
    }
    ids.iter()
        .map(|id| index.get(id).map(|&i| UserId::new(i)))
        .collect()
}

/// Survivors whose slot in `after` differs from their slot in `before`
/// (usually the patched warm start and the re-solved decision): the
/// decision churn an epoch's re-solve caused. Arrivals (`None` in
/// `old_of_new`) are not counted.
pub fn reassigned_survivors(
    old_of_new: &[Option<UserId>],
    before: &Assignment,
    after: &Assignment,
) -> usize {
    old_of_new
        .iter()
        .enumerate()
        .filter(|&(v, old)| {
            old.is_some() && before.slot(UserId::new(v)) != after.slot(UserId::new(v))
        })
        .count()
}

/// The persistent form of an assignment: dimensions plus per-user slots.
/// The occupancy index is rebuilt (and re-validated) on deserialization,
/// so a corrupted or double-booked file is rejected rather than trusted.
#[derive(Serialize, Deserialize)]
struct AssignmentRepr {
    num_servers: usize,
    num_subchannels: usize,
    slots: Vec<Option<(ServerId, SubchannelId)>>,
}

impl Serialize for Assignment {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        AssignmentRepr {
            num_servers: self.num_servers,
            num_subchannels: self.num_subchannels,
            slots: self.user_slots().collect(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Assignment {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = AssignmentRepr::deserialize(deserializer)?;
        check_packed_geometry(repr.slots.len(), repr.num_servers, repr.num_subchannels)
            .map_err(|e| D::Error::custom(format!("invalid assignment: {e}")))?;
        let mut assignment =
            Assignment::with_dims(repr.slots.len(), repr.num_servers, repr.num_subchannels);
        for (u, slot) in repr.slots.iter().enumerate() {
            if let Some((s, j)) = slot {
                assignment
                    .assign(UserId::new(u), *s, *j)
                    .map_err(|e| D::Error::custom(format!("invalid assignment: {e}")))?;
            }
        }
        Ok(assignment)
    }
}

impl fmt::Display for Assignment {
    /// Renders the occupancy grid, one row per server:
    /// `s0: [u3] [--] [u7]` (— = free subchannel), followed by the count
    /// of local users.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in 0..self.num_servers {
            write!(f, "s{s}:")?;
            for j in 0..self.num_subchannels {
                match self.occupant(ServerId::new(s), SubchannelId::new(j)) {
                    Some(u) => write!(f, " [{u}]")?,
                    None => write!(f, " [--]")?,
                }
            }
            writeln!(f)?;
        }
        write!(
            f,
            "local: {}/{}",
            self.num_users() - self.num_offloaded(),
            self.num_users()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: usize) -> UserId {
        UserId::new(i)
    }
    fn s(i: usize) -> ServerId {
        ServerId::new(i)
    }
    fn j(i: usize) -> SubchannelId {
        SubchannelId::new(i)
    }

    fn fresh() -> Assignment {
        Assignment::with_dims(4, 2, 2)
    }

    #[test]
    fn starts_all_local() {
        let a = fresh();
        assert_eq!(a.num_offloaded(), 0);
        assert!(!a.is_offloaded(u(0)));
        assert_eq!(a.offloaded().count(), 0);
        assert!(a.transmissions().is_empty());
    }

    #[test]
    fn assign_and_release_roundtrip() {
        let mut a = fresh();
        a.assign(u(0), s(1), j(0)).unwrap();
        assert_eq!(a.slot(u(0)), Some((s(1), j(0))));
        assert_eq!(a.occupant(s(1), j(0)), Some(u(0)));
        assert_eq!(a.num_offloaded(), 1);
        assert_eq!(a.release(u(0)), Some((s(1), j(0))));
        assert_eq!(a.num_offloaded(), 0);
        assert_eq!(a.occupant(s(1), j(0)), None);
        assert_eq!(a.release(u(0)), None);
    }

    #[test]
    fn double_assignment_of_user_fails_cleanly() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(0)).unwrap();
        let before = a.clone();
        assert!(a.assign(u(0), s(1), j(1)).is_err());
        assert_eq!(a, before);
    }

    #[test]
    fn occupied_slot_fails_cleanly() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(0)).unwrap();
        let before = a.clone();
        assert!(a.assign(u(1), s(0), j(0)).is_err());
        assert_eq!(a, before);
    }

    #[test]
    fn out_of_range_ids_fail() {
        let mut a = fresh();
        assert!(a.assign(u(4), s(0), j(0)).is_err());
        assert!(a.assign(u(0), s(2), j(0)).is_err());
        assert!(a.assign(u(0), s(0), j(2)).is_err());
    }

    #[test]
    fn move_to_relocates() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(0)).unwrap();
        a.move_to(u(0), s(1), j(1)).unwrap();
        assert_eq!(a.slot(u(0)), Some((s(1), j(1))));
        assert_eq!(a.occupant(s(0), j(0)), None);
        // Moving a local user is an assignment.
        a.move_to(u(1), s(0), j(0)).unwrap();
        assert_eq!(a.slot(u(1)), Some((s(0), j(0))));
        // Moving to one's own slot is a no-op.
        a.move_to(u(1), s(0), j(0)).unwrap();
        assert_eq!(a.slot(u(1)), Some((s(0), j(0))));
    }

    #[test]
    fn move_to_occupied_fails_without_losing_state() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(0)).unwrap();
        a.assign(u(1), s(1), j(1)).unwrap();
        let before = a.clone();
        assert!(a.move_to(u(0), s(1), j(1)).is_err());
        assert_eq!(a, before);
    }

    #[test]
    fn swap_exchanges_slots() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(0)).unwrap();
        a.assign(u(1), s(1), j(1)).unwrap();
        a.swap(u(0), u(1));
        assert_eq!(a.slot(u(0)), Some((s(1), j(1))));
        assert_eq!(a.slot(u(1)), Some((s(0), j(0))));
    }

    #[test]
    fn swap_with_local_user_transfers_the_slot() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(1)).unwrap();
        a.swap(u(0), u(2));
        assert_eq!(a.slot(u(0)), None);
        assert_eq!(a.slot(u(2)), Some((s(0), j(1))));
        // Swapping two locals is a no-op, as is self-swap.
        a.swap(u(1), u(3));
        a.swap(u(2), u(2));
        assert_eq!(a.slot(u(2)), Some((s(0), j(1))));
        assert_eq!(a.num_offloaded(), 1);
    }

    #[test]
    fn assign_evicting_bumps_occupant_to_local() {
        let mut a = fresh();
        a.assign(u(0), s(0), j(0)).unwrap();
        let evicted = a.assign_evicting(u(1), s(0), j(0)).unwrap();
        assert_eq!(evicted, Some(u(0)));
        assert_eq!(a.slot(u(0)), None);
        assert_eq!(a.slot(u(1)), Some((s(0), j(0))));
        // Evicting an empty slot evicts no one.
        assert_eq!(a.assign_evicting(u(2), s(1), j(1)).unwrap(), None);
        // Self-eviction is a no-op move.
        assert_eq!(a.assign_evicting(u(1), s(0), j(0)).unwrap(), None);
        assert_eq!(a.slot(u(1)), Some((s(0), j(0))));
    }

    #[test]
    fn free_subchannel_queries() {
        let mut a = fresh();
        assert_eq!(a.free_subchannel(s(0)), Some(j(0)));
        assert_eq!(a.free_subchannels_iter(s(0)).count(), 2);
        a.assign(u(0), s(0), j(0)).unwrap();
        assert_eq!(a.free_subchannel(s(0)), Some(j(1)));
        a.assign(u(1), s(0), j(1)).unwrap();
        assert_eq!(a.free_subchannel(s(0)), None);
        assert_eq!(a.free_subchannels_iter(s(0)).next(), None);
        assert_eq!(a.server_users_iter(s(0)).collect::<Vec<_>>(), [u(0), u(1)]);
        assert_eq!(a.server_users_iter(s(1)).next(), None);
    }

    #[test]
    fn patched_carries_survivor_slots_to_a_resized_population() {
        let mut a = fresh(); // 4 users, 2 servers, 2 subchannels
        a.assign(u(0), s(0), j(0)).unwrap();
        a.assign(u(2), s(1), j(1)).unwrap();
        // New population: user 2 survives as index 0, a fresh arrival is
        // index 1, user 1 (local) survives as index 2; user 0 departed.
        let next = a.patched(&[Some(u(2)), None, Some(u(1))]).unwrap();
        assert_eq!(next.num_users(), 3);
        assert_eq!(next.slot(u(0)), Some((s(1), j(1))));
        assert_eq!(next.slot(u(1)), None);
        assert_eq!(next.slot(u(2)), None);
        // The departed user's slot is free again.
        assert_eq!(next.occupant(s(0), j(0)), None);
        assert_eq!(next.num_offloaded(), 1);
    }

    #[test]
    fn patched_handles_empty_and_growing_populations() {
        let mut a = Assignment::with_dims(1, 2, 2);
        a.assign(u(0), s(1), j(0)).unwrap();
        // Everyone departs.
        let empty = a.patched(&[]).unwrap();
        assert_eq!(empty.num_users(), 0);
        assert_eq!(empty.num_offloaded(), 0);
        // Growing from an empty decision: all arrivals start local.
        let grown = empty.patched(&[None, None, None]).unwrap();
        assert_eq!(grown.num_users(), 3);
        assert_eq!(grown.num_offloaded(), 0);
        // Identity patch reproduces the original slots.
        let same = a.patched(&[Some(u(0))]).unwrap();
        assert_eq!(same.slot(u(0)), a.slot(u(0)));
    }

    #[test]
    fn patched_into_matches_patched_and_reuses_buffers() {
        let mut a = fresh(); // 4 users, 2 servers, 2 subchannels
        a.assign(u(0), s(0), j(0)).unwrap();
        a.assign(u(2), s(1), j(1)).unwrap();
        let map = [Some(u(2)), None, Some(u(1))];
        let expected = a.patched(&map).unwrap();
        // A dirty, differently-sized target gets fully rewritten.
        let mut next = Assignment::with_dims(4, 2, 2);
        next.assign(u(3), s(0), j(1)).unwrap();
        let mut continued = Vec::new();
        a.patched_into(&map, &mut next, &mut continued).unwrap();
        assert_eq!(next, expected);
        // Repeating the patch into the same buffers is idempotent.
        a.patched_into(&map, &mut next, &mut continued).unwrap();
        assert_eq!(next, expected);
        // Geometry mismatches and non-injective maps are rejected.
        let mut wrong = Assignment::with_dims(3, 3, 2);
        assert!(a.patched_into(&map, &mut wrong, &mut continued).is_err());
        assert!(a
            .patched_into(&[Some(u(1)), Some(u(1))], &mut next, &mut continued)
            .is_err());
    }

    #[test]
    fn patched_rejects_bad_maps() {
        let mut a = fresh();
        a.assign(u(1), s(0), j(1)).unwrap();
        // Out-of-range old index.
        assert!(a.patched(&[Some(u(9))]).is_err());
        // The same old user claimed twice.
        assert!(a.patched(&[Some(u(1)), Some(u(1))]).is_err());
        // Duplicating a *local* old user is also rejected: the map must
        // stay injective.
        assert!(a.patched(&[Some(u(0)), Some(u(0))]).is_err());
    }

    #[test]
    fn serde_roundtrip_rebuilds_occupancy() {
        let mut a = fresh();
        a.assign(u(0), s(1), j(0)).unwrap();
        a.assign(u(3), s(0), j(1)).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        let rebuilt: Assignment = serde_json::from_str(&json).unwrap();
        assert_eq!(a, rebuilt);
        assert_eq!(rebuilt.occupant(s(1), j(0)), Some(u(0)));
    }

    #[test]
    fn slot_words_decode_at_the_packed_corners() {
        let servers = [0, 1, MAX_PACKED_SERVERS as usize - 1];
        let subchannels = [0, 1, MAX_PACKED_SUBCHANNELS as usize - 1];
        let mut words = Vec::new();
        for &ss in &servers {
            for &jj in &subchannels {
                let word = pack_slot(s(ss), j(jj));
                assert_ne!(word, LOCAL, "({ss}, {jj})");
                assert_eq!(decode(word), Some((s(ss), j(jj))));
                words.push(word);
            }
        }
        assert_eq!(pack_slot(s(servers[2]), j(subchannels[2])), (1 << 31) - 1);
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), servers.len() * subchannels.len());
        assert_eq!(decode(LOCAL), None);
    }

    #[test]
    #[should_panic(expected = "assignment geometry")]
    fn dims_beyond_the_packed_range_panic() {
        Assignment::with_dims(1, 1, MAX_PACKED_SUBCHANNELS as usize + 1);
    }

    #[test]
    fn a_decision_holds_four_bytes_per_user_and_eight_per_slot() {
        let a = Assignment::with_dims(5, 3, 2);
        assert_eq!(std::mem::size_of_val(a.slots.as_slice()), 4 * 5);
        assert_eq!(std::mem::size_of_val(a.occupancy.as_slice()), 8 * 3 * 2);
    }

    #[test]
    fn json_and_debug_print_one_optional_pair_per_user() {
        let mut a = fresh();
        a.assign(u(0), s(1), j(0)).unwrap();
        a.assign(u(3), s(0), j(1)).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            r#"{"num_servers":2,"num_subchannels":2,"slots":[[1,0],null,null,[0,1]]}"#
        );
        assert_eq!(
            format!("{a:?}"),
            "Assignment { num_servers: 2, num_subchannels: 2, slots: [Some((ServerId(1), \
             SubchannelId(0))), None, None, Some((ServerId(0), SubchannelId(1)))], occupancy: \
             [None, Some(UserId(0)), Some(UserId(3)), None] }"
        );
    }

    #[test]
    fn json_beyond_the_packed_geometry_is_rejected() {
        let parse = |servers: u64, subchannels: u64| {
            serde_json::from_str::<Assignment>(&format!(
                r#"{{"num_servers":{servers},"num_subchannels":{subchannels},"slots":[]}}"#
            ))
        };
        // The largest geometry in range passes the check `deserialize` runs.
        let top = (MAX_PACKED_SERVERS as usize, MAX_PACKED_SUBCHANNELS as usize);
        assert!(check_packed_geometry(0, top.0, top.1).is_ok());
        for (servers, subchannels) in [
            (MAX_PACKED_SERVERS + 1, 1),
            (1, MAX_PACKED_SUBCHANNELS + 1),
            (1 << 40, 1 << 40),
        ] {
            let err = parse(servers, subchannels).unwrap_err().to_string();
            assert!(err.contains("packed"), "{servers} x {subchannels}: {err}");
        }
    }

    #[test]
    fn display_shows_grid_and_local_count() {
        let mut a = fresh();
        a.assign(u(1), s(0), j(1)).unwrap();
        a.assign(u(2), s(1), j(0)).unwrap();
        let text = a.to_string();
        assert!(text.contains("s0: [--] [u1]"));
        assert!(text.contains("s1: [u2] [--]"));
        assert!(text.ends_with("local: 2/4"));
    }

    #[test]
    fn offloaded_iteration_matches_slots() {
        let mut a = fresh();
        a.assign(u(2), s(1), j(0)).unwrap();
        a.assign(u(0), s(0), j(1)).unwrap();
        let mut off: Vec<_> = a.offloaded().collect();
        off.sort_by_key(|(user, _, _)| user.index());
        assert_eq!(off, vec![(u(0), s(0), j(1)), (u(2), s(1), j(0))]);
        assert_eq!(a.transmissions().len(), 2);
    }
}
