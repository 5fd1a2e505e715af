//! Property suite pinning the SoA/chunked/speculative delta paths
//! bit-exact against the scalar `apply`/`undo` reference of
//! [`IncrementalObjective`] over long random walks.
//!
//! Three contracts, each exercised across random geometries (including
//! server counts that are not lane multiples, so the padding lanes are
//! covered), with and without a halo (`external_rx`, as every shard
//! cluster scores against one):
//!
//! * `score(mv)` and `score_take(u, s, j)` equal `apply(mv)` +
//!   `current()` **bit for bit**, and leave no trace — for slot takes
//!   exhaustively, over free and occupied slots and zero-gain users;
//! * `undo()` after `apply()` restores the objective bit-exactly;
//! * the maintained sums track the reference evaluator within `1e-9`
//!   relative over long committed walks (the documented drift bound);
//! * `bound(mv)` and `bound_take(u, s, j)` never fall below the priced
//!   change `score − current`, for every move shape the constructors
//!   build and every slot take;
//! * a state built on a shared [`ObjectiveTables`] pack
//!   ([`IncrementalObjective::with_tables`]) is indistinguishable, bit for
//!   bit, from one that packs its own tables.

use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::{simd, UserSpec};
use mec_system::{
    Assignment, EvalScratch, Evaluator, IncrementalObjective, MoveDesc, ObjectiveTables, Scenario,
};
use mec_types::{Cycles, Hertz, ServerId, ServerProfile, SubchannelId, UserId, Watts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random geometry whose links are zero with probability `zero_share`
/// (users offloaded over a zero link carry a non-finite Γ term).
fn random_scenario(
    seed: u64,
    users: usize,
    servers: usize,
    subs: usize,
    zero_share: f64,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let gains = ChannelGains::from_fn(users, servers, subs, |_, _, _| {
        random_gain(&mut rng, zero_share)
    })
    .unwrap();
    scenario_with(gains, users, servers, subs)
}

/// As [`random_scenario`], with one gain per `(user, server)` shared by
/// every subchannel (the compact layout city generators use).
fn shared_random_scenario(
    seed: u64,
    users: usize,
    servers: usize,
    subs: usize,
    zero_share: f64,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let gains = ChannelGains::shared_from_fn(users, servers, subs, |_, _| {
        random_gain(&mut rng, zero_share)
    })
    .unwrap();
    scenario_with(gains, users, servers, subs)
}

fn random_gain(rng: &mut StdRng, zero_share: f64) -> f64 {
    if zero_share > 0.0 && rng.gen_bool(zero_share) {
        0.0
    } else {
        10.0_f64.powf(rng.gen_range(-13.0..-9.0))
    }
}

fn scenario_with(gains: ChannelGains, users: usize, servers: usize, subs: usize) -> Scenario {
    Scenario::new(
        vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
        vec![ServerProfile::paper_default(); servers],
        OfdmaConfig::new(Hertz::from_mega(20.0), subs).unwrap(),
        gains,
        Watts::new(1e-13),
    )
    .unwrap()
}

/// Installs a random halo (`external_rx`) when `halo` is set, the way a
/// shard cluster sees the rest of the city.
fn with_halo(mut scenario: Scenario, seed: u64, halo: bool) -> Scenario {
    if halo {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4a10);
        let ext = (0..scenario.num_subchannels() * scenario.num_servers())
            .map(|_| 10.0_f64.powf(rng.gen_range(-14.0..-10.0)))
            .collect();
        scenario.set_external_rx(Some(ext)).unwrap();
    }
    scenario
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

/// A random valid MoveDesc against `x`, mimicking the kernel's shapes
/// (toggle, evicting relocation, swap, plain relocation).
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

/// Whether a move bound covers a priced change. `−∞ − (−∞)` (a move
/// between two non-finite states) is NaN, which only the `+∞` bound of a
/// non-finite state may cover.
fn dominates(bound: f64, delta: f64) -> bool {
    bound >= delta || (delta.is_nan() && bound == f64::INFINITY)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The speculative score is the apply-path objective, bit for bit,
    /// and scoring leaves the state untouched.
    #[test]
    fn score_is_bit_exact_against_apply(
        seed in 0u64..1_000_000,
        users in 2usize..16,
        servers in 1usize..9,
        subs in 1usize..5,
        halo in 0u8..2,
    ) {
        let sc = with_halo(random_scenario(seed, users, servers, subs, 0.0), seed, halo == 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut inc =
            IncrementalObjective::new(&sc, random_assignment(&sc, seed.wrapping_add(3))).unwrap();
        for step in 0..200 {
            let mv = random_move(&sc, inc.assignment(), &mut rng);
            let before_bits = inc.current().to_bits();
            let x_before = inc.assignment().clone();
            let speculative = inc.score(&mv);
            // Scoring is pure: nothing observable moved.
            prop_assert_eq!(inc.current().to_bits(), before_bits);
            prop_assert_eq!(inc.assignment(), &x_before);
            let delta = inc.apply(&mv);
            let applied = inc.current();
            prop_assert_eq!(
                speculative.to_bits(),
                applied.to_bits(),
                "step {}: score {} vs apply {}",
                step,
                speculative,
                applied
            );
            // The apply delta is consistent with the speculative view.
            if applied.is_finite() && f64::from_bits(before_bits).is_finite() {
                prop_assert_eq!(
                    delta.to_bits(),
                    (applied - f64::from_bits(before_bits)).to_bits()
                );
            }
            if rng.gen_bool(0.5) {
                inc.commit();
            } else {
                inc.undo();
                prop_assert_eq!(inc.current().to_bits(), before_bits);
            }
        }
    }

    /// Every slot take — each `(user, server, subchannel)`, local and
    /// offloaded users, free and occupied slots, zero-gain links, with
    /// and without a halo — prices bit for bit as the general `score` of
    /// the same move and as `apply` + `current`, and leaves no trace.
    #[test]
    fn every_slot_take_prices_bit_exact_against_apply(
        seed in 0u64..1_000_000,
        users in 2usize..10,
        servers in 1usize..7,
        subs in 1usize..4,
        halo in 0u8..2,
    ) {
        let sc = with_halo(random_scenario(seed, users, servers, subs, 0.25), seed, halo == 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a4e);
        let mut inc =
            IncrementalObjective::new(&sc, random_assignment(&sc, seed.wrapping_add(5))).unwrap();
        // Sweeps from the fresh build and from states a committed random
        // walk reached, whose maintained sums carry drift (e.g. a
        // single-user server's `Σ√η` that is no longer exactly its one
        // term, where the empty-server pin matters).
        for sweep in 0..3 {
            for _ in 0..40 * sweep {
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                inc.apply(&mv);
                inc.commit();
            }
            for u in sc.user_ids() {
                for s in sc.server_ids() {
                    for j in SubchannelId::all(subs) {
                        let before_bits = inc.current().to_bits();
                        let x_before = inc.assignment().clone();
                        let take = inc.score_take(u, s, j);
                        prop_assert_eq!(inc.current().to_bits(), before_bits);
                        prop_assert_eq!(inc.assignment(), &x_before);
                        let mv = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                        prop_assert_eq!(take.to_bits(), inc.score(&mv).to_bits());
                        inc.apply(&mv);
                        prop_assert_eq!(
                            take.to_bits(),
                            inc.current().to_bits(),
                            "{:?} takes ({:?}, {:?}): score_take {} vs apply {}",
                            u,
                            s,
                            j,
                            take,
                            inc.current()
                        );
                        inc.undo();
                    }
                }
            }
        }
    }

    /// Undo after apply restores the objective and decision bit-exactly,
    /// with interleaved speculative scores thrown in (they must not
    /// disturb the pending-move machinery).
    #[test]
    fn undo_stays_bit_exact_with_interleaved_scores(
        seed in 0u64..1_000_000,
        users in 2usize..12,
        servers in 1usize..7,
        subs in 1usize..4,
    ) {
        let sc = random_scenario(seed, users, servers, subs, 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let mut inc =
            IncrementalObjective::new(&sc, random_assignment(&sc, seed.wrapping_add(9))).unwrap();
        for _ in 0..150 {
            let probe = random_move(&sc, inc.assignment(), &mut rng);
            let _ = inc.score(&probe);
            let before = inc.current().to_bits();
            let x_before = inc.assignment().clone();
            let mv = random_move(&sc, inc.assignment(), &mut rng);
            inc.apply(&mv);
            inc.undo();
            prop_assert_eq!(inc.current().to_bits(), before);
            prop_assert_eq!(inc.assignment(), &x_before);
        }
    }

    /// Long committed walks stay within the documented 1e-9 relative
    /// drift bound of the reference evaluator, on every geometry the
    /// padded layout can take (including non-lane-multiple server
    /// counts).
    #[test]
    fn committed_walks_track_the_reference(
        seed in 0u64..1_000_000,
        users in 2usize..14,
        servers in 1usize..9,
        subs in 1usize..4,
        halo in 0u8..2,
    ) {
        let sc = with_halo(random_scenario(seed, users, servers, subs, 0.0), seed, halo == 1);
        let ev = Evaluator::new(&sc);
        let mut scratch = EvalScratch::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let mut inc =
            IncrementalObjective::new(&sc, random_assignment(&sc, seed.wrapping_add(1))).unwrap();
        for _ in 0..150 {
            let mv = random_move(&sc, inc.assignment(), &mut rng);
            // Accept via the score-then-apply fast path, as the engines do.
            let speculative = inc.score(&mv);
            if speculative >= inc.current() {
                inc.apply(&mv);
                inc.commit();
            }
        }
        let reference = ev.objective_with(inc.assignment(), &mut scratch);
        let current = inc.current();
        if current.is_finite() || reference.is_finite() {
            prop_assert!(
                (current - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "incremental {} vs reference {}",
                current,
                reference
            );
        }
    }

    /// The move bound is sound: for every move shape the constructors
    /// build (releases, evicting and plain relocations, swaps) and every
    /// `(user, slot)` take — over local and offloaded users, free and
    /// occupied slots, a quarter of the links dead, with and without a
    /// halo, from the fresh build and from walked states — the bound is at
    /// least `score(mv) − current()`, and it is `+∞` on a non-finite
    /// state.
    #[test]
    fn bound_dominates_every_move_and_take(
        seed in 0u64..1_000_000,
        users in 2usize..10,
        servers in 1usize..7,
        subs in 1usize..4,
        halo in 0u8..2,
    ) {
        let sc = with_halo(random_scenario(seed, users, servers, subs, 0.25), seed, halo == 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0d);
        let mut inc =
            IncrementalObjective::new(&sc, random_assignment(&sc, seed.wrapping_add(7))).unwrap();
        for sweep in 0..3 {
            // Walk (accepting every move, so non-finite states occur too),
            // checking each random move on the way.
            for _ in 0..40 * sweep {
                let mv = random_move(&sc, inc.assignment(), &mut rng);
                let delta = inc.score(&mv) - inc.current();
                let bound = inc.bound(&mv);
                prop_assert!(dominates(bound, delta), "walk {:?}: bound {} < {}", mv, bound, delta);
                inc.apply(&mv);
                inc.commit();
            }
            let finite = inc.current().is_finite();
            let mut moves: Vec<MoveDesc> = Vec::new();
            for u in sc.user_ids() {
                moves.push(MoveDesc::relocate(inc.assignment(), u, None));
                for v in sc.user_ids() {
                    moves.push(MoveDesc::swap(inc.assignment(), u, v));
                }
                for s in sc.server_ids() {
                    if let Some(j) = inc.assignment().free_subchannel(s) {
                        moves.push(MoveDesc::relocate(inc.assignment(), u, Some((s, j))));
                    }
                }
            }
            for mv in &moves {
                let delta = inc.score(mv) - inc.current();
                let bound = inc.bound(mv);
                prop_assert!(dominates(bound, delta), "{:?}: bound {} < {}", mv, bound, delta);
                if !finite || mv.is_empty() {
                    prop_assert_eq!(bound, f64::INFINITY);
                }
            }
            for u in sc.user_ids() {
                for s in sc.server_ids() {
                    for j in SubchannelId::all(subs) {
                        let delta = inc.score_take(u, s, j) - inc.current();
                        let bound = inc.bound_take(u, s, j);
                        prop_assert!(
                            dominates(bound, delta),
                            "{:?} takes ({:?}, {:?}): bound {} < {}",
                            u, s, j, bound, delta
                        );
                        let mv = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                        prop_assert_eq!(bound.to_bits(), inc.bound(&mv).to_bits());
                    }
                }
            }
        }
    }

    /// A state on a shared pack is a state on its own pack, bit for bit.
    /// The pack is packed once from the cluster's scenario and lent to a
    /// live state on it; a second state is then built on the same pack
    /// after `set_external_rx` installed a new halo, as a shard reconcile
    /// visit is. Along a walk of random moves and takes — halo on or off,
    /// dead links, dense and subchannel-shared gains — it agrees with a
    /// state `new` builds on the visit's scenario on `current`, `score`,
    /// `score_take`, `bound`, `bound_take` and every `apply` delta.
    #[test]
    fn shared_pack_states_match_own_pack_states_bit_exact(
        seed in 0u64..1_000_000,
        users in 2usize..10,
        servers in 1usize..7,
        subs in 1usize..4,
        halo in 0u8..2,
        dead in 0u8..2,
        shared in 0u8..2,
    ) {
        let zero_share = if dead == 1 { 0.25 } else { 0.0 };
        let base = if shared == 1 {
            shared_random_scenario(seed, users, servers, subs, zero_share)
        } else {
            random_scenario(seed, users, servers, subs, zero_share)
        };
        let packed = with_halo(base, seed, halo == 1);
        let tables = Arc::new(ObjectiveTables::new(&packed));
        let start = random_assignment(&packed, seed.wrapping_add(11));
        let mut live =
            IncrementalObjective::with_tables(&packed, Arc::clone(&tables), start.clone())
                .unwrap();
        let mut visit = with_halo(packed.clone(), seed ^ 0x1_0000, true);
        if halo == 1 && seed % 2 == 0 {
            visit.set_external_rx(None).unwrap();
        }
        let mut lent =
            IncrementalObjective::with_tables(&visit, Arc::clone(&tables), start.clone()).unwrap();
        let mut own = IncrementalObjective::new(&visit, start).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
        prop_assert_eq!(lent.current().to_bits(), own.current().to_bits());
        for step in 0..120 {
            // The live state on the packed scenario keeps walking too.
            let other = random_move(&packed, live.assignment(), &mut rng);
            live.apply(&other);
            live.commit();

            let mv = random_move(&visit, own.assignment(), &mut rng);
            prop_assert_eq!(lent.bound(&mv).to_bits(), own.bound(&mv).to_bits(), "step {}", step);
            prop_assert_eq!(lent.score(&mv).to_bits(), own.score(&mv).to_bits(), "step {}", step);
            let u = UserId::new(rng.gen_range(0..users));
            let s = ServerId::new(rng.gen_range(0..servers));
            let j = SubchannelId::new(rng.gen_range(0..subs));
            prop_assert_eq!(lent.bound_take(u, s, j).to_bits(), own.bound_take(u, s, j).to_bits());
            prop_assert_eq!(lent.score_take(u, s, j).to_bits(), own.score_take(u, s, j).to_bits());
            let delta = lent.apply(&mv);
            prop_assert_eq!(delta.to_bits(), own.apply(&mv).to_bits(), "step {}", step);
            prop_assert_eq!(lent.current().to_bits(), own.current().to_bits());
            if rng.gen_bool(0.5) {
                lent.commit();
                own.commit();
            } else {
                lent.undo();
                own.undo();
            }
            prop_assert_eq!(lent.current().to_bits(), own.current().to_bits());
            prop_assert_eq!(lent.assignment(), own.assignment());
        }
        prop_assert_eq!(Arc::strong_count(&tables), 3);
        lent.resync();
        own.resync();
        prop_assert_eq!(lent.current().to_bits(), own.current().to_bits());
    }

    /// The chunked row kernels are bit-identical to scalar sweeps for any
    /// lane-padded row contents.
    #[test]
    fn chunked_kernels_match_scalar_bit_exact(
        rows in prop::collection::vec(-1.0e-9f64..1.0e-9, 4..64),
    ) {
        let n = simd::padded_len(rows.len());
        let mut src = rows.clone();
        src.resize(n, 0.0);
        let mut chunked = vec![1.0e-12; n];
        let mut scalar = chunked.clone();
        simd::add_assign_rows(&mut chunked, &src);
        for (d, s) in scalar.iter_mut().zip(&src) {
            *d += s;
        }
        prop_assert_eq!(
            chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        simd::sub_assign_rows(&mut chunked, &src);
        for (d, s) in scalar.iter_mut().zip(&src) {
            *d -= s;
        }
        prop_assert_eq!(
            chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
