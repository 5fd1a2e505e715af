//! Property-based tests for the sharded engine's decomposition layer:
//! the seeded partitioner, the halo (cross-cluster per-`(subchannel,
//! server)` power totals) accounting, and worker-count independence —
//! and for its descent scan, whose server gate must settle exactly the
//! candidates a per-candidate scan settles.
//!
//! These are the trust anchors of `--solver shard`: if every entity lands
//! in exactly one cluster, the halos always re-derive from a fresh global
//! recomputation, and the result is bit-identical at any pool width, then
//! the decomposition can only differ from the monolith through search
//! quality — never through physics.

use proptest::prelude::*;
use tsajs::shard::{cluster_external, halo_totals, solve_sharded, Partition, ShardRun};
use tsajs::{ShardConfig, TemperingConfig, TtsaConfig};
use tsajs_mec::prelude::*;

/// Strategy: a random scenario geometry with log-uniform shared-layout
/// gains (the city-scale storage path) and mildly skewed workloads.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (4usize..=10, 2usize..=6, 1usize..=3, 0u64..1000).prop_map(|(u, s, n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draws = vec![0.0f64; u * s];
        for g in draws.iter_mut() {
            *g = 10.0_f64.powf(rng.gen_range(-13.0..-9.0));
        }
        let gains =
            ChannelGains::shared_from_fn(u, s, n, |uu, ss| draws[uu.index() * s + ss.index()])
                .unwrap();
        Scenario::new(
            vec![
                mec_system::UserSpec::paper_default_with_workload(Cycles::from_mega(
                    rng.gen_range(500.0..4000.0)
                ))
                .unwrap();
                u
            ],
            vec![ServerProfile::paper_default(); s],
            OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, n).unwrap(),
            gains,
            constants::DEFAULT_NOISE.to_watts(),
        )
        .unwrap()
    })
}

/// A shard configuration small enough for property-sized instances.
fn quick_shard(seed: u64, cluster_size: usize) -> ShardConfig {
    ShardConfig::paper_default()
        .with_seed(seed)
        .with_cluster_size(cluster_size)
        .with_max_sweeps(4)
        .with_ttsa(TtsaConfig::paper_default().with_min_temperature(1e-1))
        .with_tempering(
            TemperingConfig::paper_default()
                .with_replicas(2)
                .with_rounds(2),
        )
}

/// Fresh recomputation of the halo contribution of one cluster's users.
fn own_contribution(
    scenario: &Scenario,
    partition: &Partition,
    c: usize,
    x: &Assignment,
) -> Vec<f64> {
    let s_count = scenario.num_servers();
    let powers = scenario.tx_powers_watts();
    let mut totals = vec![0.0; scenario.num_subchannels() * s_count];
    for (u, _s, j) in x.offloaded() {
        if partition.cluster_of_user(u) != c {
            continue;
        }
        for s in scenario.server_ids() {
            totals[j.index() * s_count + s.index()] +=
                powers[u.index()] * scenario.gains().gain(u, s, j);
        }
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every server and every user belongs to exactly one cluster, and no
    /// cluster exceeds the configured size.
    #[test]
    fn partition_is_an_exact_cover(
        scenario in arb_scenario(),
        cluster_size in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let p = Partition::build(&scenario, cluster_size, seed).unwrap();
        let mut server_seen = vec![0usize; scenario.num_servers()];
        let mut user_seen = vec![0usize; scenario.num_users()];
        for (c, members) in p.clusters().iter().enumerate() {
            prop_assert!(members.servers.len() <= cluster_size);
            for &s in &members.servers {
                server_seen[s.index()] += 1;
                prop_assert_eq!(p.cluster_of_server(s), c);
            }
            for &u in &members.users {
                user_seen[u.index()] += 1;
                prop_assert_eq!(p.cluster_of_user(u), c);
            }
        }
        prop_assert!(server_seen.iter().all(|&n| n == 1), "servers covered once");
        prop_assert!(user_seen.iter().all(|&n| n == 1), "users covered once");
        // The partition is a pure function of (geometry, size, seed).
        prop_assert_eq!(&p, &Partition::build(&scenario, cluster_size, seed).unwrap());
    }

    /// After every reconcile epoch, the halo each cluster saw plus the
    /// contribution its own users emit re-derives the global totals of a
    /// fresh recomputation, per (subchannel, server) entry.
    #[test]
    fn halos_rederive_from_fresh_global_recomputation(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let cfg = quick_shard(seed, 2);
        let mut run = ShardRun::new(&scenario, cfg, 1).unwrap();
        for _ in 0..cfg.max_sweeps {
            let changed = run.sweep().unwrap();
            let totals = halo_totals(&scenario, run.assignment());
            for c in 0..run.partition().num_clusters() {
                let ext = cluster_external(&scenario, run.partition(), c, run.assignment());
                let own = own_contribution(&scenario, run.partition(), c, run.assignment());
                for ((t, e), o) in totals.iter().zip(ext.iter()).zip(own.iter()) {
                    prop_assert!(
                        (t - (e + o)).abs() <= 1e-12 * t.abs().max(1e-300),
                        "halo accounting broke: total {t} vs external {e} + own {o}"
                    );
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Same seed + same cluster size ⇒ bit-identical outcome at 1, 2 and
    /// 8 workers: the pool only changes when a cluster is solved, never
    /// what it computes.
    #[test]
    fn shard_solve_is_bit_identical_across_worker_counts(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let cfg = quick_shard(seed, 2);
        let base = solve_sharded(&scenario, &cfg, 1).unwrap();
        base.assignment.verify_feasible(&scenario).unwrap();
        prop_assert!(base.halo_residual <= 1e-9, "residual {}", base.halo_residual);
        for workers in [2usize, 8] {
            let other = solve_sharded(&scenario, &cfg, workers).unwrap();
            prop_assert_eq!(&base.assignment, &other.assignment, "workers {}", workers);
            prop_assert_eq!(base.objective.to_bits(), other.objective.to_bits());
            prop_assert_eq!(base.proposals, other.proposals);
            prop_assert_eq!(base.sweeps, other.sweeps);
        }
    }
}

/// A random scenario for the descent properties: 1–40 users, 1–6
/// servers and 1–4 subchannels, dense or subchannel-shared gains (a tenth
/// of the links cut to zero in a third of them), random λ, β and task
/// sizes, and a halo installed in half.
fn gate_scenario(rng: &mut rand::rngs::StdRng) -> Scenario {
    use rand::Rng;
    let (u, s, n) = (
        rng.gen_range(1..=40usize),
        rng.gen_range(1..=6usize),
        rng.gen_range(1..=4usize),
    );
    let cut = rng.gen_bool(1.0 / 3.0);
    let gain = move |rng: &mut rand::rngs::StdRng| {
        if cut && rng.gen_bool(0.1) {
            0.0
        } else {
            10.0_f64.powf(rng.gen_range(-13.0..-9.0))
        }
    };
    let draws: Vec<f64> = (0..u * s * n).map(|_| gain(rng)).collect();
    let gains = if rng.gen_bool(0.5) {
        ChannelGains::shared_from_fn(u, s, n, |uu, ss| draws[uu.index() * s + ss.index()])
    } else {
        ChannelGains::from_fn(u, s, n, |uu, ss, jj| {
            draws[(uu.index() * s + ss.index()) * n + jj.index()]
        })
    }
    .unwrap();
    let users = (0..u)
        .map(|_| mec_system::UserSpec {
            task: Task::new(
                Bits::from_kilobytes(rng.gen_range(100.0..500.0)),
                Cycles::from_mega(rng.gen_range(300.0..4000.0)),
            )
            .unwrap(),
            device: DeviceProfile::paper_default(),
            preferences: UserPreferences::new(rng.gen_range(0.1..0.9)).unwrap(),
            lambda: ProviderPreference::new(rng.gen_range(0.2..1.0)).unwrap(),
        })
        .collect();
    let mut scenario = Scenario::new(
        users,
        vec![ServerProfile::paper_default(); s],
        OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, n).unwrap(),
        gains,
        constants::DEFAULT_NOISE.to_watts(),
    )
    .unwrap();
    if rng.gen_bool(0.5) {
        let halo = (0..n * s)
            .map(|_| 10.0_f64.powf(rng.gen_range(-14.0..-10.0)))
            .collect();
        scenario.set_external_rx(Some(halo)).unwrap();
    }
    scenario
}

/// The descent's scan as it ran before the server gate: phase 1 bounds
/// every candidate one by one, then phase 2 swaps — the reference the
/// gated [`descent`](tsajs::shard::descent) must match field for field.
fn per_candidate_descent(
    inc: &mut mec_system::IncrementalObjective<'_>,
    budget: u64,
    floor: f64,
) -> tsajs::shard::Descent {
    use mec_system::MoveDesc;
    let scenario = inc.scenario();
    let mut current = inc.current();
    let (mut spent, mut bounded) = (0u64, 0u64);
    let (mut changed, mut exhausted, mut improved) = (false, false, true);
    let n = scenario.num_subchannels();
    let total_slots = scenario.num_servers() * n;
    let slot = |p: usize| (ServerId::new(p / n), SubchannelId::new(p % n));
    'descent: while improved && spent < budget {
        improved = false;
        for u in scenario.user_ids() {
            let slots = scenario
                .server_ids()
                .flat_map(|s| SubchannelId::all(n).map(move |j| Some((s, j))));
            for target in std::iter::once(None).chain(slots) {
                if spent >= budget {
                    exhausted = true;
                    break 'descent;
                }
                if inc.assignment().slot(u) == target {
                    continue;
                }
                spent += 1;
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
        for p in 0..total_slots {
            for q in (p + 1)..total_slots {
                if spent >= budget {
                    exhausted = true;
                    break 'descent;
                }
                let ((s1, j1), (s2, j2)) = (slot(p), slot(q));
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
    tsajs::shard::Descent {
        changed,
        spent,
        exhausted: exhausted || (improved && spent >= budget),
        bounded,
    }
}

/// `scenario` with user 0's links cut to zero, and `x` with user 0 on
/// slot `(0, 0)`: a state whose objective is `−∞`.
fn cut_link(scenario: &Scenario, x: &Assignment) -> (Scenario, Assignment) {
    let gains = ChannelGains::from_fn(
        scenario.num_users(),
        scenario.num_servers(),
        scenario.num_subchannels(),
        |u, s, j| {
            if u.index() == 0 {
                0.0
            } else {
                scenario.gains().gain(u, s, j)
            }
        },
    )
    .unwrap();
    let mut dead = Scenario::new(
        scenario.users().to_vec(),
        scenario.servers().to_vec(),
        *scenario.ofdma(),
        gains,
        scenario.noise(),
    )
    .unwrap();
    dead.set_external_rx(scenario.external_rx().map(<[f64]>::to_vec))
        .unwrap();
    let mut x = x.clone();
    if !x.is_offloaded(UserId::new(0)) {
        x.assign_evicting(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
            .unwrap();
    }
    (dead, x)
}

/// Runs the gated descent and the reference scan from `start` under every
/// floor and budget and requires equal outcomes, assignments and
/// objective bits.
fn descents_agree(scenario: &Scenario, start: &Assignment, budgets: &[u64]) -> Result<(), String> {
    use mec_system::IncrementalObjective;
    for floor in [0.0, 1e-12, 1e-3] {
        for &budget in budgets {
            let mut gated = IncrementalObjective::new(scenario, start.clone()).unwrap();
            let mut reference = IncrementalObjective::new(scenario, start.clone()).unwrap();
            let got = tsajs::shard::descent(&mut gated, budget, floor);
            let want = per_candidate_descent(&mut reference, budget, floor);
            if got != want
                || gated.assignment() != reference.assignment()
                || gated.current().to_bits() != reference.current().to_bits()
            {
                return Err(format!(
                    "floor {floor}, budget {budget}: gated {got:?} at {} vs reference {want:?} at {}",
                    gated.current(),
                    reference.current()
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The server gate settles only blocks the per-candidate scan would
    /// settle: from all-local, a random feasible, a settled and a
    /// non-finite start, under floors {0, 1e-12, 1e-3} and budgets {1, 2,
    /// 7, one that ends inside a server block, ample}, the gated descent
    /// returns the reference scan's `Descent`, decision and objective
    /// bits.
    #[test]
    fn gated_descent_matches_the_per_candidate_scan(seed in 0u64..1_000_000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = gate_scenario(&mut rng);
        let n = scenario.num_subchannels() as u64;
        let inside = n * rng.gen_range(1..=3 * scenario.num_servers() as u64) + n.div_ceil(2);
        let budgets = [1, 2, 7, inside, 20_000];
        let random = mec_conformance::fuzz::assignment(&scenario, 0.7, seed);
        let mut settle =
            mec_system::IncrementalObjective::new(&scenario, random.clone()).unwrap();
        per_candidate_descent(&mut settle, 20_000, 1e-12);
        let settled = settle.assignment().clone();
        for start in [Assignment::all_local(&scenario), random.clone(), settled] {
            let outcome = descents_agree(&scenario, &start, &budgets);
            prop_assert!(outcome.is_ok(), "seed {}: {:?}", seed, outcome);
        }
        let (dead, x) = cut_link(&scenario, &random);
        let outcome = descents_agree(&dead, &x, &budgets);
        prop_assert!(outcome.is_ok(), "seed {} (cut link): {:?}", seed, outcome);
    }
}
