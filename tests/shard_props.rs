//! Property-based tests for the sharded engine's decomposition layer:
//! the seeded partitioner, the halo (cross-cluster per-`(subchannel,
//! server)` power totals) accounting, and worker-count independence.
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
