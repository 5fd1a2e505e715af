//! Golden determinism pins for the sharded city-scale solver, following
//! the pinning pattern of `tests/regression.rs`: concrete utilities for
//! fixed seeds, so any accidental change to the partitioner, the
//! per-cluster search streams, the halo accounting, or the reconciliation
//! descent shows up as a test failure rather than silently shifted
//! experiment results.
//!
//! If one of these fails after an *intentional* model change, update the
//! constants — and say so in the changelog, because `BENCH_shard.json`
//! and the EXPERIMENTS.md shard table shift with them.

use tsajs::TemperingConfig;
use tsajs_mec::prelude::*;

const TOL: f64 = 1e-9;

fn quick_shard(seed: u64) -> ShardConfig {
    ShardConfig::paper_default()
        .with_seed(seed)
        .with_cluster_size(3)
        .with_ttsa(TtsaConfig::paper_default().with_min_temperature(1e-2))
}

/// End-to-end pins for the sharded solver on three independent seeds at
/// U = 90 (the paper's dense regime, 3 clusters of 3 servers): covers
/// the partition rotation, each cluster's tempered stream, the halo
/// reconciliation epochs, and the monolithic re-score.
#[test]
fn shard_seeded_runs_are_pinned() {
    // (seed, utility, offloaded)
    #[allow(clippy::excessive_precision)]
    let pins: [(u64, f64, usize); 3] = [
        (11, 19.502_865_325_773_498_74, 26),
        (23, 15.724_348_432_938_290_54, 22),
        (47, 18.795_061_863_959_809_05, 26),
    ];
    for (seed, expected, offloaded) in pins {
        let params = ExperimentParams::paper_default()
            .with_users(90)
            .with_workload(Cycles::from_mega(2000.0));
        let sc = ScenarioGenerator::new(params).generate(seed).unwrap();
        let mut solver = ShardSolver::new(quick_shard(seed));
        let solution = solver.solve(&sc).unwrap();
        assert!(
            (solution.utility - expected).abs() < TOL,
            "shard seed {seed} moved: {} (expected {expected})",
            solution.utility
        );
        assert_eq!(
            solution.assignment.num_offloaded(),
            offloaded,
            "shard seed {seed} offload count moved"
        );
        solution.assignment.verify_feasible(&sc).unwrap();
        let outcome = solver.last_outcome().expect("outcome recorded");
        assert_eq!(outcome.clusters, 3, "seed {seed} cluster count moved");
        assert!(
            outcome.halo_residual <= TOL,
            "seed {seed} halo accounting broke: {}",
            outcome.halo_residual
        );
        // The reported utility is the monolithic re-score, bit for bit.
        let recomputed = Evaluator::new(&sc).objective(&solution.assignment);
        assert_eq!(
            solution.utility.to_bits(),
            recomputed.to_bits(),
            "seed {seed}: reported {} vs monolithic {recomputed}",
            solution.utility
        );
    }
}

/// One large-population pin (U = 10 000 on the paper's 9-server layout):
/// exercises the shared-gain storage path, the strongest-server user
/// attachment at scale, and the anytime budgets, while staying fast
/// enough for every CI run (the cold solves are proposal-budgeted).
#[test]
fn shard_large_population_run_is_pinned() {
    let params = ExperimentParams::paper_default()
        .with_users(10_000)
        .with_workload(Cycles::from_mega(2000.0));
    let sc = ScenarioGenerator::new(params).generate(11).unwrap();
    assert!(
        sc.gains().is_subchannel_shared(),
        "the generator must produce the shared (blocked) gain layout"
    );
    let cfg = ShardConfig::paper_default()
        .with_seed(11)
        .with_cluster_size(3)
        .with_max_sweeps(3)
        .with_ttsa(
            TtsaConfig::paper_default()
                .with_min_temperature(1e-2)
                .with_proposal_budget(5_000),
        )
        .with_tempering(TemperingConfig::paper_default().with_replicas(4));
    let mut solver = ShardSolver::new(cfg);
    let solution = solver.solve(&sc).unwrap();
    #[allow(clippy::excessive_precision)]
    let expected = 24.670_116_905_935_735_47;
    assert!(
        (solution.utility - expected).abs() < TOL,
        "shard U=10k moved: {} (expected {expected})",
        solution.utility
    );
    assert_eq!(solution.assignment.num_offloaded(), 27);
    solution.assignment.verify_feasible(&sc).unwrap();
    let outcome = solver.last_outcome().expect("outcome recorded");
    assert!(outcome.halo_residual <= TOL);
    let recomputed = Evaluator::new(&sc).objective(&solution.assignment);
    assert_eq!(
        solution.utility.to_bits(),
        recomputed.to_bits(),
        "U=10k: reported {} vs monolithic {recomputed}",
        solution.utility
    );
}
