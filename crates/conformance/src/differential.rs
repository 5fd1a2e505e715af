//! Differential and metamorphic checks across the whole solver zoo.
//!
//! On instances small enough for [`ExhaustiveSolver`] the true optimum
//! is known, so solver quality stops being a matter of taste and becomes
//! a partial order that must hold exactly:
//!
//! ```text
//! independent_bound ≥ assignment_bound ≥ exhaustive
//!     ≥ { TTSA, hJTORA, LocalSearch, greedy, hungarian, random, all-local }
//! ```
//!
//! On top of that, two metamorphic transforms with known effect on the
//! optimum: relabeling users (invariant) and uniformly rescaling every
//! provider priority `λ_u` (scales `J*` by the factor, argmax preserved).

use mec_baselines::{
    max_weight_assignment, slot_values, upper_bound, AllLocalSolver, ExhaustiveSolver,
    GreedySolver, HJtoraSolver, LocalSearchSolver, RandomSolver,
};
use mec_system::{Assignment, Evaluator, IncrementalObjective, Scenario, Solution, Solver};
use mec_types::{ServerId, SubchannelId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsajs::{
    resolve_sharded, solve_sharded, temper, NeighborhoodKernel, ShardConfig, ShardOutcome,
    TemperingConfig, TsajsSolver, TtsaConfig,
};

/// An interference-free matching heuristic: assigns users to pairwise
/// distinct slots by maximum-weight bipartite matching over the same
/// optimistic per-slot values the upper bound uses, keeping only
/// positive-value matches, then scores the result under the *true*
/// (interference-coupled) objective. Feasible by construction, so the
/// exhaustive optimum always dominates it.
///
/// # Errors
///
/// Returns a description of the failure if the matched assignment cannot
/// be built (which would itself be a bug in the matching).
pub fn hungarian_solution(scenario: &Scenario) -> Result<(Assignment, f64), String> {
    let n = scenario.num_subchannels();
    let weights = slot_values(scenario);
    let (_, matching) = max_weight_assignment(&weights);
    let mut x = Assignment::all_local(scenario);
    for (u, slot) in matching.iter().enumerate() {
        if let Some(k) = slot {
            if weights[u][*k] > 0.0 {
                x.assign(
                    UserId::new(u),
                    ServerId::new(k / n),
                    SubchannelId::new(k % n),
                )
                .map_err(|e| format!("matching produced a colliding slot: {e}"))?;
            }
        }
    }
    let utility = Evaluator::new(scenario).objective(&x);
    Ok((x, utility))
}

/// Runs the full solver panel on one instance and asserts the partial
/// order, plus internal consistency of every run: each reported utility
/// must match a fresh re-evaluation of its assignment, and each
/// assignment must be feasible.
///
/// Returns the worst relative residual observed (consistency residuals
/// and the margin by which any heuristic approaches the optimum from
/// above, which must stay within tolerance).
///
/// # Errors
///
/// Returns a description of the first ordering or consistency violation,
/// or of a solver error.
pub fn check_partial_order(
    scenario: &Scenario,
    seed: u64,
    ttsa_budget: u64,
    tolerance: f64,
) -> Result<f64, String> {
    let bound = upper_bound(scenario);
    let optimum = ExhaustiveSolver::new()
        .solve(scenario)
        .map_err(|e| format!("exhaustive solve failed: {e}"))?;
    let scale = optimum.utility.abs().max(1.0);
    let slack = tolerance * scale;
    if bound.independent_bound + slack < bound.assignment_bound {
        return Err(format!(
            "independent bound {} below matching bound {}",
            bound.independent_bound, bound.assignment_bound
        ));
    }
    if bound.assignment_bound + slack < optimum.utility {
        return Err(format!(
            "matching bound {} below the exhaustive optimum {}",
            bound.assignment_bound, optimum.utility
        ));
    }

    let evaluator = Evaluator::new(scenario);
    let mut worst = 0.0f64;
    let mut audit = |name: &str, solution: Solution| -> Result<(), String> {
        solution
            .assignment
            .verify_feasible(scenario)
            .map_err(|e| format!("{name} returned an infeasible assignment: {e}"))?;
        let recomputed = evaluator.objective(&solution.assignment);
        let residual = (recomputed - solution.utility).abs() / scale;
        worst = worst.max(residual);
        if residual > tolerance {
            return Err(format!(
                "{name} reported {} but its assignment re-evaluates to \
                 {recomputed} (residual {residual:.3e})",
                solution.utility
            ));
        }
        let excess = (solution.utility - optimum.utility) / scale;
        worst = worst.max(excess.max(0.0));
        if excess > tolerance {
            return Err(format!(
                "{name} scored {} above the exhaustive optimum {}",
                solution.utility, optimum.utility
            ));
        }
        Ok(())
    };

    let ttsa_config = TtsaConfig::paper_default()
        .with_min_temperature(1e-2)
        .with_proposal_budget(ttsa_budget)
        .with_seed(seed);
    audit("TSAJS", {
        let mut s = TsajsSolver::new(ttsa_config);
        s.solve(scenario)
            .map_err(|e| format!("TSAJS failed: {e}"))?
    })?;
    // The tempering engine must obey the same order:
    // upper bounds ≥ exhaustive ≥ TSAJS-PT.
    audit("TSAJS-PT", {
        let mut s = TsajsSolver::new(ttsa_config)
            .with_tempering(TemperingConfig::paper_default().with_replicas(4));
        s.solve(scenario)
            .map_err(|e| format!("TSAJS-PT failed: {e}"))?
    })?;
    audit("hJTORA", {
        HJtoraSolver::new()
            .solve(scenario)
            .map_err(|e| format!("hJTORA failed: {e}"))?
    })?;
    audit("LocalSearch", {
        LocalSearchSolver::with_seed(seed)
            .solve(scenario)
            .map_err(|e| format!("LocalSearch failed: {e}"))?
    })?;
    audit("Greedy", {
        GreedySolver::new()
            .solve(scenario)
            .map_err(|e| format!("Greedy failed: {e}"))?
    })?;
    audit("Random", {
        RandomSolver::with_seed(seed)
            .solve(scenario)
            .map_err(|e| format!("Random failed: {e}"))?
    })?;
    audit("AllLocal", {
        AllLocalSolver::new()
            .solve(scenario)
            .map_err(|e| format!("AllLocal failed: {e}"))?
    })?;

    let (hungarian_x, hungarian_utility) = hungarian_solution(scenario)?;
    audit(
        "Hungarian",
        Solution {
            assignment: hungarian_x,
            utility: hungarian_utility,
            stats: Default::default(),
        },
    )?;
    Ok(worst)
}

/// Determinism check: the tempering engine must return bit-identical
/// results on a same-seed rerun and at 1, 2, 4 and 8 worker threads —
/// the worker pool is a wall-clock knob, never a semantic one.
///
/// Returns `0.0` (the check is exact; any divergence is a failure, not
/// a residual).
///
/// # Errors
///
/// Returns a description of the first divergence from the 1-worker
/// reference.
pub fn check_thread_independence(
    scenario: &Scenario,
    seed: u64,
    ttsa_budget: u64,
) -> Result<f64, String> {
    let base = TtsaConfig::paper_default()
        .with_min_temperature(1e-2)
        .with_proposal_budget(ttsa_budget)
        .with_seed(seed);
    let tempering = TemperingConfig::paper_default().with_replicas(4);
    let kernel = NeighborhoodKernel::new();
    let solve_at = |workers: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        temper(scenario, &tempering, &base, &kernel, &mut rng, workers)
    };
    let reference = solve_at(1);
    // Workers = 1 again is the same-seed rerun.
    for workers in [1usize, 2, 4, 8] {
        let outcome = solve_at(workers);
        if outcome.objective.to_bits() != reference.objective.to_bits() {
            return Err(format!(
                "objective diverges from the 1-worker reference: {} vs {} \
                 at {workers} workers",
                reference.objective, outcome.objective
            ));
        }
        if outcome.assignment != reference.assignment {
            return Err(format!(
                "assignment diverges from the 1-worker reference at \
                 {workers} workers despite equal objectives"
            ));
        }
        if outcome.proposals != reference.proposals || outcome.epochs != reference.epochs {
            return Err(format!(
                "search effort diverges from the 1-worker reference at \
                 {workers} workers: {}/{} proposals, {}/{} epochs",
                reference.proposals, outcome.proposals, reference.epochs, outcome.epochs
            ));
        }
    }
    Ok(0.0)
}

/// Conformance check for the sharded city-scale engine on small fuzzed
/// instances: the converged sharded objective must equal a monolithic
/// [`IncrementalObjective`] resync of the final assignment bit for bit,
/// the per-cluster objective sum must agree with that monolith within
/// tolerance (the `halo_residual`), the decomposition must be
/// bit-identical at 1 and 4 workers, and the final assignment must pass
/// the feasibility and KKT oracles.
///
/// Clusters are forced to single servers so every instance exercises the
/// maximum amount of cross-cluster halo exchange the topology allows.
///
/// Returns the worst relative residual observed across the halo
/// accounting and the oracle checks.
///
/// # Errors
///
/// Returns a description of the first equivalence or oracle violation,
/// or of a solver error.
pub fn check_shard_equivalence(
    scenario: &Scenario,
    seed: u64,
    tolerance: f64,
) -> Result<f64, String> {
    let config = quick_shard_config(seed);
    let outcome =
        solve_sharded(scenario, &config, 1).map_err(|e| format!("sharded solve failed: {e}"))?;
    let mut worst = outcome.halo_residual;
    if outcome.halo_residual > tolerance {
        return Err(format!(
            "per-cluster objective sum disagrees with the monolithic \
             resync: residual {:.3e}",
            outcome.halo_residual
        ));
    }
    let mono = IncrementalObjective::new(scenario, outcome.assignment.clone())
        .map_err(|e| format!("monolithic resync failed: {e}"))?
        .current();
    if outcome.objective.to_bits() != mono.to_bits() {
        return Err(format!(
            "sharded objective {} is not the monolithic resync {mono} \
             bit for bit",
            outcome.objective
        ));
    }
    // The worker pool must stay a wall-clock knob for the shard engine
    // too: same seed, more workers, bit-identical outcome.
    let wide =
        solve_sharded(scenario, &config, 4).map_err(|e| format!("sharded solve failed: {e}"))?;
    if wide.objective.to_bits() != outcome.objective.to_bits()
        || wide.assignment != outcome.assignment
        || wide.proposals != outcome.proposals
    {
        return Err(format!(
            "sharded outcome diverges between 1 and 4 workers: {} vs {}",
            outcome.objective, wide.objective
        ));
    }
    let oracle = crate::oracle::Oracle::with_tolerance(tolerance);
    worst = worst.max(
        oracle
            .check_feasibility(scenario, &outcome.assignment)
            .map_err(|e| format!("sharded assignment fails feasibility: {e}"))?,
    );
    worst = worst.max(
        oracle
            .check_kkt(scenario, &outcome.assignment)
            .map_err(|e| format!("sharded assignment fails the KKT oracle: {e}"))?,
    );
    Ok(worst)
}

/// The small, fast shard configuration shared by every shard invariant:
/// single-server clusters (maximum halo exchange), short tempered
/// ladders, tight budgets.
fn quick_shard_config(seed: u64) -> ShardConfig {
    ShardConfig::paper_default()
        .with_seed(seed)
        .with_cluster_size(1)
        .with_max_sweeps(4)
        .with_ttsa(
            TtsaConfig::paper_default()
                .with_min_temperature(1e-1)
                .with_proposal_budget(400),
        )
        .with_tempering(
            TemperingConfig::paper_default()
                .with_replicas(2)
                .with_rounds(2),
        )
}

/// Conformance check for the warm shard path (ISSUE 10): warm-resolving
/// from an **empty** previous decision (zero users, all arrivals) must
/// be bit-for-bit identical to the cold sharded solve — assignment,
/// objective bits, proposal count and sweeps all equal — and the warm
/// path itself must stay bit-identical between 1 and 4 workers. The
/// warm assignment must also pass the feasibility and KKT oracles.
///
/// This is the conformance anchor for `ShardSolver::resolve_from`: the
/// warm path is an *optimization*, never a different solver.
///
/// Returns the worst relative residual observed.
///
/// # Errors
///
/// Returns a description of the first equivalence or oracle violation,
/// or of a solver error.
pub fn check_shard_warm_equivalence(
    scenario: &Scenario,
    seed: u64,
    tolerance: f64,
) -> Result<f64, String> {
    let config = quick_shard_config(seed);
    let cold =
        solve_sharded(scenario, &config, 1).map_err(|e| format!("cold sharded solve: {e}"))?;
    let empty =
        ShardOutcome::empty(scenario, &config).map_err(|e| format!("empty shard outcome: {e}"))?;
    let all_arrivals = vec![None; scenario.num_users()];
    let warm = resolve_sharded(scenario, &config, 1, &empty, &all_arrivals)
        .map_err(|e| format!("warm sharded solve: {e}"))?;
    if warm.assignment != cold.assignment || warm.objective.to_bits() != cold.objective.to_bits() {
        return Err(format!(
            "warm resolve from an empty prior diverges from the cold \
             solve: {} vs {}",
            warm.objective, cold.objective
        ));
    }
    if warm.proposals != cold.proposals || warm.sweeps != cold.sweeps {
        return Err(format!(
            "warm resolve from an empty prior spends differently than the \
             cold solve: {} vs {} proposals, {} vs {} sweeps",
            warm.proposals, cold.proposals, warm.sweeps, cold.sweeps
        ));
    }
    if warm.reused_clusters != 0 {
        return Err(format!(
            "warm resolve from an empty prior claims {} reused clusters",
            warm.reused_clusters
        ));
    }
    let wide = resolve_sharded(scenario, &config, 4, &empty, &all_arrivals)
        .map_err(|e| format!("warm sharded solve: {e}"))?;
    if wide.assignment != warm.assignment || wide.objective.to_bits() != warm.objective.to_bits() {
        return Err(format!(
            "warm resolve diverges between 1 and 4 workers: {} vs {}",
            warm.objective, wide.objective
        ));
    }
    let mut worst = warm.halo_residual;
    if warm.halo_residual > tolerance {
        return Err(format!(
            "warm halo accounting residual {:.3e} above tolerance",
            warm.halo_residual
        ));
    }
    let oracle = crate::oracle::Oracle::with_tolerance(tolerance);
    worst = worst.max(
        oracle
            .check_feasibility(scenario, &warm.assignment)
            .map_err(|e| format!("warm assignment fails feasibility: {e}"))?,
    );
    worst = worst.max(
        oracle
            .check_kkt(scenario, &warm.assignment)
            .map_err(|e| format!("warm assignment fails the KKT oracle: {e}"))?,
    );
    Ok(worst)
}

/// Conformance check for the pipelined Jacobi-with-aging reconciler
/// (ISSUE 10): at each of three fixed config seeds (11/23/47) the
/// pipelined solve must be bit-identical — assignment, objective bits,
/// proposal count — across 1, 2 and 8 workers, its reported objective
/// must equal a monolithic [`IncrementalObjective`] resync bit for bit,
/// and the halo accounting residual must stay within tolerance.
///
/// Returns the worst halo residual observed across the three seeds.
///
/// # Errors
///
/// Returns a description of the first determinism or accounting
/// violation, or of a solver error.
pub fn check_pipelined_halo_determinism(
    scenario: &Scenario,
    tolerance: f64,
) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for config_seed in [11u64, 23, 47] {
        let config = quick_shard_config(config_seed);
        let reference = solve_sharded(scenario, &config, 1)
            .map_err(|e| format!("pipelined solve (seed {config_seed}): {e}"))?;
        for workers in [2usize, 8] {
            let outcome = solve_sharded(scenario, &config, workers)
                .map_err(|e| format!("pipelined solve (seed {config_seed}): {e}"))?;
            if outcome.assignment != reference.assignment
                || outcome.objective.to_bits() != reference.objective.to_bits()
                || outcome.proposals != reference.proposals
            {
                return Err(format!(
                    "pipelined outcome (seed {config_seed}) diverges between \
                     1 and {workers} workers: {} vs {}",
                    reference.objective, outcome.objective
                ));
            }
        }
        let mono = IncrementalObjective::new(scenario, reference.assignment.clone())
            .map_err(|e| format!("monolithic resync failed: {e}"))?
            .current();
        if reference.objective.to_bits() != mono.to_bits() {
            return Err(format!(
                "pipelined objective {} (seed {config_seed}) is not the \
                 monolithic resync {mono} bit for bit",
                reference.objective
            ));
        }
        if reference.halo_residual > tolerance {
            return Err(format!(
                "pipelined halo residual {:.3e} (seed {config_seed}) above \
                 tolerance",
                reference.halo_residual
            ));
        }
        worst = worst.max(reference.halo_residual);
    }
    Ok(worst)
}

/// Metamorphic check: relabeling users must leave the optimal objective
/// unchanged, and the permuted optimum mapped back to the original ids
/// must achieve the original optimum.
///
/// # Errors
///
/// Returns a description of the first residual above tolerance.
pub fn check_permutation(scenario: &Scenario, seed: u64, tolerance: f64) -> Result<f64, String> {
    let num_users = scenario.num_users();
    let mut perm: Vec<UserId> = (0..num_users).map(UserId::new).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..num_users).rev() {
        let j = rng.gen_range(0..i + 1);
        perm.swap(i, j);
    }
    let permuted = scenario
        .permute_users(&perm)
        .map_err(|e| format!("permute_users failed: {e}"))?;
    let original_opt = ExhaustiveSolver::new()
        .solve(scenario)
        .map_err(|e| format!("exhaustive solve failed: {e}"))?;
    let permuted_opt = ExhaustiveSolver::new()
        .solve(&permuted)
        .map_err(|e| format!("exhaustive solve on the permuted instance failed: {e}"))?;
    let scale = original_opt.utility.abs().max(1.0);
    let mut worst = (original_opt.utility - permuted_opt.utility).abs() / scale;
    if worst > tolerance {
        return Err(format!(
            "optimal objective moved under relabeling: {} vs {}",
            original_opt.utility, permuted_opt.utility
        ));
    }
    // Map the permuted argmax back to original user ids and re-score it.
    let mut back = Assignment::all_local(scenario);
    for (v, &old) in perm.iter().enumerate() {
        if let Some((s, j)) = permuted_opt.assignment.slot(UserId::new(v)) {
            back.assign(old, s, j)
                .map_err(|e| format!("mapped-back argmax is infeasible: {e}"))?;
        }
    }
    let mapped = Evaluator::new(scenario).objective(&back);
    let residual = (mapped - original_opt.utility).abs() / scale;
    worst = worst.max(residual);
    if residual > tolerance {
        return Err(format!(
            "mapped-back argmax scores {mapped}, not the optimum {}",
            original_opt.utility
        ));
    }
    Ok(worst)
}

/// Metamorphic check: uniformly rescaling every `λ_u` by `factor` must
/// scale the optimal objective by `factor` and leave the argmax
/// optimal — the rescaled optimum's decision must still achieve the
/// original optimum on the original instance, and vice versa.
///
/// # Errors
///
/// Returns a description of the first residual above tolerance.
pub fn check_lambda_rescale(
    scenario: &Scenario,
    factor: f64,
    tolerance: f64,
) -> Result<f64, String> {
    let scaled = scenario
        .with_scaled_lambdas(factor)
        .map_err(|e| format!("with_scaled_lambdas failed: {e}"))?;
    let original_opt = ExhaustiveSolver::new()
        .solve(scenario)
        .map_err(|e| format!("exhaustive solve failed: {e}"))?;
    let scaled_opt = ExhaustiveSolver::new()
        .solve(&scaled)
        .map_err(|e| format!("exhaustive solve on the rescaled instance failed: {e}"))?;
    let scale = original_opt.utility.abs().max(1.0);
    let mut worst = (scaled_opt.utility - factor * original_opt.utility).abs() / (factor * scale);
    if worst > tolerance {
        return Err(format!(
            "optimum did not scale linearly: {} vs {factor}·{}",
            scaled_opt.utility, original_opt.utility
        ));
    }
    // Argmax preservation, robust to ties: each instance's optimal
    // decision must be optimal for the other.
    let cross = Evaluator::new(scenario).objective(&scaled_opt.assignment);
    let residual = (cross - original_opt.utility).abs() / scale;
    worst = worst.max(residual);
    if residual > tolerance {
        return Err(format!(
            "rescaled argmax scores {cross} on the original instance, \
             not the optimum {}",
            original_opt.utility
        ));
    }
    let cross = Evaluator::new(&scaled).objective(&original_opt.assignment);
    let residual = (cross - scaled_opt.utility).abs() / (factor * scale);
    worst = worst.max(residual);
    if residual > tolerance {
        return Err(format!(
            "original argmax scores {cross} on the rescaled instance, \
             not the optimum {}",
            scaled_opt.utility
        ));
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{self, FuzzConfig};

    #[test]
    fn the_partial_order_holds_on_fuzzed_instances() {
        for seed in 0..8 {
            let sc = fuzz::scenario(&FuzzConfig::smoke(), seed);
            let worst = check_partial_order(&sc, seed, 1500, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(worst <= 1e-9, "seed {seed}: residual {worst}");
        }
    }

    #[test]
    fn hungarian_heuristic_is_feasible_and_dominated_by_the_optimum() {
        for seed in 0..10 {
            let sc = fuzz::scenario(&FuzzConfig::smoke(), seed);
            let (x, utility) = hungarian_solution(&sc).unwrap();
            x.verify_feasible(&sc).unwrap();
            let opt = ExhaustiveSolver::new().solve(&sc).unwrap();
            assert!(utility <= opt.utility + 1e-9 * opt.utility.abs().max(1.0));
        }
    }

    #[test]
    fn sharded_solving_matches_the_monolith_on_fuzzed_instances() {
        for seed in 0..12 {
            let sc = fuzz::scenario(&FuzzConfig::smoke(), seed);
            let worst = check_shard_equivalence(&sc, seed, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(worst <= 1e-9, "seed {seed}: residual {worst}");
        }
    }

    #[test]
    fn warm_sharded_solving_matches_the_cold_path_on_fuzzed_instances() {
        for seed in 0..4 {
            let sc = fuzz::scenario(&FuzzConfig::smoke(), seed);
            let worst = check_shard_warm_equivalence(&sc, seed, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(worst <= 1e-9, "seed {seed}: residual {worst}");
        }
    }

    #[test]
    fn pipelined_reconciler_is_deterministic_on_fuzzed_instances() {
        for seed in 0..4 {
            let sc = fuzz::scenario(&FuzzConfig::smoke(), seed);
            let worst = check_pipelined_halo_determinism(&sc, 1e-9)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(worst <= 1e-9, "seed {seed}: residual {worst}");
        }
    }

    #[test]
    fn metamorphic_transforms_hold_on_fuzzed_instances() {
        for seed in 0..6 {
            let sc = fuzz::scenario(&FuzzConfig::smoke(), seed);
            check_permutation(&sc, seed, 1e-9).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            check_lambda_rescale(&sc, 0.5, 1e-9).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
