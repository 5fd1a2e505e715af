//! The TTSA loop (Algorithm 1).

use crate::config::{Cooling, InitialSolution, InitialTemperature, TtsaConfig};
use crate::moves::NeighborhoodKernel;
use crate::trace::{EpochRecord, SearchTrace};
use mec_system::{Assignment, IncrementalObjective, Scenario};
use mec_types::{ServerId, UserId};
use rand::Rng;

/// The result of one annealing run.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Best decision found.
    pub assignment: Assignment,
    /// Its objective `J*(X)`.
    pub objective: f64,
    /// Total neighborhood proposals evaluated.
    pub proposals: u64,
    /// Temperature epochs executed.
    pub epochs: u64,
    /// Per-epoch trace, when requested.
    pub trace: Option<SearchTrace>,
}

/// Generates the initial feasible solution (Algorithm 1, line 5).
pub(crate) fn initial_solution<R: Rng + ?Sized>(
    scenario: &Scenario,
    policy: InitialSolution,
    rng: &mut R,
) -> Assignment {
    let mut x = Assignment::all_local(scenario);
    if let InitialSolution::RandomFeasible {
        offload_probability,
    } = policy
    {
        for u in 0..scenario.num_users() {
            if rng.gen_bool(offload_probability) {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                if let Some(j) = x.free_subchannel(s) {
                    x.assign(UserId::new(u), s, j)
                        .expect("slot was reported free");
                }
            }
        }
    }
    x
}

/// Runs threshold-triggered simulated annealing (Algorithm 1) on a
/// scenario and returns the best decision found.
///
/// The caller supplies the RNG so repeated runs can share or fork seeds;
/// [`TsajsSolver`](crate::TsajsSolver) wraps this with the [`Solver`]
/// trait.
///
/// # Panics
///
/// Panics if `config` fails [`TtsaConfig::validate`]; validate before
/// calling when the configuration is untrusted.
///
/// [`Solver`]: mec_system::Solver
pub fn anneal<R: Rng + ?Sized>(
    scenario: &Scenario,
    config: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    rng: &mut R,
) -> AnnealOutcome {
    let initial = initial_solution(scenario, config.initial_solution, rng);
    anneal_from(scenario, config, kernel, rng, initial)
}

/// Proposal budget between full re-synchronizations of the incremental
/// objective state (bounds floating-point drift; matches
/// `LocalSearchSolver::RESYNC_INTERVAL`). Checked at epoch boundaries.
pub(crate) const RESYNC_INTERVAL: u64 = 4_096;

/// The initial temperature `T₀` (Algorithm 1, line 3).
pub(crate) fn resolve_initial_temperature(config: &TtsaConfig, scenario: &Scenario) -> f64 {
    match config.initial_temperature {
        InitialTemperature::SubchannelCount => scenario.num_subchannels() as f64,
        InitialTemperature::Fixed(t) => t,
    }
}

/// The accepted-worse threshold `maxCount` for the configured cooling rule
/// (`u64::MAX` disables the trigger for plain geometric cooling).
pub(crate) fn resolve_max_count(config: &TtsaConfig) -> u64 {
    match config.cooling {
        Cooling::ThresholdTriggered {
            max_count_factor, ..
        } => (max_count_factor * config.inner_iterations as f64).ceil() as u64,
        Cooling::Geometric { .. } => u64::MAX,
    }
}

/// One annealing chain's walk state: the incremental objective, the
/// incumbent/best pair, and the counters that drive cooling and drift
/// control. [`anneal_from`] owns exactly one; the tempering engine owns
/// one per replica.
#[derive(Debug)]
pub(crate) struct ChainState<'a> {
    pub(crate) inc: IncrementalObjective<'a>,
    pub(crate) current_obj: f64,
    pub(crate) best: Assignment,
    pub(crate) best_obj: f64,
    /// Accepted-worse counter (Algorithm 1, line 4).
    pub(crate) count: u64,
    pub(crate) proposals: u64,
    pub(crate) last_resync: u64,
}

impl<'a> ChainState<'a> {
    /// Builds a chain seeded with `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not fit the scenario's geometry.
    pub(crate) fn from_initial(scenario: &'a Scenario, initial: Assignment) -> Self {
        let inc = IncrementalObjective::new(scenario, initial)
            .expect("warm-start decision must fit the scenario");
        let current_obj = inc.current();
        let best = inc.assignment().clone();
        Self {
            inc,
            current_obj,
            best,
            best_obj: current_obj,
            count: 0,
            proposals: 0,
            last_resync: 0,
        }
    }
}

/// Per-epoch acceptance counters, for tracing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpochStats {
    pub(crate) accepted_worse: u32,
    pub(crate) accepted_better: u32,
}

/// Runs one temperature epoch (Algorithm 1, lines 9-25):
/// `config.inner_iterations` proposal steps at `temperature`, followed by
/// the epoch-boundary drift-control resync.
///
/// Each step draws one neighbor, prices it through the speculative
/// [`IncrementalObjective::score`] path (which replays the apply-path
/// arithmetic bit-exactly without touching the state, so a rejected move
/// costs no mutation, journaling or undo) and judges it: an improving
/// move is accepted outright, otherwise one uniform is drawn for the
/// Metropolis test (lines 20-22). Only an accepted move is applied and
/// committed. This draw order — one move proposal, then a uniform only on
/// the Metropolis branch — is the seeded-trajectory contract shared by
/// the single chain and every tempering replica.
pub(crate) fn run_epoch<R: Rng + ?Sized>(
    scenario: &Scenario,
    config: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    temperature: f64,
    state: &mut ChainState<'_>,
    rng: &mut R,
) -> EpochStats {
    let mut stats = EpochStats::default();
    for _ in 0..config.inner_iterations {
        let (mv, _) = kernel.propose_move(scenario, state.inc.assignment(), rng);
        let candidate_obj = state.inc.score(&mv);
        state.proposals += 1;
        let delta = candidate_obj - state.current_obj;
        if delta > 0.0 {
            state.inc.apply(&mv);
            state.inc.commit();
            state.current_obj = candidate_obj;
            stats.accepted_better += 1;
            if state.current_obj > state.best_obj {
                state.best.clone_from(state.inc.assignment());
                state.best_obj = state.current_obj;
            }
        } else if (delta / temperature).exp() > rng.gen::<f64>() {
            // Metropolis acceptance of a worsening move (line 20-22).
            state.inc.apply(&mv);
            state.inc.commit();
            state.current_obj = candidate_obj;
            state.count += 1;
            stats.accepted_worse += 1;
        }
    }

    // Drift control: re-synchronize the incremental sums against the
    // assignment to discard the floating-point drift accumulated by the
    // accepted in-place updates (~ulp per accepted move; the equivalence
    // property test bounds it below 1e-9 relative over long walks).
    // Epochs are short, so resyncing each one would cost more than the
    // proposals it guards — every `RESYNC_INTERVAL` proposals matches the
    // LocalSearch baseline's policy.
    if state.proposals - state.last_resync >= RESYNC_INTERVAL {
        state.inc.resync();
        state.current_obj = state.inc.current();
        state.last_resync = state.proposals;
    }
    stats
}

/// Applies one cooling step (Algorithm 1, lines 26-30) to `temperature`
/// and the accepted-worse counter; returns whether the threshold trigger
/// fired.
pub(crate) fn apply_cooling(
    cooling: Cooling,
    max_count: u64,
    temperature: &mut f64,
    count: &mut u64,
) -> bool {
    match cooling {
        Cooling::ThresholdTriggered {
            alpha_slow,
            alpha_fast,
            ..
        } => {
            if *count < max_count {
                *temperature *= alpha_slow;
                false
            } else {
                *temperature *= alpha_fast;
                *count = 0;
                true
            }
        }
        Cooling::Geometric { alpha } => {
            *temperature *= alpha;
            false
        }
    }
}

/// [`anneal`] with an explicit starting decision (warm start): the
/// incremental re-scheduling path, where the previous epoch's schedule
/// seeds the walk and a tight [`proposal_budget`] makes the refresh
/// cheap.
///
/// # Panics
///
/// As [`anneal`]; additionally if `initial` does not fit the scenario's
/// geometry.
///
/// [`proposal_budget`]: TtsaConfig::proposal_budget
pub fn anneal_from<R: Rng + ?Sized>(
    scenario: &Scenario,
    config: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    rng: &mut R,
    initial: Assignment,
) -> AnnealOutcome {
    config
        .validate()
        .expect("TtsaConfig must be valid; call validate() first");

    // Line 3: T ← N (or an explicit override).
    let mut temperature = resolve_initial_temperature(config, scenario);
    let max_count = resolve_max_count(config);

    // Line 5-6: the (possibly warm) initial feasible solution, held as
    // incremental delta-evaluation state: each proposal below costs
    // O(S · affected subchannels) instead of a clone plus a full O(T·S)
    // re-evaluation.
    let mut state = ChainState::from_initial(scenario, initial);

    let mut epochs: u64 = 0;
    let mut trace = config.record_trace.then(SearchTrace::default);

    // Line 7: outer temperature loop (optionally capped by the anytime
    // proposal budget).
    while temperature > config.min_temperature
        && config
            .proposal_budget
            .is_none_or(|cap| state.proposals < cap)
    {
        // Lines 9-25: L proposals at this temperature.
        let stats = run_epoch(scenario, config, kernel, temperature, &mut state, rng);

        // Lines 26-30: threshold-triggered cooling.
        let trigger_fired = apply_cooling(
            config.cooling,
            max_count,
            &mut temperature,
            &mut state.count,
        );
        epochs += 1;

        if let Some(trace) = trace.as_mut() {
            trace.epochs.push(EpochRecord {
                temperature,
                current_objective: state.current_obj,
                best_objective: state.best_obj,
                accepted_worse: stats.accepted_worse,
                accepted_better: stats.accepted_better,
                trigger_fired,
            });
        }
    }

    // The all-local decision (J = 0) is always feasible; never return a
    // worse-than-doing-nothing schedule even if the walk never crossed it.
    if state.best_obj < 0.0 {
        state.best = Assignment::all_local(scenario);
        state.best_obj = 0.0;
    }

    AnnealOutcome {
        assignment: state.best,
        objective: state.best_obj,
        proposals: state.proposals,
        epochs,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_radio::{ChannelGains, OfdmaConfig};
    use mec_system::{Evaluator, UserSpec};
    use mec_types::{Cycles, Hertz, ServerProfile, Watts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario(users: usize, servers: usize, subchannels: usize, gain: f64) -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
            vec![ServerProfile::paper_default(); servers],
            OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
            ChannelGains::uniform(users, servers, subchannels, gain).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    /// A fast config for tests (fewer epochs than the paper's T_min=1e-9).
    fn quick_config() -> TtsaConfig {
        TtsaConfig::paper_default().with_min_temperature(1e-3)
    }

    #[test]
    fn finds_positive_utility_on_good_channels() {
        let sc = scenario(4, 2, 2, 1e-10);
        let mut rng = StdRng::seed_from_u64(0);
        let out = anneal(&sc, &quick_config(), &NeighborhoodKernel::new(), &mut rng);
        assert!(out.objective > 0.0, "got {}", out.objective);
        out.assignment.verify_feasible(&sc).unwrap();
        assert!(out.proposals > 0);
        assert!(out.epochs > 0);
    }

    #[test]
    fn keeps_everyone_local_on_terrible_channels() {
        // Channels so bad that offloading always loses: the best decision
        // is X = 0 with objective 0.
        let sc = scenario(3, 2, 2, 1e-17);
        let mut rng = StdRng::seed_from_u64(1);
        let out = anneal(&sc, &quick_config(), &NeighborhoodKernel::new(), &mut rng);
        assert_eq!(out.objective, 0.0);
        assert_eq!(out.assignment.num_offloaded(), 0);
    }

    #[test]
    fn best_objective_dominates_initial_solutions() {
        let sc = scenario(6, 3, 2, 1e-10);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = initial_solution(
                &sc,
                InitialSolution::RandomFeasible {
                    offload_probability: 0.5,
                },
                &mut rng,
            );
            let init_obj = Evaluator::new(&sc).objective(&init);
            let mut rng = StdRng::seed_from_u64(seed);
            let out = anneal(&sc, &quick_config(), &NeighborhoodKernel::new(), &mut rng);
            assert!(out.objective >= init_obj - 1e-12);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let sc = scenario(5, 2, 2, 1e-10);
        let cfg = quick_config();
        let kernel = NeighborhoodKernel::new();
        let a = anneal(&sc, &cfg, &kernel, &mut StdRng::seed_from_u64(9));
        let b = anneal(&sc, &cfg, &kernel, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.proposals, b.proposals);
    }

    #[test]
    fn trace_records_every_epoch_and_monotone_best() {
        let sc = scenario(4, 2, 2, 1e-10);
        let cfg = quick_config().with_trace();
        let mut rng = StdRng::seed_from_u64(2);
        let out = anneal(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng);
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.len() as u64, out.epochs);
        // Best objective is non-decreasing and temperatures non-increasing.
        let mut prev_best = f64::NEG_INFINITY;
        let mut prev_temp = f64::INFINITY;
        for e in &trace.epochs {
            assert!(e.best_objective >= prev_best);
            assert!(e.temperature <= prev_temp);
            prev_best = e.best_objective;
            prev_temp = e.temperature;
        }
        assert_eq!(trace.final_best(), Some(out.objective));
    }

    #[test]
    fn threshold_trigger_cools_faster_than_plain_slow_schedule() {
        // With a trigger threshold of ~0 every epoch fires the fast rate;
        // the run must finish in fewer epochs than the slow-only schedule.
        let sc = scenario(4, 2, 2, 1e-10);
        let base = quick_config();
        let fast_cfg = base.with_cooling(Cooling::ThresholdTriggered {
            alpha_slow: 0.97,
            alpha_fast: 0.90,
            max_count_factor: 0.001,
        });
        let slow_cfg = base.with_cooling(Cooling::Geometric { alpha: 0.97 });
        let kernel = NeighborhoodKernel::new();
        let fast = anneal(&sc, &fast_cfg, &kernel, &mut StdRng::seed_from_u64(3));
        let slow = anneal(&sc, &slow_cfg, &kernel, &mut StdRng::seed_from_u64(3));
        assert!(
            fast.epochs < slow.epochs,
            "fast {} vs slow {}",
            fast.epochs,
            slow.epochs
        );
    }

    #[test]
    fn geometric_cooling_epoch_count_is_exact() {
        // T0 = N = 2; epochs = ceil(log(Tmin/T0)/log(alpha)).
        let sc = scenario(2, 2, 2, 1e-10);
        let cfg = quick_config().with_cooling(Cooling::Geometric { alpha: 0.5 });
        let mut rng = StdRng::seed_from_u64(4);
        let out = anneal(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng);
        // 2 * 0.5^k <= 1e-3 → k >= log2(2000) ≈ 10.97 → 11 epochs.
        assert_eq!(out.epochs, 11);
        assert_eq!(out.proposals, 11 * 30);
    }

    #[test]
    fn warm_start_runs_from_a_given_decision() {
        let sc = scenario(5, 2, 2, 1e-10);
        // Seed the walk with a hand-built decision and a tiny budget: the
        // outcome must never fall below the warm start's own objective.
        let mut warm = Assignment::all_local(&sc);
        warm.assign(
            mec_types::UserId::new(0),
            mec_types::ServerId::new(0),
            mec_types::SubchannelId::new(0),
        )
        .unwrap();
        let warm_obj = Evaluator::new(&sc).objective(&warm);
        let cfg = quick_config().with_proposal_budget(30);
        let mut rng = StdRng::seed_from_u64(12);
        let out = anneal_from(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng, warm);
        assert!(out.objective >= warm_obj - 1e-12);
        out.assignment.verify_feasible(&sc).unwrap();
    }

    #[test]
    #[should_panic(expected = "fit the scenario")]
    fn warm_start_rejects_mismatched_decisions() {
        let sc = scenario(4, 2, 2, 1e-10);
        let wrong = Assignment::with_dims(9, 2, 2);
        let mut rng = StdRng::seed_from_u64(13);
        let _ = anneal_from(
            &sc,
            &quick_config(),
            &NeighborhoodKernel::new(),
            &mut rng,
            wrong,
        );
    }

    #[test]
    fn all_local_initial_solution_is_supported() {
        let sc = scenario(4, 2, 2, 1e-10);
        let cfg = quick_config().with_initial_solution(InitialSolution::AllLocal);
        let mut rng = StdRng::seed_from_u64(5);
        let out = anneal(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng);
        assert!(out.objective >= 0.0);
    }

    #[test]
    fn never_returns_worse_than_all_local() {
        // Terrible channels + a budget so tight the walk barely moves: the
        // outcome must still be the all-local fallback, not the negative
        // initial random solution.
        let sc = scenario(6, 2, 2, 1e-17);
        let cfg = quick_config().with_proposal_budget(1);
        let mut rng = StdRng::seed_from_u64(11);
        let out = anneal(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng);
        assert_eq!(out.objective, 0.0);
        assert_eq!(out.assignment.num_offloaded(), 0);
    }

    #[test]
    fn proposal_budget_caps_work() {
        let sc = scenario(5, 2, 2, 1e-10);
        let cfg = quick_config().with_proposal_budget(90);
        let mut rng = StdRng::seed_from_u64(7);
        let out = anneal(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng);
        // The loop stops at the end of the epoch that crossed the cap, so
        // the total is at most cap rounded up to a whole epoch (L = 30).
        assert!(out.proposals >= 90 && out.proposals < 90 + 30);
        out.assignment.verify_feasible(&sc).unwrap();
        // An uncapped run does strictly more work.
        let mut rng = StdRng::seed_from_u64(7);
        let full = anneal(&sc, &quick_config(), &NeighborhoodKernel::new(), &mut rng);
        assert!(full.proposals > out.proposals);
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn invalid_config_panics() {
        let sc = scenario(2, 2, 2, 1e-10);
        let cfg = quick_config().with_inner_iterations(0);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = anneal(&sc, &cfg, &NeighborhoodKernel::new(), &mut rng);
    }
}
