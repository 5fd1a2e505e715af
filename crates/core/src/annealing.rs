//! The TTSA loop (Algorithm 1).

use crate::config::{Cooling, InitialSolution, InitialTemperature, TtsaConfig};
use crate::moves::{NeighborhoodKernel, Proposal};
use crate::trace::{EpochRecord, SearchTrace};
use mec_system::{Assignment, IncrementalObjective, ObjectiveTables, Scenario};
use mec_types::{ServerId, UserId};
use rand::Rng;
use std::sync::Arc;

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
    /// Builds a chain seeded with `initial` on `tables`, the scenario's
    /// shared [`ObjectiveTables`] pack.
    ///
    /// # Panics
    ///
    /// Panics if `initial` or the pack does not fit the scenario's
    /// geometry.
    pub(crate) fn from_initial(
        scenario: &'a Scenario,
        tables: Arc<ObjectiveTables>,
        initial: Assignment,
    ) -> Self {
        let inc = IncrementalObjective::with_tables(scenario, tables, initial)
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
    /// Proposals the bound ruled out without pricing them.
    pub(crate) bounded: u32,
    /// Null moves (empty proposals) settled without pricing them.
    pub(crate) null: u32,
}

/// Relative margin on `exp(b/T)` in [`rejects_unpriced`]: it
/// absorbs the rounding of `b/T` and of `exp`, so `exp(b/T)·(1 + margin)`
/// dominates the `exp(ΔJ/T)` of any move whose change is at most `b`.
const EXP_MARGIN: f64 = 1e-12;

/// Below this `b/T` [`rejects_unpriced`] rejects without calling `exp`.
/// The gate rejects iff `r > 0` and `exp(b/T)·(1 + EXP_MARGIN) ≤ r`.
/// `rand`'s `f64` sampler returns multiples of 2⁻⁵³, so every positive
/// uniform is at least 2⁻⁵³ ≈ 1.11e-16, while `exp(−37)·(1 + EXP_MARGIN)`
/// ≈ 8.5e-17 is smaller. For `b/T < −37` the test therefore holds for
/// every `r > 0`, and skipping `exp` changes no outcome for any
/// `(b, T, r)`.
const EXP_FREE_BELOW: f64 = -37.0;

/// The bound gate's rejection test: whether a move whose objective
/// change is at most `bound` loses the Metropolis test at `temperature`
/// against the uniform `r` whatever its exact price, so the step may
/// reject it unpriced. True iff `r > 0` and `exp(bound/T)`, widened by a
/// relative rounding margin of 1e-12, is at most `r`; below
/// `bound/T = −37` it holds for every positive `r` (the smallest is
/// 2⁻⁵³), so `exp` is not called there.
#[inline]
fn rejects_unpriced(bound: f64, temperature: f64, r: f64) -> bool {
    let x = bound / temperature;
    r > 0.0 && (x < EXP_FREE_BELOW || x.exp() * (1.0 + EXP_MARGIN) <= r)
}

/// How [`step`] settled its proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A null move (an empty [`MoveDesc`](mec_system::MoveDesc)),
    /// settled unpriced on its one Metropolis uniform. Nothing changed;
    /// its ΔJ is `0` on a finite state and NaN on a `−∞` one.
    Null,
    /// Rejected unpriced: the bound already lost to the uniform.
    Bounded,
    /// Priced and rejected by the Metropolis test.
    Rejected,
    /// Priced and accepted as an improvement.
    Better,
    /// Priced and accepted by the Metropolis test without improving.
    Worse,
}

/// One proposal step of the TTSA chain (Algorithm 1, lines 10-22) at
/// `temperature`: draws one neighbor of `inc`'s decision and settles it,
/// applying and committing it (and setting `current` to its objective)
/// only when it is accepted. `current` must be `inc.current()`.
///
/// The kernel's draw is typed. A slot take — a local user taking a slot
/// or an offloaded one relocating, evicting the occupant — is bounded
/// with [`IncrementalObjective::bound_take`] and priced with
/// [`IncrementalObjective::score_take`]; its
/// [`MoveDesc`](mec_system::MoveDesc) is built only when it is
/// accepted. Every other shape is a `MoveDesc`. A null move is settled
/// first, unpriced: the step draws the one uniform the priced path would
/// draw and returns [`Step::Null`]. Any other move is bounded (no `log2`
/// refresh). A negative bound means the move cannot improve, so the
/// Metropolis uniform `r` (lines 20-22) is drawn at once, and the move
/// is rejected unpriced when `r > 0` and `exp(b/T)` (with a rounding
/// margin) cannot beat `r`; below `b/T = −37` that needs no `exp` at
/// all. Every other move is priced (bit-identical to `apply` +
/// `current`, leaving the state as it found it) and judged: an
/// improving move is accepted outright, otherwise against the same
/// uniform, drawn now if it was not drawn yet. The gate settles
/// rejections only and the null-move shortcut changes no decision. The
/// draw order — one move proposal, then a uniform only for a move that
/// does not improve — is the seeded-trajectory contract shared by the
/// single chain and every tempering replica, and both shortcuts keep it
/// bit for bit.
pub fn step<R: Rng + ?Sized>(
    kernel: &NeighborhoodKernel,
    inc: &mut IncrementalObjective<'_>,
    current: &mut f64,
    temperature: f64,
    rng: &mut R,
) -> Step {
    debug_assert_eq!(current.to_bits(), inc.current().to_bits());
    let (proposal, _) = kernel.draw(inc.scenario(), inc.assignment(), rng);
    let bound = match proposal {
        Proposal::Take {
            user,
            server,
            subchannel,
        } => inc.bound_take(user, server, subchannel),
        Proposal::Move(mv) if mv.is_empty() => {
            // The one uniform the priced path draws for a move with ΔJ = 0.
            let _: f64 = rng.gen();
            return Step::Null;
        }
        Proposal::Move(mv) => inc.bound(&mv),
    };
    let uniform = (bound < 0.0).then(|| rng.gen::<f64>());
    if uniform.is_some_and(|r| rejects_unpriced(bound, temperature, r)) {
        return Step::Bounded;
    }
    let candidate = match proposal {
        Proposal::Take {
            user,
            server,
            subchannel,
        } => inc.score_take(user, server, subchannel),
        Proposal::Move(mv) => inc.score(&mv),
    };
    let delta = candidate - *current;
    let settled = if delta > 0.0 {
        Step::Better
    } else if (delta / temperature).exp() > uniform.unwrap_or_else(|| rng.gen::<f64>()) {
        // Metropolis acceptance of a worsening move (lines 20-22).
        Step::Worse
    } else {
        return Step::Rejected;
    };
    let mv = proposal.into_move(inc.assignment());
    inc.apply(&mv);
    inc.commit();
    *current = candidate;
    settled
}

/// Runs one temperature epoch (Algorithm 1, lines 9-25):
/// `config.inner_iterations` proposal steps at `temperature` ([`step`]),
/// followed by the epoch-boundary drift-control resync.
///
/// The epoch keeps the counters: a null move counts as an accepted worse
/// move exactly when the state is finite, where the priced path computed
/// ΔJ = 0 and `exp(0/T) = 1` beat every uniform (temperatures are
/// positive); on a `−∞` state ΔJ is NaN and the Metropolis test fails.
/// An improvement that beats the best objective refreshes the best
/// snapshot.
pub(crate) fn run_epoch<R: Rng + ?Sized>(
    config: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    temperature: f64,
    state: &mut ChainState<'_>,
    rng: &mut R,
) -> EpochStats {
    let mut stats = EpochStats::default();
    for _ in 0..config.inner_iterations {
        let settled = step(
            kernel,
            &mut state.inc,
            &mut state.current_obj,
            temperature,
            rng,
        );
        state.proposals += 1;
        match settled {
            Step::Null => {
                stats.null += 1;
                if state.current_obj.is_finite() {
                    state.count += 1;
                    stats.accepted_worse += 1;
                }
            }
            Step::Bounded => stats.bounded += 1,
            Step::Rejected => {}
            Step::Better => {
                stats.accepted_better += 1;
                if state.current_obj > state.best_obj {
                    state.best.clone_from(state.inc.assignment());
                    state.best_obj = state.current_obj;
                }
            }
            Step::Worse => {
                state.count += 1;
                stats.accepted_worse += 1;
            }
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
    let tables = Arc::new(ObjectiveTables::new(scenario));
    let mut state = ChainState::from_initial(scenario, tables, initial);

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
        let stats = run_epoch(config, kernel, temperature, &mut state, rng);

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
                bounded: stats.bounded,
                null: stats.null,
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
    use mec_types::{Cycles, Hertz, ServerProfile, SubchannelId, Watts};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// The step as it was before anything was settled unpriced: price
    /// every proposal, accept an improvement, otherwise draw one uniform
    /// for the Metropolis test. Returns `(accepted_worse,
    /// accepted_better)`.
    fn priced_epoch(
        scenario: &Scenario,
        kernel: &NeighborhoodKernel,
        temperature: f64,
        state: &mut ChainState<'_>,
        rng: &mut StdRng,
    ) -> (u32, u32) {
        let (mut worse, mut better) = (0, 0);
        for _ in 0..quick_config().inner_iterations {
            let (mv, _) = kernel.propose_move(scenario, state.inc.assignment(), rng);
            state.proposals += 1;
            let candidate = state.inc.score(&mv);
            let delta = candidate - state.current_obj;
            let accept = delta > 0.0 || (delta / temperature).exp() > rng.gen::<f64>();
            if accept {
                state.inc.apply(&mv);
                state.inc.commit();
                state.current_obj = candidate;
                if delta > 0.0 {
                    better += 1;
                } else {
                    state.count += 1;
                    worse += 1;
                }
            }
        }
        (worse, better)
    }

    #[test]
    fn settled_steps_decide_exactly_like_the_priced_step() {
        // Twelve users on six slots, so swaps of two local users (null
        // moves) are common. User 0's links are dead: while it is
        // offloaded the objective is −∞, where a null move is rejected.
        // The temperatures reach far below any bound, where the gate
        // rejects without `exp`.
        let gains = ChannelGains::from_fn(12, 3, 2, |u, s, j| {
            if u.index() == 0 {
                0.0
            } else {
                1e-11 * (1.0 + (u.index() * 5 + s.index() * 3 + j.index()) as f64)
            }
        })
        .unwrap();
        let sc = Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); 12],
            vec![ServerProfile::paper_default(); 3],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            gains,
            Watts::new(1e-13),
        )
        .unwrap();
        let kernel = NeighborhoodKernel::new();
        let config = quick_config();
        let mut rejected_null = false;
        for seed in 0..6u64 {
            let mut start = Assignment::all_local(&sc);
            start
                .assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
                .unwrap();
            start
                .assign(UserId::new(1), ServerId::new(1), SubchannelId::new(1))
                .unwrap();
            let tables = Arc::new(ObjectiveTables::new(&sc));
            let mut settled = ChainState::from_initial(&sc, Arc::clone(&tables), start.clone());
            let mut priced = ChainState::from_initial(&sc, tables, start);
            assert_eq!(settled.current_obj, f64::NEG_INFINITY);
            let mut rng_settled = StdRng::seed_from_u64(seed);
            let mut rng_priced = StdRng::seed_from_u64(seed);
            let (mut null, mut bounded) = (0, 0);
            for epoch in 0..24 {
                let temperature = 2.0 * 0.3f64.powi(epoch);
                let stats = run_epoch(
                    &config,
                    &kernel,
                    temperature,
                    &mut settled,
                    &mut rng_settled,
                );
                let (worse, better) =
                    priced_epoch(&sc, &kernel, temperature, &mut priced, &mut rng_priced);
                let what = format!("seed {seed} epoch {epoch}");
                assert_eq!(
                    (stats.accepted_worse, stats.accepted_better),
                    (worse, better),
                    "{what}"
                );
                assert_eq!(settled.count, priced.count, "{what}");
                assert_eq!(settled.inc.assignment(), priced.inc.assignment(), "{what}");
                assert_eq!(
                    settled.current_obj.to_bits(),
                    priced.current_obj.to_bits(),
                    "{what}"
                );
                assert_eq!(rng_settled.next_u64(), rng_priced.next_u64(), "{what}");
                null += stats.null;
                bounded += stats.bounded;
                // More null moves than accepted worse moves: some were
                // settled on a −∞ state and rejected.
                rejected_null |= stats.null > stats.accepted_worse;
            }
            assert!(
                null > 0 && bounded > 0,
                "seed {seed}: {null} null, {bounded} bounded"
            );
        }
        assert!(rejected_null, "no null move met a −∞ state");
    }

    /// An RNG whose every word is the same value.
    struct ConstantWords(u64);

    impl RngCore for ConstantWords {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn exp_free_rejection_stays_below_the_smallest_positive_uniform() {
        // The f64 sampler keeps the top 53 bits of a word: the word
        // `1 << 11` is its smallest positive draw, exactly 2⁻⁵³, and
        // anything below it draws zero.
        let smallest: f64 = ConstantWords(1 << 11).gen();
        assert_eq!(smallest, 2f64.powi(-53));
        assert_eq!(ConstantWords((1 << 11) - 1).gen::<f64>(), 0.0);
        let beaten = EXP_FREE_BELOW.exp() * (1.0 + EXP_MARGIN);
        assert!(beaten < smallest, "{beaten:e} vs {smallest:e}");
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
