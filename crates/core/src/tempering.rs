//! Parallel-tempering (replica-exchange) search on top of TTSA.
//!
//! [`temper`] runs `K` TTSA replicas on a geometric temperature ladder,
//! each on its own incremental-objective state, and periodically lets
//! neighboring rungs exchange states with the Metropolis probability
//! `min(1, exp(Δ(1/T)·ΔJ))` (for a maximized `J`, a hotter replica that
//! found a better schedule almost surely hands it down the ladder). The
//! ensemble runs a sharply shortened schedule — a fraction
//! ([`TemperingConfig::schedule_factor`]) of the single chain's epoch
//! count — because cooperation replaces the long low-temperature tail
//! that Algorithm 1 spends most of its proposals on. That is where the
//! wall-clock win comes from even on one core; worker threads only
//! spread the rounds wider.
//!
//! The epoch budget of a round is not split uniformly: rung epoch
//! shares grow geometrically toward the cold end
//! ([`TemperingConfig::cold_bias`]), so the hot rungs act as cheap
//! scouts feeding the exchange sweep while the cold rungs — the only
//! place where worsening moves are reliably rejected — do the actual
//! refinement. Elite migration re-seeds both ends of the ladder from
//! the global best after every sweep.
//!
//! ## Determinism
//!
//! Results are bit-identical for a given seed at any worker count:
//!
//! * each rung owns an RNG stream seeded from the solver RNG in rung
//!   order before any work starts, and only that rung's epochs consume
//!   it — the schedule of draws per rung is fixed by the configuration,
//!   not by thread interleaving;
//! * exchange decisions come from a dedicated ladder RNG, and every
//!   sweep draws exactly one uniform per adjacent pair (before deciding),
//!   so the ladder stream's length is fixed too;
//! * exchange sweeps and best-fold reductions run sequentially on the
//!   coordinator in rung order, between rounds.
//!
//! Worker threads therefore only change *when* a rung's round is
//! computed, never *what* it computes.

use crate::annealing::{
    apply_cooling, initial_solution, resolve_initial_temperature, resolve_max_count, run_epoch,
    AnnealOutcome, ChainState, EpochStats,
};
use crate::config::{Cooling, TemperingConfig, TtsaConfig};
use crate::moves::NeighborhoodKernel;
use crate::shard::descent;
use crate::trace::{EpochRecord, SearchTrace};
use mec_system::{Assignment, IncrementalObjective, ObjectiveTables, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};

/// One rung of the ladder: its temperature schedule, its RNG stream, and
/// the chain state currently living there. Exchanges swap the *state*
/// between rungs; temperature, accepted-worse counter, and RNG stay put,
/// so each rung's stream is consumed on a fixed schedule.
struct Replica<'a> {
    state: ChainState<'a>,
    rng: StdRng,
    temperature: f64,
    round_stats: EpochStats,
}

impl Replica<'_> {
    /// Runs one exchange round: this rung's per-round epoch share at its
    /// (cooling) temperature.
    fn run_round(
        &mut self,
        base: &TtsaConfig,
        kernel: &NeighborhoodKernel,
        epochs: u64,
        max_count: u64,
    ) {
        let mut stats = EpochStats::default();
        for _ in 0..epochs {
            let s = run_epoch(
                base,
                kernel,
                self.temperature,
                &mut self.state,
                &mut self.rng,
            );
            stats.accepted_worse += s.accepted_worse;
            stats.accepted_better += s.accepted_better;
            stats.bounded += s.bounded;
            stats.null += s.null;
            apply_cooling(
                base.cooling,
                max_count,
                &mut self.temperature,
                &mut self.state.count,
            );
        }
        self.round_stats = stats;
    }
}

/// Per-round epoch share of each rung (index 0 coldest): proportional
/// to `cold_bias^(K−1−i)`, normalized so one round spends `K·E` epochs
/// in total, with every rung guaranteed at least one epoch. With
/// `cold_bias = 1` this is the uniform split `E` everywhere.
fn rung_epochs(tcfg: &TemperingConfig) -> Vec<u64> {
    let k = tcfg.replicas;
    let total = (k as u64 * tcfg.exchange_interval) as f64;
    let weights: Vec<f64> = (0..k)
        .map(|i| tcfg.cold_bias.powi((k - 1 - i) as i32))
        .collect();
    let norm: f64 = weights.iter().sum();
    weights
        .iter()
        .map(|w| ((total * w / norm).round() as u64).max(1))
        .collect()
}

/// How many exchange rounds the ensemble runs: an explicit override, a
/// budget-derived count when the base config carries an anytime proposal
/// budget (the warm-refresh path), or the `schedule_factor` fraction of
/// the single chain's estimated epoch count.
fn planned_rounds(tcfg: &TemperingConfig, base: &TtsaConfig, scenario: &Scenario) -> u64 {
    if let Some(rounds) = tcfg.rounds {
        return rounds;
    }
    let l = base.inner_iterations as u64;
    let epochs_per_round: u64 = rung_epochs(tcfg).iter().sum();
    let per_round = epochs_per_round * l;
    if let Some(budget) = base.proposal_budget {
        // Anytime mode: fit whole rounds plus the quench under the cap.
        let usable = budget.saturating_sub(tcfg.quench_epochs * l);
        return (usable / per_round).max(1);
    }
    // Upper-bound the single chain's epoch count by its slow rate (the
    // threshold trigger only shortens it) and grant the ensemble a
    // fraction of that.
    let t0 = resolve_initial_temperature(base, scenario);
    let alpha = match base.cooling {
        Cooling::ThresholdTriggered { alpha_slow, .. } => alpha_slow,
        Cooling::Geometric { alpha } => alpha,
    };
    let epochs_est = ((base.min_temperature / t0).ln() / alpha.ln())
        .ceil()
        .max(1.0);
    let total_epochs = (epochs_est * tcfg.schedule_factor).ceil() as u64;
    (total_epochs / epochs_per_round).max(1)
}

/// Runs parallel tempering from freshly generated initial solutions (one
/// per replica, drawn from each rung's own stream).
///
/// `workers` is the worker-thread cap (resolve it with
/// [`mec_types::effective_parallelism`]); it never affects the result,
/// only wall-clock time.
///
/// # Panics
///
/// Panics if `base` or `tempering` fail validation.
pub fn temper<R: Rng + ?Sized>(
    scenario: &Scenario,
    tempering: &TemperingConfig,
    base: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    rng: &mut R,
    workers: usize,
) -> AnnealOutcome {
    let tables = Arc::new(ObjectiveTables::new(scenario));
    run(
        scenario, &tables, tempering, base, kernel, rng, workers, None,
    )
}

/// [`temper`] with an explicit starting decision: every replica starts
/// from `warm`, and the rung temperatures anchor at the base config's
/// initial temperature — with [`ResolveMode::refresh_config`] that is the
/// fixed refresh temperature, giving the online engine its shortened
/// warm ladder.
///
/// # Panics
///
/// As [`temper`]; additionally if `warm` does not fit the scenario's
/// geometry.
///
/// [`ResolveMode::refresh_config`]: crate::config::ResolveMode::refresh_config
pub fn temper_from<R: Rng + ?Sized>(
    scenario: &Scenario,
    tempering: &TemperingConfig,
    base: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    rng: &mut R,
    workers: usize,
    warm: Assignment,
) -> AnnealOutcome {
    let tables = Arc::new(ObjectiveTables::new(scenario));
    run(
        scenario,
        &tables,
        tempering,
        base,
        kernel,
        rng,
        workers,
        Some(warm),
    )
}

/// The coordinator's sequential between-rounds step: fold rung bests
/// into the global best, run the Metropolis exchange sweep, migrate the
/// elite, and append the round's trace record. Runs in rung order on one
/// thread, so it is identical at any worker count.
fn coordinate_round<'a>(
    replicas: &mut [Option<Replica<'a>>],
    tcfg: &TemperingConfig,
    ladder_rng: &mut StdRng,
    best: &mut Assignment,
    best_obj: &mut f64,
    trace: Option<&mut SearchTrace>,
) {
    let k = replicas.len();

    // Fold rung bests into the global best, in rung order.
    for slot in replicas.iter() {
        let rep = slot.as_ref().expect("replica slot filled");
        if rep.state.best_obj > *best_obj {
            best.clone_from(&rep.state.best);
            *best_obj = rep.state.best_obj;
        }
    }

    // Exchange sweep, cold-to-hot over adjacent rungs. One uniform is
    // always drawn per pair so the ladder stream's length is independent
    // of the outcomes.
    let mut swaps_accepted: u32 = 0;
    for i in 0..k - 1 {
        let u: f64 = ladder_rng.gen();
        let (cold_half, hot_half) = replicas.split_at_mut(i + 1);
        let cold = cold_half[i].as_mut().expect("replica slot filled");
        let hot = hot_half[0].as_mut().expect("replica slot filled");
        let dbeta = 1.0 / cold.temperature - 1.0 / hot.temperature;
        let delta = dbeta * (hot.state.current_obj - cold.state.current_obj);
        if !delta.is_nan() && (delta >= 0.0 || delta.exp() > u) {
            std::mem::swap(&mut cold.state.inc, &mut hot.state.inc);
            std::mem::swap(&mut cold.state.current_obj, &mut hot.state.current_obj);
            std::mem::swap(&mut cold.state.last_resync, &mut hot.state.last_resync);
            std::mem::swap(&mut cold.state.proposals, &mut hot.state.proposals);
            swaps_accepted += 1;
        }
    }

    // Elite migration, both ends of the ladder: the hottest rung restarts
    // its exploration orbit from the global best, and the coldest rung —
    // where worsening moves are all but rejected — keeps refining the
    // incumbent instead of whatever backwater its own walk drifted into.
    if tcfg.elite_migration && best_obj.is_finite() {
        for end in [k - 1, 0] {
            let rep = replicas[end].as_mut().expect("replica slot filled");
            if *best_obj > rep.state.current_obj {
                rep.state
                    .inc
                    .replace_assignment(best)
                    .expect("global best is feasible");
                rep.state.current_obj = rep.state.inc.current();
                rep.state.last_resync = rep.state.proposals;
            }
        }
    }

    if let Some(trace) = trace {
        let mut worse = 0;
        let mut better = 0;
        let mut bounded = 0;
        let mut null = 0;
        for slot in replicas.iter() {
            let rep = slot.as_ref().expect("replica slot filled");
            worse += rep.round_stats.accepted_worse;
            better += rep.round_stats.accepted_better;
            bounded += rep.round_stats.bounded;
            null += rep.round_stats.null;
        }
        let coldest = replicas[0].as_ref().expect("replica slot filled");
        trace.epochs.push(EpochRecord {
            temperature: coldest.temperature,
            current_objective: coldest.state.current_obj,
            best_objective: *best_obj,
            accepted_worse: worse,
            accepted_better: better,
            trigger_fired: swaps_accepted > 0,
            bounded,
            null,
        });
    }
}

/// The engine behind [`temper`] and [`temper_from`] on `tables`, the
/// scenario's [`ObjectiveTables`] pack: every replica and the quench
/// build their states on it, so the ladder packs the scenario once. The
/// shard engine lends each cluster's run-long pack here (`warm = None`
/// for a fresh cluster, the patched slice for a dirty one).
///
/// # Panics
///
/// As [`temper_from`]; additionally if the pack does not fit the
/// scenario's geometry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<'a, R: Rng + ?Sized>(
    scenario: &'a Scenario,
    tables: &Arc<ObjectiveTables>,
    tcfg: &TemperingConfig,
    base: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    rng: &mut R,
    workers: usize,
    warm: Option<Assignment>,
) -> AnnealOutcome {
    base.validate()
        .expect("TtsaConfig must be valid; call validate() first");
    tcfg.validate()
        .expect("TemperingConfig must be valid; call validate() first");

    let k = tcfg.replicas;
    // Fixed seeding order, all from the caller's stream: K rung streams,
    // then the ladder stream. The quench is deterministic and draws
    // nothing.
    let rung_seeds: Vec<u64> = (0..k).map(|_| rng.gen()).collect();
    let mut ladder_rng = StdRng::seed_from_u64(rng.gen());

    let t0 = resolve_initial_temperature(base, scenario);
    let max_count = resolve_max_count(base);
    let rounds = planned_rounds(tcfg, base, scenario);
    let epochs_by_rung = rung_epochs(tcfg);

    // Rung k−1 is the hottest (the paper's T₀); colder rungs divide by
    // the ladder ratio.
    let mut replicas: Vec<Option<Replica<'_>>> = rung_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let mut rung_rng = StdRng::seed_from_u64(seed);
            let initial = match &warm {
                Some(w) => w.clone(),
                None => initial_solution(scenario, base.initial_solution, &mut rung_rng),
            };
            Some(Replica {
                state: ChainState::from_initial(scenario, Arc::clone(tables), initial),
                rng: rung_rng,
                temperature: t0 / tcfg.ladder_ratio.powi((k - 1 - i) as i32),
                round_stats: EpochStats::default(),
            })
        })
        .collect();

    let mut best = replicas[0]
        .as_ref()
        .expect("replica slot filled")
        .state
        .best
        .clone();
    let mut best_obj = f64::NEG_INFINITY;
    let mut trace = base.record_trace.then(SearchTrace::default);
    let worker_count = workers.max(1).min(k);

    if worker_count <= 1 {
        // Inline path: same computation, no pool.
        for _ in 0..rounds {
            for (i, slot) in replicas.iter_mut().enumerate() {
                let rep = slot.as_mut().expect("replica slot filled");
                rep.run_round(base, kernel, epochs_by_rung[i], max_count);
            }
            coordinate_round(
                &mut replicas,
                tcfg,
                &mut ladder_rng,
                &mut best,
                &mut best_obj,
                trace.as_mut(),
            );
        }
    } else {
        // Persistent scoped worker pool: one thread per worker for the
        // whole solve, fed whole-round batches over channels and drained
        // back into indexed rung slots (no locks anywhere). Each rung is
        // pinned to the worker `rung % worker_count`, so the partition is
        // static and the computation per rung depends only on its own
        // state and stream.
        type Batch<'b> = Vec<(usize, Replica<'b>)>;
        std::thread::scope(|scope| {
            let mut job_txs = Vec::with_capacity(worker_count);
            let mut res_rxs = Vec::with_capacity(worker_count);
            for _ in 0..worker_count {
                let (job_tx, job_rx) = mpsc::channel::<Batch<'a>>();
                let (res_tx, res_rx) = mpsc::channel::<Batch<'a>>();
                let epochs_by_rung = &epochs_by_rung;
                scope.spawn(move || {
                    while let Ok(mut batch) = job_rx.recv() {
                        for (i, rep) in batch.iter_mut() {
                            rep.run_round(base, kernel, epochs_by_rung[*i], max_count);
                        }
                        if res_tx.send(batch).is_err() {
                            break;
                        }
                    }
                });
                job_txs.push(job_tx);
                res_rxs.push(res_rx);
            }

            for _ in 0..rounds {
                let mut batches: Vec<Batch<'a>> = (0..worker_count)
                    .map(|_| Vec::with_capacity(k / worker_count + 1))
                    .collect();
                for (i, slot) in replicas.iter_mut().enumerate() {
                    let rep = slot.take().expect("replica slot filled");
                    batches[i % worker_count].push((i, rep));
                }
                for (w, batch) in batches.into_iter().enumerate() {
                    job_txs[w].send(batch).expect("worker alive");
                }
                for res_rx in &res_rxs {
                    for (i, rep) in res_rx.recv().expect("worker alive") {
                        replicas[i] = Some(rep);
                    }
                }
                coordinate_round(
                    &mut replicas,
                    tcfg,
                    &mut ladder_rng,
                    &mut best,
                    &mut best_obj,
                    trace.as_mut(),
                );
            }

            drop(job_txs); // Disconnect: workers drain and exit.
        });
    }

    // Account the ensemble's work.
    let mut proposals: u64 = 0;
    for slot in &replicas {
        proposals += slot.as_ref().expect("replica slot filled").state.proposals;
    }
    let mut epochs = rounds * epochs_by_rung.iter().sum::<u64>();

    // Systematic quench: the deterministic first-improvement `descent`
    // over every single-user relocation and slot swap,
    // repeated until a local optimum or the quench budget runs out. This
    // replaces the single chain's long low-temperature tail: where random
    // proposals mostly re-draw rejected moves, the scan finds every
    // remaining single-move improvement in one pass and stops as soon as
    // none is left. Floor 0.0 accepts any strict improvement of the
    // finite incumbent.
    if tcfg.quench_epochs > 0 && best_obj.is_finite() && best_obj >= 0.0 {
        let l = base.inner_iterations as u64;
        let mut inc = IncrementalObjective::with_tables(scenario, Arc::clone(tables), best.clone())
            .expect("global best is feasible");
        let spent = descent(&mut inc, tcfg.quench_epochs * l, 0.0).spent;
        let current = inc.current();
        proposals += spent;
        epochs += spent.div_ceil(l);
        if current > best_obj {
            best = inc.into_assignment();
            best_obj = current;
        }
    }

    // The all-local decision (J = 0) is always feasible; never return a
    // worse-than-doing-nothing schedule.
    if best_obj < 0.0 {
        best = Assignment::all_local(scenario);
        best_obj = 0.0;
    }

    AnnealOutcome {
        assignment: best,
        objective: best_obj,
        proposals,
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

    fn quick_tempering() -> TemperingConfig {
        TemperingConfig::paper_default()
            .with_replicas(4)
            .with_rounds(6)
    }

    #[test]
    fn finds_positive_utility_and_is_feasible() {
        let sc = scenario(6, 3, 2, 1e-10);
        let base = TtsaConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(5);
        let out = temper(
            &sc,
            &quick_tempering(),
            &base,
            &NeighborhoodKernel::new(),
            &mut rng,
            1,
        );
        assert!(out.objective > 0.0, "got {}", out.objective);
        out.assignment.verify_feasible(&sc).unwrap();
        assert!(out.proposals > 0);
        // Re-evaluating the returned schedule reproduces the utility.
        let fresh = Evaluator::new(&sc).objective(&out.assignment);
        assert!((fresh - out.objective).abs() <= 1e-9 * fresh.abs().max(1.0));
    }

    #[test]
    fn identical_at_any_worker_count() {
        let sc = scenario(8, 3, 3, 1e-10);
        let base = TtsaConfig::paper_default();
        let tcfg = quick_tempering();
        let kernel = NeighborhoodKernel::new();
        for seed in [11u64, 23, 47] {
            let runs: Vec<AnnealOutcome> = [1usize, 2, 8]
                .iter()
                .map(|&w| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    temper(&sc, &tcfg, &base, &kernel, &mut rng, w)
                })
                .collect();
            assert_eq!(runs[0].assignment, runs[1].assignment, "seed {seed}");
            assert_eq!(runs[0].assignment, runs[2].assignment, "seed {seed}");
            assert_eq!(runs[0].objective, runs[1].objective, "seed {seed}");
            assert_eq!(runs[0].objective, runs[2].objective, "seed {seed}");
            assert_eq!(runs[0].proposals, runs[1].proposals, "seed {seed}");
            assert_eq!(runs[0].proposals, runs[2].proposals, "seed {seed}");
        }
    }

    #[test]
    fn all_local_fallback_on_terrible_channels() {
        let sc = scenario(4, 2, 2, 1e-17);
        let base = TtsaConfig::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let out = temper(
            &sc,
            &quick_tempering(),
            &base,
            &NeighborhoodKernel::new(),
            &mut rng,
            2,
        );
        assert_eq!(out.objective, 0.0);
        assert_eq!(out.assignment.num_offloaded(), 0);
    }

    #[test]
    fn warm_start_never_falls_below_the_seed_decision() {
        let sc = scenario(6, 2, 2, 1e-10);
        let mut warm = Assignment::all_local(&sc);
        warm.assign(
            mec_types::UserId::new(0),
            mec_types::ServerId::new(0),
            mec_types::SubchannelId::new(0),
        )
        .unwrap();
        let warm_obj = Evaluator::new(&sc).objective(&warm);
        let base = TtsaConfig::paper_default().with_proposal_budget(2_000);
        let mut rng = StdRng::seed_from_u64(3);
        let out = temper_from(
            &sc,
            &TemperingConfig::paper_default().with_replicas(4),
            &base,
            &NeighborhoodKernel::new(),
            &mut rng,
            2,
            warm,
        );
        assert!(out.objective >= warm_obj - 1e-12);
        out.assignment.verify_feasible(&sc).unwrap();
    }

    #[test]
    fn budget_derived_rounds_respect_the_cap() {
        let sc = scenario(5, 2, 2, 1e-10);
        let base = TtsaConfig::paper_default().with_proposal_budget(3_000);
        let tcfg = TemperingConfig::paper_default();
        let rounds = planned_rounds(&tcfg, &base, &sc);
        let l = base.inner_iterations as u64;
        let total =
            rounds * tcfg.replicas as u64 * tcfg.exchange_interval * l + tcfg.quench_epochs * l;
        assert!(total <= 3_000, "planned {total} proposals for budget 3000");
    }

    #[test]
    fn trace_records_one_entry_per_round_with_monotone_best() {
        let sc = scenario(6, 3, 2, 1e-10);
        let base = TtsaConfig::paper_default().with_trace();
        let tcfg = quick_tempering();
        let mut rng = StdRng::seed_from_u64(8);
        let out = temper(&sc, &tcfg, &base, &NeighborhoodKernel::new(), &mut rng, 2);
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.len(), 6);
        let mut prev = f64::NEG_INFINITY;
        for e in &trace.epochs {
            assert!(e.best_objective >= prev);
            prev = e.best_objective;
        }
    }

    #[test]
    #[should_panic(expected = "TemperingConfig must be valid")]
    fn invalid_tempering_config_panics() {
        let sc = scenario(2, 2, 2, 1e-10);
        let bad = TemperingConfig::paper_default().with_replicas(1);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = temper(
            &sc,
            &bad,
            &TtsaConfig::paper_default(),
            &NeighborhoodKernel::new(),
            &mut rng,
            1,
        );
    }
}
