//! The settled TTSA step, seen from its traces: the per-epoch `bounded`
//! count (proposals ruled out without pricing) stays within the
//! proposals made, the bound does settle proposals on a paper-default
//! instance, null moves are settled unpriced and counted as accepted
//! worse moves, the totals that feed the threshold trigger are pinned
//! for the single chain and for the tempered ladder, and recording the
//! trace never changes a seeded decision, for the single chain and for
//! tempering.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsajs_mec::prelude::*;
use tsajs_mec::tsajs::annealing::AnnealOutcome;
use tsajs_mec::tsajs::{anneal, temper, EpochRecord, NeighborhoodKernel, TemperingConfig};

fn paper_instance(seed: u64) -> Scenario {
    ScenarioGenerator::new(ExperimentParams::paper_default())
        .generate(seed)
        .unwrap()
}

fn ttsa() -> TtsaConfig {
    TtsaConfig::paper_default().with_min_temperature(1e-4)
}

fn tempering() -> TemperingConfig {
    TemperingConfig::paper_default()
        .with_replicas(3)
        .with_rounds(6)
}

fn run_ttsa(scenario: &Scenario, config: &TtsaConfig, seed: u64) -> AnnealOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    anneal(scenario, config, &NeighborhoodKernel::new(), &mut rng)
}

fn run_tempering(scenario: &Scenario, config: &TtsaConfig, seed: u64) -> AnnealOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    temper(
        scenario,
        &tempering(),
        config,
        &NeighborhoodKernel::new(),
        &mut rng,
        1,
    )
}

/// Σ of one per-epoch count over a traced outcome.
fn total(outcome: &AnnealOutcome, count: impl Fn(&EpochRecord) -> u32) -> u64 {
    let trace = outcome.trace.as_ref().expect("trace requested");
    trace.epochs.iter().map(|e| u64::from(count(e))).sum()
}

fn bounded(outcome: &AnnealOutcome) -> u64 {
    total(outcome, |e| e.bounded)
}

#[test]
fn bounded_counts_stay_within_proposals_and_settle_on_paper_instances() {
    for seed in [3u64, 17] {
        let scenario = paper_instance(seed);
        let config = ttsa().with_trace();
        let chain = run_ttsa(&scenario, &config, seed);
        let settled = bounded(&chain);
        assert!(settled > 0, "seed {seed}: the bound settled nothing");
        assert!(
            settled <= chain.proposals,
            "seed {seed}: {settled} > {}",
            chain.proposals
        );
        let trace = chain.trace.as_ref().unwrap();
        for e in &trace.epochs {
            assert!(e.bounded as usize <= config.inner_iterations);
        }

        let tempered = run_tempering(&scenario, &config, seed);
        let settled = bounded(&tempered);
        assert!(settled > 0, "seed {seed}: no rung settled a proposal");
        assert!(
            settled <= tempered.proposals,
            "seed {seed}: {settled} > {}",
            tempered.proposals
        );
    }
}

#[test]
fn tracing_leaves_every_decision_bit_identical() {
    for seed in [5u64, 29] {
        let scenario = paper_instance(seed);
        let plain = ttsa();
        let traced = plain.with_trace();
        for run in [run_ttsa, run_tempering] {
            let a = run(&scenario, &plain, seed);
            let b = run(&scenario, &traced, seed);
            assert!(a.trace.is_none() && b.trace.is_some());
            assert_eq!(a.assignment, b.assignment, "seed {seed}");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "seed {seed}");
            assert_eq!(a.proposals, b.proposals, "seed {seed}");
            assert_eq!(a.epochs, b.epochs, "seed {seed}");
        }
    }
}

#[test]
fn null_moves_are_settled_as_accepted_worse_moves() {
    for seed in [3u64, 17] {
        let scenario = paper_instance(seed);
        let config = ttsa().with_trace();
        for run in [run_ttsa, run_tempering] {
            let outcome = run(&scenario, &config, seed);
            assert!(outcome.objective.is_finite());
            let trace = outcome.trace.as_ref().unwrap();
            for (i, e) in trace.epochs.iter().enumerate() {
                assert!(
                    e.null <= e.accepted_worse,
                    "seed {seed} epoch {i}: {} null moves, {} accepted worse",
                    e.null,
                    e.accepted_worse
                );
            }
            assert!(total(&outcome, |e| e.null) > 0, "seed {seed}: no null move");
        }
    }
}

/// Totals of the single chain on paper instances, captured before null
/// moves were settled ahead of the bound and before the exp-free
/// rejection: `(seed, epochs, proposals, Σ accepted_worse,
/// Σ accepted_better, Σ bounded, objective bits)`. Every shortcut of the
/// settled step keeps each decision, so these never move.
const SETTLED_STEP_PINS: [(u64, u64, u64, u64, u64, u64, u64); 2] = [
    (3, 295, 8_850, 980, 245, 7_235, 0x4010_5b04_403f_27e3),
    (17, 300, 9_000, 901, 308, 7_198, 0x4012_a11c_6524_e3db),
];

#[test]
fn settled_step_totals_are_pinned() {
    for (seed, epochs, proposals, worse, better, settled, bits) in SETTLED_STEP_PINS {
        let scenario = paper_instance(seed);
        let chain = run_ttsa(&scenario, &ttsa().with_trace(), seed);
        assert_eq!(chain.epochs, epochs, "seed {seed}");
        assert_eq!(chain.proposals, proposals, "seed {seed}");
        assert_eq!(total(&chain, |e| e.accepted_worse), worse, "seed {seed}");
        assert_eq!(total(&chain, |e| e.accepted_better), better, "seed {seed}");
        assert_eq!(bounded(&chain), settled, "seed {seed}");
        assert_eq!(
            chain.objective.to_bits(),
            bits,
            "seed {seed}: {}",
            chain.objective
        );
    }
}

/// `(seed, epochs, proposals, Σ accepted_worse, Σ accepted_better,
/// Σ bounded, Σ null, objective bits)` of one tempered run.
type TemperedTotals = (u64, u64, u64, u64, u64, u64, u64, u64);

/// Totals of the tempered ladder (three rungs, six rounds, then the
/// quench) on the same paper instances, summed over every rung's
/// rounds. This is the step the service's Full tier, every shard
/// cluster anneal and the tempering quench's ladder run, so a change to
/// the step that moves a decision, an RNG draw or a count moves these.
const TEMPERED_STEP_PINS: [TemperedTotals; 2] = [
    (3, 94, 2_820, 304, 131, 1_732, 208, 0x4010_5ae0_d519_8d4a),
    (17, 94, 2_820, 273, 161, 1_619, 178, 0x4011_9260_08aa_614b),
];

#[test]
fn tempered_step_totals_are_pinned() {
    for (seed, epochs, proposals, worse, better, settled, null, bits) in TEMPERED_STEP_PINS {
        let scenario = paper_instance(seed);
        let ladder = run_tempering(&scenario, &ttsa().with_trace(), seed);
        assert_eq!(ladder.epochs, epochs, "seed {seed}");
        assert_eq!(ladder.proposals, proposals, "seed {seed}");
        assert_eq!(total(&ladder, |e| e.accepted_worse), worse, "seed {seed}");
        assert_eq!(total(&ladder, |e| e.accepted_better), better, "seed {seed}");
        assert_eq!(bounded(&ladder), settled, "seed {seed}");
        assert_eq!(total(&ladder, |e| e.null), null, "seed {seed}");
        assert_eq!(
            ladder.objective.to_bits(),
            bits,
            "seed {seed}: {}",
            ladder.objective
        );
    }
}
