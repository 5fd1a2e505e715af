//! Decision pins for the two epoch drivers: the online engine (with
//! churn, and over a static population that only moves) and the
//! scheduler service core.
//!
//! Every other driver test compares a run with its own replay, so a
//! refactor that changed what a driver decides would still pass them.
//! These tests fold each run into one FNV-1a fingerprint instead: every
//! report's utility bits, proposals, reassignments, warm-start flag and
//! tier, plus the final decision's slots (the static-population runs
//! contribute their final positions instead).
//!
//! If one of these fails after an *intentional* change to a driver's
//! decisions, update the constant and say why in the changelog.

use tsajs_mec::online::{
    AdmitAll, EngineEvent, EventSchedule, OnlineConfig, OnlineEngine, OnlineEpochReport,
    PoissonChurn, TimedEvent,
};
use tsajs_mec::prelude::*;
use tsajs_mec::service::{
    BatchPolicy, BatchReport, SchedulerCore, ServiceConfig, ServiceRequest, TierPolicy,
};
use tsajs_mec::tsajs::{ResolveMode, TemperingConfig};

/// FNV-1a over little-endian 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn slots(&mut self, assignment: &Assignment) {
        self.word(assignment.num_users() as u64);
        for v in 0..assignment.num_users() {
            match assignment.slot(UserId::new(v)) {
                Some((s, j)) => {
                    self.word(1 + s.index() as u64);
                    self.word(j.index() as u64);
                }
                None => self.word(0),
            }
        }
    }
}

fn assert_pinned(name: &str, actual: u64, pinned: u64) {
    assert_eq!(
        actual, pinned,
        "{name}: driver decisions moved (fingerprint {actual:#018x})"
    );
}

// ---------------------------------------------------------------- online

fn online_config(mode: ResolveMode) -> OnlineConfig {
    OnlineConfig::pedestrian()
        .with_base(TtsaConfig::paper_default().with_min_temperature(1e-2))
        .with_mode(mode)
        .with_threads(Some(1))
}

fn online_engine(mode: ResolveMode, seed: u64, initial: usize, rate: f64) -> OnlineEngine {
    let params = ExperimentParams::paper_default()
        .with_users(initial)
        .with_servers(4);
    let churn = PoissonChurn::new(initial, rate, Seconds::new(40.0), seed).unwrap();
    OnlineEngine::new(
        params,
        online_config(mode),
        Box::new(churn),
        Box::new(AdmitAll),
        seed,
    )
    .unwrap()
}

fn online_fingerprint(engine: &mut OnlineEngine, epochs: usize) -> u64 {
    let reports: Vec<OnlineEpochReport> = engine.run(epochs).unwrap();
    let mut fp = Fingerprint::new();
    for r in &reports {
        fp.word(r.utility.to_bits());
        fp.word(r.proposals);
        fp.word(r.reassignments as u64);
        fp.word(u64::from(r.warm_started));
        fp.word(r.scheduled as u64);
        fp.word(r.servers_up as u64);
    }
    if let Some((_, assignment)) = engine.last_schedule() {
        fp.slots(assignment);
    }
    fp.0
}

fn tempered(refresh_budget: u64) -> ResolveMode {
    ResolveMode::WarmTempered {
        refresh_budget,
        refresh_temperature: 0.05,
        tempering: TemperingConfig::paper_default().with_replicas(2),
    }
}

#[test]
fn online_warm_start_is_pinned() {
    let mut engine = online_engine(ResolveMode::warm(120), 1, 8, 0.1);
    assert_pinned(
        "online warm start",
        online_fingerprint(&mut engine, 6),
        0x6a12_62e3_6454_4dab,
    );
}

#[test]
fn online_warm_tempered_is_pinned() {
    let mut engine = online_engine(tempered(150), 2, 8, 0.1);
    assert_pinned(
        "online warm tempered",
        online_fingerprint(&mut engine, 5),
        0xc6a0_0ac0_a24e_54e9,
    );
}

#[test]
fn online_cold_is_pinned() {
    let mut engine = online_engine(ResolveMode::Cold, 3, 6, 0.1);
    assert_pinned(
        "online cold",
        online_fingerprint(&mut engine, 4),
        0xf3ca_68e6_ebdd_96c9,
    );
}

#[test]
fn online_outage_recovery_and_flash_crowd_are_pinned() {
    let timed = |at: f64, event: EngineEvent| TimedEvent {
        at: Seconds::new(at),
        event,
    };
    let mut engine =
        online_engine(ResolveMode::warm(120), 4, 8, 0.05).with_events(EventSchedule::new(vec![
            timed(15.0, EngineEvent::ServerOutage { server: 1 }),
            timed(
                25.0,
                EngineEvent::FlashCrowd {
                    arrivals: 5,
                    mean_sojourn: Seconds::new(20.0),
                },
            ),
            timed(45.0, EngineEvent::ServerRecovery { server: 1 }),
        ]));
    assert_pinned(
        "online outage + flash crowd",
        online_fingerprint(&mut engine, 7),
        0x982e_298d_8c7f_1a47,
    );
}

// --------------------------------------------------------------- service

fn service_config(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::quick(seed).with_threads(Some(1));
    cfg.batch = BatchPolicy {
        max_size: 4,
        max_age: Seconds::new(0.05),
    };
    cfg.tiers = TierPolicy {
        shorten_depth: 4,
        greedy_depth: 12,
        shorten_age_ratio: 4.0,
        greedy_age_ratio: 16.0,
        upgrade_margin: 1,
        upgrade_hold: 2,
    };
    cfg
}

fn service_fingerprint(core: &SchedulerCore, reports: &[BatchReport]) -> u64 {
    let mut fp = Fingerprint::new();
    for r in reports {
        fp.word(r.utility.to_bits());
        fp.word(r.proposals);
        fp.word(r.reassignments as u64);
        fp.word(u64::from(r.warm_started));
        for byte in r.tier.bytes() {
            fp.word(u64::from(byte));
        }
    }
    let snapshot = core.snapshot();
    for &id in &snapshot.users {
        fp.word(id);
    }
    fp.slots(&snapshot.assignment);
    fp.0
}

fn close(core: &mut SchedulerCore, now_s: f64, reports: &mut Vec<BatchReport>) {
    reports.push(core.close_batch(now_s).unwrap().expect("a pending batch"));
}

fn tiers(reports: &[BatchReport]) -> Vec<&str> {
    reports.iter().map(|r| r.tier.as_str()).collect()
}

#[test]
fn service_full_shortened_and_greedy_tiers_are_pinned() {
    let mut core = SchedulerCore::new(service_config(21)).unwrap();
    let mut reports = Vec::new();
    // Full, cold: the first decision.
    for id in 0..4 {
        core.submit(ServiceRequest::arrival(id, 0.0));
    }
    close(&mut core, 0.05, &mut reports);
    // Full, warm: one departure, one arrival.
    core.submit(ServiceRequest::departure(1, 0.1));
    core.submit(ServiceRequest::arrival(9, 0.1));
    close(&mut core, 0.15, &mut reports);
    // Shortened: six requests stay behind the cut.
    for id in 10..20 {
        core.submit(ServiceRequest::arrival(id, 0.2));
    }
    close(&mut core, 0.21, &mut reports);
    // GreedyAdmit: the backlog reaches the greedy depth.
    for id in 20..32 {
        core.submit(ServiceRequest::arrival(id, 0.22));
    }
    close(&mut core, 0.23, &mut reports);
    // Drain, then two calm batches so the ladder climbs back.
    reports.extend(core.flush(0.3).unwrap());
    core.submit(ServiceRequest::departure(12, 0.4));
    close(&mut core, 0.41, &mut reports);
    core.submit(ServiceRequest::departure(13, 0.5));
    close(&mut core, 0.51, &mut reports);
    assert_eq!(
        &tiers(&reports)[..4],
        ["full", "full", "shortened", "greedy_admit"]
    );
    assert!(!reports[0].warm_started);
    assert!(reports[1..].iter().all(|r| r.warm_started));
    assert_pinned(
        "service full/shortened/greedy",
        service_fingerprint(&core, &reports),
        0xefa3_1306_aa94_a7f1,
    );
}

#[test]
fn service_city_scale_tier_is_pinned() {
    let mut cfg = service_config(23).with_city_scale_threshold(6);
    cfg.batch.max_size = 16;
    let mut core = SchedulerCore::new(cfg).unwrap();
    let mut reports = Vec::new();
    // CityScale, cold.
    for id in 0..8 {
        core.submit(ServiceRequest::arrival(id, 0.0));
    }
    close(&mut core, 0.01, &mut reports);
    // CityScale, warm from the prior sharded decision.
    core.submit(ServiceRequest::departure(7, 0.05));
    core.submit(ServiceRequest::arrival(20, 0.05));
    close(&mut core, 0.08, &mut reports);
    // Below the threshold: Full, warm from the sharded decision.
    for id in 0..3 {
        core.submit(ServiceRequest::departure(id, 0.1));
    }
    close(&mut core, 0.15, &mut reports);
    assert_eq!(tiers(&reports), ["city_scale", "city_scale", "full"]);
    assert_eq!(
        reports.iter().map(|r| r.warm_started).collect::<Vec<_>>(),
        [false, true, true]
    );
    assert_pinned(
        "service city scale",
        service_fingerprint(&core, &reports),
        0xaffe_5ca5_d620_1433,
    );
}

#[test]
fn service_depart_and_rearrive_in_one_batch_is_pinned() {
    let mut core = SchedulerCore::new(service_config(27)).unwrap();
    let mut reports = Vec::new();
    for id in 0..4 {
        core.submit(ServiceRequest::arrival(id, 0.0));
    }
    close(&mut core, 0.05, &mut reports);
    assert!(
        core.snapshot().slot_of(2).is_some(),
        "the re-arriving user must hold a slot it can inherit"
    );
    // User 2 leaves and comes back in the same batch: it moves to the end
    // of the population but continues its old index and keeps its slot.
    core.submit(ServiceRequest::departure(2, 0.1));
    core.submit(ServiceRequest::arrival(2, 0.1));
    core.submit(ServiceRequest::departure(0, 0.1));
    close(&mut core, 0.15, &mut reports);
    assert_eq!(core.snapshot().users, vec![1, 3, 2]);
    assert_eq!(tiers(&reports), ["full", "full"]);
    assert_pinned(
        "service depart + re-arrive",
        service_fingerprint(&core, &reports),
        0x6f9a_7bd2_3bce_f8fc,
    );
}

// ----------------------------------------------- static population (mobility)

fn vehicles(seed: u64, config: OnlineConfig) -> OnlineEngine {
    let params = ExperimentParams::paper_default()
        .with_users(8)
        .with_servers(3);
    OnlineEngine::with_static_population(params, config, seed).unwrap()
}

fn mobility_fingerprint(engine: &OnlineEngine, reports: &[OnlineEpochReport]) -> u64 {
    let mut fp = Fingerprint::new();
    for r in reports {
        fp.word(r.utility.to_bits());
        fp.word(r.proposals);
        fp.word(r.reassignments as u64);
        fp.word(r.handovers as u64);
        fp.word(r.num_offloaded as u64);
    }
    for p in engine.positions() {
        fp.word(p.x.to_bits());
        fp.word(p.y.to_bits());
    }
    fp.0
}

fn quick_ttsa() -> TtsaConfig {
    TtsaConfig::paper_default().with_min_temperature(1e-2)
}

fn solver_fingerprint(
    seed: u64,
    epochs: usize,
    make_solver: &dyn Fn(u64) -> Box<dyn Solver>,
) -> u64 {
    let mut engine = vehicles(seed, OnlineConfig::vehicular());
    let reports: Vec<OnlineEpochReport> = (0..epochs)
        .map(|_| engine.step_with_solver(make_solver).unwrap())
        .collect();
    mobility_fingerprint(&engine, &reports)
}

#[test]
fn mobility_run_with_greedy_is_pinned() {
    assert_pinned(
        "mobility run greedy",
        solver_fingerprint(31, 5, &|_| Box::new(GreedySolver::new())),
        0x0bf5_1a53_b082_5d9e,
    );
}

#[test]
fn mobility_run_with_tsajs_is_pinned() {
    assert_pinned(
        "mobility run tsajs",
        solver_fingerprint(32, 4, &|seed| {
            Box::new(TsajsSolver::new(quick_ttsa().with_seed(seed)))
        }),
        0xacf4_7cbd_de11_f971,
    );
}

#[test]
fn mobility_run_ttsa_is_pinned_in_every_mode() {
    let cases = [
        ("cold", ResolveMode::Cold, 0xe3c2_a093_07df_6f4a),
        ("warm start", ResolveMode::warm(80), 0xb892_ea85_849f_b06a),
        ("warm tempered", tempered(120), 0x9b6b_f81a_7419_ecd2),
    ];
    for (name, mode, pinned) in cases {
        let config = OnlineConfig::vehicular()
            .with_base(quick_ttsa())
            .with_mode(mode);
        let mut engine = vehicles(33, config);
        let reports = engine.run(4).unwrap();
        assert_pinned(
            &format!("mobility run_ttsa {name}"),
            mobility_fingerprint(&engine, &reports),
            pinned,
        );
    }
}
