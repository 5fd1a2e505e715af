//! Seeded end-to-end determinism pins for the online engine.

use mec_online::{AdmitAll, CapacityGate, OnlineConfig, OnlineEngine, PoissonChurn};
use mec_types::Seconds;
use mec_workloads::ExperimentParams;
use tsajs::{ResolveMode, TtsaConfig};

fn quick_config() -> OnlineConfig {
    OnlineConfig::pedestrian()
        .with_base(TtsaConfig::paper_default().with_min_temperature(1e-2))
        .with_mode(ResolveMode::warm(150))
}

fn run(seed: u64, epochs: usize) -> (Vec<mec_online::OnlineEpochReport>, mec_online::SlaLog) {
    let params = ExperimentParams::paper_default().with_servers(4);
    let churn = PoissonChurn::new(8, 0.15, Seconds::new(80.0), seed).unwrap();
    let mut engine = OnlineEngine::new(
        params,
        quick_config(),
        Box::new(churn),
        Box::new(AdmitAll),
        seed,
    )
    .unwrap();
    let reports = engine.run(epochs).unwrap();
    (reports, engine.sla().clone())
}

#[test]
fn same_seed_reproduces_the_full_report_stream() {
    let (a_reports, a_sla) = run(42, 12);
    let (b_reports, b_sla) = run(42, 12);
    assert_eq!(a_reports, b_reports);
    assert_eq!(a_sla, b_sla);
    // The stream must survive a serde round trip unchanged, since the CLI
    // emits it as JSON lines.
    for report in &a_reports {
        let line = serde_json::to_string(report).unwrap();
        let back: mec_online::OnlineEpochReport = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, report);
    }
}

#[test]
fn different_seeds_diverge() {
    let (a, _) = run(1, 8);
    let (b, _) = run(2, 8);
    assert_ne!(a, b);
}

#[test]
fn admission_policies_reproduce_too() {
    let params = ExperimentParams::paper_default().with_servers(4);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let churn = PoissonChurn::new(12, 0.4, Seconds::new(300.0), 9).unwrap();
        let mut engine = OnlineEngine::new(
            params,
            quick_config(),
            Box::new(churn),
            Box::new(CapacityGate::forcing_local(8)),
            9,
        )
        .unwrap();
        runs.push(engine.run(10).unwrap());
    }
    assert_eq!(runs[0], runs[1]);
    assert!(runs[0].iter().any(|r| r.forced_local > 0));
}
