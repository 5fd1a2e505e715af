//! End-to-end tests of the downlink extension (§III-A.2) across the full
//! stack: tasks with output data, scenario construction, every solver,
//! and spec round-trips.

use tsajs_mec::prelude::*;
use tsajs_mec::system::ScenarioSnapshot;
use tsajs_mec::types::BitsPerSecond;

fn downlink_scenario(rate_mbps: f64) -> Scenario {
    let task = Task::with_output(
        Bits::from_kilobytes(420.0),
        Cycles::from_mega(2000.0),
        Bits::from_kilobytes(200.0),
    )
    .unwrap();
    let spec = UserSpec {
        task,
        device: DeviceProfile::paper_default(),
        preferences: UserPreferences::balanced(),
        lambda: ProviderPreference::MAX,
    };
    Scenario::new(
        vec![spec; 6],
        vec![ServerProfile::paper_default(); 3],
        OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, 2).unwrap(),
        ChannelGains::uniform(6, 3, 2, 1e-10).unwrap(),
        constants::DEFAULT_NOISE.to_watts(),
    )
    .unwrap()
    .with_downlink(BitsPerSecond::new(rate_mbps * 1e6))
    .unwrap()
}

#[test]
fn every_solver_handles_downlink_scenarios() {
    let scenario = downlink_scenario(50.0);
    let mut solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(TsajsSolver::new(
            TtsaConfig::paper_default()
                .with_min_temperature(1e-3)
                .with_seed(1),
        )),
        Box::new(HJtoraSolver::new()),
        Box::new(GreedySolver::new()),
        Box::new(LocalSearchSolver::with_seed(1)),
        Box::new(ExhaustiveSolver::new()),
    ];
    for solver in &mut solvers {
        let solution = solver.solve(&scenario).unwrap();
        solution.assignment.verify_feasible(&scenario).unwrap();
        let eval = solution.evaluate(&scenario).unwrap();
        assert!(
            (eval.system_utility - solution.utility).abs() < 1e-9,
            "{}",
            solver.name()
        );
        // Offloaded users pay the download time in their completion time.
        for m in eval.users.iter().filter(|m| m.offloaded) {
            // 200 KB at 50 Mbit/s = 1.6384 Mb / 50 Mb/s ≈ 32.8 ms.
            assert!((m.download_time.as_secs() - 200.0 * 8192.0 / 50.0e6).abs() < 1e-9);
        }
    }
}

#[test]
fn slower_downlink_reduces_offloading_appeal() {
    // The same network with a crippled downlink must never score higher.
    let fast = downlink_scenario(1000.0);
    let slow = downlink_scenario(0.2);
    let solve = |sc: &Scenario| ExhaustiveSolver::new().solve(sc).unwrap();
    let fast_solution = solve(&fast);
    let slow_solution = solve(&slow);
    assert!(fast_solution.utility >= slow_solution.utility);
    // At 0.2 Mbit/s, returning 200 KB costs ~8.2 s against a 2 s local
    // time (download cost ≈ 2.0 > the unit gain) — offloading is
    // pointless and the optimum keeps everyone local.
    assert_eq!(slow_solution.assignment.num_offloaded(), 0);
    assert!(fast_solution.assignment.num_offloaded() > 0);
}

#[test]
fn downlink_scenarios_roundtrip_through_specs() {
    let original = downlink_scenario(100.0);
    let spec = ScenarioSnapshot::from_scenario(&original);
    let rebuilt = spec.into_scenario().unwrap();
    // Identical objective on an identical decision.
    let mut x = Assignment::all_local(&original);
    x.assign(UserId::new(0), ServerId::new(0), SubchannelId::new(0))
        .unwrap();
    let a = Evaluator::new(&original).objective(&x);
    let b = Evaluator::new(&rebuilt).objective(&x);
    assert_eq!(a, b);
}
