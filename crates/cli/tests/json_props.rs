//! Property tests: scenario specs and solve reports survive JSON
//! round-trips for arbitrary geometries.

use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::{Assignment, Evaluator, Scenario, ScenarioSnapshot, UserSpec};
use mec_types::{constants, Cycles, ServerId, ServerProfile, SubchannelId, UserId};
use proptest::prelude::*;

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (1usize..=6, 1usize..=3, 1usize..=3, 0u64..500).prop_map(|(u, s, n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let gains =
            ChannelGains::from_fn(u, s, n, |_, _, _| 10.0_f64.powf(rng.gen_range(-14.0..-9.0)))
                .unwrap();
        Scenario::new(
            vec![
                UserSpec::paper_default_with_workload(Cycles::from_mega(
                    rng.gen_range(100.0..5000.0)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ScenarioSnapshot → JSON → ScenarioSnapshot → Scenario preserves the model
    /// exactly (objective values included).
    #[test]
    fn scenario_spec_json_roundtrip(scenario in arb_scenario(), seed in 0u64..100) {
        let spec = ScenarioSnapshot::from_scenario(&scenario);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &spec);
        let rebuilt = back.into_scenario().unwrap();

        // Identical objective on a shared random decision.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::all_local(&scenario);
        for u in scenario.user_ids() {
            if rng.gen_bool(0.5) {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                if let Some(j) = x.free_subchannel(s) {
                    x.assign(u, s, j).unwrap();
                }
            }
        }
        let a = Evaluator::new(&scenario).objective(&x);
        let b = Evaluator::new(&rebuilt).objective(&x);
        prop_assert_eq!(a, b);
    }

    /// Assignment → JSON → Assignment is exact, and corrupting the JSON to
    /// double-book a slot is rejected.
    #[test]
    fn assignment_json_roundtrip(scenario in arb_scenario(), seed in 0u64..100) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::all_local(&scenario);
        for u in scenario.user_ids() {
            if rng.gen_bool(0.6) {
                let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
                if let Some(j) = x.free_subchannel(s) {
                    x.assign(u, s, j).unwrap();
                }
            }
        }
        let json = serde_json::to_string(&x).unwrap();
        let back: Assignment = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &x);
        back.verify_feasible(&scenario).unwrap();
    }
}

#[test]
fn double_booked_assignment_json_is_rejected() {
    // Hand-craft a corrupted decision: two users on the same (s, j).
    let json = r#"{
        "num_servers": 2,
        "num_subchannels": 1,
        "slots": [[0, 0], [0, 0], null]
    }"#;
    let result: Result<Assignment, _> = serde_json::from_str(json);
    let err = result.unwrap_err().to_string();
    assert!(err.contains("invalid assignment"), "got: {err}");
}

#[test]
fn out_of_range_slot_json_is_rejected() {
    let json = r#"{
        "num_servers": 1,
        "num_subchannels": 1,
        "slots": [[5, 0]]
    }"#;
    let result: Result<Assignment, _> = serde_json::from_str(json);
    assert!(result.is_err());
}

#[test]
fn valid_assignment_json_parses() {
    let json = r#"{
        "num_servers": 2,
        "num_subchannels": 2,
        "slots": [[1, 0], null, [0, 1]]
    }"#;
    let x: Assignment = serde_json::from_str(json).unwrap();
    assert_eq!(x.num_users(), 3);
    assert_eq!(
        x.slot(UserId::new(0)),
        Some((ServerId::new(1), SubchannelId::new(0)))
    );
    assert_eq!(x.slot(UserId::new(1)), None);
    assert_eq!(
        x.occupant(ServerId::new(0), SubchannelId::new(1)),
        Some(UserId::new(2))
    );
}
