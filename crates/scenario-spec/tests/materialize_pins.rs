//! Bit pins for generated-mode materialization.
//!
//! The other materialize tests compare a spec with itself (same seed,
//! same scenario) or with the generator's gains, so a change that moved
//! which user draws which template, or where a β jitter comes from,
//! would still pass them. These tests fold every drawn coefficient of a
//! few generated specs, over several seeds, into one FNV-1a fingerprint
//! per spec: each user's task, preferences and device, every channel
//! gain and the gain layout, the server capacities, the band plan, the
//! noise and the downlink.
//!
//! If one of these fails after an *intentional* change to how generated
//! specs are drawn, update the constant and say why in the changelog.

use mec_scenario_spec::{load_spec, ScenarioBuilder, ScenarioSpec, UserTemplate};
use mec_system::Scenario;
use mec_types::SubchannelId;
use std::path::PathBuf;

const SEEDS: [u64; 5] = [0, 1, 17, 42, 1_234_567];

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

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn scenario(&mut self, scenario: &Scenario) {
        self.word(scenario.num_users() as u64);
        self.word(scenario.num_servers() as u64);
        self.word(scenario.num_subchannels() as u64);
        self.float(scenario.ofdma().bandwidth().as_hz());
        self.float(scenario.noise().as_watts());
        self.float(scenario.downlink().map_or(-1.0, |r| r.as_bps()));
        self.word(u64::from(scenario.gains().is_subchannel_shared()));
        for server in scenario.servers() {
            self.float(server.capacity().as_hz());
        }
        for u in scenario.user_ids() {
            let user = scenario.user(u);
            self.float(user.task.data().as_bits());
            self.float(user.task.workload().as_cycles());
            self.float(user.task.output().as_bits());
            self.float(user.preferences.beta_time());
            self.float(user.lambda.value());
            self.float(user.device.cpu().as_hz());
            self.float(user.device.kappa());
            self.float(user.device.tx_power().as_dbm());
            for s in scenario.server_ids() {
                for j in 0..scenario.num_subchannels() {
                    self.float(scenario.gains().gain(u, s, SubchannelId::new(j)));
                }
            }
        }
    }
}

fn fold(spec: &ScenarioSpec) -> u64 {
    let mut fp = Fingerprint::new();
    for seed in SEEDS {
        fp.scenario(&spec.materialize(seed).expect("pinned specs materialize"));
    }
    fp.0
}

/// The corpus' two-template spec, as committed.
fn mixed_population() -> ScenarioSpec {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/mixed_population.toml");
    load_spec(&path).expect("the corpus spec loads")
}

/// Three templates that differ in every user field, hotspot placement,
/// seven cells, two subchannels and a non-default transmit power.
fn hotspot_three_classes() -> ScenarioSpec {
    ScenarioBuilder::new("hotspot_three_classes")
        .servers(7)
        .subchannels(2)
        .tx_power_dbm(23.0)
        .users(24)
        .hotspots(2, 150.0)
        .template(UserTemplate {
            weight: 3.0,
            task_data_kb: 300.0,
            task_mcycles: 1200.0,
            beta_time: 0.7,
            beta_time_spread: 0.2,
            lambda: 1.0,
            user_cpu_ghz: 1.0,
            kappa: 5e-27,
        })
        .add_template(UserTemplate {
            weight: 2.0,
            task_data_kb: 800.0,
            task_mcycles: 2600.0,
            beta_time: 0.3,
            beta_time_spread: 0.0,
            lambda: 0.6,
            user_cpu_ghz: 1.5,
            kappa: 3e-27,
        })
        .add_template(UserTemplate {
            weight: 1.0,
            task_data_kb: 120.0,
            task_mcycles: 500.0,
            beta_time: 0.5,
            beta_time_spread: 0.4,
            lambda: 0.8,
            user_cpu_ghz: 0.8,
            kappa: 8e-27,
        })
        .try_build()
        .expect("the pinned spec validates")
}

/// One template whose β jitter continues the shadowing stream.
fn one_class_jitter() -> ScenarioSpec {
    ScenarioBuilder::new("one_class_jitter")
        .servers(4)
        .users(12)
        .beta_time(0.5)
        .beta_time_spread(0.3)
        .try_build()
        .expect("the pinned spec validates")
}

/// Two templates returning results over a downlink.
fn two_classes_downlink() -> ScenarioSpec {
    ScenarioBuilder::new("two_classes_downlink")
        .servers(4)
        .users(15)
        .downlink(50.0, 100.0)
        .add_template(UserTemplate {
            task_mcycles: 3000.0,
            beta_time: 0.9,
            beta_time_spread: 0.05,
            ..UserTemplate::default()
        })
        .try_build()
        .expect("the pinned spec validates")
}

#[test]
fn generated_specs_draw_pinned_bits() {
    let pins = [
        (mixed_population(), 0x4a81_46dd_cbe0_643b),
        (hotspot_three_classes(), 0xc242_f2ae_8724_beaa),
        (one_class_jitter(), 0x69eb_19e9_edfc_74ef),
        (two_classes_downlink(), 0xe80d_e9de_27f0_f1fd),
    ];
    let moved: Vec<String> = pins
        .iter()
        .filter_map(|(spec, pinned)| {
            let actual = fold(spec);
            (actual != *pinned)
                .then(|| format!("{}: {actual:#018x} (pinned {pinned:#018x})", spec.name))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "generated specs drew different bits:\n{}",
        moved.join("\n")
    );
}
