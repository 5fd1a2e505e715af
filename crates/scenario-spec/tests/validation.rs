//! Table-driven rejection tests for the declarative scenario schema.
//!
//! Every case is a complete TOML document plus the field path the error
//! must name. The table splits into two stages mirroring the API:
//! decode-stage failures (strict field checking, type errors, unknown
//! enum strings) surface from `from_toml_str`, while semantic failures
//! (ranges, cross-section requirements, timeline consistency) surface
//! from `validate()` on a successfully parsed spec.

use mec_scenario_spec::{ScenarioBuilder, ScenarioSpec, SpecError};
use proptest::prelude::*;

struct Case {
    label: &'static str,
    doc: &'static str,
    path: &'static str,
    message: &'static str,
}

/// Failures the parser must catch before `validate()` even runs.
const DECODE_REJECTIONS: &[Case] = &[
    Case {
        label: "missing schema_version",
        doc: "name = \"x\"\n",
        path: "schema_version",
        message: "missing required field",
    },
    Case {
        label: "unsupported schema_version",
        doc: "schema_version = 99\nname = \"x\"\n",
        path: "schema_version",
        message: "unsupported version 99",
    },
    Case {
        label: "missing name",
        doc: "schema_version = 1\n",
        path: "name",
        message: "missing required field",
    },
    Case {
        label: "unknown top-level field",
        doc: "schema_version = 1\nname = \"x\"\nflux_capacitor = 1.21\n",
        path: "flux_capacitor",
        message: "unknown field",
    },
    Case {
        label: "unknown nested field (typo)",
        doc: "schema_version = 1\nname = \"x\"\n[radio]\nbandwith_hz = 1.0\n",
        path: "radio.bandwith_hz",
        message: "unknown field",
    },
    Case {
        label: "unknown template field",
        doc: "schema_version = 1\nname = \"x\"\n[[population.template]]\nmcycles = 5.0\n",
        path: "population.template[0].mcycles",
        message: "unknown field",
    },
    Case {
        label: "unknown timeline event kind",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n[[timeline]]\nat_s = 1.0\nevent = \"warp\"\n",
        path: "timeline[0].event",
        message: "unknown event `warp`",
    },
    Case {
        label: "unknown placement",
        doc: "schema_version = 1\nname = \"x\"\n[population]\nplacement = \"ring\"\n",
        path: "population.placement",
        message: "unknown placement",
    },
    Case {
        label: "explicit conflicts with generated sections",
        doc: "schema_version = 1\nname = \"x\"\n[topology]\nservers = 3\n[explicit]\n",
        path: "topology",
        message: "conflicts with [explicit]",
    },
    Case {
        label: "cold online run cannot also name a warm budget",
        doc: "schema_version = 1\nname = \"x\"\n[online]\ncold = true\nwarm_budget = 100\n",
        path: "online.warm_budget",
        message: "conflicts with cold = true",
    },
];

/// Failures `validate()` must catch on a well-formed document.
const VALIDATE_REJECTIONS: &[Case] = &[
    Case {
        label: "unknown admission policy",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n[admission]\npolicy = \"coin_flip\"\n",
        path: "admission.policy",
        message: "unknown policy",
    },
    Case {
        label: "empty name",
        doc: "schema_version = 1\nname = \"\"\n",
        path: "name",
        message: "must not be empty",
    },
    Case {
        label: "zero servers",
        doc: "schema_version = 1\nname = \"x\"\n[topology]\nservers = 0\n",
        path: "topology.servers",
        message: "at least 1",
    },
    Case {
        label: "zero subchannels",
        doc: "schema_version = 1\nname = \"x\"\n[radio]\nsubchannels = 0\n",
        path: "radio.subchannels",
        message: "at least 1",
    },
    Case {
        label: "zero users",
        doc: "schema_version = 1\nname = \"x\"\n[population]\nusers = 0\n",
        path: "population.users",
        message: "at least 1",
    },
    Case {
        label: "non-positive template workload",
        doc: "schema_version = 1\nname = \"x\"\n[[population.template]]\ntask_mcycles = -5.0\n",
        path: "population.template[0].task_mcycles",
        message: "must be positive",
    },
    Case {
        label: "template lambda above one",
        doc: "schema_version = 1\nname = \"x\"\n[[population.template]]\nlambda = 2.0\n",
        path: "population.template[0].lambda",
        message: "within (0, 1]",
    },
    Case {
        label: "churn without an online section",
        doc: "schema_version = 1\nname = \"x\"\n[churn]\narrival_rate_hz = 0.1\nmean_sojourn_s = 60.0\n",
        path: "churn",
        message: "requires an [online] section",
    },
    Case {
        label: "timeline without an online section",
        doc: "schema_version = 1\nname = \"x\"\n\
              [[timeline]]\nat_s = 1.0\nevent = \"server_outage\"\nserver = 0\n",
        path: "timeline",
        message: "requires an [online] section",
    },
    Case {
        label: "negative event time",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = -1.0\nevent = \"server_outage\"\nserver = 0\n",
        path: "timeline[0].at_s",
        message: "must be non-negative",
    },
    Case {
        label: "outage of a server outside the topology",
        doc: "schema_version = 1\nname = \"x\"\n[topology]\nservers = 4\n[online]\n\
              [[timeline]]\nat_s = 1.0\nevent = \"server_outage\"\nserver = 7\n",
        path: "timeline[0].server",
        message: "does not exist",
    },
    Case {
        label: "identical events at the same instant overlap",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"server_outage\"\nserver = 1\n\
              [[timeline]]\nat_s = 5.0\nevent = \"server_outage\"\nserver = 1\n",
        path: "timeline[1]",
        message: "overlaps timeline[0]",
    },
    Case {
        label: "double outage without recovery",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"server_outage\"\nserver = 2\n\
              [[timeline]]\nat_s = 15.0\nevent = \"server_outage\"\nserver = 2\n",
        path: "timeline[1]",
        message: "already down",
    },
    Case {
        label: "recovery of a server that is up",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"server_recovery\"\nserver = 1\n",
        path: "timeline[0]",
        message: "not down",
    },
    Case {
        label: "events may not take every server down at once",
        doc: "schema_version = 1\nname = \"x\"\n[topology]\nservers = 2\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"server_outage\"\nserver = 0\n\
              [[timeline]]\nat_s = 6.0\nevent = \"server_outage\"\nserver = 1\n",
        path: "timeline[1]",
        message: "every server down",
    },
    Case {
        label: "flash crowd with zero arrivals",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"flash_crowd\"\narrivals = 0\nmean_sojourn_s = 30.0\n",
        path: "timeline[0].arrivals",
        message: "at least 1",
    },
    Case {
        label: "load ramp without a churn section",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"load_ramp\"\nrate_factor = 2.0\n",
        path: "timeline[0]",
        message: "load_ramp requires a [churn] section",
    },
    Case {
        label: "hotspot drift fraction above one",
        doc: "schema_version = 1\nname = \"x\"\n[online]\n\
              [[timeline]]\nat_s = 5.0\nevent = \"hotspot_drift\"\ncell = 0\nfraction = 1.5\n",
        path: "timeline[0].fraction",
        message: "",
    },
    Case {
        label: "zero online epochs",
        doc: "schema_version = 1\nname = \"x\"\n[online]\nepochs = 0\n",
        path: "online.epochs",
        message: "at least 1",
    },
    Case {
        label: "zero effort trials",
        doc: "schema_version = 1\nname = \"x\"\n[effort]\ntrials = 0\nttsa_min_temperature = 1e-3\n",
        path: "effort.trials",
        message: "at least 1",
    },
];

#[test]
fn decode_rejections_name_the_offending_field() {
    for case in DECODE_REJECTIONS {
        let err = ScenarioSpec::from_toml_str(case.doc)
            .err()
            .unwrap_or_else(|| panic!("{}: expected a decode error", case.label));
        assert_eq!(err.path, case.path, "{}: {err}", case.label);
        assert!(
            err.message.contains(case.message),
            "{}: message {:?} missing {:?}",
            case.label,
            err.message,
            case.message
        );
    }
}

#[test]
fn validate_rejections_name_the_offending_field() {
    for case in VALIDATE_REJECTIONS {
        let spec = ScenarioSpec::from_toml_str(case.doc)
            .unwrap_or_else(|e| panic!("{}: must parse cleanly, got {e}", case.label));
        let err = spec
            .validate()
            .err()
            .unwrap_or_else(|| panic!("{}: expected a validation error", case.label));
        assert_eq!(err.path, case.path, "{}: {err}", case.label);
        assert!(
            err.message.contains(case.message),
            "{}: message {:?} missing {:?}",
            case.label,
            err.message,
            case.message
        );
    }
}

#[test]
fn every_rejection_displays_with_its_path() {
    // The CLI prints `SpecError` via Display; the contract is that the
    // path always leads so the user can jump to the field.
    let err = SpecError::new("timeline[3].at_s", "must be non-negative (got -1)");
    assert_eq!(
        err.to_string(),
        "timeline[3].at_s: must be non-negative (got -1)"
    );
}

/// Builds a valid spec from arbitrary-but-sane knobs. Every combination
/// this strategy emits must validate, round-trip through both encodings
/// bit-exactly, and materialize deterministically.
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        2usize..6,    // servers (≥2 so an outage never empties the cell)
        1usize..16,   // users
        1usize..4,    // subchannels
        0.1f64..0.95, // beta_time (model requires [0, 1])
        0u8..16,      // feature bitmask: 1=no shadowing, 2=online, 4=churn, 8=events
        0.0f64..1.0,  // downlink selector (< 0.4 enables a downlink)
    )
        .prop_map(|(servers, users, subchannels, beta, flags, downlink)| {
            let churn = flags & 4 != 0;
            let events = flags & 8 != 0;
            let online = flags & 2 != 0 || churn || events;
            let mut b = ScenarioBuilder::new("prop")
                .servers(servers)
                .users(users)
                .subchannels(subchannels)
                .beta_time(beta);
            if flags & 1 != 0 {
                b = b.without_shadowing();
            }
            if downlink < 0.4 {
                b = b.downlink(5.0 + downlink * 100.0, 40.0);
            }
            if online {
                b = b.online(|o| {
                    o.epochs = 4;
                    o.warm_budget = Some(200);
                });
            }
            if churn {
                b = b.poisson_churn(0.1, 60.0);
            }
            if events {
                b = b.server_outage(12.0, 1).server_recovery(22.0, 1);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_specs_validate_and_round_trip_toml(spec in arb_spec()) {
        spec.validate().expect("builder output must validate");
        let text = spec.to_toml_string().unwrap();
        let back = ScenarioSpec::from_toml_str(&text).unwrap();
        prop_assert_eq!(&spec, &back, "TOML round-trip changed the spec:\n{}", text);
    }

    #[test]
    fn built_specs_round_trip_json(spec in arb_spec()) {
        let json = spec.to_json_string().unwrap();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        prop_assert_eq!(&spec, &back, "JSON round-trip changed the spec:\n{}", json);
    }

    #[test]
    fn materialization_is_seed_deterministic(spec in arb_spec(), seed in 0u64..1_000) {
        let a = spec.materialize(seed).unwrap();
        let b = spec.materialize(seed).unwrap();
        prop_assert_eq!(a.num_users(), b.num_users());
        prop_assert_eq!(a.num_servers(), b.num_servers());
        // Spot-check the channel tensor, the most seed-sensitive output.
        for u in a.user_ids() {
            for s in a.server_ids() {
                for j in 0..a.num_subchannels() {
                    let sub = mec_types::SubchannelId::new(j);
                    prop_assert_eq!(
                        a.gains().gain(u, s, sub).to_bits(),
                        b.gains().gain(u, s, sub).to_bits(),
                        "gain ({:?},{:?},{}) differs between identical materializations",
                        u, s, j
                    );
                }
            }
        }
    }
}
