//! Turning fuzzed scenarios into replayable scenario specs.
//!
//! A conformance violation only matters if someone can reproduce it. This
//! module converts any [`Scenario`] — including the fuzzer's — into a
//! fully-*explicit* [`ScenarioSpec`] (every coefficient and channel gain
//! written out literally), so the artifact replays bit-for-bit with
//! `tsajs-sim solve --scenario artifact.toml` regardless of fuzzer or
//! generator changes. [`write_violation_artifacts`] walks a verdict
//! report, re-derives each violating seed's scenario and writes one
//! `.toml` per violation.

use crate::fuzz;
use crate::report::VerdictReport;
use crate::ConformanceConfig;
use mec_scenario_spec::{
    ExplicitSpec, ExplicitUser, ProvenanceSpec, ScenarioSpec, SpecMode, SCHEMA_VERSION,
};
use mec_system::Scenario;
use mec_types::SubchannelId;
use std::io;
use std::path::{Path, PathBuf};

/// Converts a scenario into a seed-independent explicit spec. All values
/// are taken through the raw unit getters, so `spec.materialize(seed)`
/// rebuilds the scenario bit-for-bit at any seed.
pub fn explicit_spec(scenario: &Scenario, name: &str) -> ScenarioSpec {
    let users = scenario
        .user_ids()
        .map(|u| {
            let spec = scenario.user(u);
            let output = spec.task.output().as_bits();
            ExplicitUser {
                task_data_bits: spec.task.data().as_bits(),
                task_cycles: spec.task.workload().as_cycles(),
                task_output_bits: (output > 0.0).then_some(output),
                beta_time: spec.preferences.beta_time(),
                lambda: spec.lambda.value(),
                user_cpu_hz: spec.device.cpu().as_hz(),
                kappa: spec.device.kappa(),
                tx_power_dbm: spec.device.tx_power().as_dbm(),
                gains: scenario
                    .server_ids()
                    .map(|s| {
                        (0..scenario.num_subchannels())
                            .map(|j| scenario.gains().gain(u, s, SubchannelId::new(j)))
                            .collect()
                    })
                    .collect(),
            }
        })
        .collect();
    ScenarioSpec {
        schema_version: SCHEMA_VERSION,
        name: name.to_string(),
        description: None,
        mode: SpecMode::Explicit(ExplicitSpec {
            bandwidth_hz: scenario.ofdma().bandwidth().as_hz(),
            subchannels: scenario.num_subchannels(),
            noise_w: scenario.noise().as_watts(),
            server_cpu_hz: scenario
                .servers()
                .iter()
                .map(|s| s.capacity().as_hz())
                .collect(),
            downlink_bps: scenario.downlink().map(|r| r.as_bps()),
            users,
        }),
        churn: None,
        admission: None,
        sla: None,
        online: None,
        timeline: Vec::new(),
        expect: None,
        provenance: None,
        effort: None,
    }
}

/// Extracts the violating seeds recorded in a verdict report, with the
/// invariant that flagged each. Examples are prefixed `"seed N: ..."` by
/// [`crate::report::InvariantVerdict::record`]; anything else is skipped.
fn violating_seeds(report: &VerdictReport) -> Vec<(String, u64)> {
    let mut seeds = Vec::new();
    for verdict in &report.invariants {
        for example in &verdict.examples {
            let Some(rest) = example.strip_prefix("seed ") else {
                continue;
            };
            let Some((num, _)) = rest.split_once(':') else {
                continue;
            };
            if let Ok(seed) = num.trim().parse::<u64>() {
                let entry = (verdict.invariant.to_string(), seed);
                if !seeds.contains(&entry) {
                    seeds.push(entry);
                }
            }
        }
    }
    seeds
}

/// Rebuilds each violating seed's fuzzed scenario and returns one
/// replayable explicit spec per `(invariant, seed)` pair, tagged with
/// provenance.
pub fn violation_specs(
    report: &VerdictReport,
    config: &ConformanceConfig,
) -> Vec<(String, ScenarioSpec)> {
    violating_seeds(report)
        .into_iter()
        .map(|(invariant, seed)| {
            let scenario = fuzz::scenario(&config.fuzz, seed);
            let name = format!("violation_{invariant}_seed_{seed}");
            let mut spec = explicit_spec(&scenario, &name);
            spec.description = Some(format!(
                "fuzzed instance that violated `{invariant}`; replay with \
                 `tsajs-sim solve --scenario {name}.toml`"
            ));
            spec.provenance = Some(ProvenanceSpec {
                invariant: Some(invariant),
                seed: Some(seed),
                offload_probability: Some(config.fuzz.offload_probability),
                source: Some("tsajs-sim conformance fuzzer".to_string()),
            });
            (format!("{name}.toml"), spec)
        })
        .collect()
}

/// Writes every violation in `report` as a replayable `.toml` under
/// `dir` (created if missing) and returns the written paths.
///
/// # Errors
///
/// Propagates filesystem errors; spec-encoding failures surface as
/// [`io::ErrorKind::InvalidData`].
pub fn write_violation_artifacts(
    report: &VerdictReport,
    config: &ConformanceConfig,
    dir: &Path,
) -> io::Result<Vec<PathBuf>> {
    let specs = violation_specs(report, config);
    if !specs.is_empty() {
        std::fs::create_dir_all(dir)?;
    }
    let mut paths = Vec::with_capacity(specs.len());
    for (file, spec) in specs {
        let toml = spec
            .to_toml_string()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = dir.join(file);
        std::fs::write(&path, toml)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::InvariantVerdict;

    /// A stable fingerprint of everything the objective depends on: the raw
    /// f64 bits of every coefficient, gain, capacity and the noise floor.
    /// Two scenarios with equal fingerprints produce identical objectives for
    /// every assignment.
    fn scenario_fingerprint(scenario: &Scenario) -> u64 {
        // FNV-1a over the exact bit patterns — no tolerance, no rounding.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: f64| {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(scenario.ofdma().bandwidth().as_hz());
        eat(scenario.noise().as_watts());
        eat(scenario.downlink().map(|r| r.as_bps()).unwrap_or(-1.0));
        for s in scenario.servers() {
            eat(s.capacity().as_hz());
        }
        for u in scenario.user_ids() {
            let spec = scenario.user(u);
            eat(spec.task.data().as_bits());
            eat(spec.task.workload().as_cycles());
            eat(spec.task.output().as_bits());
            eat(spec.preferences.beta_time());
            eat(spec.lambda.value());
            eat(spec.device.cpu().as_hz());
            eat(spec.device.kappa());
            eat(spec.device.tx_power().as_dbm());
            for s in scenario.server_ids() {
                for j in 0..scenario.num_subchannels() {
                    eat(scenario.gains().gain(u, s, SubchannelId::new(j)));
                }
            }
        }
        hash
    }

    #[test]
    fn explicit_specs_replay_fuzzed_scenarios_bit_for_bit() {
        let config = crate::FuzzConfig::smoke();
        for seed in 0..10 {
            let original = fuzz::scenario(&config, seed);
            let spec = explicit_spec(&original, "replay");
            // Round-trip through the TOML text, like a real artifact.
            let toml = spec.to_toml_string().unwrap();
            let parsed = ScenarioSpec::from_toml_str(&toml).unwrap();
            // Explicit specs are seed-independent: any seed reproduces.
            let replayed = parsed.materialize(seed ^ 0xABCD).unwrap();
            assert_eq!(
                scenario_fingerprint(&original),
                scenario_fingerprint(&replayed),
                "seed {seed} did not replay bit-for-bit"
            );
        }
    }

    #[test]
    fn fingerprints_separate_different_scenarios() {
        let config = crate::FuzzConfig::smoke();
        let a = scenario_fingerprint(&fuzz::scenario(&config, 1));
        let b = scenario_fingerprint(&fuzz::scenario(&config, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn violation_artifacts_name_the_invariant_and_seed() {
        let mut verdict = InvariantVerdict::new("kkt_allocation_eq22");
        verdict.record(7, Err("objective mismatch".into()));
        verdict.record(7, Err("still mismatched".into()));
        verdict.record(9, Err("worse".into()));
        let report = VerdictReport::new(10, 0, 1e-9, vec![verdict]);
        let config = ConformanceConfig::smoke();

        let specs = violation_specs(&report, &config);
        assert_eq!(specs.len(), 2, "duplicate seeds collapse to one artifact");
        assert_eq!(specs[0].0, "violation_kkt_allocation_eq22_seed_7.toml");
        assert_eq!(specs[1].0, "violation_kkt_allocation_eq22_seed_9.toml");
        let provenance = specs[0].1.provenance.as_ref().unwrap();
        assert_eq!(provenance.seed, Some(7));
        assert_eq!(provenance.invariant.as_deref(), Some("kkt_allocation_eq22"));

        let dir =
            std::env::temp_dir().join(format!("mec-conformance-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_violation_artifacts(&report, &config, &dir).unwrap();
        assert_eq!(paths.len(), 2);
        for path in &paths {
            let spec = mec_scenario_spec::load_spec(path).unwrap();
            spec.validate().unwrap();
            let replay = spec.materialize(0).unwrap();
            let seed = spec.provenance.unwrap().seed.unwrap();
            assert_eq!(
                scenario_fingerprint(&replay),
                scenario_fingerprint(&fuzz::scenario(&config.fuzz, seed))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_clean_report_writes_nothing() {
        let report = VerdictReport::new(10, 0, 1e-9, vec![InvariantVerdict::new("clean")]);
        let config = ConformanceConfig::smoke();
        let dir =
            std::env::temp_dir().join(format!("mec-conformance-clean-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_violation_artifacts(&report, &config, &dir).unwrap();
        assert!(paths.is_empty());
        assert!(!dir.exists(), "no artifact dir for a clean run");
    }
}
