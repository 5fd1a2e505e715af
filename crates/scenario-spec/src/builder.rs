//! Fluent front-end for constructing [`ScenarioSpec`] values in code.
//!
//! The builder always produces a *generated*-mode spec (explicit specs
//! are emitted by tooling, not written by hand). Every method mirrors a
//! schema field; [`ScenarioBuilder::try_build`] validates the result so
//! programmatic construction and file parsing share one semantic gate.

use crate::error::SpecError;
use crate::schema::{
    AdmissionSpec, ChurnSpec, DownlinkSpec, EffortSpec, ExpectSpec, GeneratedSpec, OnlineSpec,
    ScenarioSpec, SlaSpec, SpecMode, UserTemplate, SCHEMA_VERSION,
};
use mec_online::{EngineEvent, TimedEvent};
use mec_types::Seconds;
use mec_workloads::PlacementModel;

/// Builds generated-mode [`ScenarioSpec`]s fluently.
///
/// ```
/// use mec_scenario_spec::ScenarioBuilder;
///
/// let spec = ScenarioBuilder::new("demo")
///     .users(12)
///     .servers(4)
///     .subchannels(2)
///     .try_build()
///     .unwrap();
/// assert_eq!(spec.name, "demo");
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Starts from the paper-default regime (§V of the TSAJS paper).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            spec: ScenarioSpec {
                schema_version: SCHEMA_VERSION,
                name: name.into(),
                description: None,
                mode: SpecMode::Generated(GeneratedSpec {
                    topology: Default::default(),
                    radio: Default::default(),
                    compute: Default::default(),
                    population: Default::default(),
                    downlink: None,
                }),
                churn: None,
                admission: None,
                sla: None,
                online: None,
                timeline: Vec::new(),
                expect: None,
                provenance: None,
                effort: None,
            },
        }
    }

    fn generated(&mut self) -> &mut GeneratedSpec {
        match &mut self.spec.mode {
            SpecMode::Generated(g) => g,
            SpecMode::Explicit(_) => unreachable!("builder specs are always generated"),
        }
    }

    /// Sets the human-readable description.
    pub fn description(mut self, text: impl Into<String>) -> Self {
        self.spec.description = Some(text.into());
        self
    }

    // ---- topology / radio / compute -------------------------------------

    /// Number of edge servers.
    pub fn servers(mut self, servers: usize) -> Self {
        self.generated().topology.servers = servers;
        self
    }

    /// Inter-site distance in meters.
    pub fn inter_site_distance_m(mut self, m: f64) -> Self {
        self.generated().topology.inter_site_distance_m = m;
        self
    }

    /// Uplink bandwidth in Hz.
    pub fn bandwidth_hz(mut self, hz: f64) -> Self {
        self.generated().radio.bandwidth_hz = hz;
        self
    }

    /// OFDMA subchannels per server.
    pub fn subchannels(mut self, n: usize) -> Self {
        self.generated().radio.subchannels = n;
        self
    }

    /// Noise power in dBm.
    pub fn noise_dbm(mut self, dbm: f64) -> Self {
        self.generated().radio.noise_dbm = dbm;
        self
    }

    /// Device transmit power in dBm.
    pub fn tx_power_dbm(mut self, dbm: f64) -> Self {
        self.generated().radio.tx_power_dbm = dbm;
        self
    }

    /// Log-normal shadowing σ in dB.
    pub fn shadowing_db(mut self, db: f64) -> Self {
        self.generated().radio.shadowing_db = db;
        self
    }

    /// Disables shadowing (deterministic distance-only pathloss).
    pub fn without_shadowing(self) -> Self {
        self.shadowing_db(0.0)
    }

    /// Per-server CPU capacity in GHz.
    pub fn server_cpu_ghz(mut self, ghz: f64) -> Self {
        self.generated().compute.server_cpu_ghz = ghz;
        self
    }

    // ---- population ------------------------------------------------------

    /// Number of users.
    pub fn users(mut self, users: usize) -> Self {
        self.generated().population.users = users;
        self
    }

    /// Clustered (hotspot) placement.
    pub fn hotspots(mut self, clusters: usize, spread_m: f64) -> Self {
        self.generated().population.placement = PlacementModel::Hotspots { clusters, spread_m };
        self
    }

    /// Replaces the template set with a single template.
    pub fn template(mut self, template: UserTemplate) -> Self {
        self.generated().population.templates = vec![template];
        self
    }

    /// Appends an additional weighted template.
    pub fn add_template(mut self, template: UserTemplate) -> Self {
        self.generated().population.templates.push(template);
        self
    }

    /// Mutates the sole template in place (convenience for single-template
    /// regimes; panics if more than one template is present).
    pub fn tweak_template(mut self, f: impl FnOnce(&mut UserTemplate)) -> Self {
        let templates = &mut self.generated().population.templates;
        assert_eq!(
            templates.len(),
            1,
            "tweak_template requires exactly one template"
        );
        f(&mut templates[0]);
        self
    }

    /// Task workload in megacycles (sole template).
    pub fn task_mcycles(self, mcycles: f64) -> Self {
        self.tweak_template(|t| t.task_mcycles = mcycles)
    }

    /// Task input size in kilobytes (sole template).
    pub fn task_data_kb(self, kb: f64) -> Self {
        self.tweak_template(|t| t.task_data_kb = kb)
    }

    /// Latency preference weight (sole template).
    pub fn beta_time(self, beta: f64) -> Self {
        self.tweak_template(|t| t.beta_time = beta)
    }

    /// Per-user beta jitter half-width (sole template).
    pub fn beta_time_spread(self, spread: f64) -> Self {
        self.tweak_template(|t| t.beta_time_spread = spread)
    }

    /// Downlink modelling.
    pub fn downlink(mut self, rate_mbps: f64, output_kb: f64) -> Self {
        self.generated().downlink = Some(DownlinkSpec {
            rate_mbps,
            output_kb,
        });
        self
    }

    // ---- online sections -------------------------------------------------

    /// Poisson churn process (timeline `load_ramp` events scale its rate).
    pub fn poisson_churn(mut self, arrival_rate_hz: f64, mean_sojourn_s: f64) -> Self {
        self.spec.churn = Some(ChurnSpec {
            initial_users: None,
            arrival_rate_hz,
            mean_sojourn_s,
        });
        self
    }

    /// Admission policy by wire name (`admit_all`, `reject`, `force_local`).
    pub fn admission(mut self, policy: impl Into<String>, capacity: Option<usize>) -> Self {
        self.spec.admission = Some(AdmissionSpec {
            policy: policy.into(),
            capacity,
        });
        self
    }

    /// SLA completion deadline in seconds.
    pub fn sla_deadline_s(mut self, deadline_s: f64) -> Self {
        self.spec.sla = Some(SlaSpec { deadline_s });
        self
    }

    /// Enables the online engine with defaults, then applies `f`.
    pub fn online(mut self, f: impl FnOnce(&mut OnlineSpec)) -> Self {
        let mut online = self.spec.online.take().unwrap_or_default();
        f(&mut online);
        self.spec.online = Some(online);
        self
    }

    // ---- timeline --------------------------------------------------------

    /// Appends a raw timeline event.
    pub fn event(mut self, at_s: f64, event: EngineEvent) -> Self {
        self.spec.timeline.push(TimedEvent {
            at: Seconds::new(at_s),
            event,
        });
        self
    }

    /// Server goes down at `at_s`.
    pub fn server_outage(self, at_s: f64, server: usize) -> Self {
        self.event(at_s, EngineEvent::ServerOutage { server })
    }

    /// Server comes back at `at_s`.
    pub fn server_recovery(self, at_s: f64, server: usize) -> Self {
        self.event(at_s, EngineEvent::ServerRecovery { server })
    }

    /// Burst of arrivals at `at_s`.
    pub fn flash_crowd(self, at_s: f64, arrivals: usize, mean_sojourn_s: f64) -> Self {
        self.event(
            at_s,
            EngineEvent::FlashCrowd {
                arrivals,
                mean_sojourn: Seconds::new(mean_sojourn_s),
            },
        )
    }

    /// Arrival-rate scaling at `at_s` (requires a `[churn]` section).
    pub fn load_ramp(self, at_s: f64, rate_factor: f64) -> Self {
        self.event(at_s, EngineEvent::LoadRamp { rate_factor })
    }

    /// Population drift toward `cell` at `at_s`.
    pub fn hotspot_drift(self, at_s: f64, cell: usize, fraction: f64) -> Self {
        self.event(at_s, EngineEvent::HotspotDrift { cell, fraction })
    }

    // ---- expectations / effort -------------------------------------------

    /// Attaches golden assertions.
    pub fn expect(mut self, f: impl FnOnce(&mut ExpectSpec)) -> Self {
        let mut expect = self.spec.expect.take().unwrap_or(ExpectSpec {
            seed: 0,
            solver: None,
            feasible: true,
            min_utility: None,
            max_utility: None,
            min_offloaded: None,
            users: None,
            servers: None,
            subchannels: None,
            min_deadline_hit_rate: None,
            min_arrivals: None,
            min_events_applied: None,
            final_servers_up: None,
            min_peak_active: None,
        });
        f(&mut expect);
        self.spec.expect = Some(expect);
        self
    }

    /// Attaches solver-effort overrides (preset budgets).
    pub fn effort(mut self, trials: usize, ttsa_min_temperature: f64) -> Self {
        self.spec.effort = Some(EffortSpec {
            trials,
            ttsa_min_temperature,
        });
        self
    }

    // ---- finish ----------------------------------------------------------

    /// Returns the spec without validating (callers that compose further).
    pub fn build(self) -> ScenarioSpec {
        self.spec
    }

    /// Validates and returns the spec.
    pub fn try_build(self) -> Result<ScenarioSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_specs_validate_and_round_trip() {
        let spec = ScenarioBuilder::new("built")
            .description("builder round trip")
            .users(10)
            .servers(4)
            .subchannels(2)
            .task_mcycles(1500.0)
            .hotspots(2, 50.0)
            .poisson_churn(0.1, 60.0)
            .admission("force_local", Some(6))
            .sla_deadline_s(0.8)
            .online(|o| o.epochs = 5)
            .server_outage(10.0, 1)
            .server_recovery(30.0, 1)
            .expect(|e| {
                e.seed = 3;
                e.min_arrivals = Some(1);
            })
            .try_build()
            .unwrap();
        let text = spec.to_toml_string().unwrap();
        let back = crate::ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn invalid_builder_configs_surface_spec_errors() {
        let err = ScenarioBuilder::new("bad")
            .users(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err.path, "population.users");

        let err = ScenarioBuilder::new("bad")
            .online(|_| {})
            .load_ramp(5.0, 2.0)
            .try_build()
            .unwrap_err();
        assert_eq!(err.path, "timeline[0]");
    }
}
