//! Turning validated specs into concrete model objects.
//!
//! - [`ScenarioSpec::materialize`] — a snapshot [`Scenario`] (generated
//!   mode draws placements/gains/jitter from the seed; explicit mode is
//!   seed-independent and bit-exact).
//! - [`ScenarioSpec::to_experiment_params`] — the [`ExperimentParams`]
//!   equivalent of a single-template generated spec, for code paths that
//!   still speak parameters.
//! - [`ScenarioSpec::online_plan`] — a fully-assembled [`OnlineEngine`]
//!   with churn, admission, SLA and the compiled event timeline.

use crate::error::SpecError;
use crate::schema::{
    ExplicitSpec, GeneratedSpec, PlacementSpec, ScenarioSpec, SpecMode, UserTemplate,
};
use mec_online::{AdmitAll, CapacityGate, EventSchedule, OnlineConfig, OnlineEngine, PoissonChurn};
use mec_radio::{ChannelGains, ChannelModel, OfdmaConfig};
use mec_system::{Scenario, UserSpec};
use mec_topology::{place_users_hotspots, place_users_uniform, NetworkLayout};
use mec_types::{
    Bits, BitsPerSecond, Cycles, DbMilliwatts, DeviceProfile, Hertz, Meters, ProviderPreference,
    Seconds, ServerProfile, Task, UserPreferences, Watts,
};
use mec_workloads::{ExperimentParams, PlacementModel, ScenarioGenerator, SHADOWING_STREAM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsajs::{ResolveMode, TtsaConfig};

/// Stream salt decorrelating template sampling / preference jitter from
/// the placement and shadowing streams.
const TEMPLATE_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything an online run needs, assembled from one spec.
pub struct OnlinePlan {
    /// The engine, with churn, admission and the event timeline attached.
    pub engine: OnlineEngine,
    /// How many epochs the spec asks for.
    pub epochs: usize,
}

impl ScenarioSpec {
    /// Builds the concrete [`Scenario`] this spec describes.
    ///
    /// Generated mode: placements come from `seed`, shadowing from
    /// `seed ^` [`SHADOWING_STREAM`] (the exact streams
    /// [`ScenarioGenerator`] uses, so single-template specs reproduce the
    /// generator bit-for-bit) and template sampling / preference jitter
    /// from a third stream. Explicit mode ignores `seed` entirely.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec is semantically invalid or the
    /// model constructors reject a value.
    pub fn materialize(&self, seed: u64) -> Result<Scenario, SpecError> {
        self.validate()?;
        match &self.mode {
            SpecMode::Explicit(e) => e.materialize(),
            SpecMode::Generated(g) => g.materialize(seed),
        }
    }

    /// The [`ExperimentParams`] equivalent of this spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] unless the spec is generated-mode with
    /// exactly one population template (parameters describe a homogeneous
    /// population; heterogeneous specs must materialize directly).
    pub fn to_experiment_params(&self) -> Result<ExperimentParams, SpecError> {
        let SpecMode::Generated(g) = &self.mode else {
            return Err(SpecError::new(
                "explicit",
                "explicit specs carry no experiment parameters",
            ));
        };
        let [t] = g.population.templates.as_slice() else {
            return Err(SpecError::new(
                "population.template",
                format!(
                    "experiment parameters need exactly one template (spec has {})",
                    g.population.templates.len()
                ),
            ));
        };
        let mut params = ExperimentParams {
            num_users: g.population.users,
            num_servers: g.topology.servers,
            num_subchannels: g.radio.subchannels,
            bandwidth: Hertz::new(g.radio.bandwidth_hz),
            noise: DbMilliwatts::new(g.radio.noise_dbm),
            tx_power: DbMilliwatts::new(g.radio.tx_power_dbm),
            inter_site_distance: Meters::new(g.topology.inter_site_distance_m),
            shadowing_db: g.radio.shadowing_db,
            server_cpu: Hertz::from_giga(g.compute.server_cpu_ghz),
            user_cpu: Hertz::from_giga(t.user_cpu_ghz),
            kappa: t.kappa,
            task_data: Bits::from_kilobytes(t.task_data_kb),
            task_workload: Cycles::from_mega(t.task_mcycles),
            beta_time: t.beta_time,
            beta_time_spread: t.beta_time_spread,
            lambda: t.lambda,
            task_output: None,
            downlink_rate: None,
            placement: match g.population.placement {
                PlacementSpec::Uniform => PlacementModel::Uniform,
                PlacementSpec::Hotspots { clusters, spread_m } => {
                    PlacementModel::Hotspots { clusters, spread_m }
                }
            },
        };
        if let Some(d) = &g.downlink {
            params.task_output = Some(Bits::from_kilobytes(d.output_kb));
            params.downlink_rate = Some(BitsPerSecond::new(d.rate_mbps * 1.0e6));
        }
        Ok(params)
    }

    /// Assembles the online run this spec describes: engine (with churn,
    /// admission, SLA deadline and the compiled event timeline) plus the
    /// epoch count.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec has no `[online]` section, uses
    /// multiple population templates, or a model constructor rejects it.
    pub fn online_plan(&self, seed: u64) -> Result<OnlinePlan, SpecError> {
        self.validate()?;
        let Some(online) = &self.online else {
            return Err(SpecError::new(
                "online",
                "this spec has no [online] section",
            ));
        };
        let params = self.to_experiment_params()?;

        let mut base = TtsaConfig::paper_default();
        let min_temperature = online
            .min_temperature
            .or(self.effort.as_ref().map(|e| e.ttsa_min_temperature));
        if let Some(t) = min_temperature {
            base = base.with_min_temperature(t);
        }
        let mode = match online.warm_budget {
            Some(budget) => ResolveMode::warm(budget),
            None => ResolveMode::Cold,
        };
        let mut config = OnlineConfig::pedestrian()
            .with_base(base)
            .with_mode(mode)
            .with_epoch_duration(Seconds::new(online.epoch_duration_s))
            .with_speed_range((online.speed_min_mps, online.speed_max_mps));
        config.redraw_shadowing = online.redraw_shadowing;
        if let Some(sla) = &self.sla {
            config = config.with_deadline(Seconds::new(sla.deadline_s));
        }

        let churn = match &self.churn {
            Some(c) => PoissonChurn::new(
                c.initial_users.unwrap_or(params.num_users),
                c.arrival_rate_hz,
                Seconds::new(c.mean_sojourn_s),
                seed,
            )
            .map_err(|e| SpecError::model("churn", &e))?,
            // No churn section: the population is static. At rate 0 the
            // process delivers the initial arrivals at t = 0 and (with a
            // sojourn far past the run) never departs.
            None => PoissonChurn::new(
                params.num_users,
                0.0,
                Seconds::new(online.run_length_s() + 1.0e9),
                seed,
            )
            .map_err(|e| SpecError::model("population.users", &e))?,
        };

        let admission: Box<dyn mec_online::AdmissionPolicy> = match &self.admission {
            None => Box::new(AdmitAll),
            Some(a) => match (a.policy.as_str(), a.capacity) {
                ("admit_all", _) => Box::new(AdmitAll),
                ("reject", Some(cap)) => Box::new(CapacityGate::rejecting(cap)),
                ("force_local", Some(cap)) => Box::new(CapacityGate::forcing_local(cap)),
                _ => unreachable!("validate() enforces policy/capacity pairing"),
            },
        };

        let engine = OnlineEngine::new(params, config, Box::new(churn), admission, seed)
            .map_err(|e| SpecError::model("online", &e))?
            .with_events(self.event_schedule());
        Ok(OnlinePlan {
            engine,
            epochs: online.epochs,
        })
    }

    /// Compiles the `[[timeline]]` entries into an engine-ready schedule.
    pub fn event_schedule(&self) -> EventSchedule {
        EventSchedule::new(self.timeline.clone())
    }
}

impl GeneratedSpec {
    fn materialize(&self, seed: u64) -> Result<Scenario, SpecError> {
        if let [_] = self.population.templates.as_slice() {
            // Single template: go through the generator so the spec
            // reproduces ExperimentParams-driven experiments bit-for-bit.
            let spec = ScenarioSpec {
                schema_version: crate::schema::SCHEMA_VERSION,
                name: "params".into(),
                description: None,
                mode: SpecMode::Generated(self.clone()),
                churn: None,
                admission: None,
                sla: None,
                online: None,
                timeline: Vec::new(),
                expect: None,
                provenance: None,
                effort: None,
            };
            let params = spec.to_experiment_params()?;
            return ScenarioGenerator::new(params)
                .generate(seed)
                .map_err(|e| SpecError::model("", &e));
        }

        // Heterogeneous population: draw the same placement and shadowing
        // streams the generator uses, plus a third stream for template
        // sampling and per-user jitter.
        let layout = NetworkLayout::hexagonal(
            self.topology.servers,
            Meters::new(self.topology.inter_site_distance_m),
        )
        .map_err(|e| SpecError::model("topology", &e))?;
        let mut placement_rng = StdRng::seed_from_u64(seed);
        let positions = match self.population.placement {
            PlacementSpec::Uniform => {
                place_users_uniform(&layout, self.population.users, &mut placement_rng)
            }
            PlacementSpec::Hotspots { clusters, spread_m } => place_users_hotspots(
                &layout,
                self.population.users,
                clusters,
                spread_m,
                &mut placement_rng,
            ),
        };
        let mut shadow_rng = StdRng::seed_from_u64(seed ^ SHADOWING_STREAM);
        let model = ChannelModel::paper_default().with_shadowing_db(self.radio.shadowing_db);
        let gains: ChannelGains =
            model.generate(&layout, &positions, self.radio.subchannels, &mut shadow_rng);

        let mut template_rng = StdRng::seed_from_u64(seed ^ TEMPLATE_STREAM_SALT);
        let total_weight: f64 = self.population.templates.iter().map(|t| t.weight).sum();
        let mut users = Vec::with_capacity(self.population.users);
        for u in 0..self.population.users {
            let template =
                pick_template(&self.population.templates, total_weight, &mut template_rng);
            users.push(
                template
                    .build_user(
                        self.downlink.as_ref().map(|d| d.output_kb),
                        DbMilliwatts::new(self.radio.tx_power_dbm),
                        &mut template_rng,
                    )
                    .map_err(|e| SpecError::model(format!("population.template ({u})"), &e))?,
            );
        }
        let servers = vec![
            ServerProfile::new(Hertz::from_giga(self.compute.server_cpu_ghz))
                .map_err(|e| SpecError::model("compute.server_cpu_ghz", &e))?;
            self.topology.servers
        ];
        let ofdma = OfdmaConfig::new(Hertz::new(self.radio.bandwidth_hz), self.radio.subchannels)
            .map_err(|e| SpecError::model("radio", &e))?;
        let scenario = Scenario::new(
            users,
            servers,
            ofdma,
            gains,
            DbMilliwatts::new(self.radio.noise_dbm).to_watts(),
        )
        .map_err(|e| SpecError::model("", &e))?;
        match &self.downlink {
            Some(d) => scenario
                .with_downlink(BitsPerSecond::new(d.rate_mbps * 1.0e6))
                .map_err(|e| SpecError::model("downlink", &e)),
            None => Ok(scenario),
        }
    }
}

fn pick_template<'a>(
    templates: &'a [UserTemplate],
    total_weight: f64,
    rng: &mut StdRng,
) -> &'a UserTemplate {
    let mut pick = rng.gen::<f64>() * total_weight;
    for t in templates {
        if pick < t.weight {
            return t;
        }
        pick -= t.weight;
    }
    templates.last().expect("validate() requires a template")
}

impl UserTemplate {
    fn build_user(
        &self,
        output_kb: Option<f64>,
        tx_power: DbMilliwatts,
        rng: &mut StdRng,
    ) -> Result<UserSpec, mec_types::Error> {
        let beta = if self.beta_time_spread > 0.0 {
            let lo = (self.beta_time - self.beta_time_spread).max(0.0);
            let hi = (self.beta_time + self.beta_time_spread).min(1.0);
            rng.gen_range(lo..=hi)
        } else {
            self.beta_time
        };
        let data = Bits::from_kilobytes(self.task_data_kb);
        let workload = Cycles::from_mega(self.task_mcycles);
        let task = match output_kb {
            Some(kb) => Task::with_output(data, workload, Bits::from_kilobytes(kb))?,
            None => Task::new(data, workload)?,
        };
        Ok(UserSpec {
            task,
            device: DeviceProfile::new(Hertz::from_giga(self.user_cpu_ghz), self.kappa, tx_power)?,
            preferences: UserPreferences::new(beta)?,
            lambda: ProviderPreference::new(self.lambda)?,
        })
    }
}

impl ExplicitSpec {
    fn materialize(&self) -> Result<Scenario, SpecError> {
        let mut users = Vec::with_capacity(self.users.len());
        for (i, u) in self.users.iter().enumerate() {
            let p = |field: &str| format!("explicit.user[{i}].{field}");
            let data = Bits::new(u.task_data_bits);
            let workload = Cycles::new(u.task_cycles);
            let task = match u.task_output_bits {
                Some(bits) => Task::with_output(data, workload, Bits::new(bits)),
                None => Task::new(data, workload),
            }
            .map_err(|e| SpecError::model(p("task_data_bits"), &e))?;
            users.push(UserSpec {
                task,
                device: DeviceProfile::new(
                    Hertz::new(u.user_cpu_hz),
                    u.kappa,
                    DbMilliwatts::new(u.tx_power_dbm),
                )
                .map_err(|e| SpecError::model(p("user_cpu_hz"), &e))?,
                preferences: UserPreferences::new(u.beta_time)
                    .map_err(|e| SpecError::model(p("beta_time"), &e))?,
                lambda: ProviderPreference::new(u.lambda)
                    .map_err(|e| SpecError::model(p("lambda"), &e))?,
            });
        }
        let servers = self
            .server_cpu_hz
            .iter()
            .enumerate()
            .map(|(i, &cpu)| {
                ServerProfile::new(Hertz::new(cpu))
                    .map_err(|e| SpecError::model(format!("explicit.server_cpu_hz[{i}]"), &e))
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        let ofdma = OfdmaConfig::new(Hertz::new(self.bandwidth_hz), self.subchannels)
            .map_err(|e| SpecError::model("explicit.bandwidth_hz", &e))?;
        let gains = ChannelGains::from_fn(
            self.users.len(),
            self.server_cpu_hz.len(),
            self.subchannels,
            |u, s, j| self.users[u.index()].gains[s.index()][j.index()],
        )
        .map_err(|e| SpecError::model("explicit.user", &e))?;
        let scenario = Scenario::new(users, servers, ofdma, gains, Watts::new(self.noise_w))
            .map_err(|e| SpecError::model("explicit", &e))?;
        match self.downlink_bps {
            Some(bps) => scenario
                .with_downlink(BitsPerSecond::new(bps))
                .map_err(|e| SpecError::model("explicit.downlink_bps", &e)),
            None => Ok(scenario),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;

    #[test]
    fn single_template_specs_reproduce_the_generator_bit_for_bit() {
        let spec = ScenarioBuilder::new("parity").servers(4).users(6).build();
        let scenario = spec.materialize(11).unwrap();
        let generated = ScenarioGenerator::new(spec.to_experiment_params().unwrap())
            .generate(11)
            .unwrap();
        assert_eq!(scenario.gains(), generated.gains());
        assert_eq!(scenario.num_users(), 6);
        assert_eq!(scenario.num_servers(), 4);
    }

    #[test]
    fn a_second_template_keeps_the_placement_and_shadowing_streams() {
        // One template goes through the generator, two through the
        // heterogeneous path; both place users from `seed` and shadow from
        // `seed ^ SHADOWING_STREAM`, so the gains must agree.
        let heavy = UserTemplate {
            task_mcycles: 3000.0,
            ..UserTemplate::default()
        };
        let uniform = ScenarioBuilder::new("one").servers(4).users(12);
        let hotspot = uniform.clone().hotspots(2, 150.0);
        for one in [uniform, hotspot] {
            let two = one.clone().add_template(heavy.clone()).build();
            let one = one.build();
            for seed in [0, 3, 11] {
                assert_eq!(
                    one.materialize(seed).unwrap().gains(),
                    two.materialize(seed).unwrap().gains(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn multi_template_populations_are_heterogeneous_and_deterministic() {
        let heavy = UserTemplate {
            task_mcycles: 3000.0,
            ..UserTemplate::default()
        };
        let spec = ScenarioBuilder::new("mixed")
            .servers(4)
            .users(20)
            .add_template(heavy)
            .build();
        let a = spec.materialize(3).unwrap();
        let b = spec.materialize(3).unwrap();
        let c = spec.materialize(4).unwrap();
        assert_eq!(a.gains(), b.gains());
        assert_ne!(a.gains(), c.gains());
        let workloads: Vec<f64> = a
            .users()
            .iter()
            .map(|u| u.task.workload().as_cycles())
            .collect();
        assert!(
            workloads.iter().any(|w| *w != workloads[0]),
            "two templates should mix: {workloads:?}"
        );
    }

    #[test]
    fn every_population_shape_transmits_at_the_radio_power() {
        let heavy = UserTemplate {
            task_mcycles: 3000.0,
            ..UserTemplate::default()
        };
        let one = ScenarioBuilder::new("one").users(8).tx_power_dbm(23.0);
        let two = ScenarioBuilder::new("two")
            .users(8)
            .tx_power_dbm(23.0)
            .add_template(heavy);
        for spec in [one.build(), two.build()] {
            let scenario = spec.materialize(5).unwrap();
            for user in scenario.users() {
                assert_eq!(user.device.tx_power().as_dbm(), 23.0, "{}", spec.name);
            }
        }
    }

    #[test]
    fn explicit_specs_are_seed_independent() {
        let toml = r#"
schema_version = 1
name = "explicit"

[explicit]
bandwidth_hz = 20e6
subchannels = 2
noise_w = 1e-13
server_cpu_hz = [2e10, 2e10]

[[explicit.user]]
task_data_bits = 3440640.0
task_cycles = 1e9
beta_time = 0.5
lambda = 1.0
user_cpu_hz = 1e9
kappa = 5e-27
tx_power_dbm = 10.0
gains = [[1.5e-10, 2.5e-10], [0.5e-10, 3.5e-10]]
"#;
        let spec = ScenarioSpec::from_toml_str(toml).unwrap();
        let a = spec.materialize(0).unwrap();
        let b = spec.materialize(999).unwrap();
        assert_eq!(a.gains(), b.gains());
        assert_eq!(a.num_users(), 1);
        assert_eq!(a.num_servers(), 2);
        let g = a.gains().gain(
            mec_types::UserId::new(0),
            mec_types::ServerId::new(1),
            mec_types::SubchannelId::new(1),
        );
        assert_eq!(g.to_bits(), (3.5e-10f64).to_bits());
    }

    #[test]
    fn online_plan_runs_the_timeline_end_to_end() {
        let spec = ScenarioBuilder::new("plan")
            .servers(4)
            .users(6)
            .poisson_churn(0.05, 120.0)
            .online(|o| {
                o.epochs = 4;
                o.warm_budget = Some(150);
                o.min_temperature = Some(1e-2);
            })
            .server_outage(15.0, 1)
            .server_recovery(25.0, 1)
            .build();
        let mut plan = spec.online_plan(5).unwrap();
        assert_eq!(plan.epochs, 4);
        let reports = plan.engine.run(plan.epochs).unwrap();
        // Epochs start at t = 0, 10, 20, 30: the outage (15 s) fires at
        // epoch 2, the recovery (25 s) at epoch 3.
        assert_eq!(reports[2].servers_up, 3, "outage must take effect");
        assert_eq!(reports[3].servers_up, 4);
    }

    #[test]
    fn online_plan_requires_an_online_section() {
        let spec = ScenarioBuilder::new("offline").build();
        let Err(err) = spec.online_plan(0) else {
            panic!("expected an error for a spec with no [online] section");
        };
        assert_eq!(err.path, "online");
    }
}
