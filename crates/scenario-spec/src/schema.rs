//! The versioned `ScenarioSpec` schema: structs, strict decoding,
//! lossless encoding, and validation.
//!
//! A spec document has two mutually-exclusive modes:
//!
//! - **generated** — topology/radio/compute/population sections describe
//!   a parameterized regime; `materialize(seed)` draws placements, gains
//!   and per-user jitter deterministically from the seed. This is the
//!   mode presets, the corpus and the online engine use.
//! - **explicit** — an `[explicit]` table carries every coefficient
//!   (tasks, CPU rates, channel-gain tensors) as raw numbers. Explicit
//!   specs are seed-independent and bit-exact; the conformance fuzzer
//!   emits violations in this mode so artifacts replay identically.
//!
//! All decoding is strict (`deny_unknown_fields` semantics): unknown or
//! ill-typed fields produce a [`SpecError`] carrying the dotted path of
//! the offending field.

use crate::decode::{f64_v, MapBuilder, Walk};
use crate::error::SpecError;
use crate::toml;
use mec_online::{EngineEvent, TimedEvent};
use mec_types::Seconds;
use mec_workloads::PlacementModel;
use serde::Content;

/// The only schema version this build reads.
pub const SCHEMA_VERSION: u64 = 1;

/// A complete, versioned scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Format version; must equal [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Short machine-friendly name (`snake_case` by convention).
    pub name: String,
    /// Optional human-readable description.
    pub description: Option<String>,
    /// Generated or explicit construction mode.
    pub mode: SpecMode,
    /// Optional churn process (online runs).
    pub churn: Option<ChurnSpec>,
    /// Optional admission policy (online runs).
    pub admission: Option<AdmissionSpec>,
    /// Optional SLA deadline (online runs).
    pub sla: Option<SlaSpec>,
    /// Optional online-engine configuration.
    pub online: Option<OnlineSpec>,
    /// Timed events injected into an online run (`[[timeline]]`).
    pub timeline: Vec<TimedEvent>,
    /// Optional golden assertions checked by the corpus runner.
    pub expect: Option<ExpectSpec>,
    /// Optional origin metadata (fuzzer artifacts record it here).
    pub provenance: Option<ProvenanceSpec>,
    /// Optional solver-effort overrides (preset budgets).
    pub effort: Option<EffortSpec>,
}

/// How the scenario is constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecMode {
    /// Parameterized regime, drawn deterministically from a seed.
    Generated(GeneratedSpec),
    /// Every coefficient given literally; seed-independent.
    Explicit(ExplicitSpec),
}

// ---------------------------------------------------------------------------
// Generated mode
// ---------------------------------------------------------------------------

/// Parameterized scenario description (seeded materialization).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedSpec {
    /// Hexagonal cell layout.
    pub topology: TopologySpec,
    /// OFDMA and channel configuration.
    pub radio: RadioSpec,
    /// Server-side compute.
    pub compute: ComputeSpec,
    /// User count, placement and templates.
    pub population: PopulationSpec,
    /// Optional downlink (result return) modelling.
    pub downlink: Option<DownlinkSpec>,
}

/// `[topology]` — hexagonal layout parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Number of edge servers (hexagonal rings around the center).
    pub servers: usize,
    /// Inter-site distance in meters.
    pub inter_site_distance_m: f64,
}

impl Default for TopologySpec {
    fn default() -> Self {
        Self {
            servers: 9,
            inter_site_distance_m: 1000.0,
        }
    }
}

/// `[radio]` — OFDMA and channel parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioSpec {
    /// Uplink system bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// OFDMA subchannels per server.
    pub subchannels: usize,
    /// Noise power in dBm.
    pub noise_dbm: f64,
    /// Device transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Log-normal shadowing standard deviation in dB (0 disables).
    pub shadowing_db: f64,
}

impl Default for RadioSpec {
    fn default() -> Self {
        Self {
            bandwidth_hz: 20e6,
            subchannels: 3,
            noise_dbm: -100.0,
            tx_power_dbm: 10.0,
            shadowing_db: 8.0,
        }
    }
}

/// `[compute]` — server-side compute parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeSpec {
    /// Per-server CPU capacity in GHz.
    pub server_cpu_ghz: f64,
}

impl Default for ComputeSpec {
    fn default() -> Self {
        Self {
            server_cpu_ghz: 20.0,
        }
    }
}

/// `[population]` — who is in the cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Number of users.
    pub users: usize,
    /// Spatial placement model.
    pub placement: PlacementModel,
    /// Weighted user templates (`[[population.template]]`).
    pub templates: Vec<UserTemplate>,
}

impl Default for PopulationSpec {
    fn default() -> Self {
        Self {
            users: 30,
            placement: PlacementModel::Uniform,
            templates: vec![UserTemplate::default()],
        }
    }
}

/// One weighted user archetype.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTemplate {
    /// Sampling weight relative to sibling templates.
    pub weight: f64,
    /// Task input size in kilobytes.
    pub task_data_kb: f64,
    /// Task workload in megacycles.
    pub task_mcycles: f64,
    /// Latency preference weight `beta^t` in `[0, 1]`.
    pub beta_time: f64,
    /// Uniform jitter half-width applied to `beta_time` per user.
    pub beta_time_spread: f64,
    /// Provider preference weight `lambda` in `(0, 1]`.
    pub lambda: f64,
    /// Device CPU in GHz.
    pub user_cpu_ghz: f64,
    /// Effective switched capacitance.
    pub kappa: f64,
}

impl Default for UserTemplate {
    fn default() -> Self {
        Self {
            weight: 1.0,
            task_data_kb: 420.0,
            task_mcycles: 1000.0,
            beta_time: 0.5,
            beta_time_spread: 0.0,
            lambda: 1.0,
            user_cpu_ghz: 1.0,
            kappa: 5e-27,
        }
    }
}

/// `[downlink]` — result-return modelling.
#[derive(Debug, Clone, PartialEq)]
pub struct DownlinkSpec {
    /// Downlink rate in Mbit/s.
    pub rate_mbps: f64,
    /// Task output size in kilobytes.
    pub output_kb: f64,
}

// ---------------------------------------------------------------------------
// Explicit mode
// ---------------------------------------------------------------------------

/// `[explicit]` — every coefficient given literally.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitSpec {
    /// Uplink system bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// OFDMA subchannels per server.
    pub subchannels: usize,
    /// Noise power in watts (raw, bit-exact).
    pub noise_w: f64,
    /// Per-server CPU capacity in Hz.
    pub server_cpu_hz: Vec<f64>,
    /// Optional downlink rate in bit/s paired with nothing else; output
    /// sizes live on the users.
    pub downlink_bps: Option<f64>,
    /// Per-user coefficients (`[[explicit.user]]`).
    pub users: Vec<ExplicitUser>,
}

/// One fully-specified user.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitUser {
    /// Task input size in bits.
    pub task_data_bits: f64,
    /// Task workload in cycles.
    pub task_cycles: f64,
    /// Optional task output size in bits.
    pub task_output_bits: Option<f64>,
    /// Latency preference weight.
    pub beta_time: f64,
    /// Provider preference weight.
    pub lambda: f64,
    /// Device CPU in Hz.
    pub user_cpu_hz: f64,
    /// Effective switched capacitance.
    pub kappa: f64,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Channel gains, `gains[server][subchannel]` (linear).
    pub gains: Vec<Vec<f64>>,
}

// ---------------------------------------------------------------------------
// Online sections
// ---------------------------------------------------------------------------

/// `[churn]` — the Poisson arrival/departure process
/// ([`mec_online::PoissonChurn`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Users present at t = 0 (defaults to `population.users`).
    pub initial_users: Option<usize>,
    /// Poisson arrival rate in Hz (timeline `load_ramp` events scale it).
    pub arrival_rate_hz: f64,
    /// Mean exponential sojourn in seconds.
    pub mean_sojourn_s: f64,
}

/// `[admission]` — arrival gating.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionSpec {
    /// `"admit_all"`, `"reject"` or `"force_local"`.
    pub policy: String,
    /// Scheduled-population cap for `reject` / `force_local`.
    pub capacity: Option<usize>,
}

/// `[sla]` — completion deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaSpec {
    /// Per-epoch completion-time deadline in seconds.
    pub deadline_s: f64,
}

/// `[online]` — engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSpec {
    /// Number of epochs to run.
    pub epochs: usize,
    /// Epoch duration in seconds.
    pub epoch_duration_s: f64,
    /// Minimum waypoint speed, m/s.
    pub speed_min_mps: f64,
    /// Maximum waypoint speed, m/s.
    pub speed_max_mps: f64,
    /// Redraw shadowing each epoch.
    pub redraw_shadowing: bool,
    /// Warm-start proposal budget (`None` = cold solve each epoch).
    pub warm_budget: Option<u64>,
    /// Optional TTSA minimum-temperature override.
    pub min_temperature: Option<f64>,
}

impl Default for OnlineSpec {
    fn default() -> Self {
        Self {
            epochs: 10,
            epoch_duration_s: 10.0,
            speed_min_mps: 0.5,
            speed_max_mps: 2.0,
            redraw_shadowing: true,
            warm_budget: Some(3000),
            min_temperature: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Expectations / provenance / effort
// ---------------------------------------------------------------------------

/// `[expect]` — golden assertions the corpus runner checks.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectSpec {
    /// Seed the assertions hold for.
    pub seed: u64,
    /// Offline solver the assertions run against: `"anneal"` (default)
    /// or `"shard"` (the sharded city-scale engine).
    pub solver: Option<String>,
    /// The TSAJS solution must be feasible.
    pub feasible: bool,
    /// Lower bound on the achieved objective.
    pub min_utility: Option<f64>,
    /// Upper bound on the achieved objective.
    pub max_utility: Option<f64>,
    /// At least this many users offload.
    pub min_offloaded: Option<usize>,
    /// Exact materialized user count.
    pub users: Option<usize>,
    /// Exact materialized server count.
    pub servers: Option<usize>,
    /// Exact materialized subchannel count.
    pub subchannels: Option<usize>,
    /// Online: SLA hit-rate floor over completed users.
    pub min_deadline_hit_rate: Option<f64>,
    /// Online: total arrivals floor across the run.
    pub min_arrivals: Option<usize>,
    /// Online: at least this many timeline events applied.
    pub min_events_applied: Option<usize>,
    /// Online: exact up-server count at the end of the run.
    pub final_servers_up: Option<usize>,
    /// Online: peak simultaneous active users floor.
    pub min_peak_active: Option<usize>,
}

/// `[provenance]` — where a spec came from (fuzzer artifacts).
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceSpec {
    /// Invariant the artifact violated.
    pub invariant: Option<String>,
    /// Fuzzer seed that produced it.
    pub seed: Option<u64>,
    /// Offload probability of the fuzzed assignment.
    pub offload_probability: Option<f64>,
    /// Free-form origin string.
    pub source: Option<String>,
}

/// `[effort]` — solver-budget overrides carried by preset specs.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortSpec {
    /// Independent trials per experiment point.
    pub trials: usize,
    /// TTSA cooling floor.
    pub ttsa_min_temperature: f64,
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Parses a TOML document (decode only; call [`validate`](Self::validate)
    /// before materializing).
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        Self::decode(toml::parse(text)?)
    }

    /// Parses a JSON document.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        let value: serde_json::Value = serde_json::from_str(text)
            .map_err(|e| SpecError::new("", format!("invalid JSON: {e}")))?;
        Self::decode(json_to_content(value))
    }

    /// Serializes to TOML. Inverse of [`from_toml_str`](Self::from_toml_str):
    /// the emitted text decodes to an equal spec, floats bit-exact.
    pub fn to_toml_string(&self) -> Result<String, SpecError> {
        toml::write(&self.encode())
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json_string(&self) -> Result<String, SpecError> {
        let value = content_to_json(self.encode());
        serde_json::to_string_pretty(&value)
            .map_err(|e| SpecError::new("", format!("JSON encoding failed: {e}")))
    }

    /// Decodes from a raw content tree, enforcing strict field checking.
    pub fn decode(content: Content) -> Result<Self, SpecError> {
        let mut w = Walk::root(content)?;
        let schema_version = match w.take("schema_version") {
            None => return Err(SpecError::new("schema_version", "missing required field")),
            Some(c) => crate::decode::u64_v(c, "schema_version")?,
        };
        if schema_version != SCHEMA_VERSION {
            return Err(SpecError::new(
                "schema_version",
                format!("unsupported version {schema_version} (this build reads {SCHEMA_VERSION})"),
            ));
        }
        let name = w.str_req("name")?;
        let description = w.str_opt("description")?;

        let explicit = w.table_opt("explicit")?;
        let mode = if let Some(e) = explicit {
            // Explicit mode: the generated sections must be absent.
            for section in ["topology", "radio", "compute", "population", "downlink"] {
                if w.has(section) {
                    return Err(SpecError::new(
                        section,
                        "conflicts with [explicit]: a spec is either generated or explicit",
                    ));
                }
            }
            SpecMode::Explicit(ExplicitSpec::decode(e)?)
        } else {
            SpecMode::Generated(GeneratedSpec::decode(&mut w)?)
        };

        let churn = w.table_opt("churn")?.map(ChurnSpec::decode).transpose()?;
        let admission = w
            .table_opt("admission")?
            .map(AdmissionSpec::decode)
            .transpose()?;
        let sla = w.table_opt("sla")?.map(SlaSpec::decode).transpose()?;
        let online = w.table_opt("online")?.map(OnlineSpec::decode).transpose()?;

        let mut timeline = Vec::new();
        if let Some(items) = w.seq_opt("timeline")? {
            for (item, path) in items {
                timeline.push(decode_timed_event(Walk::at(item, path)?)?);
            }
        }

        let expect = w.table_opt("expect")?.map(ExpectSpec::decode).transpose()?;
        let provenance = w
            .table_opt("provenance")?
            .map(ProvenanceSpec::decode)
            .transpose()?;
        let effort = w.table_opt("effort")?.map(EffortSpec::decode).transpose()?;
        w.finish()?;

        Ok(Self {
            schema_version,
            name,
            description,
            mode,
            churn,
            admission,
            sla,
            online,
            timeline,
            expect,
            provenance,
            effort,
        })
    }

    /// Encodes to a content tree (full form: defaults written out).
    pub fn encode(&self) -> Content {
        let mut b = MapBuilder::new()
            .push("schema_version", Content::U64(self.schema_version))
            .push("name", Content::Str(self.name.clone()))
            .push_opt("description", self.description.clone().map(Content::Str));
        match &self.mode {
            SpecMode::Generated(g) => b = g.encode_into(b),
            SpecMode::Explicit(e) => b = b.push("explicit", e.encode()),
        }
        b = b
            .push_opt("churn", self.churn.as_ref().map(ChurnSpec::encode))
            .push_opt(
                "admission",
                self.admission.as_ref().map(AdmissionSpec::encode),
            )
            .push_opt("sla", self.sla.as_ref().map(SlaSpec::encode))
            .push_opt("online", self.online.as_ref().map(OnlineSpec::encode));
        if !self.timeline.is_empty() {
            b = b.push(
                "timeline",
                Content::Seq(self.timeline.iter().map(encode_timed_event).collect()),
            );
        }
        b.push_opt("expect", self.expect.as_ref().map(ExpectSpec::encode))
            .push_opt(
                "provenance",
                self.provenance.as_ref().map(ProvenanceSpec::encode),
            )
            .push_opt("effort", self.effort.as_ref().map(EffortSpec::encode))
            .build()
    }
}

impl GeneratedSpec {
    fn decode(w: &mut Walk) -> Result<Self, SpecError> {
        let topology = match w.table_opt("topology")? {
            Some(mut t) => {
                let d = TopologySpec::default();
                let spec = TopologySpec {
                    servers: t.usize_or("servers", d.servers)?,
                    inter_site_distance_m: t
                        .f64_or("inter_site_distance_m", d.inter_site_distance_m)?,
                };
                t.finish()?;
                spec
            }
            None => TopologySpec::default(),
        };
        let radio = match w.table_opt("radio")? {
            Some(mut t) => {
                let d = RadioSpec::default();
                let spec = RadioSpec {
                    bandwidth_hz: t.f64_or("bandwidth_hz", d.bandwidth_hz)?,
                    subchannels: t.usize_or("subchannels", d.subchannels)?,
                    noise_dbm: t.f64_or("noise_dbm", d.noise_dbm)?,
                    tx_power_dbm: t.f64_or("tx_power_dbm", d.tx_power_dbm)?,
                    shadowing_db: t.f64_or("shadowing_db", d.shadowing_db)?,
                };
                t.finish()?;
                spec
            }
            None => RadioSpec::default(),
        };
        let compute = match w.table_opt("compute")? {
            Some(mut t) => {
                let d = ComputeSpec::default();
                let spec = ComputeSpec {
                    server_cpu_ghz: t.f64_or("server_cpu_ghz", d.server_cpu_ghz)?,
                };
                t.finish()?;
                spec
            }
            None => ComputeSpec::default(),
        };
        let population = match w.table_opt("population")? {
            Some(t) => PopulationSpec::decode(t)?,
            None => PopulationSpec::default(),
        };
        let downlink = match w.table_opt("downlink")? {
            Some(mut t) => {
                let spec = DownlinkSpec {
                    rate_mbps: t.f64_req("rate_mbps")?,
                    output_kb: t.f64_req("output_kb")?,
                };
                t.finish()?;
                Some(spec)
            }
            None => None,
        };
        Ok(Self {
            topology,
            radio,
            compute,
            population,
            downlink,
        })
    }

    fn encode_into(&self, b: MapBuilder) -> MapBuilder {
        let topology = MapBuilder::new()
            .push("servers", Content::U64(self.topology.servers as u64))
            .push(
                "inter_site_distance_m",
                Content::F64(self.topology.inter_site_distance_m),
            )
            .build();
        let radio = MapBuilder::new()
            .push("bandwidth_hz", Content::F64(self.radio.bandwidth_hz))
            .push("subchannels", Content::U64(self.radio.subchannels as u64))
            .push("noise_dbm", Content::F64(self.radio.noise_dbm))
            .push("tx_power_dbm", Content::F64(self.radio.tx_power_dbm))
            .push("shadowing_db", Content::F64(self.radio.shadowing_db))
            .build();
        let compute = MapBuilder::new()
            .push("server_cpu_ghz", Content::F64(self.compute.server_cpu_ghz))
            .build();
        b.push("topology", topology)
            .push("radio", radio)
            .push("compute", compute)
            .push("population", self.population.encode())
            .push_opt(
                "downlink",
                self.downlink.as_ref().map(|d| {
                    MapBuilder::new()
                        .push("rate_mbps", Content::F64(d.rate_mbps))
                        .push("output_kb", Content::F64(d.output_kb))
                        .build()
                }),
            )
    }
}

impl PopulationSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let d = PopulationSpec::default();
        let users = w.usize_or("users", d.users)?;
        let placement_name = w.str_or("placement", "uniform")?;
        let placement = match placement_name.as_str() {
            "uniform" => {
                for k in ["hotspot_clusters", "hotspot_spread_m"] {
                    if w.has(k) {
                        return Err(SpecError::new(
                            w.child(k),
                            "only valid when placement = \"hotspots\"",
                        ));
                    }
                }
                PlacementModel::Uniform
            }
            "hotspots" => PlacementModel::Hotspots {
                clusters: w.usize_or("hotspot_clusters", 3)?,
                spread_m: w.f64_or("hotspot_spread_m", 80.0)?,
            },
            other => {
                return Err(SpecError::new(
                    w.child("placement"),
                    format!("unknown placement `{other}` (expected \"uniform\" or \"hotspots\")"),
                ))
            }
        };
        let templates = match w.seq_opt("template")? {
            None => vec![UserTemplate::default()],
            Some(items) => {
                let mut out = Vec::with_capacity(items.len());
                for (item, path) in items {
                    out.push(UserTemplate::decode(Walk::at(item, path)?)?);
                }
                out
            }
        };
        w.finish()?;
        Ok(Self {
            users,
            placement,
            templates,
        })
    }

    fn encode(&self) -> Content {
        let mut b = MapBuilder::new().push("users", Content::U64(self.users as u64));
        match &self.placement {
            PlacementModel::Uniform => {
                b = b.push("placement", Content::Str("uniform".into()));
            }
            PlacementModel::Hotspots { clusters, spread_m } => {
                b = b
                    .push("placement", Content::Str("hotspots".into()))
                    .push("hotspot_clusters", Content::U64(*clusters as u64))
                    .push("hotspot_spread_m", Content::F64(*spread_m));
            }
        }
        b.push(
            "template",
            Content::Seq(self.templates.iter().map(UserTemplate::encode).collect()),
        )
        .build()
    }
}

impl UserTemplate {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let d = UserTemplate::default();
        let t = Self {
            weight: w.f64_or("weight", d.weight)?,
            task_data_kb: w.f64_or("task_data_kb", d.task_data_kb)?,
            task_mcycles: w.f64_or("task_mcycles", d.task_mcycles)?,
            beta_time: w.f64_or("beta_time", d.beta_time)?,
            beta_time_spread: w.f64_or("beta_time_spread", d.beta_time_spread)?,
            lambda: w.f64_or("lambda", d.lambda)?,
            user_cpu_ghz: w.f64_or("user_cpu_ghz", d.user_cpu_ghz)?,
            kappa: w.f64_or("kappa", d.kappa)?,
        };
        w.finish()?;
        Ok(t)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("weight", Content::F64(self.weight))
            .push("task_data_kb", Content::F64(self.task_data_kb))
            .push("task_mcycles", Content::F64(self.task_mcycles))
            .push("beta_time", Content::F64(self.beta_time))
            .push("beta_time_spread", Content::F64(self.beta_time_spread))
            .push("lambda", Content::F64(self.lambda))
            .push("user_cpu_ghz", Content::F64(self.user_cpu_ghz))
            .push("kappa", Content::F64(self.kappa))
            .build()
    }
}

impl ExplicitSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let bandwidth_hz = w.f64_req("bandwidth_hz")?;
        let subchannels = w.usize_req("subchannels")?;
        let noise_w = w.f64_req("noise_w")?;
        let server_cpu_hz = match w.seq_opt("server_cpu_hz")? {
            Some(items) => items
                .into_iter()
                .map(|(c, p)| f64_v(c, &p))
                .collect::<Result<Vec<f64>, SpecError>>()?,
            None => {
                return Err(SpecError::new(
                    w.child("server_cpu_hz"),
                    "missing required field",
                ))
            }
        };
        let downlink_bps = w.f64_opt("downlink_bps")?;
        let users = match w.seq_opt("user")? {
            Some(items) => {
                let mut out = Vec::with_capacity(items.len());
                for (item, path) in items {
                    out.push(ExplicitUser::decode(Walk::at(item, path)?)?);
                }
                out
            }
            None => return Err(SpecError::new(w.child("user"), "missing required field")),
        };
        w.finish()?;
        Ok(Self {
            bandwidth_hz,
            subchannels,
            noise_w,
            server_cpu_hz,
            downlink_bps,
            users,
        })
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("bandwidth_hz", Content::F64(self.bandwidth_hz))
            .push("subchannels", Content::U64(self.subchannels as u64))
            .push("noise_w", Content::F64(self.noise_w))
            .push(
                "server_cpu_hz",
                Content::Seq(
                    self.server_cpu_hz
                        .iter()
                        .map(|v| Content::F64(*v))
                        .collect(),
                ),
            )
            .push_opt("downlink_bps", self.downlink_bps.map(Content::F64))
            .push(
                "user",
                Content::Seq(self.users.iter().map(ExplicitUser::encode).collect()),
            )
            .build()
    }
}

impl ExplicitUser {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let task_data_bits = w.f64_req("task_data_bits")?;
        let task_cycles = w.f64_req("task_cycles")?;
        let task_output_bits = w.f64_opt("task_output_bits")?;
        let beta_time = w.f64_req("beta_time")?;
        let lambda = w.f64_req("lambda")?;
        let user_cpu_hz = w.f64_req("user_cpu_hz")?;
        let kappa = w.f64_req("kappa")?;
        let tx_power_dbm = w.f64_req("tx_power_dbm")?;
        let gains = match w.seq_opt("gains")? {
            None => return Err(SpecError::new(w.child("gains"), "missing required field")),
            Some(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for (row, row_path) in rows {
                    match row {
                        Content::Seq(cells) => {
                            let mut r = Vec::with_capacity(cells.len());
                            for (j, cell) in cells.into_iter().enumerate() {
                                r.push(f64_v(cell, &format!("{row_path}[{j}]"))?);
                            }
                            out.push(r);
                        }
                        _ => {
                            return Err(SpecError::new(
                                row_path,
                                "expected an array of per-subchannel gains",
                            ))
                        }
                    }
                }
                out
            }
        };
        w.finish()?;
        Ok(Self {
            task_data_bits,
            task_cycles,
            task_output_bits,
            beta_time,
            lambda,
            user_cpu_hz,
            kappa,
            tx_power_dbm,
            gains,
        })
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("task_data_bits", Content::F64(self.task_data_bits))
            .push("task_cycles", Content::F64(self.task_cycles))
            .push_opt("task_output_bits", self.task_output_bits.map(Content::F64))
            .push("beta_time", Content::F64(self.beta_time))
            .push("lambda", Content::F64(self.lambda))
            .push("user_cpu_hz", Content::F64(self.user_cpu_hz))
            .push("kappa", Content::F64(self.kappa))
            .push("tx_power_dbm", Content::F64(self.tx_power_dbm))
            .push(
                "gains",
                Content::Seq(
                    self.gains
                        .iter()
                        .map(|row| Content::Seq(row.iter().map(|v| Content::F64(*v)).collect()))
                        .collect(),
                ),
            )
            .build()
    }
}

impl ChurnSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let spec = Self {
            initial_users: w.usize_opt("initial_users")?,
            arrival_rate_hz: w.f64_req("arrival_rate_hz")?,
            mean_sojourn_s: w.f64_req("mean_sojourn_s")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push_opt(
                "initial_users",
                self.initial_users.map(|v| Content::U64(v as u64)),
            )
            .push("arrival_rate_hz", Content::F64(self.arrival_rate_hz))
            .push("mean_sojourn_s", Content::F64(self.mean_sojourn_s))
            .build()
    }
}

impl AdmissionSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let spec = Self {
            policy: w.str_req("policy")?,
            capacity: w.usize_opt("capacity")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("policy", Content::Str(self.policy.clone()))
            .push_opt("capacity", self.capacity.map(|v| Content::U64(v as u64)))
            .build()
    }
}

impl SlaSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let spec = Self {
            deadline_s: w.f64_req("deadline_s")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("deadline_s", Content::F64(self.deadline_s))
            .build()
    }
}

impl OnlineSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let d = OnlineSpec::default();
        let warm_budget = if w.bool_or("cold", false)? {
            if w.has("warm_budget") {
                return Err(SpecError::new(
                    w.child("warm_budget"),
                    "conflicts with cold = true",
                ));
            }
            None
        } else {
            Some(w.u64_or("warm_budget", d.warm_budget.unwrap_or(3000))?)
        };
        let spec = Self {
            epochs: w.usize_or("epochs", d.epochs)?,
            epoch_duration_s: w.f64_or("epoch_duration_s", d.epoch_duration_s)?,
            speed_min_mps: w.f64_or("speed_min_mps", d.speed_min_mps)?,
            speed_max_mps: w.f64_or("speed_max_mps", d.speed_max_mps)?,
            redraw_shadowing: w.bool_or("redraw_shadowing", d.redraw_shadowing)?,
            warm_budget,
            min_temperature: w.f64_opt("min_temperature")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        let mut b = MapBuilder::new()
            .push("epochs", Content::U64(self.epochs as u64))
            .push("epoch_duration_s", Content::F64(self.epoch_duration_s))
            .push("speed_min_mps", Content::F64(self.speed_min_mps))
            .push("speed_max_mps", Content::F64(self.speed_max_mps))
            .push("redraw_shadowing", Content::Bool(self.redraw_shadowing));
        match self.warm_budget {
            Some(v) => b = b.push("warm_budget", Content::U64(v)),
            None => b = b.push("cold", Content::Bool(true)),
        }
        b.push_opt("min_temperature", self.min_temperature.map(Content::F64))
            .build()
    }
}

/// Decodes one `[[timeline]]` entry straight into the engine's event:
/// `at_s` is the firing time, `event` is the [`EngineEvent::name`] of the
/// variant, and the variant's payload sits beside them (`server`,
/// `arrivals` + `mean_sojourn_s`, `rate_factor`, `cell` + `fraction`).
fn decode_timed_event(mut w: Walk) -> Result<TimedEvent, SpecError> {
    let at = Seconds::new(w.f64_req("at_s")?);
    let event_path = w.child("event");
    let name = w.str_req("event")?;
    let event = match name.as_str() {
        "server_outage" => EngineEvent::ServerOutage {
            server: w.usize_req("server")?,
        },
        "server_recovery" => EngineEvent::ServerRecovery {
            server: w.usize_req("server")?,
        },
        "flash_crowd" => EngineEvent::FlashCrowd {
            arrivals: w.usize_req("arrivals")?,
            mean_sojourn: Seconds::new(w.f64_req("mean_sojourn_s")?),
        },
        "load_ramp" => EngineEvent::LoadRamp {
            rate_factor: w.f64_req("rate_factor")?,
        },
        "hotspot_drift" => EngineEvent::HotspotDrift {
            cell: w.usize_req("cell")?,
            fraction: w.f64_req("fraction")?,
        },
        other => {
            return Err(SpecError::new(
                event_path,
                format!("unknown event `{other}`"),
            ))
        }
    };
    w.finish()?;
    Ok(TimedEvent { at, event })
}

fn encode_timed_event(timed: &TimedEvent) -> Content {
    let b = MapBuilder::new()
        .push("at_s", Content::F64(timed.at.as_secs()))
        .push("event", Content::Str(timed.event.name().into()));
    match &timed.event {
        EngineEvent::ServerOutage { server } | EngineEvent::ServerRecovery { server } => {
            b.push("server", Content::U64(*server as u64))
        }
        EngineEvent::FlashCrowd {
            arrivals,
            mean_sojourn,
        } => b
            .push("arrivals", Content::U64(*arrivals as u64))
            .push("mean_sojourn_s", Content::F64(mean_sojourn.as_secs())),
        EngineEvent::LoadRamp { rate_factor } => b.push("rate_factor", Content::F64(*rate_factor)),
        EngineEvent::HotspotDrift { cell, fraction } => b
            .push("cell", Content::U64(*cell as u64))
            .push("fraction", Content::F64(*fraction)),
    }
    .build()
}

impl ExpectSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let spec = Self {
            seed: w.u64_or("seed", 0)?,
            solver: w.str_opt("solver")?,
            feasible: w.bool_or("feasible", true)?,
            min_utility: w.f64_opt("min_utility")?,
            max_utility: w.f64_opt("max_utility")?,
            min_offloaded: w.usize_opt("min_offloaded")?,
            users: w.usize_opt("users")?,
            servers: w.usize_opt("servers")?,
            subchannels: w.usize_opt("subchannels")?,
            min_deadline_hit_rate: w.f64_opt("min_deadline_hit_rate")?,
            min_arrivals: w.usize_opt("min_arrivals")?,
            min_events_applied: w.usize_opt("min_events_applied")?,
            final_servers_up: w.usize_opt("final_servers_up")?,
            min_peak_active: w.usize_opt("min_peak_active")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("seed", Content::U64(self.seed))
            .push_opt("solver", self.solver.clone().map(Content::Str))
            .push("feasible", Content::Bool(self.feasible))
            .push_opt("min_utility", self.min_utility.map(Content::F64))
            .push_opt("max_utility", self.max_utility.map(Content::F64))
            .push_opt(
                "min_offloaded",
                self.min_offloaded.map(|v| Content::U64(v as u64)),
            )
            .push_opt("users", self.users.map(|v| Content::U64(v as u64)))
            .push_opt("servers", self.servers.map(|v| Content::U64(v as u64)))
            .push_opt(
                "subchannels",
                self.subchannels.map(|v| Content::U64(v as u64)),
            )
            .push_opt(
                "min_deadline_hit_rate",
                self.min_deadline_hit_rate.map(Content::F64),
            )
            .push_opt(
                "min_arrivals",
                self.min_arrivals.map(|v| Content::U64(v as u64)),
            )
            .push_opt(
                "min_events_applied",
                self.min_events_applied.map(|v| Content::U64(v as u64)),
            )
            .push_opt(
                "final_servers_up",
                self.final_servers_up.map(|v| Content::U64(v as u64)),
            )
            .push_opt(
                "min_peak_active",
                self.min_peak_active.map(|v| Content::U64(v as u64)),
            )
            .build()
    }
}

impl ProvenanceSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let spec = Self {
            invariant: w.str_opt("invariant")?,
            seed: w.u64_opt("seed")?,
            offload_probability: w.f64_opt("offload_probability")?,
            source: w.str_opt("source")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push_opt("invariant", self.invariant.clone().map(Content::Str))
            .push_opt("seed", self.seed.map(Content::U64))
            .push_opt(
                "offload_probability",
                self.offload_probability.map(Content::F64),
            )
            .push_opt("source", self.source.clone().map(Content::Str))
            .build()
    }
}

impl EffortSpec {
    fn decode(mut w: Walk) -> Result<Self, SpecError> {
        let spec = Self {
            trials: w.usize_req("trials")?,
            ttsa_min_temperature: w.f64_req("ttsa_min_temperature")?,
        };
        w.finish()?;
        Ok(spec)
    }

    fn encode(&self) -> Content {
        MapBuilder::new()
            .push("trials", Content::U64(self.trials as u64))
            .push(
                "ttsa_min_temperature",
                Content::F64(self.ttsa_min_temperature),
            )
            .build()
    }
}

// ---------------------------------------------------------------------------
// JSON bridge
// ---------------------------------------------------------------------------

fn json_to_content(v: serde_json::Value) -> Content {
    use serde_json::Value as V;
    match v {
        V::Null => Content::Null,
        V::Bool(b) => Content::Bool(b),
        V::U64(n) => Content::U64(n),
        V::I64(n) => Content::I64(n),
        V::F64(n) => Content::F64(n),
        V::String(s) => Content::Str(s),
        V::Array(items) => Content::Seq(items.into_iter().map(json_to_content).collect()),
        V::Object(entries) => Content::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k, json_to_content(v)))
                .collect(),
        ),
    }
}

fn content_to_json(c: Content) -> serde_json::Value {
    use serde_json::Value as V;
    match c {
        Content::Null => V::Null,
        Content::Bool(b) => V::Bool(b),
        Content::U64(n) => V::U64(n),
        Content::I64(n) => V::I64(n),
        Content::F64(n) => V::F64(n),
        Content::Str(s) => V::String(s),
        Content::Seq(items) => V::Array(items.into_iter().map(content_to_json).collect()),
        Content::Map(entries) => V::Object(
            entries
                .into_iter()
                .filter(|(_, v)| !matches!(v, Content::Null))
                .map(|(k, v)| (k, content_to_json(v)))
                .collect(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

fn positive(v: f64, path: &str) -> Result<(), SpecError> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(SpecError::new(path, format!("must be positive (got {v})")))
    }
}

fn non_negative(v: f64, path: &str) -> Result<(), SpecError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(SpecError::new(
            path,
            format!("must be non-negative (got {v})"),
        ))
    }
}

fn unit_interval(v: f64, path: &str) -> Result<(), SpecError> {
    if v.is_finite() && (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(SpecError::new(
            path,
            format!("must be within [0, 1] (got {v})"),
        ))
    }
}

impl ScenarioSpec {
    /// Checks all semantic constraints. Parsing already enforced types
    /// and field names; this layer enforces ranges, cross-field
    /// consistency, and timeline coherence.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::new("name", "must not be empty"));
        }
        match &self.mode {
            SpecMode::Generated(g) => g.validate()?,
            SpecMode::Explicit(e) => {
                e.validate()?;
                if self.online.is_some() || self.churn.is_some() || !self.timeline.is_empty() {
                    let field = if self.online.is_some() {
                        "online"
                    } else if self.churn.is_some() {
                        "churn"
                    } else {
                        "timeline"
                    };
                    return Err(SpecError::new(
                        field,
                        "online simulation requires a generated (not explicit) spec",
                    ));
                }
            }
        }
        if let Some(churn) = &self.churn {
            churn.validate()?;
            if self.online.is_none() {
                return Err(SpecError::new("churn", "requires an [online] section"));
            }
        }
        if let Some(admission) = &self.admission {
            admission.validate()?;
            if self.online.is_none() {
                return Err(SpecError::new("admission", "requires an [online] section"));
            }
        }
        if let Some(sla) = &self.sla {
            positive(sla.deadline_s, "sla.deadline_s")?;
        }
        if let Some(online) = &self.online {
            online.validate()?;
        }
        self.validate_timeline()?;
        if let Some(expect) = &self.expect {
            expect.validate(self.online.is_some())?;
        }
        if let Some(effort) = &self.effort {
            if effort.trials == 0 {
                return Err(SpecError::new("effort.trials", "must be at least 1"));
            }
            positive(effort.ttsa_min_temperature, "effort.ttsa_min_temperature")?;
        }
        if let Some(p) = &self.provenance {
            if let Some(prob) = p.offload_probability {
                unit_interval(prob, "provenance.offload_probability")?;
            }
        }
        Ok(())
    }

    fn validate_timeline(&self) -> Result<(), SpecError> {
        if self.timeline.is_empty() {
            return Ok(());
        }
        if self.online.is_none() {
            return Err(SpecError::new("timeline", "requires an [online] section"));
        }
        let servers = match &self.mode {
            SpecMode::Generated(g) => g.topology.servers,
            SpecMode::Explicit(_) => unreachable!("explicit + timeline rejected above"),
        };
        for (i, ev) in self.timeline.iter().enumerate() {
            let path = format!("timeline[{i}]");
            non_negative(ev.at.as_secs(), &format!("{path}.at_s"))?;
            match &ev.event {
                EngineEvent::ServerOutage { server } | EngineEvent::ServerRecovery { server } => {
                    if *server >= servers {
                        return Err(SpecError::new(
                            format!("{path}.server"),
                            format!("server {server} does not exist (topology has {servers})"),
                        ));
                    }
                }
                EngineEvent::FlashCrowd {
                    arrivals,
                    mean_sojourn,
                } => {
                    if *arrivals == 0 {
                        return Err(SpecError::new(
                            format!("{path}.arrivals"),
                            "must be at least 1",
                        ));
                    }
                    positive(mean_sojourn.as_secs(), &format!("{path}.mean_sojourn_s"))?;
                }
                EngineEvent::LoadRamp { rate_factor } => {
                    positive(*rate_factor, &format!("{path}.rate_factor"))?;
                    // Without [churn] the population arrives at rate 0, so
                    // the ramp would silently do nothing.
                    if self.churn.is_none() {
                        return Err(SpecError::new(
                            path.clone(),
                            "load_ramp requires a [churn] section",
                        ));
                    }
                }
                EngineEvent::HotspotDrift { cell, fraction } => {
                    if *cell >= servers {
                        return Err(SpecError::new(
                            format!("{path}.cell"),
                            format!("cell {cell} does not exist (topology has {servers})"),
                        ));
                    }
                    positive(*fraction, &format!("{path}.fraction"))?;
                    unit_interval(*fraction, &format!("{path}.fraction"))?;
                }
            }
            // Duplicate (time, kind, payload) pairs are overlapping events.
            for (j, other) in self.timeline.iter().enumerate().take(i) {
                if other == ev {
                    return Err(SpecError::new(
                        path.clone(),
                        format!("overlaps timeline[{j}]: identical event at the same instant"),
                    ));
                }
            }
        }
        // Outage/recovery must alternate per server, in time order.
        let mut order: Vec<usize> = (0..self.timeline.len()).collect();
        order.sort_by(|&a, &b| {
            self.timeline[a]
                .at
                .as_secs()
                .partial_cmp(&self.timeline[b].at.as_secs())
                .expect("at_s is finite")
                .then(a.cmp(&b))
        });
        let mut down = vec![false; servers];
        for idx in order {
            match &self.timeline[idx].event {
                EngineEvent::ServerOutage { server } => {
                    if down[*server] {
                        return Err(SpecError::new(
                            format!("timeline[{idx}]"),
                            format!("overlapping outage: server {server} is already down"),
                        ));
                    }
                    down[*server] = true;
                    if down.iter().all(|d| *d) {
                        return Err(SpecError::new(
                            format!("timeline[{idx}]"),
                            "events leave every server down simultaneously",
                        ));
                    }
                }
                EngineEvent::ServerRecovery { server } => {
                    if !down[*server] {
                        return Err(SpecError::new(
                            format!("timeline[{idx}]"),
                            format!("server {server} is not down at this point"),
                        ));
                    }
                    down[*server] = false;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The number of servers still up after all timeline events fire.
    pub fn final_servers_up(&self) -> usize {
        let SpecMode::Generated(g) = &self.mode else {
            return 0;
        };
        let mut down = vec![false; g.topology.servers];
        for ev in &self.timeline {
            match &ev.event {
                EngineEvent::ServerOutage { server } => down[*server] = true,
                EngineEvent::ServerRecovery { server } => down[*server] = false,
                _ => {}
            }
        }
        down.iter().filter(|d| !**d).count()
    }
}

impl GeneratedSpec {
    fn validate(&self) -> Result<(), SpecError> {
        if self.topology.servers == 0 {
            return Err(SpecError::new("topology.servers", "must be at least 1"));
        }
        positive(
            self.topology.inter_site_distance_m,
            "topology.inter_site_distance_m",
        )?;
        positive(self.radio.bandwidth_hz, "radio.bandwidth_hz")?;
        if self.radio.subchannels == 0 {
            return Err(SpecError::new("radio.subchannels", "must be at least 1"));
        }
        non_negative(self.radio.shadowing_db, "radio.shadowing_db")?;
        if !self.radio.noise_dbm.is_finite() {
            return Err(SpecError::new("radio.noise_dbm", "must be finite"));
        }
        if !self.radio.tx_power_dbm.is_finite() {
            return Err(SpecError::new("radio.tx_power_dbm", "must be finite"));
        }
        positive(self.compute.server_cpu_ghz, "compute.server_cpu_ghz")?;
        if self.population.users == 0 {
            return Err(SpecError::new("population.users", "must be at least 1"));
        }
        if let PlacementModel::Hotspots { clusters, spread_m } = &self.population.placement {
            if *clusters == 0 {
                return Err(SpecError::new(
                    "population.hotspot_clusters",
                    "must be at least 1",
                ));
            }
            non_negative(*spread_m, "population.hotspot_spread_m")?;
        }
        if self.population.templates.is_empty() {
            return Err(SpecError::new(
                "population.template",
                "at least one template is required",
            ));
        }
        for (i, t) in self.population.templates.iter().enumerate() {
            let p = |field: &str| format!("population.template[{i}].{field}");
            positive(t.weight, &p("weight"))?;
            positive(t.task_data_kb, &p("task_data_kb"))?;
            positive(t.task_mcycles, &p("task_mcycles"))?;
            unit_interval(t.beta_time, &p("beta_time"))?;
            non_negative(t.beta_time_spread, &p("beta_time_spread"))?;
            if !(t.lambda > 0.0 && t.lambda <= 1.0) {
                return Err(SpecError::new(
                    p("lambda"),
                    format!("must be within (0, 1] (got {})", t.lambda),
                ));
            }
            positive(t.user_cpu_ghz, &p("user_cpu_ghz"))?;
            positive(t.kappa, &p("kappa"))?;
        }
        if let Some(d) = &self.downlink {
            positive(d.rate_mbps, "downlink.rate_mbps")?;
            positive(d.output_kb, "downlink.output_kb")?;
        }
        Ok(())
    }
}

impl ExplicitSpec {
    fn validate(&self) -> Result<(), SpecError> {
        positive(self.bandwidth_hz, "explicit.bandwidth_hz")?;
        if self.subchannels == 0 {
            return Err(SpecError::new("explicit.subchannels", "must be at least 1"));
        }
        positive(self.noise_w, "explicit.noise_w")?;
        if self.server_cpu_hz.is_empty() {
            return Err(SpecError::new(
                "explicit.server_cpu_hz",
                "at least one server is required",
            ));
        }
        for (i, cpu) in self.server_cpu_hz.iter().enumerate() {
            positive(*cpu, &format!("explicit.server_cpu_hz[{i}]"))?;
        }
        if let Some(bps) = self.downlink_bps {
            positive(bps, "explicit.downlink_bps")?;
        }
        if self.users.is_empty() {
            return Err(SpecError::new(
                "explicit.user",
                "at least one user is required",
            ));
        }
        let servers = self.server_cpu_hz.len();
        for (i, u) in self.users.iter().enumerate() {
            let p = |field: &str| format!("explicit.user[{i}].{field}");
            positive(u.task_data_bits, &p("task_data_bits"))?;
            positive(u.task_cycles, &p("task_cycles"))?;
            if let Some(out) = u.task_output_bits {
                positive(out, &p("task_output_bits"))?;
            }
            unit_interval(u.beta_time, &p("beta_time"))?;
            positive(u.lambda, &p("lambda"))?;
            positive(u.user_cpu_hz, &p("user_cpu_hz"))?;
            positive(u.kappa, &p("kappa"))?;
            if !u.tx_power_dbm.is_finite() {
                return Err(SpecError::new(p("tx_power_dbm"), "must be finite"));
            }
            if u.gains.len() != servers {
                return Err(SpecError::new(
                    p("gains"),
                    format!(
                        "expected {servers} rows (one per server), got {}",
                        u.gains.len()
                    ),
                ));
            }
            for (s, row) in u.gains.iter().enumerate() {
                if row.len() != self.subchannels {
                    return Err(SpecError::new(
                        format!("explicit.user[{i}].gains[{s}]"),
                        format!(
                            "expected {} gains (one per subchannel), got {}",
                            self.subchannels,
                            row.len()
                        ),
                    ));
                }
                for (j, g) in row.iter().enumerate() {
                    positive(*g, &format!("explicit.user[{i}].gains[{s}][{j}]"))?;
                }
            }
        }
        Ok(())
    }
}

impl ChurnSpec {
    fn validate(&self) -> Result<(), SpecError> {
        non_negative(self.arrival_rate_hz, "churn.arrival_rate_hz")?;
        positive(self.mean_sojourn_s, "churn.mean_sojourn_s")
    }
}

impl AdmissionSpec {
    fn validate(&self) -> Result<(), SpecError> {
        match self.policy.as_str() {
            "admit_all" => {
                if self.capacity.is_some() {
                    return Err(SpecError::new(
                        "admission.capacity",
                        "admit_all takes no capacity",
                    ));
                }
            }
            "reject" | "force_local" => {
                if self.capacity.is_none() {
                    return Err(SpecError::new(
                        "admission.capacity",
                        format!("policy `{}` requires a capacity", self.policy),
                    ));
                }
            }
            other => {
                return Err(SpecError::new(
                    "admission.policy",
                    format!(
                        "unknown policy `{other}` (expected \"admit_all\", \"reject\" or \"force_local\")"
                    ),
                ))
            }
        }
        Ok(())
    }
}

impl OnlineSpec {
    fn validate(&self) -> Result<(), SpecError> {
        if self.epochs == 0 {
            return Err(SpecError::new("online.epochs", "must be at least 1"));
        }
        positive(self.epoch_duration_s, "online.epoch_duration_s")?;
        positive(self.speed_min_mps, "online.speed_min_mps")?;
        positive(self.speed_max_mps, "online.speed_max_mps")?;
        if self.speed_min_mps > self.speed_max_mps {
            return Err(SpecError::new(
                "online.speed_min_mps",
                "must not exceed speed_max_mps",
            ));
        }
        if self.warm_budget == Some(0) {
            return Err(SpecError::new("online.warm_budget", "must be at least 1"));
        }
        if let Some(t) = self.min_temperature {
            positive(t, "online.min_temperature")?;
        }
        Ok(())
    }

    /// Total simulated run length.
    pub fn run_length_s(&self) -> f64 {
        self.epochs as f64 * self.epoch_duration_s
    }
}

impl ExpectSpec {
    fn validate(&self, has_online: bool) -> Result<(), SpecError> {
        if let Some(solver) = &self.solver {
            if !matches!(solver.as_str(), "anneal" | "shard") {
                return Err(SpecError::new(
                    "expect.solver",
                    format!("unknown solver `{solver}` (expected \"anneal\" or \"shard\")"),
                ));
            }
            if has_online {
                return Err(SpecError::new(
                    "expect.solver",
                    "online specs always use the online engine; solver \
                     selection is offline-only",
                ));
            }
        }
        if let (Some(lo), Some(hi)) = (self.min_utility, self.max_utility) {
            if lo > hi {
                return Err(SpecError::new(
                    "expect.min_utility",
                    "must not exceed max_utility",
                ));
            }
        }
        if let Some(rate) = self.min_deadline_hit_rate {
            unit_interval(rate, "expect.min_deadline_hit_rate")?;
        }
        if !has_online {
            let online_only: [(&str, bool); 5] = [
                (
                    "min_deadline_hit_rate",
                    self.min_deadline_hit_rate.is_some(),
                ),
                ("min_arrivals", self.min_arrivals.is_some()),
                ("min_events_applied", self.min_events_applied.is_some()),
                ("final_servers_up", self.final_servers_up.is_some()),
                ("min_peak_active", self.min_peak_active.is_some()),
            ];
            if let Some((field, _)) = online_only.iter().find(|(_, set)| *set) {
                return Err(SpecError::new(
                    format!("expect.{field}"),
                    "requires an [online] section",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "schema_version = 1\nname = \"minimal\"\n";

    #[test]
    fn minimal_spec_decodes_with_paper_defaults() {
        let spec = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        spec.validate().unwrap();
        let SpecMode::Generated(g) = &spec.mode else {
            panic!("expected generated mode")
        };
        assert_eq!(g.topology.servers, 9);
        assert_eq!(g.radio.subchannels, 3);
        assert_eq!(g.population.users, 30);
        assert_eq!(g.population.templates.len(), 1);
        assert_eq!(g.population.templates[0].task_mcycles, 1000.0);
    }

    #[test]
    fn toml_round_trip_preserves_the_spec() {
        let doc = r#"
schema_version = 1
name = "round_trip"
description = "full featured"

[topology]
servers = 4
inter_site_distance_m = 800.0

[radio]
subchannels = 2
shadowing_db = 0.0

[population]
users = 12
placement = "hotspots"
hotspot_clusters = 2
hotspot_spread_m = 60.0

[[population.template]]
weight = 2.0
task_mcycles = 1500.0

[[population.template]]
weight = 1.0
beta_time = 0.9

[downlink]
rate_mbps = 10.0
output_kb = 40.0

[churn]
arrival_rate_hz = 0.2
mean_sojourn_s = 45.0

[admission]
policy = "force_local"
capacity = 8

[sla]
deadline_s = 0.6

[online]
epochs = 6
epoch_duration_s = 10.0

[[timeline]]
at_s = 10.0
event = "server_outage"
server = 1

[[timeline]]
at_s = 30.0
event = "server_recovery"
server = 1

[[timeline]]
at_s = 20.0
event = "load_ramp"
rate_factor = 2.5

[expect]
seed = 7
min_arrivals = 1
"#;
        let spec = ScenarioSpec::from_toml_str(doc).unwrap();
        spec.validate().unwrap();
        let text = spec.to_toml_string().unwrap();
        let back = ScenarioSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec, back, "re-encoded spec differs:\n{text}");
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let spec = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        let json = spec.to_json_string().unwrap();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let doc = "schema_version = 1\nname = \"x\"\n[radio]\nbandwith_hz = 1.0\n";
        let err = ScenarioSpec::from_toml_str(doc).unwrap_err();
        assert_eq!(err.path, "radio.bandwith_hz");
        assert_eq!(err.message, "unknown field");
    }

    #[test]
    fn explicit_mode_conflicts_with_generated_sections() {
        let doc = r#"
schema_version = 1
name = "x"

[topology]
servers = 3

[explicit]
bandwidth_hz = 20e6
subchannels = 1
noise_w = 1e-13
server_cpu_hz = [2e10]

[[explicit.user]]
task_data_bits = 3440640.0
task_cycles = 1e9
beta_time = 0.5
lambda = 1.0
user_cpu_hz = 1e9
kappa = 5e-27
tx_power_dbm = 10.0
gains = [[1e-10]]
"#;
        let err = ScenarioSpec::from_toml_str(doc).unwrap_err();
        assert_eq!(err.path, "topology");
    }

    #[test]
    fn overlapping_outages_are_rejected() {
        let doc = r#"
schema_version = 1
name = "x"

[online]
epochs = 4

[[timeline]]
at_s = 5.0
event = "server_outage"
server = 2

[[timeline]]
at_s = 15.0
event = "server_outage"
server = 2
"#;
        let spec = ScenarioSpec::from_toml_str(doc).unwrap();
        let err = spec.validate().unwrap_err();
        assert_eq!(err.path, "timeline[1]");
        assert!(err.message.contains("already down"), "{err}");
    }

    #[test]
    fn final_servers_up_tracks_the_timeline() {
        let doc = r#"
schema_version = 1
name = "x"

[topology]
servers = 4

[online]
epochs = 4

[[timeline]]
at_s = 5.0
event = "server_outage"
server = 0

[[timeline]]
at_s = 8.0
event = "server_outage"
server = 1

[[timeline]]
at_s = 12.0
event = "server_recovery"
server = 0
"#;
        let spec = ScenarioSpec::from_toml_str(doc).unwrap();
        spec.validate().unwrap();
        assert_eq!(spec.final_servers_up(), 3);
    }
}
