//! Experiment parameter sets (§V defaults plus per-figure overrides).

use mec_types::{
    constants, Bits, BitsPerSecond, Cycles, DbMilliwatts, DeviceProfile, Error, Hertz, Meters, Task,
};

/// How much compute an experiment run should spend.
///
/// Historically a closed `Quick`/`Full` enum; now an open effort record so
/// scenario specs and CLI flags can define their own levels. The old
/// variant syntax keeps compiling through the [`Preset::Quick`] /
/// [`Preset::Full`] associated constants. Named presets also point at
/// their corpus spec under `scenarios/`, so `--preset quick` and
/// `--scenario scenarios/preset_quick.toml` describe the same run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preset {
    /// Stable lookup name (`"quick"`, `"full"`, or `"custom"`).
    pub name: &'static str,
    /// Number of Monte-Carlo trials per configuration.
    pub trials: usize,
    /// TTSA termination temperature (`T_min`). The paper's `10⁻⁹` needs
    /// ≈ 700 epochs; quick-scale runs stop orders of magnitude earlier.
    pub ttsa_min_temperature: f64,
}

impl Preset {
    /// Few trials, truncated annealing schedule — for smoke tests.
    #[allow(non_upper_case_globals)]
    pub const Quick: Preset = Preset {
        name: "quick",
        trials: 3,
        ttsa_min_temperature: 1e-3,
    };

    /// Paper-faithful trial counts and schedules.
    #[allow(non_upper_case_globals)]
    pub const Full: Preset = Preset {
        name: "full",
        trials: 15,
        ttsa_min_temperature: 1e-9,
    };

    /// Looks up a named preset, case-insensitively.
    pub fn resolve(name: &str) -> Option<Preset> {
        if name.eq_ignore_ascii_case("quick") {
            Some(Preset::Quick)
        } else if name.eq_ignore_ascii_case("full") {
            Some(Preset::Full)
        } else {
            None
        }
    }

    /// Whether this is the paper-faithful effort level (or deeper).
    pub fn is_full(&self) -> bool {
        self.trials >= Preset::Full.trials
            && self.ttsa_min_temperature <= Preset::Full.ttsa_min_temperature
    }

    /// The equivalent corpus spec under `scenarios/`, for named presets.
    pub fn scenario_file(&self) -> Option<&'static str> {
        match self.name {
            "quick" => Some("scenarios/preset_quick.toml"),
            "full" => Some("scenarios/preset_full.toml"),
            _ => None,
        }
    }
}

/// How users are scattered over the coverage area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementModel {
    /// Uniform over the coverage area (the paper's setting).
    Uniform,
    /// Clustered around `clusters` hotspot centers with a Gaussian spread
    /// (meters) — concentrates load on a few cells.
    Hotspots {
        /// Number of hotspot centers.
        clusters: usize,
        /// Gaussian standard deviation around each center, in meters.
        spread_m: f64,
    },
}

/// Every knob of a simulated MEC network, initialized to the values of §V.
///
/// All users are homogeneous unless an experiment says otherwise (that is
/// exactly the paper's setup); heterogeneity enters through positions and
/// shadowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Number of users `U`.
    pub num_users: usize,
    /// Number of cells / MEC servers `S`.
    pub num_servers: usize,
    /// Number of OFDMA subchannels `N`.
    pub num_subchannels: usize,
    /// Total uplink bandwidth `B`.
    pub bandwidth: Hertz,
    /// Background noise `σ²`.
    pub noise: DbMilliwatts,
    /// User transmit power `P_u`.
    pub tx_power: DbMilliwatts,
    /// Inter-site distance.
    pub inter_site_distance: Meters,
    /// Lognormal shadowing standard deviation in dB.
    pub shadowing_db: f64,
    /// MEC server capacity `f_s`.
    pub server_cpu: Hertz,
    /// User device CPU `f_u`.
    pub user_cpu: Hertz,
    /// Chip energy coefficient `κ`.
    pub kappa: f64,
    /// Task input size `d_u`.
    pub task_data: Bits,
    /// Task workload `w_u`.
    pub task_workload: Cycles,
    /// User time preference `β_u^time` (energy weight is `1 − β`).
    pub beta_time: f64,
    /// Half-width of per-user uniform jitter around `beta_time` (clamped
    /// to `[0, 1]`). Zero (the paper's setting) makes all users share the
    /// same preference; a positive spread produces a heterogeneous
    /// population, which is where the KKT allocation differs from an
    /// equal split.
    pub beta_time_spread: f64,
    /// Provider preference `λ_u`.
    pub lambda: f64,
    /// Task result size returned over the downlink (`None` disables the
    /// §III-A.2 downlink extension, the paper's default).
    pub task_output: Option<Bits>,
    /// Fixed downlink rate; must be set when `task_output` is.
    pub downlink_rate: Option<BitsPerSecond>,
    /// User placement model.
    pub placement: PlacementModel,
}

impl ExperimentParams {
    /// The §V defaults: `S=9`, `N=3`, `B=20 MHz`, `σ²=−100 dBm`,
    /// `P_u=10 dBm`, 1 km ISD, 8 dB shadowing, `f_s=20 GHz`, `f_u=1 GHz`,
    /// `κ=5·10⁻²⁷`, `d_u=420 KB`, `β=0.5`, `λ=1`; `U=30` and
    /// `w_u=1000 Mcycles` as a neutral starting point.
    pub fn paper_default() -> Self {
        Self {
            num_users: 30,
            num_servers: constants::DEFAULT_NUM_SERVERS,
            num_subchannels: constants::DEFAULT_NUM_SUBCHANNELS,
            bandwidth: constants::DEFAULT_BANDWIDTH,
            noise: constants::DEFAULT_NOISE,
            tx_power: constants::DEFAULT_TX_POWER,
            inter_site_distance: constants::INTER_SITE_DISTANCE,
            shadowing_db: constants::SHADOWING_STDDEV_DB,
            server_cpu: constants::DEFAULT_SERVER_CPU,
            user_cpu: constants::DEFAULT_USER_CPU,
            kappa: constants::DEFAULT_KAPPA,
            task_data: constants::DEFAULT_TASK_DATA,
            task_workload: Cycles::from_mega(1000.0),
            beta_time: 0.5,
            beta_time_spread: 0.0,
            lambda: 1.0,
            task_output: None,
            downlink_rate: None,
            placement: PlacementModel::Uniform,
        }
    }

    /// Fig. 3's confined network: `U=6`, `S=4`, `N=2` (small enough for
    /// exhaustive search).
    pub fn small_network() -> Self {
        Self {
            num_users: 6,
            num_servers: 4,
            num_subchannels: 2,
            ..Self::paper_default()
        }
    }

    /// Sets the number of users.
    pub fn with_users(mut self, num_users: usize) -> Self {
        self.num_users = num_users;
        self
    }

    /// Sets the number of servers.
    pub fn with_servers(mut self, num_servers: usize) -> Self {
        self.num_servers = num_servers;
        self
    }

    /// Sets the number of subchannels.
    pub fn with_subchannels(mut self, num_subchannels: usize) -> Self {
        self.num_subchannels = num_subchannels;
        self
    }

    /// Sets the task workload.
    pub fn with_workload(mut self, workload: Cycles) -> Self {
        self.task_workload = workload;
        self
    }

    /// Sets the task input size.
    pub fn with_task_data(mut self, data: Bits) -> Self {
        self.task_data = data;
        self
    }

    /// Sets the time-preference weight `β_u^time`.
    pub fn with_beta_time(mut self, beta_time: f64) -> Self {
        self.beta_time = beta_time;
        self
    }

    /// Sets the per-user preference jitter half-width.
    pub fn with_beta_time_spread(mut self, spread: f64) -> Self {
        self.beta_time_spread = spread;
        self
    }

    /// Disables shadowing (deterministic channels for tests).
    pub fn without_shadowing(mut self) -> Self {
        self.shadowing_db = 0.0;
        self
    }

    /// Enables the downlink extension: tasks return `output` bits over a
    /// fixed `rate` downlink.
    pub fn with_downlink(mut self, output: Bits, rate: BitsPerSecond) -> Self {
        self.task_output = Some(output);
        self.downlink_rate = Some(rate);
        self
    }

    /// Switches to hotspot (clustered) user placement.
    pub fn with_hotspots(mut self, clusters: usize, spread_m: f64) -> Self {
        self.placement = PlacementModel::Hotspots { clusters, spread_m };
        self
    }

    /// The task and device every user drawn from these parameters
    /// carries (each user adds its own β and the class's λ).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a non-positive task size,
    /// workload, CPU or `κ`, a negative output size or a non-finite
    /// transmit power.
    pub fn task_and_device(&self) -> Result<(Task, DeviceProfile), Error> {
        let device = DeviceProfile::new(self.user_cpu, self.kappa, self.tx_power)?;
        let task = match self.task_output {
            Some(output) => Task::with_output(self.task_data, self.task_workload, output)?,
            None => Task::new(self.task_data, self.task_workload)?,
        };
        Ok((task, device))
    }
}

impl Default for ExperimentParams {
    /// Defaults to [`ExperimentParams::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_v() {
        let p = ExperimentParams::paper_default();
        assert_eq!(p.num_servers, 9);
        assert_eq!(p.num_subchannels, 3);
        assert_eq!(p.bandwidth.as_mega(), 20.0);
        assert_eq!(p.noise.as_dbm(), -100.0);
        assert_eq!(p.tx_power.as_dbm(), 10.0);
        assert_eq!(p.inter_site_distance.as_kilometers(), 1.0);
        assert_eq!(p.shadowing_db, 8.0);
        assert_eq!(p.server_cpu.as_giga(), 20.0);
        assert_eq!(p.user_cpu.as_giga(), 1.0);
        assert_eq!(p.kappa, 5e-27);
        assert!((p.task_data.as_kilobytes() - 420.0).abs() < 1e-9);
        assert_eq!(p.beta_time, 0.5);
        assert_eq!(p.lambda, 1.0);
        assert_eq!(ExperimentParams::default(), p);
    }

    #[test]
    fn small_network_matches_fig3() {
        let p = ExperimentParams::small_network();
        assert_eq!((p.num_users, p.num_servers, p.num_subchannels), (6, 4, 2));
    }

    #[test]
    fn builders_override_single_fields() {
        let p = ExperimentParams::paper_default()
            .with_users(90)
            .with_servers(4)
            .with_subchannels(30)
            .with_workload(Cycles::from_mega(3000.0))
            .with_task_data(Bits::from_kilobytes(100.0))
            .with_beta_time(0.95)
            .without_shadowing();
        assert_eq!(p.num_users, 90);
        assert_eq!(p.num_servers, 4);
        assert_eq!(p.num_subchannels, 30);
        assert_eq!(p.task_workload.as_mega(), 3000.0);
        assert!((p.task_data.as_kilobytes() - 100.0).abs() < 1e-9);
        assert_eq!(p.beta_time, 0.95);
        assert_eq!(p.shadowing_db, 0.0);
    }

    #[test]
    fn placement_defaults_to_uniform_and_builder_switches() {
        assert_eq!(
            ExperimentParams::paper_default().placement,
            PlacementModel::Uniform
        );
        let p = ExperimentParams::paper_default().with_hotspots(3, 120.0);
        assert_eq!(
            p.placement,
            PlacementModel::Hotspots {
                clusters: 3,
                spread_m: 120.0
            }
        );
    }

    #[test]
    fn downlink_builder_sets_both_fields() {
        let p = ExperimentParams::paper_default()
            .with_downlink(Bits::from_kilobytes(50.0), BitsPerSecond::new(100.0e6));
        assert_eq!(p.task_output, Some(Bits::from_kilobytes(50.0)));
        assert_eq!(p.downlink_rate, Some(BitsPerSecond::new(100.0e6)));
        assert_eq!(ExperimentParams::paper_default().task_output, None);
    }

    #[test]
    fn presets_scale_effort() {
        let quick = Preset::resolve("quick").unwrap();
        let full = Preset::resolve("full").unwrap();
        assert!(full.trials > quick.trials);
        assert!(full.ttsa_min_temperature < quick.ttsa_min_temperature);
    }

    #[test]
    fn presets_resolve_by_name_case_insensitively() {
        assert_eq!(Preset::resolve("quick"), Some(Preset::Quick));
        assert_eq!(Preset::resolve("Full"), Some(Preset::Full));
        assert_eq!(Preset::resolve("FULL"), Some(Preset::Full));
        assert_eq!(Preset::resolve("warp-speed"), None);
        assert!(Preset::Full.is_full());
        assert!(!Preset::Quick.is_full());
        assert_eq!(
            Preset::Quick.scenario_file(),
            Some("scenarios/preset_quick.toml")
        );
        let custom = Preset {
            name: "custom",
            trials: 7,
            ttsa_min_temperature: 1e-4,
        };
        assert_eq!(custom.scenario_file(), None);
    }
}
