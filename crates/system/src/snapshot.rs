//! Serializable scenario snapshots.
//!
//! [`Scenario`] precomputes derived quantities and is therefore not
//! directly serializable; [`ScenarioSnapshot`] is its plain-data twin.
//! Snapshots round-trip through Serde (the `tsajs-sim` CLI stores them as
//! JSON), and [`ScenarioSnapshot::into_scenario`] rebuilds every value
//! through its constructor and re-runs full validation, so a snapshot from
//! disk can never produce an invalid scenario. The
//! declarative, seeded scenario format is `mec_scenario_spec::ScenarioSpec`.

use crate::scenario::{Scenario, UserSpec};
use mec_radio::{ChannelGains, OfdmaConfig};
use mec_topology::Point2;
use mec_types::{
    BitsPerSecond, DeviceProfile, Error, ProviderPreference, ServerProfile, Task, UserPreferences,
    Watts,
};
use serde::{Deserialize, Serialize};

/// The persistent form of a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSnapshot {
    /// Per-user tasks, devices and preferences.
    pub users: Vec<UserSpec>,
    /// Per-server computing capacities.
    pub servers: Vec<ServerProfile>,
    /// The OFDMA band plan.
    pub ofdma: OfdmaConfig,
    /// The channel-gain tensor.
    pub gains: ChannelGains,
    /// Background noise power.
    pub noise: Watts,
    /// Optional fixed downlink rate (§III-A.2 extension).
    #[serde(default)]
    pub downlink: Option<BitsPerSecond>,
    /// Optional user positions (meters), aligned with `users`. Channel
    /// gains are already baked into `gains`; positions are carried only
    /// for visualization and mobility tooling.
    #[serde(default)]
    pub positions: Option<Vec<Point2>>,
}

impl ScenarioSnapshot {
    /// Captures a scenario into its persistent form.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        Self {
            users: scenario.users().to_vec(),
            servers: scenario.servers().to_vec(),
            ofdma: *scenario.ofdma(),
            gains: scenario.gains().clone(),
            noise: scenario.noise(),
            downlink: scenario.downlink(),
            positions: None,
        }
    }

    /// Attaches user positions (for rendering/mobility tooling).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the count differs from the
    /// user count.
    pub fn with_positions(mut self, positions: Vec<Point2>) -> Result<Self, Error> {
        check_positions(self.users.len(), &positions)?;
        self.positions = Some(positions);
        Ok(self)
    }

    /// Validates and builds the runnable scenario. The derived
    /// `Deserialize` impls of the tasks, devices, preferences, servers
    /// and band plan skip their constructors' checks, so each value is
    /// rebuilt through its constructor here.
    ///
    /// # Errors
    ///
    /// The errors of those constructors, of [`Scenario::new`] (dimension
    /// mismatches, invalid gains or noise) and of
    /// [`Scenario::with_downlink`] when a downlink rate is present;
    /// [`Error::DimensionMismatch`] if the positions do not match the user
    /// count.
    pub fn into_scenario(self) -> Result<Scenario, Error> {
        if let Some(positions) = &self.positions {
            check_positions(self.users.len(), positions)?;
        }
        let users = self
            .users
            .iter()
            .map(|u| {
                Ok(UserSpec {
                    task: Task::with_output(u.task.data(), u.task.workload(), u.task.output())?,
                    device: DeviceProfile::new(
                        u.device.cpu(),
                        u.device.kappa(),
                        u.device.tx_power(),
                    )?,
                    preferences: UserPreferences::new(u.preferences.beta_time())?,
                    lambda: ProviderPreference::new(u.lambda.value())?,
                })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        let servers = self
            .servers
            .iter()
            .map(|s| ServerProfile::new(s.capacity()))
            .collect::<Result<Vec<_>, Error>>()?;
        let ofdma = OfdmaConfig::new(self.ofdma.bandwidth(), self.ofdma.num_subchannels())?;
        let scenario = Scenario::new(users, servers, ofdma, self.gains, self.noise)?;
        match self.downlink {
            Some(rate) => scenario.with_downlink(rate),
            None => Ok(scenario),
        }
    }
}

fn check_positions(users: usize, positions: &[Point2]) -> Result<(), Error> {
    if positions.len() != users {
        return Err(Error::DimensionMismatch {
            what: "positions vs users",
            expected: users,
            actual: positions.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_types::{Cycles, Hertz, UserId};

    fn scenario() -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1500.0)).unwrap(); 3],
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            ChannelGains::uniform(3, 2, 2, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    #[test]
    fn spec_roundtrip_preserves_the_model() {
        let original = scenario();
        let spec = ScenarioSnapshot::from_scenario(&original);
        let rebuilt = spec.into_scenario().unwrap();
        assert_eq!(rebuilt.num_users(), original.num_users());
        assert_eq!(rebuilt.gains(), original.gains());
        assert_eq!(rebuilt.noise(), original.noise());
        assert_eq!(rebuilt.downlink(), None);
        // Derived quantities are recomputed identically.
        let u = UserId::new(0);
        assert_eq!(rebuilt.local_cost(u), original.local_cost(u));
        assert_eq!(rebuilt.coefficients(u), original.coefficients(u));
    }

    #[test]
    fn downlink_survives_the_roundtrip() {
        let original = scenario()
            .with_downlink(BitsPerSecond::new(100.0e6))
            .unwrap();
        let spec = ScenarioSnapshot::from_scenario(&original);
        assert_eq!(spec.downlink, Some(BitsPerSecond::new(100.0e6)));
        let rebuilt = spec.into_scenario().unwrap();
        assert_eq!(rebuilt.downlink(), Some(BitsPerSecond::new(100.0e6)));
    }

    #[test]
    fn positions_attach_and_validate() {
        let spec = ScenarioSnapshot::from_scenario(&scenario());
        assert_eq!(spec.positions, None);
        let pts = vec![Point2::new(0.0, 0.0); 3];
        let spec = spec.with_positions(pts.clone()).unwrap();
        assert_eq!(spec.positions.as_deref(), Some(pts.as_slice()));
        // Wrong count is rejected.
        let bad =
            ScenarioSnapshot::from_scenario(&scenario())
                .with_positions(vec![Point2::new(0.0, 0.0); 2]);
        assert!(bad.is_err());
    }

    #[test]
    fn corrupted_specs_fail_validation() {
        let mut spec = ScenarioSnapshot::from_scenario(&scenario());
        spec.users.pop(); // Now the gain tensor no longer matches.
        assert!(matches!(
            spec.into_scenario(),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    /// A valid snapshot's JSON with the first `from` replaced by `to`,
    /// loaded back: the derived `Deserialize` accepts any number.
    fn edited(from: &str, to: &str) -> ScenarioSnapshot {
        let json = serde_json::to_string(&ScenarioSnapshot::from_scenario(&scenario())).unwrap();
        assert!(json.contains(from), "`{from}` is not in {json}");
        serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn a_negative_bandwidth_fails_to_load() {
        let spec = edited("\"bandwidth\":20000000", "\"bandwidth\":-1");
        assert!(matches!(
            spec.into_scenario(),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn a_zero_server_capacity_fails_to_load() {
        let spec = edited("\"capacity\":20000000000", "\"capacity\":0");
        assert!(matches!(
            spec.into_scenario(),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn a_beta_outside_the_unit_interval_fails_to_load() {
        let spec = edited("\"beta_time\":0.5", "\"beta_time\":2.0");
        assert!(matches!(
            spec.into_scenario(),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn positions_short_of_the_users_fail_to_load() {
        let mut spec = ScenarioSnapshot::from_scenario(&scenario())
            .with_positions(vec![Point2::new(0.0, 0.0); 3])
            .unwrap();
        spec.positions.as_mut().unwrap().pop();
        assert!(matches!(
            spec.into_scenario(),
            Err(Error::DimensionMismatch { .. })
        ));
    }
}
