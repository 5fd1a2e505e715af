//! JTORA problem instances.

use crate::coefficients::UserCoefficients;
use mec_radio::{ChannelGains, OfdmaConfig};
use mec_types::{
    constants, BitsPerSecond, Cycles, DeviceProfile, Error, LocalCost, ProviderPreference,
    ServerId, ServerProfile, Task, UserId, UserPreferences, Watts,
};
use serde::{Deserialize, Serialize};

/// Everything the model needs to know about one user: its task, its
/// hardware, and how it (and the provider) weighs time against energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserSpec {
    /// The user's atomic computation task `⟨d_u, w_u⟩`.
    pub task: Task,
    /// The handset hardware profile (CPU, κ, transmit power).
    pub device: DeviceProfile,
    /// Time/energy preference weights `β_u`.
    pub preferences: UserPreferences,
    /// Provider priority `λ_u`.
    pub lambda: ProviderPreference,
}

impl UserSpec {
    /// A user with the paper's default device, preferences, priority and
    /// input size (420 KB), with the given task workload.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `workload` is non-positive.
    pub fn paper_default_with_workload(workload: Cycles) -> Result<Self, Error> {
        Ok(Self {
            task: Task::new(constants::DEFAULT_TASK_DATA, workload)?,
            device: DeviceProfile::paper_default(),
            preferences: UserPreferences::balanced(),
            lambda: ProviderPreference::MAX,
        })
    }
}

/// A complete, validated JTORA problem instance.
///
/// Immutable once built; solvers share it by reference. All derived
/// per-user quantities used in the objective (`t_local`, `E_local`,
/// `φ/ψ/η`, transmit powers in watts) are precomputed at construction.
#[derive(Debug, Clone)]
pub struct Scenario {
    users: Vec<UserSpec>,
    servers: Vec<ServerProfile>,
    ofdma: OfdmaConfig,
    gains: ChannelGains,
    noise: Watts,
    downlink: Option<BitsPerSecond>,
    /// Fixed external received power (watts) at `[j·S + s]`, added to the
    /// interference totals of every evaluation. `None` means no external
    /// interference — the exact historical behavior. This is the halo
    /// channel of the sharded solver: each cluster sees the rest of the
    /// city as a frozen per-(server, subchannel) power field.
    external_rx: Option<Vec<f64>>,
    // Precomputed, indexed by user.
    local_costs: Vec<LocalCost>,
    tx_powers_watts: Vec<f64>,
    coefficients: Vec<UserCoefficients>,
}

impl Scenario {
    /// Builds and validates a scenario.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if the gain tensor does not match the
    ///   user/server/subchannel counts.
    /// * [`Error::InvalidParameter`] if there are no users or servers,
    ///   the noise power is non-positive, or a count exceeds what a
    ///   packed [`MoveDesc`](crate::MoveDesc) can address (2³² users,
    ///   2²⁰ servers, 2¹¹ subchannels).
    pub fn new(
        users: Vec<UserSpec>,
        servers: Vec<ServerProfile>,
        ofdma: OfdmaConfig,
        gains: ChannelGains,
        noise: Watts,
    ) -> Result<Self, Error> {
        if users.is_empty() {
            return Err(Error::invalid("U", "scenario needs at least one user"));
        }
        if servers.is_empty() {
            return Err(Error::invalid("S", "scenario needs at least one server"));
        }
        if !noise.is_finite() || noise.as_watts() <= 0.0 {
            return Err(Error::invalid("sigma2", "noise power must be positive"));
        }
        if gains.num_users() != users.len() {
            return Err(Error::DimensionMismatch {
                what: "channel gains vs users",
                expected: users.len(),
                actual: gains.num_users(),
            });
        }
        if gains.num_servers() != servers.len() {
            return Err(Error::DimensionMismatch {
                what: "channel gains vs servers",
                expected: servers.len(),
                actual: gains.num_servers(),
            });
        }
        if gains.num_subchannels() != ofdma.num_subchannels() {
            return Err(Error::DimensionMismatch {
                what: "channel gains vs subchannels",
                expected: ofdma.num_subchannels(),
                actual: gains.num_subchannels(),
            });
        }
        crate::assignment::check_packed_geometry(
            users.len(),
            servers.len(),
            ofdma.num_subchannels(),
        )?;

        let local_costs: Vec<LocalCost> =
            users.iter().map(|u| u.task.local_cost(&u.device)).collect();
        let tx_powers_watts: Vec<f64> = users
            .iter()
            .map(|u| u.device.tx_power_watts().as_watts())
            .collect();
        let subchannel_width = ofdma.subchannel_width();
        let coefficients: Vec<UserCoefficients> = users
            .iter()
            .zip(&local_costs)
            .map(|(u, lc)| UserCoefficients::compute(u, lc, subchannel_width, None))
            .collect();

        Ok(Self {
            users,
            servers,
            ofdma,
            gains,
            noise,
            downlink: None,
            external_rx: None,
            local_costs,
            tx_powers_watts,
            coefficients,
        })
    }

    /// Enables the downlink extension (§III-A.2): results of size
    /// [`Task::output`] are returned to the user at the given fixed rate,
    /// and the per-user objective coefficients are recomputed to include
    /// the download cost.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the rate is non-positive or
    /// non-finite.
    pub fn with_downlink(mut self, rate: BitsPerSecond) -> Result<Self, Error> {
        if !rate.is_finite() || rate.as_bps() <= 0.0 {
            return Err(Error::invalid("R_down", "downlink rate must be positive"));
        }
        self.downlink = Some(rate);
        let width = self.ofdma.subchannel_width();
        self.coefficients = self
            .users
            .iter()
            .zip(&self.local_costs)
            .map(|(u, lc)| UserCoefficients::compute(u, lc, width, Some(rate)))
            .collect();
        Ok(self)
    }

    /// The fixed downlink rate, if the downlink is modeled.
    #[inline]
    pub fn downlink(&self) -> Option<BitsPerSecond> {
        self.downlink
    }

    /// Installs a fixed external received-power field: `external[j·S + s]`
    /// watts are added to the interference total at server `s` on
    /// subchannel `j` in every objective/SINR evaluation. The sharded
    /// solver uses this to expose the frozen rest-of-city halo to a
    /// cluster; `None` (the default) reproduces the isolated-scenario
    /// semantics exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if the field is not `N·S`
    /// entries long and [`Error::InvalidParameter`] if any entry is
    /// negative or non-finite.
    pub fn set_external_rx(&mut self, external: Option<Vec<f64>>) -> Result<(), Error> {
        if let Some(ext) = &external {
            let expected = self.num_subchannels() * self.num_servers();
            if ext.len() != expected {
                return Err(Error::DimensionMismatch {
                    what: "external_rx vs subchannels x servers",
                    expected,
                    actual: ext.len(),
                });
            }
            if let Some(bad) = ext.iter().find(|v| !v.is_finite() || **v < 0.0) {
                return Err(Error::invalid(
                    "external_rx",
                    format!("entries must be finite and >= 0, got {bad}"),
                ));
            }
        }
        self.external_rx = external;
        Ok(())
    }

    /// Removes and returns the installed external field (if any), leaving
    /// the scenario in the isolated (`None`) state. The sharded engine's
    /// halo loop uses this to recycle the field's buffer across visits
    /// instead of allocating a fresh `N·S` vector per installation.
    pub fn take_external_rx(&mut self) -> Option<Vec<f64>> {
        self.external_rx.take()
    }

    /// The external received-power field at `[j·S + s]`, if installed.
    #[inline]
    pub fn external_rx(&self) -> Option<&[f64]> {
        self.external_rx.as_deref()
    }

    /// Builds the sub-scenario restricted to the given users and servers:
    /// new user `v` is old `users[v]`, new server `t` is old `servers[t]`,
    /// with gain rows carried along in their existing storage layout. The
    /// derived per-user quantities (local costs, linear powers and the
    /// objective coefficients, download cost included) are copied from
    /// the parent, not recomputed, so they are the parent's bit for bit.
    /// The downlink is inherited; any external-rx field is *not* —
    /// callers that shard a scenario install each cluster's halo
    /// explicitly per sweep.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] if `users` or `servers` is empty.
    /// * [`Error::UnknownEntity`] for an out-of-range id.
    pub fn subset(&self, users: &[UserId], servers: &[ServerId]) -> Result<Self, Error> {
        for &u in users {
            if u.index() >= self.users.len() {
                return Err(Error::UnknownEntity {
                    kind: "user",
                    index: u.index(),
                    count: self.users.len(),
                });
            }
        }
        for &s in servers {
            if s.index() >= self.servers.len() {
                return Err(Error::UnknownEntity {
                    kind: "server",
                    index: s.index(),
                    count: self.servers.len(),
                });
            }
        }
        if users.is_empty() {
            return Err(Error::invalid("U", "scenario needs at least one user"));
        }
        if servers.is_empty() {
            return Err(Error::invalid("S", "scenario needs at least one server"));
        }
        Ok(Self {
            users: users.iter().map(|u| self.users[u.index()]).collect(),
            servers: servers.iter().map(|s| self.servers[s.index()]).collect(),
            ofdma: self.ofdma,
            gains: self.gains.subset(users, servers)?,
            noise: self.noise,
            downlink: self.downlink,
            external_rx: None,
            local_costs: users.iter().map(|u| self.local_costs[u.index()]).collect(),
            tx_powers_watts: users
                .iter()
                .map(|u| self.tx_powers_watts[u.index()])
                .collect(),
            coefficients: users.iter().map(|u| self.coefficients[u.index()]).collect(),
        })
    }

    /// Number of users `U`.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of servers `S`.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of subchannels `N`.
    #[inline]
    pub fn num_subchannels(&self) -> usize {
        self.ofdma.num_subchannels()
    }

    /// All user specs, indexed by [`UserId`].
    #[inline]
    pub fn users(&self) -> &[UserSpec] {
        &self.users
    }

    /// One user spec.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn user(&self, u: UserId) -> &UserSpec {
        &self.users[u.index()]
    }

    /// All server profiles, indexed by [`ServerId`].
    #[inline]
    pub fn servers(&self) -> &[ServerProfile] {
        &self.servers
    }

    /// One server profile.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn server(&self, s: ServerId) -> &ServerProfile {
        &self.servers[s.index()]
    }

    /// The OFDMA band plan.
    #[inline]
    pub fn ofdma(&self) -> &OfdmaConfig {
        &self.ofdma
    }

    /// The channel-gain tensor.
    #[inline]
    pub fn gains(&self) -> &ChannelGains {
        &self.gains
    }

    /// Background noise power `σ²`.
    #[inline]
    pub fn noise(&self) -> Watts {
        self.noise
    }

    /// Precomputed local execution cost of user `u`.
    #[inline]
    pub fn local_cost(&self, u: UserId) -> LocalCost {
        self.local_costs[u.index()]
    }

    /// Per-user linear transmit powers in watts (indexed by user).
    #[inline]
    pub fn tx_powers_watts(&self) -> &[f64] {
        &self.tx_powers_watts
    }

    /// Precomputed objective coefficients `(φ_u, ψ_u, η_u)` of user `u`.
    #[inline]
    pub fn coefficients(&self, u: UserId) -> &UserCoefficients {
        &self.coefficients[u.index()]
    }

    /// Iterates over all user ids.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + Clone {
        UserId::all(self.users.len())
    }

    /// Iterates over all server ids.
    pub fn server_ids(&self) -> impl Iterator<Item = ServerId> + Clone {
        ServerId::all(self.servers.len())
    }

    /// Re-indexes the user population: new user `v` is old user
    /// `perm[v]`, with the gain tensor rows carried along. The objective
    /// landscape is invariant under this relabeling (only user *ids*
    /// change), which makes it the canonical metamorphic transform for
    /// conformance testing.
    ///
    /// # Errors
    ///
    /// * [`Error::DimensionMismatch`] if `perm` is not `U` entries long.
    /// * [`Error::UnknownEntity`] for an out-of-range old user id.
    /// * [`Error::InvalidParameter`] if `perm` repeats an old user (not a
    ///   permutation).
    pub fn permute_users(&self, perm: &[UserId]) -> Result<Self, Error> {
        if perm.len() != self.users.len() {
            return Err(Error::DimensionMismatch {
                what: "permutation vs users",
                expected: self.users.len(),
                actual: perm.len(),
            });
        }
        let mut seen = vec![false; self.users.len()];
        for &old in perm {
            if old.index() >= self.users.len() {
                return Err(Error::UnknownEntity {
                    kind: "user",
                    index: old.index(),
                    count: self.users.len(),
                });
            }
            if std::mem::replace(&mut seen[old.index()], true) {
                return Err(Error::invalid(
                    "perm",
                    format!("old user {old} appears more than once"),
                ));
            }
        }
        let users: Vec<UserSpec> = perm.iter().map(|&old| self.users[old.index()]).collect();
        // Row-gather via `subset` keeps the tensor's storage layout.
        let all_servers: Vec<ServerId> = self.server_ids().collect();
        let gains = self.gains.subset(perm, &all_servers)?;
        let base = Self::new(users, self.servers.clone(), self.ofdma, gains, self.noise)?;
        match self.downlink {
            Some(rate) => base.with_downlink(rate),
            None => Ok(base),
        }
    }

    /// Rescales every provider priority `λ_u` by the same factor and
    /// recomputes the derived coefficients. Since all of `φ/ψ/η` and the
    /// offloading gain are linear in `λ_u`, a uniform rescale scales the
    /// system utility `J*(X)` by the factor without moving the argmax —
    /// the second metamorphic transform used by the conformance harness.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if any rescaled `λ_u` leaves
    /// the valid `(0, 1]` range.
    pub fn with_scaled_lambdas(&self, factor: f64) -> Result<Self, Error> {
        let mut users = self.users.clone();
        for spec in &mut users {
            spec.lambda = ProviderPreference::new(spec.lambda.value() * factor)?;
        }
        let base = Self::new(
            users,
            self.servers.clone(),
            self.ofdma,
            self.gains.clone(),
            self.noise,
        )?;
        match self.downlink {
            Some(rate) => base.with_downlink(rate),
            None => Ok(base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_radio::ChannelGains;
    use mec_types::{DbMilliwatts, Hertz};

    fn small() -> Scenario {
        Scenario::new(
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0)).unwrap(); 3],
            vec![ServerProfile::paper_default(); 2],
            OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap(),
            ChannelGains::uniform(3, 2, 2, 1e-10).unwrap(),
            Watts::new(1e-13),
        )
        .unwrap()
    }

    /// [`small`] with user 2 transmitting at 20 dBm, so that the users
    /// are distinguishable.
    fn distinct() -> Scenario {
        let s = small();
        let mut users = s.users().to_vec();
        let device = users[2].device;
        users[2].device =
            DeviceProfile::new(device.cpu(), device.kappa(), DbMilliwatts::new(20.0)).unwrap();
        Scenario::new(
            users,
            s.servers().to_vec(),
            *s.ofdma(),
            s.gains().clone(),
            s.noise(),
        )
        .unwrap()
    }

    #[test]
    fn dimensions_are_exposed() {
        let s = small();
        assert_eq!(s.num_users(), 3);
        assert_eq!(s.num_servers(), 2);
        assert_eq!(s.num_subchannels(), 2);
        assert_eq!(s.user_ids().count(), 3);
        assert_eq!(s.server_ids().count(), 2);
    }

    #[test]
    fn precomputed_local_costs_match_task_model() {
        let s = small();
        for u in s.user_ids() {
            let expected = s.user(u).task.local_cost(&s.user(u).device);
            assert_eq!(s.local_cost(u), expected);
        }
        // 1000 Mcycles / 1 GHz = 1 s; κ f² w = 5 J.
        assert!((s.local_cost(UserId::new(0)).time.as_secs() - 1.0).abs() < 1e-12);
        assert!((s.local_cost(UserId::new(0)).energy.as_joules() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tx_powers_are_linear_watts() {
        let s = small();
        for p in s.tx_powers_watts() {
            assert!((p - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_gains_are_rejected() {
        let users =
            vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0)).unwrap(); 3];
        let servers = vec![ServerProfile::paper_default(); 2];
        let ofdma = OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap();
        // Wrong user count in the tensor.
        let bad = ChannelGains::uniform(4, 2, 2, 1e-10).unwrap();
        assert!(matches!(
            Scenario::new(
                users.clone(),
                servers.clone(),
                ofdma,
                bad,
                Watts::new(1e-13)
            ),
            Err(Error::DimensionMismatch { .. })
        ));
        // Wrong subchannel count.
        let bad = ChannelGains::uniform(3, 2, 3, 1e-10).unwrap();
        assert!(Scenario::new(users, servers, ofdma, bad, Watts::new(1e-13)).is_err());
    }

    #[test]
    fn empty_populations_are_rejected() {
        let ofdma = OfdmaConfig::new(Hertz::from_mega(20.0), 2).unwrap();
        let g = ChannelGains::uniform(0, 1, 2, 1e-10).unwrap();
        assert!(Scenario::new(
            vec![],
            vec![ServerProfile::paper_default()],
            ofdma,
            g,
            Watts::new(1e-13)
        )
        .is_err());
    }

    #[test]
    fn permute_users_relabels_specs_and_gain_rows() {
        let s = distinct();
        let perm = [UserId::new(2), UserId::new(0), UserId::new(1)];
        let p = s.permute_users(&perm).unwrap();
        for (v, &old) in perm.iter().enumerate() {
            let v = UserId::new(v);
            assert_eq!(p.user(v), s.user(old));
            assert_eq!(p.coefficients(v), s.coefficients(old));
            assert_eq!(p.local_cost(v), s.local_cost(old));
            for srv in s.server_ids() {
                for j in 0..s.num_subchannels() {
                    let j = mec_types::SubchannelId::new(j);
                    assert_eq!(p.gains().gain(v, srv, j), s.gains().gain(old, srv, j));
                }
            }
        }
        // Invalid permutations are rejected.
        assert!(s.permute_users(&[UserId::new(0)]).is_err());
        assert!(s
            .permute_users(&[UserId::new(0), UserId::new(0), UserId::new(1)])
            .is_err());
        assert!(s
            .permute_users(&[UserId::new(0), UserId::new(1), UserId::new(9)])
            .is_err());
    }

    #[test]
    fn scaled_lambdas_rescale_coefficients_linearly() {
        let s = small();
        let scaled = s.with_scaled_lambdas(0.25).unwrap();
        for u in s.user_ids() {
            assert!(
                (scaled.user(u).lambda.value() - 0.25 * s.user(u).lambda.value()).abs() < 1e-15
            );
            let (a, b) = (scaled.coefficients(u), s.coefficients(u));
            assert!((a.phi - 0.25 * b.phi).abs() <= 1e-12 * b.phi.abs());
            assert!((a.psi - 0.25 * b.psi).abs() <= 1e-12 * b.psi.abs());
            assert!((a.eta - 0.25 * b.eta).abs() <= 1e-12 * b.eta.abs());
            assert!(
                (a.gain_constant - 0.25 * b.gain_constant).abs() <= 1e-12 * b.gain_constant.abs()
            );
            // Local costs and powers are λ-independent.
            assert_eq!(scaled.local_cost(u), s.local_cost(u));
        }
        // Factors that push λ out of (0, 1] are rejected.
        assert!(s.with_scaled_lambdas(0.0).is_err());
        assert!(s.with_scaled_lambdas(2.0).is_err());
    }

    #[test]
    fn external_rx_is_validated_and_exposed() {
        let mut s = small();
        assert!(s.external_rx().is_none());
        // Wrong length (N·S = 4 here), negative and non-finite entries.
        assert!(s.set_external_rx(Some(vec![0.0; 3])).is_err());
        assert!(s.set_external_rx(Some(vec![-1.0; 4])).is_err());
        assert!(s.set_external_rx(Some(vec![f64::NAN; 4])).is_err());
        s.set_external_rx(Some(vec![1e-12; 4])).unwrap();
        assert_eq!(s.external_rx().unwrap().len(), 4);
        s.set_external_rx(None).unwrap();
        assert!(s.external_rx().is_none());
        s.set_external_rx(Some(vec![0.0; 4])).unwrap();
        assert!(s.external_rx().is_some());
        // take_external_rx hands the buffer back for reuse.
        s.set_external_rx(Some(vec![2e-12; 4])).unwrap();
        let taken = s.take_external_rx().unwrap();
        assert_eq!(taken, vec![2e-12; 4]);
        assert!(s.external_rx().is_none());
        assert!(s.take_external_rx().is_none());
    }

    #[test]
    fn subset_restricts_population_and_keeps_physics() {
        let s = distinct();
        let users = [UserId::new(2), UserId::new(0)];
        let servers = [ServerId::new(1)];
        let sub = s.subset(&users, &servers).unwrap();
        assert_eq!(sub.num_users(), 2);
        assert_eq!(sub.num_servers(), 1);
        assert_eq!(sub.num_subchannels(), 2);
        for (v, &old) in users.iter().enumerate() {
            let v = UserId::new(v);
            assert_eq!(sub.user(v), s.user(old));
            assert_eq!(sub.coefficients(v), s.coefficients(old));
            assert_eq!(sub.local_cost(v), s.local_cost(old));
            assert_eq!(
                sub.tx_powers_watts()[v.index()],
                s.tx_powers_watts()[old.index()]
            );
            for j in 0..2 {
                let j = mec_types::SubchannelId::new(j);
                assert_eq!(
                    sub.gains().gain(v, ServerId::new(0), j),
                    s.gains().gain(old, ServerId::new(1), j)
                );
            }
        }
        // The subset does not inherit an external-rx field.
        let mut parent = s.clone();
        parent.set_external_rx(Some(vec![1e-12; 4])).unwrap();
        assert!(parent
            .subset(&users, &servers)
            .unwrap()
            .external_rx()
            .is_none());
        // It does inherit the downlink, and the copied coefficients carry
        // the download cost bit for bit.
        let mut specs = s.users().to_vec();
        for (u, spec) in specs.iter_mut().enumerate() {
            spec.task = Task::with_output(
                spec.task.data(),
                spec.task.workload(),
                mec_types::Bits::new(2.0e5 * (u + 1) as f64),
            )
            .unwrap();
        }
        let downlinked = Scenario::new(
            specs,
            s.servers().to_vec(),
            *s.ofdma(),
            s.gains().clone(),
            s.noise(),
        )
        .unwrap()
        .with_downlink(BitsPerSecond::new(50.0e6))
        .unwrap();
        let sub = downlinked.subset(&users, &servers).unwrap();
        assert_eq!(sub.downlink(), downlinked.downlink());
        for (v, &old) in users.iter().enumerate() {
            let (copied, parent) = (
                sub.coefficients(UserId::new(v)),
                downlinked.coefficients(old),
            );
            assert!(parent.download_cost > 0.0);
            assert_eq!(
                copied.download_cost.to_bits(),
                parent.download_cost.to_bits()
            );
            assert_eq!(copied, parent);
        }
        // Degenerate and out-of-range subsets are rejected.
        assert!(s.subset(&[], &servers).is_err());
        assert!(s.subset(&users, &[]).is_err());
        assert!(s.subset(&[UserId::new(9)], &servers).is_err());
        assert!(s.subset(&users, &[ServerId::new(5)]).is_err());
    }

    #[test]
    fn nonpositive_noise_is_rejected() {
        let users = vec![UserSpec::paper_default_with_workload(Cycles::from_mega(1000.0)).unwrap()];
        let ofdma = OfdmaConfig::new(Hertz::from_mega(20.0), 1).unwrap();
        let g = ChannelGains::uniform(1, 1, 1, 1e-10).unwrap();
        assert!(Scenario::new(
            users,
            vec![ServerProfile::paper_default()],
            ofdma,
            g,
            Watts::new(0.0)
        )
        .is_err());
    }
}
