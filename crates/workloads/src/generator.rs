//! Seeded scenario generation from [`ExperimentParams`].

use crate::params::{ExperimentParams, PlacementModel};
use mec_radio::{ChannelModel, OfdmaConfig};
use mec_system::{Scenario, UserSpec};
use mec_topology::{place_users_hotspots, place_users_uniform, NetworkLayout};
use mec_types::{
    DbMilliwatts, Error, ProviderPreference, ServerId, ServerProfile, UserId, UserPreferences,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt that decorrelates an epoch driver's solver stream from its master
/// seed: the online engine, the mobility simulation and the service all
/// seed their annealing chain with `seed ^ CHAIN_STREAM`.
pub const CHAIN_STREAM: u64 = 0x5851_F42D_4C95_7F2D;

/// Salt that decorrelates a scenario's shadowing stream from its placement
/// stream: [`ScenarioGenerator::generate`] and generated scenario specs
/// place users from `seed` and draw shadowing from
/// `seed ^ SHADOWING_STREAM`.
pub const SHADOWING_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// Salt of a user-class mix's own stream: with two or more classes,
/// [`ScenarioGenerator::generate`] draws each user's class and β jitter
/// from `seed ^ CLASS_STREAM`.
const CLASS_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shadowing seed of epoch (or service batch) `epoch` under master
/// seed `seed`, shared by every driver that regenerates channels per
/// epoch so their redraws decorrelate the same way.
pub fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed.wrapping_add(1 + epoch)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Turns an [`ExperimentParams`] value into concrete [`Scenario`]s.
///
/// Each call to [`generate`](Self::generate) with a distinct seed draws a
/// fresh Monte-Carlo realization (user positions and shadowing); the same
/// seed always reproduces the same scenario bit-for-bit.
#[derive(Debug, Clone)]
pub struct ScenarioGenerator {
    params: ExperimentParams,
    /// Weighted user classes: `params` alone unless [`with_mix`](Self::with_mix)
    /// replaced it.
    classes: Vec<(f64, ExperimentParams)>,
}

impl ScenarioGenerator {
    /// Creates a generator for the given parameters.
    pub fn new(params: ExperimentParams) -> Self {
        Self {
            params,
            classes: vec![(1.0, params)],
        }
    }

    /// Draws users from a weighted mix of classes: each user takes class
    /// `i` with probability `weight_i / Σ weight`, and with it that
    /// class's task, device, β (and its jitter) and λ. Only those user
    /// fields of a class are read; the network, the placement and the
    /// user count stay the generator's. A mix of one class draws no
    /// class pick.
    pub fn with_mix(mut self, mix: Vec<(f64, ExperimentParams)>) -> Self {
        self.classes = mix;
        self
    }

    /// The network layout these parameters imply.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a degenerate geometry.
    pub fn layout(&self) -> Result<NetworkLayout, Error> {
        NetworkLayout::hexagonal(self.params.num_servers, self.params.inter_site_distance)
    }

    /// Generates the scenario realization for `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the parameters are invalid
    /// (zero users/servers/subchannels, non-positive physical quantities).
    pub fn generate(&self, seed: u64) -> Result<Scenario, Error> {
        self.generate_with_positions(seed)
            .map(|(scenario, _)| scenario)
    }

    /// As [`generate`](Self::generate), additionally returning the drawn
    /// user positions (for visualization and mobility tooling).
    ///
    /// # Errors
    ///
    /// See [`generate`](Self::generate).
    pub fn generate_with_positions(
        &self,
        seed: u64,
    ) -> Result<(Scenario, Vec<mec_topology::Point2>), Error> {
        let layout = self.layout()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = match self.params.placement {
            PlacementModel::Uniform => {
                place_users_uniform(&layout, self.params.num_users, &mut rng)
            }
            PlacementModel::Hotspots { clusters, spread_m } => {
                place_users_hotspots(&layout, self.params.num_users, clusters, spread_m, &mut rng)
            }
        };
        // Decorrelate the shadowing stream from the placement stream (both
        // are derived from `seed`).
        let scenario = self.generate_at(&positions, seed ^ SHADOWING_STREAM)?;
        Ok((scenario, positions))
    }

    /// Generates a scenario for *explicit* user positions (the mobility
    /// substrate moves users itself and regenerates channels per epoch).
    /// `seed` drives the shadowing realization (and, with a mix of two or
    /// more classes, the class stream `seed ^ SHADOWING_STREAM ^
    /// CLASS_STREAM`: the placement seed's class stream under
    /// [`generate`](Self::generate)).
    ///
    /// # Errors
    ///
    /// As [`generate`](Self::generate); additionally
    /// [`Error::DimensionMismatch`] if `positions` does not match the
    /// configured user count and [`Error::InvalidParameter`] for a class
    /// weight that is not positive and finite.
    pub fn generate_at(
        &self,
        positions: &[mec_topology::Point2],
        seed: u64,
    ) -> Result<Scenario, Error> {
        let p = &self.params;
        if p.num_users == 0 {
            return Err(Error::invalid("U", "need at least one user"));
        }
        if positions.len() != p.num_users {
            return Err(Error::DimensionMismatch {
                what: "positions vs users",
                expected: p.num_users,
                actual: positions.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);

        let layout = self.layout()?;
        let model = ChannelModel::paper_default().with_shadowing_db(p.shadowing_db);
        let gains = model.generate(&layout, positions, p.num_subchannels, &mut rng);

        let users = self.draw_users(&mut rng, seed ^ SHADOWING_STREAM ^ CLASS_STREAM)?;
        let servers = vec![ServerProfile::new(p.server_cpu)?; p.num_servers];
        let ofdma = OfdmaConfig::new(p.bandwidth, p.num_subchannels)?;

        let scenario = Scenario::new(
            users,
            servers,
            ofdma,
            gains,
            DbMilliwatts::new(p.noise.as_dbm()).to_watts(),
        )?;
        match p.downlink_rate {
            Some(rate) => scenario.with_downlink(rate),
            None => Ok(scenario),
        }
    }

    /// Draws every user's class, task, device, β and λ.
    ///
    /// One class continues `shadowing` past the gains for its β jitter; a
    /// mix draws class picks and jitter from `class_seed`. The two streams
    /// are history: scenario specs drew one-template populations through
    /// this generator and heterogeneous ones through a builder of their
    /// own, and each stream is kept so that no seeded scenario moves.
    fn draw_users(&self, shadowing: &mut StdRng, class_seed: u64) -> Result<Vec<UserSpec>, Error> {
        let classes = &self.classes;
        if classes.is_empty() || classes.iter().any(|&(w, _)| !(w.is_finite() && w > 0.0)) {
            return Err(Error::invalid(
                "mix",
                "need classes of positive, finite weight",
            ));
        }
        let built = classes
            .iter()
            .map(|(_, class)| class.task_and_device())
            .collect::<Result<Vec<_>, Error>>()?;
        let total_weight: f64 = classes.iter().map(|&(w, _)| w).sum();
        let mut class_rng = StdRng::seed_from_u64(class_seed);
        let rng = if classes.len() == 1 {
            shadowing
        } else {
            &mut class_rng
        };
        let mut users = Vec::with_capacity(self.params.num_users);
        for _ in 0..self.params.num_users {
            let i = if classes.len() == 1 {
                0
            } else {
                let mut pick = rng.gen::<f64>() * total_weight;
                classes
                    .iter()
                    .position(|&(w, _)| {
                        let hit = pick < w;
                        pick -= w;
                        hit
                    })
                    .unwrap_or(classes.len() - 1)
            };
            let class = &classes[i].1;
            let beta = if class.beta_time_spread > 0.0 {
                let lo = (class.beta_time - class.beta_time_spread).max(0.0);
                let hi = (class.beta_time + class.beta_time_spread).min(1.0);
                rng.gen_range(lo..=hi)
            } else {
                class.beta_time
            };
            let (task, device) = built[i];
            users.push(UserSpec {
                task,
                device,
                preferences: UserPreferences::new(beta)?,
                lambda: ProviderPreference::new(class.lambda)?,
            });
        }
        Ok(users)
    }

    /// As [`generate_at`](Self::generate_at), but restricted to the
    /// servers whose `servers_up` flag is true (e.g. during an injected
    /// outage). The *full* channel tensor is always drawn first and then
    /// masked, so the surviving servers' gains are bit-identical to the
    /// unmasked realization of the same seed — an outage changes which
    /// servers exist, never the physics of the ones that remain. With
    /// every flag true this returns the unmasked scenario unchanged.
    ///
    /// # Errors
    ///
    /// As [`generate_at`](Self::generate_at); additionally
    /// [`Error::DimensionMismatch`] if `servers_up` does not match the
    /// configured server count and [`Error::InvalidParameter`] if every
    /// server is down.
    pub fn generate_at_subset(
        &self,
        positions: &[mec_topology::Point2],
        seed: u64,
        servers_up: &[bool],
    ) -> Result<Scenario, Error> {
        if servers_up.len() != self.params.num_servers {
            return Err(Error::DimensionMismatch {
                what: "servers_up vs servers",
                expected: self.params.num_servers,
                actual: servers_up.len(),
            });
        }
        let full = self.generate_at(positions, seed)?;
        if servers_up.iter().all(|&up| up) {
            return Ok(full);
        }
        let up: Vec<ServerId> = servers_up
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(ServerId::new(i)))
            .collect();
        if up.is_empty() {
            return Err(Error::invalid("servers_up", "need at least one server up"));
        }
        let users: Vec<UserId> = full.user_ids().collect();
        full.subset(&users, &up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_system::Evaluator;

    #[test]
    fn generates_valid_paper_default_scenarios() {
        let generator = ScenarioGenerator::new(ExperimentParams::paper_default());
        let sc = generator.generate(0).unwrap();
        assert_eq!(sc.num_users(), 30);
        assert_eq!(sc.num_servers(), 9);
        assert_eq!(sc.num_subchannels(), 3);
        assert!((sc.noise().as_watts() - 1e-13).abs() < 1e-25);
        // Local cost of the default task: 1 Gcycle on 1 GHz = 1 s, 5 J.
        let lc = sc.local_cost(mec_types::UserId::new(0));
        assert!((lc.time.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_seed_reproduces_different_seed_varies() {
        let generator = ScenarioGenerator::new(ExperimentParams::small_network());
        let a = generator.generate(7).unwrap();
        let b = generator.generate(7).unwrap();
        let c = generator.generate(8).unwrap();
        assert_eq!(a.gains(), b.gains());
        assert_ne!(a.gains(), c.gains());
    }

    #[test]
    fn generated_scenarios_are_solvable() {
        let generator = ScenarioGenerator::new(ExperimentParams::small_network());
        let sc = generator.generate(1).unwrap();
        let x = mec_system::Assignment::all_local(&sc);
        assert_eq!(Evaluator::new(&sc).objective(&x), 0.0);
    }

    #[test]
    fn generate_with_positions_matches_generate() {
        let generator = ScenarioGenerator::new(ExperimentParams::small_network());
        let plain = generator.generate(9).unwrap();
        let (scenario, positions) = generator.generate_with_positions(9).unwrap();
        assert_eq!(scenario.gains(), plain.gains());
        assert_eq!(positions.len(), 6);
    }

    #[test]
    fn rejects_zero_users() {
        let generator = ScenarioGenerator::new(ExperimentParams::paper_default().with_users(0));
        assert!(generator.generate(0).is_err());
    }

    #[test]
    fn beta_spread_produces_heterogeneous_preferences() {
        let params = ExperimentParams::paper_default()
            .with_users(20)
            .with_beta_time(0.5)
            .with_beta_time_spread(0.4);
        let sc = ScenarioGenerator::new(params).generate(0).unwrap();
        let betas: Vec<f64> = sc
            .users()
            .iter()
            .map(|u| u.preferences.beta_time())
            .collect();
        let distinct = betas.iter().any(|b| (b - betas[0]).abs() > 1e-9);
        assert!(distinct, "spread should vary preferences");
        assert!(betas.iter().all(|b| (0.1..=0.9).contains(b)));
        // Zero spread stays homogeneous.
        let sc = ScenarioGenerator::new(params.with_beta_time_spread(0.0))
            .generate(0)
            .unwrap();
        assert!(sc.users().iter().all(|u| u.preferences.beta_time() == 0.5));
    }

    #[test]
    fn hotspot_placement_concentrates_load() {
        use mec_topology::NetworkLayout;
        let params = ExperimentParams::paper_default()
            .with_users(40)
            .with_hotspots(1, 60.0);
        let sc = ScenarioGenerator::new(params).generate(4).unwrap();
        // With one tight hotspot, one station dominates the best-server
        // choices.
        let layout =
            NetworkLayout::hexagonal(params.num_servers, params.inter_site_distance).unwrap();
        let _ = layout; // geometry checked implicitly via gains below
        let mut per_server = vec![0usize; sc.num_servers()];
        for u in sc.user_ids() {
            per_server[sc.gains().best_server(u).index()] += 1;
        }
        let max = per_server.iter().max().copied().unwrap();
        assert!(max >= 25, "expected a dominant cell, got {per_server:?}");
    }

    #[test]
    fn downlink_params_flow_into_the_scenario() {
        use mec_types::{Bits, BitsPerSecond};
        let params = ExperimentParams::paper_default()
            .with_users(4)
            .with_downlink(Bits::from_kilobytes(100.0), BitsPerSecond::new(50.0e6));
        let sc = ScenarioGenerator::new(params).generate(0).unwrap();
        assert_eq!(sc.downlink(), Some(BitsPerSecond::new(50.0e6)));
        assert!(sc.users().iter().all(|u| u.task.output().as_bits() > 0.0));
        // Coefficients carry a positive download cost.
        assert!(sc.coefficients(mec_types::UserId::new(0)).download_cost > 0.0);
    }

    #[test]
    fn subset_generation_masks_servers_and_keeps_survivor_gains() {
        use mec_types::{ServerId, SubchannelId, UserId};
        let generator = ScenarioGenerator::new(ExperimentParams::small_network());
        let (full, positions) = generator.generate_with_positions(11).unwrap();
        let shadow_seed = 11 ^ SHADOWING_STREAM;

        // All-true mask: bit-identical to the unmasked path.
        let same = generator
            .generate_at_subset(&positions, shadow_seed, &[true; 4])
            .unwrap();
        assert_eq!(same.gains(), full.gains());

        // Drop server 1: survivors keep their exact gain rows.
        let masked = generator
            .generate_at_subset(&positions, shadow_seed, &[true, false, true, true])
            .unwrap();
        assert_eq!(masked.num_servers(), 3);
        assert_eq!(masked.num_users(), full.num_users());
        let survivors = [0usize, 2, 3];
        for u in 0..full.num_users() {
            for (s_new, &s_full) in survivors.iter().enumerate() {
                for j in 0..full.num_subchannels() {
                    let a = masked.gains().gain(
                        UserId::new(u),
                        ServerId::new(s_new),
                        SubchannelId::new(j),
                    );
                    let b = full.gains().gain(
                        UserId::new(u),
                        ServerId::new(s_full),
                        SubchannelId::new(j),
                    );
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }

        // Degenerate masks are rejected.
        assert!(generator
            .generate_at_subset(&positions, shadow_seed, &[false; 4])
            .is_err());
        assert!(generator
            .generate_at_subset(&positions, shadow_seed, &[true; 3])
            .is_err());
    }

    #[test]
    fn a_mix_needs_classes_of_positive_finite_weight() {
        let params = ExperimentParams::small_network();
        for mix in [
            vec![],
            vec![(1.0, params), (0.0, params)],
            vec![(f64::NAN, params)],
        ] {
            let generator = ScenarioGenerator::new(params).with_mix(mix);
            assert!(generator.generate(0).is_err());
        }
    }

    #[test]
    fn shadowing_toggle_changes_gains() {
        let with = ScenarioGenerator::new(ExperimentParams::small_network())
            .generate(3)
            .unwrap();
        let without = ScenarioGenerator::new(ExperimentParams::small_network().without_shadowing())
            .generate(3)
            .unwrap();
        assert_ne!(with.gains(), without.gains());
    }
}
