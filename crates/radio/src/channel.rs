//! Channel-gain generation: the `h[u][s]` gain of every link.

use crate::pathloss::path_loss_db;
use crate::shadowing::Shadowing;
use mec_topology::{NetworkLayout, Point2};
use mec_types::{Decibels, Error, ServerId, SubchannelId, UserId};
use rand::Rng;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

/// The large-scale channel model used to generate gains.
///
/// Gain from user `u` to station `s` is `h = 10^(−(L(d_us) + X_us)/10)`
/// where `L` is the paper's log-distance path loss ([`path_loss_db`]) and
/// `X_us ~ N(0, σ_sh²)` in dB is drawn independently for every link.
/// Fast fading is averaged out over the long-term association timescale
/// (§III-A.2), so a link carries the same gain on every subchannel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    shadowing_stddev_db: f64,
}

impl ChannelModel {
    /// The paper's model: `140.7 + 36.7·log10(d_km)` path loss and 8 dB
    /// i.i.d. shadowing.
    pub fn paper_default() -> Self {
        Self {
            shadowing_stddev_db: mec_types::constants::SHADOWING_STDDEV_DB,
        }
    }

    /// Sets the shadowing standard deviation in dB.
    ///
    /// # Panics
    ///
    /// Panics if negative or non-finite.
    pub fn with_shadowing_db(mut self, stddev_db: f64) -> Self {
        assert!(stddev_db.is_finite() && stddev_db >= 0.0);
        self.shadowing_stddev_db = stddev_db;
        self
    }

    /// Generates the channel gains of `user_positions` against every
    /// station in `layout`, over `num_subchannels` subchannels, in the
    /// subchannel-shared layout: one value per link, drawn in user-major,
    /// station-minor order.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        layout: &NetworkLayout,
        user_positions: &[Point2],
        num_subchannels: usize,
        rng: &mut R,
    ) -> ChannelGains {
        let num_users = user_positions.len();
        let num_servers = layout.num_stations();
        let mut shadowing = Shadowing::new(self.shadowing_stddev_db);
        let mut gains = Vec::with_capacity(num_users * num_servers);
        for pos in user_positions {
            for station in layout.stations() {
                let loss_db = path_loss_db(pos.distance(*station));
                gains.push(Decibels::new(-(loss_db + shadowing.sample_db(rng))).to_linear());
            }
        }
        ChannelGains {
            num_users,
            num_servers,
            num_subchannels,
            shared: true,
            gains,
        }
    }
}

/// Linear channel gains `h[u][s][j]` in one of two layouts.
///
/// * **Dense** — one value per `(u, s, j)` at
///   `gains[(u·S + s)·N + j]`: built by [`ChannelGains::from_fn`] for
///   explicit gains that may differ by subchannel (explicit specs, legacy
///   JSON snapshots, tests).
/// * **Subchannel-shared** — one value per `(u, s)` at `gains[u·S + s]`,
///   identical across subchannels. This is exact for the paper's model
///   (fast fading averages out over the association timescale, §III-A.2),
///   is what [`ChannelModel::generate`] builds, and cuts storage by `N×`,
///   which is what lets U=100k–1M metro instances fit in memory.
///
/// Built once per scenario; lookups during search are branch-free
/// multiplies into a flat buffer plus one well-predicted layout branch.
/// Equality is *logical*: two tensors compare equal iff every
/// `h[u][s][j]` matches, regardless of representation.
#[derive(Debug, Clone, Serialize)]
pub struct ChannelGains {
    num_users: usize,
    num_servers: usize,
    num_subchannels: usize,
    /// True for the subchannel-shared layout.
    shared: bool,
    gains: Vec<f64>,
}

/// The serialized form of [`ChannelGains`]. Loading goes through it so
/// that a tensor whose length does not match its dimensions, or that
/// holds a negative or non-finite gain, is rejected rather than trusted.
#[derive(Deserialize)]
struct GainsRepr {
    num_users: usize,
    num_servers: usize,
    num_subchannels: usize,
    /// Serialized tensors from before this field existed were always
    /// dense, hence the default.
    #[serde(default)]
    shared: bool,
    gains: Vec<f64>,
}

impl<'de> Deserialize<'de> for ChannelGains {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = GainsRepr::deserialize(deserializer)?;
        let invalid = |what: String| D::Error::custom(format!("invalid channel gains: {what}"));
        // Saturating: no tensor can hold `usize::MAX` values, so an
        // overflowing geometry is rejected as a length mismatch.
        let links = repr.num_users.saturating_mul(repr.num_servers);
        let (expected, per_link) = if repr.shared {
            (links, String::new())
        } else {
            (
                links.saturating_mul(repr.num_subchannels),
                format!(" x {} subchannels", repr.num_subchannels),
            )
        };
        if repr.gains.len() != expected {
            return Err(invalid(format!(
                "{} values for {links} links{per_link}",
                repr.gains.len()
            )));
        }
        if let Some((i, g)) = repr
            .gains
            .iter()
            .enumerate()
            .find(|(_, g)| !g.is_finite() || **g < 0.0)
        {
            return Err(invalid(format!(
                "gain {i} must be finite and >= 0, got {g}"
            )));
        }
        Ok(Self {
            num_users: repr.num_users,
            num_servers: repr.num_servers,
            num_subchannels: repr.num_subchannels,
            shared: repr.shared,
            gains: repr.gains,
        })
    }
}

impl PartialEq for ChannelGains {
    fn eq(&self, other: &Self) -> bool {
        if self.num_users != other.num_users
            || self.num_servers != other.num_servers
            || self.num_subchannels != other.num_subchannels
        {
            return false;
        }
        if self.shared == other.shared {
            return self.gains == other.gains;
        }
        // Mixed representations: a shared tensor equals a dense one iff
        // every subchannel of the dense tensor repeats the shared value.
        let (sh, dn) = if self.shared {
            (self, other)
        } else {
            (other, self)
        };
        (0..self.num_users * self.num_servers).all(|base| {
            let v = sh.gains[base];
            dn.gains[base * self.num_subchannels..(base + 1) * self.num_subchannels]
                .iter()
                .all(|&g| g == v)
        })
    }
}

impl ChannelGains {
    /// Builds a gain tensor from an explicit function of `(u, s, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if any produced gain is
    /// negative or non-finite.
    pub fn from_fn<F>(
        num_users: usize,
        num_servers: usize,
        num_subchannels: usize,
        mut f: F,
    ) -> Result<Self, Error>
    where
        F: FnMut(UserId, ServerId, SubchannelId) -> f64,
    {
        let mut gains = Vec::with_capacity(num_users * num_servers * num_subchannels);
        for u in 0..num_users {
            for s in 0..num_servers {
                for j in 0..num_subchannels {
                    let g = f(UserId::new(u), ServerId::new(s), SubchannelId::new(j));
                    if !g.is_finite() || g < 0.0 {
                        return Err(Error::invalid(
                            "h_us_j",
                            format!("gain for (u{u}, s{s}, j{j}) must be finite and >= 0, got {g}"),
                        ));
                    }
                    gains.push(g);
                }
            }
        }
        Ok(Self {
            num_users,
            num_servers,
            num_subchannels,
            shared: false,
            gains,
        })
    }

    /// Builds a *subchannel-shared* tensor from a function of `(u, s)`:
    /// every subchannel of a link carries the same gain, stored once.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if any produced gain is
    /// negative or non-finite.
    pub fn shared_from_fn<F>(
        num_users: usize,
        num_servers: usize,
        num_subchannels: usize,
        mut f: F,
    ) -> Result<Self, Error>
    where
        F: FnMut(UserId, ServerId) -> f64,
    {
        let mut gains = Vec::with_capacity(num_users * num_servers);
        for u in 0..num_users {
            for s in 0..num_servers {
                let g = f(UserId::new(u), ServerId::new(s));
                if !g.is_finite() || g < 0.0 {
                    return Err(Error::invalid(
                        "h_us",
                        format!("gain for (u{u}, s{s}) must be finite and >= 0, got {g}"),
                    ));
                }
                gains.push(g);
            }
        }
        Ok(Self {
            num_users,
            num_servers,
            num_subchannels,
            shared: true,
            gains,
        })
    }

    /// A tensor with the same gain on every link (useful in tests).
    pub fn uniform(
        num_users: usize,
        num_servers: usize,
        num_subchannels: usize,
        gain: f64,
    ) -> Result<Self, Error> {
        Self::from_fn(num_users, num_servers, num_subchannels, |_, _, _| gain)
    }

    /// Whether this tensor uses the subchannel-shared layout (gains
    /// identical across subchannels, stored once per link).
    #[inline]
    pub fn is_subchannel_shared(&self) -> bool {
        self.shared
    }

    /// Extracts the sub-tensor for the given users and servers,
    /// preserving the storage layout. New user `v` is old `users[v]` and
    /// new server `t` is old `servers[t]`; indices may repeat.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEntity`] for any out-of-range id.
    pub fn subset(&self, users: &[UserId], servers: &[ServerId]) -> Result<Self, Error> {
        for &u in users {
            if u.index() >= self.num_users {
                return Err(Error::UnknownEntity {
                    kind: "user",
                    index: u.index(),
                    count: self.num_users,
                });
            }
        }
        for &s in servers {
            if s.index() >= self.num_servers {
                return Err(Error::UnknownEntity {
                    kind: "server",
                    index: s.index(),
                    count: self.num_servers,
                });
            }
        }
        let values_per_link = if self.shared { 1 } else { self.num_subchannels };
        let mut gains = Vec::with_capacity(users.len() * servers.len() * values_per_link);
        for &u in users {
            for &s in servers {
                let base = (u.index() * self.num_servers + s.index()) * values_per_link;
                gains.extend_from_slice(&self.gains[base..base + values_per_link]);
            }
        }
        Ok(Self {
            num_users: users.len(),
            num_servers: servers.len(),
            num_subchannels: self.num_subchannels,
            shared: self.shared,
            gains,
        })
    }

    /// Number of users in the tensor.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of servers in the tensor.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Number of subchannels in the tensor.
    #[inline]
    pub fn num_subchannels(&self) -> usize {
        self.num_subchannels
    }

    /// The linear gain `h[u][s][j]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[inline]
    pub fn gain(&self, u: UserId, s: ServerId, j: SubchannelId) -> f64 {
        assert!(
            u.index() < self.num_users
                && s.index() < self.num_servers
                && j.index() < self.num_subchannels,
            "channel gain index out of range"
        );
        let base = u.index() * self.num_servers + s.index();
        if self.shared {
            self.gains[base]
        } else {
            self.gains[base * self.num_subchannels + j.index()]
        }
    }

    /// Percentiles of the per-user *best-server* gain in dB — a quick
    /// health check of a scenario's radio conditions (`q` in `[0, 1]`,
    /// nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or the tensor has no users.
    pub fn best_gain_percentile_db(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile must lie in [0, 1]");
        assert!(self.num_users > 0, "no users in the tensor");
        let mut best: Vec<f64> = (0..self.num_users)
            .map(|u| {
                let u = UserId::new(u);
                let s = self.best_server(u);
                10.0 * self.gain(u, s, SubchannelId::new(0)).log10()
            })
            .collect();
        best.sort_by(|a, b| a.partial_cmp(b).expect("gains are finite"));
        let rank = ((q * (best.len() - 1) as f64).round() as usize).min(best.len() - 1);
        best[rank]
    }

    /// The strongest server for a user, judged by subchannel-0 gain
    /// (gains are identical across subchannels in the paper's model).
    /// The first maximum wins, so ties go to the lowest server index.
    ///
    /// # Panics
    ///
    /// Panics if the user id is out of range.
    pub fn best_server(&self, u: UserId) -> ServerId {
        assert!(
            u.index() < self.num_users,
            "channel gain index out of range"
        );
        // The user's row holds its links in server order, each link's
        // `values_per_link` gains starting with subchannel 0.
        let values_per_link = if self.shared { 1 } else { self.num_subchannels };
        let row = &self.gains[u.index() * self.num_servers * values_per_link..]
            [..self.num_servers * values_per_link];
        let mut best = 0usize;
        let mut best_g = f64::NEG_INFINITY;
        for (s, &g) in row.iter().step_by(values_per_link).enumerate() {
            if g > best_g {
                best_g = g;
                best = s;
            }
        }
        ServerId::new(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_types::constants;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout() -> NetworkLayout {
        NetworkLayout::hexagonal(9, constants::INTER_SITE_DISTANCE).unwrap()
    }

    #[test]
    fn deterministic_gain_matches_hand_computation() {
        let l = layout();
        let users = vec![Point2::new(100.0, 0.0)];
        let mut rng = StdRng::seed_from_u64(0);
        let g = ChannelModel::paper_default()
            .with_shadowing_db(0.0)
            .generate(&l, &users, 2, &mut rng);
        // d = 100 m = 0.1 km → L = 140.7 − 36.7 = 104.0 dB → h = 10^−10.4.
        let expected = 10.0_f64.powf(-10.4);
        let got = g.gain(UserId::new(0), ServerId::new(0), SubchannelId::new(0));
        assert!((got / expected - 1.0).abs() < 1e-9, "got {got}");
        // Identical across subchannels.
        assert_eq!(
            got,
            g.gain(UserId::new(0), ServerId::new(0), SubchannelId::new(1))
        );
    }

    #[test]
    fn paper_shadowing_is_8_db() {
        assert_eq!(
            ChannelModel::paper_default(),
            ChannelModel::paper_default().with_shadowing_db(8.0)
        );
    }

    #[test]
    fn closer_station_has_larger_gain_without_shadowing() {
        let l = layout();
        // A user near station 0.
        let users = vec![Point2::new(50.0, 0.0)];
        let mut rng = StdRng::seed_from_u64(0);
        let g = ChannelModel::paper_default()
            .with_shadowing_db(0.0)
            .generate(&l, &users, 1, &mut rng);
        let g0 = g.gain(UserId::new(0), ServerId::new(0), SubchannelId::new(0));
        for s in 1..9 {
            assert!(g0 > g.gain(UserId::new(0), ServerId::new(s), SubchannelId::new(0)));
        }
        assert_eq!(g.best_server(UserId::new(0)), ServerId::new(0));
    }

    #[test]
    fn shadowing_perturbs_gains_but_preserves_shape() {
        let l = layout();
        let users = vec![Point2::new(200.0, 100.0); 4];
        let mut rng = StdRng::seed_from_u64(7);
        let shadowed = ChannelModel::paper_default().generate(&l, &users, 1, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(7);
        let clean = ChannelModel::paper_default()
            .with_shadowing_db(0.0)
            .generate(&l, &users, 1, &mut rng2);
        // Same positions: identical deterministic part, different realizations.
        assert_eq!(shadowed.num_users(), clean.num_users());
        let a = shadowed.gain(UserId::new(0), ServerId::new(0), SubchannelId::new(0));
        let b = clean.gain(UserId::new(0), ServerId::new(0), SubchannelId::new(0));
        assert_ne!(a, b);
        assert!(a > 0.0 && a.is_finite());
    }

    #[test]
    fn from_fn_validates_gains() {
        assert!(ChannelGains::from_fn(1, 1, 1, |_, _, _| -1.0).is_err());
        assert!(ChannelGains::from_fn(1, 1, 1, |_, _, _| f64::NAN).is_err());
        let g = ChannelGains::from_fn(2, 3, 4, |u, s, j| {
            (u.index() * 100 + s.index() * 10 + j.index()) as f64
        })
        .unwrap();
        assert_eq!(
            g.gain(UserId::new(1), ServerId::new(2), SubchannelId::new(3)),
            123.0
        );
    }

    #[test]
    fn uniform_constructor() {
        let g = ChannelGains::uniform(3, 2, 2, 0.5).unwrap();
        for u in 0..3 {
            for s in 0..2 {
                for j in 0..2 {
                    assert_eq!(
                        g.gain(UserId::new(u), ServerId::new(s), SubchannelId::new(j)),
                        0.5
                    );
                }
            }
        }
    }

    #[test]
    fn best_gain_percentiles_are_ordered() {
        let l = layout();
        let users: Vec<Point2> = (0..20)
            .map(|i| Point2::new(50.0 * i as f64, 25.0 * i as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let g = ChannelModel::paper_default().generate(&l, &users, 2, &mut rng);
        let p10 = g.best_gain_percentile_db(0.1);
        let p50 = g.best_gain_percentile_db(0.5);
        let p90 = g.best_gain_percentile_db(0.9);
        assert!(p10 <= p50 && p50 <= p90);
        assert!(p50 < 0.0, "gains are far below 0 dB");
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_panics() {
        let g = ChannelGains::uniform(1, 1, 1, 1.0).unwrap();
        let _ = g.best_gain_percentile_db(1.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gain_panics_out_of_range() {
        let g = ChannelGains::uniform(1, 1, 1, 1.0).unwrap();
        let _ = g.gain(UserId::new(1), ServerId::new(0), SubchannelId::new(0));
    }

    #[test]
    fn generation_uses_shared_layout() {
        let l = layout();
        let users: Vec<Point2> = (0..5).map(|i| Point2::new(40.0 * i as f64, 10.0)).collect();
        let mut rng = StdRng::seed_from_u64(13);
        let g = ChannelModel::paper_default().generate(&l, &users, 3, &mut rng);
        assert!(g.is_subchannel_shared());
        assert_eq!(g.gains.len(), 5 * 9, "one value per (user, server) link");
        // Logically identical across subchannels.
        for u in 0..5 {
            for s in 0..9 {
                let g0 = g.gain(UserId::new(u), ServerId::new(s), SubchannelId::new(0));
                for j in 1..3 {
                    assert_eq!(
                        g0,
                        g.gain(UserId::new(u), ServerId::new(s), SubchannelId::new(j))
                    );
                }
            }
        }
    }

    #[test]
    fn shared_and_dense_representations_compare_logically() {
        let f = |u: UserId, s: ServerId| (1 + u.index() * 10 + s.index()) as f64;
        let shared = ChannelGains::shared_from_fn(3, 2, 4, f).unwrap();
        let dense = ChannelGains::from_fn(3, 2, 4, |u, s, _| f(u, s)).unwrap();
        assert!(shared.is_subchannel_shared());
        assert!(!dense.is_subchannel_shared());
        assert_eq!(shared, dense);
        assert_eq!(dense, shared);
        // A dense tensor that varies by subchannel differs from any
        // shared tensor.
        let varied = ChannelGains::from_fn(3, 2, 4, |u, s, j| f(u, s) + j.index() as f64).unwrap();
        assert_ne!(shared, varied);
        // `best_server` judges subchannel 0 on either layout, and the first
        // maximum wins: servers 1 and 3 tie, so every user gets server 1.
        let tied = |_: UserId, s: ServerId| if s.index() % 2 == 1 { 2.0 } else { 1.0 };
        let shared_tied = ChannelGains::shared_from_fn(3, 4, 2, tied).unwrap();
        let dense_tied = ChannelGains::from_fn(3, 4, 2, |u, s, j| {
            if j.index() == 1 && s.index() == 0 {
                100.0
            } else {
                tied(u, s)
            }
        })
        .unwrap();
        for u in (0..3).map(UserId::new) {
            assert_eq!(shared_tied.best_server(u), ServerId::new(1));
            assert_eq!(dense_tied.best_server(u), ServerId::new(1));
        }
        // And shared_from_fn validates like from_fn.
        assert!(ChannelGains::shared_from_fn(1, 1, 1, |_, _| -1.0).is_err());
        assert!(ChannelGains::shared_from_fn(1, 1, 1, |_, _| f64::NAN).is_err());
    }

    #[test]
    fn subset_preserves_layout_and_values() {
        let dense = ChannelGains::from_fn(4, 3, 2, |u, s, j| {
            (1 + u.index() * 100 + s.index() * 10 + j.index()) as f64
        })
        .unwrap();
        let shared = ChannelGains::shared_from_fn(4, 3, 2, |u, s| {
            (1 + u.index() * 100 + s.index() * 10) as f64
        })
        .unwrap();
        let users = [UserId::new(3), UserId::new(1)];
        let servers = [ServerId::new(2), ServerId::new(0)];
        for g in [&dense, &shared] {
            let sub = g.subset(&users, &servers).unwrap();
            assert_eq!(sub.is_subchannel_shared(), g.is_subchannel_shared());
            assert_eq!(sub.num_users(), 2);
            assert_eq!(sub.num_servers(), 2);
            assert_eq!(sub.num_subchannels(), 2);
            for (v, &u) in users.iter().enumerate() {
                for (t, &s) in servers.iter().enumerate() {
                    for j in 0..2 {
                        let j = SubchannelId::new(j);
                        assert_eq!(
                            sub.gain(UserId::new(v), ServerId::new(t), j),
                            g.gain(u, s, j)
                        );
                    }
                }
            }
        }
        // Out-of-range ids are rejected.
        assert!(dense.subset(&[UserId::new(4)], &servers).is_err());
        assert!(dense.subset(&users, &[ServerId::new(3)]).is_err());
    }

    #[test]
    fn a_truncated_tensor_fails_to_load() {
        let shared =
            r#"{"num_users":1,"num_servers":2,"num_subchannels":3,"shared":true,"gains":[1.0]}"#;
        let err = serde_json::from_str::<ChannelGains>(shared).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid channel gains: 1 values for 2 links"
        );
        // A dense tensor, the layout of files written before `shared`
        // existed, holds one value per subchannel of every link.
        let dense = |gains: &str| {
            format!(r#"{{"num_users":1,"num_servers":2,"num_subchannels":3,"gains":[{gains}]}}"#)
        };
        let err = serde_json::from_str::<ChannelGains>(&dense("1.0,2.0")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid channel gains: 2 values for 2 links x 3 subchannels"
        );
        let full: ChannelGains = serde_json::from_str(&dense("1.0,2.0,3.0,4.0,5.0,6.0")).unwrap();
        assert!(!full.is_subchannel_shared());
    }

    #[test]
    fn a_negative_gain_fails_to_load() {
        let json = r#"{"num_users":1,"num_servers":2,"num_subchannels":3,"shared":true,"gains":[1.0,-1.0]}"#;
        let err = serde_json::from_str::<ChannelGains>(json).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid channel gains: gain 1 must be finite and >= 0, got -1"
        );
    }
}
