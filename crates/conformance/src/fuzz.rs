//! Seeded generation of small random problem instances and decisions.
//!
//! Everything here is a pure function of its seed: the same `(config,
//! seed)` pair always produces the same scenario, assignment or move
//! sequence, so a failing verdict can be replayed bit-for-bit from the
//! seed printed in its report.

use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::{Assignment, MoveDesc, Scenario, UserSpec};
use mec_types::{
    Bits, Cycles, DeviceProfile, Hertz, ProviderPreference, ServerId, ServerProfile, SubchannelId,
    Task, UserId, UserPreferences, Watts,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size and shape ranges for fuzzed scenarios. All ranges are inclusive
/// `(lo, hi)` bounds; keep `(S·N + 1)^U` small enough for exhaustive
/// search, since the differential driver solves every instance exactly.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// User count range.
    pub users: (usize, usize),
    /// Server count range.
    pub servers: (usize, usize),
    /// Subchannel count range.
    pub subchannels: (usize, usize),
    /// Probability that [`assignment`] tries to offload each user.
    pub offload_probability: f64,
}

impl FuzzConfig {
    /// Small instances for the fast tier-1 smoke sweep
    /// (worst case `(3·2+1)^5 ≈ 1.7·10⁴` leaves).
    pub fn smoke() -> Self {
        Self {
            users: (2, 5),
            servers: (2, 3),
            subchannels: (1, 2),
            offload_probability: 0.6,
        }
    }

    /// Larger instances for the nightly deep sweep
    /// (worst case `(4·2+1)^6 ≈ 5.3·10⁵` leaves, the Fig. 3 scale).
    pub fn deep() -> Self {
        Self {
            users: (3, 6),
            servers: (2, 4),
            subchannels: (1, 2),
            offload_probability: 0.6,
        }
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self::smoke()
    }
}

fn range(rng: &mut StdRng, (lo, hi): (usize, usize)) -> usize {
    rng.gen_range(lo..hi + 1)
}

/// Generates a random, validated scenario: heterogeneous tasks,
/// preferences and priorities over log-uniform channel gains, stored
/// subchannel-shared for an odd `seed` and dense for an even one.
///
/// # Panics
///
/// Panics if the configured ranges are empty or produce invalid model
/// parameters — a misconfigured harness, not a property under test.
pub fn scenario(config: &FuzzConfig, seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_users = range(&mut rng, config.users);
    let num_servers = range(&mut rng, config.servers);
    let num_subchannels = range(&mut rng, config.subchannels);
    let users: Vec<UserSpec> = (0..num_users)
        .map(|_| UserSpec {
            task: Task::new(
                Bits::from_kilobytes(rng.gen_range(100.0..500.0)),
                Cycles::from_mega(rng.gen_range(500.0..3000.0)),
            )
            .expect("fuzzed task parameters are positive"),
            device: DeviceProfile::paper_default(),
            // Keep β_time strictly positive so every user has η > 0 and
            // the KKT square-root rule is exercised on every server.
            preferences: UserPreferences::new(rng.gen_range(0.1..0.9))
                .expect("fuzzed beta_time is in [0, 1]"),
            lambda: ProviderPreference::new(rng.gen_range(0.2..1.0))
                .expect("fuzzed lambda is in (0, 1]"),
        })
        .collect();
    // Odd seeds draw the subchannel-shared layout that every generated
    // scenario uses, even seeds dense per-subchannel gains. The layout is
    // read off the seed rather than drawn, so it consumes no random draw.
    let mut gain = || 10.0_f64.powf(rng.gen_range(-12.0..-9.0));
    let gains = if seed % 2 == 1 {
        ChannelGains::shared_from_fn(num_users, num_servers, num_subchannels, |_, _| gain())
    } else {
        ChannelGains::from_fn(num_users, num_servers, num_subchannels, |_, _, _| gain())
    }
    .expect("fuzzed gains are positive and finite");
    Scenario::new(
        users,
        vec![ServerProfile::paper_default(); num_servers],
        OfdmaConfig::new(Hertz::from_mega(20.0), num_subchannels)
            .expect("fuzzed band plan is valid"),
        gains,
        Watts::new(1e-13),
    )
    .expect("fuzzed scenario dimensions are consistent")
}

/// Generates a random feasible assignment for a scenario: each user
/// independently tries (with `probability`) to grab a free slot on a
/// random server, and stays local when its chosen server is full.
pub fn assignment(scenario: &Scenario, probability: f64, seed: u64) -> Assignment {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Assignment::all_local(scenario);
    for u in scenario.user_ids() {
        if rng.gen_bool(probability) {
            let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
            if let Some(j) = x.free_subchannel(s) {
                x.assign(u, s, j).expect("free slot was just checked");
            }
        }
    }
    x
}

/// Draws one random structured move against the current assignment:
/// relocations to local or to a free slot, evictions, and swaps — the
/// same move families the TTSA neighborhood kernel uses.
pub fn random_move(x: &Assignment, scenario: &Scenario, rng: &mut StdRng) -> MoveDesc {
    let u = UserId::new(rng.gen_range(0..scenario.num_users()));
    match rng.gen_range(0..4u32) {
        0 => MoveDesc::relocate(x, u, None),
        1 => {
            let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
            let j = SubchannelId::new(rng.gen_range(0..scenario.num_subchannels()));
            MoveDesc::relocate_evicting(x, u, s, j)
        }
        2 => {
            let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
            match x.free_subchannel(s) {
                Some(j) => MoveDesc::relocate(x, u, Some((s, j))),
                None => MoveDesc::relocate(x, u, None),
            }
        }
        _ => {
            let v = UserId::new(rng.gen_range(0..scenario.num_users()));
            MoveDesc::swap(x, u, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let cfg = FuzzConfig::smoke();
        for seed in 0..20 {
            let a = scenario(&cfg, seed);
            let b = scenario(&cfg, seed);
            assert_eq!(a.num_users(), b.num_users());
            assert_eq!(a.num_servers(), b.num_servers());
            assert_eq!(a.num_subchannels(), b.num_subchannels());
            for u in a.user_ids() {
                assert_eq!(a.user(u), b.user(u));
                for s in a.server_ids() {
                    for j in 0..a.num_subchannels() {
                        let j = SubchannelId::new(j);
                        assert_eq!(a.gains().gain(u, s, j), b.gains().gain(u, s, j));
                    }
                }
            }
            assert_eq!(assignment(&a, 0.6, seed), assignment(&b, 0.6, seed));
        }
    }

    #[test]
    fn odd_seeds_share_gains_across_subchannels() {
        let cfg = FuzzConfig::smoke();
        for seed in 0..20 {
            let sc = scenario(&cfg, seed);
            assert_eq!(
                sc.gains().is_subchannel_shared(),
                seed % 2 == 1,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sizes_stay_inside_the_configured_ranges() {
        let cfg = FuzzConfig::smoke();
        for seed in 0..50 {
            let sc = scenario(&cfg, seed);
            assert!((cfg.users.0..=cfg.users.1).contains(&sc.num_users()));
            assert!((cfg.servers.0..=cfg.servers.1).contains(&sc.num_servers()));
            assert!((cfg.subchannels.0..=cfg.subchannels.1).contains(&sc.num_subchannels()));
        }
    }

    #[test]
    fn fuzzed_assignments_are_feasible() {
        let cfg = FuzzConfig::smoke();
        for seed in 0..50 {
            let sc = scenario(&cfg, seed);
            assignment(&sc, cfg.offload_probability, seed)
                .verify_feasible(&sc)
                .unwrap();
        }
    }

    #[test]
    fn random_moves_stay_applicable() {
        let cfg = FuzzConfig::smoke();
        let sc = scenario(&cfg, 3);
        let mut x = assignment(&sc, cfg.offload_probability, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let mv = random_move(&x, &sc, &mut rng);
            mv.apply_to(&mut x).unwrap();
            x.verify_feasible(&sc).unwrap();
        }
    }
}
