//! Property tests for the wireless substrate.

use mec_radio::{
    compute_sinrs, path_loss_db, shannon_rate, ChannelGains, ChannelModel, OfdmaConfig,
    Transmission,
};
use mec_topology::{NetworkLayout, Point2};
use mec_types::{Hertz, Meters, ServerId, SubchannelId, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_transmissions(users: usize, servers: usize, subs: usize, seed: u64) -> Vec<Transmission> {
    // A feasible transmission set: at most one user per (server, subchannel).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used = std::collections::HashSet::new();
    let mut txs = Vec::new();
    for u in 0..users {
        if rng.gen_bool(0.7) {
            let s = rng.gen_range(0..servers);
            let j = rng.gen_range(0..subs);
            if used.insert((s, j)) {
                txs.push(Transmission::new(
                    UserId::new(u),
                    ServerId::new(s),
                    SubchannelId::new(j),
                ));
            }
        }
    }
    txs
}

proptest! {
    #[test]
    fn path_loss_is_monotone_nondecreasing(d1 in 1.0f64..50_000.0, d2 in 1.0f64..50_000.0) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(path_loss_db(Meters::new(near)) <= path_loss_db(Meters::new(far)) + 1e-12);
    }

    #[test]
    fn shannon_rate_is_monotone_and_nonnegative(
        sinr1 in 0.0f64..1e6,
        sinr2 in 0.0f64..1e6,
        width_mhz in 0.01f64..100.0,
    ) {
        let w = Hertz::from_mega(width_mhz);
        let (lo, hi) = if sinr1 <= sinr2 { (sinr1, sinr2) } else { (sinr2, sinr1) };
        let r_lo = shannon_rate(w, lo);
        let r_hi = shannon_rate(w, hi);
        prop_assert!(r_lo.as_bps() >= 0.0);
        prop_assert!(r_lo.as_bps() <= r_hi.as_bps() + 1e-9);
    }

    #[test]
    fn sinrs_are_positive_and_bounded_by_snr(
        seed in 0u64..500,
        users in 2usize..10,
        servers in 1usize..4,
        subs in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = ChannelGains::from_fn(users, servers, subs, |_, _, _| {
            10.0_f64.powf(rng.gen_range(-14.0..-9.0))
        }).unwrap();
        let powers = vec![0.01; users];
        let noise = 1e-13;
        let txs = arb_transmissions(users, servers, subs, seed);
        let sinrs = compute_sinrs(&gains, &powers, noise, &txs);
        for (t, sinr) in txs.iter().zip(&sinrs) {
            prop_assert!(*sinr > 0.0);
            // Interference can only lower the SINR below the pure SNR.
            let snr = 0.01 * gains.gain(t.user, t.server, t.subchannel) / noise;
            prop_assert!(*sinr <= snr * (1.0 + 1e-12));
        }
    }

    #[test]
    fn adding_a_transmission_never_helps_anyone(
        seed in 0u64..500,
    ) {
        // Monotonicity of interference: appending one more co-channel
        // transmitter can only lower (or keep) everyone else's SINR.
        let users = 6usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = ChannelGains::from_fn(users, 3, 2, |_, _, _| {
            10.0_f64.powf(rng.gen_range(-13.0..-9.0))
        }).unwrap();
        let powers = vec![0.01; users];
        let mut txs = arb_transmissions(users - 1, 3, 2, seed);
        let before = compute_sinrs(&gains, &powers, 1e-13, &txs);
        // Add the last user on some slot not yet used.
        let mut slot = None;
        'outer: for s in 0..3 {
            for j in 0..2 {
                if !txs.iter().any(|t| t.server.index() == s && t.subchannel.index() == j) {
                    slot = Some((s, j));
                    break 'outer;
                }
            }
        }
        if let Some((s, j)) = slot {
            txs.push(Transmission::new(
                UserId::new(users - 1),
                ServerId::new(s),
                SubchannelId::new(j),
            ));
            let after = compute_sinrs(&gains, &powers, 1e-13, &txs);
            for (b, a) in before.iter().zip(after.iter()) {
                prop_assert!(*a <= b * (1.0 + 1e-12), "SINR improved: {b} -> {a}");
            }
        }
    }

    #[test]
    fn generated_gains_are_positive_and_deterministic(
        seed in 0u64..200,
        users in 1usize..20,
        subs in 1usize..5,
    ) {
        let layout = NetworkLayout::hexagonal(4, Meters::new(1000.0)).unwrap();
        let positions: Vec<Point2> = {
            let mut rng = StdRng::seed_from_u64(seed);
            mec_topology::place_users_uniform(&layout, users, &mut rng)
        };
        let gen = |s: u64| {
            let mut rng = StdRng::seed_from_u64(s);
            ChannelModel::paper_default().generate(&layout, &positions, subs, &mut rng)
        };
        let a = gen(seed);
        let b = gen(seed);
        prop_assert_eq!(&a, &b);
        for u in 0..users {
            for s in 0..4 {
                for j in 0..subs {
                    let g = a.gain(UserId::new(u), ServerId::new(s), SubchannelId::new(j));
                    prop_assert!(g > 0.0 && g.is_finite());
                }
            }
        }
    }

    #[test]
    fn ofdma_width_partition(n in 1usize..200, mhz in 0.1f64..1000.0) {
        let c = OfdmaConfig::new(Hertz::from_mega(mhz), n).unwrap();
        let total = c.subchannel_width().as_hz() * n as f64;
        prop_assert!((total - mhz * 1e6).abs() < 1e-6 * mhz * 1e6);
    }
}
