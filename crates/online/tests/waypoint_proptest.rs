//! Property tests for the random-waypoint mobility model.

use mec_online::RandomWaypoint;
use mec_topology::NetworkLayout;
use mec_types::{Meters, Seconds};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every user stays inside coverage for any walk, and every step is
    /// bounded by speed × dt.
    #[test]
    fn walks_respect_coverage_and_speed_limits(
        cells in 1usize..12,
        users in 1usize..25,
        vmin in 0.0f64..10.0,
        spread in 0.0f64..20.0,
        dt in 0.1f64..60.0,
        seed in 0u64..500,
    ) {
        let layout = NetworkLayout::hexagonal(cells, Meters::new(1000.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = RandomWaypoint::new(&layout, users, (vmin, vmin + spread), &mut rng);
        for _ in 0..15 {
            let before = model.positions().to_vec();
            model.step(&layout, Seconds::new(dt), &mut rng);
            for ((after, prev), speed) in
                model.positions().iter().zip(&before).zip(model.speeds())
            {
                prop_assert!(layout.contains(*after));
                prop_assert!(
                    after.distance(*prev).as_meters() <= speed * dt + 1e-6,
                    "step exceeded speed limit"
                );
            }
        }
    }

    /// Speeds are drawn inside the configured interval.
    #[test]
    fn speeds_stay_in_range(
        vmin in 0.0f64..30.0,
        spread in 0.0f64..30.0,
        seed in 0u64..200,
    ) {
        let layout = NetworkLayout::hexagonal(4, Meters::new(1000.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = RandomWaypoint::new(&layout, 12, (vmin, vmin + spread), &mut rng);
        for v in model.speeds() {
            prop_assert!((vmin..=vmin + spread + 1e-12).contains(v));
        }
    }
}
