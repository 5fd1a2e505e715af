//! Distance-dependent path loss.

use mec_types::{constants, Meters};

/// Minimum modeled link distance. Prevents `log10(0)` blowing up when a
/// user is sampled arbitrarily close to a base station; 3GPP evaluation
/// methodologies apply a similar minimum-distance floor.
pub const MIN_DISTANCE: Meters = Meters::new(10.0);

/// The paper's log-distance path loss `L[dB] = 140.7 + 36.7·log10(d[km])`
/// at `distance`, floored to [`MIN_DISTANCE`]. The stochastic shadowing
/// component lives in [`Shadowing`](crate::Shadowing).
pub fn path_loss_db(distance: Meters) -> f64 {
    let d_km = distance.max(MIN_DISTANCE).as_kilometers();
    constants::PATHLOSS_INTERCEPT_DB + constants::PATHLOSS_SLOPE_DB * d_km.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_at_one_km() {
        assert!((path_loss_db(Meters::from_kilometers(1.0)) - 140.7).abs() < 1e-9);
    }

    #[test]
    fn paper_model_slope_per_decade() {
        let l1 = path_loss_db(Meters::from_kilometers(0.1));
        let l2 = path_loss_db(Meters::from_kilometers(1.0));
        assert!((l2 - l1 - 36.7).abs() < 1e-9);
    }

    #[test]
    fn loss_is_monotone_in_distance() {
        let mut prev = f64::NEG_INFINITY;
        for d in [10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0] {
            let l = path_loss_db(Meters::new(d));
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn distances_below_floor_are_clamped() {
        assert_eq!(path_loss_db(Meters::new(0.0)), path_loss_db(MIN_DISTANCE));
        assert_eq!(path_loss_db(Meters::new(5.0)), path_loss_db(MIN_DISTANCE));
        assert!(path_loss_db(Meters::new(0.0)).is_finite());
    }
}
