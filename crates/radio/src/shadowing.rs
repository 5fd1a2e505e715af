//! Lognormal shadowing.

use crate::normal::StandardNormal;
use rand::Rng;

/// Lognormal shadow fading: a zero-mean Gaussian in the dB domain added to
/// the deterministic path loss (paper §V: 8 dB standard deviation).
#[derive(Debug, Clone)]
pub struct Shadowing {
    stddev_db: f64,
    normal: StandardNormal,
}

impl Shadowing {
    /// Creates a shadowing source with the given dB standard deviation.
    ///
    /// A standard deviation of zero disables shadowing (useful for
    /// deterministic unit tests).
    ///
    /// # Panics
    ///
    /// Panics if `stddev_db` is negative or non-finite.
    pub fn new(stddev_db: f64) -> Self {
        assert!(
            stddev_db.is_finite() && stddev_db >= 0.0,
            "shadowing stddev must be a finite non-negative dB value"
        );
        Self {
            stddev_db,
            normal: StandardNormal::new(),
        }
    }

    /// Draws one shadowing realization in dB.
    pub fn sample_db<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.stddev_db == 0.0 {
            return 0.0;
        }
        self.normal.sample_with(rng, 0.0, self.stddev_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_shadowing_is_exactly_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Shadowing::new(0.0);
        for _ in 0..100 {
            assert_eq!(s.sample_db(&mut rng), 0.0);
        }
    }

    #[test]
    fn empirical_stddev_matches_configuration() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Shadowing::new(8.0);
        let xs: Vec<f64> = (0..50_000).map(|_| s.sample_db(&mut rng)).collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var.sqrt() - 8.0).abs() < 0.2, "stddev {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "stddev")]
    fn negative_stddev_panics() {
        let _ = Shadowing::new(-1.0);
    }
}
