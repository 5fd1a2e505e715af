//! Sample statistics: mean, standard deviation, 95 % confidence interval.

use serde::{Deserialize, Serialize};

/// Two-sided 97.5 % Student-t quantiles for df = 1..=30; beyond 30 the
/// normal quantile 1.96 is used.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Summary statistics of a sample of real values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub stddev: f64,
    /// Half-width of the 95 % confidence interval for the mean
    /// (Student-t; 0 for n < 2).
    pub ci95: f64,
}

impl SampleStats {
    /// Computes statistics from a sample.
    ///
    /// # Example
    ///
    /// ```
    /// use mec_workloads::SampleStats;
    ///
    /// let s = SampleStats::from_sample(&[1.0, 2.0, 3.0]);
    /// assert_eq!(s.mean, 2.0);
    /// assert!(s.ci95 > 0.0);
    /// println!("{}", s.display(2)); // "2.00 ± 2.48"
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains non-finite values — an
    /// experiment producing those has already failed.
    pub fn from_sample(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "sample contains non-finite values"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Self {
                n,
                mean,
                stddev: 0.0,
                ci95: 0.0,
            };
        }
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let stddev = var.sqrt();
        let t = t_critical(n - 1);
        let ci95 = t * stddev / (n as f64).sqrt();
        Self {
            n,
            mean,
            stddev,
            ci95,
        }
    }

    /// Renders as `mean ± ci95` with the given number of decimals.
    pub fn display(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.ci95)
    }
}

/// Relative tolerance within which two paired values count as equal: the
/// workspace's agreement tolerance, the conformance oracle's default.
const PAIR_TOLERANCE: f64 = 1e-9;

/// Statistics of the paired differences `a[i] − b[i]`.
///
/// In the experiment harness every scheme sees the same scenario
/// realizations (paired design), so comparing schemes via the paired
/// differences removes the between-instance variance that dominates the
/// raw CIs. The comparison is *significant at 95 %* when the differences'
/// confidence interval excludes zero.
///
/// A pair whose values agree within a relative `1e-9` (of the larger
/// magnitude, floored at 1) counts as a zero difference. Two schemes that
/// reach the same decision can report utilities a few ulps apart, because
/// they sum its terms in different orders, and that noise must not read
/// as a significant gap.
///
/// # Panics
///
/// Panics if the samples are empty or of different lengths.
pub fn paired_difference(a: &[f64], b: &[f64]) -> SampleStats {
    assert_eq!(a.len(), b.len(), "paired samples must have equal length");
    let diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            if (x - y).abs() <= PAIR_TOLERANCE * scale {
                0.0
            } else {
                x - y
            }
        })
        .collect();
    SampleStats::from_sample(&diffs)
}

impl SampleStats {
    /// Whether the mean is significantly different from zero at the 95 %
    /// level (the CI excludes 0). For [`paired_difference`] output this is
    /// the paired-t test verdict.
    pub fn significantly_nonzero(&self) -> bool {
        self.mean.abs() > self.ci95 && self.n >= 2
    }
}

/// The two-sided 95 % Student-t critical value for the given degrees of
/// freedom.
pub fn t_critical(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        T_975[df - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_sample_reference() {
        // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, stddev 2.138 (n−1).
        let s = SampleStats::from_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.13809).abs() < 1e-4);
        // CI95 = t(7) * s / √8 = 2.365 * 2.13809 / 2.8284 ≈ 1.7878.
        assert!((s.ci95 - 1.7878).abs() < 1e-3);
    }

    #[test]
    fn singleton_sample_has_zero_spread() {
        let s = SampleStats::from_sample(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn constant_sample_has_zero_ci() {
        let s = SampleStats::from_sample(&[2.0; 10]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn t_critical_decreases_toward_normal() {
        assert!((t_critical(1) - 12.706).abs() < 1e-9);
        assert!((t_critical(30) - 2.042).abs() < 1e-9);
        assert_eq!(t_critical(31), 1.96);
        assert_eq!(t_critical(1000), 1.96);
        let mut prev = f64::INFINITY;
        for df in 1..=31 {
            let t = t_critical(df);
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        assert!(SampleStats::from_sample(&large).ci95 < SampleStats::from_sample(&small).ci95);
    }

    #[test]
    fn display_formats_mean_and_ci() {
        let s = SampleStats::from_sample(&[1.0, 2.0, 3.0]);
        assert_eq!(s.display(2), format!("{:.2} ± {:.2}", s.mean, s.ci95));
    }

    #[test]
    fn paired_difference_cancels_shared_noise() {
        // Two schemes measured on the same noisy instances: raw CIs are
        // wide, but the paired difference is tight and significant.
        let instance_effect = [10.0, 2.0, 7.5, 14.0, 4.0, 9.0, 1.0, 12.0];
        let a: Vec<f64> = instance_effect.iter().map(|x| x + 0.5).collect();
        let b: Vec<f64> = instance_effect.to_vec();
        let raw_a = SampleStats::from_sample(&a);
        let diff = paired_difference(&a, &b);
        assert!((diff.mean - 0.5).abs() < 1e-12);
        assert!(diff.ci95 < raw_a.ci95, "pairing must shrink the CI");
        assert!(diff.significantly_nonzero());
    }

    #[test]
    fn equal_schemes_are_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let diff = paired_difference(&a, &a);
        assert_eq!(diff.mean, 0.0);
        assert!(!diff.significantly_nonzero());

        // The same decisions summed in another order: most pairs differ
        // by an ulp or two, always upward, which a plain paired t-test
        // calls significant.
        let a: Vec<f64> = (0..60).map(|i| 1.5 + 0.05 * i as f64).collect();
        let b: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| match i % 4 {
                0 => x,
                k => x - k as f64 * f64::EPSILON * x,
            })
            .collect();
        let raw: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        assert!(SampleStats::from_sample(&raw).significantly_nonzero());
        let diff = paired_difference(&a, &b);
        assert_eq!(diff.mean, 0.0);
        assert!(!diff.significantly_nonzero());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_pairs_panic() {
        let _ = paired_difference(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = SampleStats::from_sample(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_panics() {
        let _ = SampleStats::from_sample(&[1.0, f64::NAN]);
    }
}
