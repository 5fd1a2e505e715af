//! OFDMA uplink band plan.

use mec_types::{constants, Error, Hertz, SubchannelId};
use serde::{Deserialize, Serialize};

/// The OFDMA configuration: total uplink bandwidth `B` split into `N`
/// orthogonal subchannels of equal width `W = B/N` (§III-A.2).
///
/// Each base station can serve at most `N` offloading users concurrently
/// (one per subchannel), which is what caps the offloading population in
/// the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OfdmaConfig {
    bandwidth: Hertz,
    num_subchannels: usize,
}

impl OfdmaConfig {
    /// Creates a band plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the bandwidth is non-positive
    /// or the subchannel count is zero.
    pub fn new(bandwidth: Hertz, num_subchannels: usize) -> Result<Self, Error> {
        if !bandwidth.is_finite() || bandwidth.as_hz() <= 0.0 {
            return Err(Error::invalid("B", "system bandwidth must be positive"));
        }
        if num_subchannels == 0 {
            return Err(Error::invalid("N", "need at least one subchannel"));
        }
        Ok(Self {
            bandwidth,
            num_subchannels,
        })
    }

    /// The paper's default: 20 MHz split into 3 subchannels.
    pub fn paper_default() -> Self {
        Self {
            bandwidth: constants::DEFAULT_BANDWIDTH,
            num_subchannels: constants::DEFAULT_NUM_SUBCHANNELS,
        }
    }

    /// Total uplink bandwidth `B`.
    #[inline]
    pub fn bandwidth(&self) -> Hertz {
        self.bandwidth
    }

    /// Number of subchannels `N`.
    #[inline]
    pub fn num_subchannels(&self) -> usize {
        self.num_subchannels
    }

    /// Per-subchannel width `W = B/N`.
    #[inline]
    pub fn subchannel_width(&self) -> Hertz {
        self.bandwidth / self.num_subchannels as f64
    }

    /// Iterates over all subchannel ids.
    pub fn subchannels(&self) -> impl Iterator<Item = SubchannelId> + Clone {
        SubchannelId::all(self.num_subchannels)
    }
}

impl Default for OfdmaConfig {
    /// Defaults to [`OfdmaConfig::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_splits_20_mhz_in_3() {
        let c = OfdmaConfig::paper_default();
        assert_eq!(c.bandwidth().as_mega(), 20.0);
        assert_eq!(c.num_subchannels(), 3);
        assert!((c.subchannel_width().as_hz() - 20.0e6 / 3.0).abs() < 1e-6);
        assert_eq!(OfdmaConfig::default(), c);
    }

    #[test]
    fn width_times_count_recovers_bandwidth() {
        for n in 1..=50 {
            let c = OfdmaConfig::new(Hertz::from_mega(20.0), n).unwrap();
            let total = c.subchannel_width().as_hz() * n as f64;
            assert!((total - 20.0e6).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(OfdmaConfig::new(Hertz::new(0.0), 3).is_err());
        assert!(OfdmaConfig::new(Hertz::new(-1.0), 3).is_err());
        assert!(OfdmaConfig::new(Hertz::from_mega(20.0), 0).is_err());
    }

    #[test]
    fn subchannel_iterator_is_dense() {
        let c = OfdmaConfig::new(Hertz::from_mega(20.0), 4).unwrap();
        let ids: Vec<_> = c.subchannels().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], SubchannelId::new(0));
        assert_eq!(ids[3], SubchannelId::new(3));
    }
}
