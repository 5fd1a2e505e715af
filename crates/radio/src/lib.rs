//! # mec-radio
//!
//! Wireless substrate for the TSAJS reproduction.
//!
//! Implements the paper's uplink model (§III-A.2 and §V):
//!
//! * distance-dependent path loss `L[dB] = 140.7 + 36.7·log10(d[km])`,
//! * lognormal shadowing with 8 dB standard deviation,
//! * OFDMA band plan: total bandwidth `B` split into `N` equal subchannels
//!   of width `W = B/N`,
//! * SINR with inter-cell interference (Eq. 3) and Shannon rates (Eq. 4).
//!
//! Channel gains are generated once per scenario, one value per
//! `(user, server)` link shared by every subchannel ([`ChannelGains`]), so
//! repeated objective evaluations during search never touch the RNG.
//!
//! ## Example
//!
//! ```
//! use mec_radio::{ChannelModel, OfdmaConfig, shannon_rate};
//! use mec_topology::{NetworkLayout, place_users_uniform};
//! use mec_types::constants;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), mec_types::Error> {
//! let layout = NetworkLayout::hexagonal(9, constants::INTER_SITE_DISTANCE)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let users = place_users_uniform(&layout, 12, &mut rng);
//!
//! let ofdma = OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, 3)?;
//! let gains = ChannelModel::paper_default().generate(&layout, &users, 3, &mut rng);
//!
//! // A 20 dB SNR link on one subchannel moves ~44.3 Mbit/s.
//! let rate = shannon_rate(ofdma.subchannel_width(), 100.0);
//! assert!(rate.as_bps() > 40.0e6 && rate.as_bps() < 50.0e6);
//! assert_eq!(gains.num_users(), 12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod normal;
pub mod ofdma;
pub mod pathloss;
pub mod shadowing;
pub mod sinr;

pub use channel::{ChannelGains, ChannelModel};
pub use normal::StandardNormal;
pub use ofdma::OfdmaConfig;
pub use pathloss::path_loss_db;
pub use shadowing::Shadowing;
pub use sinr::{compute_sinrs, shannon_rate, Transmission};
