//! Mobile device hardware profiles.

use crate::constants;
use crate::error::Error;
use crate::units::{Cycles, DbMilliwatts, Hertz, Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Hardware characteristics of a mobile user device.
///
/// Captures everything the model needs about the handset: local CPU speed
/// `f_u^local`, the chip energy coefficient `κ` from the `ε = κ f²`
/// per-cycle energy model, and the fixed uplink transmit power `p_u`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    cpu: Hertz,
    kappa: f64,
    tx_power: DbMilliwatts,
}

/// The time and energy cost of running a task locally (Eq. 1 and the
/// `t_local` definition in §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalCost {
    /// Local completion time `t_u^local = w_u / f_u^local`.
    pub time: Seconds,
    /// Local energy `E_u^local = κ (f_u^local)² w_u`.
    pub energy: Joules,
}

impl DeviceProfile {
    /// Creates a device profile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the CPU speed or `κ` is
    /// non-positive/non-finite, or if the transmit power is non-finite.
    pub fn new(cpu: Hertz, kappa: f64, tx_power: DbMilliwatts) -> Result<Self, Error> {
        if !cpu.is_finite() || cpu.as_hz() <= 0.0 {
            return Err(Error::invalid(
                "f_u_local",
                "device CPU speed must be positive",
            ));
        }
        if !kappa.is_finite() || kappa <= 0.0 {
            return Err(Error::invalid(
                "kappa",
                "energy coefficient must be positive",
            ));
        }
        if !tx_power.is_finite() {
            return Err(Error::invalid("p_u", "transmit power must be finite"));
        }
        Ok(Self {
            cpu,
            kappa,
            tx_power,
        })
    }

    /// The paper's default handset: 1 GHz CPU, κ = 5·10⁻²⁷, 10 dBm uplink.
    pub fn paper_default() -> Self {
        Self {
            cpu: constants::DEFAULT_USER_CPU,
            kappa: constants::DEFAULT_KAPPA,
            tx_power: constants::DEFAULT_TX_POWER,
        }
    }

    /// Local CPU speed `f_u^local`.
    #[inline]
    pub fn cpu(&self) -> Hertz {
        self.cpu
    }

    /// Chip energy coefficient `κ`.
    #[inline]
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Uplink transmit power `p_u` (dBm).
    #[inline]
    pub fn tx_power(&self) -> DbMilliwatts {
        self.tx_power
    }

    /// Uplink transmit power in linear watts.
    #[inline]
    pub fn tx_power_watts(&self) -> Watts {
        self.tx_power.to_watts()
    }

    /// The local execution cost for a task of the given workload.
    pub fn local_cost(&self, workload: Cycles) -> LocalCost {
        let time = workload / self.cpu;
        let energy = Joules::new(self.kappa * self.cpu.as_hz().powi(2) * workload.as_cycles());
        LocalCost { time, energy }
    }
}

impl Default for DeviceProfile {
    /// Defaults to [`DeviceProfile::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_constants() {
        let d = DeviceProfile::paper_default();
        assert_eq!(d.cpu().as_giga(), 1.0);
        assert_eq!(d.kappa(), 5.0e-27);
        assert_eq!(d.tx_power().as_dbm(), 10.0);
        assert!((d.tx_power_watts().as_watts() - 0.01).abs() < 1e-12);
        assert_eq!(DeviceProfile::default(), d);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(DeviceProfile::new(Hertz::new(0.0), 1e-27, DbMilliwatts::new(10.0)).is_err());
        assert!(DeviceProfile::new(Hertz::from_giga(1.0), 0.0, DbMilliwatts::new(10.0)).is_err());
        assert!(DeviceProfile::new(Hertz::from_giga(1.0), -1.0, DbMilliwatts::new(10.0)).is_err());
        assert!(
            DeviceProfile::new(Hertz::from_giga(1.0), 1e-27, DbMilliwatts::new(f64::NAN)).is_err()
        );
    }

    #[test]
    fn local_cost_energy_is_quadratic_in_cpu() {
        let w = Cycles::from_mega(1000.0);
        let slow =
            DeviceProfile::new(Hertz::from_giga(1.0), 5e-27, DbMilliwatts::new(10.0)).unwrap();
        let fast =
            DeviceProfile::new(Hertz::from_giga(2.0), 5e-27, DbMilliwatts::new(10.0)).unwrap();
        let e_slow = slow.local_cost(w).energy.as_joules();
        let e_fast = fast.local_cost(w).energy.as_joules();
        assert!((e_fast / e_slow - 4.0).abs() < 1e-12, "E ∝ f²");
        // ...while time halves.
        let t_slow = slow.local_cost(w).time.as_secs();
        let t_fast = fast.local_cost(w).time.as_secs();
        assert!((t_slow / t_fast - 2.0).abs() < 1e-12);
    }
}
