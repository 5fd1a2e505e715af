//! TTSA configuration (the constants of Algorithm 1, line 3–4, made
//! tunable).

use crate::annealing::{anneal, anneal_from, AnnealOutcome};
use crate::moves::NeighborhoodKernel;
use crate::tempering::temper_from;
use mec_system::{Assignment, Scenario};
use mec_types::Error;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Default restart temperature for warm-started refreshes: low enough
/// that the budget is spent improving the inherited schedule instead of
/// scrambling it, high enough to escape razor-thin local optima.
pub const DEFAULT_REFRESH_TEMPERATURE: f64 = 0.05;

/// How a periodic re-solve (one scheduling epoch of a dynamic or online
/// run) uses the previous epoch's decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResolveMode {
    /// Discard the previous decision and anneal from scratch with the
    /// full base schedule every epoch.
    Cold,
    /// Seed TTSA from the previous epoch's assignment and run a cheap
    /// refresh: a fixed low restart temperature and a hard proposal
    /// budget. A refresh is fine-tuning, not a fresh search.
    WarmStart {
        /// Hard cap on neighborhood proposals per refresh.
        refresh_budget: u64,
        /// Fixed restart temperature for the refresh chain.
        refresh_temperature: f64,
    },
    /// Seed every replica of a shortened tempering ladder from the
    /// previous epoch's assignment: the same budget/temperature contract
    /// as [`WarmStart`](Self::WarmStart), but the refresh is spent by a
    /// cooperating replica ensemble instead of one chain.
    WarmTempered {
        /// Hard cap on neighborhood proposals per refresh (shared by the
        /// whole ensemble).
        refresh_budget: u64,
        /// Fixed restart temperature anchoring the shortened ladder's
        /// hottest rung.
        refresh_temperature: f64,
        /// Ladder shape for the refresh ensemble.
        tempering: TemperingConfig,
    },
}

impl ResolveMode {
    /// Warm start with the given budget at [`DEFAULT_REFRESH_TEMPERATURE`].
    pub fn warm(refresh_budget: u64) -> Self {
        ResolveMode::WarmStart {
            refresh_budget,
            refresh_temperature: DEFAULT_REFRESH_TEMPERATURE,
        }
    }

    /// Validates the mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a zero refresh budget or a
    /// non-positive refresh temperature.
    pub fn validate(&self) -> Result<(), Error> {
        let (budget, temp) = match *self {
            ResolveMode::Cold => return Ok(()),
            ResolveMode::WarmStart {
                refresh_budget,
                refresh_temperature,
            } => (refresh_budget, refresh_temperature),
            ResolveMode::WarmTempered {
                refresh_budget,
                refresh_temperature,
                tempering,
            } => {
                tempering.validate()?;
                (refresh_budget, refresh_temperature)
            }
        };
        if budget == 0 {
            return Err(Error::invalid("refresh_budget", "must allow proposals"));
        }
        if !temp.is_finite() || temp <= 0.0 {
            return Err(Error::invalid("refresh_temperature", "must be positive"));
        }
        Ok(())
    }

    /// The configuration an epoch re-solve should run with: `base`
    /// untouched for [`Cold`](Self::Cold), `base` with the refresh budget
    /// and fixed restart temperature for [`WarmStart`](Self::WarmStart).
    pub fn refresh_config(&self, base: &TtsaConfig) -> TtsaConfig {
        match *self {
            ResolveMode::Cold => *base,
            ResolveMode::WarmStart {
                refresh_budget,
                refresh_temperature,
            }
            | ResolveMode::WarmTempered {
                refresh_budget,
                refresh_temperature,
                ..
            } => base
                .with_proposal_budget(refresh_budget)
                .with_initial_temperature(InitialTemperature::Fixed(refresh_temperature)),
        }
    }

    /// Re-solves one epoch under this mode: the dispatch every epoch
    /// driver shares.
    ///
    /// * [`Cold`](Self::Cold), or no `warm` start: a full [`anneal`] with
    ///   `base`.
    /// * [`WarmStart`](Self::WarmStart): one chain refreshed from `warm`
    ///   under [`refresh_config`](Self::refresh_config).
    /// * [`WarmTempered`](Self::WarmTempered): the same refresh spent by
    ///   a shortened ladder on up to `workers` threads, every replica
    ///   starting from `warm` ([`temper_from`]; its result does not depend
    ///   on `workers`).
    ///
    /// # Panics
    ///
    /// As the search it runs, if `base` or the mode fails `validate()`.
    pub fn resolve<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        base: &TtsaConfig,
        kernel: &NeighborhoodKernel,
        rng: &mut R,
        workers: usize,
        warm: Option<Assignment>,
    ) -> AnnealOutcome {
        match (self, warm) {
            (ResolveMode::Cold, _) | (_, None) => anneal(scenario, base, kernel, rng),
            (ResolveMode::WarmStart { .. }, Some(warm)) => {
                anneal_from(scenario, &self.refresh_config(base), kernel, rng, warm)
            }
            (ResolveMode::WarmTempered { tempering, .. }, Some(warm)) => temper_from(
                scenario,
                tempering,
                &self.refresh_config(base),
                kernel,
                rng,
                workers,
                warm,
            ),
        }
    }
}

/// Parallel-tempering (replica-exchange) configuration for the
/// [`tempering`](crate::tempering) engine.
///
/// `K = replicas` chains run on a geometric temperature ladder anchored at
/// the base config's `T₀` (the hottest rung). The ladder's shape — its
/// ratio, exchange interval, cold-end work bias, elite migration, quench
/// and the fraction of the single-chain schedule the ensemble may spend —
/// is fixed by the constants of the [`tempering`](crate::tempering)
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperingConfig {
    /// Number of replicas `K` on the ladder.
    pub replicas: usize,
    /// Explicit number of exchange rounds, overriding the estimate from
    /// the single-chain schedule.
    pub rounds: Option<u64>,
}

impl TemperingConfig {
    /// Tuned defaults (see `EXPERIMENTS.md` for the U = 90 sweep that
    /// chose them): `K = 8`, with the round count estimated from the
    /// single-chain schedule.
    pub fn paper_default() -> Self {
        Self {
            replicas: 8,
            rounds: None,
        }
    }

    /// Sets the number of replicas.
    pub fn with_replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// Sets an explicit number of exchange rounds.
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = Some(rounds);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for fewer than two replicas or
    /// an explicit zero round count.
    pub fn validate(&self) -> Result<(), Error> {
        if self.replicas < 2 {
            return Err(Error::invalid("replicas", "ladder needs at least 2 rungs"));
        }
        if self.rounds == Some(0) {
            return Err(Error::invalid("rounds", "must run at least one round"));
        }
        Ok(())
    }
}

impl Default for TemperingConfig {
    /// Defaults to [`TemperingConfig::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How the initial annealing temperature is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitialTemperature {
    /// The paper's literal `T ← N`: start at the number of subchannels.
    SubchannelCount,
    /// A fixed explicit temperature.
    Fixed(f64),
}

/// The cooling schedule applied after each epoch of `L` proposals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Cooling {
    /// The paper's threshold-triggered schedule: cool by `alpha_slow`
    /// normally, but when the accumulated count of accepted-worse moves
    /// reaches `max_count_factor · L`, cool by `alpha_fast` instead and
    /// reset the counter (Algorithm 1, lines 26–30).
    ThresholdTriggered {
        /// Slow (default) cooling multiplier `α₁`.
        alpha_slow: f64,
        /// Fast cooling multiplier `α₂` applied on trigger.
        alpha_fast: f64,
        /// Trigger threshold as a multiple of `L` (`maxCount = factor·L`).
        max_count_factor: f64,
    },
    /// Plain geometric cooling `T ← α·T` — the ablation baseline that
    /// turns TTSA back into classic simulated annealing.
    Geometric {
        /// The cooling multiplier `α`.
        alpha: f64,
    },
}

/// Full TTSA configuration.
///
/// Use [`TtsaConfig::paper_default`] for the constants of Algorithm 1 and
/// the builder-style `with_*` methods to deviate:
///
/// ```
/// use tsajs::TtsaConfig;
///
/// let config = TtsaConfig::paper_default()
///     .with_inner_iterations(10) // the paper's L = 10 variant
///     .with_seed(7);
/// assert_eq!(config.inner_iterations, 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TtsaConfig {
    /// Initial temperature policy (paper: `T ← N`).
    pub initial_temperature: InitialTemperature,
    /// Termination temperature `T_min` (paper: `10⁻⁹`).
    pub min_temperature: f64,
    /// Proposals per temperature epoch `L` (paper: 30; Figs. 4/7/8 also
    /// use 10 and 50).
    pub inner_iterations: usize,
    /// Cooling schedule (paper: threshold-triggered with `α₁ = 0.97`,
    /// `α₂ = 0.90`, `maxCount = 1.75·L`).
    pub cooling: Cooling,
    /// RNG seed; two runs with equal seeds and inputs are identical.
    pub seed: u64,
    /// Whether to record a per-epoch [`SearchTrace`](crate::SearchTrace).
    pub record_trace: bool,
    /// Optional hard cap on the total number of neighborhood proposals —
    /// an *anytime* budget: the loop stops at the end of the epoch in
    /// which the cap is reached, keeping the best solution found. `None`
    /// (the paper's setting) runs the full schedule down to `T_min`.
    pub proposal_budget: Option<u64>,
}

impl TtsaConfig {
    /// The exact constants of Algorithm 1:
    /// `T ← N`, `T_min = 10⁻⁹`, `α₁ = 0.97`, `α₂ = 0.90`, `L = 30`,
    /// `maxCount = 1.75·L`.
    pub fn paper_default() -> Self {
        Self {
            initial_temperature: InitialTemperature::SubchannelCount,
            min_temperature: 1e-9,
            inner_iterations: 30,
            cooling: Cooling::ThresholdTriggered {
                alpha_slow: 0.97,
                alpha_fast: 0.90,
                max_count_factor: 1.75,
            },
            seed: 0,
            record_trace: false,
            proposal_budget: None,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the epoch length `L`.
    pub fn with_inner_iterations(mut self, l: usize) -> Self {
        self.inner_iterations = l;
        self
    }

    /// Sets the cooling schedule.
    pub fn with_cooling(mut self, cooling: Cooling) -> Self {
        self.cooling = cooling;
        self
    }

    /// Sets the initial temperature policy.
    pub fn with_initial_temperature(mut self, t: InitialTemperature) -> Self {
        self.initial_temperature = t;
        self
    }

    /// Sets the termination temperature.
    pub fn with_min_temperature(mut self, t_min: f64) -> Self {
        self.min_temperature = t_min;
        self
    }

    /// Enables per-epoch trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Caps the total number of neighborhood proposals (anytime mode).
    pub fn with_proposal_budget(mut self, budget: u64) -> Self {
        self.proposal_budget = Some(budget);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for non-positive temperatures,
    /// a zero epoch length, cooling multipliers outside `(0, 1)`, or a
    /// non-positive trigger factor.
    pub fn validate(&self) -> Result<(), Error> {
        if let InitialTemperature::Fixed(t) = self.initial_temperature {
            if !t.is_finite() || t <= 0.0 {
                return Err(Error::invalid("T", "initial temperature must be positive"));
            }
        }
        if !self.min_temperature.is_finite() || self.min_temperature <= 0.0 {
            return Err(Error::invalid("T_min", "must be positive"));
        }
        if self.inner_iterations == 0 {
            return Err(Error::invalid("L", "epoch length must be at least 1"));
        }
        match self.cooling {
            Cooling::ThresholdTriggered {
                alpha_slow,
                alpha_fast,
                max_count_factor,
            } => {
                for (name, a) in [("alpha1", alpha_slow), ("alpha2", alpha_fast)] {
                    if !(0.0..1.0).contains(&a) || a == 0.0 {
                        return Err(Error::invalid(name, "cooling rate must lie in (0, 1)"));
                    }
                }
                if !max_count_factor.is_finite() || max_count_factor <= 0.0 {
                    return Err(Error::invalid(
                        "maxCount",
                        "trigger factor must be positive",
                    ));
                }
            }
            Cooling::Geometric { alpha } => {
                if !(0.0..1.0).contains(&alpha) || alpha == 0.0 {
                    return Err(Error::invalid("alpha", "cooling rate must lie in (0, 1)"));
                }
            }
        }
        if self.proposal_budget == Some(0) {
            return Err(Error::invalid(
                "proposal_budget",
                "anytime budget must allow at least one proposal",
            ));
        }
        Ok(())
    }
}

impl Default for TtsaConfig {
    /// Defaults to [`TtsaConfig::paper_default`].
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_algorithm_1_constants() {
        let c = TtsaConfig::paper_default();
        assert_eq!(c.initial_temperature, InitialTemperature::SubchannelCount);
        assert_eq!(c.min_temperature, 1e-9);
        assert_eq!(c.inner_iterations, 30);
        assert_eq!(
            c.cooling,
            Cooling::ThresholdTriggered {
                alpha_slow: 0.97,
                alpha_fast: 0.90,
                max_count_factor: 1.75,
            }
        );
        assert!(c.validate().is_ok());
        assert_eq!(TtsaConfig::default(), c);
    }

    #[test]
    fn builder_methods_compose() {
        let c = TtsaConfig::paper_default()
            .with_seed(9)
            .with_inner_iterations(50)
            .with_min_temperature(1e-6)
            .with_initial_temperature(InitialTemperature::Fixed(10.0))
            .with_cooling(Cooling::Geometric { alpha: 0.95 })
            .with_trace();
        assert_eq!(c.seed, 9);
        assert_eq!(c.inner_iterations, 50);
        assert_eq!(c.min_temperature, 1e-6);
        assert_eq!(c.initial_temperature, InitialTemperature::Fixed(10.0));
        assert_eq!(c.cooling, Cooling::Geometric { alpha: 0.95 });
        assert!(c.record_trace);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn resolve_mode_validates_and_builds_refresh_configs() {
        assert!(ResolveMode::Cold.validate().is_ok());
        assert!(ResolveMode::warm(500).validate().is_ok());
        assert!(ResolveMode::warm(0).validate().is_err());
        assert!(ResolveMode::WarmStart {
            refresh_budget: 10,
            refresh_temperature: 0.0,
        }
        .validate()
        .is_err());
        assert!(ResolveMode::WarmStart {
            refresh_budget: 10,
            refresh_temperature: f64::NAN,
        }
        .validate()
        .is_err());

        let base = TtsaConfig::paper_default();
        assert_eq!(ResolveMode::Cold.refresh_config(&base), base);
        let refresh = ResolveMode::warm(500).refresh_config(&base);
        assert_eq!(refresh.proposal_budget, Some(500));
        assert_eq!(
            refresh.initial_temperature,
            InitialTemperature::Fixed(DEFAULT_REFRESH_TEMPERATURE)
        );
        // Everything else is inherited from the base schedule.
        assert_eq!(refresh.cooling, base.cooling);
        assert_eq!(refresh.inner_iterations, base.inner_iterations);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let base = TtsaConfig::paper_default();
        assert!(base
            .with_initial_temperature(InitialTemperature::Fixed(0.0))
            .validate()
            .is_err());
        assert!(base.with_min_temperature(0.0).validate().is_err());
        assert!(base.with_inner_iterations(0).validate().is_err());
        assert!(base
            .with_cooling(Cooling::Geometric { alpha: 1.0 })
            .validate()
            .is_err());
        assert!(base
            .with_cooling(Cooling::Geometric { alpha: 0.0 })
            .validate()
            .is_err());
        assert!(base
            .with_cooling(Cooling::ThresholdTriggered {
                alpha_slow: 0.97,
                alpha_fast: 1.5,
                max_count_factor: 1.75,
            })
            .validate()
            .is_err());
        assert!(base
            .with_cooling(Cooling::ThresholdTriggered {
                alpha_slow: 0.97,
                alpha_fast: 0.9,
                max_count_factor: 0.0,
            })
            .validate()
            .is_err());
        assert!(base.with_proposal_budget(0).validate().is_err());
        assert!(base.with_proposal_budget(100).validate().is_ok());
    }
}
