//! TTSA configuration (the constants of Algorithm 1, line 3–4, made
//! tunable).

use mec_types::Error;
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
}

/// Parallel-tempering (replica-exchange) configuration for the
/// [`tempering`](crate::tempering) engine.
///
/// `K = replicas` chains run on a geometric temperature ladder anchored at
/// the base config's `T₀` (the hottest rung), exchanging states every
/// `exchange_interval` epochs. The ensemble's total proposal budget is a
/// `schedule_factor` fraction of the single-chain schedule's estimated
/// epoch count — the cooperation is what buys back the quality the
/// shortened schedule gives up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperingConfig {
    /// Number of replicas `K` on the ladder.
    pub replicas: usize,
    /// Geometric spacing `r` between adjacent rungs (`T_k = T₀ / r^(K−1−k)`,
    /// rung `K−1` hottest). Must exceed 1.
    pub ladder_ratio: f64,
    /// Epochs each replica runs between exchange sweeps (`E`).
    pub exchange_interval: u64,
    /// Fraction of the single-chain schedule's estimated epoch count the
    /// whole ensemble may spend (ignored when [`rounds`](Self::rounds) is
    /// set). Values well below `1/2` are what produce the wall-clock win.
    pub schedule_factor: f64,
    /// Explicit number of exchange rounds, overriding the
    /// `schedule_factor` estimate.
    pub rounds: Option<u64>,
    /// Whether the global best-so-far is migrated into the hottest
    /// replica after each exchange sweep.
    pub elite_migration: bool,
    /// Greedy polish epochs run on the global best after the ladder
    /// finishes (accept-improving-only, at `T_min`).
    pub quench_epochs: u64,
    /// Work bias toward the cold end of the ladder: rung `i` (0 coldest)
    /// gets a per-round epoch share proportional to
    /// `cold_bias^(K−1−i)`, normalized so a round still spends `K·E`
    /// epochs in total. `1.0` is the uniform split; values above 1 turn
    /// the hot rungs into cheap scouts and concentrate refinement where
    /// worsening moves are actually rejected. Must be at least 1.
    pub cold_bias: f64,
}

impl TemperingConfig {
    /// Tuned defaults (see `EXPERIMENTS.md` for the U = 90 sweep that
    /// chose them): `K = 8`, ratio 1.7, exchange every 4 epochs,
    /// ensemble budget 40% of the single-chain schedule, elite migration
    /// on, 16 quench epochs, cold-end work bias 5.
    pub fn paper_default() -> Self {
        Self {
            replicas: 8,
            ladder_ratio: 1.7,
            exchange_interval: 4,
            schedule_factor: 0.40,
            rounds: None,
            elite_migration: true,
            quench_epochs: 16,
            cold_bias: 5.0,
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

    /// Sets the ensemble budget as a fraction of the single-chain
    /// schedule.
    pub fn with_schedule_factor(mut self, f: f64) -> Self {
        self.schedule_factor = f;
        self
    }

    /// Sets the cold-end work bias (`1.0` = uniform epoch split).
    pub fn with_cold_bias(mut self, bias: f64) -> Self {
        self.cold_bias = bias;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for fewer than two replicas, a
    /// ladder ratio not above 1, a zero exchange interval, a non-positive
    /// schedule factor, or an explicit zero round count.
    pub fn validate(&self) -> Result<(), Error> {
        if self.replicas < 2 {
            return Err(Error::invalid("replicas", "ladder needs at least 2 rungs"));
        }
        if !self.ladder_ratio.is_finite() || self.ladder_ratio <= 1.0 {
            return Err(Error::invalid("ladder_ratio", "must exceed 1"));
        }
        if self.exchange_interval == 0 {
            return Err(Error::invalid("exchange_interval", "must be at least 1"));
        }
        if !self.schedule_factor.is_finite() || self.schedule_factor <= 0.0 {
            return Err(Error::invalid("schedule_factor", "must be positive"));
        }
        if self.rounds == Some(0) {
            return Err(Error::invalid("rounds", "must run at least one round"));
        }
        if !self.cold_bias.is_finite() || self.cold_bias < 1.0 {
            return Err(Error::invalid("cold_bias", "must be at least 1"));
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

/// Which search engine [`TsajsSolver`](crate::TsajsSolver) drives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// One paper-faithful TTSA chain (Algorithm 1 verbatim).
    SingleChain,
    /// Independent restarts hedging against bad initial solutions; chains
    /// never share information.
    MultiStart {
        /// Number of independent chains.
        restarts: usize,
    },
    /// Cooperative parallel tempering (replica exchange).
    Tempering(TemperingConfig),
}

impl SearchStrategy {
    /// Validates the strategy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for zero restarts or an invalid
    /// tempering configuration.
    pub fn validate(&self) -> Result<(), Error> {
        match self {
            SearchStrategy::SingleChain => Ok(()),
            SearchStrategy::MultiStart { restarts } => {
                if *restarts == 0 {
                    return Err(Error::invalid("restarts", "must run at least one chain"));
                }
                Ok(())
            }
            SearchStrategy::Tempering(cfg) => cfg.validate(),
        }
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

/// How the initial feasible solution is generated (Algorithm 1, line 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InitialSolution {
    /// Start from `X = 0` (everyone local).
    AllLocal,
    /// Independently offload each user with the given probability to a
    /// uniformly random server with a free subchannel (skipped if the
    /// chosen server is full), which is how we realize the paper's
    /// "randomly generate an initial set of solutions that satisfy the
    /// constraints".
    RandomFeasible {
        /// Per-user offload probability.
        offload_probability: f64,
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
    /// Initial feasible solution policy.
    pub initial_solution: InitialSolution,
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
            initial_solution: InitialSolution::RandomFeasible {
                offload_probability: 0.5,
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

    /// Sets the initial-solution policy.
    pub fn with_initial_solution(mut self, init: InitialSolution) -> Self {
        self.initial_solution = init;
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
    /// a zero epoch length, cooling multipliers outside `(0, 1)`, a
    /// non-positive trigger factor, or an offload probability outside
    /// `[0, 1]`.
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
        if let InitialSolution::RandomFeasible {
            offload_probability,
        } = self.initial_solution
        {
            if !(0.0..=1.0).contains(&offload_probability) {
                return Err(Error::invalid("offload_probability", "must lie in [0, 1]"));
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
            .with_initial_solution(InitialSolution::AllLocal)
            .with_trace();
        assert_eq!(c.seed, 9);
        assert_eq!(c.inner_iterations, 50);
        assert_eq!(c.min_temperature, 1e-6);
        assert_eq!(c.initial_temperature, InitialTemperature::Fixed(10.0));
        assert_eq!(c.cooling, Cooling::Geometric { alpha: 0.95 });
        assert_eq!(c.initial_solution, InitialSolution::AllLocal);
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
        assert!(base
            .with_initial_solution(InitialSolution::RandomFeasible {
                offload_probability: 1.5,
            })
            .validate()
            .is_err());
        assert!(base.with_proposal_budget(0).validate().is_err());
        assert!(base.with_proposal_budget(100).validate().is_ok());
    }
}
