//! The online engine under churn: users arrive by a Poisson process,
//! sojourn exponentially, move between epochs, and depart — while every
//! epoch patches the previous schedule onto the survivors and refreshes
//! it with a warm-started, reduced-temperature TTSA pass.
//!
//! The run is compared against admission control under overload: an
//! unbounded `AdmitAll` population vs. a `CapacityGate` that degrades
//! overload arrivals to forced-local execution.
//!
//! ```text
//! cargo run --release --example online_churn
//! ```

use tsajs_mec::online::{
    AdmissionPolicy, AdmitAll, CapacityGate, OnlineConfig, OnlineEngine, PoissonChurn,
};
use tsajs_mec::prelude::*;
use tsajs_mec::tsajs::ResolveMode;

fn run_policy(label: &str, policy: Box<dyn AdmissionPolicy>, epochs: usize) -> Result<(), Error> {
    let params = ExperimentParams::paper_default().with_servers(4);
    let config = OnlineConfig::pedestrian()
        .with_base(TtsaConfig::paper_default().with_min_temperature(1e-3))
        .with_mode(ResolveMode::warm(3_000));
    // ~12 users in steady state: λ = 0.15/s at a 80 s mean sojourn.
    let churn = PoissonChurn::new(8, 0.15, Seconds::new(80.0), 42)?;
    let mut engine = OnlineEngine::new(params, config, Box::new(churn), policy, 42)?;

    println!("--- {label} ---");
    println!("epoch | users (sched+local) | arr/dep/rej | J*(X)  | props | warm | hit-rate");
    for _ in 0..epochs {
        let r = engine.step()?;
        println!(
            "{:>5} | {:>6} ({:>2} + {:>2})   | {:>2} /{:>2} /{:>2}  | {:>6.3} | {:>5} | {:>4} | {:.2}",
            r.epoch,
            r.active_users,
            r.scheduled,
            r.forced_local,
            r.arrivals,
            r.departures,
            r.rejected,
            r.utility,
            r.proposals,
            if r.warm_started { "yes" } else { "cold" },
            r.deadline_hit_rate,
        );
    }
    let sla = engine.sla();
    println!(
        "departed {} users: hit-rate {:.2}, mean sojourn {:.0} s, mean benefit {:.3}\n",
        sla.len(),
        sla.deadline_hit_rate(),
        sla.mean_time_in_system_s(),
        sla.mean_total_benefit(),
    );
    Ok(())
}

fn main() -> Result<(), Error> {
    run_policy("admit-all", Box::new(AdmitAll), 12)?;
    run_policy(
        "capacity-gate (cap 10, overflow forced-local)",
        Box::new(CapacityGate::forcing_local(10)),
        12,
    )?;
    Ok(())
}
