//! Dynamic re-scheduling under mobility: vehicles move through the 9-cell
//! network, channels change, and TSAJS re-solves every 5 simulated
//! seconds. Reports utility, handovers and decision churn per epoch —
//! the vehicular scenario the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example mobility
//! ```

use tsajs_mec::online::{OnlineConfig, OnlineEngine};
use tsajs_mec::prelude::*;

fn main() -> Result<(), Error> {
    let params = ExperimentParams::paper_default()
        .with_users(30)
        .with_workload(Cycles::from_mega(2000.0));
    let mut engine = OnlineEngine::with_static_population(params, OnlineConfig::vehicular(), 11)?;
    let tsajs = |seed| {
        Box::new(TsajsSolver::new(
            TtsaConfig::paper_default()
                .with_min_temperature(1e-3)
                .with_seed(seed),
        )) as Box<dyn Solver>
    };

    println!("epoch | utility | offloaded | handovers | reassignments");
    println!("------|---------|-----------|-----------|--------------");
    let epochs = 15;
    let (mut utility, mut churn) = (0.0, 0);
    for _ in 0..epochs {
        let r = engine.step_with_solver(&tsajs)?;
        println!(
            "{:>5} | {:>7.3} | {:>9} | {:>9} | {:>13}",
            r.epoch, r.utility, r.num_offloaded, r.handovers, r.reassignments
        );
        utility += r.utility;
        churn += r.reassignments;
    }
    println!(
        "\navg utility {:.3}; total decision churn {churn} slot-changes over {epochs} epochs",
        utility / epochs as f64
    );
    Ok(())
}
