//! Emits convergence curves (best J vs epoch) comparing the paper's
//! threshold-triggered schedule with plain geometric cooling — as a
//! markdown/CSV table and as an SVG chart under `results/`.

use mec_viz::{LineChart, Series};
use mec_workloads::experiments::convergence::{run, ConvergenceConfig};
use mec_workloads::Preset;

fn main() {
    // The study has no quick preset: its one configuration is the full
    // one (what `convergence::paper(Preset::Full)` runs), so its table
    // and chart are the committed ones.
    let preset = Preset::Full;
    let config = ConvergenceConfig::default_comparison();
    let tables = run(&config).expect("experiment failed");
    mec_bench::emit(&tables, "convergence", preset).expect("failed to write results");

    // Chart the (clipped) curves: the first epochs sit at J ≈ -10^5 and
    // would flatten everything else, so clip to the interesting range.
    let table = &tables[0];
    let mut chart = LineChart::new("TTSA convergence (best J vs epoch)", "epoch", "best J");
    for (col, name) in table.headers.iter().enumerate().skip(1) {
        let points: Vec<(f64, f64)> = table
            .rows
            .iter()
            .filter_map(|row| {
                let x: f64 = row[0].parse().ok()?;
                let y: f64 = row[col].parse().ok()?;
                (y > -10.0).then_some((x, y))
            })
            .collect();
        if !points.is_empty() {
            chart = chart.with_series(Series {
                label: name.clone(),
                points,
            });
        }
    }
    let svg = chart.render();
    let path = mec_bench::results_dir(preset).join("convergence.svg");
    std::fs::write(&path, svg).expect("failed to write chart");
    eprintln!("saved {}", path.display());
}
