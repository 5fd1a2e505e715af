//! Ablation study for the design choices DESIGN.md calls out — delegates
//! to `mec_workloads::experiments::ablation` and appends the baselines'
//! utilities on the same scenario for context. Pass `--full` for more
//! trials and the full annealing schedule.

use mec_workloads::experiments::ablation::{self, AblationConfig};
use mec_workloads::experiments::Scheme;
use mec_workloads::{run_trials, SampleStats, ScenarioGenerator, Table};

fn baseline_context(config: &AblationConfig, preset: mec_workloads::Preset) -> Table {
    let generator = ScenarioGenerator::new(config.params);
    let mut table = Table::new(
        "Context: baseline utilities on the ablation scenario",
        vec!["scheme".into(), "avg utility".into()],
    );
    for scheme in [Scheme::HJtora, Scheme::LocalSearch, Scheme::Greedy] {
        let outcomes = run_trials(&generator, config.trials, config.base_seed, |seed| {
            scheme.build(preset, seed)
        })
        .expect("trials failed");
        let stats =
            SampleStats::from_sample(&outcomes.iter().map(|o| o.utility).collect::<Vec<_>>());
        table.push_row(vec![scheme.name(), stats.display(3)]);
    }
    table
}

fn main() {
    let preset = mec_bench::preset_from_args();
    let config = AblationConfig::paper(preset);
    let mut tables = ablation::run(&config).expect("ablation failed");
    tables.push(baseline_context(&config, preset));
    mec_bench::emit(&tables, "ablation", preset).expect("failed to write results");
}
