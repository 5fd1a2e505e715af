//! Regenerates every table and figure of the paper's evaluation in one go.
//! Pass `--full` for the paper-faithful preset.

type FigureFn = fn(mec_workloads::Preset) -> Result<Vec<mec_workloads::Table>, mec_types::Error>;

fn main() {
    let preset = mec_bench::preset_from_args();
    eprintln!("regenerating all figures with preset {preset:?} ...");
    let figures: Vec<(&str, FigureFn)> = vec![
        ("fig3", mec_workloads::experiments::fig3::paper),
        ("fig4", mec_workloads::experiments::fig4::paper),
        ("fig5", mec_workloads::experiments::fig5::paper),
        ("fig6", mec_workloads::experiments::fig6::paper),
        ("fig7", mec_workloads::experiments::fig7::paper),
        ("fig8", mec_workloads::experiments::fig8::paper),
        ("fig9", mec_workloads::experiments::fig9::paper),
        (
            "convergence",
            mec_workloads::experiments::convergence::paper,
        ),
        ("bound_gap", mec_workloads::experiments::bound_gap::paper),
        ("hotspot", mec_workloads::experiments::hotspot::paper),
        ("ablation", mec_workloads::experiments::ablation::paper),
    ];
    for (id, run) in figures {
        eprintln!("=== {id} ===");
        let start = std::time::Instant::now();
        let tables = run(preset).expect("experiment failed");
        mec_bench::emit(&tables, id, preset).expect("failed to write results");
        eprintln!("{id} done in {:.1}s", start.elapsed().as_secs_f64());
    }
}
