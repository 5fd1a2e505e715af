//! Regenerates Fig. 3 of the paper. Pass `--full` for paper-faithful
//! trial counts; the default quick preset smoke-tests the pipeline.

fn main() {
    let preset = mec_bench::preset_from_args();
    eprintln!("running fig3 with preset {preset:?} ...");
    let tables = mec_workloads::experiments::fig3::paper(preset).expect("experiment failed");
    mec_bench::emit(&tables, "fig3", preset).expect("failed to write results");
}
