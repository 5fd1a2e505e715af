//! Certified-quality study: TSAJS against the interference-free matching
//! upper bound across user scales. Pass `--full` for more trials.

fn main() {
    let preset = mec_bench::preset_from_args();
    let tables = mec_workloads::experiments::bound_gap::paper(preset).expect("experiment failed");
    mec_bench::emit(&tables, "bound_gap", preset).expect("failed to write results");
}
