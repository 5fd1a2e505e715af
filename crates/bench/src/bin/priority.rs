//! Provider-priority (first responder) study. Pass `--full` for more
//! trials.

fn main() {
    let preset = mec_bench::preset_from_args();
    let tables = mec_workloads::experiments::priority::paper(preset).expect("experiment failed");
    mec_bench::emit(&tables, "priority", preset).expect("failed to write results");
}
