//! Hotspot-placement sensitivity study. Pass `--full` for more trials.

fn main() {
    let preset = mec_bench::preset_from_args();
    let tables = mec_workloads::experiments::hotspot::paper(preset).expect("experiment failed");
    mec_bench::emit(&tables, "hotspot", preset).expect("failed to write results");
}
