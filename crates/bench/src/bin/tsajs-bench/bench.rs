//! `tsajs-bench`: the repository benchmark. Four outside-in workloads,
//! from the paper's offline solve to a churning city, each checked for
//! correctness and reported as end-to-end metrics; a `--trace` run
//! reports per-layer numbers instead. See README.md beside this file.
//!
//! ```text
//! tsajs-bench --workload <name|all> [--seed S] [--seconds T] [--trace [0|1]] [--out DIR] [--smoke]
//! tsajs-bench compare A/ B/ [--bounds BENCHMARK.json]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; every run also writes a results
//! file (and, traced, a span JSONL file) under `--out`. The exit code is
//! non-zero when any check failed.

mod city;
mod compare;
mod cpus;
mod gauge;
mod paper;
mod probe;
mod service;
mod stats;
mod trace;

use cpus::Hopper;
use gauge::Gauge;
use stats::{mean, median, tails};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use trace::{Ledger, Tracer};

pub const WORKLOADS: [&str; 4] = ["paper_solve", "service_steady", "city_cold", "city_churn"];

/// End-to-end metrics, as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("throughput_ops_s", "1/s"),
    ("utility", "utility"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, as declared in `BENCHMARK.json`: the ones every
/// workload measures. Workload-specific layers (`core.shard.*`,
/// `service.*`, `core.temper.*`) go to the results file and the printed
/// ledger only.
pub const PER_LAYER: [&str; 16] = [
    "workloads.generate_ms",
    "radio.gain_table_mb",
    "system.propose_ns",
    "system.score_ns",
    "system.apply_undo_ns",
    "system.evaluate_ms",
    "system.patch_us",
    "system.resync_ms",
    "core.anneal.proposals",
    "core.anneal.ns_per_proposal",
    "core.anneal.accept_share",
    "core.anneal.trigger_share",
    "core.anneal.objective_share",
    "bench.gen_lag_ms_p99",
    "bench.trace_overhead_share",
    "ledger.unattributed_share",
];

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_OUT: &str = ".bench_out";
/// Before the timed section, set-up runs at least this often, on each
/// allowed CPU in turn, and (except in smoke runs) until [`SETUP_MIN_S`]
/// has passed; `setup_s` is the median repetition, corrected for the
/// host's speed.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Offered load of `service_steady`, requests per second.
const STEADY_HZ: f64 = 2_000.0;

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Toy sizes through the same code, for tests.
    pub smoke: bool,
}

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Time of each set-up repetition, corrected for the host's speed
    /// ([`gauge`]).
    pub setup_s: Vec<f64>,
    /// One latency per operation (solve, request decision or re-solve),
    /// in run order; on closed loops corrected for the host's speed.
    pub latencies_ms: Vec<f64>,
    /// The median of `latencies_ms` over a closed loop, or in the
    /// service's fastest stretch ([`stats::best_window_median`]).
    pub latency_ms_p50: f64,
    pub throughput_ops_s: f64,
    /// Peak resident set at the end of the timed section, before the
    /// benchmark's own checks and probes allocate.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub utility: f64,
    /// Share of batches served at the Full tier, and the batch count
    /// (services only).
    pub full_tier_share: Option<(f64, usize)>,
    /// Failed checks, described (the first few).
    pub failures: Vec<String>,
    pub failed_checks: u64,
    pub layers: Ledger,
}

impl Run {
    /// Records a check; when it fails, `ops` operations count as failed.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.failed_checks += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// A closed loop's latency and throughput: the median corrected
    /// operation, and operations per second of corrected time.
    pub fn summarise_closed_loop(&mut self) {
        self.latency_ms_p50 = median(&self.latencies_ms);
        self.throughput_ops_s = 1e3 / mean(&self.latencies_ms);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `set_up` repeatedly (see [`SETUP_MIN_REPS`]), each time after a
/// gauge reading and on the next CPU, recording its corrected time in
/// `run.setup_s`, and returns the last result. Earlier results are
/// dropped before the next repetition starts, so only one is ever held.
pub fn repeat_setup<T>(
    settings: &Settings,
    run: &mut Run,
    gauge: &mut Gauge,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut hopper = Hopper::new();
    let start = Instant::now();
    loop {
        let slowdown = gauge.read();
        let t0 = Instant::now();
        let ready = set_up()?;
        run.setup_s.push(t0.elapsed().as_secs_f64() / slowdown);
        let long_enough = settings.smoke || start.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if run.setup_s.len() >= SETUP_MIN_REPS && long_enough {
            return Ok(ready);
        }
        hopper.hop();
    }
}

/// Derives an independent seed for item `i` of stream `stream`
/// (SplitMix64 finalizer over the mixed inputs).
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
        .wrapping_add(i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_pass(workload: &str, settings: &Settings, tracer: &mut Tracer) -> Result<Run, String> {
    let steady = if settings.smoke {
        STEADY_HZ / 10.0
    } else {
        STEADY_HZ
    };
    match workload {
        "paper_solve" => paper::run(settings, tracer),
        "service_steady" => service::run(settings, tracer, steady),
        "city_cold" => city::run_cold(settings, tracer),
        "city_churn" => city::run_churn(settings, tracer),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// A finished measurement, ready to print and save.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Declared metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<(String, f64, String)>,
    /// Undeclared metrics that `compare` judges, as `(name, value, unit,
    /// samples)`: the reportable latency tails and, on the services,
    /// `full_tier_share`.
    pub judged: Vec<(String, f64, String, usize)>,
    /// Every layer number the traced run took.
    pub layers: Ledger,
    pub failures: Vec<String>,
}

/// Runs one workload in this process: the untraced pass, and with
/// `traced` a second, traced pass whose layer numbers are reported.
pub fn measure(
    workload: &str,
    settings: &Settings,
    traced: bool,
    out: &Path,
) -> Result<Report, String> {
    let base = run_pass(workload, settings, &mut Tracer::new(false))?;
    let mut report = Report {
        workload: workload.to_string(),
        seed: settings.seed,
        seconds: settings.seconds,
        traced,
        smoke: settings.smoke,
        attempted: base.attempted,
        failed: base.failed,
        failures: base.failures.clone(),
        ..Report::default()
    };
    let mut failed_checks = base.failed_checks;
    let stem = format!(
        "{workload}-seed{}-{}-{}",
        settings.seed,
        if traced { "trace" } else { "e2e" },
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    );
    if traced {
        let mut tracer = Tracer::new(true);
        let mut run = run_pass(workload, settings, &mut tracer)?;
        let overhead = run.latency_ms_p50 / base.latency_ms_p50 - 1.0;
        run.layers
            .set("bench.trace_overhead_share", overhead, "share");
        let spans = out.join(format!("{stem}.spans.jsonl"));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        for name in PER_LAYER {
            let (value, unit) = run.layers.0.get(name).copied().unwrap_or((f64::NAN, ""));
            report
                .metrics
                .push((name.to_string(), value, unit.to_string()));
        }
        report.attempted += run.attempted;
        report.failed += run.failed;
        report.failures.extend(run.failures);
        failed_checks += run.failed_checks;
        report.layers = run.layers;
    } else {
        let values = [
            median(&base.setup_s),
            base.latency_ms_p50,
            base.throughput_ops_s,
            base.utility,
            base.peak_rss_mb,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            report
                .metrics
                .push((name.to_string(), value, unit.to_string()));
        }
        let samples = base.latencies_ms.len();
        for (name, value) in tails(&base.latencies_ms) {
            report
                .judged
                .push((format!("latency_ms_{name}"), value, "ms".into(), samples));
        }
        if let Some((share, batches)) = base.full_tier_share {
            report
                .judged
                .push(("full_tier_share".into(), share, "share".into(), batches));
        }
    }
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            failed_checks += 1;
            report
                .failures
                .push(format!("metric {name} was not measured"));
        }
    }
    report.correct = failed_checks == 0 && report.failed == 0;
    let path = out.join(format!("{stem}.json"));
    std::fs::write(&path, results_json(&report))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(report)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never part of a correct run) as null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The results file `compare` reads.
fn results_json(r: &Report) -> String {
    let entries = |items: Vec<String>| items.join(",");
    let metric = |(name, value, unit): &(String, f64, String)| {
        format!(
            "{{\"name\":{},\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        )
    };
    let judged = r
        .judged
        .iter()
        .map(|(name, value, unit, n)| {
            format!(
                "{{\"name\":{},\"value\":{},\"unit\":{},\"samples\":{n}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    let layers = r
        .layers
        .0
        .iter()
        .map(|(name, &(value, unit))| metric(&(name.clone(), value, unit.to_string())))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"nproc\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":[{}],\
         \"judged\":[{}],\"layers\":[{}],\"failures\":[{}]}}\n",
        json_str(&r.workload),
        r.seed,
        r.seconds,
        r.traced,
        r.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        r.correct,
        r.attempted,
        r.failed,
        entries(r.metrics.iter().map(metric).collect()),
        entries(judged),
        entries(layers),
        entries(r.failures.iter().map(|f| json_str(f)).collect()),
    )
}

/// The final stdout line: `metrics` keyed by name.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn print_report(r: &Report) {
    println!(
        "tsajs-bench {} seed={} seconds={} trace={} smoke={} nproc={}",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.traced),
        r.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for (name, value, unit, n) in &r.judged {
        println!("  {name:<32} {value:>16.6} {unit} (of {n} samples)");
    }
    for (name, &(value, unit)) in &r.layers.0 {
        if !PER_LAYER.contains(&name.as_str()) {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }
    if r.correct {
        println!("  checks: all passed ({} operations)", r.attempted);
    } else {
        println!(
            "  checks: {} of {} operations FAILED",
            r.failed, r.attempted
        );
        for f in &r.failures {
            println!("    {f}");
        }
    }
}

/// Parsed command line of a measurement.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    settings: Settings,
    traced: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: tsajs-bench --workload <paper_solve|service_steady|city_cold|\
city_churn|all> [--seed S] [--seconds T] [--trace [0|1]] [--out DIR] [--smoke]\n\
       tsajs-bench compare A/ B/ [--bounds BENCHMARK.json]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        settings: Settings {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.settings.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.settings.seconds = s;
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--smoke" => parsed.settings.smoke = true,
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

/// `--workload all`: each workload in its own child process, so that
/// `peak_rss_mb` is per workload. Prints each child's output and a final
/// line whose metrics are keyed `workload.metric`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.settings.seed.to_string()])
            .args(["--seconds", &args.settings.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.settings.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or("");
        let Ok(value) = serde_json::from_str::<serde_json::Value>(last) else {
            correct = false;
            continue;
        };
        correct &=
            output.status.success() && value.get("correct") == Some(&serde_json::Value::Bool(true));
        attempted += value.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += value.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        let names: Vec<&str> = if args.traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        for name in names {
            if let Some(m) = value.get("metrics").and_then(|m| m.get(name)) {
                metrics.push((
                    format!("{workload}.{name}"),
                    m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_string(),
                ));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("tsajs-bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tsajs-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&parsed.out) {
        eprintln!("tsajs-bench: creating {}: {e}", parsed.out.display());
        return ExitCode::FAILURE;
    }
    let outcome = if parsed.workload == "all" {
        run_all(&parsed)
    } else {
        measure(
            &parsed.workload,
            &parsed.settings,
            parsed.traced,
            &parsed.out,
        )
        .map(|report| {
            print_report(&report);
            println!(
                "{}",
                result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            report.correct
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tsajs-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_through_the_same_code() {
        let out = std::env::temp_dir().join(format!("tsajs-bench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out).expect("temporary dir");
        let settings = Settings {
            seed: DEFAULT_SEED,
            seconds: 0.2,
            smoke: true,
        };
        let start = Instant::now();
        for workload in WORKLOADS {
            let report = measure(workload, &settings, false, &out).expect("workload runs");
            assert!(report.correct, "{workload}: {:?}", report.failures);
            assert!(report.attempted > 0, "{workload} did nothing");
            assert_eq!(report.metrics.len(), END_TO_END.len());
        }
        let traced = measure("city_churn", &settings, true, &out).expect("traced run");
        assert!(traced.correct, "{:?}", traced.failures);
        assert!(traced.layers.get("core.shard.epoch_ms_p50").is_some());
        std::fs::remove_dir_all(&out).ok();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "smoke took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn arguments_accept_both_trace_spellings() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload city_cold --trace 0 --seed 23")).unwrap();
        assert!(!a.traced);
        assert_eq!(a.settings.seed, 23);
        let b = parse_args(&args("--workload all --trace --seconds 5")).unwrap();
        assert!(b.traced);
        assert_eq!(b.settings.seconds, 5.0);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload all --seconds 0")).is_err());
    }

    #[test]
    fn the_result_line_is_json_with_the_four_keys() {
        let line = result_line(true, 3, 0, &[("latency_ms_p50".into(), 1.25, "ms".into())]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_ms_p50"))
            .unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
    }
}
