//! # tsajs-cli
//!
//! The `tsajs-sim` command-line front end:
//!
//! ```text
//! tsajs-sim generate --users 20 --seed 7 --out scenario.json
//! tsajs-sim solve    --scenario scenario.json --solver tsajs --seed 7
//! tsajs-sim compare  --scenario scenario.json --seed 7
//! ```
//!
//! Scenarios are stored as JSON [`ScenarioSnapshot`]s, so a run is fully
//! reproducible from the file alone. The library half of the crate holds
//! the argument parsing and command logic so it is unit-testable; `main`
//! is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mec_baselines::{
    AllLocalSolver, ExhaustiveSolver, GreedySolver, HJtoraSolver, LocalSearchSolver, RandomSolver,
};
use mec_conformance::{run_conformance, write_violation_artifacts, ConformanceConfig};
use mec_online::{
    AdmissionPolicy, AdmitAll, CapacityGate, OnlineConfig, OnlineEngine, PoissonChurn,
};
use mec_scenario_spec::SpecError;
use mec_system::{Assignment, Scenario, ScenarioSnapshot, Solver, SystemEvaluation};
use mec_types::{Bits, BitsPerSecond, Cycles, Seconds, UserId};
use mec_viz::SvgScene;
use mec_workloads::{ExperimentParams, ScenarioGenerator};
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};
use tsajs::{ResolveMode, ShardConfig, ShardSolver, TemperingConfig, TsajsSolver, TtsaConfig};

/// Errors the CLI reports to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (unknown command/flag, missing value, parse error).
    Usage(String),
    /// Model-level failure (invalid scenario, solver error).
    Model(mec_types::Error),
    /// File I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Declarative scenario-spec failure (decode, validate, materialize).
    Spec(SpecError),
    /// A conformance sweep found invariant violations.
    Conformance(u64),
    /// A corpus run had failing or unloadable specs.
    Corpus(usize),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Model(e) => write!(f, "model error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Spec(e) => write!(f, "scenario spec error: {e}"),
            CliError::Conformance(n) => {
                write!(
                    f,
                    "conformance failed: {n} invariant violation(s), see report"
                )
            }
            CliError::Corpus(n) => write!(f, "corpus failed: {n} failing spec(s)"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<mec_types::Error> for CliError {
    fn from(e: mec_types::Error) -> Self {
        CliError::Model(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}
impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

/// The JSON report written by `solve --report`: the scheme, its score,
/// the chosen decision and the full per-user evaluation.
#[derive(Debug, Serialize)]
pub struct SolveReport {
    /// Solver display name.
    pub solver: String,
    /// Achieved system utility `J*(X)`.
    pub utility: f64,
    /// The offloading decision.
    pub decision: Assignment,
    /// Per-user metrics under the KKT allocation.
    pub evaluation: SystemEvaluation,
}

/// The usage banner.
pub const USAGE: &str = "\
tsajs-sim — multi-server MEC joint task scheduling (TSAJS reproduction)

USAGE:
  tsajs-sim generate [--users N] [--servers S] [--subchannels N]
                     [--workload-mcycles W] [--data-kb D] [--beta-time B]
                     [--output-kb D --downlink-mbps R]
                     [--seed SEED] --out FILE
  tsajs-sim solve    --scenario FILE [--solver NAME] [--seed SEED]
                     [--threads N] [--warm-resolves K] [--report FILE]
  tsajs-sim compare  --scenario FILE [--seed SEED] [--threads N]
  tsajs-sim render   --scenario FILE --out FILE.svg
                     [--solver NAME] [--seed SEED] [--threads N]
  tsajs-sim inspect  --scenario FILE
  tsajs-sim simulate [--users N] [--epochs E]
                     [--mobility pedestrian|vehicular]
                     [--solver NAME] [--seed SEED] [--threads N]
  tsajs-sim online   [--scenario FILE.toml | --users N [--servers S]
                     [--arrival-rate HZ] [--mean-sojourn SECS]
                     [--epoch-secs SECS] [--budget P] [--cold]
                     [--capacity N] [--admission reject|force-local]]
                     [--epochs E] [--seed SEED] [--threads N]
  tsajs-sim loadtest [--scenario FILE.toml] [--users N] [--slo-ms MS]
                     [--rate-lo HZ] [--rate-hi HZ] [--probe-secs S]
                     [--refine K] [--batch-size N] [--batch-age-ms MS]
                     [--queue-capacity N] [--threads N] [--seed SEED]
                     [--quick] [--out FILE] [--jsonl FILE]
                     [--metrics FILE]
  tsajs-sim conformance [--seeds N] [--seed BASE] [--deep]
                     [--out FILE] [--artifacts DIR]
  tsajs-sim corpus   [--dir DIR] [--verbose]

SOLVERS: tsajs (default), tempering, shard, hjtora, greedy,
         localsearch, random, exhaustive, alllocal

The `shard` solver is the city-scale engine: it partitions the cell
topology into clusters, solves each cluster on the worker pool, and
reconciles cross-cluster interference with pipelined Jacobi-with-aging
halo epochs. Use it for populations the monolithic annealer cannot hold
(U >= 100k). `--warm-resolves K` (shard only) chains K warm re-solves
after the cold solve under a deterministic rolling ~10% churn and
prints each objective; output is bit-identical at any thread count.

SCENARIO FILES: `--scenario` accepts either a legacy JSON snapshot
(written by `generate`) or a declarative spec — `.toml`, or `.json`
with a `schema_version` field. Declarative specs materialize from
`--seed`, so the same file plus the same seed is the same run.

`--threads N` caps the worker pool of the parallel solvers (tempering,
shard, exhaustive); the TSAJS_THREADS environment variable does
the same when no flag is given. Results are bit-identical at any
thread count.

The `online` command runs the event-driven engine (Poisson arrivals,
exponential sojourns, per-epoch warm-started re-solves) and writes one
JSON epoch report per line to stdout.

The `online` command either takes engine flags directly or a declarative
`--scenario` spec, whose `[online]` section, churn, admission and
`[[timeline]]` events (outages, flash crowds, load ramps, hotspot
drift) drive the run.

The `loadtest` command runs the closed-loop service harness: it
doubles the trial rate past `--rate-hi` until a probe fails, then
binary-searches the maximum sustainable arrival rate at a p99
decision-latency SLO against the micro-batching scheduler service
(lock-free snapshot reads, degradation tiers) and writes the verdict
to `--out` (default `BENCH_service.json`). `--scenario` supplies the
scenario template from a declarative spec; `--quick` selects the
CI-scale preset.
`--jsonl` streams the chosen probe's per-batch reports; `--metrics`
dumps the Prometheus text exposition.

The `conformance` command sweeps seeded fuzzed instances through the
invariant oracle, the solver differential panel and online seed-replay,
prints a JSON verdict report and exits non-zero on any violation.
With `--artifacts DIR`, every violation is written as a replayable
explicit `.toml` spec under DIR.

The `corpus` command runs every `*.toml` spec in a directory (default
`scenarios/`) and checks each spec's `[expect]` assertions.";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the usage banner.
    Help,
    /// Generate a scenario JSON file.
    Generate {
        /// Generation parameters.
        params: ExperimentParams,
        /// RNG seed.
        seed: u64,
        /// Output path.
        out: PathBuf,
    },
    /// Solve a scenario file with one solver.
    Solve {
        /// Scenario JSON path.
        scenario: PathBuf,
        /// Solver name.
        solver: String,
        /// Solver seed.
        seed: u64,
        /// Worker-pool cap for parallel solvers (`None` = auto).
        threads: Option<usize>,
        /// Warm shard re-solves to chain after the cold solve under a
        /// deterministic ~10% churn per repeat (shard solver only).
        warm_resolves: Option<usize>,
        /// Optional JSON report path.
        report: Option<PathBuf>,
    },
    /// Run every solver on a scenario file.
    Compare {
        /// Scenario JSON path.
        scenario: PathBuf,
        /// Solver seed.
        seed: u64,
        /// Worker-pool cap for parallel solvers (`None` = auto).
        threads: Option<usize>,
    },
    /// Solve a scenario file and write the schedule as an SVG figure.
    Render {
        /// Scenario JSON path (must carry user positions).
        scenario: PathBuf,
        /// SVG output path.
        out: PathBuf,
        /// Solver name.
        solver: String,
        /// Solver seed.
        seed: u64,
        /// Worker-pool cap for parallel solvers (`None` = auto).
        threads: Option<usize>,
    },
    /// Summarize a scenario file (dimensions, radio health, local costs).
    Inspect {
        /// Scenario file path (snapshot JSON or declarative spec).
        scenario: PathBuf,
        /// Materialization seed for declarative specs.
        seed: u64,
    },
    /// Event-driven online run with churn; one JSON epoch report per line.
    Online {
        /// Declarative spec driving the run (conflicts with the engine
        /// flags below; `--epochs`/`--seed` stay available).
        scenario: Option<PathBuf>,
        /// Initial population (arrives at t = 0).
        users: usize,
        /// Scheduling epochs to run (`None` = 20, or the spec's count).
        epochs: Option<usize>,
        /// Number of cells / MEC servers.
        servers: usize,
        /// Poisson arrival rate in users per second.
        arrival_rate: f64,
        /// Mean exponential sojourn in seconds.
        mean_sojourn: f64,
        /// Simulated seconds between scheduling epochs.
        epoch_secs: f64,
        /// Warm-refresh proposal budget.
        budget: u64,
        /// Cold-solve every epoch instead of warm-starting.
        cold: bool,
        /// Scheduled-population cap (admission control); `None` admits all.
        capacity: Option<usize>,
        /// Overflow handling at the cap: `reject` or `force-local`.
        admission: String,
        /// Seed.
        seed: u64,
        /// Worker-pool cap for tempered warm re-solves (`None` = auto).
        threads: Option<usize>,
    },
    /// Closed-loop service loadtest: search the maximum sustainable
    /// arrival rate at a p99 decision-latency SLO.
    Loadtest {
        /// Declarative spec supplying the scenario template (`None` =
        /// paper defaults).
        scenario: Option<PathBuf>,
        /// Standing population prefilled before the clock starts.
        users: Option<usize>,
        /// p99 decision-latency SLO in milliseconds.
        slo_ms: Option<f64>,
        /// Rate-search floor in Hz.
        rate_lo: Option<f64>,
        /// First rate probed above the floor in Hz, doubled while
        /// sustained.
        rate_hi: Option<f64>,
        /// Wall-clock seconds per probe.
        probe_secs: Option<f64>,
        /// Binary-search refinement probes.
        refine: Option<usize>,
        /// Micro-batch size bound.
        batch_size: Option<usize>,
        /// Micro-batch age bound in milliseconds.
        batch_age_ms: Option<f64>,
        /// Ingestion-queue bound (the backpressure surface).
        queue_capacity: Option<usize>,
        /// Worker-pool cap for the service solve loop (`None` = auto).
        threads: Option<usize>,
        /// Seed for the offered-load processes and the service.
        seed: u64,
        /// Run the CI-scale preset instead of the full one.
        quick: bool,
        /// Verdict path (default `BENCH_service.json`).
        out: PathBuf,
        /// Stream the chosen probe's per-batch JSONL reports here.
        jsonl: Option<PathBuf>,
        /// Dump the Prometheus text exposition here.
        metrics: Option<PathBuf>,
    },
    /// Seeded conformance sweep; emits a JSON verdict report.
    Conformance {
        /// Number of fuzzed scenario seeds to sweep.
        seeds: u64,
        /// First seed of the sweep.
        base_seed: u64,
        /// Use the nightly deep profile instead of the standard gate.
        deep: bool,
        /// Optional JSON report path (also printed to stdout).
        out: Option<PathBuf>,
        /// Directory for replayable violation artifacts (`.toml` specs).
        artifacts: Option<PathBuf>,
    },
    /// Run a directory of scenario specs and check their expectations.
    Corpus {
        /// Directory holding `*.toml` specs.
        dir: PathBuf,
        /// Print per-spec assertion counts even when green.
        verbose: bool,
    },
    /// Dynamic mobility simulation with per-epoch re-scheduling.
    Simulate {
        /// Number of users.
        users: usize,
        /// Scheduling epochs to run.
        epochs: usize,
        /// Mobility profile name.
        mobility: String,
        /// Solver name.
        solver: String,
        /// Seed.
        seed: u64,
        /// Worker-pool cap for parallel solvers (`None` = auto).
        threads: Option<usize>,
    },
}

fn take_value<'a, I: Iterator<Item = &'a str>>(
    flag: &str,
    iter: &mut I,
) -> Result<&'a str, CliError> {
    iter.next()
        .ok_or_else(|| CliError::Usage(format!("flag {flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("invalid value `{value}` for {flag}")))
}

fn parse_threads(value: &str) -> Result<usize, CliError> {
    let n: usize = parse_num("--threads", value)?;
    if n == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    Ok(n)
}

/// Parses a command line (without the program name). `--help`, `-h` or
/// `help`, alone or in place of any command's flag, parses as
/// [`Command::Help`].
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands/flags, missing values
/// or unparseable numbers.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Command, CliError> {
    let mut iter = args.iter().map(|s| s.as_ref());
    let command = iter
        .next()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    match command {
        "generate" => {
            let mut params = ExperimentParams::paper_default().with_users(20);
            let mut seed = 0u64;
            let mut out: Option<PathBuf> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--users" => params.num_users = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--servers" => {
                        params.num_servers = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--subchannels" => {
                        params.num_subchannels = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--workload-mcycles" => {
                        let w: f64 = parse_num(flag, take_value(flag, &mut iter)?)?;
                        params.task_workload = Cycles::from_mega(w);
                    }
                    "--data-kb" => {
                        let d: f64 = parse_num(flag, take_value(flag, &mut iter)?)?;
                        params.task_data = Bits::from_kilobytes(d);
                    }
                    "--beta-time" => {
                        params.beta_time = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--output-kb" => {
                        let d: f64 = parse_num(flag, take_value(flag, &mut iter)?)?;
                        params.task_output = Some(Bits::from_kilobytes(d));
                    }
                    "--downlink-mbps" => {
                        let r: f64 = parse_num(flag, take_value(flag, &mut iter)?)?;
                        params.downlink_rate = Some(BitsPerSecond::new(r * 1e6));
                    }
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--out" => out = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    other => return unmatched_flag(other),
                }
            }
            let out = out.ok_or_else(|| CliError::Usage("generate requires --out".into()))?;
            if params.task_output.is_some() != params.downlink_rate.is_some() {
                return Err(CliError::Usage(
                    "--output-kb and --downlink-mbps must be given together".into(),
                ));
            }
            Ok(Command::Generate { params, seed, out })
        }
        "solve" => {
            let mut scenario: Option<PathBuf> = None;
            let mut solver = "tsajs".to_string();
            let mut seed = 0u64;
            let mut threads: Option<usize> = None;
            let mut warm_resolves: Option<usize> = None;
            let mut report: Option<PathBuf> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--scenario" => scenario = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--solver" => solver = take_value(flag, &mut iter)?.to_string(),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--threads" => threads = Some(parse_threads(take_value(flag, &mut iter)?)?),
                    "--warm-resolves" => {
                        let k: usize = parse_num(flag, take_value(flag, &mut iter)?)?;
                        if k == 0 {
                            return Err(CliError::Usage(
                                "--warm-resolves must be at least 1".into(),
                            ));
                        }
                        warm_resolves = Some(k);
                    }
                    "--report" => report = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    other => return unmatched_flag(other),
                }
            }
            let scenario =
                scenario.ok_or_else(|| CliError::Usage("solve requires --scenario".into()))?;
            if warm_resolves.is_some()
                && !matches!(
                    solver.to_ascii_lowercase().as_str(),
                    "shard" | "tsajs-shard"
                )
            {
                return Err(CliError::Usage(
                    "--warm-resolves is only supported by the shard solver".into(),
                ));
            }
            Ok(Command::Solve {
                scenario,
                solver,
                seed,
                threads,
                warm_resolves,
                report,
            })
        }
        "compare" => {
            let mut scenario: Option<PathBuf> = None;
            let mut seed = 0u64;
            let mut threads: Option<usize> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--scenario" => scenario = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--threads" => threads = Some(parse_threads(take_value(flag, &mut iter)?)?),
                    other => return unmatched_flag(other),
                }
            }
            let scenario =
                scenario.ok_or_else(|| CliError::Usage("compare requires --scenario".into()))?;
            Ok(Command::Compare {
                scenario,
                seed,
                threads,
            })
        }
        "render" => {
            let mut scenario: Option<PathBuf> = None;
            let mut out: Option<PathBuf> = None;
            let mut solver = "tsajs".to_string();
            let mut seed = 0u64;
            let mut threads: Option<usize> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--scenario" => scenario = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--out" => out = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--solver" => solver = take_value(flag, &mut iter)?.to_string(),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--threads" => threads = Some(parse_threads(take_value(flag, &mut iter)?)?),
                    other => return unmatched_flag(other),
                }
            }
            Ok(Command::Render {
                scenario: scenario
                    .ok_or_else(|| CliError::Usage("render requires --scenario".into()))?,
                out: out.ok_or_else(|| CliError::Usage("render requires --out".into()))?,
                solver,
                seed,
                threads,
            })
        }
        "inspect" => {
            let mut scenario: Option<PathBuf> = None;
            let mut seed = 0u64;
            while let Some(flag) = iter.next() {
                match flag {
                    "--scenario" => scenario = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    other => return unmatched_flag(other),
                }
            }
            let scenario =
                scenario.ok_or_else(|| CliError::Usage("inspect requires --scenario".into()))?;
            Ok(Command::Inspect { scenario, seed })
        }
        "simulate" => {
            let mut users = 20usize;
            let mut epochs = 10usize;
            let mut mobility = "pedestrian".to_string();
            let mut solver = "tsajs".to_string();
            let mut seed = 0u64;
            let mut threads: Option<usize> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--users" => users = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--epochs" => epochs = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--mobility" => mobility = take_value(flag, &mut iter)?.to_string(),
                    "--solver" => solver = take_value(flag, &mut iter)?.to_string(),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--threads" => threads = Some(parse_threads(take_value(flag, &mut iter)?)?),
                    other => return unmatched_flag(other),
                }
            }
            Ok(Command::Simulate {
                users,
                epochs,
                mobility,
                solver,
                seed,
                threads,
            })
        }
        "online" => {
            let mut scenario: Option<PathBuf> = None;
            let mut users = 30usize;
            let mut epochs: Option<usize> = None;
            let mut servers = ExperimentParams::paper_default().num_servers;
            let mut arrival_rate = 0.3f64;
            let mut mean_sojourn = 100.0f64;
            let mut epoch_secs = 10.0f64;
            let mut budget = 3_000u64;
            let mut cold = false;
            let mut capacity: Option<usize> = None;
            let mut admission = "reject".to_string();
            let mut seed = 0u64;
            let mut threads: Option<usize> = None;
            // Engine flags a declarative spec supersedes; mixing them with
            // --scenario is ambiguous and rejected below. Execution knobs
            // (--epochs, --seed, --threads) combine freely with a spec.
            let mut engine_flags: Vec<&str> = Vec::new();
            while let Some(flag) = iter.next() {
                match flag {
                    "--scenario" => scenario = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--users" => users = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--epochs" => epochs = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--servers" => servers = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--arrival-rate" => {
                        arrival_rate = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--mean-sojourn" => {
                        mean_sojourn = parse_num(flag, take_value(flag, &mut iter)?)?
                    }
                    "--epoch-secs" => epoch_secs = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--budget" => budget = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--cold" => cold = true,
                    "--capacity" => capacity = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--admission" => admission = take_value(flag, &mut iter)?.to_string(),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--threads" => threads = Some(parse_threads(take_value(flag, &mut iter)?)?),
                    other => return unmatched_flag(other),
                }
                if !matches!(flag, "--scenario" | "--epochs" | "--seed" | "--threads") {
                    engine_flags.push(flag);
                }
            }
            if scenario.is_some() && !engine_flags.is_empty() {
                return Err(CliError::Usage(format!(
                    "--scenario conflicts with {}: the spec defines the run \
                     (only --epochs, --seed and --threads combine with it)",
                    engine_flags.join(", ")
                )));
            }
            if !matches!(admission.as_str(), "reject" | "force-local") {
                return Err(CliError::Usage(format!(
                    "unknown admission policy `{admission}` (reject|force-local)"
                )));
            }
            Ok(Command::Online {
                scenario,
                users,
                epochs,
                servers,
                arrival_rate,
                mean_sojourn,
                epoch_secs,
                budget,
                cold,
                capacity,
                admission,
                seed,
                threads,
            })
        }
        "loadtest" => {
            let mut scenario: Option<PathBuf> = None;
            let mut users: Option<usize> = None;
            let mut slo_ms: Option<f64> = None;
            let mut rate_lo: Option<f64> = None;
            let mut rate_hi: Option<f64> = None;
            let mut probe_secs: Option<f64> = None;
            let mut refine: Option<usize> = None;
            let mut batch_size: Option<usize> = None;
            let mut batch_age_ms: Option<f64> = None;
            let mut queue_capacity: Option<usize> = None;
            let mut threads: Option<usize> = None;
            let mut seed = 0u64;
            let mut quick = false;
            let mut out = PathBuf::from("BENCH_service.json");
            let mut jsonl: Option<PathBuf> = None;
            let mut metrics: Option<PathBuf> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--scenario" => scenario = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--users" => users = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--slo-ms" => slo_ms = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--rate-lo" => rate_lo = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--rate-hi" => rate_hi = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--probe-secs" => {
                        probe_secs = Some(parse_num(flag, take_value(flag, &mut iter)?)?)
                    }
                    "--refine" => refine = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--batch-size" => {
                        batch_size = Some(parse_num(flag, take_value(flag, &mut iter)?)?)
                    }
                    "--batch-age-ms" => {
                        batch_age_ms = Some(parse_num(flag, take_value(flag, &mut iter)?)?)
                    }
                    "--queue-capacity" => {
                        queue_capacity = Some(parse_num(flag, take_value(flag, &mut iter)?)?)
                    }
                    "--threads" => threads = Some(parse_threads(take_value(flag, &mut iter)?)?),
                    "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--quick" => quick = true,
                    "--out" => out = PathBuf::from(take_value(flag, &mut iter)?),
                    "--jsonl" => jsonl = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--metrics" => metrics = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    other => return unmatched_flag(other),
                }
            }
            Ok(Command::Loadtest {
                scenario,
                users,
                slo_ms,
                rate_lo,
                rate_hi,
                probe_secs,
                refine,
                batch_size,
                batch_age_ms,
                queue_capacity,
                threads,
                seed,
                quick,
                out,
                jsonl,
                metrics,
            })
        }
        "conformance" => {
            let mut seeds: Option<u64> = None;
            let mut base_seed = 0u64;
            let mut deep = false;
            let mut out: Option<PathBuf> = None;
            let mut artifacts: Option<PathBuf> = None;
            while let Some(flag) = iter.next() {
                match flag {
                    "--seeds" => seeds = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
                    "--seed" => base_seed = parse_num(flag, take_value(flag, &mut iter)?)?,
                    "--deep" => deep = true,
                    "--out" => out = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    "--artifacts" => artifacts = Some(PathBuf::from(take_value(flag, &mut iter)?)),
                    other => return unmatched_flag(other),
                }
            }
            // Default seed count follows the chosen profile.
            let seeds = seeds.unwrap_or_else(|| {
                if deep {
                    ConformanceConfig::deep().seeds
                } else {
                    ConformanceConfig::standard().seeds
                }
            });
            if seeds == 0 {
                return Err(CliError::Usage("--seeds must be at least 1".into()));
            }
            Ok(Command::Conformance {
                seeds,
                base_seed,
                deep,
                out,
                artifacts,
            })
        }
        "corpus" => {
            let mut dir = PathBuf::from("scenarios");
            let mut verbose = false;
            while let Some(flag) = iter.next() {
                match flag {
                    "--dir" => dir = PathBuf::from(take_value(flag, &mut iter)?),
                    "--verbose" => verbose = true,
                    other => return unmatched_flag(other),
                }
            }
            Ok(Command::Corpus { dir, verbose })
        }
        "--help" | "-h" | "help" => Ok(Command::Help),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// A token no flag of the command matched: a request for help, or an
/// unknown flag.
fn unmatched_flag(flag: &str) -> Result<Command, CliError> {
    match flag {
        "--help" | "-h" | "help" => Ok(Command::Help),
        other => Err(CliError::Usage(format!("unknown flag {other}"))),
    }
}

/// Builds a solver by name.
///
/// `threads` caps the worker pool of the parallel solvers (tempering,
/// shard, exhaustive); `None` defers to `TSAJS_THREADS` and the
/// machine's available parallelism. Thread count never changes results.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for an unknown solver name.
pub fn build_solver(
    name: &str,
    seed: u64,
    threads: Option<usize>,
) -> Result<Box<dyn Solver>, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "tsajs" => {
            let mut solver = TsajsSolver::new(TtsaConfig::paper_default().with_seed(seed));
            if let Some(n) = threads {
                solver = solver.with_threads(n);
            }
            Box::new(solver)
        }
        "tempering" | "tsajs-pt" => {
            let mut solver = TsajsSolver::new(TtsaConfig::paper_default().with_seed(seed))
                .with_tempering(TemperingConfig::paper_default());
            if let Some(n) = threads {
                solver = solver.with_threads(n);
            }
            Box::new(solver)
        }
        "shard" | "tsajs-shard" => {
            let mut solver = ShardSolver::new(ShardConfig::paper_default().with_seed(seed));
            if let Some(n) = threads {
                solver = solver.with_threads(n);
            }
            Box::new(solver)
        }
        "hjtora" => Box::new(HJtoraSolver::new()),
        "greedy" => Box::new(GreedySolver::new()),
        "localsearch" | "local-search" => Box::new(LocalSearchSolver::with_seed(seed)),
        "random" => Box::new(RandomSolver::with_seed(seed)),
        "exhaustive" => {
            let mut solver = ExhaustiveSolver::new();
            if let Some(n) = threads {
                solver = solver.with_threads(n);
            }
            Box::new(solver)
        }
        "alllocal" | "all-local" => Box::new(AllLocalSolver::new()),
        other => return Err(CliError::Usage(format!("unknown solver `{other}`"))),
    })
}

/// Whether a scenario file holds a *declarative* spec (the versioned
/// TOML/JSON `ScenarioSpec`) rather than a legacy JSON snapshot: `.toml`
/// always does, `.json` does iff it carries a `schema_version` field.
fn is_declarative(path: &Path, text: &str) -> bool {
    if path.extension().and_then(|e| e.to_str()) == Some("toml") {
        return true;
    }
    match serde_json::from_str::<serde_json::Value>(text) {
        Ok(serde_json::Value::Object(entries)) => {
            entries.iter().any(|(k, _)| k == "schema_version")
        }
        _ => false,
    }
}

/// Loads a declarative spec from a TOML or JSON file.
///
/// # Errors
///
/// I/O and spec decode/validation errors.
pub fn load_declarative_spec(path: &Path) -> Result<mec_scenario_spec::ScenarioSpec, CliError> {
    Ok(mec_scenario_spec::load_spec(path)?)
}

/// Loads a scenario file: a declarative spec (materialized at `seed`) or
/// a legacy JSON snapshot (seed-independent).
///
/// # Errors
///
/// I/O, JSON, spec and model-validation errors.
pub fn load_scenario(path: &Path, seed: u64) -> Result<Scenario, CliError> {
    let text = std::fs::read_to_string(path)?;
    if is_declarative(path, &text) {
        let spec = load_declarative_spec(path)?;
        return Ok(spec.materialize(seed)?);
    }
    let spec: ScenarioSnapshot = serde_json::from_str(&text)?;
    Ok(spec.into_scenario()?)
}

/// `solve --solver shard --warm-resolves K`: one cold sharded solve,
/// then `K` warm re-solves through [`ShardSolver::resolve_from`] under a
/// deterministic rolling ~10% churn — in repeat `r`, every user whose
/// index is ≡ `r` (mod 10) departs and re-arrives, everyone else
/// survives in place. The objectives are printed in Rust's shortest
/// round-trip form, so the transcript shows every bit; they are a pure
/// function of the scenario and seed, bit-identical at any `--threads`
/// value, and the CI shard-smoke job diffs exactly that.
fn run_warm_resolves(
    scenario: &Scenario,
    seed: u64,
    threads: Option<usize>,
    repeats: usize,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut solver = ShardSolver::new(ShardConfig::paper_default().with_seed(seed));
    if let Some(n) = threads {
        solver = solver.with_threads(n);
    }
    let cold = solver.solve(scenario)?;
    writeln!(out, "solver      : {}", solver.name())?;
    writeln!(out, "cold        : {}", cold.utility)?;
    for r in 1..=repeats {
        let prev = solver
            .last_outcome()
            .expect("solve records an outcome")
            .clone();
        let map: Vec<Option<UserId>> = (0..scenario.num_users())
            .map(|v| {
                if v % 10 == r % 10 {
                    None
                } else {
                    Some(UserId::new(v))
                }
            })
            .collect();
        let solution = solver.resolve_from(scenario, &prev, &map)?;
        let outcome = solver.last_outcome().expect("resolve records an outcome");
        writeln!(
            out,
            "warm {r:<3}    : {} (resolved {}, reused {})",
            solution.utility, outcome.resolved_clusters, outcome.reused_clusters
        )?;
    }
    Ok(())
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Propagates usage, model, I/O and JSON errors.
pub fn run(command: Command, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate {
            params,
            seed,
            out: path,
        } => {
            let (scenario, positions) =
                ScenarioGenerator::new(params).generate_with_positions(seed)?;
            let spec = ScenarioSnapshot::from_scenario(&scenario).with_positions(positions)?;
            std::fs::write(&path, serde_json::to_string_pretty(&spec)?)?;
            writeln!(
                out,
                "wrote scenario (U={}, S={}, N={}, seed={}) to {}",
                scenario.num_users(),
                scenario.num_servers(),
                scenario.num_subchannels(),
                seed,
                path.display()
            )?;
            Ok(())
        }
        Command::Solve {
            scenario,
            solver,
            seed,
            threads,
            warm_resolves,
            report,
        } => {
            let scenario = load_scenario(&scenario, seed)?;
            if let Some(repeats) = warm_resolves {
                return run_warm_resolves(&scenario, seed, threads, repeats, out);
            }
            let mut solver = build_solver(&solver, seed, threads)?;
            let solution = solver.solve(&scenario)?;
            let evaluation = solution.evaluate(&scenario)?;
            writeln!(out, "solver      : {}", solver.name())?;
            writeln!(out, "utility     : {:.6}", solution.utility)?;
            writeln!(
                out,
                "offloaded   : {}/{}",
                evaluation.num_offloaded,
                scenario.num_users()
            )?;
            writeln!(
                out,
                "avg delay   : {:.4} s",
                evaluation.average_completion_time().as_secs()
            )?;
            writeln!(
                out,
                "avg energy  : {:.4} J",
                evaluation.average_energy().as_joules()
            )?;
            writeln!(
                out,
                "evals/time  : {} in {:.1} ms",
                solution.stats.objective_evaluations,
                solution.stats.elapsed.as_secs_f64() * 1e3
            )?;
            if let Some(path) = report {
                let report = SolveReport {
                    solver: solver.name().to_string(),
                    utility: solution.utility,
                    decision: solution.assignment.clone(),
                    evaluation,
                };
                std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
                writeln!(out, "report      : {}", path.display())?;
            }
            Ok(())
        }
        Command::Render {
            scenario,
            out: out_path,
            solver,
            seed,
            threads,
        } => {
            let text = std::fs::read_to_string(&scenario)?;
            let spec: ScenarioSnapshot = serde_json::from_str(&text)?;
            let positions = spec.positions.clone().ok_or_else(|| {
                CliError::Usage(
                    "this scenario file carries no user positions; regenerate it with \
                     a current `tsajs-sim generate`"
                        .into(),
                )
            })?;
            let scenario = spec.into_scenario()?;
            let mut solver = build_solver(&solver, seed, threads)?;
            let solution = solver.solve(&scenario)?;
            // Rebuild the layout from the paper's ISD; stations in specs
            // always come from the hexagonal generator.
            let layout = mec_topology::NetworkLayout::hexagonal(
                scenario.num_servers(),
                mec_types::constants::INTER_SITE_DISTANCE,
            )?;
            let svg = SvgScene::new(&layout)
                .with_users(&positions)
                .with_assignment(&solution.assignment)
                .render();
            std::fs::write(&out_path, &svg)?;
            writeln!(
                out,
                "wrote {} ({} bytes), J = {:.4}, {}/{} offloaded",
                out_path.display(),
                svg.len(),
                solution.utility,
                solution.assignment.num_offloaded(),
                scenario.num_users()
            )?;
            Ok(())
        }
        Command::Inspect { scenario, seed } => {
            let scenario = load_scenario(&scenario, seed)?;
            writeln!(out, "users        : {}", scenario.num_users())?;
            writeln!(out, "servers      : {}", scenario.num_servers())?;
            writeln!(out, "subchannels  : {}", scenario.num_subchannels())?;
            writeln!(
                out,
                "bandwidth    : {:.1} MHz ({:.2} MHz per subchannel)",
                scenario.ofdma().bandwidth().as_mega(),
                scenario.ofdma().subchannel_width().as_mega()
            )?;
            writeln!(
                out,
                "noise        : {:.1} dBm",
                scenario.noise().to_dbm().as_dbm()
            )?;
            match scenario.downlink() {
                Some(rate) => writeln!(out, "downlink     : {:.1} Mbit/s", rate.as_bps() / 1e6)?,
                None => writeln!(out, "downlink     : not modeled")?,
            }
            let gains = scenario.gains();
            writeln!(
                out,
                "best-link dB : p10 {:.1} / p50 {:.1} / p90 {:.1}",
                gains.best_gain_percentile_db(0.1),
                gains.best_gain_percentile_db(0.5),
                gains.best_gain_percentile_db(0.9)
            )?;
            // Aggregate local costs.
            let (mut t_sum, mut e_sum) = (0.0, 0.0);
            for u in scenario.user_ids() {
                let lc = scenario.local_cost(u);
                t_sum += lc.time.as_secs();
                e_sum += lc.energy.as_joules();
            }
            let n = scenario.num_users() as f64;
            writeln!(
                out,
                "local cost   : avg {:.3} s / {:.3} J per task",
                t_sum / n,
                e_sum / n
            )?;
            Ok(())
        }
        Command::Simulate {
            users,
            epochs,
            mobility,
            solver,
            seed,
            threads,
        } => {
            let profile = match mobility.as_str() {
                "pedestrian" => OnlineConfig::pedestrian(),
                "vehicular" => OnlineConfig::vehicular(),
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown mobility profile `{other}` (pedestrian|vehicular)"
                    )))
                }
            };
            // Validate the name eagerly so a bad one errors before the run.
            build_solver(&solver, seed, threads)?;
            let params = ExperimentParams::paper_default().with_users(users);
            let mut engine = OnlineEngine::with_static_population(params, profile, seed)?;
            let make_solver = |epoch_seed| {
                build_solver(&solver, epoch_seed, threads)
                    .expect("solver name validated before the run")
            };
            writeln!(
                out,
                "epoch | utility | offloaded | handovers | reassignments"
            )?;
            let mut utility_sum = 0.0;
            for _ in 0..epochs {
                let r = engine.step_with_solver(&make_solver)?;
                writeln!(
                    out,
                    "{:>5} | {:>7.3} | {:>9} | {:>9} | {:>13}",
                    r.epoch, r.utility, r.num_offloaded, r.handovers, r.reassignments
                )?;
                utility_sum += r.utility;
            }
            let average = utility_sum / epochs.max(1) as f64;
            writeln!(out, "avg utility: {average:.3}")?;
            Ok(())
        }
        Command::Online {
            scenario,
            users,
            epochs,
            servers,
            arrival_rate,
            mean_sojourn,
            epoch_secs,
            budget,
            cold,
            capacity,
            admission,
            seed,
            threads,
        } => {
            if let Some(path) = scenario {
                // A declarative spec carries the whole run: population,
                // churn, admission, SLA and the event timeline.
                let spec = load_declarative_spec(&path)?;
                let mut plan = spec.online_plan(seed)?;
                if threads.is_some() {
                    plan.engine.set_threads(threads);
                }
                let epochs = epochs.unwrap_or(plan.epochs);
                for _ in 0..epochs {
                    let report = plan.engine.step()?;
                    writeln!(out, "{}", serde_json::to_string(&report)?)?;
                }
                return Ok(());
            }
            let epochs = epochs.unwrap_or(20);
            let policy: Box<dyn AdmissionPolicy> = match (capacity, admission.as_str()) {
                (None, _) => Box::new(AdmitAll),
                (Some(cap), "reject") => Box::new(CapacityGate::rejecting(cap)),
                (Some(cap), "force-local") => Box::new(CapacityGate::forcing_local(cap)),
                (_, other) => {
                    return Err(CliError::Usage(format!(
                        "unknown admission policy `{other}` (reject|force-local)"
                    )))
                }
            };
            let mut params = ExperimentParams::paper_default();
            params.num_servers = servers;
            let mode = if cold {
                ResolveMode::Cold
            } else {
                ResolveMode::warm(budget)
            };
            let config = OnlineConfig::pedestrian()
                .with_epoch_duration(Seconds::new(epoch_secs))
                .with_mode(mode)
                .with_threads(threads);
            let churn = PoissonChurn::new(users, arrival_rate, Seconds::new(mean_sojourn), seed)?;
            let mut engine = OnlineEngine::new(params, config, Box::new(churn), policy, seed)?;
            for _ in 0..epochs {
                let report = engine.step()?;
                writeln!(out, "{}", serde_json::to_string(&report)?)?;
            }
            Ok(())
        }
        Command::Loadtest {
            scenario,
            users,
            slo_ms,
            rate_lo,
            rate_hi,
            probe_secs,
            refine,
            batch_size,
            batch_age_ms,
            queue_capacity,
            threads,
            seed,
            quick,
            out: report_path,
            jsonl,
            metrics,
        } => {
            use mec_service::{run_loadtest, BatchPolicy, LoadtestConfig};
            let mut cfg = if quick {
                LoadtestConfig::quick(seed)
            } else {
                LoadtestConfig::full(seed)
            };
            if let Some(path) = &scenario {
                // A declarative spec supplies the scenario template
                // (topology, radio, task, preferences); the service
                // re-solves it at the live population per batch.
                let spec = load_declarative_spec(path)?;
                cfg.service.params = spec.to_experiment_params()?;
            }
            cfg.service.threads = threads;
            cfg.service.seed = seed;
            if let Some(n) = batch_size {
                cfg.service.batch.max_size = n;
            }
            if let Some(ms) = batch_age_ms {
                cfg.service.batch = BatchPolicy {
                    max_size: cfg.service.batch.max_size,
                    max_age: Seconds::new(ms / 1e3),
                };
            }
            if let Some(n) = users {
                cfg.initial_users = n;
            }
            if let Some(ms) = slo_ms {
                cfg.slo_p99 = Seconds::new(ms / 1e3);
            }
            if let Some(hz) = rate_lo {
                cfg.rate_lo_hz = hz;
            }
            if let Some(hz) = rate_hi {
                cfg.rate_hi_hz = hz;
            }
            if let Some(s) = probe_secs {
                cfg.probe_secs = s;
            }
            if let Some(k) = refine {
                cfg.refine_steps = k;
            }
            if let Some(n) = queue_capacity {
                cfg.queue_capacity = n;
            }
            let mut lines: Vec<String> = Vec::new();
            let outcome = run_loadtest(&cfg, |probe| {
                lines.push(format!(
                    "probe {:>8.1} Hz : p99 {:>8.2} ms, {} decided, {} rejected, \
                     tiers {:.0}/{:.0}/{:.0}% -> {}",
                    probe.rate_hz,
                    probe.p99_ms,
                    probe.decided,
                    probe.rejected,
                    probe.tier_occupancy[0] * 100.0,
                    probe.tier_occupancy[1] * 100.0,
                    probe.tier_occupancy[2] * 100.0,
                    if probe.sustained {
                        "sustained"
                    } else {
                        "failed"
                    }
                ));
            })?;
            for line in &lines {
                writeln!(out, "{line}")?;
            }
            writeln!(
                out,
                "max sustainable rate: {:.1} Hz at p99 <= {:.1} ms ({} probes){}",
                outcome.report.max_sustainable_hz,
                outcome.report.slo_p99_ms,
                outcome.report.probes.len(),
                if outcome.report.ceiling_reached {
                    ", a lower bound: every doubling above --rate-hi was sustained"
                } else {
                    ""
                }
            )?;
            std::fs::write(&report_path, serde_json::to_string_pretty(&outcome.report)?)?;
            writeln!(out, "verdict     : {}", report_path.display())?;
            if let Some(path) = jsonl {
                let mut text = String::new();
                for report in &outcome.final_reports {
                    text.push_str(&report.to_jsonl());
                    text.push('\n');
                }
                std::fs::write(&path, text)?;
                writeln!(out, "jsonl       : {}", path.display())?;
            }
            if let Some(path) = metrics {
                std::fs::write(&path, outcome.final_metrics.prometheus_text())?;
                writeln!(out, "metrics     : {}", path.display())?;
            }
            Ok(())
        }
        Command::Conformance {
            seeds,
            base_seed,
            deep,
            out: report_path,
            artifacts,
        } => {
            let base = if deep {
                ConformanceConfig::deep()
            } else {
                ConformanceConfig::standard()
            };
            let config = base.with_seeds(seeds).with_base_seed(base_seed);
            let report = run_conformance(&config);
            let json = serde_json::to_string_pretty(&report)?;
            writeln!(out, "{json}")?;
            if let Some(path) = report_path {
                std::fs::write(&path, &json)?;
            }
            if let Some(dir) = artifacts {
                let written = write_violation_artifacts(&report, &config, &dir)?;
                for path in &written {
                    writeln!(out, "artifact: {}", path.display())?;
                }
            }
            if report.passed {
                Ok(())
            } else {
                Err(CliError::Conformance(report.total_violations))
            }
        }
        Command::Corpus { dir, verbose } => {
            let report = mec_scenario_spec::run_corpus(&dir)?;
            if report.is_empty() {
                return Err(CliError::Usage(format!(
                    "no *.toml specs found under {}",
                    dir.display()
                )));
            }
            let mut failing = 0usize;
            for outcome in &report.outcomes {
                match &outcome.report {
                    Ok(r) if r.passed() => {
                        if verbose {
                            writeln!(out, "PASS {} ({} checks)", outcome.file, r.checks)?;
                        } else {
                            writeln!(out, "PASS {}", outcome.file)?;
                        }
                    }
                    _ => {
                        failing += 1;
                        writeln!(out, "FAIL {}", outcome.file)?;
                        for line in outcome.failure_lines() {
                            writeln!(out, "     {line}")?;
                        }
                    }
                }
            }
            writeln!(
                out,
                "{}/{} specs passed",
                report.len() - failing,
                report.len()
            )?;
            if failing == 0 {
                Ok(())
            } else {
                Err(CliError::Corpus(failing))
            }
        }
        Command::Compare {
            scenario,
            seed,
            threads,
        } => {
            let scenario = load_scenario(&scenario, seed)?;
            writeln!(
                out,
                "{:<12} {:>12} {:>10} {:>12} {:>12} {:>12}",
                "solver", "utility", "offloaded", "time(ms)", "proposals", "prop/s"
            )?;
            for name in [
                "tsajs",
                "tempering",
                "hjtora",
                "localsearch",
                "greedy",
                "random",
                "alllocal",
            ] {
                let mut solver = build_solver(name, seed, threads)?;
                let solution = solver.solve(&scenario)?;
                let secs = solution.stats.elapsed.as_secs_f64();
                let throughput = if secs > 0.0 {
                    solution.stats.iterations as f64 / secs
                } else {
                    0.0
                };
                writeln!(
                    out,
                    "{:<12} {:>12.6} {:>10} {:>12.2} {:>12} {:>12.0}",
                    solver.name(),
                    solution.utility,
                    solution.assignment.num_offloaded(),
                    secs * 1e3,
                    solution.stats.iterations,
                    throughput
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory of the test named `test`, so that tests running
    /// on parallel threads never write into, or remove, each other's
    /// files. Each test removes only its own directory.
    fn tmp_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tsajs-cli-test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&[
            "generate",
            "--users",
            "8",
            "--servers",
            "3",
            "--subchannels",
            "2",
            "--workload-mcycles",
            "2000",
            "--data-kb",
            "210",
            "--beta-time",
            "0.7",
            "--seed",
            "42",
            "--out",
            "x.json",
        ])
        .unwrap();
        match cmd {
            Command::Generate { params, seed, out } => {
                assert_eq!(params.num_users, 8);
                assert_eq!(params.num_servers, 3);
                assert_eq!(params.num_subchannels, 2);
                assert_eq!(params.task_workload.as_mega(), 2000.0);
                assert!((params.task_data.as_kilobytes() - 210.0).abs() < 1e-9);
                assert_eq!(params.beta_time, 0.7);
                assert_eq!(seed, 42);
                assert_eq!(out, PathBuf::from("x.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_solve_and_compare() {
        let cmd = parse_args(&[
            "solve",
            "--scenario",
            "s.json",
            "--solver",
            "greedy",
            "--seed",
            "3",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                scenario: PathBuf::from("s.json"),
                solver: "greedy".into(),
                seed: 3,
                threads: None,
                warm_resolves: None,
                report: None,
            }
        );
        let cmd = parse_args(&["compare", "--scenario", "s.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                scenario: PathBuf::from("s.json"),
                seed: 0,
                threads: None,
            }
        );
    }

    #[test]
    fn parses_threads_and_rejects_zero() {
        let cmd = parse_args(&[
            "solve",
            "--scenario",
            "s.json",
            "--solver",
            "tempering",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                scenario: PathBuf::from("s.json"),
                solver: "tempering".into(),
                seed: 0,
                threads: Some(4),
                warm_resolves: None,
                report: None,
            }
        );
        assert!(matches!(
            parse_args(&["solve", "--scenario", "s.json", "--threads", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&["compare", "--scenario", "s.json", "--threads", "nope"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_downlink_flags_as_a_pair() {
        let cmd = parse_args(&[
            "generate",
            "--users",
            "4",
            "--output-kb",
            "100",
            "--downlink-mbps",
            "50",
            "--out",
            "x.json",
        ])
        .unwrap();
        match cmd {
            Command::Generate { params, .. } => {
                assert!(params.task_output.is_some());
                assert_eq!(params.downlink_rate, Some(BitsPerSecond::new(50.0e6)));
            }
            other => panic!("wrong command {other:?}"),
        }
        // One without the other is a usage error.
        assert!(matches!(
            parse_args(&["generate", "--output-kb", "100", "--out", "x.json"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(matches!(parse_args::<&str>(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&["frobnicate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse_args(&["solve"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&["generate", "--users"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&["generate", "--users", "abc", "--out", "x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&["generate", "--users", "5"]),
            Err(CliError::Usage(_)),
        ));
        assert!(matches!(
            build_solver("nope", 0, None),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_parses_alone_and_after_any_command() {
        let commands = [
            "generate",
            "solve",
            "compare",
            "render",
            "inspect",
            "simulate",
            "online",
            "loadtest",
            "conformance",
            "corpus",
        ];
        for help in ["--help", "-h", "help"] {
            assert_eq!(parse_args(&[help]).unwrap(), Command::Help);
            for command in commands {
                assert_eq!(
                    parse_args(&[command, help]).unwrap(),
                    Command::Help,
                    "{command} {help}"
                );
            }
            assert_eq!(
                parse_args(&["solve", "--scenario", "x.json", help]).unwrap(),
                Command::Help
            );
        }
        // A flag's value is a value, even when it reads `help`.
        assert!(matches!(
            parse_args(&["generate", "--out", "help"]),
            Ok(Command::Generate { .. })
        ));
        let mut out = Vec::new();
        run(Command::Help, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), format!("{USAGE}\n"));
    }

    #[test]
    fn generate_solve_compare_end_to_end() {
        let dir = tmp_dir("generate_solve_compare_end_to_end");
        let scenario_path = dir.join("scenario.json");
        let report_path = dir.join("report.json");

        // generate
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "generate",
                "--users",
                "6",
                "--servers",
                "3",
                "--seed",
                "9",
                "--out",
                scenario_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert!(scenario_path.exists());
        assert!(String::from_utf8(buf).unwrap().contains("U=6"));

        // solve with report
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "solve",
                "--scenario",
                scenario_path.to_str().unwrap(),
                "--solver",
                "greedy",
                "--report",
                report_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Greedy"));
        assert!(text.contains("utility"));
        assert!(report_path.exists());
        // The JSON report parses back, including the decision matrix.
        let text = std::fs::read_to_string(&report_path).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value["solver"], "Greedy");
        let decision: Assignment = serde_json::from_value(value["decision"].clone()).unwrap();
        assert_eq!(decision.num_users(), 6);
        let eval: mec_system::SystemEvaluation =
            serde_json::from_value(value["evaluation"].clone()).unwrap();
        assert_eq!(eval.users.len(), 6);

        // compare
        let mut buf = Vec::new();
        run(
            parse_args(&["compare", "--scenario", scenario_path.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        for name in [
            "TSAJS",
            "TSAJS-PT",
            "hJTORA",
            "LocalSearch",
            "Greedy",
            "Random",
            "AllLocal",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }

        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn render_command_writes_an_svg() {
        let dir = tmp_dir("render_command_writes_an_svg");
        let scenario_path = dir.join("render.json");
        let svg_path = dir.join("out.svg");
        run(
            parse_args(&[
                "generate",
                "--users",
                "6",
                "--seed",
                "2",
                "--out",
                scenario_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "render",
                "--scenario",
                scenario_path.to_str().unwrap(),
                "--solver",
                "greedy",
                "--out",
                svg_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert_eq!(svg.matches("<circle").count(), 6);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn inspect_command_summarizes_a_scenario() {
        let dir = tmp_dir("inspect_command_summarizes_a_scenario");
        let path = dir.join("inspect.json");
        run(
            parse_args(&[
                "generate",
                "--users",
                "7",
                "--seed",
                "3",
                "--out",
                path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        run(
            parse_args(&["inspect", "--scenario", path.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("users        : 7"));
        assert!(text.contains("best-link dB"));
        assert!(text.contains("downlink     : not modeled"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn simulate_command_runs_end_to_end() {
        let cmd = parse_args(&[
            "simulate",
            "--users",
            "5",
            "--epochs",
            "3",
            "--mobility",
            "vehicular",
            "--solver",
            "greedy",
            "--seed",
            "2",
        ])
        .unwrap();
        let mut buf = Vec::new();
        run(cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("avg utility"));
        assert_eq!(text.lines().count(), 3 + 2, "header + 3 epochs + summary");
        // Bad profile / solver are usage errors before any work happens.
        assert!(matches!(
            run(
                parse_args(&["simulate", "--mobility", "teleport"]).unwrap(),
                &mut Vec::new()
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(
                parse_args(&["simulate", "--solver", "nope"]).unwrap(),
                &mut Vec::new()
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn simulate_transcripts_are_pinned() {
        // The whole stdout of two seeded vehicular runs: utilities,
        // offloads, radio handovers and decision churn per epoch. If an
        // intentional change moves them, update the text and say why in
        // the changelog.
        let transcript = |solver: &str| {
            let mut buf = Vec::new();
            run(
                parse_args(&[
                    "simulate",
                    "--users",
                    "12",
                    "--epochs",
                    "8",
                    "--mobility",
                    "vehicular",
                    "--seed",
                    "1",
                    "--solver",
                    solver,
                ])
                .unwrap(),
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(
            transcript("greedy"),
            "\
epoch | utility | offloaded | handovers | reassignments
    0 |   3.306 |         5 |         0 |             0
    1 |   0.925 |         1 |         1 |             5
    2 |   2.964 |         4 |         1 |             4
    3 |   4.776 |         7 |         1 |             9
    4 |   2.187 |         3 |         0 |             8
    5 |   1.264 |         4 |         1 |             4
    6 |   5.149 |         6 |         1 |             7
    7 |   2.556 |         5 |         1 |             6
avg utility: 2.891
"
        );
        assert_eq!(
            transcript("tsajs"),
            "\
epoch | utility | offloaded | handovers | reassignments
    0 |   3.306 |         5 |         0 |             0
    1 |   0.925 |         1 |         1 |             4
    2 |   2.964 |         4 |         1 |             4
    3 |   4.776 |         7 |         1 |             8
    4 |   2.187 |         3 |         0 |             8
    5 |   1.264 |         4 |         1 |             5
    6 |   5.149 |         6 |         1 |             7
    7 |   2.556 |         5 |         1 |             4
avg utility: 2.891
"
        );
    }

    #[test]
    fn parses_online() {
        let cmd = parse_args(&[
            "online",
            "--users",
            "12",
            "--epochs",
            "5",
            "--servers",
            "4",
            "--arrival-rate",
            "0.5",
            "--mean-sojourn",
            "80",
            "--epoch-secs",
            "5",
            "--budget",
            "500",
            "--capacity",
            "10",
            "--admission",
            "force-local",
            "--seed",
            "3",
            "--threads",
            "2",
        ])
        .unwrap();
        match cmd {
            Command::Online {
                scenario,
                users,
                epochs,
                servers,
                arrival_rate,
                mean_sojourn,
                epoch_secs,
                budget,
                cold,
                capacity,
                admission,
                seed,
                threads,
            } => {
                assert_eq!(scenario, None);
                assert_eq!(users, 12);
                assert_eq!(epochs, Some(5));
                assert_eq!(servers, 4);
                assert_eq!(arrival_rate, 0.5);
                assert_eq!(mean_sojourn, 80.0);
                assert_eq!(epoch_secs, 5.0);
                assert_eq!(budget, 500);
                assert!(!cold);
                assert_eq!(capacity, Some(10));
                assert_eq!(admission, "force-local");
                assert_eq!(seed, 3);
                assert_eq!(threads, Some(2));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults and the --cold switch.
        match parse_args(&["online", "--cold"]).unwrap() {
            Command::Online {
                epochs,
                cold,
                capacity,
                admission,
                ..
            } => {
                assert_eq!(epochs, None);
                assert!(cold);
                assert_eq!(capacity, None);
                assert_eq!(admission, "reject");
            }
            other => panic!("wrong command {other:?}"),
        }
        // Bad admission names fail at parse time.
        assert!(matches!(
            parse_args(&["online", "--admission", "teleport"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn online_scenario_flag_conflicts_with_engine_flags() {
        // --scenario plus the execution knobs (--epochs/--seed/--threads)
        // is fine: they change how the run executes, not what it means.
        match parse_args(&[
            "online",
            "--scenario",
            "x.toml",
            "--epochs",
            "3",
            "--seed",
            "7",
            "--threads",
            "1",
        ])
        .unwrap()
        {
            Command::Online {
                scenario,
                epochs,
                seed,
                threads,
                ..
            } => {
                assert_eq!(scenario, Some(PathBuf::from("x.toml")));
                assert_eq!(epochs, Some(3));
                assert_eq!(seed, 7);
                assert_eq!(threads, Some(1));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --scenario plus an engine flag is rejected with a clear message.
        let err = parse_args(&["online", "--scenario", "x.toml", "--users", "9"]).unwrap_err();
        match err {
            CliError::Usage(msg) => {
                assert!(msg.contains("--scenario conflicts with --users"), "{msg}");
            }
            other => panic!("wrong error {other:?}"),
        }
        assert!(matches!(
            parse_args(&["online", "--cold", "--scenario", "x.toml"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn online_command_emits_one_json_report_per_line() {
        let run_once = || {
            let mut buf = Vec::new();
            run(
                parse_args(&[
                    "online",
                    "--users",
                    "5",
                    "--epochs",
                    "3",
                    "--servers",
                    "3",
                    "--seed",
                    "8",
                    "--budget",
                    "150",
                ])
                .unwrap(),
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf).unwrap()
        };
        let text = run_once();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one line per epoch:\n{text}");
        for (i, line) in lines.iter().enumerate() {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(value["epoch"].as_u64(), Some(i as u64));
            assert!(value["utility"].as_f64().unwrap().is_finite());
            assert!(value.get("warm_started").is_some());
        }
        // Seeded: the JSONL stream reproduces byte-for-byte.
        assert_eq!(text, run_once());
    }

    #[test]
    fn online_churn_wiring_is_pinned() {
        // The flag-driven run's whole JSONL stream, folded into one FNV-1a
        // fingerprint: churn draws, admission and every epoch's decision.
        // The fingerprint predates the `handovers` key, so it is taken with
        // that key cut from every line, and the handovers are pinned on
        // their own. If an intentional change moves either, update the
        // constant and say why in the changelog.
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "online",
                "--users",
                "30",
                "--epochs",
                "20",
                "--arrival-rate",
                "0.3",
                "--seed",
                "7",
                "--threads",
                "1",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let mut stripped = String::new();
        let mut handovers = 0;
        for line in String::from_utf8(buf).unwrap().lines() {
            let (head, tail) = line.split_once(",\"handovers\":").unwrap();
            let (count, rest) = tail.split_once(',').unwrap();
            handovers += count.parse::<usize>().unwrap();
            stripped += &format!("{head},{rest}\n");
        }
        let fingerprint = stripped.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        assert_eq!(stripped.len(), 5730);
        assert_eq!(
            fingerprint, 0x3e06_cd98_883d_547c,
            "online churn wiring moved (fingerprint {fingerprint:#018x})"
        );
        assert_eq!(handovers, 2);
    }

    #[test]
    fn online_jsonl_matches_the_report_schema() {
        use mec_online::OnlineEpochReport;
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "online",
                "--users",
                "4",
                "--epochs",
                "3",
                "--servers",
                "3",
                "--seed",
                "5",
                "--budget",
                "150",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let counts = [
            "epoch",
            "active_users",
            "scheduled",
            "forced_local",
            "arrivals",
            "departures",
            "rejected",
            "num_offloaded",
            "reassignments",
            "handovers",
            "proposals",
            "events_applied",
            "servers_up",
        ];
        let floats = ["time_s", "utility", "deadline_hit_rate"];
        for line in text.lines() {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            let serde_json::Value::Object(entries) = value else {
                panic!("epoch report is not a JSON object: {line}");
            };
            // Field set and order are the declared schema, exactly.
            let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, OnlineEpochReport::FIELD_NAMES, "in line: {line}");
            for (key, field) in &entries {
                if counts.contains(&key.as_str()) {
                    assert!(field.as_u64().is_some(), "{key} not a count in: {line}");
                } else if floats.contains(&key.as_str()) {
                    assert!(field.as_f64().is_some(), "{key} not numeric in: {line}");
                } else {
                    assert_eq!(key, "warm_started");
                    assert!(
                        matches!(field, serde_json::Value::Bool(_)),
                        "{key} not a bool in: {line}"
                    );
                }
            }
        }
    }

    fn write_spec(path: &Path, spec: &mec_scenario_spec::ScenarioSpec) {
        std::fs::write(path, spec.to_toml_string().unwrap()).unwrap();
    }

    #[test]
    fn solve_and_inspect_accept_declarative_toml_specs() {
        use mec_scenario_spec::ScenarioBuilder;
        let dir = tmp_dir("solve_and_inspect_accept_declarative_toml_specs");
        let path = dir.join("declarative.toml");
        let spec = ScenarioBuilder::new("cli-solve")
            .servers(4)
            .users(6)
            .build();
        write_spec(&path, &spec);

        let mut buf = Vec::new();
        run(
            parse_args(&[
                "solve",
                "--scenario",
                path.to_str().unwrap(),
                "--solver",
                "greedy",
                "--seed",
                "11",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Greedy"), "{text}");
        assert!(text.contains("offloaded   : "), "{text}");

        let mut buf = Vec::new();
        run(
            parse_args(&["inspect", "--scenario", path.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("users        : 6"), "{text}");
        assert!(text.contains("servers      : 4"), "{text}");

        // A broken spec surfaces as a spec error with a field path.
        let bad = dir.join("bad.toml");
        std::fs::write(
            &bad,
            "schema_version = 1\nname = \"x\"\n[radio]\nbandwith_hz = 1.0\n",
        )
        .unwrap();
        let err = run(
            parse_args(&["solve", "--scenario", bad.to_str().unwrap()]).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        match err {
            CliError::Spec(e) => assert!(e.path.contains("bandwith_hz"), "{e}"),
            other => panic!("wrong error {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn online_scenario_spec_drives_the_timeline_end_to_end() {
        use mec_scenario_spec::ScenarioBuilder;
        let dir = tmp_dir("online_scenario_spec_drives_the_timeline_end_to_end");
        let path = dir.join("outage.toml");
        let spec = ScenarioBuilder::new("cli-outage")
            .servers(4)
            .users(6)
            .poisson_churn(0.05, 120.0)
            .online(|o| {
                o.epochs = 4;
                o.warm_budget = Some(150);
                o.min_temperature = Some(1e-2);
            })
            .server_outage(15.0, 1)
            .server_recovery(25.0, 1)
            .try_build()
            .unwrap();
        write_spec(&path, &spec);

        let mut buf = Vec::new();
        run(
            parse_args(&[
                "online",
                "--scenario",
                path.to_str().unwrap(),
                "--seed",
                "5",
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "spec epochs drive the run:\n{text}");
        let servers_up: Vec<u64> = lines
            .iter()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).unwrap();
                v["servers_up"].as_u64().unwrap()
            })
            .collect();
        // The outage fires at t=15s (epoch 2's resolve at t=20) and the
        // recovery at t=25s (epoch 3's resolve at t=30).
        assert_eq!(servers_up, vec![4, 4, 3, 4], "in:\n{text}");
        let events: u64 = lines
            .iter()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).unwrap();
                v["events_applied"].as_u64().unwrap()
            })
            .sum();
        assert_eq!(events, 2, "in:\n{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corpus_command_runs_a_directory_of_specs() {
        use mec_scenario_spec::ScenarioBuilder;
        let dir = tmp_dir("corpus_command_runs_a_directory_of_specs");
        let good = ScenarioBuilder::new("good")
            .servers(4)
            .users(5)
            .expect(|e| e.users = Some(5))
            .build();
        let bad = ScenarioBuilder::new("bad")
            .servers(4)
            .users(5)
            .expect(|e| e.users = Some(99))
            .build();
        write_spec(&dir.join("good.toml"), &good);
        write_spec(&dir.join("bad.toml"), &bad);

        let mut buf = Vec::new();
        let err = run(
            parse_args(&["corpus", "--dir", dir.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Corpus(1)), "{err:?}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("PASS good.toml"), "{text}");
        assert!(text.contains("FAIL bad.toml"), "{text}");
        assert!(text.contains("1/2 specs passed"), "{text}");

        // An empty directory is a usage error, not a silent pass.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            run(
                parse_args(&["corpus", "--dir", empty.to_str().unwrap()]).unwrap(),
                &mut Vec::new()
            ),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corpus_exit_code_pins_unloadable_and_invalid_specs_as_failures() {
        // Regression pin (ISSUE 8): a spec that cannot even load —
        // malformed TOML or one that fails validation — must surface as a
        // per-case FAIL line and a non-zero exit, exactly like an
        // `[expect]` miss. A corpus run that silently skipped broken
        // files would green-light a rotted corpus.
        use mec_scenario_spec::ScenarioBuilder;
        let dir = tmp_dir("corpus_exit_code_pins_unloadable_and_invalid_specs_as_failures");
        let good = ScenarioBuilder::new("good")
            .servers(4)
            .users(5)
            .expect(|e| e.users = Some(5))
            .build();
        write_spec(&dir.join("good.toml"), &good);
        std::fs::write(dir.join("malformed.toml"), "schema_version = [not toml").unwrap();
        std::fs::write(
            dir.join("invalid.toml"),
            "schema_version = 1\nname = \"invalid\"\n[topology]\nservers = 4\n\
             [population]\nusers = 0\n",
        )
        .unwrap();

        let mut buf = Vec::new();
        let err = run(
            parse_args(&["corpus", "--dir", dir.to_str().unwrap()]).unwrap(),
            &mut buf,
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Corpus(2)), "{err:?}");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("PASS good.toml"), "{text}");
        assert!(text.contains("FAIL malformed.toml"), "{text}");
        assert!(text.contains("FAIL invalid.toml"), "{text}");
        assert!(text.contains("1/3 specs passed"), "{text}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn parses_loadtest() {
        match parse_args(&[
            "loadtest",
            "--users",
            "9",
            "--slo-ms",
            "150",
            "--rate-lo",
            "5",
            "--rate-hi",
            "500",
            "--probe-secs",
            "0.5",
            "--refine",
            "2",
            "--batch-size",
            "8",
            "--batch-age-ms",
            "25",
            "--queue-capacity",
            "64",
            "--threads",
            "2",
            "--seed",
            "11",
            "--quick",
            "--out",
            "verdict.json",
            "--jsonl",
            "batches.jsonl",
            "--metrics",
            "metrics.prom",
        ])
        .unwrap()
        {
            Command::Loadtest {
                scenario,
                users,
                slo_ms,
                rate_lo,
                rate_hi,
                probe_secs,
                refine,
                batch_size,
                batch_age_ms,
                queue_capacity,
                threads,
                seed,
                quick,
                out,
                jsonl,
                metrics,
            } => {
                assert_eq!(scenario, None);
                assert_eq!(users, Some(9));
                assert_eq!(slo_ms, Some(150.0));
                assert_eq!(rate_lo, Some(5.0));
                assert_eq!(rate_hi, Some(500.0));
                assert_eq!(probe_secs, Some(0.5));
                assert_eq!(refine, Some(2));
                assert_eq!(batch_size, Some(8));
                assert_eq!(batch_age_ms, Some(25.0));
                assert_eq!(queue_capacity, Some(64));
                assert_eq!(threads, Some(2));
                assert_eq!(seed, 11);
                assert!(quick);
                assert_eq!(out, PathBuf::from("verdict.json"));
                assert_eq!(jsonl, Some(PathBuf::from("batches.jsonl")));
                assert_eq!(metrics, Some(PathBuf::from("metrics.prom")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: BENCH_service.json, no side artifacts.
        match parse_args(&["loadtest"]).unwrap() {
            Command::Loadtest {
                out, jsonl, quick, ..
            } => {
                assert_eq!(out, PathBuf::from("BENCH_service.json"));
                assert_eq!(jsonl, None);
                assert!(!quick);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            parse_args(&["loadtest", "--threads", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&["loadtest", "--frobnicate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn loadtest_command_writes_the_verdict_and_side_artifacts() {
        let dir = tmp_dir("loadtest_command_writes_the_verdict_and_side_artifacts");
        let out = dir.join("BENCH_service.json");
        let jsonl = dir.join("batches.jsonl");
        let metrics = dir.join("metrics.prom");
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "loadtest",
                "--quick",
                "--probe-secs",
                "0.15",
                "--rate-lo",
                "10",
                "--rate-hi",
                "10",
                "--refine",
                "1",
                "--seed",
                "7",
                "--out",
                out.to_str().unwrap(),
                "--jsonl",
                jsonl.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("max sustainable rate"), "{text}");

        let verdict: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(verdict["max_sustainable_hz"].as_f64().is_some());
        assert!(!verdict["probes"].as_array().unwrap().is_empty());
        assert_eq!(verdict["seed"].as_u64(), Some(7));

        // Every JSONL line parses and carries the pinned schema.
        let lines = std::fs::read_to_string(&jsonl).unwrap();
        for line in lines.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["tier"].as_str().is_some(), "{line}");
            assert!(v["utility"].as_f64().is_some(), "{line}");
        }
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("tsajs_service_batches_total"), "{prom}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn parses_conformance() {
        match parse_args(&["conformance", "--seeds", "9", "--seed", "3"]).unwrap() {
            Command::Conformance {
                seeds,
                base_seed,
                deep,
                out,
                artifacts,
            } => {
                assert_eq!(seeds, 9);
                assert_eq!(base_seed, 3);
                assert!(!deep);
                assert_eq!(out, None);
                assert_eq!(artifacts, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&["conformance", "--artifacts", "failures"]).unwrap() {
            Command::Conformance { artifacts, .. } => {
                assert_eq!(artifacts, Some(PathBuf::from("failures")));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults follow the chosen profile.
        match parse_args(&["conformance"]).unwrap() {
            Command::Conformance { seeds, deep, .. } => {
                assert_eq!(seeds, ConformanceConfig::standard().seeds);
                assert!(!deep);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&["conformance", "--deep"]).unwrap() {
            Command::Conformance { seeds, deep, .. } => {
                assert_eq!(seeds, ConformanceConfig::deep().seeds);
                assert!(deep);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            parse_args(&["conformance", "--seeds", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&["conformance", "--frobnicate"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn conformance_command_emits_a_clean_json_verdict() {
        let dir = tmp_dir("conformance_command_emits_a_clean_json_verdict");
        let report_path = dir.join("verdict.json");
        let mut buf = Vec::new();
        run(
            parse_args(&[
                "conformance",
                "--seeds",
                "2",
                "--out",
                report_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(value["passed"], serde_json::Value::Bool(true));
        assert_eq!(value["seeds"].as_u64(), Some(2));
        assert_eq!(value["invariants"].as_array().unwrap().len(), 14);
        // The --out file carries the same report.
        let file = std::fs::read_to_string(&report_path).unwrap();
        assert_eq!(text.trim_end(), file);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn solve_reproduces_under_identical_seeds() {
        let dir = tmp_dir("solve_reproduces_under_identical_seeds");
        let scenario_path = dir.join("repro.json");
        run(
            parse_args(&[
                "generate",
                "--users",
                "5",
                "--seed",
                "4",
                "--out",
                scenario_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let run_once = || {
            let mut buf = Vec::new();
            run(
                parse_args(&[
                    "solve",
                    "--scenario",
                    scenario_path.to_str().unwrap(),
                    "--solver",
                    "tsajs",
                    "--seed",
                    "11",
                ])
                .unwrap(),
                &mut buf,
            )
            .unwrap();
            // Drop the wall-clock line; timing is inherently nondeterministic.
            String::from_utf8(buf)
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("evals/time"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(run_once(), run_once());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shard_solver_runs_from_the_registry_and_rejects_batching() {
        let dir = tmp_dir("shard_solver_runs_from_the_registry_and_rejects_batching");
        let scenario_path = dir.join("shard.json");
        run(
            parse_args(&[
                "generate",
                "--users",
                "12",
                "--servers",
                "4",
                "--seed",
                "9",
                "--out",
                scenario_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let run_once = || {
            let mut buf = Vec::new();
            run(
                parse_args(&[
                    "solve",
                    "--scenario",
                    scenario_path.to_str().unwrap(),
                    "--solver",
                    "shard",
                    "--seed",
                    "11",
                ])
                .unwrap(),
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf)
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("evals/time"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let text = run_once();
        assert!(text.contains("TSAJS-SHARD"), "{text}");
        // Same seed, same run — the shard engine is fully deterministic.
        assert_eq!(text, run_once());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn warm_resolves_flag_is_shard_only_and_rejects_zero() {
        let cmd = parse_args(&[
            "solve",
            "--scenario",
            "s.json",
            "--solver",
            "shard",
            "--warm-resolves",
            "3",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Solve {
                scenario: PathBuf::from("s.json"),
                solver: "shard".into(),
                seed: 0,
                threads: None,
                warm_resolves: Some(3),
                report: None,
            }
        );
        assert!(matches!(
            parse_args(&[
                "solve",
                "--scenario",
                "s.json",
                "--solver",
                "shard",
                "--warm-resolves",
                "0"
            ]),
            Err(CliError::Usage(_))
        ));
        // Defaults to the tsajs solver → not shard → rejected.
        assert!(matches!(
            parse_args(&["solve", "--scenario", "s.json", "--warm-resolves", "2"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn warm_resolves_output_is_thread_count_independent() {
        let dir = tmp_dir("warm_resolves_output_is_thread_count_independent");
        let scenario_path = dir.join("warm.json");
        run(
            parse_args(&[
                "generate",
                "--users",
                "12",
                "--servers",
                "4",
                "--seed",
                "9",
                "--out",
                scenario_path.to_str().unwrap(),
            ])
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let run_with_threads = |threads: &str| {
            let mut buf = Vec::new();
            run(
                parse_args(&[
                    "solve",
                    "--scenario",
                    scenario_path.to_str().unwrap(),
                    "--solver",
                    "shard",
                    "--seed",
                    "11",
                    "--threads",
                    threads,
                    "--warm-resolves",
                    "2",
                ])
                .unwrap(),
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf).unwrap()
        };
        let narrow = run_with_threads("1");
        assert!(narrow.contains("cold"), "{narrow}");
        assert!(narrow.contains("warm 1"), "{narrow}");
        assert!(narrow.contains("warm 2"), "{narrow}");
        // The whole transcript — cold + every warm objective and the
        // resolved/reused cluster counts — is thread-count independent.
        assert_eq!(narrow, run_with_threads("2"));
        assert_eq!(narrow, run_with_threads("4"));
        std::fs::remove_dir_all(dir).ok();
    }
}
