//! The discsp benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_learning|breakout_scale|service_mix|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a workload repeats its fixed work for `--seconds`
//! with no instrumentation in the program and reports the end-to-end
//! metrics (medians over repetitions). With `--trace 1` it runs an
//! outside-in traced copy of the executor loop, checks that it
//! reproduces the executor bit for bit, and reports per-layer metrics.
//! Every output is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all`
//! runs each workload in a fresh child process.

mod alloc;
mod breakout;
mod paper;
mod service;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["paper_learning", "breakout_scale", "service_mix"];

/// End-to-end metrics (`--trace 0`) with their units; every workload
/// reports all of them.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("checks_per_s", "1/s"),
    ("activations_per_s", "1/s"),
    ("peak_bytes_per_agent", "B"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p99", "ms"),
];

/// Per-layer metrics (`--trace 1`) with their units. A workload that
/// does not run a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 31] = [
    ("awc.step_ns_p50", "ns"),
    ("awc.step_ns_p99", "ns"),
    ("awc.ns_per_check", "ns"),
    ("awc.allocs_per_step", "count"),
    ("awc.redundant_ratio", "ratio"),
    ("store.len_p50", "count"),
    ("store.len_max", "count"),
    ("store.agents_over_256", "count"),
    ("store.query_ns", "ns"),
    ("sync.route_share", "ratio"),
    ("sync.observe_share", "ratio"),
    ("dba.step_ns_p50", "ns"),
    ("dba.allocs_per_step", "count"),
    ("router.route_ns", "ns"),
    ("router.take_due_ns", "ns"),
    ("router.allocs_per_msg", "count"),
    ("router.retransmit_ratio", "ratio"),
    ("problem.is_solution_ns", "ns"),
    ("virtual.step_share", "ratio"),
    ("virtual.route_share", "ratio"),
    ("virtual.merge_share", "ratio"),
    ("virtual.observe_share", "ratio"),
    ("shard.parallel_efficiency", "ratio"),
    ("shard.overhead", "ratio"),
    ("service.sweep_ms_p50", "ms"),
    ("service.sweep_ms_p99", "ms"),
    ("service.polls_per_sweep", "count"),
    ("service.pending_mean", "count"),
    ("service.submit_us", "us"),
    ("probgen.generate_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Metric values by name, filled by a workload.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Operations attempted and failed (a cut-off on solvable input, a
/// runtime failure, or a refused submit), and how many timing samples
/// stand behind the reported percentiles.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Repetitions of the workload's fixed work (rounds or solves).
    pub repetitions: u64,
    /// Submit-to-result latencies behind `session_ms_*`, or activation
    /// timings behind the traced `*.step_ns_*`.
    pub samples: u64,
}

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads for the parallel executors: the machine's cores.
    pub workers: usize,
}

impl Run {
    /// How long the measured phase of a run may go on.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

struct Args {
    workload: String,
    run: Run,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        run: Run {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            workers,
        },
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(workload: &str, run: &Run, trace: bool) -> Result<(Metrics, Tally), String> {
    match (workload, trace) {
        ("paper_learning", false) => paper::end_to_end(run),
        ("paper_learning", true) => paper::traced(run),
        ("breakout_scale", false) => breakout::end_to_end(run),
        ("breakout_scale", true) => breakout::traced(run),
        ("service_mix", false) => service::end_to_end(run),
        ("service_mix", true) => service::traced(run),
        _ => Err(format!("unknown workload {workload:?}")),
    }
}

/// Renders the result line, with every metric of the mode's table in
/// table order.
fn result_json(correct: bool, tally: Tally, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn single(workload: &str, args: &Args) -> ExitCode {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (metrics, tally) = match run_workload(workload, &args.run, args.trace) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "{workload} reported {name}, which the metric table lacks"
        );
    }
    // Every end-to-end metric is measured on every workload and is never
    // 0; per-layer metrics of a layer the workload does not run read 0.
    let missing: Vec<&str> = if args.trace {
        Vec::new()
    } else {
        table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| metrics.get(n).is_none_or(|v| *v <= 0.0))
            .collect()
    };
    let finite = metrics.values().all(|v| v.is_finite());
    let correct = tally.failed == 0 && missing.is_empty() && finite;
    for (name, unit) in table {
        println!(
            "{workload:<16} {name:<28} {:>16.6} {unit}",
            metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!(
        "{workload:<16} {} repetition(s), {} timing sample(s), {} attempted, {} failed, {} worker(s)",
        tally.repetitions, tally.samples, tally.attempted, tally.failed, args.run.workers
    );
    if !missing.is_empty() || !finite {
        eprintln!("perfbench: {workload}: missing or zero {missing:?}, or non-finite metrics");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(correct, tally, &metrics, table));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, so no workload's
/// heap history reaches another's memory figures.
fn all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.run.seed.to_string()])
            .args(["--seconds", &args.run.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        all(&args)
    } else {
        single(&args.workload.clone(), &args)
    }
}
