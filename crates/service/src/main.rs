//! `discsp-load`: the solve-service load generator.
//!
//! Builds a mixed workload — AWC (resolvent and mcs learning) and
//! distributed breakout over planted 3-colorings, on perfect and lossy
//! links — submits every session to one in-process [`SolveService`],
//! sweeps the scheduler until the table drains, and reports throughput
//! (sessions/sec, the one wall-clock number) plus p50/p99/max latency
//! measured in **sweeps** of the deterministic virtual clock, so the
//! latency distribution is a pure function of `(--sessions, --seed,
//! --active, --budget)` and bit-stable across machines and `--workers`
//! settings.
//!
//! With `--trace-dir` every session records its trace and dumps it as
//! JSONL for `discsp-trace audit` — the CI smoke job re-audits every
//! dumped trace as a hard gate.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use discsp_awc::AwcConfig;
use discsp_core::{Assignment, Termination, Value};
use discsp_dba::WeightMode;
use discsp_net::AlgoSpec;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{LinkPolicy, VirtualConfig};
use discsp_service::{ServiceConfig, SessionSpec, SolveService};
use discsp_trace::event_to_json;

struct Args {
    sessions: u64,
    vars: u32,
    seed: u64,
    workers: usize,
    active: usize,
    budget: u64,
    trace_dir: Option<PathBuf>,
    bench_out: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 1000,
            vars: 10,
            seed: 1,
            workers: 4,
            active: 64,
            budget: 0,
            trace_dir: None,
            bench_out: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: discsp-load [--sessions N] [--vars N] [--seed S] [--workers W] \
         [--active A] [--budget B] [--trace-dir DIR] [--bench-out FILE]\n\
         \n\
         Hammers one SolveService with a mixed AWC/DBA coloring workload and\n\
         reports sessions/sec and p50/p99 latency in scheduler sweeps.\n\
         --budget 0 (the default) disables per-session backpressure."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v,
                None => {
                    eprintln!("discsp-load: {name} needs a value");
                    usage()
                }
            }
        };
        match flag.as_str() {
            "--sessions" => args.sessions = parse_num(&value("--sessions"), "--sessions"),
            "--vars" => args.vars = parse_num(&value("--vars"), "--vars") as u32,
            "--seed" => args.seed = parse_num(&value("--seed"), "--seed"),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers") as usize,
            "--active" => args.active = parse_num(&value("--active"), "--active") as usize,
            "--budget" => args.budget = parse_num(&value("--budget"), "--budget"),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value("--trace-dir"))),
            "--bench-out" => args.bench_out = Some(PathBuf::from(value("--bench-out"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("discsp-load: unknown flag {other}");
                usage()
            }
        }
    }
    if args.vars < 9 {
        // Below 9 nodes the paper's 2.7n edge density exceeds the
        // available cross-class pairs of a balanced 3-coloring.
        eprintln!("discsp-load: --vars must be at least 9");
        usage()
    }
    if args.sessions == 0 {
        eprintln!("discsp-load: --sessions must be positive");
        usage()
    }
    args
}

fn parse_num(text: &str, flag: &str) -> u64 {
    match text.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("discsp-load: {flag} expects a number, got {text:?}");
            usage()
        }
    }
}

/// The four-way workload mix, by session index.
fn mix_of(index: u64) -> (&'static str, AlgoSpec, LinkPolicy) {
    match index % 4 {
        0 => (
            "awc_resolvent",
            AlgoSpec::Awc(AwcConfig::resolvent()),
            LinkPolicy::perfect(),
        ),
        1 => (
            "awc_mcs",
            AlgoSpec::Awc(AwcConfig::mcs()),
            LinkPolicy::perfect(),
        ),
        2 => (
            "dba_per_nogood",
            AlgoSpec::Dba(WeightMode::PerNogood),
            LinkPolicy::perfect(),
        ),
        _ => (
            "awc_resolvent_lossy",
            AlgoSpec::Awc(AwcConfig::resolvent()),
            // 2% drops: enough to exercise retransmission and nudges in
            // every fourth session without stalling the benchmark.
            LinkPolicy::lossy(20_000),
        ),
    }
}

fn build_spec(args: &Args, index: u64) -> Result<SessionSpec, String> {
    let (_, algo, link) = mix_of(index);
    let instance = paper_coloring(args.vars, args.seed.wrapping_add(index));
    let problem = coloring_to_discsp(&instance).map_err(|e| format!("session {index}: {e}"))?;
    let init = Assignment::total((0..args.vars).map(|_| Value::new(0)));
    Ok(SessionSpec {
        problem,
        init,
        algo,
        config: VirtualConfig {
            seed: args.seed.wrapping_mul(0x9e37).wrapping_add(index),
            link,
            record_trace: args.trace_dir.is_some(),
            ..VirtualConfig::default()
        },
    })
}

fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 - 1) * p / 100;
    sorted[rank as usize]
}

fn run() -> Result<String, String> {
    let args = parse_args();
    let budget = if args.budget == 0 {
        u64::MAX
    } else {
        args.budget
    };
    let mut service = SolveService::new(ServiceConfig {
        max_active: args.active.max(1),
        max_pending: args.sessions as usize,
        session_budget: budget,
        workers: args.workers.max(1),
    });

    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }

    // Submit everything up front (admission is FIFO; queueing shows up
    // as latency), then sweep the scheduler dry. Wall time measures the
    // whole thing: that is what a sessions/sec number should charge for.
    let started = Instant::now();
    for index in 0..args.sessions {
        let id = index + 1;
        let spec = build_spec(&args, index)?;
        service
            .submit(id, spec)
            .map_err(|e| format!("submitting session {id}: {e}"))?;
    }
    let sweeps = service.run_until_idle();
    let wall = started.elapsed();

    let results = service.take_completed();
    let failed = service.failed().len() as u64;
    if results.len() as u64 + failed != args.sessions {
        return Err(format!(
            "lost sessions: {} submitted, {} completed, {failed} failed",
            args.sessions,
            results.len()
        ));
    }

    let mut latencies: Vec<u64> = results.values().map(|r| r.latency_sweeps()).collect();
    latencies.sort_unstable();
    let (mut solved, mut cutoff, mut insoluble) = (0u64, 0u64, 0u64);
    for result in results.values() {
        match result.report.outcome.metrics.termination {
            Termination::Solved => solved += 1,
            Termination::CutOff => cutoff += 1,
            Termination::Insoluble => insoluble += 1,
        }
    }

    if let Some(dir) = &args.trace_dir {
        for (id, result) in &results {
            let mut text = String::new();
            for event in &result.report.trace {
                text.push_str(&event_to_json(event));
                text.push('\n');
            }
            let path = dir.join(format!("session_{id}.jsonl"));
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }

    let wall_seconds = wall.as_secs_f64();
    let per_sec = if wall_seconds > 0.0 {
        args.sessions as f64 / wall_seconds
    } else {
        0.0
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"service_load\",");
    let _ = writeln!(json, "  \"unit\": \"sweeps\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"sessions\": {}, \"vars\": {}, \"seed\": {}, \"workers\": {}, \
         \"max_active\": {}, \"session_budget\": {}}},",
        args.sessions,
        args.vars,
        args.seed,
        args.workers.max(1),
        args.active.max(1),
        args.budget
    );
    let _ = writeln!(
        json,
        "  \"mix\": [\"awc_resolvent\", \"awc_mcs\", \"dba_per_nogood\", \"awc_resolvent_lossy\"],"
    );
    let _ = writeln!(json, "  \"results\": {{");
    let _ = writeln!(json, "    \"total_sweeps\": {sweeps},");
    let _ = writeln!(
        json,
        "    \"latency_sweeps_p50\": {},",
        percentile(&latencies, 50)
    );
    let _ = writeln!(
        json,
        "    \"latency_sweeps_p99\": {},",
        percentile(&latencies, 99)
    );
    let _ = writeln!(
        json,
        "    \"latency_sweeps_max\": {},",
        latencies.last().copied().unwrap_or(0)
    );
    let _ = writeln!(json, "    \"wall_seconds\": {wall_seconds:.3},");
    let _ = writeln!(json, "    \"sessions_per_sec\": {per_sec:.1},");
    let _ = writeln!(
        json,
        "    \"solved\": {solved}, \"cutoff\": {cutoff}, \"insoluble\": {insoluble}, \
         \"failed\": {failed}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Some(path) = &args.bench_out {
        std::fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(json)
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            print!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("discsp-load: {message}");
            ExitCode::FAILURE
        }
    }
}
