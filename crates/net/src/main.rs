//! The `discsp-net` binary: either role of a networked solve session.
//!
//! * `discsp-net agent --connect ADDR --index I` — one agent endpoint;
//!   this is the exact invocation [`AgentLaunch::Processes`] issues.
//! * `discsp-net demo [--agents N] [--algo awc|dba] [--drop-ppm P]
//!   [--seed S] [--launch threads|processes]` — solves an N-agent
//!   ring 3-coloring end to end, spawning its own agents (processes
//!   re-invoke this same binary).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use discsp_awc::AwcSolver;
use discsp_core::{Assignment, DistributedCsp, Domain, Termination, Value};
use discsp_dba::DbaSolver;
use discsp_net::{run_agent, AgentLaunch, NetConfig, SolveNet};
use discsp_runtime::{LinkPolicy, VirtualConfig};

const USAGE: &str = "usage:
  discsp-net agent --connect ADDR --index I [--io-timeout-secs S]
  discsp-net demo [--agents N] [--algo awc|dba] [--drop-ppm P] [--seed S] [--launch threads|processes]";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value {raw:?} for {flag}")),
        None => Ok(default),
    }
}

fn agent_role(args: &[String]) -> Result<(), String> {
    let addr: SocketAddr = flag_value(args, "--connect")
        .ok_or("agent: --connect ADDR is required")?
        .parse()
        .map_err(|e| format!("agent: bad --connect address: {e}"))?;
    let index: u32 = flag_value(args, "--index")
        .ok_or("agent: --index I is required")?
        .parse()
        .map_err(|e| format!("agent: bad --index: {e}"))?;
    let io_secs: u64 = parse(args, "--io-timeout-secs", 30)?;
    run_agent(addr, index, Duration::from_secs(io_secs)).map_err(|e| format!("agent {index}: {e}"))
}

fn ring_coloring(n: usize) -> Result<DistributedCsp, String> {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(3))).collect();
    for (i, &x) in vars.iter().enumerate() {
        let Some(&y) = vars.get((i + 1) % n) else {
            continue;
        };
        if x != y {
            b.not_equal(x, y).map_err(|e| e.to_string())?;
        }
    }
    b.build().map_err(|e| e.to_string())
}

fn demo_role(args: &[String]) -> Result<(), String> {
    let n: usize = parse(args, "--agents", 6)?;
    let algo = flag_value(args, "--algo").unwrap_or_else(|| "awc".to_string());
    let drop_ppm: u32 = parse(args, "--drop-ppm", 0)?;
    let seed: u64 = parse(args, "--seed", 42)?;
    let launch_kind = flag_value(args, "--launch").unwrap_or_else(|| "threads".to_string());

    let problem = ring_coloring(n)?;
    let init = Assignment::total((0..n).map(|_| Value::new(0)));
    let config = NetConfig {
        base: VirtualConfig {
            seed,
            link: if drop_ppm == 0 {
                LinkPolicy::perfect()
            } else {
                LinkPolicy::lossy(drop_ppm)
            },
            ..VirtualConfig::default()
        },
        ..NetConfig::default()
    };
    let launch = match launch_kind.as_str() {
        "threads" => AgentLaunch::Threads,
        "processes" => AgentLaunch::Processes {
            program: std::env::current_exe()
                .map_err(|e| format!("demo: cannot locate own binary: {e}"))?,
            args: Vec::new(),
        },
        other => return Err(format!("demo: unknown --launch {other:?}")),
    };

    let report = match algo.as_str() {
        "awc" => AwcSolver::new(discsp_awc::AwcConfig::resolvent())
            .solve_net(&problem, &init, &config, &launch)
            .map_err(|e| format!("demo: {e}"))?,
        "dba" => DbaSolver::new()
            .solve_net(&problem, &init, &config, &launch)
            .map_err(|e| format!("demo: {e}"))?,
        other => return Err(format!("demo: unknown --algo {other:?}")),
    };

    let m = &report.outcome.metrics;
    println!(
        "{n}-agent ring 3-coloring over TCP ({algo}, {launch_kind}): {:?} \
         in {} cycles, {} activations, {} nudges",
        m.termination, m.cycles, report.activations, report.nudges
    );
    println!(
        "  messages: {} ok + {} nogood + {} other \
         (sent {}, dropped {}, duplicated {}, retransmitted {})",
        m.ok_messages,
        m.nogood_messages,
        m.other_messages,
        m.messages_sent,
        m.messages_dropped,
        m.messages_duplicated,
        m.messages_retransmitted
    );
    println!("  checks: {} total, maxcck {}", m.total_checks, m.maxcck);
    if m.termination == Termination::Solved {
        Ok(())
    } else {
        Err(format!("demo: run ended {:?}", m.termination))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("agent") => agent_role(&args),
        Some("demo") => demo_role(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
