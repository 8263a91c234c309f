//! The `discsp-trace` analyzer binary.
//!
//! ```text
//! discsp-trace audit <trace.jsonl>...    # recompute metrics, cross-check RunMetrics
//! discsp-trace summarize <trace.jsonl>   # per-agent histograms, fault timeline
//! ```
//!
//! `audit` exits non-zero if any file fails to parse, cannot be audited,
//! or audits with mismatches — it is wired into `scripts/verify.sh` and
//! the CI fault-soak job as a hard gate.

use std::fs;
use std::process::ExitCode;

use discsp_trace::{audit, parse_trace, summarize, TraceEvent};

const USAGE: &str =
    "usage:\n  discsp-trace audit <trace.jsonl>...\n  discsp-trace summarize <trace.jsonl>";

fn load(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_audit(paths: &[String]) -> ExitCode {
    let mut failed = 0usize;
    for path in paths {
        let events = match load(path) {
            Ok(events) => events,
            Err(err) => {
                eprintln!("✗ {err}");
                failed += 1;
                continue;
            }
        };
        match audit(&events) {
            Ok(report) if report.passed() => {
                println!(
                    "✓ {path}: {} run, {} events — cycle {}, maxcck {}, total_checks {} \
                     all confirmed",
                    report.runtime,
                    report.events,
                    report.cycles,
                    report.maxcck,
                    report.total_checks
                );
            }
            Ok(report) => {
                eprintln!(
                    "✗ {path}: {} run, {} events — {} accounting failure(s):",
                    report.runtime,
                    report.events,
                    report.failures.len()
                );
                for failure in &report.failures {
                    eprintln!("    {failure}");
                }
                failed += 1;
            }
            Err(err) => {
                eprintln!("✗ {path}: {err}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("audit: {failed} of {} trace(s) failed", paths.len());
        ExitCode::FAILURE
    } else {
        println!("audit: all {} trace(s) passed", paths.len());
        ExitCode::SUCCESS
    }
}

fn run_summarize(path: &str) -> ExitCode {
    match load(path) {
        Ok(events) => {
            print!("{}", summarize(&events));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("✗ {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, paths)) if cmd == "audit" && !paths.is_empty() => run_audit(paths),
        Some((cmd, [path])) if cmd == "summarize" => run_summarize(path),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
