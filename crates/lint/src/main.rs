//! The `discsp-lint` binary.
//!
//! ```text
//! cargo run -p discsp-lint                  # lint the whole workspace
//! cargo run -p discsp-lint -- --json       # machine-readable output
//! cargo run -p discsp-lint -- --timing     # per-phase wall-time table
//! cargo run -p discsp-lint -- FILE.rs ...  # lint specific files, all per-file rules
//! ```
//!
//! Exit codes: 0 clean, 1 error-severity findings, 2 usage errors, and
//! 3 for *internal analyzer errors* (unreadable inputs, missing schema
//! sync points, blown `--max-millis` budget) — a distinct code so CI
//! can tell a broken lint from a dirty tree. Warnings (unused inline
//! annotations) are printed but do not fail the run.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use discsp_lint::allow::Allowlist;
use discsp_lint::diag::{render_json, render_text, Finding, Severity};
use discsp_lint::rules::FILE_RULES;
use discsp_lint::{analyze_source, analyze_workspace, WorkspaceReport};

struct Options {
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    json: bool,
    timing: bool,
    max_millis: Option<u64>,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: discsp-lint [--root DIR] [--allowlist FILE] [--json] [--timing] \
     [--max-millis N] [FILES...]\n\
     \n\
     With FILES, every per-file rule is applied to each file regardless\n\
     of the scope map (fixture/debug mode). Without FILES, the workspace\n\
     under --root (autodetected from the current directory) is analyzed\n\
     with the scope map, the workspace rules (P2/D3/W1), and\n\
     lint-allow.list. --timing prints a per-phase wall-time table;\n\
     --max-millis N makes a run slower than N ms an internal error\n\
     (exit 3), which is how CI holds the analyzer to its budget."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        allowlist: None,
        json: false,
        timing: false,
        max_millis: None,
        files: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => opts.json = true,
            "--timing" => opts.timing = true,
            "--max-millis" => {
                i += 1;
                let n = args.get(i).ok_or("--max-millis needs a number argument")?;
                opts.max_millis = Some(
                    n.parse()
                        .map_err(|_| format!("bad --max-millis value `{n}`"))?,
                );
            }
            "--root" => {
                i += 1;
                let dir = args.get(i).ok_or("--root needs a directory argument")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--allowlist" => {
                i += 1;
                let file = args.get(i).ok_or("--allowlist needs a file argument")?;
                opts.allowlist = Some(PathBuf::from(file));
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    Ok(opts)
}

/// Walks upward from the current directory to the first directory that
/// looks like the workspace root (has both `Cargo.toml` and `crates/`).
fn detect_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn load_allowlist(path: &Path) -> (Allowlist, Vec<Finding>) {
    match fs::read_to_string(path) {
        Ok(text) => Allowlist::parse(&path.to_string_lossy(), &text),
        Err(e) => {
            eprintln!("discsp-lint: cannot read allowlist {}: {e}", path.display());
            (Allowlist::empty(), Vec::new())
        }
    }
}

/// Fixture/debug mode: every per-file rule on every named file, so rule
/// behavior can be exercised on files outside the workspace scope map.
fn run_on_files(opts: &Options) -> Result<Vec<Finding>, String> {
    let (allowlist, mut findings) = match &opts.allowlist {
        Some(path) => load_allowlist(path),
        None => (Allowlist::empty(), Vec::new()),
    };
    for file in &opts.files {
        let src =
            fs::read_to_string(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.to_string_lossy().replace('\\', "/");
        findings.extend(analyze_source(&rel, &src, &FILE_RULES, &allowlist));
    }
    findings.extend(allowlist.unused_entries());
    Ok(findings)
}

fn run_on_workspace(opts: &Options) -> Result<WorkspaceReport, String> {
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => detect_root().ok_or(
            "cannot find workspace root (no Cargo.toml + crates/ above the current \
             directory); pass --root",
        )?,
    };
    Ok(analyze_workspace(&root))
}

fn print_timings(report: &WorkspaceReport) {
    println!("discsp-lint timing:");
    for (phase, d) in &report.timings {
        println!("  {phase:<20} {:>8.2} ms", d.as_secs_f64() * 1000.0);
    }
    println!(
        "  {:<20} {:>8.2} ms  ({} files, {} fns, {} call edges)",
        "total",
        report.total_time().as_secs_f64() * 1000.0,
        report.files_scanned,
        report.fns_indexed,
        report.call_edges,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("discsp-lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut internal_errors = Vec::new();
    let (findings, files_scanned) = if opts.files.is_empty() {
        match run_on_workspace(&opts) {
            Ok(report) => {
                internal_errors.extend(report.internal_errors.iter().cloned());
                if let Some(budget) = opts.max_millis {
                    // Microsecond resolution so `--max-millis 0` always
                    // trips: a sub-millisecond run truncates to 0 ms.
                    let spent_us = report.total_time().as_micros() as u64;
                    if spent_us > budget.saturating_mul(1000) {
                        internal_errors.push(format!(
                            "analyzer blew its time budget: {:.2} ms > {budget} ms",
                            spent_us as f64 / 1000.0
                        ));
                    }
                }
                if opts.timing {
                    print_timings(&report);
                }
                (report.findings, Some(report.files_scanned))
            }
            Err(msg) => {
                eprintln!("discsp-lint: {msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        match run_on_files(&opts) {
            Ok(f) => (f, None),
            Err(msg) => {
                eprintln!("discsp-lint: {msg}");
                return ExitCode::from(2);
            }
        }
    };

    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;

    if opts.json {
        print!("{}", render_json(&findings));
    } else {
        for f in &findings {
            print!("{}", render_text(f));
            println!();
        }
        let scanned = files_scanned.map_or(String::new(), |n| format!(" across {n} files"));
        if errors == 0 && warnings == 0 {
            println!("discsp-lint: clean{scanned}");
        } else {
            println!(
                "discsp-lint: {errors} error{}, {warnings} warning{}{scanned}",
                if errors == 1 { "" } else { "s" },
                if warnings == 1 { "" } else { "s" },
            );
        }
    }

    if !internal_errors.is_empty() {
        for e in &internal_errors {
            eprintln!("discsp-lint: internal error: {e}");
        }
        return ExitCode::from(3);
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
