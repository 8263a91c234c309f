//! Solving over faulty links: drops, duplicates, delays, reordering.
//!
//! The link layer injects seeded faults into every message, so the same
//! agents that run over perfect channels now face a hostile network —
//! and still solve, because dropped messages are retransmitted on stall
//! and agents re-announce idempotently. On the deterministic runtime a
//! `(seed, LinkPolicy)` pair fully determines the run: this example
//! executes every configuration twice and checks the replays are
//! bit-identical, so the traces it writes repeat byte for byte from one
//! invocation to the next.
//!
//! Every run records its event trace, and every trace is audited
//! in-process: the `discsp-trace` analyzer recomputes `cycle`,
//! `maxcck`, `total_checks`, and the message conservation law from the
//! events alone and must agree with the `RunMetrics` the runtime
//! reported. Set `TRACE_DIR=some/dir` to also dump each trace as JSONL
//! so CI can re-audit them with the standalone binary
//! (`discsp-trace audit some/dir/*.jsonl`).
//!
//! ```text
//! cargo run --example lossy_links            # demo over 3 policies
//! cargo run --example lossy_links -- 25      # sweep 25 seeds per policy
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use discsp::prelude::*;
use discsp::trace::event_to_json;

fn policies() -> Vec<(&'static str, LinkPolicy)> {
    vec![
        ("lossy 10%", LinkPolicy::lossy(PPM / 10)),
        ("delayed 0..=3", LinkPolicy::delayed(0, 3)),
        (
            "hostile",
            LinkPolicy::lossy(PPM / 10)
                .with_duplication(PPM / 50)
                .with_delay(0, 2)
                .with_reordering(2),
        ),
    ]
}

/// File-name-safe form of a policy label ("lossy 10%" → "lossy_10").
fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Hard gate on one recorded run: the trace must audit cleanly and the
/// audit's independently recomputed metrics must equal what the runtime
/// reported. With `dir` set, also writes the trace as `<label>.jsonl`.
fn audit_and_dump(
    trace: &[TraceEvent],
    reported: &discsp::core::RunMetrics,
    label: &str,
    dir: Option<&Path>,
) -> Result<(), Box<dyn std::error::Error>> {
    let verdict = audit(trace).map_err(|e| format!("{label}: audit refused the trace: {e}"))?;
    if !verdict.passed() {
        return Err(format!("{label}: trace audit failed: {:?}", verdict.failures).into());
    }
    if &verdict.metrics != reported {
        return Err(format!("{label}: RunEnd metrics drifted from the report").into());
    }
    if let Some(dir) = dir {
        let text: String = trace.iter().map(|e| event_to_json(e) + "\n").collect();
        fs::write(dir.join(format!("{label}.jsonl")), text)?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sweep: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(3);

    let trace_dir: Option<PathBuf> = std::env::var_os("TRACE_DIR").map(PathBuf::from);
    if let Some(dir) = &trace_dir {
        fs::create_dir_all(dir)?;
    }

    let instance = paper_coloring(20, 13);
    let problem = coloring_to_discsp(&instance)?;
    println!("problem: {problem}");
    let init = Assignment::total(vec![Value::new(0); 20]);
    let awc = AwcSolver::new(AwcConfig::resolvent());
    let dba = DbaSolver::new();

    for (name, link) in policies() {
        println!("\n== {name} ==");
        for seed in 0..sweep {
            let config = VirtualConfig {
                seed,
                link,
                record_trace: true,
                ..VirtualConfig::default()
            };
            let first = awc.solve_virtual(&problem, &init, &config)?;
            let replay = awc.solve_virtual(&problem, &init, &config)?;
            assert_eq!(
                first.outcome, replay.outcome,
                "replay diverged — determinism is broken"
            );
            assert_eq!(first.ticks, replay.ticks);
            assert_eq!(
                first.trace, replay.trace,
                "replay diverged — the event traces differ"
            );
            let m = &first.outcome.metrics;
            assert!(m.termination.is_solved(), "seed {seed} unsolved");
            audit_and_dump(
                &first.trace,
                m,
                &format!("awc_{}_seed{seed}", slug(name)),
                trace_dir.as_deref(),
            )?;
            println!(
                "awc seed {seed:>2}: solved in {} ticks — {} sent, {} dropped, \
                 {} duplicated, {} reordered, {} retransmitted, max delay {}",
                first.ticks,
                m.messages_sent,
                m.messages_dropped,
                m.messages_duplicated,
                m.messages_reordered,
                m.messages_retransmitted,
                m.max_delivery_delay,
            );

            let report = dba.solve_virtual(&problem, &init, &config)?;
            let m = &report.outcome.metrics;
            assert!(m.termination.is_solved(), "dba seed {seed} unsolved");
            audit_and_dump(
                &report.trace,
                m,
                &format!("dba_{}_seed{seed}", slug(name)),
                trace_dir.as_deref(),
            )?;
            println!(
                "dba seed {seed:>2}: solved in {} ticks — {} sent, {} dropped",
                report.ticks, m.messages_sent, m.messages_dropped,
            );
        }
    }

    // Forgetting-enabled AWC under the hostile policy: evictions emit
    // NogoodForgotten events, and the audit must stay green — forgetting
    // changes no counter the paper measures.
    let (_, hostile) = policies().pop().expect("nonempty");
    let forgetful = AwcSolver::new(AwcConfig::resolvent().with_forget_limit(4));
    println!("\n== hostile + forgetting (Rslv/f4) ==");
    for seed in 0..sweep {
        let config = VirtualConfig {
            seed,
            link: hostile,
            record_trace: true,
            ..VirtualConfig::default()
        };
        let first = forgetful.solve_virtual(&problem, &init, &config)?;
        let replay = forgetful.solve_virtual(&problem, &init, &config)?;
        assert_eq!(
            first.trace, replay.trace,
            "forgetting replay diverged — eviction is not deterministic"
        );
        let m = &first.outcome.metrics;
        assert!(m.termination.is_solved(), "forgetful seed {seed} unsolved");
        audit_and_dump(
            &first.trace,
            m,
            &format!("awc_forget_hostile_seed{seed}"),
            trace_dir.as_deref(),
        )?;
        let forgotten: u64 = first
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::NogoodForgotten { count, .. } => Some(*count),
                _ => None,
            })
            .sum();
        println!(
            "awc/f4 seed {seed:>2}: solved in {} ticks — {} nogoods learned, {} forgotten",
            first.ticks, m.nogoods_generated, forgotten,
        );
    }

    println!(
        "\nall faulty-link runs solved, every deterministic replay was bit-identical, \
         and every trace audit confirmed the reported metrics ✓"
    );
    Ok(())
}
