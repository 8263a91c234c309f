//! Golden trace-audit tests for the unified trace pipeline.
//!
//! Every runtime records the same event schema; the `discsp-trace`
//! analyzer replays a trace and *independently* recomputes the paper's
//! metrics (`cycle`, `maxcck`, `total_checks`) plus the message
//! accounting, then compares them against the `RunMetrics` the runtime
//! itself reported. These tests pin that agreement on seeded AWC and
//! DBA runs across the runtimes (including lossy link policies),
//! check the JSONL format roundtrips losslessly, and prove the audit
//! actually catches corruption by deleting a single `Delivered` event.

use discsp::prelude::*;
use discsp_trace::{audit, event_to_json, parse_trace, summarize, TraceEvent};

fn ring(n: usize) -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..n {
        let x = vars[i];
        let y = vars[(i + 1) % n];
        if x != y {
            b.not_equal(x, y).expect("ring edge");
        }
    }
    b.build().expect("ring problem")
}

fn all_zero(n: usize) -> Assignment {
    Assignment::total((0..n).map(|_| Value::new(0)))
}

fn lossy_policy() -> LinkPolicy {
    LinkPolicy::lossy(250_000)
        .with_duplication(80_000)
        .with_delay(0, 2)
        .with_reordering(2)
}

/// Audits `trace` and asserts the recomputation matches `reported`
/// field for field (the audit's failure list is empty exactly when
/// every recomputed counter equals its reported counterpart).
fn assert_audit_exact(trace: &[TraceEvent], reported: &discsp_core::RunMetrics, label: &str) {
    let audit = audit(trace).unwrap_or_else(|e| panic!("{label}: audit refused the trace: {e}"));
    assert!(
        audit.passed(),
        "{label}: audit found discrepancies: {:#?}",
        audit.failures
    );
    assert_eq!(
        &audit.metrics, reported,
        "{label}: RunEnd metrics differ from the report's"
    );
}

#[test]
fn sync_awc_and_dba_traces_audit_exactly() {
    let n = 6;
    let problem = ring(n);
    let init = all_zero(n);

    let awc = AwcSolver::new(AwcConfig::resolvent())
        .record_trace(true)
        .message_delay(3, 7)
        .solve_sync(&problem, &init)
        .expect("awc sync run");
    assert_audit_exact(&awc.trace, &awc.outcome.metrics, "sync awc");

    let dba = DbaSolver::new()
        .record_trace(true)
        .solve_sync(&problem, &init)
        .expect("dba sync run");
    assert_audit_exact(&dba.trace, &dba.outcome.metrics, "sync dba");

    // The ride-along emitters fire on every runtime: value changes
    // appear in the trace, not just steps.
    assert!(awc
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::ValueChanged { .. })));

    // A run that actually deadends (K4 is not 3-colorable) must also
    // show its learned nogoods, one event per generation.
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            b.not_equal(vars[i], vars[j]).expect("k4 edge");
        }
    }
    let k4 = b.build().expect("k4 problem");
    let run = AwcSolver::new(AwcConfig::resolvent())
        .record_trace(true)
        .cycle_limit(5_000)
        .solve_sync(&k4, &all_zero(4))
        .expect("awc k4 run");
    assert_audit_exact(&run.trace, &run.outcome.metrics, "sync awc k4");
    let learned = run
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::NogoodLearned { .. }))
        .count() as u64;
    assert_eq!(
        learned, run.outcome.metrics.nogoods_generated,
        "one NogoodLearned event per generated nogood"
    );
    assert!(learned > 0, "K4 must force nogood generation");
}

#[test]
fn virtual_lossy_sweep_audits_exactly_for_both_algorithms() {
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let awc = AwcSolver::new(AwcConfig::resolvent());
    let dba = DbaSolver::new();

    // 13 seeds x 2 algorithms = 26 lossy trials, every one audited.
    for seed in 0..13 {
        let config = VirtualConfig {
            seed,
            link: lossy_policy(),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let run = awc
            .solve_virtual(&problem, &init, &config)
            .expect("awc virtual run");
        assert_audit_exact(
            &run.trace,
            &run.outcome.metrics,
            &format!("virtual awc seed {seed}"),
        );
        let run = dba
            .solve_virtual(&problem, &init, &config)
            .expect("dba virtual run");
        assert_audit_exact(
            &run.trace,
            &run.outcome.metrics,
            &format!("virtual dba seed {seed}"),
        );
    }
}

#[test]
fn async_lossy_trace_is_auditable() {
    // Asynchronous message timing on worker threads: 30% drops and
    // 0–2 ticks of delay, with the population spread over 4 shards.
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let base = VirtualConfig {
        seed: 9,
        link: LinkPolicy::lossy(300_000).with_delay(0, 2),
        record_trace: true,
        ..VirtualConfig::default()
    };
    let report = AwcSolver::new(AwcConfig::resolvent())
        .solve_sharded(&problem, &init, &ShardConfig::with_base(base, 4))
        .expect("sharded lossy run");
    assert!(
        report.outcome.metrics.messages_dropped > 0,
        "the lottery must fire"
    );
    assert_audit_exact(&report.trace, &report.outcome.metrics, "sharded awc");
}

#[test]
fn net_threads_trace_audits_exactly() {
    let n = 4;
    let problem = ring(n);
    let init = all_zero(n);
    let config = NetConfig {
        seed: 5,
        record_trace: true,
        ..NetConfig::default()
    };
    let report = AwcSolver::new(AwcConfig::resolvent())
        .solve_net(&problem, &init, &config, &AgentLaunch::Threads)
        .expect("networked run");
    assert!(!report.trace.is_empty(), "net run must ship its trace home");
    assert_audit_exact(&report.trace, &report.outcome.metrics, "net awc");
}

#[test]
fn jsonl_roundtrip_preserves_the_trace_and_its_audit() {
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let run = AwcSolver::new(AwcConfig::resolvent())
        .solve_virtual(
            &problem,
            &init,
            &VirtualConfig {
                seed: 3,
                link: lossy_policy(),
                record_trace: true,
                ..VirtualConfig::default()
            },
        )
        .expect("virtual run");

    let text: String = run
        .trace
        .iter()
        .map(|e| event_to_json(e) + "\n")
        .collect();
    let parsed = parse_trace(&text).expect("every emitted line parses back");
    assert_eq!(parsed, run.trace, "JSONL roundtrip must be lossless");
    assert_audit_exact(&parsed, &run.outcome.metrics, "parsed jsonl");

    // The human summary renders without panicking and names the runtime.
    let summary = summarize(&parsed);
    assert!(summary.contains("virtual"), "summary names the runtime: {summary}");
}

#[test]
fn dropping_one_delivered_event_fails_the_audit_with_a_pointed_diagnostic() {
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let run = AwcSolver::new(AwcConfig::resolvent())
        .solve_virtual(
            &problem,
            &init,
            &VirtualConfig {
                seed: 4,
                link: lossy_policy(),
                record_trace: true,
                ..VirtualConfig::default()
            },
        )
        .expect("virtual run");
    assert_audit_exact(&run.trace, &run.outcome.metrics, "uncorrupted");

    let victim = run
        .trace
        .iter()
        .position(|e| matches!(e, TraceEvent::Delivered { .. }))
        .expect("a lossy run still delivers something");
    let mut corrupted = run.trace.clone();
    corrupted.remove(victim);

    let verdict = audit(&corrupted).expect("corrupted trace still audits");
    assert!(
        !verdict.passed(),
        "the audit must notice one missing Delivered event"
    );
    assert!(
        verdict
            .failures
            .iter()
            .any(|f| f.contains("Delivered event is missing")),
        "diagnostic must point at the missing delivery: {:#?}",
        verdict.failures
    );
}
