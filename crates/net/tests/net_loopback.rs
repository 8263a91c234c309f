//! Multi-process loopback integration tests: a coordinator plus real
//! agent processes (the `discsp-net` binary) on 127.0.0.1 must solve
//! the same problems as the in-process virtual runtime, with the same
//! metrics and — under injected faults — bit-identical fault counters
//! replayed from the same `(seed, policy)`.

use std::path::PathBuf;

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Domain, RunMetrics, Termination, Value};
use discsp_dba::{DbaSolver, WeightMode};
use discsp_net::{AgentLaunch, NetConfig, SolveNet};
use discsp_runtime::{LinkPolicy, Solver, VirtualConfig};
use discsp_trace::{audit, canonical_sort, TraceEvent};

fn agent_binary() -> AgentLaunch {
    AgentLaunch::Processes {
        program: PathBuf::from(env!("CARGO_BIN_EXE_discsp-net")),
        args: Vec::new(),
    }
}

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

/// The message-identity invariant: every message the link layer was
/// handed is accounted for exactly once.
fn assert_identity(m: &RunMetrics) {
    assert_eq!(
        m.total_messages(),
        m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
        "message identity invariant"
    );
}

/// Every field of the virtual and networked runs must agree, `maxcck`
/// included: both executors accumulate it at the same wave boundaries
/// from the same check counts.
fn assert_metrics_match(net: &RunMetrics, virt: &RunMetrics) {
    assert_eq!(net.termination, virt.termination, "termination");
    assert_eq!(net.cycles, virt.cycles, "cycles");
    assert_eq!(net.maxcck, virt.maxcck, "maxcck");
    assert_eq!(net.total_checks, virt.total_checks, "total_checks");
    assert_eq!(net.ok_messages, virt.ok_messages, "ok_messages");
    assert_eq!(net.nogood_messages, virt.nogood_messages, "nogood_messages");
    assert_eq!(net.other_messages, virt.other_messages, "other_messages");
    assert_eq!(
        net.nogoods_generated, virt.nogoods_generated,
        "nogoods_generated"
    );
    assert_eq!(
        net.redundant_nogoods, virt.redundant_nogoods,
        "redundant_nogoods"
    );
    assert_eq!(net.largest_nogood, virt.largest_nogood, "largest_nogood");
    assert_eq!(net.messages_sent, virt.messages_sent, "messages_sent");
    assert_eq!(
        net.messages_dropped, virt.messages_dropped,
        "messages_dropped"
    );
    assert_eq!(
        net.messages_duplicated, virt.messages_duplicated,
        "messages_duplicated"
    );
    assert_eq!(
        net.messages_reordered, virt.messages_reordered,
        "messages_reordered"
    );
    assert_eq!(
        net.messages_retransmitted, virt.messages_retransmitted,
        "messages_retransmitted"
    );
    assert_eq!(
        net.max_delivery_delay, virt.max_delivery_delay,
        "max_delivery_delay"
    );
}

/// A trace without its `RunEnd` stamp (whose runtime kind differs
/// between executors), in canonical order.
fn strip(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = trace
        .iter()
        .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
        .cloned()
        .collect();
    canonical_sort(&mut events);
    events
}

#[test]
fn awc_processes_match_virtual_run() {
    let n = 6;
    let problem = ring(n);
    let init = all_zero(n);
    let solver = AwcSolver::new(AwcConfig::resolvent());

    let net_config = NetConfig {
        base: VirtualConfig {
            seed: 11,
            ..VirtualConfig::default()
        },
        ..NetConfig::default()
    };
    let report = solver
        .solve_net(&problem, &init, &net_config, &agent_binary())
        .expect("networked solve");
    let m = &report.outcome.metrics;
    assert_eq!(m.termination, Termination::Solved);
    let solution = report.outcome.solution.as_ref().expect("solution");
    assert!(problem.is_solution(solution), "claimed solution must hold");
    assert_identity(m);
    assert!(m.maxcck > 0, "networked run computes maxcck");
    assert!(m.maxcck <= m.total_checks, "maxcck is a per-wave maximum");

    let virt_config = VirtualConfig {
        seed: 11,
        ..VirtualConfig::default()
    };
    let virt = solver
        .solve_virtual(&problem, &init, &virt_config)
        .expect("virtual solve");
    assert_metrics_match(m, &virt.outcome.metrics);
    assert_eq!(report.activations, virt.activations, "activations");
    assert_eq!(report.nudges, virt.nudges, "nudges");
    assert_eq!(
        report.outcome.solution, virt.outcome.solution,
        "same solution"
    );
}

#[test]
fn lossy_processes_replay_bit_identical_fault_counters() {
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let policy = LinkPolicy::lossy(250_000)
        .with_duplication(80_000)
        .with_delay(0, 2)
        .with_reordering(2);
    let config = NetConfig {
        base: VirtualConfig {
            seed: 2026,
            link: policy,
            ..VirtualConfig::default()
        },
        ..NetConfig::default()
    };

    let first = solver
        .solve_net(&problem, &init, &config, &agent_binary())
        .expect("first lossy run");
    let second = solver
        .solve_net(&problem, &init, &config, &agent_binary())
        .expect("second lossy run");
    let (a, b) = (&first.outcome.metrics, &second.outcome.metrics);
    assert_identity(a);
    assert!(
        a.messages_dropped > 0 || a.messages_duplicated > 0,
        "policy must actually fire: {a:?}"
    );
    assert_eq!(a, b, "same (seed, policy) must replay bit-identically");

    // And the fault schedule is the one the virtual runtime derives from
    // the same (seed, policy): the coordinator relays through the same
    // per-link seeded lottery.
    let virt = solver
        .solve_virtual(
            &problem,
            &init,
            &VirtualConfig {
                seed: 2026,
                link: policy,
                ..VirtualConfig::default()
            },
        )
        .expect("virtual lossy run");
    assert_metrics_match(a, &virt.outcome.metrics);
}

#[test]
fn lossy_net_trace_matches_virtual_trace_and_passes_audit() {
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let policy = LinkPolicy::lossy(250_000)
        .with_duplication(80_000)
        .with_delay(0, 2)
        .with_reordering(2);

    let net_report = solver
        .solve_net(
            &problem,
            &init,
            &NetConfig {
                base: VirtualConfig {
                    seed: 2026,
                    link: policy,
                    record_trace: true,
                    ..VirtualConfig::default()
                },
                ..NetConfig::default()
            },
            &AgentLaunch::Threads,
        )
        .expect("networked lossy run");
    let virt_report = solver
        .solve_virtual(
            &problem,
            &init,
            &VirtualConfig {
                seed: 2026,
                link: policy,
                record_trace: true,
                ..VirtualConfig::default()
            },
        )
        .expect("virtual lossy run");

    // Both traces must independently reproduce their own metrics.
    let net_audit = audit(&net_report.trace).expect("net trace audits");
    assert!(
        net_audit.passed(),
        "net audit failed: {:?}",
        net_audit.failures
    );
    assert_eq!(net_audit.metrics, net_report.outcome.metrics);
    let virt_audit = audit(&virt_report.trace).expect("virtual trace audits");
    assert!(
        virt_audit.passed(),
        "virtual audit failed: {:?}",
        virt_audit.failures
    );
    assert_eq!(virt_audit.metrics, virt_report.outcome.metrics);

    // And the two event streams are identical modulo the RunEnd stamp
    // (whose runtime kind necessarily differs).
    assert_eq!(
        strip(&net_report.trace),
        strip(&virt_report.trace),
        "same (seed, policy) must produce the same event stream across the process boundary"
    );
}

#[test]
fn dba_threads_match_virtual_run() {
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let solver = DbaSolver::new().weight_mode(WeightMode::PerNogood);

    let report = solver
        .solve_net(
            &problem,
            &init,
            &NetConfig {
                base: VirtualConfig {
                    seed: 3,
                    ..VirtualConfig::default()
                },
                ..NetConfig::default()
            },
            &AgentLaunch::Threads,
        )
        .expect("networked dba solve");
    let m = &report.outcome.metrics;
    assert_eq!(m.termination, Termination::Solved);
    let solution = report.outcome.solution.as_ref().expect("solution");
    assert!(problem.is_solution(solution));
    assert_identity(m);

    let virt = solver
        .solve_virtual(
            &problem,
            &init,
            &VirtualConfig {
                seed: 3,
                ..VirtualConfig::default()
            },
        )
        .expect("virtual dba solve");
    assert_metrics_match(m, &virt.outcome.metrics);
    assert_eq!(report.outcome.solution, virt.outcome.solution);
}

#[test]
fn net_threads_replay_a_recorded_fault_schedule() {
    // A lossy virtual run's fault log, replayed over sockets under a
    // perfect lottery: every fault must come from the script, which the
    // coordinator's engine reads from `base.schedule`.
    let n = 5;
    let problem = ring(n);
    let init = all_zero(n);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let lossy = VirtualConfig {
        seed: 2026,
        link: LinkPolicy::lossy(250_000)
            .with_duplication(80_000)
            .with_delay(0, 2)
            .with_reordering(2),
        record_trace: true,
        ..VirtualConfig::default()
    };
    let recorded = solver
        .solve_virtual(&problem, &init, &lossy)
        .expect("recorded lossy run");
    let scripted = VirtualConfig {
        link: LinkPolicy::perfect(),
        schedule: Some(recorded.fault_log.clone()),
        ..lossy
    };
    let replay = solver
        .solve_virtual(&problem, &init, &scripted)
        .expect("scripted virtual run");
    let net = solver
        .solve_net(
            &problem,
            &init,
            &NetConfig {
                base: scripted,
                ..NetConfig::default()
            },
            &AgentLaunch::Threads,
        )
        .expect("scripted net run");

    let m = &net.outcome.metrics;
    assert!(
        m.messages_dropped > 0,
        "the lottery is perfect, so these drops came from the script: {m:?}"
    );
    assert_identity(m);
    assert_metrics_match(m, &recorded.outcome.metrics);
    assert_eq!(net.outcome, replay.outcome, "outcome");
    assert_eq!(net.ticks, replay.ticks, "ticks");
    assert_eq!(net.activations, replay.activations, "activations");
    assert_eq!(net.nudges, replay.nudges, "nudges");
    assert_eq!(strip(&net.trace), strip(&replay.trace), "trace");
}
