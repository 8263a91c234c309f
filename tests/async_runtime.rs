//! Integration: the solvers under asynchronous message timing.
//!
//! The paper's algorithms are designed for a fully asynchronous system
//! (§5). Here the arbitrary interleavings come from the link layer:
//! seeded delay and reordering split and reorder every inbox, drops and
//! duplicates perturb it further, and every run replays bit for bit.
//! Each `async` test runs its configuration on `run_virtual` and on
//! `run_sharded` with 1 and 4 workers, and the three reports must agree
//! field by field.

use discsp::prelude::*;
use discsp::runtime::VirtualReport;

fn small_coloring() -> DistributedCsp {
    coloring_to_discsp(&paper_coloring(20, 13)).expect("encode")
}

/// Runs one configuration on `run_virtual` and on `run_sharded` at 1 and
/// 4 workers, asserts that the reports agree field by field (the trace up
/// to its `RunEnd` runtime stamp), and returns the virtual report.
fn on_every_executor(
    base: &VirtualConfig,
    virtual_run: impl Fn(&VirtualConfig) -> VirtualReport,
    sharded_run: impl Fn(&ShardConfig) -> VirtualReport,
) -> VirtualReport {
    let reference = virtual_run(base);
    let stripped = |trace: &[TraceEvent]| -> Vec<TraceEvent> {
        trace
            .iter()
            .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
            .cloned()
            .collect()
    };
    for workers in [1usize, 4] {
        let run = sharded_run(&ShardConfig::with_base(base.clone(), workers));
        assert_eq!(run.outcome, reference.outcome, "workers {workers}: outcome");
        assert_eq!(run.ticks, reference.ticks, "workers {workers}: ticks");
        assert_eq!(run.activations, reference.activations, "workers {workers}");
        assert_eq!(run.nudges, reference.nudges, "workers {workers}: nudges");
        assert_eq!(run.fault_log, reference.fault_log, "workers {workers}");
        assert_eq!(
            stripped(&run.trace),
            stripped(&reference.trace),
            "workers {workers}: trace"
        );
    }
    reference
}

/// AWC Rslv on every deterministic executor.
fn awc_everywhere(
    problem: &DistributedCsp,
    init: &Assignment,
    base: &VirtualConfig,
) -> VirtualReport {
    let solver = AwcSolver::new(AwcConfig::resolvent());
    on_every_executor(
        base,
        |c| solver.solve_virtual(problem, init, c).expect("fits"),
        |c| solver.solve_sharded(problem, init, c).expect("fits"),
    )
}

#[test]
fn awc_async_solves_coloring_under_jitter() {
    // Uniform link delay plays the role of per-activation jitter: each
    // message waits 0–3 extra ticks, so agents act on stale views.
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    for seed in 0..3u64 {
        let base = VirtualConfig {
            seed,
            link: LinkPolicy::delayed(0, 3),
            ..VirtualConfig::default()
        };
        let report = awc_everywhere(&problem, &init, &base);
        assert_eq!(
            report.outcome.metrics.termination,
            Termination::Solved,
            "seed {seed}"
        );
        let solution = report.outcome.solution.expect("solved");
        assert!(problem.is_solution(&solution));
        assert!(report.activations >= 20, "every agent must have started");
    }
}

#[test]
fn awc_async_solves_unique_sat() {
    let instance = paper_one_sat3(12, 4);
    let problem = cnf_to_discsp(&instance.cnf).expect("encode");
    let init = Assignment::total(vec![Value::FALSE; 12]);
    // The *unrestricted* resolvent configuration: size-bounded recording
    // is incomplete, so under adversarial interleavings it can
    // legitimately fail to terminate — not a property to assert against.
    let report = awc_everywhere(&problem, &init, &VirtualConfig::default());
    assert_eq!(report.outcome.metrics.termination, Termination::Solved);
    assert_eq!(
        report.outcome.solution,
        Some(model_to_assignment(&instance.planted))
    );
}

#[test]
fn db_async_solves_coloring() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = DbaSolver::new();
    let report = on_every_executor(
        &VirtualConfig::default(),
        |c| solver.solve_virtual(&problem, &init, c).expect("fits"),
        |c| solver.solve_sharded(&problem, &init, c).expect("fits"),
    );
    assert_eq!(report.outcome.metrics.termination, Termination::Solved);
    assert!(problem.is_solution(&report.outcome.solution.expect("solved")));
}

#[test]
fn async_message_counts_are_plausible() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let report = awc_everywhere(&problem, &init, &VirtualConfig::default());
    let m = &report.outcome.metrics;
    // Every agent announces to each neighbor at start; the coloring
    // instance has 54 arcs → at least 108 initial ok? messages.
    assert!(m.ok_messages >= 108, "ok messages {}", m.ok_messages);
    assert!(m.total_checks > 0);
}

/// The fault policy exercised by the deterministic sweep: 10% drops, 2%
/// duplicates, delivery delayed up to 2 ticks, 2-tick reordering window.
fn faulty() -> LinkPolicy {
    LinkPolicy::lossy(100_000)
        .with_duplication(20_000)
        .with_delay(0, 2)
        .with_reordering(2)
}

#[test]
fn awc_virtual_solves_coloring_over_faulty_links_across_seeds() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    for seed in 0..5u64 {
        let config = VirtualConfig {
            seed,
            link: faulty(),
            ..VirtualConfig::default()
        };
        let report = solver.solve_virtual(&problem, &init, &config).expect("fits");
        let m = &report.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved, "seed {seed}");
        assert!(problem.is_solution(&report.outcome.solution.clone().expect("solved")));
        assert!(m.messages_dropped > 0, "seed {seed}: lottery never fired");
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped + m.messages_duplicated
                + m.messages_retransmitted,
            "seed {seed}: enqueued-copies identity"
        );
    }
}

#[test]
fn db_virtual_solves_coloring_over_faulty_links_across_seeds() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = DbaSolver::new();
    for seed in 0..5u64 {
        let config = VirtualConfig {
            seed,
            link: faulty(),
            ..VirtualConfig::default()
        };
        let report = solver.solve_virtual(&problem, &init, &config).expect("fits");
        assert_eq!(
            report.outcome.metrics.termination,
            Termination::Solved,
            "seed {seed}"
        );
        assert!(problem.is_solution(&report.outcome.solution.expect("solved")));
    }
}

#[test]
fn virtual_faulty_runs_replay_bit_identically() {
    // The acceptance criterion for the whole fault layer: a fixed
    // (seed, policy) pair fully determines the run — counters,
    // termination, solution, tick count, everything.
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let config = VirtualConfig {
        seed: 424_242,
        link: faulty(),
        ..VirtualConfig::default()
    };
    let a = solver.solve_virtual(&problem, &init, &config).expect("fits");
    let b = solver.solve_virtual(&problem, &init, &config).expect("fits");
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.activations, b.activations);
    assert_eq!(a.nudges, b.nudges);
}

#[test]
fn awc_async_solves_coloring_over_faulty_links() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let base = VirtualConfig {
        seed: 7,
        link: faulty(),
        ..VirtualConfig::default()
    };
    let report = awc_everywhere(&problem, &init, &base);
    let m = &report.outcome.metrics;
    assert_eq!(m.termination, Termination::Solved);
    assert!(problem.is_solution(&report.outcome.solution.clone().expect("solved")));
    assert_eq!(
        m.total_messages(),
        m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
        "class counters count exactly the enqueued copies"
    );
}
