//! The tentpole's central claim: a session multiplexed among many on
//! one service is **bit-identical** to the same `(seed, policy)` run
//! alone on `solve_virtual` — metrics, solution, tick counts, and trace
//! all match field-for-field, no matter how many sessions interleave,
//! how they are ordered, or how many worker threads poll the table.
//! Plus lifecycle: drain loses nothing, and overload is a typed
//! refusal the service recovers from.

use discsp_awc::AwcConfig;
use discsp_core::{Assignment, Termination, Value};
use discsp_dba::WeightMode;
use discsp_net::AlgoSpec;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{LinkPolicy, Solver, TraceEvent, VirtualConfig, VirtualReport};
use discsp_service::{ServiceConfig, ServiceError, SessionSpec, SolveService};
use discsp_trace::RuntimeKind;

/// A mixed-workload spec: algorithm, link policy, and seed all vary by
/// index — the same mix `discsp-load` generates.
fn spec(index: u64) -> SessionSpec {
    let (algo, link) = match index % 4 {
        0 => (AlgoSpec::Awc(AwcConfig::resolvent()), LinkPolicy::perfect()),
        1 => (AlgoSpec::Awc(AwcConfig::mcs()), LinkPolicy::perfect()),
        2 => (AlgoSpec::Dba(WeightMode::PerNogood), LinkPolicy::perfect()),
        _ => (
            AlgoSpec::Awc(AwcConfig::resolvent()),
            LinkPolicy::lossy(30_000),
        ),
    };
    let instance = paper_coloring(10, 100 + index);
    SessionSpec {
        problem: coloring_to_discsp(&instance).expect("coloring encodes"),
        init: Assignment::total((0..10).map(|_| Value::new(0))),
        algo,
        config: VirtualConfig {
            seed: 0x5EED ^ index,
            link,
            record_trace: true,
            ..VirtualConfig::default()
        },
    }
}

/// The uninterrupted in-process reference run for a spec.
fn solo(spec: &SessionSpec) -> VirtualReport {
    match spec.algo {
        AlgoSpec::Awc(config) => discsp_awc::AwcSolver::new(config)
            .solve_virtual(&spec.problem, &spec.init, &spec.config)
            .expect("solo awc run"),
        AlgoSpec::Dba(mode) => discsp_dba::DbaSolver::new()
            .weight_mode(mode)
            .solve_virtual(&spec.problem, &spec.init, &spec.config)
            .expect("solo dba run"),
    }
}

/// Strips the runtime stamp from `RunEnd` — the one field that
/// legitimately differs between the service and `run_virtual`.
fn normalize(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    trace
        .iter()
        .cloned()
        .map(|event| match event {
            TraceEvent::RunEnd {
                cycle,
                runtime: _,
                in_flight,
                metrics,
            } => TraceEvent::RunEnd {
                cycle,
                runtime: RuntimeKind::Virtual,
                in_flight,
                metrics,
            },
            other => other,
        })
        .collect()
}

fn assert_reports_match(context: &str, service: &VirtualReport, reference: &VirtualReport) {
    assert_eq!(
        service.outcome.metrics, reference.outcome.metrics,
        "{context}: metrics diverged"
    );
    assert_eq!(
        service.outcome.solution, reference.outcome.solution,
        "{context}: solution diverged"
    );
    assert_eq!(service.ticks, reference.ticks, "{context}: ticks diverged");
    assert_eq!(
        service.activations, reference.activations,
        "{context}: activations diverged"
    );
    assert_eq!(
        service.nudges, reference.nudges,
        "{context}: nudges diverged"
    );
    assert_eq!(
        normalize(&service.trace),
        normalize(&reference.trace),
        "{context}: trace diverged"
    );
}

#[test]
fn interleaved_sessions_are_bit_identical_to_solo_runs() {
    // 12 mixed sessions forced through 3 active slots: heavy
    // interleaving, promotions mid-flight, different algorithms and
    // lossy links side by side. Every one must match its solo run.
    let mut service = SolveService::new(ServiceConfig {
        max_active: 3,
        ..ServiceConfig::default()
    });
    for index in 0..12u64 {
        service.submit(index + 1, spec(index)).expect("submit");
    }
    service.run_until_idle();
    let results = service.take_completed();
    assert_eq!(results.len(), 12);
    for index in 0..12u64 {
        let result = &results[&(index + 1)];
        let reference = solo(&spec(index));
        assert_reports_match(
            &format!("session {}", index + 1),
            &result.report,
            &reference,
        );
    }
}

#[test]
fn session_results_are_independent_of_company_and_order() {
    // The same session id/spec, run (a) alone, (b) among 7 others
    // submitted before it, must produce the same result — no
    // cross-session state leaks through the scheduler.
    let target = spec(0);

    let mut alone = SolveService::new(ServiceConfig::default());
    alone.submit(42, target.clone()).expect("submit");
    alone.run_until_idle();
    let alone_result = alone.take_result(42).expect("alone result");

    let mut crowded = SolveService::new(ServiceConfig {
        max_active: 2,
        ..ServiceConfig::default()
    });
    for index in 1..8u64 {
        crowded.submit(index, spec(index)).expect("submit filler");
    }
    crowded.submit(42, target).expect("submit target");
    crowded.run_until_idle();
    let crowded_result = crowded.take_result(42).expect("crowded result");

    assert_reports_match(
        "crowded vs alone",
        &crowded_result.report,
        &alone_result.report,
    );
}

#[test]
fn worker_count_does_not_change_any_result() {
    let run = |workers: usize| {
        let mut service = SolveService::new(ServiceConfig {
            max_active: 4,
            workers,
            ..ServiceConfig::default()
        });
        for index in 0..8u64 {
            service.submit(index + 1, spec(index)).expect("submit");
        }
        let sweeps = service.run_until_idle();
        (sweeps, service.take_completed())
    };
    let (sweeps_1, results_1) = run(1);
    let (sweeps_8, results_8) = run(8);
    assert_eq!(sweeps_1, sweeps_8, "sweep count must not depend on workers");
    assert_eq!(results_1.len(), results_8.len());
    for (id, result) in &results_1 {
        let other = &results_8[id];
        assert_reports_match(
            &format!("session {id} across worker counts"),
            &result.report,
            &other.report,
        );
        assert_eq!(result.submitted_sweep, other.submitted_sweep);
        assert_eq!(result.completed_sweep, other.completed_sweep);
    }
}

#[test]
fn graceful_drain_finishes_every_inflight_session() {
    let mut service = SolveService::new(ServiceConfig {
        max_active: 2,
        ..ServiceConfig::default()
    });
    for index in 0..6u64 {
        service.submit(index + 1, spec(index)).expect("submit");
    }
    // Let some sessions make partial progress before draining.
    for _ in 0..3 {
        service.sweep();
    }
    service.begin_drain();
    assert!(matches!(
        service.submit(99, spec(0)),
        Err(ServiceError::Draining)
    ));
    service.run_until_idle();
    assert!(service.is_drained());
    let results = service.take_completed();
    assert_eq!(results.len(), 6, "zero in-flight sessions lost on drain");
    for index in 0..6u64 {
        let reference = solo(&spec(index));
        assert_reports_match(
            &format!("drained session {}", index + 1),
            &results[&(index + 1)].report,
            &reference,
        );
    }
}

#[test]
fn overload_rejects_with_a_typed_error_and_recovers() {
    let mut service = SolveService::new(ServiceConfig {
        max_active: 1,
        max_pending: 2,
        ..ServiceConfig::default()
    });
    service.submit(1, spec(0)).expect("active");
    service.submit(2, spec(1)).expect("parked 1");
    service.submit(3, spec(2)).expect("parked 2");
    assert!(matches!(
        service.submit(4, spec(3)),
        Err(ServiceError::Overloaded)
    ));
    // Capacity frees as sessions finish: the same submit succeeds later.
    service.run_until_idle();
    service.submit(4, spec(3)).expect("admitted after the rush");
    service.run_until_idle();
    assert_eq!(service.completed().len(), 4);
}

#[test]
fn solved_sessions_actually_solve_their_instances() {
    // Sanity net under all the bit-exactness: solutions are solutions.
    let mut service = SolveService::new(ServiceConfig::default());
    for index in 0..8u64 {
        service.submit(index + 1, spec(index)).expect("submit");
    }
    service.run_until_idle();
    for (id, result) in service.take_completed() {
        if result.report.outcome.metrics.termination == Termination::Solved {
            let solution = result
                .report
                .outcome
                .solution
                .as_ref()
                .expect("solved sessions carry a solution");
            assert!(
                spec(id - 1).problem.is_solution(solution),
                "session {id} returned a non-solution"
            );
        }
    }
}
