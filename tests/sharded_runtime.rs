//! Integration: the M:N sharded executor reproduces `run_virtual`
//! bit-for-bit through the real solvers, independent of worker count.

use discsp::prelude::*;
use discsp::runtime::FaultSchedule;
use discsp::trace::RuntimeKind;

fn small_coloring() -> DistributedCsp {
    coloring_to_discsp(&paper_coloring(20, 13)).expect("encode")
}

/// The fault policy exercised by the deterministic sweep: 10% drops, 2%
/// duplicates, delivery delayed up to 2 ticks, 2-tick reordering window.
fn faulty() -> LinkPolicy {
    LinkPolicy::lossy(100_000)
        .with_duplication(20_000)
        .with_delay(0, 2)
        .with_reordering(2)
}

fn faulty_base(seed: u64) -> VirtualConfig {
    VirtualConfig {
        seed,
        link: faulty(),
        record_trace: true,
        ..VirtualConfig::default()
    }
}

/// Drops the final `RunEnd` event, whose `runtime` field is the one
/// legitimate difference between a virtual and a sharded trace.
fn strip_run_end(trace: &[TraceEvent]) -> Vec<TraceEvent> {
    trace
        .iter()
        .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
        .cloned()
        .collect()
}

#[test]
fn awc_sharded_is_worker_count_independent_and_matches_virtual() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    for seed in [7u64, 424_242] {
        let base = faulty_base(seed);
        let reference = solver.solve_virtual(&problem, &init, &base).expect("fits");
        assert_eq!(
            reference.outcome.metrics.termination,
            Termination::Solved,
            "seed {seed}"
        );
        for workers in [1usize, 2, 4, 8] {
            let config = ShardConfig::with_base(base.clone(), workers);
            let run = solver
                .solve_sharded(&problem, &init, &config)
                .expect("fits");
            assert_eq!(
                run.outcome, reference.outcome,
                "seed {seed} workers {workers}: metrics + solution"
            );
            assert_eq!(run.ticks, reference.ticks, "seed {seed} workers {workers}");
            assert_eq!(run.activations, reference.activations);
            assert_eq!(run.nudges, reference.nudges);
            assert_eq!(
                run.fault_log, reference.fault_log,
                "seed {seed} workers {workers}: fault counters"
            );
            assert_eq!(
                strip_run_end(&run.trace),
                strip_run_end(&reference.trace),
                "seed {seed} workers {workers}: trace"
            );
        }
    }
}

#[test]
fn dba_and_abt_sharded_match_their_virtual_runs() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let base = faulty_base(11);

    let dba = DbaSolver::new();
    let dba_ref = dba.solve_virtual(&problem, &init, &base).expect("fits");
    let abt = AbtSolver::new();
    let abt_ref = abt.solve_virtual(&problem, &init, &base).expect("fits");
    for workers in [1usize, 2, 4, 8] {
        let config = ShardConfig::with_base(base.clone(), workers);
        let d = dba.solve_sharded(&problem, &init, &config).expect("fits");
        assert_eq!(d.outcome, dba_ref.outcome, "dba workers {workers}");
        assert_eq!(
            strip_run_end(&d.trace),
            strip_run_end(&dba_ref.trace),
            "dba workers {workers}: trace"
        );
        let a = abt.solve_sharded(&problem, &init, &config).expect("fits");
        assert_eq!(a.outcome, abt_ref.outcome, "abt workers {workers}");
        assert_eq!(
            strip_run_end(&a.trace),
            strip_run_end(&abt_ref.trace),
            "abt workers {workers}: trace"
        );
    }
}

#[test]
fn many_chunk_waves_under_every_fault_match_virtual_on_every_worker_count() {
    // Workers stream a wave's outputs back in chunks of 128 activations,
    // and the coordinator merges the shards' chunks as they arrive. At
    // 2,000 agents each of 4 shards holds 500, so every full wave crosses
    // several chunk boundaries per shard; the 20-agent instances above
    // never cross one.
    const AGENTS: u32 = 2_000;
    let coloring = paper_coloring(AGENTS, 17);
    let problem = coloring_to_discsp(&coloring).expect("encode");
    // One agent in 64 starts off its planted color, so the breakout has
    // real repair work to do.
    let mut rng = SplitMix64::new(0xC4_0C5);
    let init = Assignment::total(coloring.planted.iter().map(|&c| {
        if rng.next_below(64) == 0 {
            Value::new((c + 1) % 3)
        } else {
            Value::new(c)
        }
    }));
    let base = VirtualConfig {
        seed: 2_024,
        link: LinkPolicy::lossy(20_000)
            .with_duplication(20_000)
            .with_delay(0, 2)
            .with_reordering(2),
        record_trace: true,
        ..VirtualConfig::default()
    };
    let solver = DbaSolver::new();
    let reference = solver.solve_virtual(&problem, &init, &base).expect("fits");
    let m = &reference.outcome.metrics;
    assert_eq!(m.termination, Termination::Solved);
    assert!(
        m.messages_dropped > 0 && m.messages_duplicated > 0 && m.messages_reordered > 0,
        "every fault kind must fire: {m:?}"
    );
    assert!(
        reference.activations > 4 * u64::from(AGENTS),
        "several full waves"
    );
    for workers in [1usize, 2, 3, 4] {
        let config = ShardConfig::with_base(base.clone(), workers);
        let run = solver
            .solve_sharded(&problem, &init, &config)
            .expect("fits");
        assert_eq!(
            run.outcome.metrics, reference.outcome.metrics,
            "workers {workers}: metrics"
        );
        assert_eq!(
            run.outcome.solution, reference.outcome.solution,
            "workers {workers}: solution"
        );
        assert_eq!(run.ticks, reference.ticks, "workers {workers}: ticks");
        assert_eq!(
            run.activations, reference.activations,
            "workers {workers}: activations"
        );
        assert_eq!(run.nudges, reference.nudges, "workers {workers}: nudges");
        assert_eq!(
            run.fault_log, reference.fault_log,
            "workers {workers}: fault log"
        );
        assert_eq!(
            strip_run_end(&run.trace),
            strip_run_end(&reference.trace),
            "workers {workers}: trace"
        );
    }
}

#[test]
fn sharded_trace_audits_and_carries_the_sharded_stamp() {
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let config = ShardConfig::with_base(faulty_base(5), 4);
    let run = AwcSolver::new(AwcConfig::resolvent())
        .solve_sharded(&problem, &init, &config)
        .expect("fits");
    assert!(run.trace.iter().any(|e| matches!(
        e,
        TraceEvent::RunEnd {
            runtime: RuntimeKind::Sharded,
            ..
        }
    )));
    // The audit recomputes every metric from the event stream; the
    // sharded runtime gets the *strict* checks (unlike Async).
    let audit = audit(&run.trace).expect("sealed trace");
    assert!(audit.passed(), "audit failures: {:?}", audit.failures);
    assert_eq!(audit.metrics, run.outcome.metrics);
}

#[test]
fn sharded_message_conservation_holds_under_faults() {
    // Satellite regression: the enqueued-copies identity must hold
    // exactly on the sharded runtime — shutdown loses no sends.
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    for seed in 0..5u64 {
        let config = ShardConfig::with_base(
            VirtualConfig {
                seed,
                link: faulty(),
                ..VirtualConfig::default()
            },
            3,
        );
        let run = solver
            .solve_sharded(&problem, &init, &config)
            .expect("fits");
        let m = &run.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved, "seed {seed}");
        assert!(problem.is_solution(&run.outcome.solution.clone().expect("solved")));
        assert!(m.messages_dropped > 0, "seed {seed}: lottery never fired");
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
            "seed {seed}: enqueued-copies identity"
        );
    }
}

#[test]
fn sharded_replays_a_recorded_fault_schedule() {
    // The fault log round-trip that powers the explore campaign: replay
    // a lottery run's recorded schedule through the sharded runtime and
    // get the identical run back, on a different worker count.
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let first = solver
        .solve_sharded(&problem, &init, &ShardConfig::with_base(faulty_base(99), 2))
        .expect("fits");
    let replay_base = VirtualConfig {
        seed: 99,
        schedule: Some(first.fault_log.clone()),
        record_trace: true,
        ..VirtualConfig::default()
    };
    let replay = solver
        .solve_sharded(&problem, &init, &ShardConfig::with_base(replay_base, 7))
        .expect("fits");
    assert_eq!(replay.outcome, first.outcome);
    assert_eq!(replay.ticks, first.ticks);
    assert_eq!(strip_run_end(&replay.trace), strip_run_end(&first.trace));
}

#[test]
fn sharded_reports_insoluble_without_losing_messages() {
    // An over-constrained instance: three mutually unequal booleans.
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..3).map(|_| b.variable(Domain::new(2))).collect();
    for i in 0..3 {
        for j in (i + 1)..3 {
            b.not_equal(vars[i], vars[j]).expect("arity");
        }
    }
    let problem = b.build().expect("builds");
    let init = Assignment::total(vec![Value::new(0); 3]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 3] {
        let config = ShardConfig::with_base(
            VirtualConfig {
                seed: 1,
                ..VirtualConfig::default()
            },
            workers,
        );
        let run = solver
            .solve_sharded(&problem, &init, &config)
            .expect("fits");
        assert_eq!(
            run.outcome.metrics.termination,
            Termination::Insoluble,
            "workers {workers}"
        );
        let m = &run.outcome.metrics;
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
            "workers {workers}: conservation at early exit"
        );
        outcomes.push(run.outcome);
    }
    assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn sharded_fault_log_is_replayable_as_schedule_type() {
    // Type-level check that the fault log round-trips through the
    // public FaultSchedule API (what the explore campaign serializes).
    let problem = small_coloring();
    let init = Assignment::total(vec![Value::new(0); 20]);
    let run = AwcSolver::new(AwcConfig::resolvent())
        .solve_sharded(&problem, &init, &ShardConfig::with_base(faulty_base(3), 4))
        .expect("fits");
    let schedule: FaultSchedule = run.fault_log;
    assert!(!schedule.is_empty(), "faulty run must log faults");
}
