//! Differential test of `SyncSimulator` against a reference model of the
//! synchronous cycle loop it replaced.
//!
//! `SyncSimulator::run` drives the wave engine's lockstep configuration.
//! The reference below is the stand-alone loop that produced the paper's
//! numbers before, at the paper's unit delivery delay: per cycle it fills
//! every inbox in global send order, activates every agent in id order
//! (on an empty inbox if nothing arrived), observes the global
//! assignment, and ends on a solution, a proof of insolubility, or the
//! cycle limit. Every trial below must agree field by field: metrics,
//! solution, per-cycle history, and the event trace.

use discsp_awc::{AbtSolver, AwcConfig, AwcSolver, MultiAwcSolver};
use discsp_bench::partition::repartition;
use discsp_bench::Family;
use discsp_core::{
    Assignment, DistributedCsp, Domain, RunMetrics, Termination, TrialOutcome, Value,
};
use discsp_cspsolve::random_assignment;
use discsp_dba::{DbaSolver, WeightMode};
use discsp_runtime::{
    derive_seed, AgentStats, CycleRecord, DistributedAgent, Envelope, Outbox, RingBuffer,
    RuntimeKind, StepRecorder, SyncRun, SyncSimulator, TraceEvent, TraceSink,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The synchronous cycle loop as it stood on its own, at delay 0.
fn reference<A: DistributedAgent>(
    agents: &mut [A],
    problem: &DistributedCsp,
    cycle_limit: u64,
    record_trace: bool,
) -> SyncRun {
    let n = agents.len();
    let mut pending: Vec<Envelope<A::Message>> = Vec::new();
    let mut metrics = RunMetrics::new(Termination::CutOff);
    let mut history = Vec::new();
    let mut cycle: u64 = 0;
    let mut solution = None;
    let mut sink = if record_trace {
        RingBuffer::new()
    } else {
        RingBuffer::disabled()
    };
    let mut recorder = StepRecorder::new();
    loop {
        cycle += 1;
        let mut cycle_messages = 0u64;
        let mut inboxes: Vec<Vec<Envelope<A::Message>>> = (0..n).map(|_| Vec::new()).collect();
        for env in pending.drain(..) {
            if sink.enabled() {
                sink.record(TraceEvent::Delivered {
                    cycle,
                    from: env.from,
                    to: env.to,
                    class: discsp_runtime::Classify::class(&env.payload),
                });
            }
            inboxes[env.to.index()].push(env);
        }
        let (mut max_checks, mut total_checks) = (0u64, 0u64);
        let mut sent = Vec::new();
        for (i, agent) in agents.iter_mut().enumerate() {
            let mut out = Outbox::new(agent.id());
            if cycle == 1 {
                agent.on_start(&mut out);
            } else {
                agent.on_batch(std::mem::take(&mut inboxes[i]), &mut out);
            }
            let checks = agent.take_checks();
            max_checks = max_checks.max(checks);
            total_checks += checks;
            recorder.record_step(agent, cycle, checks, &mut sink);
            let (ok, nogood, other) = out.count_by_class();
            metrics.ok_messages += ok;
            metrics.nogood_messages += nogood;
            metrics.other_messages += other;
            cycle_messages += ok + nogood + other;
            for env in out.drain() {
                if sink.enabled() {
                    sink.record(TraceEvent::Sent {
                        cycle,
                        from: env.from,
                        to: env.to,
                        class: discsp_runtime::Classify::class(&env.payload),
                    });
                }
                sent.push(env);
            }
        }
        pending = sent;
        metrics.maxcck += max_checks;
        metrics.total_checks += total_checks;
        sink.record(TraceEvent::CycleBarrier { cycle });

        let mut assignment = Assignment::empty(problem.num_vars());
        for agent in agents.iter() {
            for vv in agent.assignments() {
                assignment.set(vv.var, vv.value);
            }
        }
        history.push(CycleRecord {
            cycle,
            max_checks,
            total_checks,
            messages: cycle_messages,
            violations: problem.violation_count(assignment.lookup()) as u64,
        });
        if problem.is_solution(&assignment) {
            metrics.termination = Termination::Solved;
            solution = Some(assignment);
            break;
        }
        if agents.iter().any(|a| a.detected_insoluble()) {
            metrics.termination = Termination::Insoluble;
            break;
        }
        if cycle >= cycle_limit {
            break;
        }
    }
    metrics.cycles = cycle;
    let mut stats = AgentStats::default();
    for agent in agents.iter() {
        stats.absorb(agent.stats());
    }
    metrics.nogoods_generated = stats.nogoods_generated;
    metrics.redundant_nogoods = stats.redundant_nogoods;
    metrics.largest_nogood = stats.largest_nogood;
    metrics.messages_sent = metrics.total_messages();
    sink.record(TraceEvent::RunEnd {
        cycle,
        runtime: RuntimeKind::Sync,
        in_flight: pending.len() as u64,
        metrics: metrics.clone(),
    });
    SyncRun {
        outcome: TrialOutcome { metrics, solution },
        history,
        trace: sink.take(),
    }
}

/// Runs `build()`'s agents on `SyncSimulator` and on the reference, with
/// history and trace on, and requires every field to agree. Returns the
/// simulator's run.
fn agree<A: DistributedAgent>(
    label: &str,
    problem: &DistributedCsp,
    cycle_limit: u64,
    build: impl Fn() -> Vec<A>,
) -> SyncRun {
    let mut agents = build();
    let want = reference(&mut agents, problem, cycle_limit, true);
    let mut sim = SyncSimulator::new(build());
    sim.cycle_limit(cycle_limit)
        .record_history(true)
        .record_trace(true);
    let got = sim.run(problem).expect("runs");
    assert_eq!(
        got.outcome.metrics, want.outcome.metrics,
        "{label}: metrics"
    );
    assert_eq!(
        got.outcome.solution, want.outcome.solution,
        "{label}: solution"
    );
    assert_eq!(got.history, want.history, "{label}: history");
    assert_eq!(got.trace.len(), want.trace.len(), "{label}: trace length");
    for (at, (g, w)) in got.trace.iter().zip(&want.trace).enumerate() {
        assert_eq!(g, w, "{label}: trace event {at}");
    }
    got
}

/// [`agree`], then once more with history and trace off, which must not
/// change the outcome. Returns the metrics.
fn agree_untraced<A: DistributedAgent>(
    label: &str,
    problem: &DistributedCsp,
    cycle_limit: u64,
    build: impl Fn() -> Vec<A>,
) -> RunMetrics {
    let traced = agree(label, problem, cycle_limit, &build);
    let mut sim = SyncSimulator::new(build());
    sim.cycle_limit(cycle_limit);
    let untraced = sim.run(problem).expect("runs");
    assert_eq!(
        untraced.outcome, traced.outcome,
        "{label}: tracing changed the run"
    );
    assert!(
        untraced.history.is_empty() && untraced.trace.is_empty(),
        "{label}"
    );
    traced.outcome.metrics
}

/// The first `count` initial-value sets of instance `index`, drawn as
/// the harness draws them.
fn inits(family: Family, n: u32, index: usize, master_seed: u64, count: usize) -> Vec<Assignment> {
    let problem = family.problem(n, index, master_seed);
    let seed = derive_seed(
        master_seed ^ 0xA5A5_5A5A,
        family as u64 * 1000 + u64::from(n),
        index as u64,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| random_assignment(&problem, &mut rng))
        .collect()
}

fn awc_configs() -> [AwcConfig; 5] {
    [
        AwcConfig::resolvent(),
        AwcConfig::mcs(),
        AwcConfig::no_learning(),
        AwcConfig::kth_resolvent(3),
        AwcConfig::resolvent_norec(),
    ]
}

#[test]
fn every_algorithm_agrees_with_the_reference_loop_across_seeds() {
    let mut terminations = Vec::new();
    for family in Family::all() {
        let problem = family.problem(30, 0, 7);
        for (i, init) in inits(family, 30, 0, 7, 2).iter().enumerate() {
            let at = format!("{} n=30 instance 0 init {i}", family.key());
            for config in awc_configs() {
                let solver = AwcSolver::new(config);
                let label = format!("{at} AWC {}", config.label());
                let run = agree(&label, &problem, 2_000, || {
                    solver.build_agents(&problem, init).expect("fits")
                });
                terminations.push(run.outcome.metrics.termination);
            }
            // ABT runs on the coloring family only, as in `repro abt`: on
            // the SAT families one trial takes tens of seconds.
            if family == Family::Coloring {
                let abt = AbtSolver::new();
                let run = agree(&format!("{at} ABT"), &problem, 2_000, || {
                    abt.build_agents(&problem, init).expect("fits")
                });
                terminations.push(run.outcome.metrics.termination);
            }
            for mode in [WeightMode::PerNogood, WeightMode::PerPair] {
                let db = DbaSolver::new().weight_mode(mode);
                let run = agree(&format!("{at} DB {mode:?}"), &problem, 2_000, || {
                    db.build_agents(&problem, init).expect("fits")
                });
                terminations.push(run.outcome.metrics.termination);
            }
        }
    }
    assert!(terminations.contains(&Termination::Solved));
}

#[test]
fn multi_variable_agents_agree_with_the_reference_loop() {
    // Partitions of the paper's coloring instances over fewer agents.
    // With one local round, an agent carries intra-agent work over to its
    // next turn, which it gets only because every agent runs every
    // cycle.
    for index in 0..2 {
        let flat = Family::Coloring.problem(60, index, 20_000_419);
        let inits = inits(Family::Coloring, 60, index, 20_000_419, 2);
        for agents in [30, 12, 6] {
            let problem = repartition(&flat, agents);
            for (i, init) in inits.iter().enumerate() {
                for rounds in [1, 3] {
                    let solver = MultiAwcSolver::new(AwcConfig::resolvent()).local_rounds(rounds);
                    let label = format!(
                        "d3c n=60 instance {index} init {i}, {agents} agents, {rounds} rounds"
                    );
                    agree(&label, &problem, 2_000, || {
                        solver.build_agents(&problem, init).expect("fits")
                    });
                }
            }
        }
    }
}

#[test]
fn cut_offs_and_insolubility_agree_with_the_reference_loop() {
    // DB never proves insolubility and here cannot finish in 20 cycles.
    let problem = Family::OneSat.problem(30, 0, 7);
    let init = &inits(Family::OneSat, 30, 0, 7, 1)[0];
    let db = DbaSolver::new();
    let m = agree_untraced("DB cut-off", &problem, 20, || {
        db.build_agents(&problem, init).expect("fits")
    });
    assert_eq!((m.termination, m.cycles), (Termination::CutOff, 20));

    // K4 with three colors: complete configurations prove it insoluble.
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            b.not_equal(vars[i], vars[j]).expect("valid");
        }
    }
    let k4 = b.build().expect("valid");
    let init = Assignment::total([Value::new(0); 4]);
    for config in [AwcConfig::resolvent(), AwcConfig::mcs()] {
        let solver = AwcSolver::new(config);
        let m = agree_untraced(&format!("K4 AWC {}", config.label()), &k4, 2_000, || {
            solver.build_agents(&k4, &init).expect("fits")
        });
        assert_eq!(m.termination, Termination::Insoluble);
    }
    let abt = AbtSolver::new();
    let m = agree_untraced("K4 ABT", &k4, 2_000, || {
        abt.build_agents(&k4, &init).expect("fits")
    });
    assert_eq!(m.termination, Termination::Insoluble);
}

#[test]
fn a_silent_stall_still_runs_to_the_cycle_limit() {
    // AWC Rslv on this trial goes quiet at cycle 13 with one violated
    // nogood. The paper's system never nudges, so it idles to the limit.
    let problem = Family::OneSat.problem(30, 0, 7);
    let init = &inits(Family::OneSat, 30, 0, 7, 1)[0];
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let m = agree_untraced("silent stall", &problem, 10_000, || {
        solver.build_agents(&problem, init).expect("fits")
    });
    assert_eq!((m.termination, m.cycles), (Termination::CutOff, 10_000));
}
