//! Integration tests driving the runtimes with a purpose-built
//! protocol: distributed maximum agreement over a line graph.

use discsp_core::{
    AgentId, Assignment, DistributedCsp, Domain, Nogood, Value, VarValue, VariableId,
};
use discsp_runtime::{
    run_sharded, run_virtual, AgentStats, Classify, DistributedAgent, Envelope, LinkPolicy,
    MessageClass, Outbox, RuntimeError, ShardConfig, SyncSimulator, VirtualConfig, VirtualReport,
    PPM,
};

/// Protocol: every agent must end up holding the maximum of all initial
/// values. Agents announce their current value to both line neighbors
/// whenever it increases.
#[derive(Debug, Clone)]
struct Announce(Value);

impl Classify for Announce {
    fn class(&self) -> MessageClass {
        MessageClass::Ok
    }
}

struct MaxAgent {
    id: AgentId,
    n: usize,
    value: Value,
    checks: u64,
}

impl MaxAgent {
    fn neighbors(&self) -> Vec<AgentId> {
        let i = self.id.index();
        let mut out = Vec::new();
        if i > 0 {
            out.push(AgentId::new((i - 1) as u32));
        }
        if i + 1 < self.n {
            out.push(AgentId::new((i + 1) as u32));
        }
        out
    }

    fn broadcast(&self, out: &mut Outbox<Announce>) {
        for peer in self.neighbors() {
            out.send(peer, Announce(self.value));
        }
    }
}

impl DistributedAgent for MaxAgent {
    type Message = Announce;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<Announce>) {
        self.broadcast(out);
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<Announce>>, out: &mut Outbox<Announce>) {
        let mut grew = false;
        for env in inbox {
            self.checks += 1;
            if env.payload.0 > self.value {
                self.value = env.payload.0;
                grew = true;
            }
        }
        if grew {
            self.broadcast(out);
        }
    }

    fn assignments(&self) -> Vec<VarValue> {
        vec![VarValue::new(VariableId::new(self.id.raw()), self.value)]
    }

    fn take_checks(&mut self) -> u64 {
        std::mem::take(&mut self.checks)
    }

    fn stats(&self) -> AgentStats {
        AgentStats::default()
    }
}

/// The "everyone holds value `max`" problem as unary nogoods.
fn all_hold(n: usize, max: u16, domain: u16) -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    for _ in 0..n {
        b.variable(Domain::new(domain));
    }
    for i in 0..n {
        for wrong in 0..domain {
            if wrong != max {
                b.nogood(Nogood::of([(VariableId::new(i as u32), Value::new(wrong))]))
                    .unwrap();
            }
        }
    }
    b.build().unwrap()
}

fn agents(n: usize, seed_of_max: usize, max: u16) -> Vec<MaxAgent> {
    (0..n)
        .map(|i| MaxAgent {
            id: AgentId::new(i as u32),
            n,
            value: Value::new(if i == seed_of_max { max } else { 0 }),
            checks: 0,
        })
        .collect()
}

#[test]
fn sync_propagation_takes_distance_cycles() {
    // Max starts at one end of a 6-agent line: it needs 5 hops, one per
    // cycle, plus the start cycle.
    let problem = all_hold(6, 9, 10);
    let mut sim = SyncSimulator::new(agents(6, 0, 9));
    let run = sim.run(&problem).expect("runs");
    assert!(run.outcome.metrics.termination.is_solved());
    assert_eq!(run.outcome.metrics.cycles, 6);
}

#[test]
fn sync_delay_stretches_propagation_deterministically() {
    let problem = all_hold(6, 9, 10);
    let mut sim = SyncSimulator::new(agents(6, 0, 9));
    sim.message_delay(3, 42);
    let a = sim.run(&problem).expect("runs").outcome.metrics.cycles;
    let mut sim = SyncSimulator::new(agents(6, 0, 9));
    sim.message_delay(3, 42);
    let b = sim.run(&problem).expect("runs").outcome.metrics.cycles;
    assert_eq!(a, b);
    assert!(a >= 6, "delay can only stretch the 5-hop propagation");
    assert!(a <= 6 + 5 * 3, "each hop delays at most 3 extra cycles");
}

#[test]
fn sync_history_shows_monotone_violation_decline() {
    let problem = all_hold(5, 4, 5);
    let mut sim = SyncSimulator::new(agents(5, 2, 4));
    sim.record_history(true);
    let run = sim.run(&problem).expect("runs");
    let violations: Vec<u64> = run.history.iter().map(|r| r.violations).collect();
    // Max spreads outward from the middle: violations never increase.
    for w in violations.windows(2) {
        assert!(w[1] <= w[0], "violations {violations:?} increased");
    }
    assert_eq!(*violations.last().unwrap(), 0);
}

/// Runs the population `make` builds on `run_virtual` and on
/// `run_sharded` at 1 and 4 workers, asserts the reports agree field by
/// field, and returns the virtual one.
fn on_every_executor(
    make: impl Fn() -> Vec<MaxAgent>,
    problem: &DistributedCsp,
    base: &VirtualConfig,
) -> VirtualReport {
    let reference = run_virtual(make(), problem, base).expect("virtual runs");
    for workers in [1usize, 4] {
        let config = ShardConfig::with_base(base.clone(), workers);
        let run = run_sharded(make(), problem, &config).expect("sharded runs");
        assert_eq!(run.outcome, reference.outcome, "workers {workers}");
        assert_eq!(run.ticks, reference.ticks, "workers {workers}");
        assert_eq!(run.activations, reference.activations, "workers {workers}");
        assert_eq!(run.nudges, reference.nudges, "workers {workers}");
        assert_eq!(run.fault_log, reference.fault_log, "workers {workers}");
    }
    reference
}

#[test]
fn deterministic_executors_reach_the_same_fixed_point() {
    let problem = all_hold(8, 7, 8);
    let report = on_every_executor(|| agents(8, 3, 7), &problem, &VirtualConfig::default());
    assert!(report.outcome.metrics.termination.is_solved());
    let solution = report.outcome.solution.unwrap();
    for i in 0..8 {
        assert_eq!(solution.get(VariableId::new(i)), Some(Value::new(7)));
    }
}

#[test]
fn link_delay_does_not_change_the_fixed_point() {
    let problem = all_hold(5, 3, 4);
    for seed in 0..3 {
        let config = VirtualConfig {
            seed,
            link: LinkPolicy::delayed(0, 3),
            ..VirtualConfig::default()
        };
        let report = on_every_executor(|| agents(5, 4, 3), &problem, &config);
        assert!(
            report.outcome.metrics.termination.is_solved(),
            "seed {seed}"
        );
        assert_eq!(
            report.outcome.solution,
            Some(Assignment::total(vec![Value::new(3); 5])),
            "seed {seed}"
        );
    }
}

#[test]
fn message_metering_matches_protocol() {
    // 6-agent line, max at index 0: start sends 1+2+2+2+2+1 = 10, then
    // the growing wave re-broadcasts from agents 1..=5 (2+2+2+2+1 = 9).
    let problem = all_hold(6, 9, 10);
    let mut sim = SyncSimulator::new(agents(6, 0, 9));
    let run = sim.run(&problem).expect("runs");
    assert_eq!(run.outcome.metrics.ok_messages, 19);
    assert_eq!(run.outcome.metrics.nogood_messages, 0);
}

#[test]
fn observer_uses_final_assignment_snapshot() {
    let problem = all_hold(3, 2, 3);
    let mut sim = SyncSimulator::new(agents(3, 1, 2));
    let run = sim.run(&problem).expect("runs");
    let solution = run.outcome.solution.unwrap();
    assert!(problem.is_solution(&solution));
    assert_eq!(solution.num_vars(), 3);
}

/// A MaxAgent that misroutes its very first announcement to an agent
/// outside the population.
struct Misrouter(MaxAgent);

impl DistributedAgent for Misrouter {
    type Message = Announce;

    fn id(&self) -> AgentId {
        self.0.id()
    }

    fn on_start(&mut self, out: &mut Outbox<Announce>) {
        out.send(AgentId::new(999), Announce(self.0.value));
        self.0.on_start(out);
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<Announce>>, out: &mut Outbox<Announce>) {
        self.0.on_batch(inbox, out);
    }

    fn assignments(&self) -> Vec<VarValue> {
        self.0.assignments()
    }

    fn take_checks(&mut self) -> u64 {
        self.0.take_checks()
    }

    fn stats(&self) -> AgentStats {
        self.0.stats()
    }
}

#[test]
fn deterministic_runs_report_unknown_recipient() {
    let problem = all_hold(3, 2, 3);
    let population = || -> Vec<Misrouter> { agents(3, 1, 2).into_iter().map(Misrouter).collect() };
    let expected = Err(RuntimeError::UnknownRecipient {
        agent: AgentId::new(999),
    });
    let result = run_virtual(population(), &problem, &VirtualConfig::default());
    assert_eq!(result.map(|r| r.outcome), expected);
    for workers in [1usize, 4] {
        let result = run_sharded(population(), &problem, &ShardConfig::new(workers));
        assert_eq!(result.map(|r| r.outcome), expected, "workers {workers}");
    }
}

#[test]
fn class_counters_equal_enqueued_copies_under_duplication() {
    // Every message is duplicated: the ok? counter must equal the
    // enqueued copies (sent + duplicated), not the emission count —
    // the historical bug counted classes before routing.
    let problem = all_hold(4, 3, 4);
    let config = VirtualConfig {
        link: LinkPolicy::perfect().with_duplication(PPM),
        seed: 11,
        ..VirtualConfig::default()
    };
    let report = on_every_executor(|| agents(4, 0, 3), &problem, &config);
    let m = &report.outcome.metrics;
    assert!(m.termination.is_solved());
    assert_eq!(m.messages_duplicated, m.messages_sent);
    assert_eq!(
        m.total_messages(),
        m.messages_sent + m.messages_duplicated,
        "classes must be counted per successfully enqueued copy"
    );
}

#[test]
fn virtual_run_solves_under_faults_with_exact_identity() {
    let problem = all_hold(6, 9, 10);
    let policy = LinkPolicy::lossy(100_000)
        .with_delay(0, 2)
        .with_reordering(2);
    let config = VirtualConfig {
        seed: 21,
        link: policy,
        ..VirtualConfig::default()
    };
    let report = run_virtual(agents(6, 0, 9), &problem, &config).expect("runs");
    assert!(report.outcome.metrics.termination.is_solved());
    let solution = report.outcome.solution.expect("solved");
    for i in 0..6 {
        assert_eq!(solution.get(VariableId::new(i)), Some(Value::new(9)));
    }
    let m = &report.outcome.metrics;
    assert_eq!(
        m.total_messages(),
        m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
        "deterministic runtime must keep the enqueued-copies identity exact"
    );
}
