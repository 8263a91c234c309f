//! Outside-in traced loops: the `SyncSimulator::run` and `run_virtual`
//! control loops rebuilt from the runtime's public pieces (`Outbox`,
//! `Router`, `StepRecorder`, `DistributedCsp::is_solution`), with a
//! clock and the allocation counter read around every call into a
//! layer.
//!
//! The loops make exactly the executors' decisions in the same order,
//! so a traced run reproduces the executor's `RunMetrics`, activations
//! and ticks bit for bit; callers compare the two and fail the run on
//! any difference. Wall-clock readings only feed the span totals.

use std::time::Instant;

use discsp_core::{Assignment, DistributedCsp, RunMetrics, Termination};
use discsp_runtime::{
    AgentStats, DistributedAgent, Envelope, NullSink, Outbox, Router, RuntimeError, StepRecorder,
    VirtualConfig,
};

use crate::alloc;

/// Nanoseconds elapsed since `start`.
fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Per-activation samples and span totals shared by both loops.
#[derive(Debug, Default)]
pub struct Spans {
    /// Wall time of each agent activation (`on_start`/`on_batch`/`on_nudge`).
    pub step_ns: Vec<u64>,
    /// Allocations made inside activations.
    pub step_allocs: u64,
    /// Nogood checks charged by activations.
    pub checks: u64,
    /// Post-activation bookkeeping: check draining, snapshot update,
    /// insolubility flag, step recording.
    pub merge_ns: u64,
    /// Delivery into inboxes (`take_due`, or the sync inbox fill).
    pub deliver_ns: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// `Router::route` and `flush_parked` (virtual loop only).
    pub route_ns: u64,
    /// Messages handed to the router.
    pub routed: u64,
    /// Allocations made while routing and delivering.
    pub route_allocs: u64,
    /// Global-state observation: snapshot gathering plus `is_solution`.
    pub observe_ns: u64,
    /// Time inside `is_solution` alone.
    pub is_solution_ns: u64,
    /// Calls to `is_solution`.
    pub is_solution_calls: u64,
    /// Wall time of the whole loop.
    pub total_ns: u64,
}

impl Spans {
    /// Folds another run's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        self.step_ns.extend(other.step_ns);
        self.step_allocs += other.step_allocs;
        self.checks += other.checks;
        self.merge_ns += other.merge_ns;
        self.deliver_ns += other.deliver_ns;
        self.delivered += other.delivered;
        self.route_ns += other.route_ns;
        self.routed += other.routed;
        self.route_allocs += other.route_allocs;
        self.observe_ns += other.observe_ns;
        self.is_solution_ns += other.is_solution_ns;
        self.is_solution_calls += other.is_solution_calls;
        self.total_ns += other.total_ns;
    }

    /// Total time inside activations.
    pub fn step_total_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }

    fn step<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let allocs = alloc::allocs();
        let start = Instant::now();
        let result = f();
        self.step_ns.push(ns(start));
        self.step_allocs += alloc::allocs() - allocs;
        result
    }

    fn is_solution(&mut self, problem: &DistributedCsp, snapshot: &Assignment) -> bool {
        let start = Instant::now();
        let solved = problem.is_solution(snapshot);
        self.is_solution_ns += ns(start);
        self.is_solution_calls += 1;
        solved
    }
}

/// What a traced run reports: the executor-visible outcome plus spans.
#[derive(Debug)]
pub struct Traced {
    /// Metrics exactly as the mirrored executor computes them.
    pub metrics: RunMetrics,
    /// The solving snapshot, when solved.
    pub solution: Option<Assignment>,
    /// Agent activations, including the start wave.
    pub activations: u64,
    /// Final tick (virtual loop) or cycle (sync loop).
    pub ticks: u64,
    /// Stall-recovery passes (virtual loop only).
    pub nudges: u64,
    /// Timings and counts.
    pub spans: Spans,
}

fn fold_stats<A: DistributedAgent>(agents: &[A], metrics: &mut RunMetrics) -> AgentStats {
    let mut stats = AgentStats::default();
    for agent in agents {
        stats.absorb(agent.stats());
    }
    metrics.nogoods_generated = stats.nogoods_generated;
    metrics.redundant_nogoods = stats.redundant_nogoods;
    metrics.largest_nogood = stats.largest_nogood;
    stats
}

/// `SyncSimulator::run` with the paper's unit delivery delay, history
/// and trace off. Agents stay with the caller so their end-of-run state
/// (nogood stores) can be inspected.
pub fn run_sync<A: DistributedAgent>(
    agents: &mut [A],
    problem: &DistributedCsp,
    cycle_limit: u64,
) -> Traced {
    let started = Instant::now();
    let n = agents.len();
    let mut spans = Spans::default();
    let mut pending: Vec<Envelope<A::Message>> = Vec::new();
    let mut metrics = RunMetrics::new(Termination::CutOff);
    let mut recorder = StepRecorder::new();
    let mut sink = NullSink;
    let mut solution = None;
    let mut cycle: u64 = 0;
    loop {
        cycle += 1;
        let start = Instant::now();
        let allocs = alloc::allocs();
        let mut inboxes: Vec<Vec<Envelope<A::Message>>> = (0..n).map(|_| Vec::new()).collect();
        spans.delivered += pending.len() as u64;
        for env in pending.drain(..) {
            // The simulator clones each due envelope into its inbox.
            inboxes[env.to.index()].push(env.clone());
        }
        spans.route_allocs += alloc::allocs() - allocs;
        spans.deliver_ns += ns(start);

        let mut max_checks = 0u64;
        for (i, agent) in agents.iter_mut().enumerate() {
            let mut out = Outbox::new(agent.id());
            if cycle == 1 {
                spans.step(|| agent.on_start(&mut out));
            } else {
                let inbox = std::mem::take(&mut inboxes[i]);
                spans.step(|| agent.on_batch(inbox, &mut out));
            }
            let start = Instant::now();
            let checks = agent.take_checks();
            spans.checks += checks;
            max_checks = max_checks.max(checks);
            metrics.total_checks += checks;
            recorder.record_step(agent, cycle, checks, &mut sink);
            let (ok, nogood, other) = out.count_by_class();
            metrics.ok_messages += ok;
            metrics.nogood_messages += nogood;
            metrics.other_messages += other;
            pending.extend(out.drain());
            spans.merge_ns += ns(start);
        }
        metrics.maxcck += max_checks;

        let start = Instant::now();
        let mut assignment = Assignment::empty(problem.num_vars());
        for agent in agents.iter() {
            for vv in agent.assignments() {
                assignment.set(vv.var, vv.value);
            }
        }
        let solved = spans.is_solution(problem, &assignment);
        spans.observe_ns += ns(start);
        if solved {
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
    fold_stats(agents, &mut metrics);
    metrics.messages_sent = metrics.total_messages();
    spans.total_ns = ns(started);
    Traced {
        metrics,
        solution,
        activations: cycle * n as u64,
        ticks: cycle,
        nudges: 0,
        spans,
    }
}

/// Routes one activation's outbox, timing the router.
fn route_all<M: discsp_runtime::Classify + Clone>(
    net: &mut Router<M>,
    spans: &mut Spans,
    tick: u64,
    out: &mut Outbox<M>,
) -> Result<(), RuntimeError> {
    let start = Instant::now();
    let allocs = alloc::allocs();
    for env in out.drain() {
        spans.routed += 1;
        net.route(tick, env)?;
    }
    spans.route_allocs += alloc::allocs() - allocs;
    spans.route_ns += ns(start);
    Ok(())
}

/// `run_virtual` for an unscripted (lottery-link) configuration with
/// trace recording off. Agents stay with the caller, as in [`run_sync`].
///
/// # Errors
///
/// The router's [`RuntimeError::UnknownRecipient`].
pub fn run_virtual<A: DistributedAgent>(
    agents: &mut [A],
    problem: &DistributedCsp,
    config: &VirtualConfig,
) -> Result<Traced, RuntimeError> {
    let started = Instant::now();
    let n = agents.len();
    let mut spans = Spans::default();
    let mut net: Router<A::Message> = Router::new(n, config.link, config.seed, false);
    let mut recorder = StepRecorder::new();
    let mut sink = NullSink;
    let mut metrics = RunMetrics::new(Termination::CutOff);
    let mut snapshot = Assignment::empty(problem.num_vars());
    let mut activations: u64 = 0;
    let mut nudges: u64 = 0;
    let mut tick: u64 = 0;
    let termination;

    let mut start_max: u64 = 0;
    for agent in agents.iter_mut() {
        let mut out = Outbox::new(agent.id());
        spans.step(|| agent.on_start(&mut out));
        activations += 1;
        let start = Instant::now();
        let checks = agent.take_checks();
        spans.checks += checks;
        metrics.total_checks += checks;
        start_max = start_max.max(checks);
        recorder.record_step(agent, 0, checks, &mut sink);
        spans.merge_ns += ns(start);
        route_all(&mut net, &mut spans, 0, &mut out)?;
    }
    metrics.maxcck += start_max;
    let mut insoluble = agents.iter().any(|a| a.detected_insoluble());
    for agent in agents.iter() {
        for vv in agent.assignments() {
            snapshot.set(vv.var, vv.value);
        }
    }

    loop {
        if insoluble {
            termination = Termination::Insoluble;
            break;
        }
        if config.stop_on_first_solution {
            let start = Instant::now();
            let solved = spans.is_solution(problem, &snapshot);
            spans.observe_ns += ns(start);
            if solved {
                termination = Termination::Solved;
                break;
            }
        }
        let Some(due) = net.next_due() else {
            let start = Instant::now();
            let solved = spans.is_solution(problem, &snapshot);
            spans.observe_ns += ns(start);
            if solved {
                termination = Termination::Solved;
                break;
            }
            if nudges >= config.max_nudges {
                termination = Termination::CutOff;
                break;
            }
            nudges += 1;
            tick += 1;
            let start = Instant::now();
            let allocs = alloc::allocs();
            net.flush_parked(tick);
            spans.route_allocs += alloc::allocs() - allocs;
            spans.route_ns += ns(start);
            let mut wave_max: u64 = 0;
            for agent in agents.iter_mut() {
                let mut out = Outbox::new(agent.id());
                spans.step(|| agent.on_nudge(&mut out));
                let start = Instant::now();
                let checks = agent.take_checks();
                spans.checks += checks;
                metrics.total_checks += checks;
                wave_max = wave_max.max(checks);
                recorder.record_step(agent, tick, checks, &mut sink);
                spans.merge_ns += ns(start);
                route_all(&mut net, &mut spans, tick, &mut out)?;
            }
            metrics.maxcck += wave_max;
            if net.is_quiescent() {
                termination = Termination::CutOff;
                break;
            }
            continue;
        };
        if due > config.max_ticks {
            termination = Termination::CutOff;
            break;
        }
        tick = tick.max(due);

        let start = Instant::now();
        let allocs = alloc::allocs();
        let due_now = net.take_due(due, tick);
        spans.route_allocs += alloc::allocs() - allocs;
        spans.deliver_ns += ns(start);
        let mut wave_max: u64 = 0;
        for (recipient, inbox) in due_now {
            let Some(agent) = agents.get_mut(recipient) else {
                continue;
            };
            spans.delivered += inbox.len() as u64;
            let mut out = Outbox::new(agent.id());
            spans.step(|| agent.on_batch(inbox, &mut out));
            activations += 1;
            let start = Instant::now();
            let checks = agent.take_checks();
            spans.checks += checks;
            metrics.total_checks += checks;
            wave_max = wave_max.max(checks);
            for vv in agent.assignments() {
                snapshot.set(vv.var, vv.value);
            }
            insoluble |= agent.detected_insoluble();
            recorder.record_step(agent, tick, checks, &mut sink);
            spans.merge_ns += ns(start);
            route_all(&mut net, &mut spans, tick, &mut out)?;
        }
        metrics.maxcck += wave_max;
    }

    metrics.termination = termination;
    metrics.cycles = tick;
    let (ok, nogood, other) = net.class_counts();
    metrics.ok_messages = ok;
    metrics.nogood_messages = nogood;
    metrics.other_messages = other;
    for agent in agents.iter_mut() {
        metrics.total_checks += agent.take_checks();
    }
    let mut stats = fold_stats(agents, &mut metrics);
    net.link_totals().fold_into(&mut stats);
    metrics.messages_sent = stats.messages_sent;
    metrics.messages_dropped = stats.messages_dropped;
    metrics.messages_duplicated = stats.messages_duplicated;
    metrics.messages_reordered = stats.messages_reordered;
    metrics.messages_retransmitted = stats.messages_retransmitted;
    metrics.max_delivery_delay = stats.max_delivery_delay;
    spans.total_ns = ns(started);

    let solution = (termination == Termination::Solved).then_some(snapshot);
    Ok(Traced {
        metrics,
        solution,
        activations,
        ticks: tick,
        nudges,
        spans,
    })
}
