//! The synchronous distributed-system simulator used for all measurements.
//!
//! §4 of the paper: "A synchronous distributed system is one of possible
//! distributed systems, where all processes (agents) do their cycles
//! synchronously. One cycle consists of activities so that all agents read
//! incoming messages, do their local computation, and send messages to
//! relevant agents." Messages sent during cycle *k* are readable in cycle
//! *k + 1*. An omniscient observer detects the first cycle whose global
//! assignment solves the problem.
//!
//! [`SyncSimulator`] is the front end of that system: it runs the
//! [`WaveEngine`]'s lockstep configuration (see the engine's docs) with
//! the [`InProcess`] stepper, so every cycle is one engine wave and
//! the paper's numbers come from the same loop, router, termination rules
//! and trace emitter as every other deterministic executor. What it adds
//! is the per-cycle [`CycleRecord`] history, read off the engine between
//! waves.

use discsp_core::{DistributedCsp, TrialOutcome, PAPER_CYCLE_LIMIT};
use serde::{Deserialize, Serialize};

use discsp_trace::TraceEvent;

use crate::agent::{check_dense_ids, DistributedAgent};
use crate::engine::{InProcess, WaveEngine};
use crate::error::RuntimeError;
use crate::link::LinkPolicy;

/// One cycle's bookkeeping, collected when history recording is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleRecord {
    /// 1-based cycle number.
    pub cycle: u64,
    /// Maximum nogood checks by any single agent in this cycle.
    pub max_checks: u64,
    /// Total nogood checks over all agents in this cycle.
    pub total_checks: u64,
    /// Messages sent during this cycle.
    pub messages: u64,
    /// Nogoods violated by the global assignment after this cycle.
    pub violations: u64,
}

/// Result of a synchronous run: the trial outcome plus optional per-cycle
/// history and event trace.
#[derive(Debug, Clone)]
pub struct SyncRun {
    /// Metrics and solution.
    pub outcome: TrialOutcome,
    /// Per-cycle records; empty unless history recording was enabled.
    pub history: Vec<CycleRecord>,
    /// Event log; empty unless trace recording was enabled.
    pub trace: Vec<TraceEvent>,
}

/// The synchronous cycle simulator.
///
/// Owns the agents (one per [`discsp_core::AgentId`], densely indexed) and
/// drives them cycle by cycle until a solution is observed, the empty
/// nogood proves insolubility, or the cycle limit cuts the trial off.
///
/// # Examples
///
/// [`Solver::solve_sync`](crate::Solver::solve_sync) runs it with the
/// paper's settings; a caller that wants a history, a trace, a delay or
/// another cycle limit builds the agents and sets them here. The
/// simulator is algorithm-agnostic and works for any [`DistributedAgent`].
#[derive(Debug)]
pub struct SyncSimulator<A: DistributedAgent> {
    agents: Vec<A>,
    cycle_limit: u64,
    record_history: bool,
    record_trace: bool,
    /// Extra delivery delay: each message arrives after `1 + U(0..=d)`
    /// cycles instead of exactly one. Zero restores the paper's setting.
    max_extra_delay: u64,
    delay_seed: u64,
}

impl<A: DistributedAgent> SyncSimulator<A> {
    /// Creates a simulator over `agents` with the paper's 10 000-cycle
    /// limit.
    ///
    /// The population must be densely indexed — agent *i* reporting id
    /// *i* — because the simulator routes messages by index; [`run`]
    /// reports a [`RuntimeError`] otherwise.
    ///
    /// [`run`]: SyncSimulator::run
    pub fn new(agents: Vec<A>) -> Self {
        SyncSimulator {
            agents,
            cycle_limit: PAPER_CYCLE_LIMIT,
            record_history: false,
            record_trace: false,
            max_extra_delay: 0,
            delay_seed: 0,
        }
    }

    /// Overrides the cycle limit (the paper uses 10 000).
    pub fn cycle_limit(&mut self, limit: u64) -> &mut Self {
        self.cycle_limit = limit;
        self
    }

    /// Enables per-cycle history recording.
    pub fn record_history(&mut self, on: bool) -> &mut Self {
        self.record_history = on;
        self
    }

    /// Enables event-trace recording (message deliveries and variable
    /// changes); see [`crate::render_trace`].
    pub fn record_trace(&mut self, on: bool) -> &mut Self {
        self.record_trace = on;
        self
    }

    /// Makes message delivery take `1 + U(0..=max_extra)` cycles instead
    /// of exactly one — the paper's §5 "other types of distributed
    /// systems". Every link draws its delays from its own stream, derived
    /// from `seed` ([`LinkPolicy::delayed`]`(0, max_extra)`). The
    /// algorithms are designed for full asynchrony, so they must still
    /// terminate correctly (tests assert this).
    pub fn message_delay(&mut self, max_extra: u64, seed: u64) -> &mut Self {
        self.max_extra_delay = max_extra;
        self.delay_seed = seed;
        self
    }

    /// Read access to the agents (e.g. to inspect learned nogoods after a
    /// run).
    pub fn agents(&self) -> &[A] {
        &self.agents
    }

    /// Runs the algorithm against `problem` until termination.
    ///
    /// Returns the trial outcome; metrics follow the paper's definitions
    /// (`cycles`, `maxcck` = Σ per-cycle max agent checks).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonDenseAgentIds`] when the population is not
    /// densely indexed, [`RuntimeError::UnknownRecipient`] when an agent
    /// addresses a message outside the population.
    pub fn run(&mut self, problem: &DistributedCsp) -> Result<SyncRun, RuntimeError> {
        // Checked before the agents move, so a rejected population stays
        // with the simulator.
        check_dense_ids(&self.agents)?;
        let engine = WaveEngine::lockstep(
            self.agents.len(),
            problem,
            self.cycle_limit,
            LinkPolicy::delayed(0, self.max_extra_delay),
            self.delay_seed,
            self.record_trace,
        );
        let mut stepper = InProcess::new(std::mem::take(&mut self.agents))?;
        let record = self.record_history;
        let mut history = Vec::new();
        // Running (maxcck, total_checks, messages) after the last cycle.
        let mut last = (0, 0, 0);
        let report = engine.run_observed(problem, &mut stepper, |engine| {
            if !record {
                return;
            }
            let metrics = engine.metrics();
            let (ok, nogood, other) = engine.router().class_counts();
            let now = (metrics.maxcck, metrics.total_checks, ok + nogood + other);
            history.push(CycleRecord {
                cycle: engine.waves(),
                max_checks: now.0 - last.0,
                total_checks: now.1 - last.1,
                messages: now.2 - last.2,
                violations: problem.violation_count(engine.snapshot().lookup()) as u64,
            });
            last = now;
        });
        self.agents = stepper.into_agents();
        let report = report?;
        Ok(SyncRun {
            outcome: report.outcome,
            history,
            trace: report.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentStats, Outbox};
    use crate::message::{Classify, Envelope, MessageClass};
    use discsp_core::{AgentId, Domain, Termination, Value, VarValue, VariableId};

    /// A toy protocol: each agent owns one Boolean variable and copies the
    /// value announced by agent 0, so everyone converges to agreement —
    /// the test problem *requires* disagreement-free equality.
    #[derive(Debug, Clone)]
    struct Announce(Value);

    impl Classify for Announce {
        fn class(&self) -> MessageClass {
            MessageClass::Ok
        }
    }

    struct Follower {
        id: AgentId,
        value: Value,
        peers: usize,
        checks_this_turn: u64,
    }

    impl DistributedAgent for Follower {
        type Message = Announce;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, out: &mut Outbox<Announce>) {
            if self.id.index() == 0 {
                for p in 1..self.peers {
                    out.send(AgentId::new(p as u32), Announce(self.value));
                }
            }
        }

        fn on_batch(&mut self, inbox: Vec<Envelope<Announce>>, _out: &mut Outbox<Announce>) {
            for env in inbox {
                self.value = env.payload.0;
                self.checks_this_turn += 1;
            }
        }

        fn assignments(&self) -> Vec<VarValue> {
            vec![VarValue::new(VariableId::new(self.id.raw()), self.value)]
        }

        fn take_checks(&mut self) -> u64 {
            std::mem::take(&mut self.checks_this_turn)
        }

        fn stats(&self) -> AgentStats {
            AgentStats::default()
        }
    }

    /// All-equal problem: every adjacent pair must agree (prohibit
    /// differing values pairwise).
    fn all_equal_problem(n: usize) -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(2))).collect();
        for w in vars.windows(2) {
            for a in 0..2u16 {
                for c in 0..2u16 {
                    if a != c {
                        b.nogood(discsp_core::Nogood::of([
                            (w[0], Value::new(a)),
                            (w[1], Value::new(c)),
                        ]))
                        .unwrap();
                    }
                }
            }
        }
        b.build().unwrap()
    }

    fn followers(n: usize) -> Vec<Follower> {
        (0..n)
            .map(|i| Follower {
                id: AgentId::new(i as u32),
                // Agent 0 starts at 1, everyone else at 0: disagreement.
                value: Value::new(if i == 0 { 1 } else { 0 }),
                peers: n,
                checks_this_turn: 0,
            })
            .collect()
    }

    #[test]
    fn converges_and_counts_cycles() {
        let problem = all_equal_problem(4);
        let mut sim = SyncSimulator::new(followers(4));
        let run = sim.run(&problem).expect("runs");
        let m = &run.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved);
        // Cycle 1: agent 0 announces. Cycle 2: others adopt → solved.
        assert_eq!(m.cycles, 2);
        assert_eq!(m.ok_messages, 3);
        let sol = run.outcome.solution.as_ref().unwrap();
        assert!(problem.is_solution(sol));
        assert_eq!(sol.get(VariableId::new(3)), Some(Value::new(1)));
    }

    #[test]
    fn maxcck_takes_per_cycle_maximum() {
        let problem = all_equal_problem(4);
        let mut sim = SyncSimulator::new(followers(4));
        let run = sim.run(&problem).expect("runs");
        // Cycle 1: zero checks anywhere. Cycle 2: each follower "checks"
        // once (toy accounting), so the per-cycle max is 1.
        assert_eq!(run.outcome.metrics.maxcck, 1);
        assert_eq!(run.outcome.metrics.total_checks, 3);
    }

    #[test]
    fn cutoff_hits_limit() {
        // Agent 0 never announces because peers == 1 (no recipients), so
        // the 2-agent system can never agree.
        let problem = all_equal_problem(2);
        let mut agents = followers(2);
        agents[0].peers = 1;
        let mut sim = SyncSimulator::new(agents);
        sim.cycle_limit(50);
        let run = sim.run(&problem).expect("runs");
        assert_eq!(run.outcome.metrics.termination, Termination::CutOff);
        assert_eq!(run.outcome.metrics.cycles, 50);
        assert!(run.outcome.solution.is_none());
    }

    #[test]
    fn history_records_each_cycle() {
        let problem = all_equal_problem(3);
        let mut sim = SyncSimulator::new(followers(3));
        sim.record_history(true);
        let run = sim.run(&problem).expect("runs");
        assert_eq!(run.history.len(), run.outcome.metrics.cycles as usize);
        assert_eq!(run.history[0].cycle, 1);
        // Final cycle has zero violations (solved).
        assert_eq!(run.history.last().unwrap().violations, 0);
    }

    #[test]
    fn misordered_agents_rejected() {
        let problem = all_equal_problem(2);
        let mut agents = followers(2);
        agents.swap(0, 1);
        let err = SyncSimulator::new(agents).run(&problem).unwrap_err();
        assert_eq!(
            err,
            crate::RuntimeError::NonDenseAgentIds {
                position: 0,
                found: AgentId::new(1),
            }
        );
    }

    #[test]
    fn unknown_recipient_reported_not_panicked() {
        // Agent 0 believes there are 5 peers, but only 2 exist: its
        // start-up announcements address agents outside the population.
        let problem = all_equal_problem(2);
        let mut agents = followers(2);
        agents[0].peers = 5;
        let err = SyncSimulator::new(agents).run(&problem).unwrap_err();
        assert!(matches!(err, crate::RuntimeError::UnknownRecipient { .. }));
    }

    #[test]
    fn message_delay_slows_but_preserves_convergence() {
        let problem = all_equal_problem(4);
        let mut baseline = SyncSimulator::new(followers(4));
        let base = baseline.run(&problem).expect("runs");
        assert_eq!(base.outcome.metrics.cycles, 2);

        let mut delayed = SyncSimulator::new(followers(4));
        delayed.message_delay(5, 99);
        let run = delayed.run(&problem).expect("runs");
        assert_eq!(run.outcome.metrics.termination, Termination::Solved);
        assert!(
            run.outcome.metrics.cycles >= base.outcome.metrics.cycles,
            "delay cannot make delivery faster"
        );
        // With a max extra delay of 5, everything lands by cycle 7.
        assert!(run.outcome.metrics.cycles <= 7);
    }

    #[test]
    fn message_delay_is_deterministic_per_seed() {
        let problem = all_equal_problem(4);
        let run_with = |seed: u64| {
            let mut sim = SyncSimulator::new(followers(4));
            sim.message_delay(4, seed);
            sim.run(&problem).expect("runs").outcome.metrics.cycles
        };
        assert_eq!(run_with(3), run_with(3));
    }

    #[test]
    fn sync_trace_passes_the_audit() {
        let problem = all_equal_problem(4);
        let mut sim = SyncSimulator::new(followers(4));
        sim.record_trace(true).message_delay(3, 7);
        let run = sim.run(&problem).expect("runs");
        let audit = discsp_trace::audit(&run.trace).expect("trace is sealed by RunEnd");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        assert_eq!(audit.metrics, run.outcome.metrics);
        assert!(
            run.trace
                .iter()
                .any(|e| matches!(e, TraceEvent::ValueChanged { .. })),
            "the shared recorder emits value changes"
        );
        assert!(
            run.trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Sent { .. })),
            "sends are traced at emission time"
        );
    }

    #[test]
    fn instantly_solved_problem_takes_one_cycle() {
        let problem = all_equal_problem(3);
        let mut agents = followers(3);
        for a in &mut agents {
            a.value = Value::new(1); // already agreeing
        }
        let mut sim = SyncSimulator::new(agents);
        let run = sim.run(&problem).expect("runs");
        assert_eq!(run.outcome.metrics.cycles, 1);
        assert_eq!(run.outcome.metrics.termination, Termination::Solved);
    }
}
