//! The wave engine: the one control loop behind every deterministic
//! executor.
//!
//! The paper's `cycle` and `maxcck` are a per-wave accounting: each wave
//! of concurrent activations charges its largest check count once.
//! [`WaveEngine`] owns that accounting and every decision around it: the
//! [`Router`], the metrics, the assignment snapshot, the tick, nudge and
//! activation counters, the insolubility flag, the termination rule, and
//! the teardown. It advances one wave per [`WaveEngine::poll`]. Running
//! the activations is left to a [`Stepper`], of which there are three:
//!
//! * [`InProcess`]: the agents in one `Vec` on the caller's thread
//!   ([`run_virtual`](crate::run_virtual) and the service's sessions);
//! * the worker pool of [`run_sharded`](crate::run_sharded);
//! * the socket fan-out of the `discsp-net` coordinator.
//!
//! A stepper hands each activation's output to [`Merge::activation`] in
//! ascending agent-id order, whatever order the activations ran in. The
//! engine charges the checks, refreshes the snapshot and the insolubility
//! flag, records the step's trace events, and then routes the outbox,
//! the same way for start, delivery and nudge waves. It closes every
//! wave with one `CycleBarrier`. Since the engine makes every router call
//! in the same order whatever the stepper, all executors consume the
//! per-link fault streams identically and replay each other bit for bit.
//!
//! Before every wave after the start wave, the engine decides, in order:
//!
//! 1. an agent proved the problem insoluble: `Insoluble`;
//! 2. `stop_on_first_solution` is set and the snapshot solves the
//!    problem: `Solved`;
//! 3. nothing is in flight (quiescence), so the snapshot is a consistent
//!    global state: a solution is `Solved`; a spent nudge budget is
//!    `CutOff`; otherwise a recovery pass retransmits parked drops and
//!    nudges every agent. If that pass leaves nothing in flight either,
//!    the agents' state is final: `Insoluble`, else `Solved`, else
//!    `CutOff`;
//! 4. the next delivery falls past `max_ticks`: `CutOff`.
//!
//! Otherwise the messages due next are delivered as one wave.
//!
//! `WaveEngine::lockstep` builds the paper's synchronous system (§4) on
//! the same loop: the waves are the paper's cycles. The start wave is
//! cycle 1, and every later wave is the next tick. Its send-order
//! [`Router`] fills each inbox in global send order and hands back an
//! inbox for every agent, so every agent runs every wave (a
//! non-recipient on an empty inbox) and an agent that carries work over
//! to its next turn always gets one. The run ends on
//! rules 1 and 2 (a solved snapshot always ends it) or after the cycle
//! limit; there is no quiescence decision and no nudge, so a silent
//! stall runs to the limit.

use discsp_core::{
    AgentId, Assignment, DistributedCsp, RunMetrics, Termination, TrialOutcome, VarValue,
};
use discsp_trace::{RingBuffer, RuntimeKind, TraceEvent, TraceSink};

use crate::agent::{check_dense_ids, AgentStats, DistributedAgent, Outbox};
use crate::error::RuntimeError;
use crate::link::{LinkPolicy, VirtualConfig, VirtualReport};
use crate::message::{Classify, Envelope};
use crate::recorder::StepRecorder;
use crate::router::Router;

/// One wave of activations, as the engine hands it to a [`Stepper`].
#[derive(Debug)]
pub enum Wave<M> {
    /// Tick 0: every agent runs `on_start`.
    Start,
    /// A stall-recovery pass: every agent runs `on_nudge`.
    Nudge,
    /// The messages due this tick, one inbox per recipient in ascending
    /// recipient order (in lockstep, one per agent, empty or not); each
    /// listed agent runs `on_batch`.
    Deliver(Vec<(usize, Vec<Envelope<M>>)>),
}

/// The agents' side of an executor: runs the waves the engine asks for.
pub trait Stepper<M> {
    /// The executor's error; router errors convert into it.
    type Error: From<RuntimeError>;

    /// Runs `wave` and hands every activation's output to `merge`, in
    /// ascending agent-id order.
    ///
    /// # Errors
    ///
    /// Whatever the transport or the router reports; the run is dead
    /// afterwards.
    fn step<G: Admission<M>>(
        &mut self,
        wave: Wave<M>,
        merge: &mut Merge<'_, M, G>,
    ) -> Result<(), Self::Error>;

    /// Ends the run: hands every agent's leftover checks and final
    /// statistics to `teardown`, in ascending agent-id order.
    ///
    /// # Errors
    ///
    /// Whatever the transport reports.
    fn finish(&mut self, teardown: &mut Teardown<'_>) -> Result<(), Self::Error>;
}

/// Decides when a sent message enters the router.
pub trait Admission<M> {
    /// Routes `env`, sent at tick `now`, or holds it back.
    ///
    /// # Errors
    ///
    /// The router's [`RuntimeError::UnknownRecipient`].
    fn admit(
        &mut self,
        net: &mut Router<M>,
        now: u64,
        env: Envelope<M>,
    ) -> Result<(), RuntimeError>;

    /// Routes held messages the router has room for again. The engine
    /// calls this before each decision, so whenever the router is empty
    /// this must leave nothing held.
    ///
    /// # Errors
    ///
    /// The router's [`RuntimeError::UnknownRecipient`].
    fn release(&mut self, net: &mut Router<M>, now: u64) -> Result<(), RuntimeError>;

    /// Whether no message is held back.
    fn holds_nothing(&self) -> bool;
}

/// Admits every message at once: the router's queue is the whole
/// in-flight set. `run_virtual`, `run_sharded` and the net coordinator
/// use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Direct;

impl<M: Classify + Clone> Admission<M> for Direct {
    #[inline]
    fn admit(
        &mut self,
        net: &mut Router<M>,
        now: u64,
        env: Envelope<M>,
    ) -> Result<(), RuntimeError> {
        net.route(now, env)
    }

    #[inline]
    fn release(&mut self, _: &mut Router<M>, _: u64) -> Result<(), RuntimeError> {
        Ok(())
    }

    #[inline]
    fn holds_nothing(&self) -> bool {
        true
    }
}

/// What one [`WaveEngine::poll`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WavePoll {
    /// The engine ran one wave and has more to run.
    Running,
    /// The run has ended; its report is ready.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    Running,
    Finished,
    Reported,
}

/// The resumable deterministic control loop; see the module docs.
#[derive(Debug)]
pub struct WaveEngine<M, G = Direct> {
    net: Router<M>,
    gate: G,
    runtime: RuntimeKind,
    max_ticks: u64,
    max_nudges: u64,
    stop_on_first_solution: bool,
    /// The paper's synchronous system; see [`WaveEngine::lockstep`].
    lockstep: bool,
    metrics: RunMetrics,
    snapshot: Assignment,
    tick: u64,
    waves: u64,
    activations: u64,
    nudges: u64,
    insoluble: bool,
    phase: Phase,
}

impl<M: Classify + Clone, G: Admission<M>> WaveEngine<M, G> {
    /// An engine for `agents` agents solving `problem` under `config`,
    /// with `gate` deciding when sends enter the router. `runtime`
    /// stamps the trace's `RunEnd`.
    pub fn new(
        agents: usize,
        problem: &DistributedCsp,
        config: &VirtualConfig,
        runtime: RuntimeKind,
        gate: G,
    ) -> Self {
        let net = match &config.schedule {
            Some(schedule) => Router::scripted(agents, schedule, config.seed, config.record_trace),
            None => Router::new(agents, config.link, config.seed, config.record_trace),
        };
        WaveEngine {
            net,
            gate,
            runtime,
            max_ticks: config.max_ticks,
            max_nudges: config.max_nudges,
            stop_on_first_solution: config.stop_on_first_solution,
            lockstep: false,
            metrics: RunMetrics::new(Termination::CutOff),
            snapshot: Assignment::empty(problem.num_vars()),
            tick: 0,
            waves: 0,
            activations: 0,
            nudges: 0,
            insoluble: false,
            phase: Phase::Start,
        }
    }

    /// Runs the next wave on `stepper`, or ends the run. `problem` must
    /// be the one the engine was built for.
    ///
    /// # Errors
    ///
    /// The stepper's error; the run is dead afterwards.
    pub fn poll<S: Stepper<M>>(
        &mut self,
        problem: &DistributedCsp,
        stepper: &mut S,
    ) -> Result<WavePoll, S::Error> {
        match self.phase {
            Phase::Finished | Phase::Reported => return Ok(WavePoll::Finished),
            Phase::Start => {
                self.phase = Phase::Running;
                self.wave(stepper, Wave::Start)?;
                return Ok(WavePoll::Running);
            }
            Phase::Running => {}
        }
        self.gate.release(&mut self.net, self.tick)?;
        match self.advance(problem, stepper)? {
            None => Ok(WavePoll::Running),
            Some(termination) => {
                self.finish(stepper, termination)?;
                Ok(WavePoll::Finished)
            }
        }
    }

    /// Polls to the end of the run and returns its report.
    ///
    /// # Errors
    ///
    /// The stepper's error.
    pub fn run<S: Stepper<M>>(
        self,
        problem: &DistributedCsp,
        stepper: &mut S,
    ) -> Result<VirtualReport, S::Error> {
        self.run_observed(problem, stepper, |_| {})
    }

    /// [`run`](Self::run), handing the engine to `observe` after every
    /// wave.
    ///
    /// # Errors
    ///
    /// The stepper's error.
    pub(crate) fn run_observed<S: Stepper<M>>(
        mut self,
        problem: &DistributedCsp,
        stepper: &mut S,
        mut observe: impl FnMut(&Self),
    ) -> Result<VirtualReport, S::Error> {
        while self.poll(problem, stepper)? == WavePoll::Running {
            observe(&self);
        }
        Ok(self.report())
    }

    /// The report of an ended run, once; `None` while it runs.
    pub fn take_report(&mut self) -> Option<VirtualReport> {
        (self.phase == Phase::Finished).then(|| self.report())
    }

    /// Whether the run has ended.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finished | Phase::Reported)
    }

    /// Waves run so far, the start wave included.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// The admission policy.
    pub fn admission(&self) -> &G {
        &self.gate
    }

    /// The router: the in-flight set and the message counters so far.
    pub(crate) fn router(&self) -> &Router<M> {
        &self.net
    }

    /// The metrics so far. `maxcck` and `total_checks` grow wave by
    /// wave; the message counts, the agents' statistics, `cycles` and
    /// the termination are filled in when the run ends.
    pub(crate) fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The assignment snapshot: every variable's value as its agent last
    /// reported it.
    pub(crate) fn snapshot(&self) -> &Assignment {
        &self.snapshot
    }

    /// The trace recorded so far (disabled unless `record_trace`).
    pub fn sink(&mut self) -> &mut RingBuffer {
        self.net.sink()
    }

    /// Decides the run's fate before a wave; runs the wave and returns
    /// `None` unless the run ends.
    fn advance<S: Stepper<M>>(
        &mut self,
        problem: &DistributedCsp,
        stepper: &mut S,
    ) -> Result<Option<Termination>, S::Error> {
        if self.insoluble {
            return Ok(Some(Termination::Insoluble));
        }
        if self.stop_on_first_solution && problem.is_solution(&self.snapshot) {
            return Ok(Some(Termination::Solved));
        }
        // In lockstep every tick is a wave, whatever is due.
        let next = if self.lockstep {
            Some(self.tick + 1)
        } else {
            self.net.next_due()
        };
        let Some(due) = next else {
            // Quiescent: the queue is the in-flight set (the admission
            // gate holds nothing once the router is empty), so the
            // snapshot is stable unless the recovery pass injects traffic.
            if problem.is_solution(&self.snapshot) {
                return Ok(Some(Termination::Solved));
            }
            // Recovery is not gated on the fault policy: a protocol can
            // park itself without losing a message (AWC's repeated-nogood
            // rule silences a deadended agent).
            if self.nudges >= self.max_nudges {
                return Ok(Some(Termination::CutOff));
            }
            self.nudges += 1;
            self.tick += 1;
            self.net.flush_parked(self.tick);
            self.wave(stepper, Wave::Nudge)?;
            if !self.net.is_quiescent() || !self.gate.holds_nothing() {
                return Ok(None);
            }
            // Nothing retransmitted and nobody spoke: what the agents now
            // hold is final.
            return Ok(Some(if self.insoluble {
                Termination::Insoluble
            } else if problem.is_solution(&self.snapshot) {
                Termination::Solved
            } else {
                Termination::CutOff
            }));
        };
        if due > self.max_ticks {
            return Ok(Some(Termination::CutOff));
        }
        self.tick = self.tick.max(due);
        let inboxes = self.net.take_due(due, self.tick);
        self.wave(stepper, Wave::Deliver(inboxes))?;
        Ok(None)
    }

    /// Runs one wave: one maxcck unit, closed by a cycle barrier.
    fn wave<S: Stepper<M>>(&mut self, stepper: &mut S, wave: Wave<M>) -> Result<(), S::Error> {
        let counted = !matches!(wave, Wave::Nudge);
        let mut merge = Merge {
            engine: self,
            counted,
            wave_max: 0,
        };
        stepper.step(wave, &mut merge)?;
        let wave_max = merge.wave_max;
        self.metrics.maxcck += wave_max;
        self.net
            .sink()
            .record(TraceEvent::CycleBarrier { cycle: self.tick });
        self.waves += 1;
        Ok(())
    }

    /// The teardown: leftover checks, the statistics fold, and `RunEnd`.
    fn finish<S: Stepper<M>>(
        &mut self,
        stepper: &mut S,
        termination: Termination,
    ) -> Result<(), S::Error> {
        let mut teardown = Teardown {
            tick: self.tick,
            metrics: &mut self.metrics,
            sink: self.net.sink(),
            stats: AgentStats::default(),
        };
        stepper.finish(&mut teardown)?;
        let mut stats = teardown.stats;
        self.net.link_totals().fold_into(&mut stats);
        stats.fold_into(&mut self.metrics);
        self.metrics.termination = termination;
        self.metrics.cycles = self.tick;
        let (ok, nogood, other) = self.net.class_counts();
        self.metrics.ok_messages = ok;
        self.metrics.nogood_messages = nogood;
        self.metrics.other_messages = other;
        let in_flight = self.net.queued();
        self.net.sink().record(TraceEvent::RunEnd {
            cycle: self.tick,
            runtime: self.runtime,
            in_flight,
            metrics: self.metrics.clone(),
        });
        self.phase = Phase::Finished;
        Ok(())
    }

    fn report(&mut self) -> VirtualReport {
        self.phase = Phase::Reported;
        let solved = self.metrics.termination == Termination::Solved;
        let snapshot = std::mem::replace(&mut self.snapshot, Assignment::empty(0));
        VirtualReport {
            outcome: TrialOutcome {
                metrics: self.metrics.clone(),
                solution: solved.then_some(snapshot),
            },
            ticks: self.tick,
            activations: self.activations,
            nudges: self.nudges,
            fault_log: self.net.fault_log(),
            trace: self.net.take_trace(),
        }
    }
}

impl<M: Classify + Clone> WaveEngine<M> {
    /// The paper's synchronous system (§4) for `agents` agents solving
    /// `problem`: the lockstep configuration of the module docs. The run
    /// stops at the first solved snapshot, a proof of insolubility, or
    /// after `cycle_limit` waves. Every link follows `link` with its
    /// stream derived from `seed`, so `LinkPolicy::delayed(0, d)` lets a
    /// message arrive `1 + U(0..=d)` cycles after it was sent. The trace,
    /// when recorded, ends with a `Sync` `RunEnd`.
    pub(crate) fn lockstep(
        agents: usize,
        problem: &DistributedCsp,
        cycle_limit: u64,
        link: LinkPolicy,
        seed: u64,
        record_trace: bool,
    ) -> Self {
        let config = VirtualConfig {
            max_ticks: cycle_limit,
            stop_on_first_solution: true,
            ..VirtualConfig::default()
        };
        // `new` builds a perfect, untraced router, which allocates nothing;
        // the send-order router replaces it.
        WaveEngine {
            net: Router::send_order(agents, link, seed, record_trace),
            lockstep: true,
            tick: 1,
            ..WaveEngine::new(agents, problem, &config, RuntimeKind::Sync, Direct)
        }
    }
}

/// The engine's intake for one wave; see [`Stepper::step`].
#[derive(Debug)]
pub struct Merge<'a, M, G> {
    engine: &'a mut WaveEngine<M, G>,
    /// Whether activations of this wave count (nudges do not).
    counted: bool,
    wave_max: u64,
}

impl<M: Classify + Clone, G: Admission<M>> Merge<'_, M, G> {
    /// The wave's tick.
    pub fn tick(&self) -> u64 {
        self.engine.tick
    }

    /// Takes one activation's output: charges `checks`, sets the
    /// agent's `assignments` in the snapshot, raises the insolubility
    /// flag, lets `record` write the step's trace events, and then routes
    /// `outbox`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownRecipient`] when a message addresses an
    /// agent outside the population.
    pub fn activation(
        &mut self,
        checks: u64,
        insoluble: bool,
        assignments: impl IntoIterator<Item = VarValue>,
        record: impl FnOnce(&mut RingBuffer),
        outbox: impl IntoIterator<Item = Envelope<M>>,
    ) -> Result<(), RuntimeError> {
        let engine = &mut *self.engine;
        if self.counted {
            engine.activations += 1;
        }
        engine.metrics.total_checks += checks;
        self.wave_max = self.wave_max.max(checks);
        for vv in assignments {
            engine.snapshot.set(vv.var, vv.value);
        }
        engine.insoluble |= insoluble;
        record(engine.net.sink());
        for env in outbox {
            engine.gate.admit(&mut engine.net, engine.tick, env)?;
        }
        Ok(())
    }
}

/// The engine's intake for the end of the run; see [`Stepper::finish`].
#[derive(Debug)]
pub struct Teardown<'a> {
    tick: u64,
    metrics: &'a mut RunMetrics,
    sink: &'a mut RingBuffer,
    stats: AgentStats,
}

impl Teardown<'_> {
    /// Takes one agent's checks done outside any activation (charged as
    /// a final step, so the trace still sums to `total_checks`) and its
    /// final statistics.
    pub fn agent(&mut self, agent: AgentId, leftover: u64, stats: AgentStats) {
        if leftover > 0 {
            self.metrics.total_checks += leftover;
            self.sink.record(TraceEvent::AgentStep {
                cycle: self.tick,
                agent,
                checks: leftover,
            });
        }
        self.stats.absorb(stats);
    }

    /// The run's trace sink, for events a stepper collects at the end.
    pub fn sink(&mut self) -> &mut RingBuffer {
        self.sink
    }
}

/// The in-process stepper: the agents in one `Vec`, activated on the
/// caller's thread in ascending id order. One outbox and one
/// assignment buffer serve every activation.
#[derive(Debug)]
pub struct InProcess<A: DistributedAgent> {
    agents: Vec<A>,
    recorder: StepRecorder,
    outbox: Outbox<A::Message>,
    assignments: Vec<VarValue>,
}

impl<A: DistributedAgent> InProcess<A> {
    /// Wraps `agents`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*.
    pub fn new(agents: Vec<A>) -> Result<Self, RuntimeError> {
        check_dense_ids(&agents)?;
        Ok(InProcess {
            agents,
            recorder: StepRecorder::new(),
            outbox: Outbox::new(AgentId::new(0)),
            assignments: Vec::new(),
        })
    }

    /// Hands the agents back.
    pub(crate) fn into_agents(self) -> Vec<A> {
        self.agents
    }

    /// Runs one activation of the agent at `index` and hands its output
    /// to `merge`.
    fn activate<G: Admission<A::Message>>(
        &mut self,
        merge: &mut Merge<'_, A::Message, G>,
        index: usize,
        act: impl FnOnce(&mut A, &mut Outbox<A::Message>),
    ) -> Result<(), RuntimeError> {
        let Some(agent) = self.agents.get_mut(index) else {
            return Ok(());
        };
        self.outbox.reopen(agent.id());
        act(agent, &mut self.outbox);
        let checks = agent.take_checks();
        self.assignments.clear();
        agent.write_assignments(&mut self.assignments);
        let tick = merge.tick();
        let recorder = &mut self.recorder;
        merge.activation(
            checks,
            agent.detected_insoluble(),
            self.assignments.iter().copied(),
            |sink| recorder.record_step(agent, tick, checks, sink),
            self.outbox.sent(),
        )
    }
}

impl<A: DistributedAgent> Stepper<A::Message> for InProcess<A> {
    type Error = RuntimeError;

    fn step<G: Admission<A::Message>>(
        &mut self,
        wave: Wave<A::Message>,
        merge: &mut Merge<'_, A::Message, G>,
    ) -> Result<(), RuntimeError> {
        let nudge = match wave {
            Wave::Start => false,
            Wave::Nudge => true,
            Wave::Deliver(inboxes) => {
                for (recipient, mut inbox) in inboxes {
                    self.activate(merge, recipient, |a, out| a.on_inbox(&mut inbox, out))?;
                }
                return Ok(());
            }
        };
        for index in 0..self.agents.len() {
            self.activate(merge, index, |a, out| {
                if nudge {
                    a.on_nudge(out);
                } else {
                    a.on_start(out);
                }
            })?;
        }
        Ok(())
    }

    fn finish(&mut self, teardown: &mut Teardown<'_>) -> Result<(), RuntimeError> {
        for agent in self.agents.iter_mut() {
            teardown.agent(agent.id(), agent.take_checks(), agent.stats());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::Gossip;
    use crate::{run_sharded, run_virtual, ShardConfig};
    use discsp_core::{Domain, Value, VariableId};

    /// One of two boolean agents under `x0 != x1`, both `false` and
    /// silent on start, so the run is quiescent at a conflict from tick 0
    /// over perfect links. A nudge makes agent 1 act alone and tell
    /// nobody: flip its value (a solution), or with `give_up` declare the
    /// problem insoluble.
    struct Quiet {
        id: AgentId,
        value: Value,
        give_up: bool,
        insoluble: bool,
    }

    impl DistributedAgent for Quiet {
        type Message = Gossip;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, _: &mut Outbox<Gossip>) {}

        fn on_batch(&mut self, _: Vec<Envelope<Gossip>>, _: &mut Outbox<Gossip>) {}

        fn on_nudge(&mut self, _: &mut Outbox<Gossip>) {
            if self.id.index() == 1 {
                if self.give_up {
                    self.insoluble = true;
                } else {
                    self.value = Value::TRUE;
                }
            }
        }

        fn assignments(&self) -> Vec<VarValue> {
            vec![VarValue::new(VariableId::new(self.id.raw()), self.value)]
        }

        fn take_checks(&mut self) -> u64 {
            0
        }

        fn stats(&self) -> AgentStats {
            AgentStats::default()
        }

        fn detected_insoluble(&self) -> bool {
            self.insoluble
        }
    }

    fn quiet_pair(give_up: bool) -> Vec<Quiet> {
        (0..2)
            .map(|i| Quiet {
                id: AgentId::new(i),
                value: Value::FALSE,
                give_up,
                insoluble: false,
            })
            .collect()
    }

    fn not_equal_pair() -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let x = b.variable(Domain::BOOL);
        let y = b.variable(Domain::BOOL);
        b.not_equal(x, y).expect("edge");
        b.build().expect("pair")
    }

    /// Runs the pair on `run_virtual` and on `run_sharded` at 1 and 4
    /// workers, checks that all three agree, and returns the virtual run.
    fn on_every_in_process_executor(give_up: bool) -> VirtualReport {
        let problem = not_equal_pair();
        let config = VirtualConfig {
            record_trace: true,
            ..VirtualConfig::default()
        };
        let virt = run_virtual(quiet_pair(give_up), &problem, &config).expect("virtual");
        let audit = discsp_trace::audit(&virt.trace).expect("sealed trace");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        for workers in [1usize, 4] {
            let sharded = run_sharded(
                quiet_pair(give_up),
                &problem,
                &ShardConfig::with_base(config.clone(), workers),
            )
            .expect("sharded");
            assert_eq!(sharded.outcome, virt.outcome, "workers {workers}");
            assert_eq!(sharded.ticks, virt.ticks, "workers {workers}");
            assert_eq!(sharded.activations, virt.activations, "workers {workers}");
            assert_eq!(sharded.nudges, virt.nudges, "workers {workers}");
        }
        virt
    }

    #[test]
    fn a_silent_move_on_a_nudge_is_seen_in_the_snapshot() {
        let report = on_every_in_process_executor(false);
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        assert_eq!(report.nudges, 1);
        let solution = report.outcome.solution.expect("the agents hold one");
        assert!(not_equal_pair().is_solution(&solution));
    }

    #[test]
    fn insolubility_raised_on_a_nudge_ends_the_run_insoluble() {
        let report = on_every_in_process_executor(true);
        assert_eq!(report.outcome.metrics.termination, Termination::Insoluble);
        assert_eq!(report.nudges, 1);
        assert!(report.outcome.solution.is_none());
    }
}
