//! One session as a resumable state machine.
//!
//! [`Driver`] is the runtime's [`WaveEngine`] with the [`InProcess`]
//! stepper — exactly what `run_virtual` runs — polled instead of looped:
//! it executes **one wave per [`Pump::poll`]** (the tick-0 start wave, a
//! delivery wave, or a stall-recovery nudge wave), with the same
//! termination decisions, maxcck wave accounting, barrier events, and
//! teardown as the in-process executor, because they are the same code.
//! A session polled to completion therefore produces metrics and a trace
//! **bit-identical** to `solve_virtual` on the same `(seed, policy)`
//! (modulo the `RunEnd` runtime stamp), which is the property the
//! service's interleaving tests pin.
//!
//! Backpressure is the one thing the service adds, as the engine's
//! [`Admission`] policy: each session has a bounded in-flight message
//! budget. Sends past it spill to a deterministic FIFO parking queue
//! ([`Pump::overflow_len`]) drained back into the router as its queue
//! empties, so a hostile or chatty session has bounded router state no
//! matter how much it sends per wave.

use std::collections::VecDeque;

use discsp_awc::AwcSolver;
use discsp_core::{Assignment, DistributedCsp};
use discsp_dba::DbaSolver;
use discsp_net::AlgoSpec;
use discsp_runtime::{
    Admission, Classify, DistributedAgent, Envelope, InProcess, Router, RuntimeError, Solver,
    VirtualConfig, VirtualReport, WaveEngine,
};
use discsp_trace::RuntimeKind;

use crate::ServiceError;

/// Everything that defines one session: the problem, the seed/policy
/// (inside the [`VirtualConfig`]), and the algorithm.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The problem to solve.
    pub problem: DistributedCsp,
    /// The initial assignment (total, in-domain).
    pub init: Assignment,
    /// The algorithm to run.
    pub algo: AlgoSpec,
    /// Seed, link policy, budgets, trace recording. The algorithm's
    /// stop rule applies on top ([`Solver::run_config`]), as on every
    /// executor.
    pub config: VirtualConfig,
}

/// What one poll did: the session advanced one wave and has more work,
/// or it has terminated and its report is ready.
pub use discsp_runtime::WavePoll as SessionPoll;

/// A pollable session, type-erased over the algorithm's agent type so
/// the session table can hold AWC and DBA sessions side by side.
pub trait Pump: Send {
    /// Advances the session by one wave.
    ///
    /// # Errors
    ///
    /// [`RuntimeError`] if the session's router rejects a message; the
    /// session is dead afterwards.
    fn poll(&mut self) -> Result<SessionPoll, RuntimeError>;

    /// The session's report, once finished (consumes it).
    fn take_report(&mut self) -> Option<VirtualReport>;

    /// Messages currently parked by the in-flight budget.
    fn overflow_len(&self) -> usize;

    /// High-water mark of the parking queue over the session's life.
    fn overflow_peak(&self) -> usize;
}

/// The session's in-flight budget: sends past it park in a FIFO queue,
/// drained back into the router as its queue empties.
struct Budget<M> {
    limit: u64,
    overflow: VecDeque<Envelope<M>>,
    peak: usize,
}

impl<M: Classify + Clone> Admission<M> for Budget<M> {
    /// Routes now if the in-flight budget allows, else parks. Once
    /// anything is parked, everything parks behind it: releases happen
    /// strictly in send order, so backpressure delays messages but
    /// never reorders one send past a later one.
    fn admit(
        &mut self,
        net: &mut Router<M>,
        now: u64,
        env: Envelope<M>,
    ) -> Result<(), RuntimeError> {
        if self.overflow.is_empty() && net.queued() < self.limit {
            net.route(now, env)
        } else {
            self.overflow.push_back(env);
            self.peak = self.peak.max(self.overflow.len());
            Ok(())
        }
    }

    /// Budget headroom freed by earlier deliveries re-admits parked sends
    /// first, in FIFO order, before the next wave routes anything. With
    /// the router empty at least one send is re-admitted, so a quiescent
    /// router always means an empty parking queue.
    fn release(&mut self, net: &mut Router<M>, now: u64) -> Result<(), RuntimeError> {
        while net.queued() < self.limit {
            let Some(env) = self.overflow.pop_front() else {
                break;
            };
            net.route(now, env)?;
        }
        Ok(())
    }

    fn holds_nothing(&self) -> bool {
        self.overflow.is_empty()
    }
}

/// One session: the in-process agents on the wave engine, with the
/// in-flight budget as its admission policy. See the module docs.
pub struct Driver<A: DistributedAgent> {
    agents: InProcess<A>,
    problem: DistributedCsp,
    engine: WaveEngine<A::Message, Budget<A::Message>>,
}

impl<A: DistributedAgent> Driver<A> {
    /// Builds a driver in the not-started state. `budget` bounds the
    /// router's in-flight queue (clamped to at least 1); `u64::MAX`
    /// disables backpressure, making the session step-for-step
    /// identical to `run_virtual`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports
    /// id *i* — the same up-front check as the in-process executor.
    pub fn new(
        agents: Vec<A>,
        problem: DistributedCsp,
        config: VirtualConfig,
        budget: u64,
    ) -> Result<Self, RuntimeError> {
        let budget = Budget {
            limit: budget.max(1),
            overflow: VecDeque::new(),
            peak: 0,
        };
        let engine = WaveEngine::new(
            agents.len(),
            &problem,
            &config,
            RuntimeKind::Service,
            budget,
        );
        Ok(Driver {
            agents: InProcess::new(agents)?,
            problem,
            engine,
        })
    }
}

impl<A: DistributedAgent + Send> Pump for Driver<A> {
    fn poll(&mut self) -> Result<SessionPoll, RuntimeError> {
        self.engine.poll(&self.problem, &mut self.agents)
    }

    fn take_report(&mut self) -> Option<VirtualReport> {
        self.engine.take_report()
    }

    fn overflow_len(&self) -> usize {
        self.engine.admission().overflow.len()
    }

    fn overflow_peak(&self) -> usize {
        self.engine.admission().peak
    }
}

/// Builds the type-erased session state machine for a spec: seats the
/// algorithm's agents as every in-process solver does and instantiates
/// the matching [`Driver`], which takes the spec's problem, under the
/// algorithm's stop rule.
///
/// # Errors
///
/// [`ServiceError::BadSpec`] when the solver rejects the problem or
/// initial assignment; [`ServiceError::Runtime`] on non-dense agent ids.
pub fn build_pump(spec: SessionSpec, budget: u64) -> Result<Box<dyn Pump>, ServiceError> {
    match spec.algo {
        AlgoSpec::Awc(config) => pump(&AwcSolver::new(config), spec, budget),
        AlgoSpec::Dba(mode) => pump(&DbaSolver::new().weight_mode(mode), spec, budget),
    }
}

fn pump<S>(solver: &S, spec: SessionSpec, budget: u64) -> Result<Box<dyn Pump>, ServiceError>
where
    S: Solver,
    S::Agent: 'static,
{
    let agents = solver
        .agents(&spec.problem, &spec.init)
        .map_err(|e| ServiceError::BadSpec {
            detail: e.to_string(),
        })?;
    let config = solver.run_config(&spec.config);
    Ok(Box::new(Driver::new(agents, spec.problem, config, budget)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_awc::AwcConfig;
    use discsp_core::{AgentId, Domain, Termination, Value, VarValue, VariableId};
    use discsp_runtime::{run_virtual, AgentStats, MessageClass, Outbox, TraceEvent};

    fn ring_spec(n: usize, seed: u64) -> SessionSpec {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..n {
            let (x, y) = (vars[i], vars[(i + 1) % n]);
            if x != y {
                b.not_equal(x, y).expect("edge");
            }
        }
        SessionSpec {
            problem: b.build().expect("ring"),
            init: Assignment::total((0..n).map(|_| Value::new(0))),
            algo: AlgoSpec::Awc(AwcConfig::resolvent()),
            config: VirtualConfig {
                seed,
                ..VirtualConfig::default()
            },
        }
    }

    #[test]
    fn polled_session_matches_solve_virtual_field_by_field() {
        let spec = ring_spec(6, 11);
        let mut pump = build_pump(spec.clone(), u64::MAX).expect("pump");
        while pump.poll().expect("poll") == SessionPoll::Running {}
        let report = pump.take_report().expect("report");

        let solver = AwcSolver::new(AwcConfig::resolvent());
        let virt = solver
            .solve_virtual(&spec.problem, &spec.init, &spec.config)
            .expect("virtual");
        assert_eq!(report.outcome.metrics, virt.outcome.metrics);
        assert_eq!(report.outcome.solution, virt.outcome.solution);
        assert_eq!(report.ticks, virt.ticks);
        assert_eq!(report.activations, virt.activations);
        assert_eq!(report.nudges, virt.nudges);
    }

    #[test]
    fn bad_spec_is_rejected_before_any_wave() {
        let mut spec = ring_spec(3, 1);
        // Out-of-domain initial value: the solver's validation must fire.
        spec.init = Assignment::total((0..3).map(|_| Value::new(99)));
        assert!(matches!(
            build_pump(spec, u64::MAX),
            Err(ServiceError::BadSpec { .. })
        ));
    }

    #[test]
    fn tiny_budget_parks_and_still_solves() {
        let spec = ring_spec(6, 11);
        let mut pump = build_pump(spec.clone(), 2).expect("pump");
        while pump.poll().expect("poll") == SessionPoll::Running {}
        let report = pump.take_report().expect("report");
        assert_eq!(
            report.outcome.metrics.termination,
            discsp_core::Termination::Solved
        );
        assert!(
            pump.overflow_peak() > 0,
            "a 2-message budget on a 6-ring must actually park"
        );
        assert_eq!(pump.overflow_len(), 0, "overflow drains by termination");

        // And the budgeted run is itself deterministic: same spec, same
        // budget, same everything.
        let mut again = build_pump(spec, 2).expect("pump");
        while again.poll().expect("poll") == SessionPoll::Running {}
        let second = again.take_report().expect("report");
        assert_eq!(report.outcome.metrics, second.outcome.metrics);
        assert_eq!(report.outcome.solution, second.outcome.solution);
    }

    #[derive(Debug, Clone)]
    struct Announce(Value);

    impl Classify for Announce {
        fn class(&self) -> MessageClass {
            MessageClass::Ok
        }
    }

    /// What a nudge makes the pair below do.
    #[derive(Debug, Clone, Copy)]
    enum OnNudge {
        /// Agent 0 announces its value; agent 1 takes the other value on
        /// hearing it, which solves the problem.
        Announce,
        /// Agent 1 flips its own value, which solves the problem, and
        /// tells nobody.
        Flip,
        /// Agent 1 declares the problem insoluble and tells nobody.
        GiveUp,
    }

    /// One of two agents holding a boolean each, both `false`, under
    /// `x0 != x1`. Neither speaks on start, so the run is quiescent at a
    /// conflict from tick 0 over perfect links; only a nudge moves it.
    struct Shy {
        id: AgentId,
        value: Value,
        on_nudge: OnNudge,
        insoluble: bool,
    }

    impl DistributedAgent for Shy {
        type Message = Announce;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, _: &mut Outbox<Announce>) {}

        fn on_batch(&mut self, inbox: Vec<Envelope<Announce>>, _: &mut Outbox<Announce>) {
            for env in inbox {
                self.value = Value::from_bool(env.payload.0 == Value::FALSE);
            }
        }

        fn on_nudge(&mut self, out: &mut Outbox<Announce>) {
            match (self.on_nudge, self.id.index()) {
                (OnNudge::Announce, 0) => out.send(AgentId::new(1), Announce(self.value)),
                (OnNudge::Flip, 1) => self.value = Value::TRUE,
                (OnNudge::GiveUp, 1) => self.insoluble = true,
                _ => {}
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

    fn shy_pair(on_nudge: OnNudge) -> Vec<Shy> {
        (0..2)
            .map(|i| Shy {
                id: AgentId::new(i),
                value: Value::FALSE,
                on_nudge,
                insoluble: false,
            })
            .collect()
    }

    #[test]
    fn perfect_link_stall_is_nudged_exactly_as_run_virtual_does() {
        let mut b = DistributedCsp::builder();
        let x = b.variable(Domain::BOOL);
        let y = b.variable(Domain::BOOL);
        b.not_equal(x, y).expect("edge");
        let problem = b.build().expect("pair");
        let config = VirtualConfig {
            record_trace: true,
            ..VirtualConfig::default()
        };

        for (on_nudge, expected) in [
            (OnNudge::Announce, Termination::Solved),
            (OnNudge::Flip, Termination::Solved),
            (OnNudge::GiveUp, Termination::Insoluble),
        ] {
            let mut driver = Driver::new(
                shy_pair(on_nudge),
                problem.clone(),
                config.clone(),
                u64::MAX,
            )
            .expect("driver");
            while driver.poll().expect("poll") == SessionPoll::Running {}
            let report = driver.take_report().expect("report");
            let virt = run_virtual(shy_pair(on_nudge), &problem, &config).expect("virtual");

            assert_eq!(report.outcome.metrics.termination, expected, "{on_nudge:?}");
            assert_eq!(
                report.nudges, 1,
                "{on_nudge:?}: one nudge wave unsticks the pair"
            );
            assert_eq!(report.outcome.metrics, virt.outcome.metrics);
            assert_eq!(report.outcome.solution, virt.outcome.solution);
            assert_eq!(report.ticks, virt.ticks);
            assert_eq!(report.activations, virt.activations);
            assert_eq!(report.nudges, virt.nudges);
            assert_eq!(report.fault_log, virt.fault_log);
            // The traces agree event for event but for the RunEnd stamp.
            let events = |trace: &[TraceEvent]| -> Vec<TraceEvent> {
                trace
                    .iter()
                    .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
                    .cloned()
                    .collect()
            };
            assert_eq!(events(&report.trace), events(&virt.trace));
        }
    }
}
