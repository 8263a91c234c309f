//! Multi-variable agents (§5 future work): "The authors have proposed a
//! few extended versions of the AWC to handle a problem with
//! multi-variables per agent. Perhaps, it is easy to introduce our
//! learning method into these algorithms."
//!
//! This module realizes the reduction the paper invokes ("all
//! distributed CSPs can be converted into this class in principle") in
//! the efficient direction: each physical agent hosts one *virtual* AWC
//! agent per owned variable. Messages between co-located virtual agents
//! are exchanged inside the physical agent's turn — several local rounds
//! per cycle at **zero communication cost** — while messages to
//! variables owned elsewhere travel the network as usual. The virtual
//! agents are ordinary [`AwcAgent`]s, so every learning strategy
//! (resolvent, mcs, size-bounded, none) carries over unchanged.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use discsp_core::{AgentId, Assignment, CoreError, DistributedCsp, VarValue};
use discsp_runtime::{
    AgentStats, Classify, DistributedAgent, Envelope, MessageClass, Outbox, SolveError, SyncRun,
    SyncSimulator,
};
use serde::{Deserialize, Serialize};

use crate::agent::{AwcAgent, AwcConfig};
use crate::msg::AwcMessage;

/// The wire format between physical agents: a virtual-agent envelope.
///
/// Virtual agent ids coincide with variable ids (`AgentId(i) ↔
/// VariableId(i)`), so the inner envelope fully identifies the
/// conversation; the outer envelope routes to the owning physical agent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiAwcMessage(pub Envelope<AwcMessage>);

impl Classify for MultiAwcMessage {
    fn class(&self) -> MessageClass {
        self.0.payload.class()
    }
}

impl fmt::Display for MultiAwcMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.0)
    }
}

/// A physical agent hosting the virtual AWC agents of its variables.
#[derive(Debug)]
pub struct MultiAwcAgent {
    id: AgentId,
    inner: Vec<AwcAgent>,
    /// Virtual agent id → index into `inner`.
    local_index: BTreeMap<AgentId, usize>,
    /// Physical owner of every variable in the problem (dense by
    /// variable index), one table shared by every agent of a build.
    owner_of: Arc<[AgentId]>,
    /// Local message rounds per cycle.
    local_rounds: usize,
    /// Local messages deferred past the round budget.
    carryover: Vec<Envelope<AwcMessage>>,
}

impl MultiAwcAgent {
    /// Creates a physical agent hosting `inner` virtual agents.
    ///
    /// `owner_of[i]` must name the physical owner of variable `i` for
    /// the entire problem; the agents of one problem share the table.
    /// `local_rounds` bounds how many intra-agent message rounds run
    /// inside one cycle (the excess is deferred to the next cycle,
    /// preserving fairness with remote traffic).
    pub fn new(
        id: AgentId,
        inner: Vec<AwcAgent>,
        owner_of: Arc<[AgentId]>,
        local_rounds: usize,
    ) -> Self {
        let local_index = inner
            .iter()
            .enumerate()
            .map(|(i, agent)| (agent.id(), i))
            .collect();
        MultiAwcAgent {
            id,
            inner,
            local_index,
            owner_of,
            local_rounds: local_rounds.max(1),
            carryover: Vec::new(),
        }
    }

    /// Routes one virtual envelope: local targets queue for the next
    /// local round, remote targets are wrapped onto the wire.
    fn route(
        &self,
        env: Envelope<AwcMessage>,
        local_queue: &mut Vec<Envelope<AwcMessage>>,
        out: &mut Outbox<MultiAwcMessage>,
    ) {
        if self.local_index.contains_key(&env.to) {
            local_queue.push(env);
        } else {
            // Virtual ids coincide with variable indices.
            let owner = self.owner_of[env.to.index()];
            out.send(owner, MultiAwcMessage(env));
        }
    }

    /// Runs up to `local_rounds` rounds of intra-agent message exchange
    /// starting from `queue`, deferring any remainder.
    fn run_local_rounds(
        &mut self,
        mut queue: Vec<Envelope<AwcMessage>>,
        out: &mut Outbox<MultiAwcMessage>,
    ) {
        for _ in 0..self.local_rounds {
            if queue.is_empty() {
                break;
            }
            // Partition this round's messages by hosted target.
            let mut per_inner: Vec<Vec<Envelope<AwcMessage>>> = vec![Vec::new(); self.inner.len()];
            for env in queue.drain(..) {
                let idx = self.local_index[&env.to];
                per_inner[idx].push(env);
            }
            let mut next_queue = Vec::new();
            for (idx, batch) in per_inner.into_iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let mut virtual_out = Outbox::new(self.inner[idx].id());
                self.inner[idx].on_batch(batch, &mut virtual_out);
                for env in virtual_out.drain() {
                    self.route(env, &mut next_queue, out);
                }
            }
            queue = next_queue;
        }
        self.carryover = queue;
    }
}

impl DistributedAgent for MultiAwcAgent {
    type Message = MultiAwcMessage;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<MultiAwcMessage>) {
        let mut local_queue = Vec::new();
        for idx in 0..self.inner.len() {
            let mut virtual_out = Outbox::new(self.inner[idx].id());
            self.inner[idx].on_start(&mut virtual_out);
            for env in virtual_out.drain() {
                self.route(env, &mut local_queue, out);
            }
        }
        self.run_local_rounds(local_queue, out);
    }

    fn on_batch(
        &mut self,
        inbox: Vec<Envelope<MultiAwcMessage>>,
        out: &mut Outbox<MultiAwcMessage>,
    ) {
        let mut queue = std::mem::take(&mut self.carryover);
        queue.extend(inbox.into_iter().map(|env| env.payload.0));
        self.run_local_rounds(queue, out);
    }

    fn assignments(&self) -> Vec<VarValue> {
        self.inner.iter().flat_map(|a| a.assignments()).collect()
    }

    fn take_checks(&mut self) -> u64 {
        self.inner.iter_mut().map(|a| a.take_checks()).sum()
    }

    fn stats(&self) -> AgentStats {
        let mut stats = AgentStats::default();
        for agent in &self.inner {
            stats.absorb(agent.stats());
        }
        stats
    }

    fn detected_insoluble(&self) -> bool {
        self.inner.iter().any(|a| a.detected_insoluble())
    }
}

/// Builds and runs multi-variable AWC populations on the synchronous
/// simulator only: the carry-over needs every agent to run every wave,
/// and the other executors activate recipients only.
///
/// # Examples
///
/// ```
/// use discsp_awc::{AwcConfig, MultiAwcSolver};
/// use discsp_core::{AgentId, Assignment, DistributedCsp, Domain, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // One agent owns both variables of a ≠ constraint.
/// let mut b = DistributedCsp::builder();
/// let agent = AgentId::new(0);
/// let x = b.variable_owned_by(Domain::new(2), agent);
/// let y = b.variable_owned_by(Domain::new(2), agent);
/// b.not_equal(x, y)?;
/// let problem = b.build()?;
///
/// let init = Assignment::total([Value::new(0), Value::new(0)]);
/// let run = MultiAwcSolver::new(AwcConfig::resolvent()).solve_sync(&problem, &init)?;
/// assert!(run.outcome.metrics.termination.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiAwcSolver {
    config: AwcConfig,
    local_rounds: usize,
}

impl MultiAwcSolver {
    /// Creates a solver with the given virtual-agent configuration.
    pub fn new(config: AwcConfig) -> Self {
        MultiAwcSolver {
            config,
            local_rounds: 3,
        }
    }

    /// Sets the number of free intra-agent message rounds per cycle
    /// (default 3; at least 1).
    pub fn local_rounds(mut self, rounds: usize) -> Self {
        self.local_rounds = rounds;
        self
    }

    /// Builds one physical agent per problem agent.
    ///
    /// # Errors
    ///
    /// Fails when an initial value is missing or out of domain. Any
    /// variable-to-agent distribution is accepted (including empty
    /// agents).
    pub fn build_agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<MultiAwcAgent>, CoreError> {
        let owner_of: Arc<[AgentId]> = problem.vars().map(|v| problem.owner(v)).collect();
        let mut agents = Vec::with_capacity(problem.num_agents());
        for a in 0..problem.num_agents() {
            let physical = AgentId::new(a as u32);
            let mut inner = Vec::new();
            for var in problem.vars_of_agent(physical) {
                let domain = problem.domain(var);
                let value = init
                    .get(var)
                    .filter(|&v| domain.contains(v))
                    .ok_or(CoreError::BadInitialValue { var })?;
                // Virtual agent id = variable id, globally.
                let virtual_id = AgentId::new(var.raw());
                let neighbors = problem
                    .neighbors(var)
                    .iter()
                    .map(|&v| (v, AgentId::new(v.raw())))
                    .collect();
                let nogoods = problem.nogoods_of(var);
                inner.push(AwcAgent::new(
                    virtual_id,
                    var,
                    domain,
                    value,
                    nogoods,
                    neighbors,
                    self.config,
                ));
            }
            agents.push(MultiAwcAgent::new(
                physical,
                inner,
                Arc::clone(&owner_of),
                self.local_rounds,
            ));
        }
        Ok(agents)
    }

    /// Runs on the synchronous cycle simulator with the paper's settings
    /// (the 10 000-cycle limit, no history, trace or delay).
    ///
    /// Message counts in the returned metrics cover **remote** messages
    /// only — intra-agent exchanges are the free local computation this
    /// execution model exists to exploit.
    ///
    /// # Errors
    ///
    /// See [`MultiAwcSolver::build_agents`].
    pub fn solve_sync(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<SyncRun, SolveError> {
        let agents = self.build_agents(problem, init)?;
        Ok(SyncSimulator::new(agents).run(problem)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::{Domain, Termination, Value};
    use discsp_runtime::Solver;

    /// A 9-node 3-coloring ring distributed over `agents` physical
    /// agents in contiguous blocks (so co-located variables share ring
    /// edges).
    fn ring_problem(agents: u32) -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..9u32)
            .map(|i| {
                let owner = (i * agents / 9).min(agents - 1);
                b.variable_owned_by(Domain::new(3), AgentId::new(owner))
            })
            .collect();
        for i in 0..9 {
            b.not_equal(vars[i], vars[(i + 1) % 9]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn multi_agent_partition_solves() {
        for agents in [1u32, 2, 3, 9] {
            let problem = ring_problem(agents);
            let init = Assignment::total(vec![Value::new(0); 9]);
            let run = MultiAwcSolver::new(AwcConfig::resolvent())
                .solve_sync(&problem, &init)
                .unwrap();
            assert_eq!(
                run.outcome.metrics.termination,
                Termination::Solved,
                "{agents} agents"
            );
            assert!(problem.is_solution(run.outcome.solution.as_ref().unwrap()));
        }
    }

    #[test]
    fn colocated_variables_save_messages() {
        let init = Assignment::total(vec![Value::new(0); 9]);
        // Fully distributed: every message is remote.
        let flat = MultiAwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&ring_problem(9), &init)
            .unwrap();
        // Three agents own three consecutive... (round-robin) variables
        // each: a third of the links become intra-agent.
        let grouped = MultiAwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&ring_problem(3), &init)
            .unwrap();
        // Single agent: everything is local, zero remote messages.
        let central = MultiAwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&ring_problem(1), &init)
            .unwrap();
        assert_eq!(central.outcome.metrics.total_messages(), 0);
        assert!(
            grouped.outcome.metrics.total_messages() < flat.outcome.metrics.total_messages(),
            "grouping must reduce remote traffic ({} vs {})",
            grouped.outcome.metrics.total_messages(),
            flat.outcome.metrics.total_messages()
        );
    }

    #[test]
    fn every_agent_of_a_build_shares_one_owner_table() {
        let problem = ring_problem(3);
        let init = Assignment::total(vec![Value::new(0); 9]);
        let agents = MultiAwcSolver::new(AwcConfig::resolvent())
            .build_agents(&problem, &init)
            .unwrap();
        assert_eq!(agents.len(), 3);
        let first = &agents[0].owner_of;
        assert_eq!(first.len(), 9);
        assert!(agents
            .iter()
            .all(|agent| Arc::ptr_eq(&agent.owner_of, first)));
    }

    #[test]
    fn multi_detects_insolubility() {
        // K4 with 3 colors over 2 agents.
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..4u32)
            .map(|i| b.variable_owned_by(Domain::new(3), AgentId::new(i % 2)))
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.not_equal(vars[i], vars[j]).unwrap();
            }
        }
        let problem = b.build().unwrap();
        let init = Assignment::total(vec![Value::new(0); 4]);
        let agents = MultiAwcSolver::new(AwcConfig::resolvent())
            .build_agents(&problem, &init)
            .unwrap();
        let run = SyncSimulator::new(agents)
            .cycle_limit(5_000)
            .run(&problem)
            .unwrap();
        assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
    }

    #[test]
    fn matches_flat_awc_on_one_var_per_agent() {
        // With one variable per agent and one local round, the multi
        // solver degenerates to the flat AWC: same termination, same
        // solution.
        let problem = ring_problem(9);
        let init = Assignment::total(vec![Value::new(0); 9]);
        let multi = MultiAwcSolver::new(AwcConfig::resolvent())
            .local_rounds(1)
            .solve_sync(&problem, &init)
            .unwrap();
        let flat = crate::solver::AwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&problem, &init)
            .unwrap();
        assert_eq!(
            multi.outcome.metrics.termination,
            flat.outcome.metrics.termination
        );
        assert_eq!(multi.outcome.solution, flat.outcome.solution);
        assert_eq!(multi.outcome.metrics.cycles, flat.outcome.metrics.cycles);
    }

    #[test]
    fn message_wrapper_classifies_like_inner() {
        let inner = Envelope::new(AgentId::new(0), AgentId::new(1), AwcMessage::RequestValue);
        let msg = MultiAwcMessage(inner);
        assert_eq!(msg.class(), MessageClass::Other);
        assert!(msg.to_string().contains("request-value"));
    }

    #[test]
    fn bad_initial_value_rejected() {
        let problem = ring_problem(3);
        let err = MultiAwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&problem, &Assignment::empty(9))
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Problem(CoreError::BadInitialValue { .. })
        ));
    }
}
