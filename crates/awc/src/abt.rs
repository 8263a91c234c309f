//! Asynchronous backtracking (ABT) — the AWC's ancestor (Yokoo et al.,
//! ICDCS'92), included as a baseline.
//!
//! ABT fixes the agent ordering up front: agent ids define priority, the
//! smallest id being the highest. Agents announce values to lower-priority
//! linked agents; a deadended agent "uses an agent_view itself as a
//! nogood" (this paper, §1) and sends it to the lowest-priority agent in
//! the nogood. Because the full view is used, ABT's learning is free to
//! compute but weak — the contrast motivating the paper's resolvent
//! method.

use std::collections::BTreeSet;
use std::fmt;

use discsp_core::{
    AgentId, AgentView, Assignment, CoreError, DistributedCsp, Domain, IncrementalEval, Nogood,
    NogoodStore, Priority, Value, VarValue, VariableId,
};
use discsp_runtime::{
    AgentNote, AgentStats, Classify, DistributedAgent, Envelope, MessageClass, Outbox, Solver,
};
use serde::{Deserialize, Serialize};

/// Messages exchanged by ABT agents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbtMessage {
    /// `ok?` — announces the sender's current value.
    Ok {
        /// The announced variable.
        var: VariableId,
        /// Its current value.
        value: Value,
    },
    /// `nogood` — the sender's agent view, sent to the lowest-priority
    /// agent appearing in it.
    Nogood {
        /// The nogood (the sender's view at the deadend).
        nogood: Nogood,
        /// Owner of each variable in the nogood.
        owners: Vec<(VariableId, AgentId)>,
    },
    /// Asks the recipient to start announcing its value to the sender
    /// (new link discovered through a received nogood).
    AddLink,
}

impl Classify for AbtMessage {
    fn class(&self) -> MessageClass {
        match self {
            AbtMessage::Ok { .. } => MessageClass::Ok,
            AbtMessage::Nogood { .. } => MessageClass::Nogood,
            AbtMessage::AddLink => MessageClass::Other,
        }
    }
}

impl fmt::Display for AbtMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbtMessage::Ok { var, value } => write!(f, "ok?({var}={value})"),
            AbtMessage::Nogood { nogood, .. } => write!(f, "nogood({nogood})"),
            AbtMessage::AddLink => write!(f, "add-link"),
        }
    }
}

/// One ABT agent owning a single variable.
///
/// Priorities are static: variable ids order the agents, the smallest id
/// ranking highest (encoded by [`Priority::ZERO`] everywhere and the
/// id tie-break of [`Rank`]).
#[derive(Debug)]
pub struct AbtAgent {
    id: AgentId,
    var: VariableId,
    domain: Domain,
    value: Value,
    view: AgentView,
    store: NogoodStore,
    /// Incremental violation and higher/lower cache over `store` ×
    /// `view`, refreshed at the top of every check; never meters checks
    /// itself.
    eval: IncrementalEval,
    /// View variables whose entry changed since the last refresh of
    /// `eval`.
    changed: Vec<VariableId>,
    /// Lower-priority agents that receive this agent's `ok?` messages.
    lower_links: BTreeSet<AgentId>,
    stats: AgentStats,
    generated_before: BTreeSet<Nogood>,
    /// Trace notes (learned nogoods) accumulated since the last drain.
    notes: Vec<AgentNote>,
    insoluble: bool,
}

impl AbtAgent {
    /// Creates an agent for `var`.
    ///
    /// The nogoods are borrowed (`problem.nogoods_of(var)`, or
    /// `&[Nogood]`); the agent's store copies their literals. `neighbors`
    /// lists all constraint-graph neighbors with their owners; only the
    /// lower-priority ones (larger variable id) receive announcements.
    ///
    /// # Panics
    ///
    /// Panics if `initial_value` is outside `domain`.
    pub fn new<'a, I>(
        id: AgentId,
        var: VariableId,
        domain: Domain,
        initial_value: Value,
        nogoods: I,
        neighbors: Vec<(VariableId, AgentId)>,
    ) -> Self
    where
        I: IntoIterator<Item = &'a Nogood>,
        I::IntoIter: Clone,
    {
        assert!(
            domain.contains(initial_value),
            "initial value {initial_value} outside domain {domain}"
        );
        let lower_links = neighbors
            .iter()
            .filter(|&&(v, _)| v > var)
            .map(|&(_, agent)| agent)
            .collect();
        AbtAgent {
            id,
            var,
            domain,
            value: initial_value,
            view: AgentView::new(),
            store: NogoodStore::with_nogoods(nogoods),
            eval: IncrementalEval::new(var),
            changed: Vec::new(),
            lower_links,
            stats: AgentStats::default(),
            generated_before: BTreeSet::new(),
            notes: Vec::new(),
            insoluble: false,
        }
    }

    /// The variable this agent owns.
    pub fn var(&self) -> VariableId {
        self.var
    }

    /// The variable's current value.
    pub fn value(&self) -> Value {
        self.value
    }

    /// The agent's nogood store.
    pub fn store(&self) -> &NogoodStore {
        &self.store
    }

    fn announce(&self, out: &mut Outbox<AbtMessage>) {
        for &peer in &self.lower_links {
            out.send(
                peer,
                AbtMessage::Ok {
                    var: self.var,
                    value: self.value,
                },
            );
        }
    }

    /// Metered: is `value` consistent with every *higher* nogood under
    /// the current view? Charges one check per higher nogood, as the
    /// full scan of the relevant set would, whatever the answer.
    fn is_consistent(&self, value: Value) -> bool {
        self.store.charge_checks(self.eval.higher_len() as u64);
        self.eval.violated_higher(value).next().is_none()
    }

    fn check_agent_view(&mut self, out: &mut Outbox<AbtMessage>) {
        if self.insoluble {
            return;
        }
        // ABT's priorities are static: every rank is the variable id at
        // priority zero, the owner's included.
        self.eval
            .refresh_changed(&self.store, &self.view, Priority::ZERO, &self.changed);
        self.changed.clear();
        if self.is_consistent(self.value) {
            return;
        }
        // Chronological search for any consistent value.
        let replacement = self.domain.iter().find(|&d| self.is_consistent(d));
        match replacement {
            Some(d) => {
                self.value = d;
                self.announce(out);
            }
            None => self.backtrack(out),
        }
    }

    fn backtrack(&mut self, out: &mut Outbox<AbtMessage>) {
        // The agent view itself is the nogood.
        let nogood: Nogood = self
            .view
            .iter()
            .map(|(var, e)| VarValue::new(var, e.value))
            .collect();
        self.stats.nogoods_generated += 1;
        self.stats.largest_nogood = self.stats.largest_nogood.max(nogood.len() as u64);
        self.notes.push(AgentNote::NogoodLearned {
            size: nogood.len() as u64,
        });
        if !self.generated_before.insert(nogood.clone()) {
            self.stats.redundant_nogoods += 1;
        }
        if nogood.is_empty() {
            self.insoluble = true;
            return;
        }
        // Send to the lowest-priority agent in the nogood (largest id).
        // The nogood IS the agent view, so every variable resolves; the
        // let-else fallbacks keep this hot path panic-free.
        let Some(lowest_var) = nogood.vars().max() else {
            return; // empty nogood already handled above
        };
        let Some(target) = self.view.entry(lowest_var).map(|e| e.agent) else {
            return;
        };
        let owners: Vec<(VariableId, AgentId)> = nogood
            .vars()
            .filter_map(|v| self.view.entry(v).map(|e| (v, e.agent)))
            .collect();
        out.send(target, AbtMessage::Nogood { nogood, owners });
        // Assume the recipient changes: forget its value and re-check.
        if self.view.remove(lowest_var).is_some() {
            self.changed.push(lowest_var);
        }
        self.check_agent_view(out);
    }
}

impl DistributedAgent for AbtAgent {
    type Message = AbtMessage;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<AbtMessage>) {
        self.announce(out);
        // Repair unary prohibitions immediately; an isolated agent never
        // receives the messages that would otherwise trigger the check.
        self.check_agent_view(out);
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<AbtMessage>>, out: &mut Outbox<AbtMessage>) {
        let mut need_check = false;
        for env in inbox {
            match env.payload {
                AbtMessage::Ok { var, value } => {
                    // ABT's priorities are static: store at ZERO so the
                    // Rank id-order gives smaller ids higher priority.
                    if self.view.update(var, env.from, value, Priority::ZERO) {
                        self.changed.push(var);
                        need_check = true;
                    }
                }
                AbtMessage::Nogood { nogood, owners } => {
                    if nogood.is_empty() {
                        self.insoluble = true;
                        continue;
                    }
                    if self.store.insert(&nogood) {
                        for &(var, owner) in &owners {
                            if var != self.var && !self.view.knows(var) {
                                out.send(owner, AbtMessage::AddLink);
                            }
                        }
                    }
                    // The sender dropped this agent's value from its view
                    // when it backtracked; re-announce so it re-learns the
                    // current value even when this agent does not move
                    // (the "obsolete nogood" reply of Yokoo's ABT).
                    out.send(
                        env.from,
                        AbtMessage::Ok {
                            var: self.var,
                            value: self.value,
                        },
                    );
                    need_check = true;
                }
                AbtMessage::AddLink => {
                    self.lower_links.insert(env.from);
                    out.send(
                        env.from,
                        AbtMessage::Ok {
                            var: self.var,
                            value: self.value,
                        },
                    );
                }
            }
        }
        if need_check {
            self.check_agent_view(out);
        }
    }

    fn assignments(&self) -> Vec<VarValue> {
        vec![VarValue::new(self.var, self.value)]
    }

    fn take_checks(&mut self) -> u64 {
        self.store.take_checks()
    }

    fn stats(&self) -> AgentStats {
        self.stats
    }

    fn detected_insoluble(&self) -> bool {
        self.insoluble
    }

    fn drain_notes(&mut self) -> Vec<AgentNote> {
        std::mem::take(&mut self.notes)
    }
}

/// Builds ABT agent populations; runs them through [`Solver`].
#[derive(Debug, Clone, Default)]
pub struct AbtSolver;

impl AbtSolver {
    /// Creates a solver.
    pub fn new() -> Self {
        AbtSolver
    }

    /// Builds the ABT agent population for `problem` from `init`.
    ///
    /// # Errors
    ///
    /// See [`DistributedCsp::seat`].
    pub fn build_agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<AbtAgent>, CoreError> {
        problem.seat(init, |agent, var, domain, value, neighbors| {
            AbtAgent::new(
                agent,
                var,
                domain,
                value,
                problem.nogoods_of(var),
                neighbors,
            )
        })
    }
}

impl Solver for AbtSolver {
    type Agent = AbtAgent;

    fn agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<AbtAgent>, CoreError> {
        self.build_agents(problem, init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Termination;
    use discsp_runtime::SyncSimulator;

    fn triangle() -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let x = b.variable(Domain::new(3));
        let y = b.variable(Domain::new(3));
        let z = b.variable(Domain::new(3));
        b.not_equal(x, y).unwrap();
        b.not_equal(y, z).unwrap();
        b.not_equal(x, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn message_classification() {
        assert_eq!(
            AbtMessage::Ok {
                var: VariableId::new(0),
                value: Value::new(0)
            }
            .class(),
            MessageClass::Ok
        );
        assert_eq!(AbtMessage::AddLink.class(), MessageClass::Other);
    }

    #[test]
    fn abt_solves_triangle() {
        let problem = triangle();
        let init = Assignment::total([Value::new(0); 3]);
        let run = AbtSolver::new().solve_sync(&problem, &init).unwrap();
        assert_eq!(run.outcome.metrics.termination, Termination::Solved);
        assert!(problem.is_solution(run.outcome.solution.as_ref().unwrap()));
    }

    #[test]
    fn abt_detects_k4_insoluble() {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.not_equal(vars[i], vars[j]).unwrap();
            }
        }
        let problem = b.build().unwrap();
        let init = Assignment::total([Value::new(0); 4]);
        let agents = AbtSolver::new().build_agents(&problem, &init).unwrap();
        let run = SyncSimulator::new(agents)
            .cycle_limit(5_000)
            .run(&problem)
            .unwrap();
        assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
    }

    #[test]
    fn lower_links_only_include_larger_ids() {
        let agent = AbtAgent::new(
            AgentId::new(1),
            VariableId::new(1),
            Domain::new(3),
            Value::new(0),
            vec![],
            vec![
                (VariableId::new(0), AgentId::new(0)),
                (VariableId::new(2), AgentId::new(2)),
            ],
        );
        let mut out = Outbox::new(agent.id());
        agent.announce(&mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].to, AgentId::new(2));
    }

    #[test]
    fn display_forms() {
        let m = AbtMessage::Ok {
            var: VariableId::new(1),
            value: Value::new(2),
        };
        assert_eq!(m.to_string(), "ok?(x1=2)");
        assert_eq!(AbtMessage::AddLink.to_string(), "add-link");
    }
}
