//! The distributed breakout agent state machine (§4.3 of the paper).

use std::collections::BTreeMap;

use discsp_core::{
    AgentId, Domain, IncrementalEval, Nogood, NogoodIdx, NogoodStore, Value, VarValue, VariableId,
};
use discsp_runtime::{AgentStats, DistributedAgent, Envelope, Outbox};
use serde::{Deserialize, Serialize};

use crate::msg::DbaMessage;

/// Where constraint weights live.
///
/// The paper's footnote 7: the original DB assigned a weight "to a pair of
/// variables" for graph coloring, while this paper "assigns it to a
/// nogood" and found the latter better. Both modes are provided so the
/// claim can be ablated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WeightMode {
    /// One weight per nogood (the paper's choice).
    #[default]
    PerNogood,
    /// One weight per foreign-variable group: all nogoods sharing the
    /// same set of non-own variables share a weight (the ICMAS'96
    /// variable-pair scheme generalized to n-ary nogoods).
    PerPair,
}

/// Wave-alternation phase of a DB agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitOk,
    WaitImprove,
}

/// One neighbor variable: the agent's view of it and the value buffered
/// for the next `ok?` wave.
#[derive(Debug, Clone, Copy)]
struct VarSlot {
    var: VariableId,
    view: Option<Value>,
    pending: Option<Value>,
}

/// One neighbor agent and the improve it sent for the next `improve`
/// wave, if it has sent one.
#[derive(Debug, Clone, Copy)]
struct PeerSlot {
    agent: AgentId,
    heard: bool,
    improve: u64,
}

/// One distributed breakout agent owning a single variable.
///
/// DB alternates two synchronized waves: an `ok?` wave announcing values,
/// then an `improve` wave arbitrating which agent in each neighborhood
/// may move (ties break toward the smaller agent id). An agent whose cost
/// is positive while nobody nearby can improve is at a *quasi-local-
/// minimum* and escapes by the breakout strategy: incrementing the weight
/// of each currently violated nogood.
#[derive(Debug)]
pub struct DbaAgent {
    id: AgentId,
    var: VariableId,
    domain: Domain,
    value: Value,
    store: NogoodStore,
    /// Incremental violation cache over `store` × `view`. Synced once per
    /// wave (the view only changes at wave boundaries); never meters
    /// checks itself — [`DbaAgent::eval_value`] charges the naive cost.
    eval: IncrementalEval,
    /// Weight of nogood `i` is `weights[i]`, or
    /// `weights[weight_group[i]]` when nogoods share weights
    /// ([`WeightMode::PerPair`]).
    weights: Vec<u64>,
    weight_group: Option<Vec<usize>>,
    /// The neighbor variables, ascending, each with the view and the
    /// `ok?` buffer. Neighbors are fixed at construction, so the
    /// per-wave state lives in these slots.
    neighbor_vars: Vec<VarSlot>,
    /// The neighbor agents, ascending, each with the `improve` buffer.
    neighbor_agents: Vec<PeerSlot>,
    phase: Phase,
    /// Computed during the `ok?` wave for use in the `improve` wave.
    planned_value: Value,
    my_improve: u64,
    my_eval: u64,
    /// The nogoods violated at the current value, refilled every `ok?`
    /// wave; the breakout raises their weights.
    violated_now: Vec<NogoodIdx>,
    stats: AgentStats,
}

impl DbaAgent {
    /// Creates an agent for `var` with its relevant nogoods and
    /// neighborhood, all weights starting at 1. The nogoods are borrowed
    /// (`problem.nogoods_of(var)`, or `&[Nogood]`); the agent's store
    /// copies their literals.
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
        mode: WeightMode,
    ) -> Self
    where
        I: IntoIterator<Item = &'a Nogood>,
        I::IntoIter: Clone,
    {
        assert!(
            domain.contains(initial_value),
            "initial value {initial_value} outside domain {domain}"
        );
        let store = NogoodStore::with_nogoods(nogoods);
        let (weights, weight_group) = match mode {
            // The store is append-only, so its slots are 0..len: one
            // weight per slot.
            WeightMode::PerNogood => (vec![1; store.len()], None),
            WeightMode::PerPair => {
                let mut group_of: BTreeMap<Vec<VariableId>, usize> = BTreeMap::new();
                let mut groups = Vec::with_capacity(store.len());
                for ng in store.iter() {
                    let key: Vec<VariableId> = ng.vars().filter(|&v| v != var).collect();
                    let next = group_of.len();
                    let g = *group_of.entry(key).or_insert(next);
                    groups.push(g);
                }
                (vec![1; group_of.len()], Some(groups))
            }
        };
        DbaAgent {
            id,
            var,
            domain,
            value: initial_value,
            store,
            eval: IncrementalEval::new(var),
            weights,
            weight_group,
            neighbor_vars: slots(
                neighbors.iter().map(|&(var, _)| VarSlot {
                    var,
                    view: None,
                    pending: None,
                }),
                |slot| slot.var,
            ),
            neighbor_agents: slots(
                neighbors.iter().map(|&(_, agent)| PeerSlot {
                    agent,
                    heard: false,
                    improve: 0,
                }),
                |peer| peer.agent,
            ),
            phase: Phase::WaitOk,
            planned_value: initial_value,
            my_improve: 0,
            my_eval: 0,
            violated_now: Vec::new(),
            stats: AgentStats::default(),
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

    /// The current weight of the nogood at store index `index`.
    pub fn weight_of(&self, index: usize) -> Option<u64> {
        let weight = match &self.weight_group {
            None => index,
            Some(groups) => *groups.get(index)?,
        };
        self.weights.get(weight).copied()
    }

    /// Where in `weights` the weight of nogood `index` lives.
    fn weight_index(&self, index: NogoodIdx) -> usize {
        self.weight_group
            .as_ref()
            .map_or(index, |groups| groups[index])
    }

    /// Re-syncs the incremental cache with the current view. Must run
    /// after every view mutation and before any [`DbaAgent::eval_value`];
    /// work is proportional to the view size plus the nogoods touching
    /// actually-changed variables.
    fn sync_eval(&mut self) {
        let view = self
            .neighbor_vars
            .iter()
            .filter_map(|slot| slot.view.map(|value| (slot.var, value)));
        self.eval.refresh(&self.store, view);
    }

    /// Metered weighted cost of taking `value` under the current view.
    ///
    /// Answers from the [`IncrementalEval`] cache but charges one check
    /// per stored nogood — exactly the cost of the naive full scan this
    /// replaces, keeping `maxcck` bit-identical (pinned by the golden
    /// metric tests).
    fn eval_value(&self, value: Value) -> u64 {
        self.store.charge_checks(self.store.len() as u64);
        self.eval
            .violated_with(value)
            .map(|i| self.weights[self.weight_index(i)])
            .sum()
    }

    /// [`DbaAgent::eval_value`] of the current value, also recording
    /// the violated nogoods in `violated_now`.
    fn eval_current(&mut self) -> u64 {
        self.store.charge_checks(self.store.len() as u64);
        self.violated_now.clear();
        self.violated_now
            .extend(self.eval.violated_with(self.value));
        self.violated_now
            .iter()
            .map(|&i| self.weights[self.weight_index(i)])
            .sum()
    }

    fn send_ok(&self, out: &mut Outbox<DbaMessage>) {
        for peer in &self.neighbor_agents {
            out.send(
                peer.agent,
                DbaMessage::Ok {
                    var: self.var,
                    value: self.value,
                },
            );
        }
    }

    /// Runs the `ok?` wave: absorb neighbor values, compute eval /
    /// improve / planned move, broadcast `improve`.
    fn process_ok_wave(&mut self, out: &mut Outbox<DbaMessage>) {
        for slot in &mut self.neighbor_vars {
            if let Some(value) = slot.pending.take() {
                slot.view = Some(value);
            }
        }
        self.sync_eval();
        let eval = self.eval_current();
        self.my_eval = eval;
        // Best alternative value.
        let mut best_value = self.value;
        let mut best_cost = eval;
        for d in self.domain.iter() {
            if d == self.value {
                continue;
            }
            let cost = self.eval_value(d);
            if cost < best_cost {
                best_cost = cost;
                best_value = d;
            }
        }
        self.planned_value = best_value;
        self.my_improve = eval - best_cost;
        for peer in &self.neighbor_agents {
            out.send(
                peer.agent,
                DbaMessage::Improve {
                    improve: self.my_improve,
                    eval: self.my_eval,
                },
            );
        }
        self.phase = Phase::WaitImprove;
    }

    /// Runs the `improve` wave: arbitrate the right to move, move or
    /// break out, broadcast `ok?`.
    fn process_improve_wave(&mut self, out: &mut Outbox<DbaMessage>) {
        // The right to change: strictly larger improve than every
        // neighbor, ties broken toward the smaller agent id.
        let mine = self.my_improve;
        let wins = mine > 0
            && self
                .neighbor_agents
                .iter()
                .all(|peer| mine > peer.improve || (mine == peer.improve && self.id < peer.agent));
        let nobody_improves =
            mine == 0 && self.neighbor_agents.iter().all(|peer| peer.improve == 0);
        for peer in &mut self.neighbor_agents {
            peer.heard = false;
        }
        if wins {
            self.value = self.planned_value;
        } else if self.my_eval > 0 && nobody_improves {
            // Quasi-local-minimum: breakout — raise the weight of every
            // currently violated nogood.
            for &i in &self.violated_now {
                let weight = self.weight_index(i);
                self.weights[weight] += 1;
            }
        }
        self.send_ok(out);
        self.phase = Phase::WaitOk;
    }

    fn wave_ready(&self) -> bool {
        match self.phase {
            Phase::WaitOk => self.neighbor_vars.iter().all(|slot| slot.pending.is_some()),
            Phase::WaitImprove => self.neighbor_agents.iter().all(|peer| peer.heard),
        }
    }

    /// Takes one batch of messages and runs every wave it completes.
    fn absorb(
        &mut self,
        inbox: impl IntoIterator<Item = Envelope<DbaMessage>>,
        out: &mut Outbox<DbaMessage>,
    ) {
        if self.neighbor_agents.is_empty() {
            // An isolated variable has no waves to run (and already
            // settled at start); without this guard the vacuously-ready
            // wave loop below would spin forever.
            return;
        }
        for env in inbox {
            self.buffer(env);
        }
        // A buffered backlog can complete several waves back to back
        // (possible under link delay and reordering).
        while self.wave_ready() {
            match self.phase {
                Phase::WaitOk => self.process_ok_wave(out),
                Phase::WaitImprove => self.process_improve_wave(out),
            }
        }
    }

    /// Buffers one message for the wave it belongs to. A DB agent only
    /// ever hears from its neighbors; a message from any other agent, or
    /// about any other variable, is ignored.
    fn buffer(&mut self, env: Envelope<DbaMessage>) {
        match env.payload {
            DbaMessage::Ok { var, value } => {
                if let Ok(at) = self
                    .neighbor_vars
                    .binary_search_by_key(&var, |slot| slot.var)
                {
                    if let Some(slot) = self.neighbor_vars.get_mut(at) {
                        slot.pending = Some(value);
                    }
                }
            }
            DbaMessage::Improve { improve, .. } => {
                let from = env.from;
                if let Ok(at) = self
                    .neighbor_agents
                    .binary_search_by_key(&from, |peer| peer.agent)
                {
                    if let Some(peer) = self.neighbor_agents.get_mut(at) {
                        peer.heard = true;
                        peer.improve = improve;
                    }
                }
            }
        }
    }
}

/// The neighbor slots in ascending key order, one per key.
fn slots<T: Copy, K: Ord>(items: impl Iterator<Item = T>, key: impl Fn(&T) -> K) -> Vec<T> {
    let mut slots: Vec<T> = items.collect();
    slots.sort_unstable_by_key(&key);
    slots.dedup_by_key(|slot| key(slot));
    slots
}

impl DistributedAgent for DbaAgent {
    type Message = DbaMessage;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<DbaMessage>) {
        if self.neighbor_agents.is_empty() {
            // Isolated variable: settle its (unary) nogoods immediately —
            // no waves will ever run.
            self.sync_eval();
            let _ = self.eval_value(self.value);
            // Domains are nonempty by construction; the fallback keeps
            // this step function panic-free.
            let best = self
                .domain
                .iter()
                .min_by_key(|&d| self.eval_value(d))
                .unwrap_or(self.value);
            self.value = best;
            return;
        }
        self.send_ok(out);
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<DbaMessage>>, out: &mut Outbox<DbaMessage>) {
        self.absorb(inbox, out);
    }

    fn on_inbox(&mut self, inbox: &mut Vec<Envelope<DbaMessage>>, out: &mut Outbox<DbaMessage>) {
        self.absorb(inbox.drain(..), out);
    }

    fn assignments(&self) -> Vec<VarValue> {
        vec![VarValue::new(self.var, self.value)]
    }

    fn write_assignments(&self, out: &mut Vec<VarValue>) {
        out.push(VarValue::new(self.var, self.value));
    }

    fn take_checks(&mut self) -> u64 {
        self.store.take_checks()
    }

    fn stats(&self) -> AgentStats {
        self.stats
    }

    fn on_nudge(&mut self, out: &mut Outbox<DbaMessage>) {
        if self.neighbor_agents.is_empty() {
            return;
        }
        // Resend the message of the wave this agent last completed — what
        // a stalled neighbor must be waiting for. Wave buffers hold one
        // entry per neighbor, so a peer that already has the message
        // absorbs the copy idempotently.
        match self.phase {
            Phase::WaitOk => self.send_ok(out),
            Phase::WaitImprove => {
                for peer in &self.neighbor_agents {
                    out.send(
                        peer.agent,
                        DbaMessage::Improve {
                            improve: self.my_improve,
                            eval: self.my_eval,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> VariableId {
        VariableId::new(i)
    }
    fn v(i: u16) -> Value {
        Value::new(i)
    }

    fn two_agent_pair(mode: WeightMode) -> DbaAgent {
        DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            &[
                Nogood::of([(x(0), v(0)), (x(1), v(0))]),
                Nogood::of([(x(0), v(1)), (x(1), v(1))]),
            ],
            vec![(x(1), AgentId::new(1))],
            mode,
        )
    }

    #[test]
    fn eval_counts_weighted_violations() {
        let mut agent = two_agent_pair(WeightMode::PerNogood);
        if let Some(slot) = agent.neighbor_vars.iter_mut().find(|slot| slot.var == x(1)) {
            slot.view = Some(v(0));
        }
        agent.sync_eval();
        assert_eq!(agent.eval_value(v(0)), 1);
        assert_eq!(agent.eval_value(v(1)), 0);
        // The current value (x0 = 0) also records what it violates.
        assert_eq!(agent.eval_current(), 1);
        assert_eq!(agent.violated_now, vec![0]);
        // Six checks were metered (two nogoods × three evaluations).
        assert_eq!(agent.store.take_checks(), 6);
    }

    #[test]
    fn ok_wave_computes_improve_and_plans_move() {
        let mut agent = two_agent_pair(WeightMode::PerNogood);
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        assert_eq!(agent.my_eval, 1);
        assert_eq!(agent.my_improve, 1);
        assert_eq!(agent.planned_value, v(1));
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            msgs[0].payload,
            DbaMessage::Improve {
                improve: 1,
                eval: 1
            }
        ));
    }

    #[test]
    fn improve_wave_moves_winner_only() {
        let mut agent = two_agent_pair(WeightMode::PerNogood);
        let mut out = Outbox::new(agent.id());
        // ok? wave: neighbor at 0 → conflict, improve 1.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        // improve wave: neighbor also has improve 1 — tie, smaller id
        // (this agent) wins.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Improve {
                    improve: 1,
                    eval: 1,
                },
            )],
            &mut out,
        );
        assert_eq!(agent.value(), v(1));
    }

    #[test]
    fn improve_tie_loses_to_smaller_neighbor_id() {
        let mut agent = DbaAgent::new(
            AgentId::new(5),
            x(5),
            Domain::new(2),
            v(0),
            &[Nogood::of([(x(5), v(0)), (x(1), v(0))])],
            vec![(x(1), AgentId::new(1))],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(5),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(5),
                DbaMessage::Improve {
                    improve: 1,
                    eval: 1,
                },
            )],
            &mut out,
        );
        // Tie at improve 1 but neighbor id 1 < 5: stay put.
        assert_eq!(agent.value(), v(0));
    }

    #[test]
    fn quasi_local_minimum_triggers_breakout() {
        // Both of this agent's values conflict with the neighbor's fixed
        // state: improve 0, eval > 0 for everyone → weights escalate.
        let mut agent = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            &[
                Nogood::of([(x(0), v(0)), (x(1), v(0))]),
                Nogood::of([(x(0), v(1)), (x(1), v(0))]),
            ],
            vec![(x(1), AgentId::new(1))],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Ok {
                    var: x(1),
                    value: v(0),
                },
            )],
            &mut out,
        );
        assert_eq!(agent.my_improve, 0);
        assert_eq!(agent.weight_of(0), Some(1));
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                DbaMessage::Improve {
                    improve: 0,
                    eval: 1,
                },
            )],
            &mut out,
        );
        // Only the violated nogood's weight rose.
        assert_eq!(agent.weight_of(0), Some(2));
        assert_eq!(agent.weight_of(1), Some(1));
    }

    #[test]
    fn per_pair_mode_groups_by_foreign_vars() {
        let agent = two_agent_pair(WeightMode::PerPair);
        // Both nogoods share the foreign set {x1}: one weight group.
        assert_eq!(agent.weights.len(), 1);
        assert_eq!(agent.weight_group, Some(vec![0, 0]));
    }

    #[test]
    fn isolated_agent_batch_terminates() {
        // Regression: the simulator calls on_batch every cycle even with
        // an empty inbox; a neighborless agent must return immediately
        // instead of spinning in the vacuously-ready wave loop.
        let mut agent = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            vec![],
            vec![],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_batch(vec![], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn isolated_agent_settles_at_start() {
        let mut agent = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(0),
            &[Nogood::of([(x(0), v(0))])],
            vec![],
            WeightMode::PerNogood,
        );
        let mut out = Outbox::new(agent.id());
        agent.on_start(&mut out);
        assert!(out.is_empty());
        assert_eq!(agent.value(), v(1));
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_initial_value_rejected() {
        let _ = DbaAgent::new(
            AgentId::new(0),
            x(0),
            Domain::new(2),
            v(9),
            vec![],
            vec![],
            WeightMode::PerNogood,
        );
    }
}
