//! The AWC agent state machine (§2.2 of the paper).

use std::collections::BTreeSet;

use discsp_core::{
    AgentId, AgentView, Domain, IncrementalEval, Nogood, NogoodIdx, NogoodStore, Priority, Rank,
    Value, VarValue, VariableId,
};
use discsp_runtime::{AgentNote, AgentStats, DistributedAgent, Envelope, Outbox};
use serde::{Deserialize, Serialize};

use crate::learning::{Deadend, Learning};
use crate::msg::AwcMessage;

/// Full configuration of an AWC agent: what it learns and what it (and
/// its peers) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AwcConfig {
    /// The nogood generation strategy.
    pub learning: Learning,
    /// Size-bounded recording (§4.2): a recipient records a received
    /// nogood only when its size is at most this bound. `None` records
    /// everything — the unrestricted `Rslv`.
    pub record_bound: Option<usize>,
    /// When `false`, recipients do not record received nogoods at all —
    /// the `Rslv/norec` mode of the Table 4 redundancy study.
    pub record_received: bool,
    /// Activity-based forgetting: when `Some(n)`, each review starts by
    /// evicting the coldest learned nogoods until at most `n` remain
    /// (initial constraints are never evicted). `None` — the paper's
    /// configurations — never forgets. Defaults to `None`, including
    /// when deserializing configs written before this field existed.
    #[serde(default)]
    pub forget_limit: Option<usize>,
}

impl AwcConfig {
    /// Unrestricted resolvent-based learning (`Rslv`).
    pub fn resolvent() -> Self {
        AwcConfig {
            learning: Learning::Resolvent,
            record_bound: None,
            record_received: true,
            forget_limit: None,
        }
    }

    /// Mcs-based learning (`Mcs`).
    pub fn mcs() -> Self {
        AwcConfig {
            learning: Learning::Mcs,
            ..AwcConfig::resolvent()
        }
    }

    /// No learning (`No`).
    pub fn no_learning() -> Self {
        AwcConfig {
            learning: Learning::None,
            ..AwcConfig::resolvent()
        }
    }

    /// Size-bounded resolvent learning (`kthRslv`): only nogoods of size
    /// ≤ `k` are recorded by recipients.
    pub fn kth_resolvent(k: usize) -> Self {
        AwcConfig {
            record_bound: Some(k),
            ..AwcConfig::resolvent()
        }
    }

    /// Resolvent learning with recording disabled (`Rslv/norec`).
    pub fn resolvent_norec() -> Self {
        AwcConfig {
            record_received: false,
            ..AwcConfig::resolvent()
        }
    }

    /// Whether this configuration retains AWC's completeness guarantee.
    /// The termination proof needs every generated nogood recorded and
    /// kept: bounded recording (`kthRslv`), disabled recording
    /// (`/norec`), mcs minimization's restricted store, no learning, and
    /// forgetting all allow the search to revisit dead ends forever.
    /// Oracles (the fault-schedule explorer) treat a cutoff on a
    /// solvable instance as a bug only when this returns true.
    pub fn is_complete(&self) -> bool {
        self.learning == Learning::Resolvent
            && self.record_bound.is_none()
            && self.record_received
            && self.forget_limit.is_none()
    }

    /// Caps the learned-nogood store at `limit` entries, evicting the
    /// least active learned nogoods at the start of each review.
    pub fn with_forget_limit(self, limit: usize) -> Self {
        AwcConfig {
            forget_limit: Some(limit),
            ..self
        }
    }

    /// The label used in the paper's tables (`Rslv`, `Mcs`, `No`,
    /// `3rdRslv`, `Rslv/norec`, …). Forgetting configurations — which
    /// the paper does not study — append `/f<limit>`.
    pub fn label(&self) -> String {
        let base = match (self.learning, self.record_bound) {
            (Learning::Resolvent, Some(k)) => format!("{}Rslv", ordinal(k)),
            (learning, _) => learning.short_name().to_string(),
        };
        let base = if self.record_received {
            base
        } else {
            format!("{base}/norec")
        };
        match self.forget_limit {
            Some(limit) => format!("{base}/f{limit}"),
            None => base,
        }
    }
}

impl Default for AwcConfig {
    fn default() -> Self {
        AwcConfig::resolvent()
    }
}

fn ordinal(k: usize) -> String {
    let suffix = match (k % 10, k % 100) {
        (1, 11) | (2, 12) | (3, 13) => "th",
        (1, _) => "st",
        (2, _) => "nd",
        (3, _) => "rd",
        _ => "th",
    };
    format!("{k}{suffix}")
}

/// One AWC agent owning a single variable.
///
/// Implements [`DistributedAgent`], so it runs unchanged on the
/// synchronous simulator and the deterministic executors. Construct whole
/// populations with [`crate::AwcSolver`].
#[derive(Debug)]
pub struct AwcAgent {
    id: AgentId,
    var: VariableId,
    domain: Domain,
    value: Value,
    priority: Priority,
    view: AgentView,
    store: NogoodStore,
    /// Incremental violation cache over `store` × `view`. Refreshed at
    /// the top of every review; never meters checks itself (the review
    /// charges what the naive scan would cost).
    eval: IncrementalEval,
    outlinks: BTreeSet<AgentId>,
    config: AwcConfig,
    last_generated: Option<Nogood>,
    generated_before: BTreeSet<Nogood>,
    stats: AgentStats,
    /// Trace notes (learned nogoods) accumulated since the last drain.
    notes: Vec<AgentNote>,
    insoluble: bool,
}

impl AwcAgent {
    /// Creates an agent for `var` with its relevant constraint nogoods
    /// and constraint-graph neighborhood.
    ///
    /// `neighbors` lists the foreign variables sharing a nogood with
    /// `var` together with their owning agents; they form the initial
    /// `ok?` distribution list.
    ///
    /// # Panics
    ///
    /// Panics if `initial_value` is outside `domain`.
    pub fn new(
        id: AgentId,
        var: VariableId,
        domain: Domain,
        initial_value: Value,
        nogoods: Vec<Nogood>,
        neighbors: Vec<(VariableId, AgentId)>,
        config: AwcConfig,
    ) -> Self {
        assert!(
            domain.contains(initial_value),
            "initial value {initial_value} outside domain {domain}"
        );
        let outlinks = neighbors.iter().map(|&(_, agent)| agent).collect();
        AwcAgent {
            id,
            var,
            domain,
            value: initial_value,
            priority: Priority::ZERO,
            view: AgentView::new(),
            store: NogoodStore::with_nogoods(nogoods),
            eval: IncrementalEval::new(var),
            outlinks,
            config,
            last_generated: None,
            generated_before: BTreeSet::new(),
            stats: AgentStats::default(),
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

    /// The variable's current priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The agent's nogood store (constraints plus recorded learned
    /// nogoods).
    pub fn store(&self) -> &NogoodStore {
        &self.store
    }

    /// The agent's current view of other variables.
    pub fn view(&self) -> &AgentView {
        &self.view
    }

    fn send_ok_to_all(&self, out: &mut Outbox<AwcMessage>) {
        for &peer in &self.outlinks {
            out.send(
                peer,
                AwcMessage::Ok {
                    var: self.var,
                    value: self.value,
                    priority: self.priority,
                },
            );
        }
    }

    fn ingest(&mut self, env: Envelope<AwcMessage>, out: &mut Outbox<AwcMessage>) -> bool {
        match env.payload {
            AwcMessage::Ok {
                var,
                value,
                priority,
            } => self.view.update(var, env.from, value, priority),
            AwcMessage::Nogood { nogood, owners } => {
                if nogood.is_empty() {
                    self.insoluble = true;
                    return false;
                }
                let within_bound = self.config.record_bound.is_none_or(|k| nogood.len() <= k);
                if self.config.record_received
                    && within_bound
                    && self.store.insert_learned(nogood.clone())
                {
                    // §2.2: "If the new nogood includes an unknown
                    // variable, the agent has to request the
                    // corresponding agent to send its value."
                    for &(var, owner) in &owners {
                        if var != self.var && !self.view.knows(var) {
                            out.send(owner, AwcMessage::RequestValue);
                        }
                    }
                    return true;
                }
                // An unrecorded (or duplicate) nogood still signals a
                // violation worth re-examining.
                true
            }
            AwcMessage::RequestValue => {
                self.outlinks.insert(env.from);
                out.send(
                    env.from,
                    AwcMessage::Ok {
                        var: self.var,
                        value: self.value,
                        priority: self.priority,
                    },
                );
                false
            }
        }
    }

    /// Ingests one batch of messages, then reviews once if any of them
    /// calls for it.
    fn absorb(
        &mut self,
        inbox: impl IntoIterator<Item = Envelope<AwcMessage>>,
        out: &mut Outbox<AwcMessage>,
    ) {
        let mut need_review = false;
        for env in inbox {
            need_review |= self.ingest(env, out);
        }
        if need_review {
            self.review(out);
        }
    }

    /// The AWC evaluation (§2.2): test higher nogoods, repair by value
    /// change when possible, otherwise learn and raise priority.
    fn review(&mut self, out: &mut Outbox<AwcMessage>) {
        if self.insoluble {
            return;
        }
        // Forget before syncing the cache, so the review evaluates the
        // post-eviction store. Eviction is unmetered: forgetting removes
        // work, it must not charge checks.
        if let Some(limit) = self.config.forget_limit {
            let evicted = self.store.forget(limit);
            if !evicted.is_empty() {
                self.notes.push(AgentNote::NogoodsForgotten {
                    count: evicted.len() as u64,
                });
            }
        }
        // Sync the incremental cache once per review; the store and view
        // are stable for the rest of the evaluation (learning only
        // *reads* the store, and generated nogoods are sent, not
        // self-recorded). The generation fast path makes this free when
        // nothing changed.
        self.eval.refresh_view(&self.store, &self.view);
        let own_rank = Rank::new(self.var, self.priority);

        // Partition the store into higher and lower nogoods. This is
        // priority bookkeeping, not nogood checking, so it is unmetered.
        // `entries` yields stable slot indices, which stay valid across
        // forgetting (unlike positions in an enumeration).
        let mut higher = Vec::new();
        let mut lower = Vec::new();
        for (i, ng) in self.store.entries() {
            if self.view.is_higher_nogood(ng, own_rank) {
                higher.push(i);
            } else {
                lower.push(i);
            }
        }

        // Is the current value consistent with all higher nogoods?
        let current_violated = self.charged_violated_among(&higher, self.value);
        // Violation hits make a nogood hot: forgetting keeps the nogoods
        // that actually prune the current search region.
        for &i in &current_violated {
            self.store.bump_activity(i);
        }
        if current_violated.is_empty() {
            return; // "an agent does nothing"
        }

        // Evaluate every alternative value against the higher nogoods.
        let mut violated_per_value: Vec<Vec<usize>> = vec![Vec::new(); self.domain.size()];
        for d in self.domain.iter() {
            violated_per_value[d.index()] = if d == self.value {
                current_violated.clone()
            } else {
                self.charged_violated_among(&higher, d)
            };
        }

        let consistent: Vec<Value> = self
            .domain
            .iter()
            .filter(|d| violated_per_value[d.index()].is_empty())
            .collect();

        if !consistent.is_empty() {
            // Repairable: min-conflict over *lower* nogoods.
            self.value = self.pick_min_conflict(&consistent, &lower);
            self.send_ok_to_all(out);
            return;
        }

        // Deadend.
        let deadend = Deadend {
            var: self.var,
            domain: self.domain,
            view: &self.view,
            store: &self.store,
            violated_per_value: &violated_per_value,
        };
        let learned = self.config.learning.learn(&deadend);

        if let Some(nogood) = learned {
            self.stats.nogoods_generated += 1;
            self.stats.largest_nogood = self.stats.largest_nogood.max(nogood.len() as u64);
            // Note the generation before the same-as-last dedup below:
            // the trace must explain `nogoods_generated` one-for-one.
            self.notes.push(AgentNote::NogoodLearned {
                size: nogood.len() as u64,
            });
            if !self.generated_before.insert(nogood.clone()) {
                self.stats.redundant_nogoods += 1;
            }
            // §2.2: "If the new nogood is the same as the previously
            // generated nogood, the agent does nothing."
            if self.last_generated.as_ref() == Some(&nogood) {
                return;
            }
            self.last_generated = Some(nogood.clone());
            if nogood.is_empty() {
                self.insoluble = true;
                return;
            }
            // Send to every agent having a variable in the nogood.
            // Learned nogoods only mention view variables, so the
            // filter is vacuous; it keeps this hot path panic-free.
            let owners: Vec<(VariableId, AgentId)> = nogood
                .vars()
                .filter_map(|v| self.view.entry(v).map(|entry| (v, entry.agent)))
                .collect();
            let mut recipients: BTreeSet<AgentId> =
                owners.iter().map(|&(_, agent)| agent).collect();
            recipients.remove(&self.id);
            for agent in recipients {
                out.send(
                    agent,
                    AwcMessage::Nogood {
                        nogood: nogood.clone(),
                        owners: owners.clone(),
                    },
                );
            }
        }

        // Break the deadend: raise priority, min-conflict over ALL
        // nogoods, announce.
        self.raise_priority();
        let all_values: Vec<Value> = self.domain.iter().collect();
        let everything: Vec<NogoodIdx> = self.store.indices().collect();
        self.value = self.pick_min_conflict(&all_values, &everything);
        self.send_ok_to_all(out);
    }

    /// Metered query: which of `indices` are violated with own variable
    /// at `value`?
    ///
    /// Answers from the [`IncrementalEval`] cache (no literal scans),
    /// but charges exactly one check per index — the cost of the naive
    /// scan this replaces. `cycle`/`maxcck` stay bit-identical to the
    /// pre-index implementation (pinned by the golden metric tests).
    fn charged_violated_among(&self, indices: &[NogoodIdx], value: Value) -> Vec<NogoodIdx> {
        self.store.charge_checks(indices.len() as u64);
        self.eval.violated_among(indices, value)
    }

    /// Metered count: how many of `indices` are violated with own
    /// variable at `value`? Charges exactly what
    /// [`AwcAgent::charged_violated_among`] charges.
    fn charged_violation_count(&self, indices: &[NogoodIdx], value: Value) -> usize {
        self.store.charge_checks(indices.len() as u64);
        self.eval.violated_count_among(indices, value)
    }

    /// Picks the candidate value minimizing violations among `indices`
    /// (metered). Ties break toward the cyclically-next value after the
    /// current one, so symmetric neighbors don't oscillate in lockstep.
    fn pick_min_conflict(&self, candidates: &[Value], indices: &[NogoodIdx]) -> Value {
        debug_assert!(!candidates.is_empty());
        let d = self.domain.size();
        let distance = |v: Value| -> usize {
            let delta = (v.index() + d - self.value.index()) % d;
            if delta == 0 {
                d // staying put is the last resort
            } else {
                delta
            }
        };
        candidates
            .iter()
            .copied()
            .map(|v| (self.charged_violation_count(indices, v), distance(v), v))
            .min_by_key(|&(violations, dist, _)| (violations, dist))
            .map(|(_, _, v)| v)
            .unwrap_or(self.value)
    }

    fn raise_priority(&mut self) {
        let pmax = self
            .view
            .iter()
            .map(|(_, e)| e.priority)
            .max()
            .unwrap_or(Priority::ZERO);
        self.priority = pmax.raise_to(self.priority).next();
    }
}

impl DistributedAgent for AwcAgent {
    type Message = AwcMessage;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<AwcMessage>) {
        self.send_ok_to_all(out);
        // Unary (own-variable-only) nogoods are checkable before any
        // message arrives; an isolated agent would otherwise never be
        // activated to repair them.
        self.review(out);
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<AwcMessage>>, out: &mut Outbox<AwcMessage>) {
        self.absorb(inbox, out);
    }

    fn on_inbox(&mut self, inbox: &mut Vec<Envelope<AwcMessage>>, out: &mut Outbox<AwcMessage>) {
        self.absorb(inbox.drain(..), out);
    }

    fn on_nudge(&mut self, out: &mut Outbox<AwcMessage>) {
        // Re-announce the current value and priority. `ok?` ingestion is
        // idempotent (the view is keyed by variable), so this repairs
        // neighbor views staled by lost or reordered messages without
        // perturbing a consistent state.
        self.send_ok_to_all(out);
        // §2.2's "same as the previously generated nogood → do nothing"
        // rule assumes the previous copy is still working through the
        // system. But an agent can re-enter the identical deadend after
        // its neighbors have absorbed that nogood and gone quiet — it
        // then stays silent in a violated state and the whole run
        // stalls, even over perfect links. A recovery pass is exactly
        // the signal that the system went quiet, so the assumption is
        // dead: forget the dedup and re-evaluate. A consistent agent
        // still does nothing (the review returns at "an agent does
        // nothing"); a parked deadend re-sends its nogood, raises its
        // priority, and moves.
        self.last_generated = None;
        self.review(out);
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

    fn detected_insoluble(&self) -> bool {
        self.insoluble
    }

    fn current_priority(&self) -> Option<u64> {
        Some(self.priority.get())
    }

    fn drain_notes(&mut self) -> Vec<AgentNote> {
        std::mem::take(&mut self.notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_labels_match_paper() {
        assert_eq!(AwcConfig::resolvent().label(), "Rslv");
        assert_eq!(AwcConfig::mcs().label(), "Mcs");
        assert_eq!(AwcConfig::no_learning().label(), "No");
        assert_eq!(AwcConfig::kth_resolvent(3).label(), "3rdRslv");
        assert_eq!(AwcConfig::kth_resolvent(4).label(), "4thRslv");
        assert_eq!(AwcConfig::kth_resolvent(5).label(), "5thRslv");
        assert_eq!(AwcConfig::kth_resolvent(11).label(), "11thRslv");
        assert_eq!(AwcConfig::resolvent_norec().label(), "Rslv/norec");
        assert_eq!(
            AwcConfig::resolvent().with_forget_limit(100).label(),
            "Rslv/f100"
        );
        assert_eq!(
            AwcConfig::kth_resolvent(3).with_forget_limit(50).label(),
            "3rdRslv/f50"
        );
        assert_eq!(AwcConfig::default(), AwcConfig::resolvent());
    }

    fn toy_agent(config: AwcConfig) -> AwcAgent {
        AwcAgent::new(
            AgentId::new(0),
            VariableId::new(0),
            Domain::new(2),
            Value::new(0),
            vec![Nogood::of([
                (VariableId::new(0), Value::new(0)),
                (VariableId::new(1), Value::new(0)),
            ])],
            vec![(VariableId::new(1), AgentId::new(1))],
            config,
        )
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_initial_value_rejected() {
        let _ = AwcAgent::new(
            AgentId::new(0),
            VariableId::new(0),
            Domain::new(2),
            Value::new(7),
            vec![],
            vec![],
            AwcConfig::resolvent(),
        );
    }

    #[test]
    fn start_announces_to_neighbors() {
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        agent.on_start(&mut out);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].to, AgentId::new(1));
        assert!(matches!(msgs[0].payload, AwcMessage::Ok { .. }));
    }

    #[test]
    fn consistent_view_triggers_no_action() {
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        // Neighbor holds value 1 at priority 1 (so its nogood is higher
        // for x0): nogood (x0=0, x1=0) is tested but not violated.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Ok {
                    var: VariableId::new(1),
                    value: Value::new(1),
                    priority: Priority::new(1),
                },
            )],
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(agent.value(), Value::new(0));
        // One nogood checked (the higher test of the current value).
        assert_eq!(agent.take_checks(), 1);
    }

    #[test]
    fn violated_higher_nogood_forces_value_change() {
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        // Neighbor (higher by id tie-break: x1 vs x0? x0 is smaller id so
        // x0 outranks x1 at equal priority) — make the neighbor's
        // priority higher explicitly.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Ok {
                    var: VariableId::new(1),
                    value: Value::new(0),
                    priority: Priority::new(1),
                },
            )],
            &mut out,
        );
        assert_eq!(agent.value(), Value::new(1));
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(
            msgs[0].payload,
            AwcMessage::Ok { value, .. } if value == Value::new(1)
        ));
    }

    #[test]
    fn nudge_breaks_repeated_nogood_stall() {
        // Both of x0's values are forbidden while x1 holds 0, so every
        // time x1 outranks x0 the agent lands in a deadend whose
        // resolvent is the same nogood {x1=0}. §2.2's "same as the
        // previously generated nogood → do nothing" rule then leaves the
        // agent silent in a violated state — over perfect links nobody
        // will ever message it again, and the whole run stalls. The
        // stall-recovery nudge must break exactly this state.
        let mut agent = AwcAgent::new(
            AgentId::new(0),
            VariableId::new(0),
            Domain::new(2),
            Value::new(0),
            vec![
                Nogood::of([
                    (VariableId::new(0), Value::new(0)),
                    (VariableId::new(1), Value::new(0)),
                ]),
                Nogood::of([
                    (VariableId::new(0), Value::new(1)),
                    (VariableId::new(1), Value::new(0)),
                ]),
            ],
            vec![(VariableId::new(1), AgentId::new(1))],
            AwcConfig::resolvent(),
        );
        let ok_from_x1 = |priority: u64| {
            Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Ok {
                    var: VariableId::new(1),
                    value: Value::new(0),
                    priority: Priority::new(priority),
                },
            )
        };
        // First deadend: learn and send the nogood, raise priority, move.
        let mut out = Outbox::new(agent.id());
        agent.on_batch(vec![ok_from_x1(5)], &mut out);
        assert!(out
            .drain()
            .iter()
            .any(|e| matches!(e.payload, AwcMessage::Nogood { .. })));
        // x1 outranks us again: the identical deadend regenerates the
        // identical nogood, and the §2.2 rule parks the agent in silence.
        let mut out = Outbox::new(agent.id());
        agent.on_batch(vec![ok_from_x1(10)], &mut out);
        assert!(out.is_empty(), "the repeated-nogood rule must stay silent");
        // The recovery pass re-announces AND re-evaluates: the suppressed
        // nogood goes out again and the agent climbs out of the deadend.
        let mut out = Outbox::new(agent.id());
        agent.on_nudge(&mut out);
        let msgs = out.drain();
        assert!(
            msgs.iter()
                .any(|e| matches!(e.payload, AwcMessage::Nogood { .. })),
            "nudge must re-send the suppressed nogood"
        );
        assert!(msgs
            .iter()
            .any(|e| matches!(e.payload, AwcMessage::Ok { .. })));
    }

    #[test]
    fn equal_priority_tie_breaks_by_variable_id() {
        // x0 (this agent) has the smaller id, so at equal priority it
        // outranks x1: the nogood is NOT higher and the agent stays put.
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Ok {
                    var: VariableId::new(1),
                    value: Value::new(0),
                    priority: Priority::ZERO,
                },
            )],
            &mut out,
        );
        assert_eq!(agent.value(), Value::new(0));
        assert!(out.is_empty());
    }

    #[test]
    fn request_value_adds_outlink_and_replies() {
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(7),
                AgentId::new(0),
                AwcMessage::RequestValue,
            )],
            &mut out,
        );
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].to, AgentId::new(7));
        assert!(matches!(msgs[0].payload, AwcMessage::Ok { .. }));
        // Future announcements now include agent 7.
        let mut out2 = Outbox::new(agent.id());
        agent.on_start(&mut out2);
        assert_eq!(out2.len(), 2);
    }

    #[test]
    fn received_nogood_recorded_and_unknown_vars_requested() {
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        let foreign = VariableId::new(9);
        let ng = Nogood::of([
            (VariableId::new(0), Value::new(0)),
            (foreign, Value::new(1)),
        ]);
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Nogood {
                    nogood: ng.clone(),
                    owners: vec![
                        (VariableId::new(0), AgentId::new(0)),
                        (foreign, AgentId::new(9)),
                    ],
                },
            )],
            &mut out,
        );
        assert!(agent.store().contains(&ng));
        let msgs = out.drain();
        assert!(msgs
            .iter()
            .any(|m| m.to == AgentId::new(9) && matches!(m.payload, AwcMessage::RequestValue)));
    }

    #[test]
    fn norec_mode_does_not_record() {
        let mut agent = toy_agent(AwcConfig::resolvent_norec());
        let mut out = Outbox::new(agent.id());
        let ng = Nogood::of([(VariableId::new(0), Value::new(1))]);
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Nogood {
                    nogood: ng.clone(),
                    owners: vec![(VariableId::new(0), AgentId::new(0))],
                },
            )],
            &mut out,
        );
        assert!(!agent.store().contains(&ng));
    }

    #[test]
    fn size_bound_filters_recording() {
        let mut agent = toy_agent(AwcConfig::kth_resolvent(1));
        let mut out = Outbox::new(agent.id());
        let small = Nogood::of([(VariableId::new(0), Value::new(1))]);
        let big = Nogood::of([
            (VariableId::new(0), Value::new(0)),
            (VariableId::new(2), Value::new(0)),
        ]);
        for ng in [small.clone(), big.clone()] {
            agent.on_batch(
                vec![Envelope::new(
                    AgentId::new(1),
                    AgentId::new(0),
                    AwcMessage::Nogood {
                        nogood: ng,
                        owners: vec![],
                    },
                )],
                &mut out,
            );
        }
        assert!(agent.store().contains(&small));
        assert!(!agent.store().contains(&big));
    }

    #[test]
    fn forget_limit_evicts_learned_nogoods_and_notes_it() {
        let mut agent = toy_agent(AwcConfig::resolvent().with_forget_limit(0));
        let mut out = Outbox::new(agent.id());
        let ng = Nogood::of([(VariableId::new(0), Value::new(1))]);
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Nogood {
                    nogood: ng.clone(),
                    owners: vec![(VariableId::new(0), AgentId::new(0))],
                },
            )],
            &mut out,
        );
        // The review following ingestion forgets the freshly recorded
        // nogood (limit 0); the initial constraint always survives.
        assert!(!agent.store().contains(&ng));
        assert_eq!(agent.store().len(), 1);
        let notes = agent.drain_notes();
        assert!(notes.contains(&AgentNote::NogoodsForgotten { count: 1 }));
    }

    #[test]
    fn empty_nogood_message_flags_insolubility() {
        let mut agent = toy_agent(AwcConfig::resolvent());
        let mut out = Outbox::new(agent.id());
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Nogood {
                    nogood: Nogood::empty(),
                    owners: vec![],
                },
            )],
            &mut out,
        );
        assert!(agent.detected_insoluble());
    }

    #[test]
    fn unary_deadend_derives_empty_nogood() {
        // Both values of x0 prohibited by unary nogoods: first review
        // must derive the empty nogood and flag insolubility.
        let mut agent = AwcAgent::new(
            AgentId::new(0),
            VariableId::new(0),
            Domain::new(2),
            Value::new(0),
            vec![
                Nogood::of([(VariableId::new(0), Value::new(0))]),
                Nogood::of([(VariableId::new(0), Value::new(1))]),
            ],
            vec![(VariableId::new(1), AgentId::new(1))],
            AwcConfig::resolvent(),
        );
        let mut out = Outbox::new(agent.id());
        // Any view change triggers review.
        agent.on_batch(
            vec![Envelope::new(
                AgentId::new(1),
                AgentId::new(0),
                AwcMessage::Ok {
                    var: VariableId::new(1),
                    value: Value::new(0),
                    priority: Priority::ZERO,
                },
            )],
            &mut out,
        );
        assert!(agent.detected_insoluble());
    }
}
