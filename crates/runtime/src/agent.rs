//! The agent abstraction shared by every runtime.

use discsp_core::{AgentId, RunMetrics, VarValue};
use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;
use crate::message::{Classify, Envelope, MessageClass};

/// Outbound mailbox handed to an agent while it computes.
///
/// Agents queue messages here; the runtime takes them when the agent's
/// turn ends and delivers them according to its own timing model (next
/// cycle for the synchronous simulator, the link policy's delay on the
/// deterministic executors).
#[derive(Debug)]
pub struct Outbox<M> {
    from: AgentId,
    queued: Vec<Envelope<M>>,
}

impl<M: Classify> Outbox<M> {
    /// Creates an empty outbox for the agent `from`.
    pub fn new(from: AgentId) -> Self {
        Outbox {
            from,
            queued: Vec::new(),
        }
    }

    /// Queues `payload` for delivery to `to`.
    pub fn send(&mut self, to: AgentId, payload: M) {
        self.queued.push(Envelope::new(self.from, to, payload));
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Takes the queued messages, leaving the outbox empty.
    pub fn drain(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.queued)
    }

    /// Readies the outbox for an activation of `from`, keeping its
    /// buffer, so a stepper can reuse one outbox for every activation.
    pub(crate) fn reopen(&mut self, from: AgentId) {
        self.from = from;
        self.queued.clear();
    }

    /// Moves the queued messages out, keeping the buffer for the next
    /// activation.
    pub(crate) fn sent(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.queued.drain(..)
    }

    /// Counts queued messages per class (used by the runtimes' metering).
    pub fn count_by_class(&self) -> (u64, u64, u64) {
        let mut ok = 0;
        let mut nogood = 0;
        let mut other = 0;
        for env in &self.queued {
            match env.payload.class() {
                MessageClass::Ok => ok += 1,
                MessageClass::Nogood => nogood += 1,
                MessageClass::Other => other += 1,
            }
        }
        (ok, nogood, other)
    }
}

/// Per-agent learning and link-fault statistics reported to the runtimes.
///
/// The fault counters are filled in by the runtime that owns the agent's
/// outgoing links (faults are injected sender-side), not by the agent
/// itself; agent implementations leave them zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Nogoods generated at deadends (before any deduplication).
    pub nogoods_generated: u64,
    /// Generated nogoods identical to one this agent generated before
    /// (Table 4's redundancy measure).
    pub redundant_nogoods: u64,
    /// Size of the largest nogood generated.
    pub largest_nogood: u64,
    /// Messages this agent handed to the link layer.
    pub messages_sent: u64,
    /// Outgoing messages dropped by an injected fault.
    pub messages_dropped: u64,
    /// Extra outgoing copies created by an injected duplication fault.
    pub messages_duplicated: u64,
    /// Outgoing messages assigned a delivery tick that overtakes an
    /// earlier message on the same link.
    pub messages_reordered: u64,
    /// Dropped outgoing messages re-enqueued by the recovery pass.
    pub messages_retransmitted: u64,
    /// Largest delivery delay assigned to one of this agent's messages,
    /// in virtual ticks.
    pub max_delivery_delay: u64,
}

impl AgentStats {
    /// Accumulates another agent's statistics into this one.
    pub fn absorb(&mut self, other: AgentStats) {
        self.nogoods_generated += other.nogoods_generated;
        self.redundant_nogoods += other.redundant_nogoods;
        self.largest_nogood = self.largest_nogood.max(other.largest_nogood);
        self.messages_sent += other.messages_sent;
        self.messages_dropped += other.messages_dropped;
        self.messages_duplicated += other.messages_duplicated;
        self.messages_reordered += other.messages_reordered;
        self.messages_retransmitted += other.messages_retransmitted;
        self.max_delivery_delay = self.max_delivery_delay.max(other.max_delivery_delay);
    }

    /// Writes these run totals into the learning and link-fault fields of
    /// `metrics`: the one place a runtime turns statistics into metrics.
    pub fn fold_into(&self, metrics: &mut RunMetrics) {
        metrics.nogoods_generated = self.nogoods_generated;
        metrics.redundant_nogoods = self.redundant_nogoods;
        metrics.largest_nogood = self.largest_nogood;
        metrics.messages_sent = self.messages_sent;
        metrics.messages_dropped = self.messages_dropped;
        metrics.messages_duplicated = self.messages_duplicated;
        metrics.messages_reordered = self.messages_reordered;
        metrics.messages_retransmitted = self.messages_retransmitted;
        metrics.max_delivery_delay = self.max_delivery_delay;
    }
}

/// A noteworthy agent-local event surfaced to the trace pipeline.
///
/// Agents accumulate notes during a step; the runtimes drain them via
/// [`DistributedAgent::drain_notes`] right after each activation and
/// convert them to trace events. Runtimes drain unconditionally (even
/// with tracing off) so the backlog cannot grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentNote {
    /// The agent generated a new nogood of `size` elements.
    NogoodLearned {
        /// Element count of the learned nogood.
        size: u64,
    },
}

/// A message-driven DisCSP agent, executable on every runtime.
///
/// The contract mirrors the paper's synchronous cycle (§4): the runtime
/// hands the agent *all* messages that arrived since its last turn, the
/// agent updates its state and queues outgoing messages. Under link
/// delay and reordering a batch holds whatever came due this tick, which
/// may be a single message or messages sent in different waves.
pub trait DistributedAgent {
    /// The algorithm's message type.
    type Message: Classify + Clone + Send + 'static;

    /// This agent's identity.
    fn id(&self) -> AgentId;

    /// Called once before any message flows; typically announces the
    /// initial value with `ok?` messages.
    fn on_start(&mut self, out: &mut Outbox<Self::Message>);

    /// Called with the messages received since the previous turn.
    fn on_batch(&mut self, inbox: Vec<Envelope<Self::Message>>, out: &mut Outbox<Self::Message>);

    /// [`on_batch`](Self::on_batch) for a caller that keeps the inbox's
    /// buffer: the agent drains `inbox` and leaves it empty, capacity
    /// intact, for the caller to reuse or free. The default hands the
    /// messages to `on_batch` in a fresh `Vec`.
    fn on_inbox(
        &mut self,
        inbox: &mut Vec<Envelope<Self::Message>>,
        out: &mut Outbox<Self::Message>,
    ) {
        self.on_batch(std::mem::take(inbox), out);
    }

    /// The agent's current variable assignments (one entry per owned
    /// variable), used by the observer to detect solutions.
    fn assignments(&self) -> Vec<VarValue>;

    /// Appends what [`assignments`](Self::assignments) returns to `out`,
    /// so a stepper can gather every activation's assignments in one
    /// reused buffer. The default extends `out` from `assignments()`.
    fn write_assignments(&self, out: &mut Vec<VarValue>) {
        out.extend(self.assignments());
    }

    /// Returns and resets the nogood checks performed since the last call
    /// (feeds the `maxcck` metric).
    fn take_checks(&mut self) -> u64;

    /// Current learning statistics (monotonically growing).
    fn stats(&self) -> AgentStats;

    /// Whether this agent has derived the empty nogood, proving the
    /// problem insoluble.
    fn detected_insoluble(&self) -> bool {
        false
    }

    /// Called by a runtime when the system has gone quiet without a
    /// solution: the agent may re-announce its current state (an
    /// idempotent refresh) to repair views staled by lost or reordered
    /// traffic, and re-evaluate any decision it suppressed on the
    /// assumption that earlier messages were still in flight (AWC's
    /// repeated-nogood rule) — after a detected stall that assumption no
    /// longer holds. The default does nothing — protocols that already
    /// tolerate silence need no refresh.
    fn on_nudge(&mut self, out: &mut Outbox<Self::Message>) {
        let _ = out;
    }

    /// The agent's current priority, if the algorithm has one (AWC's
    /// dynamic ordering). Used by the shared step recorder to emit
    /// `PriorityChanged` trace events; `None` disables them.
    fn current_priority(&self) -> Option<u64> {
        None
    }

    /// Takes the notes accumulated since the last call (learned nogoods,
    /// …). The default returns nothing — algorithms without noteworthy
    /// local events need not implement it.
    fn drain_notes(&mut self) -> Vec<AgentNote> {
        Vec::new()
    }
}

/// Fails unless agent *i* reports id *i*, the layout every runtime
/// indexes its population by.
pub(crate) fn check_dense_ids<A: DistributedAgent>(agents: &[A]) -> Result<(), RuntimeError> {
    for (position, agent) in agents.iter().enumerate() {
        if agent.id().index() != position {
            return Err(RuntimeError::NonDenseAgentIds {
                position,
                found: agent.id(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageClass;

    #[derive(Debug, Clone)]
    enum Msg {
        Hello,
        Learned,
    }

    impl Classify for Msg {
        fn class(&self) -> MessageClass {
            match self {
                Msg::Hello => MessageClass::Ok,
                Msg::Learned => MessageClass::Nogood,
            }
        }
    }

    #[test]
    fn outbox_queues_and_drains() {
        let mut out = Outbox::new(AgentId::new(0));
        assert!(out.is_empty());
        out.send(AgentId::new(1), Msg::Hello);
        out.send(AgentId::new(2), Msg::Learned);
        assert_eq!(out.len(), 2);
        assert_eq!(out.count_by_class(), (1, 1, 0));
        let drained = out.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].from, AgentId::new(0));
        assert!(out.is_empty());
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut total = AgentStats::default();
        total.absorb(AgentStats {
            nogoods_generated: 3,
            redundant_nogoods: 1,
            largest_nogood: 4,
            messages_sent: 10,
            messages_dropped: 2,
            max_delivery_delay: 7,
            ..AgentStats::default()
        });
        total.absorb(AgentStats {
            nogoods_generated: 2,
            redundant_nogoods: 0,
            largest_nogood: 2,
            messages_sent: 5,
            messages_duplicated: 1,
            max_delivery_delay: 3,
            ..AgentStats::default()
        });
        assert_eq!(total.nogoods_generated, 5);
        assert_eq!(total.redundant_nogoods, 1);
        assert_eq!(total.largest_nogood, 4);
        assert_eq!(total.messages_sent, 15);
        assert_eq!(total.messages_dropped, 2);
        assert_eq!(total.messages_duplicated, 1);
        assert_eq!(total.max_delivery_delay, 7, "delay absorbs by max");
    }
}
