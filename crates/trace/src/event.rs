//! The unified trace event schema emitted by every runtime.
//!
//! Events cover the full run lifecycle: agent activations with their
//! check counts, the three message phases (sent / fault-injected /
//! delivered), observable state changes (value, priority, learned
//! nogoods), wave barriers, and a single terminal [`TraceEvent::RunEnd`]
//! carrying the runtime-reported [`RunMetrics`] so a trace is
//! self-auditing (see [`crate::audit`]).

use std::fmt;

use discsp_core::{AgentId, MessageClass, RunMetrics, Value, VariableId};
use serde::{Deserialize, Serialize};

/// What an injected link fault did to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The message was dropped (and parked for later retransmission).
    Dropped,
    /// An extra copy of the message was enqueued.
    Duplicated,
    /// The message was assigned a delivery tick that overtakes an
    /// earlier message on the same link.
    Reordered,
    /// The message was delayed by this many virtual ticks.
    Delayed(u64),
    /// A previously dropped message was re-enqueued by the recovery pass.
    Retransmitted,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Dropped => f.write_str("dropped"),
            FaultKind::Duplicated => f.write_str("duplicated"),
            FaultKind::Reordered => f.write_str("reordered"),
            FaultKind::Delayed(ticks) => write!(f, "delayed +{ticks}"),
            FaultKind::Retransmitted => f.write_str("retransmitted"),
        }
    }
}

/// Which executor produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeKind {
    /// The synchronous cycle simulator (`SyncSimulator`).
    Sync,
    /// The deterministic discrete-event executor (`run_virtual`).
    Virtual,
    /// The multi-process TCP coordinator (`discsp-net`).
    Net,
    /// The multi-session solve service (`discsp-service`), which drives
    /// many session state machines over one scheduler.
    Service,
    /// The M:N sharded event-loop executor (`run_sharded`), which runs
    /// the virtual-time semantics with worker threads owning per-shard
    /// agent arenas.
    Sharded,
}

impl RuntimeKind {
    /// The stable lower-case name used on the JSONL wire.
    pub fn name(&self) -> &'static str {
        match self {
            RuntimeKind::Sync => "sync",
            RuntimeKind::Virtual => "virtual",
            RuntimeKind::Net => "net",
            RuntimeKind::Service => "service",
            RuntimeKind::Sharded => "sharded",
        }
    }
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observable event during a run.
///
/// `cycle` is the synchronous cycle number on the cycle simulator and
/// the virtual tick everywhere else; the threaded runtime stamps events
/// with the observer-advanced tick, which orders events only coarsely.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// An agent activated (processed a batch, a start, or a nudge) and
    /// charged `checks` nogood checks for the step.
    AgentStep {
        /// Cycle / virtual tick of the activation.
        cycle: u64,
        /// The agent that stepped.
        agent: AgentId,
        /// Nogood checks charged for this step.
        checks: u64,
    },
    /// A message was handed to the link layer.
    Sent {
        /// Cycle / tick of the send.
        cycle: u64,
        /// Sending agent.
        from: AgentId,
        /// Receiving agent.
        to: AgentId,
        /// Message class.
        class: MessageClass,
    },
    /// A message was delivered at the start of a cycle.
    Delivered {
        /// Delivery cycle.
        cycle: u64,
        /// Sending agent.
        from: AgentId,
        /// Receiving agent.
        to: AgentId,
        /// Message class.
        class: MessageClass,
    },
    /// The link layer injected a fault into a message (recorded by the
    /// deterministic faulty-link runtime; `cycle` is the virtual tick at
    /// which the sender emitted the message).
    Fault {
        /// Virtual tick of the send.
        cycle: u64,
        /// Sending agent.
        from: AgentId,
        /// Intended receiving agent.
        to: AgentId,
        /// Message class.
        class: MessageClass,
        /// What the fault did.
        kind: FaultKind,
    },
    /// A variable's announced value changed during a cycle.
    ValueChanged {
        /// The cycle in which the change became visible.
        cycle: u64,
        /// The variable.
        var: VariableId,
        /// The previous value (`None` on the first observation).
        old: Option<Value>,
        /// The new value.
        new: Value,
    },
    /// An agent's AWC priority changed.
    PriorityChanged {
        /// The cycle in which the change became visible.
        cycle: u64,
        /// The agent whose priority rose.
        agent: AgentId,
        /// The new priority.
        priority: u64,
    },
    /// An agent generated a new nogood of `size` elements.
    NogoodLearned {
        /// Cycle / tick of the learning step.
        cycle: u64,
        /// The learning agent.
        agent: AgentId,
        /// Element count of the learned nogood.
        size: u64,
    },
    /// An agent evicted `count` learned nogoods from its store during a
    /// forgetting pass (activity-based; initial constraints are never
    /// evicted). Forgetting changes no metric the paper measures, so the
    /// auditor tallies these events informationally only.
    NogoodForgotten {
        /// Cycle / tick of the forgetting pass.
        cycle: u64,
        /// The forgetting agent.
        agent: AgentId,
        /// How many learned nogoods were evicted.
        count: u64,
    },
    /// A synchronization barrier: every agent activation since the
    /// previous barrier belonged to one concurrent wave. `maxcck` is the
    /// sum over barriers of the maximum [`TraceEvent::AgentStep`] check
    /// count inside each wave. The threaded runtime has no barriers (its
    /// `maxcck` is 0 by definition).
    CycleBarrier {
        /// Cycle / tick the wave completed at.
        cycle: u64,
    },
    /// Terminal event: the runtime's own accounting, recorded so the
    /// trace can be audited against it without side-channel data.
    RunEnd {
        /// Final cycle / tick (equals `metrics.cycles`).
        cycle: u64,
        /// Which executor produced the trace.
        runtime: RuntimeKind,
        /// Messages still queued in the link layer at termination.
        in_flight: u64,
        /// The metrics the runtime reported for this run.
        metrics: RunMetrics,
    },
}

impl TraceEvent {
    /// The cycle this event belongs to.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::AgentStep { cycle, .. }
            | TraceEvent::Sent { cycle, .. }
            | TraceEvent::Delivered { cycle, .. }
            | TraceEvent::Fault { cycle, .. }
            | TraceEvent::ValueChanged { cycle, .. }
            | TraceEvent::PriorityChanged { cycle, .. }
            | TraceEvent::NogoodLearned { cycle, .. }
            | TraceEvent::NogoodForgotten { cycle, .. }
            | TraceEvent::CycleBarrier { cycle }
            | TraceEvent::RunEnd { cycle, .. } => *cycle,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::AgentStep {
                cycle,
                agent,
                checks,
            } => write!(f, "[{cycle:>4}] {agent} steps ({checks} checks)"),
            TraceEvent::Sent {
                cycle,
                from,
                to,
                class,
            } => write!(f, "[{cycle:>4}] {from} ⇢ {to}  ({class})"),
            TraceEvent::Delivered {
                cycle,
                from,
                to,
                class,
            } => write!(f, "[{cycle:>4}] {from} → {to}  ({class})"),
            TraceEvent::Fault {
                cycle,
                from,
                to,
                class,
                kind,
            } => write!(f, "[{cycle:>4}] {from} ⇏ {to}  ({class}) {kind}"),
            TraceEvent::ValueChanged {
                cycle,
                var,
                old,
                new,
            } => match old {
                Some(old) => write!(f, "[{cycle:>4}] {var}: {old} ⇒ {new}"),
                None => write!(f, "[{cycle:>4}] {var}: ⇒ {new}"),
            },
            TraceEvent::PriorityChanged {
                cycle,
                agent,
                priority,
            } => write!(f, "[{cycle:>4}] {agent} priority ← {priority}"),
            TraceEvent::NogoodLearned { cycle, agent, size } => {
                write!(f, "[{cycle:>4}] {agent} learned nogood (size {size})")
            }
            TraceEvent::NogoodForgotten {
                cycle,
                agent,
                count,
            } => {
                write!(f, "[{cycle:>4}] {agent} forgot {count} nogoods")
            }
            TraceEvent::CycleBarrier { cycle } => write!(f, "[{cycle:>4}] ─ barrier ─"),
            TraceEvent::RunEnd {
                cycle,
                runtime,
                in_flight,
                metrics,
            } => write!(
                f,
                "[{cycle:>4}] run end: {} on {runtime} ({in_flight} in flight)",
                metrics.termination
            ),
        }
    }
}

fn class_rank(class: MessageClass) -> u64 {
    match class {
        MessageClass::Ok => 0,
        MessageClass::Nogood => 1,
        MessageClass::Other => 2,
    }
}

fn fault_rank(kind: FaultKind) -> u64 {
    match kind {
        FaultKind::Dropped => 0,
        FaultKind::Duplicated => 1,
        FaultKind::Reordered => 2,
        FaultKind::Delayed(ticks) => 3 + ticks,
        FaultKind::Retransmitted => u64::MAX,
    }
}

fn sort_key(event: &TraceEvent) -> (u64, u8, u64, u64, u64, u64) {
    match event {
        TraceEvent::Delivered {
            cycle,
            from,
            to,
            class,
        } => (
            *cycle,
            0,
            u64::from(from.raw()),
            u64::from(to.raw()),
            class_rank(*class),
            0,
        ),
        TraceEvent::AgentStep {
            cycle,
            agent,
            checks,
        } => (*cycle, 1, u64::from(agent.raw()), *checks, 0, 0),
        TraceEvent::ValueChanged {
            cycle,
            var,
            old,
            new,
        } => (
            *cycle,
            2,
            u64::from(var.raw()),
            old.map_or(0, |v| u64::from(v.raw()) + 1),
            u64::from(new.raw()),
            0,
        ),
        TraceEvent::PriorityChanged {
            cycle,
            agent,
            priority,
        } => (*cycle, 3, u64::from(agent.raw()), *priority, 0, 0),
        TraceEvent::NogoodLearned { cycle, agent, size } => {
            (*cycle, 4, u64::from(agent.raw()), *size, 0, 0)
        }
        TraceEvent::NogoodForgotten {
            cycle,
            agent,
            count,
        } => (*cycle, 5, u64::from(agent.raw()), *count, 0, 0),
        TraceEvent::Sent {
            cycle,
            from,
            to,
            class,
        } => (
            *cycle,
            6,
            u64::from(from.raw()),
            u64::from(to.raw()),
            class_rank(*class),
            0,
        ),
        TraceEvent::Fault {
            cycle,
            from,
            to,
            class,
            kind,
        } => (
            *cycle,
            7,
            u64::from(from.raw()),
            u64::from(to.raw()),
            class_rank(*class),
            fault_rank(*kind),
        ),
        TraceEvent::CycleBarrier { cycle } => (*cycle, 8, 0, 0, 0, 0),
        TraceEvent::RunEnd { cycle, .. } => (*cycle, 9, 0, 0, 0, 0),
    }
}

/// Sorts a trace into the canonical order: by cycle, then by a fixed
/// event-kind rank (deliveries → steps → state changes → forgets →
/// sends → faults → barrier → run end), then by the event's own fields.
///
/// Two traces of the same run taken by executors with different
/// interleaving freedom (e.g. the virtual and net runtimes) compare
/// equal after canonical sorting iff they contain the same event
/// multiset. The sort is stable, so duplicate events keep their
/// relative order.
pub fn canonical_sort(events: &mut [TraceEvent]) {
    events.sort_by_key(sort_key);
}

/// Renders a trace grouped by cycle, with a compact one-line-per-event
/// body.
pub fn render_trace(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut last_cycle = None;
    for event in events {
        if last_cycle != Some(event.cycle()) {
            if last_cycle.is_some() {
                out.push('\n');
            }
            let _ = writeln!(out, "— cycle {} —", event.cycle());
            last_cycle = Some(event.cycle());
        }
        let _ = writeln!(out, "{event}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::{RunMetrics, Termination};

    #[test]
    fn events_know_their_cycle() {
        let delivered = TraceEvent::Delivered {
            cycle: 3,
            from: AgentId::new(0),
            to: AgentId::new(1),
            class: MessageClass::Ok,
        };
        assert_eq!(delivered.cycle(), 3);
        let changed = TraceEvent::ValueChanged {
            cycle: 4,
            var: VariableId::new(2),
            old: Some(Value::new(0)),
            new: Value::new(1),
        };
        assert_eq!(changed.cycle(), 4);
        let end = TraceEvent::RunEnd {
            cycle: 9,
            runtime: RuntimeKind::Virtual,
            in_flight: 0,
            metrics: RunMetrics::new(Termination::Solved),
        };
        assert_eq!(end.cycle(), 9);
    }

    #[test]
    fn display_forms() {
        let delivered = TraceEvent::Delivered {
            cycle: 12,
            from: AgentId::new(0),
            to: AgentId::new(1),
            class: MessageClass::Nogood,
        };
        assert_eq!(delivered.to_string(), "[  12] a0 → a1  (nogood)");
        let first = TraceEvent::ValueChanged {
            cycle: 1,
            var: VariableId::new(5),
            old: None,
            new: Value::new(2),
        };
        assert_eq!(first.to_string(), "[   1] x5: ⇒ 2");
        let fault = TraceEvent::Fault {
            cycle: 7,
            from: AgentId::new(2),
            to: AgentId::new(3),
            class: MessageClass::Ok,
            kind: FaultKind::Delayed(4),
        };
        assert_eq!(fault.to_string(), "[   7] a2 ⇏ a3  (ok?) delayed +4");
        assert_eq!(fault.cycle(), 7);
        assert_eq!(FaultKind::Dropped.to_string(), "dropped");
        assert_eq!(FaultKind::Retransmitted.to_string(), "retransmitted");
        let step = TraceEvent::AgentStep {
            cycle: 2,
            agent: AgentId::new(4),
            checks: 17,
        };
        assert_eq!(step.to_string(), "[   2] a4 steps (17 checks)");
        let learned = TraceEvent::NogoodLearned {
            cycle: 3,
            agent: AgentId::new(1),
            size: 2,
        };
        assert_eq!(learned.to_string(), "[   3] a1 learned nogood (size 2)");
        let forgotten = TraceEvent::NogoodForgotten {
            cycle: 5,
            agent: AgentId::new(2),
            count: 7,
        };
        assert_eq!(forgotten.to_string(), "[   5] a2 forgot 7 nogoods");
        assert_eq!(forgotten.cycle(), 5);
    }

    #[test]
    fn runtime_kinds_have_stable_names() {
        assert_eq!(RuntimeKind::Sync.to_string(), "sync");
        assert_eq!(RuntimeKind::Virtual.to_string(), "virtual");
        assert_eq!(RuntimeKind::Net.to_string(), "net");
        assert_eq!(RuntimeKind::Service.to_string(), "service");
    }

    #[test]
    fn rendering_groups_by_cycle() {
        let events = vec![
            TraceEvent::ValueChanged {
                cycle: 1,
                var: VariableId::new(0),
                old: None,
                new: Value::new(0),
            },
            TraceEvent::Delivered {
                cycle: 2,
                from: AgentId::new(0),
                to: AgentId::new(1),
                class: MessageClass::Ok,
            },
            TraceEvent::ValueChanged {
                cycle: 2,
                var: VariableId::new(1),
                old: Some(Value::new(0)),
                new: Value::new(1),
            },
        ];
        let text = render_trace(&events);
        assert!(text.contains("— cycle 1 —"));
        assert!(text.contains("— cycle 2 —"));
        assert_eq!(text.matches("— cycle").count(), 2);
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert!(render_trace(&[]).is_empty());
    }

    #[test]
    fn canonical_sort_orders_by_cycle_then_kind() {
        let step = TraceEvent::AgentStep {
            cycle: 1,
            agent: AgentId::new(0),
            checks: 0,
        };
        let delivered = TraceEvent::Delivered {
            cycle: 1,
            from: AgentId::new(1),
            to: AgentId::new(0),
            class: MessageClass::Ok,
        };
        let barrier = TraceEvent::CycleBarrier { cycle: 0 };
        let mut events = vec![step.clone(), delivered.clone(), barrier.clone()];
        canonical_sort(&mut events);
        assert_eq!(events, vec![barrier, delivered, step]);
    }

    #[test]
    fn canonical_sort_is_interleaving_independent() {
        let mut a = vec![
            TraceEvent::Sent {
                cycle: 2,
                from: AgentId::new(0),
                to: AgentId::new(1),
                class: MessageClass::Ok,
            },
            TraceEvent::AgentStep {
                cycle: 2,
                agent: AgentId::new(1),
                checks: 3,
            },
            TraceEvent::AgentStep {
                cycle: 2,
                agent: AgentId::new(0),
                checks: 5,
            },
        ];
        let mut b = vec![a[2].clone(), a[0].clone(), a[1].clone()];
        canonical_sort(&mut a);
        canonical_sort(&mut b);
        assert_eq!(a, b);
    }
}
