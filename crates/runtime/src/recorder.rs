//! The shared agent-step recorder: one emission path for the per-step
//! trace events, used by every executor.
//!
//! The recorder centralizes the diffing, so traces of the *same* seeded
//! problem are schema-comparable across runtimes: every executor calls
//! [`StepRecorder::record_step`] right after an agent activation and
//! gets identical `AgentStep` / `ValueChanged` / `PriorityChanged` /
//! `NogoodLearned` events.

use std::collections::BTreeMap;

use discsp_core::Value;
use discsp_trace::{TraceEvent, TraceSink};

use crate::agent::{AgentNote, DistributedAgent};

/// Per-run memory of each variable's and agent's last observed state,
/// used to emit change events only on actual changes.
#[derive(Debug, Default)]
pub struct StepRecorder {
    last_values: BTreeMap<u32, Value>,
    last_priority: BTreeMap<u32, u64>,
}

impl StepRecorder {
    /// A recorder with no observations yet (every variable's first
    /// recorded value emits a `ValueChanged` with `old: None`).
    pub fn new() -> Self {
        StepRecorder::default()
    }

    /// Records one agent activation: drains the agent's notes (always —
    /// even with tracing off, so the backlog cannot grow), then emits
    /// `AgentStep`, per-variable `ValueChanged`, `PriorityChanged` on
    /// observed change, and one `NogoodLearned` per note.
    ///
    /// `checks` is the check count the *caller* already drained via
    /// `take_checks` for this step (the runtimes charge it to their own
    /// metrics; the recorder must not drain it twice).
    pub fn record_step<A: DistributedAgent>(
        &mut self,
        agent: &mut A,
        cycle: u64,
        checks: u64,
        sink: &mut dyn TraceSink,
    ) {
        let notes = agent.drain_notes();
        if !sink.enabled() {
            return;
        }
        let id = agent.id();
        sink.record(TraceEvent::AgentStep {
            cycle,
            agent: id,
            checks,
        });
        for vv in agent.assignments() {
            let old = self.last_values.insert(vv.var.raw(), vv.value);
            if old != Some(vv.value) {
                sink.record(TraceEvent::ValueChanged {
                    cycle,
                    var: vv.var,
                    old,
                    new: vv.value,
                });
            }
        }
        if let Some(priority) = agent.current_priority() {
            let old = self.last_priority.insert(id.raw(), priority);
            // The first observation is the starting priority, not a change.
            if old.is_some() && old != Some(priority) {
                sink.record(TraceEvent::PriorityChanged {
                    cycle,
                    agent: id,
                    priority,
                });
            }
        }
        for note in notes {
            match note {
                AgentNote::NogoodLearned { size } => {
                    sink.record(TraceEvent::NogoodLearned {
                        cycle,
                        agent: id,
                        size,
                    });
                }
                AgentNote::NogoodsForgotten { count } => {
                    sink.record(TraceEvent::NogoodForgotten {
                        cycle,
                        agent: id,
                        count,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentStats, Outbox};
    use crate::message::{Classify, Envelope, MessageClass};
    use discsp_core::{AgentId, VarValue, VariableId};

    #[derive(Debug, Clone)]
    struct Noop;

    impl Classify for Noop {
        fn class(&self) -> MessageClass {
            MessageClass::Other
        }
    }

    struct Toy {
        id: AgentId,
        value: Value,
        priority: u64,
        notes: Vec<AgentNote>,
    }

    impl DistributedAgent for Toy {
        type Message = Noop;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, _out: &mut Outbox<Noop>) {}

        fn on_batch(&mut self, _inbox: Vec<Envelope<Noop>>, _out: &mut Outbox<Noop>) {}

        fn assignments(&self) -> Vec<VarValue> {
            vec![VarValue {
                var: VariableId::new(self.id.raw()),
                value: self.value,
            }]
        }

        fn take_checks(&mut self) -> u64 {
            0
        }

        fn stats(&self) -> AgentStats {
            AgentStats::default()
        }

        fn current_priority(&self) -> Option<u64> {
            Some(self.priority)
        }

        fn drain_notes(&mut self) -> Vec<AgentNote> {
            std::mem::take(&mut self.notes)
        }
    }

    #[test]
    fn emits_changes_only_on_change() {
        let mut agent = Toy {
            id: AgentId::new(0),
            value: Value::new(1),
            priority: 0,
            notes: vec![],
        };
        let mut recorder = StepRecorder::new();
        let mut sink = discsp_trace::RingBuffer::new();

        recorder.record_step(&mut agent, 0, 5, &mut sink);
        // Same state again: only the step itself.
        recorder.record_step(&mut agent, 1, 2, &mut sink);
        // Change value and priority, learn a nogood.
        agent.value = Value::new(2);
        agent.priority = 3;
        agent.notes.push(AgentNote::NogoodLearned { size: 4 });
        recorder.record_step(&mut agent, 2, 0, &mut sink);

        let events = sink.take();
        let steps = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::AgentStep { .. }))
            .count();
        assert_eq!(steps, 3);
        assert!(events.contains(&TraceEvent::ValueChanged {
            cycle: 0,
            var: VariableId::new(0),
            old: None,
            new: Value::new(1),
        }));
        assert!(events.contains(&TraceEvent::ValueChanged {
            cycle: 2,
            var: VariableId::new(0),
            old: Some(Value::new(1)),
            new: Value::new(2),
        }));
        assert!(events.contains(&TraceEvent::PriorityChanged {
            cycle: 2,
            agent: AgentId::new(0),
            priority: 3,
        }));
        assert!(events.contains(&TraceEvent::NogoodLearned {
            cycle: 2,
            agent: AgentId::new(0),
            size: 4,
        }));
        // First priority observation is not a change.
        assert!(!events.contains(&TraceEvent::PriorityChanged {
            cycle: 0,
            agent: AgentId::new(0),
            priority: 0,
        }));
    }

    #[test]
    fn disabled_sink_still_drains_notes() {
        let mut agent = Toy {
            id: AgentId::new(0),
            value: Value::new(0),
            priority: 0,
            notes: vec![AgentNote::NogoodLearned { size: 1 }],
        };
        let mut recorder = StepRecorder::new();
        let mut sink = discsp_trace::RingBuffer::disabled();
        recorder.record_step(&mut agent, 0, 0, &mut sink);
        assert!(agent.notes.is_empty(), "notes drained even with tracing off");
        assert!(sink.is_empty());
    }
}
