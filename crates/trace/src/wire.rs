//! Wire encodings for trace events, so the net runtime can ship each
//! agent's event stream back to the coordinator inside `Final` frames.
//!
//! These impls live here (not in `discsp-core`) because the event types
//! are defined here and `Wire` is a foreign trait from `discsp-core`.

use discsp_core::{AgentId, MessageClass, RunMetrics, Value, VariableId, Wire, WireError, WireReader};

use crate::event::{FaultKind, RuntimeKind, TraceEvent};

impl Wire for FaultKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FaultKind::Dropped => out.push(0),
            FaultKind::Duplicated => out.push(1),
            FaultKind::Reordered => out.push(2),
            FaultKind::Delayed(ticks) => {
                out.push(3);
                ticks.encode(out);
            }
            FaultKind::Retransmitted => out.push(4),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("FaultKind")? {
            0 => Ok(FaultKind::Dropped),
            1 => Ok(FaultKind::Duplicated),
            2 => Ok(FaultKind::Reordered),
            3 => Ok(FaultKind::Delayed(r.u64("FaultKind.Delayed")?)),
            4 => Ok(FaultKind::Retransmitted),
            tag => Err(WireError::BadTag {
                context: "FaultKind",
                tag,
            }),
        }
    }
}

impl Wire for RuntimeKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            RuntimeKind::Sync => 0,
            RuntimeKind::Virtual => 1,
            RuntimeKind::Net => 3,
            RuntimeKind::Service => 4,
            RuntimeKind::Sharded => 5,
        };
        out.push(tag);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("RuntimeKind")? {
            0 => Ok(RuntimeKind::Sync),
            1 => Ok(RuntimeKind::Virtual),
            3 => Ok(RuntimeKind::Net),
            4 => Ok(RuntimeKind::Service),
            5 => Ok(RuntimeKind::Sharded),
            tag => Err(WireError::BadTag {
                context: "RuntimeKind",
                tag,
            }),
        }
    }
}

impl Wire for TraceEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TraceEvent::AgentStep {
                cycle,
                agent,
                checks,
            } => {
                out.push(0);
                cycle.encode(out);
                agent.encode(out);
                checks.encode(out);
            }
            TraceEvent::Sent {
                cycle,
                from,
                to,
                class,
            } => {
                out.push(1);
                cycle.encode(out);
                from.encode(out);
                to.encode(out);
                class.encode(out);
            }
            TraceEvent::Delivered {
                cycle,
                from,
                to,
                class,
            } => {
                out.push(2);
                cycle.encode(out);
                from.encode(out);
                to.encode(out);
                class.encode(out);
            }
            TraceEvent::Fault {
                cycle,
                from,
                to,
                class,
                kind,
            } => {
                out.push(3);
                cycle.encode(out);
                from.encode(out);
                to.encode(out);
                class.encode(out);
                kind.encode(out);
            }
            TraceEvent::ValueChanged {
                cycle,
                var,
                old,
                new,
            } => {
                out.push(4);
                cycle.encode(out);
                var.encode(out);
                old.encode(out);
                new.encode(out);
            }
            TraceEvent::PriorityChanged {
                cycle,
                agent,
                priority,
            } => {
                out.push(5);
                cycle.encode(out);
                agent.encode(out);
                priority.encode(out);
            }
            TraceEvent::NogoodLearned { cycle, agent, size } => {
                out.push(6);
                cycle.encode(out);
                agent.encode(out);
                size.encode(out);
            }
            TraceEvent::CycleBarrier { cycle } => {
                out.push(7);
                cycle.encode(out);
            }
            TraceEvent::NogoodForgotten {
                cycle,
                agent,
                count,
            } => {
                out.push(9);
                cycle.encode(out);
                agent.encode(out);
                count.encode(out);
            }
            TraceEvent::RunEnd {
                cycle,
                runtime,
                in_flight,
                metrics,
            } => {
                out.push(8);
                cycle.encode(out);
                runtime.encode(out);
                in_flight.encode(out);
                metrics.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("TraceEvent")? {
            0 => Ok(TraceEvent::AgentStep {
                cycle: r.u64("TraceEvent.cycle")?,
                agent: AgentId::decode(r)?,
                checks: r.u64("TraceEvent.checks")?,
            }),
            1 => Ok(TraceEvent::Sent {
                cycle: r.u64("TraceEvent.cycle")?,
                from: AgentId::decode(r)?,
                to: AgentId::decode(r)?,
                class: MessageClass::decode(r)?,
            }),
            2 => Ok(TraceEvent::Delivered {
                cycle: r.u64("TraceEvent.cycle")?,
                from: AgentId::decode(r)?,
                to: AgentId::decode(r)?,
                class: MessageClass::decode(r)?,
            }),
            3 => Ok(TraceEvent::Fault {
                cycle: r.u64("TraceEvent.cycle")?,
                from: AgentId::decode(r)?,
                to: AgentId::decode(r)?,
                class: MessageClass::decode(r)?,
                kind: FaultKind::decode(r)?,
            }),
            4 => Ok(TraceEvent::ValueChanged {
                cycle: r.u64("TraceEvent.cycle")?,
                var: VariableId::decode(r)?,
                old: Option::<Value>::decode(r)?,
                new: Value::decode(r)?,
            }),
            5 => Ok(TraceEvent::PriorityChanged {
                cycle: r.u64("TraceEvent.cycle")?,
                agent: AgentId::decode(r)?,
                priority: r.u64("TraceEvent.priority")?,
            }),
            6 => Ok(TraceEvent::NogoodLearned {
                cycle: r.u64("TraceEvent.cycle")?,
                agent: AgentId::decode(r)?,
                size: r.u64("TraceEvent.size")?,
            }),
            7 => Ok(TraceEvent::CycleBarrier {
                cycle: r.u64("TraceEvent.cycle")?,
            }),
            8 => Ok(TraceEvent::RunEnd {
                cycle: r.u64("TraceEvent.cycle")?,
                runtime: RuntimeKind::decode(r)?,
                in_flight: r.u64("TraceEvent.in_flight")?,
                metrics: RunMetrics::decode(r)?,
            }),
            9 => Ok(TraceEvent::NogoodForgotten {
                cycle: r.u64("TraceEvent.cycle")?,
                agent: AgentId::decode(r)?,
                count: r.u64("TraceEvent.count")?,
            }),
            tag => Err(WireError::BadTag {
                context: "TraceEvent",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Termination;

    fn roundtrip(event: TraceEvent) {
        let bytes = event.to_bytes();
        assert_eq!(TraceEvent::from_bytes(&bytes).as_ref(), Ok(&event));
        for cut in 0..bytes.len() {
            assert!(
                TraceEvent::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        let a0 = AgentId::new(0);
        let a9 = AgentId::new(9);
        roundtrip(TraceEvent::AgentStep {
            cycle: 7,
            agent: a9,
            checks: 123,
        });
        roundtrip(TraceEvent::Sent {
            cycle: 1,
            from: a0,
            to: a9,
            class: MessageClass::Ok,
        });
        roundtrip(TraceEvent::Delivered {
            cycle: 2,
            from: a9,
            to: a0,
            class: MessageClass::Nogood,
        });
        roundtrip(TraceEvent::Fault {
            cycle: 3,
            from: a0,
            to: a9,
            class: MessageClass::Other,
            kind: FaultKind::Delayed(4),
        });
        roundtrip(TraceEvent::ValueChanged {
            cycle: 4,
            var: VariableId::new(2),
            old: None,
            new: Value::new(1),
        });
        roundtrip(TraceEvent::ValueChanged {
            cycle: 4,
            var: VariableId::new(2),
            old: Some(Value::new(1)),
            new: Value::new(0),
        });
        roundtrip(TraceEvent::PriorityChanged {
            cycle: 5,
            agent: a9,
            priority: 42,
        });
        roundtrip(TraceEvent::NogoodLearned {
            cycle: 6,
            agent: a0,
            size: 3,
        });
        roundtrip(TraceEvent::NogoodForgotten {
            cycle: 7,
            agent: a9,
            count: 12,
        });
        roundtrip(TraceEvent::CycleBarrier { cycle: 8 });
        let mut metrics = RunMetrics::new(Termination::CutOff);
        metrics.cycles = 10_000;
        metrics.maxcck = 77;
        roundtrip(TraceEvent::RunEnd {
            cycle: 10_000,
            runtime: RuntimeKind::Net,
            in_flight: 5,
            metrics,
        });
    }

    #[test]
    fn vectors_of_events_roundtrip() {
        let events = vec![
            TraceEvent::CycleBarrier { cycle: 0 },
            TraceEvent::AgentStep {
                cycle: 0,
                agent: AgentId::new(1),
                checks: 2,
            },
        ];
        let bytes = events.to_bytes();
        assert_eq!(Vec::<TraceEvent>::from_bytes(&bytes), Ok(events));
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            TraceEvent::from_bytes(&[99]),
            Err(WireError::BadTag {
                context: "TraceEvent",
                ..
            })
        ));
        for retired_or_unknown in [2, 9] {
            assert_eq!(
                RuntimeKind::from_bytes(&[retired_or_unknown]),
                Err(WireError::BadTag {
                    context: "RuntimeKind",
                    tag: retired_or_unknown,
                })
            );
        }
        assert!(matches!(
            FaultKind::from_bytes(&[9]),
            Err(WireError::BadTag { .. })
        ));
    }
}
