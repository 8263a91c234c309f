//! Trace sinks: where runtimes put events.
//!
//! Every executor records through the [`TraceSink`] trait so the choice
//! of storage (an in-memory buffer or nothing at all) is the caller's,
//! not the runtime's. `record` is infallible by design: a tracing
//! failure must never abort a solve.

use crate::event::TraceEvent;

/// A destination for trace events.
pub trait TraceSink {
    /// Records one event. Must be cheap when [`TraceSink::enabled`]
    /// returns `false`.
    fn record(&mut self, event: TraceEvent);

    /// Whether recording is live. Runtimes may skip building events
    /// entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// A sink that drops everything; `enabled()` is `false` so runtimes can
/// skip event construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// The default in-memory sink: every event, in recording order.
///
/// Unbounded (a trace is proportional to total traffic), so an auditor
/// always sees the whole run.
#[derive(Debug)]
pub struct RingBuffer {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl RingBuffer {
    /// An enabled, unbounded buffer.
    pub fn new() -> Self {
        RingBuffer {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// A buffer that records nothing (`enabled()` is `false`).
    pub fn disabled() -> Self {
        RingBuffer {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Moves the buffered events out in recording order, leaving the
    /// buffer empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Default for RingBuffer {
    fn default() -> Self {
        RingBuffer::new()
    }
}

impl TraceSink for RingBuffer {
    fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::AgentId;

    fn step(cycle: u64) -> TraceEvent {
        TraceEvent::AgentStep {
            cycle,
            agent: AgentId::new(0),
            checks: 1,
        }
    }

    #[test]
    fn ring_buffer_records_in_order() {
        let mut buf = RingBuffer::new();
        assert!(buf.enabled());
        buf.record(step(1));
        buf.record(step(2));
        assert_eq!(buf.len(), 2);
        let events = buf.take();
        assert_eq!(events[0].cycle(), 1);
        assert_eq!(events[1].cycle(), 2);
        assert!(buf.is_empty());
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = RingBuffer::disabled();
        assert!(!buf.enabled());
        buf.record(step(1));
        assert!(buf.is_empty());
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        sink.record(step(1));
        assert!(!sink.enabled());
    }
}
