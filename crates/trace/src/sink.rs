//! Trace sinks: where runtimes put events.
//!
//! Every executor records through the [`TraceSink`] trait so the choice
//! of storage (in-memory ring buffer or nothing at all) is the caller's,
//! not the runtime's. `record` is infallible by design: a tracing
//! failure must never abort a solve.

use std::collections::VecDeque;

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

/// The default in-memory sink: an optionally bounded ring buffer.
///
/// Unbounded by default (a trace is proportional to total traffic);
/// with a capacity it evicts the oldest events and counts them in
/// [`RingBuffer::dropped`], so an auditor can refuse a truncated trace
/// instead of reporting spurious mismatches.
#[derive(Debug)]
pub struct RingBuffer {
    events: VecDeque<TraceEvent>,
    enabled: bool,
    capacity: Option<usize>,
    dropped: u64,
}

impl RingBuffer {
    /// An enabled, unbounded buffer.
    pub fn new() -> Self {
        RingBuffer {
            events: VecDeque::new(),
            enabled: true,
            capacity: None,
            dropped: 0,
        }
    }

    /// A buffer that records nothing (`enabled()` is `false`).
    pub fn disabled() -> Self {
        RingBuffer {
            events: VecDeque::new(),
            enabled: false,
            capacity: None,
            dropped: 0,
        }
    }

    /// An enabled buffer keeping at most `capacity` most-recent events.
    pub fn with_capacity(capacity: usize) -> Self {
        RingBuffer {
            events: VecDeque::with_capacity(capacity.min(1024)),
            enabled: true,
            capacity: Some(capacity),
            dropped: 0,
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

    /// Events evicted because the buffer was at capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the buffered events in recording order.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    /// Iterates the buffered events in recording order without draining
    /// them (used by session snapshots, which must leave the live trace
    /// in place so the session can keep running).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

impl Default for RingBuffer {
    fn default() -> Self {
        RingBuffer::new()
    }
}

impl TraceSink for RingBuffer {
    fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.events.len() >= cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
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
    fn iter_peeks_without_draining() {
        let mut buf = RingBuffer::new();
        buf.record(step(1));
        buf.record(step(2));
        let cycles: Vec<u64> = buf.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = RingBuffer::disabled();
        assert!(!buf.enabled());
        buf.record(step(1));
        assert!(buf.is_empty());
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn bounded_buffer_evicts_oldest_and_counts() {
        let mut buf = RingBuffer::with_capacity(2);
        buf.record(step(1));
        buf.record(step(2));
        buf.record(step(3));
        assert_eq!(buf.dropped(), 1);
        let events = buf.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle(), 2);
        assert_eq!(events[1].cycle(), 3);
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        sink.record(step(1));
        assert!(!sink.enabled());
    }
}
