//! Human-oriented trace summaries: per-agent activity histograms, the
//! fault timeline, and the maximum link-layer queue depth.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{canonical_sort, FaultKind, TraceEvent};

#[derive(Debug, Default, Clone)]
struct AgentRow {
    steps: u64,
    checks: u64,
    sent: u64,
    received: u64,
    nogoods: u64,
}

/// Renders a multi-line summary of a trace: run header, per-agent
/// check/message histogram, fault counts and timeline, and the maximum
/// number of messages simultaneously queued in the link layer.
pub fn summarize(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<TraceEvent> = events.to_vec();
    canonical_sort(&mut sorted);

    let mut agents: BTreeMap<u32, AgentRow> = BTreeMap::new();
    let mut faults: Vec<&TraceEvent> = Vec::new();
    let mut dropped = 0u64;
    let mut duplicated = 0u64;
    let mut reordered = 0u64;
    let mut retransmitted = 0u64;
    let mut delayed = 0u64;
    let mut max_delay = 0u64;
    let mut value_changes = 0u64;
    let mut priority_changes = 0u64;
    let mut queue_depth: i64 = 0;
    let mut max_queue_depth: i64 = 0;
    let mut header = String::from("(no run_end event)");

    for event in &sorted {
        match event {
            TraceEvent::AgentStep { agent, checks, .. } => {
                let row = agents.entry(agent.raw()).or_default();
                row.steps += 1;
                row.checks += checks;
            }
            TraceEvent::Sent { from, .. } => {
                agents.entry(from.raw()).or_default().sent += 1;
                queue_depth += 1;
                max_queue_depth = max_queue_depth.max(queue_depth);
            }
            TraceEvent::Delivered { to, .. } => {
                agents.entry(to.raw()).or_default().received += 1;
                queue_depth -= 1;
            }
            TraceEvent::Fault { kind, .. } => {
                faults.push(event);
                match kind {
                    FaultKind::Dropped => {
                        dropped += 1;
                        queue_depth -= 1;
                    }
                    FaultKind::Duplicated => {
                        duplicated += 1;
                        queue_depth += 1;
                        max_queue_depth = max_queue_depth.max(queue_depth);
                    }
                    FaultKind::Reordered => reordered += 1,
                    FaultKind::Delayed(ticks) => {
                        delayed += 1;
                        max_delay = max_delay.max(*ticks);
                    }
                    FaultKind::Retransmitted => {
                        retransmitted += 1;
                        queue_depth += 1;
                        max_queue_depth = max_queue_depth.max(queue_depth);
                    }
                }
            }
            TraceEvent::NogoodLearned { agent, .. } => {
                agents.entry(agent.raw()).or_default().nogoods += 1;
            }
            TraceEvent::ValueChanged { .. } => value_changes += 1,
            TraceEvent::PriorityChanged { .. } => priority_changes += 1,
            TraceEvent::CycleBarrier { .. } => {}
            TraceEvent::RunEnd {
                cycle,
                runtime,
                in_flight,
                metrics,
            } => {
                header = format!(
                    "{} run: {} at cycle {cycle} ({in_flight} in flight, \
                     maxcck {}, total checks {})",
                    runtime, metrics.termination, metrics.maxcck, metrics.total_checks
                );
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "events: {}", sorted.len());

    let _ = writeln!(out, "\nper-agent activity:");
    let _ = writeln!(
        out,
        "  {:>6} {:>7} {:>9} {:>6} {:>6} {:>8}",
        "agent", "steps", "checks", "sent", "recv", "nogoods"
    );
    for (agent, row) in &agents {
        let _ = writeln!(
            out,
            "  {:>6} {:>7} {:>9} {:>6} {:>6} {:>8}",
            format!("a{agent}"),
            row.steps,
            row.checks,
            row.sent,
            row.received,
            row.nogoods
        );
    }

    let _ = writeln!(
        out,
        "\nfaults: {dropped} dropped, {duplicated} duplicated, {reordered} reordered, \
         {retransmitted} retransmitted, {delayed} delayed (max +{max_delay})"
    );
    let _ = writeln!(out, "max queue depth: {max_queue_depth}");
    let _ = writeln!(
        out,
        "value changes: {value_changes}, priority changes: {priority_changes}"
    );

    if !faults.is_empty() {
        let _ = writeln!(out, "\nfault timeline:");
        for fault in faults {
            let _ = writeln!(out, "  {fault}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::{AgentId, MessageClass, RunMetrics, Termination};

    #[test]
    fn summary_tabulates_agents_and_faults() {
        let a0 = AgentId::new(0);
        let a1 = AgentId::new(1);
        let mut metrics = RunMetrics::new(Termination::Solved);
        metrics.maxcck = 4;
        metrics.total_checks = 4;
        let events = vec![
            TraceEvent::AgentStep {
                cycle: 0,
                agent: a0,
                checks: 4,
            },
            TraceEvent::Sent {
                cycle: 0,
                from: a0,
                to: a1,
                class: MessageClass::Ok,
            },
            TraceEvent::Sent {
                cycle: 0,
                from: a0,
                to: a1,
                class: MessageClass::Ok,
            },
            TraceEvent::Fault {
                cycle: 0,
                from: a0,
                to: a1,
                class: MessageClass::Ok,
                kind: FaultKind::Dropped,
            },
            TraceEvent::Delivered {
                cycle: 1,
                from: a0,
                to: a1,
                class: MessageClass::Ok,
            },
            TraceEvent::RunEnd {
                cycle: 2,
                runtime: crate::RuntimeKind::Virtual,
                in_flight: 0,
                metrics,
            },
        ];
        let text = summarize(&events);
        assert!(text.contains("virtual run: solved"), "{text}");
        assert!(text.contains("a0"), "{text}");
        assert!(text.contains("1 dropped"), "{text}");
        assert!(text.contains("max queue depth: 2"), "{text}");
        assert!(text.contains("fault timeline"), "{text}");
    }

    #[test]
    fn empty_trace_summarizes_without_panicking() {
        let text = summarize(&[]);
        assert!(text.contains("no run_end"));
    }
}
