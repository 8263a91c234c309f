//! The accounting auditor: recompute the paper's counters from a trace
//! and cross-check them against the runtime-reported [`RunMetrics`].
//!
//! A trace is self-auditing: its terminal [`TraceEvent::RunEnd`] carries
//! the metrics the runtime claimed, so the auditor needs no side
//! channel. It independently recomputes
//!
//! * `total_checks` — the sum of every [`TraceEvent::AgentStep`]'s
//!   check count;
//! * `maxcck` — the sum over [`TraceEvent::CycleBarrier`]-delimited
//!   waves of the maximum per-step check count inside each wave;
//! * every message counter (`Sent` events, `Fault` events by kind) and
//!   the PR-3 conservation identity
//!   `total == sent − dropped + duplicated + retransmitted`;
//! * delivery coverage: every enqueued copy is either delivered in the
//!   trace or still in flight at `RunEnd`, so one missing `Delivered`
//!   event is detected exactly;
//! * the learning counters (`nogoods_generated`, `largest_nogood`).
//!
//! Structural problems (no `RunEnd`, several of them, an empty trace)
//! are [`AuditError`]s; accounting mismatches are collected as pointed
//! diagnostics in [`Audit::failures`] so one audit reports every
//! discrepancy at once.

use std::fmt;

use discsp_core::RunMetrics;

use crate::event::{canonical_sort, FaultKind, RuntimeKind, TraceEvent};

/// A trace that cannot be audited at all (as opposed to one that audits
/// and fails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The trace has no events.
    Empty,
    /// No terminal [`TraceEvent::RunEnd`] — the runtime never sealed the
    /// trace with its own accounting.
    MissingRunEnd,
    /// More than one [`TraceEvent::RunEnd`]: the input mixes runs.
    MultipleRunEnd(usize),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Empty => f.write_str("empty trace"),
            AuditError::MissingRunEnd => {
                f.write_str("trace has no run_end event; cannot audit without reported metrics")
            }
            AuditError::MultipleRunEnd(count) => {
                write!(f, "trace has {count} run_end events; audit one run at a time")
            }
        }
    }
}

impl std::error::Error for AuditError {}

/// Which audited invariant a failure is about. Machine-readable so
/// tools (the fault-schedule explorer, CI gates) can classify verdicts
/// without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AuditField {
    /// `total_checks` recomputed from agent steps.
    TotalChecks,
    /// `maxcck` recomputed from barrier-delimited waves.
    Maxcck,
    /// Final cycle reported by `RunEnd` vs `RunMetrics::cycles`.
    Cycle,
    /// `Sent` events vs `messages_sent`.
    MessagesSent,
    /// Dropped faults vs `messages_dropped`.
    MessagesDropped,
    /// Duplicated faults vs `messages_duplicated`.
    MessagesDuplicated,
    /// Reordered faults vs `messages_reordered`.
    MessagesReordered,
    /// Retransmitted faults vs `messages_retransmitted`.
    MessagesRetransmitted,
    /// Largest delay fault vs `max_delivery_delay`.
    MaxDeliveryDelay,
    /// The conservation identity
    /// `total == sent − dropped + duplicated + retransmitted`.
    Conservation,
    /// Delivered events vs the link layer's enqueued copies.
    DeliveryCoverage,
    /// `NogoodLearned` events vs `nogoods_generated`.
    NogoodsGenerated,
    /// Largest `NogoodLearned` size vs `largest_nogood`.
    LargestNogood,
    /// An event stamped after the run's final cycle.
    EventAfterEnd,
}

impl fmt::Display for AuditField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AuditField::TotalChecks => "total_checks",
            AuditField::Maxcck => "maxcck",
            AuditField::Cycle => "cycle",
            AuditField::MessagesSent => "messages_sent",
            AuditField::MessagesDropped => "messages_dropped",
            AuditField::MessagesDuplicated => "messages_duplicated",
            AuditField::MessagesReordered => "messages_reordered",
            AuditField::MessagesRetransmitted => "messages_retransmitted",
            AuditField::MaxDeliveryDelay => "max_delivery_delay",
            AuditField::Conservation => "message_conservation",
            AuditField::DeliveryCoverage => "delivery_coverage",
            AuditField::NogoodsGenerated => "nogoods_generated",
            AuditField::LargestNogood => "largest_nogood",
            AuditField::EventAfterEnd => "event_after_end",
        };
        f.write_str(name)
    }
}

/// One accounting discrepancy: which invariant broke, the two values
/// that disagree, and the human-pointed diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// The audited invariant that failed.
    pub field: AuditField,
    /// The value the trace recomputes (for identity checks, the value
    /// the identity's right-hand side evaluates to).
    pub recomputed: i128,
    /// The value the runtime reported.
    pub reported: i128,
    /// The full human-readable diagnostic.
    pub message: String,
}

impl AuditFailure {
    /// Whether the diagnostic text mentions `needle` (convenience for
    /// tests and log grepping).
    pub fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// The recomputed counters plus every mismatch found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// Which executor produced the trace.
    pub runtime: RuntimeKind,
    /// The metrics the runtime reported (from `RunEnd`).
    pub metrics: RunMetrics,
    /// Final cycle/tick reported by `RunEnd`.
    pub cycles: u64,
    /// `maxcck` recomputed from barrier-delimited waves.
    pub maxcck: u64,
    /// `total_checks` recomputed from agent steps.
    pub total_checks: u64,
    /// `Sent` events counted in the trace.
    pub sent: u64,
    /// `Delivered` events counted in the trace.
    pub delivered: u64,
    /// Learned nogoods evicted by forgetting passes, summed over every
    /// [`TraceEvent::NogoodForgotten`] event. Informational only:
    /// forgetting has no [`RunMetrics`] counterpart to cross-check, and
    /// the paper's counters (checks, cycles, messages, learning) are
    /// unchanged by eviction.
    pub nogoods_forgotten: u64,
    /// Events audited.
    pub events: usize,
    /// Every accounting discrepancy, machine-classified and
    /// human-pointed.
    pub failures: Vec<AuditFailure>,
}

impl Audit {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Whether some failure concerns `field`.
    pub fn failed(&self, field: AuditField) -> bool {
        self.failures.iter().any(|f| f.field == field)
    }
}

fn mismatch(failures: &mut Vec<AuditFailure>, field: AuditField, recomputed: u64, reported: u64) {
    if recomputed != reported {
        failures.push(AuditFailure {
            field,
            recomputed: i128::from(recomputed),
            reported: i128::from(reported),
            message: format!(
                "{field}: trace recomputes {recomputed}, RunMetrics reports {reported}"
            ),
        });
    }
}

/// Audits one run's trace. Event order does not matter: the trace is
/// canonically sorted first, so the coordinator-merged net trace and the
/// in-process virtual trace audit identically.
pub fn audit(events: &[TraceEvent]) -> Result<Audit, AuditError> {
    if events.is_empty() {
        return Err(AuditError::Empty);
    }
    let mut sorted: Vec<TraceEvent> = events.to_vec();
    canonical_sort(&mut sorted);

    let ends: Vec<(u64, RuntimeKind, u64, RunMetrics)> = sorted
        .iter()
        .filter_map(|event| match event {
            TraceEvent::RunEnd {
                cycle,
                runtime,
                in_flight,
                metrics,
            } => Some((*cycle, *runtime, *in_flight, metrics.clone())),
            _ => None,
        })
        .collect();
    let (end_cycle, runtime, in_flight, metrics) = match ends.as_slice() {
        [] => return Err(AuditError::MissingRunEnd),
        [one] => one.clone(),
        many => return Err(AuditError::MultipleRunEnd(many.len())),
    };

    let mut total_checks: u64 = 0;
    let mut maxcck: u64 = 0;
    let mut wave_max: u64 = 0;
    let mut sent: u64 = 0;
    let mut delivered: u64 = 0;
    let mut dropped: u64 = 0;
    let mut duplicated: u64 = 0;
    let mut reordered: u64 = 0;
    let mut retransmitted: u64 = 0;
    let mut max_delay: u64 = 0;
    let mut nogoods: u64 = 0;
    let mut largest_nogood: u64 = 0;
    let mut forgotten: u64 = 0;
    let mut max_event_cycle: u64 = 0;

    for event in &sorted {
        if !matches!(event, TraceEvent::RunEnd { .. }) {
            max_event_cycle = max_event_cycle.max(event.cycle());
        }
        match event {
            TraceEvent::AgentStep { checks, .. } => {
                total_checks += checks;
                wave_max = wave_max.max(*checks);
            }
            TraceEvent::CycleBarrier { .. } => {
                maxcck += wave_max;
                wave_max = 0;
            }
            TraceEvent::Sent { .. } => sent += 1,
            TraceEvent::Delivered { .. } => delivered += 1,
            TraceEvent::Fault { kind, .. } => match kind {
                FaultKind::Dropped => dropped += 1,
                FaultKind::Duplicated => duplicated += 1,
                FaultKind::Reordered => reordered += 1,
                FaultKind::Delayed(ticks) => max_delay = max_delay.max(*ticks),
                FaultKind::Retransmitted => retransmitted += 1,
            },
            TraceEvent::NogoodLearned { size, .. } => {
                nogoods += 1;
                largest_nogood = largest_nogood.max(*size);
            }
            TraceEvent::NogoodForgotten { count, .. } => forgotten += count,
            // Decision events record what an agent chose, not how much it
            // spent choosing; they carry nothing to cross-check.
            TraceEvent::ValueChanged { .. } | TraceEvent::PriorityChanged { .. } => {}
            TraceEvent::RunEnd { .. } => {}
        }
    }

    let mut failures = Vec::new();

    // The paper's two headline counters plus the raw check total.
    mismatch(&mut failures, AuditField::TotalChecks, total_checks, metrics.total_checks);
    mismatch(&mut failures, AuditField::Maxcck, maxcck, metrics.maxcck);
    mismatch(&mut failures, AuditField::Cycle, end_cycle, metrics.cycles);

    // Message accounting: the trace must explain every counter.
    mismatch(&mut failures, AuditField::MessagesSent, sent, metrics.messages_sent);
    mismatch(
        &mut failures,
        AuditField::MessagesDropped,
        dropped,
        metrics.messages_dropped,
    );
    mismatch(
        &mut failures,
        AuditField::MessagesDuplicated,
        duplicated,
        metrics.messages_duplicated,
    );
    mismatch(
        &mut failures,
        AuditField::MessagesReordered,
        reordered,
        metrics.messages_reordered,
    );
    mismatch(
        &mut failures,
        AuditField::MessagesRetransmitted,
        retransmitted,
        metrics.messages_retransmitted,
    );
    mismatch(
        &mut failures,
        AuditField::MaxDeliveryDelay,
        max_delay,
        metrics.max_delivery_delay,
    );

    // The PR-3 conservation identity, on the runtime's own counters.
    let conserved = i128::from(metrics.messages_sent) - i128::from(metrics.messages_dropped)
        + i128::from(metrics.messages_duplicated)
        + i128::from(metrics.messages_retransmitted);
    if i128::from(metrics.total_messages()) != conserved {
        failures.push(AuditFailure {
            field: AuditField::Conservation,
            recomputed: conserved,
            reported: i128::from(metrics.total_messages()),
            message: format!(
                "message conservation: total ({}) != sent − dropped + duplicated + \
                 retransmitted ({} − {} + {} + {} = {conserved})",
                metrics.total_messages(),
                metrics.messages_sent,
                metrics.messages_dropped,
                metrics.messages_duplicated,
                metrics.messages_retransmitted,
            ),
        });
    }

    // Delivery coverage: every enqueued copy is either delivered in the
    // trace or still queued at RunEnd.
    let expected_deliveries = i128::from(metrics.total_messages()) - i128::from(in_flight);
    if i128::from(delivered) != expected_deliveries {
        failures.push(AuditFailure {
            field: AuditField::DeliveryCoverage,
            recomputed: i128::from(delivered),
            reported: expected_deliveries,
            message: format!(
                "delivered events ({delivered}) do not cover the link layer's deliveries \
                 (total {} − {in_flight} in flight = {expected_deliveries}): a Delivered \
                 event is missing from the trace or the runtime under-delivered",
                metrics.total_messages(),
            ),
        });
    }

    // Learning counters.
    mismatch(
        &mut failures,
        AuditField::NogoodsGenerated,
        nogoods,
        metrics.nogoods_generated,
    );
    mismatch(
        &mut failures,
        AuditField::LargestNogood,
        largest_nogood,
        metrics.largest_nogood,
    );

    // No event may claim a cycle after the run ended.
    if max_event_cycle > end_cycle {
        failures.push(AuditFailure {
            field: AuditField::EventAfterEnd,
            recomputed: i128::from(max_event_cycle),
            reported: i128::from(end_cycle),
            message: format!(
                "an event is stamped at cycle {max_event_cycle}, after the run ended at \
                 cycle {end_cycle}"
            ),
        });
    }

    Ok(Audit {
        runtime,
        metrics,
        cycles: end_cycle,
        maxcck,
        total_checks,
        sent,
        delivered,
        nogoods_forgotten: forgotten,
        events: sorted.len(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::{AgentId, MessageClass, Termination};

    /// A tiny, fully consistent hand-built trace: two waves, one
    /// dropped-then-retransmitted message, one learned nogood.
    fn consistent_trace() -> Vec<TraceEvent> {
        let a0 = AgentId::new(0);
        let a1 = AgentId::new(1);
        let mut metrics = RunMetrics::new(Termination::Solved);
        metrics.cycles = 3;
        metrics.total_checks = 5 + 2 + 4;
        metrics.maxcck = 5 + 4;
        metrics.messages_sent = 3;
        metrics.messages_dropped = 1;
        metrics.messages_retransmitted = 1;
        metrics.ok_messages = 2;
        metrics.nogood_messages = 1;
        metrics.nogoods_generated = 1;
        metrics.largest_nogood = 2;
        vec![
            TraceEvent::AgentStep {
                cycle: 0,
                agent: a0,
                checks: 5,
            },
            TraceEvent::AgentStep {
                cycle: 0,
                agent: a1,
                checks: 2,
            },
            TraceEvent::Sent {
                cycle: 0,
                from: a0,
                to: a1,
                class: MessageClass::Ok,
            },
            TraceEvent::Sent {
                cycle: 0,
                from: a1,
                to: a0,
                class: MessageClass::Ok,
            },
            TraceEvent::Fault {
                cycle: 0,
                from: a1,
                to: a0,
                class: MessageClass::Ok,
                kind: FaultKind::Dropped,
            },
            TraceEvent::CycleBarrier { cycle: 0 },
            TraceEvent::Delivered {
                cycle: 1,
                from: a0,
                to: a1,
                class: MessageClass::Ok,
            },
            TraceEvent::AgentStep {
                cycle: 1,
                agent: a1,
                checks: 4,
            },
            TraceEvent::NogoodLearned {
                cycle: 1,
                agent: a1,
                size: 2,
            },
            TraceEvent::Sent {
                cycle: 1,
                from: a1,
                to: a0,
                class: MessageClass::Nogood,
            },
            TraceEvent::Fault {
                cycle: 1,
                from: a1,
                to: a0,
                class: MessageClass::Ok,
                kind: FaultKind::Retransmitted,
            },
            TraceEvent::CycleBarrier { cycle: 1 },
            TraceEvent::Delivered {
                cycle: 2,
                from: a1,
                to: a0,
                class: MessageClass::Nogood,
            },
            TraceEvent::Delivered {
                cycle: 2,
                from: a1,
                to: a0,
                class: MessageClass::Ok,
            },
            TraceEvent::CycleBarrier { cycle: 2 },
            TraceEvent::RunEnd {
                cycle: 3,
                runtime: RuntimeKind::Virtual,
                in_flight: 0,
                metrics,
            },
        ]
    }

    #[test]
    fn consistent_trace_passes() {
        let report = audit(&consistent_trace()).expect("auditable");
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.total_checks, 11);
        assert_eq!(report.maxcck, 9);
        assert_eq!(report.cycles, 3);
        assert_eq!(report.sent, 3);
        assert_eq!(report.delivered, 3);
    }

    #[test]
    fn forgetting_events_are_tallied_but_never_fail_the_audit() {
        let mut trace = consistent_trace();
        trace.insert(
            trace.len() - 1,
            TraceEvent::NogoodForgotten {
                cycle: 2,
                agent: AgentId::new(1),
                count: 4,
            },
        );
        trace.insert(
            trace.len() - 1,
            TraceEvent::NogoodForgotten {
                cycle: 2,
                agent: AgentId::new(0),
                count: 1,
            },
        );
        let report = audit(&trace).expect("auditable");
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.nogoods_forgotten, 5);
    }

    #[test]
    fn audit_ignores_event_order() {
        let mut shuffled = consistent_trace();
        shuffled.reverse();
        let report = audit(&shuffled).expect("auditable");
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn dropped_delivered_event_is_detected_with_a_pointed_diagnostic() {
        let mut corrupted = consistent_trace();
        let index = corrupted
            .iter()
            .position(|e| matches!(e, TraceEvent::Delivered { .. }))
            .expect("has a delivery");
        corrupted.remove(index);
        let report = audit(&corrupted).expect("auditable");
        assert!(!report.passed());
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("delivered events (2)") && f.contains("Delivered")),
            "diagnostic must point at the missing delivery: {:?}",
            report.failures
        );
    }

    #[test]
    fn wrong_checks_show_up_as_both_check_counters() {
        let mut corrupted = consistent_trace();
        for event in &mut corrupted {
            if let TraceEvent::AgentStep { checks, .. } = event {
                *checks += 1;
                break;
            }
        }
        let report = audit(&corrupted).expect("auditable");
        assert!(report.failed(AuditField::TotalChecks), "{:?}", report.failures);
        assert!(report.failed(AuditField::Maxcck), "{:?}", report.failures);
        let checks = report
            .failures
            .iter()
            .find(|f| f.field == AuditField::TotalChecks)
            .expect("has the total_checks verdict");
        assert_eq!(checks.recomputed, 12);
        assert_eq!(checks.reported, 11);
        assert!(checks.to_string().contains("total_checks"));
    }

    #[test]
    fn structural_problems_are_errors() {
        assert_eq!(audit(&[]), Err(AuditError::Empty));
        let barrier = vec![TraceEvent::CycleBarrier { cycle: 0 }];
        assert_eq!(audit(&barrier), Err(AuditError::MissingRunEnd));
        let mut two_runs = consistent_trace();
        two_runs.extend(consistent_trace());
        assert_eq!(audit(&two_runs), Err(AuditError::MultipleRunEnd(2)));
    }

    #[test]
    fn every_runtime_is_held_to_exact_delivery_and_the_end_cycle() {
        let kinds = [
            RuntimeKind::Sync,
            RuntimeKind::Virtual,
            RuntimeKind::Net,
            RuntimeKind::Service,
            RuntimeKind::Sharded,
        ];
        for kind in kinds {
            let mut trace = consistent_trace();
            for event in &mut trace {
                if let TraceEvent::RunEnd { runtime, .. } = event {
                    *runtime = kind;
                }
            }
            let mut late = trace.clone();
            late.insert(
                0,
                TraceEvent::AgentStep {
                    cycle: 4,
                    agent: AgentId::new(0),
                    checks: 0,
                },
            );
            let report = audit(&late).expect("auditable");
            assert!(
                report.failed(AuditField::EventAfterEnd),
                "{kind}: {:?}",
                report.failures
            );

            let mut extra = trace;
            extra.insert(
                0,
                TraceEvent::Delivered {
                    cycle: 2,
                    from: AgentId::new(1),
                    to: AgentId::new(0),
                    class: MessageClass::Ok,
                },
            );
            let report = audit(&extra).expect("auditable");
            assert!(
                report.failed(AuditField::DeliveryCoverage),
                "{kind}: {:?}",
                report.failures
            );
        }
    }
}
