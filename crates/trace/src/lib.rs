//! Unified execution-trace pipeline for the DisCSP runtimes.
//!
//! The paper's claims rest on two counters — `cycle` and `maxcck` — so
//! any accounting drift between the runtimes (synchronous cycle
//! simulator, deterministic discrete-event and sharded executors, solve
//! service, multi-process TCP coordinator) silently invalidates the
//! reproduction. This crate turns trace cross-validation into a
//! standing accounting-bug detector:
//!
//! * [`TraceEvent`] — one schema for the full run lifecycle, emitted
//!   uniformly by every executor (agent steps with check counts,
//!   sent/fault/delivered message phases, value and priority changes,
//!   learned nogoods, wave barriers, and a terminal [`TraceEvent::RunEnd`]
//!   carrying the runtime-reported [`RunMetrics`](discsp_core::RunMetrics));
//! * [`TraceSink`] — where events go: an in-memory [`RingBuffer`]
//!   (optionally bounded, evictions counted) or [`NullSink`]; a trace
//!   becomes JSONL one [`event_to_json`] line per event;
//! * [`audit`] — independently recomputes `cycle`, `maxcck`,
//!   `total_checks`, and the message-conservation identity
//!   `total == sent − dropped + duplicated + retransmitted` from a
//!   trace and cross-checks the runtime's own metrics;
//! * [`summarize`] — per-agent check/message histograms, fault
//!   timeline, max queue depth;
//! * the `discsp-trace` binary — `audit` and `summarize` over JSONL
//!   trace files (see DESIGN.md §10 for the line format).
//!
//! Everything here reasons in virtual ticks: no wall clock, no
//! randomness, no dependencies beyond `discsp-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod event;
pub mod jsonl;
mod sink;
mod summary;
mod wire;

pub use audit::{audit, Audit, AuditError, AuditFailure, AuditField};
pub use event::{canonical_sort, render_trace, FaultKind, RuntimeKind, TraceEvent};
pub use jsonl::{event_to_json, parse_line, parse_trace, JsonlError};
pub use sink::{NullSink, RingBuffer, TraceSink};
pub use summary::summarize;
