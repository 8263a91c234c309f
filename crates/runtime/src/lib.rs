//! Distributed-system substrates for DisCSP algorithms.
//!
//! Four runtimes execute the same [`DistributedAgent`] implementations:
//!
//! * [`SyncSimulator`] — the synchronous cycle simulator the paper uses
//!   for all measurements (§4): per cycle, every agent reads its inbox,
//!   computes, and sends; `cycle` and `maxcck` metrics are collected here.
//! * [`run_async`] — one OS thread per agent with crossbeam channels,
//!   demonstrating the algorithms on a *fully asynchronous* system, with
//!   quiescence-based solution detection via in-flight message counting.
//! * [`run_virtual`] — a single-threaded discrete-event executor over the
//!   same agents and the same [`Link`] fault layer, fully deterministic:
//!   a failing `(seed, LinkPolicy)` pair replays bit-identically.
//! * [`run_sharded`] — the M:N sharded executor: `run_virtual`'s
//!   deterministic semantics with agent activations fanned out to a
//!   fixed pool of worker threads, each owning an id-ordered shard of
//!   the population. Bit-identical to `run_virtual` for any worker count.
//!
//! The deterministic executors share one control loop, the
//! [`WaveEngine`]: it owns the [`Router`], the metrics, the snapshot and
//! every termination decision, and advances one wave per poll. What
//! differs is the [`Stepper`] that runs each wave's activations:
//! [`InProcess`] for `run_virtual` (and the `discsp-service` sessions),
//! a worker pool for `run_sharded`, and a socket fan-out in the
//! `discsp-net` coordinator.
//!
//! The [`link`](crate::Link) layer injects seeded drop, duplication,
//! delay, and reordering faults into either runtime's traffic, with
//! per-link [`SplitMix64`] streams derived from the run seed
//! ([`derive_link_seed`]).
//!
//! Plus deterministic seed derivation ([`SplitMix64`], [`derive_seed`])
//! shared by the experiment harnesses.
//!
//! Every runtime records through the [`TraceSink`] pipeline from
//! `discsp-trace` (re-exported here): the same event schema is emitted
//! by all executors, so traces are schema-comparable across runtimes
//! and auditable with `discsp-trace audit`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod asynchronous;
mod engine;
mod error;
#[cfg(test)]
mod fixtures;
mod link;
mod message;
mod pool;
mod recorder;
mod router;
mod shard;
mod schedule;
mod seed;
mod sync;
mod wire;

pub use agent::{AgentNote, AgentStats, DistributedAgent, Outbox};
pub use asynchronous::{run_async, AsyncConfig, AsyncReport};
pub use discsp_trace::{
    canonical_sort, render_trace, FaultKind, NullSink, RingBuffer, RuntimeKind, TraceEvent,
    TraceSink,
};
pub use engine::{
    Admission, Direct, InProcess, Merge, Stepper, Teardown, Wave, WaveEngine, WavePoll,
};
pub use error::RuntimeError;
pub use link::{
    derive_link_seed, run_virtual, Deliveries, Link, LinkPolicy, LinkStats, RouteDecision,
    VirtualConfig, VirtualReport, PPM,
};
pub use message::{Classify, Envelope, MessageClass};
pub use pool::ShardPlan;
pub use recorder::StepRecorder;
pub use router::Router;
pub use shard::{run_sharded, ShardConfig};
pub use schedule::{FaultAction, FaultEvent, FaultSchedule, ScheduleParseError};
pub use seed::{derive_seed, SplitMix64};
pub use sync::{CycleRecord, SyncRun, SyncSimulator};
