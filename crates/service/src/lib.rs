//! Multi-session DisCSP solve service.
//!
//! Every other runtime in this workspace runs **one** solve per
//! executor. This crate turns the deterministic virtual executor into a
//! long-running **service**: a [`SolveService`] owns a table of
//! concurrent sessions — each with its own
//! [`Router`](discsp_runtime::Router), seed,
//! [`LinkPolicy`](discsp_runtime::LinkPolicy), and trace sink — and a
//! poll-based scheduler advances every session one wave per sweep, so
//! one coordinator thread-pool serves thousands of interleaved sessions
//! without ever mixing their state (proved bit-for-bit against
//! `solve_virtual` in the crate's tests).
//!
//! * **Admission control and backpressure.** A bounded number of
//!   sessions run concurrently; admitted sessions beyond that park in a
//!   deterministic FIFO queue, and submits past the global budget are
//!   refused with [`ServiceError::Overloaded`]. Inside a session, a
//!   bounded in-flight message budget spills excess sends to a parking
//!   queue drained as the router's queue empties.
//! * **Lifecycle.** Graceful [`SolveService::drain`] stops admitting
//!   and finishes everything in flight (losing nothing), sessions can
//!   be cancelled mid-run, and a cancelled or live session yields a
//!   [`SessionSnapshot`] that [`SolveService::restore`] replays onto
//!   another coordinator — verifying the replayed event log prefix
//!   bit-for-bit before resuming.
//! * **Serving.** [`serve`] exposes the whole thing over TCP using the
//!   v3 multiplexed wire frames from `discsp-net`
//!   ([`ServiceFrame`](discsp_net::ServiceFrame)); `discsp-load` (this
//!   crate's binary) hammers a service with a mixed workload and
//!   reports sessions/sec and p50/p99 latency.
//!
//! The scheduler's sweep counter is the service's **virtual clock**:
//! session latency is measured in sweeps, which makes every latency
//! number in `BENCH_service.json` deterministic for a fixed workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use discsp_runtime::RuntimeError;

mod server;
mod service;
mod session;
mod table;

pub use server::{serve, ServeOptions, ServiceClient, ServiceHandle};
pub use service::{ServiceConfig, SessionResult, SolveService};
pub use session::{build_pump, Pump, SessionPoll, SessionSnapshot, SessionSpec};

/// Identifies one session inside a service. `0` is reserved on the wire
/// (it marks a single-session peer), so the TCP server rejects it;
/// in-process users may pick any value.
pub type SessionId = u64;

/// Everything that can go wrong inside the solve service.
#[derive(Debug)]
pub enum ServiceError {
    /// The global session budget (active + parked admissions) is
    /// exhausted. Backpressure: retry after completions free capacity.
    Overloaded,
    /// The service is draining and admits no new sessions.
    Draining,
    /// A submit reused a session ID that is still live.
    DuplicateSession {
        /// The contested ID.
        id: SessionId,
    },
    /// The session ID names no live session.
    UnknownSession {
        /// The unknown ID.
        id: SessionId,
    },
    /// The submitted spec failed validation.
    BadSpec {
        /// What was wrong with it.
        detail: String,
    },
    /// A snapshot failed to replay onto the restoring coordinator: the
    /// replayed event log diverged from the recorded one.
    RestoreDiverged {
        /// The first replayed wave at which the logs disagreed, or the
        /// wave count if the replayed log was a different length.
        wave: u64,
    },
    /// The session's routing machinery failed mid-run.
    Runtime(RuntimeError),
    /// A client-side transport failure talking to a remote service.
    Net(discsp_net::NetError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded => {
                f.write_str("service overloaded: global session budget exhausted")
            }
            ServiceError::Draining => f.write_str("service draining: no new sessions admitted"),
            ServiceError::DuplicateSession { id } => {
                write!(f, "session {id} is already live")
            }
            ServiceError::UnknownSession { id } => write!(f, "no live session {id}"),
            ServiceError::BadSpec { detail } => write!(f, "bad session spec: {detail}"),
            ServiceError::RestoreDiverged { wave } => {
                write!(
                    f,
                    "snapshot replay diverged from the recorded log at wave {wave}"
                )
            }
            ServiceError::Runtime(e) => write!(f, "session runtime error: {e}"),
            ServiceError::Net(e) => write!(f, "service transport error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Runtime(e) => Some(e),
            ServiceError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ServiceError {
    fn from(e: RuntimeError) -> Self {
        ServiceError::Runtime(e)
    }
}

impl From<discsp_net::NetError> for ServiceError {
    fn from(e: discsp_net::NetError) -> Self {
        ServiceError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        assert!(ServiceError::Overloaded.to_string().contains("budget"));
        let e = ServiceError::DuplicateSession { id: 7 };
        assert!(e.to_string().contains('7'));
        let e = ServiceError::BadSpec {
            detail: "empty problem".into(),
        };
        assert!(e.to_string().contains("empty problem"));
        let e = ServiceError::RestoreDiverged { wave: 3 };
        assert!(e.to_string().contains('3'));
    }
}
