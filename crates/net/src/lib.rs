//! Multi-process TCP transport for DisCSP solve sessions.
//!
//! Every other runtime in this workspace executes all agents inside one
//! OS process. This crate runs a solve session as **one coordinator
//! process plus N agent processes** talking over TCP:
//!
//! * a length-prefixed binary wire codec with versioned frames
//!   ([`SetupFrame`], [`RunFrame`]), hand-rolled on the
//!   [`Wire`](discsp_core::Wire) trait — no serde, no external deps;
//! * a handshake/topology phase where the coordinator ships each agent
//!   its slice of the [`DistributedCsp`](discsp_core::DistributedCsp)
//!   ([`AgentSlice`]);
//! * a networked quiescence/solution detector: the coordinator relays
//!   every message, so its [`Router`](discsp_runtime::Router) queue *is*
//!   the in-flight set — the same consistent-snapshot argument as the
//!   in-process runtimes, now across sockets;
//! * end-of-run metrics aggregation: each agent ships its
//!   [`AgentStats`](discsp_runtime::AgentStats) home in a `Final` frame,
//!   so `cycle`/`maxcck` accounting survives the process boundary.
//!
//! The deterministic [`LinkPolicy`](discsp_runtime::LinkPolicy) fault
//! machinery is wired in at the socket layer: the coordinator's relay
//! path routes every frame through the same per-link seeded fault
//! lottery as `run_virtual`, so a lossy-network run replays its fault
//! counters bit-for-bit from `(seed, policy)` — the determinism boundary
//! is the *fault schedule*, not OS scheduling (see DESIGN.md §9).
//!
//! Entry points: [`SolveNet::solve_net`] on
//! [`AwcSolver`](discsp_awc::AwcSolver) /
//! [`DbaSolver`](discsp_dba::DbaSolver), and the `discsp-net` binary,
//! which can play either role (`agent` / `demo`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::Duration;

use discsp_core::{CoreError, WireError};
use discsp_runtime::{RuntimeError, VirtualConfig};

mod coordinator;
mod endpoint;
mod frame;
pub mod service;
mod solve;
mod topology;
mod transport;

pub use coordinator::{run_session, NetReport};
pub use endpoint::run_agent;
pub use frame::{Mux, MuxWire, RunFrame, SetupFrame, MAX_FRAME_LEN, SESSION_NONE, WIRE_VERSION};
pub use service::{RejectReason, ServiceFrame, SessionOutcome, SubmitSpec};
pub use solve::{AgentLaunch, SolveNet};
pub use topology::{build_slices, AgentSlice, AlgoSpec};
pub use transport::{Deadline, FrameConn};

/// Configuration of a networked solve session: the deterministic run
/// configuration the coordinator's wave engine runs under, plus the
/// socket timeouts.
///
/// `base` means what it means to
/// [`run_virtual`](discsp_runtime::run_virtual): the `(seed, link)` pair,
/// or a recorded `schedule`, fully determines the faults on the
/// coordinator's relay path, so a failing lossy run replays from `base`
/// alone. With `base.record_trace` the report carries the router's
/// link-level events plus each endpoint's per-step events (shipped home
/// in `Final` frames), merged into [`NetReport::trace`](crate::NetReport).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Seed, faults, budgets, stop rule and trace switch of the run.
    pub base: VirtualConfig,
    /// How long the coordinator waits for all agents to connect and
    /// complete the handshake.
    pub handshake_timeout: Duration,
    /// Per-socket read/write timeout during the run. `Duration::ZERO`
    /// means block indefinitely.
    pub io_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base: VirtualConfig::default(),
            handshake_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// Everything that can go wrong in a networked solve session.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io {
        /// What the session was doing when the I/O failed.
        context: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A frame failed to encode within limits or decode at all.
    Wire(WireError),
    /// A frame exceeded [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// Announced or actual frame length.
        len: u64,
    },
    /// The peer sent a frame that is valid but wrong for the current
    /// protocol phase.
    UnexpectedFrame {
        /// The phase or frame that was expected instead.
        expected: &'static str,
    },
    /// Not every agent connected within the handshake window.
    HandshakeTimeout {
        /// Agents that did connect.
        connected: usize,
        /// Agents the session needs.
        expected: usize,
    },
    /// An agent connected but did not complete its `Hello` within the
    /// handshake window — a stalled client must not wedge session setup.
    HelloTimeout {
        /// Agents that completed the greeting.
        completed: usize,
        /// Agents the session needs.
        expected: usize,
    },
    /// An agent greeted with an index outside `0..n`.
    BadAgentIndex {
        /// The offending index.
        index: u32,
        /// The population size.
        population: usize,
    },
    /// Two agents greeted with the same index.
    DuplicateAgentIndex {
        /// The contested index.
        index: u32,
    },
    /// The problem or the initial values do not fit the algorithm (an
    /// agent owns other than one variable, or an initial value is
    /// missing or out of domain), found before any network activity.
    Problem(CoreError),
    /// An agent process or thread failed outside the protocol.
    AgentFailed {
        /// The agent's index.
        index: u32,
        /// What happened.
        detail: String,
    },
    /// The shared routing machinery rejected a message.
    Runtime(RuntimeError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { context, error } => write!(f, "i/o failure while {context}: {error}"),
            NetError::Wire(e) => write!(f, "wire codec error: {e}"),
            NetError::FrameTooLong { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )
            }
            NetError::UnexpectedFrame { expected } => {
                write!(f, "unexpected frame: expected {expected}")
            }
            NetError::HandshakeTimeout {
                connected,
                expected,
            } => write!(
                f,
                "handshake timed out with {connected} of {expected} agents connected"
            ),
            NetError::HelloTimeout {
                completed,
                expected,
            } => write!(
                f,
                "handshake timed out with {completed} of {expected} agents greeted \
                 (a connected client stalled before Hello)"
            ),
            NetError::BadAgentIndex { index, population } => {
                write!(f, "agent index {index} outside population of {population}")
            }
            NetError::DuplicateAgentIndex { index } => {
                write!(f, "two agents claimed index {index}")
            }
            NetError::Problem(e) => write!(f, "problem does not fit the algorithm: {e}"),
            NetError::AgentFailed { index, detail } => {
                write!(f, "agent {index} failed: {detail}")
            }
            NetError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { error, .. } => Some(error),
            NetError::Wire(e) => Some(e),
            NetError::Problem(e) => Some(e),
            NetError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<CoreError> for NetError {
    fn from(e: CoreError) -> Self {
        NetError::Problem(e)
    }
}

impl From<RuntimeError> for NetError {
    fn from(e: RuntimeError) -> Self {
        NetError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_perfect_and_bounded() {
        let config = NetConfig::default();
        assert!(config.base.link.is_perfect());
        assert!(config.base.schedule.is_none());
        assert!(!config.base.stop_on_first_solution);
        assert!(config.base.max_ticks > 0);
        assert!(config.handshake_timeout > Duration::ZERO);
    }

    #[test]
    fn errors_render_their_context() {
        let e = NetError::HandshakeTimeout {
            connected: 2,
            expected: 5,
        };
        assert!(e.to_string().contains("2 of 5"));
        let e = NetError::BadAgentIndex {
            index: 9,
            population: 3,
        };
        assert!(e.to_string().contains('9'));
        let e = NetError::Wire(WireError::Trailing { remaining: 4 });
        assert!(std::error::Error::source(&e).is_some());
    }
}
