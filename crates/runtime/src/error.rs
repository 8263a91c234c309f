//! Runtime failure reporting.
//!
//! The runtimes report structural failures — misrouted messages, dead
//! shard workers — as values instead of panicking, so a single broken
//! agent degrades into a reported error rather than tearing down the
//! whole process (or, worse, deadlocking the remaining threads).

use std::error::Error;
use std::fmt;

use discsp_core::AgentId;

/// Errors raised by the runtimes while executing an agent population.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Agent *i* of the population did not report id *i*. The runtimes
    /// route messages by dense agent index, so a sparse or permuted
    /// population cannot be executed.
    NonDenseAgentIds {
        /// Position in the supplied population.
        position: usize,
        /// The id that agent actually reported.
        found: AgentId,
    },
    /// A message was addressed to an agent outside the population.
    UnknownRecipient {
        /// The nonexistent addressee.
        agent: AgentId,
    },
    /// A shard worker thread died mid-run (sharded runtime only): an
    /// agent panicked while its shard drained a wave. The panic also
    /// resurfaces when the worker scope unwinds.
    ShardWorkerDied {
        /// Index of the shard whose worker died.
        shard: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NonDenseAgentIds { position, found } => write!(
                f,
                "agent at position {position} reports id {found}; agents must be supplied in \
                 dense id order"
            ),
            RuntimeError::UnknownRecipient { agent } => {
                write!(f, "message addressed to unknown agent {agent}")
            }
            RuntimeError::ShardWorkerDied { shard } => {
                write!(
                    f,
                    "worker of shard {shard} died mid-run; its results are lost"
                )
            }
        }
    }
}

impl Error for RuntimeError {}
