//! The coordinator: runs a solve session over sockets.
//!
//! After the handshake the session is the runtime's
//! [`WaveEngine`](discsp_runtime::WaveEngine), the same control loop as
//! the in-process `run_virtual` executor, stepping the agents through
//! `Start`/`Deliver`/`Nudge` and `Step` frame exchanges instead of calls.
//! This module is only that socket fan-out. The engine relays every
//! inter-agent message through its [`Router`](discsp_runtime::Router),
//! which gives two properties for free:
//!
//! * **exact quiescence detection** — the router's queue is the
//!   in-flight set (agents only send in reply to a delivery the
//!   coordinator made), so "queue empty" is a consistent snapshot
//!   boundary even though the agents live in other processes;
//! * **replayable faults** — the router consumes each per-link
//!   SplitMix64 stream in the same order as `run_virtual` would for the
//!   same traffic, so a lossy run's fault counters replay bit-for-bit
//!   from `(seed, policy)`.
//!
//! Each wave's frames go out to every agent involved before any reply is
//! read, so the agents step concurrently; the replies are read back in
//! ascending agent index, the order the engine merges in. `maxcck` (the
//! paper's sum over cycles of the per-cycle maximum of agents' nogood
//! checks) is therefore accumulated per wave exactly as in-process.

use std::net::TcpListener;

use discsp_core::{AgentId, DistributedCsp, TrialOutcome, Wire};
use discsp_runtime::{Admission, Classify, Direct, Merge, Stepper, Teardown, Wave, WaveEngine};
use discsp_trace::{canonical_sort, RuntimeKind, TraceEvent, TraceSink};

use crate::frame::{RunFrame, SetupFrame};
use crate::topology::AgentSlice;
use crate::transport::{accept_agents, Deadline, FrameConn};
use crate::{NetConfig, NetError};

/// What a networked session reports, mirroring
/// [`VirtualReport`](discsp_runtime::VirtualReport), event trace
/// included: the coordinator records the router's link-level events,
/// each endpoint ships its per-step events home in `Final`, and the
/// merged, canonically sorted stream lands in [`NetReport::trace`].
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Metrics and (for solved runs) the solution.
    pub outcome: TrialOutcome,
    /// Final virtual tick of the relay clock.
    pub ticks: u64,
    /// Agent activations (delivery batches processed, including starts).
    pub activations: u64,
    /// Stall-triggered recovery passes consumed.
    pub nudges: u64,
    /// The session's merged event trace, empty unless `record_trace` is
    /// set in [`NetConfig::base`](crate::NetConfig::base).
    pub trace: Vec<TraceEvent>,
}

/// The engine's socket fan-out stepper: one connection per agent, in
/// agent-index order.
struct Sockets {
    conns: Vec<FrameConn>,
}

impl Sockets {
    fn conn(&mut self, index: usize) -> Result<&mut FrameConn, NetError> {
        let population = self.conns.len();
        self.conns.get_mut(index).ok_or(NetError::BadAgentIndex {
            index: index as u32,
            population,
        })
    }

    /// Sends `frame` to every agent; all of them reply.
    fn broadcast<M: Wire>(&mut self, frame: &RunFrame<M>) -> Result<Vec<usize>, NetError> {
        for conn in self.conns.iter_mut() {
            conn.send(frame)?;
        }
        Ok((0..self.conns.len()).collect())
    }

    /// Reads agent `index`'s next frame, blaming socket failures on it.
    fn recv<M: Wire>(&mut self, index: usize) -> Result<RunFrame<M>, NetError> {
        match self.conn(index)?.recv::<RunFrame<M>>() {
            Err(NetError::Io { context, error }) => Err(NetError::AgentFailed {
                index: index as u32,
                detail: format!("i/o failure while {context}: {error}"),
            }),
            other => other,
        }
    }
}

impl<M: Wire + Classify + Clone> Stepper<M> for Sockets {
    type Error = NetError;

    fn step<G: Admission<M>>(
        &mut self,
        wave: Wave<M>,
        merge: &mut Merge<'_, M, G>,
    ) -> Result<(), NetError> {
        let tick = merge.tick();
        let recipients = match wave {
            Wave::Start => self.broadcast(&RunFrame::<M>::Start)?,
            Wave::Nudge => self.broadcast(&RunFrame::<M>::Nudge { tick })?,
            Wave::Deliver(inboxes) => {
                let mut recipients = Vec::with_capacity(inboxes.len());
                for (recipient, msgs) in inboxes {
                    self.conn(recipient)?
                        .send(&RunFrame::Deliver { tick, msgs })?;
                    recipients.push(recipient);
                }
                recipients
            }
        };
        for index in recipients {
            let RunFrame::Step {
                out,
                checks,
                assignments,
                insoluble,
            } = self.recv::<M>(index)?
            else {
                return Err(NetError::UnexpectedFrame { expected: "Step" });
            };
            // Endpoints record their own step events and ship them home
            // in `Final`.
            merge.activation(checks, insoluble, assignments, |_| {}, out)?;
        }
        Ok(())
    }

    fn finish(&mut self, teardown: &mut Teardown<'_>) -> Result<(), NetError> {
        self.broadcast(&RunFrame::<M>::Stop)?;
        for index in 0..self.conns.len() {
            let RunFrame::Final {
                stats,
                leftover_checks,
                trace,
            } = self.recv::<M>(index)?
            else {
                return Err(NetError::UnexpectedFrame { expected: "Final" });
            };
            teardown.agent(AgentId::new(index as u32), leftover_checks, stats);
            for event in trace {
                teardown.sink().record(event);
            }
        }
        Ok(())
    }
}

/// Accepts `slices.len()` agent connections on `listener`, completes the
/// handshake, and drives the session to termination, aggregating every
/// agent's statistics into a single [`RunMetrics`](discsp_core::RunMetrics).
///
/// The generic parameter `M` is the algorithm's message type; it must
/// match what the agents instantiate from their
/// [`AlgoSpec`](crate::AlgoSpec) or the first relayed frame fails to
/// decode with a typed error.
///
/// # Errors
///
/// Any [`NetError`]: handshake timeout, bad or duplicate agent indices,
/// socket failures (attributed to the offending agent), codec errors.
pub fn run_session<M>(
    listener: &TcpListener,
    problem: &DistributedCsp,
    slices: &[AgentSlice],
    config: &NetConfig,
) -> Result<NetReport, NetError>
where
    M: Wire + Classify + Clone,
{
    let n = slices.len();

    // --- Handshake: every agent says Hello, gets its Assign. ---------
    // One deadline bounds both phases: accepting the sockets and
    // collecting the greetings. A client that connects and then goes
    // silent therefore fails the handshake with a typed error instead
    // of wedging setup on an unbounded read.
    let deadline = Deadline::new(config.handshake_timeout);
    let streams = accept_agents(listener, n, &deadline)?;
    let mut slots: Vec<Option<FrameConn>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    // `greeted` counts connections that already completed their Hello:
    // every earlier iteration either greeted successfully or returned.
    for (greeted, stream) in streams.into_iter().enumerate() {
        let mut conn = FrameConn::new(stream, config.io_timeout)?;
        let Some(remaining) = deadline.remaining() else {
            return Err(NetError::HelloTimeout {
                completed: greeted,
                expected: n,
            });
        };
        conn.set_io_timeout(remaining)?;
        let index = match conn.recv::<SetupFrame>() {
            Ok(SetupFrame::Hello { index }) => index,
            Ok(SetupFrame::Assign { .. }) => {
                return Err(NetError::UnexpectedFrame { expected: "Hello" })
            }
            Err(NetError::Io { context: _, error })
                if matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(NetError::HelloTimeout {
                    completed: greeted,
                    expected: n,
                })
            }
            Err(e) => return Err(e),
        };
        conn.set_io_timeout(config.io_timeout)?;
        let slot = slots
            .get_mut(index as usize)
            .ok_or(NetError::BadAgentIndex {
                index,
                population: n,
            })?;
        if slot.is_some() {
            return Err(NetError::DuplicateAgentIndex { index });
        }
        let slice = slices
            .get(index as usize)
            .cloned()
            .ok_or(NetError::BadAgentIndex {
                index,
                population: n,
            })?;
        conn.send(&SetupFrame::Assign {
            record_trace: config.base.record_trace,
            slice,
        })?;
        *slot = Some(conn);
    }
    let mut conns: Vec<FrameConn> = Vec::with_capacity(n);
    for (index, slot) in slots.into_iter().enumerate() {
        conns.push(slot.ok_or(NetError::AgentFailed {
            index: index as u32,
            detail: "connection lost between Hello and session start".to_string(),
        })?);
    }

    // --- Session: the wave engine, stepping agents over sockets. ------
    let engine: WaveEngine<M> = WaveEngine::new(n, problem, &config.base, RuntimeKind::Net, Direct);
    let mut report = engine.run(problem, &mut Sockets { conns })?;
    // The endpoints' events arrived last; the canonical order interleaves
    // them with the router's (`RunEnd` sorts last).
    canonical_sort(&mut report.trace);
    Ok(NetReport {
        outcome: report.outcome,
        ticks: report.ticks,
        activations: report.activations,
        nudges: report.nudges,
        trace: report.trace,
    })
}
