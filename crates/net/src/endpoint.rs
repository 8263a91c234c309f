//! The agent endpoint: one process (or thread) serving one agent.
//!
//! An endpoint connects to the coordinator, claims its index with
//! `Hello`, receives its [`AgentSlice`](crate::AgentSlice) in `Assign`,
//! instantiates the algorithm named by the slice's
//! [`AlgoSpec`](crate::AlgoSpec), and then answers every
//! `Start`/`Deliver`/`Nudge` frame with a `Step` until `Stop` arrives,
//! at which point it ships its statistics home in `Final` and exits.
//!
//! The endpoint is a pure protocol follower: it never reads a clock and
//! never initiates traffic, which is what makes the coordinator's relay
//! queue an exact in-flight set.

use std::net::SocketAddr;
use std::time::Duration;

use discsp_awc::AwcAgent;
use discsp_core::{CoreError, Wire};
use discsp_dba::DbaAgent;
use discsp_runtime::{DistributedAgent, Outbox, RingBuffer, StepRecorder};

use crate::frame::{RunFrame, SetupFrame};
use crate::topology::AlgoSpec;
use crate::transport::{connect_with_retry, FrameConn};
use crate::NetError;

/// How many times the endpoint retries its initial connect while the
/// coordinator may still be binding, and how long it waits between
/// attempts.
const CONNECT_ATTEMPTS: u32 = 100;
const CONNECT_BACKOFF: Duration = Duration::from_millis(50);

/// Runs one agent endpoint to completion: connect, handshake as agent
/// `index`, serve the session, report statistics, return.
///
/// # Errors
///
/// Any [`NetError`]: connect failure after retries, a malformed or
/// out-of-phase frame, an initial value outside its domain, socket
/// failures mid-session.
pub fn run_agent(addr: SocketAddr, index: u32, io_timeout: Duration) -> Result<(), NetError> {
    let stream = connect_with_retry(addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF)?;
    let mut conn = FrameConn::new(stream, io_timeout)?;
    conn.send(&SetupFrame::Hello { index })?;
    let (slice, record_trace) = match conn.recv::<SetupFrame>()? {
        SetupFrame::Assign {
            slice,
            record_trace,
        } => (slice, record_trace),
        SetupFrame::Hello { .. } => return Err(NetError::UnexpectedFrame { expected: "Assign" }),
    };
    // The codec already rejects out-of-domain initial values, but the
    // agent constructors assert this invariant — re-check it here so a
    // protocol bug surfaces as a typed error, not a panic.
    if !slice.domain.contains(slice.init) {
        return Err(CoreError::BadInitialValue { var: slice.var }.into());
    }
    match slice.algo {
        AlgoSpec::Awc(config) => {
            let mut agent = AwcAgent::new(
                slice.agent,
                slice.var,
                slice.domain,
                slice.init,
                &slice.nogoods,
                slice.neighbors,
                config,
            );
            serve(&mut conn, &mut agent, record_trace)
        }
        AlgoSpec::Dba(mode) => {
            let mut agent = DbaAgent::new(
                slice.agent,
                slice.var,
                slice.domain,
                slice.init,
                &slice.nogoods,
                slice.neighbors,
                mode,
            );
            serve(&mut conn, &mut agent, record_trace)
        }
    }
}

/// Serves the run phase: one `Step` per `Start`/`Deliver`/`Nudge`, then
/// `Final` on `Stop`.
///
/// With `record_trace` on, the endpoint records its local per-step
/// events (steps, value/priority changes, learned nogoods) timestamped
/// with the coordinator's virtual tick, and ships them home inside the
/// `Final` frame. Link-level events (`Sent`/`Delivered`/`Fault`) belong
/// to the coordinator's router, never to an endpoint.
fn serve<A>(conn: &mut FrameConn, agent: &mut A, record_trace: bool) -> Result<(), NetError>
where
    A: DistributedAgent,
    A::Message: Wire,
{
    let mut sink = if record_trace {
        RingBuffer::new()
    } else {
        RingBuffer::disabled()
    };
    let mut recorder = StepRecorder::new();
    loop {
        let mut out = Outbox::new(agent.id());
        let tick = match conn.recv::<RunFrame<A::Message>>()? {
            RunFrame::Start => {
                agent.on_start(&mut out);
                0
            }
            RunFrame::Deliver { tick, msgs } => {
                agent.on_batch(msgs, &mut out);
                tick
            }
            RunFrame::Nudge { tick } => {
                agent.on_nudge(&mut out);
                tick
            }
            RunFrame::Stop => {
                conn.send(&RunFrame::<A::Message>::Final {
                    stats: agent.stats(),
                    leftover_checks: agent.take_checks(),
                    trace: sink.take(),
                })?;
                return Ok(());
            }
            RunFrame::Step { .. } | RunFrame::Final { .. } => {
                return Err(NetError::UnexpectedFrame {
                    expected: "Start, Deliver, Nudge, or Stop",
                })
            }
        };
        // One drain serves both the Step reply and the trace: draining
        // twice would charge the checks to the wrong wave.
        let checks = agent.take_checks();
        recorder.record_step(agent, tick, checks, &mut sink);
        conn.send(&RunFrame::Step {
            out: out.drain(),
            checks,
            assignments: agent.assignments(),
            insoluble: agent.detected_insoluble(),
        })?;
    }
}
