//! Protocol frames.
//!
//! Every frame travels as `[u32 length ‖ version ‖ tag ‖ session:u64
//! ‖ body]`: the length prefix is added by the transport
//! ([`FrameConn`]), while the version byte, tag, and session ID are part
//! of the frame encoding itself, so a captured frame is
//! self-describing. The protocol has three strict phases with disjoint
//! tag spaces:
//!
//! * **setup** ([`SetupFrame`], tags 0–1): `Hello` (agent → coordinator)
//!   and `Assign` (coordinator → agent), exchanged once per connection;
//! * **run** ([`RunFrame`], tags 2–7): `Start`/`Deliver`/`Nudge`/`Stop`
//!   from the coordinator, answered by `Step`/`Final` from the agent;
//! * **service** ([`ServiceFrame`], tags 8–16): the multi-session solve
//!   service's request/response vocabulary (see [`crate::service`]).
//!
//! Decoding a frame from the wrong phase fails with a typed
//! [`WireError::BadTag`] — a desynchronized peer is detected at the
//! first frame, not after undefined behavior.
//!
//! ## Versioning and the session ID
//!
//! A `u64` session ID sits between the tag and the body so one
//! connection can interleave frames of many concurrent sessions (the
//! multi-session solve service); session 0 is reserved for
//! single-session peers. Every peer is built from this workspace, so a
//! frame of any other version than [`WIRE_VERSION`] is refused, not
//! translated. The session-aware entry points are
//! [`MuxWire::encode_mux`]/[`MuxWire::decode_mux`] and the [`Mux`]
//! wrapper; the plain [`Wire`] impls delegate to them with session 0,
//! so single-session code never names a session.
//!
//! ## Traces
//!
//! A frame that carries an event trace (`RunFrame::Final`, and the
//! service's `SessionOutcome`) holds it as one length-prefixed UTF-8
//! string of JSONL text, the same bytes a trace file holds
//! ([`discsp_trace::trace_to_jsonl`]), so the trace schema has one
//! codec. Text that is not UTF-8 or not a trace decodes to
//! [`WireError::Invalid`].
//!
//! [`FrameConn`]: crate::transport::FrameConn
//! [`ServiceFrame`]: crate::service::ServiceFrame

use discsp_core::{VarValue, Wire, WireError, WireReader};
use discsp_runtime::{AgentStats, Envelope};
use discsp_trace::{parse_trace, trace_to_jsonl, TraceEvent};

use crate::topology::AgentSlice;

/// Version byte carried by every frame. Bump on any incompatible change
/// to a frame layout or to the encoding of a type inside one.
/// Version 2 added `record_trace` to `Assign`, the virtual tick to
/// `Deliver`/`Nudge`, and the agent's event trace to `Final`.
/// Version 3 added the `u64` session ID to the header.
/// Version 4 dropped `n_agents`, `seed` and `policy` from `Assign` and
/// the forget limit from `AwcConfig`, and retired trace event tag 9.
/// Version 5 carries a trace as JSONL text, not as binary events.
/// Decoding accepts this version only.
pub const WIRE_VERSION: u8 = 5;

/// The session ID used by single-session peers: "not multiplexed".
pub const SESSION_NONE: u64 = 0;

/// Upper bound on one frame's encoded body, enforced on both send and
/// receive: a corrupt length prefix must not provoke a gigabyte
/// allocation.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

pub(crate) fn encode_header(tag: u8, session: u64, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    out.push(tag);
    session.encode(out);
}

pub(crate) fn decode_header(
    r: &mut WireReader<'_>,
    context: &'static str,
) -> Result<(u8, u64), WireError> {
    let version = r.u8(context)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion {
            got: version,
            expected: WIRE_VERSION,
        });
    }
    let tag = r.u8(context)?;
    let session = r.u64(context)?;
    Ok((tag, session))
}

/// Appends a trace as one length-prefixed string of JSONL text.
pub(crate) fn encode_trace(trace: &[TraceEvent], out: &mut Vec<u8>) {
    let text = trace_to_jsonl(trace);
    (text.len() as u32).encode(out);
    out.extend_from_slice(text.as_bytes());
}

/// Reads a trace written by [`encode_trace`]. Text that is not UTF-8,
/// or a line that is not an event, is [`WireError::Invalid`] against
/// `context`.
pub(crate) fn decode_trace(
    r: &mut WireReader<'_>,
    context: &'static str,
) -> Result<Vec<TraceEvent>, WireError> {
    let len = r.len_prefix(context)?;
    let text =
        std::str::from_utf8(r.take(len, context)?).map_err(|_| WireError::Invalid { context })?;
    parse_trace(text).map_err(|_| WireError::Invalid { context })
}

/// Frame types that carry a session ID in their header.
///
/// Implementors encode as `[version ‖ tag ‖ session ‖ body]`; the plain
/// [`Wire`] impl on the same type delegates here with
/// [`SESSION_NONE`], so session-oblivious peers interoperate for free.
pub trait MuxWire: Sized {
    /// Encodes the frame with an explicit session ID in the header.
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>);

    /// Decodes a frame, returning the session ID from its header.
    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError>;
}

/// A frame paired with its session ID, for connections that interleave
/// sessions. `Mux<F>` is itself [`Wire`], so it flows through
/// [`FrameConn`] unchanged.
///
/// [`FrameConn`]: crate::transport::FrameConn
#[derive(Debug, Clone, PartialEq)]
pub struct Mux<F> {
    /// The session this frame belongs to.
    pub session: u64,
    /// The frame itself.
    pub frame: F,
}

impl<F> Mux<F> {
    /// Pairs a frame with a session ID.
    pub fn new(session: u64, frame: F) -> Self {
        Mux { session, frame }
    }
}

impl<F: MuxWire> Wire for Mux<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.frame.encode_mux(self.session, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (session, frame) = F::decode_mux(r)?;
        Ok(Mux { session, frame })
    }
}

/// Handshake-phase frames.
#[derive(Debug, Clone, PartialEq)]
pub enum SetupFrame {
    /// Agent → coordinator: claims a slot in the population.
    Hello {
        /// The agent's index in `0..n`.
        index: u32,
    },
    /// Coordinator → agent: ships the agent its slice of the problem,
    /// completing the handshake. The run seed and link policy stay with
    /// the coordinator, which injects faults on its relay path.
    Assign {
        /// Whether the agent should record its local event trace and
        /// ship it home in `Final`.
        record_trace: bool,
        /// This agent's slice of the problem.
        slice: AgentSlice,
    },
}

impl MuxWire for SetupFrame {
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>) {
        match self {
            SetupFrame::Hello { index } => {
                encode_header(0, session, out);
                index.encode(out);
            }
            SetupFrame::Assign {
                record_trace,
                slice,
            } => {
                encode_header(1, session, out);
                record_trace.encode(out);
                slice.encode(out);
            }
        }
    }

    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError> {
        let (tag, session) = decode_header(r, "SetupFrame")?;
        let frame = match tag {
            0 => Ok(SetupFrame::Hello {
                index: r.u32("SetupFrame.Hello.index")?,
            }),
            1 => {
                let record_trace = bool::decode(r)?;
                let slice = AgentSlice::decode(r)?;
                Ok(SetupFrame::Assign {
                    record_trace,
                    slice,
                })
            }
            tag => Err(WireError::BadTag {
                context: "SetupFrame",
                tag,
            }),
        }?;
        Ok((session, frame))
    }
}

impl Wire for SetupFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_mux(SESSION_NONE, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (_session, frame) = Self::decode_mux(r)?;
        Ok(frame)
    }
}

/// Run-phase frames, generic over the algorithm's message type.
#[derive(Debug, Clone, PartialEq)]
pub enum RunFrame<M> {
    /// Coordinator → agent: announce your initial state.
    Start,
    /// Coordinator → agent: a batch of messages due this virtual tick.
    Deliver {
        /// The virtual tick the batch is delivered at, so the agent can
        /// timestamp its trace events on the coordinator's clock.
        tick: u64,
        /// The batch, in deterministic enqueue order.
        msgs: Vec<Envelope<M>>,
    },
    /// Coordinator → agent: the system stalled; re-announce your state
    /// so views staled by lost traffic heal.
    Nudge {
        /// The virtual tick of the recovery pass.
        tick: u64,
    },
    /// Agent → coordinator: the reply to `Start`/`Deliver`/`Nudge`.
    Step {
        /// Messages the agent sent this activation.
        out: Vec<Envelope<M>>,
        /// Nogood checks performed since the last step.
        checks: u64,
        /// The agent's current assignments (consistent-snapshot input).
        assignments: Vec<VarValue>,
        /// Whether the agent derived the empty nogood.
        insoluble: bool,
    },
    /// Coordinator → agent: the session is over; send `Final` and exit.
    Stop,
    /// Agent → coordinator: end-of-run statistics, so metrics
    /// aggregation survives the process boundary.
    Final {
        /// The agent's accumulated learning/messaging statistics.
        stats: AgentStats,
        /// Checks performed since the last `Step` reply.
        leftover_checks: u64,
        /// The agent's local event stream (steps, value/priority
        /// changes, learned nogoods), empty unless `Assign` requested
        /// recording. The coordinator merges it with the router's
        /// link-level events into the session trace.
        trace: Vec<TraceEvent>,
    },
}

impl<M: Wire> MuxWire for RunFrame<M> {
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>) {
        match self {
            RunFrame::Start => encode_header(2, session, out),
            RunFrame::Deliver { tick, msgs } => {
                encode_header(3, session, out);
                tick.encode(out);
                msgs.encode(out);
            }
            RunFrame::Nudge { tick } => {
                encode_header(4, session, out);
                tick.encode(out);
            }
            RunFrame::Step {
                out: sent,
                checks,
                assignments,
                insoluble,
            } => {
                encode_header(5, session, out);
                sent.encode(out);
                checks.encode(out);
                assignments.encode(out);
                insoluble.encode(out);
            }
            RunFrame::Stop => encode_header(6, session, out),
            RunFrame::Final {
                stats,
                leftover_checks,
                trace,
            } => {
                encode_header(7, session, out);
                stats.encode(out);
                leftover_checks.encode(out);
                encode_trace(trace, out);
            }
        }
    }

    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError> {
        let (tag, session) = decode_header(r, "RunFrame")?;
        let frame = match tag {
            2 => Ok(RunFrame::Start),
            3 => Ok(RunFrame::Deliver {
                tick: r.u64("RunFrame.Deliver.tick")?,
                msgs: Vec::<Envelope<M>>::decode(r)?,
            }),
            4 => Ok(RunFrame::Nudge {
                tick: r.u64("RunFrame.Nudge.tick")?,
            }),
            5 => {
                let out = Vec::<Envelope<M>>::decode(r)?;
                let checks = r.u64("RunFrame.Step.checks")?;
                let assignments = Vec::<VarValue>::decode(r)?;
                let insoluble = bool::decode(r)?;
                Ok(RunFrame::Step {
                    out,
                    checks,
                    assignments,
                    insoluble,
                })
            }
            6 => Ok(RunFrame::Stop),
            7 => {
                let stats = AgentStats::decode(r)?;
                let leftover_checks = r.u64("RunFrame.Final.leftover_checks")?;
                let trace = decode_trace(r, "RunFrame.Final.trace")?;
                Ok(RunFrame::Final {
                    stats,
                    leftover_checks,
                    trace,
                })
            }
            tag => Err(WireError::BadTag {
                context: "RunFrame",
                tag,
            }),
        }?;
        Ok((session, frame))
    }
}

impl<M: Wire> Wire for RunFrame<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_mux(SESSION_NONE, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (_session, frame) = Self::decode_mux(r)?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_awc::AwcMessage;
    use discsp_core::{AgentId, Priority, Value, VariableId};

    fn env(from: u32, to: u32) -> Envelope<AwcMessage> {
        Envelope::new(
            AgentId::new(from),
            AgentId::new(to),
            AwcMessage::Ok {
                var: VariableId::new(from),
                value: Value::new(1),
                priority: Priority::new(2),
            },
        )
    }

    #[test]
    fn run_frames_roundtrip() {
        let frames: Vec<RunFrame<AwcMessage>> = vec![
            RunFrame::Start,
            RunFrame::Deliver {
                tick: 12,
                msgs: vec![env(0, 1), env(2, 1)],
            },
            RunFrame::Nudge { tick: 13 },
            RunFrame::Step {
                out: vec![env(1, 0)],
                checks: 17,
                assignments: vec![VarValue::new(VariableId::new(1), Value::new(2))],
                insoluble: false,
            },
            RunFrame::Stop,
            RunFrame::Final {
                stats: AgentStats::default(),
                leftover_checks: 3,
                trace: vec![discsp_trace::TraceEvent::AgentStep {
                    cycle: 12,
                    agent: AgentId::new(1),
                    checks: 17,
                }],
            },
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            assert_eq!(bytes.first(), Some(&WIRE_VERSION));
            assert_eq!(
                RunFrame::<AwcMessage>::from_bytes(&bytes).as_ref(),
                Ok(&frame)
            );
        }
    }

    #[test]
    fn phases_have_disjoint_tags() {
        // A setup frame decoded as a run frame (and vice versa) fails
        // with BadTag, never misparses.
        let hello = SetupFrame::Hello { index: 3 }.to_bytes();
        assert!(matches!(
            RunFrame::<AwcMessage>::from_bytes(&hello),
            Err(WireError::BadTag {
                context: "RunFrame",
                ..
            })
        ));
        let start = RunFrame::<AwcMessage>::Start.to_bytes();
        assert!(matches!(
            SetupFrame::from_bytes(&start),
            Err(WireError::BadTag {
                context: "SetupFrame",
                ..
            })
        ));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // Versions 2 to 4 are retired: no peer speaks them.
        for bad in [WIRE_VERSION + 1, 4, 3, 2, 0] {
            let mut bytes = RunFrame::<AwcMessage>::Start.to_bytes();
            if let Some(first) = bytes.first_mut() {
                *first = bad;
            }
            assert_eq!(
                RunFrame::<AwcMessage>::from_bytes(&bytes),
                Err(WireError::BadVersion {
                    got: bad,
                    expected: WIRE_VERSION,
                })
            );
        }
    }

    #[test]
    fn a_final_trace_that_is_not_jsonl_is_a_typed_error() {
        let mut bytes = Vec::new();
        encode_header(7, SESSION_NONE, &mut bytes);
        AgentStats::default().encode(&mut bytes);
        3u64.encode(&mut bytes);
        let good = bytes.clone();
        // The last text nests 50,000 objects deep, which would overflow
        // the stack of a parser without a depth bound.
        let deep = "{\"\":".repeat(50_000);
        for text in [&b"not a trace\n"[..], &[0xFF, 0xFE, b'\n'], deep.as_bytes()] {
            let mut bytes = good.clone();
            (text.len() as u32).encode(&mut bytes);
            bytes.extend_from_slice(text);
            assert_eq!(
                RunFrame::<AwcMessage>::from_bytes(&bytes),
                Err(WireError::Invalid {
                    context: "RunFrame.Final.trace",
                })
            );
        }
    }

    #[test]
    fn session_id_roundtrips_through_mux() {
        let frame = Mux::new(0xDEAD_BEEF_CAFE_0001, SetupFrame::Hello { index: 7 });
        let bytes = frame.to_bytes();
        assert_eq!(Mux::<SetupFrame>::from_bytes(&bytes).as_ref(), Ok(&frame));

        let run = Mux::new(42, RunFrame::<AwcMessage>::Nudge { tick: 9 });
        let bytes = run.to_bytes();
        assert_eq!(
            Mux::<RunFrame<AwcMessage>>::from_bytes(&bytes).as_ref(),
            Ok(&run)
        );
    }

    #[test]
    fn plain_wire_impls_imply_session_none() {
        let bytes = SetupFrame::Hello { index: 3 }.to_bytes();
        let mux = Mux::<SetupFrame>::from_bytes(&bytes).expect("plain frame decodes as mux");
        assert_eq!(mux.session, SESSION_NONE);
        assert_eq!(mux.frame, SetupFrame::Hello { index: 3 });
    }

    #[test]
    fn truncated_session_field_is_a_typed_error() {
        // A header cut off inside the session ID must fail with
        // Truncated, never panic or misread the body as the session.
        let full = Mux::new(7, RunFrame::<AwcMessage>::Start).to_bytes();
        for len in 0..full.len() {
            assert!(Mux::<RunFrame<AwcMessage>>::from_bytes(&full[..len]).is_err());
        }
    }
}
