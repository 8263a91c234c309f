//! The multi-session solve service's wire vocabulary.
//!
//! These frames ride the frame header ([`crate::frame`]) whose session ID
//! is the multiplexing key: a client submits many sessions over one
//! connection, each under a distinct nonzero session ID it chooses, and
//! the service's responses carry the same ID back. The tag space (8–16)
//! is disjoint from the setup (0–1) and run (2–7) phases, so a frame
//! that leaks across protocols fails with a typed
//! [`WireError::BadTag`](discsp_core::WireError).
//!
//! Client → service: [`ServiceFrame::Submit`] /
//! [`ServiceFrame::Cancel`] / [`ServiceFrame::Drain`].
//! Service → client: [`ServiceFrame::Accepted`] /
//! [`ServiceFrame::Rejected`] / [`ServiceFrame::Done`] /
//! [`ServiceFrame::DoneTooLong`] / [`ServiceFrame::Cancelled`] /
//! [`ServiceFrame::Drained`].
//!
//! The problem travels as an explicit [`SubmitSpec`] — domains, owners,
//! nogoods, initial assignment — rather than an opaque serialized
//! `DistributedCsp`, so the service re-validates through the same
//! builder path as every in-process solver and a hostile spec is
//! rejected, not trusted.

use std::fmt;

use discsp_core::{AgentId, Assignment, Domain, Nogood, RunMetrics, Wire, WireError, WireReader};
use discsp_runtime::LinkPolicy;
use discsp_trace::TraceEvent;

use crate::frame::{
    decode_header, decode_trace, encode_header, encode_trace, MuxWire, SESSION_NONE,
};
use crate::topology::AlgoSpec;

/// A complete solve request: the problem, the algorithm, and the
/// session parameters. Everything the service needs to build a
/// deterministic session — `(seed, link)` pins the fault schedule
/// exactly as in `VirtualConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitSpec {
    /// Per-variable domains; the vector index is the variable ID.
    pub domains: Vec<Domain>,
    /// Per-variable owning agents (same indexing).
    pub owners: Vec<AgentId>,
    /// The problem's constraint nogoods.
    pub nogoods: Vec<Nogood>,
    /// The initial assignment (must be total and in-domain).
    pub init: Assignment,
    /// The algorithm to run.
    pub algo: AlgoSpec,
    /// Seed deriving every per-link fault stream.
    pub seed: u64,
    /// Fault policy applied to every link.
    pub link: LinkPolicy,
    /// Tick budget; the session reports a cutoff beyond it.
    pub max_ticks: u64,
    /// Recovery-pass budget after quiescence under faults.
    pub max_nudges: u64,
    /// Whether the session records its event trace (shipped home in
    /// [`ServiceFrame::Done`]).
    pub record_trace: bool,
}

impl Wire for SubmitSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.domains.encode(out);
        self.owners.encode(out);
        self.nogoods.encode(out);
        self.init.encode(out);
        self.algo.encode(out);
        self.seed.encode(out);
        self.link.encode(out);
        self.max_ticks.encode(out);
        self.max_nudges.encode(out);
        self.record_trace.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let domains = Vec::<Domain>::decode(r)?;
        let owners = Vec::<AgentId>::decode(r)?;
        let nogoods = Vec::<Nogood>::decode(r)?;
        let init = Assignment::decode(r)?;
        let algo = AlgoSpec::decode(r)?;
        let seed = r.u64("SubmitSpec.seed")?;
        let link = LinkPolicy::decode(r)?;
        let max_ticks = r.u64("SubmitSpec.max_ticks")?;
        let max_nudges = r.u64("SubmitSpec.max_nudges")?;
        let record_trace = bool::decode(r)?;
        if domains.len() != owners.len() {
            return Err(WireError::Invalid {
                context: "SubmitSpec.owners",
            });
        }
        Ok(SubmitSpec {
            domains,
            owners,
            nogoods,
            init,
            algo,
            seed,
            link,
            max_ticks,
            max_nudges,
            record_trace,
        })
    }
}

/// Why the service refused a `Submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The global session budget is exhausted (backpressure — retry
    /// later).
    Overloaded,
    /// The service is draining and admits no new sessions.
    Draining,
    /// The connection already has a live session under this ID.
    DuplicateSession,
    /// The spec failed validation (empty problem, non-dense owners,
    /// out-of-domain initial value, reserved session ID 0, …).
    BadSpec,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Overloaded => f.write_str("overloaded"),
            RejectReason::Draining => f.write_str("draining"),
            RejectReason::DuplicateSession => f.write_str("duplicate session id"),
            RejectReason::BadSpec => f.write_str("bad spec"),
        }
    }
}

impl Wire for RejectReason {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            RejectReason::Overloaded => 0,
            RejectReason::Draining => 1,
            RejectReason::DuplicateSession => 2,
            RejectReason::BadSpec => 3,
        };
        out.push(tag);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("RejectReason")? {
            0 => Ok(RejectReason::Overloaded),
            1 => Ok(RejectReason::Draining),
            2 => Ok(RejectReason::DuplicateSession),
            3 => Ok(RejectReason::BadSpec),
            tag => Err(WireError::BadTag {
                context: "RejectReason",
                tag,
            }),
        }
    }
}

/// The final accounting of a completed session, shipped in
/// [`ServiceFrame::Done`]. Field-for-field the same payload a local
/// `solve_virtual` call would report.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The run's metrics (termination, cycles, maxcck, checks, message
    /// and fault counters).
    pub metrics: RunMetrics,
    /// The solving assignment, if one was found.
    pub solution: Option<Assignment>,
    /// Final virtual tick.
    pub ticks: u64,
    /// Total agent activations.
    pub activations: u64,
    /// Recovery passes taken.
    pub nudges: u64,
    /// The session's event trace (empty unless requested at submit).
    pub trace: Vec<TraceEvent>,
}

impl Wire for SessionOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        self.metrics.encode(out);
        self.solution.encode(out);
        self.ticks.encode(out);
        self.activations.encode(out);
        self.nudges.encode(out);
        encode_trace(&self.trace, out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SessionOutcome {
            metrics: RunMetrics::decode(r)?,
            solution: Option::<Assignment>::decode(r)?,
            ticks: r.u64("SessionOutcome.ticks")?,
            activations: r.u64("SessionOutcome.activations")?,
            nudges: r.u64("SessionOutcome.nudges")?,
            trace: decode_trace(r, "SessionOutcome.trace")?,
        })
    }
}

/// Service-phase frames (tags 8–16). The session ID lives in the
/// header, not the body — send these as
/// [`Mux<ServiceFrame>`](crate::frame::Mux).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceFrame {
    /// Client → service: start a session under the header's session ID.
    Submit {
        /// The solve request.
        spec: SubmitSpec,
    },
    /// Client → service: abort the header's session.
    Cancel,
    /// Client → service: stop admitting, finish in-flight sessions,
    /// answer `Drained` when the table is empty.
    Drain,
    /// Service → client: the session was admitted and is running.
    Accepted,
    /// Service → client: the session was refused.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Service → client: the session ran to termination.
    Done {
        /// The session's final accounting.
        outcome: SessionOutcome,
    },
    /// Service → client: the session was cancelled before termination.
    Cancelled,
    /// Service → client: the drain completed; no sessions remain.
    Drained,
    /// Service → client: the session ran to termination, but its `Done`
    /// frame would exceed [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN) (a
    /// trace too long to ship), so the outcome is dropped.
    DoneTooLong {
        /// The encoded length of the refused `Done` frame.
        len: u64,
    },
}

impl MuxWire for ServiceFrame {
    fn encode_mux(&self, session: u64, out: &mut Vec<u8>) {
        match self {
            ServiceFrame::Submit { spec } => {
                encode_header(8, session, out);
                spec.encode(out);
            }
            ServiceFrame::Cancel => encode_header(9, session, out),
            ServiceFrame::Drain => encode_header(10, session, out),
            ServiceFrame::Accepted => encode_header(11, session, out),
            ServiceFrame::Rejected { reason } => {
                encode_header(12, session, out);
                reason.encode(out);
            }
            ServiceFrame::Done { outcome } => {
                encode_header(13, session, out);
                outcome.encode(out);
            }
            ServiceFrame::Cancelled => encode_header(14, session, out),
            ServiceFrame::Drained => encode_header(15, session, out),
            ServiceFrame::DoneTooLong { len } => {
                encode_header(16, session, out);
                len.encode(out);
            }
        }
    }

    fn decode_mux(r: &mut WireReader<'_>) -> Result<(u64, Self), WireError> {
        let (tag, session) = decode_header(r, "ServiceFrame")?;
        let frame = match tag {
            8 => Ok(ServiceFrame::Submit {
                spec: SubmitSpec::decode(r)?,
            }),
            9 => Ok(ServiceFrame::Cancel),
            10 => Ok(ServiceFrame::Drain),
            11 => Ok(ServiceFrame::Accepted),
            12 => Ok(ServiceFrame::Rejected {
                reason: RejectReason::decode(r)?,
            }),
            13 => Ok(ServiceFrame::Done {
                outcome: SessionOutcome::decode(r)?,
            }),
            14 => Ok(ServiceFrame::Cancelled),
            15 => Ok(ServiceFrame::Drained),
            16 => Ok(ServiceFrame::DoneTooLong {
                len: r.u64("ServiceFrame.DoneTooLong.len")?,
            }),
            tag => Err(WireError::BadTag {
                context: "ServiceFrame",
                tag,
            }),
        }?;
        Ok((session, frame))
    }
}

impl Wire for ServiceFrame {
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
    use crate::frame::Mux;
    use discsp_awc::AwcConfig;
    use discsp_core::{Termination, Value};

    fn spec() -> SubmitSpec {
        let init = Assignment::total(vec![Value::new(1)]);
        SubmitSpec {
            domains: vec![Domain::new(3)],
            owners: vec![AgentId::new(0)],
            nogoods: vec![],
            init,
            algo: AlgoSpec::Awc(AwcConfig::default()),
            seed: 7,
            link: LinkPolicy::perfect(),
            max_ticks: 1000,
            max_nudges: 8,
            record_trace: true,
        }
    }

    #[test]
    fn service_frames_roundtrip_with_sessions() {
        let frames = vec![
            ServiceFrame::Submit { spec: spec() },
            ServiceFrame::Cancel,
            ServiceFrame::Drain,
            ServiceFrame::Accepted,
            ServiceFrame::Rejected {
                reason: RejectReason::Overloaded,
            },
            ServiceFrame::Done {
                outcome: SessionOutcome {
                    metrics: RunMetrics::new(Termination::Solved),
                    solution: Some(Assignment::total(vec![Value::new(2)])),
                    ticks: 12,
                    activations: 30,
                    nudges: 1,
                    trace: vec![],
                },
            },
            ServiceFrame::Cancelled,
            ServiceFrame::Drained,
            ServiceFrame::DoneTooLong { len: 1 << 25 },
        ];
        for (i, frame) in frames.into_iter().enumerate() {
            let mux = Mux::new(1 + i as u64, frame);
            let bytes = mux.to_bytes();
            assert_eq!(Mux::<ServiceFrame>::from_bytes(&bytes).as_ref(), Ok(&mux));
        }
    }

    #[test]
    fn service_tags_are_disjoint_from_setup_and_run() {
        use crate::frame::{RunFrame, SetupFrame};
        use discsp_awc::AwcMessage;
        let bytes = ServiceFrame::Drain.to_bytes();
        assert!(matches!(
            SetupFrame::from_bytes(&bytes),
            Err(WireError::BadTag {
                context: "SetupFrame",
                ..
            })
        ));
        assert!(matches!(
            RunFrame::<AwcMessage>::from_bytes(&bytes),
            Err(WireError::BadTag {
                context: "RunFrame",
                ..
            })
        ));
        let hello = SetupFrame::Hello { index: 0 }.to_bytes();
        assert!(matches!(
            ServiceFrame::from_bytes(&hello),
            Err(WireError::BadTag {
                context: "ServiceFrame",
                ..
            })
        ));
    }

    #[test]
    fn mismatched_owner_count_is_rejected() {
        let mut s = spec();
        s.owners.push(AgentId::new(1));
        let bytes = s.to_bytes();
        assert!(matches!(
            SubmitSpec::from_bytes(&bytes),
            Err(WireError::Invalid {
                context: "SubmitSpec.owners",
            })
        ));
    }

    #[test]
    fn reject_reasons_roundtrip_and_render() {
        for reason in [
            RejectReason::Overloaded,
            RejectReason::Draining,
            RejectReason::DuplicateSession,
            RejectReason::BadSpec,
        ] {
            let bytes = reason.to_bytes();
            assert_eq!(RejectReason::from_bytes(&bytes), Ok(reason));
            assert!(!reason.to_string().is_empty());
        }
        assert!(matches!(
            RejectReason::from_bytes(&[9]),
            Err(WireError::BadTag { .. })
        ));
    }
}
