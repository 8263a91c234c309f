//! Codec property tests: seeded random generators for every frame type
//! assert `decode(encode(x)) == x`, and that truncated or corrupted
//! frames always come back as typed errors — never a panic, never a
//! bogus success that re-encodes differently.

use discsp_awc::{AwcConfig, AwcMessage, Learning};
use discsp_core::{
    AgentId, Assignment, Domain, MessageClass, Nogood, Priority, RunMetrics, Termination, Value,
    VarValue, VariableId, Wire, WireError,
};
use discsp_dba::{DbaMessage, WeightMode};
use discsp_net::{
    AgentSlice, AlgoSpec, Mux, RejectReason, RunFrame, ServiceFrame, SessionOutcome, SetupFrame,
    SubmitSpec, WIRE_VERSION,
};
use discsp_runtime::{AgentStats, Envelope, LinkPolicy, LinkStats, SplitMix64};
use discsp_trace::{FaultKind, RuntimeKind, TraceEvent};

const TRIALS: u64 = 200;

fn gen_value(rng: &mut SplitMix64, domain_size: u64) -> Value {
    Value::new(rng.next_below(domain_size) as u16)
}

fn gen_var_value(rng: &mut SplitMix64) -> VarValue {
    VarValue::new(
        VariableId::new(rng.next_below(64) as u32),
        gen_value(rng, 8),
    )
}

fn gen_nogood(rng: &mut SplitMix64) -> Nogood {
    // Distinct variables, 1..=4 of them: always a valid nogood.
    let len = 1 + rng.next_below(4) as u32;
    let base = rng.next_below(32) as u32;
    let terms: Vec<VarValue> = (0..len)
        .map(|i| VarValue::new(VariableId::new(base + i), gen_value(rng, 8)))
        .collect();
    Nogood::try_new(terms).expect("distinct vars form a valid nogood")
}

fn gen_policy(rng: &mut SplitMix64) -> LinkPolicy {
    let delay_min = rng.next_below(4);
    LinkPolicy::lossy(rng.next_below(500_000) as u32)
        .with_duplication(rng.next_below(500_000) as u32)
        .with_delay(delay_min, delay_min + rng.next_below(5))
        .with_reordering(rng.next_below(6))
}

fn gen_awc_config(rng: &mut SplitMix64) -> AwcConfig {
    match rng.next_below(5) {
        0 => AwcConfig::resolvent(),
        1 => AwcConfig::mcs(),
        2 => AwcConfig::no_learning(),
        3 => AwcConfig::kth_resolvent(1 + rng.next_below(9) as usize),
        _ => AwcConfig::resolvent_norec(),
    }
}

fn gen_algo(rng: &mut SplitMix64) -> AlgoSpec {
    match rng.next_below(3) {
        0 => AlgoSpec::Awc(gen_awc_config(rng)),
        1 => AlgoSpec::Dba(WeightMode::PerNogood),
        _ => AlgoSpec::Dba(WeightMode::PerPair),
    }
}

fn gen_slice(rng: &mut SplitMix64) -> AgentSlice {
    let domain = Domain::new(2 + rng.next_below(7) as u16);
    let init = Value::new(rng.next_below(domain.size() as u64) as u16);
    let nogoods = (0..rng.next_below(4)).map(|_| gen_nogood(rng)).collect();
    let neighbors = (0..rng.next_below(5))
        .map(|_| {
            (
                VariableId::new(rng.next_below(64) as u32),
                AgentId::new(rng.next_below(64) as u32),
            )
        })
        .collect();
    AgentSlice {
        agent: AgentId::new(rng.next_below(64) as u32),
        var: VariableId::new(rng.next_below(64) as u32),
        domain,
        init,
        nogoods,
        neighbors,
        algo: gen_algo(rng),
    }
}

fn gen_awc_message(rng: &mut SplitMix64) -> AwcMessage {
    match rng.next_below(3) {
        0 => AwcMessage::Ok {
            var: VariableId::new(rng.next_below(64) as u32),
            value: gen_value(rng, 8),
            priority: Priority::new(rng.next_below(1000)),
        },
        1 => AwcMessage::Nogood {
            nogood: gen_nogood(rng),
            owners: (0..rng.next_below(4))
                .map(|_| {
                    (
                        VariableId::new(rng.next_below(64) as u32),
                        AgentId::new(rng.next_below(64) as u32),
                    )
                })
                .collect(),
        },
        _ => AwcMessage::RequestValue,
    }
}

fn gen_dba_message(rng: &mut SplitMix64) -> DbaMessage {
    match rng.next_below(2) {
        0 => DbaMessage::Ok {
            var: VariableId::new(rng.next_below(64) as u32),
            value: gen_value(rng, 8),
        },
        _ => DbaMessage::Improve {
            improve: rng.next_below(1 << 20),
            eval: rng.next_below(1 << 20),
        },
    }
}

fn gen_envelope<M>(rng: &mut SplitMix64, payload: M) -> Envelope<M> {
    Envelope::new(
        AgentId::new(rng.next_below(64) as u32),
        AgentId::new(rng.next_below(64) as u32),
        payload,
    )
}

fn gen_stats(rng: &mut SplitMix64) -> AgentStats {
    AgentStats {
        nogoods_generated: rng.next_below(1 << 30),
        redundant_nogoods: rng.next_below(1 << 30),
        largest_nogood: rng.next_below(64),
        messages_sent: rng.next_below(1 << 30),
        messages_dropped: rng.next_below(1 << 20),
        messages_duplicated: rng.next_below(1 << 20),
        messages_reordered: rng.next_below(1 << 20),
        messages_retransmitted: rng.next_below(1 << 20),
        max_delivery_delay: rng.next_below(64),
    }
}

fn gen_trace(rng: &mut SplitMix64) -> Vec<TraceEvent> {
    (0..rng.next_below(4))
        .map(|_| match rng.next_below(3) {
            0 => TraceEvent::AgentStep {
                cycle: rng.next_below(1000),
                agent: AgentId::new(rng.next_below(64) as u32),
                checks: rng.next_below(1 << 20),
            },
            1 => TraceEvent::NogoodLearned {
                cycle: rng.next_below(1000),
                agent: AgentId::new(rng.next_below(64) as u32),
                size: rng.next_below(32),
            },
            _ => TraceEvent::ValueChanged {
                cycle: rng.next_below(1000),
                var: VariableId::new(rng.next_below(64) as u32),
                old: match rng.next_below(2) {
                    0 => None,
                    _ => Some(gen_value(rng, 8)),
                },
                new: gen_value(rng, 8),
            },
        })
        .collect()
}

fn gen_setup_frame(rng: &mut SplitMix64) -> SetupFrame {
    match rng.next_below(2) {
        0 => SetupFrame::Hello {
            index: rng.next_below(1 << 16) as u32,
        },
        _ => SetupFrame::Assign {
            record_trace: rng.next_below(2) == 0,
            slice: gen_slice(rng),
        },
    }
}

fn gen_awc_run_frame(rng: &mut SplitMix64) -> RunFrame<AwcMessage> {
    match rng.next_below(6) {
        0 => RunFrame::Start,
        1 => RunFrame::Deliver {
            tick: rng.next_below(1 << 20),
            msgs: (0..rng.next_below(6))
                .map(|_| {
                    let payload = gen_awc_message(rng);
                    gen_envelope(rng, payload)
                })
                .collect(),
        },
        2 => RunFrame::Nudge {
            tick: rng.next_below(1 << 20),
        },
        3 => RunFrame::Step {
            out: (0..rng.next_below(6))
                .map(|_| {
                    let payload = gen_awc_message(rng);
                    gen_envelope(rng, payload)
                })
                .collect(),
            checks: rng.next_below(1 << 30),
            assignments: (0..rng.next_below(4)).map(|_| gen_var_value(rng)).collect(),
            insoluble: rng.next_below(2) == 0,
        },
        4 => RunFrame::Stop,
        _ => RunFrame::Final {
            stats: gen_stats(rng),
            leftover_checks: rng.next_below(1 << 20),
            trace: gen_trace(rng),
        },
    }
}

fn gen_dba_run_frame(rng: &mut SplitMix64) -> RunFrame<DbaMessage> {
    match rng.next_below(4) {
        0 => RunFrame::Deliver {
            tick: rng.next_below(1 << 20),
            msgs: (0..rng.next_below(6))
                .map(|_| {
                    let payload = gen_dba_message(rng);
                    gen_envelope(rng, payload)
                })
                .collect(),
        },
        1 => RunFrame::Step {
            out: (0..rng.next_below(6))
                .map(|_| {
                    let payload = gen_dba_message(rng);
                    gen_envelope(rng, payload)
                })
                .collect(),
            checks: rng.next_below(1 << 30),
            assignments: (0..rng.next_below(4)).map(|_| gen_var_value(rng)).collect(),
            insoluble: false,
        },
        2 => RunFrame::Start,
        _ => RunFrame::Final {
            stats: gen_stats(rng),
            leftover_checks: rng.next_below(1 << 20),
            trace: gen_trace(rng),
        },
    }
}

fn gen_assignment(rng: &mut SplitMix64) -> Assignment {
    let n = rng.next_below(8) as usize;
    let mut assignment = Assignment::empty(n);
    for index in 0..n {
        if rng.next_below(2) == 0 {
            assignment.set(VariableId::new(index as u32), gen_value(rng, 8));
        }
    }
    assignment
}

fn gen_termination(rng: &mut SplitMix64) -> Termination {
    match rng.next_below(3) {
        0 => Termination::Solved,
        1 => Termination::CutOff,
        _ => Termination::Insoluble,
    }
}

fn gen_metrics(rng: &mut SplitMix64) -> RunMetrics {
    let mut metrics = RunMetrics::new(gen_termination(rng));
    metrics.cycles = rng.next_below(1 << 20);
    metrics.maxcck = rng.next_below(1 << 30);
    metrics.total_checks = rng.next_below(1 << 30);
    metrics.ok_messages = rng.next_below(1 << 30);
    metrics.nogood_messages = rng.next_below(1 << 30);
    metrics.other_messages = rng.next_below(1 << 20);
    metrics.nogoods_generated = rng.next_below(1 << 30);
    metrics.redundant_nogoods = rng.next_below(1 << 30);
    metrics.largest_nogood = rng.next_below(64);
    metrics.messages_sent = rng.next_below(1 << 30);
    metrics.messages_dropped = rng.next_below(1 << 20);
    metrics.messages_duplicated = rng.next_below(1 << 20);
    metrics.messages_reordered = rng.next_below(1 << 20);
    metrics.messages_retransmitted = rng.next_below(1 << 20);
    metrics.max_delivery_delay = rng.next_below(64);
    metrics
}

fn gen_link_stats(rng: &mut SplitMix64) -> LinkStats {
    LinkStats {
        sent: rng.next_below(1 << 30),
        dropped: rng.next_below(1 << 20),
        duplicated: rng.next_below(1 << 20),
        reordered: rng.next_below(1 << 20),
        retransmitted: rng.next_below(1 << 20),
        max_delay: rng.next_below(64),
    }
}

fn gen_fault_kind(rng: &mut SplitMix64) -> FaultKind {
    match rng.next_below(5) {
        0 => FaultKind::Dropped,
        1 => FaultKind::Duplicated,
        2 => FaultKind::Reordered,
        3 => FaultKind::Delayed(rng.next_below(64)),
        _ => FaultKind::Retransmitted,
    }
}

fn gen_runtime_kind(rng: &mut SplitMix64) -> RuntimeKind {
    match rng.next_below(5) {
        0 => RuntimeKind::Sync,
        1 => RuntimeKind::Virtual,
        2 => RuntimeKind::Net,
        3 => RuntimeKind::Service,
        _ => RuntimeKind::Sharded,
    }
}

fn gen_message_class(rng: &mut SplitMix64) -> MessageClass {
    match rng.next_below(3) {
        0 => MessageClass::Ok,
        1 => MessageClass::Nogood,
        _ => MessageClass::Other,
    }
}

fn gen_learning(rng: &mut SplitMix64) -> Learning {
    match rng.next_below(3) {
        0 => Learning::Resolvent,
        1 => Learning::Mcs,
        _ => Learning::None,
    }
}

/// Asserts the three codec properties on one value: exact roundtrip,
/// every strict prefix is a typed error, and every single-byte
/// corruption either errors or decodes to *something* that re-encodes
/// self-consistently (it must never panic).
fn assert_codec_properties<F>(frame: &F)
where
    F: Wire + PartialEq + std::fmt::Debug,
{
    let bytes = frame.to_bytes();
    assert_eq!(bytes.first(), Some(&WIRE_VERSION), "version byte leads");
    assert_eq!(&F::from_bytes(&bytes).expect("roundtrip"), frame);

    for cut in 0..bytes.len() {
        let truncated = &bytes[..cut];
        assert!(
            F::from_bytes(truncated).is_err(),
            "prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }

    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xA5;
        if let Ok(decoded) = F::from_bytes(&corrupt) {
            // Accidental valid decodes are fine as long as they are
            // self-consistent values, not memory garbage.
            let again = decoded.to_bytes();
            assert_eq!(
                F::from_bytes(&again).expect("re-decode of re-encode"),
                decoded
            );
        }
    }
}

#[test]
fn setup_frames_roundtrip_and_reject_damage() {
    let mut rng = SplitMix64::new(0xC0DE_C5E7);
    for _ in 0..TRIALS {
        let frame = gen_setup_frame(&mut rng);
        assert_codec_properties(&frame);
    }
}

#[test]
fn awc_run_frames_roundtrip_and_reject_damage() {
    let mut rng = SplitMix64::new(0xC0DE_CA3C);
    for _ in 0..TRIALS {
        let frame = gen_awc_run_frame(&mut rng);
        assert_codec_properties(&frame);
    }
}

#[test]
fn dba_run_frames_roundtrip_and_reject_damage() {
    let mut rng = SplitMix64::new(0xC0DE_CDBA);
    for _ in 0..TRIALS {
        let frame = gen_dba_run_frame(&mut rng);
        assert_codec_properties(&frame);
    }
}

/// Same properties as [`assert_codec_properties`] minus the version
/// byte: standalone vocabulary types are versioned by the frame that
/// carries them, not by their own encoding.
fn assert_value_codec_properties<F>(value: &F)
where
    F: Wire + PartialEq + std::fmt::Debug,
{
    let bytes = value.to_bytes();
    assert_eq!(&F::from_bytes(&bytes).expect("roundtrip"), value);

    for cut in 0..bytes.len() {
        assert!(
            F::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }

    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xA5;
        if let Ok(decoded) = F::from_bytes(&corrupt) {
            let again = decoded.to_bytes();
            assert_eq!(
                F::from_bytes(&again).expect("re-decode of re-encode"),
                decoded
            );
        }
    }
}

#[test]
fn standalone_wire_impls_roundtrip_and_reject_damage() {
    let mut rng = SplitMix64::new(0xC0DE_5070);
    for _ in 0..TRIALS {
        assert_value_codec_properties(&gen_assignment(&mut rng));
        assert_value_codec_properties(&gen_message_class(&mut rng));
        assert_value_codec_properties(&gen_termination(&mut rng));
        assert_value_codec_properties(&gen_metrics(&mut rng));
        assert_value_codec_properties(&gen_link_stats(&mut rng));
        assert_value_codec_properties(&gen_learning(&mut rng));
        assert_value_codec_properties(&gen_fault_kind(&mut rng));
        assert_value_codec_properties(&gen_runtime_kind(&mut rng));
    }
}

#[test]
fn truncation_errors_are_typed_not_panics() {
    let mut rng = SplitMix64::new(7);
    let frame = SetupFrame::Assign {
        record_trace: true,
        slice: gen_slice(&mut rng),
    };
    let bytes = frame.to_bytes();
    let err = SetupFrame::from_bytes(&bytes[..bytes.len() - 1]).expect_err("truncated");
    assert!(
        matches!(
            err,
            WireError::Truncated { .. } | WireError::Invalid { .. } | WireError::Trailing { .. }
        ),
        "typed error, got {err:?}"
    );
}

fn gen_total_assignment(rng: &mut SplitMix64, n: usize) -> Assignment {
    Assignment::total((0..n).map(|_| gen_value(rng, 8)))
}

fn gen_submit_spec(rng: &mut SplitMix64) -> SubmitSpec {
    let n = 1 + rng.next_below(6) as usize;
    SubmitSpec {
        domains: (0..n)
            .map(|_| Domain::new(2 + rng.next_below(7) as u16))
            .collect(),
        owners: (0..n).map(|i| AgentId::new(i as u32)).collect(),
        nogoods: (0..rng.next_below(4)).map(|_| gen_nogood(rng)).collect(),
        init: gen_total_assignment(rng, n),
        algo: gen_algo(rng),
        seed: rng.next_u64(),
        link: gen_policy(rng),
        max_ticks: rng.next_below(1 << 30),
        max_nudges: rng.next_below(256),
        record_trace: rng.next_below(2) == 0,
    }
}

fn gen_reject_reason(rng: &mut SplitMix64) -> RejectReason {
    match rng.next_below(4) {
        0 => RejectReason::Overloaded,
        1 => RejectReason::Draining,
        2 => RejectReason::DuplicateSession,
        _ => RejectReason::BadSpec,
    }
}

fn gen_session_outcome(rng: &mut SplitMix64) -> SessionOutcome {
    SessionOutcome {
        metrics: gen_metrics(rng),
        solution: match rng.next_below(2) {
            0 => None,
            _ => Some(gen_assignment(rng)),
        },
        ticks: rng.next_below(1 << 30),
        activations: rng.next_below(1 << 30),
        nudges: rng.next_below(256),
        trace: gen_trace(rng),
    }
}

fn gen_service_frame(rng: &mut SplitMix64) -> ServiceFrame {
    match rng.next_below(8) {
        0 => ServiceFrame::Submit {
            spec: gen_submit_spec(rng),
        },
        1 => ServiceFrame::Cancel,
        2 => ServiceFrame::Drain,
        3 => ServiceFrame::Accepted,
        4 => ServiceFrame::Rejected {
            reason: gen_reject_reason(rng),
        },
        5 => ServiceFrame::Done {
            outcome: gen_session_outcome(rng),
        },
        6 => ServiceFrame::Cancelled,
        _ => ServiceFrame::Drained,
    }
}

#[test]
fn service_frames_roundtrip_and_reject_damage() {
    let mut rng = SplitMix64::new(0xC0DE_5E81);
    for _ in 0..TRIALS {
        let frame = gen_service_frame(&mut rng);
        assert_codec_properties(&frame);
    }
}

#[test]
fn mux_session_ids_roundtrip_and_reject_damage() {
    // The header carries the session id for every frame family; the
    // codec properties must hold for arbitrary ids, including huge ones.
    let mut rng = SplitMix64::new(0xC0DE_3030);
    for _ in 0..TRIALS / 2 {
        let session = rng.next_u64();
        assert_codec_properties(&Mux::new(session, gen_service_frame(&mut rng)));
        assert_codec_properties(&Mux::new(session, gen_setup_frame(&mut rng)));
        assert_codec_properties(&Mux::new(session, gen_awc_run_frame(&mut rng)));
    }
}

#[test]
fn empty_input_is_a_truncation_error() {
    assert!(matches!(
        SetupFrame::from_bytes(&[]),
        Err(WireError::Truncated { .. })
    ));
    assert!(matches!(
        RunFrame::<AwcMessage>::from_bytes(&[]),
        Err(WireError::Truncated { .. })
    ));
}
