//! The served stack over real sockets: many sessions multiplexed on
//! ONE TCP connection, results matched back by session id, rejections
//! typed, drain over the wire finishing everything in flight, a
//! session's trace arriving intact, and a result too long to ship
//! failing its own wait without breaking the connection.

use std::net::TcpListener;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Termination, Value};
use discsp_dba::WeightMode;
use discsp_net::{AlgoSpec, NetError, SubmitSpec, MAX_FRAME_LEN};
use discsp_probgen::{coloring_to_discsp, graph_to_discsp, paper_coloring, Graph};
use discsp_runtime::{LinkPolicy, RuntimeKind, Solver, TraceEvent, VirtualConfig};
use discsp_service::{serve, ServeOptions, ServiceClient, ServiceError};
use discsp_trace::audit;

/// The planted coloring session `index` solves.
fn problem(index: u64) -> DistributedCsp {
    coloring_to_discsp(&paper_coloring(10, 500 + index)).expect("coloring encodes")
}

/// The wire-level spec for session `index`, mirroring the in-process
/// mixed workload.
fn submit_spec(index: u64) -> SubmitSpec {
    let (algo, link) = match index % 3 {
        0 => (AlgoSpec::Awc(AwcConfig::resolvent()), LinkPolicy::perfect()),
        1 => (AlgoSpec::Dba(WeightMode::PerNogood), LinkPolicy::perfect()),
        _ => (AlgoSpec::Awc(AwcConfig::mcs()), LinkPolicy::lossy(20_000)),
    };
    let problem = problem(index);
    SubmitSpec {
        domains: problem.vars().map(|v| problem.domain(v)).collect(),
        owners: problem.vars().map(|v| problem.owner(v)).collect(),
        nogoods: problem.nogoods().to_vec(),
        init: Assignment::total((0..10).map(|_| Value::new(0))),
        algo,
        seed: 0xFACE ^ index,
        link,
        max_ticks: 1_000_000,
        max_nudges: 64,
        record_trace: false,
    }
}

#[test]
fn many_sessions_multiplex_over_one_connection_and_drain_cleanly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(listener, ServeOptions::default()).expect("serve");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // Submit a batch of sessions up front on the single connection.
    const SESSIONS: u64 = 9;
    for index in 0..SESSIONS {
        client
            .submit(index + 1, &submit_spec(index))
            .expect("submit accepted");
    }

    // Drain over the wire: the service finishes every in-flight session
    // first, so every result is claimable afterwards.
    client.drain(0xD8A1).expect("drained");
    for index in 0..SESSIONS {
        let outcome = client.wait(index + 1).expect("result delivered");
        assert_eq!(
            outcome.metrics.termination,
            Termination::Solved,
            "session {} should solve its planted coloring",
            index + 1
        );
        let solution = outcome.solution.as_ref().expect("solved carries solution");
        assert_eq!(solution.num_vars(), 10);
    }

    // After the drain confirmation the scheduler shuts down.
    handle.join();
}

#[test]
fn duplicate_and_reserved_ids_are_refused_with_typed_errors() {
    // Freeze the scheduler (zero active slots: every admission parks
    // forever) so admission checks are deterministic — no race against
    // sessions completing and freeing their ids.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let options = ServeOptions {
        service: discsp_service::ServiceConfig {
            max_active: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = serve(listener, options).expect("serve");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    client
        .submit(1, &submit_spec(0))
        .expect("first submit parks");
    assert!(matches!(
        client.submit(1, &submit_spec(1)),
        Err(ServiceError::DuplicateSession { id: 1 })
    ));
    // 0 marks a single-session peer on the wire; it cannot name a
    // session.
    assert!(matches!(
        client.submit(0, &submit_spec(0)),
        Err(ServiceError::BadSpec { .. })
    ));

    // Free the parked session so the drain is instant.
    client.cancel(1).expect("cancel the parked session");
    client.drain(3).expect("drained");
    handle.join();
}

#[test]
fn results_can_be_claimed_out_of_submission_order() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(listener, ServeOptions::default()).expect("serve");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    for index in 0..4u64 {
        client
            .submit(index + 1, &submit_spec(index))
            .expect("submit");
    }
    // Claim in reverse: the client stashes whatever arrives first.
    for id in (1..=4u64).rev() {
        let outcome = client.wait(id).expect("result");
        assert_eq!(outcome.metrics.termination, Termination::Solved);
    }
    client.drain(1).expect("drained");
    handle.join();
}

#[test]
fn cancel_over_the_wire_frees_the_session() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(listener, ServeOptions::default()).expect("serve");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // A session with a hopeless tick budget would run a long time;
    // cancel it instead and verify the id is freed and the drain is
    // instant.
    client.submit(5, &submit_spec(0)).expect("submit");
    match client.cancel(5) {
        Ok(()) => {}
        // The scheduler may have finished it before the cancel arrived;
        // that race is inherent and fine.
        Err(ServiceError::UnknownSession { id: 5 }) => {}
        Err(other) => panic!("unexpected cancel error: {other}"),
    }
    assert!(matches!(
        client.cancel(77),
        Err(ServiceError::UnknownSession { id: 77 })
    ));
    client.drain(2).expect("drained");
    handle.join();
}

#[test]
fn a_traced_session_ships_the_in_process_trace_over_the_wire() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(listener, ServeOptions::default()).expect("serve");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // Session 2 of the mix runs Mcs over lossy links, so its trace holds
    // faults and retransmissions as well as steps and deliveries.
    let spec = SubmitSpec {
        record_trace: true,
        ..submit_spec(2)
    };
    client.submit(1, &spec).expect("submit");
    let outcome = client.wait(1).expect("result");
    client.drain(1).expect("drained");
    handle.join();

    let reference = AwcSolver::new(AwcConfig::mcs())
        .solve_virtual(
            &problem(2),
            &spec.init,
            &VirtualConfig {
                seed: spec.seed,
                link: spec.link,
                max_ticks: spec.max_ticks,
                max_nudges: spec.max_nudges,
                record_trace: true,
                ..VirtualConfig::default()
            },
        )
        .expect("in-process run");
    assert_eq!(outcome.metrics, reference.outcome.metrics);
    assert!(
        outcome
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Fault { .. })),
        "a lossy session's trace records faults"
    );
    // Event for event, but for the runtime stamp on `RunEnd`.
    let mut shipped = outcome.trace.clone();
    let Some(TraceEvent::RunEnd { runtime, .. }) = shipped.last_mut() else {
        panic!("a trace ends with RunEnd");
    };
    assert_eq!(*runtime, RuntimeKind::Service);
    *runtime = RuntimeKind::Virtual;
    assert_eq!(shipped, reference.trace);

    let verdict = audit(&outcome.trace).expect("the shipped trace is auditable");
    assert!(verdict.passed(), "{:?}", verdict.failures);
    assert_eq!(verdict.metrics, outcome.metrics);
}

#[test]
fn a_done_frame_over_the_cap_fails_its_wait_and_spares_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(listener, ServeOptions::default()).expect("serve");
    let mut client = ServiceClient::connect(handle.addr()).expect("connect");

    // Breakout cannot prove K4 uncolorable with three colors, so it runs
    // to its tick budget and traces every step and message on the way:
    // about 20 MB of JSONL, more than one frame may carry.
    let mut graph = Graph::new(4);
    for u in 0..4 {
        for w in u + 1..4 {
            graph.add_edge(u, w);
        }
    }
    let k4 = graph_to_discsp(&graph, 3).expect("K4 encodes");
    let spec = SubmitSpec {
        domains: k4.vars().map(|v| k4.domain(v)).collect(),
        owners: k4.vars().map(|v| k4.owner(v)).collect(),
        nogoods: k4.nogoods().to_vec(),
        init: Assignment::total((0..4).map(|_| Value::new(0))),
        max_ticks: 12_000,
        record_trace: true,
        ..submit_spec(1)
    };
    client.submit(1, &spec).expect("submit");
    // A server that drops the oversized frame silently leaves this wait
    // blocked for good, so it runs on its own thread under a deadline.
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let result = client.wait(1);
        let _ = tx.send((client, result));
    });
    let (mut client, result) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("no Done or DoneTooLong arrived for session 1");
    match result {
        Err(ServiceError::Net(NetError::FrameTooLong { len })) => {
            assert!(len > MAX_FRAME_LEN, "{len}");
        }
        Ok(outcome) => panic!("a {}-event trace fit in one frame", outcome.trace.len()),
        Err(other) => panic!("unexpected error: {other}"),
    }

    // The oversized frame was refused before a byte of it was written,
    // so the connection still serves the next session.
    client.submit(2, &submit_spec(0)).expect("submit");
    let outcome = client.wait(2).expect("result");
    assert_eq!(outcome.metrics.termination, Termination::Solved);
    client.drain(3).expect("drained");
    handle.join();
}
