//! The served stack over real sockets: many sessions multiplexed on
//! ONE TCP connection, results matched back by session id, rejections
//! typed, and drain over the wire finishing everything in flight.

use std::net::TcpListener;

use discsp_awc::AwcConfig;
use discsp_core::{Assignment, Termination, Value};
use discsp_dba::WeightMode;
use discsp_net::{AlgoSpec, SubmitSpec};
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::LinkPolicy;
use discsp_service::{serve, ServeOptions, ServiceClient, ServiceError};

/// The wire-level spec for session `index`, mirroring the in-process
/// mixed workload.
fn submit_spec(index: u64) -> SubmitSpec {
    let (algo, link) = match index % 3 {
        0 => (AlgoSpec::Awc(AwcConfig::resolvent()), LinkPolicy::perfect()),
        1 => (AlgoSpec::Dba(WeightMode::PerNogood), LinkPolicy::perfect()),
        _ => (AlgoSpec::Awc(AwcConfig::mcs()), LinkPolicy::lossy(20_000)),
    };
    let instance = paper_coloring(10, 500 + index);
    let problem = coloring_to_discsp(&instance).expect("coloring encodes");
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
