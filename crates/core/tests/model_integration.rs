//! Integration tests for the problem model: builder workflows, trait
//! conformance, and cross-type interactions.

use discsp_core::{
    AgentId, AgentView, Assignment, CoreError, DistributedCsp, Domain, Nogood, NogoodStore,
    Priority, Rank, Value, VarValue, VariableId,
};

#[test]
fn key_types_are_send_sync_clone_debug() {
    fn check<T: Send + Sync + Clone + std::fmt::Debug>() {}
    check::<AgentId>();
    check::<VariableId>();
    check::<Value>();
    check::<Domain>();
    check::<Nogood>();
    check::<Assignment>();
    check::<AgentView>();
    check::<DistributedCsp>();
    check::<Priority>();
    check::<Rank>();
    check::<VarValue>();
}

#[test]
fn key_types_are_serde_serializable() {
    fn check<T: serde::Serialize + serde::de::DeserializeOwned>() {}
    check::<AgentId>();
    check::<VariableId>();
    check::<Value>();
    check::<Nogood>();
    check::<Assignment>();
    check::<DistributedCsp>();
}

#[test]
fn building_a_mixed_domain_problem() {
    // Three slots for a meeting, Boolean attendance flags, and a
    // coupling constraint — exercises heterogeneous domains.
    let mut b = DistributedCsp::builder();
    let slot = b.variable(Domain::new(3));
    let alice = b.variable(Domain::BOOL);
    let bob = b.variable(Domain::BOOL);
    // Alice can't do slot 2; if the meeting is in slot 0, Bob attends.
    b.nogood(Nogood::of([(slot, Value::new(2)), (alice, Value::TRUE)]))
        .unwrap();
    b.nogood(Nogood::of([(slot, Value::new(0)), (bob, Value::FALSE)]))
        .unwrap();
    let p = b.build().unwrap();
    assert_eq!(p.num_vars(), 3);
    assert_eq!(p.neighbors(slot), &[alice, bob]);
    assert_eq!(p.neighbors(alice), &[slot]);

    let good = Assignment::total([Value::new(0), Value::TRUE, Value::TRUE]);
    assert!(p.is_solution(&good));
    let bad = Assignment::total([Value::new(2), Value::TRUE, Value::TRUE]);
    assert!(!p.is_solution(&bad));
}

#[test]
fn builder_error_paths_are_stable() {
    let mut b = DistributedCsp::builder();
    let x = b.variable(Domain::new(2));
    assert!(matches!(
        b.nogood(Nogood::of([(VariableId::new(5), Value::new(0))])),
        Err(CoreError::UnknownVariable { .. })
    ));
    assert!(matches!(
        b.nogood(Nogood::of([(x, Value::new(7))])),
        Err(CoreError::ValueOutOfDomain { .. })
    ));
    assert!(matches!(
        b.not_equal(x, VariableId::new(9)),
        Err(CoreError::UnknownVariable { .. })
    ));
    // The builder survives errors: valid additions still work.
    let y = b.variable(Domain::new(2));
    b.not_equal(x, y).unwrap();
    let p = b.build().unwrap();
    assert_eq!(p.nogoods().len(), 2);
}

#[test]
fn store_and_view_interact_like_an_agent_turn() {
    // Simulate one AWC-style evaluation by hand: a store of constraint
    // nogoods, a view of neighbors, metered higher-nogood checks.
    let x = |i: u32| VariableId::new(i);
    let v = |i: u16| Value::new(i);
    let own = x(2);
    let own_rank = Rank::new(own, Priority::ZERO);

    let mut view = AgentView::new();
    view.update(x(0), AgentId::new(0), v(1), Priority::new(2));
    view.update(x(1), AgentId::new(1), v(0), Priority::ZERO);

    let store = NogoodStore::with_nogoods([
        Nogood::of([(x(0), v(1)), (own, v(1))]), // higher (x0@2 outranks)
        Nogood::of([(x(1), v(0)), (own, v(0))]), // higher (x1@0, id 1 < 2)
        Nogood::of([(x(3), v(0)), (own, v(0))]), // x3 unknown: rank 0@x3, id 3 > 2 → lower
    ]);

    let higher: Vec<_> = store
        .iter()
        .filter(|&ng| view.is_higher_nogood(ng, own_rank))
        .collect();
    assert_eq!(higher.len(), 2);

    // Evaluate value 1 against higher nogoods only.
    let lookup = view.lookup_with(own, v(1));
    let violated: Vec<_> = higher
        .iter()
        .filter(|&&ng| store.eval(ng, &lookup))
        .collect();
    assert_eq!(violated.len(), 1);
    assert_eq!(store.take_checks(), 2);
}

#[test]
fn nogood_store_growth_and_dedup_under_churn() {
    let mut store = NogoodStore::new();
    let mut inserted = 0;
    for round in 0..3 {
        for i in 0..50u32 {
            let ng = Nogood::of([
                (VariableId::new(i), Value::new((i % 3) as u16)),
                (VariableId::new(i + 1), Value::new(((i + round) % 3) as u16)),
            ]);
            if store.insert(ng) {
                inserted += 1;
            }
        }
    }
    assert_eq!(store.len(), inserted);
    // Second pass inserted only the round-shifted variants.
    assert!(store.len() > 50 && store.len() <= 150);
}

#[test]
fn aggregate_percent_tracks_cutoffs() {
    use discsp_core::{Aggregate, RunMetrics, Termination};
    let mut batch = Vec::new();
    for i in 0..10u64 {
        let term = if i < 7 {
            Termination::Solved
        } else {
            Termination::CutOff
        };
        let mut m = RunMetrics::new(term);
        m.cycles = if term.is_solved() { 100 } else { 10_000 };
        batch.push(m);
    }
    let agg = Aggregate::from_metrics(batch.iter());
    assert!((agg.percent_solved - 70.0).abs() < 1e-9);
    assert!((agg.mean_cycles - (7.0 * 100.0 + 3.0 * 10_000.0) / 10.0).abs() < 1e-9);
}

#[test]
fn display_round_trip_sanity() {
    // Display implementations are stable and parseable by eye; pin a
    // few formats used in logs and examples.
    let ng = Nogood::of([
        (VariableId::new(1), Value::new(0)),
        (VariableId::new(5), Value::new(2)),
    ]);
    assert_eq!(format!("{ng}"), "¬((x1=0) (x5=2))");
    assert_eq!(
        format!("{}", Rank::new(VariableId::new(3), Priority::new(4))),
        "x3@4"
    );
    let mut view = AgentView::new();
    view.update(
        VariableId::new(2),
        AgentId::new(2),
        Value::new(1),
        Priority::new(3),
    );
    assert_eq!(view.to_string(), "view{a2:x2=1@3}");
}
