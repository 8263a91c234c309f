//! Integration tests for the distributed breakout on structured
//! scenarios: wave alternation, weight escalation, and both weight
//! modes.

use discsp_core::{Assignment, DistributedCsp, Domain, Nogood, Termination, Value};
use discsp_dba::{DbaSolver, WeightMode};
use discsp_runtime::{Solver, SyncSimulator};

fn v(i: u16) -> Value {
    Value::new(i)
}

fn cycle_graph(n: usize, colors: u16) -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::new(colors))).collect();
    for i in 0..n {
        b.not_equal(vars[i], vars[(i + 1) % n]).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn solves_even_cycle_with_two_colors() {
    let problem = cycle_graph(8, 2);
    let init = Assignment::total(vec![v(0); 8]);
    let run = DbaSolver::new().solve_sync(&problem, &init).unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::Solved);
    assert!(problem.is_solution(&run.outcome.solution.unwrap()));
}

#[test]
fn odd_cycle_with_two_colors_cuts_off() {
    // Odd cycles are not 2-colorable; DB must hit the limit without
    // claiming anything.
    let problem = cycle_graph(7, 2);
    let init = Assignment::total(vec![v(0); 7]);
    let agents = DbaSolver::new().agents(&problem, &init).unwrap();
    let run = SyncSimulator::new(agents)
        .cycle_limit(500)
        .run(&problem)
        .unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::CutOff);
    assert_eq!(run.outcome.metrics.cycles, 500);
}

#[test]
fn odd_cycle_with_three_colors_solves() {
    let problem = cycle_graph(9, 3);
    let init = Assignment::total(vec![v(0); 9]);
    for mode in [WeightMode::PerNogood, WeightMode::PerPair] {
        let run = DbaSolver::new()
            .weight_mode(mode)
            .solve_sync(&problem, &init)
            .unwrap();
        assert_eq!(
            run.outcome.metrics.termination,
            Termination::Solved,
            "{mode:?}"
        );
    }
}

#[test]
fn cycles_alternate_ok_and_improve_waves() {
    // Every move round costs two cycles (ok? + improve), so solved runs
    // from a conflicted start take an even number of cycles plus the
    // final detection cycle parity; weaker but robust: cycles ≥ 2 and
    // messages per cycle ≈ constant (every agent sends every wave).
    let problem = cycle_graph(6, 3);
    let init = Assignment::total(vec![v(0); 6]);
    let agents = DbaSolver::new().agents(&problem, &init).unwrap();
    let run = SyncSimulator::new(agents)
        .record_history(true)
        .run(&problem)
        .unwrap();
    assert!(run.outcome.metrics.cycles >= 2);
    // Each cycle after the first, every agent sends to its 2 neighbors.
    for record in &run.history[1..run.history.len().saturating_sub(1)] {
        assert_eq!(record.messages, 12, "cycle {}", record.cycle);
    }
}

#[test]
fn breakout_escapes_quasi_local_minimum() {
    // A frustrated square: x0-x1-x2-x3 ring, 2 colors, plus one unary
    // nogood pinning x0 away from the coloring greedy would pick — the
    // initial state is a quasi-local-minimum for naive hill-climbing.
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(2))).collect();
    for i in 0..4 {
        b.not_equal(vars[i], vars[(i + 1) % 4]).unwrap();
    }
    b.nogood(Nogood::of([(vars[0], v(0))])).unwrap();
    let problem = b.build().unwrap();
    // Start at the "wrong" proper coloring (x0 = 0 violates the unary
    // pin but the ring is satisfied: no single flip helps).
    let init = Assignment::total([v(0), v(1), v(0), v(1)]);
    let agents = DbaSolver::new().agents(&problem, &init).unwrap();
    let run = SyncSimulator::new(agents)
        .cycle_limit(2_000)
        .run(&problem)
        .unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::Solved);
    let solution = run.outcome.solution.unwrap();
    assert_eq!(solution.get(discsp_core::VariableId::new(0)), Some(v(1)));
}

#[test]
fn db_metrics_are_wave_shaped() {
    let problem = cycle_graph(10, 3);
    let init = Assignment::total(vec![v(0); 10]);
    let run = DbaSolver::new().solve_sync(&problem, &init).unwrap();
    let m = &run.outcome.metrics;
    // DB never learns nogoods.
    assert_eq!(m.nogoods_generated, 0);
    assert_eq!(m.nogood_messages, 0);
    // Improve messages flow every other cycle: roughly half the traffic.
    assert!(m.other_messages > 0);
    assert!(m.ok_messages > 0);
}

#[test]
fn message_delay_preserves_correctness() {
    let problem = cycle_graph(8, 3);
    let init = Assignment::total(vec![v(0); 8]);
    let agents = DbaSolver::new().agents(&problem, &init).unwrap();
    let run = SyncSimulator::new(agents)
        .message_delay(3, 5)
        .run(&problem)
        .unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::Solved);
    assert!(problem.is_solution(&run.outcome.solution.unwrap()));
}

#[test]
fn weight_modes_differ_only_in_grouping() {
    // On a problem where every nogood has a distinct foreign set, the
    // two modes must behave identically.
    let problem = cycle_graph(6, 2);
    let init = Assignment::total([v(0), v(1), v(0), v(1), v(0), v(1)]);
    let a = DbaSolver::new()
        .weight_mode(WeightMode::PerNogood)
        .solve_sync(&problem, &init)
        .unwrap();
    let b = DbaSolver::new()
        .weight_mode(WeightMode::PerPair)
        .solve_sync(&problem, &init)
        .unwrap();
    // Already solved at start: both detect in one cycle.
    assert_eq!(a.outcome.metrics.cycles, b.outcome.metrics.cycles);
    assert_eq!(a.outcome.metrics.cycles, 1);
}
