//! Integration tests for the AWC on structured scenarios: priority
//! dynamics, learning effects, rec/norec, and the multi-variable
//! execution model.

use discsp_awc::{AbtSolver, AwcConfig, AwcSolver, Learning, MultiAwcSolver};
use discsp_core::{
    AgentId, Assignment, DistributedCsp, Domain, Nogood, Termination, Value, VariableId,
};
use discsp_runtime::Solver;

fn v(i: u16) -> Value {
    Value::new(i)
}

/// A bipartite "crown" that forces backtracking: two cliques of size 2
/// joined so that greedy value choices collide.
fn crown() -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..6).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..3 {
        for j in 3..6 {
            b.not_equal(vars[i], vars[j]).unwrap();
        }
    }
    b.build().unwrap()
}

/// A 10-variable chain of implications encoded as nogoods, with the two
/// ends pinned inconsistently unless the middle coordinates.
fn chain(n: usize) -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::BOOL)).collect();
    for w in vars.windows(2) {
        // w0 = true → w1 = true  (prohibit true, false)
        b.nogood(Nogood::of([(w[0], Value::TRUE), (w[1], Value::FALSE)]))
            .unwrap();
    }
    // First variable must be true.
    b.nogood(Nogood::of([(vars[0], Value::FALSE)])).unwrap();
    b.build().unwrap()
}

#[test]
fn crown_solves_under_every_learning_mode() {
    let problem = crown();
    let init = Assignment::total(vec![v(0); 6]);
    for learning in [Learning::Resolvent, Learning::Mcs, Learning::None] {
        let config = AwcConfig {
            learning,
            ..AwcConfig::resolvent()
        };
        let run = AwcSolver::new(config).solve_sync(&problem, &init).unwrap();
        assert_eq!(run.outcome.metrics.termination, Termination::Solved);
        let solution = run.outcome.solution.unwrap();
        // All of one side equal is fine; the two sides must differ.
        assert!(problem.is_solution(&solution));
    }
}

#[test]
fn implication_chain_propagates_to_all_true() {
    let problem = chain(10);
    let init = Assignment::total(vec![Value::FALSE; 10]);
    let run = AwcSolver::new(AwcConfig::resolvent())
        .solve_sync(&problem, &init)
        .unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::Solved);
    let solution = run.outcome.solution.unwrap();
    for i in 0..10 {
        assert_eq!(solution.get(VariableId::new(i)), Some(Value::TRUE));
    }
}

#[test]
fn learning_reduces_cycles_on_hard_instance() {
    // A tight 3-coloring that forces deadends: K3 plus pendant cycle.
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..8).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..3 {
        for j in (i + 1)..3 {
            b.not_equal(vars[i], vars[j]).unwrap();
        }
    }
    for i in 2..8 {
        b.not_equal(vars[i], vars[(i + 1) % 8]).unwrap();
    }
    b.not_equal(vars[3], vars[6]).unwrap();
    b.not_equal(vars[4], vars[7]).unwrap();
    let problem = b.build().unwrap();

    let init = Assignment::total(vec![v(0); 8]);
    let with = AwcSolver::new(AwcConfig::resolvent())
        .solve_sync(&problem, &init)
        .unwrap();
    let without = AwcSolver::new(AwcConfig::no_learning())
        .solve_sync(&problem, &init)
        .unwrap();
    assert!(with.outcome.metrics.termination.is_solved());
    assert!(without.outcome.metrics.termination.is_solved());
    assert!(
        with.outcome.metrics.cycles <= without.outcome.metrics.cycles,
        "learning {} vs none {}",
        with.outcome.metrics.cycles,
        without.outcome.metrics.cycles
    );
}

#[test]
fn norec_generates_more_or_equal_redundancy_on_hard_instance() {
    // K4 minus an edge, 3 colors: solvable but deadend-heavy from a
    // uniform start.
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..5).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            if !(i == 0 && j == 1) {
                b.not_equal(vars[i], vars[j]).unwrap();
            }
        }
    }
    b.not_equal(vars[0], vars[4]).unwrap();
    b.not_equal(vars[1], vars[4]).unwrap();
    let problem = b.build().unwrap();
    let init = Assignment::total(vec![v(0); 5]);

    let rec = AwcSolver::new(AwcConfig::resolvent())
        .solve_sync(&problem, &init)
        .unwrap();
    let norec = AwcSolver::new(AwcConfig::resolvent_norec())
        .solve_sync(&problem, &init)
        .unwrap();
    assert!(rec.outcome.metrics.termination.is_solved());
    assert!(norec.outcome.metrics.termination.is_solved());
    // The norec run cannot be *better* at avoiding regeneration.
    assert!(
        norec.outcome.metrics.redundant_nogoods + norec.outcome.metrics.cycles
            >= rec.outcome.metrics.redundant_nogoods
    );
}

#[test]
fn nogoods_learned_are_logically_implied() {
    // Every nogood recorded by any agent must be violated by NO actual
    // solution of the problem (learned nogoods are implied constraints).
    use discsp_cspsolve::Backtracker;
    let problem = crown();
    let init = Assignment::total(vec![v(0); 6]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let agents = solver.build_agents(&problem, &init).unwrap();
    let mut sim = discsp_runtime::SyncSimulator::new(agents);
    let run = sim.run(&problem).expect("runs");
    assert!(run.outcome.metrics.termination.is_solved());

    let solutions = Backtracker::new(&problem).enumerate(2000);
    assert!(!solutions.is_empty());
    for agent in sim.agents() {
        for ng in agent.store().iter() {
            for solution in &solutions {
                assert!(
                    !ng.is_violated_by(solution.lookup()),
                    "recorded nogood {ng} kills a real solution"
                );
            }
        }
    }
}

#[test]
fn priorities_rise_only_at_deadends() {
    let problem = crown();
    let init = Assignment::total(vec![v(0); 6]);
    let solver = AwcSolver::new(AwcConfig::resolvent());
    let agents = solver.build_agents(&problem, &init).unwrap();
    let mut sim = discsp_runtime::SyncSimulator::new(agents);
    let run = sim.run(&problem).expect("runs");
    let total_deadends: u64 = run.outcome.metrics.nogoods_generated;
    let total_priority: u64 = sim.agents().iter().map(|a| a.priority().get()).sum();
    // Every priority unit was paid for by a deadend (several deadends
    // can raise by more than one, so ≤ is the right direction only when
    // raises jump; the robust invariant is: no deadends ⇒ no priority).
    if total_deadends == 0 {
        assert_eq!(total_priority, 0);
    }
}

#[test]
fn abt_and_awc_agree_on_satisfiability_of_structured_instances() {
    for (name, problem) in [("crown", crown()), ("chain", chain(8))] {
        let n = problem.num_vars();
        let init = Assignment::total(vec![v(0); n]);
        let awc = AwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&problem, &init)
            .unwrap();
        let abt = AbtSolver::new().solve_sync(&problem, &init).unwrap();
        assert_eq!(
            awc.outcome.metrics.termination.is_solved(),
            abt.outcome.metrics.termination.is_solved(),
            "{name}"
        );
    }
}

#[test]
fn multi_solver_handles_uneven_partitions() {
    // 7 variables over 3 agents: 4 + 2 + 1.
    let mut b = DistributedCsp::builder();
    let owners = [0u32, 0, 0, 0, 1, 1, 2];
    let vars: Vec<_> = owners
        .iter()
        .map(|&o| b.variable_owned_by(Domain::new(3), AgentId::new(o)))
        .collect();
    for i in 0..7 {
        b.not_equal(vars[i], vars[(i + 1) % 7]).unwrap();
    }
    let problem = b.build().unwrap();
    let init = Assignment::total(vec![v(0); 7]);
    let run = MultiAwcSolver::new(AwcConfig::resolvent())
        .solve_sync(&problem, &init)
        .unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::Solved);
    assert!(problem.is_solution(&run.outcome.solution.unwrap()));
}

#[test]
fn multi_solver_with_empty_agent() {
    // Agent 1 owns nothing; the dense agent set still runs.
    let mut b = DistributedCsp::builder();
    let x = b.variable_owned_by(Domain::new(2), AgentId::new(0));
    let y = b.variable_owned_by(Domain::new(2), AgentId::new(2));
    b.not_equal(x, y).unwrap();
    let problem = b.build().unwrap();
    assert_eq!(problem.num_agents(), 3);
    let init = Assignment::total(vec![v(0); 2]);
    let run = MultiAwcSolver::new(AwcConfig::resolvent())
        .solve_sync(&problem, &init)
        .unwrap();
    assert_eq!(run.outcome.metrics.termination, Termination::Solved);
}
