//! Integration: completeness properties — insoluble instances must be
//! *proven* insoluble by complete configurations, and learning
//! restrictions must trade that proof away exactly as the paper states.

use discsp::prelude::*;

/// K4 with 3 colors: the smallest insoluble coloring benchmark.
fn k4() -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
    for i in 0..4 {
        for j in (i + 1)..4 {
            b.not_equal(vars[i], vars[j]).expect("valid");
        }
    }
    b.build().expect("valid")
}

/// Pigeonhole-flavored unsatisfiable SAT: x must be both true and false
/// via forced chains.
fn unsat_cnf() -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let x = b.variable(Domain::BOOL);
    let y = b.variable(Domain::BOOL);
    let z = b.variable(Domain::BOOL);
    // (x ∨ y) ∧ (x ∨ ¬y) ∧ (¬x ∨ z) ∧ (¬x ∨ ¬z)
    b.clause(&[(x, true), (y, true)]).expect("valid");
    b.clause(&[(x, true), (y, false)]).expect("valid");
    b.clause(&[(x, false), (z, true)]).expect("valid");
    b.clause(&[(x, false), (z, false)]).expect("valid");
    b.build().expect("valid")
}

/// `solver` on the paper's simulator, cut off after `cycle_limit` cycles.
fn solve_within<S: Solver>(
    solver: S,
    problem: &DistributedCsp,
    init: &Assignment,
    cycle_limit: u64,
) -> SyncRun {
    let agents = solver.agents(problem, init).expect("fits");
    SyncSimulator::new(agents)
        .cycle_limit(cycle_limit)
        .run(problem)
        .expect("fits")
}

#[test]
fn awc_resolvent_proves_k4_insoluble() {
    let problem = k4();
    for initial in [
        Assignment::total([Value::new(0); 4]),
        Assignment::total([Value::new(0), Value::new(1), Value::new(2), Value::new(0)]),
    ] {
        let run = solve_within(
            AwcSolver::new(AwcConfig::resolvent()),
            &problem,
            &initial,
            5_000,
        );
        assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
        assert!(run.outcome.solution.is_none());
    }
}

#[test]
fn awc_mcs_proves_k4_insoluble() {
    let run = solve_within(
        AwcSolver::new(AwcConfig::mcs()),
        &k4(),
        &Assignment::total([Value::new(0); 4]),
        5_000,
    );
    assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
}

#[test]
fn awc_resolvent_proves_unsat_cnf_insoluble() {
    let problem = unsat_cnf();
    let run = solve_within(
        AwcSolver::new(AwcConfig::resolvent()),
        &problem,
        &Assignment::total([Value::FALSE; 3]),
        5_000,
    );
    assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
}

#[test]
fn abt_proves_both_insoluble() {
    for problem in [k4(), unsat_cnf()] {
        let n = problem.num_vars();
        let run = solve_within(
            AbtSolver::new(),
            &problem,
            &Assignment::total(vec![Value::new(0); n]),
            5_000,
        );
        assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
    }
}

#[test]
fn no_learning_cannot_prove_insolubility() {
    // §1 footnote: without nogoods the AWC never gets stuck — and §4.1:
    // no-learning makes the AWC incomplete. It must hit the cutoff.
    let run = solve_within(
        AwcSolver::new(AwcConfig::no_learning()),
        &k4(),
        &Assignment::total([Value::new(0); 4]),
        400,
    );
    assert_eq!(run.outcome.metrics.termination, Termination::CutOff);
}

#[test]
fn db_cannot_prove_insolubility() {
    let run = solve_within(
        DbaSolver::new(),
        &k4(),
        &Assignment::total([Value::new(0); 4]),
        400,
    );
    assert_eq!(run.outcome.metrics.termination, Termination::CutOff);
}

#[test]
fn centralized_solver_confirms_insolubility() {
    use discsp::cspsolve::SolveResult;
    assert_eq!(Backtracker::new(&k4()).solve(), SolveResult::Unsatisfiable);
    assert_eq!(
        Backtracker::new(&unsat_cnf()).solve(),
        SolveResult::Unsatisfiable
    );
}

#[test]
fn size_bounded_learning_may_lose_the_proof() {
    // 1stRslv records only unary nogoods — far too weak to derive the
    // empty nogood on K4 within the budget (footnote 6: size-bounded
    // learning makes the AWC incomplete). The run must not *claim*
    // insolubility wrongly nor crash; cutoff is the expected outcome.
    let run = solve_within(
        AwcSolver::new(AwcConfig::kth_resolvent(1)),
        &k4(),
        &Assignment::total([Value::new(0); 4]),
        300,
    );
    assert!(matches!(
        run.outcome.metrics.termination,
        Termination::CutOff | Termination::Insoluble
    ));
}

#[test]
fn awc_resolvent_recovers_from_a_perfect_link_stall_on_every_executor() {
    // From all zeros, AWC with resolvent learning parks itself on these
    // one-solution 3SAT instances over perfect links: the queue drains
    // short of the solution and one nudge wave repairs it. A complete
    // configuration must not give up there on any executor, and every
    // executor must report the run `solve_virtual` reports.
    for (seed, ticks) in [(29, 19), (43, 15)] {
        let problem = cnf_to_discsp(&paper_one_sat3(10, seed).cnf).expect("encodes");
        let init = Assignment::total([Value::new(0); 10]);
        let solver = AwcSolver::new(AwcConfig::resolvent());
        let virt = solver
            .solve_virtual(&problem, &init, &VirtualConfig::default())
            .expect("virtual");
        assert_eq!(
            virt.outcome.metrics.termination,
            Termination::Solved,
            "seed {seed}"
        );
        assert_eq!(
            virt.nudges, 1,
            "seed {seed}: one nudge wave repairs the stall"
        );
        assert_eq!(virt.ticks, ticks, "seed {seed}");

        let net = solver
            .solve_net(
                &problem,
                &init,
                &NetConfig::default(),
                &AgentLaunch::Threads,
            )
            .expect("net");
        assert_eq!(
            net.outcome.metrics, virt.outcome.metrics,
            "seed {seed}: net metrics"
        );
        assert_eq!(
            net.outcome.solution, virt.outcome.solution,
            "seed {seed}: net solution"
        );
        assert_eq!(net.ticks, virt.ticks, "seed {seed}: net ticks");
        assert_eq!(
            net.activations, virt.activations,
            "seed {seed}: net activations"
        );
        assert_eq!(net.nudges, virt.nudges, "seed {seed}: net nudges");

        for workers in [1, 4] {
            let sharded = solver
                .solve_sharded(&problem, &init, &ShardConfig::new(workers))
                .expect("sharded");
            assert_eq!(
                sharded.outcome, virt.outcome,
                "seed {seed}, {workers} workers"
            );
            assert_eq!(sharded.ticks, virt.ticks, "seed {seed}, {workers} workers");
            assert_eq!(
                sharded.activations, virt.activations,
                "seed {seed}, {workers} workers"
            );
            assert_eq!(
                sharded.nudges, virt.nudges,
                "seed {seed}, {workers} workers"
            );
        }
    }
}
