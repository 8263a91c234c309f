//! Property-based tests over the core data structures, the generators,
//! and the solvers.

use discsp::core::{CoreError, Nogood, Rank, VarValue};
use discsp::prelude::*;
use proptest::prelude::*;

/// Arbitrary (variable, value) pairs over a small universe, one value
/// per variable (nogood-compatible).
fn arb_elements() -> impl Strategy<Value = Vec<VarValue>> {
    proptest::collection::btree_map(0u32..12, 0u16..4, 0..8).prop_map(|m| {
        m.into_iter()
            .map(|(var, value)| VarValue::new(VariableId::new(var), Value::new(value)))
            .collect()
    })
}

proptest! {
    #[test]
    fn nogood_construction_is_order_independent(elems in arb_elements()) {
        let forward = Nogood::new(elems.clone());
        let mut reversed = elems.clone();
        reversed.reverse();
        let backward = Nogood::new(reversed);
        prop_assert_eq!(&forward, &backward);
        // Canonical order is sorted by variable.
        let vars: Vec<_> = forward.vars().collect();
        let mut sorted = vars.clone();
        sorted.sort();
        prop_assert_eq!(vars, sorted);
    }

    #[test]
    fn nogood_violation_matches_brute_force(elems in arb_elements(), assigned in proptest::collection::vec((0u32..12, 0u16..4), 0..12)) {
        let ng = Nogood::new(elems);
        let mut assignment = Assignment::empty(12);
        for (var, value) in assigned {
            assignment.set(VariableId::new(var), Value::new(value));
        }
        let expected = ng
            .elems()
            .iter()
            .all(|e| assignment.get(e.var) == Some(e.value));
        prop_assert_eq!(ng.is_violated_by(assignment.lookup()), expected);
    }

    #[test]
    fn without_var_never_contains_the_var(elems in arb_elements(), var in 0u32..12) {
        let ng = Nogood::new(elems);
        let stripped = ng.without_var(VariableId::new(var));
        prop_assert!(!stripped.contains_var(VariableId::new(var)));
        prop_assert!(stripped.is_subset_of(&ng));
    }

    #[test]
    fn incremental_eval_matches_naive_scan(
        own in 0u32..12,
        // The constraints the store is built with (repeated below, and
        // sharing one nogood with the learned ones).
        initial_elems in proptest::collection::vec(arb_elements(), 0..5),
        nogood_elems in proptest::collection::vec(arb_elements(), 1..10),
        steps in proptest::collection::vec(
            (
                // View changes: an update (value, priority) or a removal.
                // Variables 9..12 appear in nogoods only.
                proptest::collection::vec(
                    (0u32..9, proptest::option::of((0u16..4, 0u64..4))),
                    0..6,
                ),
                // The owner's priority: rises and drops.
                0u64..4,
            ),
            1..8,
        ),
    ) {
        use discsp::core::{AgentId, AgentView, IncrementalEval, NogoodStore};
        let own = VariableId::new(own);
        let nogoods: Vec<Nogood> = nogood_elems.into_iter().map(Nogood::new).collect();
        let initial: Vec<Nogood> = initial_elems.into_iter().map(Nogood::new).collect();
        let seeded: Vec<&Nogood> = initial
            .iter()
            .chain(&nogoods[..1])
            .chain(initial.iter().rev())
            .collect();
        let mut store = NogoodStore::with_nogoods(seeded);
        let mut view = AgentView::new();
        // The first sync meets the constructor's nogoods alone.
        let mut eval = IncrementalEval::new(own);
        eval.refresh_changed(&store, &view, Priority::ZERO, &[]);
        // DB's path: the same store and view, read whole at every step;
        // its first sync meets learned nogoods too.
        let mut whole = IncrementalEval::new(own);
        let count = steps.len();
        for (step, (ops, own_priority)) in steps.into_iter().enumerate() {
            // Grow the store progressively so append-sync is exercised
            // alongside view changes.
            let grown = ((step + 1) * nogoods.len()).div_ceil(count);
            for ng in &nogoods[..grown] {
                store.insert(ng.clone());
            }
            let mut changed = Vec::new();
            for (var, entry) in ops {
                let var = VariableId::new(var);
                if var == own {
                    continue;
                }
                let hit = match entry {
                    Some((value, priority)) => view.update(
                        var,
                        AgentId::new(var.raw()),
                        Value::new(value),
                        Priority::new(priority),
                    ),
                    None => view.remove(var).is_some(),
                };
                if hit {
                    changed.push(var);
                }
            }
            let own_priority = Priority::new(own_priority);
            eval.refresh_changed(&store, &view, own_priority, &changed);
            whole.refresh(&store, view.iter().map(|(var, entry)| (var, entry.value)));
            let own_rank = Rank::new(own, own_priority);
            let higher: Vec<usize> = store
                .entries()
                .filter(|&(_, ng)| view.is_higher_nogood(ng, own_rank))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(eval.higher_len(), higher.len());
            for own_value in 0u16..4 {
                let own_value = Value::new(own_value);
                let lookup = view.lookup_with(own, own_value);
                let violated: Vec<usize> = store
                    .entries()
                    .filter(|&(_, ng)| ng.is_violated_by(&lookup))
                    .map(|(i, _)| i)
                    .collect();
                let violated_higher: Vec<usize> = violated
                    .iter()
                    .copied()
                    .filter(|i| higher.contains(i))
                    .collect();
                prop_assert_eq!(
                    eval.violated_higher(own_value).collect::<Vec<_>>(),
                    violated_higher.clone()
                );
                prop_assert_eq!(
                    eval.lower_violation_count(own_value),
                    violated.len() - violated_higher.len()
                );
                prop_assert_eq!(eval.violation_count_with(own_value), violated.len());
                prop_assert_eq!(whole.violation_count_with(own_value), violated.len());
                prop_assert_eq!(
                    whole.violated_with(own_value).collect::<Vec<_>>(),
                    violated.clone()
                );
                prop_assert_eq!(
                    eval.violated_with(own_value).collect::<Vec<_>>(),
                    violated.clone()
                );
                for (i, _) in store.entries() {
                    prop_assert!(
                        eval.is_violated(i, own_value) == violated.contains(&i),
                        "nogood {} disagrees under own={}", i, own_value
                    );
                    prop_assert!(
                        whole.is_violated(i, own_value) == violated.contains(&i),
                        "nogood {} disagrees under own={} (whole view)", i, own_value
                    );
                }
            }
        }
        // The cached path itself must never meter checks.
        prop_assert_eq!(store.checks(), 0);
    }

    #[test]
    fn store_dedup_matches_a_model_under_churn(
        // The constraints the store is built with, over the same small
        // universe as the operations, so repeats are frequent.
        initial in proptest::collection::vec(
            proptest::collection::btree_map(0u32..4, 0u16..2, 0..3),
            0..8,
        ),
        // Nogoods over four variables and two values, inserted one by
        // one: repeats are frequent.
        ops in proptest::collection::vec(
            proptest::collection::btree_map(0u32..4, 0u16..2, 0..3),
            1..80,
        ),
    ) {
        use discsp::core::NogoodStore;
        use std::collections::BTreeMap;
        let nogood = |elems: BTreeMap<u32, u16>| {
            Nogood::of(
                elems
                    .into_iter()
                    .map(|(var, value)| (VariableId::new(var), Value::new(value))),
            )
        };
        let initial: Vec<Nogood> = initial.into_iter().map(nogood).collect();
        // Per stored nogood: its insertion sequence.
        let mut model: BTreeMap<Nogood, u64> = BTreeMap::new();
        for ng in &initial {
            if !model.contains_key(ng) {
                model.insert(ng.clone(), model.len() as u64);
            }
        }
        let mut store = NogoodStore::with_nogoods(&initial);
        prop_assert_eq!(store.slot_count(), model.len());
        for elems in ops {
            let ng = nogood(elems);
            let fresh = !model.contains_key(&ng);
            prop_assert_eq!(store.insert(ng.clone()), fresh);
            if fresh {
                model.insert(ng.clone(), model.len() as u64);
            }

            prop_assert_eq!(store.len(), model.len());
            // Append-only: one slot per stored nogood.
            prop_assert_eq!(store.slot_count(), model.len());
            let entries: Vec<(usize, Nogood)> =
                store.entries().map(|(i, ng)| (i, ng.to_nogood())).collect();
            prop_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert_eq!(
                store.indices().collect::<Vec<_>>(),
                entries.iter().map(|(i, _)| *i).collect::<Vec<_>>()
            );
            let mut stored: Vec<Nogood> = entries.iter().map(|(_, ng)| ng.clone()).collect();
            stored.sort();
            prop_assert_eq!(stored, model.keys().cloned().collect::<Vec<_>>());
            prop_assert_eq!(store.contains(&ng), model.contains_key(&ng));
            prop_assert!(model.keys().all(|ng| store.contains(ng)));
            // `for_variable` lists a variable's nogoods in recording
            // order: the constructor's first, then the later ones.
            for var in (0..4).map(VariableId::new) {
                let mut mentions: Vec<usize> = Vec::new();
                for (i, ng) in store.for_variable(var) {
                    prop_assert_eq!(store.get(i), Some(ng));
                    mentions.push(i);
                }
                let mut expected: Vec<(u64, usize)> = entries
                    .iter()
                    .filter(|(_, ng)| ng.contains_var(var))
                    .map(|(i, ng)| (model[ng], *i))
                    .collect();
                expected.sort_unstable();
                prop_assert_eq!(
                    mentions,
                    expected.into_iter().map(|(_, i)| i).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn agent_view_matches_a_model_under_churn(
        ops in proptest::collection::vec(
            // A variable, then an update (agent, value, priority) or a
            // removal. Few variables and values: repeats and no-op
            // updates are frequent.
            (0u32..10, proptest::option::of((0u32..3, 0u16..3, 0u64..3))),
            1..60,
        ),
    ) {
        use discsp::core::{AgentId, AgentView, ViewEntry};
        use std::collections::BTreeMap;
        let mut view = AgentView::new();
        let mut model: BTreeMap<VariableId, ViewEntry> = BTreeMap::new();
        for (var, op) in ops {
            let var = VariableId::new(var);
            match op {
                Some((agent, value, priority)) => {
                    let entry = ViewEntry {
                        agent: AgentId::new(agent),
                        value: Value::new(value),
                        priority: Priority::new(priority),
                    };
                    let changed = view.update(var, entry.agent, entry.value, entry.priority);
                    prop_assert_eq!(changed, model.insert(var, entry) != Some(entry));
                }
                None => prop_assert_eq!(view.remove(var), model.remove(&var)),
            }
            for probe in (0..11).map(VariableId::new) {
                let known = model.get(&probe).copied();
                prop_assert_eq!(view.entry(probe), known);
                prop_assert_eq!(view.value_of(probe), known.map(|e| e.value));
                prop_assert_eq!(
                    view.priority_of(probe),
                    known.map_or(Priority::ZERO, |e| e.priority)
                );
                prop_assert_eq!(view.knows(probe), known.is_some());
            }
            prop_assert_eq!(view.len(), model.len());
            prop_assert_eq!(view.is_empty(), model.is_empty());
            prop_assert_eq!(
                view.iter().collect::<Vec<_>>(),
                model.iter().map(|(&var, &e)| (var, e)).collect::<Vec<_>>()
            );
        }
        // The same entries recorded in the opposite order make an equal
        // view; one entry fewer makes an unequal one.
        let mut reversed = AgentView::new();
        for (&var, e) in model.iter().rev() {
            prop_assert!(reversed.update(var, e.agent, e.value, e.priority));
        }
        prop_assert_eq!(&reversed, &view);
        if let Some(&var) = model.keys().next() {
            reversed.remove(var);
            prop_assert_ne!(&reversed, &view);
        }
        let listed: Vec<String> = model
            .iter()
            .map(|(var, e)| format!("{}:{}={}@{}", e.agent, var, e.value, e.priority))
            .collect();
        prop_assert_eq!(view.to_string(), format!("view{{{}}}", listed.join(" ")));
    }

    #[test]
    fn problem_index_matches_a_naive_recomputation(
        spec in (1usize..10).prop_flat_map(|n| (
            // Each variable's owner among a few agents, so some own
            // several variables and some own nothing.
            proptest::collection::vec(0u32..4, n),
            // Unary, empty and wider nogoods; variables nothing mentions.
            proptest::collection::vec(
                proptest::collection::btree_map(0..n as u32, 0u16..3, 0..4),
                0..12,
            ),
            (
                // 0: one fresh agent per variable instead of `owners`.
                0u16..3,
                // Indices of nogoods added a second time.
                proptest::collection::vec(0usize..12, 0..4),
            ),
        )),
    ) {
        use std::collections::BTreeSet;
        let (owners, nogoods, (one_per_agent, repeats)) = spec;
        let vars = owners.len();
        let mut b = DistributedCsp::builder();
        for &owner in &owners {
            if one_per_agent == 0 {
                b.variable(Domain::new(3));
            } else {
                b.variable_owned_by(Domain::new(3), AgentId::new(owner));
            }
        }
        let nogoods: Vec<Nogood> = nogoods
            .into_iter()
            .map(|elems| {
                Nogood::of(
                    elems
                        .into_iter()
                        .map(|(var, value)| (VariableId::new(var), Value::new(value))),
                )
            })
            .collect();
        let repeated = repeats.iter().filter_map(|&i| nogoods.get(i));
        for ng in nogoods.iter().chain(repeated) {
            b.nogood(ng.clone()).expect("in range");
        }
        let problem = b.build().expect("has variables");

        let all = problem.nogoods();
        let mut mentions = 0;
        for var in problem.vars() {
            let expected: Vec<*const Nogood> = all
                .iter()
                .filter(|ng| ng.contains_var(var))
                .map(|ng| ng as *const Nogood)
                .collect();
            let got: Vec<*const Nogood> =
                problem.nogoods_of(var).map(|ng| ng as *const Nogood).collect();
            prop_assert!(got == expected, "nogoods_of({}): {:?} != {:?}", var, got, expected);
            mentions += expected.len();
            let neighbors: BTreeSet<VariableId> = all
                .iter()
                .filter(|ng| ng.contains_var(var))
                .flat_map(|ng| ng.vars())
                .filter(|&other| other != var)
                .collect();
            let neighbors: Vec<VariableId> = neighbors.into_iter().collect();
            prop_assert!(
                problem.neighbors(var) == neighbors,
                "neighbors({}): {:?} != {:?}", var, problem.neighbors(var), neighbors
            );
        }
        prop_assert!(
            (problem.mean_relevant_nogoods() - mentions as f64 / vars as f64).abs() < 1e-9
        );

        // One agent past the last owns nothing too.
        let owned = |agent: AgentId| -> Vec<VariableId> {
            problem.vars().filter(|&var| problem.owner(var) == agent).collect()
        };
        for agent in (0..=problem.num_agents() as u32).map(AgentId::new) {
            prop_assert!(problem.vars_of_agent(agent) == owned(agent), "vars_of_agent({})", agent);
        }

        let init = Assignment::total(vec![Value::new(0); vars]);
        let seated = problem.seat(&init, |agent, var, _, _, neighbors| (agent, var, neighbors));
        let misfit = (0..problem.num_agents() as u32)
            .map(AgentId::new)
            .find(|&agent| owned(agent).len() != 1);
        match (seated, misfit) {
            (Ok(seats), None) => {
                prop_assert_eq!(seats.len(), problem.num_agents());
                for (agent, var, neighbors) in seats {
                    prop_assert_eq!(owned(agent), vec![var]);
                    let expected: Vec<(VariableId, AgentId)> = problem
                        .neighbors(var)
                        .iter()
                        .map(|&other| (other, problem.owner(other)))
                        .collect();
                    prop_assert_eq!(neighbors, expected);
                }
            }
            (Err(err), Some(agent)) => prop_assert_eq!(
                err,
                CoreError::WrongVariableCount { agent, count: owned(agent).len() }
            ),
            (seated, misfit) => prop_assert!(
                false,
                "seat returned {:?} with misfit {:?}",
                seated.map(|seats| seats.len()),
                misfit
            ),
        }
    }

    #[test]
    fn rank_order_is_total_and_antisymmetric(
        a in (0u32..20, 0u64..5),
        b in (0u32..20, 0u64..5),
    ) {
        let ra = Rank::new(VariableId::new(a.0), Priority::new(a.1));
        let rb = Rank::new(VariableId::new(b.0), Priority::new(b.1));
        if ra == rb {
            prop_assert!(!ra.outranks(rb) && !rb.outranks(ra));
        } else {
            prop_assert!(ra.outranks(rb) ^ rb.outranks(ra));
        }
    }

    #[test]
    fn coloring_generator_invariants(n in 6u32..30, seed in 0u64..500) {
        let m = (2.0 * n as f64) as usize;
        let inst = generate_coloring(n, m, 3, seed);
        prop_assert_eq!(inst.graph.num_edges(), m);
        for (u, w) in inst.graph.edges() {
            prop_assert_ne!(inst.planted[u as usize], inst.planted[w as usize]);
        }
        // The encoded problem accepts the planted coloring.
        let problem = coloring_to_discsp(&inst).expect("encode");
        prop_assert!(problem.is_solution(&inst.planted_assignment()));
    }

    #[test]
    fn sat_generator_invariants(n in 5u32..30, seed in 0u64..500) {
        let m = (3.0 * n as f64) as usize;
        let inst = generate_sat3(n, m, seed);
        prop_assert_eq!(inst.cnf.num_clauses(), m);
        prop_assert!(inst.cnf.eval(&inst.planted));
        for clause in inst.cnf.clauses() {
            prop_assert_eq!(clause.len(), 3);
        }
    }

    #[test]
    fn one_sat_generator_is_truly_unique(n in 5u32..11, seed in 0u64..40) {
        let m = n as usize + 6;
        let inst = generate_one_sat3(n, m, seed);
        prop_assert!(inst.cnf.eval(&inst.planted));
        let problem = cnf_to_discsp(&inst.cnf).expect("encode");
        let models = Backtracker::new(&problem).enumerate(2);
        prop_assert_eq!(models.len(), 1);
        prop_assert_eq!(&models[0], &model_to_assignment(&inst.planted));
    }

    #[test]
    fn dimacs_roundtrip(n in 4u32..20, seed in 0u64..200) {
        let inst = generate_sat3(n, 2 * n as usize, seed);
        let mut buffer = Vec::new();
        write_dimacs(&inst.cnf, &mut buffer).expect("write");
        let parsed = read_dimacs(buffer.as_slice()).expect("parse");
        prop_assert_eq!(parsed.clauses(), inst.cnf.clauses());
        prop_assert_eq!(parsed.num_vars(), inst.cnf.num_vars());
    }
}

proptest! {
    // Solver properties are costlier: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn awc_solves_random_solvable_colorings(n in 9u32..18, seed in 0u64..100) {
        let m = (2.0 * n as f64) as usize;
        let inst = generate_coloring(n, m, 3, seed);
        let problem = coloring_to_discsp(&inst).expect("encode");
        let init = Assignment::total(vec![Value::new(0); n as usize]);
        let agents = AwcSolver::new(AwcConfig::resolvent())
            .agents(&problem, &init)
            .expect("fits");
        let run = SyncSimulator::new(agents)
            .cycle_limit(5_000)
            .run(&problem)
            .expect("fits");
        prop_assert_eq!(run.outcome.metrics.termination, Termination::Solved);
        prop_assert!(problem.is_solution(&run.outcome.solution.expect("solved")));
    }

    #[test]
    fn awc_and_backtracker_agree_on_satisfiability(n in 4u32..10, m in 8usize..26, seed in 0u64..60) {
        // Fully random (possibly unsatisfiable) 3SAT: if the complete
        // backtracker proves UNSAT, AWC+Rslv must not "solve" it; if
        // SAT, AWC must find some valid solution.
        use discsp::cspsolve::SolveResult;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::BOOL)).collect();
        for _ in 0..m {
            let mut picked: Vec<u32> = (0..n).collect();
            // Cheap partial shuffle for three distinct variables.
            for i in 0..3 {
                let j = rng.gen_range(i..picked.len());
                picked.swap(i, j);
            }
            let literals: Vec<(VariableId, bool)> = picked[..3]
                .iter()
                .map(|&v| (vars[v as usize], rng.gen::<bool>()))
                .collect();
            b.clause(&literals).expect("distinct vars");
        }
        let problem = b.build().expect("nonempty");
        let central = Backtracker::new(&problem).solve();
        let init = Assignment::total(vec![Value::FALSE; n as usize]);
        let agents = AwcSolver::new(AwcConfig::resolvent())
            .agents(&problem, &init)
            .expect("fits");
        let run = SyncSimulator::new(agents)
            .cycle_limit(5_000)
            .run(&problem)
            .expect("fits");
        match central {
            SolveResult::Solution(_) => {
                // Satisfiable: the AWC must find a genuine solution and
                // must never fabricate an insolubility proof (learned
                // nogoods are implied, so the empty nogood is underivable).
                prop_assert_eq!(run.outcome.metrics.termination, Termination::Solved);
                prop_assert!(problem.is_solution(&run.outcome.solution.expect("solved")));
            }
            SolveResult::Unsatisfiable => {
                // Unsatisfiable: the AWC must never claim a solution.
                // It *usually* derives the empty nogood, but termination
                // within a fixed cycle budget is not guaranteed — the
                // "same as previously generated" guard only suppresses
                // consecutive repeats, so agents can alternate between
                // already-known nogoods (e.g. n = 4, m = 22, seed = 30
                // livelocks). Cutoff is therefore an acceptable outcome.
                prop_assert!(matches!(
                    run.outcome.metrics.termination,
                    Termination::Insoluble | Termination::CutOff
                ));
                prop_assert!(run.outcome.solution.is_none());
            }
            SolveResult::LimitReached => unreachable!("tiny instances never hit the limit"),
        }
    }
}
