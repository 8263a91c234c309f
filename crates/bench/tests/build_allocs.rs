//! Building and seating agents costs a fixed handful of heap
//! allocations.
//!
//! The solvers hand each agent its constraints by reference, and
//! `NogoodStore::with_nogoods` sizes the literal arena, the slot headers,
//! the mutation log and the sorted mention table once, while dedup
//! chains same-hash slots through their headers instead of keeping a
//! bucket per nogood. An agent's `IncrementalEval` sizes its variable
//! table, its per-slot state and its interleaved bit planes at the first
//! sync, and `DistributedCsp` lays its per-variable tables flat. A
//! counting global allocator pins what each of these layers allocates:
//! encoding a coloring (per variable), building a DB or an AWC agent,
//! and a DB agent's first evaluator refresh. Once warm, an evaluator
//! refresh over tracked variables and an update of a known view
//! variable allocate nothing. The count is per thread, so the other
//! tests of this binary, running alongside, do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::{
    AgentId, AgentView, Assignment, DistributedCsp, IncrementalEval, Nogood, NogoodIdx,
    NogoodStore, Priority, Value, VariableId,
};
use discsp_dba::DbaSolver;
use discsp_probgen::{coloring_to_discsp, paper_coloring};

/// Forwards to the system allocator, counting the calling thread's
/// allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    // `try_with` fails only while the thread tears down its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a statistic and never influences
// what is allocated, and touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which `System.alloc` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which `System.realloc` shares.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the allocations it cost this
/// thread, reallocations included.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let result = f();
    (result, allocs() - before)
}

/// Agents (and variables) of the instance every budget is measured on.
const AGENTS: u32 = 2_000;

/// The paper-density 3-coloring the budgets are measured on, with its
/// planted coloring as the initial values.
fn instance() -> (DistributedCsp, Assignment) {
    let coloring = paper_coloring(AGENTS, 11);
    let problem = coloring_to_discsp(&coloring).expect("encode");
    let init = Assignment::total(coloring.planted.iter().map(|&c| Value::new(c)));
    (problem, init)
}

/// Allocations encoding may cost per variable, about 10% above the 8.1
/// measured: the nogoods' own literal vectors (about 8.1 nogoods per
/// variable) plus the problem's flat tables, while a vector per variable
/// and table (15.8) fails.
const ENCODE_BUDGET: f64 = 8.9;

/// Allocations one DB agent may cost at build, reallocations included,
/// about 10% above the 8.0 measured: seating's neighbor list, the
/// store's three reserved vectors and sorted mention table, and the
/// agent's weights and two neighbor tables. A store that also reserves
/// a mutation log (9.0), or keeps a list per mentioned variable (18.9),
/// fails.
const DB_BUILD_BUDGET: f64 = 8.8;

/// Allocations one AWC agent may cost at build, about 10% above the 7.0
/// measured: seating's neighbor list, the out-link set, and the store's
/// three reserved vectors and sorted mention table. A store that also
/// reserves a mutation log (8.0) fails.
const AWC_BUILD_BUDGET: f64 = 7.7;

/// Allocations a DB agent's first evaluator refresh may cost, about 10%
/// above the 3.0 measured: the variable table, the per-slot state and
/// the interleaved bit planes, each sized once. Growing them plane by
/// plane (10.7) fails.
const DB_FIRST_REFRESH_BUDGET: f64 = 3.3;

#[test]
fn encoding_a_coloring_stays_within_the_allocation_budget() {
    let coloring = paper_coloring(AGENTS, 11);
    let (problem, allocs) = counting(|| coloring_to_discsp(&coloring).expect("encode"));
    let per_var = allocs as f64 / f64::from(AGENTS);

    assert_eq!(problem.num_vars(), AGENTS as usize);
    assert!(
        per_var <= ENCODE_BUDGET,
        "encoding took {per_var:.1} allocations per variable (budget {ENCODE_BUDGET})"
    );
}

#[test]
fn building_db_agents_stays_within_the_allocation_budget() {
    let (problem, init) = instance();
    let solver = DbaSolver::new();

    let (agents, allocs) = counting(|| {
        solver
            .build_agents(&problem, &init)
            .expect("one variable per agent")
    });
    let per_agent = allocs as f64 / f64::from(AGENTS);

    assert_eq!(agents.len(), AGENTS as usize);
    assert!(
        per_agent <= DB_BUILD_BUDGET,
        "building a DB agent took {per_agent:.1} allocations (budget {DB_BUILD_BUDGET})"
    );
}

#[test]
fn building_awc_agents_stays_within_the_allocation_budget() {
    let (problem, init) = instance();
    let solver = AwcSolver::new(AwcConfig::resolvent());

    let (agents, allocs) = counting(|| {
        solver
            .build_agents(&problem, &init)
            .expect("one variable per agent")
    });
    let per_agent = allocs as f64 / f64::from(AGENTS);

    assert_eq!(agents.len(), AGENTS as usize);
    assert!(
        per_agent <= AWC_BUILD_BUDGET,
        "building an AWC agent took {per_agent:.1} allocations (budget {AWC_BUILD_BUDGET})"
    );
}

/// What a DB agent's first wave asks of its evaluator: its store holds
/// the variable's constraints and `refresh` reads the whole view of its
/// neighbors.
#[test]
fn a_db_agents_first_refresh_stays_within_the_allocation_budget() {
    let (problem, init) = instance();
    let mut total = 0;
    for var in problem.vars() {
        let store = NogoodStore::with_nogoods(problem.nogoods_of(var));
        let mut eval = IncrementalEval::new(var);
        let view = problem
            .neighbors(var)
            .iter()
            .map(|&other| (other, init.get(other).expect("total")));
        let ((), allocs) = counting(|| eval.refresh(&store, view));
        total += allocs;
        let value = init.get(var).expect("total");
        assert_eq!(eval.violation_count_with(value), 0, "{var}: planted");
    }
    let per_agent = total as f64 / f64::from(AGENTS);
    assert!(
        per_agent <= DB_FIRST_REFRESH_BUDGET,
        "a DB agent's first refresh took {per_agent:.1} allocations \
         (budget {DB_FIRST_REFRESH_BUDGET})"
    );
}

/// The view an AWC agent of `var` holds once every neighbor has
/// announced its planted value, at priority 0.
fn neighbor_view(problem: &DistributedCsp, init: &Assignment, var: VariableId) -> AgentView {
    let mut view = AgentView::new();
    for &other in problem.neighbors(var) {
        let value = init.get(other).expect("total");
        view.update(other, AgentId::new(other.raw()), value, Priority::ZERO);
    }
    view
}

/// A value other than `value` in a 3-coloring.
fn recolor(value: Value) -> Value {
    Value::new((value.raw() + 1) % 3)
}

/// Allocations an evaluator refresh may cost once it tracks every
/// variable it is told about and has synced the store: none. The walk
/// reads the mention rows, the tallies and the planes in place.
const WARM_REFRESH_BUDGET: u64 = 0;

/// Allocations an update of a variable the view already holds may cost:
/// none. It overwrites the entry in place.
const KNOWN_UPDATE_BUDGET: u64 = 0;

/// What an AWC agent's review asks of its evaluator between store
/// mutations: its neighbors announce new values and priorities, and it
/// raises its own priority. The store holds the variable's constraints
/// and a learned nogood over each two consecutive neighbors, so both
/// kinds of mention row are walked.
#[test]
fn a_warm_change_driven_refresh_allocates_nothing() {
    let (problem, init) = instance();
    let mut total = 0;
    for var in problem.vars() {
        let neighbors = problem.neighbors(var);
        let mut store = NogoodStore::with_nogoods(problem.nogoods_of(var));
        for pair in neighbors.windows(2) {
            let learned = pair
                .iter()
                .map(|&other| (other, init.get(other).expect("total")));
            store.insert(Nogood::of(learned));
        }
        let mut view = neighbor_view(&problem, &init, var);
        let mut eval = IncrementalEval::new(var);
        eval.refresh_changed(&store, &view, Priority::ZERO, neighbors);
        for (round, priority) in (1..=3).map(Priority::new).enumerate() {
            for &other in neighbors {
                let value = recolor(view.value_of(other).expect("announced"));
                let agent = AgentId::new(other.raw());
                view.update(other, agent, value, Priority::new(round as u64));
            }
            let ((), allocs) =
                counting(|| eval.refresh_changed(&store, &view, priority, neighbors));
            total += allocs;
        }
        let own = init.get(var).expect("total");
        let naive = store.violation_count(view.lookup_with(var, own));
        assert_eq!(eval.violation_count_with(own), naive, "{var}");
    }
    assert_eq!(
        total, WARM_REFRESH_BUDGET,
        "allocations (budget {WARM_REFRESH_BUDGET})"
    );
}

#[test]
fn updating_a_known_view_variable_allocates_nothing() {
    let (problem, init) = instance();
    let mut total = 0;
    for var in problem.vars() {
        let mut view = neighbor_view(&problem, &init, var);
        for &other in problem.neighbors(var) {
            let value = recolor(view.value_of(other).expect("announced"));
            let agent = AgentId::new(other.raw());
            let (changed, allocs) = counting(|| view.update(other, agent, value, Priority::new(1)));
            assert!(changed, "{var}: {other} moved");
            total += allocs;
        }
        assert_eq!(view.len(), problem.neighbors(var).len());
    }
    assert_eq!(
        total, KNOWN_UPDATE_BUDGET,
        "allocations (budget {KNOWN_UPDATE_BUDGET})"
    );
}

/// Everything a store answers about its content.
fn content(store: &NogoodStore) -> (Vec<(NogoodIdx, Nogood)>, Vec<NogoodIdx>, usize) {
    (
        store
            .entries()
            .map(|(idx, ng)| (idx, ng.to_nogood()))
            .collect(),
        store.indices().collect(),
        store.len(),
    )
}

#[test]
fn borrowed_and_owned_nogoods_build_the_same_store() {
    let x = VariableId::new;
    let v = Value::new;
    let nogoods = vec![
        Nogood::of([(x(0), v(0)), (x(1), v(0))]),
        Nogood::of([(x(0), v(1)), (x(2), v(1))]),
        Nogood::of([(x(1), v(0)), (x(0), v(0))]), // the first, reordered
        Nogood::of([(x(0), v(2))]),
        Nogood::empty(),
        Nogood::of([(x(0), v(1)), (x(2), v(1))]), // the second again
    ];
    let borrowed = NogoodStore::with_nogoods(&nogoods);
    let owned = NogoodStore::with_nogoods(nogoods.clone());
    let inserted: NogoodStore = nogoods.iter().cloned().collect();

    assert_eq!(content(&borrowed), content(&owned));
    assert_eq!(content(&borrowed), content(&inserted));
    assert_eq!((borrowed.len(), borrowed.slot_count()), (4, 4));
    for store in [&borrowed, &owned, &inserted] {
        assert!(nogoods.iter().all(|ng| store.contains(ng)));
        assert!(!store.contains(&Nogood::of([(x(0), v(0))])));
        for var in [x(0), x(1), x(2)] {
            let mentions: Vec<NogoodIdx> = store.for_variable(var).map(|(idx, _)| idx).collect();
            let expected: Vec<NogoodIdx> = borrowed
                .entries()
                .filter(|(_, ng)| ng.contains_var(var))
                .map(|(idx, _)| idx)
                .collect();
            assert_eq!(mentions, expected, "{var}");
        }
    }
}
