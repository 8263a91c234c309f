//! Building an agent costs a fixed handful of heap allocations.
//!
//! The solvers hand each agent its constraints by reference, and
//! `NogoodStore::with_nogoods` sizes the literal arena, the slot headers
//! and the mutation log once, while dedup chains same-hash slots through
//! their headers instead of keeping a bucket per nogood. A counting
//! global allocator pins what `DbaSolver::build_agents` allocates per
//! agent. The count is per thread, so the other tests of this binary,
//! running alongside, do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use discsp_core::{Assignment, Nogood, NogoodIdx, NogoodStore, Value, VariableId};
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

/// Allocations one DB agent may cost at build, reallocations included:
/// room above the 19.9 a store with reserved vectors and chained dedup
/// costs here, while a heap object per nogood (67 per agent) fails.
const DB_BUILD_BUDGET: f64 = 22.0;

#[test]
fn building_db_agents_stays_within_the_allocation_budget() {
    const AGENTS: u32 = 2_000;
    let coloring = paper_coloring(AGENTS, 11);
    let problem = coloring_to_discsp(&coloring).expect("encode");
    let init = Assignment::total(coloring.planted.iter().map(|&c| Value::new(c)));
    let solver = DbaSolver::new();

    let before = allocs();
    let agents = solver
        .build_agents(&problem, &init)
        .expect("one variable per agent");
    let per_agent = (allocs() - before) as f64 / f64::from(AGENTS);

    assert_eq!(agents.len(), AGENTS as usize);
    assert!(
        per_agent <= DB_BUILD_BUDGET,
        "building a DB agent took {per_agent:.1} allocations (budget {DB_BUILD_BUDGET})"
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
    assert_eq!(borrowed.len(), 4);
    assert_eq!(borrowed.mutation_log(), &[0, 1, 2, 3]);
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
