//! Scale benchmark: the M:N sharded executor on large planted coloring
//! instances.
//!
//! `run_sharded` multiplexes the population onto a fixed worker pool.
//! This bench drives the distributed breakout over
//! `paper_coloring` instances of 10^5–3×10^5 agents, started from a
//! lightly perturbed planted solution so the repair is real work with
//! a bounded, size-tracked wave count (AWC's repair cost from the same
//! init is wildly seed-dependent), and reports the two numbers the
//! executor exists for: **agents per second** (activations retired per
//! wall-clock second) and **bytes per agent** (the peak live heap of
//! build + solve, above what the cell started with, divided by the
//! population; a counting global allocator measures it, so one cell
//! cannot reuse pages an earlier cell freed).
//!
//! The worker count must not change a run, so the bench fails unless
//! every row of one population reports the same ticks and activations.
//!
//! Writes `BENCH_scale.json` at the repo root. Set
//! `DISCSP_BENCH_SMOKE=1` for the CI smoke matrix (10^4 agents, fewer
//! worker counts) — the snapshot is then left untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use discsp_core::{Assignment, Termination, Value};
use discsp_dba::DbaSolver;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{ShardConfig, SplitMix64, VirtualConfig};

/// One agent in 64 starts off the planted color, so ~1.5% of the
/// population (plus their neighborhoods) has genuine repair work while
/// the run still terminates in a handful of waves at any size.
const PERTURB_ONE_IN: u64 = 64;

fn smoke() -> bool {
    std::env::var_os("DISCSP_BENCH_SMOKE").is_some()
}

/// `(agents, workers)` cells. Full mode sweeps worker counts at 10^5
/// and runs a 3×10^5 headline row; smoke keeps CI under a minute.
///
/// Why the headline is not 10^6: the executor's per-activation cost is
/// nearly flat (≈280k–390k activations/s at 10^5, ≈440k at 3×10^5 on a
/// 2-vCPU host), but the *workload's* breakout wave count grows with
/// the population (20 waves at 10^5, 100 at 3×10^5) and every wave
/// activates all n agents, so a 10^6 solve would outlast the rest of
/// the matrix many times over. Peak heap stays flat at ≈7.3 KB per
/// agent, so 10^6 agents would need ≈7.3 GB.
fn matrix() -> Vec<(u32, usize)> {
    if smoke() {
        vec![(10_000, 1), (10_000, 4)]
    } else {
        vec![(100_000, 1), (100_000, 4), (100_000, 8), (300_000, 8)]
    }
}

/// Forwards to the system allocator, counting live heap bytes and their
/// peak across every thread.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static GLOBAL: Counting = Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics and never influence
// what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which `System.alloc` shares.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by
        // `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which `System.realloc` shares.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Row {
    agents: u32,
    workers: usize,
    ticks: u64,
    activations: u64,
    solve_secs: f64,
    agents_per_sec: f64,
    activations_per_sec: f64,
    bytes_per_agent: f64,
}

fn run_cell(agents: u32, workers: usize) -> Row {
    let instance = paper_coloring(agents, 11);
    let problem = coloring_to_discsp(&instance).expect("encode");

    // Perturb a deterministic 1-in-64 slice of the planted coloring.
    let mut rng = SplitMix64::new(agents as u64 ^ 0x5ca1_ab1e);
    let init = Assignment::total(instance.planted.iter().map(|&c| {
        if rng.next_below(PERTURB_ONE_IN) == 0 {
            Value::new((c + 1) % 3)
        } else {
            Value::new(c)
        }
    }));

    let config = ShardConfig::with_base(
        VirtualConfig {
            seed: 7,
            stop_on_first_solution: true,
            ..VirtualConfig::default()
        },
        workers,
    );
    let solver = DbaSolver::new();
    // Peak window: build + solve, above what the cell holds already.
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let start = Instant::now();
    let report = solver
        .solve_sharded(&problem, &init, &config)
        .expect("one variable per agent");
    let solve_secs = start.elapsed().as_secs_f64();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);

    assert_eq!(
        report.outcome.metrics.termination,
        Termination::Solved,
        "{agents} agents / {workers} workers: scale instance must solve"
    );
    let solution = report.outcome.solution.expect("solved");
    assert!(problem.is_solution(&solution));

    Row {
        agents,
        workers,
        ticks: report.ticks,
        activations: report.activations,
        solve_secs,
        agents_per_sec: f64::from(agents) / solve_secs,
        activations_per_sec: report.activations as f64 / solve_secs,
        bytes_per_agent: peak as f64 / f64::from(agents),
    }
}

fn write_snapshot(rows: &[Row]) {
    let mut json = String::from(
        "{\n  \"bench\": \"scale\",\n  \"executor\": \"run_sharded\",\n  \"results\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"agents\": {}, \"workers\": {}, \"ticks\": {}, \"activations\": {}, \
             \"solve_secs\": {:.3}, \"agents_per_sec\": {:.0}, \
             \"activations_per_sec\": {:.0}, \"bytes_per_agent\": {:.0}}}{sep}\n",
            r.agents,
            r.workers,
            r.ticks,
            r.activations,
            r.solve_secs,
            r.agents_per_sec,
            r.activations_per_sec,
            r.bytes_per_agent
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_scale.json");
    f.write_all(json.as_bytes()).expect("write BENCH_scale.json");
    println!("[wrote {path}]");
}

fn main() {
    let mut rows = Vec::new();
    for (agents, workers) in matrix() {
        let row = run_cell(agents, workers);
        println!(
            "scale/{}agents/{}workers: {:.3}s, {} ticks, {:.0} agents/s, \
             {:.0} activations/s, {:.0} bytes/agent",
            row.agents,
            row.workers,
            row.solve_secs,
            row.ticks,
            row.agents_per_sec,
            row.activations_per_sec,
            row.bytes_per_agent
        );
        if let Some(first) = rows.iter().find(|r: &&Row| r.agents == row.agents) {
            assert!(
                (first.ticks, first.activations) == (row.ticks, row.activations),
                "{} agents: {} workers ran {} ticks and {} activations, {} workers \
                 ran {} and {}; the worker count must not change a run",
                row.agents,
                row.workers,
                row.ticks,
                row.activations,
                first.workers,
                first.ticks,
                first.activations
            );
        }
        rows.push(row);
    }
    if smoke() {
        println!("[smoke mode: snapshot not written]");
    } else {
        write_snapshot(&rows);
    }
    println!("benchmarks completed");
}
