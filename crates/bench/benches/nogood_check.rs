//! Micro-benchmark: nogood evaluation cost — the `maxcck` unit.
//!
//! Measures single-nogood evaluation, full-store violation scans, the
//! agent hot-path violation *query* (one view variable changed per
//! query) across four implementations, the AWC *review* (higher/lower
//! partition plus the violated higher nogoods, one view variable
//! changed per review). Check *counts* are
//! representation-independent; wall-time is what this measures.
//!
//! Query variants, per store size:
//!
//! * `naive` — re-evaluate every stored nogood's literals (the
//!   pre-index implementation);
//! * `indexed` — the production [`IncrementalEval`] handed the whole
//!   view ([`IncrementalEval::refresh`], DB's path: it diffs the view
//!   and moves the tallies of the nogoods mentioning the changed
//!   variable), reading the violated *set* word-wise
//!   ([`IncrementalEval::violated_with`]) as DB does;
//! * `indexed_count` — same refresh, answering the violation *count* (a
//!   popcount over the slot bitsets);
//! * `changed` — the evaluator told which view variable changed
//!   ([`IncrementalEval::refresh_changed`], the AWC's path), reading the
//!   violated higher *set*. Every view variable outranks the owner
//!   here, so that set is the whole violated set the naive scan
//!   computes.
//!
//! `indexed` and `changed` do different work per query (a view diff
//! against none), so `speedup_indexed_over_naive` and
//! `speedup_changed_over_naive` in the snapshot are two series, not one
//! operation before and after.
//!
//! The review group mixes the sides: each iteration moves one
//! variable's value and priority, and the `naive` review re-partitions
//! the store with `AgentView::is_higher_nogood` before testing the
//! higher nogoods, as the AWC review did before the evaluator kept the
//! partition.
//!
//! Stored nogoods have 2–8 literals over distinct variables, like
//! learned resolvents, which span much of the sender's view. Sizes
//! reach 10^6 nogoods; the variable count scales with the size so the
//! per-variable mention lists keep a realistic degree.
//!
//! Running this bench writes a snapshot of every measurement plus the
//! headline speedups to `BENCH_store.json` at the repo root. Set
//! `DISCSP_BENCH_SMOKE=1` to run a reduced matrix (≤10^4, fewer
//! samples) without touching the snapshot — the CI smoke step.

use std::io::Write as _;
use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion, Measurement};
use discsp_core::{
    AgentId, AgentView, IncrementalEval, Nogood, NogoodStore, Priority, Rank, Value, VariableId,
};
use discsp_runtime::SplitMix64;

/// (store size, variable count) pairs for the review group.
const REVIEW_SIZES: [(usize, u32); 2] = [(100, 64), (1_000, 64)];

/// (store size, variable count) pairs for the query group.
const QUERY_SIZES: [(usize, u32); 5] = [
    (100, 64),
    (1_000, 64),
    (10_000, 64),
    (100_000, 512),
    (1_000_000, 2048),
];

fn smoke() -> bool {
    std::env::var_os("DISCSP_BENCH_SMOKE").is_some()
}

fn query_sizes() -> &'static [(usize, u32)] {
    if smoke() {
        &QUERY_SIZES[..3]
    } else {
        &QUERY_SIZES
    }
}

/// A random nogood of 2–8 literals over distinct variables, values in
/// `0..3`. The length spread mirrors learned resolvents, which span
/// much of the sender's view rather than single constraint arcs.
fn random_nogood(rng: &mut SplitMix64, vars: u32) -> Nogood {
    let len = 2 + rng.next_below(7) as usize;
    let mut elems: Vec<(VariableId, Value)> = Vec::with_capacity(len);
    while elems.len() < len {
        let var = VariableId::new(rng.next_below(vars as u64) as u32);
        if elems.iter().all(|&(existing, _)| existing != var) {
            elems.push((var, Value::new(rng.next_below(3) as u16)));
        }
    }
    Nogood::of(elems)
}

fn random_store(nogoods: usize, vars: u32, seed: u64) -> NogoodStore {
    let mut rng = SplitMix64::new(seed);
    let mut store = NogoodStore::new();
    while store.len() < nogoods {
        store.insert(random_nogood(&mut rng, vars));
    }
    store
}

fn bench_single_eval(c: &mut Criterion) {
    let ternary = Nogood::of([
        (VariableId::new(0), Value::new(0)),
        (VariableId::new(1), Value::new(1)),
        (VariableId::new(2), Value::new(2)),
    ]);
    c.bench_function("nogood_eval_ternary_violated", |bench| {
        bench.iter(|| {
            std::hint::black_box(&ternary).is_violated_by(|var| Some(Value::new(var.raw() as u16)))
        })
    });
    c.bench_function("nogood_eval_ternary_first_mismatch", |bench| {
        bench.iter(|| std::hint::black_box(&ternary).is_violated_by(|_| Some(Value::new(9))))
    });
}

fn bench_store_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_violation_scan");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &size in &[16usize, 128, 1024] {
        let store = random_store(size, 64, 42);
        group.bench_with_input(BenchmarkId::from_parameter(size), &store, |bench, store| {
            bench.iter(|| {
                store
                    .violated(|var| Some(Value::new((var.raw() % 3) as u16)))
                    .len()
            })
        });
    }
    group.finish();
}

/// The agent hot path: the view changes in exactly one variable, then
/// the violated set (or count) under the own value is recomputed.
fn bench_incremental_query(c: &mut Criterion) {
    let own = VariableId::new(0);
    let mut group = c.benchmark_group("violation_query_one_var_changed");
    group.warm_up_time(Duration::from_millis(500));
    for &(size, vars) in query_sizes() {
        if size >= 100_000 {
            group.sample_size(10);
            group.measurement_time(Duration::from_secs(2));
        } else {
            group.sample_size(20);
            group.measurement_time(Duration::from_secs(2));
        }
        let store = random_store(size, vars, 42);
        let changed = VariableId::new(1);

        let mut values: Vec<Value> = (0..vars).map(|v| Value::new((v % 3) as u16)).collect();
        let mut flip = 0u16;
        group.bench_with_input(BenchmarkId::new("naive", size), &store, |bench, store| {
            bench.iter(|| {
                flip ^= 1;
                values[changed.index()] = Value::new(flip);
                let values = &values;
                store
                    .violated(|var| {
                        if var == own {
                            Some(Value::new(0))
                        } else {
                            Some(values[var.index()])
                        }
                    })
                    .len()
            })
        });
        // The naive variant charges checks into the shared store meter;
        // clear them so the next variant starts from a clean slate.
        store.take_checks();

        let mut view: Vec<(VariableId, Value)> = (1..vars)
            .map(|v| (VariableId::new(v), Value::new((v % 3) as u16)))
            .collect();
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, view.iter().copied());
        let mut flip = 0u16;
        group.bench_with_input(BenchmarkId::new("indexed", size), &store, |bench, store| {
            bench.iter(|| {
                flip ^= 1;
                view[0].1 = Value::new(flip);
                eval.refresh(store, view.iter().copied());
                eval.violated_with(Value::new(0)).collect::<Vec<_>>().len()
            })
        });

        let mut flip = 0u16;
        group.bench_with_input(
            BenchmarkId::new("indexed_count", size),
            &store,
            |bench, store| {
                bench.iter(|| {
                    flip ^= 1;
                    view[0].1 = Value::new(flip);
                    eval.refresh(store, view.iter().copied());
                    eval.violation_count_with(Value::new(0))
                })
            },
        );

        // Every view variable at priority 1 outranks the owner at 0.
        let mut view = AgentView::new();
        for var in 1..vars {
            let value = Value::new((var % 3) as u16);
            view.update(
                VariableId::new(var),
                AgentId::new(var),
                value,
                Priority::new(1),
            );
        }
        let mut eval = IncrementalEval::new(own);
        eval.refresh_view(&store, &view);
        assert_eq!(eval.higher_len(), store.len());
        let mut flip = 0u16;
        group.bench_with_input(BenchmarkId::new("changed", size), &store, |bench, store| {
            bench.iter(|| {
                flip ^= 1;
                view.update(changed, AgentId::new(1), Value::new(flip), Priority::new(1));
                eval.refresh_changed(store, &view, Priority::ZERO, &[changed]);
                eval.violated_higher(Value::new(0))
                    .collect::<Vec<_>>()
                    .len()
            })
        });
    }
    group.finish();
}

/// The AWC review after one view variable moved its value and its
/// priority: the higher/lower partition plus the violated higher
/// nogoods under the own value. `naive` partitions with
/// `AgentView::is_higher_nogood` and evaluates the higher nogoods'
/// literals; `indexed` asks the evaluator.
fn bench_review(c: &mut Criterion) {
    let own = VariableId::new(0);
    let own_rank = Rank::new(own, Priority::new(1));
    let mut group = c.benchmark_group("review_one_var_changed");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &(size, vars) in &REVIEW_SIZES {
        let store = random_store(size, vars, 42);
        let changed = VariableId::new(1);
        // Priorities 0..3 put about a third of the variables above the
        // owner at priority 1.
        let mut view = AgentView::new();
        for var in 1..vars {
            let value = Value::new((var % 3) as u16);
            let priority = Priority::new(u64::from(var % 3));
            view.update(VariableId::new(var), AgentId::new(var), value, priority);
        }
        let mut flip = 0u16;
        let mut step = |view: &mut AgentView| {
            flip ^= 1;
            let priority = Priority::new(2 * u64::from(flip));
            view.update(changed, AgentId::new(1), Value::new(flip), priority);
        };

        let mut naive_view = view.clone();
        group.bench_with_input(BenchmarkId::new("naive", size), &store, |bench, store| {
            bench.iter(|| {
                step(&mut naive_view);
                let (mut higher, mut lower) = (Vec::new(), Vec::new());
                for (i, ng) in store.entries() {
                    if naive_view.is_higher_nogood(ng, own_rank) {
                        higher.push(i);
                    } else {
                        lower.push(i);
                    }
                }
                let lookup = naive_view.lookup_with(own, Value::new(0));
                let violated = higher
                    .iter()
                    .filter(|&&i| store.get(i).is_some_and(|ng| ng.is_violated_by(&lookup)))
                    .count();
                (higher.len(), lower.len(), violated)
            })
        });

        let all: Vec<VariableId> = view.iter().map(|(var, _)| var).collect();
        let mut eval = IncrementalEval::new(own);
        eval.refresh_changed(&store, &view, own_rank.priority(), &all);
        group.bench_with_input(BenchmarkId::new("indexed", size), &store, |bench, store| {
            bench.iter(|| {
                step(&mut view);
                eval.refresh_changed(store, &view, own_rank.priority(), &[changed]);
                let violated = eval.violated_higher(Value::new(0)).count();
                (eval.higher_len(), store.len() - eval.higher_len(), violated)
            })
        });
    }
    group.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn mean_of<'m>(ms: &'m [Measurement], name: &str) -> Option<&'m Measurement> {
    ms.iter().find(|m| m.name == name)
}

/// Writes `key`: the speedup of `variant` over `naive` in `group`, per
/// store size.
fn push_speedups(
    json: &mut String,
    ms: &[Measurement],
    key: &str,
    group: &str,
    variant: &str,
    sizes: &[(usize, u32)],
) {
    json.push_str(&format!("  \"{key}\": {{\n"));
    for (i, &(size, _)) in sizes.iter().enumerate() {
        let slow = mean_of(ms, &format!("{group}/naive/{size}"));
        let fast = mean_of(ms, &format!("{group}/{variant}/{size}"));
        let speedup = match (slow, fast) {
            (Some(n), Some(x)) if x.mean_ns > 0.0 => n.mean_ns / x.mean_ns,
            _ => f64::NAN,
        };
        let sep = if i + 1 < sizes.len() { "," } else { "" };
        json.push_str(&format!("    \"{size}\": {speedup:.2}{sep}\n"));
        println!("{group}: speedup {variant} vs naive at {size:>7} nogoods: {speedup:.2}x");
    }
    json.push_str("  }");
}

/// Serializes every measurement (ns/iter) and the headline speedups to
/// `BENCH_store.json` at the repository root.
fn write_snapshot(c: &Criterion) {
    let ms = c.measurements();
    let mut json = String::from(
        "{\n  \"bench\": \"nogood_check\",\n  \"unit\": \"ns_per_iter\",\n  \"results\": [\n",
    );
    for (i, m) in ms.iter().enumerate() {
        let sep = if i + 1 < ms.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}{sep}\n",
            json_escape(&m.name),
            m.mean_ns,
            m.min_ns,
            m.samples
        ));
    }
    json.push_str("  ],\n");
    push_speedups(
        &mut json,
        ms,
        "speedup_indexed_over_naive",
        "violation_query_one_var_changed",
        "indexed",
        query_sizes(),
    );
    json.push_str(",\n");
    push_speedups(
        &mut json,
        ms,
        "speedup_changed_over_naive",
        "violation_query_one_var_changed",
        "changed",
        query_sizes(),
    );
    json.push_str(",\n");
    push_speedups(
        &mut json,
        ms,
        "speedup_review_indexed_over_naive",
        "review_one_var_changed",
        "indexed",
        &REVIEW_SIZES,
    );
    json.push_str("\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_store.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_store.json");
    println!("[wrote {path}]");
}

criterion_group!(
    benches,
    bench_single_eval,
    bench_store_scan,
    bench_incremental_query,
    bench_review
);

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();
    if smoke() {
        println!("[smoke mode: snapshot not written]");
    } else {
        write_snapshot(&criterion);
    }
}
