//! Micro-benchmark: nogood evaluation cost — the `maxcck` unit.
//!
//! Measures single-nogood evaluation, full-store violation scans, the
//! agent hot-path violation *query* (one view variable changed per
//! query) across three implementations, and forgetting churn. Check
//! *counts* are representation-independent; wall-time is what this
//! measures.
//!
//! Query variants, per store size:
//!
//! * `naive` — re-evaluate every stored nogood's literals (the
//!   pre-index implementation);
//! * `indexed` — the production [`IncrementalEval`] (re-evaluate the
//!   nogoods mentioning the changed variable), reading the violated
//!   *set*;
//! * `indexed_count` — same, answering the violation *count* from the
//!   O(1) counters.
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
use discsp_core::{IncrementalEval, Nogood, NogoodStore, Value, VariableId};
use discsp_runtime::SplitMix64;

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

fn random_store(nogoods: usize, vars: u32, seed: u64, learned: bool) -> NogoodStore {
    let mut rng = SplitMix64::new(seed);
    let mut store = NogoodStore::new();
    while store.len() < nogoods {
        let ng = random_nogood(&mut rng, vars);
        if learned {
            store.insert_learned(ng);
        } else {
            store.insert(ng);
        }
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
        let store = random_store(size, 64, 42, false);
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
        let store = random_store(size, vars, 42, false);
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
                eval.violated_with(Value::new(0)).len()
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
    }
    group.finish();
}

/// Forgetting churn at steady state: each iteration records one fresh
/// learned nogood, runs a forget pass (evicting exactly one cold entry),
/// and resyncs the incremental cache — insert, eviction sort and slot
/// resync, all included.
fn bench_forgetting(c: &mut Criterion) {
    const VARS: u32 = 256;
    let own = VariableId::new(0);
    let mut group = c.benchmark_group("forgetting_churn");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    let budgets: &[usize] = if smoke() { &[1_000] } else { &[1_000, 10_000] };
    for &budget in budgets {
        let mut store = random_store(budget, VARS, 7, true);
        let view: Vec<(VariableId, Value)> = (1..VARS)
            .map(|v| (VariableId::new(v), Value::new((v % 3) as u16)))
            .collect();
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, view.iter().copied());
        let mut rng = SplitMix64::new(9);
        group.bench_function(BenchmarkId::new("insert_forget_resync", budget), |bench| {
            bench.iter(|| {
                while !store.insert_learned(random_nogood(&mut rng, VARS)) {}
                store.forget(budget);
                eval.refresh(&store, view.iter().copied());
                eval.violation_count_with(Value::new(0))
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

fn push_speedups(json: &mut String, ms: &[Measurement], key: &str, num: &str, den: &str) {
    json.push_str(&format!("  \"{key}\": {{\n"));
    let sizes = query_sizes();
    for (i, &(size, _)) in sizes.iter().enumerate() {
        let slow = mean_of(ms, &format!("violation_query_one_var_changed/{num}/{size}"));
        let fast = mean_of(ms, &format!("violation_query_one_var_changed/{den}/{size}"));
        let speedup = match (slow, fast) {
            (Some(n), Some(x)) if x.mean_ns > 0.0 => n.mean_ns / x.mean_ns,
            _ => f64::NAN,
        };
        let sep = if i + 1 < sizes.len() { "," } else { "" };
        json.push_str(&format!("    \"{size}\": {speedup:.2}{sep}\n"));
        println!("speedup {den} vs {num} at {size:>7} nogoods: {speedup:.2}x");
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
    push_speedups(&mut json, ms, "speedup_indexed_over_naive", "naive", "indexed");
    json.push_str("\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_store.json");
    f.write_all(json.as_bytes()).expect("write BENCH_store.json");
    println!("[wrote {path}]");
}

criterion_group!(
    benches,
    bench_single_eval,
    bench_store_scan,
    bench_incremental_query,
    bench_forgetting
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
