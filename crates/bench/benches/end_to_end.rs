//! End-to-end benchmark: full synchronous solves of one fixed instance
//! per family, per algorithm — the wall-clock companion to the paper's
//! cycle/maxcck tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use discsp_awc::{AbtSolver, AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Value};
use discsp_dba::{DbaSolver, WeightMode};
use discsp_probgen::{cnf_to_discsp, coloring_to_discsp, paper_coloring, paper_one_sat3};
use discsp_runtime::Solver;

fn fixtures() -> Vec<(&'static str, DistributedCsp, Assignment)> {
    let coloring = coloring_to_discsp(&paper_coloring(30, 11)).unwrap();
    let coloring_init = Assignment::total(vec![Value::new(0); 30]);
    let onesat = cnf_to_discsp(&paper_one_sat3(30, 11).cnf).unwrap();
    let onesat_init = Assignment::total(vec![Value::FALSE; 30]);
    vec![
        ("d3c30", coloring, coloring_init),
        ("d3s1_30", onesat, onesat_init),
    ]
}

fn bench_awc(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_awc");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, problem, init) in fixtures() {
        for config in [
            AwcConfig::resolvent(),
            AwcConfig::mcs(),
            AwcConfig::kth_resolvent(3),
            AwcConfig::no_learning(),
        ] {
            group.bench_with_input(
                BenchmarkId::new(config.label(), name),
                &(&problem, &init),
                |bench, (problem, init)| {
                    let solver = AwcSolver::new(config);
                    bench.iter(|| {
                        solver
                            .solve_sync(problem, init)
                            .expect("one variable per agent")
                            .outcome
                            .metrics
                            .cycles
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_baselines");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, problem, init) in fixtures() {
        group.bench_with_input(
            BenchmarkId::new("DB", name),
            &(&problem, &init),
            |bench, (problem, init)| {
                let solver = DbaSolver::new().weight_mode(WeightMode::PerNogood);
                bench.iter(|| {
                    solver
                        .solve_sync(problem, init)
                        .expect("one variable per agent")
                        .outcome
                        .metrics
                        .cycles
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("ABT", name),
            &(&problem, &init),
            |bench, (problem, init)| {
                let solver = AbtSolver::new();
                bench.iter(|| {
                    solver
                        .solve_sync(problem, init)
                        .expect("one variable per agent")
                        .outcome
                        .metrics
                        .cycles
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_awc, bench_baselines);
criterion_main!(benches);
