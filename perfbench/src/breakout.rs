//! `breakout_scale`: the distributed breakout on the M:N sharded
//! executor, repairing a lightly perturbed planted coloring of 5×10⁴
//! agents until the first consistent snapshot.
//!
//! Each activation is cheap and the nogood store never grows, so the
//! cost sits in routing, the shard pool's fan-out and id-ordered merge,
//! the per-tick `is_solution` rescan, and allocation per activation.
//! Correctness: the run solves, the solution satisfies the problem, and
//! every repetition, worker count and the traced loop report identical
//! metrics, activations and ticks.

use std::time::Instant;

use discsp_core::{Assignment, DistributedCsp, Termination, Value};
use discsp_dba::{DbaAgent, DbaSolver};
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{
    derive_seed, run_sharded, run_virtual, ShardConfig, SplitMix64, VirtualConfig, VirtualReport,
};

use crate::stats::{median, quantile_u64, ratio};
use crate::traced;
use crate::{alloc, Metrics, Run, Tally};

/// Population of the coloring.
const AGENTS: u32 = 50_000;

/// One agent in 1024 starts off its planted color: sparse enough that
/// the breakout repairs every conflict in its first improve round, so
/// every seed does the same number of waves.
const PERTURB_ONE_IN: u64 = 1024;

struct Instance {
    problem: DistributedCsp,
    init: Assignment,
}

/// Generates and encodes the instance, then perturbs its planted
/// coloring into the initial values.
fn generate(seed: u64) -> Result<Instance, String> {
    let coloring = paper_coloring(AGENTS, derive_seed(seed, 0xB4EA, 0));
    let problem = coloring_to_discsp(&coloring).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(derive_seed(seed, 0xB4EA, 1));
    let init = Assignment::total(coloring.planted.iter().map(|&c| {
        if rng.next_below(PERTURB_ONE_IN) == 0 {
            Value::new((c + 1) % 3)
        } else {
            Value::new(c)
        }
    }));
    Ok(Instance { problem, init })
}

fn config(seed: u64) -> VirtualConfig {
    VirtualConfig {
        seed,
        stop_on_first_solution: true,
        ..VirtualConfig::default()
    }
}

fn build(instance: &Instance) -> Result<Vec<DbaAgent>, String> {
    DbaSolver::new()
        .build_agents(&instance.problem, &instance.init)
        .map_err(|e| e.to_string())
}

fn check(instance: &Instance, report: &VirtualReport) -> Result<(), String> {
    let metrics = &report.outcome.metrics;
    if metrics.termination != Termination::Solved {
        return Err(format!(
            "breakout ended {:?} at tick {}",
            metrics.termination, report.ticks
        ));
    }
    match &report.outcome.solution {
        Some(s) if instance.problem.is_solution(s) => Ok(()),
        _ => Err("breakout reported a wrong solution".to_string()),
    }
}

/// The executor-visible outcome two runs must share.
fn signature(report: &VirtualReport) -> (discsp_core::RunMetrics, u64, u64, u64) {
    (
        report.outcome.metrics.clone(),
        report.activations,
        report.ticks,
        report.nudges,
    )
}

/// End-to-end run: generate, build and solve on `workers` threads,
/// repeated until `run.seconds` has passed.
pub fn end_to_end(run: &Run) -> Result<(Metrics, Tally), String> {
    let deadline = Instant::now() + run.budget();
    let shard = ShardConfig::with_base(config(run.seed), run.workers);
    let mut tally = Tally::default();
    let (mut walls, mut setups, mut check_rates, mut activation_rates, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    while first.is_none() || Instant::now() < deadline {
        tally.attempted += 1;
        let start = Instant::now();
        let instance = generate(run.seed)?;
        let base = alloc::live();
        alloc::reset_peak();
        let agents = build(&instance)?;
        let setup = start.elapsed().as_secs_f64();
        let solving = Instant::now();
        let report = run_sharded(agents, &instance.problem, &shard).map_err(|e| e.to_string())?;
        let solve = solving.elapsed().as_secs_f64();
        bytes.push((alloc::peak() - base) as f64 / f64::from(AGENTS));
        walls.push(start.elapsed().as_secs_f64());
        setups.push(setup);
        check(&instance, &report)?;
        check_rates.push(report.outcome.metrics.total_checks as f64 / solve);
        activation_rates.push(report.activations as f64 / solve);
        match &first {
            None => first = Some(signature(&report)),
            Some(sig) if *sig != signature(&report) => {
                return Err("a repeated solve produced a different outcome".to_string())
            }
            Some(_) => {}
        }
    }
    tally.repetitions = walls.len() as u64;
    tally.samples = walls.len() as u64;
    let mut m = Metrics::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("checks_per_s", median(&check_rates));
    m.insert("activations_per_s", median(&activation_rates));
    m.insert("peak_bytes_per_agent", median(&bytes));
    // One solve is this workload's only session, and a run holds about
    // ten: too few for a tail. The session figures restate the median
    // solve wall, as BENCHMARK.json says.
    m.insert("sessions_per_s", 1.0 / median(&walls));
    m.insert("session_ms_p50", median(&walls) * 1e3);
    m.insert("session_ms_p99", median(&walls) * 1e3);
    Ok((m, tally))
}

/// Traced run: `run_virtual`, the traced loop, and `run_sharded` at one
/// and at `workers` threads on the same instance; all four must agree.
pub fn traced(run: &Run) -> Result<(Metrics, Tally), String> {
    let started = Instant::now();
    let instance = generate(run.seed)?;
    let generate_s = started.elapsed().as_secs_f64();
    let base = config(run.seed);
    let mut tally = Tally {
        attempted: 4,
        repetitions: 1,
        ..Tally::default()
    };

    let timed = |workers: Option<usize>| -> Result<(VirtualReport, f64), String> {
        let agents = build(&instance)?;
        let start = Instant::now();
        let report = match workers {
            None => run_virtual(agents, &instance.problem, &base),
            Some(w) => run_sharded(
                agents,
                &instance.problem,
                &ShardConfig::with_base(base.clone(), w),
            ),
        }
        .map_err(|e| e.to_string())?;
        let secs = start.elapsed().as_secs_f64();
        check(&instance, &report)?;
        Ok((report, secs))
    };
    let (virt, virt_s) = timed(None)?;
    let (one, one_s) = timed(Some(1))?;
    let (many, many_s) = timed(Some(run.workers))?;

    let mut agents = build(&instance)?;
    let traced =
        traced::run_virtual(&mut agents, &instance.problem, &base).map_err(|e| e.to_string())?;
    let expected = signature(&virt);
    let got = (
        traced.metrics.clone(),
        traced.activations,
        traced.ticks,
        traced.nudges,
    );
    for (name, sig) in [
        ("traced loop", &got),
        ("sharded w=1", &signature(&one)),
        ("sharded", &signature(&many)),
    ] {
        if *sig != expected {
            return Err(format!(
                "{name} diverged from run_virtual: {sig:?} vs {expected:?}"
            ));
        }
    }
    if traced.solution != virt.outcome.solution {
        return Err("traced loop found a different solution".to_string());
    }

    let spans = &traced.spans;
    let total = spans.total_ns as f64;
    let steps = spans.step_ns.len() as f64;
    let mut m = Metrics::new();
    m.insert("dba.step_ns_p50", quantile_u64(&spans.step_ns, 0.5));
    m.insert(
        "dba.allocs_per_step",
        ratio(spans.step_allocs as f64, steps),
    );
    m.insert(
        "router.route_ns",
        ratio(spans.route_ns as f64, spans.routed as f64),
    );
    m.insert(
        "router.take_due_ns",
        ratio(spans.deliver_ns as f64, spans.delivered as f64),
    );
    m.insert(
        "router.allocs_per_msg",
        ratio(spans.route_allocs as f64, spans.routed as f64),
    );
    m.insert(
        "problem.is_solution_ns",
        ratio(spans.is_solution_ns as f64, spans.is_solution_calls as f64),
    );
    m.insert(
        "virtual.step_share",
        ratio(spans.step_total_ns() as f64, total),
    );
    m.insert(
        "virtual.route_share",
        ratio((spans.route_ns + spans.deliver_ns) as f64, total),
    );
    m.insert("virtual.merge_share", ratio(spans.merge_ns as f64, total));
    m.insert(
        "virtual.observe_share",
        ratio(spans.observe_ns as f64, total),
    );
    m.insert(
        "shard.parallel_efficiency",
        ratio(one_s, run.workers as f64 * many_s),
    );
    m.insert("shard.overhead", ratio(one_s, virt_s));
    m.insert("probgen.generate_s", generate_s);
    m.insert("trace.overhead", ratio(total / 1e9, virt_s));
    tally.samples = spans.step_ns.len() as u64;
    Ok((m, tally))
}
