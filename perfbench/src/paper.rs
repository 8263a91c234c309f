//! `paper_learning`: AWC with nogood learning on the paper's synchronous
//! simulator, over a fixed set of trials from the paper protocol (§4).
//!
//! The Rslv cells grow nogood stores past the two-watched-literal
//! threshold, the Mcs cell keeps them small; no router or shard code
//! runs. The trials are the first ones the paper protocol's master seed
//! draws for each cell, whatever `--seed` says: one trial's cost varies
//! fivefold between instances, which would swamp any comparison of two
//! runs. `--seed` only permutes the order trials run in. Correctness:
//! every solution satisfies the problem, and every trial's metrics
//! equal those of the reproduction harness (`run_cell_with_jobs`).

use std::time::Instant;

use discsp_awc::{AwcAgent, AwcConfig, AwcSolver};
use discsp_bench::trial::run_cell_with_jobs;
use discsp_bench::{Algorithm, Family, Protocol};
use discsp_core::{
    Assignment, DistributedCsp, IncrementalEval, RunMetrics, Termination, PAPER_CYCLE_LIMIT,
};
use discsp_cspsolve::random_assignment;
use discsp_runtime::{derive_seed, SyncSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, quantile, quantile_u64, ratio};
use crate::traced::{self, Spans};
use crate::{alloc, Metrics, Run, Tally};

/// The paper protocol's master seed.
const PAPER_MASTER_SEED: u64 = 20_000_419;

/// One table cell: a problem family and size, the learning method, and
/// how many (instance, initial-value) trials of it a round runs.
struct Cell {
    family: Family,
    n: u32,
    config: fn() -> AwcConfig,
    instances: usize,
    inits: usize,
}

const CELLS: [Cell; 3] = [
    Cell {
        family: Family::Coloring,
        n: 150,
        config: AwcConfig::resolvent,
        instances: 2,
        inits: 1,
    },
    Cell {
        family: Family::Sat,
        n: 150,
        config: AwcConfig::resolvent,
        instances: 1,
        inits: 1,
    },
    Cell {
        family: Family::OneSat,
        n: 200,
        config: AwcConfig::mcs,
        instances: 1,
        inits: 2,
    },
];

impl Cell {
    fn protocol(&self) -> Protocol {
        Protocol {
            instances: self.instances,
            inits: self.inits,
            cycle_limit: PAPER_CYCLE_LIMIT,
            master_seed: PAPER_MASTER_SEED,
        }
    }
}

/// One trial: the cell it belongs to, its position in the harness's
/// order, its instance and initial values.
struct Trial {
    cell: usize,
    index: usize,
    problem: DistributedCsp,
    init: Assignment,
}

/// Generates every trial of a round: per cell, instances in index
/// order, each followed by its initial-value sets drawn from the
/// instance's own stream (the harness's order), then shuffled by `seed`.
fn generate(seed: u64) -> Vec<Trial> {
    let mut trials = Vec::new();
    for (cell_index, cell) in CELLS.iter().enumerate() {
        for index in 0..cell.instances {
            let problem = cell.family.problem(cell.n, index, PAPER_MASTER_SEED);
            // The harness's initial-value stream for this instance.
            let init_seed = derive_seed(
                PAPER_MASTER_SEED ^ 0xA5A5_5A5A,
                cell.family as u64 * 1000 + u64::from(cell.n),
                index as u64,
            );
            let mut rng = StdRng::seed_from_u64(init_seed);
            for _ in 0..cell.inits {
                trials.push(Trial {
                    cell: cell_index,
                    index: trials.len(),
                    problem: problem.clone(),
                    init: random_assignment(&problem, &mut rng),
                });
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..trials.len()).rev() {
        trials.swap(i, rng.gen_range(0..=i));
    }
    trials
}

fn build(trial: &Trial) -> Result<Vec<AwcAgent>, String> {
    AwcSolver::new((CELLS[trial.cell].config)())
        .build_agents(&trial.problem, &trial.init)
        .map_err(|e| e.to_string())
}

/// Checks one finished trial: solved, with a satisfying solution.
fn check(trial: &Trial, metrics: &RunMetrics, solution: Option<&Assignment>) -> Result<(), String> {
    let cell = &CELLS[trial.cell];
    if metrics.termination != Termination::Solved {
        return Err(format!(
            "{} n={} trial ended {:?} after {} cycles",
            cell.family.key(),
            cell.n,
            metrics.termination,
            metrics.cycles
        ));
    }
    match solution {
        Some(s) if trial.problem.is_solution(s) => Ok(()),
        _ => Err(format!(
            "{} n={}: reported solution is wrong",
            cell.family.key(),
            cell.n
        )),
    }
}

/// The harness's metrics for the same trials, in its order.
fn reference(run: &Run) -> Vec<RunMetrics> {
    let mut all = Vec::new();
    for cell in &CELLS {
        let algorithm = Algorithm::Awc((cell.config)());
        all.extend(run_cell_with_jobs(
            cell.family,
            cell.n,
            algorithm,
            &cell.protocol(),
            run.workers,
        ));
    }
    all
}

/// Fails unless each trial's metrics equal the harness's for the same
/// trial. `measured` is in `trials` order.
fn pin(run: &Run, trials: &[Trial], measured: &[RunMetrics]) -> Result<(), String> {
    let expected = reference(run);
    let mut ordered = vec![None; expected.len()];
    for (trial, metrics) in trials.iter().zip(measured) {
        ordered[trial.index] = Some(metrics.clone());
    }
    let ordered: Vec<RunMetrics> = ordered.into_iter().flatten().collect();
    let sums = |ms: &[RunMetrics]| {
        ms.iter().fold((0u64, 0u64, 0u64), |(c, m, t), x| {
            (c + x.cycles, m + x.maxcck, t + x.total_checks)
        })
    };
    if ordered != expected {
        return Err(format!(
            "metrics differ from run_cell_with_jobs: (cycles, maxcck, total_checks) sums {:?} vs {:?}",
            sums(&ordered),
            sums(&expected)
        ));
    }
    Ok(())
}

/// End-to-end run: whole rounds (generate, build, solve every trial)
/// until `run.seconds` has passed.
pub fn end_to_end(run: &Run) -> Result<(Metrics, Tally), String> {
    let deadline = Instant::now() + run.budget();
    let mut tally = Tally::default();
    let (mut walls, mut setups, mut check_rates, mut activation_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99, mut bytes_per_agent) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_round: Option<(Vec<Trial>, Vec<RunMetrics>)> = None;
    while first_round.is_none() || Instant::now() < deadline {
        let round = Instant::now();
        let trials = generate(run.seed);
        let mut setup = round.elapsed().as_secs_f64();
        let (mut solve, mut checks, mut activations) = (0.0, 0u64, 0u64);
        let mut metrics = Vec::with_capacity(trials.len());
        let mut trial_ms = Vec::with_capacity(trials.len());
        for trial in &trials {
            tally.attempted += 1;
            let start = Instant::now();
            let base = alloc::live();
            alloc::reset_peak();
            let agents = build(trial)?;
            let built = start.elapsed().as_secs_f64();
            let mut sim = SyncSimulator::new(agents);
            sim.cycle_limit(PAPER_CYCLE_LIMIT);
            let solving = Instant::now();
            let result = sim.run(&trial.problem).map_err(|e| e.to_string())?;
            solve += solving.elapsed().as_secs_f64();
            drop(sim);
            trial_ms.push(start.elapsed().as_secs_f64() * 1e3);
            bytes_per_agent.push((alloc::peak() - base) as f64 / trial.problem.num_agents() as f64);
            setup += built;
            let outcome = result.outcome;
            check(trial, &outcome.metrics, outcome.solution.as_ref())?;
            checks += outcome.metrics.total_checks;
            activations += outcome.metrics.cycles * trial.problem.num_agents() as u64;
            metrics.push(outcome.metrics);
        }
        walls.push(round.elapsed().as_secs_f64());
        setups.push(setup);
        tally.samples += trial_ms.len() as u64;
        p50.push(quantile(&trial_ms, 0.5));
        p99.push(trial_ms.iter().copied().fold(0.0, f64::max));
        check_rates.push(checks as f64 / solve);
        activation_rates.push(activations as f64 / solve);
        match &first_round {
            None => first_round = Some((trials, metrics)),
            Some((_, first)) if *first != metrics => {
                return Err("a repeated round produced different metrics".to_string())
            }
            Some(_) => {}
        }
    }
    if let Some((trials, metrics)) = &first_round {
        pin(run, trials, metrics)?;
    }

    tally.repetitions = walls.len() as u64;
    let trials_per_round = tally.attempted as f64 / walls.len() as f64;
    let mut m = Metrics::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("checks_per_s", median(&check_rates));
    m.insert("activations_per_s", median(&activation_rates));
    m.insert("peak_bytes_per_agent", median(&bytes_per_agent));
    m.insert("sessions_per_s", trials_per_round / median(&walls));
    // Per-round figures, then their median: every round runs the same
    // trials, so each names the same trial every round. Five trials
    // make no tail: session_ms_p99 is the slowest trial, as
    // BENCHMARK.json says.
    m.insert("session_ms_p50", median(&p50));
    m.insert("session_ms_p99", median(&p99));
    Ok((m, tally))
}

/// Replays `IncrementalEval::refresh_view` plus `violation_count_with`
/// on each agent's end-of-run store and view; returns the median
/// nanoseconds per agent query and each agent's store length.
fn replay_queries(agents: &[AwcAgent]) -> (Vec<f64>, Vec<u64>) {
    let mut query_ns = Vec::with_capacity(agents.len());
    let mut lens = Vec::with_capacity(agents.len());
    for agent in agents {
        lens.push(agent.store().len() as u64);
        let mut samples = [0.0; 5];
        for sample in &mut samples {
            let start = Instant::now();
            let mut eval = IncrementalEval::new(agent.var());
            eval.refresh_view(agent.store(), agent.view());
            std::hint::black_box(eval.violation_count_with(agent.value()));
            *sample = start.elapsed().as_nanos() as f64;
        }
        query_ns.push(median(&samples));
    }
    (query_ns, lens)
}

/// Traced run: every trial once through the outside-in sync loop, which
/// must reproduce `SyncSimulator::run` exactly, plus one untraced pass
/// for the overhead figure.
pub fn traced(run: &Run) -> Result<(Metrics, Tally), String> {
    let started = Instant::now();
    let trials = generate(run.seed);
    let generate_s = started.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut untraced_s = 0.0;
    let mut untraced = Vec::with_capacity(trials.len());
    for trial in &trials {
        let mut sim = SyncSimulator::new(build(trial)?);
        sim.cycle_limit(PAPER_CYCLE_LIMIT);
        let start = Instant::now();
        let result = sim.run(&trial.problem).map_err(|e| e.to_string())?;
        untraced_s += start.elapsed().as_secs_f64();
        untraced.push(result.outcome.metrics);
    }
    pin(run, &trials, &untraced)?;

    let mut spans = Spans::default();
    let (mut query_ns, mut lens) = (Vec::new(), Vec::new());
    let (mut over_threshold, mut generated, mut redundant) = (0u64, 0u64, 0u64);
    for (trial, expected) in trials.iter().zip(&untraced) {
        tally.attempted += 1;
        let mut agents = build(trial)?;
        let result = traced::run_sync(&mut agents, &trial.problem, PAPER_CYCLE_LIMIT);
        if result.metrics != *expected {
            return Err(format!(
                "traced sync loop diverged from SyncSimulator: {:?} vs {expected:?}",
                result.metrics
            ));
        }
        check(trial, &result.metrics, result.solution.as_ref())?;
        generated += result.metrics.nogoods_generated;
        redundant += result.metrics.redundant_nogoods;
        over_threshold += agents
            .iter()
            .filter(|a| a.store().slot_count() > IncrementalEval::SMALL_STORE_LIMIT)
            .count() as u64;
        let (q, l) = replay_queries(&agents);
        query_ns.extend(q);
        lens.extend(l);
        spans.absorb(result.spans);
    }

    if over_threshold == 0 {
        return Err(format!(
            "no store grew past {} slots: the workload no longer exercises the large-store path",
            IncrementalEval::SMALL_STORE_LIMIT
        ));
    }

    let step_total = spans.step_total_ns() as f64;
    let total = spans.total_ns as f64;
    let mut m = Metrics::new();
    m.insert("awc.step_ns_p50", quantile_u64(&spans.step_ns, 0.5));
    m.insert("awc.step_ns_p99", quantile_u64(&spans.step_ns, 0.99));
    m.insert("awc.ns_per_check", ratio(step_total, spans.checks as f64));
    m.insert(
        "awc.allocs_per_step",
        ratio(spans.step_allocs as f64, spans.step_ns.len() as f64),
    );
    m.insert(
        "awc.redundant_ratio",
        ratio(redundant as f64, generated as f64),
    );
    m.insert("store.len_p50", quantile_u64(&lens, 0.5));
    m.insert(
        "store.len_max",
        lens.iter().copied().max().unwrap_or(0) as f64,
    );
    m.insert("store.agents_over_256", over_threshold as f64);
    m.insert("store.query_ns", median(&query_ns));
    m.insert("sync.route_share", ratio(spans.deliver_ns as f64, total));
    m.insert("sync.observe_share", ratio(spans.observe_ns as f64, total));
    m.insert(
        "problem.is_solution_ns",
        ratio(spans.is_solution_ns as f64, spans.is_solution_calls as f64),
    );
    m.insert("probgen.generate_s", generate_s);
    m.insert("trace.overhead", ratio(total / 1e9, untraced_s));
    tally.repetitions = 1;
    tally.samples = spans.step_ns.len() as u64;
    Ok((m, tally))
}
