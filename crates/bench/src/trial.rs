//! Trial execution: one algorithm, one instance, one set of initial
//! values — and batched sweeps over the full protocol.
//!
//! Sweeps fan the independent trials of a cell across CPU cores
//! (`run_trials`, which [`run_cell`] and the delay and partition sweeps
//! share). Trial *generation* (instances and initial values) is
//! always sequential and consumes the RNG streams in the exact order the
//! serial runner did, so results are bit-identical for every worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use discsp_awc::{AbtSolver, AwcConfig, AwcSolver};
use discsp_core::{Aggregate, Assignment, DistributedCsp, RunMetrics};
use discsp_cspsolve::random_assignment;
use discsp_dba::{DbaSolver, WeightMode};
use discsp_runtime::{derive_seed, Solver, SyncSimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::config::{Family, Protocol};

/// Process-wide worker-count override; 0 means "auto" (one worker per
/// available core).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count used by [`run_cell`] (the repro binary's
/// `--jobs N`). Zero restores auto-detection.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The worker count [`run_cell`] will use: the [`set_jobs`] override, or
/// the machine's available parallelism.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// An algorithm under test, dispatchable uniformly by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// AWC with the given learning configuration.
    Awc(AwcConfig),
    /// Distributed breakout with the given weight placement.
    Db(WeightMode),
    /// Asynchronous backtracking (extension baseline, not in the paper's
    /// tables).
    Abt,
}

impl Algorithm {
    /// The table label (`Rslv`, `3rdRslv`, `DB`, `AWC+5thRslv`, …).
    pub fn label(&self) -> String {
        match self {
            Algorithm::Awc(config) => config.label(),
            Algorithm::Db(WeightMode::PerNogood) => "DB".to_string(),
            Algorithm::Db(WeightMode::PerPair) => "DB/pair".to_string(),
            Algorithm::Abt => "ABT".to_string(),
        }
    }

    /// Runs one trial on the synchronous simulator.
    pub fn run(&self, problem: &DistributedCsp, init: &Assignment, cycle_limit: u64) -> RunMetrics {
        match *self {
            Algorithm::Awc(config) => run_sync(&AwcSolver::new(config), problem, init, cycle_limit),
            Algorithm::Db(mode) => run_sync(
                &DbaSolver::new().weight_mode(mode),
                problem,
                init,
                cycle_limit,
            ),
            Algorithm::Abt => run_sync(&AbtSolver::new(), problem, init, cycle_limit),
        }
    }
}

/// One trial of `solver` on the synchronous simulator, cut off after
/// `cycle_limit` cycles.
fn run_sync<S: Solver>(
    solver: &S,
    problem: &DistributedCsp,
    init: &Assignment,
    cycle_limit: u64,
) -> RunMetrics {
    let agents = solver
        .agents(problem, init)
        .expect("benchmark problems are one variable per agent"); // lint: allow(panic-path): the bench generator guarantees one variable per agent; fail fast on a bad generator
    let mut sim = SyncSimulator::new(agents);
    sim.cycle_limit(cycle_limit);
    sim.run(problem)
        .expect("benchmark populations are densely indexed") // lint: allow(panic-path): seated populations are densely indexed; fail fast on a runtime bug
        .outcome
        .metrics
}

/// Runs the full protocol for one `(family, n, algorithm)` cell and
/// returns every trial's metrics.
///
/// Instance `i`, init `j` always uses the same derived seeds regardless
/// of the algorithm, so every algorithm sees identical instances and
/// identical initial values — the paper's paired-comparison design.
pub fn run_cell(
    family: Family,
    n: u32,
    algorithm: Algorithm,
    protocol: &Protocol,
) -> Vec<RunMetrics> {
    run_cell_with_jobs(family, n, algorithm, protocol, jobs())
}

/// [`run_cell`] with an explicit worker count. All randomness is consumed
/// before the trials fan out, so the result is bit-identical for every
/// `workers` value, including 1.
pub fn run_cell_with_jobs(
    family: Family,
    n: u32,
    algorithm: Algorithm,
    protocol: &Protocol,
    workers: usize,
) -> Vec<RunMetrics> {
    run_trials(family, n, protocol, workers, |problem, init| {
        algorithm.run(problem, init, protocol.cycle_limit)
    })
}

/// Generates the protocol's trials for `(family, n)` and runs `trial` on
/// each, fanned out to `workers` threads, returning the results in trial
/// order.
///
/// All randomness is consumed during the sequential generation phase
/// (instances in index order, then each instance's initial values from
/// its own derived-seed stream), and trials are merged back by index —
/// the result is bit-identical for every `workers` value, including 1.
pub(crate) fn run_trials<T: Send>(
    family: Family,
    n: u32,
    protocol: &Protocol,
    workers: usize,
    trial: impl Fn(&DistributedCsp, &Assignment) -> T + Sync,
) -> Vec<T> {
    let mut problems: Vec<DistributedCsp> = Vec::with_capacity(protocol.instances);
    let mut trials: Vec<(usize, Assignment)> = Vec::with_capacity(protocol.trials());
    for instance_index in 0..protocol.instances {
        let problem = family.problem(n, instance_index, protocol.master_seed);
        let init_seed = derive_seed(
            protocol.master_seed ^ 0xA5A5_5A5A,
            family as u64 * 1000 + n as u64,
            instance_index as u64,
        );
        let mut rng = StdRng::seed_from_u64(init_seed);
        for _ in 0..protocol.inits {
            trials.push((problems.len(), random_assignment(&problem, &mut rng)));
        }
        problems.push(problem);
    }

    let workers = workers.clamp(1, trials.len().max(1));
    if workers == 1 {
        return trials
            .iter()
            .map(|(p, init)| trial(&problems[*p], init))
            .collect();
    }

    // Dynamic work claiming: trial runtimes vary wildly (some hit the
    // cycle limit), so static chunking would leave workers idle.
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = trials.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((p, init)) = trials.get(i) else {
                    break;
                };
                let result = trial(&problems[*p], init);
                *results[i].lock().expect("no panics hold this lock") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no panics hold this lock")
                .expect("every trial index was claimed")
        })
        .collect()
}

/// [`run_cell`] reduced to the paper's aggregate row.
pub fn run_cell_aggregate(
    family: Family,
    n: u32,
    algorithm: Algorithm,
    protocol: &Protocol,
) -> Aggregate {
    let metrics = run_cell(family, n, algorithm, protocol);
    Aggregate::from_metrics(metrics.iter())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Protocol {
        Protocol {
            instances: 2,
            inits: 2,
            cycle_limit: 2_000,
            master_seed: 7,
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Algorithm::Awc(AwcConfig::resolvent()).label(), "Rslv");
        assert_eq!(
            Algorithm::Awc(AwcConfig::kth_resolvent(3)).label(),
            "3rdRslv"
        );
        assert_eq!(Algorithm::Db(WeightMode::PerNogood).label(), "DB");
        assert_eq!(Algorithm::Db(WeightMode::PerPair).label(), "DB/pair");
        assert_eq!(Algorithm::Abt.label(), "ABT");
    }

    #[test]
    fn run_cell_runs_full_protocol() {
        let metrics = run_cell(
            Family::Coloring,
            15,
            Algorithm::Awc(AwcConfig::resolvent()),
            &tiny(),
        );
        assert_eq!(metrics.len(), 4);
        assert!(metrics.iter().all(|m| m.termination.is_solved()));
    }

    #[test]
    fn identical_trials_across_algorithms() {
        // The same (instance, init) pair must be used by every
        // algorithm: verify via deterministic repetition.
        let a = run_cell(
            Family::Sat,
            12,
            Algorithm::Awc(AwcConfig::resolvent()),
            &tiny(),
        );
        let b = run_cell(
            Family::Sat,
            12,
            Algorithm::Awc(AwcConfig::resolvent()),
            &tiny(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn aggregate_reduction_matches_manual() {
        let protocol = tiny();
        let algo = Algorithm::Db(WeightMode::PerNogood);
        let metrics = run_cell(Family::Coloring, 12, algo, &protocol);
        let agg = run_cell_aggregate(Family::Coloring, 12, algo, &protocol);
        assert_eq!(agg, Aggregate::from_metrics(metrics.iter()));
    }

    #[test]
    fn worker_count_never_changes_results() {
        let protocol = tiny();
        let algo = Algorithm::Awc(AwcConfig::resolvent());
        let serial = run_cell_with_jobs(Family::Coloring, 15, algo, &protocol, 1);
        for workers in [2, 3, 4, 16] {
            let parallel = run_cell_with_jobs(Family::Coloring, 15, algo, &protocol, workers);
            assert_eq!(serial, parallel, "jobs={workers} diverged from serial");
        }
        // Oversized and zero worker counts are clamped, not an error.
        let clamped = run_cell_with_jobs(Family::Coloring, 15, algo, &protocol, 0);
        assert_eq!(serial, clamped);
    }

    #[test]
    fn jobs_override_roundtrips() {
        // Not a parallelism test — just the setter/getter contract the
        // repro binary's --jobs flag relies on.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn abt_runs_on_benchmark_problems() {
        let metrics = run_cell(Family::Coloring, 10, Algorithm::Abt, &tiny());
        assert_eq!(metrics.len(), 4);
        assert!(metrics.iter().all(|m| m.termination.is_solved()));
    }
}
