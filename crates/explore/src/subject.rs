//! Runnable campaign subjects: an algorithm deployed on an instance with
//! a centrally-established ground truth.
//!
//! A [`Subject`] bundles everything a trial (or a minimization replay)
//! needs to run and to be judged: the algorithm under test, the problem,
//! a fixed initial assignment, what the [`Backtracker`] proved about the
//! instance, and whether the deployed configuration is complete (so a
//! cutoff is a bug rather than bad luck).

use discsp_awc::{AwcConfig, AwcSolver};
use discsp_core::{Assignment, DistributedCsp, Domain, Value};
use discsp_cspsolve::{Backtracker, SolveResult};
use discsp_dba::DbaSolver;
use discsp_probgen::{coloring_to_discsp, paper_coloring};
use discsp_runtime::{ShardConfig, SolveError, Solver, TraceEvent, VirtualConfig, VirtualReport};

/// Node budget for the centralized ground-truth solver. The campaign
/// instances are small (tens of variables), so the backtracker settles
/// them well within this; hitting the limit yields
/// [`GroundTruth::Unknown`] and the answer oracles stand down.
const TRUTH_NODE_LIMIT: u64 = 5_000_000;

/// Which algorithm a subject deploys on the virtual executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    /// AWC without nogood learning (incomplete under the paper's §2.3
    /// discussion: forgetting breaks the completeness argument).
    Awc,
    /// AWC with unrestricted resolvent recording — the complete
    /// configuration; must terminate on every finite instance.
    AwcRslv,
    /// Distributed breakout — local search, incomplete by design.
    Dba,
}

impl Algo {
    /// Every algorithm, in campaign order.
    pub fn all() -> [Algo; 3] {
        [Algo::Awc, Algo::AwcRslv, Algo::Dba]
    }

    /// The CLI / fixture-file label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Awc => "awc",
            Algo::AwcRslv => "awc-rslv",
            Algo::Dba => "dba",
        }
    }

    /// Parses a CLI / fixture-file label.
    pub fn parse(s: &str) -> Option<Algo> {
        Algo::all().into_iter().find(|a| a.label() == s)
    }
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What the centralized solver proved about a subject's instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundTruth {
    /// A solution exists (the backtracker found one).
    Solvable,
    /// No solution exists (the backtracker exhausted the space).
    Insoluble,
    /// The node budget ran out first; answer oracles stand down.
    Unknown,
}

/// Which instance family a subject runs, so a fixture file can rebuild
/// it from a couple of integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instance {
    /// `paper_coloring(agents, seed)` — the paper's planted-solvable
    /// 3-coloring distribution.
    Coloring {
        /// Number of agents (= variables).
        agents: u32,
        /// Generator seed.
        seed: u64,
    },
    /// K₄ with 3 colors — the canonical insoluble instance, exercising
    /// the insolubility oracle.
    K4,
}

/// Deliberate accounting corruption, reachable only through the
/// test-only hooks below. This exists so the campaign's own detectors
/// can be validated end-to-end: a planted bug must be flagged and must
/// minimize to the fault events that expose it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[doc(hidden)]
pub enum Sabotage {
    /// No corruption: report the runtime's metrics untouched.
    #[default]
    None,
    /// Under-report `messages_duplicated` by one (when any duplication
    /// happened), in both the outcome metrics and the trace's `RunEnd`
    /// event — exactly the shape of a real lost-increment accounting
    /// bug. Breaks the conservation identity and the auditor's
    /// recomputed duplicate count at once.
    UnderreportDuplicates,
}

/// An algorithm deployed on an instance, ready to run under any
/// [`VirtualConfig`].
#[derive(Debug, Clone)]
pub struct Subject {
    /// The algorithm under test.
    pub algo: Algo,
    /// How the instance was built (for fixture files).
    pub instance: Instance,
    /// The instance itself.
    pub problem: DistributedCsp,
    /// Initial assignment handed to every run.
    pub init: Assignment,
    /// What the centralized solver proved about `problem`.
    pub truth: GroundTruth,
    /// Whether the deployed configuration is complete: a cutoff under a
    /// generous budget on a solvable instance is then a violation.
    pub complete: bool,
    /// Worker threads for the sharded executor; `0` keeps runs on the
    /// single-threaded virtual executor. Either way the run is a pure
    /// function of the config — the sharded executor is bit-identical to
    /// the virtual one — so the campaign's oracles apply unchanged.
    pub workers: usize,
    sabotage: Sabotage,
}

impl Subject {
    /// Builds a subject on a planted paper 3-coloring instance.
    ///
    /// # Errors
    ///
    /// Propagates instance-construction failures as strings.
    pub fn coloring(algo: Algo, agents: u32, instance_seed: u64) -> Result<Subject, String> {
        let inst = paper_coloring(agents, instance_seed);
        let problem = coloring_to_discsp(&inst).map_err(|e| e.to_string())?;
        Subject::assemble(
            algo,
            Instance::Coloring {
                agents,
                seed: instance_seed,
            },
            problem,
        )
    }

    /// Builds a subject on K₄ with 3 colors (insoluble).
    ///
    /// # Errors
    ///
    /// Propagates instance-construction failures as strings.
    pub fn k4(algo: Algo) -> Result<Subject, String> {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.not_equal(vars[i], vars[j]).map_err(|e| e.to_string())?;
            }
        }
        let problem = b.build().map_err(|e| e.to_string())?;
        Subject::assemble(algo, Instance::K4, problem)
    }

    /// Rebuilds a subject from its [`Instance`] tag (fixture replay).
    ///
    /// # Errors
    ///
    /// Propagates instance-construction failures as strings.
    pub fn from_instance(algo: Algo, instance: Instance) -> Result<Subject, String> {
        match instance {
            Instance::Coloring { agents, seed } => Subject::coloring(algo, agents, seed),
            Instance::K4 => Subject::k4(algo),
        }
    }

    fn assemble(
        algo: Algo,
        instance: Instance,
        problem: DistributedCsp,
    ) -> Result<Subject, String> {
        let truth = match Backtracker::new(&problem)
            .node_limit(TRUTH_NODE_LIMIT)
            .solve()
        {
            SolveResult::Solution(_) => GroundTruth::Solvable,
            SolveResult::Unsatisfiable => GroundTruth::Insoluble,
            SolveResult::LimitReached => GroundTruth::Unknown,
        };
        let init = Assignment::total(vec![Value::new(0); problem.num_vars()]);
        let complete = match algo {
            Algo::Awc => AwcConfig::no_learning().is_complete(),
            Algo::AwcRslv => AwcConfig::resolvent().is_complete(),
            Algo::Dba => DbaSolver::new().is_complete(),
        };
        Ok(Subject {
            algo,
            instance,
            problem,
            init,
            truth,
            complete,
            workers: 0,
            sabotage: Sabotage::None,
        })
    }

    /// Moves the subject's runs onto the M:N sharded executor with
    /// `workers` threads; `0` restores the virtual executor.
    pub fn on_sharded(mut self, workers: usize) -> Subject {
        self.workers = workers;
        self
    }

    /// Arms a test-only corruption (see [`Sabotage`]). Campaign code
    /// never calls this; the planted-bug end-to-end test does.
    #[doc(hidden)]
    pub fn with_sabotage(mut self, sabotage: Sabotage) -> Subject {
        self.sabotage = sabotage;
        self
    }

    /// Runs the subject once — on the virtual executor, or on the
    /// sharded executor when [`Subject::on_sharded`] armed a worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates solver-construction and runtime failures as strings.
    pub fn run(&self, config: &VirtualConfig) -> Result<VirtualReport, String> {
        let mut report = match self.algo {
            Algo::Awc => self.run_on(&AwcSolver::new(AwcConfig::no_learning()), config),
            Algo::AwcRslv => self.run_on(&AwcSolver::new(AwcConfig::resolvent()), config),
            Algo::Dba => self.run_on(&DbaSolver::new(), config),
        }
        .map_err(|e| e.to_string())?;
        if self.sabotage == Sabotage::UnderreportDuplicates {
            underreport_duplicates(&mut report);
        }
        Ok(report)
    }

    /// `solver` on the executor [`Subject::on_sharded`] chose.
    fn run_on<S: Solver>(
        &self,
        solver: &S,
        config: &VirtualConfig,
    ) -> Result<VirtualReport, SolveError> {
        if self.workers > 0 {
            let sharded = ShardConfig::with_base(config.clone(), self.workers);
            solver.solve_sharded(&self.problem, &self.init, &sharded)
        } else {
            solver.solve_virtual(&self.problem, &self.init, config)
        }
    }
}

/// The planted accounting bug: lose one `messages_duplicated` increment
/// in every place the runtime reports metrics, mirroring how a real
/// counter bug would surface (outcome and `RunEnd` agree with each
/// other, both disagree with the events the trace actually contains).
fn underreport_duplicates(report: &mut VirtualReport) {
    if report.outcome.metrics.messages_duplicated == 0 {
        return;
    }
    report.outcome.metrics.messages_duplicated -= 1;
    for event in &mut report.trace {
        if let TraceEvent::RunEnd { metrics, .. } = event {
            metrics.messages_duplicated = report.outcome.metrics.messages_duplicated;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Termination;
    use discsp_runtime::LinkPolicy;

    #[test]
    fn labels_round_trip() {
        for algo in Algo::all() {
            assert_eq!(Algo::parse(algo.label()), Some(algo));
        }
        assert_eq!(Algo::parse("nope"), None);
    }

    #[test]
    fn coloring_subjects_are_solvable_and_k4_is_not() {
        let s = Subject::coloring(Algo::AwcRslv, 10, 1).unwrap();
        assert_eq!(s.truth, GroundTruth::Solvable);
        assert!(s.complete);
        let k = Subject::k4(Algo::Dba).unwrap();
        assert_eq!(k.truth, GroundTruth::Insoluble);
        assert!(!k.complete);
    }

    #[test]
    fn subjects_run_and_solve_on_perfect_links() {
        for algo in Algo::all() {
            let s = Subject::coloring(algo, 10, 3).unwrap();
            let report = s.run(&VirtualConfig::default()).unwrap();
            assert_eq!(
                report.outcome.metrics.termination,
                Termination::Solved,
                "{algo}"
            );
        }
    }

    #[test]
    fn sabotage_underreports_exactly_one_duplicate() {
        let s = Subject::coloring(Algo::AwcRslv, 10, 3).unwrap();
        let config = VirtualConfig {
            link: LinkPolicy::perfect()
                .with_duplication(400_000)
                .with_delay(0, 2),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let honest = s.run(&config).unwrap();
        assert!(honest.outcome.metrics.messages_duplicated > 0);
        let lying = s
            .clone()
            .with_sabotage(Sabotage::UnderreportDuplicates)
            .run(&config)
            .unwrap();
        assert_eq!(
            lying.outcome.metrics.messages_duplicated + 1,
            honest.outcome.metrics.messages_duplicated
        );
    }
}
