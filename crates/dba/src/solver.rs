//! Front-end: run the distributed breakout against a [`DistributedCsp`].

use discsp_core::{Assignment, CoreError, DistributedCsp};
use discsp_runtime::Solver;

use crate::agent::{DbaAgent, WeightMode};

/// Builds distributed breakout agent populations; runs them through
/// [`Solver`].
///
/// On the synchronous simulator each `ok?` wave and each `improve` wave
/// is one cycle, which is why DB consumes roughly two cycles per move
/// round (visible in Tables 8–10). DB's waves never go quiet, so every
/// run stops at the first consistent snapshot
/// ([`Solver::never_quiesces`]), the paper's "until a solution is
/// found".
///
/// # Examples
///
/// ```
/// use discsp_dba::DbaSolver;
/// use discsp_core::{Assignment, DistributedCsp, Domain, Value};
/// use discsp_runtime::Solver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DistributedCsp::builder();
/// let x = b.variable(Domain::new(3));
/// let y = b.variable(Domain::new(3));
/// b.not_equal(x, y)?;
/// let problem = b.build()?;
///
/// let init = Assignment::total([Value::new(0), Value::new(0)]);
/// let run = DbaSolver::new().solve_sync(&problem, &init)?;
/// assert!(run.outcome.metrics.termination.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DbaSolver {
    mode: WeightMode,
}

impl DbaSolver {
    /// Creates a solver with per-nogood weights (the paper's choice).
    pub fn new() -> Self {
        DbaSolver {
            mode: WeightMode::PerNogood,
        }
    }

    /// Always false: the distributed breakout is a local-search method
    /// (§4.3) and may wander forever even on solvable instances, so
    /// oracles must tolerate cutoffs. The counterpart of
    /// `AwcSolver::is_complete`.
    pub fn is_complete(&self) -> bool {
        false
    }

    /// Selects the weight placement mode.
    pub fn weight_mode(mut self, mode: WeightMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured weight placement mode.
    pub fn mode(&self) -> WeightMode {
        self.mode
    }

    /// Builds one agent per problem agent, seeded with `init`.
    ///
    /// # Errors
    ///
    /// See [`DistributedCsp::seat`].
    pub fn build_agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<DbaAgent>, CoreError> {
        problem.seat(init, |agent, var, domain, value, neighbors| {
            let nogoods = problem.nogoods_of(var);
            DbaAgent::new(agent, var, domain, value, nogoods, neighbors, self.mode)
        })
    }
}

impl Default for DbaSolver {
    fn default() -> Self {
        DbaSolver::new()
    }
}

impl Solver for DbaSolver {
    type Agent = DbaAgent;

    fn agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<DbaAgent>, CoreError> {
        self.build_agents(problem, init)
    }

    fn never_quiesces(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::{AgentId, Domain, Termination, Value};
    use discsp_runtime::{ShardConfig, SolveError, SyncSimulator, VirtualConfig};

    fn triangle() -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let x = b.variable(Domain::new(3));
        let y = b.variable(Domain::new(3));
        let z = b.variable(Domain::new(3));
        b.not_equal(x, y).unwrap();
        b.not_equal(y, z).unwrap();
        b.not_equal(x, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn db_solves_triangle_from_uniform_init() {
        let problem = triangle();
        let init = Assignment::total([Value::new(0); 3]);
        for mode in [WeightMode::PerNogood, WeightMode::PerPair] {
            let run = DbaSolver::new()
                .weight_mode(mode)
                .solve_sync(&problem, &init)
                .unwrap();
            assert_eq!(
                run.outcome.metrics.termination,
                Termination::Solved,
                "mode {mode:?}"
            );
            assert!(problem.is_solution(run.outcome.solution.as_ref().unwrap()));
        }
    }

    #[test]
    fn db_cuts_off_on_insoluble_problem() {
        // K4 with 3 colors: DB is incomplete and must hit the limit.
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.not_equal(vars[i], vars[j]).unwrap();
            }
        }
        let problem = b.build().unwrap();
        let init = Assignment::total([Value::new(0); 4]);
        let agents = DbaSolver::new().build_agents(&problem, &init).unwrap();
        let run = SyncSimulator::new(agents)
            .cycle_limit(300)
            .run(&problem)
            .unwrap();
        assert_eq!(run.outcome.metrics.termination, Termination::CutOff);
        assert_eq!(run.outcome.metrics.cycles, 300);
    }

    #[test]
    fn db_solves_triangle_on_the_deterministic_executors() {
        let problem = triangle();
        let init = Assignment::total([Value::new(0); 3]);
        let solver = DbaSolver::new();
        let base = VirtualConfig::default();
        let report = solver.solve_virtual(&problem, &init, &base).unwrap();
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        for workers in [1, 4] {
            let config = ShardConfig::with_base(base.clone(), workers);
            let sharded = solver.solve_sharded(&problem, &init, &config).unwrap();
            assert_eq!(sharded.outcome, report.outcome, "workers {workers}");
            assert_eq!(sharded.ticks, report.ticks, "workers {workers}");
            assert_eq!(sharded.activations, report.activations, "workers {workers}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let problem = triangle();
        let err = DbaSolver::new()
            .solve_sync(&problem, &Assignment::empty(3))
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Problem(CoreError::BadInitialValue { .. })
        ));

        let mut b = DistributedCsp::builder();
        let agent = AgentId::new(0);
        let x = b.variable_owned_by(Domain::new(2), agent);
        let y = b.variable_owned_by(Domain::new(2), agent);
        b.not_equal(x, y).unwrap();
        let multi = b.build().unwrap();
        let err = DbaSolver::new()
            .solve_sync(&multi, &Assignment::total([Value::new(0); 2]))
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Problem(CoreError::WrongVariableCount { count: 2, .. })
        ));
    }
}
