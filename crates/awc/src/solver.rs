//! Front-end: run the AWC against a [`DistributedCsp`] on any runtime.

use discsp_core::{Assignment, CoreError, DistributedCsp};
use discsp_runtime::Solver;

use crate::agent::{AwcAgent, AwcConfig};

/// Builds AWC agent populations; runs them through [`Solver`].
///
/// # Examples
///
/// Solve a 3-colorable triangle:
///
/// ```
/// use discsp_awc::{AwcConfig, AwcSolver};
/// use discsp_core::{Assignment, DistributedCsp, Domain, Value};
/// use discsp_runtime::Solver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DistributedCsp::builder();
/// let x = b.variable(Domain::new(3));
/// let y = b.variable(Domain::new(3));
/// let z = b.variable(Domain::new(3));
/// b.not_equal(x, y)?;
/// b.not_equal(y, z)?;
/// b.not_equal(x, z)?;
/// let problem = b.build()?;
///
/// let init = Assignment::total([Value::new(0); 3]);
/// let solver = AwcSolver::new(AwcConfig::resolvent());
/// let run = solver.solve_sync(&problem, &init)?;
/// assert!(run.outcome.metrics.termination.is_solved());
/// assert!(problem.is_solution(run.outcome.solution.as_ref().unwrap()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AwcSolver {
    config: AwcConfig,
}

impl AwcSolver {
    /// Creates a solver with the given agent configuration.
    pub fn new(config: AwcConfig) -> Self {
        AwcSolver { config }
    }

    /// The agent configuration this solver deploys.
    pub fn config(&self) -> AwcConfig {
        self.config
    }

    /// Whether the deployed configuration retains AWC's completeness
    /// guarantee (see [`AwcConfig::is_complete`]). Complete
    /// configurations must terminate on every finite instance, so a
    /// cutoff under a generous budget is a bug, not bad luck.
    pub fn is_complete(&self) -> bool {
        self.config.is_complete()
    }

    /// Builds one agent per problem agent, seeded with `init`.
    ///
    /// # Errors
    ///
    /// See [`DistributedCsp::seat`]: the AWC runs one variable per agent
    /// (§2.2; Yokoo & Hirayama, ICMAS'98, extend it to several).
    pub fn build_agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<AwcAgent>, CoreError> {
        problem.seat(init, |agent, var, domain, value, neighbors| {
            let nogoods = problem.nogoods_of(var);
            AwcAgent::new(agent, var, domain, value, nogoods, neighbors, self.config)
        })
    }
}

impl Solver for AwcSolver {
    type Agent = AwcAgent;

    fn agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<AwcAgent>, CoreError> {
        self.build_agents(problem, init)
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

    fn k4_three_colors() -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.not_equal(vars[i], vars[j]).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn solves_triangle_from_worst_init() {
        let problem = triangle();
        let init = Assignment::total([Value::new(0); 3]);
        for config in [
            AwcConfig::resolvent(),
            AwcConfig::mcs(),
            AwcConfig::no_learning(),
            AwcConfig::kth_resolvent(3),
        ] {
            let run = AwcSolver::new(config).solve_sync(&problem, &init).unwrap();
            assert_eq!(
                run.outcome.metrics.termination,
                Termination::Solved,
                "config {config:?} failed"
            );
            assert!(problem.is_solution(run.outcome.solution.as_ref().unwrap()));
        }
    }

    #[test]
    fn detects_k4_insoluble_with_full_recording() {
        // K4 is not 3-colorable. With unrestricted resolvent recording
        // the AWC is complete and must derive the empty nogood.
        let problem = k4_three_colors();
        let init = Assignment::total([Value::new(0); 4]);
        let agents = AwcSolver::new(AwcConfig::resolvent())
            .build_agents(&problem, &init)
            .unwrap();
        let run = SyncSimulator::new(agents)
            .cycle_limit(5_000)
            .run(&problem)
            .unwrap();
        assert_eq!(run.outcome.metrics.termination, Termination::Insoluble);
    }

    #[test]
    fn rejects_multi_variable_agents() {
        let mut b = DistributedCsp::builder();
        let agent = AgentId::new(0);
        let x = b.variable_owned_by(Domain::new(2), agent);
        let y = b.variable_owned_by(Domain::new(2), agent);
        b.not_equal(x, y).unwrap();
        let problem = b.build().unwrap();
        let init = Assignment::total([Value::new(0); 2]);
        let err = AwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&problem, &init)
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Problem(CoreError::WrongVariableCount { count: 2, .. })
        ));
    }

    #[test]
    fn rejects_missing_initial_value() {
        let problem = triangle();
        let init = Assignment::empty(3);
        let err = AwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&problem, &init)
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::Problem(CoreError::BadInitialValue { .. })
        ));
    }

    #[test]
    fn solves_triangle_on_the_deterministic_executors() {
        let problem = triangle();
        let init = Assignment::total([Value::new(0); 3]);
        let solver = AwcSolver::new(AwcConfig::resolvent());
        let base = VirtualConfig::default();
        let report = solver.solve_virtual(&problem, &init, &base).unwrap();
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        assert!(problem.is_solution(report.outcome.solution.as_ref().unwrap()));
        for workers in [1, 4] {
            let config = ShardConfig::with_base(base.clone(), workers);
            let sharded = solver.solve_sharded(&problem, &init, &config).unwrap();
            assert_eq!(sharded.outcome, report.outcome, "workers {workers}");
            assert_eq!(sharded.ticks, report.ticks, "workers {workers}");
            assert_eq!(sharded.activations, report.activations, "workers {workers}");
        }
    }
}
