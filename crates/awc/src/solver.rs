//! Front-end: run the AWC against a [`DistributedCsp`] on any runtime.

use std::error::Error;
use std::fmt;

use discsp_core::{AgentId, Assignment, DistributedCsp, VariableId};
use discsp_runtime::{
    run_sharded, run_virtual, ShardConfig, SyncRun, SyncSimulator, VirtualConfig, VirtualReport,
};

use crate::agent::{AwcAgent, AwcConfig};

/// Errors raised when a problem does not fit the AWC's one-variable-per-
/// agent execution model, or initial values are unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AwcError {
    /// An agent owns a number of variables other than one. The paper's
    /// AWC targets exactly one variable per agent (§2.2); see the
    /// multi-variable extensions in Yokoo & Hirayama (ICMAS'98) for the
    /// general case.
    WrongVariableCount {
        /// The offending agent.
        agent: AgentId,
        /// How many variables it owns.
        count: usize,
    },
    /// A variable has no initial value, or the value is outside its
    /// domain.
    BadInitialValue {
        /// The offending variable.
        var: VariableId,
    },
    /// The underlying runtime failed (misrouted message, dead agent
    /// thread).
    Runtime(discsp_runtime::RuntimeError),
}

impl fmt::Display for AwcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AwcError::WrongVariableCount { agent, count } => write!(
                f,
                "agent {agent} owns {count} variables; the AWC runs one variable per agent"
            ),
            AwcError::BadInitialValue { var } => {
                write!(f, "variable {var} has no usable initial value")
            }
            AwcError::Runtime(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

impl Error for AwcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AwcError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<discsp_runtime::RuntimeError> for AwcError {
    fn from(e: discsp_runtime::RuntimeError) -> Self {
        AwcError::Runtime(e)
    }
}

/// Builds and runs AWC agent populations.
///
/// # Examples
///
/// Solve a 3-colorable triangle:
///
/// ```
/// use discsp_awc::{AwcConfig, AwcSolver};
/// use discsp_core::{Assignment, DistributedCsp, Domain, Value};
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
    cycle_limit: u64,
    record_history: bool,
    record_trace: bool,
    message_delay: Option<(u64, u64)>,
}

impl AwcSolver {
    /// Creates a solver with the given agent configuration and the
    /// paper's 10 000-cycle limit.
    pub fn new(config: AwcConfig) -> Self {
        AwcSolver {
            config,
            cycle_limit: discsp_core::PAPER_CYCLE_LIMIT,
            record_history: false,
            record_trace: false,
            message_delay: None,
        }
    }

    /// Adds a random per-message delivery delay of up to `max_extra`
    /// additional cycles on synchronous runs (the paper's §5 "other
    /// types of distributed systems"), drawn deterministically from
    /// `seed`.
    pub fn message_delay(mut self, max_extra: u64, seed: u64) -> Self {
        self.message_delay = Some((max_extra, seed));
        self
    }

    /// Overrides the synchronous cycle limit.
    pub fn cycle_limit(mut self, limit: u64) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Enables per-cycle history recording on synchronous runs.
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Enables event-trace recording on synchronous runs (see
    /// `discsp_runtime::TraceEvent`).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
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
    /// Fails when an agent owns a number of variables other than one, or
    /// an initial value is missing or out of domain.
    pub fn build_agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<AwcAgent>, AwcError> {
        let mut agents = Vec::with_capacity(problem.num_agents());
        for a in 0..problem.num_agents() {
            let agent_id = AgentId::new(a as u32);
            let vars = problem.vars_of_agent(agent_id);
            let &[var] = &vars[..] else {
                return Err(AwcError::WrongVariableCount {
                    agent: agent_id,
                    count: vars.len(),
                });
            };
            let domain = problem.domain(var);
            let value = init
                .get(var)
                .filter(|&v| domain.contains(v))
                .ok_or(AwcError::BadInitialValue { var })?;
            let neighbors = problem
                .neighbors(var)
                .iter()
                .map(|&v| (v, problem.owner(v)))
                .collect();
            let nogoods = problem.nogoods_of(var);
            agents.push(AwcAgent::new(
                agent_id,
                var,
                domain,
                value,
                nogoods,
                neighbors,
                self.config,
            ));
        }
        Ok(agents)
    }

    /// Runs on the synchronous cycle simulator (the paper's measurement
    /// setting).
    ///
    /// # Errors
    ///
    /// See [`AwcSolver::build_agents`].
    pub fn solve_sync(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<SyncRun, AwcError> {
        let agents = self.build_agents(problem, init)?;
        let mut sim = SyncSimulator::new(agents);
        sim.cycle_limit(self.cycle_limit)
            .record_history(self.record_history)
            .record_trace(self.record_trace);
        if let Some((max_extra, seed)) = self.message_delay {
            sim.message_delay(max_extra, seed);
        }
        sim.run(problem).map_err(AwcError::from)
    }

    /// Runs on the deterministic discrete-event runtime with link faults:
    /// identical `(seed, LinkPolicy)` pairs replay bit-identically, so any
    /// fault-induced failure is reproducible from the config alone.
    ///
    /// # Errors
    ///
    /// See [`AwcSolver::build_agents`].
    pub fn solve_virtual(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &VirtualConfig,
    ) -> Result<VirtualReport, AwcError> {
        let agents = self.build_agents(problem, init)?;
        run_virtual(agents, problem, config).map_err(AwcError::from)
    }

    /// Runs on the M:N sharded executor: the deterministic virtual-time
    /// semantics of [`AwcSolver::solve_virtual`], with agent activations
    /// fanned out to `config.workers` threads. Reports are bit-identical
    /// to `solve_virtual` under `config.base` for any worker count.
    ///
    /// # Errors
    ///
    /// See [`AwcSolver::build_agents`].
    pub fn solve_sharded(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &ShardConfig,
    ) -> Result<VirtualReport, AwcError> {
        let agents = self.build_agents(problem, init)?;
        run_sharded(agents, problem, config).map_err(AwcError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::{Domain, Termination, Value};

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
        let run = AwcSolver::new(AwcConfig::resolvent())
            .cycle_limit(5_000)
            .solve_sync(&problem, &init)
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
        assert!(matches!(err, AwcError::WrongVariableCount { count: 2, .. }));
    }

    #[test]
    fn rejects_missing_initial_value() {
        let problem = triangle();
        let init = Assignment::empty(3);
        let err = AwcSolver::new(AwcConfig::resolvent())
            .solve_sync(&problem, &init)
            .unwrap_err();
        assert!(matches!(err, AwcError::BadInitialValue { .. }));
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

    #[test]
    fn error_messages() {
        let e = AwcError::WrongVariableCount {
            agent: AgentId::new(1),
            count: 0,
        };
        assert!(e.to_string().contains("owns 0 variables"));
        let e = AwcError::BadInitialValue {
            var: VariableId::new(2),
        };
        assert!(e.to_string().contains("x2"));
    }
}
