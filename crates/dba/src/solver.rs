//! Front-end: run the distributed breakout against a [`DistributedCsp`].

use std::error::Error;
use std::fmt;

use discsp_core::{AgentId, Assignment, DistributedCsp, VariableId};
use discsp_runtime::{
    run_sharded, run_virtual, ShardConfig, SyncRun, SyncSimulator, VirtualConfig, VirtualReport,
};

use crate::agent::{DbaAgent, WeightMode};

/// Errors raised when a problem does not fit the DB's one-variable-per-
/// agent execution model, or initial values are unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbaError {
    /// An agent owns a number of variables other than one.
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

impl fmt::Display for DbaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbaError::WrongVariableCount { agent, count } => write!(
                f,
                "agent {agent} owns {count} variables; the DB runs one variable per agent"
            ),
            DbaError::BadInitialValue { var } => {
                write!(f, "variable {var} has no usable initial value")
            }
            DbaError::Runtime(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

impl Error for DbaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbaError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<discsp_runtime::RuntimeError> for DbaError {
    fn from(e: discsp_runtime::RuntimeError) -> Self {
        DbaError::Runtime(e)
    }
}

/// Builds and runs distributed breakout agent populations.
///
/// # Examples
///
/// ```
/// use discsp_dba::DbaSolver;
/// use discsp_core::{Assignment, DistributedCsp, Domain, Value};
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
    cycle_limit: u64,
    record_history: bool,
    record_trace: bool,
    message_delay: Option<(u64, u64)>,
}

impl DbaSolver {
    /// Creates a solver with per-nogood weights (the paper's choice) and
    /// the 10 000-cycle limit.
    pub fn new() -> Self {
        DbaSolver {
            mode: WeightMode::PerNogood,
            cycle_limit: discsp_core::PAPER_CYCLE_LIMIT,
            record_history: false,
            record_trace: false,
            message_delay: None,
        }
    }

    /// Adds a random per-message delivery delay of up to `max_extra`
    /// additional cycles on synchronous runs, drawn deterministically
    /// from `seed`. The DB's wave protocol tolerates arbitrary delays —
    /// agents buffer out-of-phase messages.
    pub fn message_delay(mut self, max_extra: u64, seed: u64) -> Self {
        self.message_delay = Some((max_extra, seed));
        self
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

    /// Overrides the cycle limit.
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
    ) -> Result<Vec<DbaAgent>, DbaError> {
        let mut agents = Vec::with_capacity(problem.num_agents());
        for a in 0..problem.num_agents() {
            let agent_id = AgentId::new(a as u32);
            let vars = problem.vars_of_agent(agent_id);
            let &[var] = &vars[..] else {
                return Err(DbaError::WrongVariableCount {
                    agent: agent_id,
                    count: vars.len(),
                });
            };
            let domain = problem.domain(var);
            let value = init
                .get(var)
                .filter(|&v| domain.contains(v))
                .ok_or(DbaError::BadInitialValue { var })?;
            let neighbors = problem
                .neighbors(var)
                .iter()
                .map(|&v| (v, problem.owner(v)))
                .collect();
            let nogoods = problem.nogoods_of(var).cloned().collect();
            agents.push(DbaAgent::new(
                agent_id, var, domain, value, nogoods, neighbors, self.mode,
            ));
        }
        Ok(agents)
    }

    /// Runs on the synchronous cycle simulator. Each `ok?` wave and each
    /// `improve` wave is one cycle, which is why DB consumes roughly two
    /// cycles per move round (visible in Tables 8–10).
    ///
    /// # Errors
    ///
    /// See [`DbaSolver::build_agents`].
    pub fn solve_sync(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<SyncRun, DbaError> {
        let agents = self.build_agents(problem, init)?;
        let mut sim = SyncSimulator::new(agents);
        sim.cycle_limit(self.cycle_limit)
            .record_history(self.record_history)
            .record_trace(self.record_trace);
        if let Some((max_extra, seed)) = self.message_delay {
            sim.message_delay(max_extra, seed);
        }
        sim.run(problem).map_err(DbaError::from)
    }

    /// Runs on the deterministic discrete-event runtime with link faults.
    ///
    /// DB's ok?/improve waves never go quiet, so the run always observes
    /// the first consistent snapshot (`stop_on_first_solution` is forced
    /// on), mirroring the paper's "until a solution is found" semantics.
    ///
    /// # Errors
    ///
    /// See [`DbaSolver::build_agents`].
    pub fn solve_virtual(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &VirtualConfig,
    ) -> Result<VirtualReport, DbaError> {
        let agents = self.build_agents(problem, init)?;
        let mut config = config.clone();
        config.stop_on_first_solution = true;
        run_virtual(agents, problem, &config).map_err(DbaError::from)
    }

    /// Runs on the M:N sharded executor with the same forced
    /// `stop_on_first_solution` semantics as [`DbaSolver::solve_virtual`]
    /// — the breakout's waves never quiesce. Reports are bit-identical
    /// to `solve_virtual` under `config.base` for any worker count.
    ///
    /// # Errors
    ///
    /// See [`DbaSolver::build_agents`].
    pub fn solve_sharded(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &ShardConfig,
    ) -> Result<VirtualReport, DbaError> {
        let agents = self.build_agents(problem, init)?;
        let mut config = config.clone();
        config.base.stop_on_first_solution = true;
        run_sharded(agents, problem, &config).map_err(DbaError::from)
    }
}

impl Default for DbaSolver {
    fn default() -> Self {
        DbaSolver::new()
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
        let run = DbaSolver::new()
            .cycle_limit(300)
            .solve_sync(&problem, &init)
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
        assert!(matches!(err, DbaError::BadInitialValue { .. }));

        let mut b = DistributedCsp::builder();
        let agent = AgentId::new(0);
        let x = b.variable_owned_by(Domain::new(2), agent);
        let y = b.variable_owned_by(Domain::new(2), agent);
        b.not_equal(x, y).unwrap();
        let multi = b.build().unwrap();
        let err = DbaSolver::new()
            .solve_sync(&multi, &Assignment::total([Value::new(0); 2]))
            .unwrap_err();
        assert!(matches!(err, DbaError::WrongVariableCount { count: 2, .. }));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = DbaError::WrongVariableCount {
            agent: AgentId::new(3),
            count: 0,
        };
        assert!(e.to_string().contains("a3"));
    }
}
