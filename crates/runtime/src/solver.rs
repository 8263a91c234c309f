//! One front end for every algorithm: seat a one-variable-per-agent
//! population, then run it on any executor.
//!
//! An algorithm implements [`Solver`] by building its agents (usually
//! through [`DistributedCsp::seat`]); the trait provides the paper's
//! synchronous run and the two deterministic executors, and applies the
//! algorithm's stop rule to every run configuration in one place.

use std::error::Error;
use std::fmt;

use discsp_core::{Assignment, CoreError, DistributedCsp};

use crate::agent::DistributedAgent;
use crate::error::RuntimeError;
use crate::link::{run_virtual, VirtualConfig, VirtualReport};
use crate::shard::{run_sharded, ShardConfig};
use crate::sync::{SyncRun, SyncSimulator};

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// The problem or the initial values do not fit the algorithm: an
    /// agent owns other than one variable, or a variable has no usable
    /// initial value.
    Problem(CoreError),
    /// The runtime failed (misrouted message, dead shard worker).
    Runtime(RuntimeError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Problem(e) => write!(f, "problem does not fit the algorithm: {e}"),
            SolveError::Runtime(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Problem(e) => Some(e),
            SolveError::Runtime(e) => Some(e),
        }
    }
}

impl From<CoreError> for SolveError {
    fn from(e: CoreError) -> Self {
        SolveError::Problem(e)
    }
}

impl From<RuntimeError> for SolveError {
    fn from(e: RuntimeError) -> Self {
        SolveError::Runtime(e)
    }
}

/// An algorithm deployed as one agent per problem agent, runnable on
/// every executor.
///
/// A caller that needs another cycle limit, the per-cycle history, the
/// trace or message delay on the synchronous simulator builds the agents
/// with [`Solver::agents`] and drives [`SyncSimulator`] itself.
pub trait Solver {
    /// The algorithm's agent.
    type Agent: DistributedAgent + Send;

    /// Builds one agent per problem agent, seeded with `init`.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongVariableCount`] or [`CoreError::BadInitialValue`]
    /// when the problem does not fit the algorithm.
    fn agents(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<Vec<Self::Agent>, CoreError>;

    /// Whether the algorithm's traffic never goes quiet, so a run must
    /// stop at the first consistent snapshot instead of waiting for the
    /// queue to drain (distributed breakout's waves). Default: false.
    fn never_quiesces(&self) -> bool {
        false
    }

    /// `config` with the algorithm's stop rule applied: an algorithm that
    /// [never quiesces](Solver::never_quiesces) stops at the first
    /// consistent snapshot.
    fn run_config(&self, config: &VirtualConfig) -> VirtualConfig {
        VirtualConfig {
            stop_on_first_solution: config.stop_on_first_solution || self.never_quiesces(),
            ..config.clone()
        }
    }

    /// Runs on the synchronous cycle simulator with the paper's settings
    /// (the 10 000-cycle limit, no history, trace or delay).
    ///
    /// # Errors
    ///
    /// See [`Solver::agents`]; runtime failures as [`SolveError::Runtime`].
    fn solve_sync(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
    ) -> Result<SyncRun, SolveError> {
        let agents = self.agents(problem, init)?;
        Ok(SyncSimulator::new(agents).run(problem)?)
    }

    /// Runs on the deterministic discrete-event executor with link
    /// faults: identical `(seed, LinkPolicy)` pairs replay
    /// bit-identically, so any fault-induced failure is reproducible
    /// from the config alone.
    ///
    /// # Errors
    ///
    /// See [`Solver::solve_sync`].
    fn solve_virtual(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &VirtualConfig,
    ) -> Result<VirtualReport, SolveError> {
        let agents = self.agents(problem, init)?;
        Ok(run_virtual(agents, problem, &self.run_config(config))?)
    }

    /// Runs on the M:N sharded executor: [`Solver::solve_virtual`]'s
    /// semantics with activations fanned out to `config.workers`
    /// threads. Reports are bit-identical to `solve_virtual` under
    /// `config.base` for any worker count.
    ///
    /// # Errors
    ///
    /// See [`Solver::solve_sync`].
    fn solve_sharded(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &ShardConfig,
    ) -> Result<VirtualReport, SolveError> {
        let agents = self.agents(problem, init)?;
        let config = ShardConfig::with_base(self.run_config(&config.base), config.workers);
        Ok(run_sharded(agents, problem, &config)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_true_problem, ring, RingAgent};
    use discsp_core::AgentId;

    /// The gossip ring as an algorithm; `loud` claims its traffic never
    /// goes quiet.
    struct Gossip {
        loud: bool,
    }

    impl Solver for Gossip {
        type Agent = RingAgent;

        fn agents(
            &self,
            problem: &DistributedCsp,
            _: &Assignment,
        ) -> Result<Vec<RingAgent>, CoreError> {
            Ok(ring(problem.num_agents()))
        }

        fn never_quiesces(&self) -> bool {
            self.loud
        }
    }

    #[test]
    fn the_stop_rule_only_ever_switches_first_solution_stops_on() {
        let quiet = Gossip { loud: false };
        let loud = Gossip { loud: true };
        let config = VirtualConfig::default();
        assert!(!quiet.run_config(&config).stop_on_first_solution);
        assert!(loud.run_config(&config).stop_on_first_solution);
        let asked = VirtualConfig {
            stop_on_first_solution: true,
            ..config
        };
        assert!(quiet.run_config(&asked).stop_on_first_solution);
    }

    #[test]
    fn each_run_is_its_executor_under_the_stop_rule() {
        let problem = all_true_problem(5);
        let init = Assignment::empty(5);
        let config = VirtualConfig {
            seed: 3,
            ..VirtualConfig::default()
        };
        for loud in [false, true] {
            let solver = Gossip { loud };
            let want = run_virtual(ring(5), &problem, &solver.run_config(&config)).unwrap();
            let got = solver.solve_virtual(&problem, &init, &config).unwrap();
            assert_eq!((got.outcome, got.ticks), (want.outcome.clone(), want.ticks));
            let sharded = ShardConfig::with_base(config.clone(), 2);
            let got = solver.solve_sharded(&problem, &init, &sharded).unwrap();
            assert_eq!((got.outcome, got.ticks), (want.outcome, want.ticks));
        }
        let want = SyncSimulator::new(ring(5)).run(&problem).unwrap();
        let got = Gossip { loud: false }.solve_sync(&problem, &init).unwrap();
        assert_eq!(got.outcome, want.outcome);
    }

    #[test]
    fn errors_keep_their_cause() {
        let e = SolveError::from(CoreError::BadInitialValue {
            var: discsp_core::VariableId::new(4),
        });
        assert!(e.to_string().contains("x4"));
        assert!(e.source().is_some());
        let e = SolveError::from(RuntimeError::UnknownRecipient {
            agent: AgentId::new(9),
        });
        assert!(e.to_string().contains("a9"));
    }
}
