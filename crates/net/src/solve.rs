//! High-level entry points: `solve_net` on the existing solvers.
//!
//! [`SolveNet`] is an extension trait (this crate depends on the solver
//! crates, not the other way around) that slices the problem, binds a
//! loopback listener, launches one endpoint per agent — as named threads
//! or as child processes of a user-supplied binary — and runs the
//! coordinator to completion.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::thread;

use discsp_awc::AwcSolver;
use discsp_core::{Assignment, DistributedCsp, Wire};
use discsp_dba::DbaSolver;
use discsp_runtime::{Classify, DistributedAgent, Solver};

use crate::coordinator::{run_session, NetReport};
use crate::endpoint::run_agent;
use crate::topology::{build_slices, AgentSlice, AlgoSpec};
use crate::{NetConfig, NetError};

/// How `solve_net` launches its agent endpoints.
#[derive(Debug, Clone)]
pub enum AgentLaunch {
    /// One named thread per agent inside this process. The cheapest way
    /// to exercise the full wire protocol (every frame still crosses a
    /// real TCP socket).
    Threads,
    /// One child process per agent: `program [args..] agent --connect
    /// ADDR --index I`. The `discsp-net` binary accepts exactly this
    /// invocation.
    Processes {
        /// The binary to spawn (usually the `discsp-net` binary itself).
        program: PathBuf,
        /// Arguments inserted before the `agent` subcommand.
        args: Vec<String>,
    },
}

/// Networked solving for the workspace's solvers.
pub trait SolveNet {
    /// Solves `problem` from `init` over TCP: one coordinator (this
    /// call) plus one endpoint per agent, launched per `launch`.
    ///
    /// # Errors
    ///
    /// Any [`NetError`]; coordinator-side errors take precedence over
    /// endpoint failures when both occur.
    fn solve_net(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &NetConfig,
        launch: &AgentLaunch,
    ) -> Result<NetReport, NetError>;
}

impl SolveNet for AwcSolver {
    fn solve_net(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &NetConfig,
        launch: &AgentLaunch,
    ) -> Result<NetReport, NetError> {
        let algo = AlgoSpec::Awc(self.config());
        solve(self, algo, problem, init, config, launch)
    }
}

impl SolveNet for DbaSolver {
    fn solve_net(
        &self,
        problem: &DistributedCsp,
        init: &Assignment,
        config: &NetConfig,
        launch: &AgentLaunch,
    ) -> Result<NetReport, NetError> {
        let algo = AlgoSpec::Dba(self.mode());
        solve(self, algo, problem, init, config, launch)
    }
}

/// Slices `problem` for `algo` and runs the session under `solver`'s
/// stop rule ([`Solver::run_config`]).
fn solve<S>(
    solver: &S,
    algo: AlgoSpec,
    problem: &DistributedCsp,
    init: &Assignment,
    config: &NetConfig,
    launch: &AgentLaunch,
) -> Result<NetReport, NetError>
where
    S: Solver,
    <S::Agent as DistributedAgent>::Message: Wire,
{
    let slices = build_slices(problem, init, algo)?;
    let config = NetConfig {
        base: solver.run_config(&config.base),
        ..config.clone()
    };
    run::<<S::Agent as DistributedAgent>::Message>(problem, &slices, &config, launch)
}

fn io(context: &'static str) -> impl FnOnce(std::io::Error) -> NetError {
    move |error| NetError::Io { context, error }
}

fn run<M>(
    problem: &DistributedCsp,
    slices: &[AgentSlice],
    config: &NetConfig,
    launch: &AgentLaunch,
) -> Result<NetReport, NetError>
where
    M: Wire + Classify + Clone,
{
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io("binding the session listener"))?;
    let addr = listener
        .local_addr()
        .map_err(io("reading the listener address"))?;
    let n = slices.len();
    match launch {
        AgentLaunch::Threads => {
            let mut handles = Vec::with_capacity(n);
            for index in 0..n as u32 {
                let io_timeout = config.io_timeout;
                let handle = thread::Builder::new()
                    .name(format!("discsp-net-agent-{index}"))
                    .spawn(move || run_agent(addr, index, io_timeout))
                    .map_err(io("spawning an agent thread"))?;
                handles.push(handle);
            }
            let session = run_session::<M>(&listener, problem, slices, config);
            let mut endpoint_err = None;
            for (index, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        endpoint_err.get_or_insert(e);
                    }
                    Err(_) => {
                        endpoint_err.get_or_insert(NetError::AgentFailed {
                            index: index as u32,
                            detail: "agent thread panicked".to_string(),
                        });
                    }
                }
            }
            match (session, endpoint_err) {
                (Err(e), _) => Err(e),
                (Ok(_), Some(e)) => Err(e),
                (Ok(report), None) => Ok(report),
            }
        }
        AgentLaunch::Processes { program, args } => {
            let mut children: Vec<Child> = Vec::with_capacity(n);
            for index in 0..n {
                let spawned = Command::new(program)
                    .args(args)
                    .arg("agent")
                    .arg("--connect")
                    .arg(addr.to_string())
                    .arg("--index")
                    .arg(index.to_string())
                    .spawn()
                    .map_err(io("spawning an agent process"));
                match spawned {
                    Ok(child) => children.push(child),
                    Err(e) => {
                        reap(children);
                        return Err(e);
                    }
                }
            }
            let session = run_session::<M>(&listener, problem, slices, config);
            if session.is_err() {
                // The protocol is wedged; don't leave orphans waiting on
                // their sockets.
                reap(children);
                return session;
            }
            let mut endpoint_err = None;
            for (index, mut child) in children.into_iter().enumerate() {
                match child.wait() {
                    Ok(status) if status.success() => {}
                    Ok(status) => {
                        endpoint_err.get_or_insert(NetError::AgentFailed {
                            index: index as u32,
                            detail: format!("agent process exited with {status}"),
                        });
                    }
                    Err(error) => {
                        endpoint_err.get_or_insert(NetError::AgentFailed {
                            index: index as u32,
                            detail: format!("waiting on agent process failed: {error}"),
                        });
                    }
                }
            }
            match (session, endpoint_err) {
                (Err(e), _) => Err(e),
                (Ok(_), Some(e)) => Err(e),
                (Ok(report), None) => Ok(report),
            }
        }
    }
}

fn reap(children: Vec<Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}
