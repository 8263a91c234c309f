//! # discsp — distributed constraint satisfaction with nogood learning
//!
//! A from-scratch Rust implementation of the system described in
//! Katsutoshi Hirayama and Makoto Yokoo, *The Effect of Nogood Learning
//! in Distributed Constraint Satisfaction*, ICDCS 2000:
//!
//! * the **asynchronous weak-commitment search** algorithm (AWC) with
//!   pluggable nogood learning — **resolvent-based** (the paper's
//!   contribution), **mcs-based**, **size-bounded**, and none;
//! * **asynchronous backtracking** (ABT) and the **distributed
//!   breakout** algorithm (DB) as baselines;
//! * a **synchronous cycle simulator** (the paper's measurement
//!   substrate, producing the `cycle` and `maxcck` metrics) and
//!   **deterministic executors** whose seeded link delay, reordering,
//!   drop and duplication give the agents fully asynchronous message
//!   timing that replays bit for bit;
//! * benchmark generators for **distributed 3-coloring** (planted,
//!   m = 2.7n), **3SAT** (deceptively planted, m = 4.3n), and
//!   **unique-solution 3SAT** (forced chain, m = 3.4n), plus DIMACS
//!   CNF I/O;
//! * a centralized **backtracking/min-conflicts** substrate for
//!   validation.
//!
//! The experiment harness regenerating every table and figure of the
//! paper lives in the `discsp-bench` crate
//! (`cargo run -p discsp-bench --bin repro --release -- all`).
//!
//! # Quickstart
//!
//! Solve a distributed 3-coloring problem with the AWC and
//! resolvent-based learning:
//!
//! ```
//! use discsp::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four agents, one node each, ring constraints.
//! let mut b = DistributedCsp::builder();
//! let nodes: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
//! for i in 0..4 {
//!     b.not_equal(nodes[i], nodes[(i + 1) % 4])?;
//! }
//! let problem = b.build()?;
//!
//! // Everyone starts red; the AWC negotiates a proper coloring.
//! let init = Assignment::total([Value::new(0); 4]);
//! let run = AwcSolver::new(AwcConfig::resolvent()).solve_sync(&problem, &init)?;
//!
//! assert!(run.outcome.metrics.termination.is_solved());
//! let solution = run.outcome.solution.unwrap();
//! assert!(problem.is_solution(&solution));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use discsp_awc as awc;
pub use discsp_core as core;
pub use discsp_cspsolve as cspsolve;
pub use discsp_dba as dba;
pub use discsp_net as net;
pub use discsp_probgen as probgen;
pub use discsp_runtime as runtime;
pub use discsp_trace as trace;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use discsp_awc::{AbtSolver, AwcConfig, AwcSolver, Learning, MultiAwcSolver};
    pub use discsp_core::{
        AgentId, Assignment, DistributedCsp, Domain, Nogood, Priority, Termination, Value,
        ValueLabels, VariableId,
    };
    pub use discsp_cspsolve::{random_assignment, Backtracker, MinConflicts};
    pub use discsp_dba::{DbaSolver, WeightMode};
    pub use discsp_net::{AgentLaunch, NetConfig, SolveNet};
    pub use discsp_probgen::{
        cnf_to_discsp, coloring_to_discsp, generate_coloring, generate_one_sat3, generate_sat3,
        graph_to_discsp, model_to_assignment, paper_coloring, paper_one_sat3, paper_sat3, read_col,
        read_dimacs, write_col, write_dimacs,
    };
    pub use discsp_runtime::{
        LinkPolicy, ShardConfig, SolveError, Solver, SplitMix64, SyncRun, SyncSimulator,
        VirtualConfig, PPM,
    };
    pub use discsp_trace::{audit, parse_trace, summarize, TraceEvent};
}
