//! Asynchronous weak-commitment search (AWC) with pluggable nogood
//! learning — the algorithmic core of Hirayama & Yokoo, *The Effect of
//! Nogood Learning in Distributed Constraint Satisfaction* (ICDCS 2000).
//!
//! The AWC (Yokoo, CP'95) solves distributed CSPs with one variable per
//! agent: agents announce values with `ok?` messages, test *higher*
//! nogoods against their views, repair violations with min-conflict value
//! changes, and break deadends by learning a nogood and raising their
//! priority. This crate provides:
//!
//! * [`AwcAgent`] / [`AwcSolver`] — the algorithm, runnable on the
//!   synchronous simulator or the deterministic executors of
//!   `discsp-runtime`;
//! * [`Learning`] — resolvent-based (§3), mcs-based, and no-learning
//!   strategies, with size-bounded recording (§4.2) and the rec/norec
//!   switch (§4.1) configured via [`AwcConfig`];
//! * [`AbtAgent`] / [`AbtSolver`] — asynchronous backtracking, the AWC's
//!   ancestor (§1), as an additional baseline.
//!
//! # Examples
//!
//! ```
//! use discsp_awc::{AwcConfig, AwcSolver};
//! use discsp_core::{Assignment, DistributedCsp, Domain, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DistributedCsp::builder();
//! let x = b.variable(Domain::new(2));
//! let y = b.variable(Domain::new(2));
//! b.not_equal(x, y)?;
//! let problem = b.build()?;
//!
//! let solver = AwcSolver::new(AwcConfig::resolvent());
//! let init = Assignment::total([Value::new(0), Value::new(0)]);
//! let run = solver.solve_sync(&problem, &init)?;
//! assert!(run.outcome.metrics.termination.is_solved());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abt;
mod agent;
mod learning;
mod msg;
mod multi;
mod solver;

pub use abt::{AbtAgent, AbtMessage, AbtSolver};
pub use agent::{AwcAgent, AwcConfig};
pub use learning::{minimize_conflict_set, resolvent, resolvent_selections, Deadend, Learning};
pub use msg::AwcMessage;
pub use multi::{MultiAwcAgent, MultiAwcMessage, MultiAwcSolver};
pub use solver::{AwcError, AwcSolver};
