//! The distributed breakout algorithm (DB) — Yokoo & Hirayama,
//! ICMAS'96 — as evaluated against AWC + nogood learning in §4.3 of
//! Hirayama & Yokoo (ICDCS 2000).
//!
//! DB is concurrent hill-climbing with mutual exclusion of neighboring
//! moves and the *breakout* strategy (Morris, AAAI'93) for escaping
//! quasi-local-minima: every constraint nogood carries a weight
//! (footnote 7 of the paper), an agent's cost is the weighted sum of its
//! violated nogoods, and an agent stuck at a positive cost that nobody in
//! its neighborhood can improve raises the weights of its violated
//! nogoods by one.
//!
//! # Examples
//!
//! ```
//! use discsp_dba::DbaSolver;
//! use discsp_core::{Assignment, DistributedCsp, Domain, Value};
//! use discsp_runtime::Solver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DistributedCsp::builder();
//! let x = b.variable(Domain::new(3));
//! let y = b.variable(Domain::new(3));
//! b.not_equal(x, y)?;
//! let problem = b.build()?;
//!
//! let init = Assignment::total([Value::new(0), Value::new(0)]);
//! let run = DbaSolver::new().solve_sync(&problem, &init)?;
//! assert!(run.outcome.metrics.termination.is_solved());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod msg;
mod solver;

pub use agent::{DbaAgent, WeightMode};
pub use msg::DbaMessage;
pub use solver::DbaSolver;
