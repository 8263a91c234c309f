//! Problem model for distributed constraint satisfaction.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace: identifiers, values, domains, **nogoods** (the paper's
//! constraint representation), agent views with the AWC priority order,
//! instrumented nogood stores, the [`DistributedCsp`] problem type, and
//! run metrics (`cycle`, `maxcck`).
//!
//! It contains no algorithms and no runtime — see `discsp-awc`,
//! `discsp-dba`, and `discsp-runtime` for those.
//!
//! # Examples
//!
//! Build the paper's Figure 1 neighborhood and check a nogood:
//!
//! ```
//! use discsp_core::{DistributedCsp, Domain, Nogood, Value, VariableId};
//!
//! # fn main() -> Result<(), discsp_core::CoreError> {
//! let mut b = DistributedCsp::builder();
//! let vars: Vec<_> = (0..5).map(|_| b.variable(Domain::new(3))).collect();
//! for &v in &vars[..4] {
//!     b.not_equal(v, vars[4])?; // x5's four neighbors
//! }
//! let problem = b.build()?;
//! assert_eq!(problem.nogoods_of(vars[4]).count(), 12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod domain;
mod error;
mod ids;
mod message;
mod metrics;
mod nogood;
mod priority;
mod problem;
mod store;
mod value;
mod view;
mod wire;

pub use assignment::{Assignment, VarValue};
pub use domain::{Domain, DomainIter};
pub use error::CoreError;
pub use ids::{AgentId, VariableId};
pub use message::{Classify, MessageClass};
pub use metrics::{Aggregate, RunMetrics, Termination, TrialOutcome, PAPER_CYCLE_LIMIT};
pub use nogood::{Nogood, NogoodLits, NogoodRef};
pub use priority::{Priority, Rank};
pub use problem::{DistributedCsp, DistributedCspBuilder};
pub use store::{IncrementalEval, NogoodIdx, NogoodStore};
pub use value::{Value, ValueLabels};
pub use view::{AgentView, ViewEntry};
pub use wire::{Wire, WireError, WireReader, VEC_RESERVE_BYTES};
