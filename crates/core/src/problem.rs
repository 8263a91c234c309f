//! Distributed constraint satisfaction problems.
//!
//! A distributed CSP (§2.1) distributes variables and nogoods among agents;
//! each agent's local CSP contains its variables and *all* nogoods relevant
//! to them (including inter-agent nogoods). The paper's benchmarks assign
//! exactly one variable per agent; the model supports any assignment.
//!
//! The per-variable and per-agent tables a problem answers from (relevant
//! nogoods, neighbors, owned variables) are laid flat: one item vector
//! and one offset vector each, built once, so encoding a problem costs a
//! fixed handful of allocations beyond its nogoods' own literal vectors.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::assignment::Assignment;
use crate::domain::Domain;
use crate::error::CoreError;
use crate::ids::{AgentId, VariableId};
use crate::nogood::Nogood;
use crate::value::Value;

/// An immutable distributed CSP: variables with domains and owners, plus
/// the original constraint nogoods.
///
/// Construct with [`DistributedCsp::builder`]. The structure is validated
/// once at build time; accessors never fail afterwards.
///
/// # Examples
///
/// A two-node, two-color "not equal" problem:
///
/// ```
/// use discsp_core::{Assignment, DistributedCsp, Domain, Value};
///
/// # fn main() -> Result<(), discsp_core::CoreError> {
/// let mut b = DistributedCsp::builder();
/// let x = b.variable(Domain::new(2));
/// let y = b.variable(Domain::new(2));
/// b.not_equal(x, y)?;
/// let problem = b.build()?;
///
/// let good = Assignment::total([Value::new(0), Value::new(1)]);
/// assert!(problem.is_solution(&good));
/// let bad = Assignment::total([Value::new(1), Value::new(1)]);
/// assert!(!problem.is_solution(&bad));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedCsp {
    domains: Vec<Domain>,
    owners: Vec<AgentId>,
    num_agents: usize,
    nogoods: Vec<Nogood>,
    /// Per variable, the ascending indices into `nogoods` of its
    /// *relevant* nogoods.
    relevant: Rows<usize>,
    /// Per variable, the variables sharing at least one nogood with it,
    /// sorted by id.
    neighbors: Rows<VariableId>,
    /// Per agent, its owned variables in id order. Precomputed at build
    /// time so `vars_of_agent` is O(own variables) — scanning all
    /// variables per call made building n agents O(n²).
    vars_of: Rows<VariableId>,
}

/// A table of rows laid flat: row `i` is `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows<T> {
    /// `offsets[0] == 0`; one more entry than there are rows.
    offsets: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// Groups `(row, item)` pairs into `rows` rows, each keeping its
    /// items in the order `pairs` yields them: a counting sort (one pass
    /// counts each row's items, one places them), with no vector per row.
    fn group<I>(rows: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let mut offsets = vec![0; rows + 1];
        for (row, _) in pairs.clone() {
            offsets[row + 1] += 1;
        }
        for row in 0..rows {
            offsets[row + 1] += offsets[row];
        }
        let mut items = match pairs.clone().next() {
            Some((_, fill)) => vec![fill; offsets[rows]],
            None => Vec::new(),
        };
        let mut next = offsets.clone();
        for (row, item) in pairs {
            items[next[row]] = item;
            next[row] += 1;
        }
        Rows { offsets, items }
    }

    /// Row `row`, or `None` past the last row.
    fn get(&self, row: usize) -> Option<&[T]> {
        let end = *self.offsets.get(row + 1)?;
        self.items.get(self.offsets[row]..end)
    }

    /// Row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    fn row(&self, row: usize) -> &[T] {
        &self.items[self.offsets[row]..self.offsets[row + 1]]
    }
}

impl DistributedCsp {
    /// Starts building a problem.
    pub fn builder() -> DistributedCspBuilder {
        DistributedCspBuilder::new()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Number of agents (the densely numbered agent set `0..num_agents`).
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Iterates over all variable ids.
    pub fn vars(&self) -> impl Iterator<Item = VariableId> {
        (0..self.domains.len() as u32).map(VariableId::new)
    }

    /// The domain of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn domain(&self, var: VariableId) -> Domain {
        self.domains[var.index()]
    }

    /// The agent owning `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn owner(&self, var: VariableId) -> AgentId {
        self.owners[var.index()]
    }

    /// The variables owned by `agent`, in id order. Unknown agents own
    /// nothing.
    pub fn vars_of_agent(&self, agent: AgentId) -> Vec<VariableId> {
        self.vars_of
            .get(agent.index())
            .map(<[VariableId]>::to_vec)
            .unwrap_or_default()
    }

    /// All original constraint nogoods.
    pub fn nogoods(&self) -> &[Nogood] {
        &self.nogoods
    }

    /// The nogoods relevant to `var` (those mentioning it) — the contents
    /// of the owning agent's initial nogood set.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn nogoods_of(&self, var: VariableId) -> impl Iterator<Item = &Nogood> + Clone {
        self.relevant
            .row(var.index())
            .iter()
            .map(|&i| &self.nogoods[i])
    }

    /// Variables sharing at least one nogood with `var`, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn neighbors(&self, var: VariableId) -> &[VariableId] {
        self.neighbors.row(var.index())
    }

    /// Seats a one-variable-per-agent population, in agent id order:
    /// checks that each agent owns exactly one variable and that `init`
    /// gives it a value in its domain, then builds the agent with
    /// `build(agent, var, domain, value, neighbors)`, where `neighbors`
    /// pairs each of the variable's neighbors with its owner.
    ///
    /// # Errors
    ///
    /// The first agent's [`CoreError::WrongVariableCount`] or
    /// [`CoreError::BadInitialValue`]; no agent is built after it.
    pub fn seat<A>(
        &self,
        init: &Assignment,
        mut build: impl FnMut(AgentId, VariableId, Domain, Value, Vec<(VariableId, AgentId)>) -> A,
    ) -> Result<Vec<A>, CoreError> {
        let mut agents = Vec::with_capacity(self.num_agents);
        for a in 0..self.num_agents {
            let agent = AgentId::new(a as u32);
            let vars = self.vars_of.row(a);
            let &[var] = vars else {
                return Err(CoreError::WrongVariableCount {
                    agent,
                    count: vars.len(),
                });
            };
            let domain = self.domain(var);
            let value = init
                .get(var)
                .filter(|&v| domain.contains(v))
                .ok_or(CoreError::BadInitialValue { var })?;
            let neighbors = self
                .neighbors(var)
                .iter()
                .map(|&v| (v, self.owner(v)))
                .collect();
            agents.push(build(agent, var, domain, value, neighbors));
        }
        Ok(agents)
    }

    /// Whether the total assignment `assignment` violates no nogood.
    ///
    /// Returns `false` for partial assignments (every variable must be
    /// assigned).
    pub fn is_solution(&self, assignment: &Assignment) -> bool {
        if assignment.num_vars() < self.num_vars() || !assignment.is_total() {
            return false;
        }
        self.nogoods
            .iter()
            .all(|ng| !ng.is_violated_by(assignment.lookup()))
    }

    /// Counts the nogoods violated under a (possibly partial) lookup.
    pub fn violation_count<F>(&self, lookup: F) -> usize
    where
        F: Fn(VariableId) -> Option<Value>,
    {
        self.nogoods
            .iter()
            .filter(|ng| ng.is_violated_by(&lookup))
            .count()
    }

    /// Mean number of nogoods per variable — a density measure used by
    /// reports.
    pub fn mean_relevant_nogoods(&self) -> f64 {
        // `build` refuses a problem without variables.
        self.relevant.items.len() as f64 / self.num_vars() as f64
    }
}

impl fmt::Display for DistributedCsp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "discsp[{} vars, {} agents, {} nogoods]",
            self.num_vars(),
            self.num_agents(),
            self.nogoods.len()
        )
    }
}

/// Incremental builder for [`DistributedCsp`], returned by
/// [`DistributedCsp::builder`].
#[derive(Debug, Default)]
pub struct DistributedCspBuilder {
    domains: Vec<Domain>,
    owners: Vec<AgentId>,
    explicit_agents: Option<u32>,
    nogoods: Vec<Nogood>,
}

impl DistributedCspBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DistributedCspBuilder::default()
    }

    /// Adds a variable owned by a fresh agent (the paper's one-variable-
    /// per-agent arrangement). Returns the new variable's id.
    pub fn variable(&mut self, domain: Domain) -> VariableId {
        let var = VariableId::new(self.domains.len() as u32);
        let agent = AgentId::new(self.owners.len() as u32);
        self.domains.push(domain);
        self.owners.push(agent);
        var
    }

    /// Adds a variable owned by a specific agent (multi-variable-per-agent
    /// problems). Returns the new variable's id.
    pub fn variable_owned_by(&mut self, domain: Domain, agent: AgentId) -> VariableId {
        let var = VariableId::new(self.domains.len() as u32);
        self.domains.push(domain);
        self.owners.push(agent);
        let max = self.explicit_agents.unwrap_or(0).max(agent.raw() + 1);
        self.explicit_agents = Some(max);
        var
    }

    /// Adds a constraint nogood.
    ///
    /// # Errors
    ///
    /// Returns an error if the nogood mentions an unknown variable or a
    /// value outside that variable's domain.
    pub fn nogood(&mut self, nogood: Nogood) -> Result<&mut Self, CoreError> {
        for e in nogood.elems() {
            let Some(domain) = self.domains.get(e.var.index()) else {
                return Err(CoreError::UnknownVariable { var: e.var });
            };
            if !domain.contains(e.value) {
                return Err(CoreError::ValueOutOfDomain {
                    var: e.var,
                    value: e.value,
                });
            }
        }
        self.nogoods.push(nogood);
        Ok(self)
    }

    /// Adds the pairwise nogoods of a graph-coloring arc: for every common
    /// value `v`, prohibits `x = v ∧ y = v`.
    ///
    /// # Errors
    ///
    /// Returns an error if either variable is unknown.
    pub fn not_equal(&mut self, x: VariableId, y: VariableId) -> Result<&mut Self, CoreError> {
        let dx = *self
            .domains
            .get(x.index())
            .ok_or(CoreError::UnknownVariable { var: x })?;
        let dy = *self
            .domains
            .get(y.index())
            .ok_or(CoreError::UnknownVariable { var: y })?;
        let shared = dx.size().min(dy.size()) as u16;
        for v in 0..shared {
            let value = Value::new(v);
            self.nogood(Nogood::of([(x, value), (y, value)]))?;
        }
        Ok(self)
    }

    /// Adds a SAT clause over Boolean variables: the clause
    /// `l₁ ∨ l₂ ∨ …` (each literal a `(variable, polarity)` pair) becomes
    /// the nogood prohibiting *every literal false simultaneously*.
    ///
    /// # Errors
    ///
    /// Returns an error if a variable is unknown or non-Boolean, or if the
    /// clause contains complementary literals on the same variable (such a
    /// clause is a tautology and cannot be represented as a nogood).
    pub fn clause(&mut self, literals: &[(VariableId, bool)]) -> Result<&mut Self, CoreError> {
        let elems = literals
            .iter()
            .map(|&(var, polarity)| (var, Value::from_bool(!polarity)));
        let nogood = Nogood::try_new(elems.map(Into::into))?;
        self.nogood(nogood)
    }

    /// Finalizes the problem.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyProblem`] if no variable was added.
    pub fn build(&mut self) -> Result<DistributedCsp, CoreError> {
        if self.domains.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        let num_vars = self.domains.len();
        let num_agents = self
            .explicit_agents
            .map(|n| n as usize)
            .unwrap_or(0)
            .max(self.owners.iter().map(|a| a.index() + 1).max().unwrap_or(0));

        let nogoods = &self.nogoods;
        let relevant = Rows::group(
            num_vars,
            nogoods
                .iter()
                .enumerate()
                .flat_map(|(i, ng)| ng.elems().iter().map(move |e| (e.var.index(), i))),
        );
        // One variable's neighbors at a time, sorted and deduplicated in
        // a reused buffer, then appended as its row.
        let mut neighbors = Rows {
            offsets: Vec::with_capacity(num_vars + 1),
            items: Vec::new(),
        };
        neighbors.offsets.push(0);
        let mut row = Vec::new();
        for var in 0..num_vars {
            row.clear();
            row.extend(
                relevant
                    .row(var)
                    .iter()
                    .flat_map(|&i| nogoods[i].vars())
                    .filter(|other| other.index() != var),
            );
            row.sort_unstable();
            row.dedup();
            neighbors.items.extend_from_slice(&row);
            neighbors.offsets.push(neighbors.items.len());
        }
        // Owners iterate in variable-id order, so each row comes out
        // sorted.
        let vars_of = Rows::group(
            num_agents,
            (0u32..)
                .zip(&self.owners)
                .map(|(var, agent)| (agent.index(), VariableId::new(var))),
        );

        Ok(DistributedCsp {
            domains: std::mem::take(&mut self.domains),
            owners: std::mem::take(&mut self.owners),
            num_agents,
            nogoods: std::mem::take(&mut self.nogoods),
            relevant,
            neighbors,
            vars_of,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u16) -> Value {
        Value::new(i)
    }

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
    fn builder_assigns_one_agent_per_variable() {
        let p = triangle();
        assert_eq!(p.num_vars(), 3);
        assert_eq!(p.num_agents(), 3);
        assert_eq!(p.owner(VariableId::new(2)), AgentId::new(2));
        assert_eq!(p.vars_of_agent(AgentId::new(1)), vec![VariableId::new(1)]);
    }

    #[test]
    fn not_equal_expands_to_pairwise_nogoods() {
        let p = triangle();
        // 3 arcs × 3 colors.
        assert_eq!(p.nogoods().len(), 9);
        assert_eq!(p.nogoods_of(VariableId::new(0)).count(), 6);
        assert_eq!(
            p.neighbors(VariableId::new(0)),
            &[VariableId::new(1), VariableId::new(2)]
        );
    }

    #[test]
    fn solution_detection() {
        let p = triangle();
        assert!(p.is_solution(&Assignment::total([v(0), v(1), v(2)])));
        assert!(!p.is_solution(&Assignment::total([v(0), v(0), v(2)])));
        // Partial assignments are never solutions.
        let mut partial = Assignment::empty(3);
        partial.set(VariableId::new(0), v(0));
        assert!(!p.is_solution(&partial));
        // Too-small assignments are never solutions.
        assert!(!p.is_solution(&Assignment::total([v(0), v(1)])));
    }

    #[test]
    fn violation_count_over_partial_lookup() {
        let p = triangle();
        // x0 = x1 = 0 violates exactly one nogood; x2 unassigned.
        let count = p.violation_count(|var| if var.index() < 2 { Some(v(0)) } else { None });
        assert_eq!(count, 1);
    }

    #[test]
    fn clause_encoding_negates_literals() {
        let mut b = DistributedCsp::builder();
        let p = b.variable(Domain::BOOL);
        let q = b.variable(Domain::BOOL);
        // p ∨ ¬q  ⇒  prohibit p=false ∧ q=true.
        b.clause(&[(p, true), (q, false)]).unwrap();
        let problem = b.build().unwrap();
        assert_eq!(
            problem.nogoods()[0],
            Nogood::of([(p, Value::FALSE), (q, Value::TRUE)])
        );
    }

    #[test]
    fn tautological_clause_rejected() {
        let mut b = DistributedCsp::builder();
        let p = b.variable(Domain::BOOL);
        let err = b.clause(&[(p, true), (p, false)]).unwrap_err();
        assert!(matches!(err, CoreError::ConflictingNogoodElements { .. }));
    }

    #[test]
    fn unknown_variable_rejected() {
        let mut b = DistributedCsp::builder();
        let _ = b.variable(Domain::new(3));
        let err = b
            .nogood(Nogood::of([(VariableId::new(9), v(0))]))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownVariable { .. }));
    }

    #[test]
    fn out_of_domain_value_rejected() {
        let mut b = DistributedCsp::builder();
        let x = b.variable(Domain::new(2));
        let err = b.nogood(Nogood::of([(x, v(5))])).unwrap_err();
        assert!(matches!(err, CoreError::ValueOutOfDomain { .. }));
    }

    #[test]
    fn empty_problem_rejected() {
        let err = DistributedCsp::builder().build().unwrap_err();
        assert_eq!(err, CoreError::EmptyProblem);
    }

    #[test]
    fn explicit_ownership_and_agent_count() {
        let mut b = DistributedCsp::builder();
        let agent = AgentId::new(0);
        let x = b.variable_owned_by(Domain::new(2), agent);
        let y = b.variable_owned_by(Domain::new(2), agent);
        b.not_equal(x, y).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.num_agents(), 1);
        assert_eq!(p.vars_of_agent(agent).len(), 2);
    }

    #[test]
    fn seat_builds_each_agent_from_its_variable() {
        let p = triangle();
        let init = Assignment::total([v(2), v(1), v(0)]);
        let seats = p
            .seat(&init, |agent, var, domain, value, neighbors| {
                (agent, var, domain, value, neighbors)
            })
            .unwrap();
        assert_eq!(seats.len(), 3);
        let (agent, var, domain, value, neighbors) = &seats[1];
        assert_eq!((*agent, *var), (AgentId::new(1), VariableId::new(1)));
        assert_eq!((*domain, *value), (Domain::new(3), v(1)));
        assert_eq!(
            neighbors,
            &[
                (VariableId::new(0), AgentId::new(0)),
                (VariableId::new(2), AgentId::new(2))
            ]
        );
    }

    #[test]
    fn seat_rejects_multi_variable_agents_and_unusable_values() {
        let mut b = DistributedCsp::builder();
        let agent = AgentId::new(0);
        let x = b.variable_owned_by(Domain::new(2), agent);
        let y = b.variable_owned_by(Domain::new(2), agent);
        b.not_equal(x, y).unwrap();
        let multi = b.build().unwrap();
        let err = multi
            .seat(&Assignment::total([v(0), v(0)]), |a, _, _, _, _| a)
            .unwrap_err();
        assert_eq!(err, CoreError::WrongVariableCount { agent, count: 2 });

        let p = triangle();
        let err = p
            .seat(&Assignment::empty(3), |a, _, _, _, _| a)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::BadInitialValue {
                var: VariableId::new(0)
            }
        );
        let out_of_domain = Assignment::total([v(0), v(3), v(0)]);
        let err = p.seat(&out_of_domain, |a, _, _, _, _| a).unwrap_err();
        assert_eq!(
            err,
            CoreError::BadInitialValue {
                var: VariableId::new(1)
            }
        );
    }

    #[test]
    fn density_measure() {
        let p = triangle();
        // Each variable is relevant to 6 of the 9 nogoods.
        assert!((p.mean_relevant_nogoods() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(
            triangle().to_string(),
            "discsp[3 vars, 3 agents, 9 nogoods]"
        );
    }
}
