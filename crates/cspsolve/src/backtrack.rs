//! Chronological backtracking with forward checking over nogood
//! constraints.
//!
//! This is the centralized substrate used to *validate* the distributed
//! algorithms and the benchmark generators: it confirms that generated
//! instances are solvable, hunts for second models when the unique-
//! solution SAT generator needs to eliminate them, and cross-checks
//! solutions returned by AWC/DB.

use std::collections::BTreeSet;

use discsp_core::{Assignment, DistributedCsp, Value, VariableId};

/// Outcome of a backtracking search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A solution was found.
    Solution(Assignment),
    /// The search space is exhausted: no solution exists (outside the
    /// forbidden set).
    Unsatisfiable,
    /// The node limit was reached before an answer was proven.
    LimitReached,
}

impl SolveResult {
    /// The solution, if one was found.
    pub fn solution(&self) -> Option<&Assignment> {
        match self {
            SolveResult::Solution(a) => Some(a),
            _ => None,
        }
    }
}

/// A configurable backtracking solver (MRV variable order, forward
/// checking on nogoods).
///
/// # Examples
///
/// ```
/// use discsp_core::{DistributedCsp, Domain};
/// use discsp_cspsolve::{Backtracker, SolveResult};
///
/// # fn main() -> Result<(), discsp_core::CoreError> {
/// let mut b = DistributedCsp::builder();
/// let x = b.variable(Domain::new(3));
/// let y = b.variable(Domain::new(3));
/// b.not_equal(x, y)?;
/// let problem = b.build()?;
/// let result = Backtracker::new(&problem).solve();
/// assert!(matches!(result, SolveResult::Solution(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Backtracker<'a> {
    problem: &'a DistributedCsp,
    node_limit: u64,
    away_from: Option<&'a Assignment>,
    forbidden: BTreeSet<Vec<Value>>,
}

impl<'a> Backtracker<'a> {
    /// Creates a solver with a generous default node limit.
    pub fn new(problem: &'a DistributedCsp) -> Self {
        Backtracker {
            problem,
            node_limit: 10_000_000,
            away_from: None,
            forbidden: BTreeSet::new(),
        }
    }

    /// Caps the number of assignment nodes explored.
    pub fn node_limit(mut self, limit: u64) -> Self {
        self.node_limit = limit;
        self
    }

    /// Orders values to *differ* from `reference` first — useful for
    /// finding a model far from (and other than) a known one.
    pub fn value_order_away_from(mut self, reference: &'a Assignment) -> Self {
        self.away_from = Some(reference);
        self
    }

    /// Excludes a specific total assignment from the solution set.
    pub fn forbid(mut self, assignment: &Assignment) -> Self {
        let key: Vec<Value> = self
            .problem
            .vars()
            .map(|v| {
                assignment
                    .get(v)
                    .expect("forbidden assignment must be total")
            })
            .collect();
        self.forbidden.insert(key);
        self
    }

    /// Runs the search for one solution.
    pub fn solve(&self) -> SolveResult {
        let mut search = Search::new(self);
        match search.run(1) {
            RunEnd::Exhausted => SolveResult::Unsatisfiable,
            RunEnd::Limit => SolveResult::LimitReached,
            RunEnd::Collected => {
                let solution = search.collected.pop().expect("one solution collected"); // lint: allow(panic-path): `Collected` is only returned after pushing a solution
                SolveResult::Solution(solution)
            }
        }
    }

    /// Counts models up to `limit`.
    ///
    /// Returns `(count, complete)`: `complete` is `false` when either the
    /// model cap or the node limit stopped the search early.
    pub fn count_models(&self, limit: usize) -> (usize, bool) {
        let mut search = Search::new(self);
        match search.run(limit) {
            RunEnd::Exhausted => (search.collected.len(), true),
            RunEnd::Limit | RunEnd::Collected => (search.collected.len(), false),
        }
    }

    /// Enumerates up to `limit` models.
    pub fn enumerate(&self, limit: usize) -> Vec<Assignment> {
        let mut search = Search::new(self);
        let _ = search.run(limit);
        search.collected
    }
}

enum RunEnd {
    /// Search space exhausted.
    Exhausted,
    /// Node limit hit.
    Limit,
    /// Wanted number of solutions collected.
    Collected,
}

struct Search<'a, 'b> {
    cfg: &'b Backtracker<'a>,
    /// `domains[var][value]`: pruning depth + 1, or 0 when available.
    domains: Vec<Vec<u32>>,
    assignment: Vec<Option<Value>>,
    nodes: u64,
    collected: Vec<Assignment>,
}

impl<'a, 'b> Search<'a, 'b> {
    fn new(cfg: &'b Backtracker<'a>) -> Self {
        let problem = cfg.problem;
        let domains = problem
            .vars()
            .map(|v| vec![0u32; problem.domain(v).size()])
            .collect();
        Search {
            cfg,
            domains,
            assignment: vec![None; problem.num_vars()],
            nodes: 0,
            collected: Vec::new(),
        }
    }

    fn run(&mut self, want: usize) -> RunEnd {
        self.dfs(1, want)
    }

    /// Returns the run outcome; `depth` doubles as the pruning stamp.
    fn dfs(&mut self, depth: u32, want: usize) -> RunEnd {
        let problem = self.cfg.problem;
        // MRV: unassigned variable with fewest available values.
        let next = problem
            .vars()
            .filter(|&v| self.assignment[v.index()].is_none())
            .min_by_key(|&v| {
                self.domains[v.index()]
                    .iter()
                    .filter(|&&stamp| stamp == 0)
                    .count()
            });
        let Some(var) = next else {
            // Total assignment reached consistently (forward checking
            // guarantees no violated nogood); honor the forbidden set.
            let key: Vec<Value> = self
                .assignment
                .iter()
                .map(|v| v.expect("total assignment")) // lint: allow(panic-path): `next` returned None, so every stamp is set and the assignment is total
                .collect();
            if !self.cfg.forbidden.contains(&key) {
                self.collected.push(Assignment::total(key.iter().copied()));
                if self.collected.len() >= want {
                    return RunEnd::Collected;
                }
            }
            return RunEnd::Exhausted;
        };

        let mut order: Vec<Value> = problem
            .domain(var)
            .iter()
            .filter(|d| self.domains[var.index()][d.index()] == 0)
            .collect();
        if let Some(reference) = self.cfg.away_from {
            let preferred = reference.get(var);
            order.sort_by_key(|&d| (Some(d) == preferred, d));
        }

        for value in order {
            self.nodes += 1;
            if self.nodes > self.cfg.node_limit {
                return RunEnd::Limit;
            }
            self.assignment[var.index()] = Some(value);
            if self.forward_check(var, depth) {
                match self.dfs(depth + 1, want) {
                    RunEnd::Exhausted => {}
                    end => {
                        // Leave state dirty on early exit; the entry
                        // points never reuse a finished search.
                        return end;
                    }
                }
            }
            self.unstamp(depth);
            self.assignment[var.index()] = None;
        }
        RunEnd::Exhausted
    }

    /// Prunes neighbor domains implied by assigning `var`; returns
    /// `false` on a wipeout or a directly violated nogood.
    fn forward_check(&mut self, var: VariableId, depth: u32) -> bool {
        let problem = self.cfg.problem;
        for ng in problem.nogoods_of(var) {
            let mut unassigned: Option<(VariableId, Value)> = None;
            let mut all_match = true;
            for e in ng.elems() {
                match self.assignment[e.var.index()] {
                    Some(v) if v == e.value => {}
                    Some(_) => {
                        all_match = false;
                        break;
                    }
                    None => {
                        if unassigned.is_some() {
                            // Two or more free variables: no propagation.
                            all_match = false;
                            break;
                        }
                        unassigned = Some((e.var, e.value));
                    }
                }
            }
            if !all_match {
                continue;
            }
            match unassigned {
                // Every element assigned and matching: violated.
                None => return false,
                Some((free_var, banned)) => {
                    let cell = &mut self.domains[free_var.index()][banned.index()];
                    if *cell == 0 {
                        *cell = depth;
                        let empty = self.domains[free_var.index()]
                            .iter()
                            .all(|&stamp| stamp != 0);
                        if empty {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Undoes all prunings stamped at `depth`.
    fn unstamp(&mut self, depth: u32) {
        for row in &mut self.domains {
            for cell in row.iter_mut() {
                if *cell == depth {
                    *cell = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Domain;

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

    fn k4() -> DistributedCsp {
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
    fn finds_triangle_coloring() {
        let p = triangle();
        let result = Backtracker::new(&p).solve();
        let solution = result.solution().expect("triangle is 3-colorable");
        assert!(p.is_solution(solution));
    }

    #[test]
    fn proves_k4_unsatisfiable() {
        let p = k4();
        assert_eq!(Backtracker::new(&p).solve(), SolveResult::Unsatisfiable);
    }

    #[test]
    fn counts_triangle_models_exactly() {
        // 3 colorings of a triangle = 3! = 6.
        let p = triangle();
        let (count, complete) = Backtracker::new(&p).count_models(100);
        assert!(complete);
        assert_eq!(count, 6);
    }

    #[test]
    fn count_cap_reports_incomplete() {
        let p = triangle();
        let (count, complete) = Backtracker::new(&p).count_models(2);
        assert_eq!(count, 2);
        assert!(!complete);
    }

    #[test]
    fn node_limit_reports_limit() {
        let p = k4();
        let result = Backtracker::new(&p).node_limit(2).solve();
        assert_eq!(result, SolveResult::LimitReached);
    }

    #[test]
    fn forbid_excludes_assignments() {
        let mut b = DistributedCsp::builder();
        let _x = b.variable(Domain::new(2));
        let p = b.build().unwrap();
        // Two trivial models; forbid both → unsatisfiable.
        let m0 = Assignment::total([Value::new(0)]);
        let m1 = Assignment::total([Value::new(1)]);
        let result = Backtracker::new(&p).forbid(&m0).forbid(&m1).solve();
        assert_eq!(result, SolveResult::Unsatisfiable);
        let result = Backtracker::new(&p).forbid(&m0).solve();
        assert_eq!(result.solution(), Some(&m1));
    }

    #[test]
    fn away_from_prefers_different_values() {
        let mut b = DistributedCsp::builder();
        let _x = b.variable(Domain::new(3));
        let p = b.build().unwrap();
        let reference = Assignment::total([Value::new(0)]);
        let result = Backtracker::new(&p)
            .value_order_away_from(&reference)
            .solve();
        // The first model found avoids the reference value.
        assert_ne!(
            result.solution().unwrap().get(VariableId::new(0)),
            Some(Value::new(0))
        );
    }

    #[test]
    fn enumerate_returns_distinct_models() {
        let p = triangle();
        let models = Backtracker::new(&p).enumerate(10);
        assert_eq!(models.len(), 6);
        for m in &models {
            assert!(p.is_solution(m));
        }
        let unique: std::collections::HashSet<String> =
            models.iter().map(|m| m.to_string()).collect();
        assert_eq!(unique.len(), 6);
    }
}
