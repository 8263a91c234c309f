//! Agent views — an agent's local knowledge of other agents' variables.
//!
//! In the AWC an *agent_view* is "a list of 3-tuples (agent's id, variable's
//! id, variable's value)" (§1), extended here with each variable's last
//! known priority, which the AWC transmits inside `ok?` messages.
//!
//! The entries sit in one vector sorted by variable id: a lookup is a
//! binary search over contiguous entries, and an update of a known
//! variable overwrites its entry in place. A view holds the variables
//! its agent hears from, a neighborhood rather than the population, so
//! inserting a new one shifts few entries. See DESIGN.md §11.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{AgentId, VariableId};
#[cfg(test)]
use crate::nogood::Nogood;
use crate::nogood::NogoodLits;
use crate::priority::{Priority, Rank};
use crate::value::Value;

/// One entry of an [`AgentView`]: what the agent last heard about a
/// variable owned elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewEntry {
    /// The agent owning the variable.
    pub agent: AgentId,
    /// The variable's value as last announced.
    pub value: Value,
    /// The variable's priority as last announced.
    pub priority: Priority,
}

/// An agent's current knowledge of other variables' values and priorities.
///
/// The view is keyed by variable id (deterministic iteration order). The
/// owner's own variable is deliberately *not* stored here — algorithms keep
/// their own assignment separately and combine the two with
/// [`AgentView::lookup_with`].
///
/// [`AgentView::update`] and [`AgentView::remove`] report whether they
/// changed an entry; incremental machinery such as
/// [`IncrementalEval`](crate::IncrementalEval) is handed exactly the
/// variables they report.
///
/// # Examples
///
/// ```
/// use discsp_core::{AgentId, AgentView, Priority, Value, VariableId};
///
/// let mut view = AgentView::new();
/// view.update(VariableId::new(1), AgentId::new(1), Value::new(0), Priority::ZERO);
/// assert_eq!(view.value_of(VariableId::new(1)), Some(Value::new(0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentView {
    /// One entry per known variable, ascending by variable id.
    entries: Vec<(VariableId, ViewEntry)>,
}

impl AgentView {
    /// Creates an empty view.
    pub fn new() -> Self {
        AgentView::default()
    }

    /// Where `var`'s entry is (`Ok`) or would go (`Err`).
    fn position(&self, var: VariableId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&var, |&(known, _)| known)
    }

    /// Records (or refreshes) knowledge about `var`.
    ///
    /// Returns `true` when this changed the stored value or priority —
    /// i.e. when re-evaluation of nogoods may be warranted.
    pub fn update(
        &mut self,
        var: VariableId,
        agent: AgentId,
        value: Value,
        priority: Priority,
    ) -> bool {
        let entry = ViewEntry {
            agent,
            value,
            priority,
        };
        match self.position(var) {
            Ok(pos) => std::mem::replace(&mut self.entries[pos].1, entry) != entry,
            Err(pos) => {
                self.entries.insert(pos, (var, entry));
                true
            }
        }
    }

    /// Forgets everything about `var`; returns the entry if there was
    /// one (i.e. when this changed the view).
    pub fn remove(&mut self, var: VariableId) -> Option<ViewEntry> {
        let pos = self.position(var).ok()?;
        Some(self.entries.remove(pos).1)
    }

    /// The full entry for `var`, if known.
    pub fn entry(&self, var: VariableId) -> Option<ViewEntry> {
        let pos = self.position(var).ok()?;
        Some(self.entries[pos].1)
    }

    /// The last known value of `var`.
    pub fn value_of(&self, var: VariableId) -> Option<Value> {
        self.entry(var).map(|e| e.value)
    }

    /// The last known priority of `var`; unknown variables default to
    /// [`Priority::ZERO`], matching the paper's initialization.
    pub fn priority_of(&self, var: VariableId) -> Priority {
        self.entry(var)
            .map(|e| e.priority)
            .unwrap_or(Priority::ZERO)
    }

    /// The current [`Rank`] of `var` as seen from this view.
    pub fn rank_of(&self, var: VariableId) -> Rank {
        Rank::new(var, self.priority_of(var))
    }

    /// Whether `var` is known.
    pub fn knows(&self, var: VariableId) -> bool {
        self.position(var).is_ok()
    }

    /// Number of known variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(variable, entry)` pairs in variable-id order.
    pub fn iter(&self) -> impl Iterator<Item = (VariableId, ViewEntry)> + '_ {
        self.entries.iter().copied()
    }

    /// A nogood-evaluation lookup over this view alone.
    pub fn lookup(&self) -> impl Fn(VariableId) -> Option<Value> + '_ {
        move |var| self.value_of(var)
    }

    /// A nogood-evaluation lookup over this view with the owner's variable
    /// hypothetically set to `own_value`.
    ///
    /// This is the combination used throughout the AWC: "violated under the
    /// current agent_view and `x_i = d`" (§3.1).
    pub fn lookup_with(
        &self,
        own_var: VariableId,
        own_value: Value,
    ) -> impl Fn(VariableId) -> Option<Value> + '_ {
        move |var| {
            if var == own_var {
                Some(own_value)
            } else {
                self.value_of(var)
            }
        }
    }

    /// The rank of a nogood relative to the owner's variable: the rank of
    /// the *lowest-ranked* variable among the nogood's elements excluding
    /// `own_var` (§2.2). Returns `None` for nogoods containing no foreign
    /// variable (their violation depends on the owner alone).
    pub fn nogood_rank<N: NogoodLits>(&self, nogood: N, own_var: VariableId) -> Option<Rank> {
        nogood
            .lits()
            .iter()
            .map(|e| e.var)
            .filter(|&v| v != own_var)
            .map(|v| self.rank_of(v))
            .min()
    }

    /// Whether `nogood` is a *higher* nogood for an owner whose variable
    /// currently holds `own_rank`: its [`AgentView::nogood_rank`] outranks
    /// the owner (§2.2). Nogoods mentioning only the owner's variable count
    /// as higher — they prohibit values unconditionally.
    pub fn is_higher_nogood<N: NogoodLits>(&self, nogood: N, own_rank: Rank) -> bool {
        match self.nogood_rank(nogood, own_rank.var()) {
            Some(rank) => rank.outranks(own_rank),
            None => true,
        }
    }
}

impl fmt::Display for AgentView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view{{")?;
        let mut first = true;
        for (var, e) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{}:{}={}@{}", e.agent, var, e.value, e.priority)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> VariableId {
        VariableId::new(i)
    }
    fn a(i: u32) -> AgentId {
        AgentId::new(i)
    }
    fn v(i: u16) -> Value {
        Value::new(i)
    }
    fn p(i: u64) -> Priority {
        Priority::new(i)
    }

    #[test]
    fn update_reports_changes() {
        let mut view = AgentView::new();
        assert!(view.update(x(1), a(1), v(0), p(0)));
        // Identical refresh: no change.
        assert!(!view.update(x(1), a(1), v(0), p(0)));
        // Value change.
        assert!(view.update(x(1), a(1), v(1), p(0)));
        // Priority change.
        assert!(view.update(x(1), a(1), v(1), p(2)));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn unknown_priority_defaults_to_zero() {
        let view = AgentView::new();
        assert_eq!(view.priority_of(x(9)), Priority::ZERO);
        assert_eq!(view.rank_of(x(9)), Rank::new(x(9), Priority::ZERO));
        assert!(!view.knows(x(9)));
    }

    #[test]
    fn lookup_with_overrides_own_variable() {
        let mut view = AgentView::new();
        view.update(x(1), a(1), v(0), p(0));
        let look = view.lookup_with(x(5), v(2));
        assert_eq!(look(x(5)), Some(v(2)));
        assert_eq!(look(x(1)), Some(v(0)));
        assert_eq!(look(x(3)), None);
    }

    #[test]
    fn nogood_rank_is_lowest_foreign_rank() {
        // Paper §2.2 example: nogood over x1 (prio 2), x2 (prio 1), x5 (prio
        // 0, the owner). The nogood's priority is 1 (from x2).
        let mut view = AgentView::new();
        view.update(x(1), a(1), v(0), p(2));
        view.update(x(2), a(2), v(1), p(1));
        let ng = Nogood::of([(x(1), v(0)), (x(2), v(1)), (x(5), v(2))]);
        let rank = view.nogood_rank(&ng, x(5)).unwrap();
        assert_eq!(rank, Rank::new(x(2), p(1)));
        // x5 has priority 0, so the nogood is higher.
        assert!(view.is_higher_nogood(&ng, Rank::new(x(5), p(0))));
        // Raise x5 above: no longer higher.
        assert!(!view.is_higher_nogood(&ng, Rank::new(x(5), p(3))));
    }

    #[test]
    fn own_only_nogood_counts_as_higher() {
        let view = AgentView::new();
        let ng = Nogood::of([(x(5), v(1))]);
        assert!(view.is_higher_nogood(&ng, Rank::new(x(5), p(10))));
        assert_eq!(view.nogood_rank(&ng, x(5)), None);
    }

    #[test]
    fn rank_tie_breaks_by_id_in_nogood_rank() {
        let mut view = AgentView::new();
        view.update(x(1), a(1), v(0), p(1));
        view.update(x(2), a(2), v(0), p(1));
        let ng = Nogood::of([(x(1), v(0)), (x(2), v(0)), (x(9), v(0))]);
        // Equal priorities: the larger id (x2) is the lower rank.
        assert_eq!(view.nogood_rank(&ng, x(9)).unwrap(), Rank::new(x(2), p(1)));
    }

    #[test]
    fn remove_forgets() {
        let mut view = AgentView::new();
        view.update(x(1), a(1), v(0), p(0));
        assert!(view.remove(x(1)).is_some());
        assert!(view.is_empty());
        assert!(view.remove(x(1)).is_none());
    }

    #[test]
    fn equality_compares_entries() {
        let mut view = AgentView::new();
        view.update(x(1), a(1), v(0), p(0));
        assert_ne!(view, AgentView::new());
        view.remove(x(1));
        assert_eq!(view, AgentView::new());
    }

    #[test]
    fn display_lists_entries() {
        let mut view = AgentView::new();
        view.update(x(2), a(2), v(1), p(3));
        assert_eq!(view.to_string(), "view{a2:x2=1@3}");
    }
}
