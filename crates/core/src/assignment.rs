//! Variable/value pairs and (partial) assignments.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::VariableId;
use crate::value::Value;

/// A single variable/value pair — the element type of nogoods and the unit
/// of information carried by `ok?` messages.
///
/// # Examples
///
/// ```
/// use discsp_core::{Value, VarValue, VariableId};
///
/// let e = VarValue::new(VariableId::new(5), Value::new(1));
/// assert_eq!(e.to_string(), "(x5=1)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarValue {
    /// The variable.
    pub var: VariableId,
    /// The value assigned to (or prohibited for) the variable.
    pub value: Value,
}

impl VarValue {
    /// Creates a variable/value pair.
    pub const fn new(var: VariableId, value: Value) -> Self {
        VarValue { var, value }
    }
}

impl fmt::Display for VarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}={})", self.var, self.value)
    }
}

impl From<(VariableId, Value)> for VarValue {
    fn from((var, value): (VariableId, Value)) -> Self {
        VarValue::new(var, value)
    }
}

/// A partial assignment of values to a dense set of variables.
///
/// Used by the simulator's omniscient observer (to detect solutions), by the
/// centralized solver substrate, and as the representation of returned
/// solutions.
///
/// # Examples
///
/// ```
/// use discsp_core::{Assignment, Value, VariableId};
///
/// let mut a = Assignment::empty(3);
/// a.set(VariableId::new(0), Value::new(2));
/// assert_eq!(a.get(VariableId::new(0)), Some(Value::new(2)));
/// assert!(!a.is_total());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    pub(crate) values: Vec<Option<Value>>,
}

impl Assignment {
    /// Creates an empty assignment over `num_vars` variables.
    pub fn empty(num_vars: usize) -> Self {
        Assignment {
            values: vec![None; num_vars],
        }
    }

    /// Creates a total assignment from one value per variable, in id order.
    pub fn total<I>(values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        Assignment {
            values: values.into_iter().map(Some).collect(),
        }
    }

    /// Number of variables this assignment ranges over.
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// The value assigned to `var`, if any.
    ///
    /// Variables outside the assignment's range are unassigned.
    pub fn get(&self, var: VariableId) -> Option<Value> {
        self.values.get(var.index()).copied().flatten()
    }

    /// Assigns `value` to `var`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set(&mut self, var: VariableId, value: Value) -> Option<Value> {
        self.values[var.index()].replace(value)
    }

    /// Removes the assignment of `var`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn unset(&mut self, var: VariableId) -> Option<Value> {
        self.values[var.index()].take()
    }

    /// Whether every variable is assigned.
    pub fn is_total(&self) -> bool {
        self.values.iter().all(Option::is_some)
    }

    /// Number of assigned variables.
    pub fn assigned_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// Iterates over the assigned `(variable, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = VarValue> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|value| VarValue::new(VariableId::new(i as u32), value)))
    }

    /// A lookup closure suitable for nogood evaluation.
    pub fn lookup(&self) -> impl Fn(VariableId) -> Option<Value> + '_ {
        move |var| self.get(var)
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for vv in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{vv}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<VarValue> for Assignment {
    /// Builds an assignment sized to the largest mentioned variable.
    fn from_iter<I: IntoIterator<Item = VarValue>>(iter: I) -> Self {
        let pairs: Vec<VarValue> = iter.into_iter().collect();
        let n = pairs.iter().map(|vv| vv.var.index() + 1).max().unwrap_or(0);
        let mut a = Assignment::empty(n);
        for vv in pairs {
            a.set(vv.var, vv.value);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> VariableId {
        VariableId::new(i)
    }
    fn v(i: u16) -> Value {
        Value::new(i)
    }

    #[test]
    fn set_get_unset() {
        let mut a = Assignment::empty(2);
        assert_eq!(a.get(x(0)), None);
        assert_eq!(a.set(x(0), v(1)), None);
        assert_eq!(a.set(x(0), v(2)), Some(v(1)));
        assert_eq!(a.get(x(0)), Some(v(2)));
        assert_eq!(a.unset(x(0)), Some(v(2)));
        assert_eq!(a.get(x(0)), None);
    }

    #[test]
    fn out_of_range_get_is_none() {
        let a = Assignment::empty(1);
        assert_eq!(a.get(x(10)), None);
    }

    #[test]
    fn totality() {
        let mut a = Assignment::empty(2);
        assert!(!a.is_total());
        a.set(x(0), v(0));
        assert_eq!(a.assigned_count(), 1);
        a.set(x(1), v(1));
        assert!(a.is_total());
        assert_eq!(a.assigned_count(), 2);
    }

    #[test]
    fn total_constructor() {
        let a = Assignment::total([v(0), v(1), v(2)]);
        assert!(a.is_total());
        assert_eq!(a.num_vars(), 3);
        assert_eq!(a.get(x(2)), Some(v(2)));
    }

    #[test]
    fn iteration_in_id_order() {
        let mut a = Assignment::empty(3);
        a.set(x(2), v(0));
        a.set(x(0), v(1));
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(
            pairs,
            vec![VarValue::new(x(0), v(1)), VarValue::new(x(2), v(0))]
        );
    }

    #[test]
    fn from_iterator_sizes_to_max_var() {
        let a: Assignment = [VarValue::new(x(4), v(1))].into_iter().collect();
        assert_eq!(a.num_vars(), 5);
        assert_eq!(a.get(x(4)), Some(v(1)));
    }

    #[test]
    fn display_forms() {
        let mut a = Assignment::empty(2);
        a.set(x(0), v(1));
        a.set(x(1), v(0));
        assert_eq!(a.to_string(), "{(x0=1) (x1=0)}");
        assert_eq!(Assignment::empty(0).to_string(), "{}");
    }

    #[test]
    fn lookup_closure_matches_get() {
        let mut a = Assignment::empty(2);
        a.set(x(1), v(1));
        let look = a.lookup();
        assert_eq!(look(x(1)), Some(v(1)));
        assert_eq!(look(x(0)), None);
    }
}
