//! Nogoods — the constraint representation used throughout the paper.
//!
//! A *nogood* is a set of variable/value pairs stating that the combination
//! is prohibited. Original problem constraints are given as nogoods, and
//! learning adds new (logically implied) nogoods discovered at deadends.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::assignment::VarValue;
use crate::error::CoreError;
use crate::ids::VariableId;
use crate::value::Value;

/// A prohibited combination of variable/value pairs, stored in canonical
/// (variable-id sorted, deduplicated) form.
///
/// Two nogoods are equal iff they prohibit the same combination, regardless
/// of the order their elements were supplied in. The *empty* nogood
/// prohibits the empty combination — i.e. it is violated by everything and
/// proves the problem insoluble.
///
/// # Examples
///
/// ```
/// use discsp_core::{Nogood, Value, VariableId};
///
/// // "x1 and x5 must not both be red (value 0)."
/// let ng = Nogood::of([(VariableId::new(5), Value::new(0)),
///                      (VariableId::new(1), Value::new(0))]);
/// assert_eq!(ng.len(), 2);
/// assert!(ng.contains_var(VariableId::new(1)));
/// assert_eq!(ng.value_of(VariableId::new(5)), Some(Value::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Nogood {
    /// Elements sorted by variable id; at most one element per variable.
    elems: Vec<VarValue>,
}

impl Nogood {
    /// Creates a nogood from elements, canonicalizing their order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConflictingNogoodElements`] if the same variable
    /// appears twice with *different* values (such a "nogood" could never be
    /// violated and is always a construction bug). Duplicate identical
    /// elements are merged silently.
    pub fn try_new<I>(elems: I) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = VarValue>,
    {
        let mut elems: Vec<VarValue> = elems.into_iter().collect();
        elems.sort();
        elems.dedup();
        for pair in elems.windows(2) {
            if let [a, b] = pair {
                if a.var == b.var {
                    return Err(CoreError::ConflictingNogoodElements { var: a.var });
                }
            }
        }
        Ok(Nogood { elems })
    }

    /// Creates a nogood from elements, canonicalizing their order.
    ///
    /// # Panics
    ///
    /// Panics when the same variable appears with two different values; use
    /// [`Nogood::try_new`] to handle that case as an error.
    pub fn new<I>(elems: I) -> Self
    where
        I: IntoIterator<Item = VarValue>,
    {
        // lint: allow(panic-path): documented panicking constructor; the
        // runtime path (resolvent) feeds literals from one consistent
        // agent view, where a variable cannot carry two values
        Nogood::try_new(elems).expect("conflicting nogood elements")
    }

    /// Convenience constructor from `(variable, value)` tuples.
    ///
    /// # Panics
    ///
    /// Panics when the same variable appears with two different values.
    pub fn of<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (VariableId, Value)>,
    {
        Nogood::new(pairs.into_iter().map(VarValue::from))
    }

    /// The empty nogood, violated by every assignment (proof of
    /// insolubility).
    pub fn empty() -> Self {
        Nogood { elems: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether this is the empty nogood.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The elements in canonical (variable-id) order.
    pub fn elems(&self) -> &[VarValue] {
        &self.elems
    }

    /// Whether `var` appears in this nogood.
    pub fn contains_var(&self, var: VariableId) -> bool {
        self.elems.binary_search_by_key(&var, |e| e.var).is_ok()
    }

    /// The value this nogood prohibits for `var`, if `var` appears.
    pub fn value_of(&self, var: VariableId) -> Option<Value> {
        self.elems
            .binary_search_by_key(&var, |e| e.var)
            .ok()
            .map(|i| self.elems[i].value)
    }

    /// Iterates over the variables mentioned, in id order.
    pub fn vars(&self) -> impl Iterator<Item = VariableId> + '_ {
        self.elems.iter().map(|e| e.var)
    }

    /// Returns a copy with every element of `var` removed.
    pub fn without_var(&self, var: VariableId) -> Nogood {
        Nogood {
            elems: self
                .elems
                .iter()
                .copied()
                .filter(|e| e.var != var)
                .collect(),
        }
    }

    /// Whether every element of `self` also appears in `other`.
    pub fn is_subset_of(&self, other: &Nogood) -> bool {
        self.elems
            .iter()
            .all(|e| other.value_of(e.var) == Some(e.value))
    }

    /// Evaluates this nogood against a partial assignment given as a lookup
    /// function: the nogood is **violated** iff every element's variable is
    /// assigned exactly the prohibited value.
    ///
    /// This is the single primitive the paper's `maxcck` metric counts; all
    /// instrumented call sites route through
    /// [`NogoodStore::eval`](crate::store::NogoodStore::eval) or meter the
    /// call themselves.
    pub fn is_violated_by<F>(&self, lookup: F) -> bool
    where
        F: Fn(VariableId) -> Option<Value>,
    {
        self.elems.iter().all(|e| lookup(e.var) == Some(e.value))
    }
}

/// Read access to a nogood's canonical literal slice, implemented by both
/// the owned [`Nogood`] and the borrowed [`NogoodRef`].
///
/// The arena-backed [`NogoodStore`](crate::NogoodStore) hands out
/// [`NogoodRef`]s (slices into its literal arena) instead of `&Nogood`, so
/// every consumer of "something nogood-shaped" — rank computations,
/// violation tests, the store's own metered `eval` — is generic over this
/// trait. The slice is guaranteed canonical: sorted by variable id, at
/// most one literal per variable.
pub trait NogoodLits {
    /// The literals in canonical (variable-id sorted) order.
    fn lits(&self) -> &[VarValue];

    /// Number of literals.
    fn size(&self) -> usize {
        self.lits().len()
    }

    /// The value prohibited for `var`, if `var` appears.
    fn prohibited_value(&self, var: VariableId) -> Option<Value> {
        let lits = self.lits();
        lits.binary_search_by_key(&var, |e| e.var)
            .ok()
            .map(|i| lits[i].value)
    }

    /// Evaluates against a partial assignment: violated iff every literal's
    /// variable is assigned exactly the prohibited value. Unmetered — call
    /// sites must route through the store's meter.
    fn violated_by<F>(&self, lookup: F) -> bool
    where
        F: Fn(VariableId) -> Option<Value>,
    {
        self.lits().iter().all(|e| lookup(e.var) == Some(e.value))
    }
}

impl NogoodLits for Nogood {
    fn lits(&self) -> &[VarValue] {
        &self.elems
    }
}

impl<T: NogoodLits + ?Sized> NogoodLits for &T {
    fn lits(&self) -> &[VarValue] {
        (**self).lits()
    }
}

/// A borrowed nogood: a view into a canonical literal slice owned by
/// someone else (typically a [`NogoodStore`](crate::NogoodStore) arena).
///
/// `Copy` and pointer-sized-ish, so hot loops can pass it by value without
/// touching the literal data. Mirrors the read API of [`Nogood`];
/// materialize with [`NogoodRef::to_nogood`] when an owned value is needed
/// (e.g. to send in a message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NogoodRef<'a> {
    elems: &'a [VarValue],
}

impl<'a> NogoodRef<'a> {
    /// Wraps a slice that is already canonical (sorted by variable id,
    /// deduplicated, one literal per variable). Callers inside this crate
    /// only ever wrap slices taken from a canonical [`Nogood`].
    pub(crate) fn from_canonical(elems: &'a [VarValue]) -> Self {
        debug_assert!(
            elems
                .windows(2)
                .all(|w| matches!(w, [a, b] if a.var < b.var)),
            "NogoodRef slice must be canonical"
        );
        NogoodRef { elems }
    }

    /// Number of elements.
    pub fn len(self) -> usize {
        self.elems.len()
    }

    /// Whether this is the empty nogood.
    pub fn is_empty(self) -> bool {
        self.elems.is_empty()
    }

    /// The elements in canonical (variable-id) order.
    pub fn elems(self) -> &'a [VarValue] {
        self.elems
    }

    /// Whether `var` appears in this nogood.
    pub fn contains_var(self, var: VariableId) -> bool {
        self.elems.binary_search_by_key(&var, |e| e.var).is_ok()
    }

    /// The value this nogood prohibits for `var`, if `var` appears.
    pub fn value_of(self, var: VariableId) -> Option<Value> {
        self.prohibited_value(var)
    }

    /// Iterates over the variables mentioned, in id order.
    pub fn vars(self) -> impl Iterator<Item = VariableId> + 'a {
        self.elems.iter().map(|e| e.var)
    }

    /// Unmetered violation test; see [`Nogood::is_violated_by`] for the
    /// metering contract.
    pub fn is_violated_by<F>(self, lookup: F) -> bool
    where
        F: Fn(VariableId) -> Option<Value>,
    {
        self.violated_by(lookup)
    }

    /// Whether every element of `self` also appears in `other`.
    pub fn is_subset_of(self, other: &Nogood) -> bool {
        self.elems
            .iter()
            .all(|e| other.value_of(e.var) == Some(e.value))
    }

    /// Materializes an owned [`Nogood`]. The slice is already canonical,
    /// so this is a plain copy, not a re-sort.
    pub fn to_nogood(self) -> Nogood {
        Nogood {
            elems: self.elems.to_vec(),
        }
    }
}

impl NogoodLits for NogoodRef<'_> {
    fn lits(&self) -> &[VarValue] {
        self.elems
    }
}

impl PartialEq<Nogood> for NogoodRef<'_> {
    fn eq(&self, other: &Nogood) -> bool {
        self.elems == other.elems()
    }
}

impl PartialEq<NogoodRef<'_>> for Nogood {
    fn eq(&self, other: &NogoodRef<'_>) -> bool {
        self.elems() == other.elems
    }
}

impl fmt::Display for NogoodRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_literals(self.elems, f)
    }
}

fn fmt_literals(elems: &[VarValue], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "¬(")?;
    let mut first = true;
    for e in elems {
        if !first {
            write!(f, " ")?;
        }
        first = false;
        write!(f, "{e}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Nogood {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_literals(&self.elems, f)
    }
}

impl FromIterator<VarValue> for Nogood {
    /// Builds a nogood, panicking on conflicting elements; prefer
    /// [`Nogood::try_new`] when the input is untrusted.
    fn from_iter<I: IntoIterator<Item = VarValue>>(iter: I) -> Self {
        Nogood::new(iter)
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
    fn canonical_order_and_equality() {
        let a = Nogood::of([(x(5), v(0)), (x(1), v(2))]);
        let b = Nogood::of([(x(1), v(2)), (x(5), v(0))]);
        assert_eq!(a, b);
        assert_eq!(a.elems()[0].var, x(1));
    }

    #[test]
    fn duplicate_identical_elements_merge() {
        let a = Nogood::of([(x(1), v(2)), (x(1), v(2))]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn conflicting_elements_rejected() {
        let err =
            Nogood::try_new([VarValue::new(x(1), v(0)), VarValue::new(x(1), v(1))]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::ConflictingNogoodElements { var } if var == x(1)
        ));
    }

    #[test]
    #[should_panic(expected = "conflicting nogood elements")]
    fn new_panics_on_conflict() {
        let _ = Nogood::of([(x(1), v(0)), (x(1), v(1))]);
    }

    #[test]
    fn empty_nogood_is_always_violated() {
        let ng = Nogood::empty();
        assert!(ng.is_empty());
        assert!(ng.is_violated_by(|_| None));
    }

    #[test]
    fn violation_requires_all_elements_assigned() {
        let ng = Nogood::of([(x(0), v(1)), (x(1), v(0))]);
        // Fully matching assignment: violated.
        assert!(ng.is_violated_by(|var| match var.index() {
            0 => Some(v(1)),
            1 => Some(v(0)),
            _ => None,
        }));
        // One variable unassigned: not violated.
        assert!(!ng.is_violated_by(|var| match var.index() {
            0 => Some(v(1)),
            _ => None,
        }));
        // One variable with a different value: not violated.
        assert!(!ng.is_violated_by(|var| match var.index() {
            0 => Some(v(1)),
            1 => Some(v(1)),
            _ => None,
        }));
    }

    #[test]
    fn membership_and_lookup() {
        let ng = Nogood::of([(x(2), v(1)), (x(7), v(0))]);
        assert!(ng.contains_var(x(2)));
        assert!(!ng.contains_var(x(3)));
        assert_eq!(ng.value_of(x(7)), Some(v(0)));
        assert_eq!(ng.value_of(x(3)), None);
        assert_eq!(ng.vars().collect::<Vec<_>>(), vec![x(2), x(7)]);
    }

    #[test]
    fn without_var_strips_all_occurrences() {
        let ng = Nogood::of([(x(2), v(1)), (x(7), v(0))]);
        let stripped = ng.without_var(x(2));
        assert_eq!(stripped, Nogood::of([(x(7), v(0))]));
        // Removing an absent variable is a no-op copy.
        assert_eq!(ng.without_var(x(9)), ng);
    }

    #[test]
    fn subset_relation() {
        let small = Nogood::of([(x(1), v(0))]);
        let big = Nogood::of([(x(1), v(0)), (x(2), v(1))]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(Nogood::empty().is_subset_of(&small));
        // Same variable, different value: not a subset.
        let other = Nogood::of([(x(1), v(1))]);
        assert!(!other.is_subset_of(&big));
    }

    #[test]
    fn display_form() {
        let ng = Nogood::of([(x(5), v(0)), (x(1), v(2))]);
        assert_eq!(ng.to_string(), "¬((x1=2) (x5=0))");
        assert_eq!(Nogood::empty().to_string(), "¬()");
    }

    #[test]
    fn from_iterator_collects() {
        let ng: Nogood = [VarValue::new(x(3), v(1))].into_iter().collect();
        assert_eq!(ng.len(), 1);
    }
}
