//! Instrumented per-agent nogood storage.
//!
//! Every nogood evaluation in the system is routed through a
//! [`NogoodStore`] (or metered explicitly), because the paper's `maxcck`
//! metric is defined in units of *nogood checks*. The store is
//! append-only: it keeps all literals in one flat arena
//! (`Vec<VarValue>`) addressed by per-nogood `(offset, len)` slot
//! headers — no per-nogood heap allocation — and a nogood's
//! [`NogoodIdx`] is its recording position. Dedup goes through a map
//! from a fixed multiplicative literal hash to one slot, whose header
//! chains to the other slots of that hash, so a nogood costs no index
//! allocation of its own. A per-variable index
//! ([`NogoodStore::for_variable`]) supports incremental evaluation. It
//! has two parts: the constraints the store was built with, whose
//! `(variable, slot, value)` mention rows sit in one table sorted once,
//! and one list of `(slot, value)` rows per variable for the nogoods
//! recorded later. Each row carries the value its nogood gives the
//! variable, so a walk over a variable's mentions reads the rows alone,
//! never a slot header or the arena. [`NogoodStore::with_nogoods`] takes
//! the initial constraints by reference and sizes the arena, the slots
//! and that table once.
//!
//! [`IncrementalEval`] keeps each nogood's violation status and its
//! higher/lower side (§2.2) against a view: a changed variable moves the
//! tallies of exactly the nogoods mentioning it, at every store size,
//! reading only the variable's mention rows. Its per-slot state is one
//! vector and its bitsets are interleaved in another, both sized at the
//! first sync. See DESIGN.md §11 for the layout and why this one
//! strategy suffices.
//!
//! **Metric fidelity.** The check *meter* is independent of the check
//! *mechanism*: algorithms charge exactly the checks the paper's naive
//! scanning algorithm would perform (via [`NogoodStore::eval`] or
//! [`NogoodStore::charge_checks`]) even when the cached path skips the
//! wall-clock re-evaluation. See DESIGN.md, "Store indexing and metric
//! fidelity".

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::assignment::VarValue;
use crate::ids::VariableId;
use crate::nogood::{Nogood, NogoodLits, NogoodRef};
use crate::priority::{Priority, Rank};
use crate::value::Value;
use crate::view::AgentView;

/// Index of a nogood within its [`NogoodStore`]: the id of the slot the
/// nogood occupies, which is its recording position. The store is
/// append-only, so an index never moves and the indices are
/// `0..store.len()`.
pub type NogoodIdx = usize;

/// Slot header: where a nogood's literals live in the arena, and the
/// next slot of its dedup chain.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Start of the literal range in the arena.
    offset: u32,
    /// Number of literals.
    len: u32,
    /// Next slot with the same literal hash, or [`NO_SLOT`]: the dedup
    /// chain that starts at `NogoodStore::by_hash[hash]`.
    next_same_hash: u32,
}

/// A row of the table of constructor mentions: slot `slot` gives `var`
/// the value `value`. Packed to 10 bytes, so fields are read by copy.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct InitialMention {
    var: VariableId,
    slot: u32,
    value: Value,
}

/// A row of one variable's list of later mentions: slot `slot` gives
/// the variable the value `value`. Packed to 6 bytes, so fields are
/// read by copy.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(2))]
struct Mention {
    slot: u32,
    value: Value,
}

/// An append-only, deduplicating nogood set with an evaluation meter
/// and flat literal storage.
///
/// # Examples
///
/// ```
/// use discsp_core::{Nogood, NogoodStore, Value, VariableId};
///
/// let mut store = NogoodStore::new();
/// let ng = Nogood::of([(VariableId::new(0), Value::new(1))]);
/// assert!(store.insert(ng.clone()));
/// assert!(!store.insert(ng)); // duplicate
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.for_variable(VariableId::new(0)).count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct NogoodStore {
    /// All literals of all nogoods, contiguous, in recording order;
    /// `Slot::offset`/`len` is the way in.
    lits: Vec<VarValue>,
    slots: Vec<Slot>,
    /// Dedup index: canonical-literal hash -> the newest slot of that
    /// hash; the rest follow through `Slot::next_same_hash`.
    // lint: allow(unordered): point lookups keyed by hash only; the map
    // is never iterated, so map order cannot reach any output.
    by_hash: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// The mentions of the constraints the store was built with, one
    /// row per literal, sorted by variable, then slot: a variable's
    /// mentions are one range, ascending by slot, which is recording
    /// order.
    initial_mentions: Vec<InitialMention>,
    /// Per-variable index of the nogoods recorded after construction:
    /// a row for every one mentioning the variable, in recording order.
    // lint: allow(unordered): point lookups keyed by variable; values are
    // recording-ordered row vectors, so map order cannot reach output.
    var_index: HashMap<VariableId, Vec<Mention>>,
    checks: Cell<u64>,
}

/// End of a dedup chain.
const NO_SLOT: u32 = u32::MAX;

/// The dedup key of a canonical literal slice: a fixed multiplicative
/// hash (no per-process seed), finished by folding the high half into
/// the low one, so both the bucket bits and the tag bits of `by_hash`'s
/// table are mixed.
fn hash_lits(lits: &[VarValue]) -> u64 {
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
    let hash = lits.iter().fold(lits.len() as u64, |hash, lit| {
        let word = u64::from(lit.var.raw()) << 16 | u64::from(lit.value.raw());
        (hash.rotate_left(26) ^ word).wrapping_mul(MULTIPLIER)
    });
    hash ^ hash >> 32
}

/// `n` as a `u32`: a slot id, an arena offset or a literal count.
fn narrow(n: usize) -> u32 {
    // lint: allow(panic-path): capacity guard — stores hold orders of
    // magnitude fewer than 2^32 slots and literals
    u32::try_from(n).expect("store sizes stay below 2^32")
}

/// The hasher of `by_hash`, whose keys are [`hash_lits`] values already:
/// it hands a `u64` key through instead of hashing it again.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher; fold anything else in.
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

impl NogoodStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        NogoodStore::default()
    }

    /// Creates a store pre-populated with initial-constraint `nogoods`
    /// (duplicates merged).
    ///
    /// Pass the nogoods by reference (`problem.nogoods_of(var)`, or
    /// `&[Nogood]`): the store copies their literals into its arena, and
    /// walks `nogoods` twice — once to size the arena, the slots and the
    /// dedup map, once to fill them — then sorts the mentions of what it
    /// kept into one table. So building allocates each of them once,
    /// however many nogoods and variables there are.
    pub fn with_nogoods<I>(nogoods: I) -> Self
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: Borrow<Nogood>,
    {
        let nogoods = nogoods.into_iter();
        let (count, literals) = nogoods.clone().fold((0, 0), |(count, literals), ng| {
            (count + 1, literals + ng.borrow().len())
        });
        let mut store = NogoodStore {
            lits: Vec::with_capacity(literals),
            slots: Vec::with_capacity(count),
            ..NogoodStore::default()
        };
        store.by_hash.reserve(count);
        for ng in nogoods {
            let lits = ng.borrow().elems();
            store.record(lits, hash_lits(lits));
        }
        // The slots are 0..len and their ranges tile the arena in order.
        let mut mentions = Vec::with_capacity(store.lits.len());
        for (id, slot) in (0u32..).zip(&store.slots) {
            let range = slot.offset as usize..(slot.offset + slot.len) as usize;
            mentions.extend(store.lits[range].iter().map(|lit| InitialMention {
                var: lit.var,
                slot: id,
                value: lit.value,
            }));
        }
        // A nogood mentions a variable once, so the key is unique.
        mentions.sort_unstable_by_key(|row| (row.var, row.slot));
        store.initial_mentions = mentions;
        store
    }

    /// Records `nogood` (owned or borrowed; the store copies its
    /// literals) in the next slot; returns `false` if it was already
    /// present.
    pub fn insert(&mut self, nogood: impl Borrow<Nogood>) -> bool {
        let lits = nogood.borrow().elems();
        self.insert_hashed(lits, hash_lits(lits))
    }

    /// The newest slot of the dedup chain of `hash`, or [`NO_SLOT`].
    fn chain_head(&self, hash: u64) -> u32 {
        self.by_hash.get(&hash).copied().unwrap_or(NO_SLOT)
    }

    /// The slot holding exactly `lits`, whose hash is `hash`.
    fn find(&self, lits: &[VarValue], hash: u64) -> Option<u32> {
        let mut id = self.chain_head(hash);
        while id != NO_SLOT {
            if self.slot_ref(id as usize).elems() == lits {
                return Some(id);
            }
            id = self.slots[id as usize].next_same_hash;
        }
        None
    }

    /// Inserts canonical `lits` under `hash`, which is `hash_lits(lits)`
    /// everywhere but in the test that forces hash collisions, and lists
    /// the new slot, with the value it gives, under each of its
    /// variables.
    fn insert_hashed(&mut self, lits: &[VarValue], hash: u64) -> bool {
        let Some(slot) = self.record(lits, hash) else {
            return false;
        };
        for lit in lits {
            self.var_index.entry(lit.var).or_default().push(Mention {
                slot,
                value: lit.value,
            });
        }
        true
    }

    /// Appends canonical `lits` under `hash` in a new slot and returns
    /// the slot, or `None` if they are present already. Indexes no
    /// variable: the caller lists the slot.
    fn record(&mut self, lits: &[VarValue], hash: u64) -> Option<u32> {
        if self.find(lits, hash).is_some() {
            return None;
        }
        let id = narrow(self.slots.len());
        self.slots.push(Slot {
            offset: narrow(self.lits.len()),
            len: narrow(lits.len()),
            next_same_hash: self.chain_head(hash),
        });
        self.lits.extend_from_slice(lits);
        self.by_hash.insert(hash, id);
        Some(id)
    }

    /// Whether `nogood` is recorded.
    pub fn contains(&self, nogood: &Nogood) -> bool {
        self.find(nogood.elems(), hash_lits(nogood.elems()))
            .is_some()
    }

    /// Number of nogoods.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots, which is [`NogoodStore::len`]: the store never
    /// removes one. Indices are always `< slot_count()`;
    /// [`IncrementalEval`] sizes its caches by this.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no nogoods.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Borrowed view of slot `idx`'s literals.
    fn slot_ref(&self, idx: usize) -> NogoodRef<'_> {
        let s = &self.slots[idx];
        NogoodRef::from_canonical(&self.lits[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// Iterates over the nogoods in slot order.
    pub fn iter(&self) -> impl Iterator<Item = NogoodRef<'_>> {
        self.entries().map(|(_, ng)| ng)
    }

    /// Iterates over `(index, nogood)` for every slot, ascending by
    /// index.
    pub fn entries(&self) -> impl Iterator<Item = (NogoodIdx, NogoodRef<'_>)> {
        self.indices().map(|i| (i, self.slot_ref(i)))
    }

    /// Iterates over the slot indices, ascending: `0..len()`.
    pub fn indices(&self) -> impl Iterator<Item = NogoodIdx> + '_ {
        0..self.slots.len()
    }

    /// The nogood in slot `index`, or `None` for out-of-range slots.
    pub fn get(&self, index: NogoodIdx) -> Option<NogoodRef<'_>> {
        (index < self.slots.len()).then(|| self.slot_ref(index))
    }

    /// Iterates (in recording order) over the nogoods mentioning `var`, with their store indices. This is the index incremental
    /// evaluation uses: when a view changes by one assignment, only these
    /// nogoods can change violation status.
    ///
    /// The constructor's nogoods come first (a range of the sorted
    /// mention table), then the ones recorded later (the variable's list).
    pub fn for_variable(
        &self,
        var: VariableId,
    ) -> impl Iterator<Item = (NogoodIdx, NogoodRef<'_>)> + '_ {
        self.mentions(var)
            .map(move |(idx, _)| (idx, self.slot_ref(idx)))
    }

    /// The nogoods mentioning `var` with the value each gives it,
    /// in [`NogoodStore::for_variable`]'s order, read from the mention
    /// rows alone: no slot header, no literal.
    pub(crate) fn mentions(
        &self,
        var: VariableId,
    ) -> impl Iterator<Item = (NogoodIdx, Value)> + '_ {
        let start = self
            .initial_mentions
            .partition_point(|row| { row.var } < var);
        let initial = self.initial_mentions[start..]
            .iter()
            .take_while(move |row| { row.var } == var)
            .map(|row| (row.slot, row.value));
        let later = self.var_index.get(&var).map_or(&[][..], Vec::as_slice);
        initial
            .chain(later.iter().map(|row| (row.slot, row.value)))
            .map(|(slot, value)| (slot as NogoodIdx, value))
    }

    /// At most how many variables other than `except` the nogoods
    /// mention: exact while every nogood came through
    /// [`NogoodStore::with_nogoods`]. [`IncrementalEval`] sizes its
    /// variable table by it.
    fn vars_other_than(&self, except: VariableId) -> usize {
        let initial = self
            .initial_mentions
            .chunk_by(|a, b| { a.var } == { b.var })
            .filter(|run| run.first().is_some_and(|row| { row.var } != except))
            .count();
        initial + self.var_index.len()
    }

    /// Evaluates one nogood against `lookup`, counting **one** nogood check.
    ///
    /// Returns whether the nogood is violated. This is the sole metered
    /// primitive; [`NogoodStore::violated`] and the algorithm crates build
    /// on it.
    pub fn eval<N, F>(&self, nogood: N, lookup: F) -> bool
    where
        N: NogoodLits,
        F: Fn(VariableId) -> Option<Value>,
    {
        self.checks.set(self.checks.get() + 1);
        nogood.violated_by(lookup)
    }

    /// Meters `n` additional checks performed outside [`NogoodStore::eval`]
    /// (e.g. subset tests during mcs search, or cached evaluations that
    /// must still count as if performed naively).
    pub fn charge_checks(&self, n: u64) {
        self.checks.set(self.checks.get() + n);
    }

    /// Returns the violated nogoods under `lookup`, evaluating (and
    /// counting) every stored nogood.
    pub fn violated<F>(&self, lookup: F) -> Vec<NogoodRef<'_>>
    where
        F: Fn(VariableId) -> Option<Value>,
    {
        self.iter().filter(|&ng| self.eval(ng, &lookup)).collect()
    }

    /// Counts the violated nogoods under `lookup`, evaluating (and
    /// counting) every stored nogood.
    pub fn violation_count<F>(&self, lookup: F) -> usize
    where
        F: Fn(VariableId) -> Option<Value>,
    {
        self.iter().filter(|&ng| self.eval(ng, &lookup)).count()
    }

    /// Total nogood checks performed since construction or the last
    /// [`NogoodStore::take_checks`].
    pub fn checks(&self) -> u64 {
        self.checks.get()
    }

    /// Returns the check count and resets it to zero (used by the
    /// synchronous simulator at every cycle boundary to build `maxcck`).
    pub fn take_checks(&self) -> u64 {
        self.checks.replace(0)
    }
}

impl fmt::Display for NogoodStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store[{} nogoods, {} checks]", self.len(), self.checks())
    }
}

impl FromIterator<Nogood> for NogoodStore {
    fn from_iter<I: IntoIterator<Item = Nogood>>(iter: I) -> Self {
        let mut store = NogoodStore::new();
        store.extend(iter);
        store
    }
}

impl Extend<Nogood> for NogoodStore {
    fn extend<I: IntoIterator<Item = Nogood>>(&mut self, iter: I) {
        for ng in iter {
            self.insert(ng);
        }
    }
}

/// Incremental violation and partition tracker for one agent's store and
/// view.
///
/// Keeps two tallies per stored nogood:
///
/// - `unmatched`: foreign literals the view does not match (an unknown
///   variable never matches). The nogood is *foreign-satisfied* when the
///   tally is zero; it is then violated exactly when its own-variable
///   literal (if any) names the queried own value, a static property of
///   the nogood compared at query time.
/// - `not_outranking`: foreign literals whose variable does not outrank
///   the owner. §2.2 ranks a nogood by its lowest-ranked foreign
///   variable, so a nogood is *higher* exactly when this tally is zero;
///   own-only nogoods are higher. Unknown variables rank at
///   [`Priority::ZERO`], as [`AgentView::priority_of`] says.
///
/// Both tallies move by deltas. A view variable whose value or priority
/// changed walks only its own mention rows (the index behind
/// [`NogoodStore::for_variable`]), which carry each nogood's value for
/// it, so the walk reads no slot header and no literal;
/// an own-priority change walks only the variables whose side of the
/// owner flipped; an appended nogood is read once. So a
/// refresh costs what changed, not the store or the view size, and the
/// queries the AWC review asks — the higher count, the violated higher
/// nogoods, the violated lower count — are a counter or word-wise
/// bitset operations.
///
/// Two ways in: [`IncrementalEval::refresh_changed`] takes the variables
/// whose view entry changed (what [`AgentView::update`] and
/// [`AgentView::remove`] report), and [`IncrementalEval::refresh`] /
/// [`IncrementalEval::refresh_view`] diff a complete view.
///
/// **This type never meters checks.** Callers on the algorithm hot paths
/// must charge the same number of checks the naive scan would have
/// performed (see [`NogoodStore::charge_checks`]); the golden
/// metric-fidelity tests in `crates/bench/tests/golden_metrics.rs` pin
/// that contract.
///
/// # Examples
///
/// ```
/// use discsp_core::{AgentId, AgentView, IncrementalEval, Nogood, NogoodStore};
/// use discsp_core::{Priority, Value, VariableId};
///
/// let own = VariableId::new(0);
/// let foreign = VariableId::new(1);
/// let mut store = NogoodStore::new();
/// store.insert(Nogood::of([(own, Value::new(0)), (foreign, Value::new(1))]));
///
/// let mut view = AgentView::new();
/// view.update(foreign, AgentId::new(1), Value::new(1), Priority::new(1));
/// let mut eval = IncrementalEval::new(own);
/// eval.refresh_changed(&store, &view, Priority::ZERO, &[foreign]);
/// // x1 at priority 1 outranks the owner: the nogood is higher.
/// assert_eq!(eval.higher_len(), 1);
/// assert_eq!(eval.violated_higher(Value::new(0)).collect::<Vec<_>>(), vec![0]);
/// assert!(eval.violated_higher(Value::new(1)).next().is_none());
///
/// // Raising the owner above x1 moves the nogood to the lower side.
/// eval.refresh_changed(&store, &view, Priority::new(2), &[]);
/// assert_eq!(eval.higher_len(), 0);
/// assert_eq!(eval.lower_violation_count(Value::new(0)), 1);
/// ```
#[derive(Debug)]
pub struct IncrementalEval {
    own_var: VariableId,
    own_priority: Priority,
    /// Every foreign variable seen in the view or in a synced nogood,
    /// ascending by id. Sized by the agent's neighborhood, never by the
    /// population: a table indexed by global id made every agent carry an
    /// O(population) vector, which is quadratic total memory at 10^5+
    /// agents.
    vars: Vec<VarState>,
    /// Per slot: the two tallies. Its length is the number of store
    /// slots the caches cover, which is the cursor into the store: the
    /// slots from there on were appended since the last sync.
    slots: Vec<SlotState>,
    /// The bit planes, interleaved word by word: word `w` of plane `p`
    /// is `bits[w * stride + p]`. Planes [`FOREIGN_SAT`], [`HIGHER`] and
    /// [`APPLIES_ALWAYS`] come first, then one per own value `v` at
    /// `BY_VALUE + v`.
    bits: Vec<u64>,
    /// Planes per word: `BY_VALUE` plus the own values any synced slot
    /// prohibits.
    stride: usize,
    higher_count: usize,
}

/// Bit `i`: every foreign literal of slot `i` matches the view.
const FOREIGN_SAT: usize = 0;
/// Bit `i`: slot `i` is a higher nogood.
const HIGHER: usize = 1;
/// Bit `i`: slot `i` has no own-variable literal (applies to every own
/// value).
const APPLIES_ALWAYS: usize = 2;
/// Plane `BY_VALUE + v`, bit `i`: slot `i` prohibits own value `v`.
const BY_VALUE: usize = 3;

/// What the evaluator last saw of one foreign variable.
#[derive(Debug, Clone, Copy)]
struct VarState {
    var: VariableId,
    /// The view's value; `None` while the view does not hold the
    /// variable.
    value: Option<Value>,
    /// The view's priority; [`Priority::ZERO`] while the view does not
    /// hold the variable.
    priority: Priority,
    /// Whether the variable outranks the owner.
    outranks: bool,
    /// Set while a complete-view refresh walks the view: a held variable
    /// it did not see has left the view.
    seen: bool,
}

/// The cached tallies of one slot (see [`IncrementalEval`]). The own
/// value the slot prohibits is a static bit in the planes.
#[derive(Debug, Clone, Copy, Default)]
struct SlotState {
    unmatched: u32,
    not_outranking: u32,
}

/// The slot ids of the set bits of `word` (word `w` of a plane), in
/// ascending order.
fn bit_indices(w: usize, mut word: u64) -> impl Iterator<Item = NogoodIdx> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(w * 64 + bit)
    })
}

/// One word of the "applies to the queried own value" mask, from the
/// planes of one word group; `value_plane` is the queried value's plane.
#[inline]
fn applies(group: &[u64], value_plane: Option<usize>) -> u64 {
    group[APPLIES_ALWAYS] | value_plane.map_or(0, |plane| group[plane])
}

impl IncrementalEval {
    /// Store size (in slots) that marks a *large* store. Evaluation is
    /// the same tally walk at every size; the limit stays as the yardstick
    /// the benchmark counts stores against (`store.agents_over_256`)
    /// and the golden tests use to prove their trials reach large stores.
    pub const SMALL_STORE_LIMIT: usize = 256;

    /// Creates an empty tracker for the agent owning `own_var`, at
    /// [`Priority::ZERO`].
    pub fn new(own_var: VariableId) -> Self {
        IncrementalEval {
            own_var,
            own_priority: Priority::ZERO,
            vars: Vec::new(),
            slots: Vec::new(),
            bits: Vec::new(),
            stride: BY_VALUE,
            higher_count: 0,
        }
    }

    /// Number of store slots currently covered by the caches.
    pub fn synced_len(&self) -> usize {
        self.slots.len()
    }

    fn own_rank(&self) -> Rank {
        Rank::new(self.own_var, self.own_priority)
    }

    /// The plane of own value `value`, if any synced slot prohibits it
    /// or a value above it.
    fn value_plane(&self, value: Value) -> Option<usize> {
        let plane = BY_VALUE + value.index();
        (plane < self.stride).then_some(plane)
    }

    /// Bit `idx` of `plane`.
    #[inline]
    fn bit(&self, plane: usize, idx: usize) -> bool {
        self.bits
            .get(idx / 64 * self.stride + plane)
            .is_some_and(|word| word >> (idx % 64) & 1 == 1)
    }

    /// Sets bit `idx` of `plane` to `on`.
    #[inline]
    fn put(&mut self, plane: usize, idx: usize, on: bool) {
        let word = &mut self.bits[idx / 64 * self.stride + plane];
        if on {
            *word |= 1 << (idx % 64);
        } else {
            *word &= !(1 << (idx % 64));
        }
    }

    /// The word groups of the planes, one per 64 slots.
    fn groups(&self) -> impl Iterator<Item = (usize, &[u64])> + '_ {
        self.bits.chunks_exact(self.stride).enumerate()
    }

    /// Covers `slot_count` slots with `stride` planes per word, keeping
    /// every bit already set. Growing the slots appends words; adding
    /// planes lays the words out again.
    fn resize(&mut self, slot_count: usize, stride: usize) {
        let words = slot_count.div_ceil(64);
        if stride == self.stride {
            if words * stride > self.bits.len() {
                self.bits.resize(words * stride, 0);
            }
        } else {
            let mut bits = vec![0; words.max(self.bits.len() / self.stride) * stride];
            for (group, old) in bits
                .chunks_exact_mut(stride)
                .zip(self.bits.chunks_exact(self.stride))
            {
                group[..old.len()].copy_from_slice(old);
            }
            self.bits = bits;
            self.stride = stride;
        }
        if slot_count > self.slots.len() {
            self.slots.resize(slot_count, SlotState::default());
        }
    }

    /// The position of `var` in `vars`, adding it as unknown to the view
    /// on first sight.
    fn var_or_insert(&mut self, var: VariableId) -> usize {
        match self.vars.binary_search_by_key(&var, |state| state.var) {
            Ok(pos) => pos,
            Err(pos) => {
                let outranks = Rank::new(var, Priority::ZERO).outranks(self.own_rank());
                self.vars.insert(
                    pos,
                    VarState {
                        var,
                        value: None,
                        priority: Priority::ZERO,
                        outranks,
                        seen: false,
                    },
                );
                pos
            }
        }
    }

    /// Synchronizes the caches with `store` and the variables of `view`
    /// listed in `changed`, with the owner at `own_priority`.
    ///
    /// `changed` must name every variable whose [`AgentView`] entry
    /// changed (value, priority or removal) since the last refresh;
    /// repeats and unchanged variables are harmless. Work is the nogoods
    /// appended since the last refresh, the mention rows of the
    /// variables whose value or side of the owner changed, and — when
    /// `own_priority` moved — one rank comparison per tracked variable.
    pub fn refresh_changed(
        &mut self,
        store: &NogoodStore,
        view: &AgentView,
        own_priority: Priority,
        changed: &[VariableId],
    ) {
        // Slots first: every later delta walk then meets initialized
        // tallies only.
        self.sync_store(store);
        if own_priority != self.own_priority {
            self.own_priority = own_priority;
            let own_rank = self.own_rank();
            for pos in 0..self.vars.len() {
                let state = self.vars[pos];
                if Rank::new(state.var, state.priority).outranks(own_rank) != state.outranks {
                    self.set_var(store, pos, state.value, state.priority);
                }
            }
        }
        for &var in changed {
            debug_assert_ne!(var, self.own_var, "the view never holds the own variable");
            let pos = self.var_or_insert(var);
            let (value, priority) = match view.entry(var) {
                Some(entry) => (Some(entry.value), entry.priority),
                None => (None, Priority::ZERO),
            };
            self.set_var(store, pos, value, priority);
        }
    }

    /// Synchronizes the caches with `store` and the complete foreign
    /// assignment `view` (every variable at [`Priority::ZERO`]; it must
    /// never contain the own variable). Variables missing from `view`
    /// count as removed.
    ///
    /// Work is the view size, the nogoods appended since the last
    /// refresh, and the mention rows of the variables that changed —
    /// not the store size.
    pub fn refresh<I>(&mut self, store: &NogoodStore, view: I)
    where
        I: IntoIterator<Item = (VariableId, Value)>,
    {
        self.refresh_all(
            store,
            view.into_iter()
                .map(|(var, value)| (var, value, Priority::ZERO)),
        );
    }

    /// [`IncrementalEval::refresh`] against an [`AgentView`], priorities
    /// included.
    pub fn refresh_view(&mut self, store: &NogoodStore, view: &AgentView) {
        self.refresh_all(
            store,
            view.iter()
                .map(|(var, entry)| (var, entry.value, entry.priority)),
        );
    }

    fn refresh_all<I>(&mut self, store: &NogoodStore, view: I)
    where
        I: Iterator<Item = (VariableId, Value, Priority)>,
    {
        self.sync_store(store);
        for (var, value, priority) in view {
            debug_assert_ne!(
                var, self.own_var,
                "the view passed to IncrementalEval must not contain the own variable"
            );
            let pos = self.var_or_insert(var);
            self.vars[pos].seen = true;
            self.set_var(store, pos, Some(value), priority);
        }
        for pos in 0..self.vars.len() {
            let state = self.vars[pos];
            if state.seen {
                self.vars[pos].seen = false;
            } else if state.value.is_some() {
                self.set_var(store, pos, None, Priority::ZERO);
            }
        }
    }

    /// Records the view's new `value` and `priority` for the variable at
    /// `pos` and moves the tallies of the nogoods mentioning it by the
    /// difference, reading the store's mention rows, the tallies and the
    /// planes only. The store must be synced.
    fn set_var(
        &mut self,
        store: &NogoodStore,
        pos: usize,
        value: Option<Value>,
        priority: Priority,
    ) {
        let old = self.vars[pos];
        let outranks = Rank::new(old.var, priority).outranks(self.own_rank());
        self.vars[pos] = VarState {
            value,
            priority,
            outranks,
            ..old
        };
        if old.value == value && old.outranks == outranks {
            return;
        }
        for (idx, lit) in store.mentions(old.var) {
            let lit = Some(lit);
            let state = &mut self.slots[idx];
            match (old.value == lit, value == lit) {
                (true, false) => state.unmatched += 1,
                (false, true) => state.unmatched -= 1,
                _ => {}
            }
            match (old.outranks, outranks) {
                (true, false) => state.not_outranking += 1,
                (false, true) => state.not_outranking -= 1,
                _ => {}
            }
            let SlotState {
                unmatched,
                not_outranking,
            } = *state;
            self.put(FOREIGN_SAT, idx, unmatched == 0);
            self.set_higher(idx, not_outranking == 0);
        }
    }

    /// Covers the slots appended to the store since the last sync: the
    /// caches' length is the cursor. The first sync sizes the variable
    /// table, the slots and the planes once from the store it meets.
    fn sync_store(&mut self, store: &NogoodStore) {
        let (synced, count) = (self.slots.len(), store.slot_count());
        debug_assert!(count >= synced, "the tracked store shrank");
        if synced == 0 {
            let own = self.own_var;
            let values = store
                .mentions(own)
                .map(|(_, value)| value.index() + 1)
                .max()
                .unwrap_or(0);
            self.vars.reserve_exact(store.vars_other_than(own));
            self.resize(count, self.stride.max(BY_VALUE + values));
        } else if count > synced {
            self.resize(count, self.stride);
        }
        for idx in synced..count {
            self.sync_slot(store, idx);
        }
    }

    /// Computes the cached state of the new slot `idx` from its
    /// literals and the tracked variables. Its bits are clear before.
    fn sync_slot(&mut self, store: &NogoodStore, idx: usize) {
        let ng = store.slot_ref(idx);
        match ng.value_of(self.own_var) {
            None => self.put(APPLIES_ALWAYS, idx, true),
            Some(value) => {
                let plane = BY_VALUE + value.index();
                if plane >= self.stride {
                    self.resize(self.slots.len(), plane + 1);
                }
                self.put(plane, idx, true);
            }
        }
        let mut state = SlotState::default();
        let own_var = self.own_var;
        for lit in ng.elems().iter().filter(|lit| lit.var != own_var) {
            let pos = self.var_or_insert(lit.var);
            let var = self.vars[pos];
            state.unmatched += u32::from(var.value != Some(lit.value));
            state.not_outranking += u32::from(!var.outranks);
        }
        self.slots[idx] = state;
        self.put(FOREIGN_SAT, idx, state.unmatched == 0);
        self.set_higher(idx, state.not_outranking == 0);
    }

    fn set_higher(&mut self, idx: NogoodIdx, higher: bool) {
        if self.bit(HIGHER, idx) == higher {
            return;
        }
        self.put(HIGHER, idx, higher);
        if higher {
            self.higher_count += 1;
        } else {
            self.higher_count -= 1;
        }
    }

    /// Whether nogood `idx` is violated under the refreshed view with the
    /// own variable at `own_value`. O(1); performs no literal scans and
    /// meters nothing.
    ///
    /// # Panics
    ///
    /// Panics if slot `idx` was created after the last refresh.
    pub fn is_violated(&self, idx: NogoodIdx, own_value: Value) -> bool {
        assert!(
            idx < self.synced_len(),
            "slot {idx} created after the last refresh (synced {})",
            self.synced_len()
        );
        self.bit(FOREIGN_SAT, idx)
            && (self.bit(APPLIES_ALWAYS, idx)
                || self
                    .value_plane(own_value)
                    .is_some_and(|plane| self.bit(plane, idx)))
    }

    /// The nogoods violated with the own variable at `own_value`,
    /// ascending by slot: a word-wise AND of bitsets, the set
    /// [`IncrementalEval::is_violated`] answers slot by slot. **Meters
    /// nothing** — hot-path callers charge one check per stored nogood,
    /// which is what the paper's naive evaluator would count.
    pub fn violated_with(&self, own_value: Value) -> impl Iterator<Item = NogoodIdx> + '_ {
        let plane = self.value_plane(own_value);
        self.groups()
            .flat_map(move |(w, group)| bit_indices(w, group[FOREIGN_SAT] & applies(group, plane)))
    }

    /// Number of *higher* nogoods: the nogoods the AWC review tests
    /// each value against. O(1). Every other nogood is lower, so
    /// the lower count is `store.len() - higher_len()`.
    pub fn higher_len(&self) -> usize {
        self.higher_count
    }

    /// The higher nogoods violated with the own variable at `own_value`,
    /// ascending by slot: a word-wise AND of bitsets. **Meters
    /// nothing** — hot-path callers charge one check per higher nogood
    /// ([`IncrementalEval::higher_len`]), which is what the paper's naive
    /// evaluator would count.
    pub fn violated_higher(&self, own_value: Value) -> impl Iterator<Item = NogoodIdx> + '_ {
        let plane = self.value_plane(own_value);
        self.groups().flat_map(move |(w, group)| {
            bit_indices(
                w,
                group[FOREIGN_SAT] & group[HIGHER] & applies(group, plane),
            )
        })
    }

    /// Number of lower nogoods violated with the own variable at
    /// `own_value`. **Meters nothing**; callers charge one check per
    /// lower nogood (the store's length less
    /// [`IncrementalEval::higher_len`]).
    pub fn lower_violation_count(&self, own_value: Value) -> usize {
        let plane = self.value_plane(own_value);
        self.groups()
            .map(|(_, group)| {
                (group[FOREIGN_SAT] & !group[HIGHER] & applies(group, plane)).count_ones() as usize
            })
            .sum()
    }

    /// Number of violated nogoods with the own variable at `own_value`.
    /// **Meters nothing**; callers charge one check per stored nogood.
    pub fn violation_count_with(&self, own_value: Value) -> usize {
        let plane = self.value_plane(own_value);
        self.groups()
            .map(|(_, group)| (group[FOREIGN_SAT] & applies(group, plane)).count_ones() as usize)
            .sum()
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

    fn pair(a: u32, av: u16, b: u32, bv: u16) -> Nogood {
        Nogood::of([(x(a), v(av)), (x(b), v(bv))])
    }

    #[test]
    fn insert_deduplicates() {
        let mut store = NogoodStore::new();
        assert!(store.insert(pair(0, 1, 1, 1)));
        assert!(!store.insert(pair(1, 1, 0, 1))); // same canonical nogood
        assert_eq!(store.len(), 1);
        assert!(store.contains(&pair(0, 1, 1, 1)));
    }

    #[test]
    fn eval_counts_checks() {
        let store = NogoodStore::new();
        let ng = pair(0, 1, 1, 1);
        assert_eq!(store.checks(), 0);
        let violated = store.eval(&ng, |var| if var.index() <= 1 { Some(v(1)) } else { None });
        assert!(violated);
        assert_eq!(store.checks(), 1);
        store.eval(&ng, |_| None);
        assert_eq!(store.checks(), 2);
    }

    #[test]
    fn take_checks_resets() {
        let store = NogoodStore::new();
        store.charge_checks(5);
        assert_eq!(store.take_checks(), 5);
        assert_eq!(store.checks(), 0);
    }

    #[test]
    fn violated_scans_everything_and_counts() {
        let store: NogoodStore = [pair(0, 0, 1, 0), pair(0, 1, 1, 1), pair(2, 0, 3, 0)]
            .into_iter()
            .collect();
        let lookup = |var: VariableId| if var.index() < 2 { Some(v(1)) } else { None };
        let violated = store.violated(lookup);
        assert_eq!(violated.len(), 1);
        assert_eq!(violated[0], pair(0, 1, 1, 1));
        // All three nogoods were checked.
        assert_eq!(store.checks(), 3);
        assert_eq!(store.violation_count(lookup), 1);
        assert_eq!(store.checks(), 6);
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut store = NogoodStore::new();
        store.extend([pair(0, 0, 1, 0), pair(0, 0, 1, 0)]);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        let store = NogoodStore::new();
        assert!(store.to_string().contains("store"));
    }

    #[test]
    fn for_variable_indexes_every_mention() {
        let store: NogoodStore = [pair(0, 0, 1, 0), pair(0, 1, 1, 1), pair(2, 0, 3, 0)]
            .into_iter()
            .collect();
        let of_x0: Vec<NogoodIdx> = store.for_variable(x(0)).map(|(i, _)| i).collect();
        assert_eq!(of_x0, vec![0, 1]);
        let of_x3: Vec<NogoodIdx> = store.for_variable(x(3)).map(|(i, _)| i).collect();
        assert_eq!(of_x3, vec![2]);
        assert_eq!(store.for_variable(x(9)).count(), 0);
        // Indices line up with `get`.
        for (i, ng) in store.for_variable(x(1)) {
            assert_eq!(store.get(i), Some(ng));
        }
    }

    #[test]
    fn for_variable_skips_duplicates() {
        let mut store = NogoodStore::new();
        store.insert(pair(0, 1, 1, 1));
        store.insert(pair(1, 1, 0, 1)); // canonical duplicate, rejected
        assert_eq!(store.for_variable(x(0)).count(), 1);
        assert_eq!(store.for_variable(x(1)).count(), 1);
    }

    #[test]
    fn mention_rows_stay_narrow() {
        assert_eq!(std::mem::size_of::<InitialMention>(), 10);
        assert_eq!(std::mem::size_of::<Mention>(), 6);
    }

    /// An append-only store keeps no per-slot bookkeeping beyond the
    /// arena range and the dedup link, and the evaluator no more than
    /// the two tallies.
    #[test]
    fn slot_headers_and_states_stay_narrow() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
        assert_eq!(std::mem::size_of::<SlotState>(), 8);
    }

    /// The slots on the dedup chain of `hash`, head first.
    fn chain(store: &NogoodStore, hash: u64) -> Vec<u32> {
        let mut ids = Vec::new();
        let mut id = store.chain_head(hash);
        while id != NO_SLOT {
            ids.push(id);
            id = store.slots[id as usize].next_same_hash;
        }
        ids
    }

    #[test]
    fn colliding_hashes_share_one_chain() {
        // Distinct nogoods never share a 64-bit hash by chance, so the
        // test files three of them under one hash it picks.
        const HASH: u64 = 0xC011_1DE5;
        let members = [pair(0, 0, 1, 0), pair(0, 1, 1, 1), pair(2, 0, 3, 0)];
        let mut store = NogoodStore::new();
        for ng in &members {
            assert!(store.insert_hashed(ng.elems(), HASH));
        }
        // A new slot joins at the head.
        assert_eq!(chain(&store, HASH), vec![2, 1, 0]);
        for ng in &members {
            assert!(!store.insert_hashed(ng.elems(), HASH), "{ng} again");
        }
        assert_eq!(store.len(), 3);
        for (id, ng) in (0u32..).zip(&members) {
            assert_eq!(store.find(ng.elems(), HASH), Some(id));
        }
        assert_eq!(store.find(pair(4, 0, 5, 0).elems(), HASH), None);
    }

    /// What the AWC review asks, answered by the naive scan: the higher
    /// and lower counts, the violated higher slots (ascending) and the
    /// violated lower count, with the owner at `own_rank` holding
    /// `own_value`.
    fn naive_review(
        store: &NogoodStore,
        view: &AgentView,
        own_rank: Rank,
        own_value: Value,
    ) -> (usize, usize, Vec<NogoodIdx>, usize) {
        let lookup = view.lookup_with(own_rank.var(), own_value);
        let (mut higher, mut lower, mut violated_higher, mut violated_lower) =
            (0, 0, Vec::new(), 0);
        for (idx, ng) in store.entries() {
            let violated = ng.is_violated_by(&lookup);
            if view.is_higher_nogood(ng, own_rank) {
                higher += 1;
                if violated {
                    violated_higher.push(idx);
                }
            } else {
                lower += 1;
                violated_lower += usize::from(violated);
            }
        }
        (higher, lower, violated_higher, violated_lower)
    }

    /// The evaluator's answers to [`naive_review`]'s questions; the lower
    /// count is what the AWC review charges for the lower side.
    fn eval_review(
        eval: &IncrementalEval,
        store: &NogoodStore,
        own_value: Value,
    ) -> (usize, usize, Vec<NogoodIdx>, usize) {
        (
            eval.higher_len(),
            store.len() - eval.higher_len(),
            eval.violated_higher(own_value).collect(),
            eval.lower_violation_count(own_value),
        )
    }

    fn view_of(entries: &[(u32, u16, u64)]) -> AgentView {
        let mut view = AgentView::new();
        for &(var, value, priority) in entries {
            view.update(
                x(var),
                crate::ids::AgentId::new(var),
                v(value),
                Priority::new(priority),
            );
        }
        view
    }

    #[test]
    fn incremental_matches_naive_on_changes() {
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        store.insert(pair(0, 1, 1, 1));
        store.insert(pair(1, 0, 2, 1)); // foreign-only: violated for any own value
        store.insert(Nogood::of([(own, v(2))])); // unary own: always prohibits 2

        let mut eval = IncrementalEval::new(own);
        let views: Vec<Vec<(VariableId, Value)>> = vec![
            vec![(x(1), v(0)), (x(2), v(1))],
            vec![(x(1), v(1)), (x(2), v(1))],
            vec![(x(1), v(1))], // x2 removed
            vec![(x(1), v(0)), (x(2), v(0))],
        ];
        for view in views {
            eval.refresh(&store, view.clone());
            let agent_view = view_of(
                &view
                    .iter()
                    .map(|&(var, value)| (var.raw(), value.raw(), 0))
                    .collect::<Vec<_>>(),
            );
            let lookup_base: HashMap<VariableId, Value> = view.into_iter().collect();
            for own_value in 0..3u16 {
                let lookup = |var: VariableId| {
                    if var == own {
                        Some(v(own_value))
                    } else {
                        lookup_base.get(&var).copied()
                    }
                };
                for idx in 0..store.len() {
                    let naive = store.get(idx).unwrap().is_violated_by(lookup);
                    assert_eq!(
                        eval.is_violated(idx, v(own_value)),
                        naive,
                        "idx {idx} own={own_value}"
                    );
                }
                let naive_count = store.iter().filter(|ng| ng.is_violated_by(lookup)).count();
                assert_eq!(eval.violation_count_with(v(own_value)), naive_count);
                assert_eq!(
                    eval_review(&eval, &store, v(own_value)),
                    naive_review(
                        &store,
                        &agent_view,
                        Rank::new(own, Priority::ZERO),
                        v(own_value)
                    )
                );
            }
        }
    }

    #[test]
    fn incremental_syncs_appended_nogoods() {
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, [(x(1), v(0))]);
        assert_eq!(eval.synced_len(), 1);
        assert!(eval.is_violated(0, v(0)));

        store.insert(pair(0, 1, 1, 0));
        eval.refresh(&store, [(x(1), v(0))]);
        assert_eq!(eval.synced_len(), 2);
        assert!(eval.is_violated(1, v(1)));
        assert!(!eval.is_violated(1, v(0)));
    }

    #[test]
    fn incremental_empty_nogood_is_always_violated() {
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(Nogood::empty());
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, []);
        assert!(eval.is_violated(0, v(0)));
        assert_eq!(eval.violation_count_with(v(7)), 1);
        // No foreign variable: higher, like an own-only nogood.
        assert_eq!(eval.violated_higher(v(7)).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn incremental_meters_nothing() {
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, [(x(1), v(0))]);
        let _ = eval.is_violated(0, v(0));
        let _ = eval_review(&eval, &store, v(0));
        let _ = eval.violation_count_with(v(0));
        assert_eq!(store.checks(), 0);
    }

    #[test]
    fn own_priority_moves_nogoods_between_sides() {
        // §2.2's example: x1 at priority 2, x2 at 1, the owner x5 at 0.
        let own = x(5);
        let mut store = NogoodStore::new();
        store.insert(Nogood::of([(x(1), v(0)), (x(2), v(1)), (own, v(2))]));
        store.insert(Nogood::of([(x(1), v(0)), (own, v(1))]));
        store.insert(Nogood::of([(own, v(0))]));
        let view = view_of(&[(1, 0, 2), (2, 1, 1)]);
        let mut eval = IncrementalEval::new(own);
        eval.refresh_changed(&store, &view, Priority::ZERO, &[x(1), x(2)]);
        assert_eq!(eval.violated_higher(v(2)).collect::<Vec<_>>(), vec![0]);
        assert_eq!(eval.higher_len(), 3);
        // At priority 1 the owner ties x2, which wins on its smaller id,
        // so nothing moves; at 2 it outranks x2 and ties x1, which wins.
        eval.refresh_changed(&store, &view, Priority::new(1), &[]);
        assert_eq!(eval.higher_len(), 3);
        eval.refresh_changed(&store, &view, Priority::new(2), &[]);
        assert_eq!(eval.higher_len(), 2);
        assert_eq!(eval.lower_violation_count(v(2)), 1);
        // Above everyone, only the own-only nogood stays higher.
        eval.refresh_changed(&store, &view, Priority::new(3), &[]);
        assert_eq!(eval.higher_len(), 1);
        assert_eq!(eval.violated_higher(v(0)).collect::<Vec<_>>(), vec![2]);
        assert_eq!(store.checks(), 0);
    }

    #[test]
    fn refresh_view_tracks_view_and_store_changes() {
        use crate::ids::AgentId;
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        let mut view = crate::AgentView::new();
        view.update(x(1), AgentId::new(1), v(0), Priority::ZERO);

        let mut eval = IncrementalEval::new(own);
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(0, v(0)));

        // Unchanged view + store: nothing moves.
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(0, v(0)));

        // A value change.
        view.update(x(1), AgentId::new(1), v(1), Priority::ZERO);
        eval.refresh_view(&store, &view);
        assert!(!eval.is_violated(0, v(0)));

        // Store growth alone.
        store.insert(pair(0, 1, 1, 1));
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(1, v(1)));

        // Priorities come along: x1 above the owner makes both nogoods
        // higher.
        view.update(x(1), AgentId::new(1), v(1), Priority::new(1));
        eval.refresh_view(&store, &view);
        assert_eq!(eval.higher_len(), 2);
    }

    /// Deterministic pseudo-random stream (SplitMix64) for the large-store
    /// stress test below — no external crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Drives a store past `SMALL_STORE_LIMIT` slots under the churn an
    /// AWC agent meets — view values changing, priorities rising and
    /// dropping (reordering links deliver old announcements), removals,
    /// own-priority raises, nogoods over variables the view never holds
    /// and inserts — and compares the change-driven evaluator
    /// with the naive `is_higher_nogood` plus `is_violated_by` scan after
    /// every step. A second evaluator follows the same store and view
    /// through [`IncrementalEval::refresh`], DB's whole-view path, and
    /// must agree slot by slot on violation. This is the in-crate
    /// counterpart of the proptest in `tests/properties.rs`.
    #[test]
    fn change_driven_eval_matches_naive_under_churn() {
        const VARS: u32 = 24;
        /// Variables at or above this id appear in nogoods only.
        const VIEW_VARS: u32 = 20;
        const VALUES: u16 = 3;
        let own = x(9);
        let mut rng = Rng(0xd15c_5b00_c0ff_ee00);
        let mut store = NogoodStore::new();
        let mut eval = IncrementalEval::new(own);
        let mut whole = IncrementalEval::new(own);
        let mut view = AgentView::new();
        let mut own_priority = Priority::ZERO;
        let mut changed: Vec<VariableId> = Vec::new();
        let mut flips = 0;

        let random_nogood = |rng: &mut Rng| {
            let len = 1 + rng.below(4) as usize;
            let mut elems: Vec<(VariableId, Value)> = Vec::new();
            while elems.len() < len {
                let var = x(rng.below(VARS as u64) as u32);
                if elems.iter().all(|&(existing, _)| existing != var) {
                    elems.push((var, v(rng.below(VALUES as u64) as u16)));
                }
            }
            Nogood::of(elems)
        };

        for step in 0..600 {
            // Grow past the limit, then keep churning.
            let inserts = if step < 40 { 12 } else { 1 };
            for _ in 0..inserts {
                store.insert(random_nogood(&mut rng));
            }
            for _ in 0..1 + rng.below(3) {
                let var = x(rng.below(VIEW_VARS as u64) as u32);
                if var == own {
                    continue;
                }
                let hit = if rng.below(8) == 0 {
                    view.remove(var).is_some()
                } else {
                    let value = v(rng.below(VALUES as u64) as u16);
                    let priority = Priority::new(rng.below(6));
                    view.update(var, crate::ids::AgentId::new(var.raw()), value, priority)
                };
                if hit {
                    changed.push(var);
                }
            }
            // The owner mostly climbs, as after a deadend, and now and
            // then starts over low.
            match rng.below(10) {
                0..=2 => own_priority = own_priority.next(),
                3 => own_priority = Priority::new(rng.below(3)),
                _ => {}
            }
            let before = eval.higher_len();
            eval.refresh_changed(&store, &view, own_priority, &changed);
            changed.clear();
            flips += usize::from(before != eval.higher_len());
            whole.refresh(&store, view.iter().map(|(var, entry)| (var, entry.value)));

            let own_rank = Rank::new(own, own_priority);
            for own_value in 0..VALUES {
                let own_value = v(own_value);
                assert_eq!(
                    eval_review(&eval, &store, own_value),
                    naive_review(&store, &view, own_rank, own_value),
                    "step {step} own={own_value}"
                );
                let lookup = view.lookup_with(own, own_value);
                let naive_count = store.iter().filter(|ng| ng.is_violated_by(&lookup)).count();
                assert_eq!(eval.violation_count_with(own_value), naive_count);
                assert_eq!(whole.violation_count_with(own_value), naive_count);
                for (idx, ng) in store.entries() {
                    let naive = ng.is_violated_by(&lookup);
                    assert_eq!(
                        eval.is_violated(idx, own_value),
                        naive,
                        "step {step} idx {idx} own={own_value}"
                    );
                    assert_eq!(
                        whole.is_violated(idx, own_value),
                        naive,
                        "step {step} idx {idx} own={own_value} (whole view)"
                    );
                }
            }
            for (idx, ng) in store.entries() {
                assert_eq!(
                    eval.bit(HIGHER, idx),
                    view.is_higher_nogood(ng, own_rank),
                    "step {step} idx {idx}"
                );
            }
        }
        assert!(store.slot_count() > IncrementalEval::SMALL_STORE_LIMIT);
        assert!(flips > 100, "the partition moved only {flips} times");
        // A fresh evaluator reading the whole view agrees at the owner's
        // starting priority.
        let mut fresh = IncrementalEval::new(own);
        fresh.refresh_view(&store, &view);
        assert_eq!(
            eval_review(&fresh, &store, v(0)),
            naive_review(&store, &view, Rank::new(own, Priority::ZERO), v(0))
        );
        assert_eq!(store.checks(), 0, "incremental machinery must not meter");
    }
}
