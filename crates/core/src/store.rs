//! Instrumented per-agent nogood storage.
//!
//! Every nogood evaluation in the system is routed through a
//! [`NogoodStore`] (or metered explicitly), because the paper's `maxcck`
//! metric is defined in units of *nogood checks*. The store keeps all
//! literals in one flat arena (`Vec<VarValue>`) addressed by per-nogood
//! `(offset, len)` slot headers — no per-nogood heap allocation — with a
//! free list so forgetting a nogood recycles its slot without
//! invalidating other [`NogoodIdx`] values. Dedup goes through hash
//! buckets over slot ids, and a per-variable index
//! ([`NogoodStore::for_variable`]) supports incremental evaluation.
//!
//! [`IncrementalEval`] caches each nogood's violation status against a
//! view: a view change re-evaluates exactly the nogoods mentioning the
//! changed variables, at every store size. See DESIGN.md §11 for the
//! layout and why this one strategy suffices.
//!
//! Learned nogoods carry an activity score ([`NogoodStore::bump_activity`])
//! and can be evicted deterministically with [`NogoodStore::forget`];
//! initial constraints are never evicted.
//!
//! **Metric fidelity.** The check *meter* is independent of the check
//! *mechanism*: algorithms charge exactly the checks the paper's naive
//! scanning algorithm would perform (via [`NogoodStore::eval`] or
//! [`NogoodStore::charge_checks`]) even when the cached path skips the
//! wall-clock re-evaluation. See DESIGN.md, "Store indexing and metric
//! fidelity".

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;

use crate::assignment::VarValue;
use crate::ids::VariableId;
use crate::nogood::{Nogood, NogoodLits, NogoodRef};
use crate::value::Value;

/// Index of a nogood within its [`NogoodStore`]: the id of the slot the
/// nogood occupies. Stable for the nogood's whole lifetime — forgetting
/// other nogoods never moves it. Slot ids are recycled, so after a
/// [`NogoodStore::forget`] a *new* nogood may occupy an old index.
pub type NogoodIdx = usize;

/// Slot header: where a nogood's literals live in the arena, plus the
/// bookkeeping forgetting needs.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Start of the literal range in the arena.
    offset: u32,
    /// Number of literals currently stored.
    len: u32,
    /// Capacity of the arena range owned by this slot (`>= len`); slot
    /// reuse keeps the old range when the new nogood fits.
    cap: u32,
    /// Hash of the canonical literal slice (dedup bucket key).
    hash: u64,
    /// Insertion sequence number: the deterministic tie-break for
    /// forgetting (older = evicted first at equal activity).
    seq: u64,
    /// Activity score; bumped on violation hits, halved after each
    /// forget pass.
    activity: u64,
    /// Whether this nogood was learned (only learned nogoods are
    /// eligible for forgetting).
    learned: bool,
    /// Whether the slot currently holds a nogood.
    live: bool,
}

/// A deduplicating nogood set with an evaluation meter, flat literal
/// storage, and activity-based forgetting of learned nogoods.
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
///
/// Forgetting evicts only *learned* nogoods, coldest first:
///
/// ```
/// use discsp_core::{Nogood, NogoodStore, Value, VariableId};
///
/// let mut store = NogoodStore::new();
/// store.insert(Nogood::of([(VariableId::new(0), Value::new(0))])); // initial
/// store.insert_learned(Nogood::of([(VariableId::new(1), Value::new(0))]));
/// store.insert_learned(Nogood::of([(VariableId::new(2), Value::new(0))]));
/// let evicted = store.forget(1);
/// assert_eq!(evicted, vec![1]); // oldest learned nogood at equal activity
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.learned_len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct NogoodStore {
    /// All literals of all live nogoods, contiguous. Ranges of dead
    /// slots (and the tails of shrunk reused ranges) are garbage;
    /// `Slot::offset`/`len` is the only way in.
    lits: Vec<VarValue>,
    slots: Vec<Slot>,
    /// Dead slot ids available for reuse (LIFO).
    free: Vec<u32>,
    /// Number of live slots.
    live: usize,
    /// Number of live *learned* slots.
    learned_live: usize,
    next_seq: u64,
    /// Dedupe buckets: canonical-literal hash -> live slot ids.
    // lint: allow(unordered): point lookups keyed by hash only; buckets
    // are never iterated, so map order cannot reach any output.
    by_hash: HashMap<u64, Vec<u32>>,
    /// Per-variable index: every live nogood mentioning the variable, in
    /// recording order.
    // lint: allow(unordered): point lookups keyed by variable; values are
    // recording-ordered slot-id vectors, so map order cannot reach output.
    var_index: HashMap<VariableId, Vec<u32>>,
    /// Mutation log: the slot id of every content change (insert *and*
    /// removal), in order. [`IncrementalEval`] keeps a cursor into this
    /// log and re-syncs exactly the slots that changed; replaying an
    /// entry twice is harmless (re-sync is idempotent).
    log: Vec<u32>,
    checks: Cell<u64>,
}

fn hash_lits(lits: &[VarValue]) -> u64 {
    let mut hasher = DefaultHasher::new();
    lits.hash(&mut hasher);
    hasher.finish()
}

impl NogoodStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        NogoodStore::default()
    }

    /// Creates a store pre-populated with initial-constraint `nogoods`
    /// (duplicates merged). These are never evicted by forgetting.
    pub fn with_nogoods<I>(nogoods: I) -> Self
    where
        I: IntoIterator<Item = Nogood>,
    {
        let mut store = NogoodStore::new();
        for ng in nogoods {
            store.insert(ng);
        }
        store
    }

    /// Records `nogood` as an initial constraint (never forgotten);
    /// returns `false` if it was already present.
    pub fn insert(&mut self, nogood: Nogood) -> bool {
        self.insert_impl(nogood, false)
    }

    /// Records `nogood` as a *learned* nogood — eligible for
    /// [`NogoodStore::forget`] — starting at activity 1; returns `false`
    /// if it was already present.
    pub fn insert_learned(&mut self, nogood: Nogood) -> bool {
        self.insert_impl(nogood, true)
    }

    fn insert_impl(&mut self, nogood: Nogood, learned: bool) -> bool {
        let hash = hash_lits(nogood.elems());
        if let Some(bucket) = self.by_hash.get(&hash) {
            if bucket.iter().any(|&i| self.slot_ref(i as usize) == nogood) {
                return false;
            }
        }
        let n = nogood.len();
        // lint: allow(panic-path): capacity guard — nogoods are bounded by
        // the variable count, orders of magnitude below 2^32
        let n32 = u32::try_from(n).expect("nogood holds < 2^32 literals");
        let slot_id = match self.free.pop() {
            Some(id) => {
                let slot = &mut self.slots[id as usize];
                debug_assert!(!slot.live);
                if slot.cap >= n32 {
                    // Reuse the dead slot's arena range in place.
                    let off = slot.offset as usize;
                    self.lits[off..off + n].copy_from_slice(nogood.elems());
                } else {
                    // Too small: take a fresh range at the end. The old
                    // range is abandoned (arena growth stays bounded by
                    // the peak live footprint plus churn; see DESIGN §11).
                    slot.offset = u32::try_from(self.lits.len())
                        .expect("literal arena holds < 2^32 literals"); // lint: allow(panic-path): capacity guard; forgetting bounds the arena far below 2^32
                    slot.cap = n32;
                    self.lits.extend_from_slice(nogood.elems());
                }
                slot.len = n32;
                slot.hash = hash;
                slot.seq = self.next_seq;
                slot.activity = 1;
                slot.learned = learned;
                slot.live = true;
                id
            }
            None => {
                // lint: allow(panic-path): capacity guard — slot count is
                // bounded by the forgetting budget, far below 2^32
                let id = u32::try_from(self.slots.len()).expect("store holds < 2^32 slots");
                let offset = u32::try_from(self.lits.len())
                    .expect("literal arena holds < 2^32 literals"); // lint: allow(panic-path): capacity guard; forgetting bounds the arena far below 2^32
                self.lits.extend_from_slice(nogood.elems());
                self.slots.push(Slot {
                    offset,
                    len: n32,
                    cap: n32,
                    hash,
                    seq: self.next_seq,
                    activity: 1,
                    learned,
                    live: true,
                });
                id
            }
        };
        self.next_seq += 1;
        self.by_hash.entry(hash).or_default().push(slot_id);
        for var in nogood.vars() {
            self.var_index.entry(var).or_default().push(slot_id);
        }
        self.live += 1;
        if learned {
            self.learned_live += 1;
        }
        self.log.push(slot_id);
        true
    }

    /// Scrubs `slot_id` from every index and marks it dead/reusable.
    fn remove_slot(&mut self, slot_id: u32) {
        let idx = slot_id as usize;
        let (hash, learned, range) = {
            let s = &self.slots[idx];
            debug_assert!(s.live, "removing a dead slot");
            (s.hash, s.learned, s.offset as usize..(s.offset + s.len) as usize)
        };
        if let Some(bucket) = self.by_hash.get_mut(&hash) {
            bucket.retain(|&i| i != slot_id);
            if bucket.is_empty() {
                self.by_hash.remove(&hash);
            }
        }
        for li in range {
            let var = self.lits[li].var;
            if let Some(bucket) = self.var_index.get_mut(&var) {
                bucket.retain(|&i| i != slot_id);
                if bucket.is_empty() {
                    self.var_index.remove(&var);
                }
            }
        }
        self.slots[idx].live = false;
        self.live -= 1;
        if learned {
            self.learned_live -= 1;
        }
        self.free.push(slot_id);
        self.log.push(slot_id);
    }

    /// Evicts learned nogoods until at most `budget` remain, coldest
    /// first, and returns the evicted indices (ascending). Initial
    /// constraints are never evicted.
    ///
    /// Deterministic: eviction order is lowest `(activity, seq)` — at
    /// equal activity the *oldest* learned nogood goes first. After a
    /// pass, every surviving learned nogood's activity is halved so
    /// stale heat decays (fresh inserts restart at 1).
    pub fn forget(&mut self, budget: usize) -> Vec<NogoodIdx> {
        if self.learned_live <= budget {
            return Vec::new();
        }
        let mut candidates: Vec<(u64, u64, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live && s.learned)
            .map(|(i, s)| (s.activity, s.seq, i as u32))
            .collect();
        candidates.sort_unstable();
        let evict = candidates.len() - budget;
        let mut evicted: Vec<NogoodIdx> = candidates[..evict]
            .iter()
            .map(|&(_, _, id)| id as usize)
            .collect();
        for &idx in &evicted {
            self.remove_slot(idx as u32);
        }
        for s in self.slots.iter_mut().filter(|s| s.live && s.learned) {
            s.activity /= 2;
        }
        evicted.sort_unstable();
        evicted
    }

    /// Bumps the activity of nogood `idx` (saturating). Call when the
    /// nogood participates in a violation so forgetting keeps hot
    /// nogoods. No-op on dead or out-of-range indices.
    pub fn bump_activity(&mut self, idx: NogoodIdx) {
        if let Some(s) = self.slots.get_mut(idx) {
            if s.live {
                s.activity = s.activity.saturating_add(1);
            }
        }
    }

    /// Whether `nogood` is recorded.
    pub fn contains(&self, nogood: &Nogood) -> bool {
        self.by_hash
            .get(&hash_lits(nogood.elems()))
            .is_some_and(|bucket| bucket.iter().any(|&i| self.slot_ref(i as usize) == *nogood))
    }

    /// Number of live nogoods.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of live *learned* nogoods (the population
    /// [`NogoodStore::forget`] draws from).
    pub fn learned_len(&self) -> usize {
        self.learned_live
    }

    /// Number of slots ever allocated (live + dead). Indices are always
    /// `< slot_count()`; [`IncrementalEval`] sizes its caches by this.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no nogoods.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The append-only mutation log: the slot id of every insertion and
    /// removal, in order. Consumers that cache per-slot state keep a
    /// cursor into this log and re-read exactly the slots listed since.
    pub fn mutation_log(&self) -> &[u32] {
        &self.log
    }

    /// Borrowed view of the (live) slot `idx`'s literals.
    fn slot_ref(&self, idx: usize) -> NogoodRef<'_> {
        let s = &self.slots[idx];
        debug_assert!(s.live, "slot_ref on a dead slot");
        NogoodRef::from_canonical(&self.lits[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// Iterates over the live nogoods in slot order.
    pub fn iter(&self) -> impl Iterator<Item = NogoodRef<'_>> {
        self.entries().map(|(_, ng)| ng)
    }

    /// Iterates over `(index, nogood)` for every live slot, ascending by
    /// index.
    pub fn entries(&self) -> impl Iterator<Item = (NogoodIdx, NogoodRef<'_>)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, _)| (i, self.slot_ref(i)))
    }

    /// Iterates over the live slot indices, ascending.
    pub fn indices(&self) -> impl Iterator<Item = NogoodIdx> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, _)| i)
    }

    /// The nogood in slot `index`, or `None` for dead/out-of-range slots.
    pub fn get(&self, index: NogoodIdx) -> Option<NogoodRef<'_>> {
        self.slots
            .get(index)
            .filter(|s| s.live)
            .map(|_| self.slot_ref(index))
    }

    /// Iterates (in recording order) over the live nogoods mentioning
    /// `var`, with their store indices. This is the index incremental
    /// evaluation uses: when a view changes by one assignment, only these
    /// nogoods can change violation status.
    pub fn for_variable(
        &self,
        var: VariableId,
    ) -> impl Iterator<Item = (NogoodIdx, NogoodRef<'_>)> + '_ {
        self.var_index
            .get(&var)
            .map(|indices| indices.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| (i as NogoodIdx, self.slot_ref(i as usize)))
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
        NogoodStore::with_nogoods(iter)
    }
}

impl Extend<Nogood> for NogoodStore {
    fn extend<I: IntoIterator<Item = Nogood>>(&mut self, iter: I) {
        for ng in iter {
            self.insert(ng);
        }
    }
}

/// Incremental violation tracker for one agent's store and view.
///
/// Decomposes each nogood's violation into two factors:
///
/// - `foreign_sat`: every literal over a *foreign* variable matches the
///   view (cached);
/// - the own-variable literal (if any) matches the queried value
///   (compared at query time in O(1); the prohibited value is a static
///   property of the nogood).
///
/// After a [`IncrementalEval::refresh`], [`IncrementalEval::is_violated`]
/// answers "is nogood `i` violated under the view with my variable at
/// `value`?" without touching the nogood's literals.
///
/// Maintenance is a per-variable rescan: a changed variable
/// re-evaluates every nogood mentioning it via
/// [`NogoodStore::for_variable`], so a refresh costs the changed
/// variables' mention lists, not the store size.
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
/// use discsp_core::{IncrementalEval, Nogood, NogoodStore, Value, VariableId};
///
/// let own = VariableId::new(0);
/// let foreign = VariableId::new(1);
/// let mut store = NogoodStore::new();
/// store.insert(Nogood::of([(own, Value::new(0)), (foreign, Value::new(1))]));
///
/// let mut eval = IncrementalEval::new(own);
/// eval.refresh(&store, [(foreign, Value::new(1))]);
/// assert!(eval.is_violated(0, Value::new(0)));
/// assert!(!eval.is_violated(0, Value::new(1)));
/// ```
#[derive(Debug)]
pub struct IncrementalEval {
    own_var: VariableId,
    /// Sorted `(global variable index, local slot)` pairs mapping every
    /// foreign variable this tracker has observed to a dense local slot.
    /// `shadow` is indexed by local slot, so its size is proportional to
    /// the agent's *degree*, not to the largest foreign variable id —
    /// indexing it by global id made every agent carry an O(population)
    /// vector, which is quadratic total memory at 10^5+ agents.
    local_index: Vec<(u32, u32)>,
    /// Mirror of the last refreshed view, indexed by local slot:
    /// value and the epoch at which the variable was last seen (stale
    /// epochs mark removed variables).
    shadow: Vec<Option<(Value, u64)>>,
    /// Variables currently present in `shadow` (the removal sweep only
    /// walks these, not the whole dense table).
    present: Vec<VariableId>,
    epoch: u64,
    /// Per slot: the own-variable value it prohibits, if it mentions
    /// the own variable at all. Re-read whenever the slot mutates.
    own_prohibited: Vec<Option<Value>>,
    /// Bit `i`: every foreign literal of slot `i` matches the view
    /// (always clear for dead slots).
    foreign_sat: Vec<u64>,
    /// Bit `i`: slot `i` has no own-variable literal (applies to every
    /// own value).
    applies_always: Vec<u64>,
    /// `applies_by_value[v]` bit `i`: slot `i` prohibits own value `v`.
    applies_by_value: Vec<Vec<u64>>,
    /// How many store slots the per-slot caches cover.
    synced_slots: usize,
    /// Cursor into [`NogoodStore::mutation_log`]: entries before this
    /// are already reflected in the caches.
    synced_mutations: usize,
    /// View generation of the last [`IncrementalEval::refresh_view`]
    /// fast-path check.
    synced_generation: Option<u64>,
    /// Count of foreign-satisfied nogoods with no own-variable literal
    /// (violated regardless of the own value).
    sat_unconditional: usize,
    /// Count of foreign-satisfied nogoods prohibiting own value `v`,
    /// indexed by `v`.
    sat_by_value: Vec<usize>,
    /// Scratch buffers recycled across refreshes, so a refresh does not
    /// allocate.
    changed_scratch: Vec<VariableId>,
    seen_scratch: Vec<VariableId>,
}

#[inline]
fn bit_get(bits: &[u64], idx: usize) -> bool {
    bits.get(idx / 64)
        .is_some_and(|word| word >> (idx % 64) & 1 == 1)
}

#[inline]
fn bit_set(bits: &mut [u64], idx: usize) {
    bits[idx / 64] |= 1 << (idx % 64);
}

#[inline]
fn bit_clear(bits: &mut [u64], idx: usize) {
    bits[idx / 64] &= !(1 << (idx % 64));
}

impl IncrementalEval {
    /// Store size (in slots) that marks a *large* store. Evaluation is
    /// the same rescan at every size; the limit stays as the yardstick
    /// the benchmark counts stores against (`store.agents_over_256`)
    /// and the golden tests use to prove their trials reach large stores.
    pub const SMALL_STORE_LIMIT: usize = 256;

    /// Creates an empty tracker for the agent owning `own_var`.
    pub fn new(own_var: VariableId) -> Self {
        IncrementalEval {
            own_var,
            local_index: Vec::new(),
            shadow: Vec::new(),
            present: Vec::new(),
            epoch: 0,
            own_prohibited: Vec::new(),
            foreign_sat: Vec::new(),
            applies_always: Vec::new(),
            applies_by_value: Vec::new(),
            synced_slots: 0,
            synced_mutations: 0,
            synced_generation: None,
            sat_unconditional: 0,
            sat_by_value: Vec::new(),
            changed_scratch: Vec::new(),
            seen_scratch: Vec::new(),
        }
    }

    /// The variable this tracker treats as the agent's own.
    pub fn own_var(&self) -> VariableId {
        self.own_var
    }

    /// Number of store slots currently covered by the caches.
    pub fn synced_len(&self) -> usize {
        self.synced_slots
    }

    /// The local slot of global variable index `g`, if it was ever
    /// observed.
    #[inline]
    fn local_of(&self, g: u32) -> Option<u32> {
        self.local_index
            .binary_search_by_key(&g, |&(gv, _)| gv)
            .ok()
            .map(|p| self.local_index[p].1)
    }

    /// The local slot of global variable index `g`, allocating the slot
    /// (and its `shadow` cell) on first touch. Slots are stable: once
    /// handed out, a slot never moves.
    fn local_or_insert(&mut self, g: u32) -> u32 {
        match self.local_index.binary_search_by_key(&g, |&(gv, _)| gv) {
            Ok(p) => self.local_index[p].1,
            Err(p) => {
                let local = self.shadow.len() as u32;
                self.local_index.insert(p, (g, local));
                self.shadow.push(None);
                local
            }
        }
    }

    /// Synchronizes the caches with `store` and `view`.
    ///
    /// `view` is the complete foreign assignment (it must never contain
    /// the own variable). Work done is proportional to the view size,
    /// the number of store mutations since the last refresh, and the
    /// nogoods mentioning changed variables — not to the store size.
    pub fn refresh<I>(&mut self, store: &NogoodStore, view: I)
    where
        I: IntoIterator<Item = (VariableId, Value)>,
    {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut changed = mem::take(&mut self.changed_scratch);
        changed.clear();
        let mut seen = mem::take(&mut self.seen_scratch);
        seen.clear();

        for (var, value) in view {
            debug_assert_ne!(
                var, self.own_var,
                "the view passed to IncrementalEval::refresh must not \
                 contain the own variable"
            );
            let slot_idx = self.local_or_insert(var.index() as u32) as usize;
            match &mut self.shadow[slot_idx] {
                Some((stored, stamp)) => {
                    if *stored != value {
                        *stored = value;
                        changed.push(var);
                    }
                    *stamp = epoch;
                }
                slot @ None => {
                    *slot = Some((value, epoch));
                    changed.push(var);
                }
            }
            seen.push(var);
        }
        // Variables not seen this epoch were removed from the view.
        // Present variables always have a local slot (allocated when
        // they were first observed above).
        for &var in &self.present {
            let Some(local) = self.local_of(var.index() as u32) else {
                continue;
            };
            let li = local as usize;
            if let Some((_, stamp)) = self.shadow[li] {
                if stamp != epoch {
                    self.shadow[li] = None;
                    changed.push(var);
                }
            }
        }
        // `seen` becomes the new `present`; the old vector is recycled
        // as next refresh's scratch.
        self.seen_scratch = mem::replace(&mut self.present, seen);

        // The shadow is fully up to date before any per-slot processing,
        // so every re-evaluation below sees the final assignment.
        self.sync_store(store);

        for &var in &changed {
            for (idx, ng) in store.for_variable(var) {
                let sat = self.compute_foreign_sat(ng);
                self.set_foreign_sat(idx, sat);
            }
        }
        self.changed_scratch = changed;
        self.synced_generation = None;
    }

    /// [`IncrementalEval::refresh`] against an [`crate::AgentView`], with
    /// a generation fast path: when neither the view generation nor the
    /// store mutation log advanced since the last call, returns
    /// immediately.
    pub fn refresh_view(&mut self, store: &NogoodStore, view: &crate::AgentView) {
        if self.synced_generation == Some(view.generation())
            && self.synced_mutations == store.mutation_log().len()
        {
            return;
        }
        self.refresh(store, view.iter().map(|(var, entry)| (var, entry.value)));
        self.synced_generation = Some(view.generation());
    }

    /// Grows per-slot caches and replays the store's mutation log.
    fn sync_store(&mut self, store: &NogoodStore) {
        let slot_count = store.slot_count();
        if slot_count > self.synced_slots {
            let words = slot_count.div_ceil(64);
            self.foreign_sat.resize(words, 0);
            self.applies_always.resize(words, 0);
            for mask in &mut self.applies_by_value {
                mask.resize(words, 0);
            }
            self.own_prohibited.resize(slot_count, None);
            self.synced_slots = slot_count;
        }
        let log = store.mutation_log();
        debug_assert!(
            log.len() >= self.synced_mutations,
            "the tracked store's mutation log shrank"
        );
        for &slot in &log[self.synced_mutations..] {
            self.resync_slot(store, slot as usize);
        }
        self.synced_mutations = log.len();
    }

    /// Rebuilds all cached state of one slot from the store. Idempotent
    /// (full undo, then redo from current content), so replaying a
    /// mutation-log entry more than once is harmless.
    fn resync_slot(&mut self, store: &NogoodStore, idx: usize) {
        // Undo. Counter adjustment must happen while `own_prohibited`
        // still describes the old content.
        if bit_get(&self.foreign_sat, idx) {
            self.set_foreign_sat(idx, false);
        }
        match self.own_prohibited[idx].take() {
            None => bit_clear(&mut self.applies_always, idx),
            Some(value) => {
                if let Some(mask) = self.applies_by_value.get_mut(value.index()) {
                    bit_clear(mask, idx);
                }
            }
        }
        // Redo from the slot's current content (dead slots stay cleared).
        let Some(ng) = store.get(idx) else { return };
        let prohibited = ng.value_of(self.own_var);
        self.own_prohibited[idx] = prohibited;
        match prohibited {
            None => bit_set(&mut self.applies_always, idx),
            Some(value) => {
                let words = self.foreign_sat.len();
                while self.applies_by_value.len() <= value.index() {
                    self.applies_by_value.push(vec![0; words]);
                }
                bit_set(&mut self.applies_by_value[value.index()], idx);
            }
        }
        let sat = self.compute_foreign_sat(ng);
        self.set_foreign_sat(idx, sat);
    }

    /// Whether the shadowed view matches literal `e` (same value
    /// assigned). Unassigned never matches — an unassigned foreign
    /// literal keeps the nogood from being violated.
    #[inline]
    fn matches_shadow(&self, e: &VarValue) -> bool {
        self.local_of(e.var.index() as u32)
            .and_then(|li| self.shadow[li as usize])
            .map(|(v, _)| v)
            == Some(e.value)
    }

    fn compute_foreign_sat<N: NogoodLits>(&self, nogood: N) -> bool {
        nogood
            .lits()
            .iter()
            .all(|e| e.var == self.own_var || self.matches_shadow(e))
    }

    fn set_foreign_sat(&mut self, idx: NogoodIdx, sat: bool) {
        if bit_get(&self.foreign_sat, idx) == sat {
            return;
        }
        let delta: isize = if sat {
            bit_set(&mut self.foreign_sat, idx);
            1
        } else {
            bit_clear(&mut self.foreign_sat, idx);
            -1
        };
        match self.own_prohibited[idx] {
            None => {
                self.sat_unconditional = self.sat_unconditional.wrapping_add_signed(delta);
            }
            Some(value) => {
                let slot = value.index();
                if slot >= self.sat_by_value.len() {
                    self.sat_by_value.resize(slot + 1, 0);
                }
                self.sat_by_value[slot] = self.sat_by_value[slot].wrapping_add_signed(delta);
            }
        }
    }

    /// Whether nogood `idx` is violated under the refreshed view with the
    /// own variable at `own_value`. O(1); performs no literal scans and
    /// meters nothing. Dead (forgotten) slots are never violated.
    ///
    /// # Panics
    ///
    /// Panics if slot `idx` was created after the last refresh.
    pub fn is_violated(&self, idx: NogoodIdx, own_value: Value) -> bool {
        assert!(
            idx < self.synced_slots,
            "slot {idx} created after the last refresh (synced {})",
            self.synced_slots
        );
        bit_get(&self.foreign_sat, idx)
            && (bit_get(&self.applies_always, idx)
                || self
                    .applies_by_value
                    .get(own_value.index())
                    .is_some_and(|mask| bit_get(mask, idx)))
    }

    /// Filters `indices` down to the nogoods violated with the own
    /// variable at `own_value`, preserving order. **Meters nothing** —
    /// hot-path callers must charge one check per candidate
    /// ([`NogoodStore::charge_checks`] with `indices.len()`), because
    /// that is exactly what the paper's naive evaluator would count.
    pub fn violated_among(&self, indices: &[NogoodIdx], own_value: Value) -> Vec<NogoodIdx> {
        indices
            .iter()
            .copied()
            .filter(|&idx| self.is_violated(idx, own_value))
            .collect()
    }

    /// How many of `indices` are violated with the own variable at
    /// `own_value`: the length of [`IncrementalEval::violated_among`]
    /// without building it. **Meters nothing**; callers charge one check
    /// per candidate, as there.
    pub fn violated_count_among(&self, indices: &[NogoodIdx], own_value: Value) -> usize {
        indices
            .iter()
            .filter(|&&idx| self.is_violated(idx, own_value))
            .count()
    }

    /// All violated slot indices with the own variable at `own_value`
    /// (ascending). Word-wise bitset AND over the synced slots — no
    /// literal work, ~n/64 word operations plus one push per violated
    /// nogood.
    pub fn violated_with(&self, own_value: Value) -> Vec<NogoodIdx> {
        let by_value = self.applies_by_value.get(own_value.index());
        let mut violated = Vec::new();
        for (w, &sat) in self.foreign_sat.iter().enumerate() {
            let applies =
                self.applies_always[w] | by_value.map(|mask| mask[w]).unwrap_or_default();
            let mut bits = sat & applies;
            while bits != 0 {
                violated.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        violated
    }

    /// Number of violated nogoods with the own variable at `own_value`.
    /// O(1) via incrementally maintained counters.
    pub fn violation_count_with(&self, own_value: Value) -> usize {
        self.sat_unconditional
            + self
                .sat_by_value
                .get(own_value.index())
                .copied()
                .unwrap_or(0)
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
        // Learned/initial do not create distinct entries either.
        assert!(!store.insert_learned(pair(0, 1, 1, 1)));
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
    fn entries_and_indices_skip_dead_slots() {
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        store.insert_learned(pair(0, 1, 1, 1));
        store.insert_learned(pair(2, 0, 3, 0));
        assert_eq!(store.forget(1), vec![1]);
        let indices: Vec<NogoodIdx> = store.indices().collect();
        assert_eq!(indices, vec![0, 2]);
        let entries: Vec<NogoodIdx> = store.entries().map(|(i, _)| i).collect();
        assert_eq!(entries, vec![0, 2]);
        assert_eq!(store.iter().count(), 2);
        assert_eq!(store.get(1), None);
        assert!(!store.contains(&pair(0, 1, 1, 1)));
        assert_eq!(store.for_variable(x(1)).count(), 1);
    }

    #[test]
    fn forget_within_budget_is_a_noop() {
        let mut store = NogoodStore::new();
        store.insert_learned(pair(0, 0, 1, 0));
        assert!(store.forget(1).is_empty());
        assert!(store.forget(5).is_empty());
        assert_eq!(store.len(), 1);
        assert!(store.mutation_log().len() == 1); // only the insert
    }

    #[test]
    fn forget_never_evicts_initial_constraints() {
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        store.insert(pair(0, 1, 1, 1));
        store.insert_learned(pair(2, 0, 3, 0));
        assert_eq!(store.forget(0), vec![2]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.learned_len(), 0);
        // Nothing learned left: a further pass is a no-op.
        assert!(store.forget(0).is_empty());
    }

    #[test]
    fn forget_evicts_coldest_first_with_seq_tiebreak() {
        let mut store = NogoodStore::new();
        store.insert_learned(pair(0, 0, 1, 0)); // slot 0, cold
        store.insert_learned(pair(0, 1, 1, 1)); // slot 1, hot
        store.insert_learned(pair(2, 0, 3, 0)); // slot 2, cold
        store.bump_activity(1);
        // Equal activity between slots 0 and 2: the older seq goes first.
        assert_eq!(store.forget(2), vec![0]);
        assert_eq!(store.forget(1), vec![2]);
        assert_eq!(store.len(), 1);
        assert!(store.contains(&pair(0, 1, 1, 1)));
    }

    #[test]
    fn forget_decays_surviving_activity() {
        let mut store = NogoodStore::new();
        store.insert_learned(pair(0, 0, 1, 0)); // slot 0
        store.insert_learned(pair(0, 1, 1, 1)); // slot 1
        store.bump_activity(0);
        store.bump_activity(0); // slot 0 activity 3, slot 1 activity 1
        store.insert_learned(pair(2, 0, 3, 0)); // slot 2, activity 1
        assert_eq!(store.forget(2), vec![1]); // coldest + oldest
        // Decay halved survivors (3 -> 1, 1 -> 0). A fresh insert at
        // activity 1 now outranks slot 2 (decayed to 0).
        store.insert_learned(pair(4, 0, 5, 0)); // reuses slot 1
        assert_eq!(store.forget(2), vec![2]);
    }

    #[test]
    fn slot_reuse_keeps_indices_stable() {
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0)); // slot 0 (initial)
        store.insert_learned(pair(0, 1, 1, 1)); // slot 1
        store.insert_learned(Nogood::of([(x(2), v(0)), (x(3), v(0)), (x(4), v(0))])); // slot 2
        assert_eq!(store.slot_count(), 3);
        assert_eq!(store.forget(0), vec![1, 2]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.slot_count(), 3);
        // Reinsertion reuses dead slots (LIFO: slot 2 first), and slot 0
        // is untouched throughout.
        assert!(store.insert_learned(pair(5, 0, 6, 0)));
        assert_eq!(store.get(2).unwrap(), pair(5, 0, 6, 0));
        // A wider nogood than slot 1's capacity still lands in slot 1
        // (fresh arena range).
        let wide = Nogood::of([(x(7), v(0)), (x(8), v(0)), (x(9), v(0)), (x(10), v(0))]);
        assert!(store.insert_learned(wide.clone()));
        assert_eq!(store.get(1).unwrap(), wide);
        assert_eq!(store.get(0).unwrap(), pair(0, 0, 1, 0));
        assert_eq!(store.len(), 3);
        assert_eq!(store.slot_count(), 3);
    }

    #[test]
    fn mutation_log_records_inserts_and_removals() {
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        store.insert_learned(pair(0, 1, 1, 1));
        assert_eq!(store.mutation_log(), &[0, 1]);
        store.insert(pair(0, 0, 1, 0)); // duplicate: not logged
        assert_eq!(store.mutation_log(), &[0, 1]);
        store.forget(0);
        assert_eq!(store.mutation_log(), &[0, 1, 1]);
        store.insert_learned(pair(2, 0, 3, 0)); // reuses slot 1
        assert_eq!(store.mutation_log(), &[0, 1, 1, 1]);
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
                let naive_violated: Vec<NogoodIdx> = (0..store.len())
                    .filter(|&i| store.get(i).unwrap().is_violated_by(lookup))
                    .collect();
                assert_eq!(eval.violated_with(v(own_value)), naive_violated);
                assert_eq!(
                    eval.violation_count_with(v(own_value)),
                    naive_violated.len()
                );
                assert_eq!(
                    eval.violated_among(&naive_violated, v(own_value)),
                    naive_violated
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
    fn incremental_tracks_forgetting_and_slot_reuse() {
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0)); // slot 0, initial
        store.insert_learned(pair(0, 1, 1, 0)); // slot 1
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, [(x(1), v(0))]);
        assert!(eval.is_violated(0, v(0)));
        assert!(eval.is_violated(1, v(1)));
        assert_eq!(eval.violation_count_with(v(1)), 1);

        assert_eq!(store.forget(0), vec![1]);
        eval.refresh(&store, [(x(1), v(0))]);
        // The forgotten slot no longer registers as violated anywhere.
        assert!(!eval.is_violated(1, v(1)));
        assert_eq!(eval.violated_with(v(1)), Vec::<NogoodIdx>::new());
        assert_eq!(eval.violation_count_with(v(1)), 0);

        // A new nogood reusing slot 1 is tracked with its own semantics.
        store.insert_learned(pair(0, 2, 1, 0));
        eval.refresh(&store, [(x(1), v(0))]);
        assert!(eval.is_violated(1, v(2)));
        assert!(!eval.is_violated(1, v(1)));
        assert_eq!(eval.violated_with(v(2)), vec![1]);
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
    }

    #[test]
    fn incremental_meters_nothing() {
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        let mut eval = IncrementalEval::new(own);
        eval.refresh(&store, [(x(1), v(0))]);
        let _ = eval.is_violated(0, v(0));
        let _ = eval.violated_with(v(0));
        let _ = eval.violated_among(&[0], v(0));
        let _ = eval.violation_count_with(v(0));
        assert_eq!(store.checks(), 0);
    }

    #[test]
    fn refresh_view_fast_path_tracks_generation() {
        use crate::ids::AgentId;
        use crate::priority::Priority;
        let own = x(0);
        let mut store = NogoodStore::new();
        store.insert(pair(0, 0, 1, 0));
        let mut view = crate::AgentView::new();
        view.update(x(1), AgentId::new(1), v(0), Priority::ZERO);

        let mut eval = IncrementalEval::new(own);
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(0, v(0)));

        // Unchanged view + store: fast path (observable via epoch not
        // advancing — exercised here just for coverage/no-panic).
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(0, v(0)));

        // A real change invalidates.
        view.update(x(1), AgentId::new(1), v(1), Priority::ZERO);
        eval.refresh_view(&store, &view);
        assert!(!eval.is_violated(0, v(0)));

        // Store growth alone also invalidates.
        store.insert(pair(0, 1, 1, 1));
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(1, v(1)));

        // Store *mutation* (forgetting) alone also invalidates.
        store.insert_learned(pair(0, 2, 1, 1));
        eval.refresh_view(&store, &view);
        assert!(eval.is_violated(2, v(2)));
        store.forget(0);
        eval.refresh_view(&store, &view);
        assert!(!eval.is_violated(2, v(2)));
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

    /// Drives a store past `SMALL_STORE_LIMIT` slots with random view
    /// churn, inserts, and forgetting, comparing every query against a
    /// naive literal scan. This is the in-crate counterpart of the
    /// proptest in `tests/properties.rs`.
    #[test]
    fn watched_mode_matches_naive_under_churn() {
        const VARS: u32 = 24;
        const VALUES: u16 = 3;
        let own = x(0);
        let mut rng = Rng(0xd15c_5b00_c0ff_ee00);
        let mut store = NogoodStore::new();
        let mut eval = IncrementalEval::new(own);
        let mut view: HashMap<VariableId, Value> = HashMap::new();

        let random_nogood = |rng: &mut Rng| {
            let len = 1 + rng.below(3) as usize;
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
                store.insert_learned(random_nogood(&mut rng));
            }
            if step == 200 {
                store.forget(store.learned_len() / 2);
            }
            // Mutate the view: a few assignments plus occasional removal.
            for _ in 0..1 + rng.below(3) {
                let var = x(1 + rng.below((VARS - 1) as u64) as u32);
                if rng.below(8) == 0 {
                    view.remove(&var);
                } else {
                    view.insert(var, v(rng.below(VALUES as u64) as u16));
                }
            }
            eval.refresh(&store, view.iter().map(|(&k, &val)| (k, val)));

            let own_value = v(rng.below(VALUES as u64) as u16);
            let lookup = |var: VariableId| {
                if var == own {
                    Some(own_value)
                } else {
                    view.get(&var).copied()
                }
            };
            let naive: Vec<NogoodIdx> = store
                .entries()
                .filter(|(_, ng)| ng.is_violated_by(lookup))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(eval.violated_with(own_value), naive, "step {step}");
            assert_eq!(eval.violation_count_with(own_value), naive.len());
            for (idx, ng) in store.entries() {
                assert_eq!(
                    eval.is_violated(idx, own_value),
                    ng.is_violated_by(lookup),
                    "step {step} idx {idx}"
                );
            }
        }
        assert!(store.slot_count() > IncrementalEval::SMALL_STORE_LIMIT);
        assert_eq!(store.checks(), 0, "incremental machinery must not meter");
    }
}
