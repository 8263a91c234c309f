//! Session slot bookkeeping: who is active, who is parked, and in what
//! order parked sessions get promoted.
//!
//! The table is pure data structure — admission *policy* (budgets,
//! drain refusal, duplicate detection) lives in
//! [`SolveService`](crate::SolveService). Everything here is ordered:
//! active sessions sit in a `BTreeMap` (ascending-id iteration gives
//! the scheduler a deterministic poll order) and parked sessions in a
//! FIFO `VecDeque` (first admitted, first promoted).

use std::collections::{BTreeMap, VecDeque};

use crate::session::Pump;
use crate::SessionId;

/// One admitted session: its pollable state machine and the sweep at
/// which it was submitted.
pub(crate) struct Slot {
    pub pump: Box<dyn Pump>,
    pub submitted_sweep: u64,
}

/// The session table. See the module docs for the ordering contract.
#[derive(Default)]
pub(crate) struct SessionTable {
    active: BTreeMap<SessionId, Slot>,
    pending: VecDeque<(SessionId, Slot)>,
    draining: bool,
}

impl SessionTable {
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Whether `id` names a live (active or parked) session.
    pub fn contains(&self, id: SessionId) -> bool {
        self.active.contains_key(&id) || self.pending.iter().any(|(pid, _)| *pid == id)
    }

    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.active.is_empty() && self.pending.is_empty()
    }

    pub fn draining(&self) -> bool {
        self.draining
    }

    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    pub fn insert_active(&mut self, id: SessionId, slot: Slot) {
        self.active.insert(id, slot);
    }

    pub fn park(&mut self, id: SessionId, slot: Slot) {
        self.pending.push_back((id, slot));
    }

    /// Promotes the oldest parked session, if any.
    pub fn promote(&mut self) -> Option<(SessionId, Slot)> {
        self.pending.pop_front()
    }

    /// Removes a session wherever it lives (active slot or parking
    /// queue). Returns `None` for unknown ids.
    pub fn remove(&mut self, id: SessionId) -> Option<Slot> {
        if let Some(slot) = self.active.remove(&id) {
            return Some(slot);
        }
        let position = self.pending.iter().position(|(pid, _)| *pid == id)?;
        self.pending.remove(position).map(|(_, slot)| slot)
    }

    /// Mutable access to every active slot, ascending by session id —
    /// the scheduler's deterministic poll order.
    pub fn active_iter_mut(&mut self) -> impl Iterator<Item = (SessionId, &mut Slot)> {
        self.active.iter_mut().map(|(id, slot)| (*id, slot))
    }

    pub fn remove_active(&mut self, id: SessionId) -> Option<Slot> {
        self.active.remove(&id)
    }
}
