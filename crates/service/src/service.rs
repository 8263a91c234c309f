//! The scheduler: one [`SolveService`] multiplexing many sessions.
//!
//! Each [`SolveService::sweep`] promotes parked sessions into free
//! active slots (FIFO), then advances every active session exactly one
//! wave, then reaps the finished ones. The sweep counter is the
//! service's virtual clock: a session's latency is
//! `completed_sweep - submitted_sweep`, which makes every latency
//! number a pure function of the workload — independent of wall time
//! *and* of how many worker threads polled the table, because sessions
//! share no state and completions are recorded in ascending-id order.

use std::collections::BTreeMap;

use discsp_runtime::{RuntimeError, VirtualReport};

use crate::session::{build_pump, SessionPoll, SessionSnapshot, SessionSpec};
use crate::table::{SessionTable, Slot};
use crate::{ServiceError, SessionId};

/// Admission and scheduling knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Sessions polled concurrently. Admissions beyond this park in the
    /// FIFO pending queue.
    pub max_active: usize,
    /// Parked admissions beyond which submits are refused with
    /// [`ServiceError::Overloaded`]. The global budget is
    /// `max_active + max_pending`.
    pub max_pending: usize,
    /// Per-session in-flight message budget. Sends past it spill to the
    /// session's deterministic parking queue. The default (`u64::MAX`)
    /// disables backpressure, making every session step-for-step
    /// identical to `solve_virtual`.
    pub session_budget: u64,
    /// Worker threads polling the active table each sweep. Results are
    /// identical for any value; this is purely a throughput knob.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_active: 64,
            max_pending: 4096,
            session_budget: u64::MAX,
            workers: 1,
        }
    }
}

/// A finished session's report plus its service-clock timestamps.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The full report, field-identical to what `solve_virtual` would
    /// have produced for the same `(spec, budget)`.
    pub report: VirtualReport,
    /// Sweep at which the session was admitted.
    pub submitted_sweep: u64,
    /// Sweep at which it finished.
    pub completed_sweep: u64,
}

impl SessionResult {
    /// Queueing + solve latency in sweeps (the deterministic latency
    /// unit reported by `discsp-load`).
    pub fn latency_sweeps(&self) -> u64 {
        self.completed_sweep - self.submitted_sweep
    }
}

/// The multi-session scheduler. See the crate docs for the big picture.
pub struct SolveService {
    config: ServiceConfig,
    table: SessionTable,
    sweep: u64,
    completed: BTreeMap<SessionId, SessionResult>,
    failed: BTreeMap<SessionId, ServiceError>,
}

impl SolveService {
    /// A fresh service with no sessions.
    pub fn new(config: ServiceConfig) -> Self {
        SolveService {
            config,
            table: SessionTable::new(),
            sweep: 0,
            completed: BTreeMap::new(),
            failed: BTreeMap::new(),
        }
    }

    /// The scheduler's virtual clock: sweeps executed so far.
    pub fn sweeps(&self) -> u64 {
        self.sweep
    }

    /// Sessions currently polled each sweep.
    pub fn active_sessions(&self) -> usize {
        self.table.active_len()
    }

    /// Admitted sessions waiting for an active slot.
    pub fn pending_sessions(&self) -> usize {
        self.table.pending_len()
    }

    /// Whether the service holds no live sessions.
    pub fn is_idle(&self) -> bool {
        self.table.is_empty()
    }

    /// Whether a drain has been requested and everything in flight has
    /// finished.
    pub fn is_drained(&self) -> bool {
        self.table.draining() && self.table.is_empty()
    }

    /// Admits a session. If an active slot is free the session occupies
    /// it immediately; otherwise it parks in the FIFO pending queue.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Draining`] after [`Self::begin_drain`];
    /// [`ServiceError::DuplicateSession`] while `id` is live or its
    /// result is still unclaimed; [`ServiceError::Overloaded`] past the
    /// global budget; [`ServiceError::BadSpec`] when the solver rejects
    /// the spec.
    pub fn submit(&mut self, id: SessionId, spec: SessionSpec) -> Result<(), ServiceError> {
        self.admit(id, spec, 0)
    }

    fn admit(
        &mut self,
        id: SessionId,
        spec: SessionSpec,
        fast_forward: u64,
    ) -> Result<(), ServiceError> {
        if self.table.draining() {
            return Err(ServiceError::Draining);
        }
        if self.table.contains(id)
            || self.completed.contains_key(&id)
            || self.failed.contains_key(&id)
        {
            return Err(ServiceError::DuplicateSession { id });
        }
        let admitted = self.table.active_len() + self.table.pending_len();
        if admitted >= self.config.max_active + self.config.max_pending {
            return Err(ServiceError::Overloaded);
        }
        let budget = self.config.session_budget;
        let mut pump = build_pump(&spec, budget)?;
        for _ in 0..fast_forward {
            pump.poll()?;
        }
        let slot = Slot {
            spec,
            pump,
            budget,
            submitted_sweep: self.sweep,
        };
        if self.table.active_len() < self.config.max_active {
            self.table.insert_active(id, slot);
        } else {
            self.table.park(id, slot);
        }
        Ok(())
    }

    /// Stops admitting new sessions. Everything already admitted keeps
    /// running to completion; nothing in flight is lost.
    pub fn begin_drain(&mut self) {
        self.table.begin_drain();
    }

    /// [`Self::begin_drain`] followed by sweeping until idle. Returns
    /// the number of sweeps it took.
    pub fn drain(&mut self) -> u64 {
        self.begin_drain();
        self.run_until_idle()
    }

    /// Sweeps until no live session remains. Returns the sweep count.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut sweeps = 0;
        while !self.is_idle() {
            self.sweep();
            sweeps += 1;
        }
        sweeps
    }

    /// Cancels a live session, returning a snapshot from which
    /// [`Self::restore`] (on this or any other service) can resume it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when `id` is not live.
    pub fn cancel(&mut self, id: SessionId) -> Result<SessionSnapshot, ServiceError> {
        let Some(mut slot) = self.table.remove(id) else {
            return Err(ServiceError::UnknownSession { id });
        };
        Ok(SessionSnapshot {
            spec: slot.spec.clone(),
            budget: slot.budget,
            waves: slot.pump.waves(),
            events: slot.pump.trace_so_far(),
        })
    }

    /// Captures a live session without disturbing it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when `id` is not live.
    pub fn snapshot(&mut self, id: SessionId) -> Result<SessionSnapshot, ServiceError> {
        let Some(slot) = self.table.get_mut(id) else {
            return Err(ServiceError::UnknownSession { id });
        };
        Ok(SessionSnapshot {
            spec: slot.spec.clone(),
            budget: slot.budget,
            waves: slot.pump.waves(),
            events: slot.pump.trace_so_far(),
        })
    }

    /// Resumes a snapshotted session on this service: rebuilds the
    /// driver from the spec, fast-forwards it by the snapshot's wave
    /// count, and — when the spec recorded a trace — verifies the
    /// replayed event log equals the snapshot's bit-for-bit before
    /// admitting the session. Determinism makes this sound: the same
    /// `(spec, budget)` replays the same waves everywhere.
    ///
    /// # Errors
    ///
    /// The admission errors of [`Self::submit`], plus
    /// [`ServiceError::RestoreDiverged`] when the replayed log differs
    /// from the recorded one.
    pub fn restore(
        &mut self,
        id: SessionId,
        snapshot: &SessionSnapshot,
    ) -> Result<(), ServiceError> {
        if self.table.draining() {
            return Err(ServiceError::Draining);
        }
        if self.table.contains(id)
            || self.completed.contains_key(&id)
            || self.failed.contains_key(&id)
        {
            return Err(ServiceError::DuplicateSession { id });
        }
        let admitted = self.table.active_len() + self.table.pending_len();
        if admitted >= self.config.max_active + self.config.max_pending {
            return Err(ServiceError::Overloaded);
        }
        let verify = snapshot.spec.config.record_trace;
        let mut pump = build_pump(&snapshot.spec, snapshot.budget)?;
        let mut verified = 0usize;
        for wave in 0..snapshot.waves {
            pump.poll()?;
            if verify {
                let replayed = pump.trace_so_far();
                let matches = snapshot
                    .events
                    .get(verified..replayed.len())
                    .zip(replayed.get(verified..))
                    .is_some_and(|(expected, got)| expected == got);
                if !matches {
                    return Err(ServiceError::RestoreDiverged { wave: wave + 1 });
                }
                verified = replayed.len();
            }
        }
        if verify && verified != snapshot.events.len() {
            return Err(ServiceError::RestoreDiverged {
                wave: snapshot.waves,
            });
        }
        let slot = Slot {
            spec: snapshot.spec.clone(),
            pump,
            budget: snapshot.budget,
            submitted_sweep: self.sweep,
        };
        if self.table.active_len() < self.config.max_active {
            self.table.insert_active(id, slot);
        } else {
            self.table.park(id, slot);
        }
        Ok(())
    }

    /// One scheduler step: promote parked sessions into free active
    /// slots (FIFO), advance every active session one wave (sharded
    /// across [`ServiceConfig::workers`] threads), reap completions.
    pub fn sweep(&mut self) {
        self.sweep += 1;
        let now = self.sweep;
        while self.table.active_len() < self.config.max_active {
            let Some((id, slot)) = self.table.promote() else {
                break;
            };
            self.table.insert_active(id, slot);
        }

        let workers = self.config.workers.max(1);
        let mut outcomes: Vec<(SessionId, Result<SessionPoll, RuntimeError>)> = Vec::new();
        if workers == 1 {
            for (id, slot) in self.table.active_iter_mut() {
                outcomes.push((id, slot.pump.poll()));
            }
        } else {
            // Shard by table position over the ascending-id order. Each
            // worker owns disjoint slots (sessions share no state), and
            // the ascending-id sort below erases the sharding from the
            // observable outcome.
            let mut shards: Vec<Vec<(SessionId, &mut Slot)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (position, entry) in self.table.active_iter_mut().enumerate() {
                shards[position % workers].push(entry);
            }
            let collected: Vec<Vec<(SessionId, Result<SessionPoll, RuntimeError>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = shards
                        .into_iter()
                        .map(|shard| {
                            scope.spawn(move || {
                                shard
                                    .into_iter()
                                    .map(|(id, slot)| (id, slot.pump.poll()))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|handle| match handle.join() {
                            Ok(results) => results,
                            Err(payload) => std::panic::resume_unwind(payload),
                        })
                        .collect()
                });
            for mut shard in collected {
                outcomes.append(&mut shard);
            }
            outcomes.sort_by_key(|(id, _)| *id);
        }

        for (id, outcome) in outcomes {
            match outcome {
                Ok(SessionPoll::Running) => {}
                Ok(SessionPoll::Finished) => {
                    if let Some(mut slot) = self.table.remove_active(id) {
                        if let Some(report) = slot.pump.take_report() {
                            self.completed.insert(
                                id,
                                SessionResult {
                                    report,
                                    submitted_sweep: slot.submitted_sweep,
                                    completed_sweep: now,
                                },
                            );
                        }
                    }
                }
                Err(e) => {
                    self.table.remove_active(id);
                    self.failed.insert(id, ServiceError::Runtime(e));
                }
            }
        }
    }

    /// Finished sessions whose results have not been claimed yet.
    pub fn completed(&self) -> &BTreeMap<SessionId, SessionResult> {
        &self.completed
    }

    /// Claims one session's result, freeing its id for reuse.
    pub fn take_result(&mut self, id: SessionId) -> Option<SessionResult> {
        self.completed.remove(&id)
    }

    /// Claims every finished session's result at once.
    pub fn take_completed(&mut self) -> BTreeMap<SessionId, SessionResult> {
        std::mem::take(&mut self.completed)
    }

    /// Sessions that died on a runtime error, with the error.
    pub fn failed(&self) -> &BTreeMap<SessionId, ServiceError> {
        &self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_awc::AwcConfig;
    use discsp_core::{Assignment, Domain, Value};

    fn spec(seed: u64) -> SessionSpec {
        let mut b = discsp_core::DistributedCsp::builder();
        let vars: Vec<_> = (0..4).map(|_| b.variable(Domain::new(3))).collect();
        for i in 0..4 {
            let (x, y) = (vars[i], vars[(i + 1) % 4]);
            b.not_equal(x, y).expect("edge");
        }
        SessionSpec {
            problem: b.build().expect("ring"),
            init: Assignment::total((0..4).map(|_| Value::new(0))),
            algo: discsp_net::AlgoSpec::Awc(AwcConfig::resolvent()),
            config: discsp_runtime::VirtualConfig {
                seed,
                ..Default::default()
            },
        }
    }

    #[test]
    fn admission_parks_beyond_active_and_refuses_beyond_global() {
        let mut service = SolveService::new(ServiceConfig {
            max_active: 2,
            max_pending: 1,
            ..Default::default()
        });
        service.submit(1, spec(1)).expect("active 1");
        service.submit(2, spec(2)).expect("active 2");
        service.submit(3, spec(3)).expect("parked");
        assert_eq!(service.active_sessions(), 2);
        assert_eq!(service.pending_sessions(), 1);
        assert!(matches!(
            service.submit(4, spec(4)),
            Err(ServiceError::Overloaded)
        ));
        assert!(matches!(
            service.submit(2, spec(5)),
            Err(ServiceError::DuplicateSession { id: 2 })
        ));
        service.run_until_idle();
        assert_eq!(service.completed().len(), 3);
    }

    #[test]
    fn drain_refuses_new_sessions_and_loses_nothing() {
        let mut service = SolveService::new(ServiceConfig::default());
        for id in 1..=5 {
            service.submit(id, spec(id)).expect("submit");
        }
        service.begin_drain();
        assert!(matches!(
            service.submit(99, spec(99)),
            Err(ServiceError::Draining)
        ));
        service.run_until_idle();
        assert!(service.is_drained());
        assert_eq!(service.completed().len(), 5, "zero sessions lost");
    }
}
