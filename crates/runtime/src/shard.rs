//! The M:N sharded event-loop executor: `run_virtual`'s semantics on
//! worker threads.
//!
//! [`run_sharded`] keeps the deterministic virtual-time semantics of
//! [`run_virtual`](crate::run_virtual) but executes agent activations on
//! a fixed pool of worker threads, so a population of 10^5 agents
//! shares a handful of cores instead of one thread per agent: each
//! worker owns one shard of the population, its agents in ascending id
//! order as the seed-derived [`ShardPlan`] places them, and drains their
//! mailbox batches, while the coordinator thread runs the
//! [`WaveEngine`], which owns the single [`Router`]. This module is only
//! the engine's shard-pool [`Stepper`].
//!
//! **Why determinism survives M:N.** The coordinator runs the same
//! engine as `run_virtual`, so the start wave, quiescence check, nudge
//! recovery, tick bookkeeping, and cut-off rules are not copies but the
//! same code. Each wave is partitioned across shards by the plan. A
//! worker runs its shard's activations in ascending agent id and streams
//! their outputs back in chunks of [`CHUNK`] activations: one small
//! record per activation (agent, checks, insolubility, and where its
//! assignments, envelopes and trace events end in the chunk's flat
//! buffers). The coordinator merges the shards' chunks as they arrive,
//! always taking the lowest agent id next, so the engine sees every
//! activation in **ascending agent-id order**, the order every stepper
//! owes it. So the router consumes every per-link fault stream in the
//! same order, the trace interleaves identically, and the report is
//! bit-identical to `run_virtual` for *any* worker count. Per-shard
//! [`StepRecorder`] memories replay exactly too, because membership is a
//! pure function of the run seed and fixed for the run.
//!
//! **Memory stays with the thread that allocated it.** No activation
//! sends a heap object of its own across threads:
//!
//! * a worker allocates its chunks, at most [`CHUNKS_PER_WORKER`] of
//!   them, and the coordinator hands each back once merged, which also
//!   bounds the replies' memory;
//! * the router's inboxes travel to the worker inside the job, each agent
//!   drains its inbox through [`DistributedAgent::on_inbox`], and the
//!   emptied `Vec`s ride home in the chunk, to be freed by the
//!   coordinator before it merges the chunk;
//! * every worker reuses one [`Outbox`];
//! * at the end of the run, `Finish` sends each shard's agents home. The
//!   engine's teardown reads their leftover checks and statistics there,
//!   and `run_sharded` drops them on the caller's thread, which built
//!   them.
//!
//! Only message payloads that own heap data (AWC's nogoods) still pass
//! from sender to recipient, as messages must.
//!
//! Trace recording stays per-agent-correct: each worker's recorder writes
//! into the chunk's event buffer and stamps each event with the wave's
//! tick passed down in the job, so a batch that drains just before a
//! nudge wave can never smear its events into the nudge's tick.
//!
//! [`Router`]: crate::Router

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};

use discsp_core::{AgentId, DistributedCsp, VarValue};
use discsp_trace::{RuntimeKind, TraceEvent, TraceSink};

use crate::agent::{check_dense_ids, DistributedAgent, Outbox};
use crate::engine::{Admission, Direct, Merge, Stepper, Teardown, Wave, WaveEngine};
use crate::error::RuntimeError;
use crate::link::{VirtualConfig, VirtualReport};
use crate::message::{Classify, Envelope};
use crate::pool::ShardPlan;
use crate::recorder::StepRecorder;

/// Activations per reply chunk.
const CHUNK: usize = 128;

/// Chunks a worker keeps in circulation. A worker with all of them out
/// waits until the coordinator hands one back, so a wave's replies never
/// pile up in memory however far a worker runs ahead of the merge.
const CHUNKS_PER_WORKER: usize = 4;

/// Configuration of a sharded run: [`VirtualConfig`] semantics plus a
/// worker count. The worker count is a pure throughput knob — metrics,
/// traces, and fault counters are bit-identical for any value.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The deterministic run configuration (seed, faults, budgets).
    pub base: VirtualConfig,
    /// Worker threads (one shard each); clamped to `1..=agents`.
    pub workers: usize,
}

impl ShardConfig {
    /// A default-semantics run on `workers` threads.
    pub fn new(workers: usize) -> Self {
        ShardConfig {
            base: VirtualConfig::default(),
            workers,
        }
    }

    /// Wraps an existing virtual-run configuration.
    pub fn with_base(base: VirtualConfig, workers: usize) -> Self {
        ShardConfig { base, workers }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::new(4)
    }
}

/// One shard's delivery batch for a wave: `(slot, inbox)` pairs in
/// ascending slot order.
type SlotInboxes<M> = Vec<(usize, Vec<Envelope<M>>)>;

/// One wave of work for a shard worker. Ticks travel with the job so a
/// worker can never stamp events with a stale wave's tick.
enum Job<M> {
    /// Run `on_start`, or `on_nudge` when `nudge` is set, for every agent
    /// in the shard.
    Everyone { tick: u64, nudge: bool },
    /// Deliver inbox batches.
    Batch { tick: u64, inboxes: SlotInboxes<M> },
    /// End of the run: send the shard's agents home.
    Finish,
}

/// Where one activation's output ends in its chunk's buffers.
#[derive(Debug, Clone, Copy, Default)]
struct Ends {
    assignments: usize,
    envelopes: usize,
    events: usize,
}

/// One activation's output, apart from what its chunk's buffers hold.
#[derive(Debug, Clone, Copy)]
struct Record {
    agent: u32,
    checks: u64,
    insoluble: bool,
    ends: Ends,
}

/// A chunk's trace events, written straight by the worker's recorder.
struct Events {
    queue: VecDeque<TraceEvent>,
    on: bool,
}

impl TraceSink for Events {
    fn record(&mut self, event: TraceEvent) {
        if self.on {
            self.queue.push_back(event);
        }
    }

    fn enabled(&self) -> bool {
        self.on
    }
}

/// Up to [`CHUNK`] consecutive activations of one shard, in flat buffers
/// that the worker allocates and the coordinator hands back once merged.
struct Chunk<M> {
    records: Vec<Record>,
    assignments: Vec<VarValue>,
    envelopes: VecDeque<Envelope<M>>,
    events: Events,
    /// The inboxes this chunk's activations drained, on their way back
    /// to the coordinator, which allocated them.
    spent: Vec<Vec<Envelope<M>>>,
}

impl<M> Chunk<M> {
    fn new(trace: bool) -> Self {
        Chunk {
            records: Vec::with_capacity(CHUNK),
            assignments: Vec::new(),
            envelopes: VecDeque::new(),
            events: Events {
                queue: VecDeque::new(),
                on: trace,
            },
            spent: Vec::new(),
        }
    }

    fn ends(&self) -> Ends {
        Ends {
            assignments: self.assignments.len(),
            envelopes: self.envelopes.len(),
            events: self.events.queue.len(),
        }
    }

    /// Empties every buffer, keeping its capacity.
    fn clear(&mut self) {
        self.records.clear();
        self.assignments.clear();
        self.envelopes.clear();
        self.events.queue.clear();
        self.spent.clear();
    }
}

/// What a worker sends the coordinator.
enum Reply<A: DistributedAgent> {
    /// A full chunk; more of the wave follows.
    Chunk(Chunk<A::Message>),
    /// The shard's last chunk of the wave, with the delivery job's
    /// emptied inbox list.
    Last(Chunk<A::Message>, SlotInboxes<A::Message>),
    /// The shard's agents, sent home at the end of the run.
    Home(Vec<A>),
}

/// A worker-owned shard: its agents in slot (= ascending id) order,
/// the shard's private recorder state, and its side of the channels.
struct ShardWorker<A: DistributedAgent> {
    agents: Vec<A>,
    recorder: StepRecorder,
    outbox: Outbox<A::Message>,
    trace: bool,
    /// Chunks allocated so far, at most [`CHUNKS_PER_WORKER`].
    made: usize,
    replies: Sender<Reply<A>>,
    returned: Receiver<Chunk<A::Message>>,
}

impl<A: DistributedAgent> ShardWorker<A> {
    fn run(mut self, jobs: Receiver<Job<A::Message>>) {
        while let Ok(job) = jobs.recv() {
            let replied = match job {
                Job::Everyone { tick, nudge } => self.everyone(tick, nudge),
                Job::Batch { tick, inboxes } => self.batch(tick, inboxes),
                Job::Finish => {
                    let agents = std::mem::take(&mut self.agents);
                    let _ = self.replies.send(Reply::Home(agents));
                    return;
                }
            };
            if replied.is_none() {
                // The coordinator has gone.
                return;
            }
        }
    }

    /// Runs `on_start` (or `on_nudge`) for every agent, streaming the
    /// outputs back.
    fn everyone(&mut self, tick: u64, nudge: bool) -> Option<()> {
        let mut chunk = self.chunk()?;
        for index in 0..self.agents.len() {
            chunk = self.room(chunk)?;
            self.activate(index, tick, &mut chunk, |agent, out| {
                if nudge {
                    agent.on_nudge(out);
                } else {
                    agent.on_start(out);
                }
            });
        }
        self.replies.send(Reply::Last(chunk, Vec::new())).ok()
    }

    /// Delivers each inbox to its agent, streaming the outputs and the
    /// emptied inboxes back.
    fn batch(&mut self, tick: u64, mut inboxes: SlotInboxes<A::Message>) -> Option<()> {
        let mut chunk = self.chunk()?;
        for (slot, mut inbox) in inboxes.drain(..) {
            chunk = self.room(chunk)?;
            self.activate(slot, tick, &mut chunk, |agent, out| {
                agent.on_inbox(&mut inbox, out);
            });
            chunk.spent.push(inbox);
        }
        self.replies.send(Reply::Last(chunk, inboxes)).ok()
    }

    /// `chunk` while it has room for another activation; a full one is
    /// sent on and replaced.
    fn room(&mut self, chunk: Chunk<A::Message>) -> Option<Chunk<A::Message>> {
        if chunk.records.len() < CHUNK {
            return Some(chunk);
        }
        self.replies.send(Reply::Chunk(chunk)).ok()?;
        self.chunk()
    }

    /// A chunk to fill: one the coordinator handed back, else a new one
    /// while fewer than [`CHUNKS_PER_WORKER`] exist, else the next one
    /// handed back. `None` once the coordinator has gone.
    fn chunk(&mut self) -> Option<Chunk<A::Message>> {
        if let Ok(chunk) = self.returned.try_recv() {
            return Some(chunk);
        }
        if self.made < CHUNKS_PER_WORKER {
            self.made += 1;
            return Some(Chunk::new(self.trace));
        }
        self.returned.recv().ok()
    }

    /// Runs one activation of the agent in `slot` and appends its output
    /// to `chunk`, its step events recorded through the shard's recorder.
    fn activate(
        &mut self,
        slot: usize,
        tick: u64,
        chunk: &mut Chunk<A::Message>,
        act: impl FnOnce(&mut A, &mut Outbox<A::Message>),
    ) {
        let Some(agent) = self.agents.get_mut(slot) else {
            return;
        };
        self.outbox.reopen(agent.id());
        act(agent, &mut self.outbox);
        let checks = agent.take_checks();
        agent.write_assignments(&mut chunk.assignments);
        self.recorder
            .record_step(agent, tick, checks, &mut chunk.events);
        chunk.envelopes.extend(self.outbox.sent());
        let ends = chunk.ends();
        chunk.records.push(Record {
            agent: agent.id().raw(),
            checks,
            insoluble: agent.detected_insoluble(),
            ends,
        });
    }
}

/// One shard's coordinator-side handle.
struct ShardHandle<A: DistributedAgent> {
    jobs: Sender<Job<A::Message>>,
    replies: Receiver<Reply<A>>,
    returned: Sender<Chunk<A::Message>>,
}

/// A shard's chunk under merge.
struct Cursor<M> {
    chunk: Chunk<M>,
    /// The next record to merge.
    next: usize,
    /// Where the merged records' output ends.
    done: Ends,
    /// Whether this is the shard's last chunk of the wave.
    last: bool,
}

impl<M: Classify + Clone> Cursor<M> {
    /// The agent whose output comes next, if any is left.
    fn head(&self) -> Option<u32> {
        self.chunk.records.get(self.next).map(|record| record.agent)
    }

    /// Hands the next activation's output to `merge`.
    fn merge_next<G: Admission<M>>(
        &mut self,
        merge: &mut Merge<'_, M, G>,
    ) -> Result<(), RuntimeError> {
        let Some(&record) = self.chunk.records.get(self.next) else {
            return Ok(());
        };
        self.next += 1;
        let done = std::mem::replace(&mut self.done, record.ends);
        let chunk = &mut self.chunk;
        let assignments = chunk
            .assignments
            .get(done.assignments..record.ends.assignments)
            .unwrap_or_default();
        let events = &mut chunk.events.queue;
        let event_count = record.ends.events.saturating_sub(done.events);
        let envelope_count = record.ends.envelopes.saturating_sub(done.envelopes);
        let envelopes = chunk
            .envelopes
            .drain(..envelope_count.min(chunk.envelopes.len()));
        merge.activation(
            record.checks,
            record.insoluble,
            assignments.iter().copied(),
            |sink| {
                for event in events.drain(..event_count.min(events.len())) {
                    sink.record(event);
                }
            },
            envelopes,
        )
    }
}

/// The engine's shard-pool stepper.
struct ShardPool<A: DistributedAgent> {
    shards: Vec<ShardHandle<A>>,
    plan: ShardPlan,
    agents: usize,
    /// Each shard's agents, once `Finish` has sent them home.
    home: Vec<Vec<A>>,
}

impl<A: DistributedAgent> ShardPool<A> {
    fn send(&self, shard: usize, job: Job<A::Message>) -> Result<(), RuntimeError> {
        self.shards
            .get(shard)
            .and_then(|handle| handle.jobs.send(job).ok())
            .ok_or(RuntimeError::ShardWorkerDied { shard })
    }

    /// Receives shard `shard`'s next chunk, freeing the inboxes it
    /// brings home.
    fn receive(&self, shard: usize) -> Result<Cursor<A::Message>, RuntimeError> {
        let reply = self
            .shards
            .get(shard)
            .and_then(|handle| handle.replies.recv().ok());
        let (mut chunk, last) = match reply {
            Some(Reply::Chunk(chunk)) => (chunk, false),
            Some(Reply::Last(chunk, _emptied)) => (chunk, true),
            Some(Reply::Home(_)) | None => return Err(RuntimeError::ShardWorkerDied { shard }),
        };
        chunk.spent.clear();
        Ok(Cursor {
            chunk,
            next: 0,
            done: Ends::default(),
            last,
        })
    }

    /// Hands `cursor`'s chunk back once it is merged and receives the
    /// shard's next one; `None` once the shard's part of the wave is
    /// merged.
    fn settle(
        &self,
        shard: usize,
        mut cursor: Cursor<A::Message>,
    ) -> Result<Option<Cursor<A::Message>>, RuntimeError> {
        while cursor.head().is_none() {
            let last = cursor.last;
            let mut chunk = cursor.chunk;
            chunk.clear();
            if let Some(handle) = self.shards.get(shard) {
                // A worker that has gone leaves its chunk to be dropped.
                let _ = handle.returned.send(chunk);
            }
            if last {
                return Ok(None);
            }
            cursor = self.receive(shard)?;
        }
        Ok(Some(cursor))
    }

    /// Merges the wave's outputs from the `involved` shards, lowest
    /// agent id first.
    fn merge_wave<G: Admission<A::Message>>(
        &self,
        involved: impl IntoIterator<Item = usize>,
        merge: &mut Merge<'_, A::Message, G>,
    ) -> Result<(), RuntimeError> {
        let mut cursors = Vec::with_capacity(self.shards.len());
        for shard in involved {
            let first = self.receive(shard)?;
            if let Some(cursor) = self.settle(shard, first)? {
                cursors.push((shard, cursor));
            }
        }
        while let Some(lowest) = cursors
            .iter()
            .enumerate()
            .filter_map(|(at, (_, cursor))| cursor.head().map(|agent| (agent, at)))
            .min()
            .map(|(_, at)| at)
        {
            let Some((_, cursor)) = cursors.get_mut(lowest) else {
                break;
            };
            cursor.merge_next(merge)?;
            if cursor.head().is_none() {
                let (shard, cursor) = cursors.swap_remove(lowest);
                if let Some(cursor) = self.settle(shard, cursor)? {
                    cursors.push((shard, cursor));
                }
            }
        }
        Ok(())
    }
}

impl<A: DistributedAgent> Stepper<A::Message> for ShardPool<A> {
    type Error = RuntimeError;

    fn step<G: Admission<A::Message>>(
        &mut self,
        wave: Wave<A::Message>,
        merge: &mut Merge<'_, A::Message, G>,
    ) -> Result<(), RuntimeError> {
        let tick = merge.tick();
        let inboxes = match wave {
            Wave::Start | Wave::Nudge => {
                let nudge = matches!(wave, Wave::Nudge);
                for shard in 0..self.shards.len() {
                    self.send(shard, Job::Everyone { tick, nudge })?;
                }
                return self.merge_wave(0..self.shards.len(), merge);
            }
            Wave::Deliver(inboxes) => inboxes,
        };
        // Partition the inboxes to their shards; recipients arrive in
        // ascending id, so each shard's list is in slot order.
        let mut per_shard: Vec<SlotInboxes<A::Message>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (recipient, inbox) in inboxes {
            let (shard, slot) = self.plan.placement_of(recipient);
            if let Some(list) = per_shard.get_mut(shard) {
                list.push((slot, inbox));
            }
        }
        let mut involved = Vec::with_capacity(per_shard.len());
        for (shard, inboxes) in per_shard.into_iter().enumerate() {
            if !inboxes.is_empty() {
                self.send(shard, Job::Batch { tick, inboxes })?;
                involved.push(shard);
            }
        }
        self.merge_wave(involved, merge)
    }

    fn finish(&mut self, teardown: &mut Teardown<'_>) -> Result<(), RuntimeError> {
        for shard in 0..self.shards.len() {
            self.send(shard, Job::Finish)?;
        }
        for (shard, handle) in self.shards.iter().enumerate() {
            match handle.replies.recv() {
                Ok(Reply::Home(agents)) => self.home.push(agents),
                _ => return Err(RuntimeError::ShardWorkerDied { shard }),
            }
        }
        for id in 0..self.agents {
            let (shard, slot) = self.plan.placement_of(id);
            if let Some(agent) = self
                .home
                .get_mut(shard)
                .and_then(|agents| agents.get_mut(slot))
            {
                teardown.agent(agent.id(), agent.take_checks(), agent.stats());
            }
        }
        Ok(())
    }
}

/// Runs `agents` on the M:N sharded executor: `config.workers` threads,
/// each owning a seed-derived shard of the population, reproducing
/// [`run_virtual`](crate::run_virtual)'s deterministic virtual-time
/// semantics bit for bit. Metrics, fault counters, the fault log, and
/// the trace (up to the `RunEnd` runtime stamp) are identical to a
/// `run_virtual` of the same `(agents, problem, config.base)` — and
/// therefore identical across any two worker counts. When the run
/// completes, its agents are dropped on the calling thread before this
/// returns.
///
/// # Errors
///
/// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*;
/// [`RuntimeError::UnknownRecipient`] when a message addresses an agent
/// outside the population; [`RuntimeError::ShardWorkerDied`] when a
/// worker thread dies mid-run (an agent panicked — the panic also
/// resurfaces when the worker scope unwinds).
pub fn run_sharded<A>(
    agents: Vec<A>,
    problem: &DistributedCsp,
    config: &ShardConfig,
) -> Result<VirtualReport, RuntimeError>
where
    A: DistributedAgent + Send,
{
    check_dense_ids(&agents)?;
    let n = agents.len();
    let base = &config.base;
    let plan = ShardPlan::new(n, config.workers, base.seed);
    // Agents arrive in id order, so pushing each onto its shard's arena
    // fills every arena in slot order.
    let mut arenas: Vec<Vec<A>> = (0..plan.workers())
        .map(|shard| Vec::with_capacity(plan.members(shard).len()))
        .collect();
    for agent in agents {
        let (shard, _) = plan.placement_of(agent.id().index());
        if let Some(arena) = arenas.get_mut(shard) {
            arena.push(agent);
        }
    }
    let engine = WaveEngine::new(n, problem, base, RuntimeKind::Sharded, Direct);

    std::thread::scope(|scope| {
        let mut shards = Vec::with_capacity(arenas.len());
        for agents in arenas {
            let (job_tx, job_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let (returned_tx, returned_rx) = channel();
            let worker = ShardWorker {
                agents,
                recorder: StepRecorder::new(),
                outbox: Outbox::new(AgentId::new(0)),
                trace: base.record_trace,
                made: 0,
                replies: reply_tx,
                returned: returned_rx,
            };
            scope.spawn(move || worker.run(job_rx));
            shards.push(ShardHandle {
                jobs: job_tx,
                replies: reply_rx,
                returned: returned_tx,
            });
        }
        let mut pool = ShardPool {
            shards,
            plan,
            agents: n,
            home: Vec::new(),
        };
        let report = engine.run(problem, &mut pool);
        // `Finish` sent every agent home; they are dropped here, on the
        // thread that built them.
        drop(pool);
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentStats;
    use crate::fixtures::{all_true_problem, ring, Gossip, RingAgent};
    use crate::link::{run_virtual, LinkPolicy};
    use crate::PPM;
    use discsp_core::{Termination, Value, VariableId};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    fn strip_run_end(trace: &[TraceEvent]) -> Vec<TraceEvent> {
        trace
            .iter()
            .filter(|e| !matches!(e, TraceEvent::RunEnd { .. }))
            .cloned()
            .collect()
    }

    #[test]
    fn sharded_run_matches_run_virtual_bit_for_bit() {
        // The golden contract: same (agents, problem, base config) ⇒
        // the sharded executor reproduces run_virtual exactly — metrics,
        // fault counters, fault log, and the full trace modulo the
        // RunEnd runtime stamp — for every worker count.
        let problem = all_true_problem(9);
        for seed in 0..6u64 {
            let base = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(200_000)
                    .with_duplication(100_000)
                    .with_delay(0, 3)
                    .with_reordering(2),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let reference = run_virtual(ring(9), &problem, &base).expect("virtual runs");
            for workers in [1usize, 2, 4, 8] {
                let config = ShardConfig::with_base(base.clone(), workers);
                let sharded = run_sharded(ring(9), &problem, &config).expect("sharded runs");
                assert_eq!(
                    sharded.outcome.metrics, reference.outcome.metrics,
                    "seed {seed} workers {workers}: metrics"
                );
                assert_eq!(sharded.outcome.solution, reference.outcome.solution);
                assert_eq!(sharded.ticks, reference.ticks);
                assert_eq!(sharded.activations, reference.activations);
                assert_eq!(sharded.nudges, reference.nudges);
                assert_eq!(sharded.fault_log, reference.fault_log);
                assert_eq!(
                    strip_run_end(&sharded.trace),
                    strip_run_end(&reference.trace),
                    "seed {seed} workers {workers}: trace"
                );
            }
        }
    }

    #[test]
    fn sharded_run_end_carries_the_sharded_stamp() {
        let problem = all_true_problem(4);
        let config = ShardConfig {
            base: VirtualConfig {
                record_trace: true,
                ..VirtualConfig::default()
            },
            workers: 2,
        };
        let report = run_sharded(ring(4), &problem, &config).expect("runs");
        assert!(report.trace.iter().any(|e| matches!(
            e,
            TraceEvent::RunEnd {
                runtime: RuntimeKind::Sharded,
                ..
            }
        )));
        let audit = discsp_trace::audit(&report.trace).expect("sealed trace");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        assert_eq!(audit.metrics, report.outcome.metrics);
    }

    #[test]
    fn fully_parked_system_recovers_via_nudges() {
        // Every link drops everything, so after the start wave every
        // shard's traffic is parked and the queue is empty. That state
        // must surface as a recoverable stall (retransmission flush +
        // nudge wave), not a deadlock — on any worker count.
        let problem = all_true_problem(6);
        for workers in [1usize, 3, 6] {
            let config = ShardConfig {
                base: VirtualConfig {
                    seed: 3,
                    link: LinkPolicy::lossy(PPM),
                    ..VirtualConfig::default()
                },
                workers,
            };
            let report = run_sharded(ring(6), &problem, &config).expect("runs");
            assert_eq!(
                report.outcome.metrics.termination,
                Termination::Solved,
                "workers {workers}"
            );
            assert!(report.nudges > 0, "workers {workers}: recovery must fire");
            let m = &report.outcome.metrics;
            assert_eq!(m.messages_dropped, m.messages_sent);
            assert_eq!(
                m.total_messages(),
                m.messages_sent - m.messages_dropped
                    + m.messages_duplicated
                    + m.messages_retransmitted,
                "workers {workers}: conservation"
            );
        }
    }

    #[test]
    fn sharded_run_rejects_unknown_recipient() {
        struct Misrouter;
        impl DistributedAgent for Misrouter {
            type Message = Gossip;
            fn id(&self) -> AgentId {
                AgentId::new(0)
            }
            fn on_start(&mut self, out: &mut Outbox<Gossip>) {
                out.send(AgentId::new(99), Gossip(Value::TRUE));
            }
            fn on_batch(&mut self, _: Vec<Envelope<Gossip>>, _: &mut Outbox<Gossip>) {}
            fn assignments(&self) -> Vec<VarValue> {
                Vec::new()
            }
            fn take_checks(&mut self) -> u64 {
                0
            }
            fn stats(&self) -> AgentStats {
                AgentStats::default()
            }
        }
        let problem = all_true_problem(1);
        let err = run_sharded(vec![Misrouter], &problem, &ShardConfig::new(2));
        assert_eq!(
            err.unwrap_err(),
            RuntimeError::UnknownRecipient {
                agent: AgentId::new(99)
            }
        );
    }

    #[test]
    fn degenerate_worker_counts_are_clamped() {
        let problem = all_true_problem(3);
        for workers in [0usize, 1, 64] {
            let report = run_sharded(ring(3), &problem, &ShardConfig::new(workers))
                .expect("runs on any worker count");
            assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        }
    }

    /// A ring agent that notes the thread it is dropped on.
    struct Witness {
        agent: RingAgent,
        dropped_on: Arc<Mutex<Vec<ThreadId>>>,
    }

    impl Drop for Witness {
        fn drop(&mut self) {
            if let Ok(mut threads) = self.dropped_on.lock() {
                threads.push(std::thread::current().id());
            }
        }
    }

    impl DistributedAgent for Witness {
        type Message = Gossip;
        fn id(&self) -> AgentId {
            self.agent.id()
        }
        fn on_start(&mut self, out: &mut Outbox<Gossip>) {
            self.agent.on_start(out);
        }
        fn on_batch(&mut self, inbox: Vec<Envelope<Gossip>>, out: &mut Outbox<Gossip>) {
            self.agent.on_batch(inbox, out);
        }
        fn on_nudge(&mut self, out: &mut Outbox<Gossip>) {
            self.agent.on_nudge(out);
        }
        fn assignments(&self) -> Vec<VarValue> {
            self.agent.assignments()
        }
        fn take_checks(&mut self) -> u64 {
            self.agent.take_checks()
        }
        fn stats(&self) -> AgentStats {
            self.agent.stats()
        }
    }

    #[test]
    fn agents_are_dropped_on_the_calling_thread() {
        let n = 3 * CHUNK + 7;
        let problem = all_true_problem(n);
        for workers in [1usize, 4] {
            let dropped_on = Arc::new(Mutex::new(Vec::new()));
            let agents = ring(n)
                .into_iter()
                .map(|agent| Witness {
                    agent,
                    dropped_on: Arc::clone(&dropped_on),
                })
                .collect();
            let report = run_sharded(agents, &problem, &ShardConfig::new(workers)).expect("runs");
            assert_eq!(report.outcome.metrics.termination, Termination::Solved);
            let threads = dropped_on.lock().expect("no poisoning").clone();
            assert_eq!(threads.len(), n, "workers {workers}: every agent dropped");
            let here = std::thread::current().id();
            assert!(
                threads.iter().all(|&t| t == here),
                "workers {workers}: an agent was dropped off the calling thread"
            );
        }
    }

    /// Runs the population `make` builds on `run_virtual` and on
    /// `run_sharded` at 1 and 4 workers, asserts the reports agree field
    /// by field (the trace up to its `RunEnd` stamp), and returns the
    /// virtual one.
    fn on_every_executor<A: DistributedAgent + Send>(
        make: impl Fn() -> Vec<A>,
        problem: &DistributedCsp,
        base: &VirtualConfig,
    ) -> VirtualReport {
        let reference = run_virtual(make(), problem, base).expect("virtual runs");
        for workers in [1usize, 4] {
            let config = ShardConfig::with_base(base.clone(), workers);
            let run = run_sharded(make(), problem, &config).expect("sharded runs");
            assert_eq!(run.outcome, reference.outcome, "workers {workers}");
            assert_eq!(run.ticks, reference.ticks, "workers {workers}");
            assert_eq!(run.activations, reference.activations, "workers {workers}");
            assert_eq!(run.nudges, reference.nudges, "workers {workers}");
            assert_eq!(run.fault_log, reference.fault_log, "workers {workers}");
            assert_eq!(
                strip_run_end(&run.trace),
                strip_run_end(&reference.trace),
                "workers {workers}: trace"
            );
        }
        reference
    }

    fn assert_conserved(m: &discsp_core::RunMetrics, label: &str) {
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
            "{label}: class counters must count exactly the enqueued copies"
        );
    }

    #[test]
    fn ring_converges_to_a_quiescent_solution_on_every_executor() {
        // Without `stop_on_first_solution`, `Solved` means the event
        // queue drained: the solution is stable.
        let problem = all_true_problem(5);
        let report = on_every_executor(|| ring(5), &problem, &VirtualConfig::default());
        let m = &report.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved);
        let sol = report.outcome.solution.as_ref().expect("solved");
        for i in 0..5 {
            assert_eq!(sol.get(VariableId::new(i)), Some(Value::TRUE));
        }
        // 5 start messages + 4 propagation messages (agent 0 never flips).
        assert_eq!(m.ok_messages, 9);
        assert_eq!(m.messages_sent, 9);
        assert_eq!(m.messages_dropped, 0);
        assert!(report.activations >= 5);
    }

    #[test]
    fn ring_solves_under_delay_and_reordering_on_every_executor() {
        // Uniform delay plays the role of activation jitter; the
        // reordering window lets later messages overtake earlier ones.
        let cases = [
            (4, LinkPolicy::delayed(0, 3), 7..8u64),
            (5, LinkPolicy::delayed(0, 3).with_reordering(2), 0..3u64),
        ];
        for (n, link, seeds) in cases {
            let problem = all_true_problem(n);
            for seed in seeds {
                let base = VirtualConfig {
                    seed,
                    link,
                    ..VirtualConfig::default()
                };
                let report = on_every_executor(|| ring(n), &problem, &base);
                assert_eq!(
                    report.outcome.metrics.termination,
                    Termination::Solved,
                    "n {n} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn stall_exhausts_the_nudge_budget_then_cuts_off_on_every_executor() {
        // Nobody holds `true`, so gossip quiesces at all-false, which is
        // not a solution; each nudge re-announces without changing state.
        let problem = all_true_problem(3);
        let all_false = || {
            let mut agents = ring(3);
            agents[0].value = Value::FALSE;
            agents
        };
        let config = VirtualConfig::default();
        let report = on_every_executor(all_false, &problem, &config);
        assert_eq!(report.outcome.metrics.termination, Termination::CutOff);
        assert!(report.outcome.solution.is_none());
        assert_eq!(
            report.nudges, config.max_nudges,
            "a perfect-link stall must exhaust recovery before cutoff"
        );
        assert!(
            report.ticks < config.max_ticks,
            "the stall must beat the tick budget"
        );
    }

    #[test]
    fn lossy_traces_audit_and_conserve_on_every_executor() {
        let problem = all_true_problem(4);
        let base = VirtualConfig {
            seed: 9,
            link: LinkPolicy::lossy(300_000).with_delay(0, 2),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = on_every_executor(|| ring(4), &problem, &base);
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Sent { .. })));
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { .. })));
        let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        assert_eq!(audit.metrics, report.outcome.metrics);

        // Drops, duplicates and delay on the same links at once.
        let problem = all_true_problem(5);
        let (mut dropped, mut duplicated, mut delayed) = (0u64, 0u64, 0u64);
        for seed in 0..4u64 {
            let base = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(250_000)
                    .with_duplication(250_000)
                    .with_delay(0, 3),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let report = on_every_executor(|| ring(5), &problem, &base);
            let m = &report.outcome.metrics;
            assert_eq!(m.termination, Termination::Solved, "seed {seed}");
            dropped += m.messages_dropped;
            duplicated += m.messages_duplicated;
            delayed += m.max_delivery_delay;
            assert_conserved(m, &format!("seed {seed}"));
            let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
            assert!(audit.passed(), "seed {seed}: {:?}", audit.failures);
        }
        assert!(
            dropped > 0 && duplicated > 0 && delayed > 0,
            "the seeds must exercise all three fault kinds \
             (dropped {dropped}, duplicated {duplicated}, max delay {delayed})"
        );
    }

    /// Agents that flood every peer; agent 0 declares the problem
    /// insoluble as soon as it has heard anything, while its peers are
    /// still mid-storm.
    struct StormAgent {
        id: AgentId,
        n: usize,
        budget: u32,
        heard: u32,
        insoluble_after: Option<u32>,
    }

    impl StormAgent {
        fn flood(&self, out: &mut Outbox<Gossip>) {
            for j in 0..self.n {
                if j != self.id.index() {
                    out.send(AgentId::new(j as u32), Gossip(Value::TRUE));
                }
            }
        }
    }

    impl DistributedAgent for StormAgent {
        type Message = Gossip;

        fn id(&self) -> AgentId {
            self.id
        }

        fn on_start(&mut self, out: &mut Outbox<Gossip>) {
            self.flood(out);
        }

        fn on_batch(&mut self, inbox: Vec<Envelope<Gossip>>, out: &mut Outbox<Gossip>) {
            self.heard += inbox.len() as u32;
            for _ in 0..inbox.len() {
                if self.budget == 0 {
                    break;
                }
                self.budget -= 1;
                self.flood(out);
            }
        }

        fn on_nudge(&mut self, out: &mut Outbox<Gossip>) {
            if self.budget > 0 {
                self.budget -= 1;
                self.flood(out);
            }
        }

        fn detected_insoluble(&self) -> bool {
            matches!(self.insoluble_after, Some(k) if self.heard >= k)
        }

        fn assignments(&self) -> Vec<VarValue> {
            Vec::new()
        }

        fn take_checks(&mut self) -> u64 {
            0
        }

        fn stats(&self) -> AgentStats {
            AgentStats::default()
        }
    }

    #[test]
    fn insoluble_mid_storm_keeps_conservation_on_every_executor() {
        let problem = all_true_problem(3);
        let storm = || -> Vec<StormAgent> {
            (0..3)
                .map(|i| StormAgent {
                    id: AgentId::new(i as u32),
                    n: 3,
                    budget: 200,
                    heard: 0,
                    insoluble_after: (i == 0).then_some(1),
                })
                .collect()
        };
        for seed in 0..4u64 {
            let base = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(200_000)
                    .with_duplication(200_000)
                    .with_delay(0, 2),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let report = on_every_executor(storm, &problem, &base);
            let m = &report.outcome.metrics;
            assert_eq!(m.termination, Termination::Insoluble, "seed {seed}");
            assert_conserved(m, &format!("seed {seed}"));
            let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
            assert!(audit.passed(), "seed {seed}: {:?}", audit.failures);
        }
    }
}
