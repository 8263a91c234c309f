//! The M:N sharded event-loop executor: `run_virtual`'s semantics on
//! worker threads.
//!
//! `run_async` spawns one OS thread per agent, which caps realistic runs
//! at a few thousand agents. [`run_sharded`] keeps the deterministic
//! virtual-time semantics of [`run_virtual`](crate::run_virtual) but
//! executes agent activations on a fixed pool of worker threads: agents
//! live in slab-pooled per-shard arenas ([`Slab`]), each worker owns one
//! shard and drains its agents' mailbox batches, and the coordinator
//! thread runs the [`WaveEngine`], which owns the single [`Router`].
//! This module is only the engine's shard-pool [`Stepper`].
//!
//! **Why determinism survives M:N.** The coordinator runs the same
//! engine as `run_virtual`, so the start wave, quiescence check, nudge
//! recovery, tick bookkeeping, and cut-off rules are not copies but the
//! same code. Each wave is partitioned across shards by the seed-derived
//! [`ShardPlan`]; workers return one buffered [`StepOutput`] per
//! activated agent (checks, assignments, trace events, outbound
//! envelopes), and the pool hands those outputs to the engine in
//! **ascending agent-id order**, the order every stepper owes it. So the
//! router consumes every per-link fault stream in the same order, the
//! trace interleaves identically, and the report is bit-identical to
//! `run_virtual` for *any* worker count. The shard partition and each
//! shard's internal drain order are themselves pure functions of the run
//! seed, so even thread-interleaving-visible state (per-shard
//! [`StepRecorder`] memories) is replayed exactly.
//!
//! Trace recording under shard batching stays per-agent-correct: every
//! worker records through its own scratch [`RingBuffer`] and tags each
//! event with the wave's tick passed down in the job — a batch that
//! drains just before a nudge wave can never smear its events into the
//! nudge's tick, because ticks travel with jobs, not with threads.
//!
//! [`Router`]: crate::Router

use std::sync::mpsc::{channel, Receiver, Sender};

use discsp_core::{AgentId, DistributedCsp, VarValue};
use discsp_trace::{RingBuffer, RuntimeKind, TraceEvent, TraceSink};

use crate::agent::{check_dense_ids, AgentStats, DistributedAgent, Outbox};
use crate::engine::{Admission, Direct, Merge, Stepper, Teardown, Wave, WaveEngine};
use crate::error::RuntimeError;
use crate::link::{VirtualConfig, VirtualReport};
use crate::message::{Classify, Envelope};
use crate::pool::{ShardPlan, Slab};
use crate::recorder::StepRecorder;

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

/// One shard's delivery batch for a wave: `(slot, messages)` pairs in
/// ascending slot order.
type SlotInboxes<M> = Vec<(usize, Vec<Envelope<M>>)>;

/// One wave of work for a shard worker. Ticks travel with the job so a
/// worker can never stamp events with a stale wave's tick.
enum Job<M> {
    /// Run `on_start`, or `on_nudge` when `nudge` is set, for every agent
    /// in the shard.
    Everyone { tick: u64, nudge: bool },
    /// Deliver inbox batches: `(slot, messages)` pairs.
    Batch { tick: u64, inboxes: SlotInboxes<M> },
    /// Report leftover checks and final stats; the shard empties.
    Finish,
}

/// The buffered result of one agent activation, or of an agent's
/// teardown (leftover `checks` and `stats`), merged id-sorted.
struct StepOutput<M> {
    agent: u32,
    checks: u64,
    insoluble: bool,
    assignments: Vec<VarValue>,
    events: Vec<TraceEvent>,
    outbox: Vec<Envelope<M>>,
    stats: AgentStats,
}

/// A worker-owned shard: a slab arena of agents plus the shard's private
/// recorder state. Slot order (0..len) is the seed-derived drain order
/// fixed by the [`ShardPlan`].
struct ShardWorker<A: DistributedAgent> {
    agents: Slab<A>,
    slots: usize,
    recorder: StepRecorder,
    scratch: RingBuffer,
}

impl<A: DistributedAgent> ShardWorker<A> {
    fn run(
        mut self,
        jobs: Receiver<Job<A::Message>>,
        replies: Sender<Vec<StepOutput<A::Message>>>,
    ) {
        while let Ok(job) = jobs.recv() {
            let reply = match job {
                Job::Everyone { tick, nudge } => {
                    let mut outputs = Vec::with_capacity(self.slots);
                    for slot in 0..self.slots {
                        outputs.extend(self.activate(slot, tick, |agent, out| {
                            if nudge {
                                agent.on_nudge(out);
                            } else {
                                agent.on_start(out);
                            }
                        }));
                    }
                    outputs
                }
                Job::Batch { tick, mut inboxes } => {
                    inboxes.sort_unstable_by_key(|&(slot, _)| slot);
                    let mut outputs = Vec::with_capacity(inboxes.len());
                    for (slot, inbox) in inboxes {
                        outputs.extend(
                            self.activate(slot, tick, |agent, out| agent.on_batch(inbox, out)),
                        );
                    }
                    outputs
                }
                Job::Finish => self.finish(),
            };
            if replies.send(reply).is_err() {
                return;
            }
        }
    }

    /// Runs one activation of the agent in `slot` and packages its
    /// output, its step events recorded through the shard's recorder.
    fn activate(
        &mut self,
        slot: usize,
        tick: u64,
        act: impl FnOnce(&mut A, &mut Outbox<A::Message>),
    ) -> Option<StepOutput<A::Message>> {
        let agent = self.agents.get_mut(slot)?;
        let mut out = Outbox::new(agent.id());
        act(agent, &mut out);
        let checks = agent.take_checks();
        self.recorder
            .record_step(agent, tick, checks, &mut self.scratch);
        Some(StepOutput {
            agent: agent.id().raw(),
            checks,
            insoluble: agent.detected_insoluble(),
            assignments: agent.assignments(),
            events: self.scratch.take(),
            outbox: out.drain(),
            stats: AgentStats::default(),
        })
    }

    /// Removes every agent from the arena, reporting its leftover checks
    /// and final stats.
    fn finish(&mut self) -> Vec<StepOutput<A::Message>> {
        let mut outputs = Vec::with_capacity(self.agents.len());
        for slot in 0..self.slots {
            let Some(mut agent) = self.agents.remove(slot) else {
                continue;
            };
            outputs.push(StepOutput {
                agent: agent.id().raw(),
                checks: agent.take_checks(),
                insoluble: false,
                assignments: Vec::new(),
                events: Vec::new(),
                outbox: Vec::new(),
                stats: agent.stats(),
            });
        }
        outputs
    }
}

/// One shard's coordinator-side handle.
struct ShardHandle<M> {
    jobs: Sender<Job<M>>,
    replies: Receiver<Vec<StepOutput<M>>>,
}

/// The engine's shard-pool stepper.
struct ShardPool<M> {
    shards: Vec<ShardHandle<M>>,
    plan: ShardPlan,
}

impl<M> ShardPool<M> {
    /// Sends one job per shard and collects the merged, id-sorted
    /// outputs. `make` is called once per shard index; shards receiving
    /// `None` are skipped (a delivery wave only wakes shards that got
    /// mail).
    fn run_wave(
        &self,
        mut make: impl FnMut(usize) -> Option<Job<M>>,
    ) -> Result<Vec<StepOutput<M>>, RuntimeError> {
        let died = |shard| RuntimeError::ShardWorkerDied { shard };
        let mut involved = Vec::with_capacity(self.shards.len());
        for (index, shard) in self.shards.iter().enumerate() {
            if let Some(job) = make(index) {
                shard.jobs.send(job).map_err(|_| died(index))?;
                involved.push((index, shard));
            }
        }
        let mut outputs = Vec::new();
        for (index, shard) in involved {
            outputs.extend(shard.replies.recv().map_err(|_| died(index))?);
        }
        outputs.sort_unstable_by_key(|o| o.agent);
        Ok(outputs)
    }
}

impl<M: Classify + Clone> Stepper<M> for ShardPool<M> {
    type Error = RuntimeError;

    fn step<G: Admission<M>>(
        &mut self,
        wave: Wave<M>,
        merge: &mut Merge<'_, M, G>,
    ) -> Result<(), RuntimeError> {
        let tick = merge.tick();
        let outputs = match wave {
            Wave::Start => self.run_wave(|_| Some(Job::Everyone { tick, nudge: false }))?,
            Wave::Nudge => self.run_wave(|_| Some(Job::Everyone { tick, nudge: true }))?,
            Wave::Deliver(inboxes) => {
                // Partition the inboxes to their shards; each shard
                // drains its part in parallel.
                let mut per_shard: Vec<SlotInboxes<M>> =
                    (0..self.shards.len()).map(|_| Vec::new()).collect();
                for (recipient, inbox) in inboxes {
                    let (shard, slot) = self.plan.placement_of(recipient);
                    if let Some(bucket) = per_shard.get_mut(shard) {
                        bucket.push((slot, inbox));
                    }
                }
                self.run_wave(|index| match per_shard.get_mut(index) {
                    Some(bucket) if !bucket.is_empty() => Some(Job::Batch {
                        tick,
                        inboxes: std::mem::take(bucket),
                    }),
                    _ => None,
                })?
            }
        };
        for output in outputs {
            let events = output.events;
            merge.activation(
                output.checks,
                output.insoluble,
                output.assignments,
                |sink| {
                    for event in events {
                        sink.record(event);
                    }
                },
                output.outbox,
            )?;
        }
        Ok(())
    }

    fn finish(&mut self, teardown: &mut Teardown<'_>) -> Result<(), RuntimeError> {
        for output in self.run_wave(|_| Some(Job::Finish))? {
            teardown.agent(AgentId::new(output.agent), output.checks, output.stats);
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
/// therefore identical across any two worker counts.
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
    // Deal the agents into per-shard slab arenas in plan (drain) order;
    // sequential insertion into an empty slab makes slot == drain rank.
    let mut by_id: Vec<Option<A>> = agents.into_iter().map(Some).collect();
    let mut arenas = Vec::with_capacity(plan.workers());
    for shard in 0..plan.workers() {
        let members = plan.members(shard);
        let mut arena = Slab::with_capacity(members.len());
        for &agent_id in members {
            if let Some(agent) = by_id.get_mut(agent_id).and_then(Option::take) {
                arena.insert(agent);
            }
        }
        arenas.push(arena);
    }
    drop(by_id);
    let engine = WaveEngine::new(n, problem, base, RuntimeKind::Sharded, Direct);

    std::thread::scope(|scope| {
        let mut shards = Vec::with_capacity(arenas.len());
        for arena in arenas {
            let (job_tx, job_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            let worker = ShardWorker {
                slots: arena.len(),
                agents: arena,
                recorder: StepRecorder::new(),
                scratch: if base.record_trace {
                    RingBuffer::new()
                } else {
                    RingBuffer::disabled()
                },
            };
            scope.spawn(move || worker.run(job_rx, reply_tx));
            shards.push(ShardHandle {
                jobs: job_tx,
                replies: reply_rx,
            });
        }
        engine.run(problem, &mut ShardPool { shards, plan })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_true_problem, ring, Gossip};
    use crate::link::{run_virtual, LinkPolicy};
    use crate::PPM;
    use discsp_core::{Termination, Value};

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
}
