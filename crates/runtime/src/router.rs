//! The deterministic message router shared by the virtual, sharded and
//! service executors and the TCP coordinator.
//!
//! [`Router`] owns the event queue, the lazily built [`Link`] table, the
//! parked (dropped-message) recovery buffers, and the per-class message
//! counters. Sharing it lets `discsp-net` relay frames between OS processes through *exactly* the
//! same fault lottery and delivery ordering as the in-process virtual
//! runtime: as long as callers issue `route`/`flush_parked`/`take_due`
//! in the same order, the per-link [`SplitMix64`](crate::SplitMix64)
//! streams are consumed identically and every fault counter replays
//! bit-for-bit from `(seed, policy)` — whether the agents live in this
//! process or behind a socket.
//!
//! Every message of a run passes through one router on the
//! coordinator's thread, so its structures are sized to the traffic:
//! the queue is one `Vec` bucket per due tick, each link lives in a
//! short row per sender, and [`Router::take_due`] hands back a `Vec` of
//! exactly sized per-recipient inboxes. Routing a message is a row
//! lookup and a push; delivering a tick is one sort of its bucket (none
//! in send order, where the bucket already is in delivery order). When
//! every link is perfect there is no link state at all: the router
//! counts the sends itself, and a message costs one push.
//!
//! The router also owns the link-layer half of the trace: it records
//! `Sent` at the moment a message enters its link (mirroring the
//! `sent` counter), `Fault` for every lottery outcome — including the
//! delay/reorder faults injected on the *retransmission* path — and
//! `Delivered` when a copy leaves the queue. Executors interleave their
//! agent-step events into the same [`RingBuffer`] via [`Router::sink`],
//! so one buffer holds the whole run in emission order.

use std::collections::BTreeMap;

use discsp_core::AgentId;
use discsp_trace::{FaultKind, RingBuffer, TraceEvent, TraceSink};

use crate::error::RuntimeError;
use crate::link::{derive_link_seed, Deliveries, Link, LinkPolicy, LinkStats, RouteDecision};
use crate::message::{Classify, Envelope, MessageClass};
use crate::schedule::{FaultEvent, FaultSchedule};
use crate::seed::SplitMix64;

/// Derives the directed link's same-tick delivery rank. Independent of
/// the link's fault stream (different mixing constants), constant per
/// link, and a pure function of `(run_seed, from, to)`.
fn derive_order_rank(run_seed: u64, index: u64) -> u64 {
    SplitMix64::new(run_seed ^ 0x6A09_E667_F3BC_C909u64.wrapping_mul(index.wrapping_add(1)))
        .next_u64()
}

/// How a router materializes the link for an ordered agent pair the
/// first time traffic touches it.
#[derive(Debug)]
enum LinkMode {
    /// Every link follows one policy; its stream seed is a pure function
    /// of `(run_seed, from, to)`. Perfect links are never built.
    Lottery(LinkPolicy),
    /// Links replay an explicit schedule; unscripted calls deliver
    /// perfectly.
    Scripted(FaultSchedule),
}

/// One queued message copy with its same-tick sort key.
#[derive(Debug)]
struct Queued<M> {
    /// Its link's same-tick delivery rank.
    rank: u64,
    /// Router-wide enqueue sequence number.
    seq: u64,
    env: Envelope<M>,
}

/// A materialized link in its sender's row.
#[derive(Debug)]
struct LinkSlot {
    to: AgentId,
    link: Link,
}

/// Deterministic routing/enqueue state: event queue, lazily materialized
/// link table, parked drops, and message-class counters.
///
/// Delivery order is total and deterministic: messages due the same tick
/// drain in `(link_rank, enqueue_seq)` order, where `link_rank` is a
/// seed-derived constant per directed link. They therefore drain in an
/// order that is a pure function of the run seed — identical across
/// reruns and independent of the order in which links happened to
/// enqueue them — while two same-tick messages on the *same* link keep
/// their send order (per-link FIFO; the explicit reordering window is the
/// only way a link reorders its own traffic). A `Router::send_order`
/// router ranks every link alike, so same-tick messages drain in global
/// send order instead, the way the paper's synchronous system fills its
/// inboxes.
///
/// The queue holds one bucket per due tick, in enqueue order; each entry
/// carries its link's rank and its enqueue seq. [`Router::take_due`]
/// sorts the one due bucket by `(recipient, link_rank, enqueue_seq)` and
/// cuts it into per-recipient inboxes; in send order the bucket is
/// already in delivery order, so it deals the copies out unsorted.
///
/// Faulty and scripted links are created on first use rather than as an
/// n×n matrix, in a row per sender sorted by recipient: a link's fault
/// stream ([`derive_link_seed`]) and its same-tick rank
/// (`derive_order_rank`, derived on each send) are pure functions of
/// `(run_seed, from, to)`, so lazy creation is replay-transparent while
/// keeping memory proportional to the links actually exercised — for a
/// degree-bounded constraint graph that is O(agents), not O(agents²).
/// Perfect links are never created: a perfect link's only state is its
/// `sent` counter, which the router keeps for all of them at once.
#[derive(Debug)]
pub struct Router<M> {
    /// In-flight copies: one bucket per due tick, each in enqueue order.
    /// No bucket is ever empty, so the first key is the next due tick.
    queue: BTreeMap<u64, Vec<Queued<M>>>,
    /// Links touched so far: row `from` holds its links sorted by
    /// recipient. No rows at all when every link is perfect.
    links: Vec<Vec<LinkSlot>>,
    mode: LinkMode,
    /// Dropped messages parked per sending agent, in drop order.
    parked: BTreeMap<usize, Vec<Envelope<M>>>,
    n: usize,
    run_seed: u64,
    /// Every link ranks alike, so same-tick copies drain in enqueue
    /// order, and `take_due` hands back an inbox for every agent.
    send_order: bool,
    seq: u64,
    /// Sends over perfect links, which keep no counters of their own.
    perfect_sent: u64,
    ok_messages: u64,
    nogood_messages: u64,
    other_messages: u64,
    sink: RingBuffer,
}

impl<M: Classify + Clone> Router<M> {
    /// Creates the router for `n` agents, every directed link following
    /// `policy` with its stream derived from `run_seed` via
    /// [`derive_link_seed`].
    pub fn new(n: usize, policy: LinkPolicy, run_seed: u64, record_trace: bool) -> Self {
        Router::build(n, run_seed, record_trace, LinkMode::Lottery(policy), false)
    }

    /// [`Router::new`], except that messages due the same tick drain in
    /// the order they were sent, whatever their links (every link gets
    /// the same same-tick rank), and that [`Router::take_due`] hands
    /// back an inbox for every agent. That is how the paper's
    /// synchronous system fills its inboxes and runs its agents, so the
    /// engine's lockstep configuration routes through it.
    pub(crate) fn send_order(
        n: usize,
        policy: LinkPolicy,
        run_seed: u64,
        record_trace: bool,
    ) -> Self {
        Router::build(n, run_seed, record_trace, LinkMode::Lottery(policy), true)
    }

    /// Creates a router whose links replay `schedule` exactly: the k-th
    /// call on link `from → to` suffers the scripted action, every other
    /// message delivers perfectly, and no fault lottery exists. The
    /// `run_seed` still fixes the same-tick delivery order, so a
    /// recorded fault log replays its originating run under the seed
    /// that produced it.
    pub fn scripted(n: usize, schedule: &FaultSchedule, run_seed: u64, record_trace: bool) -> Self {
        let mode = LinkMode::Scripted(schedule.clone());
        Router::build(n, run_seed, record_trace, mode, false)
    }

    fn build(
        n: usize,
        run_seed: u64,
        record_trace: bool,
        mode: LinkMode,
        send_order: bool,
    ) -> Self {
        let rows = match mode {
            LinkMode::Lottery(policy) if policy.is_perfect() => 0,
            _ => n,
        };
        Router {
            queue: BTreeMap::new(),
            links: (0..rows).map(|_| Vec::new()).collect(),
            mode,
            parked: BTreeMap::new(),
            n,
            run_seed,
            send_order,
            seq: 0,
            perfect_sent: 0,
            ok_messages: 0,
            nogood_messages: 0,
            other_messages: 0,
            sink: if record_trace {
                RingBuffer::new()
            } else {
                RingBuffer::disabled()
            },
        }
    }

    /// The link `from → to`, materialized on first touch; `from` must be
    /// a member of the population, and the links must not be perfect.
    /// Creation order cannot perturb replay: the link's stream seed is a
    /// pure function of `(run_seed, from, to)`, not of when the link
    /// first saw traffic.
    fn link_mut(&mut self, from: AgentId, to: AgentId) -> &mut Link {
        let row = &mut self.links[from.index()];
        let at = match row.binary_search_by_key(&to, |slot| slot.to) {
            Ok(at) => at,
            Err(at) => {
                let link = match &self.mode {
                    LinkMode::Lottery(policy) => {
                        Link::new(*policy, derive_link_seed(self.run_seed, from, to))
                    }
                    LinkMode::Scripted(schedule) => Link::scripted(schedule.actions_for(from, to)),
                };
                row.insert(at, LinkSlot { to, link });
                at
            }
        };
        &mut row[at].link
    }

    /// The same-tick delivery rank of the link `from → to`.
    fn rank(&self, from: AgentId, to: AgentId) -> u64 {
        if self.send_order {
            return 0;
        }
        derive_order_rank(self.run_seed, (from.index() * self.n + to.index()) as u64)
    }

    fn enqueue(&mut self, due: u64, rank: u64, env: Envelope<M>) {
        match env.payload.class() {
            MessageClass::Ok => self.ok_messages += 1,
            MessageClass::Nogood => self.nogood_messages += 1,
            MessageClass::Other => self.other_messages += 1,
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue
            .entry(due)
            .or_default()
            .push(Queued { rank, seq, env });
    }

    /// Routes one freshly sent envelope through its link at time `now`,
    /// recording a `Sent` trace event exactly where the link's `sent`
    /// counter increments (unknown recipients error out before either).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownRecipient`] when the envelope addresses an
    /// agent outside the population.
    pub fn route(&mut self, now: u64, env: Envelope<M>) -> Result<(), RuntimeError> {
        if env.to.index() >= self.n || env.from.index() >= self.n {
            return Err(RuntimeError::UnknownRecipient { agent: env.to });
        }
        let rank = self.rank(env.from, env.to);
        // No rows: every link is perfect and keeps no state.
        let decision = if self.links.is_empty() {
            self.perfect_sent += 1;
            RouteDecision {
                deliveries: Deliveries::Once(now + 1),
                faults: Vec::new(),
            }
        } else {
            self.link_mut(env.from, env.to).route(now)
        };
        if self.sink.enabled() {
            self.sink.record(TraceEvent::Sent {
                cycle: now,
                from: env.from,
                to: env.to,
                class: env.payload.class(),
            });
            for &kind in &decision.faults {
                self.sink.record(TraceEvent::Fault {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                    kind,
                });
            }
        }
        let Some((&last, earlier)) = decision.deliveries.as_slice().split_last() else {
            self.parked.entry(env.from.index()).or_default().push(env);
            return Ok(());
        };
        for &due in earlier {
            self.enqueue(due, rank, env.clone());
        }
        self.enqueue(last, rank, env);
        Ok(())
    }

    /// Re-enqueues every parked (dropped) message, in sender order.
    /// Returns how many were flushed. The retransmission and any
    /// delay/reorder faults the link injects on the second pass are all
    /// recorded — the audit counts every fault event against the link
    /// counters, so none may be dropped on the recovery path.
    pub fn flush_parked(&mut self, now: u64) -> usize {
        let mut flushed = 0;
        // BTreeMap key order = ascending sender id, the same order the
        // dense per-sender buckets used to flush in.
        for (_, bucket) in std::mem::take(&mut self.parked) {
            for env in bucket {
                let rank = self.rank(env.from, env.to);
                let (due, faults) = self.link_mut(env.from, env.to).redeliver(now);
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::Fault {
                        cycle: now,
                        from: env.from,
                        to: env.to,
                        class: env.payload.class(),
                        kind: FaultKind::Retransmitted,
                    });
                    for kind in faults {
                        self.sink.record(TraceEvent::Fault {
                            cycle: now,
                            from: env.from,
                            to: env.to,
                            class: env.payload.class(),
                            kind,
                        });
                    }
                }
                self.enqueue(due, rank, env);
                flushed += 1;
            }
        }
        flushed
    }

    /// The due tick of the earliest queued message, if any.
    pub fn next_due(&self) -> Option<u64> {
        self.queue.keys().next().copied()
    }

    /// Whether the in-flight set (queue) is empty. The queue *is* the
    /// in-flight set, so an empty queue means the captured assignment
    /// snapshot is a consistent global state.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    /// Removes every message due exactly at `due`, recording `Delivered`
    /// trace events at cycle `tick` in the seed-derived
    /// `(link_rank, enqueue_seq)` order. Returns one inbox per recipient
    /// in ascending recipient order, each allocated at its exact size
    /// and holding its copies in that same `(link_rank, enqueue_seq)`
    /// order. A send-order router returns an inbox for every agent
    /// instead, in agent order, empty where nothing is due: the paper's
    /// synchronous system runs every agent every cycle.
    pub fn take_due(&mut self, due: u64, tick: u64) -> Vec<(usize, Vec<Envelope<M>>)> {
        let mut bucket = self.queue.remove(&due).unwrap_or_default();
        if self.sink.enabled() {
            let mut order: Vec<&Queued<M>> = bucket.iter().collect();
            order.sort_unstable_by_key(|q| (q.rank, q.seq));
            for q in order {
                self.sink.record(TraceEvent::Delivered {
                    cycle: tick,
                    from: q.env.from,
                    to: q.env.to,
                    class: q.env.payload.class(),
                });
            }
        }
        if self.send_order {
            // Every link ranks alike, so enqueue order is delivery order:
            // deal the copies out to their recipients' inboxes.
            let mut inboxes: Vec<_> = (0..self.n).map(|agent| (agent, Vec::new())).collect();
            for q in bucket {
                inboxes[q.env.to.index()].1.push(q.env);
            }
            return inboxes;
        }
        bucket.sort_unstable_by_key(|q| (q.env.to, q.rank, q.seq));
        let recipients = bucket.chunk_by(|a, b| a.env.to == b.env.to).count();
        let mut inboxes = Vec::with_capacity(recipients);
        let mut entries = bucket.into_iter();
        while let Some(first) = entries.next() {
            let to = first.env.to;
            let more = entries
                .as_slice()
                .iter()
                .take_while(|q| q.env.to == to)
                .count();
            let mut inbox = Vec::with_capacity(1 + more);
            inbox.push(first.env);
            inbox.extend(entries.by_ref().take(more).map(|q| q.env));
            inboxes.push((to.index(), inbox));
        }
        inboxes
    }

    /// Per-class counts of enqueued message copies:
    /// `(ok, nogood, other)`.
    pub fn class_counts(&self) -> (u64, u64, u64) {
        (self.ok_messages, self.nogood_messages, self.other_messages)
    }

    /// Number of message copies still queued (in flight). Parked drops
    /// are *not* in flight — they were already counted as dropped.
    pub fn queued(&self) -> u64 {
        self.queue.values().map(|bucket| bucket.len() as u64).sum()
    }

    /// Fault counters summed over every link touched so far (untouched
    /// links have all-zero counters by definition).
    pub fn link_totals(&self) -> LinkStats {
        let mut totals = LinkStats {
            sent: self.perfect_sent,
            ..LinkStats::default()
        };
        for slot in self.links.iter().flatten() {
            totals.absorb(slot.link.stats);
        }
        totals
    }

    /// Every fault any link actually injected, assembled into a
    /// replayable [`FaultSchedule`]. Feeding it to [`Router::scripted`]
    /// under the same run seed replays this router's behavior exactly.
    pub fn fault_log(&self) -> FaultSchedule {
        let mut events = Vec::new();
        for (from, row) in self.links.iter().enumerate() {
            let from = AgentId::new(from as u32);
            for slot in row {
                for &(call, action) in slot.link.fault_log() {
                    events.push(FaultEvent {
                        from,
                        to: slot.to,
                        call,
                        action,
                    });
                }
            }
        }
        FaultSchedule::new(events)
    }

    /// The trace sink. Executors record their agent-step events here so
    /// the whole run lands in one buffer in emission order.
    pub fn sink(&mut self) -> &mut RingBuffer {
        &mut self.sink
    }

    /// Takes the recorded trace (empty unless trace recording is on).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.sink.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Value;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Note(Value);

    impl Classify for Note {
        fn class(&self) -> MessageClass {
            MessageClass::Ok
        }
    }

    fn env(from: u32, to: u32) -> Envelope<Note> {
        Envelope {
            from: AgentId::new(from),
            to: AgentId::new(to),
            payload: Note(Value::new(0)),
        }
    }

    #[test]
    fn perfect_router_delivers_next_tick_in_order() {
        let mut router: Router<Note> = Router::new(3, LinkPolicy::perfect(), 0, false);
        router.route(0, env(0, 1)).expect("routes");
        router.route(0, env(1, 2)).expect("routes");
        assert_eq!(router.next_due(), Some(1));
        assert!(!router.is_quiescent());
        assert_eq!(router.queued(), 2);
        let inboxes = router.take_due(1, 1);
        assert_eq!(inboxes.len(), 2);
        assert!(router.is_quiescent());
        assert_eq!(router.queued(), 0);
        assert_eq!(router.class_counts(), (2, 0, 0));
        assert_eq!(router.link_totals().sent, 2);
    }

    #[test]
    fn dropped_messages_park_and_flush() {
        let mut router: Router<Note> = Router::new(2, LinkPolicy::lossy(crate::PPM), 7, false);
        router.route(0, env(0, 1)).expect("routes");
        assert!(router.is_quiescent(), "drop leaves the queue empty");
        assert_eq!(router.flush_parked(1), 1);
        assert!(!router.is_quiescent());
        let totals = router.link_totals();
        assert_eq!(totals.dropped, 1);
        assert_eq!(totals.retransmitted, 1);
    }

    #[test]
    fn unknown_recipient_is_an_error() {
        let mut router: Router<Note> = Router::new(2, LinkPolicy::perfect(), 0, false);
        let err = router.route(0, env(0, 9)).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::UnknownRecipient {
                agent: AgentId::new(9)
            }
        );
    }

    #[test]
    fn two_routers_fed_identically_agree() {
        let policy = LinkPolicy::lossy(300_000)
            .with_delay(0, 3)
            .with_duplication(100_000);
        let mut a: Router<Note> = Router::new(3, policy, 42, false);
        let mut b: Router<Note> = Router::new(3, policy, 42, false);
        for now in 0..50 {
            for (from, to) in [(0, 1), (1, 2), (2, 0)] {
                a.route(now, env(from, to)).expect("routes");
                b.route(now, env(from, to)).expect("routes");
            }
        }
        assert_eq!(a.class_counts(), b.class_counts());
        assert_eq!(a.link_totals(), b.link_totals());
    }

    #[test]
    fn same_tick_order_is_seed_derived_and_insertion_independent() {
        // Property (satellite of the explorer work): messages due the
        // same tick drain in an order that is a pure function of the run
        // seed — identical across reruns, independent of the order the
        // links enqueued them — while same-link messages keep FIFO.
        use crate::seed::SplitMix64;

        let n = 4;
        // Every ordered pair sends once at now = 0; all due tick 1.
        let sends: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|f| (0..n as u32).filter(move |&t| t != f).map(move |t| (f, t)))
            .collect();

        let drain = |order: &[usize], seed: u64| -> Vec<(AgentId, AgentId)> {
            let mut router: Router<Note> = Router::new(n, LinkPolicy::perfect(), seed, true);
            for &i in order {
                let (f, t) = sends[i];
                router.route(0, env(f, t)).expect("routes");
            }
            router.take_due(1, 1);
            router
                .take_trace()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Delivered { from, to, .. } => Some((from, to)),
                    _ => None,
                })
                .collect()
        };

        let forward: Vec<usize> = (0..sends.len()).collect();
        let mut shuffled = forward.clone();
        let mut rng = SplitMix64::new(99);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        assert_ne!(forward, shuffled, "the shuffle must actually permute");

        let mut distinct_orders = Vec::new();
        for seed in 0..8u64 {
            let a = drain(&forward, seed);
            let b = drain(&shuffled, seed);
            let c = drain(&forward, seed);
            assert_eq!(a, c, "seed {seed}: rerun-identical");
            assert_eq!(a, b, "seed {seed}: insertion-order-independent");
            if !distinct_orders.contains(&a) {
                distinct_orders.push(a);
            }
        }
        assert!(
            distinct_orders.len() > 1,
            "the order must genuinely depend on the seed"
        );

        // Same-link FIFO: two messages on one link due the same tick
        // keep their send order under every seed.
        for seed in 0..8u64 {
            let mut router: Router<Note> = Router::new(2, LinkPolicy::perfect(), seed, false);
            router
                .route(
                    0,
                    Envelope {
                        from: AgentId::new(0),
                        to: AgentId::new(1),
                        payload: Note(Value::new(1)),
                    },
                )
                .expect("routes");
            router
                .route(
                    0,
                    Envelope {
                        from: AgentId::new(0),
                        to: AgentId::new(1),
                        payload: Note(Value::new(2)),
                    },
                )
                .expect("routes");
            let inboxes = router.take_due(1, 1);
            let [(1, inbox)] = inboxes.as_slice() else {
                panic!("seed {seed}: only recipient 1 has mail");
            };
            let values: Vec<_> = inbox.iter().map(|e| e.payload.0).collect();
            assert_eq!(values, vec![Value::new(1), Value::new(2)], "seed {seed}");
        }
    }

    #[test]
    fn scripted_router_replays_a_recorded_log() {
        let policy = LinkPolicy::lossy(400_000)
            .with_duplication(200_000)
            .with_delay(0, 3);
        let mut original: Router<Note> = Router::new(3, policy, 11, false);
        for now in 0..30 {
            for (from, to) in [(0, 1), (1, 2), (2, 0)] {
                original.route(now, env(from, to)).expect("routes");
            }
            if now % 10 == 9 {
                original.flush_parked(now);
            }
        }
        let log = original.fault_log();
        assert!(!log.is_empty());

        let mut replay: Router<Note> = Router::scripted(3, &log, 11, false);
        for now in 0..30 {
            for (from, to) in [(0, 1), (1, 2), (2, 0)] {
                replay.route(now, env(from, to)).expect("routes");
            }
            if now % 10 == 9 {
                replay.flush_parked(now);
            }
        }
        assert_eq!(original.link_totals(), replay.link_totals());
        assert_eq!(original.class_counts(), replay.class_counts());
        assert_eq!(original.queued(), replay.queued());
        assert_eq!(original.fault_log(), replay.fault_log());
    }

    #[test]
    fn trace_accounts_for_every_send_and_recovery_fault() {
        // Links that always drop and then pay a delay on retransmission:
        // the recovery path's Delayed faults must appear in the trace,
        // not just in the counters.
        let policy = LinkPolicy::lossy(crate::PPM).with_delay(2, 2);
        let mut router: Router<Note> = Router::new(2, policy, 3, true);
        router.route(0, env(0, 1)).expect("routes");
        router.route(0, env(1, 0)).expect("routes");
        assert_eq!(router.flush_parked(1), 2);
        let trace = router.take_trace();
        let count = |pred: &dyn Fn(&TraceEvent) -> bool| trace.iter().filter(|e| pred(e)).count();
        assert_eq!(count(&|e| matches!(e, TraceEvent::Sent { .. })), 2);
        assert_eq!(
            count(&|e| matches!(
                e,
                TraceEvent::Fault {
                    kind: FaultKind::Dropped,
                    ..
                }
            )),
            2
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                TraceEvent::Fault {
                    kind: FaultKind::Retransmitted,
                    ..
                }
            )),
            2
        );
        assert_eq!(
            count(&|e| matches!(
                e,
                TraceEvent::Fault {
                    kind: FaultKind::Delayed(2),
                    ..
                }
            )),
            2,
            "retransmission-path delays are recorded"
        );
    }

    // -- differential test against the pre-bucket queue -----------------

    /// A payload that spreads messages over all three classes and makes
    /// every copy identifiable.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tagged(u64);

    impl Classify for Tagged {
        fn class(&self) -> MessageClass {
            match self.0 % 3 {
                0 => MessageClass::Ok,
                1 => MessageClass::Nogood,
                _ => MessageClass::Other,
            }
        }
    }

    /// Reference model: the router as it was before due-tick buckets,
    /// with one `BTreeMap` queue keyed by `(due, link_rank, enqueue_seq)`
    /// and links keyed by `from * n + to`, rank derived per enqueue
    /// (zero for every link in send order). Every link, perfect or not,
    /// is a `Link` of its own.
    struct Reference {
        queue: BTreeMap<(u64, u64, u64), Envelope<Tagged>>,
        links: BTreeMap<usize, Link>,
        mode: LinkMode,
        parked: BTreeMap<usize, Vec<Envelope<Tagged>>>,
        n: usize,
        run_seed: u64,
        send_order: bool,
        seq: u64,
        counts: (u64, u64, u64),
        sink: RingBuffer,
    }

    impl Reference {
        fn new(
            n: usize,
            mode: LinkMode,
            run_seed: u64,
            record_trace: bool,
            send_order: bool,
        ) -> Self {
            Reference {
                queue: BTreeMap::new(),
                links: BTreeMap::new(),
                mode,
                parked: BTreeMap::new(),
                n,
                run_seed,
                send_order,
                seq: 0,
                counts: (0, 0, 0),
                sink: if record_trace {
                    RingBuffer::new()
                } else {
                    RingBuffer::disabled()
                },
            }
        }

        fn link_mut(&mut self, index: usize) -> &mut Link {
            let (n, run_seed, mode) = (self.n, self.run_seed, &self.mode);
            self.links.entry(index).or_insert_with(|| {
                let from = AgentId::new((index / n) as u32);
                let to = AgentId::new((index % n) as u32);
                match mode {
                    LinkMode::Lottery(policy) => {
                        Link::new(*policy, derive_link_seed(run_seed, from, to))
                    }
                    LinkMode::Scripted(schedule) => Link::scripted(schedule.actions_for(from, to)),
                }
            })
        }

        fn enqueue(&mut self, due: u64, index: usize, env: Envelope<Tagged>) {
            match env.payload.class() {
                MessageClass::Ok => self.counts.0 += 1,
                MessageClass::Nogood => self.counts.1 += 1,
                MessageClass::Other => self.counts.2 += 1,
            }
            let rank = if self.send_order {
                0
            } else {
                derive_order_rank(self.run_seed, index as u64)
            };
            self.queue.insert((due, rank, self.seq), env);
            self.seq += 1;
        }

        fn fault(&mut self, now: u64, env: &Envelope<Tagged>, kind: FaultKind) {
            if self.sink.enabled() {
                self.sink.record(TraceEvent::Fault {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                    kind,
                });
            }
        }

        fn route(&mut self, now: u64, env: Envelope<Tagged>) -> Result<(), RuntimeError> {
            if env.to.index() >= self.n || env.from.index() >= self.n {
                return Err(RuntimeError::UnknownRecipient { agent: env.to });
            }
            let index = env.from.index() * self.n + env.to.index();
            let decision = self.link_mut(index).route(now);
            if self.sink.enabled() {
                self.sink.record(TraceEvent::Sent {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                });
            }
            for &kind in &decision.faults {
                self.fault(now, &env, kind);
            }
            let copies = decision.deliveries.as_slice();
            if copies.is_empty() {
                self.parked.entry(env.from.index()).or_default().push(env);
                return Ok(());
            }
            for &due in copies {
                self.enqueue(due, index, env.clone());
            }
            Ok(())
        }

        fn flush_parked(&mut self, now: u64) -> usize {
            let mut flushed = 0;
            for (_, bucket) in std::mem::take(&mut self.parked) {
                for env in bucket {
                    let index = env.from.index() * self.n + env.to.index();
                    let (due, faults) = self.link_mut(index).redeliver(now);
                    self.fault(now, &env, FaultKind::Retransmitted);
                    for kind in faults {
                        self.fault(now, &env, kind);
                    }
                    self.enqueue(due, index, env);
                    flushed += 1;
                }
            }
            flushed
        }

        fn take_due(&mut self, due: u64, tick: u64) -> Vec<(usize, Vec<Envelope<Tagged>>)> {
            let mut inboxes: BTreeMap<usize, Vec<Envelope<Tagged>>> = BTreeMap::new();
            let keys: Vec<_> = self
                .queue
                .range((due, 0, 0)..=(due, u64::MAX, u64::MAX))
                .map(|(&key, _)| key)
                .collect();
            for key in keys {
                let env = self.queue.remove(&key).expect("key was just listed");
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::Delivered {
                        cycle: tick,
                        from: env.from,
                        to: env.to,
                        class: env.payload.class(),
                    });
                }
                inboxes.entry(env.to.index()).or_default().push(env);
            }
            if self.send_order {
                // Every agent gets an inbox, empty or not.
                return (0..self.n)
                    .map(|agent| (agent, inboxes.remove(&agent).unwrap_or_default()))
                    .collect();
            }
            inboxes.into_iter().collect()
        }

        fn next_due(&self) -> Option<u64> {
            self.queue.keys().next().map(|&(due, _, _)| due)
        }

        fn link_totals(&self) -> LinkStats {
            let mut totals = LinkStats::default();
            for link in self.links.values() {
                totals.absorb(link.stats);
            }
            totals
        }

        fn fault_log(&self) -> FaultSchedule {
            let mut events = Vec::new();
            for (&index, link) in &self.links {
                for &(call, action) in link.fault_log() {
                    events.push(FaultEvent {
                        from: AgentId::new((index / self.n) as u32),
                        to: AgentId::new((index % self.n) as u32),
                        call,
                        action,
                    });
                }
            }
            FaultSchedule::new(events)
        }
    }

    /// Drives the router and the reference model through one seeded
    /// sequence of `route`, `flush_parked` and `take_due` calls in the
    /// order an executor issues them, comparing every observable after
    /// every call. Returns the router's fault log.
    fn differential_run(
        label: &str,
        n: usize,
        run_seed: u64,
        mode: impl Fn() -> LinkMode,
        (record_trace, send_order): (bool, bool),
        ops_seed: u64,
    ) -> FaultSchedule {
        let mut router: Router<Tagged> =
            Router::build(n, run_seed, record_trace, mode(), send_order);
        let mut reference = Reference::new(n, mode(), run_seed, record_trace, send_order);
        let mut ops = SplitMix64::new(ops_seed);
        let mut tick = 0u64;
        let mut tag = 0u64;
        let mut deliveries = 0usize;
        for step in 0..600 {
            let roll = ops.next_below(100);
            if roll < 70 {
                // A burst of sends at the current tick, occasionally to an
                // agent outside the population.
                for _ in 0..=ops.next_below(4) {
                    let from = ops.next_below(n as u64) as u32;
                    let outside = u64::from(ops.next_below(20) == 0);
                    let to = ops.next_below(n as u64 + outside) as u32;
                    let env = Envelope::new(AgentId::new(from), AgentId::new(to), Tagged(tag));
                    tag += 1;
                    let got = router.route(tick, env.clone());
                    let want = reference.route(tick, env);
                    assert_eq!(got, want, "{label}: route at step {step}");
                }
            } else if roll < 78 {
                tick += 1;
                let got = router.flush_parked(tick);
                let want = reference.flush_parked(tick);
                assert_eq!(got, want, "{label}: flush at step {step}");
            } else {
                // Executors take the earliest due tick; now and then ask
                // for a later tick or one with nothing due.
                let Some(next) = reference.next_due() else {
                    continue;
                };
                let due = match ops.next_below(10) {
                    0 => next + ops.next_below(3),
                    1 => tick + 50,
                    _ => next,
                };
                tick = tick.max(due);
                let got = router.take_due(due, tick);
                let want = reference.take_due(due, tick);
                deliveries += want.iter().map(|(_, inbox)| inbox.len()).sum::<usize>();
                assert_eq!(got, want, "{label}: take_due({due}) at step {step}");
            }
            let at = format!("{label}: after step {step}");
            assert_eq!(router.next_due(), reference.next_due(), "{at}: next_due");
            let queued = reference.queue.len() as u64;
            assert_eq!(router.queued(), queued, "{at}: queued");
            assert_eq!(router.class_counts(), reference.counts, "{at}: counts");
        }
        assert!(deliveries > 0, "{label}: nothing was delivered");
        let totals = reference.link_totals();
        assert_eq!(router.link_totals(), totals, "{label}: link_totals");
        assert_eq!(router.fault_log(), reference.fault_log(), "{label}: log");
        let trace = router.take_trace();
        assert_eq!(trace, reference.sink.take(), "{label}: trace");
        assert_eq!(trace.is_empty(), !record_trace, "{label}: trace iff asked");
        router.fault_log()
    }

    #[test]
    fn bucketed_router_matches_the_btreemap_reference() {
        let policies = [
            ("perfect", LinkPolicy::perfect()),
            ("lossy", LinkPolicy::lossy(300_000)),
            (
                "duplicating",
                LinkPolicy::perfect().with_duplication(400_000),
            ),
            ("delayed", LinkPolicy::delayed(0, 3)),
            ("reordering", LinkPolicy::reordering(3)),
            (
                "hostile",
                LinkPolicy::lossy(250_000)
                    .with_duplication(200_000)
                    .with_delay(1, 4)
                    .with_reordering(2),
            ),
        ];
        for (name, policy) in policies {
            for seed in 0..6u64 {
                let n = 2 + seed as usize;
                for flags @ (record_trace, send_order) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let label =
                        format!("{name} seed {seed} trace {record_trace} send order {send_order}");
                    let lottery = || LinkMode::Lottery(policy);
                    let ops_seed = seed ^ 0xD1FF;
                    let log = differential_run(&label, n, seed, lottery, flags, ops_seed);
                    assert_eq!(log.is_empty(), policy.is_perfect(), "{label}");
                    // The lottery run's log, replayed as a script over the
                    // same operation sequence, must match the reference
                    // too.
                    let scripted = || LinkMode::Scripted(log.clone());
                    let label = format!("scripted {label}");
                    differential_run(&label, n, seed, scripted, flags, ops_seed);
                }
            }
        }
    }

    #[test]
    fn perfect_links_keep_no_link_state() {
        for send_order in [false, true] {
            let perfect = LinkMode::Lottery(LinkPolicy::perfect());
            let mut router: Router<Tagged> = Router::build(4, 9, false, perfect, send_order);
            for tag in 0..12u64 {
                let from = AgentId::new((tag % 4) as u32);
                let to = AgentId::new(((tag + 1) % 4) as u32);
                let env = Envelope::new(from, to, Tagged(tag));
                router.route(tag / 4, env).expect("routes");
            }
            assert!(router.links.is_empty(), "send order {send_order}");
            assert_eq!(router.link_totals().sent, 12, "send order {send_order}");
            assert!(router.fault_log().is_empty(), "send order {send_order}");
        }
    }

    #[test]
    fn send_order_drains_same_tick_copies_in_enqueue_order() {
        // Every ordered pair sends once at tick 0, in a seeded shuffle;
        // a send-order router delivers them in exactly that order.
        let n = 4u32;
        let mut sends: Vec<(u32, u32)> = (0..n)
            .flat_map(|f| (0..n).filter(move |&t| t != f).map(move |t| (f, t)))
            .collect();
        let mut rng = SplitMix64::new(5);
        for i in (1..sends.len()).rev() {
            sends.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for seed in 0..4u64 {
            let mut router: Router<Tagged> =
                Router::send_order(n as usize, LinkPolicy::perfect(), seed, true);
            for (tag, &(f, t)) in sends.iter().enumerate() {
                let env = Envelope::new(AgentId::new(f), AgentId::new(t), Tagged(tag as u64));
                router.route(0, env).expect("routes");
            }
            let inboxes = router.take_due(1, 1);
            for (to, inbox) in &inboxes {
                let tags: Vec<u64> = inbox.iter().map(|e| e.payload.0).collect();
                let mut sorted = tags.clone();
                sorted.sort_unstable();
                assert_eq!(tags, sorted, "seed {seed}: inbox {to} in send order");
            }
            let delivered: Vec<(u32, u32)> = router
                .take_trace()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Delivered { from, to, .. } => Some((from.raw(), to.raw())),
                    _ => None,
                })
                .collect();
            assert_eq!(delivered, sends, "seed {seed}: delivered in send order");
        }
    }
}
