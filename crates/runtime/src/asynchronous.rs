//! The asynchronous runtime: one OS thread per agent, crossbeam channels
//! as links.
//!
//! The paper's algorithms "are designed for a fully asynchronous
//! distributed system, and thereby can work on any type of distributed
//! systems" (§5). This runtime demonstrates exactly that: the same
//! [`DistributedAgent`] implementations that run on the synchronous
//! simulator run here with real concurrency, unordered cross-agent
//! interleavings, optional per-activation jitter, and — through the
//! [`crate::link`] layer — seeded drop, duplication, delay, and
//! reordering faults on every link.
//!
//! Solution detection uses the classic in-flight counting scheme: a global
//! counter is incremented *before* a message is enqueued and decremented
//! only *after* the receiving agent has processed it **and** enqueued its
//! own reactions. The fault layer preserves the invariant exactly: a
//! dropped message decrements the counter at the drop point (and is
//! parked for recovery), a duplicate increments it at the dup point, and
//! a delayed message stays counted while held back. `in_flight == 0`
//! therefore still implies global quiescence, and quiescence plus a
//! consistent global snapshot implies a stable solution (agents only act
//! on messages). A quiescent *non*-solution is a stall — the observer
//! answers it with bounded recovery passes (retransmit parked drops, ask
//! agents to re-announce and re-evaluate via
//! [`DistributedAgent::on_nudge`]) before reporting a cutoff, instead of
//! idling out the wall clock. Recovery is *not* gated on the fault
//! policy: a protocol can park itself without losing a single message
//! (AWC's repeated-nogood rule silences a deadended agent), so perfect
//! links stall too — rarely, and only under real-concurrency
//! interleavings, which is exactly where this runtime lives.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use discsp_core::{AgentId, Assignment, DistributedCsp, RunMetrics, Termination, TrialOutcome};
use discsp_trace::{canonical_sort, FaultKind, RingBuffer, RuntimeKind, TraceEvent, TraceSink};
use parking_lot::Mutex;

use crate::agent::{check_dense_ids, AgentStats, DistributedAgent, Outbox};
use crate::error::RuntimeError;
use crate::link::{derive_link_seed, Link, LinkPolicy, LinkStats};
use crate::message::{Classify, Envelope, MessageClass};
use crate::recorder::StepRecorder;
use crate::seed::SplitMix64;

/// Configuration of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Hard wall-clock limit; the run reports a cutoff when exceeded.
    pub max_wall_time: Duration,
    /// Upper bound (exclusive) of the uniform random delay, in
    /// microseconds, injected before each agent activation. Zero disables
    /// jitter.
    pub jitter_micros: u64,
    /// Seed for the jitter streams and every per-link fault stream.
    pub seed: u64,
    /// When `true`, the observer stops at the *first* globally consistent
    /// snapshot instead of requiring quiescence. This matches the paper's
    /// measurement semantics ("cycles consumed until a solution is
    /// found") and is required for algorithms whose protocol never goes
    /// quiet, such as the distributed breakout's ok?/improve waves.
    pub stop_on_first_solution: bool,
    /// Fault policy applied to every link (default: perfect links).
    pub link: LinkPolicy,
    /// How many stall-triggered recovery passes to run before reporting a
    /// cutoff. Recovery runs even over perfect links: a protocol can park
    /// itself without any message loss (AWC's "same nogood as last time →
    /// do nothing" rule leaves a deadended agent silent), and a nudge is
    /// the only way back out.
    pub max_nudges: u64,
    /// Record each worker's deliveries, sends, faults, and agent steps
    /// into [`AsyncReport::trace`] (merged and canonically sorted at
    /// join time). Event cycles are coarse virtual-clock stamps.
    pub record_trace: bool,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            max_wall_time: Duration::from_secs(30),
            jitter_micros: 0,
            seed: 0,
            stop_on_first_solution: false,
            link: LinkPolicy::perfect(),
            max_nudges: 64,
            record_trace: false,
        }
    }
}

/// Result of an asynchronous run.
#[derive(Debug, Clone)]
pub struct AsyncReport {
    /// Metrics and solution. `cycles` and `maxcck` are synchronous-
    /// simulator notions and are reported as 0 here; `total_checks`, the
    /// message counters, and the fault counters are exact.
    pub outcome: TrialOutcome,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Total agent activations (batches processed, including starts).
    pub activations: u64,
    /// Whether the run ended globally quiescent: no message in flight, in
    /// a delay queue, or parked for retransmission.
    pub quiescent: bool,
    /// Stall-triggered recovery passes consumed.
    pub nudges: u64,
    /// Merged per-worker event log, canonically sorted and sealed with a
    /// `RunEnd`; empty unless [`AsyncConfig::record_trace`] was set.
    pub trace: Vec<TraceEvent>,
}

/// A routed message plus the virtual tick before which it must not be
/// delivered (the fault layer's delay/reordering mechanism).
struct Timed<M> {
    due: u64,
    env: Envelope<M>,
}

/// One worker's outgoing links, materialized on first use.
///
/// Workers used to pre-build a dense `Vec<Link>` of length n each —
/// O(agents²) total allocation before the first message flowed. A link's
/// stream seed is a pure function of `(run_seed, from, to)`, so lazy
/// creation changes nothing observable while keeping per-agent memory
/// proportional to the neighbors actually messaged.
struct SenderLinks {
    from: AgentId,
    policy: LinkPolicy,
    run_seed: u64,
    links: std::collections::BTreeMap<usize, Link>,
}

impl SenderLinks {
    fn new(from: AgentId, policy: LinkPolicy, run_seed: u64) -> Self {
        SenderLinks {
            from,
            policy,
            run_seed,
            links: std::collections::BTreeMap::new(),
        }
    }

    /// The link to recipient `to`, created on first touch. Callers must
    /// have validated `to` against the population already.
    fn link_mut(&mut self, to: usize) -> &mut Link {
        let from = self.from;
        let policy = self.policy;
        let run_seed = self.run_seed;
        self.links.entry(to).or_insert_with(|| {
            Link::new(policy, derive_link_seed(run_seed, from, AgentId::new(to as u32)))
        })
    }

    /// Fault counters summed over every link touched so far.
    fn totals(&self) -> LinkStats {
        let mut totals = LinkStats::default();
        for link in self.links.values() {
            totals.absorb(link.stats);
        }
        totals
    }
}

struct Shared {
    in_flight: AtomicI64,
    /// Dropped messages parked in worker-local recovery buffers, not
    /// counted in `in_flight` (they left the network at the drop point).
    pending_retransmits: AtomicI64,
    stop: AtomicBool,
    insoluble: AtomicBool,
    snapshot: Mutex<Assignment>,
    started: AtomicI64,
    activations: AtomicU64,
    /// Virtual clock for delivery deadlines, advanced by the observer.
    tick: AtomicU64,
    /// Recovery-pass generation; workers flush parked drops and call
    /// `on_nudge` when it grows past their local copy.
    nudge_epoch: AtomicU64,
    /// Total epochs acknowledged by workers (n acks per epoch).
    nudge_acks: AtomicU64,
    ok_messages: AtomicU64,
    nogood_messages: AtomicU64,
    other_messages: AtomicU64,
    /// Raw id + 1 of the first unroutable addressee; 0 = none. Set by
    /// worker threads, turned into [`RuntimeError::UnknownRecipient`] by
    /// the observer.
    bad_recipient: AtomicU64,
    /// Raw id + 1 of the first agent whose thread panicked; 0 = none. Set
    /// by a drop sentinel during unwind so the observer can stop the run
    /// without waiting out the wall clock.
    panicked: AtomicU64,
    /// Workers done dispatching. Each worker holds its receiver open
    /// until every peer passes this barrier, so no send in an
    /// error-free run can ever hit a disconnected channel — which
    /// would silently uncount an already-charged message and break the
    /// conservation identity (the link layer counts at route time, the
    /// class counters at enqueue time).
    exited: AtomicU64,
}

/// Set on unwind by each worker thread so a dying agent is noticed
/// immediately rather than at the wall-clock limit.
struct PanicSentinel<'a> {
    shared: &'a Shared,
    id: AgentId,
}

impl Drop for PanicSentinel<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared
                .panicked
                .compare_exchange(
                    0,
                    u64::from(self.id.raw()) + 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .ok();
            // Count the dying worker as exited so surviving peers do
            // not wait for it at the shutdown barrier (they also bail
            // on the `panicked` flag; the run reports an error either
            // way, so its accounting no longer matters).
            self.shared.exited.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Runs `agents` asynchronously against `problem` until a stable solution,
/// a proof of insolubility, or the wall-clock limit, injecting link faults
/// according to `config.link`.
///
/// # Errors
///
/// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*
/// (dense routing, as in the synchronous simulator);
/// [`RuntimeError::UnknownRecipient`] when a message addresses an agent
/// outside the population; [`RuntimeError::AgentPanicked`] when an agent
/// thread dies mid-run (the remaining threads are shut down first).
pub fn run_async<A>(
    agents: Vec<A>,
    problem: &DistributedCsp,
    config: &AsyncConfig,
) -> Result<AsyncReport, RuntimeError>
where
    A: DistributedAgent + Send + 'static,
{
    check_dense_ids(&agents)?;
    let n = agents.len();
    let shared = Arc::new(Shared {
        in_flight: AtomicI64::new(0),
        pending_retransmits: AtomicI64::new(0),
        stop: AtomicBool::new(false),
        insoluble: AtomicBool::new(false),
        snapshot: Mutex::new(Assignment::empty(problem.num_vars())),
        started: AtomicI64::new(0),
        activations: AtomicU64::new(0),
        tick: AtomicU64::new(0),
        nudge_epoch: AtomicU64::new(0),
        nudge_acks: AtomicU64::new(0),
        ok_messages: AtomicU64::new(0),
        nogood_messages: AtomicU64::new(0),
        other_messages: AtomicU64::new(0),
        bad_recipient: AtomicU64::new(0),
        panicked: AtomicU64::new(0),
        exited: AtomicU64::new(0),
    });

    let (senders, receivers): (Vec<Sender<Timed<A::Message>>>, Vec<_>) =
        (0..n).map(|_| unbounded()).unzip();
    // One shared slice of senders: cloning a Vec per worker was another
    // O(agents²) allocation.
    let senders: Arc<[Sender<Timed<A::Message>>]> = senders.into();

    // lint: allow(timing): wall-clock cutoff is inherent to the async
    // runtime; the paper's cycle/maxcck metrics are sync-simulator-only.
    let start = Instant::now();
    let mut handles = Vec::with_capacity(n);
    for (i, (mut agent, rx)) in agents.into_iter().zip(receivers).enumerate() {
        let shared = Arc::clone(&shared);
        let senders = Arc::clone(&senders);
        let jitter = config.jitter_micros;
        let mut rng = SplitMix64::new(config.seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let from = AgentId::new(i as u32);
        let mut links = SenderLinks::new(from, config.link, config.seed);
        let record = config.record_trace;
        handles.push(thread::spawn(move || {
            let _sentinel = PanicSentinel {
                shared: &shared,
                id: from,
            };
            let mut sink = if record {
                RingBuffer::new()
            } else {
                RingBuffer::disabled()
            };
            let mut checks_total: u64 = 0;
            worker(
                &mut agent,
                &rx,
                &senders,
                &shared,
                jitter,
                &mut rng,
                &mut links,
                &mut sink,
                &mut checks_total,
            );
            // Shutdown barrier: hold `rx` open until every worker is done
            // dispatching (see `Shared::exited`), so a peer mid-dispatch
            // never hits a disconnected channel and every message the
            // link layer charged is also counted by class. `panicked`
            // breaks the wait in case a dying peer's sentinel has not
            // unwound far enough to count it yet.
            shared.exited.fetch_add(1, Ordering::SeqCst);
            while (shared.exited.load(Ordering::SeqCst) as usize) < senders.len()
                && shared.panicked.load(Ordering::SeqCst) == 0
            {
                thread::sleep(Duration::from_micros(20));
            }
            drop(rx);
            let faults = links.totals();
            (agent, faults, checks_total, sink.take())
        }));
    }

    // Observer: wait for quiescent solution, insolubility, a structural
    // failure, or timeout, advancing the virtual delivery clock and
    // triggering recovery passes on stable stalls.
    let mut termination = Termination::CutOff;
    let mut error = None;
    let mut nudges: u64 = 0;
    loop {
        thread::sleep(Duration::from_micros(200));
        shared.tick.fetch_add(1, Ordering::SeqCst);
        if shared.insoluble.load(Ordering::SeqCst) {
            termination = Termination::Insoluble;
            break;
        }
        let bad = shared.bad_recipient.load(Ordering::SeqCst);
        if bad != 0 {
            error = Some(RuntimeError::UnknownRecipient {
                agent: AgentId::new((bad - 1) as u32),
            });
            break;
        }
        let panicked = shared.panicked.load(Ordering::SeqCst);
        if panicked != 0 {
            error = Some(RuntimeError::AgentPanicked {
                agent: AgentId::new((panicked - 1) as u32),
            });
            break;
        }
        let all_started = shared.started.load(Ordering::SeqCst) as usize == n;
        let quiescent = shared.in_flight.load(Ordering::SeqCst) == 0;
        if all_started && (quiescent || config.stop_on_first_solution) {
            let snapshot = shared.snapshot.lock();
            if problem.is_solution(&snapshot) {
                termination = Termination::Solved;
                break;
            }
        }
        // A quiescent non-solution can never progress on its own (agents
        // only act on messages): recover parked drops and staled views,
        // or finish right away instead of idling to the wall limit. The
        // ack handshake ensures the previous pass was fully absorbed
        // before the stall is judged again.
        if all_started
            && quiescent
            && shared.nudge_acks.load(Ordering::SeqCst) == nudges.saturating_mul(n as u64)
        {
            // Even perfect links can stall: a protocol may park itself
            // (AWC's repeated-nogood rule silences a deadended agent), so
            // recovery passes run regardless of the fault policy.
            if nudges < config.max_nudges {
                nudges += 1;
                shared.nudge_epoch.store(nudges, Ordering::SeqCst);
                continue;
            }
            termination = Termination::CutOff;
            break;
        }
        if start.elapsed() > config.max_wall_time {
            // One final consistent-snapshot check: quiescence and the
            // solution may have arrived between the check above and the
            // deadline, and a cutoff must not shadow a real solution.
            let all_started = shared.started.load(Ordering::SeqCst) as usize == n;
            let quiescent = shared.in_flight.load(Ordering::SeqCst) == 0;
            if all_started && (quiescent || config.stop_on_first_solution) {
                let snapshot = shared.snapshot.lock();
                if problem.is_solution(&snapshot) {
                    termination = Termination::Solved;
                }
            }
            break;
        }
    }
    shared.stop.store(true, Ordering::SeqCst);

    let mut metrics = RunMetrics::new(termination);
    let mut agent_stats = AgentStats::default();
    let mut link_totals = LinkStats::default();
    let mut trace: Vec<TraceEvent> = Vec::new();
    let final_tick = shared.tick.load(Ordering::SeqCst);
    for (position, handle) in handles.into_iter().enumerate() {
        // Join every thread even after a failure: a panic poisons one
        // agent's channel, not the process. The first failure wins.
        match handle.join() {
            Ok((mut agent, faults, checks_total, events)) => {
                metrics.total_checks += checks_total;
                // Checks the worker never got to stamp on a step (an
                // activation interrupted by shutdown) still count; give
                // them a final step event so the trace sums to
                // `total_checks`.
                let leftover = agent.take_checks();
                if leftover > 0 {
                    metrics.total_checks += leftover;
                    if config.record_trace {
                        trace.push(TraceEvent::AgentStep {
                            cycle: final_tick,
                            agent: agent.id(),
                            checks: leftover,
                        });
                    }
                }
                agent_stats.absorb(agent.stats());
                link_totals.absorb(faults);
                trace.extend(events);
            }
            Err(_) => {
                if error.is_none() {
                    error = Some(RuntimeError::AgentPanicked {
                        agent: AgentId::new(position as u32),
                    });
                }
            }
        }
    }
    if let Some(error) = error {
        return Err(error);
    }
    link_totals.fold_into(&mut agent_stats);
    metrics.ok_messages = shared.ok_messages.load(Ordering::SeqCst);
    metrics.nogood_messages = shared.nogood_messages.load(Ordering::SeqCst);
    metrics.other_messages = shared.other_messages.load(Ordering::SeqCst);
    agent_stats.fold_into(&mut metrics);

    let solution = if termination == Termination::Solved {
        Some(shared.snapshot.lock().clone())
    } else {
        None
    };
    let quiescent = shared.in_flight.load(Ordering::SeqCst) == 0
        && shared.pending_retransmits.load(Ordering::SeqCst) == 0;

    if config.record_trace {
        canonical_sort(&mut trace);
        trace.push(TraceEvent::RunEnd {
            cycle: metrics.cycles,
            runtime: RuntimeKind::Async,
            in_flight: shared.in_flight.load(Ordering::SeqCst).max(0) as u64,
            metrics: metrics.clone(),
        });
    }

    Ok(AsyncReport {
        outcome: TrialOutcome { metrics, solution },
        wall_time: start.elapsed(),
        activations: shared.activations.load(Ordering::SeqCst),
        quiescent,
        nudges,
        trace,
    })
}

#[allow(clippy::too_many_arguments)]
fn worker<A: DistributedAgent>(
    agent: &mut A,
    rx: &Receiver<Timed<A::Message>>,
    senders: &[Sender<Timed<A::Message>>],
    shared: &Shared,
    jitter_micros: u64,
    rng: &mut SplitMix64,
    links: &mut SenderLinks,
    sink: &mut RingBuffer,
    checks_total: &mut u64,
) {
    let mut parked: Vec<Envelope<A::Message>> = Vec::new();
    let mut held: Vec<Timed<A::Message>> = Vec::new();
    let mut seen_epoch: u64 = 0;
    let mut recorder = StepRecorder::new();

    // Start: announce initial values before reporting "started", so that
    // quiescence cannot be observed before the initial wave is in flight.
    let mut out = Outbox::new(agent.id());
    agent.on_start(&mut out);
    dispatch(out, links, &mut parked, senders, shared, sink);
    publish(agent, shared);
    let checks = agent.take_checks();
    *checks_total += checks;
    recorder.record_step(agent, shared.tick.load(Ordering::SeqCst), checks, sink);
    shared.activations.fetch_add(1, Ordering::SeqCst);
    shared.started.fetch_add(1, Ordering::SeqCst);
    if agent.detected_insoluble() {
        shared.insoluble.store(true, Ordering::SeqCst);
        return;
    }

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Recovery pass: the observer saw a stable stall. Retransmit this
        // worker's parked drops and let the agent refresh its neighbors,
        // then acknowledge so the observer can judge the next stall.
        let epoch = shared.nudge_epoch.load(Ordering::SeqCst);
        if epoch > seen_epoch {
            seen_epoch = epoch;
            flush_parked(&mut parked, links, senders, shared, sink);
            let mut out = Outbox::new(agent.id());
            agent.on_nudge(&mut out);
            dispatch(out, links, &mut parked, senders, shared, sink);
            publish(agent, shared);
            let checks = agent.take_checks();
            *checks_total += checks;
            recorder.record_step(agent, shared.tick.load(Ordering::SeqCst), checks, sink);
            shared.nudge_acks.fetch_add(1, Ordering::SeqCst);
            // The nudge re-review can derive the empty nogood just like a
            // batch can; the observer polls this flag before the acks.
            if agent.detected_insoluble() {
                shared.insoluble.store(true, Ordering::SeqCst);
                return;
            }
        }

        // Messages ripen as the observer advances the virtual clock.
        let now = shared.tick.load(Ordering::SeqCst);
        let mut ready: Vec<Envelope<A::Message>> = Vec::new();
        let mut still_held = Vec::new();
        for timed in held.drain(..) {
            if timed.due <= now {
                ready.push(timed.env);
            } else {
                still_held.push(timed);
            }
        }
        held = still_held;

        // Block briefly for fresh traffic only when nothing is ripe, then
        // drain whatever else is there.
        if ready.is_empty() {
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(timed) => {
                    if timed.due <= now {
                        ready.push(timed.env);
                    } else {
                        held.push(timed);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
        while let Ok(timed) = rx.try_recv() {
            if timed.due <= now {
                ready.push(timed.env);
            } else {
                held.push(timed);
            }
        }
        if ready.is_empty() {
            continue;
        }
        if jitter_micros > 0 {
            let delay = rng.next_below(jitter_micros);
            thread::sleep(Duration::from_micros(delay));
        }
        if sink.enabled() {
            for env in &ready {
                sink.record(TraceEvent::Delivered {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                });
            }
        }
        let consumed = ready.len() as i64;
        let mut out = Outbox::new(agent.id());
        agent.on_batch(ready, &mut out);
        // Enqueue reactions BEFORE decrementing what we consumed: in-flight
        // can only reach zero when the whole causal chain has drained.
        dispatch(out, links, &mut parked, senders, shared, sink);
        publish(agent, shared);
        let checks = agent.take_checks();
        *checks_total += checks;
        recorder.record_step(agent, now, checks, sink);
        shared.activations.fetch_add(1, Ordering::SeqCst);
        shared.in_flight.fetch_sub(consumed, Ordering::SeqCst);
        if agent.detected_insoluble() {
            shared.insoluble.store(true, Ordering::SeqCst);
            return;
        }
    }
}

fn count_class(class: MessageClass, shared: &Shared) {
    match class {
        MessageClass::Ok => shared.ok_messages.fetch_add(1, Ordering::SeqCst),
        MessageClass::Nogood => shared.nogood_messages.fetch_add(1, Ordering::SeqCst),
        MessageClass::Other => shared.other_messages.fetch_add(1, Ordering::SeqCst),
    };
}

/// Routes an outbox through the sender's links: the in-flight counter is
/// raised for every emitted message up front, lowered again at each drop
/// point (drops are parked for recovery) and failed send, and raised at
/// each duplication point. Message-class counters are charged only for
/// copies that actually reach a channel, so they always equal the
/// successfully enqueued traffic.
fn dispatch<M: Classify + Clone>(
    mut out: Outbox<M>,
    links: &mut SenderLinks,
    parked: &mut Vec<Envelope<M>>,
    senders: &[Sender<Timed<M>>],
    shared: &Shared,
    sink: &mut RingBuffer,
) {
    let msgs = out.drain();
    shared
        .in_flight
        .fetch_add(msgs.len() as i64, Ordering::SeqCst);
    let now = shared.tick.load(Ordering::SeqCst);
    for env in msgs {
        let to = env.to.index();
        let Some(sender) = senders.get(to) else {
            // Unroutable addressee: report it instead of panicking the
            // worker thread; the observer turns this into an error. The
            // message never entered the network, so it leaves the
            // in-flight count and stays out of the class counters.
            shared
                .bad_recipient
                .compare_exchange(0, u64::from(env.to.raw()) + 1, Ordering::SeqCst, Ordering::SeqCst)
                .ok();
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            continue;
        };
        let decision = links.link_mut(to).route(now);
        if sink.enabled() {
            sink.record(TraceEvent::Sent {
                cycle: now,
                from: env.from,
                to: env.to,
                class: env.payload.class(),
            });
            for &kind in &decision.faults {
                sink.record(TraceEvent::Fault {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                    kind,
                });
            }
        }
        let copies = decision.deliveries.as_slice();
        if copies.is_empty() {
            // Dropped: decrement at the drop point and park for the
            // stall-triggered recovery pass.
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.pending_retransmits.fetch_add(1, Ordering::SeqCst);
            parked.push(env);
            continue;
        }
        let extra_copies = copies.len().saturating_sub(1);
        if extra_copies > 0 {
            // Duplicates: increment at the dup point.
            shared
                .in_flight
                .fetch_add(extra_copies as i64, Ordering::SeqCst);
        }
        let class = env.payload.class();
        let last = copies.len();
        let mut env = Some(env);
        for (index, &due) in copies.iter().enumerate() {
            let copy = if index + 1 == last {
                env.take()
            } else {
                env.clone()
            };
            let Some(copy) = copy else { continue };
            // The shutdown barrier keeps every receiver open until all
            // workers stop dispatching, so on error-free runs this send
            // cannot fail — the class counters stay equal to the
            // link-charged traffic and the conservation identity holds
            // exactly. A failure is only reachable when a peer panicked
            // mid-run (its channel died with it); the run then reports
            // `AgentPanicked` and the metrics are discarded, so we only
            // keep the in-flight count sane for the observer.
            if sender.send(Timed { due, env: copy }).is_ok() {
                count_class(class, shared);
            } else {
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Re-enqueues every parked (dropped) message through its link's
/// retransmission path. Parked messages re-enter the in-flight count at
/// the point they rejoin the network.
fn flush_parked<M: Classify + Clone>(
    parked: &mut Vec<Envelope<M>>,
    links: &mut SenderLinks,
    senders: &[Sender<Timed<M>>],
    shared: &Shared,
    sink: &mut RingBuffer,
) {
    if parked.is_empty() {
        return;
    }
    let now = shared.tick.load(Ordering::SeqCst);
    for env in parked.drain(..) {
        shared.pending_retransmits.fetch_sub(1, Ordering::SeqCst);
        let to = env.to.index();
        // Parked messages passed routing before they were dropped, so the
        // recipient exists; the guard only satisfies the panic-free zone.
        let Some(sender) = senders.get(to) else {
            continue;
        };
        let (due, faults) = links.link_mut(to).redeliver(now);
        if sink.enabled() {
            sink.record(TraceEvent::Fault {
                cycle: now,
                from: env.from,
                to: env.to,
                class: env.payload.class(),
                kind: FaultKind::Retransmitted,
            });
            for kind in faults {
                sink.record(TraceEvent::Fault {
                    cycle: now,
                    from: env.from,
                    to: env.to,
                    class: env.payload.class(),
                    kind,
                });
            }
        }
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let class = env.payload.class();
        // As in `dispatch`: the shutdown barrier makes a failed send
        // unreachable outside a peer-panic run, whose metrics are
        // discarded anyway.
        if sender.send(Timed { due, env }).is_ok() {
            count_class(class, shared);
        } else {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn publish<A: DistributedAgent>(agent: &A, shared: &Shared) {
    let mut snapshot = shared.snapshot.lock();
    for vv in agent.assignments() {
        snapshot.set(vv.var, vv.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_true_problem, ring, Gossip};
    use crate::link::PPM;
    use discsp_core::{Value, VarValue, VariableId};

    #[test]
    fn async_run_converges_to_quiescent_solution() {
        let problem = all_true_problem(5);
        let report = run_async(ring(5), &problem, &AsyncConfig::default()).expect("runs");
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        let sol = report.outcome.solution.unwrap();
        for i in 0..5 {
            assert_eq!(sol.get(VariableId::new(i)), Some(Value::TRUE));
        }
        // 5 start messages + 4 propagation messages (agent 0 never flips).
        assert_eq!(report.outcome.metrics.ok_messages, 9);
        assert_eq!(report.outcome.metrics.messages_sent, 9);
        assert_eq!(report.outcome.metrics.messages_dropped, 0);
        assert!(report.activations >= 5);
        assert!(report.quiescent, "a stable solution implies quiescence");
    }

    #[test]
    fn async_run_with_jitter_still_converges() {
        // Generous wall limit so a loaded CI machine cannot push the
        // jittered run over the edge; the assertion of interest is the
        // explicit quiescence of the final state, not the timing.
        let problem = all_true_problem(4);
        let config = AsyncConfig {
            max_wall_time: Duration::from_secs(60),
            jitter_micros: 500,
            seed: 7,
            ..AsyncConfig::default()
        };
        let report = run_async(ring(4), &problem, &config).expect("runs");
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        assert!(report.quiescent);
    }

    #[test]
    fn async_run_cuts_off_unsolvable_gossip_on_stall() {
        // Nobody holds `true`, so the ring can never satisfy the problem;
        // gossip quiesces at all-false, which is not a solution. The
        // stall is detected as soon as the system goes quiet; the bounded
        // recovery passes (gossip re-announces, state never changes) burn
        // through quickly, so the cutoff still lands well inside the
        // (deliberately generous) wall limit and cannot flake on a
        // loaded machine.
        let problem = all_true_problem(3);
        let mut agents = ring(3);
        agents[0].value = Value::FALSE;
        let config = AsyncConfig {
            max_wall_time: Duration::from_secs(60),
            ..AsyncConfig::default()
        };
        let report = run_async(agents, &problem, &config).expect("runs");
        assert_eq!(report.outcome.metrics.termination, Termination::CutOff);
        assert!(report.outcome.solution.is_none());
        assert!(report.quiescent, "cutoff must come from a detected stall");
        assert_eq!(
            report.nudges, config.max_nudges,
            "a perfect-link stall must exhaust recovery before cutoff"
        );
        assert!(
            report.wall_time < Duration::from_secs(60),
            "stall detection must beat the wall-clock limit"
        );
    }

    #[test]
    fn async_run_solves_under_total_first_drop() {
        // Every link drops every first transmission; the recovery pass
        // retransmits, so gossip still completes and the class counters
        // match the enqueued copies exactly.
        let problem = all_true_problem(4);
        let config = AsyncConfig {
            link: LinkPolicy::lossy(PPM),
            seed: 5,
            ..AsyncConfig::default()
        };
        let report = run_async(ring(4), &problem, &config).expect("runs");
        let m = &report.outcome.metrics;
        assert_eq!(m.termination, Termination::Solved);
        assert!(report.nudges > 0, "recovery must have fired");
        assert_eq!(m.messages_dropped, m.messages_sent);
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped
                + m.messages_duplicated
                + m.messages_retransmitted,
        );
    }

    #[test]
    fn async_lossy_run_surfaces_an_auditable_trace() {
        // Regression: the threaded runtime used to record nothing at all —
        // `AsyncReport` had no trace field — so lossy async failures could
        // not be inspected. A seeded lossy run must now surface a
        // non-empty trace that passes the accounting audit.
        let problem = all_true_problem(4);
        let config = AsyncConfig {
            link: LinkPolicy::lossy(300_000).with_delay(0, 2),
            seed: 9,
            record_trace: true,
            max_wall_time: Duration::from_secs(60),
            ..AsyncConfig::default()
        };
        let report = run_async(ring(4), &problem, &config).expect("runs");
        assert!(
            !report.trace.is_empty(),
            "async runs must surface their trace"
        );
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, discsp_trace::TraceEvent::Sent { .. })));
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, discsp_trace::TraceEvent::Delivered { .. })));
        let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        assert_eq!(audit.metrics, report.outcome.metrics);
    }

    /// Agents that flood every peer and one of which declares the
    /// problem insoluble as soon as it has heard anything. Its worker
    /// then leaves the receive loop while the peers are still
    /// mid-storm — the exact window in which a dropped receiver used to
    /// make sends fail after the link layer had already charged them,
    /// silently breaking the conservation identity.
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
    fn conservation_holds_with_drop_dup_delay_on_same_link() {
        // Satellite regression: every link carries drops, duplication,
        // and delay at once, and the identity
        // `total = sent - dropped + duplicated + retransmitted`
        // must still hold exactly on the reported metrics (and pass the
        // trace audit, which recomputes each term from events).
        let problem = all_true_problem(5);
        let (mut dropped, mut duplicated, mut delayed) = (0u64, 0u64, 0u64);
        for seed in 0..4u64 {
            let config = AsyncConfig {
                link: LinkPolicy::lossy(250_000)
                    .with_duplication(250_000)
                    .with_delay(0, 3),
                seed,
                record_trace: true,
                max_wall_time: Duration::from_secs(60),
                ..AsyncConfig::default()
            };
            let report = run_async(ring(5), &problem, &config).expect("runs");
            let m = &report.outcome.metrics;
            dropped += m.messages_dropped;
            duplicated += m.messages_duplicated;
            delayed += m.max_delivery_delay;
            assert_eq!(
                m.total_messages(),
                m.messages_sent - m.messages_dropped
                    + m.messages_duplicated
                    + m.messages_retransmitted,
                "seed {seed}"
            );
            let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
            assert!(audit.passed(), "seed {seed}: {:?}", audit.failures);
        }
        assert!(
            dropped > 0 && duplicated > 0 && delayed > 0,
            "the seeds must exercise all three fault kinds \
             (dropped {dropped}, duplicated {duplicated}, max delay {delayed})"
        );
    }

    #[test]
    fn early_exiting_worker_does_not_uncount_charged_sends() {
        // Regression for the shutdown accounting hole: before the exit
        // barrier, a worker that detected insolubility dropped its
        // receiver on the spot, so peers still storming at it had sends
        // fail *after* `Link::route` charged `messages_sent` (and
        // recorded the `Sent` trace event) but *before* the class
        // counters were bumped — under-counting `total_messages` and
        // breaking conservation. The receivers now stay open until every
        // worker is done dispatching, so the identity is exact even on
        // insoluble runs that tear down mid-storm.
        let problem = all_true_problem(3);
        for seed in 0..4u64 {
            let agents: Vec<StormAgent> = (0..3)
                .map(|i| StormAgent {
                    id: AgentId::new(i as u32),
                    n: 3,
                    budget: 200,
                    heard: 0,
                    insoluble_after: (i == 0).then_some(1),
                })
                .collect();
            let config = AsyncConfig {
                link: LinkPolicy::lossy(200_000)
                    .with_duplication(200_000)
                    .with_delay(0, 2),
                seed,
                record_trace: true,
                max_wall_time: Duration::from_secs(60),
                ..AsyncConfig::default()
            };
            let report = run_async(agents, &problem, &config).expect("runs");
            let m = &report.outcome.metrics;
            assert_eq!(m.termination, Termination::Insoluble, "seed {seed}");
            assert_eq!(
                m.total_messages(),
                m.messages_sent - m.messages_dropped
                    + m.messages_duplicated
                    + m.messages_retransmitted,
                "seed {seed}: early-exit teardown uncounted a charged send"
            );
            let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
            assert!(audit.passed(), "seed {seed}: {:?}", audit.failures);
        }
    }

    #[test]
    fn async_run_solves_under_delay_and_reordering() {
        let problem = all_true_problem(5);
        for seed in 0..3u64 {
            let config = AsyncConfig {
                link: LinkPolicy::delayed(0, 3).with_reordering(2),
                seed,
                ..AsyncConfig::default()
            };
            let report = run_async(ring(5), &problem, &config).expect("runs");
            assert_eq!(
                report.outcome.metrics.termination,
                Termination::Solved,
                "seed {seed}"
            );
            assert!(report.quiescent, "seed {seed}");
        }
    }
}
