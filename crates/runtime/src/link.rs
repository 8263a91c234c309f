//! The deterministic fault-injecting link layer.
//!
//! The paper's §5 claim — the algorithms "are designed for a fully
//! asynchronous distributed system, and thereby can work on any type of
//! distributed systems" — is only demonstrated by running them over links
//! that misbehave. This module models one directed link per ordered agent
//! pair with a [`LinkPolicy`]: fixed or uniform delivery delay in
//! *virtual ticks*, drop probability, duplication probability, and a
//! reordering window. Every fault decision is drawn from a per-link
//! [`SplitMix64`] stream derived from the run seed alone
//! ([`derive_link_seed`]), so any observed failure is replayable from
//! `(seed, policy)` — no wall clock, no OS entropy.
//!
//! Time here is a `u64` **virtual tick**, never wall time: the
//! deterministic executors ([`run_virtual`] and the others on the
//! [`WaveEngine`](crate::WaveEngine)) advance ticks as the event queue
//! drains, so a run's timing is as replayable as its faults.
//!
//! Dropped messages are not lost forever: real DisCSP correctness proofs
//! assume eventual delivery (finite but arbitrary delay), so the link
//! layer parks drops in a per-link recovery buffer and retransmits them
//! when the runtime detects a stall — the transport keeps the protocol's
//! liveness guarantee the way TCP does over a lossy wire, while every
//! fault stays observable in the counters.

use std::collections::BTreeMap;

use discsp_core::{AgentId, DistributedCsp, TrialOutcome};
use serde::{Deserialize, Serialize};

use discsp_trace::{FaultKind, RuntimeKind, TraceEvent};

use crate::agent::{AgentStats, DistributedAgent};
use crate::engine::{Direct, InProcess, WaveEngine};
use crate::error::RuntimeError;
use crate::schedule::{FaultAction, FaultSchedule};
use crate::seed::SplitMix64;

/// Probabilities are expressed in parts per million so the whole policy
/// is integer-exact, `Eq`, and hashable-free of float edge cases.
pub const PPM: u32 = 1_000_000;

/// Per-link fault policy. The default is a perfect link: instant,
/// lossless, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkPolicy {
    /// Minimum delivery delay, in virtual ticks.
    pub delay_min: u64,
    /// Maximum delivery delay, in virtual ticks (uniform in
    /// `delay_min..=delay_max`; equal bounds give a fixed delay).
    pub delay_max: u64,
    /// Drop probability in parts per million ([`PPM`] = always drop).
    pub drop_ppm: u32,
    /// Duplication probability in parts per million (one extra copy).
    pub dup_ppm: u32,
    /// Reordering window: each message gets an extra uniform delay in
    /// `0..=reorder_window` ticks, letting later messages overtake
    /// earlier ones on the same link.
    pub reorder_window: u64,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        LinkPolicy::perfect()
    }
}

impl LinkPolicy {
    /// An instant, lossless, ordered link (the pre-fault-layer behavior).
    pub const fn perfect() -> Self {
        LinkPolicy {
            delay_min: 0,
            delay_max: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_window: 0,
        }
    }

    /// A link that drops each message with probability `drop_ppm`/10⁶.
    pub const fn lossy(drop_ppm: u32) -> Self {
        LinkPolicy {
            drop_ppm,
            ..LinkPolicy::perfect()
        }
    }

    /// A link delivering after a uniform `min..=max`-tick delay.
    pub const fn delayed(min: u64, max: u64) -> Self {
        LinkPolicy {
            delay_min: min,
            delay_max: max,
            ..LinkPolicy::perfect()
        }
    }

    /// A link that reorders within a `window`-tick window.
    pub const fn reordering(window: u64) -> Self {
        LinkPolicy {
            reorder_window: window,
            ..LinkPolicy::perfect()
        }
    }

    /// Sets the drop probability (parts per million).
    pub const fn with_drop(mut self, drop_ppm: u32) -> Self {
        self.drop_ppm = drop_ppm;
        self
    }

    /// Sets the duplication probability (parts per million).
    pub const fn with_duplication(mut self, dup_ppm: u32) -> Self {
        self.dup_ppm = dup_ppm;
        self
    }

    /// Sets the delay bounds (virtual ticks).
    pub const fn with_delay(mut self, min: u64, max: u64) -> Self {
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Sets the reordering window (virtual ticks).
    pub const fn with_reordering(mut self, window: u64) -> Self {
        self.reorder_window = window;
        self
    }

    /// Whether this policy can never inject a fault. A router keeps no
    /// state for perfect links: it counts their sends itself.
    pub const fn is_perfect(&self) -> bool {
        self.delay_min == 0
            && self.delay_max == 0
            && self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.reorder_window == 0
    }
}

/// Monotone per-link fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages handed to this link.
    pub sent: u64,
    /// Messages dropped by the fault lottery.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Copies assigned a due tick that overtakes an earlier message.
    pub reordered: u64,
    /// Previously dropped messages re-enqueued by the recovery pass.
    pub retransmitted: u64,
    /// Largest single assigned delivery delay, in ticks.
    pub max_delay: u64,
}

impl LinkStats {
    /// Accumulates `other` into `self` (sums; max for `max_delay`).
    pub fn absorb(&mut self, other: LinkStats) {
        self.sent += other.sent;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.retransmitted += other.retransmitted;
        self.max_delay = self.max_delay.max(other.max_delay);
    }

    /// Folds these link counters into an [`AgentStats`] record (the
    /// sender-side attribution surfaced through [`RunMetrics`](discsp_core::RunMetrics)).
    pub fn fold_into(&self, stats: &mut AgentStats) {
        stats.messages_sent += self.sent;
        stats.messages_dropped += self.dropped;
        stats.messages_duplicated += self.duplicated;
        stats.messages_reordered += self.reordered;
        stats.messages_retransmitted += self.retransmitted;
        stats.max_delivery_delay = stats.max_delivery_delay.max(self.max_delay);
    }
}

/// The due ticks of the copies one message becomes. A link enqueues at
/// most two copies of a message, so they are held inline and a perfect
/// link's decision allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deliveries {
    /// No copy: the message was dropped (and should be parked for
    /// retransmission).
    Dropped,
    /// One copy, due at this tick.
    Once(u64),
    /// A duplicated message: the first copy's due tick, then the second's.
    Twice([u64; 2]),
}

impl Deliveries {
    /// Due tick of each copy to enqueue, in enqueue order.
    pub fn as_slice(&self) -> &[u64] {
        match self {
            Deliveries::Dropped => &[],
            Deliveries::Once(due) => std::slice::from_ref(due),
            Deliveries::Twice(dues) => dues,
        }
    }
}

/// The fate of one message offered to a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecision {
    /// The copies to enqueue.
    pub deliveries: Deliveries,
    /// Faults injected into this message, for trace recording.
    pub faults: Vec<FaultKind>,
}

/// One directed link with its policy, its private random stream, and its
/// fault counters.
///
/// A link runs in one of two modes. In **lottery** mode (the default,
/// [`Link::new`]) every fault is drawn from the seeded stream according
/// to the [`LinkPolicy`]. In **scripted** mode ([`Link::scripted`]) the
/// stream is never consulted: an explicit `call → action` script decides
/// the fate of each message by its 0-based call index, and every
/// unscripted call delivers perfectly. Both modes append each injected
/// fault to the link's [`fault log`](Link::fault_log), so a lottery
/// run's log replayed as a script reproduces the run bit-for-bit.
#[derive(Debug, Clone)]
pub struct Link {
    policy: LinkPolicy,
    rng: SplitMix64,
    /// Scripted mode: the fate of each call index. `None` = lottery mode.
    script: Option<BTreeMap<u64, FaultAction>>,
    /// Calls served so far (fresh sends and retransmissions share it).
    calls: u64,
    /// Every fault injected so far, by the call index that suffered it.
    log: Vec<(u64, FaultAction)>,
    /// Largest due tick assigned so far (reordering detection).
    max_due: u64,
    /// Counters, monotone over the link's lifetime.
    pub stats: LinkStats,
}

impl Link {
    /// Creates a link following `policy`, drawing from `seed`.
    pub fn new(policy: LinkPolicy, seed: u64) -> Self {
        Link {
            policy,
            rng: SplitMix64::new(seed),
            script: None,
            calls: 0,
            log: Vec::new(),
            max_due: 0,
            stats: LinkStats::default(),
        }
    }

    /// Creates a scripted link: call `k` suffers `script[k]`, every other
    /// call delivers perfectly. No random stream is ever consulted.
    pub fn scripted(script: BTreeMap<u64, FaultAction>) -> Self {
        Link {
            script: Some(script),
            ..Link::new(LinkPolicy::perfect(), 0)
        }
    }

    /// The policy this link follows (perfect in scripted mode).
    pub fn policy(&self) -> &LinkPolicy {
        &self.policy
    }

    /// The faults this link actually injected, as `(call, action)` pairs
    /// in call order. Feeding this log back through [`Link::scripted`]
    /// replays the link's behavior exactly, draw for draw.
    pub fn fault_log(&self) -> &[(u64, FaultAction)] {
        &self.log
    }

    fn base_delay(&mut self) -> u64 {
        let LinkPolicy {
            delay_min,
            delay_max,
            reorder_window,
            ..
        } = self.policy;
        let mut delay = delay_min;
        if delay_max > delay_min {
            delay += self.rng.next_below(delay_max - delay_min + 1);
        }
        if reorder_window > 0 {
            delay += self.rng.next_below(reorder_window + 1);
        }
        delay
    }

    /// Registers one copy due at `now + 1 + delay` (every hop costs one
    /// base tick, as in the synchronous simulator's "sent in cycle *k*,
    /// readable in *k + 1*"), updating the reorder bookkeeping, and
    /// returns the due tick.
    fn assign(&mut self, now: u64, delay: u64, faults: &mut Vec<FaultKind>) -> u64 {
        let due = now + 1 + delay;
        self.stats.max_delay = self.stats.max_delay.max(delay);
        if delay > 0 {
            faults.push(FaultKind::Delayed(delay));
        }
        if due < self.max_due {
            self.stats.reordered += 1;
            faults.push(FaultKind::Reordered);
        }
        self.max_due = self.max_due.max(due);
        due
    }

    /// Decides the fate of the next message offered to this link at
    /// virtual time `now`. Deterministic: the k-th call on a link built
    /// from a given `(policy, seed)` — or a given script — always
    /// returns the same decision.
    pub fn route(&mut self, now: u64) -> RouteDecision {
        self.stats.sent += 1;
        let call = self.calls;
        self.calls += 1;
        if let Some(script) = &self.script {
            let action = script.get(&call).copied();
            return self.route_scripted(now, call, action);
        }
        // Each draw is gated on its fault being possible, so a perfect
        // policy never touches the stream.
        let mut faults = Vec::new();
        if self.policy.drop_ppm > 0
            && self.rng.next_below(u64::from(PPM)) < u64::from(self.policy.drop_ppm)
        {
            self.stats.dropped += 1;
            faults.push(FaultKind::Dropped);
            self.log.push((call, FaultAction::Drop));
            return RouteDecision {
                deliveries: Deliveries::Dropped,
                faults,
            };
        }
        let dup = self.policy.dup_ppm > 0
            && self.rng.next_below(u64::from(PPM)) < u64::from(self.policy.dup_ppm);
        if dup {
            self.stats.duplicated += 1;
            faults.push(FaultKind::Duplicated);
            // Draw order matches the pre-log code: one base delay per
            // copy, first copy first.
            let first = self.base_delay();
            let second = self.base_delay();
            self.log
                .push((call, FaultAction::Duplicate { first, second }));
            let deliveries = Deliveries::Twice([
                self.assign(now, first, &mut faults),
                self.assign(now, second, &mut faults),
            ]);
            return RouteDecision { deliveries, faults };
        }
        let delay = self.base_delay();
        if delay > 0 {
            self.log.push((call, FaultAction::Delay(delay)));
        }
        let deliveries = Deliveries::Once(self.assign(now, delay, &mut faults));
        RouteDecision { deliveries, faults }
    }

    /// The scripted-mode fate of call `call`. Unscripted calls still run
    /// the reorder bookkeeping with zero delay: a lottery link under a
    /// `delay_min == 0` policy counts a zero-delay message that overtakes
    /// a delayed one as reordered, so replaying its log must too.
    fn route_scripted(
        &mut self,
        now: u64,
        call: u64,
        action: Option<FaultAction>,
    ) -> RouteDecision {
        let mut faults = Vec::new();
        let deliveries = match action {
            None => Deliveries::Once(self.assign(now, 0, &mut faults)),
            Some(FaultAction::Drop) => {
                self.stats.dropped += 1;
                faults.push(FaultKind::Dropped);
                self.log.push((call, FaultAction::Drop));
                Deliveries::Dropped
            }
            Some(FaultAction::Delay(delay)) => {
                if delay > 0 {
                    self.log.push((call, FaultAction::Delay(delay)));
                }
                Deliveries::Once(self.assign(now, delay, &mut faults))
            }
            Some(FaultAction::Duplicate { first, second }) => {
                self.stats.duplicated += 1;
                faults.push(FaultKind::Duplicated);
                self.log
                    .push((call, FaultAction::Duplicate { first, second }));
                Deliveries::Twice([
                    self.assign(now, first, &mut faults),
                    self.assign(now, second, &mut faults),
                ])
            }
        };
        RouteDecision { deliveries, faults }
    }

    /// Assigns a due tick to a retransmitted (previously dropped)
    /// message. Retransmission bypasses the drop and duplication lottery
    /// — the recovery pass exists to guarantee eventual delivery — but
    /// still pays the link's delay; the delay/reorder faults injected on
    /// this second pass are returned so the caller can record them (the
    /// counters already include them, and the trace must explain every
    /// counter). In scripted mode a `Delay` event at the retransmission's
    /// call index delays it; `Drop` cannot recur (eventual delivery), so
    /// any other scripted action delays by its first delay field or zero.
    pub fn redeliver(&mut self, now: u64) -> (u64, Vec<FaultKind>) {
        self.stats.retransmitted += 1;
        let call = self.calls;
        self.calls += 1;
        let delay = if let Some(script) = &self.script {
            match script.get(&call) {
                Some(FaultAction::Delay(d)) => *d,
                Some(FaultAction::Duplicate { first, .. }) => *first,
                Some(FaultAction::Drop) | None => 0,
            }
        } else {
            self.base_delay()
        };
        if delay > 0 {
            self.log.push((call, FaultAction::Delay(delay)));
        }
        let mut faults = Vec::new();
        let due = self.assign(now, delay, &mut faults);
        (due, faults)
    }
}

/// Derives the seed of the directed link `from → to` for a run seeded
/// with `run_seed`. Distinct links get unrelated streams; the same
/// `(run_seed, from, to)` always yields the same stream.
pub fn derive_link_seed(run_seed: u64, from: AgentId, to: AgentId) -> u64 {
    let mut a =
        SplitMix64::new(run_seed ^ u64::from(from.raw()).wrapping_mul(0xD192_ED03_3709_27AD));
    let mixed = a.next_u64();
    let mut b = SplitMix64::new(mixed ^ u64::from(to.raw()).wrapping_mul(0x8864_A2F4_0E72_7F91));
    b.next_u64()
}

/// Configuration of a deterministic faulty-link run.
#[derive(Debug, Clone)]
pub struct VirtualConfig {
    /// Seed deriving every per-link fault stream and the same-tick
    /// delivery order.
    pub seed: u64,
    /// Fault policy applied to every link.
    pub link: LinkPolicy,
    /// Scripted per-event faults. When set, `link` is ignored: the
    /// schedule decides every fault and all other messages deliver
    /// perfectly (the seed still fixes same-tick delivery order, so a
    /// recorded `fault_log` replays its run exactly under the same seed).
    pub schedule: Option<FaultSchedule>,
    /// Tick budget; the run reports a cutoff beyond it.
    pub max_ticks: u64,
    /// How many stall-triggered recovery passes (retransmission flushes
    /// and agent refreshes) to run before giving up.
    pub max_nudges: u64,
    /// Stop at the first globally consistent snapshot instead of
    /// requiring the event queue to drain (required for protocols that
    /// never go quiet, such as distributed breakout).
    pub stop_on_first_solution: bool,
    /// Record delivery and fault events into the report's trace.
    pub record_trace: bool,
}

impl Default for VirtualConfig {
    fn default() -> Self {
        VirtualConfig {
            seed: 0,
            link: LinkPolicy::perfect(),
            schedule: None,
            max_ticks: 1_000_000,
            max_nudges: 64,
            stop_on_first_solution: false,
            record_trace: false,
        }
    }
}

/// Result of a [`run_virtual`] execution.
#[derive(Debug, Clone)]
pub struct VirtualReport {
    /// Metrics and solution. `cycles` reports the final virtual tick;
    /// the fault counters are exact and replayable.
    pub outcome: TrialOutcome,
    /// Final virtual tick.
    pub ticks: u64,
    /// Agent activations (batches processed, including starts).
    pub activations: u64,
    /// Stall-triggered recovery passes consumed.
    pub nudges: u64,
    /// Event log; empty unless `record_trace` was set.
    pub trace: Vec<TraceEvent>,
    /// Every fault the run actually injected, as a replayable schedule:
    /// re-running with `schedule: Some(fault_log)` under the same seed
    /// reproduces this run bit-for-bit, with no lottery involved.
    pub fault_log: FaultSchedule,
}

/// Runs `agents` on the deterministic faulty-link runtime: a virtual-time
/// event executor where every delivery, fault, and activation order is a
/// pure function of `(agents, problem, config)`. Two runs with the same
/// inputs produce bit-identical metrics, fault counters, and traces —
/// the replay harness for any failure observed under injected faults.
///
/// This is the [`WaveEngine`] with the [`InProcess`] stepper, so its
/// termination rules are the engine's. Quiescence detection is exact by
/// construction: the event queue *is* the in-flight set. When it drains,
/// the snapshot is checked; if the system stalled short of a solution, a
/// recovery pass retransmits parked drops and asks agents to re-announce
/// and re-evaluate ([`DistributedAgent::on_nudge`]), up to
/// `config.max_nudges` times — regardless of the fault policy, since a
/// protocol can park itself without losing a message.
///
/// # Errors
///
/// [`RuntimeError::NonDenseAgentIds`] unless agent *i* reports id *i*;
/// [`RuntimeError::UnknownRecipient`] when a message addresses an agent
/// outside the population.
pub fn run_virtual<A>(
    agents: Vec<A>,
    problem: &DistributedCsp,
    config: &VirtualConfig,
) -> Result<VirtualReport, RuntimeError>
where
    A: DistributedAgent,
{
    let n = agents.len();
    let engine = WaveEngine::new(n, problem, config, RuntimeKind::Virtual, Direct);
    engine.run(problem, &mut InProcess::new(agents)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Outbox;
    use crate::fixtures::{all_true_problem, ring, Gossip};
    use crate::message::Envelope;
    use discsp_core::{Termination, Value, VarValue};

    #[test]
    fn perfect_policy_routes_instantly_without_draws() {
        let mut link = Link::new(LinkPolicy::perfect(), 7);
        for now in [0u64, 3, 9] {
            let d = link.route(now);
            assert_eq!(d.deliveries, Deliveries::Once(now + 1), "one tick per hop");
            assert!(d.faults.is_empty());
        }
        assert_eq!(link.stats.sent, 3);
        assert_eq!(link.stats.dropped, 0);
        assert_eq!(link.stats.max_delay, 0);
    }

    #[test]
    fn link_streams_are_replayable() {
        let policy = LinkPolicy::lossy(300_000)
            .with_duplication(100_000)
            .with_delay(1, 5)
            .with_reordering(3);
        let seed = derive_link_seed(42, AgentId::new(3), AgentId::new(8));
        let mut a = Link::new(policy, seed);
        let mut b = Link::new(policy, seed);
        for now in 0..200u64 {
            assert_eq!(a.route(now), b.route(now));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn distinct_links_get_distinct_streams() {
        let s1 = derive_link_seed(1, AgentId::new(0), AgentId::new(1));
        let s2 = derive_link_seed(1, AgentId::new(1), AgentId::new(0));
        let s3 = derive_link_seed(2, AgentId::new(0), AgentId::new(1));
        assert_ne!(s1, s2, "direction matters");
        assert_ne!(s1, s3, "run seed matters");
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let mut link = Link::new(LinkPolicy::lossy(PPM / 10), 99);
        for _ in 0..10_000 {
            link.route(0);
        }
        let dropped = link.stats.dropped;
        assert!(
            (700..=1300).contains(&dropped),
            "10% of 10k ≈ 1000, got {dropped}"
        );
    }

    #[test]
    fn total_drop_parks_everything() {
        let mut link = Link::new(LinkPolicy::lossy(PPM), 5);
        for _ in 0..50 {
            assert_eq!(link.route(0).deliveries, Deliveries::Dropped);
        }
        assert_eq!(link.stats.dropped, 50);
    }

    #[test]
    fn reordering_counts_overtakes() {
        let mut link = Link::new(LinkPolicy::reordering(8), 11);
        for now in 0..500u64 {
            link.route(now / 4);
        }
        assert!(link.stats.reordered > 0, "an 8-tick window must overtake");
        assert!(link.stats.max_delay <= 8);
    }

    #[test]
    fn duplication_emits_two_copies() {
        let mut link = Link::new(LinkPolicy::perfect().with_duplication(PPM), 1);
        let d = link.route(4);
        assert_eq!(d.deliveries.as_slice().len(), 2);
        assert_eq!(link.stats.duplicated, 1);
        assert!(d.faults.contains(&FaultKind::Duplicated));
    }

    #[test]
    fn redelivery_counts_and_pays_delay() {
        let mut link = Link::new(LinkPolicy::delayed(2, 2), 1);
        let (due, faults) = link.redeliver(10);
        assert_eq!(due, 13, "base hop tick plus the fixed 2-tick delay");
        assert_eq!(link.stats.retransmitted, 1);
        assert_eq!(
            faults,
            vec![FaultKind::Delayed(2)],
            "the retransmission pass reports the delay it injected"
        );
    }

    // -- run_virtual ------------------------------------------------------

    #[test]
    fn virtual_run_solves_with_perfect_links() {
        let problem = all_true_problem(5);
        let report = run_virtual(ring(5), &problem, &VirtualConfig::default()).expect("runs");
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        // Same protocol count as the threaded runtime: 5 starts + 4 hops.
        assert_eq!(report.outcome.metrics.ok_messages, 9);
        assert_eq!(report.outcome.metrics.messages_sent, 9);
        assert_eq!(report.outcome.metrics.messages_dropped, 0);
        assert_eq!(report.nudges, 0);
    }

    #[test]
    fn virtual_run_is_bit_identical_under_faults() {
        let problem = all_true_problem(6);
        let config = VirtualConfig {
            seed: 13,
            link: LinkPolicy::lossy(200_000)
                .with_delay(0, 4)
                .with_reordering(2),
            ..VirtualConfig::default()
        };
        let a = run_virtual(ring(6), &problem, &config).expect("runs");
        let b = run_virtual(ring(6), &problem, &config).expect("runs");
        assert_eq!(a.outcome.metrics, b.outcome.metrics);
        assert_eq!(a.outcome.solution, b.outcome.solution);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.activations, b.activations);
        assert_eq!(a.nudges, b.nudges);
    }

    #[test]
    fn virtual_run_survives_total_first_drop() {
        // Every link drops everything; recovery retransmits, and the
        // second lottery is bypassed, so gossip still completes.
        let problem = all_true_problem(4);
        let config = VirtualConfig {
            seed: 3,
            link: LinkPolicy::lossy(PPM),
            ..VirtualConfig::default()
        };
        let report = run_virtual(ring(4), &problem, &config).expect("runs");
        assert_eq!(report.outcome.metrics.termination, Termination::Solved);
        assert!(report.nudges > 0, "recovery must have fired");
        let m = &report.outcome.metrics;
        assert_eq!(m.messages_dropped, m.messages_sent, "every send dropped");
        assert_eq!(
            m.total_messages(),
            m.messages_sent - m.messages_dropped + m.messages_duplicated + m.messages_retransmitted,
            "class counters count exactly the enqueued copies"
        );
    }

    #[test]
    fn virtual_run_class_counters_match_enqueues_under_faults() {
        let problem = all_true_problem(6);
        for seed in 0..10u64 {
            let config = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(150_000)
                    .with_duplication(100_000)
                    .with_delay(0, 3)
                    .with_reordering(2),
                ..VirtualConfig::default()
            };
            let report = run_virtual(ring(6), &problem, &config).expect("runs");
            let m = &report.outcome.metrics;
            assert_eq!(m.termination, Termination::Solved, "seed {seed}");
            assert_eq!(
                m.total_messages(),
                m.messages_sent - m.messages_dropped
                    + m.messages_duplicated
                    + m.messages_retransmitted,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn recorded_fault_log_replays_bit_identically() {
        // The scripted-schedule contract: replaying a lottery run's
        // fault_log under the same seed reproduces everything — metrics,
        // solution, tick count, nudges, and the full event trace.
        let problem = all_true_problem(6);
        for seed in 0..8u64 {
            let config = VirtualConfig {
                seed,
                link: LinkPolicy::lossy(250_000)
                    .with_duplication(150_000)
                    .with_delay(0, 4)
                    .with_reordering(2),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let original = run_virtual(ring(6), &problem, &config).expect("runs");
            assert!(
                !original.fault_log.is_empty(),
                "seed {seed}: a hostile policy must inject something"
            );
            let replay_config = VirtualConfig {
                seed,
                link: LinkPolicy::perfect(),
                schedule: Some(original.fault_log.clone()),
                record_trace: true,
                ..VirtualConfig::default()
            };
            let replay = run_virtual(ring(6), &problem, &replay_config).expect("runs");
            assert_eq!(
                original.outcome.metrics, replay.outcome.metrics,
                "seed {seed}"
            );
            assert_eq!(
                original.outcome.solution, replay.outcome.solution,
                "seed {seed}"
            );
            assert_eq!(original.ticks, replay.ticks, "seed {seed}");
            assert_eq!(original.activations, replay.activations, "seed {seed}");
            assert_eq!(original.nudges, replay.nudges, "seed {seed}");
            assert_eq!(original.trace, replay.trace, "seed {seed}");
            assert_eq!(
                original.fault_log, replay.fault_log,
                "seed {seed}: the replay's own log is the script it was fed"
            );
        }
    }

    #[test]
    fn scripted_link_follows_its_script() {
        let mut script = BTreeMap::new();
        script.insert(0, FaultAction::Drop);
        script.insert(1, FaultAction::Delay(4));
        script.insert(
            2,
            FaultAction::Duplicate {
                first: 0,
                second: 2,
            },
        );
        let mut link = Link::scripted(script);

        let d0 = link.route(0);
        assert_eq!(d0.deliveries, Deliveries::Dropped);
        assert_eq!(d0.faults, vec![FaultKind::Dropped]);

        let d1 = link.route(0);
        assert_eq!(d1.deliveries, Deliveries::Once(5));
        assert_eq!(d1.faults, vec![FaultKind::Delayed(4)]);

        let d2 = link.route(0);
        assert_eq!(d2.deliveries, Deliveries::Twice([1, 3]));
        assert!(d2.faults.contains(&FaultKind::Duplicated));
        assert!(
            d2.faults.contains(&FaultKind::Reordered),
            "the zero-delay first copy lands before the earlier Delay(4)"
        );

        // Call 3 is unscripted: perfect delivery.
        let d3 = link.route(2);
        assert_eq!(d3.deliveries, Deliveries::Once(3));
        assert_eq!(link.stats.sent, 4);
        assert_eq!(link.stats.dropped, 1);
        assert_eq!(link.stats.duplicated, 1);
        assert_eq!(
            link.fault_log().len(),
            3,
            "the log mirrors exactly the scripted faults that fired"
        );
    }

    #[test]
    fn virtual_run_records_fault_trace() {
        let problem = all_true_problem(4);
        let config = VirtualConfig {
            seed: 1,
            link: LinkPolicy::lossy(500_000).with_delay(1, 3),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = run_virtual(ring(4), &problem, &config).expect("runs");
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Fault { .. })));
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { .. })));
        let dropped = report
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Fault {
                        kind: FaultKind::Dropped,
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(dropped, report.outcome.metrics.messages_dropped);
    }

    #[test]
    fn virtual_trace_passes_the_audit() {
        let problem = all_true_problem(5);
        let config = VirtualConfig {
            seed: 2,
            link: LinkPolicy::lossy(300_000)
                .with_delay(0, 2)
                .with_duplication(50_000),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = run_virtual(ring(5), &problem, &config).expect("runs");
        let audit = discsp_trace::audit(&report.trace).expect("trace is sealed by RunEnd");
        assert!(audit.passed(), "audit failures: {:?}", audit.failures);
        assert_eq!(audit.metrics, report.outcome.metrics);
    }

    #[test]
    fn virtual_run_rejects_unknown_recipient() {
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
        let err = run_virtual(vec![Misrouter], &problem, &VirtualConfig::default());
        assert_eq!(
            err.unwrap_err(),
            RuntimeError::UnknownRecipient {
                agent: AgentId::new(99)
            }
        );
    }

    #[test]
    fn virtual_run_cuts_off_unsolvable_quiescence() {
        // All-false gossip quiesces at a non-solution. Stalls get the
        // bounded nudge treatment even over perfect links (an agent
        // protocol can park itself without message loss); the gossip
        // ring re-announces on every nudge without ever changing state,
        // so the run burns the whole budget and then reports a cutoff —
        // still far inside the tick budget.
        let problem = all_true_problem(3);
        let mut agents = ring(3);
        for a in agents.iter_mut() {
            a.value = Value::FALSE;
        }
        let config = VirtualConfig::default();
        let report = run_virtual(agents, &problem, &config).expect("runs");
        assert_eq!(report.outcome.metrics.termination, Termination::CutOff);
        assert!(report.outcome.solution.is_none());
        assert_eq!(report.nudges, config.max_nudges);
        assert!(report.ticks < config.max_ticks);
    }

    #[test]
    fn policy_constructors_compose() {
        let p = LinkPolicy::perfect()
            .with_drop(10)
            .with_duplication(20)
            .with_delay(1, 2)
            .with_reordering(3);
        assert!(!p.is_perfect());
        assert_eq!(p.drop_ppm, 10);
        assert_eq!(p.dup_ppm, 20);
        assert_eq!((p.delay_min, p.delay_max), (1, 2));
        assert_eq!(p.reorder_window, 3);
        assert!(LinkPolicy::default().is_perfect());
    }
}
