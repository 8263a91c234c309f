//! The seed-derived placement of an agent population onto the M:N
//! sharded executor's shards.
//!
//! [`ShardPlan`] deals a SplitMix64-shuffled permutation of the agent
//! ids round-robin onto `workers` shards, which balances shard sizes to
//! within one agent and makes *membership* a pure function of
//! `(run_seed, n, workers)`, never of thread timing. Each shard then
//! holds its members in ascending id order: a worker drains its agents
//! in the order their heap data was built, and a shard's outputs come
//! out id-ascending, ready for the coordinator's merge.
//!
//! Determinism survives M:N because the plan is only a partition: the
//! coordinator merges every wave's per-agent outputs back in ascending
//! agent-id order before they touch the router or the trace, so the
//! partition (and the worker count itself) is unobservable in any run
//! artifact.

use crate::seed::SplitMix64;

/// Domain-separation constant for the shard-placement stream, so placing
/// agents never correlates with the per-link fault streams derived from
/// the same run seed.
const SHARD_STREAM: u64 = 0x243F_6A88_85A3_08D3;

/// The seed-derived placement of `n` agents onto `workers` shards.
///
/// Membership is a pure function of `(run_seed, n, workers)`: a
/// Fisher–Yates shuffle of the agent ids (domain-separated from the link
/// streams) dealt round-robin, so shard sizes differ by at most one.
/// Within a shard, slots follow ascending agent id.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    workers: usize,
    /// Agent id → `(shard, slot)`.
    placement: Vec<(u32, u32)>,
    /// Per shard: agent ids in slot (= ascending id) order.
    members: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Plans `n` agents onto `workers` shards (clamped to at least 1)
    /// under `run_seed`.
    pub fn new(n: usize, workers: usize, run_seed: u64) -> Self {
        let workers = workers.max(1).min(n.max(1));
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = SplitMix64::new(run_seed ^ SHARD_STREAM);
        for i in (1..n).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let mut members: Vec<Vec<usize>> = (0..workers)
            .map(|_| Vec::with_capacity(n / workers + 1))
            .collect();
        for (deal, &agent) in perm.iter().enumerate() {
            if let Some(bucket) = members.get_mut(deal % workers) {
                bucket.push(agent);
            }
        }
        let mut placement = vec![(0u32, 0u32); n];
        for (shard, bucket) in members.iter_mut().enumerate() {
            bucket.sort_unstable();
            for (slot, &agent) in bucket.iter().enumerate() {
                if let Some(place) = placement.get_mut(agent) {
                    *place = (shard as u32, slot as u32);
                }
            }
        }
        ShardPlan {
            workers,
            placement,
            members,
        }
    }

    /// Number of shards (= worker threads).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The `(shard, slot)` an agent was dealt to.
    pub fn placement_of(&self, agent: usize) -> (usize, usize) {
        match self.placement.get(agent) {
            Some(&(shard, slot)) => (shard as usize, slot as usize),
            None => (0, 0),
        }
    }

    /// The agent ids of one shard, ascending (= slot order).
    pub fn members(&self, shard: usize) -> &[usize] {
        match self.members.get(shard) {
            Some(ids) => ids,
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_a_balanced_partition() {
        let plan = ShardPlan::new(103, 8, 42);
        assert_eq!(plan.workers(), 8);
        let mut seen = [false; 103];
        for shard in 0..plan.workers() {
            let members = plan.members(shard);
            assert!(
                (103 / 8..=103 / 8 + 1).contains(&members.len()),
                "shard sizes within one of each other"
            );
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "shard {shard} holds its members in ascending id order"
            );
            for (slot, &agent) in members.iter().enumerate() {
                assert_eq!(plan.placement_of(agent), (shard, slot));
                assert!(!seen[agent], "agent dealt twice");
                seen[agent] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every agent placed");
    }

    #[test]
    fn shard_plan_is_seed_derived() {
        let a = ShardPlan::new(64, 4, 7);
        let b = ShardPlan::new(64, 4, 7);
        let c = ShardPlan::new(64, 4, 8);
        for shard in 0..4 {
            assert_eq!(a.members(shard), b.members(shard), "same seed, same plan");
        }
        assert!(
            (0..4).any(|s| a.members(s) != c.members(s)),
            "different seed, different plan"
        );
    }

    #[test]
    fn shard_plan_clamps_degenerate_worker_counts() {
        let zero = ShardPlan::new(5, 0, 1);
        assert_eq!(zero.workers(), 1);
        assert_eq!(zero.members(0).len(), 5);
        let oversubscribed = ShardPlan::new(3, 16, 1);
        assert_eq!(oversubscribed.workers(), 3, "never more shards than agents");
        let empty = ShardPlan::new(0, 4, 1);
        assert_eq!(empty.workers(), 1);
        assert!(empty.members(0).is_empty());
    }
}
