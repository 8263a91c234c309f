//! Delta debugging over fault schedules.
//!
//! Zeller & Hildebrandt's `ddmin` specialized to [`FaultSchedule`]s: a
//! failing schedule is repeatedly split into chunks, and chunks (or
//! their complements) that still fail replace the current schedule,
//! until no single event can be removed without losing the failure.
//! The result is 1-minimal — every remaining fault event is necessary.
//!
//! Scripted replays are bit-deterministic, so the predicate is a pure
//! function of the schedule and the classic algorithm applies without
//! retry logic. When the failure is pinned to one event among `k`
//! irrelevant ones, the chunk search degenerates to binary search and
//! converges in `O(log k)` predicate evaluations (asserted by a test).

use discsp_runtime::{FaultEvent, FaultSchedule};

/// The result of a minimization run.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// The 1-minimal failing schedule.
    pub schedule: FaultSchedule,
    /// How many predicate evaluations (replays) the search spent.
    pub tests: usize,
}

/// Minimizes `events` while `failing` keeps returning `true`.
///
/// `failing` must hold for the full input; if it does not, the input is
/// returned unchanged with the single disproving test counted. Events
/// are treated as a set — [`FaultSchedule::new`] canonicalizes order —
/// so chunk boundaries never change replay semantics.
pub fn ddmin<F>(events: &[FaultEvent], mut failing: F) -> MinimizeOutcome
where
    F: FnMut(&FaultSchedule) -> bool,
{
    let mut tests = 0usize;
    let mut current: Vec<FaultEvent> = events.to_vec();

    tests += 1;
    if !failing(&FaultSchedule::new(current.clone())) {
        return MinimizeOutcome {
            schedule: FaultSchedule::new(current),
            tests,
        };
    }

    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;

        // Try each chunk alone: does a small subset already fail?
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let subset: Vec<FaultEvent> = current.get(start..end).unwrap_or_default().to_vec();
            tests += 1;
            if failing(&FaultSchedule::new(subset.clone())) {
                current = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }

        // Try each complement: does removing one chunk keep the failure?
        // At granularity 2 the complements are the subsets just tested.
        if granularity > 2 {
            let mut start = 0;
            while start < current.len() {
                let end = (start + chunk).min(current.len());
                let complement: Vec<FaultEvent> = current
                    .get(..start)
                    .unwrap_or_default()
                    .iter()
                    .chain(current.get(end..).unwrap_or_default().iter())
                    .cloned()
                    .collect();
                tests += 1;
                if failing(&FaultSchedule::new(complement.clone())) {
                    current = complement;
                    granularity = granularity.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
        }
        if reduced {
            continue;
        }

        if granularity >= current.len() {
            break;
        }
        granularity = (granularity * 2).min(current.len());
    }

    MinimizeOutcome {
        schedule: FaultSchedule::new(current),
        tests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::AgentId;
    use discsp_runtime::FaultAction;

    fn event(from: u32, to: u32, call: u64, action: FaultAction) -> FaultEvent {
        FaultEvent {
            from: AgentId::new(from),
            to: AgentId::new(to),
            call,
            action,
        }
    }

    fn noise(n: u64) -> Vec<FaultEvent> {
        (0..n)
            .map(|i| {
                event(
                    (i % 5) as u32,
                    ((i + 1) % 5) as u32,
                    i,
                    FaultAction::Delay(1 + i % 3),
                )
            })
            .collect()
    }

    #[test]
    fn single_culprit_converges_exactly_in_log_bounded_tests() {
        for total in [2u64, 3, 8, 17, 64, 100] {
            let culprit = event(7, 8, 0, FaultAction::Drop);
            let mut events = noise(total - 1);
            events.push(culprit);
            let outcome = ddmin(&events, |s| s.events().contains(&culprit));
            assert_eq!(outcome.schedule.events(), &[culprit], "n={total}");
            // Binary-search regime: one failing + one passing probe per
            // halving, plus the initial confirmation and final level.
            let bound = 2 * (total as usize).next_power_of_two().trailing_zeros() as usize + 4;
            assert!(
                outcome.tests <= bound,
                "n={total}: {} tests > bound {bound}",
                outcome.tests
            );
        }
    }

    #[test]
    fn conjunction_of_two_events_is_one_minimal() {
        let a = event(9, 1, 0, FaultAction::Drop);
        let b = event(1, 9, 2, FaultAction::Delay(4));
        let mut events = noise(20);
        events.push(a);
        events.push(b);
        let outcome = ddmin(&events, |s| {
            s.events().contains(&a) && s.events().contains(&b)
        });
        let mut want = [a, b];
        want.sort();
        assert_eq!(outcome.schedule.events(), &want[..]);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let events = noise(6);
        let outcome = ddmin(&events, |_| false);
        assert_eq!(outcome.schedule.len(), 6);
        assert_eq!(outcome.tests, 1);
    }

    #[test]
    fn empty_input_stays_empty() {
        let outcome = ddmin(&[], |_| true);
        assert!(outcome.schedule.is_empty());
    }
}
