//! Scriptable per-event fault schedules.
//!
//! A [`LinkPolicy`](crate::LinkPolicy) describes faults *statistically*:
//! each link draws drop/dup/delay decisions from its private seeded
//! stream, so a run is replayable from `(seed, policy)` but an individual
//! fault cannot be moved or removed without perturbing every later draw.
//! A [`FaultSchedule`] is the exact complement: an explicit list of
//! "the *k*-th message on link `from → to` is dropped / delayed /
//! duplicated" events, with every unlisted message delivered perfectly.
//! Because events are addressed by per-link call index rather than by
//! stream position, deleting one event leaves all others intact — which
//! is precisely what delta-debugging a failing schedule requires.
//!
//! Every faulty run records the faults it actually injected as a
//! [`FaultSchedule`] (see `VirtualReport::fault_log`), so a failure first
//! observed under a probabilistic policy can be re-run scripted,
//! minimized event by event, and committed as a text fixture that
//! replays bit-identically with no RNG involved.

use std::collections::BTreeMap;
use std::fmt;

use discsp_core::AgentId;

/// What happens to one message (or retransmission) on its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultAction {
    /// The message is dropped (and parked for stall-recovery
    /// retransmission, as under a lossy [`LinkPolicy`](crate::LinkPolicy)).
    Drop,
    /// The message is delivered after the given extra delay in ticks.
    Delay(u64),
    /// The message is duplicated; the two copies are delivered after the
    /// given extra delays in ticks.
    Duplicate {
        /// Extra delay of the original copy.
        first: u64,
        /// Extra delay of the duplicate copy.
        second: u64,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Drop => write!(f, "drop"),
            FaultAction::Delay(d) => write!(f, "delay {d}"),
            FaultAction::Duplicate { first, second } => write!(f, "dup {first} {second}"),
        }
    }
}

/// One scripted fault: the `call`-th message offered to the directed
/// link `from → to` (counting both fresh sends and retransmissions,
/// 0-based) suffers `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Sending agent of the affected link.
    pub from: AgentId,
    /// Receiving agent of the affected link.
    pub to: AgentId,
    /// 0-based index of the affected link call (sends and
    /// retransmissions share one counter per link).
    pub call: u64,
    /// The injected fault.
    pub action: FaultAction,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} @{} {}",
            self.from.raw(),
            self.to.raw(),
            self.call,
            self.action
        )
    }
}

/// A parse failure in the [`FaultSchedule`] text format, with the
/// offending 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line number of the bad line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScheduleParseError {}

/// An explicit, replayable list of per-link fault events.
///
/// Canonically sorted by `(from, to, call)`; at most one event per link
/// call (later duplicates are discarded on construction). The empty
/// schedule delivers every message perfectly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule from `events`, sorting canonically and keeping
    /// the first event listed for any `(from, to, call)` slot.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.from, e.to, e.call, e.action));
        events.dedup_by_key(|e| (e.from, e.to, e.call));
        FaultSchedule { events }
    }

    /// The events, in canonical `(from, to, call)` order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scripted fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `call → action` script of the directed link `from → to`.
    pub fn actions_for(&self, from: AgentId, to: AgentId) -> BTreeMap<u64, FaultAction> {
        self.events
            .iter()
            .filter(|e| e.from == from && e.to == to)
            .map(|e| (e.call, e.action))
            .collect()
    }

    /// Renders the schedule in its line-oriented text format, one
    /// `from -> to @call action` event per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`FaultSchedule::to_text`].
    /// Blank lines and `#` comment lines are ignored.
    ///
    /// # Errors
    ///
    /// [`ScheduleParseError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, ScheduleParseError> {
        let mut events = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            events.push(parse_event(line).map_err(|message| ScheduleParseError {
                line: index + 1,
                message,
            })?);
        }
        Ok(FaultSchedule::new(events))
    }
}

fn parse_event(line: &str) -> Result<FaultEvent, String> {
    let mut words = line.split_whitespace();
    let from = parse_agent(words.next(), "sender")?;
    if words.next() != Some("->") {
        return Err("expected `->` after the sender".to_string());
    }
    let to = parse_agent(words.next(), "recipient")?;
    let call = match words.next() {
        Some(w) if w.starts_with('@') => w
            .get(1..)
            .and_then(|digits| digits.parse::<u64>().ok())
            .ok_or_else(|| format!("bad call index `{w}`"))?,
        other => return Err(format!("expected `@call`, got {other:?}")),
    };
    let action = match words.next() {
        Some("drop") => FaultAction::Drop,
        Some("delay") => FaultAction::Delay(parse_u64(words.next(), "delay ticks")?),
        Some("dup") => FaultAction::Duplicate {
            first: parse_u64(words.next(), "first copy delay")?,
            second: parse_u64(words.next(), "second copy delay")?,
        },
        other => return Err(format!("expected drop/delay/dup, got {other:?}")),
    };
    if words.next().is_some() {
        return Err("trailing tokens after the action".to_string());
    }
    Ok(FaultEvent {
        from,
        to,
        call,
        action,
    })
}

fn parse_agent(word: Option<&str>, what: &str) -> Result<AgentId, String> {
    let raw = parse_u64(word, what)?;
    u32::try_from(raw)
        .map(AgentId::new)
        .map_err(|_| format!("{what} id {raw} does not fit an agent id"))
}

fn parse_u64(word: Option<&str>, what: &str) -> Result<u64, String> {
    word.ok_or_else(|| format!("missing {what}"))?
        .parse::<u64>()
        .map_err(|_| format!("bad {what} `{}`", word.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(from: u32, to: u32, call: u64, action: FaultAction) -> FaultEvent {
        FaultEvent {
            from: AgentId::new(from),
            to: AgentId::new(to),
            call,
            action,
        }
    }

    #[test]
    fn canonical_order_and_dedup() {
        let s = FaultSchedule::new(vec![
            ev(1, 0, 2, FaultAction::Drop),
            ev(0, 1, 0, FaultAction::Delay(3)),
            ev(1, 0, 2, FaultAction::Delay(9)), // same slot: first kept
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0], ev(0, 1, 0, FaultAction::Delay(3)));
        // Canonical sort puts Delay(9) < Drop is irrelevant: dedup keys on
        // the slot, keeping the action that sorts first.
        assert_eq!(s.events()[1].call, 2);
    }

    #[test]
    fn text_format_round_trips() {
        let s = FaultSchedule::new(vec![
            ev(0, 1, 3, FaultAction::Drop),
            ev(2, 0, 0, FaultAction::Delay(7)),
            ev(
                1,
                2,
                5,
                FaultAction::Duplicate {
                    first: 0,
                    second: 4,
                },
            ),
        ]);
        let text = s.to_text();
        assert_eq!(FaultSchedule::parse(&text), Ok(s.clone()));
        let commented = format!("# fixture\n\n{text}");
        assert_eq!(FaultSchedule::parse(&commented), Ok(s));
    }

    #[test]
    fn parse_reports_bad_lines() {
        for (text, line) in [
            ("0 -> 1 @x drop", 1),
            ("garbage", 1),
            ("0 -> 1 @0 drop\n0 -> 1 @1 warp", 2),
            ("0 -> 1 @0 delay", 1),
            ("0 -> 1 @0 dup 1", 1),
            ("0 -> 1 @0 drop extra", 1),
            ("0 - 1 @0 drop", 1),
        ] {
            let err = FaultSchedule::parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn actions_for_filters_by_link() {
        let s = FaultSchedule::new(vec![
            ev(0, 1, 0, FaultAction::Drop),
            ev(0, 1, 4, FaultAction::Delay(2)),
            ev(1, 0, 0, FaultAction::Drop),
        ]);
        let map = s.actions_for(AgentId::new(0), AgentId::new(1));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&4), Some(&FaultAction::Delay(2)));
        assert!(s.actions_for(AgentId::new(2), AgentId::new(0)).is_empty());
        assert!(FaultSchedule::default().is_empty());
    }
}
