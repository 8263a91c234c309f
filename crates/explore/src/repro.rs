//! Repro fixture files: a failing (or once-failing) trial serialized
//! as a few integers plus its minimized fault schedule.
//!
//! The format is line-oriented text so fixtures read well in review:
//!
//! ```text
//! # free-form root-cause commentary
//! algo = awc-rslv
//! instance = coloring 10 42
//! run-seed = 7
//! max-ticks = 200000
//! max-nudges = 200
//! violation = conservation
//! 0 -> 1 @3 drop
//! 2 -> 0 @0 dup 0 2
//! ```
//!
//! Header lines are `key = value`; any line containing `->` is a fault
//! event in [`FaultSchedule`]'s own text format. `#` comments and
//! blank lines are ignored. A fixture rebuilds its [`Subject`] from
//! the `algo`/`instance` pair and replays the schedule bit-identically
//! under `run-seed`, so regression tests need nothing but this file.

use discsp_runtime::{FaultSchedule, LinkPolicy, VirtualConfig, VirtualReport};

use crate::campaign::{violations, Finding, Violation};
use crate::subject::{Algo, Instance, Subject};

/// A self-contained, replayable record of one failing trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The algorithm under test.
    pub algo: Algo,
    /// How to rebuild the instance.
    pub instance: Instance,
    /// Seed of the failing run (fixes same-tick delivery order).
    pub run_seed: u64,
    /// Tick budget of the failing run.
    pub max_ticks: u64,
    /// Nudge budget of the failing run.
    pub max_nudges: u64,
    /// Class label of the violation this schedule exposed (see
    /// [`Violation::class`]).
    pub violation: String,
    /// The (minimized) fault schedule.
    pub schedule: FaultSchedule,
}

impl Repro {
    /// Captures a campaign finding, preferring its minimized schedule.
    pub fn from_finding(finding: &Finding) -> Repro {
        let schedule = match &finding.minimized {
            Some(m) => m.schedule.clone(),
            None => finding.fault_log.clone(),
        };
        let violation = finding
            .violations
            .first()
            .map(|v| v.class().to_string())
            .unwrap_or_default();
        Repro {
            algo: finding.subject.algo,
            instance: finding.subject.instance,
            run_seed: finding.config.seed,
            max_ticks: finding.config.max_ticks,
            max_nudges: finding.config.max_nudges,
            violation,
            schedule,
        }
    }

    /// Renders the fixture body (no leading commentary).
    pub fn to_text(&self) -> String {
        let instance = match self.instance {
            Instance::Coloring { agents, seed } => format!("coloring {agents} {seed}"),
            Instance::K4 => "k4".to_string(),
        };
        let mut out = String::new();
        out.push_str(&format!("algo = {}\n", self.algo));
        out.push_str(&format!("instance = {instance}\n"));
        out.push_str(&format!("run-seed = {}\n", self.run_seed));
        out.push_str(&format!("max-ticks = {}\n", self.max_ticks));
        out.push_str(&format!("max-nudges = {}\n", self.max_nudges));
        out.push_str(&format!("violation = {}\n", self.violation));
        out.push_str(&self.schedule.to_text());
        out
    }

    /// Parses a fixture file.
    ///
    /// # Errors
    ///
    /// Reports the first malformed or missing line as a string.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut algo = None;
        let mut instance = None;
        let mut run_seed = None;
        let mut max_ticks = None;
        let mut max_nudges = None;
        let mut violation = None;
        let mut schedule_lines = String::new();

        for (index, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = index + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.contains("->") {
                schedule_lines.push_str(line);
                schedule_lines.push('\n');
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value` or a fault event"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "algo" => {
                    algo = Some(
                        Algo::parse(value)
                            .ok_or_else(|| format!("line {lineno}: unknown algo `{value}`"))?,
                    );
                }
                "instance" => {
                    instance = Some(parse_instance(value, lineno)?);
                }
                "run-seed" => run_seed = Some(parse_u64(value, lineno)?),
                "max-ticks" => max_ticks = Some(parse_u64(value, lineno)?),
                "max-nudges" => max_nudges = Some(parse_u64(value, lineno)?),
                "violation" => violation = Some(value.to_string()),
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }

        let schedule = FaultSchedule::parse(&schedule_lines).map_err(|e| e.to_string())?;
        Ok(Repro {
            algo: algo.ok_or("missing `algo`")?,
            instance: instance.ok_or("missing `instance`")?,
            run_seed: run_seed.ok_or("missing `run-seed`")?,
            max_ticks: max_ticks.ok_or("missing `max-ticks`")?,
            max_nudges: max_nudges.ok_or("missing `max-nudges`")?,
            violation: violation.ok_or("missing `violation`")?,
            schedule,
        })
    }

    /// Rebuilds the subject this fixture ran.
    ///
    /// # Errors
    ///
    /// Propagates instance-construction failures.
    pub fn subject(&self) -> Result<Subject, String> {
        Subject::from_instance(self.algo, self.instance)
    }

    /// The exact scripted config of the recorded run.
    pub fn config(&self) -> VirtualConfig {
        VirtualConfig {
            seed: self.run_seed,
            link: LinkPolicy::perfect(),
            schedule: Some(self.schedule.clone()),
            max_ticks: self.max_ticks,
            max_nudges: self.max_nudges,
            stop_on_first_solution: false,
            record_trace: true,
        }
    }

    /// Replays the fixture once and judges it against every oracle.
    ///
    /// # Errors
    ///
    /// Propagates subject-construction and runtime failures.
    pub fn replay(&self) -> Result<(VirtualReport, Vec<Violation>), String> {
        let subject = self.subject()?;
        let config = self.config();
        let report = subject.run(&config)?;
        let found = violations(&subject, &config, &report);
        Ok((report, found))
    }
}

fn parse_instance(value: &str, lineno: usize) -> Result<Instance, String> {
    let mut parts = value.split_whitespace();
    match parts.next() {
        Some("k4") => Ok(Instance::K4),
        Some("coloring") => {
            let agents = parts
                .next()
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or_else(|| format!("line {lineno}: `instance = coloring <agents> <seed>`"))?;
            let seed = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("line {lineno}: `instance = coloring <agents> <seed>`"))?;
            Ok(Instance::Coloring { agents, seed })
        }
        _ => Err(format!("line {lineno}: unknown instance `{value}`")),
    }
}

fn parse_u64(value: &str, lineno: usize) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("line {lineno}: `{value}` is not an unsigned integer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::AgentId;
    use discsp_runtime::{FaultAction, FaultEvent};

    fn sample() -> Repro {
        Repro {
            algo: Algo::AwcRslv,
            instance: Instance::Coloring {
                agents: 10,
                seed: 3,
            },
            run_seed: 7,
            max_ticks: 200_000,
            max_nudges: 200,
            violation: "conservation".to_string(),
            schedule: FaultSchedule::new(vec![
                FaultEvent {
                    from: AgentId::new(0),
                    to: AgentId::new(1),
                    call: 3,
                    action: FaultAction::Drop,
                },
                FaultEvent {
                    from: AgentId::new(2),
                    to: AgentId::new(0),
                    call: 0,
                    action: FaultAction::Duplicate {
                        first: 0,
                        second: 2,
                    },
                },
            ]),
        }
    }

    #[test]
    fn text_round_trips() {
        let repro = sample();
        let parsed = Repro::parse(&repro.to_text()).unwrap();
        assert_eq!(parsed, repro);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# root cause\n\n{}\n# trailing\n", sample().to_text());
        assert_eq!(Repro::parse(&text).unwrap(), sample());
    }

    #[test]
    fn k4_instances_round_trip() {
        let mut repro = sample();
        repro.instance = Instance::K4;
        repro.algo = Algo::Dba;
        assert_eq!(Repro::parse(&repro.to_text()).unwrap(), repro);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = Repro::parse("algo = awc\nwhatever\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = Repro::parse("algo = zzz\n").unwrap_err();
        assert!(err.contains("unknown algo"), "{err}");
        let err = Repro::parse("").unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn replay_is_bit_identical() {
        let repro = sample();
        let (first, v1) = repro.replay().unwrap();
        let (second, v2) = repro.replay().unwrap();
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(first.trace, second.trace);
        assert_eq!(first.fault_log, second.fault_log);
        assert_eq!(v1, v2);
    }
}
