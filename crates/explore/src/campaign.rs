//! Simulation campaigns: sweep fault schedules, judge every run
//! against independent oracles, and minimize what fails.
//!
//! Each trial draws a `(instance, run-seed, link-policy)` triple from a
//! master seed, runs one [`Subject`] on the virtual executor with trace
//! recording on, and checks four invariant families:
//!
//! 1. **Trace audit** — the auditor recomputes every counter from the
//!    event stream; any structured [`AuditFailure`] is a violation,
//!    with the message-conservation identity split out as its own
//!    class (it is the paper-critical one).
//! 2. **Answer oracles** — a claimed solution must satisfy the
//!    instance; `Insoluble` on a provably solvable instance (and
//!    `Solved` on a provably insoluble one) is a wrong answer.
//! 3. **Quiescence oracles** — a complete configuration that gets cut
//!    off on a solvable instance under a generous budget, or any
//!    configuration that exhausts the stall-recovery nudge budget
//!    (repeated quiescent stalls the recovery pass cannot repair —
//!    the deadlock signature, distinct from tick-budget wandering),
//!    is flagged as non-quiescence. Incomplete algorithms on insoluble
//!    instances are exempt: they can never terminate, so burning the
//!    budgets there is the expected outcome.
//! 4. **Replay determinism** — the identical config must reproduce the
//!    identical run, bit for bit.
//!
//! A failing trial's recorded fault log is first re-run as a script
//! (confirming the failure is carried by the schedule), then handed to
//! [`ddmin`] to find a 1-minimal fault set with the same violation
//! class.
//!
//! [`AuditFailure`]: discsp_trace::AuditFailure

use std::fmt;

use discsp_core::Termination;
use discsp_runtime::{derive_seed, FaultSchedule, LinkPolicy, VirtualConfig, VirtualReport};
use discsp_trace::{audit, AuditField};

use crate::minimize::{ddmin, MinimizeOutcome};
use crate::subject::{Algo, GroundTruth, Subject};

/// An invariant violation observed on one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The run was cut off although the oracles say it must terminate:
    /// either the configuration is complete and the instance solvable,
    /// or the nudge budget was exhausted by unrepairable stalls.
    NonQuiescence {
        /// Final virtual tick.
        ticks: u64,
        /// Recovery nudges consumed.
        nudges: u64,
    },
    /// The run's verdict contradicts the centralized ground truth or
    /// the claimed solution violates a constraint.
    WrongAnswer {
        /// Human-readable description of the contradiction.
        detail: String,
    },
    /// The trace auditor's recomputation disagrees with the runtime's
    /// reported metrics on the listed fields.
    AuditMismatch {
        /// The disagreeing counters.
        fields: Vec<AuditField>,
    },
    /// The message-conservation identity
    /// `total == sent − dropped + duplicated + retransmitted` broke.
    ConservationBroken,
    /// Re-running the identical config produced a different run.
    ReplayDivergence,
    /// The solver or runtime returned an error instead of a report.
    Failure {
        /// The reported error.
        error: String,
    },
}

impl Violation {
    /// A stable class label, used for fixture files and for matching a
    /// minimization replay against the original failure.
    pub fn class(&self) -> &'static str {
        match self {
            Violation::NonQuiescence { .. } => "non-quiescence",
            Violation::WrongAnswer { .. } => "wrong-answer",
            Violation::AuditMismatch { .. } => "audit-mismatch",
            Violation::ConservationBroken => "conservation",
            Violation::ReplayDivergence => "replay-divergence",
            Violation::Failure { .. } => "failure",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NonQuiescence { ticks, nudges } => write!(
                f,
                "non-quiescence: cut off at tick {ticks} after {nudges} recovery nudges"
            ),
            Violation::WrongAnswer { detail } => write!(f, "wrong answer: {detail}"),
            Violation::AuditMismatch { fields } => {
                write!(f, "audit mismatch:")?;
                for field in fields {
                    write!(f, " {field}")?;
                }
                Ok(())
            }
            Violation::ConservationBroken => f.write_str("message conservation broken"),
            Violation::ReplayDivergence => f.write_str("replay divergence"),
            Violation::Failure { error } => write!(f, "run failed: {error}"),
        }
    }
}

/// One failing trial, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Trial index within the campaign.
    pub trial: u64,
    /// Grid label of the link policy the trial ran under.
    pub policy: &'static str,
    /// The subject that failed (rebuildable from its `instance` tag).
    pub subject: Subject,
    /// The exact config of the failing run.
    pub config: VirtualConfig,
    /// Every violation the oracles raised.
    pub violations: Vec<Violation>,
    /// Every fault the run injected, as a replayable schedule.
    pub fault_log: FaultSchedule,
    /// 1-minimal schedule still showing `violations[0]`'s class, when
    /// minimization was enabled and the scripted replay reproduced it.
    pub minimized: Option<MinimizeOutcome>,
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Trials executed.
    pub trials_run: u64,
    /// Failing trials.
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// Whether every trial passed every oracle.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Campaign shape: which algorithm, how many trials, and the budgets.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The algorithm to sweep.
    pub algo: Algo,
    /// Number of `(instance, seed, policy)` trials.
    pub trials: u64,
    /// Master seed; every per-trial seed derives from it.
    pub master_seed: u64,
    /// Agents (= variables) in each coloring instance.
    pub agents: u32,
    /// Tick budget per solvable-instance run.
    pub max_ticks: u64,
    /// Stall-recovery nudge budget per run.
    pub max_nudges: u64,
    /// Whether to delta-debug failing schedules.
    pub minimize: bool,
    /// Worker threads for the M:N sharded executor; `0` keeps trials on
    /// the single-threaded virtual executor. Because the sharded
    /// executor is bit-identical to the virtual one, every oracle —
    /// including replay determinism and scripted minimization —
    /// applies unchanged.
    pub workers: usize,
}

impl CampaignConfig {
    /// The default campaign for `algo`: 200 trials of 10-agent planted
    /// colorings (every 10th trial swaps in the insoluble K₄).
    pub fn new(algo: Algo) -> Self {
        CampaignConfig {
            algo,
            trials: 200,
            master_seed: 1,
            agents: 10,
            max_ticks: 200_000,
            max_nudges: 200,
            minimize: true,
            workers: 0,
        }
    }
}

/// Incomplete algorithms on the insoluble instance never terminate;
/// cap those runs well below the solvable-instance budget (the only
/// oracle there is "never claims `Solved`", which a short run checks).
const INSOLUBLE_TICK_CAP: u64 = 5_000;

/// The deterministic policy grid trials cycle through. Rates are in
/// parts per million; the `hostile` entry stacks every fault type the
/// way the seed repo's soak test does.
pub fn policy_grid() -> Vec<(&'static str, LinkPolicy)> {
    vec![
        ("drop20", LinkPolicy::lossy(200_000)),
        ("delay4", LinkPolicy::delayed(0, 4)),
        ("dup20", LinkPolicy::perfect().with_duplication(200_000)),
        ("reorder3", LinkPolicy::reordering(3)),
        (
            "dup_delay",
            LinkPolicy::perfect()
                .with_duplication(200_000)
                .with_delay(0, 4),
        ),
        (
            "hostile",
            LinkPolicy::lossy(150_000)
                .with_duplication(100_000)
                .with_delay(0, 3)
                .with_reordering(2),
        ),
    ]
}

/// Judges one report against every oracle. `config` must have had
/// `record_trace` set (the campaign always does).
pub fn violations(
    subject: &Subject,
    config: &VirtualConfig,
    report: &VirtualReport,
) -> Vec<Violation> {
    let mut out = Vec::new();

    match audit(&report.trace) {
        Err(e) => out.push(Violation::Failure {
            error: format!("unauditable trace: {e}"),
        }),
        Ok(a) => {
            if a.failed(AuditField::Conservation) {
                out.push(Violation::ConservationBroken);
            }
            let fields: Vec<AuditField> = a
                .failures
                .iter()
                .map(|f| f.field)
                .filter(|&f| f != AuditField::Conservation)
                .collect();
            if !fields.is_empty() {
                out.push(Violation::AuditMismatch { fields });
            }
        }
    }

    let metrics = &report.outcome.metrics;
    match metrics.termination {
        Termination::Solved => match &report.outcome.solution {
            Some(s) if subject.problem.is_solution(s) => {
                if subject.truth == GroundTruth::Insoluble {
                    out.push(Violation::WrongAnswer {
                        detail: "claimed a solution to a provably insoluble instance".to_string(),
                    });
                }
            }
            Some(_) => out.push(Violation::WrongAnswer {
                detail: "claimed solution violates a constraint".to_string(),
            }),
            None => out.push(Violation::WrongAnswer {
                detail: "terminated Solved without a solution".to_string(),
            }),
        },
        Termination::Insoluble => {
            if subject.truth == GroundTruth::Solvable {
                out.push(Violation::WrongAnswer {
                    detail: "claimed insoluble but the centralized solver found a solution"
                        .to_string(),
                });
            }
        }
        Termination::CutOff => {
            let must_terminate = subject.complete && subject.truth == GroundTruth::Solvable;
            // An incomplete algorithm on an insoluble instance can never
            // terminate, so it quiesces at non-solutions for as long as
            // the budgets allow; exhausting the nudge budget there is
            // the expected outcome, not a deadlock.
            let hopeless = !subject.complete && subject.truth == GroundTruth::Insoluble;
            let deadlocked =
                !hopeless && config.max_nudges > 0 && report.nudges >= config.max_nudges;
            if must_terminate || deadlocked {
                out.push(Violation::NonQuiescence {
                    ticks: report.ticks,
                    nudges: report.nudges,
                });
            }
        }
    }

    out
}

/// Replays `schedule` as a script under `base`'s seed and budgets and
/// reports whether a violation of class `class` shows up. This is the
/// `ddmin` predicate: scripted runs are bit-deterministic, so it is a
/// pure function of the schedule.
pub fn reproduces(
    subject: &Subject,
    base: &VirtualConfig,
    schedule: &FaultSchedule,
    class: &str,
) -> bool {
    let config = VirtualConfig {
        schedule: Some(schedule.clone()),
        link: LinkPolicy::perfect(),
        record_trace: true,
        ..base.clone()
    };
    match subject.run(&config) {
        Ok(report) => violations(subject, &config, &report)
            .iter()
            .any(|v| v.class() == class),
        Err(e) => class == Violation::Failure { error: e }.class(),
    }
}

/// Fault logs longer than this are not minimized: `ddmin` replays the
/// subject once per test, and a multi-thousand-event log (a long run
/// under a dense policy) can need thousands of replays. The full log
/// still ships with the finding, so nothing is lost — only the
/// 1-minimal form.
pub const MINIMIZE_EVENT_CAP: usize = 2_000;

/// Minimizes a failing trial's fault log: confirm the scripted replay
/// of the full log still shows `class`, then `ddmin` it down. Returns
/// `None` when the failure is not carried by the schedule (e.g. replay
/// divergence, or a lottery/scripted discrepancy — itself a bug the
/// un-minimized finding documents), or when the log exceeds
/// [`MINIMIZE_EVENT_CAP`].
pub fn minimize_finding(
    subject: &Subject,
    base: &VirtualConfig,
    fault_log: &FaultSchedule,
    class: &str,
) -> Option<MinimizeOutcome> {
    if fault_log.len() > MINIMIZE_EVENT_CAP {
        return None;
    }
    if !reproduces(subject, base, fault_log, class) {
        return None;
    }
    Some(ddmin(fault_log.events(), |s| {
        reproduces(subject, base, s, class)
    }))
}

/// Runs one trial and returns its finding, if it failed.
fn run_trial(config: &CampaignConfig, trial: u64) -> Result<Option<Finding>, String> {
    let grid = policy_grid();
    let instance_seed = derive_seed(config.master_seed, 0, trial);
    let run_seed = derive_seed(config.master_seed, 1, trial);
    let index = (trial as usize) % grid.len();
    let (policy_name, link) = grid[index];

    let subject = if trial % 10 == 9 {
        Subject::k4(config.algo)?
    } else {
        Subject::coloring(config.algo, config.agents, instance_seed)?
    }
    .on_sharded(config.workers);
    let max_ticks = if subject.truth == GroundTruth::Insoluble && !subject.complete {
        config.max_ticks.min(INSOLUBLE_TICK_CAP)
    } else {
        config.max_ticks
    };
    let vconfig = VirtualConfig {
        seed: run_seed,
        link,
        schedule: None,
        max_ticks,
        max_nudges: config.max_nudges,
        stop_on_first_solution: false,
        record_trace: true,
    };

    let report = match subject.run(&vconfig) {
        Ok(r) => r,
        Err(error) => {
            return Ok(Some(Finding {
                trial,
                policy: policy_name,
                subject,
                config: vconfig,
                violations: vec![Violation::Failure { error }],
                fault_log: FaultSchedule::default(),
                minimized: None,
            }))
        }
    };

    let mut found = violations(&subject, &vconfig, &report);

    // Determinism oracle: the identical config must replay bit for bit.
    match subject.run(&vconfig) {
        Ok(second) => {
            let same = second.outcome == report.outcome
                && second.ticks == report.ticks
                && second.activations == report.activations
                && second.nudges == report.nudges
                && second.trace == report.trace
                && second.fault_log == report.fault_log;
            if !same {
                found.push(Violation::ReplayDivergence);
            }
        }
        Err(error) => found.push(Violation::Failure { error }),
    }

    let Some(first) = found.first() else {
        return Ok(None);
    };
    let minimized = if config.minimize {
        minimize_finding(&subject, &vconfig, &report.fault_log, first.class())
    } else {
        None
    };
    Ok(Some(Finding {
        trial,
        policy: policy_name,
        subject,
        config: vconfig,
        violations: found,
        fault_log: report.fault_log,
        minimized,
    }))
}

/// Sweeps `config.trials` fault schedules and collects every failure.
///
/// # Errors
///
/// Fails only on instance-construction errors; solver and runtime
/// failures become [`Violation::Failure`] findings instead.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignReport, String> {
    let mut report = CampaignReport::default();
    for trial in 0..config.trials {
        if let Some(finding) = run_trial(config, trial)? {
            report.findings.push(finding);
        }
        report.trials_run += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::Sabotage;
    use discsp_runtime::FaultAction;

    #[test]
    fn clean_run_raises_no_violations() {
        let subject = Subject::coloring(Algo::AwcRslv, 10, 5).unwrap();
        let config = VirtualConfig {
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = subject.run(&config).unwrap();
        assert_eq!(violations(&subject, &config, &report), vec![]);
    }

    #[test]
    fn insoluble_claim_on_solvable_instance_is_flagged() {
        // Judge a K4 run against a solvable subject's oracles: the
        // Insoluble termination must be flagged as a wrong answer.
        let k4 = Subject::k4(Algo::AwcRslv).unwrap();
        let config = VirtualConfig {
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = k4.run(&config).unwrap();
        assert_eq!(
            report.outcome.metrics.termination,
            discsp_core::Termination::Insoluble
        );
        let solvable = Subject::coloring(Algo::AwcRslv, 10, 5).unwrap();
        let found = violations(&solvable, &config, &report);
        assert!(
            found.iter().any(|v| v.class() == "wrong-answer"),
            "{found:?}"
        );
    }

    #[test]
    fn sabotaged_accounting_breaks_conservation_and_audit() {
        let subject = Subject::coloring(Algo::AwcRslv, 10, 3)
            .unwrap()
            .with_sabotage(Sabotage::UnderreportDuplicates);
        let config = VirtualConfig {
            link: LinkPolicy::perfect()
                .with_duplication(400_000)
                .with_delay(0, 2),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = subject.run(&config).unwrap();
        let found = violations(&subject, &config, &report);
        assert!(found.contains(&Violation::ConservationBroken), "{found:?}");
        assert!(
            found.iter().any(|v| matches!(
                v,
                Violation::AuditMismatch { fields } if fields.contains(&AuditField::MessagesDuplicated)
            )),
            "{found:?}"
        );
    }

    #[test]
    fn scripted_replay_reproduces_a_lottery_violation() {
        let subject = Subject::coloring(Algo::AwcRslv, 10, 3)
            .unwrap()
            .with_sabotage(Sabotage::UnderreportDuplicates);
        let config = VirtualConfig {
            link: LinkPolicy::perfect()
                .with_duplication(400_000)
                .with_delay(0, 2),
            record_trace: true,
            ..VirtualConfig::default()
        };
        let report = subject.run(&config).unwrap();
        assert!(!report.fault_log.is_empty());
        assert!(reproduces(
            &subject,
            &config,
            &report.fault_log,
            "conservation"
        ));
        // An all-delays schedule (no duplicates) cannot trip the
        // duplicate-undercount bug.
        let delays_only = FaultSchedule::new(
            report
                .fault_log
                .events()
                .iter()
                .filter(|e| !matches!(e.action, FaultAction::Duplicate { .. }))
                .cloned()
                .collect(),
        );
        assert!(!reproduces(&subject, &config, &delays_only, "conservation"));
    }

    #[test]
    fn incomplete_algo_on_insoluble_instance_may_exhaust_nudges() {
        // AWC without learning can never terminate on K4, so burning the
        // whole nudge budget under a lossy policy is the expected
        // outcome, not a deadlock — the quiescence oracle must not fire.
        let subject = Subject::k4(Algo::Awc).unwrap();
        let config = VirtualConfig {
            seed: 11,
            link: LinkPolicy::lossy(150_000)
                .with_duplication(100_000)
                .with_delay(0, 3)
                .with_reordering(2),
            max_ticks: INSOLUBLE_TICK_CAP,
            max_nudges: 50,
            stop_on_first_solution: false,
            record_trace: true,
            schedule: None,
        };
        let report = subject.run(&config).unwrap();
        assert_eq!(
            report.outcome.metrics.termination,
            discsp_core::Termination::CutOff
        );
        assert!(report.nudges >= 50, "the run must actually burn the budget");
        assert_eq!(violations(&subject, &config, &report), vec![]);
    }

    #[test]
    fn oversized_fault_logs_are_not_minimized() {
        // Build a syntactically valid but oversized schedule; the guard
        // must bail before attempting thousands of replays.
        let subject = Subject::coloring(Algo::AwcRslv, 10, 3).unwrap();
        let config = VirtualConfig {
            record_trace: true,
            ..VirtualConfig::default()
        };
        let events: Vec<_> = (0..=MINIMIZE_EVENT_CAP as u64)
            .map(|i| discsp_runtime::FaultEvent {
                from: discsp_core::AgentId::new((i % 10) as u32),
                to: discsp_core::AgentId::new(((i + 1) % 10) as u32),
                call: i,
                action: FaultAction::Delay(1),
            })
            .collect();
        let log = FaultSchedule::new(events);
        assert!(log.len() > MINIMIZE_EVENT_CAP);
        assert!(minimize_finding(&subject, &config, &log, "conservation").is_none());
    }

    #[test]
    fn sharded_campaign_is_clean_and_replays_like_the_virtual_one() {
        // The campaign smoke for the M:N executor: the same trials must
        // pass every oracle (including the bit-replay determinism check,
        // which now replays *sharded* runs) and raise exactly the same
        // findings as the virtual executor — none.
        let base = CampaignConfig {
            trials: 20,
            minimize: false,
            ..CampaignConfig::new(Algo::AwcRslv)
        };
        let virtual_report = run_campaign(&base).unwrap();
        assert!(virtual_report.clean(), "{:?}", virtual_report.findings);
        let sharded = CampaignConfig { workers: 4, ..base };
        let sharded_report = run_campaign(&sharded).unwrap();
        assert!(sharded_report.clean(), "{:?}", sharded_report.findings);
        assert_eq!(sharded_report.trials_run, virtual_report.trials_run);
    }

    #[test]
    fn grid_labels_are_unique() {
        let grid = policy_grid();
        let mut labels: Vec<_> = grid.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), grid.len());
    }
}
