//! Replays every fixture under `tests/explore_repros/` and runs the
//! planted-bug end-to-end check of the explorer pipeline.
//!
//! A fixture is a minimized fault schedule from a `discsp-explore`
//! campaign finding, committed with a root-cause comment. Fixtures must
//! parse, rebuild their subject from a few integers, and replay
//! bit-identically — the virtual executor guarantees a scripted run is
//! a pure function of `(subject, config)`.

use std::fs;
use std::path::PathBuf;

use discsp_core::Termination;
use discsp_explore::{
    minimize_finding, reproduces, violations, Algo, Repro, Sabotage, Subject, Violation,
};
use discsp_runtime::{LinkPolicy, VirtualConfig};

fn fixtures() -> Vec<(PathBuf, Repro)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/explore_repros");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("fixture directory exists") {
        let path = entry.expect("readable directory entry").path();
        if path.extension().is_none_or(|e| e != "repro") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable fixture");
        let repro = Repro::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path, repro));
    }
    assert!(!out.is_empty(), "no fixtures under {}", dir.display());
    out
}

#[test]
fn every_fixture_replays_bit_identically() {
    for (path, repro) in fixtures() {
        let (first, v1) = repro
            .replay()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (second, v2) = repro.replay().unwrap();
        assert_eq!(first.outcome, second.outcome, "{}", path.display());
        assert_eq!(first.trace, second.trace, "{}", path.display());
        assert_eq!(first.fault_log, second.fault_log, "{}", path.display());
        assert_eq!(v1, v2, "{}", path.display());
    }
}

#[test]
fn awc_k4_fixture_burns_the_nudge_budget_without_tripping_the_oracle() {
    // The first campaign flagged AWC-on-K4 nudge exhaustion as
    // non-quiescence; the root cause was the oracle (see the fixture's
    // header comment). The minimized schedule must still exhaust the
    // budget — keeping the fixture an honest witness — while the fixed
    // oracle stays quiet.
    let (path, repro) = fixtures()
        .into_iter()
        .find(|(p, _)| p.ends_with("awc_k4_nudge_exhaustion.repro"))
        .expect("fixture is committed");
    assert_eq!(repro.algo, Algo::Awc);
    assert_eq!(repro.violation, "non-quiescence");
    let (report, found) = repro.replay().unwrap();
    assert_eq!(
        report.outcome.metrics.termination,
        Termination::CutOff,
        "{}",
        path.display()
    );
    assert!(
        report.nudges >= repro.max_nudges,
        "the schedule must still burn the whole nudge budget ({} < {})",
        report.nudges,
        repro.max_nudges
    );
    assert_eq!(found, vec![], "the fixed oracle must not fire");
}

#[test]
fn planted_accounting_bug_is_flagged_and_minimizes_to_few_events() {
    // End-to-end validation of the explorer pipeline: a deliberate
    // accounting error (the test-only `Sabotage` hook drops one
    // `messages_duplicated` increment) must be caught by the oracles on
    // a lottery run, and delta-debugging its fault log must converge to
    // a schedule of at most 3 events that still reproduces the
    // violation deterministically.
    let subject = Subject::coloring(Algo::AwcRslv, 10, 3)
        .unwrap()
        .with_sabotage(Sabotage::UnderreportDuplicates);
    let config = VirtualConfig {
        seed: 5,
        link: LinkPolicy::perfect()
            .with_duplication(300_000)
            .with_delay(0, 2),
        record_trace: true,
        ..VirtualConfig::default()
    };
    let report = subject.run(&config).unwrap();
    let found = violations(&subject, &config, &report);
    assert!(
        found.contains(&Violation::ConservationBroken),
        "the campaign oracles must flag the planted bug: {found:?}"
    );

    let minimized = minimize_finding(&subject, &config, &report.fault_log, "conservation")
        .expect("the fault log carries the violation");
    assert!(
        minimized.schedule.len() <= 3,
        "minimized to {} events (log had {})",
        minimized.schedule.len(),
        report.fault_log.len()
    );
    assert!(!minimized.schedule.is_empty());
    // Deterministic reproduction: the minimized script must show the
    // violation on every replay, not just once.
    for _ in 0..2 {
        assert!(reproduces(
            &subject,
            &config,
            &minimized.schedule,
            "conservation"
        ));
    }
}
