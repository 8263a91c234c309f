//! Fixture-based self-tests for every rule, plus the workspace
//! self-run: the tree that ships this analyzer must itself be clean.

use std::path::Path;
use std::process::Command;

use discsp_lint::allow::Allowlist;
use discsp_lint::diag::{render_json, Finding, Severity};
use discsp_lint::rules::ALL_RULES;
use discsp_lint::{analyze_source, analyze_workspace};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs all rules over a fixture with an empty allowlist, the same way
/// the binary's explicit-files mode does.
fn lint_fixture(name: &str) -> Vec<Finding> {
    analyze_source(
        &format!("crates/lint/tests/fixtures/{name}"),
        &fixture(name),
        &ALL_RULES,
        &Allowlist::empty(),
    )
}

fn rule_lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn d1_bad_flags_both_collections_at_their_lines() {
    let fs = lint_fixture("d1_bad.rs");
    assert_eq!(rule_lines(&fs, "D1"), vec![6, 7]);
    assert!(fs.iter().all(|f| f.severity == Severity::Error));
    let f = &fs[0];
    assert!(f.message.contains("HashSet"));
    assert!(f.snippet.contains("generated_before"));
}

#[test]
fn d1_allowed_is_clean() {
    assert!(lint_fixture("d1_allowed.rs").is_empty());
}

#[test]
fn d2_bad_flags_all_three_sources() {
    let fs = lint_fixture("d2_bad.rs");
    assert_eq!(rule_lines(&fs, "D2"), vec![6, 7, 8]);
}

#[test]
fn m1_bad_flags_unmetered_query() {
    let fs = lint_fixture("m1_bad.rs");
    assert_eq!(rule_lines(&fs, "M1"), vec![4, 13, 17, 21]);
    assert!(fs[0].message.contains("for_variable"));
    assert!(fs[1].message.contains("violated_higher"));
    assert!(fs[2].message.contains("lower_violation_count"));
    assert!(fs[3].message.contains("violated_with"));
}

#[test]
fn m1_good_is_clean() {
    assert!(lint_fixture("m1_good.rs").is_empty());
}

#[test]
fn p1_bad_flags_all_four_shapes() {
    let fs = lint_fixture("p1_bad.rs");
    assert_eq!(rule_lines(&fs, "P1"), vec![4, 5, 6, 8]);
}

#[test]
fn p1_test_exempt_is_clean() {
    assert!(lint_fixture("p1_test_exempt.rs").is_empty());
}

#[test]
fn net_transport_d2_exemption_is_path_scoped() {
    // The same wall-clock code is sanctioned at the transport path and a
    // violation anywhere else in the net crate: the exemption is by file
    // name, not by code shape.
    let src = fixture("d2_net_transport.rs");
    let allow = Allowlist::empty();
    let at = |path: &str| analyze_source(path, &src, &discsp_lint::rules::rules_for(path), &allow);
    let exempt = at("crates/net/src/transport.rs");
    assert!(
        rule_lines(&exempt, "D2").is_empty(),
        "transport.rs is D2-exempt by name: {exempt:?}"
    );
    let policed = at("crates/net/src/coordinator.rs");
    assert_eq!(
        rule_lines(&policed, "D2"),
        vec![7, 10],
        "the identical source is flagged at every other net path"
    );
}

#[test]
fn service_realtime_d2_exemption_is_path_scoped() {
    // The service's accept loop and sessions/sec stopwatch are
    // sanctioned in the TCP shell and the load generator, and flagged
    // verbatim anywhere in the scheduler underneath: the exemption is
    // by file name, not by code shape.
    let src = fixture("d2_service_realtime.rs");
    let allow = Allowlist::empty();
    let at = |path: &str| analyze_source(path, &src, &discsp_lint::rules::rules_for(path), &allow);
    for exempt_path in ["crates/service/src/server.rs", "crates/service/src/main.rs"] {
        let exempt = at(exempt_path);
        assert!(
            rule_lines(&exempt, "D2").is_empty(),
            "{exempt_path} is D2-exempt by name: {exempt:?}"
        );
    }
    let policed = at("crates/service/src/service.rs");
    assert_eq!(
        rule_lines(&policed, "D2"),
        vec![9, 15],
        "the identical source is flagged in the scheduler layer"
    );
}

#[test]
fn broken_annotations_are_a0() {
    let fs = lint_fixture("allow_bad.rs");
    let a0_errors: Vec<u32> = fs
        .iter()
        .filter(|f| f.rule == "A0" && f.severity == Severity::Error)
        .map(|f| f.line)
        .collect();
    // Missing justification (line 3) and unknown name (line 8).
    assert_eq!(a0_errors, vec![3, 8]);
    // The rejected allow(panic) must not suppress the unwrap.
    assert_eq!(rule_lines(&fs, "P1"), vec![5]);
    // The valid-but-pointless allow(unordered) is a warning.
    assert!(fs
        .iter()
        .any(|f| f.rule == "A0" && f.severity == Severity::Warning && f.line == 11));
}

#[test]
fn file_allowlist_suppresses_and_reports_stale_entries() {
    let (allow, errs) = Allowlist::parse(
        "lint-allow.list",
        "D1 | fixtures/d1_bad.rs | generated_before | membership set, iteration never observed\n\
         P1 | fixtures/nonexistent.rs | unwrap | stale entry that matches nothing anywhere\n",
    );
    assert!(errs.is_empty());
    let fs = analyze_source(
        "crates/lint/tests/fixtures/d1_bad.rs",
        &fixture("d1_bad.rs"),
        &ALL_RULES,
        &allow,
    );
    // The HashSet on line 6 is exempted; the HashMap on line 7 is not.
    assert_eq!(rule_lines(&fs, "D1"), vec![7]);
    let stale = allow.unused_entries();
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].line, 2);
    // A stale entry is dead suppression machinery: an error, not a nag.
    assert_eq!(stale[0].severity, Severity::Error);
}

#[test]
fn unknown_rule_code_in_allowlist_is_a_pointed_error() {
    let (_, errs) = Allowlist::parse(
        "lint-allow.list",
        "Q9 | crates/core/src/lib.rs | whatever | a rule code that does not exist\n",
    );
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].rule, "A0");
    assert_eq!(errs[0].severity, Severity::Error);
    assert!(
        errs[0].message.contains("unknown rule code `Q9`"),
        "{}",
        errs[0].message
    );
    assert!(
        errs[0].message.contains("W1"),
        "message should list valid codes"
    );
}

#[test]
fn p1_range_slice_fixture_flags_every_bounded_shape() {
    let fs = lint_fixture("p1_range_bad.rs");
    // `..b`, `a..`, `a..b`, `4..=8` — the full reslice on line 9 is total.
    assert_eq!(rule_lines(&fs, "P1"), vec![5, 6, 7, 8]);
    assert!(fs[0].message.contains("range-slicing"));
}

#[test]
fn m1_positional_loop_fixture_flags_indexed_iteration_only() {
    let fs = lint_fixture("m1_positional_bad.rs");
    // Metering does not excuse positional iteration: the handle-based
    // sweep below it is the sanctioned shape.
    assert_eq!(rule_lines(&fs, "M1"), vec![7]);
    assert!(fs[0].message.contains("positional"), "{}", fs[0].message);
}

fn fixture_workspace(name: &str) -> discsp_lint::WorkspaceReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    analyze_workspace(&root)
}

#[test]
fn ws_p2_bad_reports_the_reachable_panic_with_a_blame_chain() {
    let report = fixture_workspace("ws_p2_bad");
    assert!(
        report.internal_errors.is_empty(),
        "{:?}",
        report.internal_errors
    );
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "P2");
    assert_eq!(f.path, "crates/core/src/util.rs");
    assert_eq!(f.line, 4);
    assert!(
        f.message
            .contains("`run_cycle` (crates/runtime/src/sync.rs:4)"),
        "blame chain names the entry point and call site: {}",
        f.message
    );
}

#[test]
fn ws_p2_good_is_clean_once_the_helper_returns_option() {
    let report = fixture_workspace("ws_p2_good");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.internal_errors.is_empty());
}

#[test]
fn ws_d3_bad_reports_the_tainted_seed_at_its_source() {
    let report = fixture_workspace("ws_d3_bad");
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "D3");
    assert_eq!(f.path, "crates/probgen/src/seed.rs");
    assert_eq!(f.line, 4);
    assert!(
        f.message
            .contains("`reseed` (crates/runtime/src/sched.rs:4)"),
        "chain names the policed consumer: {}",
        f.message
    );
}

#[test]
fn ws_d3_good_is_clean_when_no_value_escapes() {
    let report = fixture_workspace("ws_d3_good");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn ws_w1_bad_catches_the_removed_jsonl_arm_and_the_duplicate_wire_tag() {
    let report = fixture_workspace("ws_w1_bad");
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    let jsonl = &report.findings[0];
    assert_eq!(jsonl.rule, "W1");
    assert_eq!(jsonl.path, "crates/trace/src/jsonl.rs");
    assert!(
        jsonl
            .message
            .contains("`TraceEvent::NogoodLearned` has no JSONL decode arm"),
        "{}",
        jsonl.message
    );
    let tag = &report.findings[1];
    assert_eq!(tag.rule, "W1");
    assert_eq!(tag.path, "crates/trace/src/wire.rs");
    assert_eq!(tag.line, 8);
    assert!(
        tag.message.contains("wire tag 1 is pushed twice"),
        "{}",
        tag.message
    );
}

#[test]
fn workspace_self_run_is_clean_at_head() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace(&root);
    assert!(
        report.files_scanned > 40,
        "walker should see the whole workspace"
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean at HEAD, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!(
                "{}[{}] {}:{} {}",
                match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                f.rule,
                f.path,
                f.line,
                f.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exits_nonzero_on_seeded_violations() {
    let fixture_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/p1_bad.rs");
    let output = Command::new(env!("CARGO_BIN_EXE_discsp-lint"))
        .arg(&fixture_path)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("error[P1]"));
    assert!(stdout.contains("p1_bad.rs:4:"));
    assert!(stdout.contains("= help:"));
}

#[test]
fn binary_exits_zero_on_clean_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let output = Command::new(env!("CARGO_BIN_EXE_discsp-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("discsp-lint: clean"));
}

#[test]
fn binary_json_workspace_output_matches_the_golden_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_p2_bad");
    let output = Command::new(env!("CARGO_BIN_EXE_discsp-lint"))
        .arg("--json")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let golden = fixture("ws_p2_bad.golden.json");
    assert_eq!(
        stdout.trim(),
        golden.trim(),
        "machine-readable output is part of the interface; if this change \
         is intentional, regenerate the golden file with \
         `discsp-lint --json --root crates/lint/tests/fixtures/ws_p2_bad`"
    );
}

#[test]
fn binary_timing_prints_the_phase_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_p2_good");
    let output = Command::new(env!("CARGO_BIN_EXE_discsp-lint"))
        .arg("--timing")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for phase in [
        "read + lex",
        "per-file rules",
        "parse + call graph",
        "workspace rules",
        "total",
    ] {
        assert!(
            stdout.contains(phase),
            "timing table lists `{phase}`:\n{stdout}"
        );
    }
}

#[test]
fn binary_blown_budget_is_an_internal_error_with_exit_code_3() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_p2_good");
    let output = Command::new(env!("CARGO_BIN_EXE_discsp-lint"))
        .arg("--max-millis")
        .arg("0")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(3),
        "internal errors must be distinguishable from findings (1) and usage (2)"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("time budget"), "{stderr}");
}

#[test]
fn binary_json_mode_emits_machine_readable_findings() {
    let fixture_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d2_bad.rs");
    let output = Command::new(env!("CARGO_BIN_EXE_discsp-lint"))
        .arg("--json")
        .arg(&fixture_path)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.contains(r#""rule":"D2""#));
    assert!(stdout.contains(r#""line":6"#));
    // The library renderer and the binary agree on shape.
    let fs = lint_fixture("d2_bad.rs");
    let rendered = render_json(&fs);
    assert!(rendered.contains(r#""rule":"D2""#));
}
