//! The workspace-level rule families: P2, D3, and W1.
//!
//! | code | allow name   | invariant                                          |
//! |------|--------------|----------------------------------------------------|
//! | P2   | `panic-path` | no panic site transitively reachable from runtime  |
//! | D3   | `taint`      | no D1/D2-forbidden value flows into policed code   |
//! | W1   | `schema`     | `TraceEvent` stays in sync across its four codecs  |
//!
//! Unlike D1/D2/M1/P1, these rules see the whole workspace at once:
//! they run on the symbol table and call graph built by [`crate::parser`]
//! and [`crate::graph`], and their diagnostics carry per-edge blame
//! chains so a finding three calls away from its entry point is still
//! actionable (and a false edge from the over-approximate resolution is
//! visible rather than mysterious).

use std::collections::BTreeMap;

use crate::diag::{Finding, Severity};
use crate::graph::{CallGraph, FnId};
use crate::parser::{FactKind, ParsedFile};
use crate::rules::{rules_for, Rule};

/// Everything the workspace rules need, pre-read by the caller so this
/// module stays free of I/O.
pub struct WorkspaceInput<'a> {
    /// Parsed structure of every lintable file.
    pub files: &'a [ParsedFile],
    /// The resolved call graph over `files`.
    pub graph: &'a CallGraph,
    /// Source lines per workspace-relative path (for snippets).
    pub lines: &'a BTreeMap<String, Vec<String>>,
    /// Content of `crates/net/tests/wire_props.rs`, when that file
    /// exists (`None` means the codec-coverage check is skipped or, if
    /// the net crate is present, reported as a W1 finding).
    pub wire_props: Option<&'a str>,
}

/// The file that owns the trace schema.
pub const TRACE_EVENT_FILE: &str = "crates/trace/src/event.rs";
/// The schema enum every sync point must track.
pub const TRACE_EVENT_ENUM: &str = "TraceEvent";
/// The codec property-test file every `Wire` type must appear in.
pub const WIRE_PROPS_FILE: &str = "crates/net/tests/wire_props.rs";

/// `Wire` impl targets exempt from codec-coverage: primitives and std
/// containers are covered by construction through every composite type.
const WIRE_BUILTINS: &[&str] = &["u8", "u16", "u32", "u64", "bool", "Option", "Vec"];

/// One place the trace schema must be mirrored: a function (or, with
/// `func: None`, any function in the file) that must mention every
/// `TraceEvent::Variant`.
struct SyncPoint {
    file: &'static str,
    /// `(fn name, required impl owner)`; `None` means any fn in `file`.
    func: Option<(&'static str, Option<&'static str>)>,
    what: &'static str,
}

const W1_SYNC_POINTS: &[SyncPoint] = &[
    SyncPoint {
        file: "crates/trace/src/wire.rs",
        func: Some(("encode", Some("TraceEvent"))),
        what: "wire encode arm (no tag is ever written)",
    },
    SyncPoint {
        file: "crates/trace/src/wire.rs",
        func: Some(("decode", Some("TraceEvent"))),
        what: "wire decode arm (its tag cannot be read back)",
    },
    SyncPoint {
        file: "crates/trace/src/jsonl.rs",
        func: Some(("event_to_json", None)),
        what: "JSONL encode arm",
    },
    SyncPoint {
        file: "crates/trace/src/jsonl.rs",
        func: Some(("event_from_object", None)),
        what: "JSONL decode arm",
    },
    SyncPoint {
        file: "crates/trace/src/audit.rs",
        func: None,
        what: "audit arm (the auditor cannot account for it)",
    },
    SyncPoint {
        file: "crates/trace/src/summary.rs",
        func: None,
        what: "summary arm",
    },
];

/// Runs P2, D3, and W1 over the workspace model. Returns rule-tagged
/// candidate findings (the caller applies annotations and the
/// allowlist) plus internal analyzer errors (exit code 3, not findings).
pub fn check_workspace(input: &WorkspaceInput<'_>) -> (Vec<(Rule, Finding)>, Vec<String>) {
    let mut out = Vec::new();
    let mut internal = Vec::new();
    check_p2(input, &mut out);
    check_d3(input, &mut out);
    check_w1(input, &mut out, &mut internal);
    (out, internal)
}

fn snippet(input: &WorkspaceInput<'_>, rel: &str, line: u32) -> String {
    input
        .lines
        .get(rel)
        .and_then(|ls| ls.get(line as usize - 1))
        .cloned()
        .unwrap_or_default()
}

fn finding(
    input: &WorkspaceInput<'_>,
    rule: Rule,
    rel: &str,
    line: u32,
    col: u32,
    message: String,
) -> (Rule, Finding) {
    (
        rule,
        Finding {
            rule: rule.code(),
            severity: Severity::Error,
            path: rel.to_string(),
            line,
            col,
            message,
            snippet: snippet(input, rel, line),
            help: rule.help(),
        },
    )
}

/// P2: a panic site in *any* function transitively reachable from the
/// runtime / agent-step entry points (the P1-scoped files) crashes the
/// run just as surely as one written in those files directly. The
/// per-file P1 rule polices its own scope; P2 follows every call edge
/// out of it.
fn check_p2(input: &WorkspaceInput<'_>, out: &mut Vec<(Rule, Finding)>) {
    let g = input.graph;
    let entries: Vec<FnId> = (0..g.fns.len())
        .filter(|&id| rules_for(&g.fns[id].rel).contains(&Rule::P1))
        .collect();
    if entries.is_empty() {
        return;
    }
    let reached = g.reach_forward(&entries);
    for id in 0..g.fns.len() {
        let node = &g.fns[id];
        if rules_for(&node.rel).contains(&Rule::P1) {
            continue; // P1's own jurisdiction
        }
        if !reached.contains_key(&id) {
            continue;
        }
        let panics: Vec<_> = node
            .facts
            .iter()
            .filter(|f| f.kind == FactKind::Panic)
            .collect();
        if panics.is_empty() {
            continue;
        }
        let chain = g
            .path_to(&reached, id)
            .map(|p| g.render_chain(&p))
            .unwrap_or_default();
        for fact in panics {
            out.push(finding(
                input,
                Rule::P2,
                &node.rel,
                fact.line,
                fact.col,
                format!(
                    "{} in `{}` is reachable from a runtime/agent entry point: {chain}",
                    fact.what,
                    node.display_name()
                ),
            ));
        }
    }
}

/// D3: a function outside the D1/D2 scope may legitimately touch
/// `HashMap` or `Instant::now` — but the moment a determinism-policed
/// function consumes a value it returns, iteration order or wall time
/// has leaked into solver state or metrics, one call away from where
/// the per-file rules look.
fn check_d3(input: &WorkspaceInput<'_>, out: &mut Vec<(Rule, Finding)>) {
    let g = input.graph;
    let is_protected = |id: FnId| {
        let rules = rules_for(&g.fns[id].rel);
        rules.contains(&Rule::D1) || rules.contains(&Rule::D2)
    };
    for id in 0..g.fns.len() {
        let node = &g.fns[id];
        if !node.returns_value {
            continue; // nothing flows back to a caller
        }
        let scoped = rules_for(&node.rel);
        let tainted: Vec<_> = node
            .facts
            .iter()
            .filter(|f| match f.kind {
                // Sources already policed in-file by D1/D2 are not
                // re-reported one level up.
                FactKind::Unordered => !scoped.contains(&Rule::D1),
                FactKind::Timing => !scoped.contains(&Rule::D2),
                FactKind::Panic => false,
            })
            .collect();
        if tainted.is_empty() {
            continue;
        }
        // Who can reach this source? Walk the caller graph upward and
        // report against the nearest determinism-policed caller.
        let reached = g.reach_backward(&[id]);
        let Some(&protected) = reached.keys().find(|&&c| c != id && is_protected(c)) else {
            continue;
        };
        let chain = g
            .caller_chain(&reached, protected)
            .map(|p| g.render_chain(&p))
            .unwrap_or_default();
        for fact in tainted {
            out.push(finding(
                input,
                Rule::D3,
                &node.rel,
                fact.line,
                fact.col,
                format!(
                    "`{}` in `{}` returns a value consumed by determinism-policed code: {chain}",
                    fact.what,
                    node.display_name()
                ),
            ));
        }
    }
}

/// W1: the trace schema is mirrored in four hand-written codecs (wire
/// tags, JSONL, audit, summary) plus the codec property tests; PR 6
/// synchronized them by hand for `NogoodForgotten`, and this rule makes
/// that sync mechanical for every variant after it.
fn check_w1(
    input: &WorkspaceInput<'_>,
    out: &mut Vec<(Rule, Finding)>,
    internal: &mut Vec<String>,
) {
    let event_file = input.files.iter().find(|f| f.rel == TRACE_EVENT_FILE);
    if let Some(event_file) = event_file {
        let Some(schema) = event_file.enums.iter().find(|e| e.name == TRACE_EVENT_ENUM) else {
            internal.push(format!(
                "W1: {TRACE_EVENT_FILE} exists but no `enum {TRACE_EVENT_ENUM}` was parsed from it"
            ));
            return;
        };
        check_sync_points(input, schema, out);
        check_wire_tags(input, out);
    }
    check_wire_coverage(input, out, internal);
}

fn check_sync_points(
    input: &WorkspaceInput<'_>,
    schema: &crate::parser::EnumItem,
    out: &mut Vec<(Rule, Finding)>,
) {
    for point in W1_SYNC_POINTS {
        let Some(file) = input.files.iter().find(|f| f.rel == point.file) else {
            out.push(finding(
                input,
                Rule::W1,
                TRACE_EVENT_FILE,
                schema.line,
                1,
                format!(
                    "schema sync point {} is missing from the workspace (needed for the {})",
                    point.file, point.what
                ),
            ));
            continue;
        };
        // Collect the functions this sync point inspects.
        let fns: Vec<_> = file
            .fns
            .iter()
            .filter(|f| match point.func {
                Some((name, owner)) => {
                    f.name == name && (owner.is_none() || f.owner.as_deref() == owner)
                }
                None => true,
            })
            .collect();
        if fns.is_empty() {
            let (name, _) = point.func.unwrap_or(("<any>", None));
            out.push(finding(
                input,
                Rule::W1,
                point.file,
                1,
                1,
                format!(
                    "schema sync function `{name}` is missing from {} (needed for the {})",
                    point.file, point.what
                ),
            ));
            continue;
        }
        let anchor = fns[0].line;
        for (variant, _) in &schema.variants {
            let mentioned = fns.iter().any(|f| {
                f.variant_refs
                    .iter()
                    .any(|(e, v, _)| e == TRACE_EVENT_ENUM && v == variant)
            });
            if !mentioned {
                out.push(finding(
                    input,
                    Rule::W1,
                    point.file,
                    anchor,
                    1,
                    format!(
                        "`{TRACE_EVENT_ENUM}::{variant}` has no {} in {}",
                        point.what, point.file
                    ),
                ));
            }
        }
    }
}

/// Every `out.push(<tag>)` in `TraceEvent::encode` must use a distinct
/// tag, or two variants alias on the wire and decode picks one of them.
fn check_wire_tags(input: &WorkspaceInput<'_>, out: &mut Vec<(Rule, Finding)>) {
    let Some(file) = input
        .files
        .iter()
        .find(|f| f.rel == "crates/trace/src/wire.rs")
    else {
        return; // already reported by the sync-point pass
    };
    let Some(encode) = file
        .fns
        .iter()
        .find(|f| f.name == "encode" && f.owner.as_deref() == Some(TRACE_EVENT_ENUM))
    else {
        return; // already reported by the sync-point pass
    };
    let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
    for &(tag, line) in &encode.tag_pushes {
        if let Some(&first) = seen.get(&tag) {
            out.push(finding(
                input,
                Rule::W1,
                &file.rel,
                line,
                1,
                format!(
                    "wire tag {tag} is pushed twice in `TraceEvent::encode` \
                     (first at line {first}); tags must be unique per variant"
                ),
            ));
        } else {
            seen.insert(tag, line);
        }
    }
}

/// Every non-builtin `impl Wire for X` must exercise `X` in the codec
/// property tests — an impl the fuzzer never constructs is an impl
/// whose truncation/corruption behavior nobody has checked.
fn check_wire_coverage(
    input: &WorkspaceInput<'_>,
    out: &mut Vec<(Rule, Finding)>,
    internal: &mut Vec<String>,
) {
    let impls: Vec<(&str, &str, u32)> = input
        .files
        .iter()
        .flat_map(|f| {
            f.trait_impls
                .iter()
                .filter(|i| i.trait_name == "Wire" && !WIRE_BUILTINS.contains(&i.target.as_str()))
                .map(move |i| (f.rel.as_str(), i.target.as_str(), i.line))
        })
        .collect();
    if impls.is_empty() {
        return;
    }
    let has_net = input.files.iter().any(|f| f.rel.starts_with("crates/net/"));
    let Some(props) = input.wire_props else {
        if has_net {
            internal.push(format!(
                "W1: {WIRE_PROPS_FILE} is missing or unreadable, so codec coverage \
                 cannot be checked"
            ));
        }
        return;
    };
    // Lex the test file so `LinkStats` in a comment or string does not
    // count as coverage.
    let idents: std::collections::BTreeSet<String> = crate::lexer::lex(props)
        .into_iter()
        .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
        .map(|t| t.text)
        .collect();
    for (rel, target, line) in impls {
        if !idents.contains(target) {
            out.push(finding(
                input,
                Rule::W1,
                rel,
                line,
                1,
                format!(
                    "`{target}` implements `Wire` but never appears in the codec \
                     property tests ({WIRE_PROPS_FILE})"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn run(
        files: &[(&str, &str)],
        wire_props: Option<&str>,
    ) -> (Vec<(Rule, Finding)>, Vec<String>) {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(rel, src)| parse_file(rel, &lex(src)))
            .collect();
        let graph = CallGraph::build(&parsed);
        let lines: BTreeMap<String, Vec<String>> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.lines().map(str::to_string).collect()))
            .collect();
        let input = WorkspaceInput {
            files: &parsed,
            graph: &graph,
            lines: &lines,
            wire_props,
        };
        check_workspace(&input)
    }

    fn codes(findings: &[(Rule, Finding)]) -> Vec<&'static str> {
        findings.iter().map(|(_, f)| f.rule).collect()
    }

    #[test]
    fn p2_flags_reachable_panic_with_blame_chain() {
        let (fs, _) = run(
            &[
                (
                    "crates/runtime/src/sync.rs",
                    "pub fn run_cycle() {\n helper();\n}\n",
                ),
                (
                    "crates/core/src/util.rs",
                    "pub fn helper() {\n let x = v.unwrap();\n}\n",
                ),
            ],
            None,
        );
        assert_eq!(codes(&fs), vec!["P2"]);
        let f = &fs[0].1;
        assert_eq!(f.path, "crates/core/src/util.rs");
        assert_eq!(f.line, 2);
        assert!(
            f.message
                .contains("`run_cycle` (crates/runtime/src/sync.rs:2)"),
            "{}",
            f.message
        );
        assert!(f.message.ends_with("`helper`"), "{}", f.message);
    }

    #[test]
    fn p2_ignores_unreachable_panics_and_p1_scope() {
        let (fs, _) = run(
            &[
                ("crates/runtime/src/sync.rs", "pub fn run_cycle() {}\n"),
                (
                    "crates/core/src/util.rs",
                    "pub fn never_called() { v.unwrap(); }\n",
                ),
            ],
            None,
        );
        assert!(codes(&fs).is_empty(), "{fs:?}");
    }

    #[test]
    fn d3_flags_tainted_value_flowing_into_policed_code() {
        let (fs, _) = run(
            &[
                (
                    "crates/net/src/endpoint.rs",
                    "pub fn session() {\n let d = transport::deadline_left();\n}\n",
                ),
                (
                    "crates/net/src/transport.rs",
                    "pub fn deadline_left() -> u64 {\n Instant::now().elapsed().as_millis() as u64\n}\n",
                ),
            ],
            None,
        );
        assert_eq!(codes(&fs), vec!["D3"]);
        let f = &fs[0].1;
        assert_eq!(f.path, "crates/net/src/transport.rs");
        assert!(f.message.contains("Instant::now"));
        assert!(
            f.message
                .contains("`session` (crates/net/src/endpoint.rs:2)"),
            "{}",
            f.message
        );
    }

    #[test]
    fn d3_ignores_unit_returns_and_unreferenced_sources() {
        let (fs, _) = run(
            &[
                (
                    "crates/net/src/endpoint.rs",
                    "pub fn session() {\n transport::wait();\n}\n",
                ),
                (
                    "crates/net/src/transport.rs",
                    // Unit return: the wall clock bounds a wait, no value
                    // escapes to the caller.
                    "pub fn wait() {\n let t = Instant::now();\n}\n\
                     pub fn unused() -> u64 { SystemTime::now() }\n",
                ),
            ],
            None,
        );
        assert!(codes(&fs).is_empty(), "{fs:?}");
    }

    const MINI_EVENT: &str = "pub enum TraceEvent {\n A { cycle: u64 },\n B { cycle: u64 },\n}\n";

    fn mini_trace_files(jsonl_has_b: bool) -> Vec<(&'static str, String)> {
        let jsonl_b = if jsonl_has_b {
            "TraceEvent::B { .. } => x(),"
        } else {
            ""
        };
        vec![
            ("crates/trace/src/event.rs", MINI_EVENT.to_string()),
            (
                "crates/trace/src/wire.rs",
                "impl Wire for TraceEvent {\n\
                 fn encode(&self) { match self { TraceEvent::A { .. } => out.push(0), \
                 TraceEvent::B { .. } => out.push(1), } }\n\
                 fn decode(r: &mut R) -> T { match t { 0 => TraceEvent::A { cycle: 0 }, \
                 _ => TraceEvent::B { cycle: 0 } } }\n}\n"
                    .to_string(),
            ),
            (
                "crates/trace/src/jsonl.rs",
                format!(
                    "pub fn event_to_json(e: &TraceEvent) {{ match e {{ \
                     TraceEvent::A {{ .. }} => x(), {jsonl_b} }} }}\n\
                     fn event_from_object(o: &O) {{ let a = TraceEvent::A {{ cycle: 0 }}; \
                     let b = TraceEvent::B {{ cycle: 0 }}; }}\n"
                ),
            ),
            (
                "crates/trace/src/audit.rs",
                "pub fn audit(e: &TraceEvent) { match e { TraceEvent::A { .. } => x(), \
                 TraceEvent::B { .. } => y(), } }\n"
                    .to_string(),
            ),
            (
                "crates/trace/src/summary.rs",
                "pub fn summarize(e: &TraceEvent) { match e { TraceEvent::A { .. } => x(), \
                 TraceEvent::B { .. } => y(), } }\n"
                    .to_string(),
            ),
        ]
    }

    #[test]
    fn w1_clean_when_all_arms_present() {
        let files = mini_trace_files(true);
        let refs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (*r, s.as_str())).collect();
        let (fs, internal) = run(&refs, None);
        assert!(codes(&fs).is_empty(), "{fs:?}");
        assert!(internal.is_empty());
    }

    #[test]
    fn w1_catches_missing_jsonl_arm() {
        let files = mini_trace_files(false);
        let refs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (*r, s.as_str())).collect();
        let (fs, _) = run(&refs, None);
        assert_eq!(codes(&fs), vec!["W1"]);
        let f = &fs[0].1;
        assert_eq!(f.path, "crates/trace/src/jsonl.rs");
        assert!(
            f.message
                .contains("`TraceEvent::B` has no JSONL encode arm"),
            "{}",
            f.message
        );
    }

    #[test]
    fn w1_catches_duplicate_wire_tag() {
        let mut files = mini_trace_files(true);
        files[1].1 = files[1].1.replace("out.push(1)", "out.push(0)");
        let refs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (*r, s.as_str())).collect();
        let (fs, _) = run(&refs, None);
        assert_eq!(codes(&fs), vec!["W1"]);
        assert!(
            fs[0].1.message.contains("wire tag 0 is pushed twice"),
            "{}",
            fs[0].1.message
        );
    }

    #[test]
    fn w1_catches_missing_sync_file() {
        let mut files = mini_trace_files(true);
        files.retain(|(rel, _)| *rel != "crates/trace/src/summary.rs");
        let refs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (*r, s.as_str())).collect();
        let (fs, _) = run(&refs, None);
        assert_eq!(codes(&fs), vec!["W1"]);
        assert!(fs[0]
            .1
            .message
            .contains("crates/trace/src/summary.rs is missing"));
        assert_eq!(fs[0].1.path, TRACE_EVENT_FILE);
    }

    #[test]
    fn w1_wire_coverage_flags_untested_impls() {
        let (fs, internal) = run(
            &[(
                "crates/net/src/frame.rs",
                "impl Wire for SetupFrame { fn encode(&self) {} }\n\
                 impl Wire for Spare { fn encode(&self) {} }\n",
            )],
            Some("fn roundtrip() { let f: SetupFrame = gen(); }\n// Spare in a comment only\n"),
        );
        assert_eq!(codes(&fs), vec!["W1"]);
        assert!(fs[0].1.message.contains("`Spare` implements `Wire`"));
        assert!(internal.is_empty());
    }

    #[test]
    fn w1_missing_props_file_is_internal_when_net_exists() {
        let (fs, internal) = run(
            &[(
                "crates/net/src/frame.rs",
                "impl Wire for SetupFrame { fn encode(&self) {} }\n",
            )],
            None,
        );
        assert!(codes(&fs).is_empty());
        assert_eq!(internal.len(), 1);
        assert!(internal[0].contains("wire_props.rs"));
    }
}
