//! `discsp-lint`: a workspace invariant analyzer for this repository.
//!
//! The paper this repo reproduces (Hirayama & Yokoo, ICDCS 2000)
//! measures algorithms in *cycles* and *constraint checks* — quantities
//! that are only meaningful if runs are bit-deterministic and every
//! constraint evaluation is metered. Ordinary compilers cannot enforce
//! either, so this crate does, in two layers.
//!
//! Per-file token rules:
//!
//! - **D1** — no `HashMap`/`HashSet` in agent/solver/metric code
//!   (iteration order is randomized per process).
//! - **D2** — no `Instant::now`/`SystemTime`/`thread_rng` in simulator
//!   paths (cost is cycles and checks, never seconds).
//! - **M1** — nogood-store queries in AWC/DBA hot loops must be metered
//!   (via `IncrementalEval::eval` or a nearby `charge_checks`), and
//!   positional `0..store.len()` loops are banned outright.
//! - **P1** — no panic paths in the runtime or agent step functions
//!   (one agent's failure must degrade into a reported error).
//!
//! Workspace rules, running on a symbol table and call graph built by a
//! recursive-descent item parser ([`parser`], [`graph`]):
//!
//! - **P2** — no panic site transitively *reachable* from the P1 entry
//!   points, anywhere in the workspace, with per-edge blame chains.
//! - **D3** — no value derived from a D1/D2 forbidden source flowing
//!   through the call graph into determinism-policed code.
//! - **W1** — the `TraceEvent` schema stays in sync across its JSONL
//!   codec, auditor and summary, and every `Wire` impl appears in the
//!   codec property tests.
//!
//! Violations can be exempted inline
//! (`// lint: allow(<name>): <justification>`) or via the workspace
//! allowlist file `lint-allow.list`; both demand a justification and
//! both rot loudly (**A0**) when they stop matching anything.
//!
//! The crate deliberately has **zero dependencies**: it must build and
//! run in the offline environment before anything else does, so it can
//! gate the rest of the workspace.

pub mod allow;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walk;
pub mod wrules;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use allow::Allowlist;
use diag::{Finding, Severity};
use graph::CallGraph;
use rules::{check_source, check_tokens, rules_for, workspace_annotations, Rule};

/// Result of analyzing a whole workspace.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All findings, in path order.
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// How many functions the symbol table indexed.
    pub fns_indexed: usize,
    /// How many call edges were resolved.
    pub call_edges: usize,
    /// Analyzer malfunctions (unreadable files, missing sync inputs):
    /// these mean the verdict is incomplete and map to exit code 3, so
    /// CI can tell a broken lint from a dirty tree.
    pub internal_errors: Vec<String>,
    /// Wall time per phase, for `--timing` and the CI budget assertion.
    pub timings: Vec<(&'static str, Duration)>,
}

impl WorkspaceReport {
    /// Total wall time across phases.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|(_, d)| *d).sum()
    }
}

/// Analyzes one file's source with the given rules and allowlist.
/// `rel_path` is used for scope-independent reporting and allowlist
/// matching; pass the workspace-relative path when you have one.
pub fn analyze_source(
    rel_path: &str,
    src: &str,
    rules: &[Rule],
    allowlist: &Allowlist,
) -> Vec<Finding> {
    check_source(rel_path, src, rules)
        .into_iter()
        .filter(|f| !allowlist.covers(f))
        .collect()
}

/// Analyzes every lintable file under `root/crates/`: the per-file
/// rules under the scope map, then the workspace rules (P2/D3/W1) over
/// the call graph, honoring `lint-allow.list` and inline annotations
/// throughout.
pub fn analyze_workspace(root: &Path) -> WorkspaceReport {
    let mut timings = Vec::new();
    let mut internal_errors = Vec::new();

    // Phase 1: read + lex every lintable file once; both the per-file
    // rules and the item parser run on the shared token streams.
    let t = Instant::now();
    let allow_path = root.join("lint-allow.list");
    let (allowlist, mut findings) = match fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse("lint-allow.list", &text),
        Err(_) => (Allowlist::empty(), Vec::new()),
    };
    let files = walk::lintable_files(root);
    let files_scanned = files.len();
    let mut sources: Vec<(String, String, Vec<lexer::Token>)> = Vec::with_capacity(files.len());
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        match fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                let tokens = lexer::lex(&src);
                sources.push((rel_str, src, tokens));
            }
            Err(e) => internal_errors.push(format!("cannot read {rel_str}: {e}")),
        }
    }
    timings.push(("read + lex", t.elapsed()));

    // Phase 2: per-file token rules.
    let t = Instant::now();
    for (rel, src, tokens) in &sources {
        let rules = rules_for(rel);
        if rules.is_empty() {
            continue;
        }
        findings.extend(
            check_tokens(rel, src, tokens, &rules)
                .into_iter()
                .filter(|f| !allowlist.covers(f)),
        );
    }
    timings.push(("per-file rules", t.elapsed()));

    // Phase 3: item parse + call graph. The analyzer does not model
    // itself: `crates/lint` is a standalone CLI outside the simulator,
    // and indexing its method names (`parse`, `covers`, …) would only
    // add bogus CHA edges into runtime blame chains.
    let t = Instant::now();
    let parsed: Vec<parser::ParsedFile> = sources
        .iter()
        .filter(|(rel, _, _)| !rel.starts_with("crates/lint/"))
        .map(|(rel, _, tokens)| parser::parse_file(rel, tokens))
        .collect();
    let graph = CallGraph::build(&parsed);
    let call_edges = graph.calls.iter().map(Vec::len).sum();
    timings.push(("parse + call graph", t.elapsed()));

    // Phase 4: workspace rules, then annotation/allowlist suppression.
    let t = Instant::now();
    let lines: BTreeMap<String, Vec<String>> = sources
        .iter()
        .map(|(rel, src, _)| (rel.clone(), src.lines().map(str::to_string).collect()))
        .collect();
    let wire_props_path = root.join(wrules::WIRE_PROPS_FILE);
    let wire_props = match fs::read_to_string(&wire_props_path) {
        Ok(text) => Some(text),
        Err(_) if !wire_props_path.exists() => None,
        Err(e) => {
            internal_errors.push(format!("cannot read {}: {e}", wrules::WIRE_PROPS_FILE));
            None
        }
    };
    let input = wrules::WorkspaceInput {
        files: &parsed,
        graph: &graph,
        lines: &lines,
        wire_props: wire_props.as_deref(),
    };
    let (candidates, ws_internal) = wrules::check_workspace(&input);
    internal_errors.extend(ws_internal);

    let annotations: Vec<(String, rules::WsAnnotation)> = sources
        .iter()
        .flat_map(|(rel, _, tokens)| {
            workspace_annotations(tokens)
                .into_iter()
                .map(move |a| (rel.clone(), a))
        })
        .collect();
    let used: Vec<std::cell::Cell<bool>> = annotations
        .iter()
        .map(|_| std::cell::Cell::new(false))
        .collect();
    for (rule, finding) in candidates {
        let exempted = annotations.iter().enumerate().find(|(_, (rel, a))| {
            a.rule == rule && *rel == finding.path && a.target_line == finding.line
        });
        match exempted {
            Some((i, _)) => used[i].set(true),
            None => {
                if !allowlist.covers(&finding) {
                    findings.push(finding);
                }
            }
        }
    }
    for (i, (rel, a)) in annotations.iter().enumerate() {
        if !used[i].get() {
            findings.push(Finding {
                rule: "A0",
                severity: Severity::Warning,
                path: rel.clone(),
                line: a.comment_line,
                col: 1,
                message: format!(
                    "unused `lint: allow({})` annotation: no {} finding on the line it covers",
                    a.rule.allow_name(),
                    a.rule.code()
                ),
                snippet: lines
                    .get(rel)
                    .and_then(|ls| ls.get(a.comment_line as usize - 1))
                    .cloned()
                    .unwrap_or_default(),
                help: "delete the annotation, or move it onto the violation it exempts",
            });
        }
    }
    findings.extend(allowlist.unused_entries());
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    timings.push(("workspace rules", t.elapsed()));

    WorkspaceReport {
        findings,
        files_scanned,
        fns_indexed: graph.fns.len(),
        call_edges,
        internal_errors,
        timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_filters_findings_in_analyze_source() {
        let (al, errs) = Allowlist::parse(
            "lint-allow.list",
            "D1 | src/a.rs | HashMap | lookups only, order never observed\n",
        );
        assert!(errs.is_empty());
        let src = "struct S { m: HashMap<u64, u8> }\n";
        let fs = analyze_source("crates/x/src/a.rs", src, &[Rule::D1], &al);
        assert!(fs.is_empty());
        assert!(al.unused_entries().is_empty());
    }

    #[test]
    fn findings_survive_without_matching_entry() {
        let al = Allowlist::empty();
        let src = "struct S { m: HashMap<u64, u8> }\n";
        let fs = analyze_source("crates/x/src/a.rs", src, &[Rule::D1], &al);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "D1");
    }
}
