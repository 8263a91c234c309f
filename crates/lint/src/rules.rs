//! The invariant rules and the per-file analysis pass.
//!
//! | code | allow name   | invariant                                           |
//! |------|--------------|-----------------------------------------------------|
//! | D1   | `unordered`  | no iteration-order-unstable collections             |
//! | D2   | `timing`     | no wall-clock or OS entropy in simulator paths      |
//! | M1   | `unmetered`  | nogood-store queries must charge constraint checks  |
//! | P1   | `panic`      | no panic paths in the runtime or agent step code    |
//! | P2   | `panic-path` | workspace rule — see [`crate::wrules`]              |
//! | D3   | `taint`      | workspace rule — see [`crate::wrules`]              |
//! | W1   | `schema`     | workspace rule — see [`crate::wrules`]              |
//!
//! `A0` covers meta-problems with the suppression machinery itself
//! (malformed annotations, stale allowlist entries) so that exemptions
//! can never silently rot.
//!
//! Suppression is per-line: `// lint: allow(<name>): <justification>`
//! as a trailing comment exempts its own line; as a full-line comment
//! it exempts the next code line. The justification is mandatory.

use std::cell::Cell;

use crate::diag::{Finding, Severity};
use crate::lexer::{lex, Token, TokenKind};

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Iteration-order-unstable collections in deterministic code.
    D1,
    /// Wall-clock / entropy sources in simulator paths.
    D2,
    /// Nogood-store queries that bypass check metering.
    M1,
    /// Panic paths in the runtime and agent step functions.
    P1,
    /// Panic paths transitively reachable from runtime entry points
    /// (workspace rule; see [`crate::wrules`]).
    P2,
    /// D1/D2 taint flowing through the call graph into policed code
    /// (workspace rule; see [`crate::wrules`]).
    D3,
    /// Trace schema drift across its hand-written mirrors (workspace
    /// rule; see [`crate::wrules`]).
    W1,
}

/// Every rule, per-file and workspace, for allow-name resolution.
pub const ALL_RULES: [Rule; 7] = [
    Rule::D1,
    Rule::D2,
    Rule::M1,
    Rule::P1,
    Rule::P2,
    Rule::D3,
    Rule::W1,
];

/// The per-file token rules, for fixture/debug mode where the scope
/// mapping is bypassed.
pub const FILE_RULES: [Rule; 4] = [Rule::D1, Rule::D2, Rule::M1, Rule::P1];

impl Rule {
    /// The diagnostic code (`D1`, …).
    pub fn code(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::M1 => "M1",
            Rule::P1 => "P1",
            Rule::P2 => "P2",
            Rule::D3 => "D3",
            Rule::W1 => "W1",
        }
    }

    /// The name accepted by `// lint: allow(<name>)` for this rule.
    pub fn allow_name(self) -> &'static str {
        match self {
            Rule::D1 => "unordered",
            Rule::D2 => "timing",
            Rule::M1 => "unmetered",
            Rule::P1 => "panic",
            Rule::P2 => "panic-path",
            Rule::D3 => "taint",
            Rule::W1 => "schema",
        }
    }

    /// Whether this rule runs over the whole workspace (call graph /
    /// schema) rather than one file's token stream.
    pub fn is_workspace(self) -> bool {
        matches!(self, Rule::P2 | Rule::D3 | Rule::W1)
    }

    /// Remediation hint shown under each finding.
    pub fn help(self) -> &'static str {
        match self {
            Rule::D1 => {
                "use BTreeMap/BTreeSet (stable iteration order), or annotate with \
                 `// lint: allow(unordered): <why order cannot reach any output>`"
            }
            Rule::D2 => {
                "metrics must depend only on cycles and constraint checks; move timing \
                 out of simulator paths or annotate `// lint: allow(timing): <why>`"
            }
            Rule::M1 => {
                "route the query through IncrementalEval::eval or add a charge_checks \
                 call nearby so maxcck stays faithful to the paper's cost model"
            }
            Rule::P1 => {
                "propagate a RuntimeError (or handle the None case) so one agent's \
                 failure degrades into a reported error instead of a crash"
            }
            Rule::P2 => {
                "make the helper return Option/Result (or handle the failing case) so \
                 the panic cannot cross into the runtime, or annotate the panic site \
                 `// lint: allow(panic-path): <why the invariant holds>`"
            }
            Rule::D3 => {
                "determinism-policed code must not consume values derived from wall \
                 time or hash order; plumb a seeded/virtual source through, or annotate \
                 the source `// lint: allow(taint): <why the value never reaches solver \
                 state or metrics>`"
            }
            Rule::W1 => {
                "add the missing arm/test alongside the other variants so the \
                 TraceEvent mirrors and the Wire property tests stay exhaustive"
            }
        }
    }

    fn for_allow_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.allow_name() == name)
    }
}

/// Files exempt from D2 by name in the network transport: socket
/// plumbing legitimately needs wall-clock deadlines (handshake accept
/// windows, connect backoff) — everything above it in `discsp-net`
/// reasons in virtual ticks and stays under D2.
pub const D2_EXEMPT_NET_TRANSPORT: &[&str] = &["crates/net/src/transport.rs"];

/// Files exempt from D2 by name in the solve service: the TCP front end
/// (socket accept loop, response-write timeouts, scheduler idle waits)
/// and the load generator (wall-clock sessions/sec is its one real-time
/// number). Everything underneath — session drivers, the table, the
/// sweep scheduler — reasons purely in sweeps and virtual ticks and
/// stays under D2.
pub const D2_EXEMPT_SERVICE_REALTIME: &[&str] =
    &["crates/service/src/server.rs", "crates/service/src/main.rs"];

pub fn rules_for(rel_path: &str) -> Vec<Rule> {
    let p = rel_path.replace('\\', "/");
    let in_any = |prefixes: &[&str]| prefixes.iter().any(|pre| p.starts_with(pre));

    let mut rules = Vec::new();
    if in_any(&[
        "crates/core/src/",
        "crates/trace/src/",
        "crates/runtime/src/",
        "crates/awc/src/",
        "crates/dba/src/",
        "crates/net/src/",
        "crates/service/src/",
        "crates/cspsolve/src/",
        "crates/probgen/src/",
        "crates/bench/src/",
        "crates/explore/src/",
    ]) {
        rules.push(Rule::D1);
    }
    if in_any(&[
        "crates/core/src/",
        "crates/trace/src/",
        "crates/runtime/src/",
        "crates/awc/src/",
        "crates/dba/src/",
        "crates/net/src/",
        "crates/service/src/",
        "crates/bench/src/",
        "crates/explore/src/",
    ]) && !D2_EXEMPT_NET_TRANSPORT.contains(&p.as_str())
        && !D2_EXEMPT_SERVICE_REALTIME.contains(&p.as_str())
    {
        rules.push(Rule::D2);
    }
    if in_any(&["crates/awc/src/", "crates/dba/src/"]) {
        rules.push(Rule::M1);
    }
    if p.starts_with("crates/runtime/src/")
        || (p.starts_with("crates/net/src/") && p != "crates/net/src/main.rs")
        || (p.starts_with("crates/service/src/") && p != "crates/service/src/main.rs")
        || (p.starts_with("crates/trace/src/") && p != "crates/trace/src/main.rs")
        || (p.starts_with("crates/explore/src/") && p != "crates/explore/src/main.rs")
        || p == "crates/awc/src/agent.rs"
        || p == "crates/awc/src/abt.rs"
        || p == "crates/dba/src/agent.rs"
    {
        rules.push(Rule::P1);
    }
    rules
}

/// A parsed `lint: allow(...)` comment, resolved to the line it exempts.
struct Annotation {
    /// 1-based line of the code this annotation exempts.
    target_line: u32,
    /// 1-based line of the comment itself (for diagnostics).
    comment_line: u32,
    rule: Rule,
    used: Cell<bool>,
}

/// Runs `rules` over one file and returns surviving findings.
///
/// Inline annotations are applied here; the file-level allowlist is the
/// caller's concern (it spans files).
pub fn check_source(rel_path: &str, src: &str, rules: &[Rule]) -> Vec<Finding> {
    check_tokens(rel_path, src, &lex(src), rules)
}

/// Like [`check_source`], but on an already-lexed token stream so the
/// workspace pass can share one lex per file with the item parser.
pub fn check_tokens(rel_path: &str, src: &str, tokens: &[Token], rules: &[Rule]) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let (annotations, mut out) = parse_annotations(tokens, rel_path);
    let code = code_tokens(tokens);

    let mut candidates: Vec<(Rule, Finding)> = Vec::new();
    for &rule in rules {
        match rule {
            Rule::D1 => check_d1(rel_path, &code, &lines, &mut candidates),
            Rule::D2 => check_d2(rel_path, &code, &lines, &mut candidates),
            Rule::M1 => check_m1(rel_path, &code, &lines, &mut candidates),
            Rule::P1 => check_p1(rel_path, &code, &lines, &mut candidates),
            // Workspace rules have no per-file candidates; their
            // annotations are consumed by the workspace pass in lib.rs.
            Rule::P2 | Rule::D3 | Rule::W1 => {}
        }
    }

    for (rule, finding) in candidates {
        let exempted = annotations
            .iter()
            .find(|a| a.rule == rule && a.target_line == finding.line);
        match exempted {
            Some(a) => a.used.set(true),
            None => out.push(finding),
        }
    }

    // An annotation that exempts nothing is a lie waiting to happen:
    // warn so it gets deleted alongside the code it used to excuse.
    for a in &annotations {
        if !a.used.get() && rules.contains(&a.rule) {
            out.push(Finding {
                rule: "A0",
                severity: Severity::Warning,
                path: rel_path.to_string(),
                line: a.comment_line,
                col: 1,
                message: format!(
                    "unused `lint: allow({})` annotation: no {} finding on the line it covers",
                    a.rule.allow_name(),
                    a.rule.code()
                ),
                snippet: snippet(&lines, a.comment_line),
                help: "delete the annotation, or move it onto the violation it exempts",
            });
        }
    }

    out.sort_by_key(|f| (f.line, f.col));
    out
}

fn snippet(lines: &[&str], line: u32) -> String {
    lines
        .get(line as usize - 1)
        .copied()
        .unwrap_or("")
        .to_string()
}

/// A workspace-rule (`panic-path`/`taint`/`schema`) annotation, exposed
/// to the workspace pass in `lib.rs` — the per-file pass parses all
/// annotations but only consumes the per-file ones.
#[derive(Debug)]
pub struct WsAnnotation {
    /// Rule the annotation exempts.
    pub rule: Rule,
    /// 1-based line of the code it exempts.
    pub target_line: u32,
    /// 1-based line of the comment itself (for diagnostics).
    pub comment_line: u32,
}

/// Extracts the workspace-rule annotations from a token stream.
/// Malformed-annotation A0 errors are *not* re-reported here — the
/// per-file pass owns those.
pub fn workspace_annotations(tokens: &[Token]) -> Vec<WsAnnotation> {
    let (annotations, _) = parse_annotations(tokens, "");
    annotations
        .into_iter()
        .filter(|a| a.rule.is_workspace())
        .map(|a| WsAnnotation {
            rule: a.rule,
            target_line: a.target_line,
            comment_line: a.comment_line,
        })
        .collect()
}

/// Extracts `lint: allow(name): justification` annotations from comment
/// tokens. Malformed annotations become A0 errors — a typo must never
/// silently fail open *or* closed.
fn parse_annotations(tokens: &[Token], rel_path: &str) -> (Vec<Annotation>, Vec<Finding>) {
    let mut annotations = Vec::new();
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Comment {
            continue;
        }
        let Some(at) = tok.text.find("lint:") else {
            continue;
        };
        let a0 = |message: String| Finding {
            rule: "A0",
            severity: Severity::Error,
            path: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: tok.text.lines().next().unwrap_or("").to_string(),
            help: "format: `// lint: allow(unordered|timing|unmetered|panic|panic-path|\
                   taint|schema): <justification>`",
        };
        let rest = tok.text[at + "lint:".len()..].trim_start();
        let Some(name_and_rest) = rest.strip_prefix("allow(") else {
            findings.push(a0(
                "malformed lint annotation: expected `allow(<name>)`".to_string()
            ));
            continue;
        };
        let Some(close) = name_and_rest.find(')') else {
            findings.push(a0("malformed lint annotation: missing `)`".to_string()));
            continue;
        };
        let name = name_and_rest[..close].trim();
        let Some(rule) = Rule::for_allow_name(name) else {
            findings.push(a0(format!(
                "unknown lint allow name `{name}` (expected unordered, timing, unmetered, \
                 panic, panic-path, taint, or schema)"
            )));
            continue;
        };
        let justification = name_and_rest[close + 1..]
            .trim_start()
            .trim_start_matches(':')
            .trim();
        if justification.is_empty() {
            findings.push(a0(format!(
                "`allow({name})` needs a justification after the closing paren"
            )));
            continue;
        }
        // Trailing comment exempts its own line; a comment on its own
        // line exempts the next code line (skipping further comments,
        // so multi-line justifications work).
        let trailing = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| t.kind != TokenKind::Comment);
        let target_line = if trailing {
            tok.line
        } else {
            tokens[i + 1..]
                .iter()
                .find(|t| t.kind != TokenKind::Comment)
                .map_or(tok.line, |t| t.line)
        };
        annotations.push(Annotation {
            target_line,
            comment_line: tok.line,
            rule,
            used: Cell::new(false),
        });
    }
    (annotations, findings)
}

/// Filters the token stream down to the code the rules should see:
/// comments out, `use` statements out (imports are not uses), and any
/// item under a `#[test]`-ish attribute out (tests are exempt).
fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    let toks: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if t.kind == TokenKind::Ident && t.text == "use" {
            // `use` is a keyword, so this cannot be an expression ident.
            while i < toks.len() && toks[i].text != ";" {
                i += 1;
            }
            i += 1; // the `;`
            continue;
        }
        if t.text == "#" && toks.get(i + 1).is_some_and(|n| n.text == "[") {
            let (close, is_test) = scan_attribute(&toks, i + 1);
            if is_test {
                i = skip_item(&toks, close + 1);
                continue;
            }
            // Non-test attribute: pass its tokens through (harmless).
            for tok in &toks[i..=close.min(toks.len() - 1)] {
                out.push(*tok);
            }
            i = close + 1;
            continue;
        }
        out.push(t);
        i += 1;
    }
    out
}

/// Scans a `[...]` attribute group starting at the opening bracket.
/// Returns the index of the closing bracket and whether the attribute
/// marks test-only code (`#[test]`, `#[cfg(test)]`, `#[tokio::test]`;
/// `not(test)` does not count).
fn scan_attribute(toks: &[&Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i, has_test && !has_not);
                }
            }
            "test" if toks[i].kind == TokenKind::Ident => has_test = true,
            "not" if toks[i].kind == TokenKind::Ident => has_not = true,
            _ => {}
        }
        i += 1;
    }
    (toks.len().saturating_sub(1), has_test && !has_not)
}

/// Skips one item starting at `i` (any further attributes, then either
/// a `;`-terminated item or a braced body). Returns the index after it.
fn skip_item(toks: &[&Token], mut i: usize) -> usize {
    while i < toks.len() && toks[i].text == "#" && toks.get(i + 1).is_some_and(|n| n.text == "[") {
        let (close, _) = scan_attribute(toks, i + 1);
        i = close + 1;
    }
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].text.as_str() {
            ";" if depth == 0 => return i + 1,
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn finding(
    rule: Rule,
    path: &str,
    tok: &Token,
    lines: &[&str],
    message: String,
) -> (Rule, Finding) {
    (
        rule,
        Finding {
            rule: rule.code(),
            severity: Severity::Error,
            path: path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: snippet(lines, tok.line),
            help: rule.help(),
        },
    )
}

/// D1: HashMap/HashSet iterate in hash order, which std randomizes per
/// process; any such iteration reaching agent decisions or metrics
/// destroys run-to-run reproducibility of cycle/maxcck.
fn check_d1(path: &str, code: &[&Token], lines: &[&str], out: &mut Vec<(Rule, Finding)>) {
    for t in code {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(finding(
                Rule::D1,
                path,
                t,
                lines,
                format!(
                    "iteration-order-unstable collection `{}` in deterministic code",
                    t.text
                ),
            ));
        }
    }
}

/// D2: the simulators measure cost in cycles and constraint checks,
/// never in seconds; wall-clock or OS entropy in those paths makes
/// results machine-dependent.
fn check_d2(path: &str, code: &[&Token], lines: &[&str], out: &mut Vec<(Rule, Finding)>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" => {
                code.get(i + 1).is_some_and(|a| a.text == ":")
                    && code.get(i + 2).is_some_and(|a| a.text == ":")
                    && code.get(i + 3).is_some_and(|a| a.text == "now")
            }
            "SystemTime" | "thread_rng" => true,
            _ => false,
        };
        if flagged {
            out.push(finding(
                Rule::D2,
                path,
                t,
                lines,
                format!("wall-clock/entropy source `{}` in a simulator path", t.text),
            ));
        }
    }
}

/// The nogood-store and evaluator queries that answer "which (or how
/// many) nogoods are violated": each stands for checks the naive scan
/// would have made. The higher count (`higher_len`) is what callers
/// charge, not a check itself, so it is not listed.
const M1_TRIGGERS: &[&str] = &[
    "for_variable",
    "is_violated",
    "violated_with",
    "violated_higher",
    "lower_violation_count",
    "violation_count_with",
];

/// How far (in lines) a metering call may sit from the query it covers.
const M1_WINDOW: u32 = 8;

/// M1: every nogood-store consultation must be visible in the check
/// counter, or maxcck undercounts and the paper's Figures 3–5 cannot be
/// reproduced faithfully. Positional loops over the store are a second
/// trigger, metered or not: `entries()` / `indices()` is the store's one
/// iteration surface, so `0..store.len()` iteration is flagged.
fn check_m1(path: &str, code: &[&Token], lines: &[&str], out: &mut Vec<(Rule, Finding)>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokenKind::Number
            && t.text == "0"
            && code.get(i + 1).is_some_and(|n| n.text == ".")
            && code.get(i + 2).is_some_and(|n| n.text == ".")
            && positional_chain_hits_store(code, i + 3)
        {
            out.push(finding(
                Rule::M1,
                path,
                t,
                lines,
                "positional loop `0..<store>.len()` over the nogood store; \
                 entries() / indices() is the store's one iteration surface — iterate those instead"
                    .to_string(),
            ));
        }
        let is_trigger = t.kind == TokenKind::Ident
            && M1_TRIGGERS.contains(&t.text.as_str())
            && i > 0
            && code[i - 1].text == ".";
        if !is_trigger {
            continue;
        }
        let metered = code.iter().enumerate().any(|(j, u)| {
            u.line.abs_diff(t.line) <= M1_WINDOW
                && u.kind == TokenKind::Ident
                && (u.text == "charge_checks"
                    || (u.text == "eval" && code.get(j + 1).is_some_and(|n| n.text == "(")))
        });
        if !metered {
            out.push(finding(
                Rule::M1,
                path,
                t,
                lines,
                format!(
                    "nogood-store query `.{}` with no check-charging call within {M1_WINDOW} lines",
                    t.text
                ),
            ));
        }
    }
}

const P1_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// P1: one panicking agent thread must not take down a whole multi-hour
/// benchmark run; runtime and agent step code propagates errors instead.
fn check_p1(path: &str, code: &[&Token], lines: &[&str], out: &mut Vec<(Rule, Finding)>) {
    for (i, t) in code.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| code.get(p));
        let next = code.get(i + 1);
        let next2 = code.get(i + 2);
        if t.kind == TokenKind::Ident {
            let after_dot = prev.is_some_and(|p| p.text == ".");
            if t.text == "unwrap"
                && after_dot
                && next.is_some_and(|n| n.text == "(")
                && next2.is_some_and(|n| n.text == ")")
            {
                out.push(finding(
                    Rule::P1,
                    path,
                    t,
                    lines,
                    "call to `.unwrap()` in a panic-free zone".to_string(),
                ));
            } else if t.text == "expect" && after_dot && next.is_some_and(|n| n.text == "(") {
                out.push(finding(
                    Rule::P1,
                    path,
                    t,
                    lines,
                    "call to `.expect(..)` in a panic-free zone".to_string(),
                ));
            } else if P1_MACROS.contains(&t.text.as_str()) && next.is_some_and(|n| n.text == "!") {
                out.push(finding(
                    Rule::P1,
                    path,
                    t,
                    lines,
                    format!("`{}!` in a panic-free zone", t.text),
                ));
            }
        } else if t.text == "[" {
            let indexee =
                prev.is_some_and(|p| p.kind == TokenKind::Ident || p.text == ")" || p.text == "]");
            if indexee
                && next.is_some_and(|n| n.kind == TokenKind::Number)
                && next2.is_some_and(|n| n.text == "]")
            {
                out.push(finding(
                    Rule::P1,
                    path,
                    t,
                    lines,
                    "indexing with a literal can panic; use .get() or a checked pattern"
                        .to_string(),
                ));
            } else if indexee && is_bounded_range_slice(code, i) {
                out.push(finding(
                    Rule::P1,
                    path,
                    t,
                    lines,
                    "range-slicing with a bound (`buf[a..b]`) can panic; use .get(a..b) \
                     or a checked pattern"
                        .to_string(),
                ));
            }
        }
    }
}

/// Walks the `self.foo.bar.len()` chain after a `0..` range start and
/// reports whether it names the nogood store before reaching `.len(`.
fn positional_chain_hits_store(code: &[&Token], mut j: usize) -> bool {
    let mut hits_store = false;
    while let Some(u) = code.get(j) {
        if u.kind == TokenKind::Ident {
            if u.text == "len" && code.get(j + 1).is_some_and(|n| n.text == "(") {
                return hits_store;
            }
            let lower = u.text.to_ascii_lowercase();
            if lower.contains("store") || lower.contains("nogood") {
                hits_store = true;
            }
        } else if u.text != "." {
            return false;
        }
        j += 1;
    }
    false
}

/// Looks inside `indexee[ ... ]` (with `open` at the `[`) for a range
/// expression with at least one bound. `buf[..]` reslices the whole
/// thing and cannot panic; `buf[a..b]`, `buf[..b]`, `buf[a..]`, and
/// `buf[a..=b]` all can.
fn is_bounded_range_slice(code: &[&Token], open: usize) -> bool {
    let mut depth = 0usize;
    let mut has_range = false;
    let mut has_bound = false;
    for j in open..code.len() {
        match code[j].text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return has_range && has_bound;
                }
            }
            "." if depth == 1 && code.get(j + 1).is_some_and(|n| n.text == ".") => {
                has_range = true;
            }
            _ if depth >= 1 && code[j].text != "." && code[j].text != "=" => {
                has_bound = true;
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rules: &[Rule], src: &str) -> Vec<Finding> {
        check_source("crates/x/src/a.rs", src, rules)
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_flags_hash_collections_outside_tests() {
        let src = "struct S { a: HashSet<u32> }\n\
                   #[cfg(test)]\nmod tests { fn f() { let m: HashMap<u8, u8> = x(); } }\n";
        let fs = run(&[Rule::D1], src);
        assert_eq!(codes(&fs), vec!["D1"]);
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn d1_ignores_imports_strings_and_comments() {
        let src = "use std::collections::HashMap;\n\
                   // HashMap in a comment\n\
                   fn f() -> &'static str { \"HashMap\" }\n";
        assert!(run(&[Rule::D1], src).is_empty());
    }

    #[test]
    fn inline_allow_with_justification_suppresses() {
        let src = "// lint: allow(unordered): keys are hashes, order never observed\n\
                   struct S { a: HashMap<u64, u8> }\n";
        assert!(run(&[Rule::D1], src).is_empty());
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src =
            "struct S { a: HashMap<u64, u8> } // lint: allow(unordered): never iterated here\n";
        assert!(run(&[Rule::D1], src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_a0_error() {
        let src = "// lint: allow(unordered)\nstruct S { a: HashMap<u64, u8> }\n";
        let fs = run(&[Rule::D1], src);
        assert!(fs
            .iter()
            .any(|f| f.rule == "A0" && f.severity == Severity::Error));
        assert!(fs.iter().any(|f| f.rule == "D1"));
    }

    #[test]
    fn unknown_allow_name_is_a0_error() {
        let src = "// lint: allow(hashmaps): because I said so\nfn f() {}\n";
        let fs = run(&[Rule::D1], src);
        assert_eq!(codes(&fs), vec!["A0"]);
    }

    #[test]
    fn unused_allow_is_a0_warning() {
        let src = "// lint: allow(unordered): stale excuse for deleted code\nfn f() {}\n";
        let fs = run(&[Rule::D1], src);
        assert_eq!(codes(&fs), vec!["A0"]);
        assert_eq!(fs[0].severity, Severity::Warning);
    }

    #[test]
    fn d2_flags_instant_now_and_thread_rng() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }\n\
                   fn g(i: Instant) -> Instant { i }\n";
        let fs = run(&[Rule::D2], src);
        assert_eq!(codes(&fs), vec!["D2", "D2"]);
    }

    #[test]
    fn m1_unmetered_query_flagged_metered_ok() {
        let bad = "fn f(&self) { for ng in self.store.for_variable(v) { use_it(ng); } }\n";
        assert_eq!(codes(&run(&[Rule::M1], bad)), vec!["M1"]);

        let good = "fn f(&mut self) {\n\
                    self.metrics.charge_checks(self.store.len());\n\
                    for ng in self.store.for_variable(v) { use_it(ng); }\n}\n";
        assert!(run(&[Rule::M1], good).is_empty());

        let via_eval = "fn f(&mut self) { let v = self.cache.eval(x); x.is_violated(a) }\n";
        assert!(run(&[Rule::M1], via_eval).is_empty());
    }

    #[test]
    fn p1_flags_panic_paths_but_not_handled_variants() {
        let src = "fn f(xs: &[u32]) -> u32 {\n\
                   let a = xs.first().unwrap();\n\
                   let b = opt.expect(\"msg\");\n\
                   let c = xs[0];\n\
                   panic!(\"boom\");\n\
                   }\n";
        let fs = run(&[Rule::P1], src);
        assert_eq!(codes(&fs), vec!["P1", "P1", "P1", "P1"]);

        let ok = "fn f(xs: &[u32]) -> u32 { xs.first().copied().unwrap_or(0) }\n";
        assert!(run(&[Rule::P1], ok).is_empty());
    }

    #[test]
    fn p1_ignores_array_type_and_literal() {
        let src = "fn f() { let a: [u8; 4] = [0, 1, 2, 3]; let s = &a[..]; g(&a); }\n";
        assert!(run(&[Rule::P1], src).is_empty());
    }

    #[test]
    fn p1_flags_bounded_range_slices_but_not_full_reslice() {
        let src = "fn f(buf: &[u8], n: usize) {\n\
                   let a = &buf[1..4];\n\
                   let b = &buf[..n];\n\
                   let c = &buf[n..];\n\
                   let d = &buf[x.min(y)..=n];\n\
                   let e = &buf[..];\n\
                   let m = map[k];\n\
                   }\n";
        let fs = run(&[Rule::P1], src);
        assert_eq!(codes(&fs), vec!["P1", "P1", "P1", "P1"]);
        assert_eq!(
            fs.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert!(fs[0].message.contains("range-slicing"), "{}", fs[0].message);
    }

    #[test]
    fn m1_flags_positional_loops_over_the_store_only() {
        let bad = "fn f(&self) { for i in 0..self.store.len() { use_slot(i); } }\n";
        assert_eq!(codes(&run(&[Rule::M1], bad)), vec!["M1"]);

        // Metering does not excuse positional iteration: entries() /
        // indices() is the store's one iteration surface.
        let metered = "fn f(&mut self) {\n\
                       self.metrics.charge_checks(1);\n\
                       for i in 0..self.nogood_store.len() { use_slot(i); }\n}\n";
        assert_eq!(codes(&run(&[Rule::M1], metered)), vec!["M1"]);

        let other_len = "fn f(&self) { for i in 0..self.queue.len() { use_slot(i); } }\n";
        assert!(run(&[Rule::M1], other_len).is_empty());

        let entries = "fn f(&mut self) {\n\
                       self.metrics.charge_checks(n);\n\
                       for (i, ng) in self.store.entries() { g(i, ng); }\n}\n";
        assert!(run(&[Rule::M1], entries).is_empty());
    }

    #[test]
    fn workspace_allow_names_parse_without_per_file_noise() {
        // A panic-path/taint/schema annotation is the workspace pass's
        // business; the per-file pass must neither reject it nor flag
        // it as unused.
        let src = "// lint: allow(panic-path): capacity bounded by MAX_NOGOODS\n\
                   fn f() {}\n\
                   // lint: allow(taint): value only feeds logging\n\
                   fn g() {}\n";
        assert!(run(&FILE_RULES, src).is_empty());
    }

    #[test]
    fn scope_mapping_matches_design() {
        assert_eq!(
            rules_for("crates/awc/src/agent.rs"),
            vec![Rule::D1, Rule::D2, Rule::M1, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/awc/src/solver.rs"),
            vec![Rule::D1, Rule::D2, Rule::M1]
        );
        assert_eq!(
            rules_for("crates/runtime/src/sync.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        // The sharded executor and its shard plan live on the
        // determinism-critical replay path: same policing as the rest of
        // the runtime.
        assert_eq!(
            rules_for("crates/runtime/src/shard.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/runtime/src/pool.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        // The wave engine holds every executor's termination logic, so
        // wall-clock policing must reach it: only the link layer is
        // D2-exempt by name.
        assert_eq!(
            rules_for("crates/runtime/src/engine.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/cspsolve/src/backtrack.rs"),
            vec![Rule::D1]
        );
        assert_eq!(rules_for("crates/probgen/src/lib.rs"), vec![Rule::D1]);
        assert_eq!(rules_for("crates/lint/src/main.rs"), Vec::<Rule>::new());
        // Protocol paths in the net crate are determinism- and
        // panic-policed like the runtime; the binary's arg parsing may
        // exit loudly, so P1 stops at main.rs.
        assert_eq!(
            rules_for("crates/net/src/coordinator.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/net/src/main.rs"),
            vec![Rule::D1, Rule::D2]
        );
        // The trace crate is a metrics auditor: determinism- and
        // panic-policed like the runtime, with the same main.rs carve-out
        // for the CLI's loud exits.
        assert_eq!(
            rules_for("crates/trace/src/audit.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/trace/src/main.rs"),
            vec![Rule::D1, Rule::D2]
        );
        // The explorer judges runs and minimizes schedules: ordered
        // containers and virtual time only, panic-policed library code,
        // with the usual main.rs carve-out for the CLI.
        assert_eq!(
            rules_for("crates/explore/src/campaign.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/explore/src/main.rs"),
            vec![Rule::D1, Rule::D2]
        );
        // The solve service's scheduler/session/table layers reason in
        // sweeps and virtual ticks: determinism- and panic-policed like
        // the runtime. The TCP shell and the load generator own the
        // sanctioned wall-clock sites (named D2 exemption), and the
        // binary keeps the usual main.rs P1 carve-out for loud exits.
        assert_eq!(
            rules_for("crates/service/src/service.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/service/src/session.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
        assert_eq!(
            rules_for("crates/service/src/server.rs"),
            vec![Rule::D1, Rule::P1]
        );
        assert_eq!(rules_for("crates/service/src/main.rs"), vec![Rule::D1]);
    }

    #[test]
    fn link_layer_gets_every_runtime_rule() {
        // Virtual ticks need no wall clock, so link.rs has no exemption.
        assert_eq!(
            rules_for("crates/runtime/src/link.rs"),
            vec![Rule::D1, Rule::D2, Rule::P1]
        );
    }

    #[test]
    fn net_transport_is_exempt_from_d2_by_name_only() {
        // Socket plumbing owns the crate's only sanctioned wall-clock
        // sites (accept deadline, connect backoff); D2 is lifted there —
        // and only there — while D1 and P1 still apply.
        assert_eq!(
            rules_for("crates/net/src/transport.rs"),
            vec![Rule::D1, Rule::P1]
        );
        for policed in [
            "coordinator.rs",
            "endpoint.rs",
            "frame.rs",
            "solve.rs",
            "lib.rs",
        ] {
            let path = format!("crates/net/src/{policed}");
            assert!(rules_for(&path).contains(&Rule::D2), "{path} must keep D2");
        }
    }

    #[test]
    fn service_realtime_is_exempt_from_d2_by_name_only() {
        // The service's real-time shell (socket accept loop, response
        // timeouts) and the load generator's sessions/sec stopwatch are
        // the crate's only sanctioned wall-clock sites; D2 is lifted
        // there — and only there — while the scheduler underneath stays
        // on the virtual clock.
        assert_eq!(
            rules_for("crates/service/src/server.rs"),
            vec![Rule::D1, Rule::P1]
        );
        assert_eq!(rules_for("crates/service/src/main.rs"), vec![Rule::D1]);
        for policed in ["service.rs", "session.rs", "table.rs", "lib.rs"] {
            let path = format!("crates/service/src/{policed}");
            assert!(rules_for(&path).contains(&Rule::D2), "{path} must keep D2");
        }
    }

    #[test]
    fn test_attribute_skips_following_item_only() {
        let src = "#[test]\nfn t() { let x = v.unwrap(); }\n\
                   fn real() { let y = v.unwrap(); }\n";
        let fs = run(&[Rule::P1], src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 3);
    }
}
