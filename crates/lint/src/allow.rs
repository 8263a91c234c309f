//! The machine-readable allowlist file (`lint-allow.list`).
//!
//! Each non-comment line grants one exemption:
//!
//! ```text
//! RULE | path/suffix.rs | line substring | justification
//! ```
//!
//! A finding is suppressed when its rule code matches, its path ends
//! with the entry's path field, and the offending source line contains
//! the entry's substring. Entries without a justification, entries
//! naming an unknown rule code, and entries that match nothing are all
//! hard errors so the file cannot silently rot.

use std::cell::Cell;

use crate::diag::{Finding, Severity};
use crate::rules::ALL_RULES;

/// One parsed allowlist entry.
#[derive(Debug)]
pub struct Entry {
    /// Rule code the entry exempts (`D1`, `D2`, `M1`, `P1`).
    pub rule: String,
    /// Path suffix the entry applies to.
    pub path: String,
    /// Substring of the offending source line.
    pub substring: String,
    /// Why the exemption is justified (mandatory).
    pub justification: String,
    /// 1-based line in the allowlist file (for diagnostics).
    pub line: u32,
    used: Cell<bool>,
}

/// A parsed allowlist plus any findings about the file itself.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// The usable entries.
    pub entries: Vec<Entry>,
    /// Path of the allowlist file (for diagnostics), if loaded.
    pub path: String,
}

impl Allowlist {
    /// An empty allowlist (used when no file exists).
    pub fn empty() -> Self {
        Allowlist::default()
    }

    /// Parses allowlist text. Malformed or justification-free lines
    /// become error findings rather than silent exemptions.
    pub fn parse(path: &str, text: &str) -> (Self, Vec<Finding>) {
        let mut entries = Vec::new();
        let mut findings = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            if fields.len() != 4 || fields.iter().take(3).any(|f| f.is_empty()) {
                findings.push(Finding {
                    rule: "A0",
                    severity: Severity::Error,
                    path: path.to_string(),
                    line: line_no,
                    col: 1,
                    message: "malformed allowlist entry (expected `RULE | path | substring | \
                              justification`)"
                        .to_string(),
                    snippet: raw.to_string(),
                    help: "",
                });
                continue;
            }
            if !ALL_RULES.iter().any(|r| r.code() == fields[0]) {
                findings.push(Finding {
                    rule: "A0",
                    severity: Severity::Error,
                    path: path.to_string(),
                    line: line_no,
                    col: 1,
                    message: format!(
                        "unknown rule code `{}` in allowlist entry (expected one of {})",
                        fields[0],
                        ALL_RULES
                            .iter()
                            .map(|r| r.code())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    snippet: raw.to_string(),
                    help: "an entry naming no real rule exempts nothing and hides a typo",
                });
                continue;
            }
            if fields[3].len() < 10 {
                findings.push(Finding {
                    rule: "A0",
                    severity: Severity::Error,
                    path: path.to_string(),
                    line: line_no,
                    col: 1,
                    message: "allowlist entry needs a real justification (≥ 10 characters)"
                        .to_string(),
                    snippet: raw.to_string(),
                    help: "",
                });
                continue;
            }
            entries.push(Entry {
                rule: fields[0].to_string(),
                path: fields[1].to_string(),
                substring: fields[2].to_string(),
                justification: fields[3].to_string(),
                line: line_no,
                used: Cell::new(false),
            });
        }
        (
            Allowlist {
                entries,
                path: path.to_string(),
            },
            findings,
        )
    }

    /// Whether `finding` is exempted; marks the matching entry as used.
    pub fn covers(&self, finding: &Finding) -> bool {
        for e in &self.entries {
            if e.rule == finding.rule
                && finding.path.ends_with(&e.path)
                && finding.snippet.contains(&e.substring)
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    /// Errors for entries that exempted nothing this run: a stale entry
    /// is a standing exemption for code that no longer exists, ready to
    /// silently swallow the next unrelated finding that happens to
    /// match it.
    pub fn unused_entries(&self) -> Vec<Finding> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| Finding {
                rule: "A0",
                severity: Severity::Error,
                path: self.path.clone(),
                line: e.line,
                col: 1,
                message: format!(
                    "stale allowlist entry: no {} finding matches `{}` in `{}`",
                    e.rule, e.substring, e.path
                ),
                snippet: format!("{} | {} | {}", e.rule, e.path, e.substring),
                help: "delete the entry, or fix it to match the violation it exempts",
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            path: path.to_string(),
            line: 1,
            col: 1,
            message: String::new(),
            snippet: snippet.to_string(),
            help: "",
        }
    }

    #[test]
    fn parses_and_matches() {
        let (al, errs) = Allowlist::parse(
            "lint-allow.list",
            "# comment\n\nD2 | src/bin/repro.rs | Instant::now | CLI progress timing only\n",
        );
        assert!(errs.is_empty());
        assert_eq!(al.entries.len(), 1);
        let f = finding(
            "D2",
            "crates/bench/src/bin/repro.rs",
            "let t = Instant::now();",
        );
        assert!(al.covers(&f));
        assert!(al.unused_entries().is_empty());
    }

    #[test]
    fn justification_is_mandatory() {
        let (al, errs) = Allowlist::parse("x", "D1 | a.rs | HashMap | short\n");
        assert!(al.entries.is_empty());
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, "A0");
    }

    #[test]
    fn malformed_lines_are_errors() {
        let (al, errs) = Allowlist::parse("x", "D1 | only two fields\n");
        assert!(al.entries.is_empty());
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn unused_entries_become_errors() {
        let (al, _) = Allowlist::parse(
            "x",
            "P1 | never.rs | unwrap | this never matches anything\n",
        );
        assert_eq!(al.unused_entries().len(), 1);
        assert_eq!(al.unused_entries()[0].severity, Severity::Error);
    }

    #[test]
    fn unknown_rule_code_is_an_error() {
        let (al, errs) =
            Allowlist::parse("x", "Q9 | a.rs | HashMap | maps are fine here honestly\n");
        assert!(al.entries.is_empty());
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].message.contains("unknown rule code `Q9`"),
            "{}",
            errs[0].message
        );
        assert!(errs[0].message.contains("W1"), "{}", errs[0].message);
    }

    #[test]
    fn workspace_rule_entries_parse() {
        let (al, errs) = Allowlist::parse(
            "x",
            "D3 | crates/net/src/transport.rs | Instant::now | deadline only bounds a wait\n",
        );
        assert!(errs.is_empty());
        assert_eq!(al.entries.len(), 1);
    }

    #[test]
    fn wrong_rule_or_path_does_not_cover() {
        let (al, _) = Allowlist::parse("x", "D1 | a.rs | HashMap | maps are fine here honestly\n");
        assert!(!al.covers(&finding("D2", "crates/a.rs", "HashMap")));
        assert!(!al.covers(&finding("D1", "crates/b.rs", "HashMap")));
        assert!(!al.covers(&finding("D1", "crates/a.rs", "BTreeMap")));
    }
}
