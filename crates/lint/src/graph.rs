//! The workspace symbol table and call graph.
//!
//! Call resolution is *name-based* and deliberately over-approximate
//! (class-hierarchy style): a method call `recv.foo(..)` gains an edge
//! to every workspace method named `foo`; a free call prefers same-file
//! then same-crate definitions; a qualified call `Type::foo(..)` keeps
//! only candidates owned by `Type` when any exist. Over-approximation
//! is the right polarity for a linter — an edge too many can only
//! produce a finding a human then reviews, never hide one — and every
//! interprocedural diagnostic carries its full blame chain so a false
//! edge is visible (and suppressible with a written justification)
//! rather than mysterious.
//!
//! Everything is ordered (`BTreeMap`, sorted inputs), so the graph and
//! every traversal over it is deterministic — the analyzer holds itself
//! to the same D1 standard it enforces.

use std::collections::BTreeMap;

use crate::parser::{Fact, ParsedFile};

/// Index of one function in the workspace table.
pub type FnId = usize;

/// One function in the symbol table, flattened across files.
#[derive(Debug)]
pub struct FnNode {
    /// The function's name.
    pub name: String,
    /// Owning impl/trait target, if a method.
    pub owner: Option<String>,
    /// Workspace-relative path of the defining file.
    pub rel: String,
    /// Crate name segment of `rel` (`awc` in `crates/awc/src/x.rs`).
    pub krate: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the signature declares a non-unit return type.
    pub returns_value: bool,
    /// Panic/determinism facts in the body.
    pub facts: Vec<Fact>,
}

impl FnNode {
    /// `Owner::name` or plain `name`, for diagnostics.
    pub fn display_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// The called function.
    pub callee: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All functions, in file order then declaration order.
    pub fns: Vec<FnNode>,
    /// Outgoing edges per function.
    pub calls: Vec<Vec<Edge>>,
    /// Incoming edges per function (callee → callers).
    pub callers: Vec<Vec<Edge>>,
}

fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string()
}

impl CallGraph {
    /// Builds the symbol table and resolves every call site.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut fns = Vec::new();
        let mut site_lists = Vec::new();
        for file in files {
            for f in &file.fns {
                fns.push(FnNode {
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    rel: file.rel.clone(),
                    krate: crate_of(&file.rel),
                    line: f.line,
                    returns_value: f.returns_value,
                    facts: f.facts.clone(),
                });
                site_lists.push(&f.calls);
            }
        }

        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (id, node) in fns.iter().enumerate() {
            by_name.entry(&node.name).or_default().push(id);
        }

        let mut calls: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for (caller, sites) in site_lists.iter().enumerate() {
            for site in sites.iter() {
                let Some(candidates) = by_name.get(site.callee.as_str()) else {
                    continue; // external (std or dependency) call
                };
                let resolved = resolve(
                    &fns,
                    caller,
                    candidates,
                    site.method,
                    site.qualifier.as_deref(),
                );
                for callee in resolved {
                    if callee == caller {
                        continue; // self-recursion adds nothing to reachability
                    }
                    if !calls[caller].iter().any(|e| e.callee == callee) {
                        calls[caller].push(Edge {
                            callee,
                            line: site.line,
                        });
                    }
                }
            }
        }

        let mut callers: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for (caller, edges) in calls.iter().enumerate() {
            for e in edges {
                callers[e.callee].push(Edge {
                    callee: caller, // reversed: "callee" field holds the caller
                    line: e.line,
                });
            }
        }

        CallGraph {
            fns,
            calls,
            callers,
        }
    }

    /// Multi-source BFS over outgoing edges. Returns, for every
    /// reachable function, the edge it was first discovered through:
    /// `(predecessor FnId, call-site line)`. Sources map to themselves.
    pub fn reach_forward(&self, sources: &[FnId]) -> BTreeMap<FnId, (FnId, u32)> {
        self.bfs(sources, &self.calls)
    }

    /// Multi-source BFS over incoming edges (who can reach me).
    pub fn reach_backward(&self, sources: &[FnId]) -> BTreeMap<FnId, (FnId, u32)> {
        self.bfs(sources, &self.callers)
    }

    fn bfs(&self, sources: &[FnId], adj: &[Vec<Edge>]) -> BTreeMap<FnId, (FnId, u32)> {
        let mut seen: BTreeMap<FnId, (FnId, u32)> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
        for &s in sources {
            if let std::collections::btree_map::Entry::Vacant(slot) = seen.entry(s) {
                slot.insert((s, 0));
                queue.push_back(s);
            }
        }
        while let Some(at) = queue.pop_front() {
            for e in &adj[at] {
                if let std::collections::btree_map::Entry::Vacant(slot) = seen.entry(e.callee) {
                    slot.insert((at, e.line));
                    queue.push_back(e.callee);
                }
            }
        }
        seen
    }

    /// Reconstructs the discovery path from a BFS source to `to` as a
    /// list of `(FnId, call-site line into the next hop)`; the last
    /// entry's line is 0. Returns `None` if `to` was not reached.
    pub fn path_to(
        &self,
        reached: &BTreeMap<FnId, (FnId, u32)>,
        to: FnId,
    ) -> Option<Vec<(FnId, u32)>> {
        reached.get(&to)?;
        let mut rev = vec![];
        let mut at = to;
        loop {
            let &(pred, line) = reached.get(&at)?;
            rev.push((at, line));
            if pred == at {
                break;
            }
            at = pred;
        }
        rev.reverse();
        // `rev` is source→…→to with each entry carrying the line of the
        // call that *discovered it* (i.e. the call in its predecessor).
        // Shift lines one step so each entry carries the line of its
        // *outgoing* call, which reads naturally in a blame chain.
        let mut path: Vec<(FnId, u32)> = Vec::with_capacity(rev.len());
        for i in 0..rev.len() {
            let (id, _) = rev[i];
            let out_line = rev.get(i + 1).map_or(0, |&(_, l)| l);
            path.push((id, out_line));
        }
        Some(path)
    }

    /// Reconstructs the chain from a caller `from` down to a
    /// [`reach_backward`](Self::reach_backward) source, as
    /// `(FnId, call-site line into the next hop)`; the source's line is
    /// 0. Backward discovery edges already carry the call line in the
    /// *caller's* file, so unlike [`path_to`](Self::path_to) no line
    /// shift is needed. Returns `None` if `from` was not reached.
    pub fn caller_chain(
        &self,
        reached: &BTreeMap<FnId, (FnId, u32)>,
        from: FnId,
    ) -> Option<Vec<(FnId, u32)>> {
        reached.get(&from)?;
        let mut path = vec![];
        let mut at = from;
        loop {
            let &(pred, line) = reached.get(&at)?;
            path.push((at, line));
            if pred == at {
                break;
            }
            at = pred;
        }
        Some(path)
    }

    /// Renders a blame chain `a (file:line) → b (file:line) → c` where
    /// each location is the call site into the next hop.
    pub fn render_chain(&self, path: &[(FnId, u32)]) -> String {
        let mut parts = Vec::with_capacity(path.len());
        for &(id, out_line) in path {
            let node = &self.fns[id];
            if out_line == 0 {
                parts.push(format!("`{}`", node.display_name()));
            } else {
                parts.push(format!(
                    "`{}` ({}:{})",
                    node.display_name(),
                    node.rel,
                    out_line
                ));
            }
        }
        parts.join(" → ")
    }
}

/// Applies the resolution policy for one call site.
fn resolve(
    fns: &[FnNode],
    caller: FnId,
    candidates: &[FnId],
    method: bool,
    qualifier: Option<&str>,
) -> Vec<FnId> {
    if let Some(q) = qualifier {
        // `Type::foo(..)`: an owner match beats everything; a module-file
        // match (`jsonl::parse_line`) is next; otherwise fall through to
        // the free-call policy (the qualifier names something external).
        let owned: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&id| fns[id].owner.as_deref() == Some(q))
            .collect();
        if !owned.is_empty() {
            return owned;
        }
        let in_module: Vec<FnId> = candidates
            .iter()
            .copied()
            .filter(|&id| fns[id].rel.ends_with(&format!("/{q}.rs")))
            .collect();
        if !in_module.is_empty() {
            return in_module;
        }
    }
    if method {
        // CHA: every workspace method of that name.
        return candidates
            .iter()
            .copied()
            .filter(|&id| fns[id].owner.is_some())
            .collect();
    }
    // Free call: prefer same-file, then same-crate, then anything.
    let same_file: Vec<FnId> = candidates
        .iter()
        .copied()
        .filter(|&id| fns[id].rel == fns[caller].rel)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<FnId> = candidates
        .iter()
        .copied()
        .filter(|&id| fns[id].krate == fns[caller].krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    candidates.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(rel, src)| parse_file(rel, &lex(src)))
            .collect();
        CallGraph::build(&parsed)
    }

    fn id_of(g: &CallGraph, display: &str) -> FnId {
        g.fns
            .iter()
            .position(|f| f.display_name() == display)
            .unwrap_or_else(|| panic!("no fn {display}"))
    }

    #[test]
    fn free_calls_prefer_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let top = id_of(&g, "top");
        let local = id_of(&g, "helper");
        assert_eq!(g.calls[top].len(), 1);
        assert_eq!(g.calls[top][0].callee, local);
        assert_eq!(g.fns[local].rel, "crates/a/src/lib.rs");
    }

    #[test]
    fn method_calls_fan_out_to_all_impls() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn top(s: S) { s.go(); }\n"),
            ("crates/b/src/lib.rs", "impl S { fn go(&self) {} }\n"),
            ("crates/c/src/lib.rs", "impl T { fn go(&self) {} }\n"),
        ]);
        let top = id_of(&g, "top");
        assert_eq!(g.calls[top].len(), 2);
    }

    #[test]
    fn qualified_calls_stick_to_the_owner() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn top() { S::go(); }\n"),
            ("crates/b/src/lib.rs", "impl S { fn go(&self) {} }\n"),
            ("crates/c/src/lib.rs", "impl T { fn go(&self) {} }\n"),
        ]);
        let top = id_of(&g, "top");
        assert_eq!(g.calls[top].len(), 1);
        assert_eq!(g.calls[top][0].callee, id_of(&g, "S::go"));
    }

    #[test]
    fn module_qualified_calls_resolve_to_the_file() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { jsonl::parse_line(x); }\n",
            ),
            ("crates/a/src/jsonl.rs", "pub fn parse_line(s: &str) {}\n"),
            ("crates/b/src/lib.rs", "pub fn parse_line(s: &str) {}\n"),
        ]);
        let top = id_of(&g, "top");
        assert_eq!(g.calls[top].len(), 1);
        assert_eq!(g.fns[g.calls[top][0].callee].rel, "crates/a/src/jsonl.rs");
    }

    #[test]
    fn reachability_and_blame_chain() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn entry() {\n mid();\n}\nfn mid() {\n deep();\n}\nfn deep() { x.unwrap(); }\n",
        )]);
        let entry = id_of(&g, "entry");
        let deep = id_of(&g, "deep");
        let reached = g.reach_forward(&[entry]);
        assert!(reached.contains_key(&deep));
        let path = g.path_to(&reached, deep).expect("path exists");
        let chain = g.render_chain(&path);
        assert!(chain.contains("`entry` (crates/a/src/lib.rs:2)"), "{chain}");
        assert!(chain.contains("`mid` (crates/a/src/lib.rs:5)"), "{chain}");
        assert!(chain.ends_with("`deep`"), "{chain}");
    }

    #[test]
    fn backward_reachability_finds_callers() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\n",
        )]);
        let entry = id_of(&g, "entry");
        let deep = id_of(&g, "deep");
        let reached = g.reach_backward(&[deep]);
        assert!(reached.contains_key(&entry));
    }

    #[test]
    fn caller_chain_lines_land_in_the_caller() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn entry() {\n mid();\n}\nfn mid() {\n deep();\n}\nfn deep() {}\n",
        )]);
        let entry = id_of(&g, "entry");
        let deep = id_of(&g, "deep");
        let reached = g.reach_backward(&[deep]);
        let chain = g.caller_chain(&reached, entry).expect("chain exists");
        let rendered = g.render_chain(&chain);
        assert!(
            rendered.starts_with("`entry` (crates/a/src/lib.rs:2)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("`mid` (crates/a/src/lib.rs:5)"),
            "{rendered}"
        );
        assert!(rendered.ends_with("`deep`"), "{rendered}");
    }

    #[test]
    fn recursion_terminates() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { a(); b(); }\n",
        )]);
        let a = id_of(&g, "a");
        let reached = g.reach_forward(&[a]);
        assert_eq!(reached.len(), 2);
    }
}
