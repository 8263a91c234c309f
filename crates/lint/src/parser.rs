//! A recursive-descent item/signature parser on top of the lexer.
//!
//! The per-file rules see tokens; the workspace rules (P2, D3, W1) need
//! *structure*: which functions exist, which impl block owns them, what
//! they call, and which panic- or determinism-relevant facts their
//! bodies contain. This module extracts exactly that — no expression
//! trees, no types beyond names — because the interprocedural rules
//! only reason about names, edges, and line positions.
//!
//! Like the lexer, the parser is total: any token stream produces a
//! [`ParsedFile`]. Items it does not understand are skipped, never
//! fatal, so the analyzer cannot be wedged by the code it scans.
//! `#[cfg(test)]` / `#[test]` items are dropped here with the same
//! attribute scan the per-file rules use (tests are exempt from every
//! rule, interprocedural ones included).

use crate::lexer::{Token, TokenKind};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (last path segment: `foo` in `a::b::foo(..)`).
    pub callee: String,
    /// The path segment or receiver type immediately before the name
    /// (`Type` in `Type::foo(..)`), when one is present.
    pub qualifier: Option<String>,
    /// Whether this is a method call (`recv.foo(..)`).
    pub method: bool,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// What kind of invariant-relevant fact a body token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// Can panic: `.unwrap()`, `.expect(..)`, `panic!`-family macros,
    /// literal indexing.
    Panic,
    /// Iteration-order instability: `HashMap` / `HashSet` (D1's set).
    Unordered,
    /// Wall-clock / OS entropy: `Instant::now`, `SystemTime`,
    /// `thread_rng` (D2's set).
    Timing,
}

/// One invariant-relevant fact found in a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// Which family the fact belongs to.
    pub kind: FactKind,
    /// Short description of the construct (`.unwrap()`, `Instant::now`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The impl/trait target that owns it (`NogoodStore` for methods of
    /// `impl NogoodStore` or `impl Wire for NogoodStore`), if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the signature declares a non-unit return type.
    pub returns_value: bool,
    /// Calls made from the body, in source order.
    pub calls: Vec<CallSite>,
    /// Panic/determinism facts found in the body.
    pub facts: Vec<Fact>,
    /// `Enum::Variant` path references in the body (for schema
    /// exhaustiveness checks), with their lines.
    pub variant_refs: Vec<(String, String, u32)>,
    /// Integer arguments of `.push(<int>)` calls in the body, in source
    /// order (W1 uses these as the wire tags of an `encode` body).
    pub tag_pushes: Vec<(u64, u32)>,
}

impl FnItem {
    /// `Owner::name` or plain `name`, for diagnostics.
    pub fn display_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed `enum` item: its name and variant names with lines.
#[derive(Debug)]
pub struct EnumItem {
    /// The enum's name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variant names with their 1-based lines, in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One `impl <Trait> for <Target>` record (trait impls only).
#[derive(Debug)]
pub struct TraitImpl {
    /// The trait's last path segment.
    pub trait_name: String,
    /// The target type's last path segment (generics stripped).
    pub target: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// Everything the workspace rules need to know about one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Workspace-relative path (`crates/awc/src/agent.rs`).
    pub rel: String,
    /// All non-test functions, including methods.
    pub fns: Vec<FnItem>,
    /// All non-test enum definitions.
    pub enums: Vec<EnumItem>,
    /// All non-test trait impls (`impl Wire for X` and friends).
    pub trait_impls: Vec<TraitImpl>,
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "ref", "mut", "else",
    "let", "fn", "impl", "pub", "use", "mod", "struct", "enum", "trait", "where", "unsafe", "dyn",
    "break", "continue", "await", "async", "const", "static", "type", "crate", "self", "super",
];

struct Parser<'a> {
    toks: Vec<&'a Token>,
    pos: usize,
    out: ParsedFile,
    /// Stack of enclosing impl/trait targets.
    owners: Vec<String>,
}

/// Parses one file's token stream into its item structure.
pub fn parse_file(rel: &str, tokens: &[Token]) -> ParsedFile {
    let toks: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut p = Parser {
        toks,
        pos: 0,
        out: ParsedFile {
            rel: rel.to_string(),
            ..ParsedFile::default()
        },
        owners: Vec::new(),
    };
    p.items();
    p.out
}

impl<'a> Parser<'a> {
    fn at(&self, off: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + off).copied()
    }

    fn text(&self, off: usize) -> &str {
        self.at(off).map_or("", |t| &t.text)
    }

    fn is_ident(&self, off: usize) -> bool {
        self.at(off).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Skips a balanced `<...>` group if one starts here. Conservative:
    /// also stops at `;` or `{` so a stray `<` (comparison) cannot eat
    /// an item body.
    fn skip_generics(&mut self) {
        if self.text(0) != "<" {
            return;
        }
        let mut depth = 0usize;
        while let Some(t) = self.at(0) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                ";" | "{" => return,
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips a balanced delimiter group starting at the current token
    /// (one of `(`, `[`, `{`). Position ends just after the closer.
    fn skip_group(&mut self, open: &str, close: &str) {
        let mut depth = 0usize;
        while let Some(t) = self.at(0) {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// Scans an attribute `#[...]` at the current `#`. Returns whether
    /// it marks test-only code. Position ends after the `]`.
    fn attribute_is_test(&mut self) -> bool {
        self.pos += 1; // `#`
        if self.text(0) == "!" {
            self.pos += 1; // inner attribute `#![...]`
        }
        let mut depth = 0usize;
        let mut has_test = false;
        let mut has_not = false;
        while let Some(t) = self.at(0) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return has_test && !has_not;
                    }
                }
                "test" if t.kind == TokenKind::Ident => has_test = true,
                "not" if t.kind == TokenKind::Ident => has_not = true,
                _ => {}
            }
            self.pos += 1;
        }
        has_test && !has_not
    }

    /// Skips one whole item (used for test-attributed items): further
    /// attributes, then everything up to a top-level `;` or the end of
    /// the first braced body.
    fn skip_item(&mut self) {
        while self.text(0) == "#" {
            self.attribute_is_test();
        }
        let mut depth = 0usize;
        while let Some(t) = self.at(0) {
            match t.text.as_str() {
                ";" if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Parses a run of items until end of input or a closing `}` that
    /// ends the enclosing block (which the caller consumes).
    fn items(&mut self) {
        while let Some(t) = self.at(0) {
            match t.text.as_str() {
                "}" => return,
                "#" => {
                    let save = self.pos;
                    if self.attribute_is_test() {
                        self.skip_item();
                    } else {
                        // Keep scanning items after a non-test attribute.
                        let _ = save;
                    }
                }
                "fn" if self.is_ident(1) => self.fn_item(),
                "impl" => self.impl_item(),
                "trait" if self.is_ident(1) => self.trait_item(),
                "enum" if self.is_ident(1) => self.enum_item(),
                "mod" if self.is_ident(1) => {
                    // `mod name;` or `mod name { items }`.
                    self.pos += 2;
                    if self.text(0) == "{" {
                        self.pos += 1;
                        self.items();
                        self.pos += 1; // `}`
                    } else if self.text(0) == ";" {
                        self.pos += 1;
                    }
                }
                "use" => {
                    while self.at(0).is_some() && self.text(0) != ";" {
                        self.pos += 1;
                    }
                    self.pos += 1;
                }
                // Any other braced group at item level (struct body,
                // const/static initializer) contains no items; skip it
                // wholesale so its `}` is not mistaken for the end of
                // the enclosing block.
                "{" => self.skip_group("{", "}"),
                _ => self.pos += 1,
            }
        }
    }

    /// Parses the path after `impl` / `for`, returning the last plain
    /// segment before the body (generic arguments stripped).
    fn path_target(&mut self) -> Option<String> {
        let mut last = None;
        loop {
            match self.at(0) {
                // The lexer classifies keywords as idents; `for` and
                // `where` end the path here.
                Some(t) if t.text == "for" || t.text == "where" => return last,
                Some(t) if t.kind == TokenKind::Ident => {
                    last = Some(t.text.clone());
                    self.pos += 1;
                }
                Some(t) if t.text == "<" => self.skip_generics(),
                Some(t) if t.text == ":" && self.text(1) == ":" => self.pos += 2,
                Some(t) if t.text == "&" || t.kind == TokenKind::Lifetime => self.pos += 1,
                _ => return last,
            }
        }
    }

    fn impl_item(&mut self) {
        let line = self.at(0).map_or(0, |t| t.line);
        self.pos += 1; // `impl`
        self.skip_generics();
        let first = self.path_target();
        let target = if self.text(0) == "for" {
            self.pos += 1;
            let t = self.path_target();
            if let (Some(trait_name), Some(target)) = (first.clone(), t.clone()) {
                self.out.trait_impls.push(TraitImpl {
                    trait_name,
                    target: target.clone(),
                    line,
                });
            }
            t
        } else {
            first
        };
        // `where` clause, then the body.
        while self.at(0).is_some() && self.text(0) != "{" && self.text(0) != ";" {
            self.pos += 1;
        }
        if self.text(0) == "{" {
            self.pos += 1;
            if let Some(target) = target {
                self.owners.push(target);
                self.items();
                self.owners.pop();
            } else {
                self.items();
            }
            self.pos += 1; // `}`
        } else {
            self.pos += 1; // `;`
        }
    }

    fn trait_item(&mut self) {
        self.pos += 1; // `trait`
        let name = self.text(0).to_string();
        self.pos += 1;
        while self.at(0).is_some() && self.text(0) != "{" && self.text(0) != ";" {
            self.pos += 1;
        }
        if self.text(0) == "{" {
            self.pos += 1;
            self.owners.push(name);
            self.items();
            self.owners.pop();
            self.pos += 1;
        } else {
            self.pos += 1;
        }
    }

    fn enum_item(&mut self) {
        let line = self.at(0).map_or(0, |t| t.line);
        self.pos += 1; // `enum`
        let name = self.text(0).to_string();
        self.pos += 1;
        self.skip_generics();
        while self.at(0).is_some() && self.text(0) != "{" && self.text(0) != ";" {
            self.pos += 1;
        }
        if self.text(0) != "{" {
            self.pos += 1;
            return;
        }
        self.pos += 1; // `{`
        let mut variants = Vec::new();
        while let Some(t) = self.at(0) {
            match t.text.as_str() {
                "}" => break,
                "#" => {
                    self.attribute_is_test();
                }
                "(" => self.skip_group("(", ")"),
                "{" => self.skip_group("{", "}"),
                "=" => {
                    // Explicit discriminant: skip to `,` or `}`.
                    while self.at(0).is_some() && self.text(0) != "," && self.text(0) != "}" {
                        self.pos += 1;
                    }
                }
                _ => {
                    if t.kind == TokenKind::Ident {
                        variants.push((t.text.clone(), t.line));
                        self.pos += 1;
                        // Skip any payload right after the name.
                        match self.text(0) {
                            "(" => self.skip_group("(", ")"),
                            "{" => self.skip_group("{", "}"),
                            _ => {}
                        }
                        if self.text(0) == "," {
                            self.pos += 1;
                        }
                    } else {
                        self.pos += 1;
                    }
                }
            }
        }
        self.pos += 1; // `}`
        self.out.enums.push(EnumItem {
            name,
            line,
            variants,
        });
    }

    fn fn_item(&mut self) {
        let line = self.at(0).map_or(0, |t| t.line);
        self.pos += 1; // `fn`
        let name = self.text(0).to_string();
        self.pos += 1;
        self.skip_generics();
        if self.text(0) == "(" {
            self.skip_group("(", ")");
        }
        let mut returns_value = false;
        if self.text(0) == "-" && self.text(1) == ">" {
            self.pos += 2;
            // `-> ()` is unit; anything else is a value.
            returns_value = !(self.text(0) == "(" && self.text(1) == ")");
            while self.at(0).is_some()
                && self.text(0) != "{"
                && self.text(0) != ";"
                && self.text(0) != "where"
            {
                // Generic args in the return type may contain `{`? No —
                // const generics in return position are rare enough to
                // ignore; `<` groups are skipped wholesale.
                if self.text(0) == "<" {
                    self.skip_generics();
                } else {
                    self.pos += 1;
                }
            }
        }
        if self.text(0) == "where" {
            while self.at(0).is_some() && self.text(0) != "{" && self.text(0) != ";" {
                self.pos += 1;
            }
        }
        if self.text(0) != "{" {
            self.pos += 1; // trait method declaration `;`
            return;
        }
        let mut item = FnItem {
            name,
            owner: self.owners.last().cloned(),
            line,
            returns_value,
            calls: Vec::new(),
            facts: Vec::new(),
            variant_refs: Vec::new(),
            tag_pushes: Vec::new(),
        };
        self.fn_body(&mut item);
        self.out.fns.push(item);
    }

    /// Scans one `{ ... }` body, collecting calls and facts. Nested
    /// `fn` items are parsed as separate [`FnItem`]s and their tokens
    /// excluded from this body.
    fn fn_body(&mut self, item: &mut FnItem) {
        debug_assert_eq!(self.text(0), "{");
        self.pos += 1;
        let mut depth = 1usize;
        while let Some(t) = self.at(0) {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    self.pos += 1;
                }
                "}" => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return;
                    }
                }
                "fn" if self.is_ident(1) => self.fn_item(),
                "#" => {
                    if self.attribute_is_test() {
                        self.skip_item();
                    }
                }
                _ => {
                    self.body_token(item);
                    self.pos += 1;
                }
            }
        }
    }

    /// Classifies the current body token, appending calls/facts.
    fn body_token(&mut self, item: &mut FnItem) {
        let t = match self.at(0) {
            Some(t) => t,
            None => return,
        };
        let prev = self
            .pos
            .checked_sub(1)
            .and_then(|p| self.toks.get(p).copied());
        let prev2 = self
            .pos
            .checked_sub(2)
            .and_then(|p| self.toks.get(p).copied());
        let prev3 = self
            .pos
            .checked_sub(3)
            .and_then(|p| self.toks.get(p).copied());

        if t.kind == TokenKind::Ident {
            let after_dot = prev.is_some_and(|p| p.text == ".");
            let after_colons =
                prev.is_some_and(|p| p.text == ":") && prev2.is_some_and(|p| p.text == ":");
            let next_is_paren = self.text(1) == "(";
            let next_is_bang = self.text(1) == "!";

            // `Enum::Variant` references (both capitalized) for W1.
            if after_colons {
                if let Some(q) = prev3 {
                    if q.kind == TokenKind::Ident && starts_upper(&q.text) && starts_upper(&t.text)
                    {
                        item.variant_refs
                            .push((q.text.clone(), t.text.clone(), t.line));
                    }
                }
            }

            // Determinism facts.
            match t.text.as_str() {
                "HashMap" | "HashSet" => item.facts.push(Fact {
                    kind: FactKind::Unordered,
                    what: t.text.clone(),
                    line: t.line,
                    col: t.col,
                }),
                "Instant"
                    if self.text(1) == ":" && self.text(2) == ":" && self.text(3) == "now" =>
                {
                    item.facts.push(Fact {
                        kind: FactKind::Timing,
                        what: "Instant::now".to_string(),
                        line: t.line,
                        col: t.col,
                    });
                }
                "SystemTime" | "thread_rng" => item.facts.push(Fact {
                    kind: FactKind::Timing,
                    what: t.text.clone(),
                    line: t.line,
                    col: t.col,
                }),
                _ => {}
            }

            // Panic facts (mirrors the per-file P1 shapes).
            if t.text == "unwrap" && after_dot && next_is_paren && self.text(2) == ")" {
                item.facts.push(Fact {
                    kind: FactKind::Panic,
                    what: ".unwrap()".to_string(),
                    line: t.line,
                    col: t.col,
                });
            } else if t.text == "expect" && after_dot && next_is_paren {
                item.facts.push(Fact {
                    kind: FactKind::Panic,
                    what: ".expect(..)".to_string(),
                    line: t.line,
                    col: t.col,
                });
            } else if next_is_bang
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                item.facts.push(Fact {
                    kind: FactKind::Panic,
                    what: format!("{}!", t.text),
                    line: t.line,
                    col: t.col,
                });
            }

            // `.push(<int>)` — wire-tag collection for W1.
            if t.text == "push"
                && after_dot
                && next_is_paren
                && self.at(2).is_some_and(|n| n.kind == TokenKind::Number)
                && self.text(3) == ")"
            {
                if let Ok(tag) = self
                    .text(2)
                    .trim_end_matches(|c: char| c.is_alphabetic())
                    .parse()
                {
                    item.tag_pushes.push((tag, t.line));
                }
            }

            // Call sites.
            if next_is_paren && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
                let qualifier = if after_colons {
                    prev3
                        .filter(|q| q.kind == TokenKind::Ident)
                        .map(|q| q.text.clone())
                } else {
                    None
                };
                item.calls.push(CallSite {
                    callee: t.text.clone(),
                    qualifier,
                    method: after_dot,
                    line: t.line,
                });
            }
        } else if t.text == "[" {
            // Literal indexing `xs[0]` (P1/P2's panic shape).
            let indexee =
                prev.is_some_and(|p| p.kind == TokenKind::Ident || p.text == ")" || p.text == "]");
            if indexee
                && self.at(1).is_some_and(|n| n.kind == TokenKind::Number)
                && self.text(2) == "]"
            {
                item.facts.push(Fact {
                    kind: FactKind::Panic,
                    what: "literal indexing".to_string(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/x/src/a.rs", &lex(src))
    }

    #[test]
    fn finds_free_fns_and_methods_with_owners() {
        let src = "fn free() {}\n\
                   impl Store { fn insert(&mut self) {} }\n\
                   impl Wire for Event { fn encode(&self) {} }\n";
        let pf = parse(src);
        let names: Vec<String> = pf.fns.iter().map(FnItem::display_name).collect();
        assert_eq!(names, vec!["free", "Store::insert", "Event::encode"]);
        assert_eq!(pf.trait_impls.len(), 1);
        assert_eq!(pf.trait_impls[0].trait_name, "Wire");
        assert_eq!(pf.trait_impls[0].target, "Event");
    }

    #[test]
    fn generic_trait_impl_target_is_stripped() {
        let src = "impl<M: Wire> Wire for RunFrame<M> { fn encode(&self) {} }\n";
        let pf = parse(src);
        assert_eq!(pf.trait_impls[0].target, "RunFrame");
        assert_eq!(pf.fns[0].owner.as_deref(), Some("RunFrame"));
    }

    #[test]
    fn collects_calls_with_shapes() {
        let src = "fn f() { helper(); self.store.insert(x); Type::make(1); Some(3); if (x) {} }\n";
        let pf = parse(src);
        let calls = &pf.fns[0].calls;
        let named: Vec<(&str, bool, Option<&str>)> = calls
            .iter()
            .map(|c| (c.callee.as_str(), c.method, c.qualifier.as_deref()))
            .collect();
        assert!(named.contains(&("helper", false, None)));
        assert!(named.contains(&("insert", true, None)));
        assert!(named.contains(&("make", false, Some("Type"))));
        // Tuple constructors are recorded as calls but resolve to
        // nothing (no workspace fn is named `Some`); keywords are not.
        assert!(named.iter().all(|(n, _, _)| *n != "if"));
    }

    #[test]
    fn collects_panic_and_determinism_facts() {
        let src = "fn f() -> u32 {\n\
                   let a = x.unwrap();\n\
                   let b = y.expect(\"msg\");\n\
                   panic!(\"boom\");\n\
                   let c = xs[0];\n\
                   let m: HashMap<u8,u8> = HashMap::new();\n\
                   let t = Instant::now();\n\
                   1\n}\n";
        let pf = parse(src);
        let f = &pf.fns[0];
        assert!(f.returns_value);
        let panics: Vec<u32> = f
            .facts
            .iter()
            .filter(|x| x.kind == FactKind::Panic)
            .map(|x| x.line)
            .collect();
        assert_eq!(panics, vec![2, 3, 4, 5]);
        assert_eq!(
            f.facts
                .iter()
                .filter(|x| x.kind == FactKind::Unordered)
                .count(),
            2
        );
        assert_eq!(
            f.facts
                .iter()
                .filter(|x| x.kind == FactKind::Timing)
                .count(),
            1
        );
    }

    #[test]
    fn unit_and_value_returns() {
        let pf = parse(
            "fn a() {}\nfn b() -> () {}\nfn c() -> io::Result<()> { x }\nfn d(x: u8) -> u8 { x }\n",
        );
        let rv: Vec<bool> = pf.fns.iter().map(|f| f.returns_value).collect();
        assert_eq!(rv, vec![false, false, true, true]);
    }

    #[test]
    fn test_items_are_dropped_entirely() {
        let src = "#[cfg(test)]\nmod tests { fn helper() { x.unwrap(); } }\n\
                   #[test]\nfn t() { y.unwrap(); }\n\
                   fn real() {}\n";
        let pf = parse(src);
        assert_eq!(pf.fns.len(), 1);
        assert_eq!(pf.fns[0].name, "real");
    }

    #[test]
    fn enums_with_payloads_and_discriminants() {
        let src = "pub enum E {\n\
                   A,\n\
                   B { x: u32, y: Vec<u8> },\n\
                   C(u64),\n\
                   D = 4,\n\
                   }\n";
        let pf = parse(src);
        assert_eq!(pf.enums.len(), 1);
        let names: Vec<&str> = pf.enums[0]
            .variants
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn variant_refs_and_tag_pushes() {
        let src = "fn encode(&self) { match self { Event::Go { .. } => out.push(7), } }\n";
        let pf = parse(src);
        let f = &pf.fns[0];
        assert_eq!(
            f.variant_refs,
            vec![("Event".to_string(), "Go".to_string(), 1)]
        );
        assert_eq!(f.tag_pushes, vec![(7, 1)]);
    }

    #[test]
    fn nested_fns_are_separate_items() {
        let src = "fn outer() { fn inner() { x.unwrap(); } inner(); }\n";
        let pf = parse(src);
        assert_eq!(pf.fns.len(), 2);
        let inner = pf.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.facts.len(), 1);
        let outer = pf.fns.iter().find(|f| f.name == "outer").unwrap();
        assert!(outer.facts.is_empty());
        assert!(outer.calls.iter().any(|c| c.callee == "inner"));
    }

    #[test]
    fn mods_are_transparent() {
        let src = "mod inner { impl S { fn m(&self) {} } }\n";
        let pf = parse(src);
        assert_eq!(pf.fns[0].display_name(), "S::m");
    }
}
