//! A small hand-rolled Rust lexer.
//!
//! The rule engine does not need a parser — every invariant it enforces
//! is visible at the token level — but it *does* need to distinguish
//! identifiers from the same words inside strings, comments, and char
//! literals, and it needs exact `line:col` positions for diagnostics.
//! That is precisely what this lexer provides, and nothing more.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `fn`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal (`0`, `0xFF`, `1_000u64`, `1.5`).
    Number,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// Single punctuation character (`.`, `[`, `!`, …).
    Punct,
    /// Line or block comment, text included (`// …`, `/* … */`).
    Comment,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's text, including delimiters for strings and comments.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into a token stream.
///
/// The lexer is total: any input produces a token list (unterminated
/// strings or comments simply extend to end of input), so the analyzer
/// can never be crashed by the code it scans.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();

    while let Some(c) = lx.peek(0) {
        let (line, col) = (lx.line, lx.col);
        match c {
            c if c.is_whitespace() => {
                lx.bump();
            }
            '/' if lx.peek(1) == Some('/') => {
                let mut text = String::new();
                while let Some(ch) = lx.peek(0) {
                    if ch == '\n' {
                        break;
                    }
                    text.push(ch);
                    lx.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text,
                    line,
                    col,
                });
            }
            '/' if lx.peek(1) == Some('*') => {
                let mut text = String::new();
                let mut depth = 0usize;
                while let Some(ch) = lx.peek(0) {
                    if ch == '/' && lx.peek(1) == Some('*') {
                        depth += 1;
                        text.push('/');
                        text.push('*');
                        lx.bump();
                        lx.bump();
                    } else if ch == '*' && lx.peek(1) == Some('/') {
                        depth -= 1;
                        text.push('*');
                        text.push('/');
                        lx.bump();
                        lx.bump();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(ch);
                        lx.bump();
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text,
                    line,
                    col,
                });
            }
            '"' => {
                let text = lex_string(&mut lx, false);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                    col,
                });
            }
            '\'' => {
                let (kind, text) = lex_quote(&mut lx);
                tokens.push(Token {
                    kind,
                    text,
                    line,
                    col,
                });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(ch) = lx.peek(0) {
                    let fraction_dot = ch == '.' && lx.peek(1).is_some_and(|d| d.is_ascii_digit());
                    if is_ident_continue(ch) || fraction_dot {
                        text.push(ch);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    text,
                    line,
                    col,
                });
            }
            c if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(ch) = lx.peek(0) {
                    if is_ident_continue(ch) {
                        text.push(ch);
                        lx.bump();
                    } else {
                        break;
                    }
                }
                // String prefixes: r"…", r#"…"#, b"…", br#"…"#, c"…".
                let raw_capable = matches!(text.as_str(), "r" | "br" | "cr" | "b" | "c");
                if raw_capable && lx.peek(0) == Some('"') {
                    let raw = text.contains('r');
                    let body = lex_string(&mut lx, raw);
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        text: format!("{text}{body}"),
                        line,
                        col,
                    });
                } else if raw_capable && text.contains('r') && lx.peek(0) == Some('#') {
                    let body = lex_raw_hash_string(&mut lx);
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        text: format!("{text}{body}"),
                        line,
                        col,
                    });
                } else if text == "b" && lx.peek(0) == Some('\'') {
                    let (_, body) = lex_quote(&mut lx);
                    tokens.push(Token {
                        kind: TokenKind::CharLit,
                        text: format!("b{body}"),
                        line,
                        col,
                    });
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        text,
                        line,
                        col,
                    });
                }
            }
            _ => {
                lx.bump();
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                    col,
                });
            }
        }
    }
    tokens
}

/// Lexes a `"…"` string starting at the opening quote. In raw mode no
/// escape processing happens.
fn lex_string(lx: &mut Lexer, raw: bool) -> String {
    let mut text = String::new();
    text.push('"');
    lx.bump(); // opening quote
    while let Some(ch) = lx.peek(0) {
        if ch == '\\' && !raw {
            text.push(ch);
            lx.bump();
            if let Some(esc) = lx.peek(0) {
                text.push(esc);
                lx.bump();
            }
        } else if ch == '"' {
            text.push(ch);
            lx.bump();
            break;
        } else {
            text.push(ch);
            lx.bump();
        }
    }
    text
}

/// Lexes a `#…#"…"#…#` raw string starting at the first `#`.
fn lex_raw_hash_string(lx: &mut Lexer) -> String {
    let mut text = String::new();
    let mut hashes = 0usize;
    while lx.peek(0) == Some('#') {
        hashes += 1;
        text.push('#');
        lx.bump();
    }
    if lx.peek(0) != Some('"') {
        return text; // `r#foo` raw identifier, not a string
    }
    text.push('"');
    lx.bump();
    let closer: String = std::iter::once('"')
        .chain("#".repeat(hashes).chars())
        .collect();
    let mut tail = String::new();
    while let Some(ch) = lx.peek(0) {
        tail.push(ch);
        lx.bump();
        if tail.ends_with(&closer) {
            break;
        }
    }
    text.push_str(&tail);
    text
}

/// Lexes a `'`-introduced token: either a char literal or a lifetime.
fn lex_quote(lx: &mut Lexer) -> (TokenKind, String) {
    let mut text = String::new();
    text.push('\'');
    lx.bump(); // opening quote
    match lx.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume until the closing quote.
            while let Some(ch) = lx.peek(0) {
                text.push(ch);
                lx.bump();
                if ch == '\'' && text.len() > 2 {
                    break;
                }
            }
            (TokenKind::CharLit, text)
        }
        Some(c) if is_ident_start(c) => {
            while let Some(ch) = lx.peek(0) {
                if is_ident_continue(ch) {
                    text.push(ch);
                    lx.bump();
                } else {
                    break;
                }
            }
            if lx.peek(0) == Some('\'') && text.chars().count() == 2 {
                text.push('\'');
                lx.bump();
                (TokenKind::CharLit, text)
            } else {
                (TokenKind::Lifetime, text)
            }
        }
        Some(c) => {
            text.push(c);
            lx.bump();
            if lx.peek(0) == Some('\'') {
                text.push('\'');
                lx.bump();
            }
            (TokenKind::CharLit, text)
        }
        None => (TokenKind::CharLit, text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a.unwrap();");
        assert_eq!(toks[0], (TokenKind::Ident, "let".to_string()));
        assert_eq!(toks[3], (TokenKind::Ident, "a".to_string()));
        assert_eq!(toks[4], (TokenKind::Punct, ".".to_string()));
        assert_eq!(toks[5], (TokenKind::Ident, "unwrap".to_string()));
    }

    #[test]
    fn words_in_strings_and_comments_are_not_idents() {
        let toks = kinds("\"HashMap\" // HashMap\n/* HashMap */ r#\"HashMap\"#");
        assert!(toks.iter().all(|(k, _)| !matches!(k, TokenKind::Ident)));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("impl<'a> Foo<'a> { const C: char = 'a'; }");
        let lifetimes = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .count();
        let chars = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::CharLit)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn nested_block_comment_is_one_token() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "x".to_string()));
    }

    #[test]
    fn positions_are_one_based_and_line_aware() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn numeric_literals_with_separators_and_suffixes() {
        let toks = kinds("0x2545_F491u64 1_000 1.5");
        assert!(toks.iter().all(|(k, _)| *k == TokenKind::Number));
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn escaped_quote_in_string() {
        let toks = kinds(r#""a\"b" x"#);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "x".to_string()));
    }
}
