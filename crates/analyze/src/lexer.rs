//! A minimal hand-rolled Rust lexer — the same "no syn, no quote"
//! constraint the in-tree derive macro lives under.
//!
//! The passes need line-accurate tokens, comments preserved (the unsafe
//! audit reads `// SAFETY:` markers and the allocation pass reads
//! `// ALLOC:` waivers), and correct skipping of string/char literals so
//! a `"unwrap()"` inside a string never trips a check. Full fidelity to
//! the reference grammar is *not* needed: floats may lex as
//! `Number . Number`, and shebangs/frontmatter don't occur in this
//! workspace. Every consumer works on the token *stream*, never on spans
//! back into the source, so those simplifications are safe.

/// Token classes the scanners distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `as`, …).
    Ident,
    /// A lifetime (`'a`, `'_`, `'static`).
    Lifetime,
    /// Integer-ish literal run (`0xFF`, `123`, `1u32`; a float lexes as
    /// two `Number`s around a `.` punct).
    Number,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// A single punctuation character (`{`, `[`, `+`, `#`, …).
    Punct,
    /// Line or block comment, text preserved (including the delimiters).
    Comment,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True when the token is exactly the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when the token is exactly the identifier/keyword `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream. Never fails: unterminated literals
/// simply consume to end of input (the tool lints source that `rustc`
/// already accepted, so this path only matters for robustness).
pub(crate) fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let collect = |from: usize, to: usize| -> String { chars[from..to].iter().collect() };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                text: collect(start, i),
                line,
            });
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                text: collect(start, i),
                line: start_line,
            });
            continue;
        }

        // Raw / byte string prefixes: r"", r#""#, b"", br#""#.
        if c == 'r' || c == 'b' {
            let mut j = i;
            if chars[j] == 'b' {
                j += 1;
            }
            let mut raw = false;
            if j < n && chars[j] == 'r' {
                raw = true;
                j += 1;
            }
            let mut hashes = 0usize;
            if raw {
                while j < n && chars[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
            }
            if j < n && chars[j] == '"' && (raw || j == i + 1) {
                // A string literal with this prefix. (A plain ident like
                // `rb` followed by `"..."` cannot occur: `rb` is not a
                // valid literal prefix and rustc rejects it.)
                let start = i;
                let start_line = line;
                i = j + 1;
                if raw {
                    // Scan for `"` followed by `hashes` hash marks.
                    'outer: while i < n {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        if chars[i] == '"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < n && chars[i + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                i += 1 + hashes;
                                break 'outer;
                            }
                        }
                        i += 1;
                    }
                } else {
                    consume_quoted(&chars, &mut i, &mut line, '"');
                }
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: collect(start, i.min(n)),
                    line: start_line,
                });
                continue;
            }
            if c == 'b' && i + 1 < n && chars[i + 1] == '\'' {
                // Byte char literal b'x'.
                let start = i;
                i += 2;
                consume_quoted(&chars, &mut i, &mut line, '\'');
                toks.push(Tok {
                    kind: TokKind::CharLit,
                    text: collect(start, i.min(n)),
                    line,
                });
                continue;
            }
            // Fall through: ordinary identifier starting with r/b.
        }

        if c == '"' {
            let start = i;
            let start_line = line;
            i += 1;
            consume_quoted(&chars, &mut i, &mut line, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                text: collect(start, i.min(n)),
                line: start_line,
            });
            continue;
        }

        if c == '\'' {
            // Lifetime vs char literal: `'a` with no closing quote right
            // after the ident char is a lifetime.
            let next_is_ident = i + 1 < n && is_ident_start(chars[i + 1]);
            let closes_as_char = i + 2 < n && chars[i + 2] == '\'';
            if next_is_ident && !closes_as_char {
                let start = i;
                i += 1;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: collect(start, i),
                    line,
                });
            } else {
                let start = i;
                i += 1;
                consume_quoted(&chars, &mut i, &mut line, '\'');
                toks.push(Tok {
                    kind: TokKind::CharLit,
                    text: collect(start, i.min(n)),
                    line,
                });
            }
            continue;
        }

        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: collect(start, i),
                line,
            });
            continue;
        }

        if c.is_ascii_digit() {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Number,
                text: collect(start, i),
                line,
            });
            continue;
        }

        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// Consumes a quoted literal body up to (and including) the unescaped
/// closing `quote`; `i` starts just past the opening quote.
fn consume_quoted(chars: &[char], i: &mut usize, line: &mut u32, quote: char) {
    let n = chars.len();
    while *i < n {
        let c = chars[*i];
        if c == '\n' {
            *line += 1;
        }
        if c == '\\' {
            *i = (*i + 2).min(n);
            continue;
        }
        *i += 1;
        if c == quote {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn basic_tokens() {
        let t = kinds("fn foo(x: u32) -> u32 { x + 1 }");
        assert_eq!(t[0], (TokKind::Ident, "fn".into()));
        assert_eq!(t[1], (TokKind::Ident, "foo".into()));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Number && s == "1"));
    }

    #[test]
    fn strings_hide_their_content() {
        let t = kinds(r#"let s = "unwrap() [0] panic!";"#);
        assert_eq!(
            t.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            1,
            "{t:?}"
        );
        assert!(!t.iter().any(|(k, s)| *k == TokKind::Ident && s == "unwrap"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let t = kinds(r##"let s = r#"has "quotes" inside"#; x"##);
        assert!(t.iter().any(|(k, _)| *k == TokKind::Str));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Ident && s == "x"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let nl = '\\n'; }");
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(), 2);
        assert_eq!(t.iter().filter(|(k, _)| *k == TokKind::CharLit).count(), 2);
    }

    #[test]
    fn comments_preserved_with_lines() {
        let toks = lex("// SAFETY: fine\nunsafe {}\n/* block\nspans */ fn f() {}");
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert_eq!(toks[0].line, 1);
        assert!(toks[0].text.contains("SAFETY"));
        let unsafe_tok = toks.iter().find(|t| t.is_ident("unsafe")).unwrap();
        assert_eq!(unsafe_tok.line, 2);
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4, "block comment newlines counted");
    }

    #[test]
    fn nested_block_comments() {
        let t = kinds("/* outer /* inner */ still comment */ ident");
        assert_eq!(t.len(), 2);
        assert_eq!(t[1], (TokKind::Ident, "ident".into()));
    }
}
