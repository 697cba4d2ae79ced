//! Item and attribute scanner: function boundaries, `#[cfg(test)]`
//! regions, and per-token attribution, built on the raw token stream.

use crate::lexer::{lex, Tok, TokKind};

/// One `fn` item (free function, method, or nested fn).
#[derive(Debug, Clone)]
pub(crate) struct FnInfo {
    pub name: String,
    /// Token range of the body *including* the outer braces; empty for
    /// bodyless declarations (trait methods, extern).
    pub body: std::ops::Range<usize>,
    /// True when the fn carries `#[test]`/`#[cfg(test)]` or lives inside
    /// a `#[cfg(test)]` module.
    pub in_test: bool,
}

/// One lexed-and-scanned source file.
#[derive(Debug)]
pub(crate) struct FileScan {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Crate directory name (`core`, `analyze`, `vendor/serde`, or
    /// `root` for the facade's `src/`).
    pub crate_name: String,
    pub toks: Vec<Tok>,
    pub fns: Vec<FnInfo>,
    /// Innermost containing fn per token index.
    pub fn_of: Vec<Option<usize>>,
    /// True per token index when inside a `#[cfg(test)]` region or a
    /// `#[test]` fn.
    pub in_test: Vec<bool>,
    /// Source lines (for diagnostics snippets), 0-based.
    pub lines: Vec<String>,
}

impl FileScan {
    /// The trimmed source text of 1-based line `line`.
    pub(crate) fn snippet(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// Name of the innermost fn containing token `idx`, if any.
    pub(crate) fn fn_name_at(&self, idx: usize) -> Option<&str> {
        self.fn_of
            .get(idx)
            .copied()
            .flatten()
            .map(|fi| self.fns[fi].name.as_str())
    }
}

/// True when an attribute's token text marks test-only code: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]`. A `not(…)` anywhere makes it
/// non-test (`#[cfg(not(test))]` guards production code).
pub(crate) fn attr_is_test(attr_toks: &[Tok]) -> bool {
    let has_test = attr_toks.iter().any(|t| t.is_ident("test"));
    let has_not = attr_toks.iter().any(|t| t.is_ident("not"));
    has_test && !has_not
}

/// Scans one file into functions, test regions, and token attribution.
pub(crate) fn scan_file(path: String, crate_name: String, src: &str) -> FileScan {
    let toks = lex(src);
    let lines: Vec<String> = src.lines().map(str::to_string).collect();
    let n = toks.len();

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut in_test = vec![false; n];

    // Brace stack: `true` per frame when the region is test-only.
    let mut stack: Vec<bool> = Vec::new();
    // Set when an item decorated with a test attribute (fn/mod/impl) was
    // seen and its opening brace is still ahead.
    let mut carry_test = false;
    // Attributes seen since the last item token.
    let mut pending_attr_test = false;

    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        match t.kind {
            TokKind::Comment => {
                i += 1;
                continue;
            }
            TokKind::Punct => {
                if t.is_punct('#') {
                    // `#[...]` or `#![...]`: skip, noting test markers.
                    let mut j = i + 1;
                    if j < n && toks[j].is_punct('!') {
                        j += 1;
                    }
                    if j < n && toks[j].is_punct('[') {
                        let start = j + 1;
                        let mut depth = 1usize;
                        j += 1;
                        while j < n && depth > 0 {
                            if toks[j].is_punct('[') {
                                depth += 1;
                            } else if toks[j].is_punct(']') {
                                depth -= 1;
                            }
                            j += 1;
                        }
                        if attr_is_test(&toks[start..j.saturating_sub(1)]) {
                            pending_attr_test = true;
                        }
                        // Tokens inside the attribute inherit the current
                        // region's test flag (already defaulted below).
                        let region_test = stack.iter().any(|&b| b);
                        for k in i..j {
                            in_test[k] = region_test;
                        }
                        i = j;
                        continue;
                    }
                }
                if t.is_punct('{') {
                    let parent_test = stack.iter().any(|&b| b);
                    stack.push(parent_test || carry_test);
                    carry_test = false;
                } else if t.is_punct('}') {
                    stack.pop();
                    // Leaving a region ends any decorated-item carry too.
                    carry_test = false;
                } else if t.is_punct(';') {
                    carry_test = false;
                }
                in_test[i] = stack.iter().any(|&b| b);
                i += 1;
                continue;
            }
            TokKind::Ident => {}
            _ => {
                in_test[i] = stack.iter().any(|&b| b);
                i += 1;
                continue;
            }
        }

        in_test[i] = stack.iter().any(|&b| b);

        if t.is_ident("fn") {
            // Name (skip comments between `fn` and the name).
            let mut j = i + 1;
            while j < n && toks[j].kind == TokKind::Comment {
                j += 1;
            }
            let name = if j < n && toks[j].kind == TokKind::Ident {
                toks[j].text.clone()
            } else {
                // `fn` inside a macro pattern or similar; skip.
                i += 1;
                continue;
            };
            let fn_is_test = pending_attr_test || stack.iter().any(|&b| b);
            pending_attr_test = false;
            // Find the body opening `{` (or `;` for bodyless decls).
            // `;` inside `(...)`/`[...]` — e.g. a `[u8; 4]` parameter —
            // must not read as end-of-declaration, so track depth.
            let mut k = j + 1;
            let mut body = 0..0;
            let mut depth = 0usize;
            while k < n {
                if toks[k].is_punct('(') || toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(')') || toks[k].is_punct(']') {
                    depth = depth.saturating_sub(1);
                }
                if depth == 0 && toks[k].is_punct('{') {
                    // Match braces to find the body extent.
                    let open = k;
                    let mut depth = 1usize;
                    k += 1;
                    while k < n && depth > 0 {
                        if toks[k].is_punct('{') {
                            depth += 1;
                        } else if toks[k].is_punct('}') {
                            depth -= 1;
                        }
                        k += 1;
                    }
                    body = open..k;
                    break;
                }
                if depth == 0 && toks[k].is_punct(';') {
                    break;
                }
                k += 1;
            }
            fns.push(FnInfo {
                name,
                body,
                in_test: fn_is_test,
            });
            if fn_is_test {
                carry_test = true;
            }
            // Continue scanning *inside* the body (nested fns, braces).
            i += 1;
            continue;
        }

        if (t.is_ident("mod") || t.is_ident("impl") || t.is_ident("trait") || t.is_ident("struct"))
            && pending_attr_test
        {
            carry_test = true;
            pending_attr_test = false;
        } else if pending_attr_test
            && (t.is_ident("use")
                || t.is_ident("const")
                || t.is_ident("static")
                || t.is_ident("type")
                || t.is_ident("enum"))
        {
            // Attribute consumed by a braceless-or-irrelevant item; a
            // test-gated `enum`/`struct` body is type-only anyway.
            pending_attr_test = false;
        }
        i += 1;
    }

    // Innermost-fn attribution: outer fns appear first, nested fns later
    // overwrite their subrange.
    let mut fn_of = vec![None; n];
    for (fi, f) in fns.iter().enumerate() {
        for slot in &mut fn_of[f.body.clone()] {
            *slot = Some(fi);
        }
    }
    // Tokens inside a `#[test]` fn body count as test tokens even though
    // the enclosing module is not test-gated.
    for f in &fns {
        if f.in_test {
            for flag in &mut in_test[f.body.clone()] {
                *flag = true;
            }
        }
    }

    FileScan {
        path,
        crate_name,
        toks,
        fns,
        fn_of,
        in_test,
        lines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub(crate) fn outer(x: usize) -> usize {
    fn inner(y: usize) -> usize { y + 1 }
    inner(x)
}

#[cfg(test)]
mod tests {
    fn helper() { data[0]; }
    #[test]
    fn a_test() { assert!(true); }
}

#[cfg(not(test))]
fn production() { }

#[test]
fn top_level_test() { }
"#;

    #[test]
    fn finds_functions() {
        let s = scan_file("f.rs".into(), "demo".into(), SRC);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "outer",
                "inner",
                "helper",
                "a_test",
                "production",
                "top_level_test"
            ]
        );
    }

    #[test]
    fn test_regions_marked() {
        let s = scan_file("f.rs".into(), "demo".into(), SRC);
        let by_name = |n: &str| s.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("outer").in_test);
        assert!(!by_name("inner").in_test);
        assert!(by_name("helper").in_test, "inside cfg(test) mod");
        assert!(by_name("a_test").in_test);
        assert!(!by_name("production").in_test, "cfg(not(test))");
        assert!(by_name("top_level_test").in_test, "#[test] attr");
        // Token-level: the indexing inside the test mod is a test token.
        let idx = s
            .toks
            .iter()
            .position(|t| t.is_ident("data"))
            .expect("data token");
        assert!(s.in_test[idx]);
    }

    #[test]
    fn innermost_attribution() {
        let s = scan_file("f.rs".into(), "demo".into(), SRC);
        let plus = s.toks.iter().position(|t| t.is_punct('+')).unwrap();
        assert_eq!(s.fn_name_at(plus), Some("inner"));
    }
}
