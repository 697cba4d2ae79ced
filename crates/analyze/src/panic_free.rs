//! Pass 1 — panic-freedom. In files declared panic-free, non-test code
//! must not call the panicking surface: `unwrap`/`expect`, the
//! `panic!`-family macros, non-debug asserts, raw slice indexing, or
//! unguarded length arithmetic / narrowing casts. Encode-side fns are
//! carved out per-fn in `analyze.toml` with a written reason.

use crate::config::Config;
use crate::diag::{Check, Finding};
use crate::lexer::{Tok, TokKind};
use crate::scan::FileScan;

/// Macros that abort on reach.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Asserts compiled into release builds (debug_assert* stays legal).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Keywords that may directly precede `[` without being an indexed
/// value (slice patterns, array types after `mut`, …).
const NON_OPERAND_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "union", "unsafe", "use", "where", "while",
    "yield",
];

/// Integer types an `as` cast can truncate length values into.
const NARROW_INT_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Heuristic: does this identifier smell like a length/count/size?
fn is_lenlike(name: &str) -> bool {
    name.split('_').any(|part| {
        matches!(
            part,
            "len" | "length" | "count" | "size" | "capacity" | "total" | "n" | "num"
        ) || part.ends_with("len")
    })
}

fn is_operand_end(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => !NON_OPERAND_KEYWORDS.contains(&t.text.as_str()),
        TokKind::Number => true,
        TokKind::Punct => t.is_punct(')') || t.is_punct(']') || t.is_punct('?'),
        _ => false,
    }
}

fn is_operand_start(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Number) || t.is_punct('(')
}

/// Index of the previous/next non-comment token.
fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind != TokKind::Comment)
}

fn next_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[i + 1..]
        .iter()
        .position(|t| t.kind != TokKind::Comment)
        .map(|off| i + 1 + off)
}

/// Any length-smelling identifier in the ±`radius` token window?
fn lenlike_nearby(toks: &[Tok], i: usize, radius: usize) -> bool {
    let lo = i.saturating_sub(radius);
    let hi = (i + radius + 1).min(toks.len());
    toks[lo..hi]
        .iter()
        .any(|t| t.kind == TokKind::Ident && is_lenlike(&t.text))
}

/// Runs the pass over every configured panic-free file.
pub(crate) fn check(scans: &[FileScan], cfg: &Config, findings: &mut Vec<Finding>) {
    for file in &cfg.panic_free_files {
        if !scans.iter().any(|s| &s.path == file) {
            findings.push(Finding {
                check: Check::Config,
                file: file.clone(),
                line: 0,
                fn_name: None,
                snippet: String::new(),
                message: "panic_free.files names a file that does not exist".into(),
            });
        }
    }
    for scan in scans {
        if cfg.panic_free_files.iter().any(|f| f == &scan.path) {
            check_file(scan, cfg, findings);
        }
    }
}

fn check_file(scan: &FileScan, cfg: &Config, findings: &mut Vec<Finding>) {
    let toks = &scan.toks;
    let n = toks.len();

    // Token mask for excluded (encode-side) fns; nested fns inherit
    // because body ranges nest.
    let excluded_names = cfg.excluded_fns(&scan.path);
    let mut excluded = vec![false; n];
    for f in &scan.fns {
        if excluded_names.contains(&f.name.as_str()) {
            for flag in &mut excluded[f.body.clone()] {
                *flag = true;
            }
        }
    }

    let mut push = |check: Check, i: usize, message: String| {
        findings.push(Finding {
            check,
            file: scan.path.clone(),
            line: toks[i].line,
            fn_name: scan.fn_name_at(i).map(str::to_string),
            snippet: scan.snippet(toks[i].line).to_string(),
            message,
        });
    };

    for i in 0..n {
        if scan.in_test[i] || excluded[i] {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {}
            TokKind::Punct if t.is_punct('[') => {
                if let Some(p) = prev_code(toks, i) {
                    if !scan.in_test[p] && !excluded[p] && is_operand_end(&toks[p]) {
                        push(
                            Check::Index,
                            i,
                            "raw slice indexing — use `.get(..)` and downgrade".into(),
                        );
                    }
                }
                continue;
            }
            TokKind::Punct if t.is_punct('+') || t.is_punct('*') => {
                let (Some(p), Some(nx)) = (prev_code(toks, i), next_code(toks, i)) else {
                    continue;
                };
                if is_operand_end(&toks[p])
                    && is_operand_start(&toks[nx])
                    && lenlike_nearby(toks, i, 5)
                {
                    push(
                        Check::Arith,
                        i,
                        format!(
                            "unchecked `{}` on length-typed operands — use checked_{}",
                            t.text,
                            if t.is_punct('+') { "add" } else { "mul" }
                        ),
                    );
                }
                continue;
            }
            _ => continue,
        }

        // Identifier checks.
        let next = next_code(toks, i);
        let next_tok = next.map(|j| &toks[j]);

        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && next_tok.is_some_and(|nt| nt.is_punct('('))
            && prev_code(toks, i).is_some_and(|p| toks[p].is_punct('.'))
        {
            push(Check::Panic, i, format!("call to `{}()`", t.text));
            continue;
        }
        if next_tok.is_some_and(|nt| nt.is_punct('!')) {
            if PANIC_MACROS.contains(&t.text.as_str()) {
                push(Check::Panic, i, format!("`{}!` macro", t.text));
                continue;
            }
            if ASSERT_MACROS.contains(&t.text.as_str()) {
                push(
                    Check::Panic,
                    i,
                    format!(
                        "non-debug `{}!` — use debug_{}! or return an error",
                        t.text, t.text
                    ),
                );
                continue;
            }
        }
        if t.is_ident("as") {
            if let Some(nt) = next_tok {
                if nt.kind == TokKind::Ident
                    && NARROW_INT_TYPES.contains(&nt.text.as_str())
                    && lenlike_nearby(toks, i, 5)
                {
                    push(
                        Check::Cast,
                        i,
                        format!(
                            "narrowing `as {}` on length-typed operand — use try_from",
                            nt.text
                        ),
                    );
                }
            }
        }
    }
}
