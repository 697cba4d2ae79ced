//! Public-API inventory: every bare-`pub` item a library crate exposes,
//! committed as `api_inventory.txt` so CI diffs flag an API that grows
//! (or shrinks) the same way `unsafe_inventory.txt` flags unsafe sites.
//!
//! An item is listed when it is declared `pub` (not `pub(crate)` and the
//! like), lives outside test-gated items and fn bodies, and is reachable
//! from its crate root: every enclosing module is `pub mod`, or the
//! item's name is re-exported by a `pub use` in the crate. A method
//! counts when it is `pub` in an inherent `impl` of a listed type. Binary
//! roots (`main.rs`, `src/bin/`) expose no API and are skipped. Like the
//! other passes this works on names, not resolved paths, so a re-export
//! under a name that a private item shares over-reports rather than hides.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::scan::{attr_is_test, FileScan};

/// Workspace-relative path of the committed inventory.
pub(crate) const API_INVENTORY: &str = "api_inventory.txt";

/// Header line of the committed inventory.
pub(crate) const API_HEADER: &str = "# pub API inventory (crate directory, then module path) — \
                                     regenerate with `cargo run -p eg-analyze -- check \
                                     --write-inventory`";

/// Item keywords a bare `pub` can introduce.
const KINDS: [&str; 10] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod", "use",
];

/// What a `{` opens. Anything that is not a module or an inherent impl
/// (fn bodies, struct bodies, trait bodies, blocks) hides its items.
enum Frame {
    Module { name: String, public: bool },
    Impl { self_ty: String },
    Opaque,
}

/// A `pub` declaration found in one file, before reachability is decided.
struct Decl {
    /// Enclosing inline modules, then the `impl` type for a method.
    path: Vec<String>,
    /// Every enclosing inline module is `pub`.
    public: bool,
    self_ty: Option<String>,
    name: String,
    kind: &'static str,
}

fn next_code(toks: &[Tok], mut i: usize) -> usize {
    while toks.get(i).is_some_and(|t| t.kind == TokKind::Comment) {
        i += 1;
    }
    i
}

/// The item keyword and name after a bare `pub` at `toks[i]`, skipping
/// qualifiers (`const fn`, `unsafe`, `async`, `extern "C"`, `static mut`).
fn pub_item(toks: &[Tok], i: usize) -> Option<(&'static str, String, usize)> {
    let mut j = next_code(toks, i + 1);
    if toks.get(j)?.is_punct('(') {
        return None; // pub(crate), pub(super), pub(in …)
    }
    loop {
        let t = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
        let next = toks.get(next_code(toks, j + 1));
        j = next_code(toks, j + 1);
        match t.text.as_str() {
            "unsafe" | "async" | "default" => continue,
            "extern" if next.is_some_and(|n| n.kind == TokKind::Str) => {
                j = next_code(toks, j + 1);
                continue;
            }
            "const" if next.is_some_and(|n| n.is_ident("fn") || n.is_ident("unsafe")) => continue,
            "static" if next.is_some_and(|n| n.is_ident("mut")) => j = next_code(toks, j + 1),
            _ => {}
        }
        let kind = KINDS.into_iter().find(|k| t.text == *k)?;
        let name = toks.get(j).filter(|n| n.kind == TokKind::Ident);
        return Some((kind, name.map(|n| n.text.clone()).unwrap_or_default(), j));
    }
}

/// The self type of an `impl` header starting at `toks[i]` (the `impl`
/// keyword), or `None` for a trait impl or a type with no plain name.
fn impl_self_ty(toks: &[Tok], i: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut first = None;
    for t in &toks[i + 1..] {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if depth > 0 || t.kind != TokKind::Ident && !t.is_punct('{') && !t.is_punct(';') {
            continue;
        } else if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
            break;
        } else if t.is_ident("for") {
            return None;
        } else if first.is_none() && t.text != "dyn" {
            first = Some(t.text.clone());
        }
    }
    first
}

/// The module path a library file stands for, or `None` for a binary
/// root or a file outside `src/`.
fn file_module(path: &str) -> Option<Vec<String>> {
    let rel = path.split_once("src/")?.1;
    if rel == "main.rs" || rel.starts_with("bin/") {
        return None;
    }
    let mut parts: Vec<String> = rel
        .strip_suffix(".rs")?
        .split('/')
        .map(str::to_string)
        .collect();
    if matches!(parts.last().map(String::as_str), Some("lib" | "mod")) {
        parts.pop();
    }
    Some(parts)
}

/// Walks one file's tokens, collecting its bare-`pub` declarations, its
/// `mod name;` declarations (module path → public) and the names its
/// `pub use`s name.
fn walk_file(
    scan: &FileScan,
    module: &[String],
    decls: &mut Vec<Decl>,
    mods: &mut BTreeMap<String, bool>,
    reexports: &mut BTreeSet<String>,
) {
    let toks = &scan.toks;
    let mut frames: Vec<Frame> = Vec::new();
    // What the next `{` opens; `None` while at an item boundary.
    let mut header: Option<Frame> = None;
    let inline_modules = |frames: &[Frame]| -> Vec<(String, bool)> {
        frames
            .iter()
            .filter_map(|f| match f {
                Frame::Module { name, public } => Some((name.clone(), *public)),
                _ => None,
            })
            .collect()
    };
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') {
            let mut j = next_code(toks, i + 1);
            j = next_code(
                toks,
                j + usize::from(toks.get(j).is_some_and(|n| n.is_punct('!'))),
            );
            if toks.get(j).is_some_and(|n| n.is_punct('[')) {
                let start = j + 1;
                let mut depth = 0usize;
                while let Some(a) = toks.get(j) {
                    depth += usize::from(a.is_punct('['));
                    if a.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                // Test-only items are not API: hide whatever comes next.
                if attr_is_test(toks.get(start..j).unwrap_or(&[])) {
                    header = Some(Frame::Opaque);
                }
                i = j + 1;
                continue;
            }
        }
        let visible = frames.iter().all(|f| !matches!(f, Frame::Opaque));
        if t.is_punct('{') {
            frames.push(header.take().unwrap_or(Frame::Opaque));
        } else if t.is_punct('}') {
            frames.pop();
            header = None;
        } else if t.is_punct(';') {
            header = None;
        } else if visible && header.is_none() && t.kind == TokKind::Ident {
            let in_impl = matches!(frames.last(), Some(Frame::Impl { .. }));
            let (kind, name, at) = match t.text.as_str() {
                "pub" => pub_item(toks, i).unwrap_or(("", String::new(), i)),
                // Not bare `pub` (that arm ran first): a private module.
                "mod" => {
                    let j = next_code(toks, i + 1);
                    match toks.get(j) {
                        Some(n) if n.kind == TokKind::Ident => ("private mod", n.text.clone(), j),
                        _ => ("", String::new(), i),
                    }
                }
                "impl" => {
                    header = Some(match impl_self_ty(toks, i) {
                        Some(self_ty) => Frame::Impl { self_ty },
                        None => Frame::Opaque,
                    });
                    ("", String::new(), i)
                }
                "fn" | "struct" | "enum" | "union" | "trait" | "macro_rules" | "extern" => {
                    header = Some(Frame::Opaque);
                    ("", String::new(), i)
                }
                _ => ("", String::new(), i),
            };
            match kind {
                "" => {}
                "use" => {
                    reexports.extend(
                        toks[at..]
                            .iter()
                            .take_while(|u| !u.is_punct(';'))
                            .filter(|u| u.kind == TokKind::Ident)
                            .filter(|u| {
                                !matches!(u.text.as_str(), "self" | "crate" | "super" | "as")
                            })
                            .map(|u| u.text.clone()),
                    );
                }
                "mod" | "private mod" => {
                    let public = kind == "mod";
                    if toks
                        .get(next_code(toks, at + 1))
                        .is_some_and(|n| n.is_punct(';'))
                    {
                        let mut key = module.to_vec();
                        key.extend(inline_modules(&frames).into_iter().map(|(m, _)| m));
                        key.push(name);
                        mods.insert(key.join("::"), public);
                    } else {
                        header = Some(Frame::Module { name, public });
                    }
                }
                _ => {
                    if !name.is_empty() && (!in_impl || kind == "fn" || kind == "const") {
                        let modules = inline_modules(&frames);
                        let self_ty = frames.iter().rev().find_map(|f| match f {
                            Frame::Impl { self_ty } => Some(self_ty.clone()),
                            _ => None,
                        });
                        decls.push(Decl {
                            public: modules.iter().all(|(_, p)| *p),
                            path: modules
                                .into_iter()
                                .map(|(m, _)| m)
                                .chain(self_ty.clone())
                                .collect(),
                            self_ty,
                            name,
                            kind,
                        });
                    }
                    header = Some(Frame::Opaque);
                }
            }
            i = at;
        }
        i += 1;
    }
}

/// The inventory lines, one per reachable `pub` item, sorted.
pub(crate) fn inventory_lines(scans: &[FileScan]) -> Vec<String> {
    let mut by_crate: BTreeMap<&str, Vec<(&FileScan, Vec<String>)>> = BTreeMap::new();
    for scan in scans {
        if let Some(module) = file_module(&scan.path) {
            by_crate
                .entry(&scan.crate_name)
                .or_default()
                .push((scan, module));
        }
    }
    let mut lines = Vec::new();
    for (crate_name, files) in by_crate {
        let mut mods = BTreeMap::new();
        let mut reexports = BTreeSet::new();
        let mut decls: Vec<(Vec<String>, Decl)> = Vec::new();
        for (scan, module) in files {
            let mut found = Vec::new();
            walk_file(scan, &module, &mut found, &mut mods, &mut reexports);
            decls.extend(found.into_iter().map(|d| (module.clone(), d)));
        }
        // Reachable through `pub mod`s all the way down, or re-exported.
        let reachable = |module: &[String], d: &Decl| {
            let file_public =
                (1..=module.len()).all(|k| mods.get(&module[..k].join("::")) == Some(&true));
            (file_public && d.public) || reexports.contains(&d.name)
        };
        let types: BTreeSet<&str> = decls
            .iter()
            .filter(|(m, d)| d.self_ty.is_none() && reachable(m, d))
            .filter(|(_, d)| matches!(d.kind, "struct" | "enum" | "union" | "type" | "trait"))
            .map(|(_, d)| d.name.as_str())
            .collect();
        for (module, d) in &decls {
            let listed = match &d.self_ty {
                Some(ty) => types.contains(ty.as_str()),
                None => reachable(module, d),
            };
            if listed {
                let path: Vec<&str> = std::iter::once(crate_name)
                    .chain(module.iter().chain(&d.path).map(String::as_str))
                    .chain([d.name.as_str()])
                    .collect();
                lines.push(format!("{} {}", path.join("::"), d.kind));
            }
        }
    }
    lines.sort();
    lines.dedup();
    lines
}
