//! Loading `analyze.toml` (what to check) and `analyze-allowlist.toml`
//! (accepted findings, each with a reason).

use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::AllowEntry;
use crate::toml_lite::{self, Table};

/// An encode-side or otherwise out-of-scope fn inside a panic-free file.
/// Its `analyze.toml` entry must also give a `reason`, which is for the
/// reviewer and is checked but not kept.
#[derive(Debug, Clone)]
pub(crate) struct ExcludedFn {
    pub file: String,
    pub fn_name: String,
}

#[derive(Debug, Default)]
pub(crate) struct Config {
    /// Workspace-relative files whose non-test code must be panic-free.
    pub panic_free_files: Vec<String>,
    /// fn-level carve-outs within those files.
    pub panic_free_excludes: Vec<ExcludedFn>,
    /// Hot-path entry fn names for the allocation pass.
    pub alloc_hot: Vec<String>,
    /// Crate dirs (names under `crates/`) the call graph resolves into.
    pub alloc_crates: Vec<String>,
    /// Callee names never followed (name-collision false positives).
    pub alloc_ignore: Vec<String>,
    /// Allocation-pass carve-outs: setup fns the pass may traverse into
    /// without flagging (amortised slab growth, pool construction).
    pub alloc_setup: Vec<String>,
    /// Committed inventory path, workspace-relative.
    pub inventory_path: String,
}

impl Config {
    /// The set of excluded fn names for one panic-free file.
    pub(crate) fn excluded_fns(&self, file: &str) -> Vec<&str> {
        self.panic_free_excludes
            .iter()
            .filter(|e| e.file == file)
            .map(|e| e.fn_name.as_str())
            .collect()
    }
}

fn req_str(t: &Table, key: &str, ctx: &str) -> Result<String, String> {
    t.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("{ctx}: missing string key `{key}`"))
}

fn str_list(t: &Table, key: &str) -> Vec<String> {
    t.get(key)
        .and_then(|v| v.as_array())
        .map(|a| a.to_vec())
        .unwrap_or_default()
}

/// Loads `analyze.toml` from the workspace root.
pub(crate) fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("analyze.toml");
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = toml_lite::parse(&src).map_err(|e| format!("analyze.toml: {e}"))?;

    let pf = doc.table("panic_free");
    let al = doc.table("alloc");
    let ua = doc.table("unsafe_audit");

    let mut cfg = Config {
        panic_free_files: str_list(&pf, "files"),
        panic_free_excludes: Vec::new(),
        alloc_hot: str_list(&al, "hot"),
        alloc_crates: str_list(&al, "crates"),
        alloc_ignore: str_list(&al, "ignore"),
        alloc_setup: Vec::new(),
        inventory_path: ua
            .get("inventory")
            .and_then(|v| v.as_str())
            .unwrap_or("unsafe_inventory.txt")
            .to_string(),
    };

    for (i, t) in doc.array_of("panic_free.exclude").iter().enumerate() {
        let ctx = format!("analyze.toml [[panic_free.exclude]] #{}", i + 1);
        req_str(t, "reason", &ctx)?;
        cfg.panic_free_excludes.push(ExcludedFn {
            file: req_str(t, "file", &ctx)?,
            fn_name: req_str(t, "fn", &ctx)?,
        });
    }
    for (i, t) in doc.array_of("alloc.setup").iter().enumerate() {
        let ctx = format!("analyze.toml [[alloc.setup]] #{}", i + 1);
        req_str(t, "reason", &ctx)?;
        cfg.alloc_setup.push(req_str(t, "fn", &ctx)?);
    }

    // Excluded fns must point at configured panic-free files, so a file
    // rename cannot silently orphan its carve-outs.
    for e in &cfg.panic_free_excludes {
        if !cfg.panic_free_files.iter().any(|f| f == &e.file) {
            return Err(format!(
                "analyze.toml: exclude for `{}` names `{}` which is not in panic_free.files",
                e.fn_name, e.file
            ));
        }
    }
    Ok(cfg)
}

/// Loads `analyze-allowlist.toml`; a missing file means an empty list.
pub(crate) fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, String> {
    let path = root.join("analyze-allowlist.toml");
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let doc = toml_lite::parse(&src).map_err(|e| format!("analyze-allowlist.toml: {e}"))?;

    let mut entries = Vec::new();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, t) in doc.array_of("allow").iter().enumerate() {
        let ctx = format!("analyze-allowlist.toml [[allow]] #{}", i + 1);
        let entry = AllowEntry {
            file: req_str(t, "file", &ctx)?,
            check: req_str(t, "check", &ctx)?,
            fn_name: t.get("fn").and_then(|v| v.as_str()).map(str::to_string),
            snippet: t
                .get("snippet")
                .and_then(|v| v.as_str())
                .map(str::to_string),
            reason: req_str(t, "reason", &ctx)?,
        };
        if entry.reason.trim().len() < 10 {
            return Err(format!("{ctx}: reason is too short to be meaningful"));
        }
        let key = format!(
            "{}|{}|{}|{}",
            entry.file,
            entry.check,
            entry.fn_name.as_deref().unwrap_or(""),
            entry.snippet.as_deref().unwrap_or("")
        );
        if let Some(prev) = seen.insert(key, i + 1) {
            return Err(format!("{ctx}: duplicate of entry #{prev}"));
        }
        entries.push(entry);
    }
    Ok(entries)
}
