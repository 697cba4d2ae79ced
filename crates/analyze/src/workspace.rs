//! Workspace file discovery: every `.rs` under `crates/*/src` and the
//! facade's `src/`, lexed and scanned. `vendor/` holds in-tree
//! stand-ins for third-party crates and is deliberately out of scope;
//! `tests/`, `benches/`, and `examples/` never ship in the library
//! binary, so the invariants don't apply there.

use std::path::{Path, PathBuf};

use crate::scan::{scan_file, FileScan};

/// Discovers and scans the workspace rooted at `root`. Files come back
/// sorted by workspace-relative path so every report is deterministic.
pub(crate) fn scan_workspace(root: &Path) -> Result<Vec<FileScan>, String> {
    let mut sources: Vec<(String, String, PathBuf)> = Vec::new(); // (rel, crate, abs)

    let crates_dir = root.join("crates");
    for entry in read_dir_sorted(&crates_dir)? {
        let crate_name = entry
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src_dir = entry.join("src");
        if src_dir.is_dir() {
            collect_rs(&src_dir, root, &crate_name, &mut sources)?;
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        collect_rs(&facade_src, root, "root", &mut sources)?;
    }

    sources.sort_by(|a, b| a.0.cmp(&b.0));
    let mut scans = Vec::with_capacity(sources.len());
    for (rel, crate_name, abs) in sources {
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        scans.push(scan_file(rel, crate_name, &src));
    }
    Ok(scans)
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<(String, String, PathBuf)>,
) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, root, crate_name, out)?;
        } else if entry.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = entry
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes workspace root", entry.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, crate_name.to_string(), entry));
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for e in rd {
        let e = e.map_err(|err| format!("readdir {}: {err}", dir.display()))?;
        entries.push(e.path());
    }
    entries.sort();
    Ok(entries)
}
