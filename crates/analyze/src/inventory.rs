//! Committed line inventories (`unsafe_inventory.txt`,
//! `api_inventory.txt`): a pass renders its current lines, and the gate
//! either rewrites the file or reports every line added or gone.

use std::path::Path;

use crate::diag::{Check, Finding};

/// The committed file: `header`, then one line each.
pub(crate) fn render(header: &str, lines: &[String]) -> String {
    let mut out = format!("{header}\n");
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Diffs `lines` against the committed file at workspace-relative `rel`
/// (`#` lines and blank lines ignored), pushing one finding per line
/// that is new (`messages[0]`) or gone (`messages[1]`). With `write` the
/// file is rewritten instead.
pub(crate) fn check(
    root: &Path,
    rel: &str,
    header: &str,
    lines: &[String],
    write: bool,
    messages: [&str; 2],
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let path = root.join(rel);
    if write {
        return std::fs::write(&path, render(header, lines))
            .map_err(|e| format!("cannot write {}: {e}", path.display()));
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_default();
    let committed: Vec<&str> = committed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let added = lines
        .iter()
        .filter(|l| !committed.contains(&l.as_str()))
        .map(|l| (l.as_str(), messages[0]));
    let gone = committed
        .iter()
        .filter(|c| !lines.iter().any(|l| l == *c))
        .map(|c| (*c, messages[1]));
    for (line, message) in added.chain(gone).collect::<Vec<_>>() {
        findings.push(Finding {
            check: Check::Inventory,
            file: rel.to_string(),
            line: 0,
            fn_name: None,
            snippet: line.to_string(),
            message: message.to_string(),
        });
    }
    Ok(())
}
