//! Pass 3 — unsafe audit. Every `unsafe` block/fn/impl/trait in the
//! workspace must carry a `// SAFETY:` comment within the three lines
//! above it (or on its own line), and the full inventory is committed
//! as `unsafe_inventory.txt` so CI diffs flag undocumented additions.

use std::path::Path;

use crate::config::Config;
use crate::diag::{Check, Finding};
use crate::inventory;
use crate::lexer::TokKind;
use crate::scan::FileScan;

/// One `unsafe` occurrence, rendered as `path:line kind context`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct UnsafeSite {
    pub file: String,
    pub line: u32,
    pub kind: String,
    pub context: String,
    pub documented: bool,
}

impl UnsafeSite {
    fn inventory_line(&self) -> String {
        format!("{}:{} {} {}", self.file, self.line, self.kind, self.context)
    }
}

/// Collects every `unsafe` site in the scanned workspace, sorted.
pub(crate) fn collect_sites(scans: &[FileScan]) -> Vec<UnsafeSite> {
    let mut sites = Vec::new();
    for scan in scans {
        let toks = &scan.toks;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("unsafe") {
                continue;
            }
            let next = toks[i + 1..].iter().find(|nt| nt.kind != TokKind::Comment);
            let kind = match next {
                Some(nt) if nt.is_ident("fn") => "fn",
                Some(nt) if nt.is_ident("impl") => "impl",
                Some(nt) if nt.is_ident("trait") => "trait",
                Some(nt) if nt.is_ident("extern") => "extern",
                Some(nt) if nt.is_punct('{') => "block",
                // `&unsafe`? `unsafe` in attr? Anything else is still
                // an unsafe surface worth inventorying.
                _ => "other",
            };
            // A SAFETY comment counts when it sits on the same line or
            // up to three lines above the `unsafe` token.
            let lo = t.line.saturating_sub(3);
            let documented = toks.iter().any(|c| {
                c.kind == TokKind::Comment
                    && c.text.contains("SAFETY:")
                    && c.line >= lo
                    && c.line <= t.line
            });
            let context = match kind {
                "fn" | "impl" | "trait" => {
                    // First few code tokens after `unsafe` name the item.
                    let words: Vec<&str> = toks[i + 1..]
                        .iter()
                        .filter(|nt| nt.kind != TokKind::Comment)
                        .take_while(|nt| !nt.is_punct('{') && !nt.is_punct('('))
                        .take(6)
                        .map(|nt| nt.text.as_str())
                        .collect();
                    words.join(" ")
                }
                _ => scan
                    .fn_name_at(i)
                    .map(|n| format!("in fn {n}"))
                    .unwrap_or_else(|| "at module scope".into()),
            };
            sites.push(UnsafeSite {
                file: scan.path.clone(),
                line: t.line,
                kind: kind.to_string(),
                context,
                documented,
            });
        }
    }
    sites.sort();
    sites
}

/// Header line of the committed inventory.
const UNSAFE_HEADER: &str =
    "# unsafe inventory — regenerate with `cargo run -p eg-analyze -- check --write-inventory`";

/// Renders the committed inventory format.
pub(crate) fn render_inventory(sites: &[UnsafeSite]) -> String {
    let lines: Vec<String> = sites.iter().map(UnsafeSite::inventory_line).collect();
    inventory::render(UNSAFE_HEADER, &lines)
}

/// Runs the pass: undocumented sites are findings, and the committed
/// inventory must match the scan exactly. With `write_inventory` the
/// file is rewritten instead of diffed.
pub(crate) fn check(
    scans: &[FileScan],
    cfg: &Config,
    root: &Path,
    write_inventory: bool,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let sites = collect_sites(scans);
    for s in &sites {
        if !s.documented {
            findings.push(Finding {
                check: Check::UnsafeDoc,
                file: s.file.clone(),
                line: s.line,
                fn_name: None,
                snippet: s.context.clone(),
                message: format!(
                    "`unsafe` {} without a `// SAFETY:` comment within 3 lines above",
                    s.kind
                ),
            });
        }
    }

    let lines: Vec<String> = sites.iter().map(UnsafeSite::inventory_line).collect();
    inventory::check(
        root,
        &cfg.inventory_path,
        UNSAFE_HEADER,
        &lines,
        write_inventory,
        [
            "new unsafe site not in committed inventory — audit it, then \
             rerun with --write-inventory",
            "inventory lists an unsafe site that no longer exists — \
             rerun with --write-inventory",
        ],
        findings,
    )
}
