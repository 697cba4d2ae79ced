//! `eg-analyze` — workspace invariant checker.
//!
//! Three passes over a hand-rolled token stream (no syn/quote):
//!
//! 1. **Panic-freedom** ([`panic_free`]): files listed in
//!    `analyze.toml [panic_free]` must not call the panicking surface
//!    outside tests and per-fn carve-outs.
//! 2. **Allocation discipline** ([`alloc`]): fns in the hot-path
//!    manifest must not transitively reach allocating calls.
//! 3. **Unsafe audit** ([`unsafe_audit`]): every `unsafe` needs a
//!    `// SAFETY:` comment and a committed inventory line.
//! 4. **API inventory** ([`api`]): every `pub` item reachable from a
//!    library crate root has a line in the committed `api_inventory.txt`.
//!
//! Findings surviving the committed allowlist fail the run; allowlist
//! entries that match nothing are themselves findings (stale-allow).

mod alloc;
mod api;
mod config;
mod diag;
mod inventory;
mod lexer;
mod panic_free;
mod scan;
mod toml_lite;
mod unsafe_audit;
mod workspace;

use std::path::Path;

pub use diag::Finding;

/// Runs all four passes on the workspace at `root` and returns the
/// post-allowlist findings, sorted. An empty vec means the gate passes.
pub fn run_check(root: &Path, write_inventory: bool) -> Result<Vec<Finding>, String> {
    let cfg = config::load_config(root)?;
    let allow = config::load_allowlist(root)?;
    let scans = workspace::scan_workspace(root)?;

    let mut findings = Vec::new();
    panic_free::check(&scans, &cfg, &mut findings);
    alloc::check(&scans, &cfg, &mut findings);
    unsafe_audit::check(&scans, &cfg, root, write_inventory, &mut findings)?;
    let api = api::inventory_lines(&scans);
    inventory::check(
        root,
        api::API_INVENTORY,
        api::API_HEADER,
        &api,
        write_inventory,
        [
            "new pub item not in committed API inventory — review it, then \
             rerun with --write-inventory",
            "API inventory lists a pub item that is no longer exported — \
             rerun with --write-inventory",
        ],
        &mut findings,
    )?;

    let mut findings = diag::apply_allowlist(findings, &allow);
    diag::sort_findings(&mut findings);
    Ok(findings)
}

/// The unsafe inventory of the workspace at `root`, rendered as the
/// committed `unsafe_inventory.txt` would be.
pub fn unsafe_inventory(root: &Path) -> Result<String, String> {
    let scans = workspace::scan_workspace(root)?;
    Ok(unsafe_audit::render_inventory(
        &unsafe_audit::collect_sites(&scans),
    ))
}

/// Renders findings plus a one-line verdict, exactly as the golden
/// fixture files record it.
pub fn render_report(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("eg-analyze: clean\n");
    } else {
        out.push_str(&format!("eg-analyze: {} finding(s)\n", findings.len()));
    }
    out
}
