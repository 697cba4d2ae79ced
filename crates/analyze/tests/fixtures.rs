//! Golden tests: each fixture workspace under `tests/fixtures/` runs the
//! full gate and must render exactly its committed `expected.txt`.
//!
//! Regenerate the goldens after an intentional diagnostic change with
//! `EG_ANALYZE_BLESS=1 cargo test -p eg-analyze --test fixtures`.

use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Runs the gate on one fixture workspace and compares against the
/// golden. `must_contain` pins the load-bearing fragments so a blessed
/// regression (e.g. a pass silently going quiet) still fails loudly.
fn run_fixture(name: &str, must_contain: &[&str], must_not_contain: &[&str]) {
    let root = fixture_root(name);
    let findings = eg_analyze::run_check(&root, false).expect("fixture config must load");
    let got = eg_analyze::render_report(&findings);
    for frag in must_contain {
        assert!(
            got.contains(frag),
            "fixture `{name}`: report is missing `{frag}`:\n{got}"
        );
    }
    for frag in must_not_contain {
        assert!(
            !got.contains(frag),
            "fixture `{name}`: report wrongly contains `{frag}`:\n{got}"
        );
    }
    let golden = root.join("expected.txt");
    if std::env::var_os("EG_ANALYZE_BLESS").is_some() {
        std::fs::write(&golden, &got).expect("bless write");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    assert_eq!(
        got, want,
        "fixture `{name}` diverged from expected.txt; if intentional, \
         rerun with EG_ANALYZE_BLESS=1"
    );
}

#[test]
fn panic_pass_fires_and_suppresses() {
    run_fixture(
        "panic_ws",
        &[
            "[panic] call to `unwrap()` (in decode)",
            "[index] raw slice indexing",
            "[arith] unchecked `+`",
            "[cast] narrowing `as u16`",
            "non-debug `assert!`",
            // The allowlist entry that matches nothing must surface.
            "[stale-allow]",
        ],
        &[
            // Suppressed by the live allowlist entry.
            "masked_lookup",
            // Carved out via [[panic_free.exclude]].
            "(in encode)",
            // cfg(test) code is out of scope.
            "test_only_code_is_ignored",
        ],
    );
}

#[test]
fn alloc_pass_flags_transitive_chain() {
    run_fixture(
        "alloc_ws",
        &[
            // The finding names the full call chain from the hot entry.
            "hot_loop -> step -> grow",
            "[alloc]",
        ],
        &[
            // Setup fn, line waiver, and unreachable fn stay quiet.
            "prepare",
            "waived",
            "cold_path",
        ],
    );
}

#[test]
fn unsafe_audit_diffs_inventory() {
    run_fixture(
        "unsafe_ws",
        &[
            "[unsafe-doc] `unsafe` block without a `// SAFETY:` comment",
            "new unsafe site not in committed inventory",
            "inventory lists an unsafe site that no longer exists",
        ],
        &[
            // The documented fn and its block are audited, not flagged.
            "fn documented",
        ],
    );
}

#[test]
fn api_inventory_lists_reachable_items_and_diffs() {
    run_fixture(
        "api_ws",
        &[
            // Missing from the committed file, and stale in it.
            "new pub item not in committed API inventory",
            "| demo::shapes::SIDES const",
            "API inventory lists a pub item that is no longer exported",
            "| demo::shapes::Circle struct",
        ],
        &[
            // Not API: crate-visible, test-gated, nested in a fn body,
            // private, or a method of a type no path reaches.
            "crate_only",
            "test_only",
            "inner_is_not_api",
            "private_helper",
            "NotReexported",
            "unreachable_method",
        ],
    );
}
