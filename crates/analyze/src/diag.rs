//! Findings, rendering, and allowlist suppression.

use std::fmt;

/// Which pass/check produced a finding. The string form is what
/// allowlist entries name in their `check` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Check {
    /// `unwrap`/`expect`/`panic!`-family in a panic-free module.
    Panic,
    /// Raw slice/array indexing in a panic-free module.
    Index,
    /// Unguarded `+`/`*` on length-typed operands in a panic-free module.
    Arith,
    /// Narrowing `as` cast on a length-typed operand.
    Cast,
    /// Hot-path fn transitively reaches an allocating call.
    Alloc,
    /// `unsafe` without a `// SAFETY:` comment.
    UnsafeDoc,
    /// Committed `unsafe_inventory.txt` out of date.
    Inventory,
    /// Allowlist entry matched nothing (stale).
    StaleAllow,
    /// analyze.toml / allowlist problems.
    Config,
}

impl Check {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Check::Panic => "panic",
            Check::Index => "index",
            Check::Arith => "arith",
            Check::Cast => "cast",
            Check::Alloc => "alloc",
            Check::UnsafeDoc => "unsafe-doc",
            Check::Inventory => "inventory",
            Check::StaleAllow => "stale-allow",
            Check::Config => "config",
        }
    }
}

/// One diagnostic. Renders as
/// `path:line: [check] message (in fn_name)` followed by the source
/// snippet, matching the golden fixture files.
#[derive(Debug, Clone)]
pub struct Finding {
    pub(crate) check: Check,
    pub(crate) file: String,
    pub(crate) line: u32,
    pub(crate) fn_name: Option<String>,
    pub(crate) snippet: String,
    pub(crate) message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.check.name(),
            self.message
        )?;
        if let Some(name) = &self.fn_name {
            write!(f, " (in {name})")?;
        }
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        Ok(())
    }
}

/// One committed allowlist entry. `file` + `check` are required; `fn`
/// and `snippet` narrow the match; `reason` is mandatory prose.
#[derive(Debug, Clone)]
pub(crate) struct AllowEntry {
    pub file: String,
    pub check: String,
    pub fn_name: Option<String>,
    pub snippet: Option<String>,
    pub reason: String,
}

impl AllowEntry {
    fn matches(&self, f: &Finding) -> bool {
        if self.file != f.file || self.check != f.check.name() {
            return false;
        }
        if let Some(fn_name) = &self.fn_name {
            if f.fn_name.as_deref() != Some(fn_name.as_str()) {
                return false;
            }
        }
        if let Some(snip) = &self.snippet {
            if !f.snippet.contains(snip.as_str()) {
                return false;
            }
        }
        true
    }
}

/// Drops findings matched by the allowlist; any entry that matched
/// nothing becomes a `stale-allow` finding so dead suppressions cannot
/// linger after the underlying code is fixed.
pub(crate) fn apply_allowlist(findings: Vec<Finding>, allow: &[AllowEntry]) -> Vec<Finding> {
    let mut used = vec![false; allow.len()];
    let mut kept: Vec<Finding> = Vec::new();
    for f in findings {
        let mut suppressed = false;
        for (i, entry) in allow.iter().enumerate() {
            if entry.matches(&f) {
                used[i] = true;
                suppressed = true;
                // Keep scanning so overlapping entries all count as used.
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (entry, used) in allow.iter().zip(used) {
        if !used {
            kept.push(Finding {
                check: Check::StaleAllow,
                file: entry.file.clone(),
                line: 0,
                fn_name: entry.fn_name.clone(),
                snippet: String::new(),
                message: format!(
                    "allowlist entry (check = \"{}\") matched nothing — remove it",
                    entry.check
                ),
            });
        }
    }
    kept
}

/// Stable output order: file, then line, then check.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.check)
            .partial_cmp(&(&b.file, b.line, b.check))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, fn_name: &str, snippet: &str) -> Finding {
        Finding {
            check: Check::Panic,
            file: file.into(),
            line: 3,
            fn_name: Some(fn_name.into()),
            snippet: snippet.into(),
            message: "call to unwrap()".into(),
        }
    }

    #[test]
    fn allowlist_suppresses_and_flags_stale() {
        let allow = vec![
            AllowEntry {
                file: "a.rs".into(),
                check: "panic".into(),
                fn_name: Some("f".into()),
                snippet: None,
                reason: "guarded".into(),
            },
            AllowEntry {
                file: "never.rs".into(),
                check: "panic".into(),
                fn_name: None,
                snippet: None,
                reason: "obsolete".into(),
            },
        ];
        let out = apply_allowlist(
            vec![
                finding("a.rs", "f", "x.unwrap()"),
                finding("a.rs", "g", "y.unwrap()"),
            ],
            &allow,
        );
        // f suppressed, g kept, stale entry reported.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|f| f.fn_name.as_deref() == Some("g")));
        assert!(out.iter().any(|f| f.check == Check::StaleAllow));
    }

    #[test]
    fn snippet_narrowing() {
        let allow = vec![AllowEntry {
            file: "a.rs".into(),
            check: "panic".into(),
            fn_name: None,
            snippet: Some("TABLES".into()),
            reason: "masked".into(),
        }];
        let out = apply_allowlist(vec![finding("a.rs", "f", "x.unwrap()")], &allow);
        // Snippet does not match -> finding kept AND entry stale.
        assert_eq!(out.len(), 2);
    }
}
