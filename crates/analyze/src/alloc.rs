//! Pass 2 — allocation discipline. Builds a name-based intra-workspace
//! call graph from the token stream and walks it from the hot-path
//! manifest (`[alloc] hot` in `analyze.toml`), flagging any fn reached
//! from a hot entry that contains a known allocating call.
//!
//! Name-based resolution over-approximates (every same-named fn in the
//! configured crates is a candidate callee), which is the safe
//! direction for a regression gate: it can only over-report, never
//! silently miss an edge. Three escape hatches keep it quiet on audited
//! code: `[[alloc.setup]]` fns (amortised pool/slab growth) stop the
//! walk, `[alloc] ignore` names are never followed (collision-prone
//! trait methods), and a `// ALLOC:` comment on the line of — or the
//! line above — an allocating call waives that one site.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::config::Config;
use crate::diag::{Check, Finding};
use crate::lexer::TokKind;
use crate::scan::FileScan;

/// Path-qualified constructors that always allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Method names that (may) allocate on the receiver.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "to_owned",
    "to_string",
    "to_vec",
    "collect",
    "reserve",
    "append",
];

/// Constructor-ish path tails never followed as edges (see harvest).
const CTOR_NAMES: &[&str] = &["new", "with_capacity", "from", "default"];

/// Rust keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "fn", "as", "in", "let", "move",
];

#[derive(Debug)]
struct AllocSite {
    line: u32,
    what: String,
}

#[derive(Debug)]
struct FnNode {
    scan: usize,
    name: String,
    sites: Vec<AllocSite>,
    callees: BTreeSet<String>,
}

/// Extracts per-fn allocation sites and callees for one file.
fn harvest(scan_idx: usize, scan: &FileScan, nodes: &mut Vec<FnNode>) {
    let toks = &scan.toks;

    // Lines waived by `// ALLOC:` comments (the comment's own line and
    // the line after, mirroring how `// SAFETY:` sits above `unsafe`).
    let mut waived: BTreeSet<u32> = BTreeSet::new();
    for t in toks {
        if t.kind == TokKind::Comment && t.text.contains("ALLOC:") {
            waived.insert(t.line);
            waived.insert(t.line + 1);
        }
    }

    for f in &scan.fns {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        let mut node = FnNode {
            scan: scan_idx,
            name: f.name.clone(),
            sites: Vec::new(),
            callees: BTreeSet::new(),
        };
        let body = f.body.clone();
        let code: Vec<usize> = body
            .clone()
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        for (ci, &i) in code.iter().enumerate() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next = code.get(ci + 1).map(|&j| &toks[j]);
            let next2 = code.get(ci + 2).map(|&j| &toks[j]);
            let next3 = code.get(ci + 3).map(|&j| &toks[j]);
            let prev = ci.checked_sub(1).map(|p| &toks[code[p]]);

            // `Type::ctor(` allocating paths.
            if next.is_some_and(|p| p.is_punct(':')) && next2.is_some_and(|p| p.is_punct(':')) {
                if let Some(tail) = next3 {
                    if ALLOC_PATHS
                        .iter()
                        .any(|(ty, m)| t.is_ident(ty) && tail.is_ident(m))
                        && !waived.contains(&t.line)
                    {
                        node.sites.push(AllocSite {
                            line: t.line,
                            what: format!("{}::{}", t.text, tail.text),
                        });
                    }
                }
                continue;
            }
            // `vec![` / `format!(` macros.
            if next.is_some_and(|p| p.is_punct('!')) && ALLOC_MACROS.contains(&t.text.as_str()) {
                if !waived.contains(&t.line) {
                    node.sites.push(AllocSite {
                        line: t.line,
                        what: format!("{}!", t.text),
                    });
                }
                continue;
            }
            // Calls: `name(`, `.name(`, or the tail of `Path::name(`.
            if next.is_some_and(|p| p.is_punct('(')) {
                let is_method = prev.is_some_and(|p| p.is_punct('.'));
                if is_method && ALLOC_METHODS.contains(&t.text.as_str()) {
                    if !waived.contains(&t.line) {
                        node.sites.push(AllocSite {
                            line: t.line,
                            what: format!(".{}()", t.text),
                        });
                    }
                    continue;
                }
                let is_path_tail = prev.is_some_and(|p| p.is_punct(':'));
                if is_path_tail && CTOR_NAMES.contains(&t.text.as_str()) {
                    // `Foo::new(...)` resolved by bare name would alias
                    // every constructor in the workspace; constructors
                    // in a *reused* hot path are setup by definition.
                    continue;
                }
                if !CALLISH_KEYWORDS.contains(&t.text.as_str()) {
                    node.callees.insert(t.text.clone());
                }
            }
        }
        nodes.push(node);
    }
}

/// Runs the pass: harvest every configured crate, then BFS from each
/// hot entry fn, reporting reachable allocation sites with their call
/// chain.
pub(crate) fn check(scans: &[FileScan], cfg: &Config, findings: &mut Vec<Finding>) {
    if cfg.alloc_hot.is_empty() {
        return;
    }
    let mut nodes: Vec<FnNode> = Vec::new();
    for (si, scan) in scans.iter().enumerate() {
        if cfg.alloc_crates.iter().any(|c| c == &scan.crate_name) {
            harvest(si, scan, &mut nodes);
        }
    }
    // Name -> node indices (over-approximate resolution).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (ni, node) in nodes.iter().enumerate() {
        by_name.entry(node.name.as_str()).or_default().push(ni);
    }

    let setup: BTreeSet<&str> = cfg.alloc_setup.iter().map(String::as_str).collect();
    let ignore: BTreeSet<&str> = cfg.alloc_ignore.iter().map(String::as_str).collect();

    // Same-crate candidates shadow cross-crate ones: a `self.clear()`
    // in `core` must not resolve into every `clear` in the workspace.
    let resolve = |name: &str, caller_crate: &str| -> Vec<usize> {
        let Some(all) = by_name.get(name) else {
            return Vec::new();
        };
        let same: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&ni| scans[nodes[ni].scan].crate_name == caller_crate)
            .collect();
        if same.is_empty() {
            all.clone()
        } else {
            same
        }
    };

    // Each allocating site is reported once, under the first hot root
    // that reaches it.
    let mut reported: BTreeSet<(usize, u32, String)> = BTreeSet::new();

    for hot in &cfg.alloc_hot {
        let Some(roots) = by_name.get(hot.as_str()) else {
            findings.push(Finding {
                check: Check::Config,
                file: "analyze.toml".into(),
                line: 0,
                fn_name: Some(hot.clone()),
                snippet: String::new(),
                message: format!(
                    "alloc.hot names `{hot}` but no fn with that name exists in crates {:?}",
                    cfg.alloc_crates
                ),
            });
            continue;
        };
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if visited.insert(r) {
                queue.push_back(r);
            }
        }
        while let Some(ni) = queue.pop_front() {
            let node = &nodes[ni];
            if setup.contains(node.name.as_str()) && !cfg.alloc_hot.iter().any(|h| h == &node.name)
            {
                continue; // audited setup fn: stop the walk here
            }
            let chain = chain_of(&nodes, &parent, ni);
            let scan = &scans[node.scan];
            for site in &node.sites {
                if !reported.insert((node.scan, site.line, site.what.clone())) {
                    continue;
                }
                findings.push(Finding {
                    check: Check::Alloc,
                    file: scan.path.clone(),
                    line: site.line,
                    fn_name: Some(node.name.clone()),
                    snippet: scan.snippet(site.line).to_string(),
                    message: format!(
                        "hot path `{hot}` reaches allocating `{}` via {chain}",
                        site.what
                    ),
                });
            }
            let caller_crate = scans[node.scan].crate_name.clone();
            for callee in nodes[ni].callees.clone() {
                if ignore.contains(callee.as_str()) {
                    continue;
                }
                for t in resolve(&callee, &caller_crate) {
                    if visited.insert(t) {
                        parent.insert(t, ni);
                        queue.push_back(t);
                    }
                }
            }
        }
    }
}

/// `a -> b -> c` chain from the BFS root to `ni`.
fn chain_of(nodes: &[FnNode], parent: &HashMap<usize, usize>, ni: usize) -> String {
    let mut path = vec![ni];
    let mut cur = ni;
    while let Some(&p) = parent.get(&cur) {
        path.push(p);
        cur = p;
        if path.len() > 64 {
            break; // defensive: graphs here are tiny
        }
    }
    path.reverse();
    path.iter()
        .map(|&i| nodes[i].name.as_str())
        .collect::<Vec<_>>()
        .join(" -> ")
}
