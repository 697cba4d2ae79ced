//! Synthetic trace generators (paper §4.1).
//!
//! Each generator simulates the editing *process* that produced the
//! corresponding real trace, emitting events directly into an [`OpLog`].
//! Positions are always generated against a simulated author's live
//! document, maintained with real Eg-walker merges — so every event is
//! valid in its parent version, exactly as in a recorded trace.

use crate::spec::{TraceKind, TraceSpec};
use eg_dag::Frontier;
use egwalker::testgen::SmallRng;
use egwalker::{Branch, OpLog, Tracker, WalkerOpts};

/// One simulated author: a version, the document at it, and a cursor.
struct Author {
    frontier: Frontier,
    doc_len: usize,
    cursor: usize,
    agent: eg_dag::AgentId,
}

/// Word-like filler text generator.
struct Babbler {
    syllables: Vec<&'static str>,
}

impl Babbler {
    fn new() -> Self {
        Babbler {
            syllables: vec![
                "ing", "ter", "al", "ed", "es", "re", "tion", "an", "de", "en", "the", "to", "or",
                "st", "ar", "nd", "is", "of", "and", "in", "er", "at", "on", "it",
            ],
        }
    }

    /// Produces `n` characters of plausible prose.
    fn text(&self, rng: &mut SmallRng, n: usize) -> String {
        let mut out = String::with_capacity(n + 8);
        while out.chars().count() < n {
            if !out.is_empty() && rng.below(5) == 0 {
                out.push(' ');
            }
            out.push_str(self.syllables[rng.below(self.syllables.len())]);
        }
        out.chars().take(n).collect()
    }
}

/// Generates a trace per its specification, returning the oplog.
pub fn generate(spec: &TraceSpec) -> OpLog {
    match spec.kind {
        TraceKind::Sequential => gen_sequential(spec),
        TraceKind::Concurrent => gen_concurrent(spec),
        TraceKind::Asynchronous => gen_async(spec),
    }
}

/// An editing turn: a burst of typing/deleting by one author, applied at
/// their current version. Returns the number of events emitted.
#[allow(clippy::too_many_arguments)]
fn edit_turn(
    oplog: &mut OpLog,
    rng: &mut SmallRng,
    babbler: &Babbler,
    author: &mut Author,
    turn_events: usize,
    keep_ratio: f64,
    ins_burst: usize,
    del_burst: usize,
) -> usize {
    let mut done = 0;
    // Probability that a burst deletes rather than inserts, tuned so the
    // expected deleted characters are (1 - keep_ratio) of the inserted
    // ones, accounting for the different average burst sizes:
    // p·d̄ = (1-keep)·(1-p)·ī.
    let ins_avg = (1.0 + ins_burst as f64) / 2.0;
    let del_avg = (1.0 + del_burst as f64) / 2.0;
    let p_del = (1.0 - keep_ratio) * ins_avg / (del_avg + (1.0 - keep_ratio) * ins_avg);
    while done < turn_events {
        // Move the cursor occasionally (people scroll around).
        if rng.below(8) == 0 {
            author.cursor = rng.below(author.doc_len + 1);
        }
        author.cursor = author.cursor.min(author.doc_len);
        let deleting = author.doc_len > 16 && rng.unit_f64() < p_del;
        if deleting {
            let n = (1 + rng.below(del_burst)).min(turn_events - done);
            if rng.below(2) == 0 && author.cursor >= n {
                // Backspace run.
                let lvs = oplog.add_backspace_at(
                    author.agent,
                    &author.frontier.clone(),
                    author.cursor - 1,
                    n,
                );
                author.frontier = Frontier::new_1(lvs.last());
                author.cursor -= n;
            } else {
                let pos = author.cursor.min(author.doc_len - 1);
                let n = n.min(author.doc_len - pos);
                let lvs = oplog.add_delete_at(author.agent, &author.frontier.clone(), pos, n);
                author.frontier = Frontier::new_1(lvs.last());
            }
            author.doc_len -= n.min(author.doc_len);
            done += n;
        } else {
            let n = (1 + rng.below(ins_burst)).min(turn_events - done);
            let text = babbler.text(rng, n);
            let lvs =
                oplog.add_insert_at(author.agent, &author.frontier.clone(), author.cursor, &text);
            author.frontier = Frontier::new_1(lvs.last());
            author.cursor += n;
            author.doc_len += n;
            done += n;
        }
    }
    done
}

/// Sequential traces (S1–S3): authors take turns; the graph is one linear
/// chain.
fn gen_sequential(spec: &TraceSpec) -> OpLog {
    let mut rng = SmallRng::new(spec.seed);
    let babbler = Babbler::new();
    let mut oplog = OpLog::new();
    let agents: Vec<_> = (0..spec.authors)
        .map(|i| oplog.get_or_create_agent(&format!("author{i}")))
        .collect();
    let mut author = Author {
        frontier: Frontier::root(),
        doc_len: 0,
        cursor: 0,
        agent: agents[0],
    };
    let mut emitted = 0;
    let mut turn = 0usize;
    while emitted < spec.target_events {
        author.agent = agents[turn % spec.authors];
        turn += 1;
        let turn_events = (spec.turn_len.0 + rng.below(spec.turn_len.1 - spec.turn_len.0 + 1))
            .min(spec.target_events - emitted);
        emitted += edit_turn(
            &mut oplog,
            &mut rng,
            &babbler,
            &mut author,
            turn_events,
            spec.keep_ratio,
            20,
            8,
        );
        // Turn hand-off is sequential: the next author continues from the
        // same version.
    }
    oplog
}

/// Concurrent traces (C1, C2): two authors typing at the same time with
/// ~1 s of latency — each works against a slightly stale version, creating
/// many short-lived branches that immediately merge.
fn gen_concurrent(spec: &TraceSpec) -> OpLog {
    let mut rng = SmallRng::new(spec.seed);
    let babbler = Babbler::new();
    let mut oplog = OpLog::new();
    let agents: Vec<_> = (0..spec.authors)
        .map(|i| oplog.get_or_create_agent(&format!("author{i}")))
        .collect();
    // The shared merged state both editors observe (with latency).
    let mut shared = Branch::new();
    let mut tracker = Tracker::new();
    let mut emitted = 0;
    while emitted < spec.target_events {
        let mut tips: Vec<Frontier> = Vec::new();
        // One "latency window": each author types a small burst in
        // parallel, based on the shared state.
        for &agent in &agents {
            let mut author = Author {
                frontier: shared.version.clone(),
                doc_len: shared.len_chars(),
                cursor: rng.below(shared.len_chars() + 1),
                agent,
            };
            let burst = (spec.turn_len.0 + rng.below(spec.turn_len.1 - spec.turn_len.0 + 1))
                .min(spec.target_events.saturating_sub(emitted).max(1));
            emitted += edit_turn(
                &mut oplog,
                &mut rng,
                &babbler,
                &mut author,
                burst,
                spec.keep_ratio,
                6,
                3,
            );
            tips.push(author.frontier);
        }
        // Deliver: both sides receive each other's burst.
        for tip in tips {
            shared.merge_to(&oplog, &tip, WalkerOpts::default(), &mut tracker);
        }
    }
    oplog
}

/// Asynchronous traces (A1, A2): long-running branches in the style of git
/// histories — contributors fork from some version, edit offline for a
/// long turn, and merge later. `live_branches` controls how many branches
/// stay open at once.
fn gen_async(spec: &TraceSpec) -> OpLog {
    let mut rng = SmallRng::new(spec.seed);
    let babbler = Babbler::new();
    let mut oplog = OpLog::new();
    let agents: Vec<_> = (0..spec.authors)
        .map(|i| oplog.get_or_create_agent(&format!("dev{i:03}")))
        .collect();
    // Branch pool: (frontier, doc at it). Start with a small trunk.
    let mut trunk = Branch::new();
    let mut tracker = Tracker::new();
    {
        let mut author = Author {
            frontier: Frontier::root(),
            doc_len: 0,
            cursor: 0,
            agent: agents[0],
        };
        edit_turn(
            &mut oplog,
            &mut rng,
            &babbler,
            &mut author,
            (spec.target_events / 20).max(64),
            spec.keep_ratio,
            24,
            10,
        );
        trunk.merge_to(
            &oplog,
            &author.frontier,
            WalkerOpts::default(),
            &mut tracker,
        );
    }
    let mut branches: Vec<Branch> = vec![trunk];
    let mut emitted = oplog.len();
    let mut author_idx = 0usize;
    while emitted < spec.target_events {
        let roll = rng.below(10);
        if branches.len() < spec.live_branches && roll < 6 {
            // Fork a new branch from a random existing one.
            let src = rng.below(branches.len());
            branches.push(branches[src].clone());
        } else if branches.len() > 1 && (roll < 2 || emitted >= spec.target_events) {
            // Merge a random branch into another.
            let a = rng.below(branches.len());
            let mut b = rng.below(branches.len());
            if a == b {
                b = (b + 1) % branches.len();
            }
            let tip = branches[b].version.clone();
            branches[a].merge_to(&oplog, &tip, WalkerOpts::default(), &mut tracker);
            branches.remove(b);
            continue;
        }
        // Extend a random branch with a long offline turn.
        let i = rng.below(branches.len());
        let branch = &mut branches[i];
        let mut author = Author {
            frontier: branch.version.clone(),
            doc_len: branch.len_chars(),
            cursor: rng.below(branch.len_chars() + 1),
            agent: agents[author_idx % agents.len()],
        };
        author_idx += 1;
        let turn_events = (spec.turn_len.0 + rng.below(spec.turn_len.1 - spec.turn_len.0 + 1))
            .min(spec.target_events - emitted);
        emitted += edit_turn(
            &mut oplog,
            &mut rng,
            &babbler,
            &mut author,
            turn_events,
            spec.keep_ratio,
            32,
            12,
        );
        let tip = author.frontier.clone();
        branch.merge_to(&oplog, &tip, WalkerOpts::default(), &mut tracker);
    }
    // Merge everything at the end (the paper's traces end merged).
    let mut final_branch = branches.pop().unwrap();
    for b in branches {
        let tip = b.version.clone();
        final_branch.merge_to(&oplog, &tip, WalkerOpts::default(), &mut tracker);
    }
    // Record the final merge event so the graph frontier is a single
    // version, as in the real traces.
    if oplog.version().len() > 1 {
        let v = oplog.version().clone();
        oplog.add_insert_at(agents[0], &v, 0, "\n");
    }
    oplog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::builtin_specs;

    fn small_specs() -> Vec<TraceSpec> {
        builtin_specs(0.004) // ~3-9k events per trace
    }

    #[test]
    fn generators_are_deterministic() {
        for spec in small_specs() {
            let a = generate(&spec);
            let b = generate(&spec);
            assert_eq!(a.len(), b.len(), "{}", spec.name);
            assert_eq!(a.version(), b.version(), "{}", spec.name);
        }
    }

    #[test]
    fn sequential_traces_are_linear() {
        for spec in small_specs().into_iter().take(3) {
            let oplog = generate(&spec);
            assert_eq!(oplog.graph.num_entries(), 1, "{}", spec.name);
        }
    }

    #[test]
    fn concurrent_traces_branch_and_replay() {
        for spec in small_specs()
            .into_iter()
            .filter(|s| s.name.starts_with('C'))
        {
            let oplog = generate(&spec);
            assert!(oplog.graph.num_entries() > 50, "{}", spec.name);
            // The full walker replays them without panicking.
            let doc = oplog.checkout_tip();
            assert!(doc.len_chars() > 0);
        }
    }

    #[test]
    fn async_traces_have_long_branches_and_replay() {
        for spec in small_specs()
            .into_iter()
            .filter(|s| s.name.starts_with('A'))
        {
            let oplog = generate(&spec);
            assert!(oplog.graph.num_entries() > 3, "{}", spec.name);
            let doc = oplog.checkout_tip();
            assert!(doc.len_chars() > 0, "{}", spec.name);
        }
    }

    #[test]
    fn event_counts_hit_targets() {
        for spec in small_specs() {
            let oplog = generate(&spec);
            let target = spec.target_events as f64;
            let got = oplog.len() as f64;
            assert!(
                (got - target).abs() / target < 0.2,
                "{}: {} vs target {}",
                spec.name,
                got,
                target
            );
        }
    }
}
