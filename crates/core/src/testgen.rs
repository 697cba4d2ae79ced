//! Deterministic random editing-history generation for tests and fuzzing.
//!
//! Simulates a handful of replicas concurrently editing a document:
//! each step either applies a local edit at a replica's current version or
//! merges another replica's version. The result is an [`OpLog`] with a
//! realistic mix of linear runs, short-lived branches and merges — the raw
//! material for the convergence and equivalence property tests.

use crate::reference::replay_reference_version;
use crate::{ListOpKind, OpLog, TextOperation};
use eg_dag::Frontier;
use eg_rle::DTRange;

/// A tiny deterministic xorshift generator (no external dependencies so the
/// module can be used from every crate's tests without feature wiring).
#[derive(Debug, Clone)]
pub struct SmallRng(u64);

impl SmallRng {
    /// Seeds the generator. Equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        SmallRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A uniform value in `[0, bound)` (`bound` must be nonzero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() >> 16) as usize % bound
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One simulated replica: its current version and the document text at it.
#[derive(Debug, Clone)]
struct SimReplica {
    frontier: Frontier,
    doc: Vec<char>,
}

/// Generates a random editing history.
///
/// * `steps`: number of simulation steps (each is one op run or one merge).
/// * `num_replicas`: concurrent editors.
/// * `merge_prob`: probability that a step merges instead of editing;
///   higher values produce more concurrency.
pub fn random_oplog(seed: u64, steps: usize, num_replicas: usize, merge_prob: f64) -> OpLog {
    random_oplog_prefixed(seed, steps, num_replicas, merge_prob, "agent")
}

/// [`random_oplog`] with a custom agent-name prefix, so that independently
/// generated logs use disjoint ID spaces (event IDs must be globally
/// unique, paper §2.2).
pub fn random_oplog_prefixed(
    seed: u64,
    steps: usize,
    num_replicas: usize,
    merge_prob: f64,
    prefix: &str,
) -> OpLog {
    let mut rng = SmallRng::new(seed);
    let mut oplog = OpLog::new();
    let agents: Vec<_> = (0..num_replicas)
        .map(|i| oplog.get_or_create_agent(&format!("{prefix}{i}")))
        .collect();
    let mut replicas: Vec<SimReplica> = (0..num_replicas)
        .map(|_| SimReplica {
            frontier: Frontier::root(),
            doc: Vec::new(),
        })
        .collect();
    // Mixed UTF-8 widths (1–4 bytes: ASCII, é, √/→/日, 🦀) so the content
    // arena's char→byte translation is exercised at every boundary.
    let alphabet: Vec<char> = "abcdefghij OX√é→日本🦀".chars().collect();

    for _ in 0..steps {
        let r = rng.below(num_replicas);
        if num_replicas > 1 && rng.unit_f64() < merge_prob {
            // Merge a random other replica's version into r.
            let mut o = rng.below(num_replicas);
            if o == r {
                o = (o + 1) % num_replicas;
            }
            let other_frontier = replicas[o].frontier.clone();
            let merged = oplog
                .graph
                .version_union(&replicas[r].frontier, &other_frontier);
            if merged != replicas[r].frontier {
                replicas[r].doc = replay_reference_version(&oplog, &merged).chars().collect();
                replicas[r].frontier = merged;
            }
            continue;
        }
        let len = replicas[r].doc.len();
        let roll = rng.unit_f64();
        if len == 0 || roll < 0.55 {
            // Insert a small run.
            let pos = rng.below(len + 1);
            let n = 1 + rng.below(4);
            let text: String = (0..n)
                .map(|_| alphabet[rng.below(alphabet.len())])
                .collect();
            let parents = replicas[r].frontier.clone();
            let lvs = oplog.add_insert_at(agents[r], &parents, pos, &text);
            let chars: Vec<char> = text.chars().collect();
            for (i, c) in chars.into_iter().enumerate() {
                replicas[r].doc.insert(pos + i, c);
            }
            replicas[r].frontier = Frontier::new_1(lvs.last());
        } else if roll < 0.85 {
            // Forward delete.
            let pos = rng.below(len);
            let n = (1 + rng.below(4)).min(len - pos);
            let parents = replicas[r].frontier.clone();
            let lvs = oplog.add_delete_at(agents[r], &parents, pos, n);
            replicas[r].doc.drain(pos..pos + n);
            replicas[r].frontier = Frontier::new_1(lvs.last());
        } else {
            // Backspace run.
            let pos = rng.below(len);
            let n = (1 + rng.below(3)).min(pos + 1);
            let parents = replicas[r].frontier.clone();
            let lvs = oplog.add_backspace_at(agents[r], &parents, pos, n);
            replicas[r].doc.drain(pos + 1 - n..pos + 1);
            replicas[r].frontier = Frontier::new_1(lvs.last());
        }
    }
    oplog
}

/// One author's view of the document inside a window of
/// [`mid_run_criticals_oplog`]: its version, and the lane of the text —
/// `lo..hi` in its own coordinates — it keeps its edits to.
struct Lane {
    agent: eg_dag::AgentId,
    frontier: Frontier,
    lo: usize,
    hi: usize,
}

impl Lane {
    /// Appends one random edit (a short insert, forward delete or backspace
    /// run) inside the lane. Returns the change in document length.
    fn edit(&mut self, oplog: &mut OpLog, rng: &mut SmallRng, alphabet: &[char]) -> isize {
        let width = self.hi - self.lo;
        let roll = rng.below(10);
        let (lvs, delta) = if width == 0 || roll < 6 {
            let pos = self.lo + rng.below(width + 1);
            let n = 1 + rng.below(4);
            let text: String = (0..n)
                .map(|_| alphabet[rng.below(alphabet.len())])
                .collect();
            (
                oplog.add_insert_at(self.agent, &self.frontier, pos, &text),
                n as isize,
            )
        } else if roll < 8 {
            let n = (1 + rng.below(3)).min(width);
            let pos = self.lo + rng.below(width - n + 1);
            (
                oplog.add_delete_at(self.agent, &self.frontier, pos, n),
                -(n as isize),
            )
        } else {
            let n = (1 + rng.below(3)).min(width);
            // Backspacing from `pos` removes `pos + 1 - n ..= pos`.
            let pos = self.lo + n - 1 + rng.below(width - n + 1);
            (
                oplog.add_backspace_at(self.agent, &self.frontier, pos, n),
                -(n as isize),
            )
        };
        self.hi = (self.hi as isize + delta) as usize;
        self.frontier = Frontier::new_1(lvs.last());
        delta
    }
}

/// Generates `windows` windows of two authors with a **critical version
/// planted in the middle of a graph run** in most of them — the layout that
/// a walker testing for criticality only where a run ends never sees.
///
/// A window goes: one author (alternating) merges both tips and types a few
/// *solo* edits — every one of them a critical version — and then, without a
/// break, keeps typing (same agent, consecutive LVs, each event parented on
/// the one before: still the same graph run) while the other author
/// branches off the last solo event. The solo author's graph run therefore
/// begins with critical versions and ends with concurrent ones, and — the
/// other branch being at least as long — the planner visits all of it in one
/// go. Every fourth window (by a coin toss) skips the solo part, so runs of
/// windows with no critical version at all occur too.
///
/// The two authors keep to disjoint lanes of the text, so deletes never
/// overlap and the merged length is known without merging; generation is
/// linear in the number of events. Returns the log and the length its
/// merged document must have.
pub fn mid_run_criticals_oplog(seed: u64, windows: usize) -> (OpLog, usize) {
    let mut rng = SmallRng::new(seed);
    let mut oplog = OpLog::new();
    let agents = [
        oplog.get_or_create_agent("left"),
        oplog.get_or_create_agent("right"),
    ];
    let alphabet: Vec<char> = "abcdefghij OX√é→日本🦀".chars().collect();
    let mut len = 0usize;
    for w in 0..windows {
        // Solo: one lane over the whole text, off the merged version.
        let mut solo = Lane {
            agent: agents[w % 2],
            frontier: oplog.version().clone(),
            lo: 0,
            hi: len,
        };
        if rng.below(4) != 0 {
            for _ in 0..1 + rng.below(3) {
                solo.edit(&mut oplog, &mut rng, &alphabet);
            }
        }
        len = solo.hi;
        // Concurrent: both continue from where the solo author stands,
        // the solo author first so that its LVs stay consecutive.
        let cut = rng.below(len + 1);
        let mut other = Lane {
            agent: agents[(w + 1) % 2],
            frontier: solo.frontier.clone(),
            lo: cut,
            hi: len,
        };
        let mut own = Lane {
            lo: 0,
            hi: cut,
            ..solo
        };
        let before = oplog.len();
        for _ in 0..1 + rng.below(3) {
            len = (len as isize + own.edit(&mut oplog, &mut rng, &alphabet)) as usize;
        }
        // The other author's branch is never the shorter one, so the
        // planner's smallest-branch-first rule visits the continuation
        // straight after the solo events whether it sizes branches within
        // a segment or (saturating, on a long history) within the whole
        // window — and walks with and without clearing emit in one order.
        let continued = oplog.len() - before;
        let before = oplog.len();
        while oplog.len() - before < continued {
            len = (len as isize + other.edit(&mut oplog, &mut rng, &alphabet)) as usize;
        }
    }
    (oplog, len)
}

/// Coalesces a transformed-operation stream into its coarsest equivalent:
/// an insert that continues the previous insert's text joins it, and a
/// delete whose range touches the gap the previous delete left joins that.
///
/// The walker may cut one run of events into several emitted operations
/// (at tracker record boundaries, at segment boundaries, or not at all when
/// it fast-forwards), so two correct walks of one history can differ in
/// chunking while describing the same edits. Their coalesced streams are
/// equal.
pub fn coalesce_ops(ops: &[(DTRange, TextOperation)]) -> Vec<TextOperation> {
    /// Joins `next` onto `prev` if it continues it.
    fn join(prev: &mut TextOperation, next: &TextOperation) -> bool {
        match (prev.kind, next.kind) {
            (ListOpKind::Ins, ListOpKind::Ins) if next.pos == prev.pos + prev.len => {
                let text = prev.content.as_mut().expect("insert carries content");
                text.push_str(next.content.as_deref().expect("insert carries content"));
            }
            (ListOpKind::Del, ListOpKind::Del)
                if next.pos <= prev.pos && prev.pos <= next.pos + next.len =>
            {
                prev.pos = next.pos;
            }
            _ => return false,
        }
        prev.len += next.len;
        true
    }

    let mut out: Vec<TextOperation> = Vec::new();
    for (_, op) in ops {
        out.push(op.clone());
        // A join can make the joined operation touch the one before it
        // (delete at 6, then at 7, then at 6: the last two join first).
        while let [.., prev, last] = out.as_mut_slice() {
            if !join(prev, last) {
                break;
            }
            out.pop();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::replay_reference;

    #[test]
    fn generator_is_deterministic() {
        let a = random_oplog(7, 50, 3, 0.3);
        let b = random_oplog(7, 50, 3, 0.3);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.version(), b.version());
    }

    #[test]
    fn generator_produces_concurrency() {
        let log = random_oplog(11, 120, 3, 0.4);
        // At least one event should have multiple parents (a merge) or the
        // graph should have several runs.
        assert!(log.graph.num_entries() > 1);
    }

    #[test]
    fn mid_run_criticals_are_planted_mid_run() {
        let (log, len) = mid_run_criticals_oplog(5, 40);
        assert_eq!(replay_reference(&log).chars().count(), len);
        // Graph runs that start on a critical version and end on a
        // concurrent one: the layout the generator exists for.
        let planted = log
            .graph
            .iter()
            .filter(|e| {
                log.graph.is_critical(e.span.start) && !log.graph.is_critical(e.span.last())
            })
            .count();
        assert!(planted >= 20, "only {planted} of 40 windows planted");
    }

    #[test]
    fn coalesce_joins_rechunked_runs() {
        let lvs = DTRange::from(0..1);
        let chunked = [
            (lvs, TextOperation::ins(3, "ab")),
            (lvs, TextOperation::ins(5, "c")),
            (lvs, TextOperation::del(5, 1)),
            (lvs, TextOperation::del(4, 2)),
            (lvs, TextOperation::ins(4, "x")),
            // Joins backwards too: 7 does not continue 6, but (7, 6) does.
            (lvs, TextOperation::del(6, 1)),
            (lvs, TextOperation::del(7, 1)),
            (lvs, TextOperation::del(6, 1)),
        ];
        assert_eq!(
            coalesce_ops(&chunked),
            vec![
                TextOperation::ins(3, "abc"),
                TextOperation::del(4, 3),
                TextOperation::ins(4, "x"),
                TextOperation::del(6, 3),
            ]
        );
    }

    #[test]
    fn zero_merge_prob_single_replica_is_linear() {
        let log = random_oplog(3, 60, 1, 0.0);
        assert_eq!(log.graph.num_entries(), 1);
    }
}
