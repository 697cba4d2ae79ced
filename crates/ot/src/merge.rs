//! The OT control algorithm: merging an arbitrary event DAG by recursive
//! context transformation with memoisation.
//!
//! Classic OT transforms one operation against one other operation; to merge
//! divergent branches every new operation must be transformed against every
//! concurrent operation — `O(n²)` when two branches each hold `n` events
//! (paper §1, §5). Operations can only be transformed when they are
//! expressed in the *same context* (document version), so merging a DAG
//! requires recursively bringing concurrent operations into matching
//! contexts (the COT approach). Intermediate transformed operations are
//! memoised per `(events, context)` pair — which is precisely why the
//! paper measures multi-gigabyte peak memory for OT on the asynchronous
//! traces (§4.4).

use crate::textop::{compose, transform, TextOp};
use eg_dag::{Frontier, LV};
use eg_rle::{DTRange, HasLength};
use eg_rope::Rope;
use egwalker::{ListOpKind, OpLog};
use std::collections::HashMap;

/// Counters reported by [`replay_ot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OtStats {
    /// Pairwise transforms performed.
    pub transforms: usize,
    /// Entries in the `(events, context)` memo table.
    pub memo_entries: usize,
    /// Approximate bytes retained by the memo table at peak.
    pub memo_bytes: usize,
}

/// The OT replay engine. Holds the memo table for the duration of a merge.
pub struct OtMerger<'a> {
    oplog: &'a OpLog,
    memo: HashMap<(DTRange, Frontier), TextOp>,
    stats: OtStats,
}

/// A pending transformation: bring `x`'s operation from context `c` to
/// context `target`.
struct Frame {
    x: DTRange,
    target: Frontier,
    c: Frontier,
    op: TextOp,
}

impl<'a> OtMerger<'a> {
    /// Creates a merger for the given log.
    pub fn new(oplog: &'a OpLog) -> Self {
        OtMerger {
            oplog,
            memo: HashMap::new(),
            stats: OtStats::default(),
        }
    }

    /// The raw composed operation of a run of events (each event applies in
    /// the context left by its predecessor, so the run collapses into a
    /// single operation).
    fn run_op(&self, range: DTRange) -> TextOp {
        let mut acc: Option<TextOp> = None;
        for (_lvs, run) in self.oplog.ops_in(range) {
            let op = match run.kind {
                ListOpKind::Ins => {
                    let content = self
                        .oplog
                        .content_slice(run.content.expect("insert content"));
                    TextOp::ins(run.loc.start, content)
                }
                // Forward and backward delete runs both remove the
                // contiguous range `loc`.
                ListOpKind::Del => TextOp::del(run.loc.start, run.loc.len()),
            };
            acc = Some(match acc {
                None => op,
                Some(prev) => compose(&prev, &op),
            });
        }
        acc.unwrap_or_default()
    }

    /// Clips a diff range to a single graph run starting at its first LV.
    fn clip(&self, r: DTRange) -> DTRange {
        let (entry, _) = self.oplog.graph.entry_for(r.start);
        (r.start..r.end.min(entry.span.end)).into()
    }

    fn parents_frontier(&self, lv: LV) -> Frontier {
        self.oplog.graph.parents_of(lv)
    }

    /// Deterministic insert-insert tie-break: by agent name of the runs.
    fn a_first(&self, a: DTRange, b: DTRange) -> bool {
        let an = self
            .oplog
            .agents
            .agent_name(self.oplog.agents.lv_to_agent_span(a.start).agent);
        let bn = self
            .oplog
            .agents
            .agent_name(self.oplog.agents.lv_to_agent_span(b.start).agent);
        (an, a.start) < (bn, b.start)
    }

    /// Transforms the run `x`'s operation into context `target`
    /// (`Events(parents(x)) ⊆ Events(target)` required). Iterative with an
    /// explicit stack; memoised.
    pub(crate) fn xform(&mut self, x: DTRange, target: &Frontier) -> TextOp {
        let key = (x, target.clone());
        if let Some(op) = self.memo.get(&key) {
            return op.clone();
        }
        let mut stack: Vec<Frame> = vec![Frame {
            x,
            target: target.clone(),
            c: self.parents_frontier(x.start),
            op: self.run_op(x),
        }];
        while let Some(frame) = stack.last() {
            if frame.c == frame.target
                || self
                    .oplog
                    .graph
                    .diff(&frame.target, &frame.c)
                    .only_a
                    .is_empty()
            {
                let done = stack.pop().unwrap();
                self.stats.memo_bytes += done.op.approx_bytes();
                self.memo.insert((done.x, done.target), done.op);
                continue;
            }
            let d = self.oplog.graph.diff(&frame.target, &frame.c);
            let y = self.clip(*d.only_a.first().expect("context not below target"));
            let y_key = (y, frame.c.clone());
            if let Some(y_op) = self.memo.get(&y_key).cloned() {
                let frame = stack.last_mut().unwrap();
                let a_first = self.a_first(frame.x, y);
                frame.op = transform(&frame.op, &y_op, a_first);
                self.stats.transforms += 1;
                let parents = self.parents_frontier(y.start);
                frame.c.advance_by(y.last(), &parents);
            } else {
                let c = frame.c.clone();
                let op = self.run_op(y);
                let parents = self.parents_frontier(y.start);
                stack.push(Frame {
                    x: y,
                    target: c,
                    c: parents,
                    op,
                });
            }
        }
        self.stats.memo_entries = self.memo.len();
        self.memo.get(&key).expect("xform did not complete").clone()
    }

    /// Replays the whole event graph, applying each run's transformed
    /// operation in LV order. Returns the final document.
    pub fn replay(&mut self) -> Rope {
        let mut doc = Rope::new();
        let mut current = Frontier::root();
        let entries: Vec<(DTRange, Frontier)> = self
            .oplog
            .graph
            .iter()
            .map(|e| (e.span, e.parents.clone()))
            .collect();
        for (span, parents) in entries {
            if parents == current {
                // No concurrency: apply each op run directly (the fast
                // path production OT takes on sequential histories —
                // composing the whole run first would be quadratic).
                for (_lvs, run) in self.oplog.ops_in(span) {
                    let op = match run.kind {
                        egwalker::ListOpKind::Ins => {
                            let content = self
                                .oplog
                                .content_slice(run.content.expect("insert content"));
                            TextOp::ins(run.loc.start, content)
                        }
                        egwalker::ListOpKind::Del => TextOp::del(run.loc.start, run.loc.len()),
                    };
                    op.apply_clamped_to(&mut doc);
                }
            } else {
                let op = self.xform(span, &current);
                op.apply_clamped_to(&mut doc);
            }
            current.advance_by(span.last(), &parents);
        }
        doc
    }

    /// The accumulated statistics.
    pub(crate) fn stats(&self) -> OtStats {
        let mut s = self.stats;
        s.memo_entries = self.memo.len();
        s
    }
}

/// Replays the full event graph with OT, returning the document text and
/// merge statistics.
pub fn replay_ot(oplog: &OpLog) -> (String, OtStats) {
    let mut merger = OtMerger::new(oplog);
    let doc = merger.replay();
    (doc.to_string(), merger.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_replay() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "hello world");
        oplog.add_delete(a, 0, 6);
        let (doc, stats) = replay_ot(&oplog);
        assert_eq!(doc, "world");
        // Sequential histories need zero transforms.
        assert_eq!(stats.transforms, 0);
        assert_eq!(stats.memo_entries, 0);
    }

    #[test]
    fn fig1_concurrent() {
        let mut oplog = OpLog::new();
        let u1 = oplog.get_or_create_agent("user1");
        let u2 = oplog.get_or_create_agent("user2");
        oplog.add_insert(u1, 0, "Helo");
        let base = oplog.version().clone();
        oplog.add_insert_at(u1, &base, 3, "l");
        oplog.add_insert_at(u2, &base, 4, "!");
        let (doc, stats) = replay_ot(&oplog);
        assert_eq!(doc, "Hello!");
        assert!(stats.transforms > 0);
    }

    /// On purely sequential histories OT must agree exactly with
    /// Eg-walker (no transformation happens at all).
    #[test]
    fn matches_egwalker_on_sequential_histories() {
        use egwalker::testgen::random_oplog;
        for seed in 0..20u64 {
            let oplog = random_oplog(seed, 150, 1, 0.0);
            let expected = oplog.checkout_tip().content.to_string();
            let (doc, stats) = replay_ot(&oplog);
            assert_eq!(doc, expected, "seed {seed}");
            assert_eq!(stats.transforms, 0);
        }
    }

    /// On concurrent histories OT replay must be deterministic and never
    /// crash. (Exact equality with the CRDT-based algorithms is *not*
    /// expected: the traces' indexes were generated under the reference
    /// merge semantics, and OT may order concurrent same-position
    /// insertions differently — see `TextOp::apply_clamped_to`.)
    #[test]
    fn deterministic_on_random_histories() {
        use egwalker::testgen::random_oplog;
        for seed in 0..30u64 {
            let oplog = random_oplog(seed, 100, 3, 0.35);
            let (doc1, _) = replay_ot(&oplog);
            let (doc2, _) = replay_ot(&oplog);
            assert_eq!(doc1, doc2, "seed {seed}");
        }
    }

    #[test]
    fn two_branch_merge_cost_is_quadratic_in_transforms() {
        // k events on each of two branches: expect ~k^2 transforms.
        let build = |k: usize| {
            let mut oplog = OpLog::new();
            let a = oplog.get_or_create_agent("alice");
            let b = oplog.get_or_create_agent("bob");
            oplog.add_insert(a, 0, "x");
            let base = oplog.version().clone();
            let mut va = base.clone();
            let mut vb = base.clone();
            for i in 0..k {
                let lvs = oplog.add_insert_at(a, &va, i + 1, "a");
                va = Frontier::new_1(lvs.last());
                let lvs = oplog.add_insert_at(b, &vb, 0, "b");
                vb = Frontier::new_1(lvs.last());
            }
            oplog
        };
        let (_, s1) = replay_ot(&build(8));
        let (_, s2) = replay_ot(&build(16));
        assert!(
            s2.transforms >= 3 * s1.transforms,
            "expected superlinear growth: {} -> {}",
            s1.transforms,
            s2.transforms
        );
    }
}
