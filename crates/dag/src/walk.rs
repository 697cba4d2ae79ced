//! Walk planning: topologically sorting a set of events so that branches
//! stay consecutive, and computing the retreat/advance lists between
//! consecutive runs (paper §3.2, §3.7).
//!
//! The planner is allocation-pooled: [`WalkPlan`] owns every buffer the
//! planning passes need (node pools, CSR edges, diff scratch, the
//! retreat/advance range pool) and recycles them across calls, so a
//! long-lived replica re-planning on every merge performs no per-step and —
//! once warm — no per-plan heap allocation. The walker iterates the plan
//! in place ([`WalkPlan::iter`]); tests copy it out into owned
//! [`WalkStep`]s with [`WalkPlan::to_steps`].

use crate::diff::DiffScratch;
use crate::{Frontier, Graph, LV};
use eg_rle::{DTRange, HasLength, RleVec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a planned walk over the event graph, in owned form.
///
/// To process the step: retreat every event of `retreat` from the prepare
/// version, advance every event of `advance`, then apply the events of
/// `consume` in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkStep {
    /// Events to remove from the prepare version, as ascending LV ranges.
    pub retreat: Vec<DTRange>,
    /// Events to add back to the prepare version, as ascending LV ranges.
    pub advance: Vec<DTRange>,
    /// The contiguous run of events to apply.
    pub consume: DTRange,
}

/// One step of a planned walk, borrowing its retreat/advance lists from the
/// plan's shared range pool (the zero-copy view [`WalkPlan::iter`] yields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStepRef<'a> {
    /// Events to remove from the prepare version, as ascending LV ranges.
    pub retreat: &'a [DTRange],
    /// Events to add back to the prepare version, as ascending LV ranges.
    pub advance: &'a [DTRange],
    /// The contiguous run of events to apply.
    pub consume: DTRange,
}

/// How concurrent branches are ordered in the topological sort.
///
/// The paper (§3.2, §3.7) picks branches with fewer events first, and §4.3
/// reports that "a poorly chosen traversal order can make this trace as
/// much as 8× slower to merge". The non-default variants are those worse
/// orders, kept for the order-invariance tests; they are never better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanOrder {
    /// Visit small branches before large ones (the paper's heuristic).
    #[default]
    SmallestFirst,
    /// Visit large branches before small ones (pathological).
    LargestFirst,
    /// Ignore branch sizes; break ties by arrival (LV) order.
    Arrival,
}

/// A step in pooled form: half-open index ranges into [`WalkPlan::pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanStep {
    retreat: (u32, u32),
    advance: (u32, u32),
    consume: DTRange,
}

/// Reusable buffers for the planning passes. Every vector is cleared (not
/// dropped) at the start of a plan, so capacity persists across plans.
#[derive(Debug, Default)]
struct PlanScratch {
    /// The window, RLE-merged for `contains_key` queries.
    window: RleVec<DTRange>,
    /// The new-event ranges, RLE-merged.
    news: RleVec<DTRange>,
    /// Sorted LVs at which runs must be split.
    cuts: Vec<LV>,
    /// Node spans after splitting (ascending, disjoint).
    spans: Vec<DTRange>,
    /// Per-node offsets into `parents` (length `n + 1`).
    parents_off: Vec<u32>,
    /// Pooled parent LVs for all nodes.
    parents: Vec<LV>,
    /// CSR offsets into `children` (length `n + 1`).
    children_off: Vec<u32>,
    /// Pooled child node indexes for all nodes.
    children: Vec<u32>,
    /// Per-node write cursor for the CSR fill pass.
    csr_cursor: Vec<u32>,
    in_degree: Vec<u32>,
    /// Branch-size estimates (the ordering heuristic's sort key).
    desc: Vec<u64>,
    is_new: Vec<bool>,
    /// Kahn's ready set, min-popped: `(is_new, size_key, node)`.
    ready: BinaryHeap<Reverse<(bool, u64, u32)>>,
    diff: DiffScratch,
    only_a: Vec<DTRange>,
    only_b: Vec<DTRange>,
    prepare: Frontier,
}

/// A planned walk with pooled storage.
///
/// All retreat/advance ranges of all steps live in one shared `pool`
/// vector; [`WalkPlan::iter`] yields [`WalkStepRef`]s borrowing slices of
/// it. Re-planning through the same `WalkPlan` reuses every internal
/// buffer, which is what makes repeated merges on a long-lived replica
/// allocation-free (the pre-pooled planner allocated ~4 vectors *per step*
/// — the dominant cost on highly concurrent traces).
#[derive(Debug, Default)]
pub struct WalkPlan {
    steps: Vec<PlanStep>,
    pool: Vec<DTRange>,
    scratch: PlanScratch,
}

impl WalkPlan {
    /// Creates an empty plan (no buffers allocated yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of steps in the current plan.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the current plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The `i`-th step, borrowing from the shared range pool.
    pub(crate) fn step(&self, i: usize) -> WalkStepRef<'_> {
        let s = &self.steps[i];
        WalkStepRef {
            retreat: &self.pool[s.retreat.0 as usize..s.retreat.1 as usize],
            advance: &self.pool[s.advance.0 as usize..s.advance.1 as usize],
            consume: s.consume,
        }
    }

    /// Iterates the steps of the current plan in order.
    pub fn iter(&self) -> impl Iterator<Item = WalkStepRef<'_>> {
        (0..self.steps.len()).map(move |i| self.step(i))
    }

    /// Copies the current plan out into owned [`WalkStep`]s.
    pub fn to_steps(&self) -> Vec<WalkStep> {
        self.iter()
            .map(|s| WalkStep {
                retreat: s.retreat.to_vec(),
                advance: s.advance.to_vec(),
                consume: s.consume,
            })
            .collect()
    }

    /// Plans a walk over `spans` (ascending, causally closed above `base`),
    /// replacing any previous plan and recycling all internal buffers.
    ///
    /// The plan visits every event of `spans` exactly once, in a
    /// topological order chosen to keep linear runs consecutive and to
    /// visit small branches before large ones (the paper's §3.2 heuristic,
    /// which §4.3 reports matters up to 8× on highly concurrent traces).
    /// Between runs it emits the retreat/advance lists computed with
    /// [`Graph::diff_with_scratch`].
    ///
    /// `new_ranges` marks the events that are *new* relative to the
    /// document being merged into. The plan applies every event outside
    /// `new_ranges` before any event inside it (paper §3.6: replay the
    /// existing events without output, "finally, apply the new event … and
    /// output the transformed operation") — otherwise the emitted indexes
    /// would be relative to a document missing some of its text. Pass
    /// `spans` itself (or an equal cover) when everything is new (a full
    /// replay).
    ///
    /// `base` must be a version dominated by every event in `spans` (the
    /// conflict-window base from [`Graph::conflict_window`], or the root).
    pub fn plan(
        &mut self,
        graph: &Graph,
        base: &Frontier,
        spans: &[DTRange],
        new_ranges: &[DTRange],
    ) {
        self.plan_with_order(graph, base, spans, new_ranges, PlanOrder::SmallestFirst)
    }

    /// [`WalkPlan::plan`] with an explicit branch-ordering policy (see
    /// [`PlanOrder`]); used by the order-invariance tests.
    pub fn plan_with_order(
        &mut self,
        graph: &Graph,
        base: &Frontier,
        spans: &[DTRange],
        new_ranges: &[DTRange],
        order: PlanOrder,
    ) {
        let WalkPlan {
            steps,
            pool,
            scratch,
        } = self;
        let PlanScratch {
            window,
            news,
            cuts,
            spans: node_spans,
            parents_off,
            parents,
            children_off,
            children,
            csr_cursor,
            in_degree,
            desc,
            is_new,
            ready,
            diff,
            only_a,
            only_b,
            prepare,
        } = scratch;

        steps.clear();
        pool.clear();
        if spans.is_empty() {
            return;
        }
        window.0.clear();
        news.0.clear();
        for &s in spans {
            window.push(s);
        }
        for &r in new_ranges {
            news.push(r);
        }

        // 1. Collect split points: (a) after every in-window event that has
        //    an out-of-run child, so that parent edges land on run ends, and
        //    (b) at old/new boundaries, so every node is uniformly old or
        //    new. Parents of window-clipped run tails are the preceding
        //    event, whose cut is a no-op (it falls on a node boundary), so
        //    only real run-start parents matter here.
        cuts.clear();
        for &span in spans {
            let mut lv = span.start;
            while lv < span.end {
                let idx = graph
                    .entries
                    .find_index(lv)
                    .expect("window LV not in graph");
                let entry = &graph.entries.0[idx];
                if lv == entry.span.start {
                    for &p in entry.parents.iter() {
                        if window.contains_key(p) {
                            cuts.push(p + 1);
                        }
                    }
                }
                lv = entry.span.end.min(span.end);
            }
        }
        for r in new_ranges {
            cuts.push(r.start);
            cuts.push(r.end);
        }
        cuts.sort_unstable();
        cuts.dedup();

        // 2. Materialise nodes: graph entries clipped to the window and
        //    split at the cuts, as pooled spans + parent lists. A piece
        //    that starts mid-run has its predecessor as sole parent.
        node_spans.clear();
        parents_off.clear();
        parents.clear();
        parents_off.push(0);
        let mut cut_i = 0usize;
        for &span in spans {
            let mut lv = span.start;
            while lv < span.end {
                let idx = graph
                    .entries
                    .find_index(lv)
                    .expect("window LV not in graph");
                let entry = &graph.entries.0[idx];
                let piece_end = entry.span.end.min(span.end);
                while cut_i < cuts.len() && cuts[cut_i] <= lv {
                    cut_i += 1;
                }
                let mut sub_start = lv;
                loop {
                    let sub_end = if cut_i < cuts.len() && cuts[cut_i] < piece_end {
                        let c = cuts[cut_i];
                        cut_i += 1;
                        c
                    } else {
                        piece_end
                    };
                    node_spans.push((sub_start..sub_end).into());
                    if sub_start == entry.span.start {
                        parents.extend_from_slice(entry.parents.as_slice());
                    } else {
                        parents.push(sub_start - 1);
                    }
                    parents_off.push(parents.len() as u32);
                    sub_start = sub_end;
                    if sub_start >= piece_end {
                        break;
                    }
                }
                lv = piece_end;
            }
        }
        let n = node_spans.len();

        // Map: LV → node index (nodes are ascending and disjoint).
        fn find_node(spans: &[DTRange], lv: LV) -> usize {
            spans
                .binary_search_by(|s| {
                    if lv < s.start {
                        std::cmp::Ordering::Greater
                    } else if lv >= s.end {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .expect("LV not in window")
        }
        let parents_of = |i: usize| -> std::ops::Range<usize> {
            parents_off[i] as usize..parents_off[i + 1] as usize
        };

        // 3. Build the child edges (CSR: count, prefix-sum, fill) and
        //    in-degrees.
        is_new.clear();
        is_new.extend(node_spans.iter().map(|s| news.contains_key(s.start)));
        children_off.clear();
        children_off.resize(n + 1, 0);
        in_degree.clear();
        in_degree.resize(n, 0);
        for i in 0..n {
            for &p in &parents[parents_of(i)] {
                if window.contains_key(p) {
                    let pi = find_node(node_spans, p);
                    debug_assert_eq!(node_spans[pi].last(), p, "edges must land on run ends");
                    children_off[pi + 1] += 1;
                    in_degree[i] += 1;
                }
            }
        }
        for i in 0..n {
            children_off[i + 1] += children_off[i];
        }
        children.clear();
        children.resize(children_off[n] as usize, 0);
        csr_cursor.clear();
        csr_cursor.extend_from_slice(&children_off[..n]);
        for i in 0..n {
            for &p in &parents[parents_of(i)] {
                if window.contains_key(p) {
                    let pi = find_node(node_spans, p);
                    children[csr_cursor[pi] as usize] = i as u32;
                    csr_cursor[pi] += 1;
                }
            }
        }
        let children_of = |i: usize| -> std::ops::Range<usize> {
            children_off[i] as usize..children_off[i + 1] as usize
        };

        // 4. Branch-size estimates: events that happen after each node.
        // The DP over-counts shared descendants, which on diamond-heavy
        // graphs grows exponentially — saturate, it is only an ordering
        // heuristic.
        desc.clear();
        desc.resize(n, 0);
        for i in (0..n).rev() {
            let mut d = node_spans[i].len() as u64;
            for &c in &children[children_of(i)] {
                d = d.saturating_add(desc[c as usize]);
            }
            desc[i] = d;
        }
        // Rewrite the size key according to the ordering policy; the ready
        // heap below always pops the minimum.
        match order {
            PlanOrder::SmallestFirst => {}
            PlanOrder::LargestFirst => {
                for d in desc.iter_mut() {
                    *d = u64::MAX - *d;
                }
            }
            PlanOrder::Arrival => desc.fill(0),
        }

        // 5. Kahn's algorithm. Old nodes strictly before new ones; within a
        //    class, smallest-branch-first, preferring direct chain
        //    continuations (zero retreat/advance). Each node enters the
        //    ready heap at most once, so min-popping is exact removal.
        ready.clear();
        let mut old_ready = 0usize;
        for i in 0..n {
            if in_degree[i] == 0 {
                ready.push(Reverse((is_new[i], desc[i], i as u32)));
                if !is_new[i] {
                    old_ready += 1;
                }
            }
        }
        prepare.0.clear();
        prepare.0.extend_from_slice(base.as_slice());
        let mut consumed = 0usize;
        let mut next_hot: Option<usize> = None;
        while consumed < n {
            let i = if let Some(hot) = next_hot.take() {
                hot
            } else {
                let Reverse((nw, _, i)) = ready.pop().expect("cycle in event graph");
                if !nw {
                    old_ready -= 1;
                }
                i as usize
            };
            let node_span = node_spans[i];
            graph.diff_with_scratch(prepare, &parents[parents_of(i)], diff, only_a, only_b);
            // Merge pure consumption into the previous step.
            if only_a.is_empty() && only_b.is_empty() {
                match steps.last_mut() {
                    Some(last) if last.consume.end == node_span.start => {
                        last.consume.end = node_span.end;
                    }
                    _ => {
                        let o = pool.len() as u32;
                        steps.push(PlanStep {
                            retreat: (o, o),
                            advance: (o, o),
                            consume: node_span,
                        });
                    }
                }
            } else {
                let r0 = pool.len() as u32;
                pool.extend_from_slice(only_a);
                let r1 = pool.len() as u32;
                pool.extend_from_slice(only_b);
                let a1 = pool.len() as u32;
                steps.push(PlanStep {
                    retreat: (r0, r1),
                    advance: (r1, a1),
                    consume: node_span,
                });
            }
            prepare.replace_with_1(node_span.last());
            consumed += 1;

            // Release children; chain into one if allowed.
            let mut best_chain: Option<(bool, u64, u32)> = None;
            for &c in &children[children_of(i)] {
                let c = c as usize;
                in_degree[c] -= 1;
                if in_degree[c] == 0 {
                    let key = (is_new[c], desc[c], c as u32);
                    let chains = parents[parents_of(c)] == [node_span.last()];
                    if chains {
                        match best_chain {
                            Some(bk) if key < bk => {
                                ready.push(Reverse(bk));
                                if !bk.0 {
                                    old_ready += 1;
                                }
                                best_chain = Some(key);
                            }
                            Some(_) => {
                                ready.push(Reverse(key));
                                if !key.0 {
                                    old_ready += 1;
                                }
                            }
                            None => best_chain = Some(key),
                        }
                    } else {
                        ready.push(Reverse(key));
                        if !key.0 {
                            old_ready += 1;
                        }
                    }
                }
            }
            if let Some(key) = best_chain {
                // A new-class chain may only be followed once no old nodes
                // wait.
                if key.0 && old_ready > 0 {
                    ready.push(Reverse(key));
                } else {
                    next_hot = Some(key.2 as usize);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A throwaway plan's steps, in owned form.
    fn fresh_steps(
        g: &Graph,
        base: &Frontier,
        spans: &[DTRange],
        new_ranges: &[DTRange],
    ) -> Vec<WalkStep> {
        let mut plan = WalkPlan::new();
        plan.plan(g, base, spans, new_ranges);
        plan.to_steps()
    }

    /// The paper's Figure 4 example, §3.2: the plan must retreat e3/e4
    /// before the concurrent branch and advance them again before the merge.
    #[test]
    fn fig4_walk_matches_paper() {
        let mut g = Graph::new();
        g.push(&[], (0..2).into()); // e1 e2
        g.push(&[1], (2..4).into()); // e3 e4
        g.push(&[1], (4..7).into()); // e5 e6 e7
        g.push(&[3, 6], (7..8).into()); // e8
        let all = [(0..8).into()];
        let steps = fresh_steps(&g, &Frontier::root(), &all, &all);
        assert_eq!(
            steps,
            vec![
                WalkStep {
                    retreat: vec![],
                    advance: vec![],
                    consume: (0..4).into(),
                },
                WalkStep {
                    retreat: vec![(2..4).into()],
                    advance: vec![],
                    consume: (4..7).into(),
                },
                WalkStep {
                    retreat: vec![],
                    advance: vec![(2..4).into()],
                    consume: (7..8).into(),
                },
            ]
        );
    }

    #[test]
    fn linear_graph_single_step() {
        let mut g = Graph::new();
        g.push(&[], (0..100).into());
        let all = [(0..100).into()];
        let steps = fresh_steps(&g, &Frontier::root(), &all, &all);
        assert_eq!(
            steps,
            vec![WalkStep {
                retreat: vec![],
                advance: vec![],
                consume: (0..100).into(),
            }]
        );
    }

    #[test]
    fn partial_window() {
        let mut g = Graph::new();
        g.push(&[], (0..5).into());
        g.push(&[4], (5..8).into()); // branch a
        g.push(&[4], (8..10).into()); // branch b
                                      // Window: just the two branches, base at {4}; everything new.
        let spans = [(5..10).into()];
        let steps = fresh_steps(&g, &Frontier::new_1(4), &spans, &spans);
        // Small branch (8..10, 2 events) visited before the big one (5..8).
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].consume, (8..10).into());
        assert!(steps[0].retreat.is_empty() && steps[0].advance.is_empty());
        assert_eq!(steps[1].consume, (5..8).into());
        assert_eq!(steps[1].retreat, vec![DTRange::from(8..10)]);
        assert!(steps[1].advance.is_empty());
    }

    /// Old events must be consumed before new ones, even when the new
    /// branch is smaller.
    #[test]
    fn old_before_new() {
        let mut g = Graph::new();
        g.push(&[], (0..5).into());
        g.push(&[4], (5..11).into()); // old branch (6 events, larger)
        g.push(&[4], (11..12).into()); // new branch (1 event, smaller)
        let spans = [(5..12).into()];
        let steps = fresh_steps(&g, &Frontier::new_1(4), &spans, &[(11..12).into()]);
        assert_eq!(steps[0].consume, (5..11).into());
        assert_eq!(steps[1].consume, (11..12).into());
    }

    /// A node mixing old and new events is split at the boundary, and the
    /// new part waits for concurrent old branches.
    #[test]
    fn mixed_node_split_at_emit_boundary() {
        let mut g = Graph::new();
        g.push(&[], (0..4).into()); // old
        g.push(&[3], (4..8).into()); // old prefix 4..6, new suffix 6..8
        g.push(&[3], (8..10).into()); // old concurrent branch
        let spans = [(0..10).into()];
        let steps = fresh_steps(&g, &Frontier::root(), &spans, &[(6..8).into()]);
        // The new range 6..8 must come after the old branch 8..10.
        let order: Vec<DTRange> = steps.iter().map(|s| s.consume).collect();
        let pos_new = order.iter().position(|r| r.contains(6)).unwrap();
        let pos_old_branch = order.iter().position(|r| r.contains(8)).unwrap();
        assert!(pos_old_branch < pos_new, "order: {order:?}");
    }

    #[test]
    fn mid_run_fork_splits_nodes() {
        let mut g = Graph::new();
        g.push(&[], (0..6).into());
        g.push(&[2], (6..8).into()); // forks off the middle of the run
        g.push(&[5, 7], (8..9).into());
        let spans = [(0..9).into()];
        let steps = fresh_steps(&g, &Frontier::root(), &spans, &spans);
        let total: usize = steps.iter().map(|s| s.consume.len()).sum();
        assert_eq!(total, 9);
        assert!(steps
            .iter()
            .any(|s| s.consume.start == 3 || s.consume.end == 3));
    }

    #[test]
    fn empty_plan() {
        let g = Graph::new();
        assert!(fresh_steps(&g, &Frontier::root(), &[], &[]).is_empty());
    }

    #[test]
    fn every_event_consumed_once_random_shape() {
        let mut g = Graph::new();
        g.push(&[], (0..3).into());
        g.push(&[0], (3..5).into());
        g.push(&[1], (5..6).into());
        g.push(&[4, 5], (6..7).into());
        g.push(&[2, 6], (7..10).into());
        let spans = [(0..10).into()];
        let steps = fresh_steps(&g, &Frontier::root(), &spans, &[(4..7).into()]);
        let mut seen = [false; 10];
        for s in &steps {
            for lv in s.consume.iter() {
                assert!(!seen[lv], "event {lv} consumed twice");
                seen[lv] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    /// A reused plan produces identical output to a fresh one, with both
    /// step views agreeing.
    #[test]
    fn reused_plan_matches_fresh() {
        let mut g = Graph::new();
        g.push(&[], (0..3).into());
        g.push(&[0], (3..5).into());
        g.push(&[1], (5..6).into());
        g.push(&[4, 5], (6..7).into());
        g.push(&[2, 6], (7..10).into());
        let spans = [(0..10).into()];
        let mut plan = WalkPlan::new();
        // Warm the buffers on a different window first.
        plan.plan(&g, &Frontier::root(), &[(0..5).into()], &[(0..5).into()]);
        plan.plan(&g, &Frontier::root(), &spans, &[(4..7).into()]);
        let fresh = fresh_steps(&g, &Frontier::root(), &spans, &[(4..7).into()]);
        assert_eq!(plan.to_steps(), fresh);
        assert_eq!(plan.len(), fresh.len());
        for (i, (r, o)) in plan.iter().zip(&fresh).enumerate() {
            assert_eq!(r.retreat, &o.retreat[..], "step {i} retreat");
            assert_eq!(r.advance, &o.advance[..], "step {i} advance");
            assert_eq!(r.consume, o.consume, "step {i} consume");
        }
    }
}
