//! Version algebra on the event graph: ancestry tests, the priority-queue
//! version diff (paper §3.2), dominator reduction, and the conflict window
//! used by partial replay (paper §3.6).

use crate::{Frontier, Graph, LV};
use eg_rle::{DTRange, HasLength};
use std::collections::BinaryHeap;

/// The result of [`Graph::diff`]: the events reachable from exactly one of
/// the two versions.
///
/// Both vectors hold LV ranges in ascending order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiffResult {
    /// Events in `Events(a) - Events(b)`.
    pub only_a: Vec<DTRange>,
    /// Events in `Events(b) - Events(a)`.
    pub only_b: Vec<DTRange>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Flag {
    OnlyA,
    OnlyB,
    Shared,
}

/// Reusable scratch state for [`Graph::diff_with_scratch`]: the priority
/// queue's backing buffer survives across calls, so a loop diffing many
/// version pairs (the walk planner's per-step retreat/advance computation)
/// performs no per-call allocation.
#[derive(Debug, Default)]
pub(crate) struct DiffScratch {
    queue: BinaryHeap<(LV, Flag)>,
}

impl Graph {
    /// Returns `true` if `target` is contained in `Events(frontier)` — that
    /// is, `target` is an entry of the frontier or happened before one.
    pub fn frontier_contains(&self, frontier: &[LV], target: LV) -> bool {
        if frontier.contains(&target) {
            return true;
        }
        let mut queue: BinaryHeap<LV> = frontier.iter().copied().filter(|&v| v > target).collect();
        while let Some(lv) = queue.pop() {
            let (entry, _) = self.entry_for(lv);
            // The run [entry.span.start ..= lv] is a chain of ancestors.
            if entry.span.start <= target {
                return true;
            }
            // Skip any queued items inside this run — they are covered.
            while let Some(&peek) = queue.peek() {
                if peek >= entry.span.start {
                    queue.pop();
                } else {
                    break;
                }
            }
            for &p in entry.parents.iter() {
                if p == target {
                    return true;
                }
                if p > target {
                    queue.push(p);
                }
            }
        }
        false
    }

    /// Returns `true` if `Events(a) ⊆ Events(b)`.
    pub fn frontier_contains_frontier(&self, b: &[LV], a: &[LV]) -> bool {
        a.iter().all(|&v| self.frontier_contains(b, v))
    }

    /// Reduces an arbitrary set of LVs to its maximal elements (the events
    /// not dominated by any other member).
    pub fn find_dominators(&self, lvs: &[LV]) -> Frontier {
        if lvs.len() <= 1 {
            return Frontier::from_unsorted(lvs);
        }
        let mut sorted = lvs.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.dedup();
        let mut out: Vec<LV> = Vec::new();
        for &v in &sorted {
            if !self.frontier_contains(&out, v) {
                out.push(v);
            }
        }
        out.sort_unstable();
        Frontier(out)
    }

    /// The version representing `Events(a) ∪ Events(b)`.
    pub fn version_union(&self, a: &[LV], b: &[LV]) -> Frontier {
        let mut all = a.to_vec();
        all.extend_from_slice(b);
        self.find_dominators(&all)
    }

    /// Computes the events reachable from exactly one of the two versions
    /// (paper §3.2).
    ///
    /// This is the workhorse for moving the prepare version: when the walker
    /// moves from version `a` to version `b`, it retreats `only_a` (in
    /// reverse order) and advances `only_b` (in order).
    ///
    /// The implementation is the paper's priority-queue traversal, operating
    /// on whole runs at a time: pop the greatest unexplored event, consume
    /// the run it terminates, tag it with the side(s) that reach it, and
    /// enqueue the run's parents. It stops as soon as every queued event is
    /// reachable from both sides.
    pub fn diff(&self, a: &[LV], b: &[LV]) -> DiffResult {
        let mut scratch = DiffScratch::default();
        let mut result = DiffResult::default();
        self.diff_with_scratch(a, b, &mut scratch, &mut result.only_a, &mut result.only_b);
        result
    }

    /// [`Graph::diff`] into caller-owned buffers: `only_a` / `only_b` are
    /// cleared and filled (ascending), and `scratch` is recycled, so
    /// repeated diffs allocate nothing once the buffers have grown.
    pub(crate) fn diff_with_scratch(
        &self,
        a: &[LV],
        b: &[LV],
        scratch: &mut DiffScratch,
        only_a: &mut Vec<DTRange>,
        only_b: &mut Vec<DTRange>,
    ) {
        let queue = &mut scratch.queue;
        queue.clear();
        only_a.clear();
        only_b.clear();
        let mut num_shared = 0usize;
        for &v in a {
            queue.push((v, Flag::OnlyA));
        }
        for &v in b {
            queue.push((v, Flag::OnlyB));
        }

        // Collected in descending order, reversed before returning.

        fn mark(only_a: &mut Vec<DTRange>, only_b: &mut Vec<DTRange>, flag: Flag, range: DTRange) {
            if range.is_empty() {
                return;
            }
            let list = match flag {
                Flag::OnlyA => only_a,
                Flag::OnlyB => only_b,
                Flag::Shared => return,
            };
            // We emit in descending order; merge with the previous entry when
            // it directly follows this one.
            if let Some(last) = list.last_mut() {
                if last.start == range.end {
                    last.start = range.start;
                    return;
                }
            }
            list.push(range);
        }

        while let Some((mut lv, mut flag)) = queue.pop() {
            if flag == Flag::Shared {
                num_shared -= 1;
            }
            // Absorb other queue entries for the same event.
            while let Some(&(peek_lv, peek_flag)) = queue.peek() {
                if peek_lv != lv {
                    break;
                }
                queue.pop();
                if peek_flag == Flag::Shared {
                    num_shared -= 1;
                }
                if peek_flag != flag {
                    flag = Flag::Shared;
                }
            }
            // If everything left is shared, no more differences exist.
            if flag == Flag::Shared && queue.len() == num_shared {
                break;
            }

            let (entry, _) = self.entry_for(lv);
            let run_start = entry.span.start;

            // Absorb queue entries that fall inside the run [run_start, lv).
            while let Some(&(peek_lv, peek_flag)) = queue.peek() {
                if peek_lv < run_start {
                    break;
                }
                queue.pop();
                if peek_flag == Flag::Shared {
                    num_shared -= 1;
                }
                if peek_flag != flag {
                    // The part of the run above the peeked event belongs to
                    // `flag` alone; below it both sides reach the run.
                    mark(only_a, only_b, flag, (peek_lv + 1..lv + 1).into());
                    lv = peek_lv;
                    flag = Flag::Shared;
                }
            }

            mark(only_a, only_b, flag, (run_start..lv + 1).into());

            for &p in entry.parents.iter() {
                queue.push((p, flag));
                if flag == Flag::Shared {
                    num_shared += 1;
                }
            }
        }

        only_a.reverse();
        only_b.reverse();
    }

    /// Finds the *conflict window* for merging version `b` into version `a`
    /// (paper §3.6).
    ///
    /// Returns `(base, spans)` where `base` is the latest critical version
    /// that happened before both `a` and `b` (or the root version if there
    /// is none), and `spans` are the events of
    /// `(Events(a) ∪ Events(b)) − Events(base)` in ascending LV order.
    ///
    /// The returned base is safe to start a partial replay from: every event
    /// in `spans` happened after `base`, so the walker never needs to
    /// retreat or advance an event from before `base`.
    pub fn conflict_window(&self, a: &[LV], b: &[LV]) -> (Frontier, Vec<DTRange>) {
        // Critical versions form a chain, and a critical version c happened
        // before a frontier V iff max(V) >= c. So the latest critical version
        // before both frontiers is the largest critical <= min(max(a), max(b)).
        let base = match (a.iter().max(), b.iter().max()) {
            (Some(&ma), Some(&mb)) => self.latest_critical_at_or_before(ma.min(mb)),
            _ => None,
        };
        let floor = base.map(|c| c + 1).unwrap_or(0);

        // Collect all events above `floor` reachable from either frontier.
        let mut queue: BinaryHeap<LV> = a
            .iter()
            .chain(b.iter())
            .copied()
            .filter(|&v| v >= floor)
            .collect();
        let mut spans: Vec<DTRange> = Vec::new(); // Descending.
        while let Some(lv) = queue.pop() {
            let (entry, _) = self.entry_for(lv);
            let run_start = entry.span.start.max(floor);
            // Skip queued items covered by this run.
            while let Some(&peek) = queue.peek() {
                if peek >= run_start {
                    queue.pop();
                } else {
                    break;
                }
            }
            let range: DTRange = (run_start..lv + 1).into();
            if let Some(last) = spans.last_mut() {
                if last.start == range.end {
                    last.start = range.start;
                } else {
                    spans.push(range);
                }
            } else {
                spans.push(range);
            }
            if entry.span.start >= floor {
                // We consumed the entire run; explore its parents.
                for &p in entry.parents.iter() {
                    if p >= floor {
                        queue.push(p);
                    }
                }
            }
        }
        spans.reverse();
        (base.map(Frontier::new_1).unwrap_or_default(), spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the graph from paper Figure 4:
    /// 0:h 1:i (chain), then 2:H / 3:Del branch and 4:Del 5:e 6:y branch off
    /// event 1, merging at 7:!.
    fn fig4() -> Graph {
        let mut g = Graph::new();
        g.push(&[], (0..2).into()); // e1, e2
        g.push(&[1], (2..4).into()); // e3, e4 (capitalise branch)
        g.push(&[1], (4..7).into()); // e5, e6, e7 (hey branch)
        g.push(&[3, 6], (7..8).into()); // e8
        g
    }

    #[test]
    fn contains_basics() {
        let g = fig4();
        assert!(g.frontier_contains(&[7], 0));
        assert!(g.frontier_contains(&[7], 3));
        assert!(g.frontier_contains(&[7], 6));
        assert!(g.frontier_contains(&[3], 1));
        assert!(!g.frontier_contains(&[3], 4));
        assert!(!g.frontier_contains(&[6], 2));
        assert!(g.frontier_contains(&[2, 4], 1));
        assert!(!g.frontier_contains(&[], 0));
    }

    #[test]
    fn dominators() {
        let g = fig4();
        assert_eq!(g.find_dominators(&[0, 1, 2]).as_slice(), &[2]);
        assert_eq!(g.find_dominators(&[3, 6]).as_slice(), &[3, 6]);
        assert_eq!(g.find_dominators(&[3, 6, 7]).as_slice(), &[7]);
        assert_eq!(g.find_dominators(&[2, 4, 1]).as_slice(), &[2, 4]);
        assert_eq!(g.version_union(&[3], &[5]).as_slice(), &[3, 5]);
        assert_eq!(g.version_union(&[3], &[1]).as_slice(), &[3]);
    }

    #[test]
    fn diff_simple_branches() {
        let g = fig4();
        let d = g.diff(&[3], &[6]);
        assert_eq!(d.only_a, vec![DTRange::from(2..4)]);
        assert_eq!(d.only_b, vec![DTRange::from(4..7)]);

        // Walking from {3} (end of branch 1) to {1} (before the branch).
        let d = g.diff(&[3], &[1]);
        assert_eq!(d.only_a, vec![DTRange::from(2..4)]);
        assert_eq!(d.only_b, vec![]);

        // No difference.
        let d = g.diff(&[7], &[7]);
        assert_eq!(d, DiffResult::default());

        // Against root.
        let d = g.diff(&[2], &[]);
        assert_eq!(d.only_a, vec![DTRange::from(0..3)]);
        assert_eq!(d.only_b, vec![]);
    }

    #[test]
    fn diff_overlapping_chain() {
        let mut g = Graph::new();
        g.push(&[], (0..10).into());
        // Versions at two points of the same run.
        let d = g.diff(&[8], &[3]);
        assert_eq!(d.only_a, vec![DTRange::from(4..9)]);
        assert_eq!(d.only_b, vec![]);
        let d = g.diff(&[3], &[8]);
        assert_eq!(d.only_b, vec![DTRange::from(4..9)]);
        assert_eq!(d.only_a, vec![]);
    }

    #[test]
    fn diff_multi_entry_frontiers() {
        let g = fig4();
        let d = g.diff(&[2, 4], &[3, 6]);
        assert_eq!(d.only_a, vec![]);
        assert_eq!(d.only_b, vec![DTRange::from(3..4), DTRange::from(5..7)]);
    }

    #[test]
    fn conflict_window_fig4() {
        let g = fig4();
        // Merging the two branch tips: the latest critical version before
        // both is event 1 (the graph is linear up to there).
        let (base, spans) = g.conflict_window(&[3], &[6]);
        assert_eq!(base.as_slice(), &[1]);
        assert_eq!(spans, vec![DTRange::from(2..7)]);

        // Merging a tip with the root replays everything from the root.
        let (base, spans) = g.conflict_window(&[], &[7]);
        assert!(base.is_root());
        assert_eq!(spans, vec![DTRange::from(0..8)]);
    }

    #[test]
    fn conflict_window_linear() {
        let mut g = Graph::new();
        g.push(&[], (0..10).into());
        // A purely newer version: base is the old tip itself.
        let (base, spans) = g.conflict_window(&[4], &[9]);
        assert_eq!(base.as_slice(), &[4]);
        assert_eq!(spans, vec![DTRange::from(5..10)]);
    }
}
