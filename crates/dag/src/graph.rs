//! [`Graph`]: run-length encoded storage of the event graph's parent
//! relation.

use crate::{Frontier, LV};
use eg_rle::{DTRange, HasLength, HasRleKey, MergableSpan, RleVec, SplitableSpan};

/// One run-length encoded entry of the event graph.
///
/// Events `span.start .. span.end` form a linear chain: `span.start` has
/// parents `parents`, and each subsequent event's sole parent is its
/// predecessor. Human editing histories are dominated by such runs, so a
/// graph with a million events usually has only a handful of entries
/// (paper §2.2, Table 1 "graph runs").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEntry {
    /// The range of LVs in this run.
    pub span: DTRange,
    /// Parents of the *first* event of the run.
    pub parents: Frontier,
}

impl HasLength for GraphEntry {
    fn len(&self) -> usize {
        self.span.len()
    }
}

impl HasRleKey for GraphEntry {
    fn rle_key(&self) -> usize {
        self.span.start
    }
}

impl MergableSpan for GraphEntry {
    fn can_append(&self, other: &Self) -> bool {
        self.span.can_append(&other.span) && other.parents.as_slice() == [self.span.last()]
    }

    fn append(&mut self, other: Self) {
        self.span.append(other.span);
    }
}

impl SplitableSpan for GraphEntry {
    fn truncate(&mut self, at: usize) -> Self {
        let rem_span = self.span.truncate(at);
        GraphEntry {
            parents: Frontier::new_1(rem_span.start - 1),
            span: rem_span,
        }
    }
}

/// The event graph: a DAG over LVs, stored as RLE runs.
///
/// The graph is append-only and grows monotonically (paper §2.2). New events
/// must be assigned LVs greater than all of their parents — which is always
/// possible because causal delivery means parents arrive first.
///
/// The graph incrementally maintains its own frontier (the current version)
/// and the set of *critical versions* (paper §3.5): versions `{v}` that
/// partition the graph into a past that entirely happened before a future.
/// Critical versions form a chain, and a version can stop being critical
/// when a concurrent event arrives; both facts are exploited to maintain
/// them in amortised O(1) per appended run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    pub(crate) entries: RleVec<GraphEntry>,
    /// LVs of events with no parents (graph roots). Kept for walk planning.
    pub(crate) root_events: Vec<LV>,
    /// The graph's current version (events with no children).
    pub(crate) frontier: Frontier,
    /// Ascending runs of LVs `v` such that `{v}` is a critical version.
    pub(crate) criticals: RleVec<DTRange>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of events in the graph.
    ///
    /// Since LVs are dense, this is also the next LV to be assigned.
    pub fn len(&self) -> usize {
        self.entries.end_key()
    }

    /// Returns `true` if the graph has no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of RLE entries (linear runs) in the graph.
    pub fn num_entries(&self) -> usize {
        self.entries.num_entries()
    }

    /// Iterates the RLE entries of the graph in LV order.
    pub fn iter(&self) -> impl Iterator<Item = &GraphEntry> {
        self.entries.iter()
    }

    /// The ascending runs of critical versions (paper §3.5), for
    /// storage-image serialisation.
    pub fn criticals_runs(&self) -> &[DTRange] {
        &self.criticals.0
    }

    /// Returns `true` if the events `[from..len)` form one linear chain
    /// hanging off exactly `version` — i.e. they sequentially extend the
    /// graph-as-of-`version`, with nothing concurrent to them.
    ///
    /// The cached-load path uses this to decide whether replaying the
    /// post-checkpoint tail needs tracker state from before the
    /// checkpoint (concurrent tail) or can skip restoring it entirely
    /// (sequential tail: transforming the tail against nothing is the
    /// identity, so the events apply to the document as-is).
    pub fn is_sequential_extension(&self, from: LV, version: &[LV]) -> bool {
        if from >= self.len() {
            return self.frontier.as_slice() == version;
        }
        let Ok(start_idx) = self.entries.find_index(from) else {
            return false;
        };
        let first = &self.entries.0[start_idx];
        if first.span.start < from {
            // `from` lands inside a chain entry, so the tail's first
            // event implicitly has its predecessor as sole parent.
            if version != [from - 1] {
                return false;
            }
        } else if first.parents.as_slice() != version {
            return false;
        }
        // Every later entry must chain directly onto the one before it
        // (entries are dense in LV order, so `span.start - 1` is exactly
        // the previous entry's last event).
        self.entries.0[start_idx + 1..]
            .iter()
            .all(|e| e.parents.as_slice() == [e.span.start - 1])
    }

    /// Reassembles a graph from parts previously taken from an identical
    /// graph (`iter()`, `frontier()`, `criticals_runs()`) — the
    /// storage-image restore path.
    ///
    /// Unlike [`Graph::push`], nothing is re-derived per entry: no
    /// dominator reduction, no frontier advance, no criticals
    /// maintenance. The caller must have structurally validated the parts
    /// (dense spans from 0, parents sorted strictly ascending and below
    /// their span, frontier/criticals in range); deeper invariants —
    /// parents mutually concurrent, `frontier`/`criticals` matching what
    /// incremental maintenance would have produced — are trusted, which
    /// is why this is only fed from CRC-verified local storage. Root
    /// events are recomputed here (entries with no parents).
    pub fn from_parts(
        entries: Vec<GraphEntry>,
        frontier: Frontier,
        criticals: Vec<DTRange>,
    ) -> Self {
        let root_events = entries
            .iter()
            .filter(|e| e.parents.is_root())
            .map(|e| e.span.start)
            .collect();
        Graph {
            entries: RleVec(entries),
            root_events,
            frontier,
            criticals: RleVec(criticals),
        }
    }

    /// The graph's current version: the set of events with no children.
    pub fn frontier(&self) -> &Frontier {
        &self.frontier
    }

    /// Appends a run of events with the given parents.
    ///
    /// The events `span` form a linear chain whose first event has parents
    /// `parents`. Parents are dominator-reduced before storage, keeping the
    /// graph transitively reduced (paper §2.2).
    ///
    /// # Panics
    ///
    /// Panics if `span` does not start at [`Graph::len`] (LVs are dense and
    /// append-only) or if any parent is not an earlier event.
    pub fn push(&mut self, parents: &[LV], span: DTRange) {
        assert_eq!(span.start, self.len(), "graph LVs must be dense");
        assert!(!span.is_empty());
        for &p in parents {
            assert!(p < span.start, "parents must precede the new events");
        }
        let parents = self.find_dominators(parents);
        if parents.is_empty() {
            self.root_events.push(span.start);
        }

        // Maintain critical versions (§3.5).
        //
        // Condition B (every event after a critical `c` is a descendant of
        // `c`) is retroactively broken by the edges this push introduces:
        // each edge `(p, span.start)` makes any `c` with `p < c < span.start`
        // non-critical, and a new root makes everything before it
        // non-critical. Criticality never comes back, so truncation suffices.
        if parents.is_empty() {
            self.criticals = RleVec::new();
        } else {
            let min_parent = *parents.iter().min().unwrap();
            self.truncate_criticals_above(min_parent);
        }
        // Condition A (every event up to `v` is an ancestor of `v`) holds
        // for each event of the new run iff the run descends from the whole
        // current frontier.
        if self.frontier.iter().all(|v| parents.contains_entry(*v)) {
            self.criticals.push(span);
        }

        self.frontier.advance_by(span.last(), &parents);
        self.entries.push(GraphEntry { span, parents });
    }

    /// Drops recorded critical versions greater than `keep_max`.
    fn truncate_criticals_above(&mut self, keep_max: LV) {
        let v = &mut self.criticals.0;
        while let Some(last) = v.last_mut() {
            if last.start > keep_max {
                v.pop();
            } else {
                if last.end > keep_max + 1 {
                    last.end = keep_max + 1;
                }
                break;
            }
        }
    }

    /// Returns `true` if `{lv}` is a critical version of the current graph.
    pub fn is_critical(&self, lv: LV) -> bool {
        self.criticals.contains_key(lv)
    }

    /// The largest critical version `c <= lv`, if any.
    pub fn latest_critical_at_or_before(&self, lv: LV) -> Option<LV> {
        match self.criticals.find_index(lv) {
            Ok(_) => Some(lv),
            Err(idx) => {
                if idx == 0 {
                    None
                } else {
                    Some(self.criticals.0[idx - 1].last())
                }
            }
        }
    }

    /// The ascending runs of critical versions.
    pub fn criticals(&self) -> &RleVec<DTRange> {
        &self.criticals
    }

    /// The parents of a single event.
    pub fn parents_of(&self, lv: LV) -> Frontier {
        let (entry, offset) = self.entries.find_with_offset(lv).expect("LV out of bounds");
        if offset == 0 {
            entry.parents.clone()
        } else {
            Frontier::new_1(lv - 1)
        }
    }

    /// The entry (linear run) containing `lv`, with `lv`'s offset within it.
    pub fn entry_for(&self, lv: LV) -> (&GraphEntry, usize) {
        self.entries.find_with_offset(lv).expect("LV out of bounds")
    }

    /// The entries from the one holding `lv` on (untrimmed: the first may
    /// start before `lv`); empty when `lv` is out of bounds.
    pub fn entries_from(&self, lv: LV) -> &[GraphEntry] {
        self.entries.entries_from(lv)
    }

    /// LVs of the events with no parents.
    pub fn root_events(&self) -> &[LV] {
        &self.root_events
    }

    /// Iterates the (possibly trimmed) entries covering `range`.
    pub fn iter_range(&self, range: DTRange) -> impl Iterator<Item = GraphEntry> + '_ {
        self.entries.iter_range(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // 0-1-2 (chain), 3-4 branches off 0, 5 merges {2, 4}.
        let mut g = Graph::new();
        g.push(&[], (0..3).into());
        g.push(&[0], (3..5).into());
        g.push(&[2, 4], (5..6).into());
        g
    }

    #[test]
    fn push_and_query() {
        let g = sample();
        assert_eq!(g.len(), 6);
        assert_eq!(g.num_entries(), 3);
        assert_eq!(g.parents_of(0), Frontier::root());
        assert_eq!(g.parents_of(1), Frontier::new_1(0));
        assert_eq!(g.parents_of(3), Frontier::new_1(0));
        assert_eq!(g.parents_of(4), Frontier::new_1(3));
        assert_eq!(g.parents_of(5), Frontier::from_unsorted(&[2, 4]));
        assert_eq!(g.root_events(), &[0]);
        // A cursor from mid-run starts at the (untrimmed) entry holding it.
        let from = g.entries_from(4);
        assert_eq!(from.len(), 2);
        assert_eq!(from[0].span, (3..5).into());
        assert_eq!(g.entries_from(0).len(), 3);
        assert!(g.entries_from(6).is_empty());
    }

    #[test]
    fn chains_merge() {
        let mut g = Graph::new();
        g.push(&[], (0..2).into());
        g.push(&[1], (2..5).into()); // continues the chain: should merge
        assert_eq!(g.num_entries(), 1);
        assert_eq!(g.len(), 5);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_push_panics() {
        let mut g = Graph::new();
        g.push(&[], (1..2).into());
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn future_parent_panics() {
        let mut g = Graph::new();
        g.push(&[], (0..1).into());
        g.push(&[5], (1..2).into());
    }

    #[test]
    fn entry_split_semantics() {
        let mut e = GraphEntry {
            span: (10..20).into(),
            parents: Frontier::from_unsorted(&[3, 7]),
        };
        let tail = e.truncate(4);
        assert_eq!(e.span, (10..14).into());
        assert_eq!(tail.span, (14..20).into());
        assert_eq!(tail.parents, Frontier::new_1(13));
        // And they can re-merge.
        let mut e2 = e.clone();
        assert!(e2.can_append(&tail));
        e2.append(tail);
        assert_eq!(e2.span, (10..20).into());
    }

    #[test]
    fn sequential_extension() {
        // 0-1-2, 3-4 off 0, 5 merges {2,4}, then a chain 6-7-8 at the tip.
        let mut g = sample();
        g.push(&[5], (6..9).into());
        // The chain tail is sequential from the merge point…
        assert!(g.is_sequential_extension(6, &[5]));
        // …and from inside the chain (implicit predecessor parent).
        assert!(g.is_sequential_extension(7, &[6]));
        // `from` at the end: only the exact frontier matches.
        assert!(g.is_sequential_extension(9, &[8]));
        assert!(!g.is_sequential_extension(9, &[5]));
        // Wrong hang-off point.
        assert!(!g.is_sequential_extension(6, &[2]));
        assert!(!g.is_sequential_extension(7, &[5]));
        // A tail containing concurrency (3..6 includes the branch 3-4
        // concurrent with 1-2) is not sequential from anywhere.
        assert!(!g.is_sequential_extension(3, &[2]));
        assert!(!g.is_sequential_extension(0, &[]));
        // Whole-graph linear history IS sequential from the root.
        let mut lin = Graph::new();
        lin.push(&[], (0..4).into());
        lin.push(&[3], (4..6).into());
        assert!(lin.is_sequential_extension(0, &[]));
        assert!(lin.is_sequential_extension(4, &[3]));
    }

    #[test]
    fn iter_range_trims() {
        let g = sample();
        let got: Vec<GraphEntry> = g.iter_range((1..4).into()).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].span, (1..3).into());
        assert_eq!(got[0].parents, Frontier::new_1(0));
        assert_eq!(got[1].span, (3..4).into());
        assert_eq!(got[1].parents, Frontier::new_1(0));
    }
}
