//! [`IntervalMap`]: a mutable RLE map from key ranges to values.

use crate::DTRange;
use std::collections::BTreeMap;

/// A map from `usize` key ranges to copyable values, with O(log n) point
/// queries and range assignment.
///
/// Adjacent ranges holding equal values are coalesced. The Eg-walker tracker
/// uses this for its ID → record indexes (the paper's "second B-tree",
/// §3.4): ranges of insert-event IDs map to the tree leaf holding their
/// record, and must be re-pointed when leaves split.
///
/// # Examples
///
/// ```
/// use eg_rle::IntervalMap;
/// let mut m: IntervalMap<u32> = IntervalMap::new();
/// m.set((0..10).into(), 1);
/// m.set((4..6).into(), 2);
/// assert_eq!(m.get(5), Some(((4..6).into(), 2)));
/// assert_eq!(m.get(8), Some(((6..10).into(), 1)));
/// assert_eq!(m.num_entries(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IntervalMap<V> {
    // Key: range start. Value: (range length, value).
    entries: BTreeMap<usize, (usize, V)>,
}

// Manual impl: the derive would needlessly require `V: Default`.
impl<V> Default for IntervalMap<V> {
    fn default() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }
}

impl<V: Copy + Eq> IntervalMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// The number of coalesced entries stored.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes all entries.
    ///
    /// Entry by entry rather than with `BTreeMap::clear`, which frees the
    /// root node as well: the tracker clears this map at every critical
    /// version and refills it with a handful of ranges, and an emptied
    /// tree keeps its root for the refill.
    pub fn clear(&mut self) {
        while self.entries.pop_last().is_some() {}
    }

    /// Looks up the entry covering `key`, returning the covering range and
    /// its value.
    pub fn get(&self, key: usize) -> Option<(DTRange, V)> {
        let (&start, &(len, val)) = self.entries.range(..=key).next_back()?;
        if key < start + len {
            Some(((start..start + len).into(), val))
        } else {
            None
        }
    }

    /// Assigns `val` to every key in `range`, splitting and overwriting any
    /// existing assignments, then coalescing with equal-valued neighbours.
    pub fn set(&mut self, range: DTRange, val: V) {
        if range.start >= range.end {
            return;
        }
        // Fast paths for the dominant callers (split-notification streams
        // from the tracker's record tree): re-asserting an existing
        // assignment, and extending the previous run with the same value.
        // Both avoid the split/remove/reinsert/coalesce machinery below.
        if let Some((&ls, &(llen, lval))) = self.entries.range(..=range.start).next_back() {
            let lend = ls + llen;
            if lval == val {
                if lend >= range.end {
                    // Fully covered by an equal-valued run: no-op.
                    return;
                }
                if lend == range.start
                    && self.entries.range(range.start..range.end).next().is_none()
                {
                    // Appends directly after an equal-valued run, with
                    // nothing overwritten: extend it in place.
                    self.entries.get_mut(&ls).expect("left entry").0 = range.end - ls;
                    self.coalesce_around(ls);
                    return;
                }
            }
        }
        // Split an entry that straddles the left edge of `range`.
        if let Some((&start, &(len, v))) = self.entries.range(..range.start).next_back() {
            let end = start + len;
            if end > range.start {
                // Truncate the straddling entry; re-add its right part (which
                // may itself straddle the right edge of `range`).
                self.entries.insert(start, (range.start - start, v));
                if end > range.end {
                    self.entries.insert(range.end, (end - range.end, v));
                }
            }
        }
        // Remove / trim entries starting inside `range`. (A trimmed
        // remainder is re-added at `range.end`, outside the scan.)
        while let Some((&s, _)) = self.entries.range(range.start..range.end).next() {
            let (len, v) = self.entries.remove(&s).unwrap();
            let end = s + len;
            if end > range.end {
                self.entries.insert(range.end, (end - range.end, v));
            }
        }
        // Insert the new assignment.
        self.entries
            .insert(range.start, (crate::HasLength::len(&range), val));
        self.coalesce_around(range.start);
    }

    /// Merges the entry starting at `start` with equal-valued neighbours.
    fn coalesce_around(&mut self, start: usize) {
        let (len, val) = *self.entries.get(&start).unwrap();
        let mut start = start;
        let mut len = len;
        // Merge with the left neighbour.
        if let Some((&ls, &(llen, lval))) = self.entries.range(..start).next_back() {
            if ls + llen == start && lval == val {
                self.entries.remove(&start);
                start = ls;
                len += llen;
                self.entries.insert(start, (len, val));
            }
        }
        // Merge with the right neighbour.
        if let Some((&rs, &(rlen, rval))) = self.entries.range(start + 1..).next() {
            if start + len == rs && rval == val {
                self.entries.remove(&rs);
                len += rlen;
                self.entries.insert(start, (len, val));
            }
        }
    }

    /// Iterates `(range, value)` entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (DTRange, V)> + '_ {
        self.entries
            .iter()
            .map(|(&s, &(len, v))| ((s..s + len).into(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_lookup() {
        let m: IntervalMap<u8> = IntervalMap::new();
        assert_eq!(m.get(0), None);
        assert!(m.is_empty());
    }

    #[test]
    fn basic_set_get() {
        let mut m = IntervalMap::new();
        m.set((5..10).into(), 'a');
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(5), Some(((5..10).into(), 'a')));
        assert_eq!(m.get(9), Some(((5..10).into(), 'a')));
        assert_eq!(m.get(10), None);
    }

    #[test]
    fn overwrite_middle_splits() {
        let mut m = IntervalMap::new();
        m.set((0..10).into(), 1);
        m.set((3..7).into(), 2);
        assert_eq!(m.get(0), Some(((0..3).into(), 1)));
        assert_eq!(m.get(5), Some(((3..7).into(), 2)));
        assert_eq!(m.get(9), Some(((7..10).into(), 1)));
        assert_eq!(m.num_entries(), 3);
    }

    #[test]
    fn overwrite_spanning_multiple() {
        let mut m = IntervalMap::new();
        m.set((0..4).into(), 1);
        m.set((4..8).into(), 2);
        m.set((8..12).into(), 3);
        m.set((2..10).into(), 9);
        assert_eq!(m.get(1), Some(((0..2).into(), 1)));
        assert_eq!(m.get(5), Some(((2..10).into(), 9)));
        assert_eq!(m.get(11), Some(((10..12).into(), 3)));
    }

    #[test]
    fn coalescing() {
        let mut m = IntervalMap::new();
        m.set((0..5).into(), 7);
        m.set((5..10).into(), 7);
        assert_eq!(m.num_entries(), 1);
        assert_eq!(m.get(9), Some(((0..10).into(), 7)));
        // Overwriting the middle with the same value keeps one entry.
        m.set((2..4).into(), 7);
        assert_eq!(m.num_entries(), 1);
    }

    #[test]
    fn set_identical_range_new_value() {
        let mut m = IntervalMap::new();
        m.set((0..5).into(), 1);
        m.set((0..5).into(), 2);
        assert_eq!(m.get(2), Some(((0..5).into(), 2)));
        assert_eq!(m.num_entries(), 1);
    }

    #[test]
    fn disjoint_ranges() {
        let mut m = IntervalMap::new();
        m.set((0..2).into(), 1);
        m.set((10..12).into(), 1);
        assert_eq!(m.num_entries(), 2);
        assert_eq!(m.get(5), None);
    }

    /// Model-based test against a plain Vec<Option<V>>.
    #[test]
    fn model_random_ops() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        const UNIVERSE: usize = 200;
        let mut model: Vec<Option<u8>> = vec![None; UNIVERSE];
        let mut map: IntervalMap<u8> = IntervalMap::new();
        let mut seed = 0xfeed_f00d_u64;
        let mut next = |bound: usize| {
            let mut h = DefaultHasher::new();
            seed.hash(&mut h);
            seed = h.finish();
            (seed as usize) % bound
        };
        for _ in 0..500 {
            let a = next(UNIVERSE);
            let b = next(UNIVERSE);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let v = next(4) as u8;
            map.set((lo..hi + 1).into(), v);
            for slot in model.iter_mut().take(hi + 1).skip(lo) {
                *slot = Some(v);
            }
            // Check a few random probes.
            for _ in 0..10 {
                let k = next(UNIVERSE);
                assert_eq!(map.get(k).map(|(_, v)| v), model[k], "probe at {k}");
            }
        }
        // Entries must be coalesced: no two adjacent entries with equal value.
        let entries: Vec<_> = map.iter().collect();
        for w in entries.windows(2) {
            let (r0, v0) = w[0];
            let (r1, v1) = w[1];
            assert!(r0.end <= r1.start);
            assert!(!(r0.end == r1.start && v0 == v1), "uncoalesced entries");
        }
    }
}
