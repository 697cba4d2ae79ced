//! [`RleVec`]: an append-optimised vector of mergeable spans, and
//! [`KVPair`]: a span positioned at an explicit key.

use crate::{HasLength, HasRleKey, MergableSpan, SplitableSpan};

/// A span paired with the key (position on the RLE axis) where it starts.
///
/// `KVPair(k, v)` covers keys `[k, k + v.len())`. This is the standard way to
/// store *sparse* RLE data — for example "delete event 100 targeted character
/// votes 57..60" is `KVPair(100, target_run)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KVPair<V>(pub usize, pub V);

impl<V: HasLength> KVPair<V> {
    /// The key range covered by this pair.
    pub fn range(&self) -> crate::DTRange {
        (self.0..self.0 + self.1.len()).into()
    }

    /// The key one past the end of this pair.
    pub fn end(&self) -> usize {
        self.0 + self.1.len()
    }
}

impl<V: HasLength> HasLength for KVPair<V> {
    fn len(&self) -> usize {
        self.1.len()
    }
}

impl<V> HasRleKey for KVPair<V> {
    fn rle_key(&self) -> usize {
        self.0
    }
}

impl<V: SplitableSpan + HasLength> SplitableSpan for KVPair<V> {
    fn truncate(&mut self, at: usize) -> Self {
        let rem = self.1.truncate(at);
        KVPair(self.0 + at, rem)
    }
}

impl<V: MergableSpan + HasLength> MergableSpan for KVPair<V> {
    fn can_append(&self, other: &Self) -> bool {
        self.end() == other.0 && self.1.can_append(&other.1)
    }

    fn append(&mut self, other: Self) {
        self.1.append(other.1);
    }
}

// `HasRleKey` for pairs whose value has no key of its own.
impl<V> KVPair<V> {
    /// The key where this pair starts.
    pub fn key(&self) -> usize {
        self.0
    }
}

/// An append-optimised vector of spans, run-length encoding on push.
///
/// Spans are kept sorted by their RLE key (callers append in key order).
/// [`RleVec::push`] merges the new span into the final entry when possible,
/// so bursty input collapses to very few entries. Lookup by key is a binary
/// search.
///
/// # Examples
///
/// ```
/// use eg_rle::{DTRange, RleVec};
/// let mut v: RleVec<DTRange> = RleVec::new();
/// v.push((0..5).into());
/// v.push((5..9).into()); // merges
/// v.push((12..13).into());
/// assert_eq!(v.num_entries(), 2);
/// let (entry, offset) = v.find_with_offset(7).unwrap();
/// assert_eq!(*entry, (0..9).into());
/// assert_eq!(offset, 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleVec<T>(pub Vec<T>);

impl<T> Default for RleVec<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> RleVec<T> {
    /// Creates an empty vector.
    pub const fn new() -> Self {
        Self(Vec::new())
    }

    /// The number of RLE entries (not items) stored.
    pub fn num_entries(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if no spans are stored.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the stored entries.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// The final entry, if any.
    pub fn last(&self) -> Option<&T> {
        self.0.last()
    }
}

impl<T: HasLength> RleVec<T> {
    /// The total number of items across all entries.
    pub fn item_len(&self) -> usize {
        self.0.iter().map(|e| e.len()).sum()
    }
}

impl<T: MergableSpan> RleVec<T> {
    /// Appends a span, merging it into the last entry when possible.
    ///
    /// Returns `true` if the span was merged rather than appended.
    pub fn push(&mut self, span: T) -> bool {
        if let Some(last) = self.0.last_mut() {
            if last.can_append(&span) {
                last.append(span);
                return true;
            }
        }
        self.0.push(span);
        false
    }
}

impl<T: HasRleKey + HasLength> RleVec<T> {
    /// Finds the index of the entry containing `key`, if any.
    pub fn find_index(&self, key: usize) -> Result<usize, usize> {
        self.0.binary_search_by(|e| {
            let start = e.rle_key();
            if key < start {
                std::cmp::Ordering::Greater
            } else if key >= start + e.len() {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
    }

    /// Returns the entry containing `key`, if any.
    pub fn find(&self, key: usize) -> Option<&T> {
        self.find_index(key).ok().map(|idx| &self.0[idx])
    }

    /// Returns the entry containing `key` along with `key`'s offset within
    /// that entry.
    pub fn find_with_offset(&self, key: usize) -> Option<(&T, usize)> {
        self.find_index(key).ok().map(|idx| {
            let e = &self.0[idx];
            (e, key - e.rle_key())
        })
    }

    /// The entries from the one containing `key` on — untrimmed, so the
    /// first may start before `key` — or from the first one past `key` when
    /// none contains it. One search positions a cursor over a run list
    /// that a caller reading ascending keys then only advances.
    pub fn entries_from(&self, key: usize) -> &[T] {
        let idx = self.find_index(key).unwrap_or_else(|next| next);
        &self.0[idx..]
    }

    /// Returns `true` if `key` falls inside a stored span.
    pub fn contains_key(&self, key: usize) -> bool {
        self.find_index(key).is_ok()
    }

    /// The key one past the highest stored key, or 0 when empty.
    pub fn end_key(&self) -> usize {
        self.0.last().map(|e| e.rle_key() + e.len()).unwrap_or(0)
    }
}

impl<T: HasRleKey + HasLength + SplitableSpan> RleVec<T> {
    /// Iterates over the items of `range`, yielding the (possibly trimmed)
    /// entries that cover it.
    ///
    /// Entries must fully cover the requested range.
    ///
    /// # Panics
    ///
    /// Panics if part of `range` is not covered by any entry.
    pub fn iter_range(&self, range: crate::DTRange) -> RleVecRangeIter<'_, T> {
        RleVecRangeIter { vec: self, range }
    }
}

/// Iterator over the entries covering a key range. See [`RleVec::iter_range`].
pub struct RleVecRangeIter<'a, T> {
    vec: &'a RleVec<T>,
    range: crate::DTRange,
}

impl<T: HasRleKey + HasLength + SplitableSpan> Iterator for RleVecRangeIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        use crate::HasLength as _;
        if self.range.is_empty() {
            return None;
        }
        let (entry, offset) = self
            .vec
            .find_with_offset(self.range.start)
            .unwrap_or_else(|| panic!("key {} not found in RleVec", self.range.start));
        let mut e = entry.clone();
        if offset > 0 {
            e = {
                let mut head = e;
                head.truncate(offset)
            };
        }
        let remaining = self.range.len();
        if e.len() > remaining {
            e.truncate(remaining);
        }
        self.range.start += e.len();
        Some(e)
    }
}

impl<T> FromIterator<T> for RleVec<T>
where
    T: MergableSpan,
{
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = RleVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T> IntoIterator for &'a RleVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DTRange, RleRun};

    #[test]
    fn push_merges() {
        let mut v: RleVec<DTRange> = RleVec::new();
        assert!(!v.push((0..3).into()));
        assert!(v.push((3..6).into()));
        assert!(!v.push((8..9).into()));
        assert_eq!(v.num_entries(), 2);
        assert_eq!(v.item_len(), 7);
    }

    #[test]
    fn find_cases() {
        let mut v: RleVec<DTRange> = RleVec::new();
        v.push((0..5).into());
        v.push((10..15).into());
        assert_eq!(v.find(3), Some(&(0..5).into()));
        assert_eq!(v.find(7), None);
        assert_eq!(v.find_with_offset(12), Some((&(10..15).into(), 2)));
        assert!(v.contains_key(14));
        assert!(!v.contains_key(15));
        assert_eq!(v.end_key(), 15);
    }

    #[test]
    fn kvpair_semantics() {
        let mut kv = KVPair(10, RleRun::new('a', 5));
        assert_eq!(kv.range(), (10..15).into());
        let tail = kv.truncate(2);
        assert_eq!(kv, KVPair(10, RleRun::new('a', 2)));
        assert_eq!(tail, KVPair(12, RleRun::new('a', 3)));
        let mut a = kv;
        assert!(a.can_append(&tail));
        a.append(tail);
        assert_eq!(a.end(), 15);
    }

    #[test]
    fn kvpair_gap_blocks_merge() {
        let a = KVPair(0, RleRun::new('a', 2));
        let b = KVPair(5, RleRun::new('a', 2));
        assert!(!a.can_append(&b));
    }

    #[test]
    fn iter_range_trims_both_ends() {
        let mut v: RleVec<DTRange> = RleVec::new();
        v.push((0..5).into());
        v.push((5..10).into()); // merged: one entry 0..10
        v.push((20..30).into());
        let got: Vec<DTRange> = v.iter_range((3..8).into()).collect();
        assert_eq!(got, vec![DTRange::from(3..8)]);
        let got: Vec<DTRange> = v.iter_range((8..10).into()).collect();
        assert_eq!(got, vec![DTRange::from(8..10)]);
        let got: Vec<DTRange> = v.iter_range((25..30).into()).collect();
        assert_eq!(got, vec![DTRange::from(25..30)]);
        // A cursor: untrimmed from the entry holding the key, the next one
        // from a gap, nothing past the end.
        assert_eq!(v.entries_from(3), v.0);
        assert_eq!(v.entries_from(12), [DTRange::from(20..30)]);
        assert!(v.entries_from(30).is_empty());
    }

    #[test]
    fn from_iterator_merges() {
        let v: RleVec<DTRange> = [(0..2).into(), (2..4).into(), (7..8).into()]
            .into_iter()
            .collect();
        assert_eq!(v.num_entries(), 2);
    }
}
