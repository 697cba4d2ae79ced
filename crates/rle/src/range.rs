//! [`DTRange`]: the half-open integer range used throughout the suite.

use crate::{HasLength, HasRleKey, MergableSpan, SplitableSpan};
use std::fmt;
use std::ops::Range;

/// A half-open range `[start, end)` of `usize` values.
///
/// This is the workhorse span of the whole suite: ranges of local versions,
/// ranges of document positions, ranges of sequence numbers. It behaves like
/// [`std::ops::Range<usize>`] but is `Copy` and implements the RLE span
/// traits.
///
/// # Examples
///
/// ```
/// use eg_rle::{DTRange, HasLength};
/// let r = DTRange::from(3..8);
/// assert_eq!(r.len(), 5);
/// assert!(r.contains(4));
/// assert_eq!(r.intersect(&(6..20).into()), Some(DTRange::from(6..8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DTRange {
    /// First value in the range.
    pub start: usize,
    /// One past the last value in the range.
    pub end: usize,
}

impl DTRange {
    /// Creates a new range `[start, end)`.
    pub const fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// Creates a range covering exactly one value.
    pub(crate) const fn single(value: usize) -> Self {
        Self {
            start: value,
            end: value + 1,
        }
    }

    /// Returns the last value in the range.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the range is empty.
    pub fn last(&self) -> usize {
        debug_assert!(self.end > self.start);
        self.end - 1
    }

    /// Returns `true` if `value` lies within the range.
    pub fn contains(&self, value: usize) -> bool {
        value >= self.start && value < self.end
    }

    /// Returns `true` if `other` is entirely contained in `self`.
    pub fn contains_range(&self, other: &DTRange) -> bool {
        other.start >= self.start && other.end <= self.end
    }

    /// Returns the overlap between the two ranges, if any.
    ///
    /// An empty overlap (ranges that merely touch) yields `None`.
    pub fn intersect(&self, other: &DTRange) -> Option<DTRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(DTRange { start, end })
        } else {
            None
        }
    }

    /// Iterates the values in the range, in ascending order.
    pub fn iter(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Returns the sub-range starting `offset` items in.
    pub fn suffix(&self, offset: usize) -> Self {
        debug_assert!(offset <= crate::HasLength::len(self));
        Self {
            start: self.start + offset,
            end: self.end,
        }
    }

    /// Returns the first `len` items of the range.
    pub fn prefix(&self, len: usize) -> Self {
        debug_assert!(len <= crate::HasLength::len(self));
        Self {
            start: self.start,
            end: self.start + len,
        }
    }
}

impl fmt::Display for DTRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end)
    }
}

impl From<Range<usize>> for DTRange {
    fn from(r: Range<usize>) -> Self {
        Self {
            start: r.start,
            end: r.end,
        }
    }
}

impl From<DTRange> for Range<usize> {
    fn from(r: DTRange) -> Self {
        r.start..r.end
    }
}

impl From<usize> for DTRange {
    fn from(value: usize) -> Self {
        Self::single(value)
    }
}

impl IntoIterator for DTRange {
    type Item = usize;
    type IntoIter = Range<usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.start..self.end
    }
}

impl HasLength for DTRange {
    fn len(&self) -> usize {
        self.end - self.start
    }
}

impl SplitableSpan for DTRange {
    fn truncate(&mut self, at: usize) -> Self {
        debug_assert!(at > 0 && at < HasLength::len(self));
        let rem = Self {
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        rem
    }
}

impl MergableSpan for DTRange {
    fn can_append(&self, other: &Self) -> bool {
        self.end == other.start
    }

    fn append(&mut self, other: Self) {
        self.end = other.end;
    }
}

impl HasRleKey for DTRange {
    fn rle_key(&self) -> usize {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let r = DTRange::from(2..6);
        assert_eq!(HasLength::len(&r), 4);
        assert!(!r.is_empty());
        assert!(r.contains(2));
        assert!(!r.contains(6));
        assert_eq!(r.last(), 5);
        assert_eq!(r.to_string(), "[2..6)");
    }

    #[test]
    fn intersect_cases() {
        let a = DTRange::from(0..10);
        assert_eq!(a.intersect(&(5..15).into()), Some((5..10).into()));
        assert_eq!(a.intersect(&(10..15).into()), None);
        assert_eq!(a.intersect(&(3..7).into()), Some((3..7).into()));
        assert!(a.contains_range(&(3..7).into()));
        assert!(!a.contains_range(&(3..17).into()));
    }

    #[test]
    fn split_merge_roundtrip() {
        let mut r = DTRange::from(10..20);
        let tail = r.truncate(4);
        assert_eq!(r, (10..14).into());
        assert_eq!(tail, (14..20).into());
        assert!(r.can_append(&tail));
        r.append(tail);
        assert_eq!(r, (10..20).into());
    }

    #[test]
    fn prefix_suffix() {
        let r = DTRange::from(10..20);
        assert_eq!(r.prefix(3), (10..13).into());
        assert_eq!(r.suffix(3), (13..20).into());
    }

    #[test]
    fn iteration() {
        let r = DTRange::from(3..6);
        let v: Vec<usize> = r.into_iter().collect();
        assert_eq!(v, vec![3, 4, 5]);
    }
}
