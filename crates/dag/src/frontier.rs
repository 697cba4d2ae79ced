//! [`Frontier`]: a document version, i.e. the maximal events of a causally
//! closed event set (paper §2.3).

use crate::LV;
use std::fmt;
use std::ops::Deref;

/// A document version: a sorted set of mutually concurrent event LVs.
///
/// The version of an event graph `G` is its frontier — the events with no
/// children (paper §2.3). The empty frontier is the *root* version (the
/// empty document, before any event). Frontiers are almost always tiny (one
/// or two entries), since a frontier with `n` entries only arises when `n`
/// mutually concurrent events are merged with no new events in between.
///
/// Invariant: entries are strictly ascending, and (when used with a graph)
/// mutually concurrent. Constructors from unsorted data sort and de-dup;
/// concurrency is the caller's responsibility (use
/// [`crate::Graph::find_dominators`] to reduce an arbitrary set).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Frontier(pub Vec<LV>);

impl Frontier {
    /// The root version: the empty document, before any event.
    pub const fn root() -> Self {
        Self(Vec::new())
    }

    /// A version consisting of a single event.
    pub fn new_1(lv: LV) -> Self {
        Self(vec![lv])
    }

    /// Overwrites this frontier with the single event `lv`, retaining the
    /// backing allocation (the zero-alloc counterpart of [`Frontier::new_1`]
    /// for hot loops that move a version forward run by run).
    pub fn replace_with_1(&mut self, lv: LV) {
        self.0.clear();
        self.0.push(lv); // ALLOC: 1-slot vec reuse, capacity retained
    }

    /// Builds a frontier from unsorted LVs, sorting and de-duplicating.
    pub fn from_unsorted(lvs: &[LV]) -> Self {
        let mut v = lvs.to_vec();
        v.sort_unstable();
        v.dedup();
        Self(v)
    }

    /// Returns `true` if this is the root version.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns the sole entry if the frontier has exactly one.
    pub fn try_get_single(&self) -> Option<LV> {
        if self.0.len() == 1 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Returns `true` if `lv` is one of the frontier's entries.
    pub(crate) fn contains_entry(&self, lv: LV) -> bool {
        self.0.binary_search(&lv).is_ok()
    }

    /// Inserts `lv` keeping the entries sorted (no-op if present).
    pub(crate) fn insert(&mut self, lv: LV) {
        if let Err(idx) = self.0.binary_search(&lv) {
            self.0.insert(idx, lv);
        }
    }

    /// Removes `lv` if present.
    pub fn remove(&mut self, lv: LV) {
        if let Ok(idx) = self.0.binary_search(&lv) {
            self.0.remove(idx);
        }
    }

    /// Replaces this frontier with the result of appending an event.
    ///
    /// `parents` are the parents of the new event `lv`. All parents that are
    /// frontier entries are removed and `lv` is inserted. This implements
    /// version advancement (paper §2.2: "the previous frontier ... becomes
    /// the new event's parents") and is correct whenever `parents ⊆
    /// Events(self)` and `self` is a true frontier.
    pub fn advance_by(&mut self, lv: LV, parents: &[LV]) {
        self.0.retain(|v| !parents.contains(v));
        self.insert(lv);
    }

    /// The entries as a slice.
    pub fn as_slice(&self) -> &[LV] {
        &self.0
    }
}

impl Deref for Frontier {
    type Target = [LV];

    fn deref(&self) -> &[LV] {
        &self.0
    }
}

impl From<Vec<LV>> for Frontier {
    fn from(mut v: Vec<LV>) -> Self {
        v.sort_unstable();
        v.dedup();
        Self(v)
    }
}

impl From<&[LV]> for Frontier {
    fn from(v: &[LV]) -> Self {
        Self::from_unsorted(v)
    }
}

impl<const N: usize> From<[LV; N]> for Frontier {
    fn from(v: [LV; N]) -> Self {
        Self::from_unsorted(&v)
    }
}

impl fmt::Display for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        let f = Frontier::root();
        assert!(f.is_root());
        assert_eq!(f.try_get_single(), None);
        assert_eq!(f.to_string(), "{}");
    }

    #[test]
    fn from_unsorted_dedups() {
        let f = Frontier::from_unsorted(&[5, 1, 5, 3]);
        assert_eq!(f.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn insert_remove() {
        let mut f = Frontier::from_unsorted(&[1, 5]);
        f.insert(3);
        assert_eq!(f.as_slice(), &[1, 3, 5]);
        f.insert(3);
        assert_eq!(f.as_slice(), &[1, 3, 5]);
        f.remove(1);
        assert_eq!(f.as_slice(), &[3, 5]);
        assert!(f.contains_entry(3));
        assert!(!f.contains_entry(1));
    }

    #[test]
    fn advance_replaces_parents() {
        let mut f = Frontier::from_unsorted(&[4, 7]);
        // New event 9 whose parents are {4, 7}: frontier collapses to {9}.
        f.advance_by(9, &[4, 7]);
        assert_eq!(f.as_slice(), &[9]);
        // New event 12 with parent {2} (an older event): 9 stays.
        f.advance_by(12, &[2]);
        assert_eq!(f.as_slice(), &[9, 12]);
    }

    #[test]
    fn single() {
        let f = Frontier::new_1(3);
        assert_eq!(f.try_get_single(), Some(3));
        assert_eq!(f.to_string(), "{3}");
    }
}
