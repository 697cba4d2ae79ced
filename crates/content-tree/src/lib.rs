//! A generic order-statistic B-tree over run-length-encoded spans.
//!
//! This is the "ranked B-tree" of the paper's §3.4: a balanced tree whose
//! leaves hold RLE entries and whose internal nodes cache, per child, the
//! total width of the subtree in **two dimensions**. The Eg-walker tracker
//! uses the dimensions for "number of characters visible in the prepare
//! version" (`cur`) and "… in the effect version" (`end`); the rope uses the
//! same width in both.
//!
//! Supported queries and updates, all `O(log n)`:
//!
//! * find the entry containing the *k*-th visible unit in the `cur`
//!   dimension, simultaneously reporting the `end`-dimension offset of that
//!   unit ([`ContentTree::cursor_at_cur_unit`]);
//! * insert an entry at a cursor ([`ContentTree::insert_at`]), with RLE
//!   append to the preceding entry when possible;
//! * mutate the state of a sub-range of an entry
//!   ([`ContentTree::mutate_entry`]), splitting as needed and repairing the
//!   cached widths along the path to the root;
//! * walk *upwards* from a leaf to compute the global offset of an entry
//!   ([`ContentTree::offset_of`]) — used after ID-index lookups;
//! * leaf-split notifications so callers can maintain an ID → leaf index
//!   (the paper's "second B-tree").
//!
//! Entries must be **uniform**: within one entry, every unit is either
//! visible or invisible in each dimension (so an entry's width per dimension
//! is `0` or `len`). The tree relies on this to convert width offsets to raw
//! offsets. Entries with mixed state must be split by the caller first —
//! the Eg-walker tracker's spans are uniform by construction.
//!
//! # Memory layout: typed slab arenas
//!
//! Nodes live in two typed slabs — one `Vec` of leaf nodes, one of internal
//! nodes — addressed by [`LeafIdx`] (a `NonZeroU32` wrapper, so
//! `Option<LeafIdx>` is 4 bytes). Every node stores its payload in inline
//! `[_; N]` arrays plus a length: a leaf is `parent + prev/next chain links
//! + [E; N]`, an internal node is `parent + ([child_id; N], [Widths; N])`.
//! Nodes therefore pack cache-line-dense and allocate nothing individually;
//! heap traffic only happens when a slab's `Vec` doubles.
//!
//! ## Free lists and the reuse contract
//!
//! Leaves emptied by [`ContentTree::delete_cur_range`] and internal nodes
//! that lose their last child are unlinked and parked on per-slab free
//! lists; subsequent splits pop from the free list before growing the slab.
//! [`ContentTree::clear`] truncates both slabs **in place** (dropping entry
//! payloads but keeping the `Vec` capacity), so the next build-up to a
//! similar size performs *zero* allocator calls. The Eg-walker tracker
//! leans on this contract twice: its §3.5 critical-version clears inside a
//! single merge, and whole-tracker reuse across merges.
//!
//! Entries must implement `Default` (vacated inline slots are reset to the
//! default value so any heap memory an entry owns is released eagerly).

mod tree;

pub use tree::{ArenaStats, ContentTree, Cursor, LeafIdx, RunStep, TreeIter, Widths};

use eg_rle::{HasLength, MergableSpan, SplitableSpan};

/// An entry storable in a [`ContentTree`].
///
/// `Default` is required by the inline-array node layout: unoccupied slots
/// hold default values, and vacated slots are reset to the default so
/// entry-owned heap memory is released as soon as the entry is removed.
pub trait TreeEntry:
    Clone + Default + HasLength + SplitableSpan + MergableSpan + std::fmt::Debug
{
    /// Width of the entry in the `cur` (primary / prepare) dimension.
    ///
    /// Must equal `0` or `self.len()`.
    fn width_cur(&self) -> usize;

    /// Width of the entry in the `end` (secondary / effect) dimension.
    ///
    /// Must equal `0` or `self.len()`.
    fn width_end(&self) -> usize;
}
