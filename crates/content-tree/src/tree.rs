//! The B-tree implementation. See the crate docs for the design.
//!
//! # Slab layout
//!
//! Leaves and internal nodes live in two separate typed slabs (`Vec`s of
//! fixed-size nodes), addressed by [`LeafIdx`] / `InternalIdx` — thin
//! `NonZeroU32` wrappers, so `Option<LeafIdx>` packs into 4 bytes via the
//! niche. Each node stores its children / widths / entries in inline
//! `[_; N]` arrays plus a length ([`InlineVec`]), so a node is one
//! contiguous block with zero per-node heap allocation: growing the tree
//! only ever allocates when a *slab* doubles.
//!
//! Freed nodes (leaves emptied by [`ContentTree::delete_cur_range`] and
//! internals that lose their last child) park on per-slab free lists and
//! are handed out again by the next split. [`ContentTree::clear`] truncates
//! the slabs in place, so a cleared tree rebuilds to its previous size
//! without touching the allocator — the contract the Eg-walker tracker
//! relies on when it is reused across merge windows.
//!
//! Unlike the previous `Vec`-per-node layout, nodes never overflow their
//! arrays: inserts split *before* writing (`N >= 4` guarantees one split
//! always makes enough room for the at-most-two entries any single
//! operation adds).

use crate::TreeEntry;
use std::num::NonZeroU32;

/// Index of a leaf node in the tree's leaf slab.
///
/// Stored as `slot + 1` in a `NonZeroU32`, so `Option<LeafIdx>` is 4 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct LeafIdx(NonZeroU32);

impl LeafIdx {
    #[inline]
    fn new(slot: usize) -> Self {
        // `slot as u32 + 1` wraps to 0 on overflow, which the constructor
        // rejects — so slab growth past u32::MAX slots panics cleanly.
        LeafIdx(NonZeroU32::new(slot as u32 + 1).expect("leaf slab overflow"))
    }

    #[inline]
    fn from_raw(raw: u32) -> Self {
        LeafIdx(NonZeroU32::new(raw).expect("zero leaf id"))
    }

    #[inline]
    fn raw(self) -> u32 {
        self.0.get()
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl std::fmt::Debug for LeafIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.slot())
    }
}

/// Index of an internal node in the tree's internal slab (`slot + 1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
struct InternalIdx(NonZeroU32);

impl InternalIdx {
    #[inline]
    fn new(slot: usize) -> Self {
        InternalIdx(NonZeroU32::new(slot as u32 + 1).expect("internal slab overflow"))
    }

    #[inline]
    fn from_raw(raw: u32) -> Self {
        InternalIdx(NonZeroU32::new(raw).expect("zero internal id"))
    }

    #[inline]
    fn raw(self) -> u32 {
        self.0.get()
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl std::fmt::Debug for InternalIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "I{}", self.slot())
    }
}

/// A node reference: which slab, which slot. All children of one internal
/// node are the same kind (the tree is height-balanced), so internals store
/// raw ids plus a single kind flag rather than this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Leaf(LeafIdx),
    Internal(InternalIdx),
}

impl NodeRef {
    #[inline]
    fn raw(self) -> u32 {
        match self {
            NodeRef::Leaf(l) => l.raw(),
            NodeRef::Internal(i) => i.raw(),
        }
    }
}

/// Default fanout of a [`ContentTree`]: maximum children per internal node
/// and maximum entries per leaf. Settled by two sweeps over 8/16/32/64 on
/// the tracker's workload (`crates/core/README.md`, "Fanout tuning").
pub const DEFAULT_FANOUT: usize = 16;

/// A fixed-capacity inline vector: `N` slots in the node itself, no heap.
///
/// Invariant: slots at and beyond `len` always hold `T::default()`, so
/// removing an entry releases any heap memory it owns (e.g. a rope chunk's
/// string buffer) immediately rather than when the slot is next written.
#[derive(Clone)]
struct InlineVec<T, const N: usize> {
    items: [T; N],
    len: u32,
}

impl<T, const N: usize> InlineVec<T, N> {
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    fn new() -> Self {
        InlineVec {
            items: std::array::from_fn(|_| T::default()),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, v: T) {
        let len = self.len();
        assert!(len < N, "inline vec overflow");
        self.items[len] = v;
        self.len += 1;
    }

    fn insert(&mut self, at: usize, v: T) {
        let len = self.len();
        assert!(len < N && at <= len, "inline vec overflow");
        // Rotate the default at items[len] down to `at`, then overwrite it.
        self.items[at..=len].rotate_right(1);
        self.items[at] = v;
        self.len += 1;
    }

    fn remove(&mut self, at: usize) -> T {
        let len = self.len();
        assert!(at < len, "inline vec index out of bounds");
        let v = std::mem::take(&mut self.items[at]);
        // Shift the tail left; the vacated default ends up at len - 1.
        self.items[at..len].rotate_left(1);
        self.len -= 1;
        v
    }

    /// Moves `[at..len)` into a fresh `InlineVec`, leaving defaults behind.
    fn split_off_tail(&mut self, at: usize) -> Self {
        let mut out = Self::new();
        for i in at..self.len() {
            out.push(std::mem::take(&mut self.items[i])); // ALLOC: InlineVec, fixed inline capacity, no heap
        }
        self.len = at as u32;
        out
    }

    fn clear(&mut self) {
        for i in 0..self.len() {
            self.items[i] = T::default();
        }
        self.len = 0;
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice().iter()).finish()
    }
}

/// Subtree widths in the two tracked dimensions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Widths {
    /// Total width in the `cur` (primary / prepare) dimension.
    pub cur: usize,
    /// Total width in the `end` (secondary / effect) dimension.
    pub end: usize,
    /// Total raw units (every unit counts, visible or not).
    pub raw: usize,
}

impl Widths {
    fn of<E: TreeEntry>(e: &E) -> Self {
        Widths {
            cur: e.width_cur(),
            end: e.width_end(),
            raw: e.len(),
        }
    }

    fn add(&mut self, other: Widths) {
        self.cur += other.cur;
        self.end += other.end;
        self.raw += other.raw;
    }
}

/// A signed change to cached [`Widths`], for the O(depth) incremental
/// repair path (mutations and RLE appends change ancestor totals by a
/// known amount; recomputing node totals per level is O(depth × fanout)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WidthsDelta {
    cur: isize,
    end: isize,
    raw: isize,
}

impl WidthsDelta {
    /// The delta of adding `w` from nothing.
    fn gain(w: Widths) -> Self {
        WidthsDelta {
            cur: w.cur as isize,
            end: w.end as isize,
            raw: w.raw as isize,
        }
    }

    /// The delta taking `before` to `after`.
    fn change(before: Widths, after: Widths) -> Self {
        WidthsDelta {
            cur: after.cur as isize - before.cur as isize,
            end: after.end as isize - before.end as isize,
            raw: after.raw as isize - before.raw as isize,
        }
    }

    fn accumulate(&mut self, other: WidthsDelta) {
        self.cur += other.cur;
        self.end += other.end;
        self.raw += other.raw;
    }

    fn is_zero(&self) -> bool {
        *self == WidthsDelta::default()
    }

    fn apply(&self, w: &mut Widths) {
        w.cur = (w.cur as isize + self.cur) as usize;
        w.end = (w.end as isize + self.end) as usize;
        w.raw = (w.raw as isize + self.raw) as usize;
    }
}

/// A position in the tree: just before the `offset`-th unit of the
/// `entry_idx`-th entry of leaf `leaf`.
///
/// Cursors are plain value types; any structural tree change invalidates
/// them (re-locate afterwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// The leaf node holding the position.
    pub leaf: LeafIdx,
    /// Entry index within the leaf. May equal the number of entries
    /// (end-of-leaf position).
    pub entry_idx: usize,
    /// Raw-unit offset into the entry. May equal the entry length
    /// (boundary position).
    pub offset: usize,
}

#[derive(Debug, Clone)]
struct InternalNode<const N: usize> {
    parent: Option<InternalIdx>,
    /// `true` when the children are leaves (all children of a node are the
    /// same kind; the tree is height-balanced).
    leaf_children: bool,
    /// Raw child ids (`slot + 1`), interpreted via `leaf_children`.
    children: InlineVec<u32, N>,
    /// Cached total widths of each child's subtree, aligned with `children`.
    widths: InlineVec<Widths, N>,
}

impl<const N: usize> InternalNode<N> {
    fn new() -> Self {
        InternalNode {
            parent: None,
            leaf_children: true,
            children: InlineVec::new(),
            widths: InlineVec::new(),
        }
    }

    #[inline]
    fn child(&self, i: usize) -> NodeRef {
        let raw = self.children.as_slice()[i];
        if self.leaf_children {
            NodeRef::Leaf(LeafIdx::from_raw(raw))
        } else {
            NodeRef::Internal(InternalIdx::from_raw(raw))
        }
    }

    #[inline]
    fn position_of(&self, child_raw: u32) -> usize {
        self.children
            .as_slice()
            .iter()
            .position(|&c| c == child_raw)
            .expect("broken parent pointer")
    }
}

#[derive(Debug, Clone)]
struct LeafNode<E, const N: usize> {
    parent: Option<InternalIdx>,
    /// Previous leaf in sequence order. Needed so an emptied leaf can be
    /// unlinked from the chain in O(1) when it is freed.
    prev: Option<LeafIdx>,
    /// Next leaf in sequence order.
    next: Option<LeafIdx>,
    entries: InlineVec<E, N>,
}

impl<E: TreeEntry, const N: usize> LeafNode<E, N> {
    fn new() -> Self {
        LeafNode {
            parent: None,
            prev: None,
            next: None,
            entries: InlineVec::new(),
        }
    }
}

/// Arena occupancy counters, exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Leaf slots in the slab (live + free).
    pub leaf_slots: usize,
    /// Internal slots in the slab (live + free).
    pub internal_slots: usize,
    /// Leaf slots parked on the free list.
    pub free_leaves: usize,
    /// Internal slots parked on the free list.
    pub free_internals: usize,
    /// Heap capacity of the leaf slab, in slots.
    pub leaf_capacity: usize,
    /// Heap capacity of the internal slab, in slots.
    pub internal_capacity: usize,
}

/// The order-statistic B-tree. See the crate documentation.
///
/// `N` is the fanout: the maximum number of children of an internal node
/// and of entries in a leaf (`N >= 4`). Larger fanouts mean shallower trees
/// (cheaper descents and width repairs) but more linear scanning within
/// nodes; the sweet spot depends on the entry type and workload, so it is a
/// compile-time parameter swept by the `walker_hot` benchmark.
#[derive(Debug, Clone)]
pub struct ContentTree<E: TreeEntry, const N: usize = DEFAULT_FANOUT> {
    leaves: Vec<LeafNode<E, N>>,
    internals: Vec<InternalNode<N>>,
    free_leaves: Vec<LeafIdx>,
    free_internals: Vec<InternalIdx>,
    root: NodeRef,
    first_leaf: LeafIdx,
}

/// One step of a [`ContentTree::mutate_run`] batch, decided per entry by
/// the caller's policy closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStep {
    /// Mutate the next `n` raw units of the current entry (counting from
    /// the policy's offset), splitting the entry as needed. `n` must be
    /// `> 0` and not exceed the units remaining in the entry.
    Mutate(usize),
    /// Leave the entry untouched and move to the next one in the leaf.
    Skip,
    /// End the batch.
    Stop,
}

impl<E: TreeEntry, const N: usize> Default for ContentTree<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: TreeEntry, const N: usize> ContentTree<E, N> {
    /// Creates an empty tree (a single empty leaf).
    pub fn new() -> Self {
        assert!(N >= 4, "fanout must be at least 4");
        let mut tree = ContentTree {
            leaves: Vec::new(),
            internals: Vec::new(),
            free_leaves: Vec::new(),
            free_internals: Vec::new(),
            // Placeholder; fixed up right below once the first leaf exists.
            root: NodeRef::Leaf(LeafIdx::new(0)),
            first_leaf: LeafIdx::new(0),
        };
        let root = tree.alloc_leaf();
        tree.root = NodeRef::Leaf(root);
        tree.first_leaf = root;
        tree
    }

    /// Removes all entries while retaining the slab allocations, so a
    /// cleared tree rebuilds to its previous size without touching the
    /// allocator.
    pub fn clear(&mut self) {
        self.leaves.clear();
        self.internals.clear();
        self.free_leaves.clear();
        self.free_internals.clear();
        let root = self.alloc_leaf();
        self.root = NodeRef::Leaf(root);
        self.first_leaf = root;
    }

    /// Rebuilds a tree from an ordered entry stream — the relocatable
    /// (de)serialization form of the slab arena.
    ///
    /// Entries are packed into leaves left to right and the internal
    /// levels are built bottom-up, so the resulting arena is dense,
    /// defragmented, and valid by construction (no invariant in the input
    /// needs to be trusted beyond each entry being non-empty and
    /// uniform-width, which callers validate before decoding). `notify`
    /// is called once per entry with the leaf that received it, so
    /// callers can repopulate an ID → leaf index (the paper's "second
    /// B-tree") during the load instead of serializing it.
    ///
    /// Round-trips with [`ContentTree::iter`]: feeding a tree's entry
    /// sequence back in produces a tree with identical entries, widths,
    /// and iteration order (the slab *layout* may differ — behaviour, not
    /// layout, is the serialized contract).
    pub fn from_entries<I, NF>(entries: I, mut notify: NF) -> Self
    where
        I: IntoIterator<Item = E>,
        NF: FnMut(&E, LeafIdx),
    {
        assert!(N >= 4, "fanout must be at least 4");
        let mut tree = ContentTree {
            leaves: Vec::new(),
            internals: Vec::new(),
            free_leaves: Vec::new(),
            free_internals: Vec::new(),
            root: NodeRef::Leaf(LeafIdx::new(0)),
            first_leaf: LeafIdx::new(0),
        };
        // Pack entries into full leaves, chained left to right.
        let mut leaf_widths: Vec<Widths> = Vec::new();
        for e in entries {
            debug_assert!(!e.is_empty(), "empty entry in bulk load");
            if tree.leaves.last().map_or(true, |l| l.entries.len() == N) {
                let idx = tree.alloc_leaf();
                if idx.slot() > 0 {
                    let prev = LeafIdx::new(idx.slot() - 1);
                    tree.leaves[prev.slot()].next = Some(idx);
                    tree.leaves[idx.slot()].prev = Some(prev);
                }
                leaf_widths.push(Widths::default());
            }
            let idx = LeafIdx::new(tree.leaves.len() - 1);
            notify(&e, idx);
            leaf_widths.last_mut().unwrap().add(Widths::of(&e));
            tree.leaves[idx.slot()].entries.push(e);
        }
        if tree.leaves.is_empty() {
            // Empty stream: a fresh empty tree.
            let root = tree.alloc_leaf();
            tree.root = NodeRef::Leaf(root);
            tree.first_leaf = root;
            return tree;
        }
        tree.first_leaf = LeafIdx::new(0);
        if tree.leaves.len() == 1 {
            tree.root = NodeRef::Leaf(LeafIdx::new(0));
            return tree;
        }
        // Build internal levels bottom-up until one node spans everything.
        let mut level: Vec<(u32, Widths)> = leaf_widths
            .iter()
            .enumerate()
            .map(|(i, &w)| (LeafIdx::new(i).raw(), w))
            .collect();
        let mut leaf_children = true;
        loop {
            let mut next_level: Vec<(u32, Widths)> = Vec::with_capacity(level.len().div_ceil(N));
            for chunk in level.chunks(N) {
                let idx = tree.alloc_internal();
                let mut total = Widths::default();
                {
                    let node = &mut tree.internals[idx.slot()];
                    node.leaf_children = leaf_children;
                    for &(raw, w) in chunk {
                        node.children.push(raw);
                        node.widths.push(w);
                        total.add(w);
                    }
                }
                for &(raw, _) in chunk {
                    if leaf_children {
                        tree.leaves[LeafIdx::from_raw(raw).slot()].parent = Some(idx);
                    } else {
                        tree.internals[InternalIdx::from_raw(raw).slot()].parent = Some(idx);
                    }
                }
                next_level.push((idx.raw(), total));
            }
            leaf_children = false;
            if next_level.len() == 1 {
                tree.root = NodeRef::Internal(InternalIdx::from_raw(next_level[0].0));
                return tree;
            }
            level = next_level;
        }
    }

    /// Current slab occupancy / capacity counters.
    pub fn arena_stats(&self) -> ArenaStats {
        ArenaStats {
            leaf_slots: self.leaves.len(),
            internal_slots: self.internals.len(),
            free_leaves: self.free_leaves.len(),
            free_internals: self.free_internals.len(),
            leaf_capacity: self.leaves.capacity(),
            internal_capacity: self.internals.capacity(),
        }
    }

    // ------------------------------------------------------------------
    // Slab plumbing.
    // ------------------------------------------------------------------

    fn alloc_leaf(&mut self) -> LeafIdx {
        if let Some(idx) = self.free_leaves.pop() {
            idx
        } else {
            let idx = LeafIdx::new(self.leaves.len());
            self.leaves.push(LeafNode::new());
            idx
        }
    }

    fn alloc_internal(&mut self) -> InternalIdx {
        if let Some(idx) = self.free_internals.pop() {
            idx
        } else {
            let idx = InternalIdx::new(self.internals.len());
            self.internals.push(InternalNode::new());
            idx
        }
    }

    /// Resets a leaf slot and parks it on the free list. Clearing the
    /// entries drops any heap memory the entry type owns.
    fn release_leaf(&mut self, idx: LeafIdx) {
        let l = &mut self.leaves[idx.slot()];
        l.entries.clear();
        l.parent = None;
        l.prev = None;
        l.next = None;
        self.free_leaves.push(idx);
    }

    fn release_internal(&mut self, idx: InternalIdx) {
        let n = &mut self.internals[idx.slot()];
        n.children.clear();
        n.widths.clear();
        n.parent = None;
        n.leaf_children = true;
        self.free_internals.push(idx);
    }

    fn parent_of(&self, node: NodeRef) -> Option<InternalIdx> {
        match node {
            NodeRef::Leaf(l) => self.leaves[l.slot()].parent,
            NodeRef::Internal(i) => self.internals[i.slot()].parent,
        }
    }

    fn set_parent(&mut self, node: NodeRef, parent: Option<InternalIdx>) {
        match node {
            NodeRef::Leaf(l) => self.leaves[l.slot()].parent = parent,
            NodeRef::Internal(i) => self.internals[i.slot()].parent = parent,
        }
    }

    // ------------------------------------------------------------------
    // Read paths.
    // ------------------------------------------------------------------

    /// The total widths of the whole tree.
    pub fn total_widths(&self) -> Widths {
        self.node_total(self.root)
    }

    fn node_total(&self, node: NodeRef) -> Widths {
        let mut total = Widths::default();
        match node {
            NodeRef::Internal(i) => {
                for w in self.internals[i.slot()].widths.as_slice() {
                    total.add(*w);
                }
            }
            NodeRef::Leaf(l) => {
                for e in self.leaves[l.slot()].entries.as_slice() {
                    total.add(Widths::of(e));
                }
            }
        }
        total
    }

    /// The number of entries stored (O(number of leaves)).
    pub fn num_entries(&self) -> usize {
        let mut leaf = Some(self.first_leaf);
        let mut n = 0;
        while let Some(idx) = leaf {
            let l = &self.leaves[idx.slot()];
            n += l.entries.len();
            leaf = l.next;
        }
        n
    }

    /// A cursor at the very start of the tree.
    pub fn cursor_at_start(&self) -> Cursor {
        Cursor {
            leaf: self.first_leaf,
            entry_idx: 0,
            offset: 0,
        }
    }

    /// Finds the `k`-th visible unit in the `cur` dimension.
    ///
    /// Returns the cursor pointing at that unit, along with the unit's
    /// offset in the `end` dimension (the number of `end`-visible units
    /// strictly before it).
    ///
    /// # Panics
    ///
    /// Panics if `k >= total cur width`.
    pub fn cursor_at_cur_unit(&self, mut k: usize) -> (Cursor, usize) {
        let mut end_acc = 0usize;
        let mut node = self.root;
        loop {
            match node {
                NodeRef::Internal(idx) => {
                    let n = &self.internals[idx.slot()];
                    let mut found = None;
                    for (i, w) in n.widths.as_slice().iter().enumerate() {
                        if k < w.cur {
                            found = Some(i);
                            break;
                        }
                        k -= w.cur;
                        end_acc += w.end;
                    }
                    let i = found.expect("cur position out of bounds");
                    node = n.child(i);
                }
                NodeRef::Leaf(idx) => {
                    let l = &self.leaves[idx.slot()];
                    for (i, e) in l.entries.as_slice().iter().enumerate() {
                        let wc = e.width_cur();
                        if k < wc {
                            // Uniform entries: cur offset == raw offset.
                            if e.width_end() > 0 {
                                end_acc += k;
                            }
                            return (
                                Cursor {
                                    leaf: idx,
                                    entry_idx: i,
                                    offset: k,
                                },
                                end_acc,
                            );
                        }
                        k -= wc;
                        end_acc += e.width_end();
                    }
                    panic!("cur position out of bounds (leaf)");
                }
            }
        }
    }

    /// Finds the boundary position `pos` in the `cur` dimension, for
    /// insertion: `0 <= pos <= total`. The returned cursor may sit at the
    /// end of an entry or of the tree.
    pub fn cursor_at_cur_pos(&self, mut pos: usize) -> Cursor {
        let mut node = self.root;
        loop {
            match node {
                NodeRef::Internal(idx) => {
                    let n = &self.internals[idx.slot()];
                    let last = n.children.len() - 1;
                    let mut chosen = last;
                    for (i, w) in n.widths.as_slice().iter().enumerate() {
                        if pos < w.cur || (i == last && pos <= w.cur) {
                            chosen = i;
                            break;
                        }
                        pos -= w.cur;
                    }
                    node = n.child(chosen);
                }
                NodeRef::Leaf(idx) => {
                    // Land inside the entry containing the pos-th visible
                    // unit; boundary positions land *after* any invisible
                    // entries (offset 0 of the next visible entry, or end of
                    // leaf on the rightmost path).
                    let l = &self.leaves[idx.slot()];
                    for (i, e) in l.entries.as_slice().iter().enumerate() {
                        let wc = e.width_cur();
                        if pos < wc {
                            return Cursor {
                                leaf: idx,
                                entry_idx: i,
                                offset: pos,
                            };
                        }
                        pos -= wc;
                    }
                    assert_eq!(pos, 0, "cur position out of bounds");
                    return Cursor {
                        leaf: idx,
                        entry_idx: l.entries.len(),
                        offset: 0,
                    };
                }
            }
        }
    }

    /// The entry under `cursor`.
    ///
    /// # Panics
    ///
    /// Panics if the cursor points past the last entry of its leaf.
    pub fn entry_at(&self, cursor: &Cursor) -> &E {
        &self.leaves[cursor.leaf.slot()].entries.as_slice()[cursor.entry_idx]
    }

    /// Advances the cursor to the start of the next entry. Returns `false`
    /// at the end of the tree.
    pub fn cursor_next_entry(&self, cursor: &mut Cursor) -> bool {
        let l = &self.leaves[cursor.leaf.slot()];
        if cursor.entry_idx + 1 < l.entries.len() {
            cursor.entry_idx += 1;
            cursor.offset = 0;
            return true;
        }
        let mut next = l.next;
        while let Some(idx) = next {
            let nl = &self.leaves[idx.slot()];
            if !nl.entries.is_empty() {
                *cursor = Cursor {
                    leaf: idx,
                    entry_idx: 0,
                    offset: 0,
                };
                return true;
            }
            next = nl.next;
        }
        false
    }

    /// Returns `true` if the cursor points at a valid entry.
    pub fn cursor_valid(&self, cursor: &Cursor) -> bool {
        cursor.entry_idx < self.leaves[cursor.leaf.slot()].entries.len()
    }

    /// Computes the global offset of the start of an entry, in both
    /// dimensions, by walking from the leaf to the root.
    pub fn offset_of(&self, leaf_idx: LeafIdx, entry_idx: usize) -> Widths {
        let mut acc = Widths::default();
        let l = &self.leaves[leaf_idx.slot()];
        for e in &l.entries.as_slice()[..entry_idx] {
            acc.add(Widths::of(e));
        }
        let mut child_raw = leaf_idx.raw();
        let mut parent = l.parent;
        while let Some(p_idx) = parent {
            let p = &self.internals[p_idx.slot()];
            for (i, &c) in p.children.as_slice().iter().enumerate() {
                if c == child_raw {
                    break;
                }
                acc.add(p.widths.as_slice()[i]);
            }
            child_raw = p_idx.raw();
            parent = p.parent;
        }
        acc
    }

    /// The entries of one leaf, in order. Used by callers that maintain an
    /// ID → leaf index and need to find a specific entry within the leaf.
    pub fn entries_in_leaf(&self, leaf: LeafIdx) -> &[E] {
        self.leaves[leaf.slot()].entries.as_slice()
    }

    /// The successor of `leaf` in the leaf chain, if any. Used by callers
    /// probing a cached cursor's neighbourhood.
    pub fn next_leaf(&self, leaf: LeafIdx) -> Option<LeafIdx> {
        self.leaves[leaf.slot()].next
    }

    /// Iterates all entries in order.
    pub fn iter(&self) -> TreeIter<'_, E, N> {
        TreeIter {
            tree: self,
            leaf: Some(self.first_leaf),
            entry_idx: 0,
        }
    }

    // ------------------------------------------------------------------
    // Mutation.
    // ------------------------------------------------------------------

    /// Adds a known width change to the cached totals on the path from
    /// `node` to the root — the O(depth) fast variant of
    /// [`ContentTree::repair_path`] for structure-preserving updates.
    fn repair_path_delta(&mut self, from: NodeRef, d: WidthsDelta) {
        if d.is_zero() {
            return;
        }
        let mut node = from;
        while let Some(parent) = self.parent_of(node) {
            let p = &mut self.internals[parent.slot()];
            let pos = p.position_of(node.raw());
            d.apply(&mut p.widths.as_mut_slice()[pos]);
            node = NodeRef::Internal(parent);
        }
    }

    /// Recomputes the cached widths on the path from `node` to the root.
    fn repair_path(&mut self, from: NodeRef) {
        let mut node = from;
        while let Some(parent) = self.parent_of(node) {
            let total = self.node_total(node);
            let p = &mut self.internals[parent.slot()];
            let pos = p.position_of(node.raw());
            p.widths.as_mut_slice()[pos] = total;
            node = NodeRef::Internal(parent);
        }
    }

    /// Splits a full leaf in half, notifying for every moved entry.
    /// Returns the new (right) leaf's index.
    fn split_leaf<NF: FnMut(&E, LeafIdx)>(
        &mut self,
        leaf_idx: LeafIdx,
        notify: &mut NF,
    ) -> LeafIdx {
        let new_idx = self.alloc_leaf();
        let from = leaf_idx.slot();
        let keep = self.leaves[from].entries.len() / 2;
        let moved = self.leaves[from].entries.split_off_tail(keep);
        let next = self.leaves[from].next;
        let parent = self.leaves[from].parent;
        self.leaves[from].next = Some(new_idx);
        {
            let nl = &mut self.leaves[new_idx.slot()];
            nl.entries = moved;
            nl.prev = Some(leaf_idx);
            nl.next = next;
            // Fixed up by insert_child_after if the parent splits.
            nl.parent = parent;
        }
        if let Some(nx) = next {
            self.leaves[nx.slot()].prev = Some(new_idx);
        }
        for e in self.leaves[new_idx.slot()].entries.as_slice() {
            notify(e, new_idx);
        }
        self.insert_child_after(NodeRef::Leaf(leaf_idx), NodeRef::Leaf(new_idx));
        new_idx
    }

    /// Inserts `new_child` directly after `after` in `after`'s parent
    /// (creating a new root when `after` is the root), splitting the parent
    /// first if it is full. Fixes the cached widths of both children.
    fn insert_child_after(&mut self, after: NodeRef, new_child: NodeRef) {
        let w_after = self.node_total(after);
        let w_new = self.node_total(new_child);
        let Some(mut parent) = self.parent_of(after) else {
            // `after` was the root; grow the tree.
            let new_root = self.alloc_internal();
            {
                let n = &mut self.internals[new_root.slot()];
                n.leaf_children = matches!(after, NodeRef::Leaf(_));
                n.children.push(after.raw()); // ALLOC: InlineVec, fixed inline capacity, no heap
                n.children.push(new_child.raw()); // ALLOC: InlineVec, no heap
                n.widths.push(w_after); // ALLOC: InlineVec, no heap
                n.widths.push(w_new); // ALLOC: InlineVec, no heap
            }
            self.set_parent(after, Some(new_root));
            self.set_parent(new_child, Some(new_root));
            self.root = NodeRef::Internal(new_root);
            return;
        };
        if self.internals[parent.slot()].children.len() == N {
            // Split before inserting; `after` may move to the new sibling.
            self.split_internal(parent);
            parent = self.parent_of(after).expect("split lost child");
        }
        let p = &mut self.internals[parent.slot()];
        let pos = p.position_of(after.raw());
        p.widths.as_mut_slice()[pos] = w_after;
        p.children.insert(pos + 1, new_child.raw());
        p.widths.insert(pos + 1, w_new);
        self.set_parent(new_child, Some(parent));
    }

    /// Splits a full internal node in half.
    fn split_internal(&mut self, idx: InternalIdx) {
        let new_idx = self.alloc_internal();
        let from = idx.slot();
        let keep = self.internals[from].children.len() / 2;
        let moved_children = self.internals[from].children.split_off_tail(keep);
        let moved_widths = self.internals[from].widths.split_off_tail(keep);
        let leaf_children = self.internals[from].leaf_children;
        {
            let n = &mut self.internals[new_idx.slot()];
            n.leaf_children = leaf_children;
            n.children = moved_children;
            n.widths = moved_widths;
        }
        for i in 0..self.internals[new_idx.slot()].children.len() {
            let child = self.internals[new_idx.slot()].child(i);
            self.set_parent(child, Some(new_idx));
        }
        self.insert_child_after(NodeRef::Internal(idx), NodeRef::Internal(new_idx));
    }

    /// Ensures the leaf holding entry position `idx` has room for one more
    /// entry, splitting it if full. Returns the (possibly moved) location.
    fn make_room<NF: FnMut(&E, LeafIdx)>(
        &mut self,
        leaf_idx: LeafIdx,
        idx: usize,
        notify: &mut NF,
        split_flag: &mut bool,
    ) -> (LeafIdx, usize) {
        if self.leaves[leaf_idx.slot()].entries.len() < N {
            return (leaf_idx, idx);
        }
        *split_flag = true;
        let new_leaf = self.split_leaf(leaf_idx, notify);
        let keep = self.leaves[leaf_idx.slot()].entries.len();
        if idx >= keep {
            (new_leaf, idx - keep)
        } else {
            (leaf_idx, idx)
        }
    }

    /// Inserts entry `e` at the cursor position, keeping entries RLE-merged
    /// when possible. Calls `notify(entry, leaf)` for the inserted entry and
    /// for every entry relocated by leaf splits.
    ///
    /// Returns a cursor pointing at the start of the inserted content (which
    /// may be in the middle of a merged entry).
    pub fn insert_at<NF: FnMut(&E, LeafIdx)>(
        &mut self,
        cursor: Cursor,
        e: E,
        notify: &mut NF,
    ) -> Cursor {
        let leaf_idx = cursor.leaf;
        let mut entry_idx = cursor.entry_idx;
        let mut offset = cursor.offset;

        // Normalise an end-of-entry offset to the next boundary.
        {
            let l = &self.leaves[leaf_idx.slot()];
            if entry_idx < l.entries.len() && offset == l.entries.as_slice()[entry_idx].len() {
                entry_idx += 1;
                offset = 0;
            }
        }

        // Whatever the insertion path, ancestor totals grow by exactly the
        // new entry's widths (boundary splits move units, net zero).
        let net = WidthsDelta::gain(Widths::of(&e));
        let (leaf_idx, entry_idx) = if offset == 0 {
            // Try appending to the previous entry in this leaf.
            if entry_idx > 0 {
                let l = &mut self.leaves[leaf_idx.slot()];
                let prev = &mut l.entries.as_mut_slice()[entry_idx - 1];
                if prev.can_append(&e) {
                    let at = prev.len();
                    prev.append(e.clone()); // ALLOC: RLE append extends the entry in place, no heap
                    notify(&e, leaf_idx);
                    self.repair_path_delta(NodeRef::Leaf(leaf_idx), net);
                    return Cursor {
                        leaf: leaf_idx,
                        entry_idx: entry_idx - 1,
                        offset: at,
                    };
                }
            }
            self.insert_entries_at(leaf_idx, entry_idx, e, None, Some(net), notify)
        } else {
            // Split the containing entry and insert in between.
            let tail =
                self.leaves[leaf_idx.slot()].entries.as_mut_slice()[entry_idx].truncate(offset);
            self.insert_entries_at(leaf_idx, entry_idx + 1, e, Some(tail), Some(net), notify)
        };
        Cursor {
            leaf: leaf_idx,
            entry_idx,
            offset: 0,
        }
    }

    /// Inserts `e0` (and `e1` directly after it, when given) at `entry_idx`
    /// of `leaf_idx`, splitting the leaf first if it lacks room for both,
    /// repairing widths, and notifying for the inserted entries and any the
    /// split relocated. Returns `e0`'s location after insertion.
    ///
    /// `net` is the caller-known change to the subtree total (new material
    /// only — pieces split off existing entries cancel out); when given
    /// and no split occurs, the repair is O(depth) instead of
    /// O(depth × fanout). `None` forces a full recompute.
    fn insert_entries_at<NF: FnMut(&E, LeafIdx)>(
        &mut self,
        leaf_idx: LeafIdx,
        entry_idx: usize,
        e0: E,
        e1: Option<E>,
        net: Option<WidthsDelta>,
        notify: &mut NF,
    ) -> (LeafIdx, usize) {
        let needed = 1 + e1.is_some() as usize;
        let mut leaf_idx = leaf_idx;
        let mut entry_idx = entry_idx;
        let mut split = false;
        if self.leaves[leaf_idx.slot()].entries.len() + needed > N {
            // One split always frees enough room: each half keeps at most
            // N - N/2 entries and needed <= 2 <= N/2 for N >= 4.
            let new_leaf = self.split_leaf(leaf_idx, notify);
            split = true;
            let keep = self.leaves[leaf_idx.slot()].entries.len();
            if entry_idx >= keep {
                leaf_idx = new_leaf;
                entry_idx -= keep;
            }
        }
        notify(&e0, leaf_idx);
        if let Some(ref e1v) = e1 {
            notify(e1v, leaf_idx);
        }
        {
            let entries = &mut self.leaves[leaf_idx.slot()].entries;
            entries.insert(entry_idx, e0);
            if let Some(e1) = e1 {
                entries.insert(entry_idx + 1, e1);
            }
        }
        if split {
            // The split rewrote ancestor slots from (then-incomplete)
            // totals; recompute both changed root paths.
            self.repair_path(NodeRef::Leaf(leaf_idx));
        } else {
            match net {
                Some(d) => self.repair_path_delta(NodeRef::Leaf(leaf_idx), d),
                None => self.repair_path(NodeRef::Leaf(leaf_idx)),
            }
        }
        (leaf_idx, entry_idx)
    }

    /// Applies an arbitrary in-place edit to the entry at
    /// (`leaf`, `entry_idx`) and repairs ancestor widths by delta
    /// (O(depth)), without splitting or relocating anything.
    ///
    /// This is the zero-allocation edit primitive for entry types that can
    /// grow or shrink in place (e.g. a rope chunk absorbing an insertion
    /// into its buffer). The edit may change the entry's length and widths
    /// arbitrarily but must leave it non-empty.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not hold an entry.
    pub fn update_entry<F: FnOnce(&mut E)>(&mut self, leaf: LeafIdx, entry_idx: usize, f: F) {
        let (before, after) = {
            let e = &mut self.leaves[leaf.slot()].entries.as_mut_slice()[entry_idx];
            let before = Widths::of(e);
            f(e);
            debug_assert!(!e.is_empty(), "update_entry left an empty entry");
            (before, Widths::of(e))
        };
        self.repair_path_delta(NodeRef::Leaf(leaf), WidthsDelta::change(before, after));
    }

    /// Mutates up to `max_len` units of the entry under `cursor`, starting
    /// at the cursor offset, splitting the entry as needed so the mutation
    /// applies exactly to that sub-range.
    ///
    /// Returns `(mutated_len, leaf, entry_idx)` locating the mutated piece.
    /// `notify` fires for entries relocated by splits (including pieces of
    /// the split entry itself).
    pub fn mutate_entry<F, NF>(
        &mut self,
        cursor: &Cursor,
        max_len: usize,
        mutate: F,
        notify: &mut NF,
    ) -> (usize, LeafIdx, usize)
    where
        F: FnOnce(&mut E),
        NF: FnMut(&E, LeafIdx),
    {
        let leaf_idx = cursor.leaf;
        let entry_idx = cursor.entry_idx;
        let offset = cursor.offset;
        let entry_len = self.leaves[leaf_idx.slot()].entries.as_slice()[entry_idx].len();
        assert!(offset < entry_len, "cursor must point inside the entry");
        let len = max_len.min(entry_len - offset);
        assert!(len > 0);

        if offset > 0 {
            // Split off the piece at the cursor; it becomes e0 of the
            // insertion (with the untouched post piece, if any, as e1).
            let mut piece =
                self.leaves[leaf_idx.slot()].entries.as_mut_slice()[entry_idx].truncate(offset);
            let post = if len < piece.len() {
                Some(piece.truncate(len))
            } else {
                None
            };
            let before = Widths::of(&piece);
            mutate(&mut piece);
            let net = WidthsDelta::change(before, Widths::of(&piece));
            let (leaf_idx, entry_idx) =
                self.insert_entries_at(leaf_idx, entry_idx + 1, piece, post, Some(net), notify);
            (len, leaf_idx, entry_idx)
        } else {
            // Mutate the entry head in place; the untouched tail (if any)
            // splits off and is re-inserted after it.
            let post = {
                let e = &mut self.leaves[leaf_idx.slot()].entries.as_mut_slice()[entry_idx];
                if len < entry_len {
                    Some(e.truncate(len))
                } else {
                    None
                }
            };
            let net = {
                let e = &mut self.leaves[leaf_idx.slot()].entries.as_mut_slice()[entry_idx];
                let before = Widths::of(e);
                mutate(e);
                WidthsDelta::change(before, Widths::of(e))
            };
            match post {
                None => {
                    self.repair_path_delta(NodeRef::Leaf(leaf_idx), net);
                    (len, leaf_idx, entry_idx)
                }
                Some(post) => {
                    let (post_leaf, post_idx) = self.insert_entries_at(
                        leaf_idx,
                        entry_idx + 1,
                        post,
                        None,
                        Some(net),
                        notify,
                    );
                    // The mutated entry sits directly before the post piece
                    // (possibly at the end of the previous leaf if the
                    // insertion split moved only the post piece right).
                    if post_idx > 0 {
                        (len, post_leaf, post_idx - 1)
                    } else {
                        let prev = self.leaves[post_leaf.slot()]
                            .prev
                            .expect("mutated entry lost");
                        (len, prev, self.leaves[prev.slot()].entries.len() - 1)
                    }
                }
            }
        }
    }

    /// Mutates a run of consecutive entries starting under `cursor` in one
    /// pass, with a single width repair at the end — the batched
    /// counterpart of repeated [`ContentTree::mutate_entry`] calls.
    ///
    /// For every entry from the cursor onwards (bounded by the entries of
    /// the cursor's leaf — including any leaves the batch's own splits
    /// spread them across), `policy(&entry, offset)` decides the
    /// [`RunStep`]: mutate a prefix of the entry's remaining units
    /// (splitting boundary pieces as needed), skip it, or stop. `offset` is
    /// nonzero only for the first entry (the cursor's offset). The policy
    /// observes each piece *before* mutation and is called exactly once per
    /// **piece**: when `Mutate(n)` covers only a prefix, the split-off
    /// untouched remainder is re-presented to the policy as its own piece —
    /// stateful policies (e.g. recording the sub-ranges chosen) must count
    /// pieces, not original entries. `mutate` is applied to each chosen
    /// piece; `notify` fires for entries relocated by splits.
    ///
    /// Cached widths are stale while the batch runs and repaired once at
    /// the end, so `policy`/`mutate` must not re-enter the tree.
    pub fn mutate_run<P, F, NF>(
        &mut self,
        cursor: &Cursor,
        mut policy: P,
        mutate: F,
        notify: &mut NF,
    ) where
        P: FnMut(&E, usize) -> RunStep,
        F: Fn(&mut E),
        NF: FnMut(&E, LeafIdx),
    {
        let start_leaf = cursor.leaf;
        // The original successor bounds the batch: leaves created by the
        // batch's own splits all land strictly before it in the chain.
        let stop = self.leaves[start_leaf.slot()].next;
        let mut leaf_idx = start_leaf;
        let mut idx = cursor.entry_idx;
        let mut off = cursor.offset;
        let mut net = WidthsDelta::default();
        let mut split_occurred = false;
        'run: loop {
            while idx >= self.leaves[leaf_idx.slot()].entries.len() {
                match self.leaves[leaf_idx.slot()].next {
                    Some(next) if Some(next) != stop => {
                        leaf_idx = next;
                        idx = 0;
                        off = 0;
                    }
                    _ => break 'run,
                }
            }
            let entry_len = self.leaves[leaf_idx.slot()].entries.as_slice()[idx].len();
            if off >= entry_len {
                idx += 1;
                off = 0;
                continue;
            }
            match policy(&self.leaves[leaf_idx.slot()].entries.as_slice()[idx], off) {
                RunStep::Stop => break,
                RunStep::Skip => {
                    idx += 1;
                    off = 0;
                }
                RunStep::Mutate(n) => {
                    assert!(n > 0 && off + n <= entry_len, "bad RunStep::Mutate length");
                    if off > 0 {
                        // Split off the untouched head; the piece to mutate
                        // becomes the entry at idx + 1.
                        (leaf_idx, idx) =
                            self.make_room(leaf_idx, idx, notify, &mut split_occurred);
                        let tail =
                            self.leaves[leaf_idx.slot()].entries.as_mut_slice()[idx].truncate(off);
                        self.leaves[leaf_idx.slot()].entries.insert(idx + 1, tail);
                        idx += 1;
                        off = 0;
                    }
                    if n < self.leaves[leaf_idx.slot()].entries.as_slice()[idx].len() {
                        // Split off the untouched tail.
                        (leaf_idx, idx) =
                            self.make_room(leaf_idx, idx, notify, &mut split_occurred);
                        let tail =
                            self.leaves[leaf_idx.slot()].entries.as_mut_slice()[idx].truncate(n);
                        self.leaves[leaf_idx.slot()].entries.insert(idx + 1, tail);
                    }
                    let piece = &mut self.leaves[leaf_idx.slot()].entries.as_mut_slice()[idx];
                    let before = Widths::of(piece);
                    mutate(piece);
                    net.accumulate(WidthsDelta::change(before, Widths::of(piece)));
                    idx += 1;
                }
            }
        }
        // Repair widths: incrementally (O(depth)) when the structure is
        // unchanged; otherwise fully, for every leaf of the region — splits
        // refresh the immediate parent slots mid-batch, but from totals
        // that were stale at that point.
        if !split_occurred {
            self.repair_path_delta(NodeRef::Leaf(start_leaf), net);
        } else {
            let mut cur = Some(start_leaf);
            while cur != stop {
                let l = cur.expect("mutate_run region lost its stop leaf");
                self.repair_path(NodeRef::Leaf(l));
                cur = self.leaves[l.slot()].next;
            }
        }
    }

    /// Deletes `del_len` units starting at `cur`-dimension position `pos`.
    ///
    /// Only supported when every entry is fully visible in the `cur`
    /// dimension (single-dimension usage, e.g. a rope) — deletion positions
    /// are interpreted in raw units. Leaves emptied by the deletion are
    /// unlinked and returned to the free list.
    pub fn delete_cur_range(&mut self, pos: usize, mut del_len: usize) {
        let mut cursor = self.cursor_at_cur_pos(pos);
        let mut no_notify = |_: &E, _: LeafIdx| {};
        while del_len > 0 {
            let l = &self.leaves[cursor.leaf.slot()];
            if cursor.entry_idx >= l.entries.len() {
                let next = l.next.expect("delete past end of tree");
                self.finish_leaf_after_delete(cursor.leaf);
                cursor = Cursor {
                    leaf: next,
                    entry_idx: 0,
                    offset: 0,
                };
                continue;
            }
            let e_len = l.entries.as_slice()[cursor.entry_idx].len();
            if cursor.offset == e_len {
                cursor.entry_idx += 1;
                cursor.offset = 0;
                continue;
            }
            if cursor.offset == 0 && del_len >= e_len {
                self.leaves[cursor.leaf.slot()]
                    .entries
                    .remove(cursor.entry_idx);
                del_len -= e_len;
            } else if cursor.offset == 0 {
                // Remove a prefix of the entry.
                self.leaves[cursor.leaf.slot()].entries.as_mut_slice()[cursor.entry_idx]
                    .truncate_keeping_right(del_len);
                del_len = 0;
            } else if cursor.offset + del_len >= e_len {
                // Remove a suffix of the entry.
                let removed = e_len - cursor.offset;
                self.leaves[cursor.leaf.slot()].entries.as_mut_slice()[cursor.entry_idx]
                    .truncate(cursor.offset);
                del_len -= removed;
                cursor.entry_idx += 1;
                cursor.offset = 0;
            } else {
                // Remove from the middle: split and drop the middle piece.
                let tail = {
                    let e = &mut self.leaves[cursor.leaf.slot()].entries.as_mut_slice()
                        [cursor.entry_idx];
                    let mut tail = e.truncate(cursor.offset);
                    tail.truncate_keeping_right(del_len);
                    tail
                };
                self.insert_entries_at(
                    cursor.leaf,
                    cursor.entry_idx + 1,
                    tail,
                    None,
                    None,
                    &mut no_notify,
                );
                return;
            }
        }
        self.finish_leaf_after_delete(cursor.leaf);
    }

    /// After a deletion pass over `leaf`: free it if it emptied, otherwise
    /// recompute its root path.
    fn finish_leaf_after_delete(&mut self, leaf: LeafIdx) {
        if self.leaves[leaf.slot()].entries.is_empty() {
            self.free_empty_leaf(leaf);
        } else {
            self.repair_path(NodeRef::Leaf(leaf));
        }
    }

    /// Unlinks an emptied leaf from the chain and its parent, freeing empty
    /// ancestors recursively. A lone root leaf stays (the empty tree).
    fn free_empty_leaf(&mut self, leaf_idx: LeafIdx) {
        debug_assert!(self.leaves[leaf_idx.slot()].entries.is_empty());
        let l = &self.leaves[leaf_idx.slot()];
        let (parent, prev, next) = (l.parent, l.prev, l.next);
        let Some(parent) = parent else {
            return;
        };
        if let Some(p) = prev {
            self.leaves[p.slot()].next = next;
        }
        if let Some(n) = next {
            self.leaves[n.slot()].prev = prev;
        }
        if self.first_leaf == leaf_idx {
            if let Some(n) = next {
                self.first_leaf = n;
            }
            // else: the whole tree is emptying; remove_child installs a
            // fresh root leaf (and first_leaf) below.
        }
        let raw = leaf_idx.raw();
        self.release_leaf(leaf_idx);
        self.remove_child(parent, raw);
    }

    /// Removes a freed child from `node`, freeing `node` itself (and so on
    /// up) if it empties; otherwise repairs the ancestor widths.
    fn remove_child(&mut self, node: InternalIdx, child_raw: u32) {
        let pos = self.internals[node.slot()].position_of(child_raw);
        {
            let n = &mut self.internals[node.slot()];
            n.children.remove(pos);
            n.widths.remove(pos);
        }
        if self.internals[node.slot()].children.is_empty() {
            let gp = self.internals[node.slot()].parent;
            let raw = node.raw();
            self.release_internal(node);
            match gp {
                Some(gp) => self.remove_child(gp, raw),
                None => {
                    // The whole tree emptied; reinstall the empty state.
                    let root = self.alloc_leaf();
                    self.root = NodeRef::Leaf(root);
                    self.first_leaf = root;
                }
            }
        } else {
            self.repair_path(NodeRef::Internal(node));
        }
    }

    // ------------------------------------------------------------------
    // Validation (used by tests).
    // ------------------------------------------------------------------

    /// Checks every tree invariant, panicking on violation. Test-only; slow.
    pub fn check(&self) {
        // Leaf chain visits every live leaf exactly once, left to right,
        // with symmetric prev pointers.
        let mut chain = Vec::new();
        let mut leaf = Some(self.first_leaf);
        let mut prev: Option<LeafIdx> = None;
        while let Some(idx) = leaf {
            assert_eq!(self.leaves[idx.slot()].prev, prev, "broken prev at {idx:?}");
            chain.push(idx);
            prev = Some(idx);
            leaf = self.leaves[idx.slot()].next;
        }
        let mut dfs_leaves = Vec::new();
        let mut internal_count = 0usize;
        self.collect_leaves(self.root, &mut dfs_leaves, &mut internal_count);
        assert_eq!(chain, dfs_leaves, "leaf chain does not match tree order");

        // Slab accounting: every slot is either reachable or on a free list.
        assert_eq!(
            chain.len() + self.free_leaves.len(),
            self.leaves.len(),
            "leaked leaf slots"
        );
        assert_eq!(
            internal_count + self.free_internals.len(),
            self.internals.len(),
            "leaked internal slots"
        );

        self.check_node(self.root, None);
    }

    fn collect_leaves(&self, node: NodeRef, out: &mut Vec<LeafIdx>, internal_count: &mut usize) {
        match node {
            NodeRef::Internal(idx) => {
                *internal_count += 1;
                let n = &self.internals[idx.slot()];
                for i in 0..n.children.len() {
                    self.collect_leaves(n.child(i), out, internal_count);
                }
            }
            NodeRef::Leaf(idx) => out.push(idx),
        }
    }

    fn check_node(&self, node: NodeRef, expected_parent: Option<InternalIdx>) -> Widths {
        match node {
            NodeRef::Internal(idx) => {
                let n = &self.internals[idx.slot()];
                assert_eq!(n.parent, expected_parent, "bad parent at {idx:?}");
                assert!(!n.children.is_empty());
                assert!(n.children.len() <= N);
                assert_eq!(n.children.len(), n.widths.len());
                let mut total = Widths::default();
                for i in 0..n.children.len() {
                    let w = self.check_node(n.child(i), Some(idx));
                    assert_eq!(
                        w,
                        n.widths.as_slice()[i],
                        "stale cached width at {idx:?}[{i}]"
                    );
                    total.add(w);
                }
                total
            }
            NodeRef::Leaf(idx) => {
                let l = &self.leaves[idx.slot()];
                assert_eq!(l.parent, expected_parent, "bad parent at leaf {idx:?}");
                assert!(l.entries.len() <= N);
                assert!(
                    !l.entries.is_empty() || self.root == node,
                    "empty non-root leaf {idx:?}"
                );
                let mut total = Widths::default();
                for e in l.entries.as_slice() {
                    assert!(!e.is_empty(), "empty entry stored");
                    let wc = e.width_cur();
                    let we = e.width_end();
                    assert!(wc == 0 || wc == e.len(), "non-uniform cur width");
                    assert!(we == 0 || we == e.len(), "non-uniform end width");
                    total.add(Widths::of(e));
                }
                total
            }
        }
    }
}

/// Iterator over the tree's entries in order. See [`ContentTree::iter`].
pub struct TreeIter<'a, E: TreeEntry, const N: usize = DEFAULT_FANOUT> {
    tree: &'a ContentTree<E, N>,
    leaf: Option<LeafIdx>,
    entry_idx: usize,
}

impl<'a, E: TreeEntry, const N: usize> Iterator for TreeIter<'a, E, N> {
    type Item = &'a E;

    fn next(&mut self) -> Option<&'a E> {
        loop {
            let idx = self.leaf?;
            let l = &self.tree.leaves[idx.slot()];
            if self.entry_idx < l.entries.len() {
                let e = &l.entries.as_slice()[self.entry_idx];
                self.entry_idx += 1;
                return Some(e);
            }
            self.leaf = l.next;
            self.entry_idx = 0;
        }
    }
}
