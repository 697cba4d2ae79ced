//! The walker's transient internal state (paper §3.3–§3.6).
//!
//! The [`Tracker`] holds one record per inserted character (plus
//! placeholders standing for the document at the conflict-window base),
//! each carrying the two state machines of Fig. 5:
//!
//! * `sp` — the character's state in the **prepare** version
//!   (`NotInsertedYet` / `Ins` / `Del(n)`), moved by `retreat`/`advance`;
//! * `se` — the state in the **effect** version (`Ins` / `Del`), moved only
//!   forwards by `apply`.
//!
//! Records live in an order-statistic B-tree keyed by sequence position
//! with `(prepare, effect)` width aggregates (§3.4); two index maps (the
//! paper's "second B-tree") map insert-event IDs to tree leaves and delete
//! events to their target characters.
//!
//! Between merges a tracker stays *live*: it remembers the version its
//! records describe (`Live`), and the next merge through it walks only
//! what is new rather than the whole conflict window again.

use crate::op::{ListOpKind, OpRun, TextOpRef};
use crate::walker::WalkScratch;
use crate::OpLog;
use eg_content_tree::{ContentTree, Cursor, LeafIdx, RunStep, TreeEntry};
use eg_dag::{Frontier, LV};
use eg_rle::{DTRange, HasLength, IntervalMap, MergableSpan, SplitableSpan};
use std::cell::Cell;
use std::collections::HashMap;

/// Fanout of the tracker's record tree. Settled by two sweeps over
/// 8/16/32/64 on the C1/C2 concurrent traces (results in this crate's
/// README): 16 and 32 are within noise of each other on C1 while 16 wins
/// clearly on C2, and both beat 8 (deep trees: more descent and repair
/// levels) and 64 (wide nodes: linear scans and `Vec` shifts dominate).
/// To re-sweep after changing the record layout, edit this constant and
/// read `merge_events_per_s` on `egbench`'s `doc_conc`.
pub(crate) const TRACKER_FANOUT: usize = 16;

/// Origin sentinel: inserted at the start of the document.
pub(crate) const ORIGIN_START: usize = usize::MAX;
/// Origin sentinel: inserted at the end of the document.
pub(crate) const ORIGIN_END: usize = usize::MAX - 1;

/// Base of the fake-ID space used for placeholder records (§3.6). The
/// placeholder character at base-document position `i` has ID
/// `UNDERWATER_START + i`.
const UNDERWATER_START: usize = usize::MAX / 4;
/// Width of the initial placeholder: "arbitrarily many indexes" (§3.6).
const UNDERWATER_LEN: usize = usize::MAX / 16;

/// The prepare-version state of a record (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpState {
    /// The insertion has been retreated: invisible in the prepare version.
    NotInsertedYet,
    /// Inserted and not deleted: visible in the prepare version.
    Ins,
    /// Deleted by `n >= 1` (concurrent) delete events.
    Del(u32),
}

/// An internal-state change observed during replay, in ID space. Origins
/// use the [`ORIGIN_START`]/[`ORIGIN_END`] sentinels of [`CrdtSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrdtChange {
    /// A new record was integrated.
    Ins {
        /// The record, with its resolved origins.
        span: CrdtSpan,
    },
    /// A run of delete events marked characters deleted.
    Del {
        /// The delete events.
        events: DTRange,
        /// IDs of the deleted characters (ascending).
        target: DTRange,
        /// `true` if ascending events deleted ascending IDs.
        fwd: bool,
    },
}

/// One run of records: consecutively inserted characters with uniform state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrdtSpan {
    /// IDs (insert-event LVs, or underwater IDs) of the characters.
    pub id: DTRange,
    /// ID of the character to the left of `id.start` at insert time, or
    /// [`ORIGIN_START`]. Later characters of the run chain on their
    /// predecessor.
    pub origin_left: usize,
    /// ID of the character right of the run at insert time, or
    /// [`ORIGIN_END`]. Shared by the whole run.
    pub origin_right: usize,
    /// Prepare state (uniform across the run).
    pub sp: SpState,
    /// Effect state: `true` once any applied event deleted the characters.
    pub se_deleted: bool,
}

impl CrdtSpan {
    fn is_underwater(&self) -> bool {
        self.id.start >= UNDERWATER_START
    }
}

// The record tree stores entries in inline arrays whose vacant slots hold
// the default value; an empty span is never read back as a live record.
impl Default for CrdtSpan {
    fn default() -> Self {
        CrdtSpan {
            id: DTRange::default(),
            origin_left: ORIGIN_START,
            origin_right: ORIGIN_END,
            sp: SpState::Ins,
            se_deleted: false,
        }
    }
}

/// Returns `true` if `id` is a placeholder (underwater) character ID rather
/// than a real insert-event LV.
pub fn is_underwater_id(id: usize) -> bool {
    (UNDERWATER_START..UNDERWATER_START + UNDERWATER_LEN).contains(&id)
}

impl HasLength for CrdtSpan {
    fn len(&self) -> usize {
        self.id.len()
    }
}

impl SplitableSpan for CrdtSpan {
    fn truncate(&mut self, at: usize) -> Self {
        let rem_id = self.id.truncate(at);
        CrdtSpan {
            id: rem_id,
            origin_left: rem_id.start - 1,
            origin_right: self.origin_right,
            sp: self.sp,
            se_deleted: self.se_deleted,
        }
    }
}

impl MergableSpan for CrdtSpan {
    fn can_append(&self, other: &Self) -> bool {
        self.id.can_append(&other.id)
            && other.origin_left == self.id.last()
            && other.origin_right == self.origin_right
            && other.sp == self.sp
            && other.se_deleted == self.se_deleted
    }

    fn append(&mut self, other: Self) {
        self.id.append(other.id);
    }
}

impl TreeEntry for CrdtSpan {
    fn width_cur(&self) -> usize {
        if self.sp == SpState::Ins {
            self.len()
        } else {
            0
        }
    }

    fn width_end(&self) -> usize {
        if self.se_deleted {
            0
        } else {
            self.len()
        }
    }
}

/// Sentinel in the delete-target index for event LVs that are not (applied)
/// deletes. Real target ids top out below [`UNDERWATER_START`] +
/// [`UNDERWATER_LEN`], well under `usize::MAX`.
const NO_TARGET: usize = usize::MAX;

/// A serializable snapshot of a tracker's replay state (paper §3.5 /
/// ROADMAP "tracker checkpointing"): the record sequence in document
/// order plus the recorded delete runs.
///
/// This is the *relocatable* form the PR-6 slab arena makes cheap: the
/// tree's entry sequence is the serialized contract (slab layout is
/// rebuilt dense on restore via [`eg_content_tree::ContentTree::from_entries`],
/// which also repopulates the ID index for free), and the delete-target
/// index round-trips as `(events, target ids, direction)` runs. The
/// cursor/emit caches, scratch buffers, and walk plan are deliberately
/// *not* part of a snapshot — they are pure accelerators, empty on
/// restore.
///
/// A tracker restored from a snapshot behaves byte-identically to the
/// tracker that produced it (pinned by `arena_tree_props.rs` here and
/// `store_props.rs` in `eg-storage`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrackerSnapshot {
    /// The record runs in document order, placeholder (underwater) spans
    /// included.
    pub records: Vec<CrdtSpan>,
    /// Recorded delete runs: `(delete events, ascending target ids,
    /// forward?)`, ascending and disjoint in event space.
    pub del_runs: Vec<(DTRange, DTRange, bool)>,
}

impl TrackerSnapshot {
    /// Validates the structural invariants [`Tracker::from_snapshot`] and
    /// all later tracker operations rely on, so a decoder can safely
    /// restore untrusted (e.g. disk-corrupted but CRC-valid) bytes
    /// without risking a panic or an unbounded allocation downstream.
    ///
    /// `num_events` is the total event count of the oplog this snapshot
    /// accompanies: every real character ID and every delete-event LV
    /// must fall below it.
    pub fn validate(&self, num_events: usize) -> Result<(), &'static str> {
        let mut total_raw = 0usize;
        for r in &self.records {
            if r.id.start >= r.id.end {
                return Err("empty record span");
            }
            if r.id.start < UNDERWATER_START {
                if r.id.end > num_events {
                    return Err("record id beyond oplog");
                }
            } else if r.id.end > UNDERWATER_START + UNDERWATER_LEN {
                return Err("record id beyond placeholder space");
            }
            total_raw = total_raw
                .checked_add(r.id.end - r.id.start)
                .ok_or("record widths overflow")?;
            if let SpState::Del(n) = r.sp {
                if n == 0 {
                    return Err("Del(0) prepare state");
                }
            }
        }
        let mut prev_end = 0usize;
        for &(events, target, _fwd) in &self.del_runs {
            if events.start >= events.end {
                return Err("empty delete run");
            }
            if events.start < prev_end {
                return Err("delete runs not ascending");
            }
            prev_end = events.end;
            if events.end > num_events {
                return Err("delete event beyond oplog");
            }
            if events.len() != target.len() {
                return Err("delete run length mismatch");
            }
            if target.end > UNDERWATER_START + UNDERWATER_LEN {
                return Err("delete target beyond id space");
            }
        }
        Ok(())
    }
}

/// Event LV → `T`, dense over the LVs at or above a movable `base`.
///
/// Both things the tracker looks up by LV — the leaf holding a character
/// (its id is its insert event's LV) and the target of a delete event — are
/// only ever asked about events of the current *segment*: a critical
/// version splits the LV space exactly (§3.5), so once the state is
/// cleared there, every id and delete event seen again is above it. The
/// walker names the segment's first LV ([`Tracker::begin_segment`]) and an
/// empty index counts from it: the vector is as long as the segment, not
/// the history, and a clear is O(1). (Indexed by absolute LV, every clear
/// made the next insert refill the vector from LV 0 — O(history) per
/// critical version.)
///
/// `vacant` marks slots nothing was recorded for; lookups below the base
/// or past the end answer `vacant` too.
#[derive(Debug)]
struct LvIndex<T> {
    base: LV,
    vacant: T,
    dense: Vec<T>,
}

impl<T: Copy + PartialEq> LvIndex<T> {
    fn new(vacant: T) -> Self {
        LvIndex {
            base: 0,
            vacant,
            dense: Vec::new(),
        }
    }

    /// Forgets everything, retaining capacity.
    fn clear(&mut self) {
        self.dense.clear();
    }

    /// Declares that every LV recorded from now on is `>= first`. An empty
    /// index starts counting there; one that holds entries (a restored
    /// snapshot being resumed) keeps its own, lower, base.
    fn start_at(&mut self, first: LV) {
        if self.dense.is_empty() {
            self.base = first;
        } else {
            debug_assert!(self.base <= first, "index base above the segment");
        }
    }

    /// The slots of `lvs`, growing the vector to cover them.
    fn slots(&mut self, lvs: DTRange) -> &mut [T] {
        assert!(
            lvs.start >= self.base,
            "LV {} below the index base {}",
            lvs.start,
            self.base
        );
        let (start, end) = (lvs.start - self.base, lvs.end - self.base);
        if self.dense.len() < end {
            self.dense.resize(end, self.vacant);
        }
        &mut self.dense[start..end]
    }

    /// The lowest LV the index can record: its base once it holds
    /// entries (it cannot re-base downward), any LV while it is empty.
    fn lowest_recordable(&self) -> LV {
        if self.dense.is_empty() {
            0
        } else {
            self.base
        }
    }

    /// What was recorded for `lv` (`vacant` if nothing).
    fn get(&self, lv: LV) -> T {
        lv.checked_sub(self.base)
            .and_then(|i| self.dense.get(i))
            .map_or(self.vacant, |v| *v)
    }

    /// One past the highest LV that may hold a value.
    fn end(&self) -> LV {
        self.base + self.dense.len()
    }
}

/// Delete-event LV → target-character id: `get(lv)` is the id of the
/// character that delete event `lv` removed ([`NO_TARGET`] for events that
/// are not applied deletes). Runs re-materialise on lookup by scanning for
/// consecutive ±1 targets, so replay pays no map-node allocation per
/// recorded delete run.
impl LvIndex<usize> {
    /// Records that delete events `events` removed the characters `target`
    /// (ascending ids; `fwd` gives the event-to-id direction).
    fn record(&mut self, events: DTRange, target: DTRange, fwd: bool) {
        debug_assert_eq!(events.len(), target.len());
        for (k, slot) in self.slots(events).iter_mut().enumerate() {
            *slot = if fwd {
                target.start + k
            } else {
                target.end - 1 - k
            };
        }
    }

    /// The target id of delete event `lv`.
    fn target_of(&self, lv: LV) -> usize {
        let t = self.get(lv);
        assert_ne!(t, NO_TARGET, "event {lv} is not a recorded delete");
        t
    }

    /// The longest run of events starting at `lv` (bounded by `end`) whose
    /// targets form one contiguous id run. Returns the target ids as an
    /// ascending range plus the run length in events.
    fn run_at(&self, lv: LV, end: LV) -> (DTRange, usize) {
        let t0 = self.target_of(lv);
        // `NO_TARGET` is `usize::MAX`, which no `t0 ± n` below can equal.
        let mut n = 1usize;
        if lv + 1 < end && self.get(lv + 1) == t0 + 1 {
            // Ascending (fwd) run.
            while lv + n < end && self.get(lv + n) == t0 + n {
                n += 1;
            }
            ((t0..t0 + n).into(), n)
        } else if t0 > 0 && lv + 1 < end && self.get(lv + 1) == t0 - 1 {
            // Descending (bwd) run.
            while lv + n < end && t0 >= n && self.get(lv + n) == t0 - n {
                n += 1;
            }
            ((t0 + 1 - n..t0 + 1).into(), n)
        } else {
            ((t0..t0 + 1).into(), 1)
        }
    }
}

/// The tracker's character-ID → tree-leaf index (the paper's "second
/// B-tree", §3.4).
///
/// Real character IDs are insert-event LVs, dense above the segment base,
/// so they index a flat [`LvIndex`] directly: O(1) point lookups and a
/// `fill` per split notification, an order of magnitude cheaper than the
/// interval-map route the profile showed dominating C1/C2 merge time.
/// Placeholder (underwater) IDs sit near `usize::MAX` and stay in an
/// [`IntervalMap`], which handles their huge sparse ranges in O(pieces).
#[derive(Debug)]
struct IdIndex {
    /// Real IDs → the leaf holding the record (`Option<LeafIdx>` packs into
    /// 4 bytes via the `NonZeroU32` niche).
    real: LvIndex<Option<LeafIdx>>,
    /// Underwater IDs, keyed by their full `usize` range.
    underwater: IntervalMap<LeafIdx>,
}

impl IdIndex {
    fn new() -> Self {
        IdIndex {
            real: LvIndex::new(None),
            underwater: IntervalMap::default(),
        }
    }

    /// Points every id of `ids` (one uniform span: all real or all
    /// underwater) at `leaf`.
    fn set(&mut self, ids: DTRange, leaf: LeafIdx) {
        if ids.start >= UNDERWATER_START {
            self.underwater.set(ids, leaf);
            return;
        }
        debug_assert!(ids.end <= UNDERWATER_START, "span straddles id spaces");
        self.real.slots(ids).fill(Some(leaf));
    }

    /// The leaf indexed for `id`, if any.
    fn get(&self, id: usize) -> Option<LeafIdx> {
        if id >= UNDERWATER_START {
            return self.underwater.get(id).map(|(_, leaf)| leaf);
        }
        self.real.get(id)
    }

    fn clear(&mut self) {
        self.real.clear();
        self.underwater.clear();
    }
}

/// What the last merge left in a tracker, so that the next merge can
/// resume from it instead of replaying its conflict window
/// (`walker::merge_walk`, paper §3.5–§3.6).
///
/// The frontiers are overwritten in place from merge to merge, keeping
/// their allocations; `valid` says whether they describe the tracker.
#[derive(Debug, Default)]
pub(crate) struct Live {
    /// Whether the fields below describe the tracker. Dropped by a reset,
    /// a clear, and by driving the tracker by hand.
    pub(crate) valid: bool,
    /// The oplog whose LVs the frontiers are in (its `LogId`).
    pub(crate) log: u64,
    /// The version the records describe (the effect dimension).
    pub(crate) version: Frontier,
    /// Where the prepare dimension stands; it may lag `version`.
    pub(crate) prepare: Frontier,
    /// The version the placeholder stands for: the base of the walk that
    /// reset the tracker, or the last critical version it crossed.
    pub(crate) floor: Frontier,
}

impl Live {
    /// Records that a merge on `oplog` left the records at `version` and
    /// the prepare dimension at event `prepare`.
    pub(crate) fn settle(&mut self, oplog: &OpLog, version: &[LV], prepare: LV) {
        self.log = oplog.id.0;
        self.version.0.clear();
        // ALLOC: retained frontier buffer, grows only past its widest version
        self.version.0.extend_from_slice(version);
        self.prepare.replace_with_1(prepare);
        self.valid = true;
    }

    /// Declares a tracker at `version` of `oplog` (prepare == effect ==
    /// `version`) live there: one restored from a snapshot, or rebuilt by
    /// `walker::snapshot_at`. Its placeholder may stand for an older
    /// version, but only a tail causally after `version` is let through, as
    /// if it did stand for `version`.
    pub(crate) fn install(&mut self, oplog: &OpLog, version: &[LV]) {
        self.log = oplog.id.0;
        self.floor.0.clear();
        // ALLOC: retained frontier buffer, grows only past its widest version
        self.floor.0.extend_from_slice(version);
        self.prepare.0.clone_from(&self.floor.0);
        self.version.0.clone_from(&self.floor.0);
        self.valid = true;
    }
}

/// The transient internal state of the Eg-walker algorithm.
///
/// A tracker is `Send` — the multi-core server host moves one onto each
/// worker thread — but deliberately **not** `Sync`: the cursor and
/// emit-position caches are plain [`Cell`]s, so sharing a tracker across
/// threads would be a data race. Each worker owns its own. Frozen by
/// this compile-fail check (it compiles the day `Tracker` becomes
/// `Sync`, failing the doctest):
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<egwalker::Tracker>();
/// ```
#[derive(Debug)]
pub struct Tracker {
    tree: ContentTree<CrdtSpan, TRACKER_FANOUT>,
    /// Character ID → tree leaf holding its record.
    ins_loc: IdIndex,
    /// Delete-event LV → target character id.
    del_targets: LvIndex<usize>,
    /// Last-used cursor, the fast path for sequential ID lookups.
    ///
    /// Validation is by ID containment: record IDs are unique across the
    /// tree and leaves are never demoted to internal nodes, so *any* entry
    /// that contains the sought ID is the right one no matter how stale
    /// the cached position is. The cache therefore only has to be dropped
    /// when the ID space itself resets ([`Tracker::clear`]); structural
    /// edits merely turn hits into misses.
    cache: Cell<Option<Cursor>>,
    /// Disables the cache entirely (reference mode for equivalence tests).
    cache_enabled: bool,
    /// Last emitted insert position, the fast path that lets consecutive
    /// sequential insert runs skip the per-op upward
    /// [`ContentTree::offset_of`] walk.
    ///
    /// Validation is by identity: a hit requires the new record to land in
    /// the *same entry slot* (`leaf`, `entry_idx`) holding the *same run*
    /// (`id_start`) as the previous emitted insert — i.e. the insert
    /// RLE-merged onto the cached entry's tail, which appends in place and
    /// cannot move anything left of the entry. Every other tree mutation
    /// (deletes, retreat/advance, non-emitted or non-merging inserts,
    /// clear) invalidates the cache outright, so a stale `end_base` can
    /// never be read.
    emit_cache: Cell<Option<EmitPos>>,
    /// Disables the emit-position cache (reference mode for the
    /// equivalence property tests).
    emit_cache_enabled: bool,
    /// Raw positions memoised during a single [`Tracker::integrate`] scan
    /// (cleared at scan start; the tree does not change mid-scan). Long
    /// scans on scan-heavy (A-series) traces revisit the same origins many
    /// times; the memo collapses those repeated `raw_pos_of` tree walks.
    /// Kept as a member so its capacity is reused across scans.
    integrate_memo: HashMap<usize, usize>,
    /// Reusable run buffer for [`Tracker::move_prepare`] (retreat/advance
    /// run once per walk step; allocating it fresh each time showed up on
    /// the concurrent traces).
    prepare_scratch: Vec<(DTRange, OpRun)>,
    /// Reusable piece buffer for the forward-delete batch
    /// ([`Tracker::apply_delete_fwd`]).
    delete_scratch: Vec<DelPiece>,
    /// The walk driver's pooled buffers (the planner's node pools, CSR
    /// edges, diff scratch and range pool; the segment span list), kept
    /// here so they survive across walk windows.
    pub(crate) walk: WalkScratch,
    /// What the last merge left, for the next merge to resume.
    pub(crate) live: Live,
}

/// One entry-bounded chunk of a forward delete, recorded by the batch
/// policy (identical granularity to the naive per-entry loop).
#[derive(Debug, Clone, Copy)]
struct DelPiece {
    ids: DTRange,
    was_deleted: bool,
    emit_pos: usize,
}

/// The emit-position cache entry: where the last emitted insert landed and
/// what the `end`-dimension offset of that entry's start was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EmitPos {
    /// Leaf that held the record.
    leaf: LeafIdx,
    /// Entry index within the leaf.
    entry_idx: usize,
    /// `id.start` of the entry when cached (identity check: entry indexes
    /// are reused as leaves restructure, IDs are not).
    id_start: usize,
    /// Number of `end`-visible units strictly before the entry.
    end_base: usize,
}

/// Direction of a prepare-version move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Retreat,
    Advance,
}

impl Default for Tracker {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracker {
    /// Creates a cleared tracker: a single placeholder standing for the
    /// (unknown) document at the replay base version.
    pub fn new() -> Self {
        Self::new_with_caches(true, true)
    }

    /// [`Tracker::new`] with both the cursor cache and the emit-position
    /// cache switched on or off independently. All four combinations
    /// produce byte-identical output; disabling exists for the equivalence
    /// property tests.
    pub fn new_with_caches(cache_enabled: bool, emit_cache_enabled: bool) -> Self {
        let mut t = Tracker {
            tree: ContentTree::new(),
            ins_loc: IdIndex::new(),
            del_targets: LvIndex::new(NO_TARGET),
            cache: Cell::new(None),
            cache_enabled,
            emit_cache: Cell::new(None),
            emit_cache_enabled,
            integrate_memo: HashMap::new(),
            prepare_scratch: Vec::new(),
            delete_scratch: Vec::new(),
            walk: WalkScratch::default(),
            live: Live::default(),
        };
        t.install_placeholder();
        t
    }

    /// Discards all internal state (paper §3.5) and reinstalls a fresh
    /// placeholder for the document at the new base version.
    ///
    /// Every allocation is retained: the record tree's slabs truncate in
    /// place, the dense indexes keep their vectors, and the scratch buffers
    /// keep their capacity — so the rebuild after a critical-version clear
    /// (or a merge that cannot resume a reused tracker) costs zero
    /// allocator calls until the state outgrows its previous high-water
    /// mark. The live version of the last merge is dropped.
    pub(crate) fn clear(&mut self) {
        self.tree.clear();
        self.ins_loc.clear();
        self.del_targets.clear();
        // The arena was reset: cached node indexes are meaningless.
        self.cache.set(None);
        self.emit_cache.set(None);
        self.live.valid = false;
        self.install_placeholder();
    }

    /// [`Tracker::clear`] plus cache-switch reconfiguration: resets the
    /// tracker for a fresh walk while retaining every allocation. This is
    /// how `walker::walk_reusing` recycles one tracker across merge windows.
    pub(crate) fn reset_with_caches(&mut self, cache_enabled: bool, emit_cache_enabled: bool) {
        self.set_caches(cache_enabled, emit_cache_enabled);
        self.clear();
    }

    /// Switches the cursor and emit-position caches on or off without
    /// touching the records. A switch that changes forgets what the caches
    /// held: a cache left alone while off may have gone stale.
    pub(crate) fn set_caches(&mut self, cache_enabled: bool, emit_cache_enabled: bool) {
        if (self.cache_enabled, self.emit_cache_enabled) != (cache_enabled, emit_cache_enabled) {
            self.cache_enabled = cache_enabled;
            self.emit_cache_enabled = emit_cache_enabled;
            self.cache.set(None);
            self.emit_cache.set(None);
        }
    }

    /// The lowest LV a walk resumed on this tracker may record: its
    /// LV-keyed indexes cannot count from below an LV they already hold
    /// entries above (see [`Tracker::begin_segment`]).
    pub(crate) fn lowest_recordable(&self) -> LV {
        self.ins_loc
            .real
            .lowest_recordable()
            .max(self.del_targets.lowest_recordable())
    }

    /// Tells the tracker that every event it is about to apply, retreat or
    /// advance has an LV `>= first` — the walker calls this with the first
    /// LV of each segment it replays. A cleared tracker's LV-keyed indexes
    /// then count from `first` (and assert it) rather than from LV 0; a
    /// resumed tracker's keep counting from the lowest LV they hold, which
    /// a merge only resumes when it is not above `first`
    /// (`Tracker::lowest_recordable`).
    ///
    /// Skipping the call is safe — the indexes then count from wherever
    /// they last did, at the cost of a vector spanning the gap.
    pub(crate) fn begin_segment(&mut self, first: LV) {
        self.ins_loc.real.start_at(first);
        self.del_targets.start_at(first);
    }

    fn install_placeholder(&mut self) {
        let span = CrdtSpan {
            id: (UNDERWATER_START..UNDERWATER_START + UNDERWATER_LEN).into(),
            origin_left: ORIGIN_START,
            origin_right: ORIGIN_END,
            sp: SpState::Ins,
            se_deleted: false,
        };
        let ins_loc = &mut self.ins_loc;
        let cursor = self.tree.cursor_at_start();
        self.tree
            .insert_at(cursor, span, &mut |e: &CrdtSpan, leaf| {
                ins_loc.set(e.id, leaf);
            });
    }

    /// The number of records (including placeholders) currently held.
    pub fn num_records(&self) -> usize {
        self.tree.num_entries()
    }

    /// Snapshots the internal record sequence, in document order — the rows
    /// of the paper's Figures 6 and 7. Placeholder (underwater) spans are
    /// included; filter with [`is_underwater_id`] if only real characters
    /// are of interest. Intended for tests, debugging, and visualisation.
    pub fn records(&self) -> Vec<CrdtSpan> {
        self.tree.iter().copied().collect()
    }

    /// Captures the tracker's replay state as a [`TrackerSnapshot`].
    ///
    /// The snapshot pairs with the version the tracker represents, and only
    /// when its prepare and effect dimensions both stand there. The caller
    /// records that version alongside (the storage layer's checkpoint
    /// record does). A tracker a merge left live stands there once its
    /// prepare dimension, which stops at the last event the merge applied,
    /// has caught up: [`crate::walker::snapshot_at`] advances it and then
    /// snapshots, and rebuilds any other tracker the way
    /// [`crate::walker::tracker_at`] builds one.
    pub fn to_snapshot(&self) -> TrackerSnapshot {
        let records = self.records();
        let mut del_runs = Vec::new();
        let del = &self.del_targets;
        let mut lv = del.base;
        while lv < del.end() {
            if del.get(lv) == NO_TARGET {
                lv += 1;
                continue;
            }
            let (target, n) = del.run_at(lv, del.end());
            let fwd = n == 1 || del.get(lv + 1) == del.get(lv) + 1;
            del_runs.push((DTRange::from(lv..lv + n), target, fwd));
            lv += n;
        }
        TrackerSnapshot { records, del_runs }
    }

    /// Restores a tracker from a snapshot, with both caches enabled.
    ///
    /// The record tree is rebuilt dense by bulk load (repopulating the
    /// ID → leaf index from the entry stream) and the delete runs are
    /// re-recorded; caches, scratch buffers, and the walk plan start
    /// empty. The restored tracker is behaviourally identical to the one
    /// that produced the snapshot, except that it is not live: a merge
    /// resumes it only once told the snapshot's version
    /// ([`OpLog::open_cached`] does). The snapshot does not name the LV its
    /// indexes counted from; each restored index counts from the smallest
    /// LV the snapshot holds for it, which a tail causally after the
    /// snapshot never goes below (see [`Tracker::begin_segment`]).
    ///
    /// For untrusted input, call [`TrackerSnapshot::validate`] first —
    /// this constructor trusts the snapshot's structural invariants.
    pub fn from_snapshot(snap: &TrackerSnapshot) -> Self {
        let mut ins_loc = IdIndex::new();
        let real_ids = snap.records.iter().filter(|r| !r.is_underwater());
        ins_loc
            .real
            .start_at(real_ids.map(|r| r.id.start).min().unwrap_or(0));
        let tree = ContentTree::from_entries(snap.records.iter().copied(), |e: &CrdtSpan, leaf| {
            ins_loc.set(e.id, leaf);
        });
        let mut del_targets = LvIndex::new(NO_TARGET);
        del_targets.start_at(
            snap.del_runs
                .iter()
                .map(|(events, _, _)| events.start)
                .min()
                .unwrap_or(0),
        );
        for &(events, target, fwd) in &snap.del_runs {
            del_targets.record(events, target, fwd);
        }
        Tracker {
            tree,
            ins_loc,
            del_targets,
            cache: Cell::new(None),
            cache_enabled: true,
            emit_cache: Cell::new(None),
            emit_cache_enabled: true,
            integrate_memo: HashMap::new(),
            prepare_scratch: Vec::new(),
            delete_scratch: Vec::new(),
            walk: WalkScratch::default(),
            live: Live::default(),
        }
    }

    /// Scans one leaf for the entry containing `id`.
    fn find_in_leaf(&self, leaf: LeafIdx, id: usize) -> Option<(Cursor, usize)> {
        for (i, e) in self.tree.entries_in_leaf(leaf).iter().enumerate() {
            if e.id.contains(id) {
                let offset = id - e.id.start;
                return Some((
                    Cursor {
                        leaf,
                        entry_idx: i,
                        offset,
                    },
                    e.len() - offset,
                ));
            }
        }
        None
    }

    /// Finds the record chunk containing `id`, returning a cursor at it and
    /// the remaining length of the containing entry from that offset.
    ///
    /// Fast path: probe the cached cursor's leaf and its successor (runs
    /// are laid out left-to-right, so sequential lookups land there);
    /// otherwise descend via the ID index and re-seed the cache.
    fn cursor_for_id(&self, id: usize) -> (Cursor, usize) {
        if self.cache_enabled {
            if let Some(c) = self.cache.get() {
                let hit = self
                    .find_in_leaf(c.leaf, id)
                    .or_else(|| self.find_in_leaf(self.tree.next_leaf(c.leaf)?, id));
                if let Some(found) = hit {
                    self.cache.set(Some(found.0));
                    return found;
                }
            }
        }
        let leaf = self
            .ins_loc
            .get(id)
            .unwrap_or_else(|| panic!("unknown record id {id}"));
        let found = self
            .find_in_leaf(leaf, id)
            .unwrap_or_else(|| panic!("record id {id} not found in its indexed leaf"));
        if self.cache_enabled {
            self.cache.set(Some(found.0));
        }
        found
    }

    /// Re-seeds the cursor cache at the start of `leaf` (the best guess
    /// after a batched mutation restructured it).
    fn seed_cache(&self, leaf: LeafIdx) {
        if self.cache_enabled {
            self.cache.set(Some(Cursor {
                leaf,
                entry_idx: 0,
                offset: 0,
            }));
        }
    }

    /// The raw sequence position of the record with the given ID.
    fn raw_pos_of(&self, id: usize) -> usize {
        let (cursor, _) = self.cursor_for_id(id);
        self.tree.offset_of(cursor.leaf, cursor.entry_idx).raw + cursor.offset
    }

    /// Applies a state-machine step to the records of `ids` (ascending
    /// chunk; order within is irrelevant as every unit gets the same step).
    ///
    /// Span-batched: one tree descent per *leaf* worth of consecutive
    /// records, mutated in a single [`ContentTree::mutate_run`] pass with
    /// one width fix-up, instead of a descent + repair per entry.
    fn mutate_ids(&mut self, ids: DTRange, step: impl Fn(&mut CrdtSpan) + Copy) {
        // State mutations shift entry widths; drop the emit-position cache.
        self.emit_cache.set(None);
        let mut next = ids.start;
        while next < ids.end {
            let (cursor, _) = self.cursor_for_id(next);
            let before = next;
            let end = ids.end;
            {
                let tree = &mut self.tree;
                let ins_loc = &mut self.ins_loc;
                tree.mutate_run(
                    &cursor,
                    |e: &CrdtSpan, off| {
                        // Keep batching while the leaf's entries continue
                        // the ID run; anything else re-descends.
                        if next >= end {
                            RunStep::Stop
                        } else if e.id.start + off == next {
                            let n = (end - next).min(e.len() - off);
                            next += n;
                            RunStep::Mutate(n)
                        } else {
                            RunStep::Stop
                        }
                    },
                    |e| step(e),
                    &mut |e: &CrdtSpan, leaf| {
                        ins_loc.set(e.id, leaf);
                    },
                );
            }
            assert!(next > before, "mutate_ids made no progress at id {next}");
            // The batch may have split its leaf; probing from the leaf
            // start still finds the continuation (there or in the split
            // sibling, the leaf's successor).
            self.seed_cache(cursor.leaf);
        }
    }

    /// Retreats every event of `range` (paper §3.2): updates the prepare
    /// version to exclude them. Events must currently be included.
    ///
    /// Like every state change outside a merge, this drops the live version
    /// the last merge left, so the next merge replays its window.
    pub fn retreat(&mut self, oplog: &OpLog, range: DTRange) {
        self.move_prepare(oplog, range, Dir::Retreat);
    }

    /// Advances every event of `range`: updates the prepare version to
    /// include them again. The events must have been applied before.
    pub fn advance(&mut self, oplog: &OpLog, range: DTRange) {
        self.move_prepare(oplog, range, Dir::Advance);
    }

    fn move_prepare(&mut self, oplog: &OpLog, range: DTRange, dir: Dir) {
        self.live.valid = false;
        // Retreats must process causally-later events first (a delete of a
        // character must be retreated before the insert that created it);
        // advances the other way around. LV order respects causality.
        // The run buffer is a reusable scratch member: retreat/advance run
        // once per walk step, and a per-step heap allocation here showed
        // up on the concurrent traces.
        let mut runs = std::mem::take(&mut self.prepare_scratch);
        runs.clear();
        runs.extend(oplog.ops_in(range)); // ALLOC: pooled prepare_scratch, capacity retained across walks
        match dir {
            Dir::Retreat => {
                for i in (0..runs.len()).rev() {
                    let (lvs, run) = runs[i];
                    self.prepare_one(lvs, &run, dir);
                }
            }
            Dir::Advance => {
                for i in 0..runs.len() {
                    let (lvs, run) = runs[i];
                    self.prepare_one(lvs, &run, dir);
                }
            }
        }
        self.prepare_scratch = runs;
    }

    /// Moves the prepare state for one operation run (a [`Tracker::move_prepare`]
    /// step).
    fn prepare_one(&mut self, lvs: DTRange, run: &OpRun, dir: Dir) {
        match run.kind {
            ListOpKind::Ins => {
                // Insert events: record ids == event lvs.
                self.mutate_ids(lvs, |e| {
                    e.sp = match (dir, e.sp) {
                        (Dir::Retreat, SpState::Ins) => SpState::NotInsertedYet,
                        (Dir::Advance, SpState::NotInsertedYet) => SpState::Ins,
                        (d, s) => panic!("invalid insert {d:?} from state {s:?}"),
                    };
                });
            }
            ListOpKind::Del => {
                // Look up the targets chunk-wise in the dense index, run
                // coalescing by direction as we go.
                let mut lv = lvs.start;
                while lv < lvs.end {
                    let (ids, n) = self.del_targets.run_at(lv, lvs.end);
                    self.mutate_ids(ids, |e| {
                        e.sp = match (dir, e.sp) {
                            (Dir::Retreat, SpState::Del(1)) => SpState::Ins,
                            (Dir::Retreat, SpState::Del(n)) => SpState::Del(n - 1),
                            (Dir::Advance, SpState::Ins) => SpState::Del(1),
                            (Dir::Advance, SpState::Del(n)) => SpState::Del(n + 1),
                            (d, s) => panic!("invalid delete {d:?} from state {s:?}"),
                        };
                    });
                    lv += n;
                }
            }
        }
    }

    /// Applies a run of events (paper §3.3), emitting transformed operations
    /// through `out` when `emit` is set.
    ///
    /// Operations are emitted as borrowed [`TextOpRef`]s (insert content is
    /// a `&str` slice of the oplog's content arena); nothing on this path
    /// heap-allocates per operation.
    ///
    /// The prepare version must already equal the run's parent version
    /// (the walker guarantees this via retreat/advance). Called by hand, it
    /// drops the live version as [`Tracker::retreat`] does.
    pub fn apply_range<F>(&mut self, oplog: &OpLog, range: DTRange, emit: bool, out: &mut F)
    where
        F: FnMut(DTRange, TextOpRef<'_>),
    {
        self.apply_range_observed(oplog, range, emit, out, &mut |_| {});
    }

    /// [`Tracker::apply_range`] with an observer that sees every internal
    /// state change in ID space. Used to convert event graphs into CRDT
    /// operation streams (the paper's `crdt-converter`, §A.5).
    pub(crate) fn apply_range_observed<F>(
        &mut self,
        oplog: &OpLog,
        range: DTRange,
        emit: bool,
        out: &mut F,
        observe: &mut dyn FnMut(CrdtChange),
    ) where
        F: FnMut(DTRange, TextOpRef<'_>),
    {
        self.live.valid = false;
        for (lvs, run) in oplog.ops_in(range) {
            match run.kind {
                ListOpKind::Ins => self.apply_insert(oplog, lvs, &run, emit, out, observe),
                ListOpKind::Del => self.apply_delete(lvs, &run, emit, out, observe),
            }
        }
    }

    /// Applies one insert run: finds the position in the prepare state,
    /// integrates against concurrent insertions (§3.3), inserts the record
    /// and emits the transformed insertion.
    fn apply_insert<F>(
        &mut self,
        oplog: &OpLog,
        lvs: DTRange,
        run: &OpRun,
        emit: bool,
        out: &mut F,
        observe: &mut dyn FnMut(CrdtChange),
    ) where
        F: FnMut(DTRange, TextOpRef<'_>),
    {
        let pos = run.loc.start;

        // Locate the scan start: just after the character left of the
        // insert position (in prepare coordinates).
        let (cursor, origin_left) = if pos == 0 {
            (self.tree.cursor_at_start(), ORIGIN_START)
        } else {
            let (c, _) = self.tree.cursor_at_cur_unit(pos - 1);
            let e = self.tree.entry_at(&c);
            debug_assert_eq!(e.sp, SpState::Ins);
            let ol = e.id.start + c.offset;
            (
                Cursor {
                    leaf: c.leaf,
                    entry_idx: c.entry_idx,
                    offset: c.offset + 1,
                },
                ol,
            )
        };

        // Find the right origin: the first record at-or-after the position
        // that is not NotInsertedYet (pseudocode: prepare_state >= 1).
        // Track whether any NotInsertedYet record was skipped on the way:
        // the records between the two origins are exactly those skipped
        // entries, so when none were skipped the integration scan is
        // vacuous and `dest == cursor` without computing a single raw
        // position (the common case on sequential runs, and on most
        // concurrent inserts too).
        let mut origin_right = ORIGIN_END;
        let mut skipped_niy = false;
        {
            let mut scan = cursor;
            loop {
                let valid = if scan.entry_idx < self.tree.entries_in_leaf(scan.leaf).len()
                    && scan.offset < self.tree.entry_at(&scan).len()
                {
                    true
                } else {
                    scan.offset = 0;
                    self.tree.cursor_next_entry(&mut scan)
                };
                if !valid {
                    break;
                }
                let e = self.tree.entry_at(&scan);
                if e.sp != SpState::NotInsertedYet {
                    origin_right = e.id.start + scan.offset;
                    break;
                }
                skipped_niy = true;
                if !self.tree.cursor_next_entry(&mut scan) {
                    break;
                }
            }
        }

        let new_span = CrdtSpan {
            id: lvs,
            origin_left,
            origin_right,
            sp: SpState::Ins,
            se_deleted: false,
        };
        let dest = if skipped_niy {
            self.integrate(oplog, &new_span, cursor)
        } else {
            cursor
        };
        observe(CrdtChange::Ins { span: new_span });

        let ins_loc = &mut self.ins_loc;
        let placed = self
            .tree
            .insert_at(dest, new_span, &mut |e: &CrdtSpan, leaf| {
                ins_loc.set(e.id, leaf);
            });
        // Sequential edits overwhelmingly target the just-inserted run
        // (the next insert's origin-left, a following delete's target).
        if self.cache_enabled {
            self.cache.set(Some(placed));
        }

        if emit {
            // The record just inserted is effect-visible, and if it merged
            // into an existing entry that entry is effect-visible too, so
            // the effect position is the entry-start `end` offset plus the
            // raw offset within the entry. The entry-start offset comes
            // from the emit-position cache when this insert RLE-merged
            // onto the entry the previous emitted insert landed in
            // (sequential typing, the overwhelmingly common case);
            // otherwise from an upward `offset_of` walk, re-seeding the
            // cache.
            let end_base = self
                .emit_pos_hit(&placed)
                .unwrap_or_else(|| self.tree.offset_of(placed.leaf, placed.entry_idx).end);
            if self.emit_cache_enabled {
                self.emit_cache.set(Some(EmitPos {
                    leaf: placed.leaf,
                    entry_idx: placed.entry_idx,
                    id_start: self.tree.entries_in_leaf(placed.leaf)[placed.entry_idx]
                        .id
                        .start,
                    end_base,
                }));
            }
            let effect_pos = end_base + placed.offset;
            let content = oplog.content_slice(run.content.expect("insert without content"));
            out(
                lvs,
                TextOpRef {
                    kind: ListOpKind::Ins,
                    pos: effect_pos,
                    len: lvs.len(),
                    content: Some(content),
                },
            );
        } else {
            // The tree changed without the emit bookkeeping; any cached
            // emit position is stale.
            self.emit_cache.set(None);
        }
    }

    /// Checks the emit-position cache against the slot the insert landed
    /// in. A hit requires the same `(leaf, entry_idx)` slot to still hold
    /// the run it was cached for — then this insert merged onto that
    /// entry's tail in place, and the cached entry-start offset is intact.
    fn emit_pos_hit(&self, placed: &Cursor) -> Option<usize> {
        if !self.emit_cache_enabled {
            return None;
        }
        let c = self.emit_cache.get()?;
        if c.leaf == placed.leaf
            && c.entry_idx == placed.entry_idx
            && self.tree.entries_in_leaf(placed.leaf)[placed.entry_idx]
                .id
                .start
                == c.id_start
        {
            Some(c.end_base)
        } else {
            None
        }
    }

    /// [`Tracker::raw_pos_of`] memoised for the duration of one
    /// [`Tracker::integrate`] scan (the tree does not change mid-scan).
    /// Scan-heavy traces ask for the same origins over and over; the memo
    /// turns the repeated tree walks into hash lookups.
    fn raw_pos_of_memo(&mut self, id: usize) -> usize {
        if let Some(&p) = self.integrate_memo.get(&id) {
            return p;
        }
        let p = self.raw_pos_of(id);
        self.integrate_memo.insert(id, p);
        p
    }

    /// The YjsMod integration scan (paper §3.3, Listing 2): walks the
    /// records between the two origins to find where a concurrent insertion
    /// belongs. Returns the destination cursor.
    fn integrate(&mut self, oplog: &OpLog, new_span: &CrdtSpan, cursor: Cursor) -> Cursor {
        let cursor_raw = {
            let w = self.tree.offset_of(cursor.leaf, cursor.entry_idx);
            w.raw + cursor.offset
        };
        let left_raw: i64 = if new_span.origin_left == ORIGIN_START {
            -1
        } else {
            cursor_raw as i64 - 1
        };
        let right_raw: i64 = if new_span.origin_right == ORIGIN_END {
            i64::MAX
        } else {
            self.raw_pos_of(new_span.origin_right) as i64
        };

        // Fast path: nothing between the origins.
        if cursor_raw as i64 == right_raw {
            return cursor;
        }

        // The scan below may look each visited record's origins up by raw
        // position; those lookups repeat heavily, so they go through a
        // per-scan memo (valid because the tree is not mutated mid-scan).
        self.integrate_memo.clear();
        let mut scanning = false;
        let mut dest = cursor;
        let mut i = cursor;
        let mut i_raw = cursor_raw;
        loop {
            if !scanning {
                dest = i;
            }
            if i_raw as i64 == right_raw {
                break;
            }
            // Normalise / advance to a valid entry.
            let valid = if i.entry_idx < self.tree.entries_in_leaf(i.leaf).len()
                && i.offset < self.tree.entry_at(&i).len()
            {
                true
            } else {
                i.offset = 0;
                self.tree.cursor_next_entry(&mut i)
            };
            if !valid {
                break; // End of document.
            }
            let other = *self.tree.entry_at(&i);
            debug_assert!(
                !other.is_underwater(),
                "integrate scan must not cross a placeholder"
            );
            debug_assert_eq!(other.sp, SpState::NotInsertedYet);
            debug_assert_eq!(i.offset, 0, "scan entries are visited run-aligned");

            let oleft: i64 = if other.origin_left == ORIGIN_START {
                -1
            } else {
                self.raw_pos_of_memo(other.origin_left) as i64
            };
            #[allow(clippy::comparison_chain)]
            if oleft < left_raw {
                break;
            } else if oleft == left_raw {
                let oright: i64 = if other.origin_right == ORIGIN_END {
                    i64::MAX
                } else {
                    self.raw_pos_of_memo(other.origin_right) as i64
                };
                #[allow(clippy::comparison_chain)]
                if oright < right_raw {
                    scanning = true;
                } else if oright == right_raw {
                    // Same origins: tie-break on agent name, as in Yjs.
                    let my_agent = oplog.agents.lv_to_agent_span(new_span.id.start).agent;
                    let other_agent = oplog.agents.lv_to_agent_span(other.id.start).agent;
                    let my_name = oplog.agents.agent_name(my_agent);
                    let other_name = oplog.agents.agent_name(other_agent);
                    if my_name < other_name {
                        break;
                    }
                    scanning = false;
                } else {
                    scanning = false;
                }
            }
            // Skip the whole run: its tail items chain on their predecessor
            // (their origin-left lies inside the run, which is > left).
            i_raw += other.len();
            i.offset = other.len();
        }
        dest
    }

    /// Applies one delete run chunk-wise, marking targets deleted in both
    /// state machines and emitting transformed deletions.
    fn apply_delete<F>(
        &mut self,
        lvs: DTRange,
        run: &OpRun,
        emit: bool,
        out: &mut F,
        observe: &mut dyn FnMut(CrdtChange),
    ) where
        F: FnMut(DTRange, TextOpRef<'_>),
    {
        // Deletes shrink widths left of wherever the next insert lands;
        // the cached emit position is no longer trustworthy.
        self.emit_cache.set(None);
        if run.fwd {
            self.apply_delete_fwd(lvs, run, emit, out, observe);
            return;
        }
        let n = lvs.len();
        let mut done = 0usize;
        // In prepare coordinates: backward runs walk down from the top.
        let mut bwd_pos = run.loc.end - 1;
        while done < n {
            let (cursor, end_off, chunk, target_ids, was_deleted) = {
                let (c, end_off) = self.tree.cursor_at_cur_unit(bwd_pos);
                let e = self.tree.entry_at(&c);
                debug_assert_eq!(e.sp, SpState::Ins);
                let chunk = (n - done).min(c.offset + 1);
                let start_off = c.offset + 1 - chunk;
                let ids: DTRange = (e.id.start + start_off..e.id.start + start_off + chunk).into();
                // When the entry is already effect-deleted nothing will be
                // emitted; guard the position arithmetic (end_off can be
                // smaller than the chunk in that case).
                let emit_pos = if e.se_deleted { 0 } else { end_off + 1 - chunk };
                (
                    Cursor {
                        leaf: c.leaf,
                        entry_idx: c.entry_idx,
                        offset: start_off,
                    },
                    emit_pos,
                    chunk,
                    ids,
                    e.se_deleted,
                )
            };

            let ins_loc = &mut self.ins_loc;
            self.tree.mutate_entry(
                &cursor,
                chunk,
                |e| {
                    debug_assert_eq!(e.sp, SpState::Ins);
                    e.sp = SpState::Del(1);
                    e.se_deleted = true;
                },
                &mut |e: &CrdtSpan, leaf| {
                    ins_loc.set(e.id, leaf);
                },
            );
            let events: DTRange = (lvs.start + done..lvs.start + done + chunk).into();
            self.del_targets.record(events, target_ids, run.fwd);
            observe(CrdtChange::Del {
                events,
                target: target_ids,
                fwd: run.fwd,
            });
            if emit && !was_deleted {
                out(
                    (lvs.start + done..lvs.start + done + chunk).into(),
                    TextOpRef::del(end_off, chunk),
                );
            }
            done += chunk;
            bwd_pos = bwd_pos.saturating_sub(chunk);
        }
    }

    /// The forward-delete fast path: one `cur`-position descent per leaf,
    /// then a span-batched [`ContentTree::mutate_run`] pass over the
    /// consecutive visible entries, with the transformed-emit positions
    /// maintained incrementally instead of re-derived by re-descending.
    ///
    /// A forward delete keeps deleting at a constant prepare index (each
    /// chunk makes its characters invisible, pulling the next ones to the
    /// same index), so the per-chunk descent of the naive loop does
    /// redundant work proportional to tree depth × run length.
    fn apply_delete_fwd<F>(
        &mut self,
        lvs: DTRange,
        run: &OpRun,
        emit: bool,
        out: &mut F,
        observe: &mut dyn FnMut(CrdtChange),
    ) where
        F: FnMut(DTRange, TextOpRef<'_>),
    {
        let n = lvs.len();
        let mut done = 0usize;
        // Reusable piece buffer (see [`DelPiece`]): per-run allocation here
        // is per-op cost on delete-heavy traces.
        let mut pieces = std::mem::take(&mut self.delete_scratch);
        while done < n {
            let (cursor, end_off) = self.tree.cursor_at_cur_unit(run.loc.start);
            pieces.clear();
            let mut remaining = n - done;
            // Number of end-visible units before the next target: starts at
            // the descent's answer; skipped (cur-invisible) entries that
            // are still end-visible push later targets right, while pieces
            // just deleted stop counting — exactly what a fresh descent
            // would report.
            let mut emit_pos = end_off;
            {
                let tree = &mut self.tree;
                let ins_loc = &mut self.ins_loc;
                tree.mutate_run(
                    &cursor,
                    |e: &CrdtSpan, off| {
                        if remaining == 0 {
                            return RunStep::Stop;
                        }
                        if e.width_cur() == 0 {
                            debug_assert_eq!(off, 0);
                            emit_pos += e.width_end();
                            return RunStep::Skip;
                        }
                        debug_assert_eq!(e.sp, SpState::Ins);
                        let take = remaining.min(e.len() - off);
                        // ALLOC: pooled delete scratch, capacity retained across walks
                        pieces.push(DelPiece {
                            ids: (e.id.start + off..e.id.start + off + take).into(),
                            was_deleted: e.se_deleted,
                            emit_pos,
                        });
                        remaining -= take;
                        RunStep::Mutate(take)
                    },
                    |e| {
                        debug_assert_eq!(e.sp, SpState::Ins);
                        e.sp = SpState::Del(1);
                        e.se_deleted = true;
                    },
                    &mut |e: &CrdtSpan, leaf| {
                        ins_loc.set(e.id, leaf);
                    },
                );
            }
            debug_assert!(!pieces.is_empty(), "descent landed on a mutable entry");
            self.seed_cache(cursor.leaf);
            for p in &pieces {
                let chunk = p.ids.len();
                let events: DTRange = (lvs.start + done..lvs.start + done + chunk).into();
                self.del_targets.record(events, p.ids, true);
                observe(CrdtChange::Del {
                    events,
                    target: p.ids,
                    fwd: true,
                });
                if emit && !p.was_deleted {
                    out(events, TextOpRef::del(p.emit_pos, chunk));
                }
                done += chunk;
            }
        }
        self.delete_scratch = pieces;
    }

    /// Validates tree invariants (testing).
    pub fn check(&self) {
        self.tree.check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn del_target_directions() {
        // Forward run: events 20..24 delete ids 10..14 in order.
        let mut idx = LvIndex::new(NO_TARGET);
        idx.record((20..24).into(), (10..14).into(), true);
        assert_eq!(idx.target_of(20), 10);
        assert_eq!(idx.target_of(23), 13);
        assert_eq!(idx.run_at(20, 24), ((10..14).into(), 4));
        // Bounded by the queried event range.
        assert_eq!(idx.run_at(21, 23), ((11..13).into(), 2));
        // Backward run: events 30..34 delete ids 13, 12, 11, 10.
        let mut idx = LvIndex::new(NO_TARGET);
        idx.record((30..34).into(), (10..14).into(), false);
        assert_eq!(idx.target_of(30), 13);
        assert_eq!(idx.target_of(33), 10);
        assert_eq!(idx.run_at(30, 34), ((10..14).into(), 4));
        assert_eq!(idx.run_at(31, 33), ((11..13).into(), 2));
        // Singleton in the middle of nothing.
        let mut idx = LvIndex::new(NO_TARGET);
        idx.record((5..6).into(), (40..41).into(), true);
        assert_eq!(idx.run_at(5, 6), ((40..41).into(), 1));
    }

    #[test]
    fn del_target_runs_recorded_piecewise() {
        // Two separately recorded forward chunks with contiguous targets
        // coalesce on lookup — and a direction flip breaks the run.
        let mut idx = LvIndex::new(NO_TARGET);
        idx.record((0..2).into(), (100..102).into(), true);
        idx.record((2..4).into(), (102..104).into(), true);
        assert_eq!(idx.run_at(0, 4), ((100..104).into(), 4));
        idx.record((4..6).into(), (98..100).into(), false);
        assert_eq!(idx.run_at(3, 6), ((103..104).into(), 1));
        assert_eq!(idx.run_at(4, 6), ((98..100).into(), 2));
    }

    #[test]
    fn lv_index_counts_from_its_base() {
        let mut idx = LvIndex::new(NO_TARGET);
        idx.start_at(1_000_000);
        idx.record((1_000_004..1_000_006).into(), (7..9).into(), true);
        // Six slots, not a million.
        assert_eq!(idx.dense.len(), 6);
        assert_eq!(idx.get(1_000_005), 8);
        assert_eq!(idx.end(), 1_000_006);
        // Vacant inside, below the base and past the end.
        assert_eq!(idx.get(1_000_000), NO_TARGET);
        assert_eq!(idx.get(999_999), NO_TARGET);
        assert_eq!(idx.get(1_000_006), NO_TARGET);
        // An index with entries keeps its base; a cleared one takes the new.
        idx.start_at(1_000_002);
        assert_eq!(idx.base, 1_000_000);
        idx.clear();
        assert_eq!(idx.get(1_000_005), NO_TARGET);
        idx.start_at(2_000_000);
        idx.record((2_000_000..2_000_001).into(), (3..4).into(), true);
        assert_eq!(idx.dense.len(), 1);
    }

    #[test]
    #[should_panic(expected = "below the index base")]
    fn lv_index_rejects_lvs_below_its_base() {
        let mut idx = LvIndex::new(NO_TARGET);
        idx.start_at(10);
        idx.record((9..10).into(), (0..1).into(), true);
    }

    #[test]
    fn snapshot_round_trips_rebased_indexes() {
        // A tracker whose segment starts at LV 500: an insert and a delete.
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("a");
        oplog.add_insert(a, 0, &"x".repeat(500));
        oplog.add_insert(a, 10, "abc");
        oplog.add_delete(a, 11, 2);
        let mut t: Tracker = Tracker::new();
        t.begin_segment(500);
        t.apply_range(&oplog, (500..505).into(), false, &mut |_, _| {});
        assert_eq!(t.ins_loc.real.base, 500);
        let snap = t.to_snapshot();
        assert_eq!(
            snap.del_runs,
            vec![((503..505).into(), (501..503).into(), true)]
        );
        let restored: Tracker = Tracker::from_snapshot(&snap);
        // Each restored index counts from the smallest LV it holds.
        assert_eq!(restored.ins_loc.real.base, 500);
        assert_eq!(restored.del_targets.base, 503);
        assert_eq!(restored.to_snapshot(), snap);
        assert_eq!(restored.ins_loc.get(502), t.ins_loc.get(502));
    }

    #[test]
    fn crdt_span_split_merge() {
        let mut s = CrdtSpan {
            id: (10..15).into(),
            origin_left: 3,
            origin_right: 7,
            sp: SpState::Ins,
            se_deleted: false,
        };
        let tail = s.truncate(2);
        assert_eq!(s.id, (10..12).into());
        assert_eq!(tail.id, (12..15).into());
        assert_eq!(tail.origin_left, 11);
        assert_eq!(tail.origin_right, 7);
        let mut a = s;
        assert!(a.can_append(&tail));
        a.append(tail);
        assert_eq!(a.id, (10..15).into());
        // Different states do not merge.
        let mut other = a;
        let t2 = other.truncate(2);
        let mut t2_del = t2;
        t2_del.sp = SpState::Del(1);
        assert!(!other.can_append(&t2_del));
    }

    #[test]
    fn fresh_tracker_has_placeholder() {
        let t: Tracker = Tracker::new();
        assert_eq!(t.num_records(), 1);
        // The placeholder is visible in both dimensions.
        let w = t.tree.total_widths();
        assert_eq!(w.cur, UNDERWATER_LEN);
        assert_eq!(w.end, UNDERWATER_LEN);
    }
}
