//! The walk driver: replays a window of the event graph through the
//! [`Tracker`](crate::tracker::Tracker), emitting transformed operations
//! (paper §3.2), clearing internal state at critical versions and
//! fast-forwarding untransformed runs (§3.5), and on merge walking only
//! what is new (§3.6): the new events on the state the tracker's last merge
//! left, or — when that state cannot be resumed — the conflict window back
//! to the latest critical version.

use crate::op::{ListOpKind, TextOpRef, TextOperation};
use crate::tracker::{Tracker, TrackerSnapshot};
use crate::OpLog;
use eg_dag::walk::{PlanOrder, WalkPlan};
use eg_dag::{Frontier, Graph, LV};
use eg_rle::{DTRange, HasLength};
use std::borrow::Cow;

/// Tuning knobs for the walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkerOpts {
    /// Enables the §3.5 optimisations: clearing the internal state at
    /// critical versions and emitting events untransformed when both their
    /// version and parent version are critical. Disabling this reproduces
    /// the "opt disabled" series of the paper's Fig. 9.
    pub enable_clearing: bool,
    /// Branch-ordering policy for the topological sort (§3.2, §3.7). The
    /// non-default policies are the orders §4.3 compares ("as much as 8×
    /// slower"); the order-invariance property tests walk with them.
    pub plan_order: PlanOrder,
    /// Enables the tracker's last-used-cursor cache (on by default).
    /// Disabling reproduces the reference (uncached) replay for the
    /// equivalence property tests;
    /// output is byte-identical either way.
    pub cursor_cache: bool,
    /// Enables the tracker's emit-position cache (on by default):
    /// consecutive sequential insert runs that extend the same record
    /// entry skip the per-op upward `offset_of` walk. Disabling reproduces
    /// the reference (uncached) emit path for the equivalence property
    /// tests; output is byte-identical either way.
    pub emit_cache: bool,
}

impl Default for WalkerOpts {
    fn default() -> Self {
        WalkerOpts {
            enable_clearing: true,
            plan_order: PlanOrder::SmallestFirst,
            cursor_cache: true,
            emit_cache: true,
        }
    }
}

/// Replays `spans` (ascending, causally closed above `base`) and calls
/// `out(lvs, op)` with the transformed operation for every event inside
/// `emit` (ascending subset of `spans`).
///
/// Transformed operations arrive in a linear order: applying them in
/// sequence to the document at `Events(version at emit start)` yields the
/// merged document (the "rebase" of §3).
///
/// Operations are emitted as borrowed [`TextOpRef`]s — insert content is a
/// `&str` slice of the oplog's content arena, valid only for the duration
/// of the callback. Callers that need ownership convert with
/// [`TextOpRef::to_owned`] (that is the only per-op allocation in the
/// pipeline, and it is opt-in).
///
/// The caller-owned [`Tracker`] is the walk's context: it is reset on
/// entry (retaining its slab, index, and scratch capacity) and left
/// populated on return, so a long-lived replica can replay thousands of
/// windows with near-zero allocator traffic. A one-off walk passes
/// `&mut Tracker::new()`. Unlike a merge, a walk does not leave the
/// tracker live: `spans` need not end at a version.
pub fn walk_reusing<F>(
    oplog: &OpLog,
    base: &Frontier,
    spans: &[DTRange],
    emit: &[DTRange],
    opts: WalkerOpts,
    tracker: &mut Tracker,
    out: &mut F,
) where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    walk_driver(oplog, Some(base), spans, emit, opts, tracker, out);
}

/// The one merge preamble (§3.6): replays what `Events(to)` adds to a
/// document at version `from`, calling `out` with each transformed
/// operation in application order. Returns the merged version
/// `from ∪ to`, and whether the walk resumed `tracker`.
///
/// Events the document already reflects are not re-emitted; when nothing
/// is new, nothing is walked and `tracker` is left as it was.
///
/// Every merge leaves `tracker` live: it records the merged version its
/// records now describe, where its prepare dimension stands, and the
/// version its placeholder stands for (its *floor*). The next merge
/// resumes that state when it can — see [`resume_spans`] for the three
/// conditions — and then walks only `diff(live version, from ∪ to)`,
/// planned from the live prepare version, emitting only
/// `diff(from, from ∪ to)`. Otherwise it replays the conflict window,
/// back to the latest critical version below the new events, on a reset
/// tracker: always correct, and the only fallback.
pub(crate) fn merge_walk<F>(
    oplog: &OpLog,
    from: &[LV],
    to: &[LV],
    opts: WalkerOpts,
    tracker: &mut Tracker,
    out: &mut F,
) -> (Frontier, bool)
where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    let graph = &oplog.graph;
    let target = graph.version_union(from, to);
    if target.as_slice() == from {
        return (target, false);
    }
    let diff = graph.diff(from, &target);
    debug_assert!(diff.only_a.is_empty());
    let new = &diff.only_b;
    let resume = resume_spans(oplog, tracker, from, &target, new);
    let resumed = resume.is_some();
    let last = match resume {
        Some(spans) => walk_driver(oplog, None, &spans, new, opts, tracker, out),
        None => {
            let (base, spans) = graph.conflict_window(from, &target);
            walk_driver(oplog, Some(&base), &spans, new, opts, tracker, out)
        }
    };
    // Something new was walked, so something was consumed.
    if let Some(prepare) = last {
        tracker.live.settle(oplog, &target, prepare);
    }
    (target, resumed)
}

/// The events a merge from `from` to `target` walks on `tracker` as its
/// last merge left it — `diff(live version, target)` — or `None` if that
/// state cannot be resumed. `new` is `diff(from, target)`.
///
/// The state must come from a merge on this oplog (`LogId`), and then three
/// conditions, each needed:
/// * `from` contains the live version. The records must not describe an
///   event the document lacks, or the effect positions emitted would
///   count text that is not there.
/// * Every walked event is causally after the floor. The tracker knows
///   nothing below its floor but a placeholder, so no walked event's
///   parents may lie below or beside it: the plan would retreat an event
///   the tracker cleared at a critical version (a late event concurrent
///   with that version makes it non-critical after the fact).
/// * No walked LV is below the base of the tracker's LV-keyed indexes,
///   which cannot re-base downward while they hold entries (merging an old,
///   unmerged branch reaches below it).
fn resume_spans<'a>(
    oplog: &OpLog,
    tracker: &Tracker,
    from: &[LV],
    target: &[LV],
    new: &'a [DTRange],
) -> Option<Cow<'a, [DTRange]>> {
    let (graph, live) = (&oplog.graph, &tracker.live);
    if !live.valid || live.log != oplog.id.0 {
        return None;
    }
    let walked = if live.version.as_slice() == from {
        Cow::Borrowed(new)
    } else if graph.frontier_contains_frontier(from, &live.version) {
        Cow::Owned(graph.diff(&live.version, target).only_b)
    } else {
        return None;
    };
    let first = walked.first()?.start;
    (first >= tracker.lowest_recordable() && spans_dominate(graph, &live.floor, &walked))
        .then_some(walked)
}

/// Returns `true` if every event in `spans` is causally after the whole of
/// `base` — the precondition for walking `spans` on a tracker whose
/// placeholder stands for the document at `base`.
///
/// Events are scanned in ascending LV order (a topological order), so an
/// event whose parent lies inside `spans` inherits domination from that
/// already-checked parent; only the minimal events of `spans` pay a graph
/// query.
fn spans_dominate(graph: &Graph, base: &[LV], spans: &[DTRange]) -> bool {
    let in_spans = |lv: LV| -> bool {
        spans
            .binary_search_by(|s| {
                if s.end <= lv {
                    std::cmp::Ordering::Less
                } else if s.start > lv {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    };
    for &r in spans {
        let mut lv = r.start;
        while lv < r.end {
            let (entry, offset) = graph.entry_for(lv);
            let dominated = if offset > 0 {
                // Mid-run: the parent is `lv - 1`.
                in_spans(lv - 1) || graph.frontier_contains_frontier(&[lv - 1], base)
            } else if entry.parents.as_slice().iter().any(|&p| in_spans(p)) {
                true
            } else {
                graph.frontier_contains_frontier(entry.parents.as_slice(), base)
            };
            if !dominated {
                return false;
            }
            lv = entry.span.end.min(r.end);
        }
    }
    true
}

/// The walk driver's pooled buffers, owned by the [`Tracker`] so that reuse
/// carries their capacity across windows. Each holds one *segment* at a
/// time, so they grow to the largest inter-critical segment a replica has
/// walked, not to its history.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    /// The current segment's plan.
    plan: WalkPlan,
    /// The window's spans clipped to the current segment.
    spans: Vec<DTRange>,
    /// The version the current segment starts from.
    base: Frontier,
}

/// The walk loop. Returns the last event the walk consumed — the
/// tracker's prepare version — or `None` for an empty window.
///
/// With `Some(base)` the tracker is reset first, its placeholder standing
/// for the document at `base`, a version dominated by all events in
/// `spans`. With `None` the walk resumes the tracker as its last merge
/// left it ([`resume_spans`] has checked that it may): the first piece is
/// planned from the live prepare version, and the plan's ordinary
/// retreat/advance lists move it wherever each event needs it. A resumed
/// tracker holding nothing but its placeholder starts clean, exactly like
/// a reset one, so a critical version at the start of `spans` is still
/// fast-forwarded (§3.5); one holding records starts dirty, and the
/// fast-forward waits for the first critical version crossed.
///
/// Either way, the tracker's floor follows the placeholder: `base` on a
/// reset, then the end of every critical run crossed.
///
/// The window is cut after every maximal run of critical versions
/// (§3.5). A critical version `c` splits the LV space exactly — every
/// event below it is its ancestor, every event above its descendant — so
/// the piece that ends at `c` is causally closed and the next one is
/// causally closed above `{c}`: each is planned and replayed on its own.
/// Within a piece, the events up to and including the run's first
/// critical version go through the tracker, the state is cleared there,
/// and the rest of the run (version and parent version both critical) is
/// emitted untransformed. With `enable_clearing` off the whole window is
/// one piece.
fn walk_driver<F>(
    oplog: &OpLog,
    base: Option<&[LV]>,
    spans: &[DTRange],
    emit: &[DTRange],
    opts: WalkerOpts,
    tracker: &mut Tracker,
    out: &mut F,
) -> Option<LV>
where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    let lo = spans.first().map_or(0, |s| s.start);
    let hi = spans.last().map_or(0, |s| s.end);
    // Taken out for the duration of the walk: the plan's steps borrow from
    // its range pool while the tracker is mutated.
    let mut scratch = std::mem::take(&mut tracker.walk);
    scratch.base.0.clear();
    // `clean` means: the tracker holds nothing but a placeholder, standing
    // for the document at the current (prepare == effect) version.
    let mut clean = match base {
        Some(base) => {
            tracker.reset_with_caches(opts.cursor_cache, opts.emit_cache);
            tracker.live.floor.0.clear();
            // ALLOC: retained frontier buffer, grows only past its widest version
            tracker.live.floor.0.extend_from_slice(base);
            // ALLOC: pooled segment base, capacity retained across walks
            scratch.base.0.extend_from_slice(base);
            true
        }
        None => {
            tracker.set_caches(opts.cursor_cache, opts.emit_cache);
            // ALLOC: pooled segment base, capacity retained across walks
            scratch.base.0.extend_from_slice(&tracker.live.prepare);
            tracker.num_records() == 1
        }
    };

    let criticals = oplog.graph.criticals_runs();
    let mut next_run = if opts.enable_clearing {
        criticals.partition_point(|r| r.end <= lo)
    } else {
        criticals.len()
    };
    let mut last_consumed = None;
    let mut at = lo;
    while at < hi {
        // The next maximal critical run inside the window. Critical LVs
        // between two window events are window events themselves, so
        // clipping to `at..hi` is clipping to the window.
        let run: Option<DTRange> = criticals
            .get(next_run)
            .filter(|r| r.start < hi)
            .map(|r| (r.start.max(at)..r.end.min(hi)).into());
        next_run += 1;

        // Through the tracker: everything before the run plus its first
        // event, whose parent version is not critical — unless the
        // tracker is clean and the run starts right here.
        let tracked_end = match run {
            Some(r) if clean && r.start == at => at,
            Some(r) => r.start + 1,
            None => hi,
        };
        if at < tracked_end {
            tracker.begin_segment(at);
            clip_spans(spans, (at..tracked_end).into(), &mut scratch.spans);
            let seg_emit = overlapping(emit, at, tracked_end);
            scratch.plan.plan_with_order(
                &oplog.graph,
                &scratch.base,
                &scratch.spans,
                seg_emit,
                opts.plan_order,
            );
            last_consumed = walk_segment(oplog, &scratch.plan, seg_emit, tracker, out);
            clean = false;
        }
        let Some(run) = run else { break };
        // A critical version was crossed: drop the internal state. No
        // event at or below it is looked up again.
        if !clean {
            tracker.clear();
            clean = true;
        }
        emit_as_is(oplog, (tracked_end..run.end).into(), emit, out);
        last_consumed = Some(run.end - 1);
        scratch.base.replace_with_1(run.end - 1);
        tracker.live.floor.replace_with_1(run.end - 1);
        at = run.end;
    }
    tracker.walk = scratch;
    last_consumed
}

/// Replays one planned segment through the tracker, emitting the events
/// inside `emit`. Returns the last event consumed.
fn walk_segment<F>(
    oplog: &OpLog,
    plan: &WalkPlan,
    emit: &[DTRange],
    tracker: &mut Tracker,
    out: &mut F,
) -> Option<LV>
where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    let mut last_consumed = None;
    for step in plan.iter() {
        for r in step.retreat.iter().rev() {
            tracker.retreat(oplog, *r);
        }
        for r in step.advance {
            tracker.advance(oplog, *r);
        }
        // Apply, chunked on emit boundaries.
        let mut range = step.consume;
        while !range.is_empty() {
            let (emit_flag, len) = emit_overlap(emit, range);
            let chunk: DTRange = (range.start..range.start + len).into();
            tracker.apply_range(oplog, chunk, emit_flag, out);
            range.start = chunk.end;
        }
        last_consumed = Some(step.consume.end - 1);
    }
    last_consumed
}

/// Writes `spans ∩ clip` into `out` (cleared first; capacity retained).
fn clip_spans(spans: &[DTRange], clip: DTRange, out: &mut Vec<DTRange>) {
    out.clear();
    for s in overlapping(spans, clip.start, clip.end) {
        // ALLOC: pooled segment span list, capacity retained across walks
        out.push((s.start.max(clip.start)..s.end.min(clip.end)).into());
    }
}

/// The sub-slice of `ranges` (ascending, disjoint) that overlaps
/// `start..end`. Its first and last range may stick out of it.
fn overlapping(ranges: &[DTRange], start: LV, end: LV) -> &[DTRange] {
    let from = ranges.partition_point(|r| r.end <= start);
    let to = from + ranges[from..].partition_point(|r| r.start < end);
    &ranges[from..to]
}

/// `(emit?, len)` for the longest prefix of `range` with a uniform emit
/// flag. `emit` is ascending, but consumption can jump between branches,
/// so this binary searches.
fn emit_overlap(emit: &[DTRange], range: DTRange) -> (bool, usize) {
    let idx = emit.partition_point(|r| r.end <= range.start);
    match emit.get(idx) {
        Some(r) if r.start <= range.start => (true, r.end.min(range.end) - range.start),
        Some(r) => (false, r.start.min(range.end) - range.start),
        None => (false, range.len()),
    }
}

/// Emits the events of `range` untransformed (their version and parent
/// versions are critical, so the transformed operation equals the
/// original).
fn emit_as_is<F>(oplog: &OpLog, range: DTRange, emit: &[DTRange], out: &mut F)
where
    F: FnMut(DTRange, TextOpRef<'_>),
{
    let mut range = range;
    while !range.is_empty() {
        let (emit_flag, len) = emit_overlap(emit, range);
        let chunk: DTRange = (range.start..range.start + len).into();
        if emit_flag {
            for (lvs, mut run) in oplog.ops_in(chunk) {
                // Normalise multi-unit backward deletes: deleting [s, e)
                // backwards one key-press at a time has the same effect as
                // deleting the whole range at `s`.
                if run.kind == ListOpKind::Del {
                    run.fwd = true;
                }
                let op = TextOpRef {
                    kind: run.kind,
                    pos: run.loc.start,
                    len: lvs.len(),
                    content: run.content.map(|c| oplog.content_slice(c)),
                };
                out(lvs, op);
            }
        }
        range.start = chunk.end;
    }
}

/// Builds a tracker representing the document at `version`, with the
/// prepare and effect dimensions both at exactly `version` — the state a
/// checkpoint snapshot captures ([`Tracker::to_snapshot`]) and that a
/// resumed walk ([`OpLog::open_cached`]) later extends over the oplog tail.
///
/// Only the §3.5 conflict window (from the latest critical version at or
/// below `version`) is replayed, not the whole history; at a critical
/// version the window is empty and the tracker is just the placeholder.
pub fn tracker_at(oplog: &OpLog, version: &[LV], opts: WalkerOpts) -> Tracker {
    let mut tracker = Tracker::new_with_caches(opts.cursor_cache, opts.emit_cache);
    if version.is_empty() {
        return tracker;
    }
    let (base, spans) = oplog.graph.conflict_window(version, version);
    if spans.is_empty() {
        return tracker;
    }
    let last_consumed = walk_driver(
        oplog,
        Some(&base),
        &spans,
        &[],
        opts,
        &mut tracker,
        &mut |_, _| {},
    );
    // The walk leaves the prepare dimension at the tip of the last run it
    // consumed; advance it over whatever else `version` dominates so that
    // prepare == effect == `version`. Fast-forwarded runs are critical
    // versions and hence already inside any later prepare version, so
    // every range advanced here has live records in the tracker.
    let prepare = match last_consumed {
        Some(lv) => Frontier::new_1(lv),
        None => base,
    };
    let gap = oplog.graph.diff(prepare.as_slice(), version);
    debug_assert!(gap.only_a.is_empty());
    for r in gap.only_b {
        tracker.advance(oplog, r);
    }
    tracker
}

/// Snapshots the document at `version` — what a checkpoint stores beside
/// the text — from `tracker`, and leaves `tracker` live at `version`, so
/// the next merge through it resumes as it would have without the
/// snapshot. Returns the snapshot, and `true` if it came from the state
/// a merge left live at `version` on this oplog.
///
/// That state already describes `version`, except that its prepare
/// dimension may lag (it stands at the last event the merge consumed):
/// the lag, `diff(prepare, version)`, is advanced over, which walks no
/// conflict window. Any other tracker is rebuilt at `version` as
/// [`tracker_at`] builds one, then declared live there.
pub fn snapshot_at(
    oplog: &OpLog,
    version: &[LV],
    tracker: &mut Tracker,
) -> (TrackerSnapshot, bool) {
    let live = &tracker.live;
    let from_live = live.valid && live.log == oplog.id.0 && live.version.as_slice() == version;
    if from_live {
        let gap = oplog.graph.diff(&tracker.live.prepare, version);
        debug_assert!(gap.only_a.is_empty());
        for r in gap.only_b {
            tracker.advance(oplog, r);
        }
        // Advancing dropped the live mark; the records still describe
        // `version`, and now the prepare dimension stands there too.
        let live = &mut tracker.live;
        live.prepare.0.clone_from(&live.version.0);
        live.valid = true;
    } else {
        *tracker = tracker_at(oplog, version, WalkerOpts::default());
        tracker.live.install(oplog, version);
    }
    (tracker.to_snapshot(), from_live)
}

/// Replays the full event graph applying the emitted (transformed)
/// operations to a length counter instead of a rope, verifying every
/// position stays in bounds.
///
/// This is the structural-position check decoders run on untrusted files:
/// an event graph can be well-formed (valid parents, agents, RLE columns)
/// while its op *positions* reference characters that never exist in the
/// document the events build — applying such an op would panic inside the
/// rope. The simulation walks the exact plan a checkout walks and checks
/// the exact positions a checkout would apply, so `true` guarantees
/// [`OpLog::checkout_tip`] cannot go out of bounds, and valid logs are
/// never rejected.
pub fn events_apply_cleanly(oplog: &OpLog) -> bool {
    if oplog.is_empty() {
        return true;
    }
    let spans = [DTRange::from(0..oplog.len())];
    let mut len = 0usize;
    let mut ok = true;
    walk_reusing(
        oplog,
        &Frontier::root(),
        &spans,
        &spans,
        WalkerOpts::default(),
        &mut Tracker::new(),
        &mut |_, op| {
            if !ok {
                return;
            }
            match op.kind {
                ListOpKind::Ins if op.pos <= len => len += op.len,
                ListOpKind::Del if op.pos.checked_add(op.len).is_some_and(|e| e <= len) => {
                    len -= op.len;
                }
                _ => ok = false,
            }
        },
    );
    ok
}

/// Computes the transformed operations that take a document at version
/// `from` to the version `merge_frontier ∪ from`.
///
/// Returns the final version alongside the (LV range, operation) pairs in
/// application order. This is an ownership boundary: the borrowed ops the
/// walker emits are materialised into owned [`TextOperation`]s here.
pub fn transformed_ops(
    oplog: &OpLog,
    from: &[LV],
    merge_frontier: &[LV],
    opts: WalkerOpts,
) -> (Frontier, Vec<(DTRange, TextOperation)>) {
    let mut out = Vec::new();
    let (target, _) = merge_walk(
        oplog,
        from,
        merge_frontier,
        opts,
        &mut Tracker::new(),
        &mut |lvs, op| out.push((lvs, op.to_owned())),
    );
    (target, out)
}
