//! Reused-tracker equivalence: a [`Tracker`] recycled across walk windows
//! (`walker::walk_reusing`, `Branch::merge_to`) must be
//! indistinguishable from a freshly constructed one — byte-identical
//! transformed-operation streams and byte-identical merged documents —
//! under testgen's multi-byte UTF-8 concurrent workloads.
//!
//! This is the safety net for the slab arena's capacity-retaining
//! `clear()`: if any scrap of state survives a reset (a stale cache entry,
//! a dirty free-list slot, a dense-index remnant), these properties break.

use eg_dag::walk::PlanOrder;
use eg_rle::DTRange;
use egwalker::testgen::{mid_run_criticals_oplog, random_oplog};
use egwalker::tracker::Tracker;
use egwalker::walker::{self, transformed_ops};
use egwalker::{Branch, Frontier, OpLog, TextOperation, WalkerOpts, LV};
use proptest::prelude::*;

/// What [`transformed_ops`] computes, walked on the caller's tracker: the
/// same window through [`walker::walk_reusing`], collected into owned ops.
fn transformed_ops_on(
    oplog: &OpLog,
    from: &[LV],
    to: &[LV],
    opts: WalkerOpts,
    tracker: &mut Tracker,
) -> (Frontier, Vec<(DTRange, TextOperation)>) {
    let target = oplog.graph.version_union(from, to);
    let diff = oplog.graph.diff(from, &target);
    let (base, spans) = oplog.graph.conflict_window(from, &target);
    let mut out = Vec::new();
    walker::walk_reusing(
        oplog,
        &base,
        &spans,
        &diff.only_b,
        opts,
        tracker,
        &mut |lvs, op| out.push((lvs, op.to_owned())),
    );
    (target, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One tracker reused across many *independent* documents emits the
    /// same op stream as a fresh tracker per document.
    #[test]
    fn reused_tracker_matches_fresh_across_documents(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let mut reused: Tracker = Tracker::new();
        for doc in 0..4u64 {
            let oplog = random_oplog(seed.wrapping_add(doc), steps, replicas, merge_prob);
            let fresh = transformed_ops(&oplog, &[], oplog.version(), WalkerOpts::default());
            let recycled = transformed_ops_on(
                &oplog,
                &[],
                oplog.version(),
                WalkerOpts::default(),
                &mut reused,
            );
            prop_assert_eq!(fresh.0, recycled.0, "final versions diverged (doc {})", doc);
            prop_assert_eq!(fresh.1, recycled.1, "op streams diverged (doc {})", doc);
        }
    }

    /// Incremental merges through one long-lived tracker produce the same
    /// document as batch checkouts with per-merge trackers, at every
    /// intermediate version — with the default switches and, on the same
    /// tracker, with clearing off and a non-default plan order. The two
    /// branches take turns with the tracker, so each merge either resumes
    /// the state the other's merge left (when it holds that version) or
    /// replays: resumed == fresh at every step, either way.
    #[test]
    fn incremental_reused_merges_match_batch_checkout(
        seed in 0u64..1_000_000,
        steps in 4usize..40,
        replicas in 2usize..5,
        merge_prob in 0.1f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let ablated = WalkerOpts {
            enable_clearing: false,
            plan_order: [PlanOrder::LargestFirst, PlanOrder::Arrival][seed as usize % 2],
            ..Default::default()
        };
        let mut live = Branch::new();
        let mut live_ablated = Branch::new();
        let mut tracker: Tracker = Tracker::new();
        // Merge in growing prefixes of the LV space: each step exercises a
        // reset tracker against partially merged state.
        let n = oplog.len();
        let step = (n / 5).max(1);
        let mut upto = step.min(n);
        loop {
            // LV prefixes are causally closed (append order is topological),
            // so the prefix's frontier is its dominator set.
            let all: Vec<usize> = (0..upto).collect();
            let frontier = oplog.graph.find_dominators(&all);
            live.merge_to(&oplog, &frontier, WalkerOpts::default(), &mut tracker);
            tracker.check();
            live_ablated.merge_to(&oplog, &frontier, ablated, &mut tracker);
            tracker.check();
            let batch = oplog.checkout(&frontier);
            prop_assert_eq!(&live, &batch, "documents diverged at {}/{} events", upto, n);
            prop_assert_eq!(
                &live_ablated, &batch,
                "documents diverged at {}/{} events under {:?}", upto, n, ablated
            );
            if upto == n {
                break;
            }
            upto = (upto + step).min(n);
        }
        // Final state matches a full tip checkout.
        live.merge_reusing(&oplog, &mut tracker);
        let tip = oplog.checkout_tip();
        prop_assert_eq!(live.content.to_string(), tip.content.to_string());
        prop_assert_eq!(&live.version, oplog.version());
    }

    /// Cache toggles interact correctly with reuse: resetting a tracker
    /// with different cache flags than it was built with must not change
    /// the output.
    #[test]
    fn reuse_across_cache_configurations(
        seed in 0u64..1_000_000,
        steps in 1usize..50,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let expected = transformed_ops(&oplog, &[], oplog.version(), WalkerOpts::default());
        let mut tracker: Tracker = Tracker::new_with_caches(false, false);
        for (cursor_cache, emit_cache) in
            [(true, true), (false, true), (true, false), (false, false)]
        {
            let opts = WalkerOpts { cursor_cache, emit_cache, ..Default::default() };
            let got = transformed_ops_on(&oplog, &[], oplog.version(), opts, &mut tracker);
            prop_assert_eq!(&expected.0, &got.0);
            prop_assert_eq!(&expected.1, &got.1,
                "op streams diverged at caches ({}, {})", cursor_cache, emit_cache);
        }
    }

    /// Critical versions planted in the middle of graph runs, merged a few
    /// events at a time: every merge clears the reused tracker mid-walk
    /// (re-basing its LV-keyed indexes), starts where the last one stopped
    /// — inside a critical run, inside a concurrent window — and must emit
    /// exactly what a fresh tracker emits.
    ///
    /// The same steps merged into a branch through a tracker each merge
    /// leaves live: the resumed merges walk only the stride's events, and
    /// still reach the document the fresh walks do.
    #[test]
    fn reused_tracker_matches_fresh_across_planted_windows(
        seed in 0u64..1_000_000,
        windows in 1usize..20,
        stride in 1usize..12,
    ) {
        let (oplog, _) = mid_run_criticals_oplog(seed, windows);
        let mut reused: Tracker = Tracker::new();
        let mut live_tracker: Tracker = Tracker::new();
        let mut live = Branch::new();
        let mut from = Frontier::root();
        let (mut upto, mut steps, mut resumed) = (0, 0, 0);
        while upto < oplog.len() {
            upto = (upto + stride).min(oplog.len());
            let all: Vec<usize> = (0..upto).collect();
            let to = oplog.graph.find_dominators(&all);
            let fresh = transformed_ops(&oplog, &from, &to, WalkerOpts::default());
            let recycled =
                transformed_ops_on(&oplog, &from, &to, WalkerOpts::default(), &mut reused);
            reused.check();
            prop_assert_eq!(&fresh.0, &recycled.0, "versions diverged at {}", upto);
            prop_assert_eq!(&fresh.1, &recycled.1, "op streams diverged at {}", upto);
            resumed += usize::from(live.merge_to(&oplog, &to, WalkerOpts::default(), &mut live_tracker));
            live_tracker.check();
            prop_assert_eq!(&live.version, &fresh.0);
            prop_assert_eq!(&live, &oplog.checkout(&to), "live tracker diverged at {}", upto);
            from = fresh.0;
            steps += 1;
        }
        prop_assert_eq!(&from, oplog.version());
        // Only the first merge is bound to replay.
        prop_assert!(steps < 3 || resumed > 0, "none of {} merges resumed", steps);
    }

    /// A tracker snapshot taken in the middle of a segment — at the end of
    /// a concurrent window, before the critical version that would clear
    /// it — restored and resumed over the rest of the history equals a
    /// fresh walk: the snapshot round-trips the re-based indexes, and the
    /// resumed walk still cuts and clears at every later critical version.
    #[test]
    fn resumed_walk_from_mid_segment_snapshot_matches_fresh(
        seed in 0u64..1_000_000,
        windows in 2usize..16,
    ) {
        let (oplog, _) = mid_run_criticals_oplog(seed, windows);
        let tip = oplog.checkout_tip();
        let mut resumed_any = false;
        for cut in 1..oplog.len() {
            let all: Vec<usize> = (0..cut).collect();
            let version = oplog.graph.find_dominators(&all);
            let at = oplog.checkout(version.as_slice());
            let tracker = walker::tracker_at(&oplog, version.as_slice(), WalkerOpts::default());
            let snap = tracker.to_snapshot();
            prop_assert!(snap.validate(oplog.len()).is_ok());
            let restored = Tracker::from_snapshot(&snap);
            restored.check();
            prop_assert_eq!(restored.to_snapshot(), snap.clone(), "snapshot did not round-trip at {}", cut);
            // Cuts inside a concurrent window leave tail events concurrent
            // with the checkpoint, where resuming is unsound and the open
            // falls back to a fresh merge; window ends resume.
            let resumes = (cut..oplog.len())
                .all(|lv| oplog.graph.frontier_contains_frontier(&[lv], &version));
            resumed_any |= resumes && snap.records.len() > 1;
            let (warm, _) = oplog.open_cached(&at.content.to_string(), &version, Some(&snap));
            prop_assert_eq!(&warm, &tip, "cut {} (resumes: {})", cut, resumes);
        }
        prop_assert!(resumed_any, "no cut exercised the resumed path with live records");
    }
}
