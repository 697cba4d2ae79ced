//! Equivalence of the tracker's cursor-cache fast path with the uncached
//! reference: on randomized concurrent traces, a cached and an uncached
//! [`Tracker`] must stay byte-identical — same internal record sequence,
//! same emitted operations — after **every** replay step, with the tree
//! invariants intact throughout. The cache is pure memoisation; any
//! divergence is a bug in its validation rules.

use eg_dag::walk::WalkPlan;
use eg_rle::DTRange;
use egwalker::reference::replay_reference;
use egwalker::testgen::{coalesce_ops, mid_run_criticals_oplog, random_oplog};
use egwalker::tracker::Tracker;
use egwalker::walker::transformed_ops;
use egwalker::{Branch, OpLog, TextOperation, WalkerOpts};
use proptest::prelude::*;

/// Replays the full event graph through two trackers in lockstep — cursor
/// cache on vs. off — asserting equality after every retreat, advance,
/// and apply step.
fn replay_lockstep(oplog: &OpLog) -> Result<(), TestCaseError> {
    let target = oplog.version().clone();
    let diff = oplog.graph.diff(&[], &target);
    let (base, spans) = oplog.graph.conflict_window(&[], &target);
    let mut plan = WalkPlan::new();
    plan.plan(&oplog.graph, &base, &spans, &diff.only_b);

    let mut cached: Tracker = Tracker::new_with_caches(true, true);
    let mut reference: Tracker = Tracker::new_with_caches(false, true);
    let mut ops_cached: Vec<(DTRange, TextOperation)> = Vec::new();
    let mut ops_reference: Vec<(DTRange, TextOperation)> = Vec::new();

    let assert_in_sync = |cached: &Tracker,
                          reference: &Tracker,
                          ops_cached: &[(DTRange, TextOperation)],
                          ops_reference: &[(DTRange, TextOperation)]|
     -> Result<(), TestCaseError> {
        cached.check();
        reference.check();
        prop_assert_eq!(cached.records(), reference.records(), "records diverged");
        prop_assert_eq!(ops_cached, ops_reference, "emitted ops diverged");
        Ok(())
    };

    for step in plan.iter() {
        for r in step.retreat.iter().rev() {
            cached.retreat(oplog, *r);
            reference.retreat(oplog, *r);
            assert_in_sync(&cached, &reference, &ops_cached, &ops_reference)?;
        }
        for r in step.advance {
            cached.advance(oplog, *r);
            reference.advance(oplog, *r);
            assert_in_sync(&cached, &reference, &ops_cached, &ops_reference)?;
        }
        cached.apply_range(oplog, step.consume, true, &mut |lvs, op| {
            ops_cached.push((lvs, op.to_owned()));
        });
        reference.apply_range(oplog, step.consume, true, &mut |lvs, op| {
            ops_reference.push((lvs, op.to_owned()));
        });
        assert_in_sync(&cached, &reference, &ops_cached, &ops_reference)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step-by-step tracker equivalence on random concurrent histories.
    #[test]
    fn cached_tracker_matches_reference(
        seed in 0u64..1_000_000,
        steps in 1usize..80,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        replay_lockstep(&oplog)?;
    }

    /// End-to-end: the full walker (including §3.5 clearing and
    /// fast-forward) emits an identical transformed-operation stream with
    /// the cache on and off.
    #[test]
    fn walker_output_identical_with_and_without_cache(
        seed in 0u64..1_000_000,
        steps in 1usize..100,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let on = transformed_ops(
            &oplog,
            &[],
            oplog.version(),
            WalkerOpts { cursor_cache: true, ..Default::default() },
        );
        let off = transformed_ops(
            &oplog,
            &[],
            oplog.version(),
            WalkerOpts { cursor_cache: false, ..Default::default() },
        );
        prop_assert_eq!(on.0, off.0, "final versions diverged");
        prop_assert_eq!(on.1, off.1, "op streams diverged");
    }

    /// Incremental merges through one live tracker, switching the caches
    /// at every step: a resumed merge keeps the records and must forget
    /// only what a cache switched off may have let go stale. Resumed ==
    /// fresh at every step, whatever the switches.
    #[test]
    fn live_tracker_matches_fresh_across_cache_switches(
        seed in 0u64..1_000_000,
        steps in 4usize..80,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
        stride in 1usize..16,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let mut live = Branch::new();
        let mut tracker: Tracker = Tracker::new();
        let mut upto = 0;
        for (cursor_cache, emit_cache) in
            [(true, true), (false, true), (true, false), (false, false)].into_iter().cycle()
        {
            if upto == oplog.len() {
                break;
            }
            upto = (upto + stride).min(oplog.len());
            let all: Vec<usize> = (0..upto).collect();
            let to = oplog.graph.find_dominators(&all);
            let opts = WalkerOpts { cursor_cache, emit_cache, ..Default::default() };
            live.merge_to(&oplog, &to, opts, &mut tracker);
            tracker.check();
            prop_assert_eq!(&live, &oplog.checkout(&to),
                "diverged at {} with caches ({}, {})", upto, cursor_cache, emit_cache);
        }
    }

    /// Critical versions planted in the middle of graph runs: the walker
    /// cuts the walk at each of them, and neither the cuts nor the cursor
    /// cache may show in the output — clearing on == clearing off (up to
    /// chunking) == reference text, cache on == cache off exactly.
    #[test]
    fn planted_criticals_clearing_and_cache_equivalence(
        seed in 0u64..1_000_000,
        windows in 1usize..24,
    ) {
        let (oplog, len) = mid_run_criticals_oplog(seed, windows);
        let tip = oplog.version();
        let on = transformed_ops(&oplog, &[], tip, WalkerOpts::default());
        let uncached = transformed_ops(
            &oplog,
            &[],
            tip,
            WalkerOpts { cursor_cache: false, ..Default::default() },
        );
        let uncleared = transformed_ops(
            &oplog,
            &[],
            tip,
            WalkerOpts { enable_clearing: false, ..Default::default() },
        );
        prop_assert_eq!(&on.1, &uncached.1, "cursor cache changed the op stream");
        prop_assert_eq!(coalesce_ops(&on.1), coalesce_ops(&uncleared.1), "clearing changed the ops");
        let mut doc = eg_rope::Rope::new();
        for (_, op) in &on.1 {
            op.apply_to(&mut doc);
        }
        let text = doc.to_string();
        prop_assert_eq!(text.chars().count(), len);
        prop_assert_eq!(text, replay_reference(&oplog));
    }
}
