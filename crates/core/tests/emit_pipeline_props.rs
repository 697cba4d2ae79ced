//! Property tests for the zero-allocation emit pipeline.
//!
//! * The borrowed-slice emit path ([`egwalker::TextOpRef`], content served
//!   as `&str` slices of the UTF-8 arena) must produce **byte-identical**
//!   documents to the owned-`String` reference interpretation, and to the
//!   naive reference replay, on randomized concurrent traces — including
//!   multi-byte UTF-8 content (the testgen alphabet mixes 1–4-byte
//!   characters).
//! * The tracker's emit-position cache is pure memoisation: cache-on and
//!   cache-off replays must stay identical step by step.

use eg_dag::walk::WalkPlan;
use eg_rle::DTRange;
use egwalker::reference::replay_reference;
use egwalker::testgen::{mid_run_criticals_oplog, random_oplog};
use egwalker::tracker::Tracker;
use egwalker::walker::transformed_ops;
use egwalker::{Branch, OpLog, TextOperation, WalkerOpts};
use proptest::prelude::*;

/// Replays the full event graph through two trackers in lockstep —
/// emit-position cache on vs. off — asserting identical records and
/// emitted operations after every step (the discipline of
/// `tracker_cache_props.rs`, applied to the other cache).
fn replay_emit_cache_lockstep(oplog: &OpLog) -> Result<(), TestCaseError> {
    let target = oplog.version().clone();
    let diff = oplog.graph.diff(&[], &target);
    let (base, spans) = oplog.graph.conflict_window(&[], &target);
    let mut plan = WalkPlan::new();
    plan.plan(&oplog.graph, &base, &spans, &diff.only_b);

    let mut cached: Tracker = Tracker::new_with_caches(true, true);
    let mut reference: Tracker = Tracker::new_with_caches(true, false);
    let mut ops_cached: Vec<(DTRange, TextOperation)> = Vec::new();
    let mut ops_reference: Vec<(DTRange, TextOperation)> = Vec::new();

    for step in plan.iter() {
        for r in step.retreat.iter().rev() {
            cached.retreat(oplog, *r);
            reference.retreat(oplog, *r);
        }
        for r in step.advance {
            cached.advance(oplog, *r);
            reference.advance(oplog, *r);
        }
        cached.apply_range(oplog, step.consume, true, &mut |lvs, op| {
            ops_cached.push((lvs, op.to_owned()));
        });
        reference.apply_range(oplog, step.consume, true, &mut |lvs, op| {
            ops_reference.push((lvs, op.to_owned()));
        });
        cached.check();
        reference.check();
        prop_assert_eq!(cached.records(), reference.records(), "records diverged");
        prop_assert_eq!(&ops_cached, &ops_reference, "emitted ops diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Step-by-step emit-position-cache equivalence on random concurrent
    /// histories.
    #[test]
    fn emit_cache_matches_reference(
        seed in 0u64..1_000_000,
        steps in 1usize..80,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        replay_emit_cache_lockstep(&oplog)?;
    }

    /// End-to-end: the walker emits an identical transformed-operation
    /// stream with the emit-position cache on and off.
    #[test]
    fn walker_output_identical_with_and_without_emit_cache(
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
            WalkerOpts { emit_cache: true, ..Default::default() },
        );
        let off = transformed_ops(
            &oplog,
            &[],
            oplog.version(),
            WalkerOpts { emit_cache: false, ..Default::default() },
        );
        prop_assert_eq!(on.0, off.0, "final versions diverged");
        prop_assert_eq!(on.1, off.1, "op streams diverged");
    }

    /// The borrowed-slice merge path (Branch applying `TextOpRef`s straight
    /// to the rope) produces documents byte-identical to materialising
    /// every operation as an owned `TextOperation` first, and to the naive
    /// reference replay — on traces with multi-byte UTF-8 content.
    #[test]
    fn borrowed_emit_matches_owned_and_reference(
        seed in 0u64..1_000_000,
        steps in 1usize..100,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);

        // Borrowed path: ops applied as &str slices of the arena.
        let mut borrowed = Branch::new();
        borrowed.merge(&oplog);

        // Owned path: every op materialised (the seed semantics).
        let (_, owned_ops) = transformed_ops(&oplog, &[], oplog.version(), WalkerOpts::default());
        let mut owned = eg_rope::Rope::new();
        for (_, op) in &owned_ops {
            op.apply_to(&mut owned);
        }

        let reference = replay_reference(&oplog);
        let borrowed_text = borrowed.content.to_string();
        let owned_text = owned.to_string();
        // Compare at the byte level: multi-byte content must come through
        // the arena bit-exact.
        prop_assert_eq!(borrowed_text.as_bytes(), owned_text.as_bytes());
        prop_assert_eq!(borrowed_text.as_bytes(), reference.as_bytes());
    }

    /// The same three-way agreement with critical versions planted in the
    /// middle of graph runs, where the emit path switches between the
    /// tracker and the untransformed fast-forward inside one run — and the
    /// emit-position cache, dropped at every clear, changes nothing.
    #[test]
    fn planted_criticals_borrowed_owned_reference_and_emit_cache(
        seed in 0u64..1_000_000,
        windows in 1usize..24,
    ) {
        let (oplog, len) = mid_run_criticals_oplog(seed, windows);
        let mut borrowed = Branch::new();
        borrowed.merge(&oplog);
        let on = transformed_ops(&oplog, &[], oplog.version(), WalkerOpts::default());
        let off = transformed_ops(
            &oplog,
            &[],
            oplog.version(),
            WalkerOpts { emit_cache: false, ..Default::default() },
        );
        prop_assert_eq!(&on.1, &off.1, "emit cache changed the op stream");
        let mut owned = eg_rope::Rope::new();
        for (_, op) in &on.1 {
            op.apply_to(&mut owned);
        }
        let text = borrowed.content.to_string();
        let (owned_text, reference) = (owned.to_string(), replay_reference(&oplog));
        prop_assert_eq!(text.chars().count(), len);
        prop_assert_eq!(text.as_bytes(), owned_text.as_bytes());
        prop_assert_eq!(text.as_bytes(), reference.as_bytes());
    }

    /// Arena slicing equals the seed's `Vec<char>` semantics on whatever
    /// content the generator produced: for every insert run, the borrowed
    /// slice equals collecting the run's chars via `unit_op`.
    #[test]
    fn content_slices_match_per_event_chars(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        for (lvs, run) in oplog.ops_in((0..oplog.len()).into()) {
            if let Some(content) = run.content {
                let slice = oplog.content_slice(content);
                let collected: String =
                    lvs.iter().map(|lv| oplog.unit_op(lv).2.unwrap()).collect();
                prop_assert_eq!(slice, collected.as_str());
            }
        }
    }
}

/// Deterministic spot check: multi-byte characters split across runs,
/// merges, and deletes come out byte-identical to the reference.
#[test]
fn multibyte_concurrent_merge_exact_bytes() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("alice");
    let b = oplog.get_or_create_agent("bob");
    oplog.add_insert(a, 0, "héllo 日本語 wörld");
    let base = oplog.version().clone();
    oplog.add_insert_at(a, &base, 6, "→🦀← ");
    oplog.add_delete_at(b, &base, 2, 3);
    let tip = oplog.version().clone();
    oplog.add_insert_at(a, &tip, 0, "🦀");

    let expected = replay_reference(&oplog);
    let branch = oplog.checkout_tip();
    assert_eq!(branch.content.to_string().as_bytes(), expected.as_bytes());
    assert_eq!(branch.content.to_string(), expected);
}
