//! Edge cases and cross-feature property tests for the core crate:
//! Unicode, degenerate documents, traversal-order invariance, bundles, and
//! version-to-version patches, all checked against the naive reference
//! implementation on random histories.

use eg_dag::walk::PlanOrder;
use eg_rle::HasLength;
use egwalker::reference::replay_reference;
use egwalker::testgen::{random_oplog, SmallRng};
use egwalker::walker;
use egwalker::{Branch, EventBundle, OpLog, TextOperation, Tracker, WalkerOpts};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Degenerate documents.
// ---------------------------------------------------------------------------

#[test]
fn empty_oplog_checkout() {
    let oplog = OpLog::new();
    assert_eq!(oplog.checkout_tip().content.to_string(), "");
    assert!(oplog.bundle_since(&[]).is_empty());
}

#[test]
fn single_char_document() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    oplog.add_insert(a, 0, "x");
    assert_eq!(oplog.checkout_tip().content.to_string(), "x");
    oplog.add_delete(a, 0, 1);
    assert_eq!(oplog.checkout_tip().content.to_string(), "");
}

#[test]
fn delete_everything_then_rebuild() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    oplog.add_insert(a, 0, "all of this will go");
    oplog.add_delete(a, 0, 19);
    assert_eq!(oplog.checkout_tip().content.to_string(), "");
    oplog.add_insert(a, 0, "fresh start");
    assert_eq!(oplog.checkout_tip().content.to_string(), "fresh start");
    assert_eq!(replay_reference(&oplog), "fresh start");
}

#[test]
fn concurrent_delete_everything_both_sides() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    oplog.add_insert(a, 0, "doomed");
    let v = oplog.version().clone();
    oplog.add_delete_at(a, &v, 0, 6);
    oplog.add_delete_at(b, &v, 0, 6);
    // Double-deletes merge to a single removal.
    assert_eq!(oplog.checkout_tip().content.to_string(), "");
    assert_eq!(replay_reference(&oplog), "");
}

#[test]
fn concurrent_delete_overlapping_ranges() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    oplog.add_insert(a, 0, "0123456789");
    let v = oplog.version().clone();
    oplog.add_delete_at(a, &v, 2, 5); // deletes 23456
    oplog.add_delete_at(b, &v, 4, 5); // deletes 45678
    let text = oplog.checkout_tip().content.to_string();
    assert_eq!(text, replay_reference(&oplog));
    assert_eq!(text, "019");
}

#[test]
fn insert_into_concurrently_deleted_region() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    oplog.add_insert(a, 0, "keep DELETEME keep");
    let v = oplog.version().clone();
    oplog.add_delete_at(a, &v, 5, 9); // removes "DELETEME "
    oplog.add_insert_at(b, &v, 11, "inside "); // lands inside the doomed span
    let text = oplog.checkout_tip().content.to_string();
    assert_eq!(text, replay_reference(&oplog));
    // The inserted text must survive even though its neighbourhood died.
    assert!(text.contains("inside"), "text: {text:?}");
}

// ---------------------------------------------------------------------------
// Unicode.
// ---------------------------------------------------------------------------

#[test]
fn multibyte_chars_roundtrip_everywhere() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("ünïcode-ågent");
    oplog.add_insert(a, 0, "héllo wörld");
    oplog.add_insert(a, 5, " 世界");
    oplog.add_delete(a, 0, 1); // deletes 'h'... é survives
    let text = oplog.checkout_tip().content.to_string();
    assert_eq!(text, replay_reference(&oplog));
    assert!(text.contains('é') && text.contains('世'));

    // Through the bundle layer.
    let mut other = OpLog::new();
    other.apply_bundle(&oplog.bundle_since(&[])).unwrap();
    assert_eq!(other.checkout_tip().content.to_string(), text);
}

#[test]
fn astral_plane_chars() {
    // Chars outside the BMP (4-byte UTF-8) index as single chars.
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    oplog.add_insert(a, 0, "🦀🦀🦀");
    oplog.add_insert(a, 1, "x");
    oplog.add_delete(a, 3, 1);
    assert_eq!(oplog.checkout_tip().content.to_string(), "🦀x🦀");
}

#[test]
fn concurrent_unicode_edits() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    oplog.add_insert(a, 0, "日本語のテキスト");
    let v = oplog.version().clone();
    oplog.add_insert_at(a, &v, 3, "😀");
    oplog.add_delete_at(b, &v, 0, 2);
    assert_eq!(
        oplog.checkout_tip().content.to_string(),
        replay_reference(&oplog)
    );
}

// ---------------------------------------------------------------------------
// Non-interleaving (paper §3.1).
// ---------------------------------------------------------------------------

#[test]
fn concurrent_runs_do_not_interleave() {
    for seed in 0..20u64 {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("a");
        let b = oplog.get_or_create_agent("b");
        oplog.add_insert(a, 0, "~~");
        let v = oplog.version().clone();
        // Both users type runs at the same position, in several ops each.
        let pos = 1 + (seed as usize % 2);
        let mut va = v.clone();
        let mut vb = v;
        for i in 0..3 {
            let lvs = oplog.add_insert_at(a, &va, pos + 2 * i, "aa");
            va = egwalker::Frontier::new_1(lvs.last());
            let lvs = oplog.add_insert_at(b, &vb, pos + 2 * i, "bb");
            vb = egwalker::Frontier::new_1(lvs.last());
        }
        let text = oplog.checkout_tip().content.to_string();
        assert!(
            text.contains("aaaaaa") && text.contains("bbbbbb"),
            "interleaved (seed {seed}): {text:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Traversal-order invariance: every PlanOrder produces the same document.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_order_does_not_change_result(
        seed in 0u64..1_000_000,
        steps in 1usize..80,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let mut texts = Vec::new();
        for order in [PlanOrder::SmallestFirst, PlanOrder::LargestFirst, PlanOrder::Arrival] {
            let mut b = Branch::new();
            b.merge_to(
                &oplog,
                oplog.version(),
                WalkerOpts { enable_clearing: true, plan_order: order, ..Default::default() },
                &mut Tracker::new(),
            );
            texts.push(b.content.to_string());
        }
        prop_assert_eq!(&texts[0], &texts[1]);
        prop_assert_eq!(&texts[0], &texts[2]);
        prop_assert_eq!(&texts[0], &replay_reference(&oplog));
    }

    /// `bundle_since(V)` contains *exactly* the complement of `Events(V)`,
    /// for random causally-closed versions V, and the full-graph bundle
    /// replicates the log.
    #[test]
    fn bundle_since_is_exact_complement(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
        pick in any::<u64>(),
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        prop_assume!(!oplog.is_empty());
        // Random causally-closed version.
        let mut rng = SmallRng::new(pick | 1);
        let mut lvs = Vec::new();
        for _ in 0..(rng.below(3) + 1) {
            lvs.push(rng.below(oplog.len()));
        }
        let frontier = oplog.graph.find_dominators(&lvs);
        let known: usize = oplog
            .graph
            .diff(&[], &frontier)
            .only_b
            .iter()
            .map(|r| r.len())
            .sum();
        let ids: Vec<_> = frontier.iter().map(|&lv| oplog.lv_to_remote(lv)).collect();
        let delta = oplog.bundle_since(&ids);
        prop_assert_eq!(delta.num_events(), oplog.len() - known);

        // The full-graph bundle replicates the document.
        let mut peer = OpLog::new();
        peer.apply_bundle(&oplog.bundle_since(&[])).unwrap();
        prop_assert_eq!(
            peer.checkout_tip().content.to_string(),
            oplog.checkout_tip().content.to_string()
        );
        // And the delta is then a pure duplicate.
        prop_assert!(peer.apply_bundle(&delta).unwrap().is_empty());
    }

    /// `transformed_ops(from, tip)` applied to `checkout(from)` equals
    /// `checkout(tip)` for random versions.
    #[test]
    fn diff_versions_is_a_correct_patch(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
        pick in any::<u64>(),
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        prop_assume!(!oplog.is_empty());
        // Random causally-closed version: dominators of a random LV set.
        let mut rng = SmallRng::new(pick | 1);
        let mut lvs = Vec::new();
        for _ in 0..(rng.below(3) + 1) {
            lvs.push(rng.below(oplog.len()));
        }
        let from = oplog.graph.find_dominators(&lvs);

        let mut doc = oplog.checkout(&from);
        let tip = oplog.version().clone();
        let (_, ops) = walker::transformed_ops(&oplog, &from, &tip, WalkerOpts::default());
        for (_, op) in ops {
            op.apply_to(&mut doc.content);
        }
        prop_assert_eq!(
            doc.content.to_string(),
            oplog.checkout_tip().content.to_string()
        );
    }
}

// ---------------------------------------------------------------------------
// Bundles delivered in adversarial chunkings.
// ---------------------------------------------------------------------------

#[test]
fn bundle_split_per_run_delivers_in_any_order() {
    let mut src = OpLog::new();
    let a = src.get_or_create_agent("a");
    let b = src.get_or_create_agent("b");
    src.add_insert(a, 0, "root ");
    let v = src.version().clone();
    src.add_insert_at(a, &v, 5, "left");
    src.add_insert_at(b, &v, 0, "right ");
    let tip = src.version().clone();
    src.add_delete_at(a, &tip, 0, 2);

    let full = src.bundle_since(&[]);
    // Deliver each run as its own bundle, in reverse order, buffering via
    // repeated attempts (mimicking the replica's causal buffer).
    let mut dst = OpLog::new();
    let mut queue: Vec<EventBundle> = full
        .runs
        .iter()
        .rev()
        .map(|r| EventBundle {
            runs: vec![r.clone()],
        })
        .collect();
    let mut spins = 0;
    while !queue.is_empty() {
        spins += 1;
        assert!(spins < 100, "no progress");
        let bundle = queue.remove(0);
        if dst.apply_bundle(&bundle).is_err() {
            queue.push(bundle); // retry later
        }
    }
    assert_eq!(
        dst.checkout_tip().content.to_string(),
        src.checkout_tip().content.to_string()
    );
}

#[test]
fn transformed_ops_apply_in_order() {
    // The walker's output contract: transformed ops in emission order
    // rebuild the document from the empty state.
    let oplog = random_oplog(1234, 60, 3, 0.4);
    let tip = oplog.version().clone();
    let (_, ops) = egwalker::walker::transformed_ops(&oplog, &[], &tip, WalkerOpts::default());
    let mut doc = eg_rope::Rope::new();
    for (_, op) in &ops {
        op.apply_to(&mut doc);
    }
    assert_eq!(doc.to_string(), replay_reference(&oplog));
    // And the op list is RLE-meaningful: no zero-length ops.
    assert!(ops.iter().all(|(lvs, op)| !lvs.is_empty() && op.len > 0));
}

#[test]
fn text_operation_construction_invariants() {
    let op = TextOperation::ins(3, "abc");
    assert_eq!(op.len, 3);
    let op = TextOperation::del(0, 2);
    assert_eq!(op.len, 2);
    assert!(op.content.is_none());
}
