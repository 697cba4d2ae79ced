//! The central correctness battery: the optimised walker (B-trees, RLE,
//! state clearing, fast-forward, partial replay) against the naive
//! reference implementation, on thousands of random concurrent editing
//! histories.

use egwalker::reference::{replay_reference, replay_reference_version};
use egwalker::testgen::{random_oplog, random_oplog_prefixed, SmallRng};
use egwalker::{Branch, Tracker, WalkerOpts};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full replay through the optimised walker equals the reference.
    #[test]
    fn full_replay_matches_reference(
        seed in 0u64..1_000_000,
        steps in 1usize..120,
        replicas in 1usize..5,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let expected = replay_reference(&oplog);
        let branch = oplog.checkout_tip();
        prop_assert_eq!(branch.content.to_string(), expected);
    }

    /// Disabling the §3.5 optimisations must not change the result
    /// (clearing and fast-forward are pure optimisations).
    #[test]
    fn clearing_opt_equivalence(
        seed in 0u64..1_000_000,
        steps in 1usize..100,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let mut with_opt = Branch::new();
        with_opt.merge_to(&oplog, oplog.version(), WalkerOpts { enable_clearing: true, ..Default::default() }, &mut Tracker::new());
        let mut without_opt = Branch::new();
        without_opt.merge_to(&oplog, oplog.version(), WalkerOpts { enable_clearing: false, ..Default::default() }, &mut Tracker::new());
        prop_assert_eq!(with_opt.content.to_string(), without_opt.content.to_string());
    }

    /// Incremental merging (receiving events a few at a time) converges to
    /// the same document as a single batch replay (§3.6 partial replay).
    #[test]
    fn incremental_merge_matches_batch(
        seed in 0u64..1_000_000,
        steps in 1usize..100,
        replicas in 2usize..4,
        merge_prob in 0.0f64..0.6,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let mut rng = SmallRng::new(seed ^ 0xABCD);
        let mut live = Branch::new();
        // Merge to a random ascending sequence of versions, then the tip.
        let mut lv = 0usize;
        while lv < oplog.len() {
            lv += 1 + rng.below(7);
            let target = lv.min(oplog.len()) - 1;
            live.merge_to(&oplog, &[target], WalkerOpts::default(), &mut Tracker::new());
        }
        live.merge(&oplog);
        let batch = oplog.checkout_tip();
        prop_assert_eq!(live.content.to_string(), batch.content.to_string());
        prop_assert_eq!(&live.version, &batch.version);
    }

    /// Historical checkouts equal the reference replay at that version.
    #[test]
    fn historical_checkout_matches_reference(
        seed in 0u64..1_000_000,
        steps in 1usize..80,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
        probe in 0usize..1_000_000,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        prop_assume!(!oplog.is_empty());
        let lv = probe % oplog.len();
        let expected = replay_reference_version(&oplog, &[lv]);
        let branch = oplog.checkout(&[lv]);
        prop_assert_eq!(branch.content.to_string(), expected);
    }

    /// Exchanging events between two replicas (in either order) converges:
    /// strong eventual consistency end to end, including `merge_oplog`'s LV
    /// remapping.
    #[test]
    fn cross_replica_convergence(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        merge_prob in 0.0f64..0.5,
    ) {
        let log_a = random_oplog_prefixed(seed, steps, 3, merge_prob, "ant");
        // Replica B generates its own events under a disjoint ID space.
        let mut log_b = random_oplog_prefixed(seed ^ 99, steps / 2 + 1, 2, merge_prob, "bee");
        let mut log_a2 = log_a.clone();
        log_a2.merge_oplog(&log_b);
        log_b.merge_oplog(&log_a);
        log_b.merge_oplog(&log_a2); // pick up anything missing
        log_a2.merge_oplog(&log_b);
        prop_assert_eq!(log_a2.len(), log_b.len());
        let doc_a = log_a2.checkout_tip().content.to_string();
        let doc_b = log_b.checkout_tip().content.to_string();
        prop_assert_eq!(doc_a, doc_b);
    }
}

/// A long deterministic soak: bigger histories than the proptest cases.
#[test]
fn soak_large_histories() {
    for seed in 0..8u64 {
        let oplog = random_oplog(seed, 400, 4, 0.35);
        let expected = replay_reference(&oplog);
        let branch = oplog.checkout_tip();
        assert_eq!(branch.content.to_string(), expected, "seed {seed}");
    }
}

/// Merging two replicas that each did lots of independent offline work
/// (the paper's long-running-branches scenario, §3.7).
#[test]
fn offline_branches_merge() {
    use egwalker::OpLog;
    let mut oplog = OpLog::new();
    let alice = oplog.get_or_create_agent("alice");
    let bob = oplog.get_or_create_agent("bob");
    oplog.add_insert(alice, 0, "The quick brown fox jumps over the lazy dog");
    let base = oplog.version().clone();

    // Alice rewrites the start while offline.
    let mut v = base.clone();
    let lvs = oplog.add_delete_at(alice, &v, 0, 9);
    v = egwalker::Frontier::new_1(lvs.last());
    let lvs = oplog.add_insert_at(alice, &v, 0, "A speedy");
    v = egwalker::Frontier::new_1(lvs.last());
    let alice_tip = v;

    // Bob rewrites the end while offline.
    let mut v = base.clone();
    let lvs = oplog.add_delete_at(bob, &v, 35, 8);
    v = egwalker::Frontier::new_1(lvs.last());
    let lvs = oplog.add_insert_at(bob, &v, 35, "sleeping cat");
    v = egwalker::Frontier::new_1(lvs.last());
    let bob_tip = v;

    let expected = replay_reference(&oplog);
    assert_eq!(expected, "A speedy brown fox jumps over the sleeping cat");

    // Either merge order converges.
    let mut doc = oplog.checkout(&alice_tip);
    doc.merge_to(&oplog, &bob_tip, WalkerOpts::default(), &mut Tracker::new());
    assert_eq!(doc.content.to_string(), expected);

    let mut doc = oplog.checkout(&bob_tip);
    doc.merge_to(
        &oplog,
        &alice_tip,
        WalkerOpts::default(),
        &mut Tracker::new(),
    );
    assert_eq!(doc.content.to_string(), expected);
}
