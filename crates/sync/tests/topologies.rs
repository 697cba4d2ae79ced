//! Convergence across topologies and document shards: star vs mesh,
//! partition/heal, and the link audit under loss.

use eg_sync::{DocId, LinkConfig, NetworkSim, SimBuilder};
use proptest::prelude::*;

const D: DocId = DocId::DEFAULT;

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("node{i}")).collect()
}

fn builder(n: usize, seed: u64) -> SimBuilder {
    let names = names(n);
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    NetworkSim::builder(&refs, seed)
}

#[test]
fn star_converges_through_the_hub() {
    let mut net = builder(5, 21).star().build();
    net.edit_insert(1, D, 0, "from-1 ");
    net.edit_insert(3, D, 0, "from-3 ");
    net.edit_insert(0, D, 0, "from-hub ");
    assert!(net.run_until_quiescent(10_000));
    assert!(net.all_converged());
    let text = net.replica(4).text(D);
    assert!(text.contains("from-1") && text.contains("from-3") && text.contains("from-hub"));
}

#[test]
fn star_leaves_never_message_each_other() {
    let mut net = builder(6, 33).star().mark_every(2).build();
    for leaf in 1..6 {
        net.edit_insert(leaf, D, 0, "leafword ");
    }
    assert!(net.run_until_quiescent(10_000));
    assert!(net.all_converged());
    // O(n) links: every frame touches the hub, so the frame count stays
    // far below a mesh's fan-out for the same edits and mark cadence.
    let star_sent = net.stats().sent;
    let mut mesh = builder(6, 33).mark_every(2).build();
    for leaf in 1..6 {
        mesh.edit_insert(leaf, D, 0, "leafword ");
    }
    assert!(mesh.run_until_quiescent(10_000));
    assert!(
        star_sent < mesh.stats().sent,
        "star {} vs mesh {}",
        star_sent,
        mesh.stats().sent
    );
}

#[test]
fn lossy_star_repaired_by_digest_exchange() {
    let link = LinkConfig {
        min_delay: 1,
        max_delay: 6,
        drop_per_mille: 350,
    };
    let mut net = builder(8, 77).star().mark_every(3).link(link).build();
    for i in 0..24 {
        let who = i % 8;
        let len = net.replica(who).len_chars(D);
        net.edit_insert(who, D, len / 2, "xy");
        net.tick();
    }
    assert!(net.run_until_quiescent(50_000));
    let s = net.stats();
    assert!(s.dropped > 0, "seed should exercise loss");
    assert!(s.resets > 0, "loss must force a reset");
    assert!(s.digest_bytes > 0);
    assert!(net.all_converged());
}

#[test]
fn mesh_partition_heal_converges() {
    let mut net = builder(6, 9).mesh().mark_every(2).build();
    net.edit_insert(0, D, 0, "base ");
    assert!(net.run_until_quiescent(10_000));

    net.partition(&[&[0, 1, 2], &[3, 4, 5]]);
    net.edit_insert(1, D, 0, "left ");
    net.edit_insert(4, D, 0, "right ");
    assert!(net.run_until_quiescent(10_000));
    // Each side converged internally, but the sides diverged.
    assert_eq!(net.replica(0).text(D), net.replica(2).text(D));
    assert_eq!(net.replica(3).text(D), net.replica(5).text(D));
    assert_ne!(net.replica(0).text(D), net.replica(3).text(D));

    // Healing reconnects the severed links, and only their opening
    // digests carry what each side wrote: nothing is announced after it.
    net.heal();
    assert!(net.run_until_quiescent(10_000));
    assert_eq!(
        net.stats().resets,
        0,
        "a partition disconnects, it does not reset"
    );
    let text = net.replica(0).text(D);
    assert!(text.contains("left ") && text.contains("right "));
    for i in 1..6 {
        assert_eq!(net.replica(i).text(D), text);
    }
}

#[test]
fn star_partition_isolates_hubless_side_until_heal() {
    let mut net = builder(5, 14).star().build();
    net.edit_insert(0, D, 0, "base ");
    assert!(net.run_until_quiescent(10_000));

    // Hub stays left; leaves 3 and 4 are cut off — and, in a star, cut
    // off from each other too (their only link was the hub).
    net.partition(&[&[0, 1, 2], &[3, 4]]);
    net.edit_insert(1, D, 0, "left ");
    net.edit_insert(3, D, 0, "three ");
    net.edit_insert(4, D, 0, "four ");
    assert!(net.run_until_quiescent(10_000));
    assert_eq!(net.replica(0).text(D), net.replica(2).text(D));
    assert!(net.replica(0).text(D).contains("left "));
    // The hubless leaves kept only their own edits.
    assert!(net.replica(3).text(D).contains("three "));
    assert!(!net.replica(3).text(D).contains("four "));
    assert!(!net.replica(4).text(D).contains("three "));

    net.heal();
    assert!(net.run_until_quiescent(10_000));
    assert!(net.all_converged());
    let text = net.replica(0).text(D);
    for word in ["base ", "left ", "three ", "four "] {
        assert!(text.contains(word), "{word:?} missing from {text:?}");
    }
}

#[test]
fn mesh_noncontiguous_partition_group_repairs_losses() {
    // Regression: partition groups can be arbitrary index subsets, not
    // contiguous ring segments. Nodes 0 and 5 share a group; digest
    // probes must still be scheduled between them (a plain index-ring
    // schedule would only ever probe across the partition boundary,
    // leaving their losses unrepairable).
    let link = LinkConfig {
        min_delay: 1,
        max_delay: 4,
        drop_per_mille: 450,
    };
    let mut net = builder(8, 13).mesh().link(link).build();
    net.partition(&[&[0, 5], &[1, 2, 3, 4, 6, 7]]);
    for _ in 0..10 {
        net.edit_insert(0, D, 0, "a");
        net.edit_insert(5, D, 0, "b");
        net.edit_insert(1, D, 0, "c");
    }
    assert!(net.run_until_quiescent(20_000), "losses never repaired");
    assert!(net.all_converged());
    assert_eq!(net.replica(0).text(D), net.replica(5).text(D));
    assert_eq!(net.replica(0).len_chars(D), 20);
    assert!(net.stats().dropped > 0, "seed should exercise loss");
}

#[test]
fn sharded_docs_sync_with_scoped_digests() {
    let mut net = builder(4, 55).star().mark_every(2).build();
    // Different nodes write different shards; one shard is contested.
    net.edit_insert(1, DocId(10), 0, "ten-from-1 ");
    net.edit_insert(2, DocId(20), 0, "twenty-from-2 ");
    net.edit_insert(3, DocId(10), 0, "ten-from-3 ");
    assert!(net.run_until_quiescent(10_000));
    assert!(net.all_converged());
    for i in 0..4 {
        let r = net.replica(i);
        assert_eq!(r.doc_ids(), vec![DocId(10), DocId(20)]);
        assert!(r.text(DocId(10)).contains("ten-from-1"));
        assert!(r.text(DocId(10)).contains("ten-from-3"));
        assert_eq!(r.text(DocId(20)), "twenty-from-2 ");
        // Digests are scoped per shard and mutually disjoint.
        let d10 = r.digest(DocId(10));
        let d20 = r.digest(DocId(20));
        assert!(!d10.is_empty() && !d20.is_empty());
        assert!(d10.iter().all(|id| !d20.contains(id)));
    }
}

#[test]
fn late_joining_shard_backfills_over_digest() {
    // Node 3 only ever hears about doc 7 through anti-entropy: the edits
    // happen while it is partitioned away.
    let mut net = builder(4, 91).mesh().mark_every(2).build();
    net.partition(&[&[0, 1, 2], &[3]]);
    net.edit_insert(0, DocId(7), 0, "written while 3 was away");
    assert!(net.run_until_quiescent(10_000));
    assert_eq!(net.replica(3).text(DocId(7)), "");

    net.heal();
    assert!(net.run_until_quiescent(10_000));
    assert_eq!(net.replica(3).text(DocId(7)), "written while 3 was away");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Star and mesh reach the same converged state for the same edits
    /// (topology changes bandwidth, never semantics).
    #[test]
    fn star_and_mesh_agree_on_content(
        seed in any::<u64>(),
        edits in prop::collection::vec((0usize..5, any::<u16>(), "[a-z]{1,5}"), 1..25),
    ) {
        let run = |star: bool| {
            let b = builder(5, seed);
            let b = if star { b.star() } else { b.mesh() };
            let mut net = b.mark_every(2).build();
            for (who, at, text) in &edits {
                let len = net.replica(*who).len_chars(D);
                net.edit_insert(*who, D, *at as usize % (len + 1), text);
                net.tick();
            }
            prop_assert!(net.run_until_quiescent(100_000));
            Ok(net.replica(0).text(D))
        };
        let star_text = run(true)?;
        let mesh_text = run(false)?;
        prop_assert_eq!(star_text.len(), mesh_text.len());
    }

    /// Partition/heal converges under both topologies, any split of the
    /// leaves, with batching enabled.
    #[test]
    fn partition_heal_converges_on_both_topologies(
        seed in any::<u64>(),
        star in proptest::bool::ANY,
        cut in 1usize..5,
        during in prop::collection::vec((0usize..6, any::<u16>(), "[a-z]{1,4}"), 1..15),
    ) {
        let b = builder(6, seed);
        let b = if star { b.star() } else { b.mesh() };
        let mut net = b.mark_every(3).build();
        net.edit_insert(0, D, 0, "base ");
        prop_assert!(net.run_until_quiescent(100_000));

        let all: Vec<usize> = (0..6).collect();
        let (left, right) = all.split_at(cut);
        net.partition(&[left, right]);
        for (who, at, text) in &during {
            let len = net.replica(*who).len_chars(D);
            net.edit_insert(*who, D, *at as usize % (len + 1), text);
        }
        prop_assert!(net.run_until_quiescent(100_000));

        net.heal();
        prop_assert!(net.run_until_quiescent(100_000));
        prop_assert!(net.all_converged());
        let expected = "base ".len() + during.iter().map(|(_, _, t)| t.len()).sum::<usize>();
        prop_assert_eq!(net.replica(0).len_chars(D), expected);
    }
}
