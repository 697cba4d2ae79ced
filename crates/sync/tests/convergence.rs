//! Property tests for the replication layer: strong eventual consistency
//! under randomised edit scripts, delivery orders, losses and partitions
//! (paper §2.1-2.2).

use eg_sync::{DocId, LinkConfig, NetworkSim, ReceiveOutcome, Replica};

const D: DocId = DocId::DEFAULT;
use proptest::prelude::*;

/// A scripted edit: which replica edits, where (as a fraction of the
/// current document), and what.
#[derive(Debug, Clone)]
enum Edit {
    Insert { who: usize, at: u16, text: String },
    Delete { who: usize, at: u16, len: u8 },
}

fn edit_strategy(replicas: usize) -> impl Strategy<Value = Edit> {
    prop_oneof![
        3 => (0..replicas, any::<u16>(), "[a-z]{1,6}").prop_map(|(who, at, text)| {
            Edit::Insert { who, at, text }
        }),
        1 => (0..replicas, any::<u16>(), 1u8..4).prop_map(|(who, at, len)| {
            Edit::Delete { who, at, len }
        }),
    ]
}

fn apply_edit(net: &mut NetworkSim, edit: &Edit) {
    match edit {
        Edit::Insert { who, at, text } => {
            let len = net.replica(*who).len_chars(D);
            let pos = *at as usize % (len + 1);
            net.edit_insert(*who, D, pos, text);
        }
        Edit::Delete { who, at, len } => {
            let doc_len = net.replica(*who).len_chars(D);
            if doc_len == 0 {
                return;
            }
            let pos = *at as usize % doc_len;
            let len = (*len as usize).min(doc_len - pos);
            if len > 0 {
                net.edit_delete(*who, D, pos, len);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any script over a reliable (delaying, reordering) network converges.
    #[test]
    fn reliable_network_converges(
        seed in any::<u64>(),
        edits in prop::collection::vec(edit_strategy(3), 1..40),
        tick_every in 1usize..6,
    ) {
        let mut net = NetworkSim::new(&["a", "b", "c"], seed);
        for (i, edit) in edits.iter().enumerate() {
            apply_edit(&mut net, edit);
            if i % tick_every == 0 {
                net.tick();
            }
        }
        prop_assert!(net.run_until_quiescent(100_000));
        prop_assert!(net.all_converged());
    }

    /// Heavy loss is repaired by anti-entropy.
    #[test]
    fn lossy_network_converges(
        seed in any::<u64>(),
        edits in prop::collection::vec(edit_strategy(4), 1..30),
        drop in 100u16..800,
    ) {
        let link = LinkConfig { min_delay: 1, max_delay: 10, drop_per_mille: drop };
        let mut net = NetworkSim::with_link(&["a", "b", "c", "d"], seed, link);
        for edit in &edits {
            apply_edit(&mut net, edit);
        }
        prop_assert!(net.run_until_quiescent(100_000));
        prop_assert!(net.all_converged());
    }

    /// Delivering one replica's bundle stream to another in an arbitrary
    /// permutation converges, exercising the causal buffer.
    #[test]
    fn permuted_delivery_converges(
        edits in prop::collection::vec((any::<u16>(), "[a-z]{1,4}"), 1..25),
        order in any::<u64>(),
    ) {
        let mut src = Replica::new("src");
        let mut bundles = Vec::new();
        for (at, text) in &edits {
            let pos = *at as usize % (src.len_chars(D) + 1);
            bundles.push(src.insert(D, pos, text));
        }
        // Deterministic permutation from `order`.
        let mut perm: Vec<usize> = (0..bundles.len()).collect();
        let mut state = order | 1;
        for i in (1..perm.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            perm.swap(i, (state as usize) % (i + 1));
        }

        let mut dst = Replica::new("dst");
        for &i in &perm {
            dst.receive(D, &bundles[i]);
        }
        prop_assert_eq!(dst.pending_len(), 0);
        prop_assert!(dst.converged_with(&src));
    }

    /// A partition between any two groups heals to a converged state.
    #[test]
    fn partition_heal_converges(
        seed in any::<u64>(),
        before in prop::collection::vec(edit_strategy(4), 0..10),
        during in prop::collection::vec(edit_strategy(4), 1..20),
    ) {
        let mut net = NetworkSim::new(&["a", "b", "c", "d"], seed);
        for edit in &before {
            apply_edit(&mut net, edit);
        }
        prop_assert!(net.run_until_quiescent(100_000));

        net.partition(&[&[0, 1], &[2, 3]]);
        for edit in &during {
            apply_edit(&mut net, edit);
        }
        prop_assert!(net.run_until_quiescent(100_000));

        net.heal();
        prop_assert!(net.run_until_quiescent(100_000));
        prop_assert!(net.all_converged());
    }
}

#[test]
fn three_way_concurrent_insertions_do_not_interleave_across_replicas() {
    // Three users type runs concurrently at position 0. After convergence,
    // each user's run must appear contiguously (maximal non-interleaving,
    // paper §3.1).
    let mut net = NetworkSim::new(&["a", "b", "c"], 11);
    net.edit_insert(0, D, 0, "aaaa");
    net.edit_insert(1, D, 0, "bbbb");
    net.edit_insert(2, D, 0, "cccc");
    assert!(net.run_until_quiescent(10_000));
    let text = net.replica(0).text(D);
    assert!(text.contains("aaaa"), "run a interleaved: {text}");
    assert!(text.contains("bbbb"), "run b interleaved: {text}");
    assert!(text.contains("cccc"), "run c interleaved: {text}");
}

#[test]
fn late_joiner_catches_up_via_anti_entropy() {
    let mut a = Replica::new("a");
    let mut b = Replica::new("b");
    for i in 0..50 {
        let pos = (i * 7) % (a.len_chars(D) + 1);
        let bundle = a.insert(D, pos, "word ");
        b.receive(D, &bundle);
    }
    // c joins with nothing.
    let mut c = Replica::new("c");
    let catchup = a.bundle_since(D, &c.digest(D));
    assert!(matches!(
        c.receive(D, &catchup),
        ReceiveOutcome::Applied(250)
    ));
    assert!(c.converged_with(&a));
    assert!(c.converged_with(&b));
}

#[test]
fn offline_editing_session_merges() {
    // The paper's motivating scenario: two users work offline for a long
    // time, then reconnect (§1). Here each types 500 characters.
    let mut alice = Replica::new("alice");
    let mut bob = Replica::new("bob");
    let seed = alice.insert(D, 0, "The document starts here. ");
    bob.receive(D, &seed);

    let mut alice_bundles = Vec::new();
    let mut bob_bundles = Vec::new();
    for i in 0..100 {
        let ap = (i * 13) % (alice.len_chars(D) + 1);
        alice_bundles.push(alice.insert(D, ap, "alice"));
        let bp = (i * 31) % (bob.len_chars(D) + 1);
        bob_bundles.push(bob.insert(D, bp, "bobbo"));
    }
    // Reconnect: ship both queues.
    for b in &bob_bundles {
        alice.receive(D, b);
    }
    for a in &alice_bundles {
        bob.receive(D, a);
    }
    assert!(alice.converged_with(&bob));
    assert_eq!(alice.len_chars(D), 26 + 500 + 500);
}
