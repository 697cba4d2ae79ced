//! Peer-to-peer collaboration over an unreliable network.
//!
//! Three replicas collaborate through the simulated network of `eg-sync`:
//! frames are delayed and a quarter of the sync frames are dropped
//! outright. Then the network partitions, both sides keep typing, and the
//! partition heals. The links' periodic marks find every loss and reset
//! the link, and the replicas converge — the paper's §2.1 system model
//! end to end, with no central server.
//!
//! Run with: `cargo run --example p2p_sync`

use eg_walker_suite::sync::{DocId, FaultSpec, LinkConfig, NetworkSim};

const D: DocId = DocId::DEFAULT;

fn main() {
    let link = LinkConfig {
        min_delay: 1,
        max_delay: 12,
    };
    let faults = FaultSpec {
        drop_per_mille: 250, // A quarter of the sync frames vanish.
        ..FaultSpec::default()
    };
    let mut net = NetworkSim::builder(&["alice", "bob", "carol"], 0xE9_2025)
        .link(link)
        .faults(faults)
        .build();

    println!("--- live collaboration over a lossy link ---");
    net.edit_insert(0, D, 0, "Project notes\n");
    net.edit_insert(1, D, 0, "(draft) ");
    net.edit_insert(2, D, 0, "# ");
    for _ in 0..5 {
        net.tick();
    }
    let alice_len = net.replica(0).len_chars(D);
    net.edit_insert(0, D, alice_len, "- agenda item one\n");
    assert!(net.run_until_quiescent(10_000));

    for i in 0..3 {
        println!("{:>6}: {:?}", net.replica(i).name(), net.replica(i).text(D));
    }
    assert!(net.all_converged());
    let s = net.stats();
    println!(
        "sent {} frames, dropped {}, delivered {}, repaired via {} link resets",
        s.sent, s.dropped, s.delivered, s.resets
    );

    println!("\n--- partition: alice+bob | carol ---");
    net.partition(&[&[0, 1], &[2]]);
    let len = net.replica(0).len_chars(D);
    net.edit_insert(0, D, len, "- written during the partition (left)\n");
    let len = net.replica(2).len_chars(D);
    net.edit_insert(2, D, len, "- written during the partition (right)\n");
    assert!(net.run_until_quiescent(10_000));
    println!(
        "left  sees {} chars, right sees {} chars (diverged)",
        net.replica(0).len_chars(D),
        net.replica(2).len_chars(D)
    );
    assert_ne!(net.replica(0).text(D), net.replica(2).text(D));

    println!("\n--- heal ---");
    net.heal();
    assert!(net.run_until_quiescent(10_000));
    assert!(net.all_converged());
    println!("converged text:\n{}", net.replica(0).text(D));

    // Each replica only ever held the document text plus the event graph;
    // per-replica causal buffering handled every reordering.
    for i in 0..3 {
        let st = net.replica(i).stats();
        println!(
            "{:>6}: {} bundles applied, {} buffered out-of-order, {} duplicates",
            net.replica(i).name(),
            st.applied_direct,
            st.buffered,
            st.duplicates
        );
    }
}
