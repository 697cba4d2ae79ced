//! Cross-crate integration: benchmark traces streamed through the whole
//! replication stack — oplog → event bundles → wire encoding → lossy
//! out-of-order delivery → causal buffer → walker merge — must reproduce
//! the original document on the receiving replica.

use eg_walker_suite::encoding::{decode_bundle, encode_bundle};
use eg_walker_suite::sync::{DocId, Replica};
use eg_walker_suite::trace::{builtin_specs, generate};
use eg_walker_suite::{EventBundle, OpLog};

/// Splits a full-graph bundle into chunks of at most `runs_per_chunk` runs.
fn chunk_bundle(full: &EventBundle, runs_per_chunk: usize) -> Vec<EventBundle> {
    full.runs
        .chunks(runs_per_chunk)
        .map(|runs| EventBundle {
            runs: runs.to_vec(),
        })
        .collect()
}

/// Delivers chunks in a seeded pseudo-random order through a replica's
/// causal buffer (re-queuing bundles that arrive before their parents).
fn deliver_scrambled(chunks: Vec<EventBundle>, seed: u64) -> Replica {
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
    let mut replica = Replica::new("receiver");
    for &i in &order {
        // Through the wire codec, like a real network would.
        let wire = encode_bundle(&chunks[i]);
        let decoded = decode_bundle(&wire).expect("wire roundtrip");
        replica.receive(DocId::DEFAULT, &decoded);
    }
    assert_eq!(replica.pending_len(), 0, "causal buffer did not drain");
    replica
}

#[test]
fn traces_replicate_through_bundles() {
    // A sequential, a concurrent, and an asynchronous trace, kept tiny so
    // the test stays fast; the shapes are what matter.
    for spec in builtin_specs(0.004) {
        if !["S2", "C1", "A2"].contains(&spec.name.as_str()) {
            continue;
        }
        let oplog = generate(&spec);
        let expected = oplog.checkout_tip().content.to_string();

        let full = oplog.bundle_since(&[]);
        assert_eq!(full.num_events(), oplog.len());
        let chunks = chunk_bundle(&full, 7);
        let replica = deliver_scrambled(chunks, 0x5EED ^ spec.name.len() as u64);
        assert_eq!(
            replica.text(DocId::DEFAULT),
            expected,
            "replication mismatch on {}",
            spec.name
        );
    }
}

#[test]
fn two_replicas_replaying_same_trace_converge() {
    let spec = &builtin_specs(0.003)[3]; // C1
    let oplog = generate(spec);
    let full = oplog.bundle_since(&[]);

    let a = deliver_scrambled(chunk_bundle(&full, 5), 111);
    let b = deliver_scrambled(chunk_bundle(&full, 13), 999);
    assert!(a.converged_with(&b));
}

#[test]
fn trace_roundtrips_disk_then_network() {
    // Disk format first (whole graph), then incremental network bundles on
    // top: the combination a real deployment uses (§3.8).
    let spec = &builtin_specs(0.004)[0]; // S1
    let oplog = generate(spec);

    // Persist + reload.
    let bytes =
        eg_walker_suite::encoding::encode(&oplog, eg_walker_suite::encoding::EncodeOpts::default());
    let decoded = eg_walker_suite::encoding::decode(&bytes).unwrap();
    let mut reloaded: OpLog = decoded.oplog;

    // New live edits arrive over the network as a bundle.
    let mut source = oplog.clone();
    let agent = source.get_or_create_agent("live-editor");
    source.add_insert(agent, 0, ">> ");
    let delta = source.bundle_since(&reloaded.remote_version());
    assert_eq!(delta.num_events(), 3);
    reloaded.apply_bundle(&delta).unwrap();

    assert_eq!(
        reloaded.checkout_tip().content.to_string(),
        source.checkout_tip().content.to_string()
    );
}
