//! What a catch-up costs on the wire: two hosts that each ran their own
//! fleet script answer each other's digest with `bundles_for`, and the
//! answers are framed as the sync link frames them (32 documents per
//! bundle batch). Each document travels as a §3.8 patch; the same
//! answers as version-1 batches of `EGWB` row-format bundles are the
//! yardstick.

use eg_encoding::encode_bundle;
use eg_encoding::varint::push_usize;
use eg_server::{ServerConfig, ServerHost};
use eg_sync::{DocId, Message};
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use egwalker::EventBundle;
use std::sync::Arc;

/// Documents per bundle batch, as the sync link chunks a backlog.
const DOCS_PER_FRAME: usize = 32;

fn host(name: &str, seed: u64) -> ServerHost {
    let host = ServerHost::with_config(ServerConfig {
        name: name.to_owned(),
        workers: 1,
        ..ServerConfig::default()
    });
    let script: Arc<[FleetOp]> = fleet_workload(&FleetSpec {
        docs: 4,
        sessions: 8,
        edits: 5_000,
        seed,
        ..FleetSpec::default()
    })
    .into();
    host.submit_script(&script);
    host.flush();
    host
}

/// The size of `docs` as a version-1 batch: magic, version, document
/// count, per document its id, byte length and `EGWB` bundle, and CRC.
fn egwb_batch_len(docs: &[(DocId, EventBundle)]) -> usize {
    let mut bytes = Vec::new();
    push_usize(&mut bytes, docs.len());
    for (doc, bundle) in docs {
        let bundle = encode_bundle(bundle);
        push_usize(&mut bytes, doc.0 as usize);
        push_usize(&mut bytes, bundle.len());
        bytes.extend_from_slice(&bundle);
    }
    4 + 1 + bytes.len() + 4
}

#[test]
fn catch_up_patches_are_at_most_065_of_egwb_bundles() {
    let hosts = [host("alpha", 20250330), host("beta", 20250331)];
    let (mut patches, mut egwb) = (0usize, 0usize);
    for (src, dst) in [(&hosts[0], &hosts[1]), (&hosts[1], &hosts[0])] {
        let answer = src.bundles_for(&dst.digest_all());
        assert!(!answer.is_empty());
        for chunk in answer.chunks(DOCS_PER_FRAME) {
            let message = Message::Bundles(chunk.to_vec()).encode();
            patches += message.len();
            egwb += egwb_batch_len(chunk);
            dst.receive_bundles(chunk.to_vec());
        }
        dst.flush();
    }
    assert!(hosts[0].converged_with(&hosts[1]));
    let ratio = patches as f64 / egwb as f64;
    assert!(
        ratio <= 0.65,
        "patch batches {patches} B are {ratio:.3} of EGWB batches {egwb} B"
    );
    eprintln!("patch batches {patches} B, EGWB batches {egwb} B: {ratio:.3}");
}
