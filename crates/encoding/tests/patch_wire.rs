//! The bundle batch carries each document's events as a patch: the
//! §3.8 columns over just the events sent (`patch.rs`).
//!
//! * Round trip: for random histories and random causally closed `have`s
//!   — so that parents outside the patch occur — applying the decoded
//!   batch gives the same oplog as applying the bundle it was made from.
//! * Size: a one-run keystroke is no larger than it was as an `EGWB`
//!   row-format bundle.
//! * The file format shares its column writers with the patch and keeps
//!   its bytes: a hash over `encode`'s output for a fixed set of logs is
//!   pinned.

use eg_dag::RemoteId;
use eg_encoding::varint::push_usize;
use eg_encoding::{decode_bundle_batch, encode, encode_bundle, encode_bundle_batch, EncodeOpts};
use egwalker::testgen::{mid_run_criticals_oplog, random_oplog, SmallRng};
use egwalker::{BundleRun, EventBundle, OpLog, LV};

/// The events of `Events(have)`, as a bundle: what a replica whose version
/// is `have` holds.
fn history_of(oplog: &OpLog, have: &[LV]) -> EventBundle {
    let spans = oplog.graph.diff(&[], have).only_b;
    let name = |agent| oplog.agents.agent_name(agent).to_string();
    let mut runs = Vec::new();
    oplog.for_each_run(&spans, |run| {
        runs.push(BundleRun {
            agent: name(run.agent),
            seq_start: run.seq_start,
            parents: run
                .parents
                .iter()
                .map(|&(agent, seq)| RemoteId {
                    agent: name(agent),
                    seq,
                })
                .collect(),
            kind: run.kind,
            loc: run.loc,
            fwd: run.fwd,
            content: run.content.map(str::to_string),
        })
    });
    EventBundle { runs }
}

/// Sends `oplog`'s events past a random causally closed version to a
/// replica at that version, once as the bundle and once through the
/// batch's bytes, and checks that both replicas end up the same.
fn check_round_trip(oplog: &OpLog, rng: &mut SmallRng, what: &str) {
    let picks = rng.below(4);
    let lvs: Vec<LV> = (0..picks)
        .filter(|_| !oplog.is_empty())
        .map(|_| rng.below(oplog.len()))
        .collect();
    let have = oplog.graph.find_dominators(&lvs);
    let mut receiver = OpLog::new();
    receiver
        .apply_bundle(&history_of(oplog, &have))
        .expect("a causally closed history applies");
    let have_ids: Vec<RemoteId> = have.iter().map(|&lv| oplog.lv_to_remote(lv)).collect();
    let sent = oplog.bundle_since(&have_ids);

    let bytes = encode_bundle_batch(&[(3, &sent), (9, &sent)]);
    let decoded = decode_bundle_batch(&bytes).expect("decodes");
    assert_eq!(decoded.len(), 2, "{what}");
    for (doc, bundle) in &decoded {
        // Runs come back as they went in, except that two runs which
        // continue each other are one: a gap in the sender's LVs (events
        // the receiver holds) is no gap in the patch.
        assert_eq!(bundle.num_events(), sent.num_events(), "{what}: doc {doc}");
        assert!(bundle.runs.len() <= sent.runs.len(), "{what}: doc {doc}");
    }
    assert_eq!(decoded[0].1, decoded[1].1, "{what}");

    let mut direct = receiver.clone();
    direct.apply_bundle(&sent).expect("the bundle applies");
    let mut through = receiver;
    through
        .apply_bundle(&decoded[0].1)
        .expect("the decoded bundle applies");
    assert_eq!(through.len(), oplog.len(), "{what}");
    // The whole log as runs: LVs, agents and seqs, parents, ops, text.
    assert_eq!(
        through.bundle_since(&[]),
        direct.bundle_since(&[]),
        "{what}"
    );
    assert_eq!(
        through.checkout_tip().content.to_string(),
        oplog.checkout_tip().content.to_string(),
        "{what}"
    );
}

#[test]
fn patches_round_trip_random_histories() {
    let mut rng = SmallRng::new(0x9A7C);
    for seed in 0..64u64 {
        let replicas = 1 + (seed % 4) as usize;
        let oplog = random_oplog(seed, 10 + rng.below(80), replicas, 0.3);
        for _ in 0..4 {
            check_round_trip(&oplog, &mut rng, &format!("random_oplog seed {seed}"));
        }
    }
}

#[test]
fn patches_round_trip_mid_run_criticals() {
    let mut rng = SmallRng::new(0x31D);
    for seed in 0..16u64 {
        let (oplog, _) = mid_run_criticals_oplog(seed, 4 + rng.below(12));
        for _ in 0..4 {
            check_round_trip(&oplog, &mut rng, &format!("mid_run_criticals seed {seed}"));
        }
    }
}

/// The size `docs` would have as a version-1 batch, one `EGWB` bundle per
/// document: magic, version, count, per document its id, length and
/// bundle, and the CRC.
fn egwb_batch_len(docs: &[(u64, &EventBundle)]) -> usize {
    let mut head = Vec::new();
    push_usize(&mut head, docs.len());
    let mut len = 4 + 1 + head.len() + 4;
    for (doc, bundle) in docs {
        let bundle = encode_bundle(bundle);
        let mut prefix = Vec::new();
        push_usize(&mut prefix, *doc as usize);
        push_usize(&mut prefix, bundle.len());
        len += prefix.len() + bundle.len();
    }
    len
}

#[test]
fn a_keystroke_is_no_larger_than_its_egwb_bundle() {
    // Two sessions type into one document; the second's keystroke has its
    // parent, the first's last event, outside the patch.
    let mut log = OpLog::new();
    let first = log.get_or_create_agent("alpha-s3");
    let second = log.get_or_create_agent("beta-s7");
    for i in 0..300 {
        log.add_insert(first, i, "x");
    }
    let have = log.version_vector();
    log.add_insert(second, 151, "y");
    let keystroke = log.bundle_since(&have);
    assert_eq!(keystroke.runs.len(), 1);
    assert_eq!(keystroke.runs[0].parents.len(), 1);

    let docs = [(1000u64, &keystroke)];
    let patch = encode_bundle_batch(&docs).len();
    let egwb = egwb_batch_len(&docs);
    assert!(patch <= egwb, "keystroke patch {patch} B > EGWB {egwb} B");
    assert_eq!(egwb, 53, "the EGWB batch this pins against");
    assert_eq!(patch, 46, "the keystroke patch batch");
}

/// FNV-64 of every `encode` of a fixed set of logs, under every option:
/// recorded before the columns were shared with the patch, so the file
/// format has not moved.
#[test]
fn file_bytes_match_the_recorded_hash() {
    fn fnv(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
    let mut logs = Vec::new();
    for seed in 0..24u64 {
        let replicas = 1 + (seed % 4) as usize;
        logs.push(random_oplog(seed, 20 + seed as usize * 7, replicas, 0.3));
    }
    for seed in 0..6u64 {
        logs.push(mid_run_criticals_oplog(seed, 8).0);
    }
    let mut all = 0xcbf2_9ce4_8422_2325u64;
    for log in &logs {
        for compress_content in [false, true] {
            for keep_deleted_content in [false, true] {
                for cache_final_doc in [false, true] {
                    let opts = EncodeOpts {
                        compress_content,
                        keep_deleted_content,
                        cache_final_doc,
                    };
                    all ^= fnv(&encode(log, opts));
                    all = all.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(all, 0x9632_67f7_6a1d_8f24, "{all:#018x}");
}
