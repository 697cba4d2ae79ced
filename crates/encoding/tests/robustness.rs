//! Robustness battery for the storage and wire codecs: every corruption
//! must surface as an error, never a panic or a silently wrong document.
//!
//! Besides the random-mutation fuzzing, a **stored regression corpus**
//! (`decoder_regression_corpus` below) pins the specific malformed frames
//! that slipped past earlier decoder revisions: overlong varints whose
//! high bits silently overflowed a `u64`, and CRC-valid frames whose
//! length fields overflow-panicked the arithmetic after the checksum had
//! already passed. Each entry is constructed deterministically so the
//! exact bytes survive in the repository history.

use eg_dag::RemoteId;
use eg_encoding::varint::push_usize;
use eg_encoding::{
    crc32, decode, decode_bundle, decode_bundle_batch, decode_digest, encode, encode_bundle,
    encode_bundle_batch, encode_digest, lz4, DecodeError, EncodeOpts,
};
use egwalker::testgen::random_oplog;
use egwalker::OpLog;
use proptest::prelude::*;

fn sample_oplog() -> OpLog {
    random_oplog(7, 50, 3, 0.3)
}

// ---------------------------------------------------------------------------
// Exhaustive single-byte corruption of the whole-file format.
// ---------------------------------------------------------------------------

#[test]
fn file_format_detects_every_single_byte_flip() {
    let oplog = sample_oplog();
    let bytes = encode(&oplog, EncodeOpts::default());
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x10;
        // Must not panic; CRC32 catches any single flip.
        assert!(
            decode(&corrupted).is_err(),
            "flip at byte {i}/{} went undetected",
            bytes.len()
        );
    }
}

#[test]
fn file_format_detects_every_truncation() {
    let oplog = sample_oplog();
    let bytes = encode(&oplog, EncodeOpts::default());
    for cut in 0..bytes.len() {
        assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
    }
}

#[test]
fn file_format_roundtrips_under_all_option_combinations() {
    let oplog = sample_oplog();
    let expected = oplog.checkout_tip().content.to_string();
    for compress in [false, true] {
        for keep_deleted in [false, true] {
            for cache in [false, true] {
                let opts = EncodeOpts {
                    compress_content: compress,
                    keep_deleted_content: keep_deleted,
                    cache_final_doc: cache,
                };
                let bytes = encode(&oplog, opts);
                let decoded = decode(&bytes).unwrap_or_else(|e| {
                    panic!("decode failed for {opts:?}: {e}");
                });
                assert_eq!(decoded.oplog.len(), oplog.len(), "{opts:?}");
                if keep_deleted {
                    // Full fidelity: replay must reproduce the document.
                    assert_eq!(
                        decoded.oplog.checkout_tip().content.to_string(),
                        expected,
                        "{opts:?}"
                    );
                }
                if cache {
                    assert_eq!(decoded.cached_doc.as_deref(), Some(expected.as_str()));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random garbage must never panic any decoder.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn file_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode(&bytes);
    }

    #[test]
    fn bundle_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_bundle(&bytes);
    }

    #[test]
    fn digest_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_digest(&bytes);
    }

    #[test]
    fn bundle_batch_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_bundle_batch(&bytes);
    }

    #[test]
    fn lz4_decompressor_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        max in 0usize..4096,
    ) {
        let _ = lz4::decompress(&bytes, max);
    }

    /// LZ4 round-trips arbitrary binary data.
    #[test]
    fn lz4_roundtrip_random(bytes in prop::collection::vec(any::<u8>(), 0..2000)) {
        let packed = lz4::compress(&bytes);
        let unpacked = lz4::decompress(&packed, bytes.len().max(1)).unwrap();
        prop_assert_eq!(unpacked, bytes);
    }

    /// LZ4 round-trips highly repetitive data (the match-heavy path).
    #[test]
    fn lz4_roundtrip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..8),
        reps in 1usize..200,
        tail in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut data: Vec<u8> = Vec::new();
        for _ in 0..reps {
            data.extend_from_slice(&unit);
        }
        data.extend_from_slice(&tail);
        let packed = lz4::compress(&data);
        let unpacked = lz4::decompress(&packed, data.len()).unwrap();
        prop_assert_eq!(unpacked, data);
    }

    /// Whole pipeline: random oplog → encode → decode → same document.
    #[test]
    fn encode_decode_replay_roundtrip(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let bytes = encode(&oplog, EncodeOpts::default());
        let decoded = decode(&bytes).unwrap();
        prop_assert_eq!(
            decoded.oplog.checkout_tip().content.to_string(),
            oplog.checkout_tip().content.to_string()
        );
    }

    /// Bundle wire format: random oplog → bundle → encode → decode → apply.
    #[test]
    fn bundle_wire_roundtrip(
        seed in 0u64..1_000_000,
        steps in 1usize..50,
        replicas in 1usize..4,
        merge_prob in 0.0f64..0.5,
    ) {
        let oplog = random_oplog(seed, steps, replicas, merge_prob);
        let bundle = oplog.bundle_since(&[]);
        let wire = encode_bundle(&bundle);
        let decoded = decode_bundle(&wire).unwrap();
        prop_assert_eq!(&decoded, &bundle);
        let mut peer = OpLog::new();
        peer.apply_bundle(&decoded).unwrap();
        prop_assert_eq!(
            peer.checkout_tip().content.to_string(),
            oplog.checkout_tip().content.to_string()
        );
    }
}

// ---------------------------------------------------------------------------
// Stored regression corpus: deterministic malformed frames that earlier
// decoder revisions accepted (silently truncating overlong varints) or
// panicked on (length-field overflow after a valid CRC). CRCs are
// recomputed here so each input exercises the *structural* checks, not
// the checksum.
// ---------------------------------------------------------------------------

/// Frames `body` with the given magic, the current version of that frame
/// kind (2 for `EGWM`, 1 for `EGWD` and `EGWB`), and a valid CRC32
/// trailer — the shape the three share.
fn crafted_frame(magic: &[u8; 4], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(magic);
    out.push(if magic == b"EGWM" { 2 } else { 1 });
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A 10-byte varint whose final byte sets bit 64: earlier `read_u64`
/// revisions shifted the excess bits into oblivion and decoded `1`.
const OVERLONG_ONE: [u8; 10] = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
/// A zero-extended (non-canonical) encoding of `0`.
const ZERO_EXTENDED_ZERO: [u8; 2] = [0x80, 0x00];

#[test]
fn corpus_overlong_varint_count_rejected() {
    // An EGWD digest whose doc count is the overflowing 10-byte form of 1,
    // followed by exactly the one document that count implies. The frame
    // CRC-validates; only varint strictness can reject it. The pre-fix
    // decoder accepted it wholesale.
    let mut body = Vec::new();
    push_usize(&mut body, 0); // no interned agents
    body.extend_from_slice(&OVERLONG_ONE); // doc count: "1", overflowing
    push_usize(&mut body, 5); // doc id
    push_usize(&mut body, 0); // no tips
    let frame = crafted_frame(b"EGWD", &body);
    assert_eq!(decode_digest(&frame), Err(DecodeError::Overlong));
}

#[test]
fn corpus_zero_extended_varint_rejected() {
    // Agent count written as the non-canonical [0x80, 0x00]: same value
    // space, different bytes — must not decode.
    let mut body = Vec::new();
    body.extend_from_slice(&ZERO_EXTENDED_ZERO); // agent count: "0"
    push_usize(&mut body, 0); // doc count
    let frame = crafted_frame(b"EGWD", &body);
    assert_eq!(decode_digest(&frame), Err(DecodeError::Overlong));
}

#[test]
fn corpus_bundle_loc_overflow_rejected() {
    // An EGWB run whose loc.start sits at usize::MAX with len 2: computing
    // the exclusive range end overflowed (a panic in debug builds) before
    // the checked_add guard.
    let mut body = Vec::new();
    push_usize(&mut body, 1); // one agent
    push_usize(&mut body, 1);
    body.push(b'a');
    push_usize(&mut body, 1); // one run
    push_usize(&mut body, 0); // agent index
    push_usize(&mut body, 0); // seq_start
    body.push(0); // flags: Ins, not fwd
    push_usize(&mut body, usize::MAX); // loc.start
    push_usize(&mut body, 2); // run length -> loc.end overflows
    push_usize(&mut body, 0); // no parents
    push_usize(&mut body, 2); // content bytes
    body.extend_from_slice(b"ab");
    let frame = crafted_frame(b"EGWB", &body);
    assert_eq!(decode_bundle(&frame), Err(DecodeError::Corrupt));
}

#[test]
fn corpus_inflated_counts_rejected_before_allocation() {
    // Claimed element counts far larger than the remaining input must be
    // rejected up front (no proportional allocation, no EOF crawl).
    let mut body = Vec::new();
    push_usize(&mut body, usize::MAX); // agent count
    let frame = crafted_frame(b"EGWD", &body);
    assert_eq!(decode_digest(&frame), Err(DecodeError::Corrupt));

    let mut body = Vec::new();
    push_usize(&mut body, usize::MAX); // doc count
    let frame = crafted_frame(b"EGWM", &body);
    assert_eq!(decode_bundle_batch(&frame), Err(DecodeError::Corrupt));
}

#[test]
fn corpus_zero_length_parents_span_rejected() {
    // Fuzz-loop find: a whole-file frame whose PARENTS column contains a
    // zero-length span record. The rebuild loop computed a zero chunk
    // length from it and fed an empty run into the oplog `add_*` path,
    // whose `len > 0` assertion panicked — a crash on attacker-controlled
    // bytes. The frame CRC-validates; only the span-length check can
    // reject it. (The op is an insert so the frame clears the position
    // prefix bound and actually reaches the parents column.)
    let mut body = Vec::new();
    body.extend_from_slice(b"EGWALKR1");
    push_usize(&mut body, 1); // one event
    let mut ops = Vec::new();
    push_usize(&mut ops, 1 << 2 | 0b01); // one insert, fwd
    push_usize(&mut ops, 0); // pos delta 0 (i64 zigzag of 0)
    push_chunk(&mut body, 1, &ops); // OPS
    let mut content = Vec::new();
    push_usize(&mut content, 1); // one content byte
    content.push(0); // uncompressed
    content.push(b'x');
    push_chunk(&mut body, 2, &content); // CONTENT
    let mut parents = Vec::new();
    push_usize(&mut parents, 0); // span length 0  << the corpus entry
    push_usize(&mut parents, 0); // no parents
    push_usize(&mut parents, 1); // span length 1 (the real event)
    push_usize(&mut parents, 0); // root
    push_chunk(&mut body, 3, &parents); // PARENTS
    let mut names = Vec::new();
    push_usize(&mut names, 1); // one agent
    push_usize(&mut names, 1);
    names.push(b'a');
    push_chunk(&mut body, 4, &names); // AGENT_NAMES
    let mut assign = Vec::new();
    push_usize(&mut assign, 0); // agent 0
    push_usize(&mut assign, 0); // seq 0
    push_usize(&mut assign, 1); // one event
    push_chunk(&mut body, 5, &assign); // AGENT_ASSIGNMENT
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(decode(&body).err(), Some(DecodeError::Corrupt));
}

/// Mirror of `push_chunk` in `event_graph.rs` (not exported): tag byte,
/// payload length, payload.
fn push_chunk(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    push_usize(out, payload.len());
    out.extend_from_slice(payload);
}

#[test]
fn corpus_out_of_bounds_positions_rejected() {
    // A CRC-valid whole-file frame whose op *positions* are structurally
    // impossible: insert "ab", delete one character (document is now one
    // char), then insert at position 2. Every column is well-formed and
    // the position clears the naive "characters inserted so far" bound
    // (2 ≤ 2) — only the length-simulation replay sees that the live
    // document is too short. Pre-fix decoders accepted the file and the
    // panic surfaced later, inside checkout's rope apply.
    let mut body = Vec::new();
    body.extend_from_slice(b"EGWALKR1");
    push_usize(&mut body, 4); // four events
    let mut ops = Vec::new();
    push_usize(&mut ops, 2 << 2 | 0b01); // insert run, len 2, fwd
    push_usize(&mut ops, 0); // pos 0 (zigzag delta 0)
    push_usize(&mut ops, 1 << 2 | 0b11); // delete run, len 1, fwd
    push_usize(&mut ops, 0); // pos 0
    push_usize(&mut ops, 1 << 2 | 0b01); // insert run, len 1, fwd
    push_usize(&mut ops, 4); // pos 2 (zigzag delta +2)
    push_chunk(&mut body, 1, &ops); // OPS
    let mut content = Vec::new();
    push_usize(&mut content, 3); // three inserted chars
    content.push(0); // uncompressed
    content.extend_from_slice(b"abx");
    push_chunk(&mut body, 2, &content); // CONTENT
    let mut parents = Vec::new();
    push_usize(&mut parents, 4); // one linear run of all four events
    push_usize(&mut parents, 0); // rooted
    push_chunk(&mut body, 3, &parents); // PARENTS
    let mut names = Vec::new();
    push_usize(&mut names, 1); // one agent
    push_usize(&mut names, 1);
    names.push(b'a');
    push_chunk(&mut body, 4, &names); // AGENT_NAMES
    let mut assign = Vec::new();
    push_usize(&mut assign, 0); // agent 0
    push_usize(&mut assign, 0); // seq 0
    push_usize(&mut assign, 4); // all four events
    push_chunk(&mut body, 5, &assign); // AGENT_ASSIGNMENT
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(decode(&body).err(), Some(DecodeError::Corrupt));

    // The wild-position variant (position beyond everything ever
    // inserted) dies at the cheap prefix bound instead.
    let mut body = Vec::new();
    body.extend_from_slice(b"EGWALKR1");
    push_usize(&mut body, 1); // one event
    let mut ops = Vec::new();
    push_usize(&mut ops, 1 << 2 | 0b01); // insert run, len 1, fwd
    push_usize(&mut ops, 2 * 1000); // pos 1000 on an empty document
    push_chunk(&mut body, 1, &ops);
    let mut content = Vec::new();
    push_usize(&mut content, 1);
    content.push(0);
    content.push(b'x');
    push_chunk(&mut body, 2, &content);
    let mut parents = Vec::new();
    push_usize(&mut parents, 1);
    push_usize(&mut parents, 0);
    push_chunk(&mut body, 3, &parents);
    let mut names = Vec::new();
    push_usize(&mut names, 1);
    push_usize(&mut names, 1);
    names.push(b'a');
    push_chunk(&mut body, 4, &names);
    let mut assign = Vec::new();
    push_usize(&mut assign, 0);
    push_usize(&mut assign, 0);
    push_usize(&mut assign, 1);
    push_chunk(&mut body, 5, &assign);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(decode(&body).err(), Some(DecodeError::Corrupt));
}

// ---------------------------------------------------------------------------
// Segment-store records (eg-storage) framed over this crate's codecs:
// arbitrary bytes must never panic the frame scanner or checkpoint codec.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn segment_frame_scanner_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = eg_storage::scan_frames(&bytes);
    }

    #[test]
    fn checkpoint_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = eg_storage::decode_checkpoint(&bytes);
    }
}

#[test]
fn corpus_truncated_frames_rejected() {
    // Every prefix of valid digest / bundle-batch frames must error; the
    // shortest interesting ones (inside the CRC trailer) are kept as
    // explicit corpus entries via the full sweep.
    let digest = encode_digest(&[(
        9,
        vec![RemoteId {
            agent: "corpus".into(),
            seq: 3,
        }],
    )]);
    for cut in 0..digest.len() {
        assert!(decode_digest(&digest[..cut]).is_err(), "cut {cut}");
    }
    let mut log = OpLog::new();
    let a = log.get_or_create_agent("corpus");
    log.add_insert(a, 0, "x");
    let batch = encode_bundle_batch(&[(0, log.bundle_since(&[]))]);
    for cut in 0..batch.len() {
        assert!(decode_bundle_batch(&batch[..cut]).is_err(), "cut {cut}");
    }
}

// ---------------------------------------------------------------------------
// Decompression bombs: the max_size bound is enforced.
// ---------------------------------------------------------------------------

#[test]
fn lz4_respects_max_size() {
    let data = vec![b'x'; 10_000];
    let packed = lz4::compress(&data);
    // Refusing to inflate past the declared bound.
    assert!(lz4::decompress(&packed, 100).is_err());
    assert_eq!(lz4::decompress(&packed, 10_000).unwrap(), data);
}

// ---------------------------------------------------------------------------
// The patch decoder behind every EGWM batch: a multi-document batch with
// concurrent histories and parents outside the patches, cut and flipped
// at every byte, with the CRC left as it is and with it recomputed so the
// damage reaches the patch's structural checks.
// ---------------------------------------------------------------------------

/// Three documents: a whole concurrent history, the same history past a
/// prefix (its first runs have parents in the prefix, outside the patch)
/// and a second concurrent history past a prefix.
fn patch_batch() -> Vec<u8> {
    let whole = random_oplog(11, 40, 3, 0.3);
    let prefix = random_oplog(11, 20, 3, 0.3);
    let other = random_oplog(12, 30, 2, 0.4);
    let other_prefix = random_oplog(12, 12, 2, 0.4);
    let tail = whole.bundle_since(&prefix.version_vector());
    assert!(tail.runs.iter().any(|run| !run.parents.is_empty()));
    encode_bundle_batch(&[
        (0, whole.bundle_since(&[])),
        (5, tail),
        (900, other.bundle_since(&other_prefix.version_vector())),
    ])
}

/// Recomputes the trailing CRC32 over everything before it.
fn fix_crc(frame: &mut [u8]) {
    let Some(body) = frame.len().checked_sub(4) else {
        return;
    };
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn patch_batch_detects_every_single_byte_flip() {
    let bytes = patch_batch();
    assert!(decode_bundle_batch(&bytes).is_ok());
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x08;
        assert!(decode_bundle_batch(&corrupted).is_err(), "flip at byte {i}");
    }
}

#[test]
fn patch_batch_detects_every_truncation() {
    let bytes = patch_batch();
    for cut in 0..bytes.len() {
        assert!(decode_bundle_batch(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn patch_decoder_survives_flips_past_the_crc() {
    let bytes = patch_batch();
    for i in 0..bytes.len() - 4 {
        for bit in [0x01u8, 0x10, 0x80] {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= bit;
            fix_crc(&mut corrupted);
            // No panic; a flip that still parses must still carry events
            // in well-formed runs.
            if let Ok(docs) = decode_bundle_batch(&corrupted) {
                for (_, bundle) in &docs {
                    assert!(bundle.runs.iter().all(|run| !run.is_empty()), "byte {i}");
                }
            }
        }
    }
}

#[test]
fn patch_decoder_survives_truncation_past_the_crc() {
    let bytes = patch_batch();
    for cut in 5..bytes.len() - 4 {
        let mut truncated = bytes[..cut].to_vec();
        truncated.extend_from_slice(&[0; 4]);
        fix_crc(&mut truncated);
        assert!(decode_bundle_batch(&truncated).is_err(), "cut {cut}");
    }
}

/// A batch of one document, doc id 0, whose patch is `patch`.
fn crafted_batch(patch: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    push_usize(&mut body, 1); // one document
    push_usize(&mut body, 0); // doc id
    push_usize(&mut body, patch.len());
    body.extend_from_slice(patch);
    crafted_frame(b"EGWM", &body)
}

/// A patch from its columns' integers: the event count, one agent `a`,
/// then `rest` (assignments, ops, parents, boundary) and the content.
fn crafted_patch(events: usize, rest: &[usize], content: &str) -> Vec<u8> {
    let mut patch = Vec::new();
    push_usize(&mut patch, events);
    push_usize(&mut patch, 1); // one agent name
    push_usize(&mut patch, 1);
    patch.push(b'a');
    for &n in rest {
        push_usize(&mut patch, n);
    }
    push_usize(&mut patch, content.len());
    patch.extend_from_slice(content.as_bytes());
    patch
}

#[test]
fn corpus_patch_structural_faults_rejected() {
    // One forward insert of "x" by agent 0, seq 0, no parents: assignment
    // (0, 0, 1), ops (1 << 2 | fwd, Δpos 0), parents (span 1, none).
    let valid = crafted_patch(1, &[0, 0, 1, 0b101, 0, 1, 0], "x");
    assert!(decode_bundle_batch(&crafted_batch(&valid)).is_ok());

    let faults: [(&str, Vec<u8>); 9] = [
        (
            "zero-length assignment",
            crafted_patch(1, &[0, 0, 0, 0b101, 0, 1, 0], "x"),
        ),
        (
            "agent index past the table",
            crafted_patch(1, &[1, 0, 1, 0b101, 0, 1, 0], "x"),
        ),
        (
            "assignments cover more events than the patch",
            crafted_patch(1, &[0, 0, 2, 0b101, 0, 1, 0], "x"),
        ),
        (
            "zero-length op",
            crafted_patch(1, &[0, 0, 1, 0b001, 0, 1, 0], "x"),
        ),
        (
            "parent distance past the patch start",
            crafted_patch(1, &[0, 0, 1, 0b101, 0, 1, 1, 1], "x"),
        ),
        (
            "boundary parent with an agent past the table",
            crafted_patch(1, &[0, 0, 1, 0b101, 0, 1, 1, 0, 7, 0], "x"),
        ),
        (
            "content shorter than the inserts",
            crafted_patch(1, &[0, 0, 1, 0b101, 0, 1, 0], ""),
        ),
        (
            "multi-event backward insert",
            crafted_patch(2, &[0, 0, 2, 0b1000, 0, 2, 0], "xy"),
        ),
        ("trailing bytes", {
            let mut patch = valid.clone();
            patch.push(0);
            patch
        }),
    ];
    for (what, patch) in faults {
        assert_eq!(
            decode_bundle_batch(&crafted_batch(&patch)),
            Err(DecodeError::Corrupt),
            "{what}"
        );
    }

    // A version-1 batch (EGWB bundles inside) is refused by its version.
    let mut old = crafted_batch(&valid);
    old[4] = 1;
    fix_crc(&mut old);
    assert_eq!(decode_bundle_batch(&old), Err(DecodeError::Corrupt));
}
