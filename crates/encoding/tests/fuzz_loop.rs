//! Time-bounded mutation fuzzing of the storage and wire decoders
//! (ROADMAP residual: "fuzz-style loop over the encoding corpus").
//!
//! `#[ignore]`-by-default: the tier-1 suite already has the bounded
//! proptest battery in `robustness.rs`; this loop is the open-ended
//! nightly companion. Run it with
//!
//! ```text
//! EG_FUZZ_SECS=30 cargo test -p eg-encoding --test fuzz_loop --release -- --ignored
//! ```
//!
//! Starting from a corpus of *valid* frames of every kind (EGWL whole
//! files across all encode options, EGWB bundles, EGWD digests, EGWM
//! bundle batches — whose documents travel as §3.8 patches, several per
//! batch, with concurrent histories and parents outside the patch —,
//! EGSEG segment-store files with event and checkpoint records), each
//! iteration picks a frame and a mutation — byte flips,
//! truncation, tail garbage, splicing two frames, length-field nudges —
//! and feeds the result to every decoder. Half the mutants get their
//! CRC32 trailer recomputed ("fixed up") so they penetrate past the
//! checksum and exercise the structural validation underneath; without
//! the fixup, fuzzing mostly tests the CRC. The only pass criterion is
//! *no panic, no abort*: decoders must return `Err` (or, for a mutant
//! that happens to stay valid, `Ok`) on every input. Wrong-decode bugs
//! are the robustness battery's job; this loop hunts crashes.

use eg_encoding::{
    crc32, decode, decode_bundle, decode_bundle_batch, decode_digest, decode_oplog_image, encode,
    encode_bundle, encode_bundle_batch, encode_digest, encode_oplog_image, EncodeOpts,
};
use eg_storage::{
    decode_checkpoint, decode_snapshot, encode_checkpoint, push_frame, read_checkpoint,
    scan_frames, Checkpoint, FORMAT_VERSION, RECORD_CHECKPOINT, RECORD_EVENTS, SEGMENT_MAGIC,
};
use egwalker::testgen::{mid_run_criticals_oplog, random_oplog, SmallRng};
use egwalker::walker::{self, WalkerOpts};
use std::time::{Duration, Instant};

/// A valid segment-store file for `oplog`: header, one event record, one
/// checkpoint record (with tracker snapshot) — the shape `DocStore`
/// writes.
fn segment_file(oplog: &egwalker::OpLog) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SEGMENT_MAGIC);
    out.push(FORMAT_VERSION);
    push_frame(
        &mut out,
        RECORD_EVENTS,
        &encode_bundle(&oplog.bundle_since(&[])),
    );
    let branch = oplog.checkout_tip();
    let snapshot =
        walker::tracker_at(oplog, branch.version.as_slice(), WalkerOpts::default()).to_snapshot();
    let ck = Checkpoint {
        version: branch
            .version
            .iter()
            .map(|&lv| oplog.lv_to_remote(lv))
            .collect(),
        content: branch.content.to_string(),
        snapshot: Some(snapshot),
        oplog_image: Some(encode_oplog_image(oplog)),
    };
    push_frame(&mut out, RECORD_CHECKPOINT, &encode_checkpoint(&ck));
    out
}

/// Valid frames of every wire kind, the mutation starting points.
fn corpus() -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for seed in [1u64, 42, 0xF00D] {
        let oplog = random_oplog(seed, 40, 3, 0.3);
        for compress in [false, true] {
            for cache in [false, true] {
                frames.push(encode(
                    &oplog,
                    EncodeOpts {
                        compress_content: compress,
                        cache_final_doc: cache,
                        ..Default::default()
                    },
                ));
            }
        }
        let bundle = oplog.bundle_since(&[]);
        frames.push(encode_bundle(&bundle));
        frames.push(encode_bundle_batch(&[
            (seed, bundle.clone()),
            (seed + 1, bundle),
        ]));
        // Several documents per batch: a tail past a prefix of the same
        // history (its first parents lie outside the patch), a two-author
        // history past its midpoint, and a whole history.
        let prefix = random_oplog(seed, 20, 3, 0.3);
        let (crit, _) = mid_run_criticals_oplog(seed, 6);
        let midpoint = [crit.lv_to_remote(crit.len() / 2)];
        frames.push(encode_bundle_batch(&[
            (seed, oplog.bundle_since(&prefix.version_vector())),
            (seed + 1, crit.bundle_since(&midpoint)),
            (seed + 2, oplog.bundle_since(&[])),
        ]));
        frames.push(encode_digest(&[(seed, oplog.remote_version())]));
        frames.push(segment_file(&oplog));
    }
    frames.push(encode_digest::<Vec<eg_dag::RemoteId>>(&[]));
    frames
}

/// Applies one random mutation in place.
fn mutate(frame: &mut Vec<u8>, corpus: &[Vec<u8>], rng: &mut SmallRng) {
    match rng.below(6) {
        // Flip 1..8 random bits.
        0 => {
            for _ in 0..1 + rng.below(8) {
                if frame.is_empty() {
                    break;
                }
                let i = rng.below(frame.len());
                frame[i] ^= 1 << rng.below(8);
            }
        }
        // Overwrite a byte with a boundary value.
        1 => {
            if !frame.is_empty() {
                let i = rng.below(frame.len());
                frame[i] = [0x00, 0x7F, 0x80, 0xFF][rng.below(4)];
            }
        }
        // Truncate.
        2 => {
            let cut = rng.below(frame.len() + 1);
            frame.truncate(cut);
        }
        // Append garbage or duplicate a tail slice.
        3 => {
            let n = 1 + rng.below(16);
            for _ in 0..n {
                let b = (rng.next_u64() & 0xFF) as u8;
                frame.push(b);
            }
        }
        // Splice: replace a random span with a span from another frame
        // (crossover — carries valid-looking substructure into a valid
        // envelope).
        4 => {
            let donor = &corpus[rng.below(corpus.len())];
            if !frame.is_empty() && !donor.is_empty() {
                let at = rng.below(frame.len());
                let dlen = 1 + rng.below(donor.len().min(32));
                let dstart = rng.below(donor.len() - dlen + 1);
                let end = (at + dlen).min(frame.len());
                frame.splice(at..end, donor[dstart..dstart + dlen].iter().copied());
            }
        }
        // Nudge a byte up/down by one — the classic off-by-one for
        // length-prefixed formats.
        _ => {
            if !frame.is_empty() {
                let i = rng.below(frame.len());
                frame[i] = frame[i].wrapping_add(if rng.below(2) == 0 { 1 } else { 0xFF });
            }
        }
    }
}

/// Recomputes the CRC32 trailer over everything before it, so the mutant
/// passes the checksum and reaches the structural checks.
fn fixup_crc(frame: &mut [u8]) {
    if frame.len() < 4 {
        return;
    }
    let body = frame.len() - 4;
    let crc = crc32(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
#[ignore = "open-ended fuzz loop; run nightly / on demand with --ignored"]
fn decoders_never_panic_under_mutation() {
    let secs: u64 = std::env::var("EG_FUZZ_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let seed: u64 = std::env::var("EG_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF422);
    let corpus = corpus();
    let mut rng = SmallRng::new(seed);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut iters = 0u64;
    let mut mutant = Vec::new();
    while Instant::now() < deadline {
        // Batch the clock check; mutation rounds are sub-microsecond.
        for _ in 0..512 {
            mutant.clear();
            mutant.extend_from_slice(&corpus[rng.below(corpus.len())]);
            for _ in 0..1 + rng.below(3) {
                mutate(&mut mutant, &corpus, &mut rng);
            }
            if rng.below(2) == 0 {
                fixup_crc(&mut mutant);
            }
            // Every decoder sees every mutant regardless of magic: magic
            // dispatch itself is attack surface.
            let _ = decode(&mutant);
            let _ = decode_bundle(&mutant);
            let _ = decode_digest(&mutant);
            let _ = decode_bundle_batch(&mutant);
            let _ = decode_checkpoint(&mutant);
            let _ = decode_snapshot(&mutant);
            let _ = decode_oplog_image(&mutant);
            if let Ok((seg_frames, _)) = scan_frames(&mutant) {
                // Frames that survive the per-frame CRC (splices of valid
                // records, or fixed-up tails) exercise the record payload
                // decoders — the layer `DocStore::open` trusts not to
                // panic.
                for f in seg_frames {
                    match f.kind {
                        RECORD_EVENTS => {
                            let _ = decode_bundle(f.payload);
                        }
                        RECORD_CHECKPOINT => {
                            // Both depths: the owned decode and the lazy
                            // view with its per-section decoders (the
                            // path `DocStore::open` actually takes).
                            let _ = decode_checkpoint(f.payload);
                            if let Ok(view) = read_checkpoint(f.payload) {
                                for (agent, seq) in view.version_ids() {
                                    std::hint::black_box((agent.len(), seq));
                                }
                                if let Some(raw) = view.snapshot {
                                    let _ = decode_snapshot(raw);
                                }
                                if let Some(raw) = view.oplog_image {
                                    let _ = decode_oplog_image(raw);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            iters += 1;
        }
    }
    eprintln!("fuzz loop: {iters} mutants over {secs}s (seed {seed:#x}) — no panics");
}
