//! Time-bounded mutation fuzzing of the socket frame decoder, the
//! companion of `crates/encoding/tests/fuzz_loop.rs` one layer up the
//! stack: where that loop attacks the EGWD/EGWM codecs with raw
//! mutants, this one attacks the framing that carries them — length
//! prefixes, tag dispatch, incremental reassembly.
//!
//! `#[ignore]`-by-default: the crafted corpus in `frame_robustness.rs`
//! is the tier-1 battery; this is the open-ended nightly companion.
//!
//! ```text
//! EG_FUZZ_SECS=30 cargo test -p eg-sync --test fuzz_frames --release -- --ignored
//! ```
//!
//! Starting from valid wire images of every frame kind (hello, ping,
//! pong, mark, reset, sync digests, sync bundle batches), each iteration
//! mutates one
//! image — bit flips, boundary bytes, truncation, tail garbage, splice
//! crossover, ±1 nudges — and feeds it to the decoder three ways: one
//! push, random chunks, and through the blocking `read_frame` helper.
//! Half the mutants get their outer length prefix repaired so they
//! penetrate past the framing into tag dispatch and payload decoding;
//! half of *those* also get the inner sync-message CRC repaired so they
//! reach the structural checks under the checksum. The only pass
//! criterion is no panic: every input must come back `Ok` or `Err`.

use eg_encoding::crc32;
use eg_sync::frame::{
    read_frame, FrameDecoder, FrameTally, WireFrame, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use eg_sync::{DocId, Message, Replica};
use egwalker::testgen::SmallRng;
use std::time::{Duration, Instant};

/// Valid `[len][tag][body]` wire images of every frame kind.
fn corpus() -> Vec<Vec<u8>> {
    let mut frames = vec![
        WireFrame::Hello {
            proto: PROTOCOL_VERSION,
            name: "fuzz-peer".into(),
        }
        .encode(),
        WireFrame::Hello {
            proto: 0,
            name: String::new(),
        }
        .encode(),
        WireFrame::Ping(0).encode(),
        WireFrame::Ping(u64::MAX).encode(),
        WireFrame::Pong(0xDEAD_BEEF).encode(),
        WireFrame::Mark(FrameTally::default()).encode(),
        WireFrame::Mark(FrameTally {
            frames: u64::MAX,
            check: u32::MAX,
        })
        .encode(),
        WireFrame::Reset { echo: false }.encode(),
        WireFrame::Reset { echo: true }.encode(),
    ];
    for seed in [1u64, 42, 0xF00D] {
        let mut rng = SmallRng::new(seed);
        let mut a = Replica::new("fuzz-a");
        let mut b = Replica::new("fuzz-b");
        let mut bundles = Vec::new();
        for i in 0..20u64 {
            let doc = DocId(1 + i % 3);
            let at = rng.below(64);
            let r = if rng.below(2) == 0 { &mut a } else { &mut b };
            let len = r.text(doc).chars().count();
            bundles.push((doc, r.insert(doc, at.min(len), "xyzzy")));
        }
        frames.push(WireFrame::Sync(Message::Digest(a.digest_all())).encode());
        frames.push(WireFrame::Sync(Message::Digest(b.digest_all())).encode());
        frames.push(WireFrame::Sync(Message::Bundles(bundles)).encode());
    }
    frames.push(WireFrame::Sync(Message::Digest(Vec::new())).encode());
    frames
}

/// Applies one random mutation in place (mirrors the encoding loop's
/// mutation classes).
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
        // Append garbage.
        3 => {
            for _ in 0..1 + rng.below(16) {
                let b = (rng.next_u64() & 0xFF) as u8;
                frame.push(b);
            }
        }
        // Splice a span from another frame (crossover).
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
        // Nudge a byte ±1 — the classic off-by-one for length prefixes.
        _ => {
            if !frame.is_empty() {
                let i = rng.below(frame.len());
                frame[i] = frame[i].wrapping_add(if rng.below(2) == 0 { 1 } else { 0xFF });
            }
        }
    }
}

/// Rewrites the outer length prefix to match the mutated body, so the
/// mutant penetrates the framing layer.
fn fixup_len(frame: &mut [u8]) {
    if frame.len() < FRAME_HEADER_LEN {
        return;
    }
    let body = (frame.len() - FRAME_HEADER_LEN) as u32;
    frame[..FRAME_HEADER_LEN].copy_from_slice(&body.to_le_bytes());
}

/// Recomputes the trailing CRC32 of the inner sync message so the
/// mutant passes the checksum and reaches the structural validation.
fn fixup_inner_crc(frame: &mut [u8]) {
    // [4-byte len][1 tag][message..crc32]: the CRC trails the frame.
    if frame.len() < FRAME_HEADER_LEN + 1 + 4 {
        return;
    }
    let body = frame.len() - 4;
    let crc = crc32(&frame[FRAME_HEADER_LEN + 1..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Runs one mutant through every decode path; panics are the only
/// failure.
fn exercise(mutant: &[u8], rng: &mut SmallRng) {
    // One-shot push.
    let mut dec = FrameDecoder::new();
    dec.push(mutant);
    while let Ok(Some(_)) = dec.next_wire_frame() {}

    // Random chunked feeding (exercises reassembly + lazy compaction).
    let mut dec = FrameDecoder::new();
    let mut rest = mutant;
    'outer: while !rest.is_empty() {
        let n = (1 + rng.below(7)).min(rest.len());
        dec.push(&rest[..n]);
        rest = &rest[n..];
        loop {
            match dec.next_wire_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break 'outer,
            }
        }
    }

    // Blocking helper over an in-memory stream.
    let mut cursor = std::io::Cursor::new(mutant);
    let mut dec = FrameDecoder::new();
    while let Ok(Some(_)) = read_frame(&mut cursor, &mut dec) {}

    // Straight body decode, skipping the framing.
    if mutant.len() > FRAME_HEADER_LEN {
        let _ = WireFrame::decode(&mutant[FRAME_HEADER_LEN..]);
    }
}

#[test]
#[ignore = "open-ended fuzz loop; run nightly / on demand with --ignored"]
fn frame_decoder_never_panics_under_mutation() {
    let secs: u64 = std::env::var("EG_FUZZ_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let seed: u64 = std::env::var("EG_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x51AC);
    let corpus = corpus();
    let mut rng = SmallRng::new(seed);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut iterations = 0u64;
    while Instant::now() < deadline {
        for _ in 0..512 {
            let mut mutant = corpus[rng.below(corpus.len())].clone();
            for _ in 0..1 + rng.below(3) {
                mutate(&mut mutant, &corpus, &mut rng);
            }
            if rng.below(2) == 0 {
                fixup_len(&mut mutant);
                if rng.below(2) == 0 {
                    fixup_inner_crc(&mut mutant);
                }
            }
            exercise(&mutant, &mut rng);
            iterations += 1;
        }
    }
    eprintln!("fuzz_frames: {iterations} mutants survived (seed {seed}, {secs}s)");
}
