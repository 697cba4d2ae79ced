//! Crafted-corpus regression tests for the socket frame decoder.
//!
//! Each test pins one adversarial stream shape that a real socket can
//! produce — truncated length prefixes, oversized announcements,
//! EOF mid-frame, and payloads that pass the inner CRC but are
//! structurally broken. The nightly mutation loop
//! (`tests/fuzz_frames.rs`) hunts new shapes; anything it ever finds
//! gets pinned here.

use eg_encoding::crc32;
use eg_sync::frame::{
    read_frame, FrameDecoder, FrameError, FrameTally, WireFrame, FRAME_HEADER_LEN, MAX_FRAME_LEN,
    PROTOCOL_VERSION, TAG_HELLO, TAG_MARK, TAG_PING, TAG_RESET, TAG_SYNC,
};
use eg_sync::{DocId, Message, Replica};
use std::io::Cursor;

/// A valid digest message from a non-trivial replica.
fn digest_message() -> Message {
    let mut r = Replica::new("corpus");
    r.insert_doc(DocId(1), 0, "hello");
    r.insert_doc(DocId(2), 0, "world");
    Message::Digest(r.digest_all())
}

/// Recomputes the CRC32 trailer of an inner sync-message encoding so a
/// structural mutation still passes the checksum.
fn fixup_message_crc(bytes: &mut [u8]) {
    let Some(body) = bytes.len().checked_sub(4) else {
        return;
    };
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
}

/// Frames raw body bytes as `[len][body...]`, bypassing `WireFrame` so
/// tests can put anything on the wire.
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

// --- truncated length prefix -------------------------------------------

#[test]
fn truncated_length_prefix_is_not_a_frame() {
    for keep in 0..FRAME_HEADER_LEN {
        let wire = WireFrame::Ping(1).encode();
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..keep]);
        assert_eq!(dec.next_frame().unwrap(), None, "prefix of {keep} bytes");
        assert_eq!(dec.buffered(), keep);
    }
}

#[test]
fn eof_inside_length_prefix_is_an_error() {
    let wire = WireFrame::Ping(1).encode();
    for keep in 1..FRAME_HEADER_LEN {
        let mut cursor = Cursor::new(wire[..keep].to_vec());
        let mut dec = FrameDecoder::new();
        let err = read_frame(&mut cursor, &mut dec).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}

// --- oversized length ---------------------------------------------------

#[test]
fn oversized_length_is_rejected_without_allocation() {
    let mut dec = FrameDecoder::new();
    dec.push(&u32::MAX.to_le_bytes());
    match dec.next_frame() {
        Err(FrameError::Oversize { announced, max }) => {
            assert_eq!(announced, u64::from(u32::MAX));
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected Oversize, got {other:?}"),
    }
    // Poisoned for good: even valid bytes afterwards stay dead.
    dec.push(&WireFrame::Ping(1).encode());
    assert!(dec.next_frame().is_err());
}

#[test]
fn boundary_lengths_cut_exactly_at_max() {
    let max = 32;
    // Exactly max: accepted.
    let mut dec = FrameDecoder::with_max_frame(max);
    let mut body = vec![TAG_PING];
    body.resize(max, 0);
    dec.push(&raw_frame(&body));
    assert_eq!(dec.next_frame().unwrap().unwrap().len(), max);
    // One past max: refused.
    let mut dec = FrameDecoder::with_max_frame(max);
    body.push(0);
    dec.push(&raw_frame(&body));
    assert!(matches!(
        dec.next_frame(),
        Err(FrameError::Oversize { announced, .. }) if announced == max as u64 + 1
    ));
}

// --- EOF mid-frame ------------------------------------------------------

#[test]
fn eof_mid_body_is_an_error_at_every_cut() {
    let wire = WireFrame::Sync(digest_message()).encode();
    for cut in FRAME_HEADER_LEN..wire.len() {
        let mut cursor = Cursor::new(wire[..cut].to_vec());
        let mut dec = FrameDecoder::new();
        let err = read_frame(&mut cursor, &mut dec).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "cut at {cut}"
        );
    }
}

#[test]
fn eof_between_frames_is_clean() {
    let wire = WireFrame::Sync(digest_message()).encode();
    let mut cursor = Cursor::new(wire);
    let mut dec = FrameDecoder::new();
    assert!(read_frame(&mut cursor, &mut dec).unwrap().is_some());
    assert!(read_frame(&mut cursor, &mut dec).unwrap().is_none());
}

// --- CRC-valid but structurally bad ------------------------------------

#[test]
fn crc_valid_truncated_digest_is_refused() {
    // Chop bytes off the end of a valid digest encoding, then repair the
    // CRC trailer: the checksum passes but the structure is short.
    let full = digest_message().encode();
    for chop in 1..8.min(full.len().saturating_sub(8)) {
        let mut inner = full[..full.len() - 4 - chop].to_vec();
        inner.extend_from_slice(&[0u8; 4]);
        fixup_message_crc(&mut inner);
        let mut body = vec![TAG_SYNC];
        body.extend_from_slice(&inner);
        let mut dec = FrameDecoder::new();
        dec.push(&raw_frame(&body));
        let got = dec.next_wire_frame();
        assert!(
            matches!(got, Err(FrameError::Payload(_))),
            "chop {chop}: {got:?}"
        );
    }
}

#[test]
fn crc_valid_interior_mutation_never_panics() {
    // Flip each interior byte of a valid digest in turn, repair the CRC,
    // and decode. Most flips are structural errors; a few may survive as
    // different-but-valid digests. Either way: no panic, and a wrapped
    // frame either errors or yields a Sync frame.
    let full = digest_message().encode();
    for i in 1..full.len() - 4 {
        let mut inner = full.clone();
        inner[i] ^= 0x55;
        fixup_message_crc(&mut inner);
        let mut body = vec![TAG_SYNC];
        body.extend_from_slice(&inner);
        let mut dec = FrameDecoder::new();
        dec.push(&raw_frame(&body));
        match dec.next_wire_frame() {
            Ok(Some(WireFrame::Sync(_))) | Err(_) => {}
            other => panic!("byte {i}: unexpected {other:?}"),
        }
    }
}

#[test]
fn sync_frame_with_trailing_garbage_after_crc_is_refused() {
    let mut inner = digest_message().encode();
    inner.extend_from_slice(b"tail");
    let mut body = vec![TAG_SYNC];
    body.extend_from_slice(&inner);
    assert!(matches!(
        WireFrame::decode(&body),
        Err(FrameError::Payload(_))
    ));
}

// --- other crafted shapes ----------------------------------------------

#[test]
fn unknown_tag_is_refused() {
    for tag in [0u8, 7, 9, 0x7F, 0xFF] {
        let body = [tag, 0, 0];
        assert!(
            matches!(WireFrame::decode(&body), Err(FrameError::BadTag(t)) if t == tag),
            "tag {tag}"
        );
    }
}

#[test]
fn mark_is_a_count_and_exactly_four_check_bytes() {
    let mark = WireFrame::Mark(FrameTally {
        frames: u64::MAX,
        check: 0x8000_0001,
    });
    let wire = mark.encode();
    let body = &wire[FRAME_HEADER_LEN..];
    assert_eq!(WireFrame::decode(body).unwrap(), mark);
    // Every shorter body is short of a field; a longer one has a tail.
    for cut in 0..body.len() {
        assert!(WireFrame::decode(&body[..cut]).is_err(), "cut {cut}");
    }
    let mut long = body.to_vec();
    long.push(0);
    assert!(matches!(
        WireFrame::decode(&long),
        Err(FrameError::Payload(_))
    ));
    // An overlong count varint is refused like any other.
    let mut body = vec![TAG_MARK];
    body.extend_from_slice(&[0xFF; 10]);
    body.extend_from_slice(&[1, 0, 0, 0, 0]);
    assert!(matches!(
        WireFrame::decode(&body),
        Err(FrameError::Payload(_))
    ));
}

#[test]
fn reset_is_one_flag_byte_and_nothing_else() {
    for echo in [false, true] {
        let wire = WireFrame::Reset { echo }.encode();
        assert_eq!(wire.len(), FRAME_HEADER_LEN + 2);
        let body = &wire[FRAME_HEADER_LEN..];
        assert_eq!(WireFrame::decode(body).unwrap(), WireFrame::Reset { echo });
    }
    for body in [
        &[TAG_RESET][..],
        &[TAG_RESET, 2],
        &[TAG_RESET, 0xFF],
        &[TAG_RESET, 0, 0],
        &[TAG_RESET, 1, 1],
    ] {
        assert!(
            matches!(WireFrame::decode(body), Err(FrameError::Payload(_))),
            "{body:?}"
        );
    }
}

#[test]
fn hello_with_trailing_bytes_is_refused() {
    let mut wire = WireFrame::Hello {
        proto: PROTOCOL_VERSION,
        name: "n".into(),
    }
    .encode();
    wire.push(0xAB);
    // Re-frame with the corrected length so the extra byte is inside the
    // body rather than a second partial frame.
    let body = &wire[FRAME_HEADER_LEN..];
    assert!(WireFrame::decode(body).is_err());
}

#[test]
fn hello_name_length_cannot_overallocate() {
    // A name length announcing ~4GiB must be refused by the bound check,
    // not by an allocation attempt.
    let mut body = vec![TAG_HELLO];
    body.push(1); // proto = 1 (varint)
    body.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // huge varint
    assert!(matches!(
        WireFrame::decode(&body),
        Err(FrameError::Payload(_))
    ));
}

#[test]
fn coalesced_frames_then_poison_then_stays_poisoned() {
    let mut dec = FrameDecoder::new();
    dec.push(&WireFrame::Ping(1).encode());
    dec.push(&WireFrame::Pong(1).encode());
    dec.push(&0u32.to_le_bytes()); // empty frame: poison
    assert_eq!(dec.next_wire_frame().unwrap(), Some(WireFrame::Ping(1)));
    assert_eq!(dec.next_wire_frame().unwrap(), Some(WireFrame::Pong(1)));
    assert!(matches!(dec.next_frame(), Err(FrameError::Empty)));
    dec.push(&WireFrame::Ping(2).encode());
    assert!(dec.next_frame().is_err(), "poison must persist");
}

#[test]
fn every_prefix_of_a_valid_stream_is_either_pending_or_complete() {
    // Decoding any prefix of a well-formed stream never errors: it
    // yields the complete frames it holds and waits for the rest.
    let mut r = Replica::new("p");
    let b = r.insert_doc(DocId(7), 0, "prefix-stability");
    let frames = [
        WireFrame::Hello {
            proto: PROTOCOL_VERSION,
            name: "p".into(),
        },
        WireFrame::Sync(Message::Bundles(vec![(DocId(7), b)])),
        WireFrame::Mark(FrameTally {
            frames: 2,
            check: 0xC0FF_EE00,
        }),
        WireFrame::Reset { echo: true },
        WireFrame::Ping(3),
    ];
    let mut wire = Vec::new();
    for f in &frames {
        wire.extend_from_slice(&f.encode());
    }
    for cut in 0..=wire.len() {
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..cut]);
        let mut seen = 0;
        loop {
            match dec.next_wire_frame() {
                Ok(Some(f)) => {
                    assert_eq!(f, frames[seen], "cut {cut}");
                    seen += 1;
                }
                Ok(None) => break,
                Err(e) => panic!("cut {cut}: {e}"),
            }
        }
        if cut == wire.len() {
            assert_eq!(seen, frames.len());
        }
    }
}
