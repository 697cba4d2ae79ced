//! Length-prefixed socket framing for the daemon protocol.
//!
//! The sync engine's [`Message`]s are already wire-safe (magic + CRC),
//! but a byte stream needs boundaries: this module frames them — plus
//! the daemon's session-control frames (hello, heartbeats, and the
//! mark / reset pair that audits a link's sync frames) — as
//!
//! ```text
//! [u32 LE body length][1 tag byte][body...]
//! ```
//!
//! Decoding is built for attacker bytes: the incremental
//! [`FrameDecoder`] accepts arbitrary partial reads, enforces a
//! maximum frame size *before* allocating, and never panics — every
//! length is checked, every slice access guarded. The decoder is part
//! of the `eg-analyze` panic-free file set and the nightly mutation
//! fuzz loop (`crates/sync/tests/fuzz_frames.rs`), like the inner
//! EGWD/EGWM codecs before it.

use crate::message::Message;
use eg_encoding::varint::{self, DecodeError};

/// Bytes of the length prefix preceding every frame body.
pub const FRAME_HEADER_LEN: usize = 4;

/// Default upper bound on a frame body (tag + payload). A peer
/// announcing a bigger frame is misbehaving or corrupt; the connection
/// must be dropped rather than the allocation attempted.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Upper bound on a replica name in a hello frame.
pub const MAX_NAME_LEN: usize = 256;

/// Protocol version spoken by this build. Bumped on any wire change;
/// peers with a different version are refused at handshake.
pub const PROTOCOL_VERSION: u32 = 2;

/// Frame tag: [`WireFrame::Hello`].
pub const TAG_HELLO: u8 = 1;
/// Frame tag: [`WireFrame::Ping`].
pub const TAG_PING: u8 = 2;
/// Frame tag: [`WireFrame::Pong`].
pub const TAG_PONG: u8 = 3;
/// Frame tag: [`WireFrame::Sync`] (first body byte of a sync frame).
pub const TAG_SYNC: u8 = 4;
/// Frame tag: [`WireFrame::Mark`].
pub const TAG_MARK: u8 = 5;
/// Frame tag: [`WireFrame::Reset`].
pub const TAG_RESET: u8 = 6;

/// Everything that can go wrong pulling frames off a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announced a body larger than the decoder's
    /// configured maximum. The stream is unrecoverable: drop it.
    Oversize {
        /// The announced body length.
        announced: u64,
        /// The configured maximum.
        max: usize,
    },
    /// A zero-length body (every frame carries at least its tag byte).
    Empty,
    /// An unknown frame tag.
    BadTag(u8),
    /// The frame body failed to decode.
    Payload(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { announced, max } => {
                write!(f, "frame body of {announced} bytes exceeds limit {max}")
            }
            FrameError::Empty => f.write_str("zero-length frame body"),
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Payload(e) => write!(f, "frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Payload(e)
    }
}

/// A running summary of the sync frames that went one way over a link
/// since its last [`WireFrame::Reset`]: how many, and a rolling check
/// over the CRC32 each one ends in. The sender keeps one of what it
/// queued, the receiver one of what it decoded, and a
/// [`WireFrame::Mark`] carries the sender's across so the two can be
/// compared: a sync frame lost, repeated or replaced on the way shows as
/// a difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTally {
    /// Sync frames counted.
    pub frames: u64,
    /// Order-sensitive fold of their trailing CRC32s.
    pub check: u32,
}

impl FrameTally {
    /// Counts one sync frame, given its body (tag + encoded message).
    pub fn note(&mut self, body: &[u8]) {
        let mut crc = [0u8; 4];
        if let Some(tail) = body.len().checked_sub(4).and_then(|at| body.get(at..)) {
            crc.copy_from_slice(tail);
        }
        self.frames = self.frames.wrapping_add(1);
        // FNV-1a over 32-bit words: swapping two frames changes it.
        self.check = (self.check ^ u32::from_le_bytes(crc)).wrapping_mul(0x0100_0193);
    }
}

/// One frame of the daemon's session protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// Handshake, sent by both ends immediately after connecting:
    /// protocol version plus the sender's replica name. A version
    /// mismatch or a name collision with the receiver refuses the
    /// session.
    Hello {
        /// Protocol version of the sender ([`PROTOCOL_VERSION`]).
        proto: u32,
        /// The sender's replica / host name (its agent namespace).
        name: String,
    },
    /// Idle-link liveness probe; the peer echoes the sequence number
    /// back as a [`WireFrame::Pong`].
    Ping(u64),
    /// Heartbeat reply.
    Pong(u64),
    /// A sync-engine [`Message`] (digest or bundle batch), carried with
    /// its own inner magic + CRC framing.
    Sync(Message),
    /// The periodic audit: the sender's [`FrameTally`] of the sync frames
    /// it has queued on this link. A receiver whose own tally agrees
    /// knows it has seen every one of them; one whose tally differs
    /// answers with a [`WireFrame::Reset`].
    Mark(FrameTally),
    /// Both ends forget what they believe about each other and reopen as
    /// after [`WireFrame::Hello`]. The frame is also the point in the
    /// stream where the tallies of its direction restart: the sender's
    /// when it queues it, the receiver's when it reads it. `echo` is
    /// false on the frame that asks for the reset and true on the answer
    /// to it, which is not answered in turn.
    Reset {
        /// Whether this frame answers a reset the receiver asked for.
        echo: bool,
    },
}

impl WireFrame {
    /// Encodes the frame as `[len][tag][body]`, ready for a socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; FRAME_HEADER_LEN];
        match self {
            WireFrame::Hello { proto, name } => {
                out.push(TAG_HELLO);
                varint::push_u64(&mut out, u64::from(*proto));
                varint::push_usize(&mut out, name.len());
                out.extend_from_slice(name.as_bytes());
            }
            WireFrame::Ping(seq) => {
                out.push(TAG_PING);
                varint::push_u64(&mut out, *seq);
            }
            WireFrame::Pong(seq) => {
                out.push(TAG_PONG);
                varint::push_u64(&mut out, *seq);
            }
            WireFrame::Sync(msg) => return frame_sync(&msg.encode()),
            WireFrame::Mark(tally) => {
                out.push(TAG_MARK);
                varint::push_u64(&mut out, tally.frames);
                out.extend_from_slice(&tally.check.to_le_bytes());
            }
            WireFrame::Reset { echo } => {
                out.push(TAG_RESET);
                out.push(u8::from(*echo));
            }
        }
        seal(out)
    }

    /// Decodes one complete frame body (tag + payload, no length
    /// prefix), as handed out by [`FrameDecoder::next_frame`].
    pub fn decode(body: &[u8]) -> Result<WireFrame, FrameError> {
        let (&tag, mut rest) = body.split_first().ok_or(FrameError::Empty)?;
        match tag {
            TAG_HELLO => {
                let proto = varint::read_u64(&mut rest)?;
                let proto = u32::try_from(proto).map_err(|_| DecodeError::Corrupt)?;
                let name_len = varint::read_usize(&mut rest)?;
                if name_len > MAX_NAME_LEN {
                    return Err(FrameError::Payload(DecodeError::Corrupt));
                }
                let raw = varint::take(&mut rest, name_len)?;
                let name = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
                if !rest.is_empty() {
                    return Err(FrameError::Payload(DecodeError::Corrupt));
                }
                Ok(WireFrame::Hello {
                    proto,
                    name: name.to_owned(),
                })
            }
            TAG_PING => {
                let seq = varint::read_u64(&mut rest)?;
                if !rest.is_empty() {
                    return Err(FrameError::Payload(DecodeError::Corrupt));
                }
                Ok(WireFrame::Ping(seq))
            }
            TAG_PONG => {
                let seq = varint::read_u64(&mut rest)?;
                if !rest.is_empty() {
                    return Err(FrameError::Payload(DecodeError::Corrupt));
                }
                Ok(WireFrame::Pong(seq))
            }
            TAG_SYNC => Ok(WireFrame::Sync(Message::decode(rest)?)),
            TAG_MARK => {
                let frames = varint::read_u64(&mut rest)?;
                let mut check = [0u8; 4];
                check.copy_from_slice(varint::take(&mut rest, 4)?);
                if !rest.is_empty() {
                    return Err(FrameError::Payload(DecodeError::Corrupt));
                }
                Ok(WireFrame::Mark(FrameTally {
                    frames,
                    check: u32::from_le_bytes(check),
                }))
            }
            TAG_RESET => match rest {
                [0] => Ok(WireFrame::Reset { echo: false }),
                [1] => Ok(WireFrame::Reset { echo: true }),
                _ => Err(FrameError::Payload(DecodeError::Corrupt)),
            },
            other => Err(FrameError::BadTag(other)),
        }
    }
}

/// Frames an already encoded sync [`Message`] as a [`WireFrame::Sync`]:
/// what `WireFrame::Sync(msg).encode()` returns for `msg.encode()`. A
/// sender that encodes borrowed payloads ([`Message::encode_bundles`])
/// frames them with this.
pub fn frame_sync(message: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(message.len().saturating_add(FRAME_HEADER_LEN + 1));
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    out.push(TAG_SYNC);
    out.extend_from_slice(message);
    seal(out)
}

/// Writes the body length into the header bytes `out` was started with.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let body_len = out.len().saturating_sub(FRAME_HEADER_LEN) as u32;
    if let Some(header) = out.get_mut(..FRAME_HEADER_LEN) {
        header.copy_from_slice(&body_len.to_le_bytes());
    }
    out
}

/// Returns `true` if a complete frame body carries an event-bundle
/// batch (as opposed to a digest or a session-control frame), by tag
/// and inner magic alone — no decode. The fault proxy and byte
/// accounting use this to attribute wire bytes to actual event
/// transfer versus anti-entropy chatter.
pub fn is_bundle_body(body: &[u8]) -> bool {
    body.first() == Some(&TAG_SYNC)
        && body.get(1..5) == Some(eg_encoding::BUNDLE_BATCH_MAGIC.as_slice())
}

/// Incremental, never-panic frame boundary scanner.
///
/// Feed it whatever a socket read produced ([`FrameDecoder::push`]) and
/// pull complete frame bodies back out ([`FrameDecoder::next_frame`]).
/// Partial length prefixes, partial bodies, and coalesced frames are
/// all fine; an announced length beyond the configured maximum is a
/// hard error and the stream must be dropped (the decoder refuses to
/// resynchronise — after a framing error nothing downstream can be
/// trusted).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it outgrows the tail).
    start: usize,
    max_frame: usize,
    poisoned: bool,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder with the default [`MAX_FRAME_LEN`] bound.
    pub fn new() -> Self {
        Self::with_max_frame(MAX_FRAME_LEN)
    }

    /// A decoder with an explicit frame-size bound (tests use tiny
    /// bounds to exercise the guard cheaply).
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
            poisoned: false,
        }
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates.
        if self.start > 4096 && self.start.saturating_mul(2) > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame body, without taking it: what
    /// [`FrameDecoder::next_frame`] would return next. `None` if more bytes
    /// are needed or the stream is broken (`next_frame` says why).
    pub fn peek_frame(&self) -> Option<&[u8]> {
        if self.poisoned {
            return None;
        }
        let pending = self.buf.get(self.start..)?;
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(pending.get(..FRAME_HEADER_LEN)?);
        let body_len = u32::from_le_bytes(len4) as usize;
        if body_len == 0 || body_len > self.max_frame {
            return None;
        }
        pending.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN.saturating_add(body_len))
    }

    /// Returns the next complete frame body (tag + payload), `None` if
    /// more bytes are needed, or an error if the stream is broken.
    /// After an error every further call returns the same error.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Payload(DecodeError::Corrupt));
        }
        let pending = self.buf.get(self.start..).unwrap_or(&[]);
        let Some(header) = pending.get(..FRAME_HEADER_LEN) else {
            return Ok(None);
        };
        let mut len4 = [0u8; 4];
        len4.copy_from_slice(header);
        let announced = u32::from_le_bytes(len4) as u64;
        if announced == 0 {
            self.poisoned = true;
            return Err(FrameError::Empty);
        }
        if announced > self.max_frame as u64 {
            self.poisoned = true;
            return Err(FrameError::Oversize {
                announced,
                max: self.max_frame,
            });
        }
        let body_len = announced as usize;
        let end = FRAME_HEADER_LEN.saturating_add(body_len);
        let Some(body) = pending.get(FRAME_HEADER_LEN..end) else {
            return Ok(None);
        };
        let frame = body.to_vec();
        self.start = self
            .start
            .saturating_add(FRAME_HEADER_LEN)
            .saturating_add(body_len);
        Ok(Some(frame))
    }

    /// Decodes the next complete frame straight to a [`WireFrame`].
    pub fn next_wire_frame(&mut self) -> Result<Option<WireFrame>, FrameError> {
        match self.next_frame()? {
            Some(body) => WireFrame::decode(&body).map(Some),
            None => Ok(None),
        }
    }
}

/// Blocking read of one frame from `r` through `decoder`, for
/// thread-per-connection consumers (the fault proxy, simple clients).
/// Respects whatever read timeout the caller configured on the stream:
/// a timeout surfaces as the underlying `io::Error`. `Ok(None)` means
/// clean EOF *between* frames; EOF mid-frame is an error.
pub fn read_frame(
    r: &mut impl std::io::Read,
    decoder: &mut FrameDecoder,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut chunk = [0u8; 4096];
    loop {
        match decoder.next_frame() {
            Ok(Some(body)) => return Ok(Some(body)),
            Ok(None) => {}
            Err(e) => {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
            }
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return if decoder.buffered() == 0 {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF mid-frame",
                ))
            };
        }
        decoder.push(chunk.get(..n).unwrap_or(&[]));
    }
}

/// Blocking write of one frame to `w`.
pub fn write_frame(w: &mut impl std::io::Write, frame: &WireFrame) -> std::io::Result<()> {
    w.write_all(&frame.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{DocId, Replica};

    fn sample_frames() -> Vec<WireFrame> {
        let mut r = Replica::new("alice");
        let b = r.insert(DocId(3), 0, "hello");
        vec![
            WireFrame::Hello {
                proto: PROTOCOL_VERSION,
                name: "alice".into(),
            },
            WireFrame::Ping(7),
            WireFrame::Pong(u64::MAX),
            WireFrame::Sync(Message::Digest(r.digest_all())),
            WireFrame::Sync(Message::Bundles(vec![(DocId(3), b)])),
            WireFrame::Mark(FrameTally {
                frames: 300,
                check: 0xDEAD_BEEF,
            }),
            WireFrame::Reset { echo: false },
            WireFrame::Reset { echo: true },
        ]
    }

    #[test]
    fn frames_roundtrip_through_decoder() {
        let frames = sample_frames();
        let mut decoder = FrameDecoder::new();
        for f in &frames {
            decoder.push(&f.encode());
        }
        for f in &frames {
            let got = decoder.next_wire_frame().unwrap().expect("frame ready");
            assert_eq!(&got, f);
        }
        assert!(decoder.next_wire_frame().unwrap().is_none());
    }

    #[test]
    fn byte_at_a_time_feeding_reassembles() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for b in wire {
            decoder.push(&[b]);
            while let Some(f) = decoder.next_wire_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn peek_shows_the_frame_next_frame_takes() {
        let mut wire = Vec::new();
        for f in &sample_frames() {
            wire.extend_from_slice(&f.encode());
        }
        let mut decoder = FrameDecoder::new();
        let mut bodies = 0;
        for b in wire {
            decoder.push(&[b]);
            loop {
                let peeked = decoder.peek_frame().map(<[u8]>::to_vec);
                assert_eq!(peeked, decoder.next_frame().unwrap());
                if peeked.is_none() {
                    break;
                }
                bodies += 1;
            }
        }
        assert_eq!(bodies, sample_frames().len());
        // A broken stream peeks as nothing; `next_frame` reports it.
        decoder.push(&0u32.to_le_bytes());
        assert_eq!(decoder.peek_frame(), None);
        assert!(decoder.next_frame().is_err());
        assert_eq!(decoder.peek_frame(), None);
    }

    #[test]
    fn oversize_length_is_refused_before_allocation() {
        let mut decoder = FrameDecoder::with_max_frame(64);
        let mut wire = (65u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        decoder.push(&wire);
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::Oversize { announced: 65, .. })
        ));
        // Poisoned: the stream stays dead.
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn zero_length_frame_is_an_error() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&0u32.to_le_bytes());
        assert!(matches!(decoder.next_frame(), Err(FrameError::Empty)));
    }

    #[test]
    fn partial_header_and_body_wait_for_more() {
        let frame = WireFrame::Ping(9).encode();
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame[..2]);
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.push(&frame[2..frame.len() - 1]);
        assert_eq!(decoder.next_frame().unwrap(), None);
        decoder.push(&frame[frame.len() - 1..]);
        assert_eq!(decoder.next_wire_frame().unwrap(), Some(WireFrame::Ping(9)));
    }

    #[test]
    fn hello_name_bound_is_enforced() {
        let long = "x".repeat(MAX_NAME_LEN + 1);
        let frame = WireFrame::Hello {
            proto: 1,
            name: long,
        }
        .encode();
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        let body = decoder.next_frame().unwrap().unwrap();
        assert!(WireFrame::decode(&body).is_err());
    }

    #[test]
    fn blocking_helpers_roundtrip() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        let mut decoder = FrameDecoder::new();
        for f in &frames {
            let body = read_frame(&mut cursor, &mut decoder).unwrap().unwrap();
            assert_eq!(&WireFrame::decode(&body).unwrap(), f);
        }
        assert!(read_frame(&mut cursor, &mut decoder).unwrap().is_none());
    }

    #[test]
    fn frame_sync_matches_the_owned_encoding() {
        let mut r = Replica::new("alice");
        let batch = vec![(DocId(3), r.insert(DocId(3), 0, "hello"))];
        assert_eq!(
            frame_sync(&Message::encode_bundles(&batch)),
            WireFrame::Sync(Message::Bundles(batch)).encode()
        );
    }

    #[test]
    fn tally_sees_loss_repeat_and_reorder() {
        let frames: Vec<Vec<u8>> = sample_frames()
            .iter()
            .filter(|f| matches!(f, WireFrame::Sync(_)))
            .map(|f| f.encode()[FRAME_HEADER_LEN..].to_vec())
            .collect();
        let tally = |order: &[usize]| {
            let mut t = FrameTally::default();
            for &i in order {
                t.note(&frames[i]);
            }
            t
        };
        let sent = tally(&[0, 1]);
        assert_eq!(sent.frames, 2);
        assert_eq!(sent, tally(&[0, 1]));
        assert_ne!(sent, tally(&[0]), "a lost frame");
        assert_ne!(sent, tally(&[0, 1, 1]), "a repeated frame");
        assert_ne!(sent, tally(&[1, 0]), "swapped frames");
        assert_ne!(sent, tally(&[0, 0]), "one lost, another repeated");
        // Bodies too short to end in a CRC still count.
        let mut short = FrameTally::default();
        short.note(&[TAG_SYNC]);
        assert_eq!(short.frames, 1);
    }

    #[test]
    fn mark_and_reset_refuse_malformed_bodies() {
        let mark = WireFrame::Mark(FrameTally {
            frames: 1,
            check: 2,
        })
        .encode();
        let body = &mark[FRAME_HEADER_LEN..];
        for cut in 1..body.len() {
            assert!(
                WireFrame::decode(&body[..cut]).is_err(),
                "mark cut at {cut}"
            );
        }
        let mut long = body.to_vec();
        long.push(0);
        assert!(WireFrame::decode(&long).is_err(), "mark with a tail");
        assert!(WireFrame::decode(&[TAG_RESET]).is_err());
        assert!(WireFrame::decode(&[TAG_RESET, 2]).is_err());
        assert!(WireFrame::decode(&[TAG_RESET, 0, 0]).is_err());
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let frame = WireFrame::Ping(1).encode();
        let mut cursor = std::io::Cursor::new(frame[..frame.len() - 1].to_vec());
        let mut decoder = FrameDecoder::new();
        assert!(read_frame(&mut cursor, &mut decoder).is_err());
    }
}
