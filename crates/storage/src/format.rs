//! Byte-level segment format: CRC-delimited record frames plus the
//! checkpoint payload codec.
//!
//! Everything here is pure (`&[u8]` in, values out) and panic-free on
//! arbitrary input — the nightly mutation fuzz loop drives
//! [`scan_frames`], [`read_checkpoint`], [`decode_snapshot`], and
//! [`decode_checkpoint`] directly.
//!
//! ## Layout
//!
//! A segment file is a fixed header followed by zero or more frames:
//!
//! ```text
//! file    := header checkpoint? events*
//! header  := "EGSEG1" u8(format_version)
//! frame   := u8(kind) u32le(payload_len) payload u32le(crc)
//! ```
//!
//! That grammar is what the store writes ([`checkpoint_file`] builds
//! `header checkpoint` whole; event frames are appended behind it). The
//! reader takes any sequence of frames — files from before compaction
//! interleave event and checkpoint records — and the newest checkpoint
//! wins.
//!
//! The CRC covers `kind`, `payload_len`, and `payload`, so neither a torn
//! length field nor a torn payload can be mistaken for a committed record.
//! [`scan_frames`] consumes frames until the first incomplete or
//! CRC-invalid one and reports how many bytes of the file were valid; the
//! store truncates a torn tail there at recovery (expected after a crash,
//! never a panic).
//!
//! Frame kinds:
//!
//! * [`RECORD_EVENTS`] — an EGWB event bundle ([`eg_encoding::encode_runs`]),
//!   the same codec used on the wire.
//! * [`RECORD_CHECKPOINT`] — a materialised document at a version: the
//!   remote-ID frontier, the full text, and two optional
//!   byte-length-prefixed sections — a [`TrackerSnapshot`] taken at that
//!   version (the §3.5 cached-load state) and a bulk-loadable oplog
//!   image ([`eg_encoding::encode_oplog_image`]). [`read_checkpoint`]
//!   parses the payload shallowly, leaving both heavy sections as
//!   borrowed slices so the loader can skip whichever it doesn't need.

use eg_dag::RemoteId;
use eg_encoding::crc32;
use eg_encoding::varint::{self, DecodeError};
use eg_rle::{DTRange, HasLength};
use egwalker::tracker::{CrdtSpan, SpState};
use egwalker::{OpLog, TrackerSnapshot};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 6] = b"EGSEG1";
/// Current format version (the byte after the magic).
pub const FORMAT_VERSION: u8 = 1;
/// Total header length in bytes.
pub const HEADER_LEN: usize = SEGMENT_MAGIC.len() + 1;

/// Frame kind: an EGWB event bundle.
pub const RECORD_EVENTS: u8 = 1;
/// Frame kind: a checkpoint (frontier + content + tracker snapshot).
pub const RECORD_CHECKPOINT: u8 = 2;

/// Bytes of framing around every payload (`kind` + `len` + `crc`).
pub const FRAME_OVERHEAD: usize = 1 + 4 + 4;

/// The segment file header.
pub fn file_header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..SEGMENT_MAGIC.len()].copy_from_slice(SEGMENT_MAGIC);
    h[SEGMENT_MAGIC.len()] = FORMAT_VERSION;
    h
}

/// Appends one framed record to `out`. The reference the suites frame
/// with: the store builds its frames around the payload in place
/// ([`checkpoint_file`], `events_frame`) and checks the length, which this
/// casts.
pub fn push_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Opens a frame of `kind` at the end of `out` and returns where it
/// starts; the payload is written behind it and [`end_frame`] closes it.
fn begin_frame(out: &mut Vec<u8>, kind: u8) -> usize {
    let frame_at = out.len();
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    frame_at
}

/// Closes the frame opened at `frame_at`: fills in the payload length and
/// appends the CRC, leaving the bytes [`push_frame`] would have written.
/// `None` if the payload outgrows the `u32` length field.
fn end_frame(out: &mut Vec<u8>, frame_at: usize) -> Option<()> {
    let len_at = frame_at.checked_add(1)?;
    let payload_at = len_at.checked_add(4)?;
    let payload_len = u32::try_from(out.len().checked_sub(payload_at)?).ok()?;
    out.get_mut(len_at..payload_at)?
        .copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(out.get(frame_at..)?);
    out.extend_from_slice(&crc.to_le_bytes());
    Some(())
}

/// One [`RECORD_EVENTS`] frame holding the events of `oplog` in `spans`
/// (ascending LV ranges), built in a single buffer straight from the
/// oplog's runs, and how many events that is. Byte-identical to
/// [`push_frame`] of `encode_bundle(&oplog.bundle_since_local(have))` for
/// the `have` that leaves `spans` new. `None` if the payload outgrows the
/// frame's `u32` length field.
pub(crate) fn events_frame(oplog: &OpLog, spans: &[DTRange]) -> Option<(Vec<u8>, usize)> {
    let mut out = Vec::new();
    let frame_at = begin_frame(&mut out, RECORD_EVENTS);
    let events = eg_encoding::encode_runs(oplog, spans, &mut out);
    end_frame(&mut out, frame_at)?;
    Some((out, events))
}

/// One frame as scanned from a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFrame<'a> {
    /// The record kind ([`RECORD_EVENTS`] / [`RECORD_CHECKPOINT`]).
    pub kind: u8,
    /// The payload bytes (CRC already verified).
    pub payload: &'a [u8],
}

/// Scans the complete, CRC-valid frames at the start of a segment file.
///
/// Returns the frames and the length of the valid prefix (header plus
/// whole frames); anything past that point is a torn or corrupt tail for
/// the caller to truncate. Unknown frame kinds also stop the scan — a
/// newer-format record and everything after it are unreadable to this
/// version, and keeping the prefix is the conservative recovery.
///
/// Errors only when the file cannot be ours at all: too short to hold a
/// full header is reported as a valid prefix of 0 frames (a torn header
/// write), but a complete header with the wrong magic or version is
/// [`DecodeError::BadMagic`].
pub fn scan_frames(bytes: &[u8]) -> Result<(Vec<RawFrame<'_>>, usize), DecodeError> {
    let Some(&version) = bytes.get(SEGMENT_MAGIC.len()) else {
        // Shorter than a full header — a torn header write committed
        // nothing, but bytes that aren't a magic prefix are not ours.
        if !SEGMENT_MAGIC.starts_with(bytes) {
            return Err(DecodeError::BadMagic);
        }
        return Ok((Vec::new(), 0));
    };
    if bytes.get(..SEGMENT_MAGIC.len()) != Some(SEGMENT_MAGIC.as_slice())
        || version != FORMAT_VERSION
    {
        return Err(DecodeError::BadMagic);
    }

    let mut frames = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        let rest = bytes.get(pos..).unwrap_or(&[]);
        if rest.len() < FRAME_OVERHEAD {
            break;
        }
        let (Some(&kind), Some(len)) = (rest.first(), rest.get(1..5).and_then(le_u32)) else {
            break;
        };
        let len = len as usize;
        let Some(frame_end) = len.checked_add(FRAME_OVERHEAD) else {
            break;
        };
        if rest.len() < frame_end {
            break;
        }
        // `body` is kind + len + payload; the CRC trailer follows it.
        let body_end = frame_end - 4;
        let (Some(body), Some(stored)) = (
            rest.get(..body_end),
            rest.get(body_end..frame_end).and_then(le_u32),
        ) else {
            break;
        };
        if crc32(body) != stored {
            break;
        }
        if kind != RECORD_EVENTS && kind != RECORD_CHECKPOINT {
            break;
        }
        let Some(payload) = rest.get(5..body_end) else {
            break;
        };
        frames.push(RawFrame { kind, payload });
        pos += frame_end;
    }
    Ok((frames, pos))
}

/// Little-endian u32 from an exactly-4-byte slice.
fn le_u32(bytes: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = bytes.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// A checkpoint record: the materialised document at a version, plus the
/// tracker state needed to resume a walk from there.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// The version the checkpoint reflects, as portable remote IDs.
    pub version: Vec<RemoteId>,
    /// The document text at `version`.
    pub content: String,
    /// The tracker state at `version` (prepare == effect == `version`).
    /// `None` means the loader re-derives tracker state with a fresh
    /// conflict-window walk — still O(tail), just without the warm resume.
    pub snapshot: Option<TrackerSnapshot>,
    /// A bulk-loadable image of the whole oplog the writer held
    /// ([`eg_encoding::encode_oplog_image`]). The loader restores the
    /// oplog from it and replays only the event records *after* this
    /// checkpoint — the O(tail) open. The store always writes one; without
    /// it (or with a corrupt one) a file in the older layout, where event
    /// records precede the checkpoint, is replayed from its start.
    pub oplog_image: Option<Vec<u8>>,
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    varint::push_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn read_str<'a>(input: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let len = varint::read_usize(input)?;
    if input.len() < len {
        return Err(DecodeError::UnexpectedEof);
    }
    let (raw, rest) = input.split_at(len);
    *input = rest;
    std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)
}

/// Serialises a checkpoint payload (the contents of a
/// [`RECORD_CHECKPOINT`] frame).
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    push_checkpoint(
        &mut out,
        &ck.version,
        ck.content.len(),
        std::iter::once(ck.content.as_str()),
        ck.snapshot.as_ref().map(encode_snapshot).as_deref(),
        ck.oplog_image.as_deref(),
    );
    out
}

/// The one checkpoint payload writer. The text arrives as the slices the
/// caller stores it in (`content_len` bytes in total), so a rope is
/// written without being flattened first; the two sections arrive
/// encoded ([`encode_snapshot`], [`eg_encoding::encode_oplog_image`]).
fn push_checkpoint<'a>(
    out: &mut Vec<u8>,
    version: &[RemoteId],
    content_len: usize,
    content: impl Iterator<Item = &'a str>,
    snapshot: Option<&[u8]>,
    oplog_image: Option<&[u8]>,
) {
    varint::push_usize(out, version.len());
    for id in version {
        push_str(out, &id.agent);
        varint::push_usize(out, id.seq);
    }
    varint::push_usize(out, content_len);
    for chunk in content {
        out.extend_from_slice(chunk.as_bytes());
    }
    // Byte-length-prefixed so readers can skip a section: a loader with
    // a sequential tail never parses the snapshot.
    for section in [snapshot, oplog_image] {
        match section {
            None => out.push(0),
            Some(body) => {
                out.push(1);
                varint::push_usize(out, body.len());
                out.extend_from_slice(body);
            }
        }
    }
}

/// A whole segment file holding one checkpoint and nothing else — header,
/// frame head, payload and CRC built in a single buffer — which is what
/// the store renames over the old file. Byte-identical to
/// [`file_header`] + [`push_frame`] of [`encode_checkpoint`]. `None` if
/// the payload outgrows the frame's `u32` length field.
pub fn checkpoint_file<'a>(
    version: &[RemoteId],
    content_len: usize,
    content: impl Iterator<Item = &'a str>,
    snapshot: &TrackerSnapshot,
    oplog_image: &[u8],
) -> Option<Vec<u8>> {
    let snapshot = encode_snapshot(snapshot);
    let mut out = Vec::with_capacity(
        content_len
            .saturating_add(snapshot.len())
            .saturating_add(oplog_image.len())
            .saturating_add(HEADER_LEN + FRAME_OVERHEAD + 64),
    );
    out.extend_from_slice(&file_header());
    let frame_at = begin_frame(&mut out, RECORD_CHECKPOINT);
    push_checkpoint(
        &mut out,
        version,
        content_len,
        content,
        Some(&snapshot),
        Some(oplog_image),
    );
    end_frame(&mut out, frame_at)?;
    Some(out)
}

fn encode_snapshot(snap: &TrackerSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    varint::push_usize(&mut out, snap.records.len());
    for r in &snap.records {
        varint::push_usize(&mut out, r.id.start);
        varint::push_usize(&mut out, r.id.len());
        varint::push_u64(&mut out, r.origin_left as u64);
        varint::push_u64(&mut out, r.origin_right as u64);
        let (tag, del) = match r.sp {
            SpState::NotInsertedYet => (0u8, 0u32),
            SpState::Ins => (1, 0),
            SpState::Del(n) => (2, n),
        };
        out.push(tag | if r.se_deleted { 4 } else { 0 });
        if tag == 2 {
            varint::push_u64(&mut out, del as u64);
        }
    }
    varint::push_usize(&mut out, snap.del_runs.len());
    for &(events, target, fwd) in &snap.del_runs {
        varint::push_usize(&mut out, events.start);
        varint::push_usize(&mut out, events.len());
        varint::push_usize(&mut out, target.start);
        out.push(fwd as u8);
    }
    out
}

/// A checkpoint parsed shallowly: the version and document text are
/// decoded, but the heavy sections — tracker snapshot and oplog image —
/// stay as borrowed byte slices until the loader decides it needs them
/// (a sequential tail never parses the snapshot at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointView<'a> {
    /// The number of remote IDs in the version section.
    pub n_version: usize,
    /// The raw version section (`n_version` × (agent string, seq)).
    version_bytes: &'a [u8],
    /// The document text at the checkpoint version.
    pub content: &'a str,
    /// The raw tracker-snapshot section, if present
    /// ([`decode_snapshot`]).
    pub snapshot: Option<&'a [u8]>,
    /// The raw oplog image, if present
    /// ([`eg_encoding::decode_oplog_image`]).
    pub oplog_image: Option<&'a [u8]>,
}

impl<'a> CheckpointView<'a> {
    /// Iterates the checkpoint's version as borrowed `(agent, seq)`
    /// pairs. The section was structurally validated by
    /// [`read_checkpoint`], so iteration cannot fail.
    pub fn version_ids(&self) -> impl Iterator<Item = (&'a str, usize)> + 'a {
        let mut input = self.version_bytes;
        let n = self.n_version;
        (0..n).map(move |_| {
            // `read_checkpoint` already walked this section, so both
            // reads succeed; the fallbacks are dead code kept so the
            // iterator stays panic-free by construction.
            let agent = read_str(&mut input);
            debug_assert!(agent.is_ok(), "validated by read_checkpoint");
            let seq = varint::read_usize(&mut input);
            debug_assert!(seq.is_ok(), "validated by read_checkpoint");
            (agent.unwrap_or(""), seq.unwrap_or(0))
        })
    }
}

/// Shallowly parses a checkpoint payload: structure and UTF-8 of every
/// section are validated (never panicking on arbitrary bytes), but the
/// snapshot stays raw for [`decode_snapshot`] and the image for
/// [`eg_encoding::decode_oplog_image`]. Graph-level validation —
/// resolving the remote frontier, [`TrackerSnapshot::validate`] — is the
/// loader's job, because it needs the oplog.
pub fn read_checkpoint(bytes: &[u8]) -> Result<CheckpointView<'_>, DecodeError> {
    let input = &mut { bytes };
    let n_version = varint::read_usize(input)?;
    let version_bytes = *input;
    for _ in 0..n_version {
        read_str(input)?;
        varint::read_usize(input)?;
    }
    // `input` is a tail of `version_bytes`, so the subtraction holds.
    let consumed = version_bytes.len().saturating_sub(input.len());
    let version_bytes = version_bytes.get(..consumed).unwrap_or(&[]);
    let content = read_str(input)?;
    fn section<'a>(input: &mut &'a [u8]) -> Result<Option<&'a [u8]>, DecodeError> {
        let (&present, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
        *input = rest;
        match present {
            0 => Ok(None),
            1 => {
                let len = varint::read_usize(input)?;
                if input.len() < len {
                    return Err(DecodeError::UnexpectedEof);
                }
                let (raw, rest) = input.split_at(len);
                *input = rest;
                Ok(Some(raw))
            }
            _ => Err(DecodeError::Corrupt),
        }
    }
    let snapshot = section(input)?;
    let oplog_image = section(input)?;
    if !input.is_empty() {
        return Err(DecodeError::Corrupt);
    }
    Ok(CheckpointView {
        n_version,
        version_bytes,
        content,
        snapshot,
        oplog_image,
    })
}

/// Fully decodes a checkpoint payload into its owned form.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
    let view = read_checkpoint(bytes)?;
    Ok(Checkpoint {
        version: view
            .version_ids()
            .map(|(agent, seq)| RemoteId {
                agent: agent.to_owned(),
                seq,
            })
            .collect(),
        content: view.content.to_owned(),
        snapshot: view.snapshot.map(decode_snapshot).transpose()?,
        oplog_image: view.oplog_image.map(<[u8]>::to_vec),
    })
}

/// Decodes the tracker-snapshot section of a checkpoint
/// ([`CheckpointView::snapshot`]).
pub fn decode_snapshot(bytes: &[u8]) -> Result<TrackerSnapshot, DecodeError> {
    let input = &mut { bytes };
    let n_records = varint::read_usize(input)?;
    let mut records = Vec::new();
    for _ in 0..n_records {
        let start = varint::read_usize(input)?;
        let len = varint::read_usize(input)?;
        let end = start.checked_add(len).ok_or(DecodeError::Corrupt)?;
        let origin_left = varint::read_u64(input)? as usize;
        let origin_right = varint::read_u64(input)? as usize;
        let (&flags, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
        *input = rest;
        if flags & !7 != 0 {
            return Err(DecodeError::Corrupt);
        }
        let sp = match flags & 3 {
            0 => SpState::NotInsertedYet,
            1 => SpState::Ins,
            2 => {
                let n = varint::read_u64(input)?;
                SpState::Del(u32::try_from(n).map_err(|_| DecodeError::Corrupt)?)
            }
            _ => return Err(DecodeError::Corrupt),
        };
        records.push(CrdtSpan {
            id: DTRange::from(start..end),
            origin_left,
            origin_right,
            sp,
            se_deleted: flags & 4 != 0,
        });
    }
    let n_runs = varint::read_usize(input)?;
    let mut del_runs = Vec::new();
    for _ in 0..n_runs {
        let e_start = varint::read_usize(input)?;
        let len = varint::read_usize(input)?;
        let e_end = e_start.checked_add(len).ok_or(DecodeError::Corrupt)?;
        let t_start = varint::read_usize(input)?;
        let t_end = t_start.checked_add(len).ok_or(DecodeError::Corrupt)?;
        let (&fwd, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
        *input = rest;
        if fwd > 1 {
            return Err(DecodeError::Corrupt);
        }
        del_runs.push((
            DTRange::from(e_start..e_end),
            DTRange::from(t_start..t_end),
            fwd == 1,
        ));
    }
    if !input.is_empty() {
        return Err(DecodeError::Corrupt);
    }
    Ok(TrackerSnapshot { records, del_runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            version: vec![
                RemoteId {
                    agent: "alice".into(),
                    seq: 41,
                },
                RemoteId {
                    agent: "bob".into(),
                    seq: 7,
                },
            ],
            content: "héllo wörld".into(),
            snapshot: Some(TrackerSnapshot {
                records: vec![
                    CrdtSpan {
                        id: DTRange::from(0..5),
                        origin_left: usize::MAX,
                        origin_right: usize::MAX - 1,
                        sp: SpState::Ins,
                        se_deleted: false,
                    },
                    CrdtSpan {
                        id: DTRange::from(5..9),
                        origin_left: 4,
                        origin_right: usize::MAX - 1,
                        sp: SpState::Del(2),
                        se_deleted: true,
                    },
                ],
                del_runs: vec![(DTRange::from(9..12), DTRange::from(0..3), true)],
            }),
            oplog_image: Some(b"opaque image bytes".to_vec()),
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        for ck in [
            Checkpoint::default(),
            sample_checkpoint(),
            Checkpoint {
                snapshot: None,
                ..sample_checkpoint()
            },
        ] {
            let bytes = encode_checkpoint(&ck);
            assert_eq!(decode_checkpoint(&bytes).expect("roundtrip"), ck);
        }
    }

    #[test]
    fn checkpoint_file_is_header_plus_one_pushed_frame() {
        let ck = sample_checkpoint();
        let mut expect = file_header().to_vec();
        push_frame(&mut expect, RECORD_CHECKPOINT, &encode_checkpoint(&ck));
        // The text in uneven pieces, split on char boundaries.
        let (head, tail) = ck.content.split_at(3);
        let built = checkpoint_file(
            &ck.version,
            ck.content.len(),
            [head, "", tail].into_iter(),
            ck.snapshot.as_ref().expect("sample has a snapshot"),
            ck.oplog_image.as_deref().expect("sample has an image"),
        );
        assert_eq!(built, Some(expect));
    }

    #[test]
    fn events_frame_is_one_pushed_frame_of_the_owned_bundle() {
        let mut oplog = OpLog::new();
        let alice = oplog.get_or_create_agent("alice");
        let bob = oplog.get_or_create_agent("bob");
        oplog.add_insert(alice, 0, "base text");
        let held = oplog.version().clone();
        oplog.add_insert_at(bob, &held, 9, "!!");
        oplog.add_backspace_at(alice, &held, 8, 4);
        for (have, new) in [(&[][..], 0..15), (held.as_slice(), 9..15)] {
            let bundle = oplog.bundle_since_local(have);
            let mut expect = Vec::new();
            push_frame(
                &mut expect,
                RECORD_EVENTS,
                &eg_encoding::encode_bundle(&bundle),
            );
            let events = new.len();
            assert_eq!(events_frame(&oplog, &[new.into()]), Some((expect, events)));
        }
    }

    #[test]
    fn checkpoint_decode_rejects_junk() {
        let good = encode_checkpoint(&sample_checkpoint());
        // Truncations at every byte either fail cleanly or (never) panic.
        for cut in 0..good.len() {
            let _ = decode_checkpoint(&good[..cut]);
        }
        // Trailing garbage is rejected.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_checkpoint(&padded).is_err());
    }

    #[test]
    fn frame_scan_stops_at_torn_tail() {
        let mut bytes = file_header().to_vec();
        push_frame(&mut bytes, RECORD_EVENTS, b"payload-1");
        push_frame(&mut bytes, RECORD_CHECKPOINT, b"payload-2");
        let full = bytes.len();
        push_frame(&mut bytes, RECORD_EVENTS, b"torn");
        // Cut inside the last frame: the first two frames survive intact.
        for cut in full..=bytes.len() {
            let (frames, valid) = scan_frames(&bytes[..cut]).expect("scan");
            if cut == bytes.len() {
                assert_eq!(frames.len(), 3);
            } else {
                assert_eq!(frames.len(), 2, "cut at {cut}");
                assert_eq!(valid, full);
                assert_eq!(frames[0].payload, b"payload-1");
                assert_eq!(frames[1].payload, b"payload-2");
            }
        }
    }

    #[test]
    fn frame_scan_rejects_flipped_bits() {
        let mut bytes = file_header().to_vec();
        push_frame(&mut bytes, RECORD_EVENTS, b"payload");
        let good_len = bytes.len();
        push_frame(&mut bytes, RECORD_EVENTS, b"second");
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[good_len + 3] ^= 1 << bit;
            let (frames, valid) = scan_frames(&corrupt).expect("scan");
            assert_eq!(frames.len(), 1);
            assert_eq!(valid, good_len);
        }
    }

    #[test]
    fn foreign_files_are_refused() {
        assert_eq!(
            scan_frames(b"not a segment file"),
            Err(DecodeError::BadMagic)
        );
        // A torn header is recoverable (nothing committed yet)…
        assert_eq!(scan_frames(&file_header()[..3]).expect("scan").0.len(), 0);
        // …but torn bytes that cannot be our header are not ours.
        assert!(scan_frames(b"XY").is_err());
    }
}
