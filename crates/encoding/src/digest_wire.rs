//! Wire codec for the sync layer's anti-entropy traffic: per-document
//! version-vector digests and batched per-document bundle payloads.
//!
//! These two framings give the sync engine real bytes-on-wire for both
//! message kinds, using the same LEB128 + interned-agent-table machinery
//! as [`crate::encode_bundle`]:
//!
//! * a **digest** (`"EGWD"`) lists, per document, `(replicaID, seqNo)`
//!   entries: for each agent named, the last sequence number the sender
//!   holds. An agent's events form a causal chain, so one entry stands
//!   for every earlier event of that agent, and entries stay meaningful
//!   to a peer whose history has diverged (causal-frontier tips do not:
//!   a tip the peer has never seen says nothing about its ancestry). A
//!   *full* digest is a document's whole version vector and grows with
//!   the number of agents in its history; the daemon sends one per link
//!   when a session opens or resets and afterwards only *deltas* — the
//!   entries that changed since the last digest on that link — which is
//!   what keeps a keystroke at one entry. The codec does not care which:
//!   it carries whatever entries it is given, and a document may be
//!   listed with none;
//! * a **bundle batch** (`"EGWM"`) carries one encoded
//!   [`egwalker::EventBundle`] per document, so everything one answer
//!   extracts travels as a single framed message.
//!
//! Layout (all integers LEB128):
//!
//! ```text
//! digest:  "EGWD" | version (=1)
//!          agent table: count, then per agent: name length, UTF-8 bytes
//!          doc count, then per doc: doc id | entry count | per entry: agent index, seq
//!          CRC32 of everything above (4 bytes little-endian)
//!
//! batch:   "EGWM" | version (=1)
//!          doc count, then per doc: doc id | byte length | encode_bundle bytes
//!          CRC32 of everything above (4 bytes little-endian)
//! ```

use crate::bundle_wire::{decode_bundle, encode_bundle};
use crate::crc::{crc32, split_crc};
use crate::varint::{push_u64, push_usize, read_u64, read_u8, read_usize, take, DecodeError};
use eg_dag::RemoteId;
use egwalker::EventBundle;
use std::borrow::Borrow;
use std::collections::HashMap;

/// Frame magic of an encoded version-vector digest.
pub const DIGEST_MAGIC: &[u8; 4] = b"EGWD";
/// Frame magic of an encoded per-document bundle batch.
pub const BUNDLE_BATCH_MAGIC: &[u8; 4] = b"EGWM";
const WIRE_VERSION: u8 = 1;

/// Serialises per-document digests for the network.
///
/// `docs` pairs each document id with the entries to report for it, in
/// remote-ID form (e.g. `OpLog::version_vector`, or a delta of one). The
/// entry lists are only read, so owned and borrowed ones both do.
pub fn encode_digest<V: AsRef<[RemoteId]>>(docs: &[(u64, V)]) -> Vec<u8> {
    let mut names: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (_, tips) in docs {
        for tip in tips.as_ref() {
            index.entry(tip.agent.as_str()).or_insert_with(|| {
                names.push(tip.agent.as_str());
                names.len() - 1
            });
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(DIGEST_MAGIC);
    out.push(WIRE_VERSION);
    push_usize(&mut out, names.len());
    for name in &names {
        push_usize(&mut out, name.len());
        out.extend_from_slice(name.as_bytes());
    }
    push_usize(&mut out, docs.len());
    for (doc, tips) in docs {
        let tips = tips.as_ref();
        push_u64(&mut out, *doc);
        push_usize(&mut out, tips.len());
        for tip in tips {
            push_usize(&mut out, index[tip.agent.as_str()]);
            push_usize(&mut out, tip.seq);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialises a digest, validating framing and checksum.
pub fn decode_digest(bytes: &[u8]) -> Result<Vec<(u64, Vec<RemoteId>)>, DecodeError> {
    let mut input = check_frame(bytes, DIGEST_MAGIC)?;

    let num_names = read_usize(&mut input)?;
    if num_names > input.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut names = Vec::with_capacity(num_names);
    for _ in 0..num_names {
        let len = read_usize(&mut input)?;
        let raw = take(&mut input, len)?;
        let name = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
        names.push(name.to_string());
    }

    let num_docs = read_usize(&mut input)?;
    if num_docs > input.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut docs = Vec::with_capacity(num_docs);
    for _ in 0..num_docs {
        let doc = read_u64(&mut input)?;
        let num_tips = read_usize(&mut input)?;
        if num_tips > input.len() {
            return Err(DecodeError::Corrupt);
        }
        let mut tips = Vec::with_capacity(num_tips);
        for _ in 0..num_tips {
            let agent_idx = read_usize(&mut input)?;
            let agent = names
                .get(agent_idx)
                .ok_or(DecodeError::Corrupt)?
                .to_string();
            let seq = read_usize(&mut input)?;
            tips.push(RemoteId { agent, seq });
        }
        docs.push((doc, tips));
    }
    if !input.is_empty() {
        return Err(DecodeError::Corrupt);
    }
    Ok(docs)
}

/// Serialises a batch of per-document event bundles for the network.
/// The bundles are only read, so owned and borrowed ones both do.
pub fn encode_bundle_batch<B: Borrow<EventBundle>>(docs: &[(u64, B)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(BUNDLE_BATCH_MAGIC);
    out.push(WIRE_VERSION);
    push_usize(&mut out, docs.len());
    for (doc, bundle) in docs {
        push_u64(&mut out, *doc);
        let encoded = encode_bundle(bundle.borrow());
        push_usize(&mut out, encoded.len());
        out.extend_from_slice(&encoded);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserialises a batch of per-document event bundles.
pub fn decode_bundle_batch(bytes: &[u8]) -> Result<Vec<(u64, EventBundle)>, DecodeError> {
    let mut input = check_frame(bytes, BUNDLE_BATCH_MAGIC)?;
    let num_docs = read_usize(&mut input)?;
    if num_docs > input.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut docs = Vec::with_capacity(num_docs);
    for _ in 0..num_docs {
        let doc = read_u64(&mut input)?;
        let len = read_usize(&mut input)?;
        let raw = take(&mut input, len)?;
        docs.push((doc, decode_bundle(raw)?));
    }
    if !input.is_empty() {
        return Err(DecodeError::Corrupt);
    }
    Ok(docs)
}

/// Validates magic, version, and trailing CRC32; returns the body between
/// the version byte and the checksum.
fn check_frame<'a>(bytes: &'a [u8], magic: &[u8; 4]) -> Result<&'a [u8], DecodeError> {
    let (body, stored) = split_crc(bytes).ok_or(DecodeError::UnexpectedEof)?;
    if crc32(body) != stored {
        return Err(DecodeError::Corrupt);
    }
    let mut input = body;
    if take(&mut input, magic.len())? != magic.as_slice() {
        return Err(DecodeError::BadMagic);
    }
    if read_u8(&mut input)? != WIRE_VERSION {
        return Err(DecodeError::Corrupt);
    }
    Ok(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egwalker::OpLog;

    fn sample_digest() -> Vec<(u64, Vec<RemoteId>)> {
        vec![
            (
                0,
                vec![
                    RemoteId {
                        agent: "alice".into(),
                        seq: 41,
                    },
                    RemoteId {
                        agent: "bob".into(),
                        seq: 7,
                    },
                ],
            ),
            (3, vec![]),
            (
                900,
                vec![RemoteId {
                    agent: "alice".into(),
                    seq: 2,
                }],
            ),
        ]
    }

    #[test]
    fn digest_roundtrip() {
        let digest = sample_digest();
        let bytes = encode_digest(&digest);
        assert_eq!(decode_digest(&bytes).unwrap(), digest);
    }

    #[test]
    fn empty_digest_roundtrip() {
        let bytes = encode_digest::<Vec<RemoteId>>(&[]);
        assert!(decode_digest(&bytes).unwrap().is_empty());
    }

    #[test]
    fn digest_is_compact() {
        let bytes = encode_digest(&sample_digest());
        // Two interned names, three docs, three tips: tens of bytes.
        assert!(
            bytes.len() < 48,
            "digest unexpectedly large: {}",
            bytes.len()
        );
    }

    #[test]
    fn digest_corruption_detected() {
        let bytes = encode_digest(&sample_digest());
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x20;
            assert!(
                decode_digest(&corrupted).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(decode_digest(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bundle_batch_roundtrip() {
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "doc zero");
        let mut b = OpLog::new();
        let bob = b.get_or_create_agent("bob");
        b.add_insert(bob, 0, "doc seven");
        b.add_delete(bob, 0, 4);

        let batch = vec![(0u64, a.bundle_since(&[])), (7u64, b.bundle_since(&[]))];
        let bytes = encode_bundle_batch(&batch);
        let decoded = decode_bundle_batch(&bytes).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn bundle_batch_corruption_detected() {
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "x");
        let bytes = encode_bundle_batch(&[(1, a.bundle_since(&[]))]);
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(decode_bundle_batch(&corrupted).is_err(), "byte {i}");
        }
    }

    #[test]
    fn magics_disambiguate_message_kinds() {
        let digest = encode_digest(&sample_digest());
        let batch = encode_bundle_batch::<EventBundle>(&[]);
        assert_eq!(&digest[..4], DIGEST_MAGIC);
        assert_eq!(&batch[..4], BUNDLE_BATCH_MAGIC);
        assert!(matches!(decode_digest(&batch), Err(DecodeError::BadMagic)));
        assert!(matches!(
            decode_bundle_batch(&digest),
            Err(DecodeError::BadMagic)
        ));
    }
}
