//! [`Message`]: what the sync engine puts on the wire.
//!
//! Exactly two message kinds exist, both framed by `eg-encoding` with
//! magic + CRC so a transport can carry them as opaque bytes:
//!
//! * [`Message::Digest`] — per-document version-vector entries, the
//!   "what I hold" half of anti-entropy;
//! * [`Message::Bundles`] — per-document event bundles, what a link sends
//!   when the peer's digest or mark shows it lacking them.

use crate::replica::DocId;
use eg_dag::RemoteId;
use eg_encoding::varint::DecodeError;
use eg_encoding::{
    decode_bundle_batch, decode_digest, encode_bundle_batch, encode_digest, BUNDLE_BATCH_MAGIC,
    DIGEST_MAGIC,
};
use egwalker::EventBundle;

/// One sync message, as carried (encoded) in a [`WireFrame::Sync`].
///
/// [`WireFrame::Sync`]: crate::WireFrame::Sync
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Per-document `(agent, last sequence number held)` entries. What
    /// the entries cover is the sender's choice, not the codec's: a
    /// [`crate::SyncLink`] sends every document's whole version vector
    /// when it opens and afterwards only the entries that changed since
    /// its last digest. A receiver merges entries per agent by maximum,
    /// so both read the same way; a document may be listed with no
    /// entries.
    Digest(Vec<(DocId, Vec<RemoteId>)>),
    /// Batched per-document event bundles.
    Bundles(Vec<(DocId, EventBundle)>),
}

impl Message {
    /// Serialises the message for a transport.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Digest(docs) => {
                let raw: Vec<(u64, &[RemoteId])> =
                    docs.iter().map(|(d, v)| (d.0, v.as_slice())).collect();
                encode_digest(&raw)
            }
            Message::Bundles(docs) => Message::encode_bundles(docs),
        }
    }

    /// The encoding of `Message::Bundles(docs.to_vec())` without building
    /// it: a sender chunking a backlog encodes each chunk in place.
    pub fn encode_bundles(docs: &[(DocId, EventBundle)]) -> Vec<u8> {
        let raw: Vec<(u64, &EventBundle)> = docs.iter().map(|(d, b)| (d.0, b)).collect();
        encode_bundle_batch(&raw)
    }

    /// Deserialises a message, dispatching on the frame magic.
    pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
        match bytes.get(..4) {
            Some(magic) if magic == DIGEST_MAGIC => Ok(Message::Digest(
                decode_digest(bytes)?
                    .into_iter()
                    .map(|(d, v)| (DocId(d), v))
                    .collect(),
            )),
            Some(magic) if magic == BUNDLE_BATCH_MAGIC => Ok(Message::Bundles(
                decode_bundle_batch(bytes)?
                    .into_iter()
                    .map(|(d, b)| (DocId(d), b))
                    .collect(),
            )),
            _ => Err(DecodeError::BadMagic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Replica;

    #[test]
    fn digest_message_roundtrips() {
        let mut r = Replica::new("alice");
        r.insert(DocId(1), 0, "a");
        r.insert(DocId(2), 0, "b");
        let msg = Message::Digest(r.digest_all());
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn bundles_message_roundtrips() {
        let mut r = Replica::new("alice");
        let b1 = r.insert(DocId(1), 0, "alpha");
        let b2 = r.insert(DocId(9), 0, "beta");
        let msg = Message::Bundles(vec![(DocId(1), b1), (DocId(9), b2)]);
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        let Message::Bundles(docs) = &msg else {
            unreachable!()
        };
        assert_eq!(Message::encode_bundles(docs), msg.encode());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Message::decode(b"nonsense").is_err());
        assert!(Message::decode(b"").is_err());
    }
}
