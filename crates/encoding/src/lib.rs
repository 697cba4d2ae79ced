//! Column-oriented binary storage for event graphs (paper §3.8, §4.5).
//!
//! Eg-walker persists the *event graph*, not CRDT state. This crate
//! implements the paper's storage design — property columns over
//! topologically sorted events, run-length encoded, with variable-length
//! integers, an optional cached copy of the final document (for instant
//! loads), optional LZ4 compression of text columns, and CRC-protected
//! framing — plus the comparison encodings used by the evaluation's
//! file-size figures.
//!
//! The same columns carry events between replicas. A bundle batch
//! ([`encode_bundle_batch`], `EGWM`) holds one *patch* per document: the
//! columns over just the events sent, with parents outside the patch
//! named by `(replicaID, seqNo)` as §3.8's last paragraph describes. The
//! file and the patch share their column writers and readers. The older
//! row format for one bundle ([`encode_bundle`], `EGWB`) remains the
//! segment store's event record, until that record moves to the columns
//! too.
//!
//! # Examples
//!
//! ```
//! use eg_encoding::{decode, encode, EncodeOpts};
//! use egwalker::OpLog;
//!
//! let mut oplog = OpLog::new();
//! let a = oplog.get_or_create_agent("alice");
//! oplog.add_insert(a, 0, "hello");
//! let bytes = encode(&oplog, EncodeOpts::default());
//! let decoded = decode(&bytes).unwrap();
//! assert_eq!(decoded.oplog.checkout_tip().content.to_string(), "hello");
//! ```

mod bundle_wire;
mod columns;
mod comparisons;
mod crc;
mod digest_wire;
mod event_graph;
pub mod lz4;
mod oplog_image;
mod patch;
pub mod varint;

pub use bundle_wire::{
    apply_bundle_bytes, decode_bundle, encode_bundle, encode_runs, ApplyBundleError,
};
pub use comparisons::{encode_crdt_state, encode_verbose};
pub use crc::crc32;
pub use digest_wire::{
    decode_bundle_batch, decode_digest, encode_bundle_batch, encode_digest, BUNDLE_BATCH_MAGIC,
    DIGEST_MAGIC,
};
pub use event_graph::{decode, decode_cached_doc_only, encode, Decoded, EncodeOpts};
pub use oplog_image::{decode_oplog_image, encode_oplog_image};
pub use varint::DecodeError;
