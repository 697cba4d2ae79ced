//! # Eg-storage: the event graph on disk
//!
//! A compacting *segment store* per document — on disk a document is its
//! newest checkpoint plus the events appended since — making the paper's
//! cached-load claim (§3.5/§3.6 — open is O(tail), not O(history))
//! measurable on disk:
//!
//! * [`format`] — CRC-delimited record frames over the EGWB bundle codec,
//!   plus the checkpoint payload (remote-ID frontier, materialised text,
//!   [`egwalker::TrackerSnapshot`]). Pure and panic-free on arbitrary
//!   bytes; a torn tail write is detected and reported, never panicked on.
//! * [`store`] — [`DocStore`]: an open segment file that appends event
//!   bundles as edits commit, replaces itself with a checkpoint when one
//!   falls due ([`DocStore::checkpoint_due`]), and reopens documents warm
//!   through [`egwalker::OpLog::open_cached`].
//!
//! See `crates/storage/README.md` for the byte layout and recovery rules.

pub mod format;
pub mod store;

pub use format::{
    decode_checkpoint, decode_snapshot, encode_checkpoint, push_frame, read_checkpoint,
    scan_frames, Checkpoint, CheckpointView, RawFrame, FORMAT_VERSION, FRAME_OVERHEAD, HEADER_LEN,
    RECORD_CHECKPOINT, RECORD_EVENTS, SEGMENT_MAGIC,
};
pub use store::{DocStore, LoadedDoc, StorageError};
