//! # Eg-walker suite — facade crate
//!
//! A from-scratch Rust reproduction of *"Collaborative Text Editing with
//! Eg-walker: Better, Faster, Smaller"* (Gentle & Kleppmann, EuroSys 2025).
//! This crate re-exports the whole workspace for convenient use from the
//! examples and integration tests; depend on the individual crates for
//! finer-grained builds:
//!
//! * [`egwalker`] (re-exported at the root) — the algorithm itself;
//! * [`rle`], [`dag`], [`content_tree`], [`rope`] — its substrates;
//! * [`crdt_ref`], [`ot`] — the evaluation baselines;
//! * [`encoding`] — the on-disk format;
//! * [`storage`] — the compacting segment store and checkpointed loads;
//! * [`sync`] — causal broadcast replication over a simulated network;
//! * [`server`] — the multi-core shard-affinity host over [`sync`];
//! * [`trace`] — the benchmark workload suite.

pub use egwalker::{
    Branch, BundleError, BundleRun, EventBundle, Frontier, ListOpKind, OpLog, OpRun, RemoteId,
    TextOperation, WalkerOpts, LV,
};

pub use eg_content_tree as content_tree;
pub use eg_crdt_ref as crdt_ref;
pub use eg_dag as dag;
pub use eg_encoding as encoding;
pub use eg_ot as ot;
pub use eg_rle as rle;
pub use eg_rope as rope;
pub use eg_server as server;
pub use eg_storage as storage;
pub use eg_sync as sync;
pub use eg_trace as trace;
pub use egwalker as core_crate;
