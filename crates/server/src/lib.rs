//! `eg-server`: a multi-core in-process host for many documents.
//!
//! The eg-walker merge path is deliberately single-threaded — the paper's
//! cost bound (merge work proportional to the concurrent region) and the
//! PR-4..6 optimisations (cursor caches, reused trackers, slab arenas,
//! zero-alloc steady state) all assume one thread owns one document's
//! state. This crate scales that design to every core *without touching
//! it*: documents are partitioned across a pool of worker threads by a
//! stable hash ([`shard_for`]), each worker owns a private
//! [`eg_sync::Replica`] holding its shard, and all cross-thread traffic
//! is message passing over `std::sync::mpsc`. No locks, no shared
//! document state, no change to the merge machinery.
//!
//! * [`shard`] — the `DocId → worker` map (splitmix64, stable, uniform);
//! * [`host`] — [`ServerHost`]: edit routing, barriers, parallel
//!   anti-entropy (digest fan-out, owner-affine bundle extraction),
//!   host↔host sync over real frames;
//! * [`fleet`] — the one shared interpreter for `eg-trace` fleet scripts,
//!   used identically by workers and by the single-threaded reference
//!   replay so parallel runs are byte-checkable against sequential ones.
//!
//! Determinism: a fleet script is submitted by one thread, each edit is
//! routed to its document's owner in script order, mpsc channels are
//! FIFO, and workers process jobs sequentially — so every document sees
//! exactly the script-order projection of its ops, which is what the
//! sequential replay applies. Position hints reduce against live
//! per-document state only. Hence parallel and sequential snapshots are
//! byte-identical, for any worker count.

pub mod fleet;
pub mod host;
pub mod shard;

pub(crate) mod worker;

pub use fleet::replay_fleet_sequential;
pub use host::{ServerConfig, ServerHost};
pub use worker::{LoadReport, PersistStats};
