//! # Eg-walker: collaborative text editing by event graph replay
//!
//! This crate implements the *Event Graph Walker* algorithm from
//! "Collaborative Text Editing with Eg-walker: Better, Faster, Smaller"
//! (Gentle & Kleppmann, EuroSys 2025).
//!
//! A replica's durable state is an [`OpLog`]: the append-only event graph
//! where each event is a single-character insertion or deletion, its unique
//! ID, and its parent version (run-length encoded throughout). The document
//! text itself is a [`Branch`]: a rope plus the version it reflects. There
//! is **no persistent CRDT state** — when concurrent edits must be merged,
//! the walker transiently rebuilds just enough internal state (the
//! [`tracker`]) from the latest critical version, transforms the new
//! events' indexes, applies them to the rope, and throws the state away
//! (paper §3).
//!
//! ```
//! use egwalker::OpLog;
//!
//! let mut oplog = OpLog::new();
//! let alice = oplog.get_or_create_agent("alice");
//! let bob = oplog.get_or_create_agent("bob");
//!
//! oplog.add_insert(alice, 0, "Helo");
//! let v = oplog.version().clone();
//! // Concurrently: alice fixes the typo while bob appends.
//! oplog.add_insert_at(alice, &v, 3, "l");
//! oplog.add_insert_at(bob, &v, 4, "!");
//!
//! let doc = oplog.checkout_tip();
//! assert_eq!(doc.content.to_string(), "Hello!");
//! ```

mod branch;
pub mod bundle;
pub mod content;
pub mod convert;
mod op;
mod oplog;
pub mod reference;
pub mod testgen;
pub mod tracker;
pub mod walker;

pub use branch::Branch;
pub use bundle::{BundleError, BundleRun, EventBundle, RunView};
pub use op::{ListOpKind, OpRun, TextOpRef, TextOperation};
pub use oplog::OpLog;
pub use tracker::{Tracker, TrackerSnapshot};
pub use walker::WalkerOpts;

pub use eg_dag::{Frontier, RemoteId, LV};
