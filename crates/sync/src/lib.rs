//! Replication layer for the Eg-walker suite: one anti-entropy protocol,
//! written once as a sans-IO state machine, and the replicas and
//! simulated networks it runs over.
//!
//! The paper assumes "a reliable broadcast protocol that detects and
//! retransmits lost messages, but makes no other assumptions about the
//! network" (§2.1), and a causal delivery rule: "if any parents are
//! missing, the replica waits for them to arrive before adding them to the
//! graph" (§2.2). This crate implements that layer:
//!
//! * [`Replica`] hosts a keyed shard space of documents ([`DocId`] →
//!   oplog + live branch + causal buffer), so one node serves many
//!   documents with per-document digests and bundles.
//! * [`SyncLink`] is one end of a link: delta digests against what the
//!   link has already said and heard, bundles in answer to the peer's
//!   frames, and a periodic mark that audits the link and resets both
//!   ends when a frame went missing. It holds no clock, socket or thread;
//!   it reads documents through the [`SyncHost`] trait, which [`Replica`]
//!   and `eg-server`'s `ServerHost` implement, and queues encoded
//!   [`frame`]s for a driver to carry.
//! * Two drivers carry them: the daemon's `PeerSession` over a socket,
//!   and [`NetworkSim`] over the simulated [`InMemoryTransport`], in a
//!   full mesh or a star around node 0 ([`SimBuilder::star`]).
//!   [`settle`] is the in-process minimum: two link ends carried into
//!   each other until quiet.
//! * [`FaultSchedule`] is the one seeded fault schedule: it draws each
//!   sync frame's [`Fate`] from a [`FaultSpec`], for the simulator's
//!   transport and for the daemon's fault proxy alike.
//!
//! Determinism: every simulated run is a pure function of the seed, the
//! configuration, and the edit script, which makes convergence failures
//! replayable.
//!
//! # Examples
//!
//! ```
//! use eg_sync::{DocId, NetworkSim};
//!
//! let mut net = NetworkSim::new(&["alice", "bob"], 42);
//! net.edit_insert(0, DocId::DEFAULT, 0, "hello");
//! net.edit_insert(1, DocId::DEFAULT, 0, "world ");
//! assert!(net.run_until_quiescent(10_000));
//! assert!(net.all_converged());
//! assert_eq!(net.replica(0).text(DocId::DEFAULT), net.replica(1).text(DocId::DEFAULT));
//! ```
//!
//! A 100-node server-relay deployment over eight documents:
//!
//! ```
//! use eg_sync::{DocId, NetworkSim};
//!
//! let names: Vec<String> = (0..100).map(|i| format!("node{i}")).collect();
//! let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
//! let mut net = NetworkSim::builder(&refs, 7).star().mark_every(2).build();
//! for i in 1..100 {
//!     net.edit_insert(i, DocId((i % 8) as u64), 0, "hi ");
//! }
//! assert!(net.run_until_quiescent(10_000));
//! assert!(net.all_converged());
//! assert_eq!(net.stats().resets, 0, "a lossless network never resets");
//! ```

mod faulty;
pub mod frame;
mod link;
mod link_view;
mod message;
mod network;
mod replica;
mod topology;
mod transport;

pub use faulty::{Corruption, Fate, FaultSchedule, FaultSpec, FaultStats, PartitionWindow};
pub use frame::{FrameDecoder, FrameError, FrameTally, WireFrame, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use link::{settle, SyncHost, SyncLink};
pub use message::Message;
pub use network::{NetStats, NetworkSim, SimBuilder};
pub use replica::{DocId, ReceiveOutcome, Replica, ReplicaStats};
pub use transport::{Delivery, InMemoryTransport, LinkConfig, Tick};
