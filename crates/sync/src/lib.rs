//! Replication layer for the Eg-walker suite: a transport-abstracted,
//! shard-aware sync engine with batched anti-entropy.
//!
//! The paper assumes "a reliable broadcast protocol that detects and
//! retransmits lost messages, but makes no other assumptions about the
//! network" (§2.1), and a causal delivery rule: "if any parents are
//! missing, the replica waits for them to arrive before adding them to the
//! graph" (§2.2). This crate implements that layer as four seams, so the
//! whole system — editor, oplog, walker, wire format, delivery — can be
//! exercised end to end at scale:
//!
//! * [`Replica`] hosts a keyed shard space of documents ([`DocId`] →
//!   oplog + live branch + causal buffer), so one node serves many
//!   documents with per-document frontiers, digests, and bundles.
//! * [`Transport`] moves opaque encoded [`Message`]s between nodes;
//!   [`InMemoryTransport`] is the deterministic simulated implementation
//!   (seeded delay, loss, reordering).
//! * [`Topology`] decides shape: which links exist ([`Mesh`] full-mesh
//!   p2p, [`Star`] server relay), how events are relayed, and which
//!   digest probes each anti-entropy round runs.
//! * [`Outbox`]es batch: per link and per document they track the
//!   frontier the peer is believed to have and coalesce pending runs, so
//!   a burst of edits travels as one run-length-compressed delta instead
//!   of a message per keystroke, and repair probes are compact frontier
//!   digests instead of full version vectors.
//!
//! [`NetworkSim`] is the engine tying the seams together. Determinism:
//! every run is a pure function of the seed, the configuration, and the
//! edit script, which makes convergence failures replayable.
//!
//! # Examples
//!
//! ```
//! use eg_sync::NetworkSim;
//!
//! let mut net = NetworkSim::new(&["alice", "bob"], 42);
//! net.edit_insert(0, 0, "hello");
//! net.edit_insert(1, 0, "world ");
//! net.run_until_quiescent(10_000);
//! assert!(net.all_converged());
//! assert_eq!(net.replica(0).text(), net.replica(1).text());
//! ```
//!
//! A 100-node server-relay deployment over eight documents:
//!
//! ```
//! use eg_sync::{DocId, NetworkSim};
//!
//! let names: Vec<String> = (0..100).map(|i| format!("node{i}")).collect();
//! let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
//! let mut net = NetworkSim::builder(&refs, 7).star().flush_every(2).build();
//! for i in 1..100 {
//!     net.edit_insert_doc(i, DocId((i % 8) as u64), 0, "hi ");
//! }
//! assert!(net.run_until_quiescent(10_000));
//! assert!(net.all_converged());
//! ```

mod faulty;
pub mod frame;
mod link_view;
mod message;
mod network;
mod outbox;
mod replica;
mod topology;
mod transport;

pub use faulty::{FaultSpec, FaultStats, FaultyTransport, PartitionWindow};
pub use frame::{FrameDecoder, FrameError, FrameTally, WireFrame, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use link_view::LinkView;
pub use message::Message;
pub use network::{NetStats, NetworkSim, SimBuilder, SimConfig};
pub use outbox::Outbox;
pub use replica::{DocId, ReceiveOutcome, Replica, ReplicaStats};
pub use topology::{Mesh, Star, Topology};
pub use transport::{
    Delivery, InMemoryTransport, LinkConfig, NodeId, SendOutcome, Tick, Transport,
};
