//! Event graph (causal DAG) substrate for the Eg-walker suite.
//!
//! An *event graph* (paper §2.2) is a DAG where each node is an editing event
//! with a unique ID and a set of parent event IDs. This crate stores and
//! queries such graphs:
//!
//! * Events are identified by dense **local versions** ([`LV`]): integers
//!   assigned in arrival order, which is always a topological order (parents
//!   precede children). Remote IDs `(replica, seq)` map to LVs via
//!   [`AgentAssignment`].
//! * [`Graph`] stores the parent relation, run-length encoded: a linear run
//!   of events (each parented on its predecessor) is a single entry.
//! * [`Frontier`] is a *version*: the set of maximal events of a causally
//!   closed set (paper §2.3).
//! * [`Graph::diff`] computes the version difference used to retreat and
//!   advance the prepare version (paper §3.2).
//! * [`Graph::find_conflicting`] finds the conflict window replayed on merge
//!   (paper §3.6).
//! * [`criticality`] finds the critical versions at which Eg-walker may clear
//!   its internal state (paper §3.5).
//! * [`walk`] plans a branch-consecutive traversal of a set of events,
//!   emitting retreat/advance/apply steps (paper §3.2, §3.7).

mod agent;
mod critical;
mod diff;
mod frontier;
mod graph;
pub mod naive;
pub mod walk;

pub use agent::{AgentAssignment, AgentId, AgentSpan, RemoteId};
pub use critical::criticality;
pub use diff::DiffResult;
pub use frontier::Frontier;
pub use graph::{Graph, GraphEntry};

/// A *local version*: the dense integer this replica assigned to an event.
///
/// LVs are local — different replicas may assign different LVs to the same
/// event. They are assigned in arrival order, so `a < b` whenever `a`
/// happened before `b` (but not conversely).
pub type LV = usize;
