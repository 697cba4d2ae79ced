//! Fault-tolerant cross-process sync daemon for the Eg-walker suite.
//!
//! Everything below `eg-server` syncs inside one OS process; this crate
//! is the jump across the process boundary, built so that flaky links —
//! the dominant failure mode of real collaborative deployments — are
//! survived by construction rather than by luck:
//!
//! * [`Daemon`] — a hand-rolled non-blocking reactor (no crates.io)
//!   hosting a [`eg_server::ServerHost`] behind a Unix-domain socket,
//!   with actor-per-connection [`PeerSession`]s.
//! * [`PeerSession`] — the connection around an [`eg_sync::SyncLink`]:
//!   versioned handshake, idle heartbeats, and a bounded outbox that
//!   sheds and resets the link instead of growing without bound behind a
//!   slow peer. What the link says, and how its mark audit finds a lost
//!   frame, is the `SyncLink`'s business.
//! * [`Backoff`] — capped exponential reconnect delays with
//!   deterministic jitter, so reconnect storms spread out but replays
//!   stay exact.
//! * [`FaultProxy`] — socket-level fault injection (drop, duplicate,
//!   delay, corrupt as half a frame then a cut link, partition on
//!   command), each frame's fate drawn from an [`eg_sync::FaultSpec`] by
//!   the same [`eg_sync::FaultSchedule`] the simulator uses. It proves
//!   the rest of the list: the tier-1 suite converges two OS processes
//!   through every seeded fault schedule and across a SIGKILL restart.
//!
//! The protocol, the wire format and the fault schedule live in
//! `eg-sync` ([`eg_sync::SyncLink`], [`eg_sync::frame`],
//! [`eg_sync::FaultSchedule`]); this crate owns the sockets, the event
//! loop, and the retry policy.

mod backoff;
pub mod control;
mod daemon;
mod peer;
mod proxy;

pub use control::{parse_cmd, ControlCmd, ControlMsg};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use peer::{PeerOutbox, PeerSession, SessionConfig, SessionError, SessionState, SessionStats};
pub use proxy::FaultProxy;
