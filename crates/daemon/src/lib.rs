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
//! * [`PeerSession`] — the per-link state machine: versioned handshake,
//!   delta digests against what the link has already said and heard, a
//!   periodic mark that audits the link's sync frames and resets both
//!   ends when one went missing, idle heartbeats, and a bounded outbox
//!   that sheds and resets instead of growing without bound behind a
//!   slow peer.
//! * [`Backoff`] — capped exponential reconnect delays with
//!   deterministic jitter, so reconnect storms spread out but replays
//!   stay exact.
//! * [`FaultProxy`] — socket-level fault injection (drop, duplicate,
//!   delay, truncate-mid-frame, partition on command) proving the rest
//!   of the list: the tier-1 suite converges two OS processes through
//!   every seeded fault schedule and across a SIGKILL restart.
//!
//! Wire format and in-process fault injection live in `eg-sync`
//! ([`eg_sync::frame`], [`eg_sync::FaultyTransport`]); this crate owns
//! the sockets, the event loop, and the retry policy.

mod backoff;
pub mod control;
mod daemon;
mod peer;
mod proxy;

pub use backoff::Backoff;
pub use control::{parse_cmd, ControlCmd, ControlMsg};
pub use daemon::{snapshot_hash, Daemon, DaemonConfig, DaemonHandle, DaemonStats};
pub use peer::{PeerOutbox, PeerSession, SessionConfig, SessionError, SessionState, SessionStats};
pub use proxy::{FaultProxy, ProxyFaults, ProxyStats};
