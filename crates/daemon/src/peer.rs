//! [`PeerSession`]: the per-connection actor — handshake, heartbeats and
//! a bounded [`PeerOutbox`] around the connection's [`SyncLink`].
//!
//! The session is a pure state machine over frame bodies and clock
//! ticks; it never touches a socket, which is what makes it unit-testable
//! without I/O. The daemon's reactor feeds it the frame bodies its
//! decoder cuts from the stream and drains its outbox into the peer's
//! stream.
//!
//! ```text
//!            connect/accept
//!                  │ queue Hello
//!                  ▼
//!           ┌─────────────┐   Hello(proto, name)    ┌─────────────┐
//!           │ AwaitHello  │ ───────────────────────▶│ Established │
//!           └─────────────┘   (version checked)     └─────────────┘
//!                  │                                  │  Sync / Mark / Reset:
//!       bad proto / timeout                           │    the SyncLink
//!                  ▼                                  │  Ping ⇄ Pong
//!               closed ◀──────── heartbeat timeout / decode error
//! ```
//!
//! What is said on the link, when, and how a lost frame is found is the
//! [`SyncLink`]'s business; the session opens it when the peer's `Hello`
//! arrives, hands it the `Sync`, `Mark` and `Reset` frames, and moves
//! what it queues into the outbox. An outbox that shed its queue resets
//! the link once it drains.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use eg_sync::frame::{
    is_bundle_body, FrameError, WireFrame, FRAME_HEADER_LEN, PROTOCOL_VERSION, TAG_MARK, TAG_RESET,
    TAG_SYNC,
};
use eg_sync::{DocId, SyncHost, SyncLink};

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Connected; our Hello is queued, theirs has not arrived yet.
    AwaitHello,
    /// Handshake complete: anti-entropy and heartbeats are live.
    Established,
}

/// Why a session must be torn down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Peer speaks an incompatible protocol version.
    ProtocolMismatch {
        /// Version the peer announced.
        theirs: u32,
    },
    /// Peer sent a sync/ping frame before its Hello.
    HandshakeViolation,
    /// Nothing received for longer than the heartbeat timeout: the
    /// connection is presumed half-open.
    HeartbeatTimeout,
    /// A frame body failed to decode.
    Decode(FrameError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ProtocolMismatch { theirs } => {
                write!(
                    f,
                    "peer speaks protocol v{theirs}, we speak v{PROTOCOL_VERSION}"
                )
            }
            SessionError::HandshakeViolation => write!(f, "frame received before Hello"),
            SessionError::HeartbeatTimeout => write!(f, "heartbeat timeout (half-open link)"),
            SessionError::Decode(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

/// Session tuning knobs (all deterministic; no randomness here).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Send a Ping when nothing has been sent for this long.
    pub heartbeat_interval: Duration,
    /// Presume the link dead when nothing arrives for this long.
    pub heartbeat_timeout: Duration,
    /// Outbox budget in bytes; exceeding it sheds the queue and
    /// schedules a reset of the link instead.
    pub outbox_cap_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(3),
            outbox_cap_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Per-session traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Frames handed to the outbox (after shedding).
    pub frames_out: usize,
    /// Frames received and processed.
    pub frames_in: usize,
    /// Bundle batches integrated.
    pub batches_in: usize,
    /// Times the outbox shed its queue under pressure.
    pub sheds: usize,
    /// Bytes of digest frames queued: what anti-entropy costs on top of
    /// the events themselves.
    pub digest_bytes_out: u64,
    /// Bytes of bundle frames queued: the events themselves.
    pub bundle_bytes_out: u64,
    /// Times this end cleared its view and reopened the link — after a
    /// mark that did not match, a shed, or the peer's request.
    pub resets: usize,
}

/// A bounded queue of encoded frames awaiting the socket. Overflow policy
/// is *shed-and-reset*: rather than let a slow or dead peer grow an
/// unbounded queue (or block everyone else), the queue is dropped
/// wholesale and the session resets the link once it drains — both ends
/// start over from complete digests, which re-derive exactly what the
/// peer still needs.
#[derive(Debug, Default)]
pub struct PeerOutbox {
    frames: VecDeque<Vec<u8>>,
    queued_bytes: usize,
    cap_bytes: usize,
    needs_resync: bool,
}

impl PeerOutbox {
    fn new(cap_bytes: usize) -> PeerOutbox {
        PeerOutbox {
            frames: VecDeque::new(),
            queued_bytes: 0,
            cap_bytes: cap_bytes.max(1),
            needs_resync: false,
        }
    }

    /// Queues an encoded frame; returns `false` if the budget was blown
    /// and the queue shed instead.
    fn push(&mut self, frame: Vec<u8>) -> bool {
        if self.queued_bytes.saturating_add(frame.len()) > self.cap_bytes {
            self.frames.clear();
            self.queued_bytes = 0;
            self.needs_resync = true;
            return false;
        }
        self.queued_bytes += frame.len();
        self.frames.push_back(frame);
        true
    }

    /// Next frame to write, if any.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        let f = self.frames.pop_front()?;
        self.queued_bytes -= f.len();
        Some(f)
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }
}

/// The per-connection actor; see the module docs for the state diagram.
#[derive(Debug)]
pub struct PeerSession {
    cfg: SessionConfig,
    peer_name: Option<String>,
    /// The anti-entropy end of the connection, open from the peer's
    /// Hello on.
    link: Option<SyncLink>,
    outbox: PeerOutbox,
    last_recv: Instant,
    last_send: Instant,
    next_ping_nonce: u64,
    stats: SessionStats,
}

impl PeerSession {
    /// A fresh session for a just-connected link; queues our Hello.
    pub fn connect(now: Instant, local_name: &str, cfg: SessionConfig) -> PeerSession {
        let outbox = PeerOutbox::new(cfg.outbox_cap_bytes);
        let mut s = PeerSession {
            cfg,
            peer_name: None,
            link: None,
            outbox,
            last_recv: now,
            last_send: now,
            next_ping_nonce: 1,
            stats: SessionStats::default(),
        };
        s.queue(
            now,
            &WireFrame::Hello {
                proto: PROTOCOL_VERSION,
                name: local_name.to_owned(),
            },
        );
        s
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        match self.link {
            Some(_) => SessionState::Established,
            None => SessionState::AwaitHello,
        }
    }

    /// The peer's replica name, once its Hello arrived.
    pub fn peer_name(&self) -> Option<&str> {
        self.peer_name.as_deref()
    }

    /// Traffic counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The send queue (the reactor drains it into the socket).
    pub fn outbox(&mut self) -> &mut PeerOutbox {
        &mut self.outbox
    }

    /// Bytes queued for this peer right now.
    pub fn outbox_bytes(&self) -> usize {
        self.outbox.queued_bytes()
    }

    /// Hands encoded frame bytes to the outbox; returns how many it took
    /// (none when the budget was blown and the queue shed instead).
    fn push(&mut self, now: Instant, bytes: Vec<u8>) -> u64 {
        let len = bytes.len() as u64;
        if self.outbox.push(bytes) {
            self.stats.frames_out += 1;
            self.last_send = now;
            len
        } else {
            self.stats.sheds += 1;
            0
        }
    }

    fn queue(&mut self, now: Instant, frame: &WireFrame) {
        self.push(now, frame.encode());
    }

    /// Moves what the link has queued into the outbox, counting it.
    fn drain_link(&mut self, now: Instant) {
        while let Some(frame) = self.link.as_mut().and_then(SyncLink::poll_outgoing) {
            let body = frame.get(FRAME_HEADER_LEN..).unwrap_or_default();
            let (tag, bundle) = (body.first().copied(), is_bundle_body(body));
            if tag == Some(TAG_RESET) {
                self.stats.resets += 1;
            }
            let pushed = self.push(now, frame);
            match tag {
                Some(TAG_SYNC) if bundle => self.stats.bundle_bytes_out += pushed,
                Some(TAG_SYNC) => self.stats.digest_bytes_out += pushed,
                _ => {}
            }
        }
    }

    /// Tells the peer what changed in `docs` (`None`: in any document);
    /// see [`SyncLink::local_change`]. Nothing before the handshake.
    pub fn local_change(&mut self, now: Instant, host: &impl SyncHost, docs: Option<&[DocId]>) {
        if let Some(link) = self.link.as_mut() {
            link.local_change(host, docs);
            self.drain_link(now);
        }
    }

    /// Queues the periodic audit frame; see [`SyncLink::mark`].
    pub fn mark(&mut self, now: Instant) {
        if let Some(link) = self.link.as_mut() {
            link.mark();
            self.drain_link(now);
        }
    }

    /// Handles one frame body (as cut by `FrameDecoder::next_frame`)
    /// against the local host. Returns the documents that gained events
    /// from it, for the reactor to tell its other peers about; errors
    /// mean the connection must be dropped.
    pub fn on_frame(
        &mut self,
        now: Instant,
        body: &[u8],
        host: &mut impl SyncHost,
    ) -> Result<Vec<DocId>, SessionError> {
        let for_link = matches!(body.first(), Some(&(TAG_SYNC | TAG_MARK | TAG_RESET)));
        if let Some(link) = self.link.as_mut().filter(|_| for_link) {
            let docs = link.on_frame(host, body).map_err(SessionError::Decode)?;
            self.last_recv = now;
            self.stats.frames_in += 1;
            if !docs.is_empty() {
                self.stats.batches_in += 1;
            }
            self.drain_link(now);
            return Ok(docs);
        }
        let frame = WireFrame::decode(body).map_err(SessionError::Decode)?;
        self.last_recv = now;
        self.stats.frames_in += 1;
        match (self.state(), frame) {
            (SessionState::AwaitHello, WireFrame::Hello { proto, name }) => {
                if proto != PROTOCOL_VERSION {
                    return Err(SessionError::ProtocolMismatch { theirs: proto });
                }
                self.peer_name = Some(name);
                // Open anti-entropy immediately: the link's first digest
                // is every document's whole version vector.
                self.link = Some(SyncLink::open(&*host));
                self.drain_link(now);
            }
            (SessionState::AwaitHello, _) => return Err(SessionError::HandshakeViolation),
            (SessionState::Established, WireFrame::Ping(nonce)) => {
                self.queue(now, &WireFrame::Pong(nonce));
            }
            // A duplicate Hello is harmless (the peer may have raced a
            // reconnect); a Pong needs no answer.
            (SessionState::Established, _) => {}
        }
        Ok(Vec::new())
    }

    /// Bytes arrived from the peer: the link is alive, whether or not they
    /// complete a frame the reactor hands over now. (It holds frames back
    /// while its own output to the peer is pending; the heartbeat timeout
    /// measures the peer's silence, not that wait.)
    pub fn on_bytes(&mut self, now: Instant) {
        self.last_recv = now;
    }

    /// Clock tick: emits a heartbeat when the link has been send-idle,
    /// and reports a half-open link when nothing has arrived within the
    /// timeout.
    pub fn on_tick(&mut self, now: Instant) -> Result<(), SessionError> {
        if now.duration_since(self.last_recv) >= self.cfg.heartbeat_timeout {
            return Err(SessionError::HeartbeatTimeout);
        }
        if self.link.is_some() && now.duration_since(self.last_send) >= self.cfg.heartbeat_interval
        {
            let nonce = self.next_ping_nonce;
            self.next_ping_nonce = self.next_ping_nonce.wrapping_add(1);
            self.queue(now, &WireFrame::Ping(nonce));
        }
        Ok(())
    }

    /// Called by the reactor when the outbox has fully drained: if a shed
    /// happened, the peer has missed frames the link counts as delivered,
    /// so reset it.
    pub fn on_drained(&mut self, now: Instant, host: &impl SyncHost) {
        if self.outbox.needs_resync && self.outbox.is_empty() {
            self.outbox.needs_resync = false;
            if let Some(link) = self.link.as_mut() {
                link.reset(host);
                self.drain_link(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eg_server::{ServerConfig, ServerHost};
    use eg_sync::frame::FrameDecoder;
    use eg_sync::{FrameTally, Message};

    fn host(name: &str) -> ServerHost {
        ServerHost::with_config(ServerConfig {
            name: name.into(),
            workers: 1,
            ..ServerConfig::default()
        })
    }

    /// One insert at the start of `doc`.
    fn edit(h: &ServerHost, doc: u64, text: &str) {
        let script: std::sync::Arc<[eg_trace::FleetOp]> = vec![eg_trace::FleetOp::Insert {
            session: 0,
            doc,
            at: 0,
            text: text.into(),
        }]
        .into();
        h.submit_script(&script);
        h.flush();
    }

    /// A frame as the reactor's decoder hands it over: without the
    /// length prefix.
    fn body(frame: &WireFrame) -> Vec<u8> {
        frame.encode()[FRAME_HEADER_LEN..].to_vec()
    }

    /// Drains every queued frame of `from` into `to`, returning how many
    /// crossed.
    fn pump(from: &mut PeerSession, to: &mut PeerSession, to_host: &mut ServerHost) -> usize {
        let mut moved = 0;
        let mut dec = FrameDecoder::new();
        while let Some(bytes) = from.outbox().pop() {
            dec.push(&bytes);
            while let Some(frame) = dec.next_frame().expect("well-formed") {
                to.on_frame(Instant::now(), &frame, to_host)
                    .expect("session ok");
                moved += 1;
            }
        }
        moved
    }

    #[test]
    fn handshake_then_convergence_via_frames() {
        let now = Instant::now();
        let (mut ha, mut hb) = (host("alpha"), host("beta"));
        let mut sa = PeerSession::connect(now, "alpha", SessionConfig::default());
        let mut sb = PeerSession::connect(now, "beta", SessionConfig::default());
        edit(&ha, 1, "from-alpha ");
        edit(&hb, 2, "from-beta ");
        assert_eq!(sa.state(), SessionState::AwaitHello);

        while pump(&mut sa, &mut sb, &mut hb) + pump(&mut sb, &mut sa, &mut ha) > 0 {}
        assert_eq!(sa.state(), SessionState::Established);
        assert_eq!(sa.peer_name(), Some("beta"));
        assert_eq!(sb.peer_name(), Some("alpha"));
        assert!(ha.converged_with(&hb), "both docs on both hosts");
        assert!(sa.stats().batches_in >= 1);
        assert!(sa.stats().bundle_bytes_out > 0 && sa.stats().digest_bytes_out > 0);
        assert_eq!(sa.stats().resets + sb.stats().resets, 0);
    }

    #[test]
    fn protocol_mismatch_is_fatal() {
        let now = Instant::now();
        let mut h = host("x");
        let mut s = PeerSession::connect(now, "x", SessionConfig::default());
        let hello = WireFrame::Hello {
            proto: PROTOCOL_VERSION + 1,
            name: "future".into(),
        };
        let err = s.on_frame(now, &body(&hello), &mut h).unwrap_err();
        assert!(matches!(err, SessionError::ProtocolMismatch { .. }));
    }

    #[test]
    fn sync_before_hello_is_a_violation() {
        let now = Instant::now();
        let mut h = host("x");
        let mut s = PeerSession::connect(now, "x", SessionConfig::default());
        for early in [
            WireFrame::Ping(1),
            WireFrame::Mark(FrameTally::default()),
            WireFrame::Reset { echo: false },
        ] {
            let err = s.on_frame(now, &body(&early), &mut h).unwrap_err();
            assert_eq!(err, SessionError::HandshakeViolation);
        }
    }

    #[test]
    fn undecodable_body_is_a_decode_error() {
        let now = Instant::now();
        let mut h = host("x");
        let mut s = PeerSession::connect(now, "x", SessionConfig::default());
        let err = s.on_frame(now, &[0xEE, 1, 2], &mut h).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Decode(FrameError::BadTag(0xEE))
        ));
    }

    #[test]
    fn heartbeat_timeout_detects_half_open() {
        let now = Instant::now();
        let cfg = SessionConfig {
            heartbeat_timeout: Duration::from_millis(10),
            ..SessionConfig::default()
        };
        let mut s = PeerSession::connect(now, "x", cfg);
        assert!(s.on_tick(now).is_ok());
        let later = now + Duration::from_millis(50);
        assert_eq!(s.on_tick(later), Err(SessionError::HeartbeatTimeout));
    }

    /// An established session on `h` whose peer has only said Hello.
    fn established(h: &mut ServerHost, cfg: SessionConfig) -> PeerSession {
        let now = Instant::now();
        let mut s = PeerSession::connect(now, h.name(), cfg);
        let hello = WireFrame::Hello {
            proto: PROTOCOL_VERSION,
            name: "peer".into(),
        };
        s.on_frame(now, &body(&hello), h).unwrap();
        s
    }

    fn pop_frame(s: &mut PeerSession) -> Option<WireFrame> {
        let bytes = s.outbox().pop()?;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        dec.next_wire_frame().unwrap()
    }

    #[test]
    fn idle_established_session_pings() {
        let mut h = host("x");
        let cfg = SessionConfig {
            heartbeat_interval: Duration::from_millis(5),
            heartbeat_timeout: Duration::from_secs(60),
            ..SessionConfig::default()
        };
        let mut s = established(&mut h, cfg);
        while s.outbox().pop().is_some() {}
        let later = Instant::now() + Duration::from_millis(20);
        s.on_tick(later).unwrap();
        assert!(matches!(pop_frame(&mut s), Some(WireFrame::Ping(_))));
    }

    #[test]
    fn overflow_sheds_and_resyncs_on_drain() {
        let now = Instant::now();
        let mut h = host("big");
        edit(&h, 1, "seed ");
        let cfg = SessionConfig {
            outbox_cap_bytes: 96, // tiny: Hello fits, a digest flood does not
            ..SessionConfig::default()
        };
        let mut s = established(&mut h, cfg);
        // Flood digests until the budget blows and the queue sheds.
        for _ in 0..64 {
            s.local_change(now, &h, None);
        }
        assert!(s.stats().sheds > 0, "budget forced a shed");
        assert!(s.outbox().queued_bytes() <= 96);
        // Drain whatever survived. The peer has missed frames the link
        // counts as delivered, so the drain hook resets it: a reset
        // request, then one digest that is complete again.
        while s.outbox().pop().is_some() {}
        s.on_drained(now, &h);
        assert_eq!(s.stats().resets, 1);
        assert_eq!(pop_frame(&mut s), Some(WireFrame::Reset { echo: false }));
        match pop_frame(&mut s) {
            Some(WireFrame::Sync(Message::Digest(docs))) => {
                assert_eq!(docs, h.digest_all(), "a complete digest")
            }
            other => panic!("expected the full digest, got {other:?}"),
        }
        assert!(s.outbox().is_empty());
        // Once, not on every drain.
        s.on_drained(now, &h);
        assert!(s.outbox().is_empty());
    }
}
