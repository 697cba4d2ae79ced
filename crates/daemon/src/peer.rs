//! [`PeerSession`]: the per-connection actor — handshake, anti-entropy,
//! the link audit, heartbeats — plus its bounded [`PeerOutbox`].
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
//!                  │                                  │  Digest ⇄ Bundles
//!       bad proto / timeout                           │  Mark ─▶ Bundles | Reset
//!                  ▼                                  │  Ping ⇄ Pong
//!               closed ◀──────── heartbeat timeout / decode error
//! ```
//!
//! **What is said.** The session keeps a [`LinkView`]: what its digests
//! have told the peer this host holds, and what the peer is known to
//! hold. A `Digest` carries only the entries the peer has not been told
//! yet — one `(doc, agent, seq)` for a keystroke, whatever else is
//! resident — and `Bundles` are extracted against what the peer is known
//! to hold, which counts a batch as held from the moment it is queued,
//! so a digest that was already on its way does not get the same events
//! twice. The first digest of a session is the delta against an empty
//! view, i.e. every document's whole version vector.
//!
//! **When it is said.** A digest goes out after `Hello`, after a local
//! edit ([`PeerSession::queue_digest`]) and as the acknowledgement of a
//! bundle batch. Bundles travel only in answer to a frame from the peer:
//! to a `Digest`, or to the periodic `Mark`, whenever the view then says
//! the peer lacks something. Nothing is pulled: a digest that shows the
//! *sender* ahead is not answered, so a lone edit waits for the other
//! side's next frame — at the latest its next `Mark`.
//!
//! **The audit.** Deltas and optimism are only right while no sync frame
//! is lost, and the fault proxy drops and repeats them one at a time. So
//! each end tallies the sync frames it queues and the ones it decodes
//! ([`FrameTally`]), and every `sync_interval` sends the former as a
//! `Mark`. A receiver whose tally agrees has seen everything the view
//! assumes; one whose tally differs sends `Reset`, and both ends clear
//! their views and reopen with a complete digest, exactly as after
//! `Hello`. An outbox that shed its queue does the same once it drains.
//! Between asking for a reset and the peer's answer a session reads no
//! sync frame and no mark: they were written against the old views.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use eg_server::ServerHost;
use eg_sync::frame::{frame_sync, FrameError, WireFrame, FRAME_HEADER_LEN, PROTOCOL_VERSION};
use eg_sync::{DocId, FrameTally, LinkView, Message};

/// Max documents per Sync frame: keeps encoded frames far below the
/// decoder's 16 MiB guard for realistic bundle sizes.
const BUNDLE_DOCS_PER_FRAME: usize = 32;

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
    state: SessionState,
    peer_name: Option<String>,
    outbox: PeerOutbox,
    last_recv: Instant,
    last_send: Instant,
    next_ping_nonce: u64,
    stats: SessionStats,
    view: LinkView,
    /// Sync frames queued since the last `Reset` this end sent.
    sent: FrameTally,
    /// Sync frames decoded since the last `Reset` this end received.
    seen: FrameTally,
    /// This end asked for a reset and the peer has not answered yet.
    awaiting_reset: bool,
}

impl PeerSession {
    /// A fresh session for a just-connected link; queues our Hello.
    pub fn connect(now: Instant, local_name: &str, cfg: SessionConfig) -> PeerSession {
        let outbox = PeerOutbox::new(cfg.outbox_cap_bytes);
        let mut s = PeerSession {
            cfg,
            state: SessionState::AwaitHello,
            peer_name: None,
            outbox,
            last_recv: now,
            last_send: now,
            next_ping_nonce: 1,
            stats: SessionStats::default(),
            view: LinkView::new(),
            sent: FrameTally::default(),
            seen: FrameTally::default(),
            awaiting_reset: false,
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
        self.state
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

    /// Queues an encoded sync message and counts it into the tally the
    /// next mark reports.
    fn queue_sync(&mut self, now: Instant, message: &[u8]) -> u64 {
        let bytes = frame_sync(message);
        self.sent.note(&bytes[FRAME_HEADER_LEN..]);
        self.push(now, bytes)
    }

    /// Queues a digest of `docs` (`None`: of every document): the entries
    /// the peer has not been told yet. Sent on a local change to those
    /// documents and as the acknowledgement of a bundle batch, with
    /// nothing new to tell as well — the frame is also the peer's cue to
    /// answer with what this host lacks.
    pub fn queue_digest(&mut self, now: Instant, host: &ServerHost, docs: Option<&[DocId]>) {
        if self.state != SessionState::Established {
            return;
        }
        let ours = match docs {
            Some(docs) => host.digest_of(docs),
            None => host.digest_all(),
        };
        let digest = Message::Digest(self.view.tell(&ours));
        self.stats.digest_bytes_out += self.queue_sync(now, &digest.encode());
    }

    /// Queues the periodic audit frame: the tally of sync frames queued
    /// on this link so far.
    pub fn queue_mark(&mut self, now: Instant) {
        if self.state == SessionState::Established {
            self.queue(now, &WireFrame::Mark(self.sent));
        }
    }

    /// Queues whatever the view says the peer has been told of and does
    /// not hold, and counts it as held from here on.
    fn answer(&mut self, now: Instant, host: &ServerHost) {
        let lacking = self.view.behind();
        if lacking.is_empty() {
            return;
        }
        let bundles = host.bundles_for_listed(&lacking);
        self.view.crossed(&bundles);
        // Chunk by document so no single frame approaches the decoder's
        // max-frame guard on a large backlog.
        for chunk in bundles.chunks(BUNDLE_DOCS_PER_FRAME) {
            self.stats.bundle_bytes_out += self.queue_sync(now, &Message::encode_bundles(chunk));
        }
    }

    /// Clears the view, restarts the outgoing tally at a `Reset` frame
    /// and reopens with a complete digest, as after `Hello`. With `echo`
    /// this answers the peer's request; without, it makes one, and the
    /// session reads no sync traffic until the peer has answered.
    fn reset(&mut self, now: Instant, host: &ServerHost, echo: bool) {
        self.stats.resets += 1;
        self.view.clear();
        self.sent = FrameTally::default();
        self.awaiting_reset = !echo;
        self.queue(now, &WireFrame::Reset { echo });
        self.queue_digest(now, host, None);
    }

    /// Handles one frame body (as cut by `FrameDecoder::next_frame`)
    /// against the local host. Returns the documents that gained events
    /// from it, for the reactor to tell its other peers about; errors
    /// mean the connection must be dropped.
    pub fn on_frame(
        &mut self,
        now: Instant,
        body: &[u8],
        host: &ServerHost,
    ) -> Result<Vec<DocId>, SessionError> {
        let frame = WireFrame::decode(body).map_err(SessionError::Decode)?;
        self.last_recv = now;
        self.stats.frames_in += 1;
        match (self.state, frame) {
            (SessionState::AwaitHello, WireFrame::Hello { proto, name }) => {
                if proto != PROTOCOL_VERSION {
                    return Err(SessionError::ProtocolMismatch { theirs: proto });
                }
                self.peer_name = Some(name);
                self.state = SessionState::Established;
                // Open anti-entropy immediately: against the empty view
                // this is every document's whole version vector.
                self.queue_digest(now, host, None);
            }
            (SessionState::AwaitHello, _) => return Err(SessionError::HandshakeViolation),
            // A duplicate Hello is harmless (the peer may have raced a
            // reconnect); ignore it.
            (SessionState::Established, WireFrame::Hello { .. } | WireFrame::Pong(_)) => {}
            (SessionState::Established, WireFrame::Ping(nonce)) => {
                self.queue(now, &WireFrame::Pong(nonce));
            }
            (SessionState::Established, WireFrame::Reset { echo }) => {
                // The incoming tally restarts here, whoever asked.
                self.seen = FrameTally::default();
                self.awaiting_reset = false;
                if !echo {
                    self.reset(now, host, true);
                }
            }
            // Written against views this end has already thrown away.
            (SessionState::Established, WireFrame::Sync(_) | WireFrame::Mark(_))
                if self.awaiting_reset => {}
            (SessionState::Established, WireFrame::Mark(theirs)) => {
                if theirs == self.seen {
                    // Every sync frame the peer sent has been read: the
                    // view is sound, and this is the peer's periodic cue.
                    self.answer(now, host);
                } else {
                    self.reset(now, host, false);
                }
            }
            (SessionState::Established, WireFrame::Sync(message)) => {
                self.seen.note(body);
                match message {
                    Message::Digest(theirs) => {
                        self.view.hear(&theirs);
                        self.answer(now, host);
                    }
                    Message::Bundles(batch) => {
                        self.stats.batches_in += 1;
                        self.view.crossed(&batch);
                        let docs: Vec<DocId> = batch.iter().map(|(doc, _)| *doc).collect();
                        host.receive_bundles(batch);
                        host.flush();
                        // Acknowledge: tells the peer whatever else has
                        // changed in these documents, and cues it to send
                        // anything this host still lacks.
                        self.queue_digest(now, host, Some(&docs));
                        return Ok(docs);
                    }
                }
            }
        }
        Ok(Vec::new())
    }

    /// Clock tick: emits a heartbeat when the link has been send-idle,
    /// and reports a half-open link when nothing has arrived within the
    /// timeout.
    pub fn on_tick(&mut self, now: Instant) -> Result<(), SessionError> {
        if now.duration_since(self.last_recv) >= self.cfg.heartbeat_timeout {
            return Err(SessionError::HeartbeatTimeout);
        }
        if self.state == SessionState::Established
            && now.duration_since(self.last_send) >= self.cfg.heartbeat_interval
        {
            let nonce = self.next_ping_nonce;
            self.next_ping_nonce = self.next_ping_nonce.wrapping_add(1);
            self.queue(now, &WireFrame::Ping(nonce));
        }
        Ok(())
    }

    /// Called by the reactor when the outbox has fully drained: if a shed
    /// happened, the peer has missed frames the view counts as delivered,
    /// so reset the link.
    pub fn on_drained(&mut self, now: Instant, host: &ServerHost) {
        if self.outbox.needs_resync && self.outbox.is_empty() {
            self.outbox.needs_resync = false;
            if self.state == SessionState::Established {
                self.reset(now, host, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eg_server::ServerConfig;
    use eg_sync::frame::{FrameDecoder, TAG_SYNC};

    const HOT: u64 = 1000;

    fn host(name: &str) -> ServerHost {
        ServerHost::with_config(ServerConfig {
            name: name.into(),
            workers: 1,
            ..ServerConfig::default()
        })
    }

    /// One insert at the start of `doc`, authored by `session`.
    fn edit_as(h: &ServerHost, session: u32, doc: u64, text: &str) {
        let script: std::sync::Arc<[eg_trace::FleetOp]> = vec![eg_trace::FleetOp::Insert {
            session,
            doc,
            at: 0,
            text: text.into(),
        }]
        .into();
        h.submit_script(&script);
        h.flush();
    }

    fn edit(h: &ServerHost, doc: u64, text: &str) {
        edit_as(h, 0, doc, text);
    }

    /// A frame as the reactor's decoder hands it over: without the
    /// length prefix.
    fn body(frame: &WireFrame) -> Vec<u8> {
        frame.encode()[FRAME_HEADER_LEN..].to_vec()
    }

    /// Drains every queued frame of `from` into `to`, returning how many
    /// crossed. The link may lose one sync frame: `drop` counts down over
    /// the sync frames crossing and swallows the one it reaches zero on,
    /// as the fault proxy would.
    fn pump(
        from: &mut PeerSession,
        to: &mut PeerSession,
        to_host: &ServerHost,
        now: Instant,
        drop: &mut Option<usize>,
    ) -> usize {
        let mut moved = 0;
        let mut dec = FrameDecoder::new();
        while let Some(bytes) = from.outbox().pop() {
            dec.push(&bytes);
            while let Some(frame) = dec.next_frame().expect("well-formed") {
                if frame.first() == Some(&TAG_SYNC) {
                    match drop {
                        Some(0) => {
                            *drop = None;
                            continue;
                        }
                        Some(n) => *n -= 1,
                        None => {}
                    }
                }
                to.on_frame(now, &frame, to_host).expect("session ok");
                moved += 1;
            }
        }
        moved
    }

    /// Two hosts and the two ends of the link between them, with the
    /// bytes and sync frames that have crossed it.
    struct Pair {
        now: Instant,
        ha: ServerHost,
        hb: ServerHost,
        sa: PeerSession,
        sb: PeerSession,
        bytes: usize,
        /// When set, the link loses the sync frame with that index.
        drop: Option<usize>,
    }

    impl Pair {
        fn new() -> Pair {
            let now = Instant::now();
            Pair {
                now,
                ha: host("alpha"),
                hb: host("beta"),
                sa: PeerSession::connect(now, "alpha", SessionConfig::default()),
                sb: PeerSession::connect(now, "beta", SessionConfig::default()),
                bytes: 0,
                drop: None,
            }
        }

        fn a_to_b(&mut self) -> usize {
            self.bytes += self.sa.outbox_bytes();
            pump(
                &mut self.sa,
                &mut self.sb,
                &self.hb,
                self.now,
                &mut self.drop,
            )
        }

        fn b_to_a(&mut self) -> usize {
            self.bytes += self.sb.outbox_bytes();
            pump(
                &mut self.sb,
                &mut self.sa,
                &self.ha,
                self.now,
                &mut self.drop,
            )
        }

        /// Carries frames back and forth until neither end has any.
        fn settle(&mut self) {
            for _ in 0..32 {
                if self.a_to_b() + self.b_to_a() == 0 {
                    return;
                }
            }
            panic!("the exchange does not terminate");
        }

        /// A local edit on alpha, announced as the daemon announces it.
        fn type_a(&mut self, session: u32, doc: u64, text: &str) {
            edit_as(&self.ha, session, doc, text);
            self.sa
                .queue_digest(self.now, &self.ha, Some(&[DocId(doc)]));
        }

        fn type_b(&mut self, session: u32, doc: u64, text: &str) {
            edit_as(&self.hb, session, doc, text);
            self.sb
                .queue_digest(self.now, &self.hb, Some(&[DocId(doc)]));
        }

        /// One periodic round: both ends send their mark.
        fn marks(&mut self) {
            self.sa.queue_mark(self.now);
            self.sb.queue_mark(self.now);
        }

        fn converged(&self) -> bool {
            self.ha.converged_with(&self.hb)
        }

        fn resets(&self) -> usize {
            self.sa.stats().resets + self.sb.stats().resets
        }

        fn sync_frames(&self) -> u64 {
            self.sa.sent.frames + self.sb.sent.frames
        }
    }

    #[test]
    fn handshake_then_convergence_via_frames() {
        let mut p = Pair::new();
        edit(&p.ha, 1, "from-alpha ");
        edit(&p.hb, 2, "from-beta ");
        assert_eq!(p.sa.state(), SessionState::AwaitHello);

        p.settle();
        assert_eq!(p.sa.state(), SessionState::Established);
        assert_eq!(p.sa.peer_name(), Some("beta"));
        assert_eq!(p.sb.peer_name(), Some("alpha"));
        assert!(p.converged(), "both docs on both hosts");
        assert!(p.sa.stats().batches_in >= 1);
        assert!(p.sa.stats().bundle_bytes_out > 0 && p.sa.stats().digest_bytes_out > 0);
        assert_eq!(p.resets(), 0);
    }

    #[test]
    fn protocol_mismatch_is_fatal() {
        let now = Instant::now();
        let h = host("x");
        let mut s = PeerSession::connect(now, "x", SessionConfig::default());
        let hello = WireFrame::Hello {
            proto: PROTOCOL_VERSION + 1,
            name: "future".into(),
        };
        let err = s.on_frame(now, &body(&hello), &h).unwrap_err();
        assert!(matches!(err, SessionError::ProtocolMismatch { .. }));
    }

    #[test]
    fn sync_before_hello_is_a_violation() {
        let now = Instant::now();
        let h = host("x");
        let mut s = PeerSession::connect(now, "x", SessionConfig::default());
        for early in [
            WireFrame::Ping(1),
            WireFrame::Mark(FrameTally::default()),
            WireFrame::Reset { echo: false },
        ] {
            let err = s.on_frame(now, &body(&early), &h).unwrap_err();
            assert_eq!(err, SessionError::HandshakeViolation);
        }
    }

    #[test]
    fn undecodable_body_is_a_decode_error() {
        let now = Instant::now();
        let h = host("x");
        let mut s = PeerSession::connect(now, "x", SessionConfig::default());
        let err = s.on_frame(now, &[0xEE, 1, 2], &h).unwrap_err();
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
    fn established(h: &ServerHost, cfg: SessionConfig) -> PeerSession {
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
        let h = host("x");
        let cfg = SessionConfig {
            heartbeat_interval: Duration::from_millis(5),
            heartbeat_timeout: Duration::from_secs(60),
            ..SessionConfig::default()
        };
        let mut s = established(&h, cfg);
        while s.outbox().pop().is_some() {}
        let later = Instant::now() + Duration::from_millis(20);
        s.on_tick(later).unwrap();
        assert!(matches!(pop_frame(&mut s), Some(WireFrame::Ping(_))));
    }

    #[test]
    fn overflow_sheds_and_resyncs_on_drain() {
        let now = Instant::now();
        let h = host("big");
        edit(&h, 1, "seed ");
        let cfg = SessionConfig {
            outbox_cap_bytes: 96, // tiny: Hello fits, a digest flood does not
            ..SessionConfig::default()
        };
        let mut s = established(&h, cfg);
        // Flood digests until the budget blows and the queue sheds.
        for _ in 0..64 {
            s.queue_digest(now, &h, None);
        }
        assert!(s.stats().sheds > 0, "budget forced a shed");
        assert!(s.outbox().queued_bytes() <= 96);
        // Drain whatever survived. The peer has missed frames the view
        // counts as delivered, so the drain hook resets the link: a reset
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

    /// What one keystroke on each side costs the link, both directions
    /// summed, with `residents` other documents on both hosts and
    /// `agents` authors in the hot document's history.
    fn keystroke_bytes(residents: u64, agents: u32) -> usize {
        let mut p = Pair::new();
        for doc in 0..residents {
            edit(&p.ha, doc, "resident\n");
        }
        // Descending, so that the history ends on the typing agent
        // whatever its width.
        for session in (0..agents).rev() {
            edit_as(&p.ha, session, HOT, "h");
        }
        p.settle();
        assert!(p.converged());

        let before = p.bytes;
        p.type_a(0, HOT, "a");
        p.type_b(0, HOT, "b");
        p.settle();
        assert!(p.converged(), "both keystrokes on both hosts");
        assert_eq!(p.resets(), 0);
        p.bytes - before
    }

    #[test]
    fn keystroke_bytes_ignore_residents_and_history_width() {
        let base = keystroke_bytes(8, 2);
        // Two delta digests, two one-event bundles, two acknowledgements.
        assert!(base < 300, "a keystroke exchange cost {base} B");
        assert_eq!(keystroke_bytes(256, 2), base, "256 resident documents");
        assert_eq!(keystroke_bytes(8, 128), base, "128 agents in the history");
    }

    #[test]
    fn periodic_round_on_converged_pair_is_two_small_marks() {
        let mut p = Pair::new();
        for doc in 0..64 {
            edit(&p.ha, doc, "resident\n");
        }
        p.settle();
        p.marks();
        assert_eq!((p.sa.outbox().len(), p.sb.outbox().len()), (1, 1));
        assert!(p.sa.outbox_bytes() <= 32 && p.sb.outbox_bytes() <= 32);
        // Both tallies agree and nobody lacks anything: no answer.
        assert_eq!((p.a_to_b(), p.b_to_a()), (1, 1));
        assert!(p.sa.outbox().is_empty() && p.sb.outbox().is_empty());
        assert_eq!(p.resets(), 0);
    }

    #[test]
    fn lone_edit_travels_on_the_peers_next_mark_and_not_before() {
        let mut p = Pair::new();
        edit(&p.ha, HOT, "shared ");
        p.settle();

        // Alpha types; beta does not. Beta hears of the event, and does
        // not pull it.
        p.type_a(0, HOT, "x");
        p.settle();
        assert!(!p.converged(), "nothing has asked alpha for the event");
        // Alpha's own mark does not carry it either.
        p.sa.queue_mark(p.now);
        p.settle();
        assert!(!p.converged());
        // Beta's periodic mark is a frame from the peer: alpha answers it
        // with what beta lacks.
        p.sb.queue_mark(p.now);
        p.settle();
        assert!(p.converged());
        assert_eq!(p.resets(), 0);
    }

    /// The typing stall `egbench` sees a few times a run (ROADMAP, "Close
    /// the cliffs"): when alpha's digest is read before beta's own edit
    /// of the same tick, beta's event has no frame to answer. Alpha's
    /// bundle is acknowledged, not answered, and alpha does not pull, so
    /// the event waits for alpha's next mark. Pinned because the
    /// benchmark's typing inputs rely on exactly these triggers.
    #[test]
    fn digest_read_before_the_peers_edit_strands_it_until_the_next_mark() {
        let mut p = Pair::new();
        edit(&p.ha, HOT, "shared ");
        p.settle();

        p.type_a(0, HOT, "a");
        p.a_to_b();
        p.type_b(0, HOT, "b");
        p.settle();
        assert_eq!(p.hb.text(DocId(HOT)).len(), "shared ab".len());
        assert_eq!(p.ha.text(DocId(HOT)).len(), "shared a".len());

        p.sa.queue_mark(p.now);
        p.settle();
        assert!(p.converged());
        assert_eq!(p.resets(), 0);
    }

    #[test]
    fn stale_digest_gets_no_second_copy_of_queued_bundles() {
        let mut p = Pair::new();
        for doc in 0..4 {
            edit(&p.ha, doc, "a backlog for beta ");
        }
        // Hellos, then beta's (empty) opening digest: alpha queues the
        // whole backlog for it.
        p.a_to_b();
        p.b_to_a();
        let queued = p.sa.stats().bundle_bytes_out;
        assert!(queued > 0);
        let frames = p.sa.outbox().len();

        // Before any of that reaches beta, beta sends two more digests:
        // about a document of its own, and a repeat. To a session that
        // answered each digest from scratch both would show beta still
        // lacking the backlog.
        p.type_b(0, 9, "beta's own ");
        p.sb.queue_digest(p.now, &p.hb, None);
        p.b_to_a();
        assert_eq!(p.sa.stats().bundle_bytes_out, queued, "no second copy");
        assert_eq!(p.sa.outbox().len(), frames);

        p.settle();
        assert!(p.converged());
        assert_eq!(p.resets(), 0);
    }

    /// A scripted exchange touching every kind of sync frame; returns the
    /// pair after its periodic rounds.
    fn scripted(drop: Option<usize>) -> Pair {
        let mut p = Pair::new();
        p.drop = drop;
        edit(&p.ha, 1, "alpha's backlog ");
        edit(&p.hb, 2, "beta's backlog ");
        p.settle();
        p.type_a(0, HOT, "a");
        p.type_b(0, HOT, "b");
        p.settle();
        p.type_b(1, 2, "lone ");
        p.settle();
        p.type_a(1, HOT, "c");
        p.type_b(1, HOT, "d");
        p.settle();
        // Two periodic rounds: the first catches a loss (and carries the
        // lone edit), the second carries what the reset re-derived.
        for _ in 0..2 {
            p.marks();
            p.settle();
        }
        p
    }

    #[test]
    fn a_sync_frame_dropped_at_any_index_is_caught_by_the_next_mark() {
        let clean = scripted(None);
        assert!(clean.converged());
        assert_eq!(clean.resets(), 0, "nothing lost: nothing reset");
        let frames = clean.sync_frames() as usize;
        assert!(frames >= 16, "the script exercised {frames} sync frames");

        for index in 0..frames {
            let mut p = scripted(Some(index));
            assert!(p.drop.is_none(), "frame {index} was dropped");
            assert!(p.resets() >= 2, "frame {index}: both ends reset");
            assert!(p.converged(), "frame {index}: converged after the reset");
            // The tallies restarted together: a further round is quiet.
            let resets = p.resets();
            p.marks();
            p.settle();
            assert_eq!(p.resets(), resets, "frame {index}: tallies agree again");
            assert!(p.sa.outbox().is_empty() && p.sb.outbox().is_empty());
        }
    }

    #[test]
    fn both_ends_asking_for_a_reset_at_once_settle() {
        let mut p = Pair::new();
        edit(&p.ha, 1, "alpha's ");
        edit(&p.hb, 2, "beta's ");
        p.settle();
        // Lose a digest in each direction, then let both marks cross
        // before either end has seen the other's request.
        p.type_a(0, 1, "x");
        p.type_b(0, 2, "y");
        while p.sa.outbox().pop().is_some() {}
        while p.sb.outbox().pop().is_some() {}
        p.marks();
        p.settle();
        assert!(p.sa.stats().resets >= 1 && p.sb.stats().resets >= 1);
        p.marks();
        p.settle();
        assert!(p.converged());
        let resets = p.resets();
        p.marks();
        p.settle();
        assert_eq!(p.resets(), resets);
    }
}
