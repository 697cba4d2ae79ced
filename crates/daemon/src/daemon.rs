//! [`Daemon`]: a hand-rolled non-blocking reactor hosting a
//! [`ServerHost`] behind a Unix-domain socket.
//!
//! One thread runs the event loop; the heavy lifting (walk/merge,
//! persistence, wire encoding) stays on the host's shard-affinity
//! worker pool. The loop multiplexes, per iteration:
//!
//! 1. control commands (tests, the CLI bridge, the bench harness);
//! 2. accepting inbound connections (non-blocking listener);
//! 3. dialing configured peers whose backoff delay has elapsed;
//! 4. draining readable sockets into per-connection [`FrameDecoder`]s
//!    and feeding the frame bodies to each [`PeerSession`];
//! 5. timers — the periodic mark round, per-session heartbeats, and
//!    half-open detection;
//! 6. flushing per-session outboxes to writable sockets.
//!
//! There is no `epoll` (the workspace is std-only by constraint):
//! sockets are non-blocking and the loop sleeps ~1ms when an iteration
//! makes no progress, which bounds idle CPU while keeping sync latency
//! in the low milliseconds — ample for a collaboration daemon.
//!
//! Failure policy: any socket error, decode error, or session violation
//! tears down that one connection; dialed peers re-enter the
//! [`Backoff`] ladder and resume from the frontier on reconnect (a new
//! session's first digest is complete, and is the resume point). The
//! daemon itself never panics on remote input.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

use eg_dag::RemoteId;
use eg_server::{ServerConfig, ServerHost};
use eg_sync::frame::FrameDecoder;
use eg_sync::DocId;
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use serde::Value;

use crate::backoff::{splitmix64, Backoff};
use crate::control::{obj, ControlCmd, ControlMsg};
use crate::peer::{PeerSession, SessionConfig, SessionError, SessionState};

/// Everything a daemon needs to run; see field docs for defaults.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Replica name (namespaces session agents; must be unique per
    /// daemon in a deployment).
    pub name: String,
    /// Unix-domain socket path to listen on (a stale file is removed).
    pub socket: PathBuf,
    /// Peer socket paths this daemon dials and keeps dialed.
    pub peers: Vec<PathBuf>,
    /// Worker threads for the embedded host.
    pub workers: usize,
    /// Segment-store directory; `None` runs in-memory.
    pub persist_dir: Option<PathBuf>,
    /// Period of the mark round: every established peer is sent the
    /// tally of this link's sync frames, checks it against what it read,
    /// and answers with whatever this daemon still lacks.
    pub sync_interval: Duration,
    /// Heartbeat send interval (per session).
    pub heartbeat_interval: Duration,
    /// Half-open detection: drop a session silent for this long.
    pub heartbeat_timeout: Duration,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Reconnect delay cap.
    pub backoff_cap: Duration,
    /// Per-peer outbox budget in bytes (shed-and-reset past it).
    pub outbox_cap_bytes: usize,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            name: "daemon".to_owned(),
            socket: PathBuf::from("eg-daemon.sock"),
            peers: Vec::new(),
            workers: 2,
            persist_dir: None,
            sync_interval: Duration::from_millis(200),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(3),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            outbox_cap_bytes: 8 * 1024 * 1024,
            seed: 1,
        }
    }
}

/// Daemon-wide traffic and lifecycle counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonStats {
    /// Raw socket bytes read.
    pub bytes_in: u64,
    /// Raw socket bytes written.
    pub bytes_out: u64,
    /// Connections accepted.
    pub accepted: usize,
    /// Dials that reached Established after a previous connection (the
    /// reconnect count).
    pub reconnects: usize,
    /// Connections torn down (EOF, error, timeout, violation).
    pub disconnects: usize,
    /// Frames that failed to decode (connection dropped, state intact).
    pub decode_errors: usize,
}

struct Conn {
    stream: UnixStream,
    session: PeerSession,
    decoder: FrameDecoder,
    /// Frame currently being written, and how much of it has gone out.
    write_cur: Vec<u8>,
    write_pos: usize,
    /// Back-pointer into `dials` when this daemon initiated the link.
    dial_slot: Option<usize>,
}

struct DialSlot {
    path: PathBuf,
    backoff: Backoff,
    due: Instant,
    conn: Option<usize>,
    ever_connected: bool,
}

/// The reactor; construct with [`Daemon::new`], drive with
/// [`Daemon::run`] (blocking) or [`Daemon::spawn`] (own thread).
pub struct Daemon {
    config: DaemonConfig,
    host: ServerHost,
    listener: UnixListener,
    conns: Vec<Option<Conn>>,
    dials: Vec<DialSlot>,
    stats: DaemonStats,
    last_sync: Instant,
    edit_session_counter: u32,
}

impl Daemon {
    /// Binds the listen socket (replacing a stale file) and reopens
    /// persisted documents warm.
    pub fn new(config: DaemonConfig) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        let host = ServerHost::with_config(ServerConfig {
            name: config.name.clone(),
            workers: config.workers.max(1),
            persist_dir: config.persist_dir.clone(),
            ..ServerConfig::default()
        });
        let now = Instant::now();
        let dials = config
            .peers
            .iter()
            .enumerate()
            .map(|(i, path)| DialSlot {
                path: path.clone(),
                backoff: Backoff::new(
                    config.backoff_base,
                    config.backoff_cap,
                    splitmix64(config.seed ^ (i as u64)),
                ),
                due: now,
                conn: None,
                ever_connected: false,
            })
            .collect();
        Ok(Daemon {
            config,
            host,
            listener,
            conns: Vec::new(),
            dials,
            stats: DaemonStats::default(),
            last_sync: now,
            edit_session_counter: 0,
        })
    }

    /// The embedded host (for in-process embedders and tests).
    pub fn host(&self) -> &ServerHost {
        &self.host
    }

    /// Runs the daemon on its own thread, returning a control handle.
    pub fn spawn(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let daemon = Daemon::new(config)?;
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("eg-daemon".to_owned())
            .spawn(move || daemon.run(rx))?;
        Ok(DaemonHandle { ctrl: tx, thread })
    }

    fn session_config(&self) -> SessionConfig {
        SessionConfig {
            heartbeat_interval: self.config.heartbeat_interval,
            heartbeat_timeout: self.config.heartbeat_timeout,
            outbox_cap_bytes: self.config.outbox_cap_bytes,
        }
    }

    fn add_conn(&mut self, stream: UnixStream, dial_slot: Option<usize>) -> io::Result<usize> {
        stream.set_nonblocking(true)?;
        let conn = Conn {
            stream,
            session: PeerSession::connect(Instant::now(), &self.config.name, self.session_config()),
            decoder: FrameDecoder::new(),
            write_cur: Vec::new(),
            write_pos: 0,
            dial_slot,
        };
        let idx = self
            .conns
            .iter()
            .position(Option::is_none)
            .unwrap_or(self.conns.len());
        if idx == self.conns.len() {
            self.conns.push(Some(conn));
        } else {
            self.conns[idx] = Some(conn);
        }
        Ok(idx)
    }

    fn close_conn(&mut self, idx: usize, why: &str) {
        if let Some(conn) = self.conns[idx].take() {
            self.stats.disconnects += 1;
            let peer = conn.session.peer_name().unwrap_or("<pre-hello>").to_owned();
            eprintln!(
                "[{}] dropping connection to {peer}: {why}",
                self.config.name
            );
            if let Some(slot_idx) = conn.dial_slot {
                let slot = &mut self.dials[slot_idx];
                slot.conn = None;
                slot.due = Instant::now() + slot.backoff.next_delay();
            }
        }
    }

    /// One reactor pass; returns `true` when any I/O or timer progressed
    /// (so the caller knows whether to sleep).
    fn poll_once(&mut self) -> bool {
        let mut progress = false;
        let now = Instant::now();

        // Accept inbound connections.
        loop {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    self.stats.accepted += 1;
                    if self.add_conn(stream, None).is_ok() {
                        progress = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("[{}] accept error: {e}", self.config.name);
                    break;
                }
            }
        }

        // Dial due peers.
        for i in 0..self.dials.len() {
            if self.dials[i].conn.is_some() || now < self.dials[i].due {
                continue;
            }
            let path = self.dials[i].path.clone();
            match UnixStream::connect(&path) {
                Ok(stream) => match self.add_conn(stream, Some(i)) {
                    Ok(idx) => {
                        self.dials[i].conn = Some(idx);
                        progress = true;
                    }
                    Err(_) => {
                        let delay = self.dials[i].backoff.next_delay();
                        self.dials[i].due = now + delay;
                    }
                },
                Err(_) => {
                    let delay = self.dials[i].backoff.next_delay();
                    self.dials[i].due = now + delay;
                }
            }
        }

        // Periodic mark round.
        if now.duration_since(self.last_sync) >= self.config.sync_interval {
            self.last_sync = now;
            self.mark_peers(now);
        }

        // Per-connection I/O and timers.
        let mut to_close: Vec<(usize, String)> = Vec::new();
        // Documents that gained events from a peer, and which one.
        let mut gained: Vec<(usize, Vec<DocId>)> = Vec::new();
        for idx in 0..self.conns.len() {
            let Some(mut conn) = self.conns[idx].take() else {
                continue;
            };
            let mut dead: Option<String> = None;

            // Read everything available.
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        dead = Some("peer closed the connection".to_owned());
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        self.stats.bytes_in += n as u64;
                        conn.decoder.push(&buf[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        dead = Some(format!("read error: {e}"));
                        break;
                    }
                }
            }

            // Dispatch complete frames.
            while dead.is_none() {
                match conn.decoder.next_frame() {
                    Ok(Some(body)) => {
                        let was_established = conn.session.state() == SessionState::Established;
                        match conn.session.on_frame(now, &body, &mut self.host) {
                            Ok(docs) => {
                                if !docs.is_empty() {
                                    gained.push((idx, docs));
                                }
                                if !was_established
                                    && conn.session.state() == SessionState::Established
                                    && conn
                                        .dial_slot
                                        .map(|s| self.dials[s].ever_connected)
                                        .unwrap_or(false)
                                {
                                    self.stats.reconnects += 1;
                                }
                                if conn.session.state() == SessionState::Established {
                                    if let Some(slot) = conn.dial_slot {
                                        self.dials[slot].ever_connected = true;
                                        self.dials[slot].backoff.reset();
                                    }
                                }
                            }
                            Err(e) => {
                                if matches!(e, SessionError::Decode(_)) {
                                    self.stats.decode_errors += 1;
                                }
                                dead = Some(e.to_string());
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.stats.decode_errors += 1;
                        dead = Some(format!("frame decode error: {e}"));
                    }
                }
            }

            // Heartbeats and half-open detection.
            if dead.is_none() {
                if let Err(e) = conn.session.on_tick(now) {
                    dead = Some(e.to_string());
                }
            }

            // Flush the outbox.
            while dead.is_none() {
                if conn.write_pos >= conn.write_cur.len() {
                    match conn.session.outbox().pop() {
                        Some(frame) => {
                            conn.write_cur = frame;
                            conn.write_pos = 0;
                        }
                        None => break,
                    }
                }
                match conn.stream.write(&conn.write_cur[conn.write_pos..]) {
                    Ok(0) => {
                        dead = Some("write returned zero".to_owned());
                    }
                    Ok(n) => {
                        progress = true;
                        self.stats.bytes_out += n as u64;
                        conn.write_pos += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        dead = Some(format!("write error: {e}"));
                    }
                }
            }
            if dead.is_none()
                && conn.write_pos >= conn.write_cur.len()
                && conn.session.outbox().is_empty()
            {
                conn.session.on_drained(now, &self.host);
            }

            self.conns[idx] = Some(conn);
            if let Some(why) = dead {
                to_close.push((idx, why));
            }
        }
        for (idx, why) in to_close {
            progress = true;
            self.close_conn(idx, &why);
        }
        // What one peer brought is a local change to every other link:
        // say so there, or those views would never learn of it.
        for (from, docs) in gained {
            self.tell_peers(now, Some(&docs), Some(from));
        }
        progress
    }

    /// Tells every established peer but `except` what changed in `docs`
    /// (`None`: look at every document).
    fn tell_peers(&mut self, now: Instant, docs: Option<&[DocId]>, except: Option<usize>) {
        for (idx, conn) in self.conns.iter_mut().enumerate() {
            if let Some(conn) = conn.as_mut().filter(|_| Some(idx) != except) {
                conn.session.local_change(now, &self.host, docs);
            }
        }
    }

    /// Sends every established peer its periodic mark.
    fn mark_peers(&mut self, now: Instant) {
        for conn in self.conns.iter_mut().flatten() {
            conn.session.mark(now);
        }
    }

    fn handle_cmd(&mut self, cmd: ControlCmd) -> (Value, bool) {
        match cmd {
            ControlCmd::Edit { doc, at, text } => {
                // Each control edit gets its own session slot so repeated
                // edits interleave like distinct keystroke bursts.
                let session = self.edit_session_counter;
                self.edit_session_counter = self.edit_session_counter.wrapping_add(1) % 64;
                let script: std::sync::Arc<[FleetOp]> = vec![FleetOp::Insert {
                    session,
                    doc,
                    at,
                    text,
                }]
                .into();
                self.host.submit_script(&script);
                self.host.flush();
                self.tell_peers(Instant::now(), Some(&[DocId(doc)]), None);
                (obj(vec![("ok", Value::Bool(true))]), false)
            }
            ControlCmd::Script {
                docs,
                sessions,
                edits,
                seed,
            } => {
                let spec = FleetSpec {
                    docs: docs.max(1),
                    sessions: sessions.max(1),
                    edits,
                    seed,
                    ..FleetSpec::default()
                };
                let script: std::sync::Arc<[FleetOp]> = fleet_workload(&spec).into();
                let submitted = self.host.submit_script(&script);
                self.host.flush();
                self.tell_peers(Instant::now(), None, None);
                (
                    obj(vec![
                        ("ok", Value::Bool(true)),
                        ("edits", Value::UInt(submitted as u64)),
                    ]),
                    false,
                )
            }
            ControlCmd::Snapshot { full } => {
                let snap = self.host.snapshot();
                let hash = snapshot_hash(&snap);
                let mut fields = vec![
                    ("ok", Value::Bool(true)),
                    ("hash", Value::Str(format!("{hash:016x}"))),
                    ("docs", Value::UInt(snap.len() as u64)),
                ];
                let texts;
                if full {
                    texts = Value::Arr(
                        snap.iter()
                            .map(|(doc, version, text)| {
                                obj(vec![
                                    ("doc", Value::UInt(doc.0)),
                                    ("version_len", Value::UInt(version.len() as u64)),
                                    ("text", Value::Str(text.clone())),
                                ])
                            })
                            .collect(),
                    );
                    fields.push(("texts", texts));
                }
                (obj(fields), false)
            }
            ControlCmd::Status => {
                let peers = Value::Arr(
                    self.conns
                        .iter()
                        .flatten()
                        .map(|c| {
                            let stats = c.session.stats();
                            obj(vec![
                                (
                                    "peer",
                                    Value::Str(
                                        c.session.peer_name().unwrap_or("<pre-hello>").to_owned(),
                                    ),
                                ),
                                (
                                    "established",
                                    Value::Bool(c.session.state() == SessionState::Established),
                                ),
                                ("dialed", Value::Bool(c.dial_slot.is_some())),
                                ("outbox_bytes", Value::UInt(c.session.outbox_bytes() as u64)),
                                ("digest_bytes_out", Value::UInt(stats.digest_bytes_out)),
                                ("bundle_bytes_out", Value::UInt(stats.bundle_bytes_out)),
                                ("resets", Value::UInt(stats.resets as u64)),
                                ("sheds", Value::UInt(stats.sheds as u64)),
                            ])
                        })
                        .collect(),
                );
                let persist = self.host.persist_stats();
                (
                    obj(vec![
                        ("ok", Value::Bool(true)),
                        ("name", Value::Str(self.config.name.clone())),
                        ("peers", peers),
                        ("bytes_in", Value::UInt(self.stats.bytes_in)),
                        ("bytes_out", Value::UInt(self.stats.bytes_out)),
                        ("accepted", Value::UInt(self.stats.accepted as u64)),
                        ("reconnects", Value::UInt(self.stats.reconnects as u64)),
                        ("disconnects", Value::UInt(self.stats.disconnects as u64)),
                        (
                            "decode_errors",
                            Value::UInt(self.stats.decode_errors as u64),
                        ),
                        ("docs_loaded", Value::UInt(persist.docs_loaded as u64)),
                        ("store_bytes", Value::UInt(persist.store_bytes)),
                        (
                            "checkpoints_written",
                            Value::UInt(persist.checkpoints_written),
                        ),
                        ("bytes_written", Value::UInt(persist.bytes_written)),
                    ]),
                    false,
                )
            }
            ControlCmd::Checkpoint => {
                let written = self.host.checkpoint_all();
                (
                    obj(vec![
                        ("ok", Value::Bool(true)),
                        ("written", Value::UInt(written as u64)),
                    ]),
                    false,
                )
            }
            ControlCmd::SyncNow => {
                self.mark_peers(Instant::now());
                (obj(vec![("ok", Value::Bool(true))]), false)
            }
            ControlCmd::Shutdown => {
                let written = self.host.checkpoint_all();
                (
                    obj(vec![
                        ("ok", Value::Bool(true)),
                        ("checkpoints", Value::UInt(written as u64)),
                    ]),
                    true,
                )
            }
        }
    }

    /// Blocks running the reactor until a Shutdown command (or every
    /// control sender hangs up).
    pub fn run(mut self, ctrl: Receiver<ControlMsg>) {
        loop {
            let mut progress = false;
            loop {
                match ctrl.try_recv() {
                    Ok(msg) => {
                        progress = true;
                        let (reply, quit) = self.handle_cmd(msg.cmd);
                        let _ = msg.reply.send(reply);
                        if quit {
                            let _ = std::fs::remove_file(&self.config.socket);
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        let _ = std::fs::remove_file(&self.config.socket);
                        return;
                    }
                }
            }
            if self.poll_once() {
                progress = true;
            }
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Control handle to a daemon running on its own thread (see
/// [`Daemon::spawn`]).
pub struct DaemonHandle {
    ctrl: Sender<ControlMsg>,
    thread: std::thread::JoinHandle<()>,
}

impl DaemonHandle {
    /// Sends a command and waits for its reply; `None` when the daemon
    /// has exited.
    pub fn control(&self, cmd: ControlCmd) -> Option<Value> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.ctrl.send(ControlMsg { cmd, reply: tx }).ok()?;
        rx.recv().ok()
    }

    /// Orderly shutdown: checkpoint, stop the reactor, join the thread.
    pub fn shutdown(self) {
        let _ = self.control(ControlCmd::Shutdown);
        let _ = self.thread.join();
    }
}

/// FNV-1a over the canonical snapshot: doc ids, versions (agent + seq),
/// and text. Two daemons agree on this hash iff their non-empty document
/// sets are byte-identical.
pub fn snapshot_hash(snapshot: &[(DocId, Vec<RemoteId>, String)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for (doc, version, text) in snapshot {
        eat(&doc.0.to_le_bytes());
        eat(&(version.len() as u64).to_le_bytes());
        for id in version {
            eat(&(id.agent.len() as u64).to_le_bytes());
            eat(id.agent.as_bytes());
            eat(&(id.seq as u64).to_le_bytes());
        }
        eat(&(text.len() as u64).to_le_bytes());
        eat(text.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn snapshot_hash_discriminates() {
        let a = vec![(
            DocId(1),
            vec![RemoteId {
                agent: "alice".into(),
                seq: 4,
            }],
            "hello".to_owned(),
        )];
        let mut b = a.clone();
        assert_eq!(snapshot_hash(&a), snapshot_hash(&b));
        b[0].2.push('!');
        assert_ne!(snapshot_hash(&a), snapshot_hash(&b));
        let mut c = a.clone();
        c[0].1[0].seq = 5;
        assert_ne!(snapshot_hash(&a), snapshot_hash(&c));
        assert_ne!(snapshot_hash(&a), snapshot_hash(&[]));
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eg-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast(name: &str, sock: &Path, peers: Vec<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            name: name.to_owned(),
            socket: sock.to_path_buf(),
            peers,
            workers: 1,
            sync_interval: Duration::from_millis(20),
            ..DaemonConfig::default()
        }
    }

    /// Polls until every daemon reports the same hash over `docs`
    /// documents; `false` after 20 s.
    fn await_same(daemons: &[&DaemonHandle], docs: u64) -> bool {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let snaps: Vec<Value> = daemons
                .iter()
                .map(|d| d.control(ControlCmd::Snapshot { full: false }).unwrap())
                .collect();
            let same = snaps.iter().all(|s| {
                s.get_field("hash") == snaps[0].get_field("hash")
                    && s.get_field("docs") == Some(&Value::UInt(docs))
            });
            if same || Instant::now() > deadline {
                return same;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn two_in_process_daemons_converge_over_sockets() {
        let dir = scratch_dir("unit");
        let sock_a = dir.join("a.sock");
        let sock_b = dir.join("b.sock");
        let a = Daemon::spawn(fast("alpha", &sock_a, vec![])).unwrap();
        let b = Daemon::spawn(fast("beta", &sock_b, vec![sock_a.clone()])).unwrap();

        a.control(ControlCmd::Edit {
            doc: 1,
            at: 0,
            text: "from-alpha ".into(),
        })
        .unwrap();
        b.control(ControlCmd::Edit {
            doc: 2,
            at: 0,
            text: "from-beta ".into(),
        })
        .unwrap();

        assert!(
            await_same(&[&a, &b], 2),
            "daemons converged over the Unix socket"
        );
        // The link's counters are readable from outside.
        let status = b.control(ControlCmd::Status).unwrap();
        let Some(Value::Arr(peers)) = status.get_field("peers") else {
            panic!("status lists peers: {status:?}");
        };
        for key in ["digest_bytes_out", "bundle_bytes_out"] {
            assert!(
                matches!(peers[0].get_field(key), Some(Value::UInt(n)) if *n > 0),
                "{key} in {status:?}"
            );
        }
        for key in ["resets", "sheds"] {
            assert_eq!(peers[0].get_field(key), Some(&Value::UInt(0)), "{key}");
        }
        b.shutdown();
        a.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// alpha ← beta ← gamma: what beta receives on one link is a local
    /// change on the other, so it has to announce it there — the views
    /// are per link, and gamma's would otherwise never show it lacking.
    #[test]
    fn events_relay_through_a_middle_daemon_both_ways() {
        let dir = scratch_dir("relay");
        let socks = ["a", "b", "c"].map(|n| dir.join(format!("{n}.sock")));
        let a = Daemon::spawn(fast("alpha", &socks[0], vec![])).unwrap();
        let b = Daemon::spawn(fast("beta", &socks[1], vec![socks[0].clone()])).unwrap();
        let c = Daemon::spawn(fast("gamma", &socks[2], vec![socks[1].clone()])).unwrap();
        // Let both links open first, so that nothing below rides on a
        // session's opening digest.
        let deadline = Instant::now() + Duration::from_secs(20);
        let links_up = |d: &DaemonHandle| {
            let status = d.control(ControlCmd::Status).unwrap();
            match status.get_field("peers") {
                Some(Value::Arr(peers)) => peers
                    .iter()
                    .filter(|p| p.get_field("established") == Some(&Value::Bool(true)))
                    .count(),
                _ => 0,
            }
        };
        while links_up(&b) < 2 || links_up(&a) < 1 || links_up(&c) < 1 {
            assert!(Instant::now() < deadline, "links did not open");
            std::thread::sleep(Duration::from_millis(5));
        }

        for (daemon, doc) in [(&a, 1), (&c, 3)] {
            daemon
                .control(ControlCmd::Edit {
                    doc,
                    at: 0,
                    text: format!("doc {doc} "),
                })
                .unwrap();
        }
        assert!(await_same(&[&a, &b, &c], 2), "both ends' edits everywhere");
        c.shutdown();
        b.shutdown();
        a.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
