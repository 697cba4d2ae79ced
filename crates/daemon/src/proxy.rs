//! [`FaultProxy`]: socket-level fault injection between two daemons.
//!
//! The in-process [`eg_sync::FaultyTransport`] exercises the replica
//! layer; this proxy exercises the real thing — byte streams over Unix
//! sockets. It listens on one path, forwards to an upstream path, and
//! injects faults *frame-aware* (it reframes the stream with the same
//! [`FrameDecoder`] the daemons use), on a deterministic SplitMix64
//! schedule:
//!
//! | fault     | wire effect                                          |
//! |-----------|------------------------------------------------------|
//! | drop      | a whole frame vanishes                               |
//! | duplicate | a frame is delivered twice                           |
//! | delay     | a frame stalls up to `max_delay`; the pump sleeps in |
//! |           | line, so later frames wait behind it (no reordering) |
//! | truncate  | half a frame is written, then the link is cut        |
//! | partition | both directions blackholed; new dials die instantly  |
//!
//! Only sync frames are fault targets — the link contract
//! `eg_sync::SyncLink` is written against, which `eg_sync::FaultyTransport`
//! keeps in process too. Hello/Ping/Pong pass untouched so the fault
//! pressure lands on sync traffic rather than on the handshake — a
//! schedule that only ever killed handshakes would test the backoff
//! ladder and nothing else — and so do Mark/Reset: they are how the link
//! notices that a sync frame was dropped or repeated, and a proxy that
//! ate the audit as well would only be testing the heartbeat timeout.
//! Truncation still severs the link mid-frame, which is exactly the
//! half-open / torn-stream case the decoder and reconnect path must
//! survive.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use eg_sync::frame::{is_bundle_body, FrameDecoder, TAG_SYNC};

use crate::backoff::splitmix64;

/// Per-frame fault probabilities (parts per thousand) for one proxy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyFaults {
    /// Chance a sync frame is silently dropped.
    pub drop_per_mille: u16,
    /// Chance a sync frame is forwarded twice.
    pub duplicate_per_mille: u16,
    /// Chance a sync frame stalls before forwarding.
    pub delay_per_mille: u16,
    /// Upper bound of an injected stall.
    pub max_delay: Duration,
    /// Chance a sync frame is cut in half and the link severed.
    pub truncate_per_mille: u16,
}

impl ProxyFaults {
    /// A flat schedule: every fault class at `per_mille`, stalls up to
    /// 20ms.
    pub fn uniform(per_mille: u16) -> ProxyFaults {
        ProxyFaults {
            drop_per_mille: per_mille,
            duplicate_per_mille: per_mille,
            delay_per_mille: per_mille,
            max_delay: Duration::from_millis(20),
            truncate_per_mille: per_mille / 2,
        }
    }
}

/// Aggregate counters over both directions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Frames forwarded intact.
    pub frames_forwarded: u64,
    /// Frames dropped.
    pub frames_dropped: u64,
    /// Frames duplicated.
    pub frames_duplicated: u64,
    /// Frames delayed.
    pub frames_delayed: u64,
    /// Frames truncated (each also severed its connection).
    pub frames_truncated: u64,
    /// Application bytes forwarded (sum of both directions).
    pub bytes_forwarded: u64,
    /// Subset of `bytes_forwarded` carrying event-bundle batches — the
    /// actual event transfer, as opposed to digest/heartbeat chatter.
    /// The reconnect byte-accounting test keys off this.
    pub bundle_bytes_forwarded: u64,
    /// Connections refused or severed by an active partition.
    pub partition_kills: u64,
}

#[derive(Default)]
struct Shared {
    partitioned: AtomicBool,
    shutdown: AtomicBool,
    frames_forwarded: AtomicU64,
    frames_dropped: AtomicU64,
    frames_duplicated: AtomicU64,
    frames_delayed: AtomicU64,
    frames_truncated: AtomicU64,
    bytes_forwarded: AtomicU64,
    bundle_bytes_forwarded: AtomicU64,
    partition_kills: AtomicU64,
}

/// A running fault proxy; dropping it (or calling
/// [`FaultProxy::shutdown`]) stops all pump threads.
pub struct FaultProxy {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listens on `listen`, forwarding each connection to `upstream`
    /// with the fault schedule seeded by `seed`.
    pub fn spawn(
        listen: PathBuf,
        upstream: PathBuf,
        faults: ProxyFaults,
        seed: u64,
    ) -> io::Result<FaultProxy> {
        let _ = std::fs::remove_file(&listen);
        let listener = UnixListener::bind(&listen)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::default());
        let shared_accept = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("eg-fault-proxy".to_owned())
            .spawn(move || {
                let mut conn_seq = 0u64;
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                while !shared_accept.shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            conn_seq += 1;
                            if shared_accept.partitioned.load(Ordering::SeqCst) {
                                // Refuse by accept-then-close: the dialer
                                // sees an instant EOF and re-enters
                                // backoff.
                                shared_accept
                                    .partition_kills
                                    .fetch_add(1, Ordering::Relaxed);
                                drop(client);
                                continue;
                            }
                            match UnixStream::connect(&upstream) {
                                Ok(server) => {
                                    let up = pump(
                                        client.try_clone(),
                                        server.try_clone(),
                                        faults,
                                        splitmix64(seed ^ (conn_seq * 2)),
                                        Arc::clone(&shared_accept),
                                    );
                                    let down = pump(
                                        server.try_clone(),
                                        client.try_clone(),
                                        faults,
                                        splitmix64(seed ^ (conn_seq * 2 + 1)),
                                        Arc::clone(&shared_accept),
                                    );
                                    pumps.extend(up);
                                    pumps.extend(down);
                                }
                                Err(_) => drop(client),
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for p in pumps {
                    let _ = p.join();
                }
            })?;
        Ok(FaultProxy {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// Turns the partition on or off. While on, existing connections are
    /// severed (pumps notice within their read timeout) and new dials
    /// die instantly.
    pub fn partition(&self, on: bool) {
        self.shared.partitioned.store(on, Ordering::SeqCst);
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            frames_forwarded: self.shared.frames_forwarded.load(Ordering::Relaxed),
            frames_dropped: self.shared.frames_dropped.load(Ordering::Relaxed),
            frames_duplicated: self.shared.frames_duplicated.load(Ordering::Relaxed),
            frames_delayed: self.shared.frames_delayed.load(Ordering::Relaxed),
            frames_truncated: self.shared.frames_truncated.load(Ordering::Relaxed),
            bytes_forwarded: self.shared.bytes_forwarded.load(Ordering::Relaxed),
            bundle_bytes_forwarded: self.shared.bundle_bytes_forwarded.load(Ordering::Relaxed),
            partition_kills: self.shared.partition_kills.load(Ordering::Relaxed),
        }
    }

    /// Stops the proxy and joins its threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns one directional pump thread; returns `None` if cloning the
/// sockets failed (the connection is simply dropped).
fn pump(
    from: io::Result<UnixStream>,
    to: io::Result<UnixStream>,
    faults: ProxyFaults,
    seed: u64,
    shared: Arc<Shared>,
) -> Option<JoinHandle<()>> {
    let (from, to) = match (from, to) {
        (Ok(f), Ok(t)) => (f, t),
        _ => return None,
    };
    std::thread::Builder::new()
        .name("eg-proxy-pump".to_owned())
        .spawn(move || pump_main(from, to, faults, seed, shared))
        .ok()
}

fn pump_main(
    mut from: UnixStream,
    mut to: UnixStream,
    faults: ProxyFaults,
    seed: u64,
    shared: Arc<Shared>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut rolls = seed;
    fn roll(state: &mut u64, per_mille: u16) -> bool {
        *state = splitmix64(*state);
        per_mille > 0 && (*state % 1000) < u64::from(per_mille)
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.partitioned.load(Ordering::SeqCst) {
            shared.partition_kills.fetch_add(1, Ordering::Relaxed);
            let _ = from.shutdown(std::net::Shutdown::Both);
            let _ = to.shutdown(std::net::Shutdown::Both);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: propagate and stop.
                let _ = to.shutdown(std::net::Shutdown::Both);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                let _ = to.shutdown(std::net::Shutdown::Both);
                return;
            }
        };
        decoder.push(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(body)) => {
                    // Re-frame: 4-byte LE length prefix + body, exactly
                    // what was read.
                    let mut frame = Vec::with_capacity(4 + body.len());
                    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
                    frame.extend_from_slice(&body);
                    // Only sync frames are fault targets; the handshake,
                    // heartbeats and the mark/reset audit pass clean (see
                    // module docs).
                    let is_sync = body.first() == Some(&TAG_SYNC);
                    if is_sync && roll(&mut rolls, faults.drop_per_mille) {
                        shared.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if is_sync && roll(&mut rolls, faults.truncate_per_mille) {
                        shared.frames_truncated.fetch_add(1, Ordering::Relaxed);
                        let half = frame.len() / 2;
                        let _ = to.write_all(&frame[..half]);
                        let _ = to.shutdown(std::net::Shutdown::Both);
                        let _ = from.shutdown(std::net::Shutdown::Both);
                        return;
                    }
                    if is_sync && roll(&mut rolls, faults.delay_per_mille) {
                        shared.frames_delayed.fetch_add(1, Ordering::Relaxed);
                        let ms = faults.max_delay.as_millis() as u64;
                        if ms > 0 {
                            rolls = splitmix64(rolls);
                            std::thread::sleep(Duration::from_millis(rolls % (ms + 1)));
                        }
                    }
                    let copies = if is_sync && roll(&mut rolls, faults.duplicate_per_mille) {
                        shared.frames_duplicated.fetch_add(1, Ordering::Relaxed);
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        if to.write_all(&frame).is_err() {
                            let _ = from.shutdown(std::net::Shutdown::Both);
                            return;
                        }
                        shared.frames_forwarded.fetch_add(1, Ordering::Relaxed);
                        shared
                            .bytes_forwarded
                            .fetch_add(frame.len() as u64, Ordering::Relaxed);
                        if is_bundle_body(&body) {
                            shared
                                .bundle_bytes_forwarded
                                .fetch_add(frame.len() as u64, Ordering::Relaxed);
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // The stream itself is un-frameable (should not
                    // happen — daemons emit well-formed frames); sever.
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    let _ = from.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
    }
}
