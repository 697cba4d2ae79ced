//! [`FaultProxy`]: socket-level fault injection between two daemons.
//!
//! The simulator's transport exercises the replica layer in process;
//! this proxy exercises the real thing — byte streams over Unix sockets.
//! It listens on one path, forwards to an upstream path, and injects
//! faults *frame-aware* (it reframes the stream with the same
//! [`FrameDecoder`] the daemons use). Each frame's fate comes from the
//! one seeded [`eg_sync::FaultSchedule`], drawn from an
//! [`eg_sync::FaultSpec`] exactly as the simulator draws it, and is
//! carried out on the stream:
//!
//! | fault     | wire effect                                          |
//! |-----------|------------------------------------------------------|
//! | drop      | a whole frame vanishes                               |
//! | duplicate | a frame is delivered twice                           |
//! | delay     | the pump sleeps up to `max_extra_delay` ms in line,  |
//! |           | so later frames wait behind it (no reordering)       |
//! | corrupt   | half a frame is written, then the link is cut        |
//! | partition | both directions blackholed; new dials die instantly  |
//!
//! Only sync frames are fault targets — the link contract
//! `eg_sync::SyncLink` is written against, which the simulator keeps
//! too. Hello/Ping/Pong pass untouched so the fault pressure lands on
//! sync traffic rather than on the handshake — a schedule that only ever
//! killed handshakes would test the backoff ladder and nothing else —
//! and so do Mark/Reset: they are how the link notices that a sync frame
//! was dropped or repeated, and a proxy that ate the audit as well would
//! only be testing the heartbeat timeout. A corrupted frame still severs
//! the link mid-frame, which is exactly the half-open / torn-stream case
//! the decoder and reconnect path must survive. Partitions are a command
//! ([`FaultProxy::partition`]); the spec's scheduled windows are a
//! simulator input and are not consulted here.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use eg_sync::frame::{is_bundle_body, FrameDecoder};
use eg_sync::{FaultSchedule, FaultSpec, FaultStats};

use crate::backoff::splitmix64;

#[derive(Default)]
struct Shared {
    partitioned: AtomicBool,
    shutdown: AtomicBool,
    faults: Mutex<FaultStats>,
    bundle_bytes_forwarded: AtomicU64,
}

impl Shared {
    /// The fault counters. Every update is one increment, so the counts
    /// a panicked pump left behind are still valid.
    fn faults(&self) -> std::sync::MutexGuard<'_, FaultStats> {
        self.faults.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running fault proxy; dropping it (or calling
/// [`FaultProxy::shutdown`]) stops all pump threads.
pub struct FaultProxy {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listens on `listen`, forwarding each connection to `upstream`
    /// with faults drawn from `faults`; each direction of each
    /// connection has its own schedule, seeded from `seed`.
    pub fn spawn(
        listen: PathBuf,
        upstream: PathBuf,
        faults: FaultSpec,
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
                                shared_accept.faults().blocked += 1;
                                drop(client);
                                continue;
                            }
                            let Ok(server) = UnixStream::connect(&upstream) else {
                                continue;
                            };
                            for (k, (from, to)) in [(&client, &server), (&server, &client)]
                                .into_iter()
                                .enumerate()
                            {
                                let seed = splitmix64(seed ^ (conn_seq * 2 + k as u64));
                                let schedule = FaultSchedule::new(faults.clone(), seed);
                                pumps.extend(pump(from, to, schedule, Arc::clone(&shared_accept)));
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

    /// Injected faults over both directions of every connection;
    /// `blocked` counts connections a partition refused or severed.
    pub fn stats(&self) -> FaultStats {
        *self.shared.faults()
    }

    /// Bytes of event-bundle frames forwarded whole, over both
    /// directions: the actual event transfer, as opposed to digest and
    /// heartbeat chatter.
    pub fn bundle_bytes_forwarded(&self) -> u64 {
        self.shared.bundle_bytes_forwarded.load(Ordering::Relaxed)
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
/// sockets failed (that direction is simply not carried).
fn pump(
    from: &UnixStream,
    to: &UnixStream,
    schedule: FaultSchedule,
    shared: Arc<Shared>,
) -> Option<JoinHandle<()>> {
    let (from, to) = (from.try_clone().ok()?, to.try_clone().ok()?);
    std::thread::Builder::new()
        .name("eg-proxy-pump".to_owned())
        .spawn(move || pump_main(from, to, schedule, shared))
        .ok()
}

/// What the pump does with one frame read from the stream.
#[derive(Debug, PartialEq, Eq)]
struct Step<'a> {
    /// How long to stall before writing, in milliseconds; the frames
    /// behind wait too.
    delay_ms: u64,
    /// The bytes to write, in order.
    write: Vec<&'a [u8]>,
    /// Whether to close the link after writing.
    sever: bool,
}

/// Asks `schedule` for the fate of `frame` (length prefix included),
/// counts it in `stats`, and says how to carry it out on a byte stream:
/// a corrupted frame is written half and severs the link.
fn step<'a>(schedule: &mut FaultSchedule, stats: &mut FaultStats, frame: &'a [u8]) -> Step<'a> {
    let fate = schedule.fate(frame);
    stats.record(&fate);
    if fate.corrupt.is_some() {
        return Step {
            delay_ms: 0,
            write: vec![&frame[..frame.len() / 2]],
            sever: true,
        };
    }
    Step {
        delay_ms: fate.delay,
        write: vec![frame; fate.copies],
        sever: false,
    }
}

fn pump_main(
    mut from: UnixStream,
    mut to: UnixStream,
    mut schedule: FaultSchedule,
    shared: Arc<Shared>,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let sever = |from: &UnixStream, to: &UnixStream| {
        let _ = to.shutdown(std::net::Shutdown::Both);
        let _ = from.shutdown(std::net::Shutdown::Both);
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.partitioned.load(Ordering::SeqCst) {
            shared.faults().blocked += 1;
            sever(&from, &to);
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
                    let step = step(&mut schedule, &mut shared.faults(), &frame);
                    if step.delay_ms > 0 {
                        std::thread::sleep(Duration::from_millis(step.delay_ms));
                    }
                    for bytes in &step.write {
                        if to.write_all(bytes).is_err() {
                            sever(&from, &to);
                            return;
                        }
                    }
                    if step.sever {
                        sever(&from, &to);
                        return;
                    }
                    if is_bundle_body(&body) {
                        let bytes = frame.len() * step.write.len();
                        shared
                            .bundle_bytes_forwarded
                            .fetch_add(bytes as u64, Ordering::Relaxed);
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // The stream itself is un-frameable (should not
                    // happen — daemons emit well-formed frames); sever.
                    sever(&from, &to);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eg_sync::frame::{frame_sync, FrameTally, WireFrame, PROTOCOL_VERSION};
    use eg_sync::{InMemoryTransport, LinkConfig};

    /// Every fault class at `per_mille`, delays up to 12.
    fn spec(per_mille: u16) -> FaultSpec {
        FaultSpec {
            drop_per_mille: per_mille,
            duplicate_per_mille: per_mille,
            corrupt_per_mille: per_mille,
            delay_per_mille: per_mille,
            max_extra_delay: 12,
            partitions: Vec::new(),
        }
    }

    /// A sync frame of `len` payload bytes, each `n`.
    fn sync(n: u8, len: usize) -> Vec<u8> {
        frame_sync(&vec![n; len])
    }

    /// A schedule with only the fault class `set` switches on.
    fn only(set: impl FnOnce(&mut FaultSpec)) -> FaultSchedule {
        let mut spec = FaultSpec::default();
        set(&mut spec);
        FaultSchedule::new(spec, 9)
    }

    #[test]
    fn handshake_heartbeat_and_audit_frames_pass_every_fault() {
        let mut schedule = FaultSchedule::new(spec(1000), 1);
        let mut stats = FaultStats::default();
        let frames = [
            WireFrame::Hello {
                proto: PROTOCOL_VERSION,
                name: "peer".into(),
            },
            WireFrame::Ping(7),
            WireFrame::Pong(7),
            WireFrame::Mark(FrameTally::default()),
            WireFrame::Reset { echo: false },
            WireFrame::Reset { echo: true },
        ]
        .map(|f| f.encode());
        for frame in &frames {
            let expected = Step {
                delay_ms: 0,
                write: vec![&frame[..]],
                sever: false,
            };
            assert_eq!(step(&mut schedule, &mut stats, frame), expected);
        }
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn duplicated_sync_frame_is_written_twice() {
        let mut schedule = only(|s| s.duplicate_per_mille = 1000);
        let mut stats = FaultStats::default();
        let frame = sync(1, 40);
        let out = step(&mut schedule, &mut stats, &frame);
        assert_eq!(out.write, vec![&frame[..], &frame[..]]);
        assert!(!out.sever);
        assert_eq!(stats.duplicated, 1);
    }

    #[test]
    fn corrupted_sync_frame_is_cut_and_severs_the_link() {
        let mut schedule = only(|s| s.corrupt_per_mille = 1000);
        let mut stats = FaultStats::default();
        let frame = sync(1, 40);
        let out = step(&mut schedule, &mut stats, &frame);
        assert_eq!(out.write, vec![&frame[..frame.len() / 2]]);
        assert!(out.sever);
        assert_eq!(stats.corrupted, 1);
    }

    /// The proxy and the simulator's transport draw every decision from
    /// the same schedule: for one seed, spec and frame sequence, each
    /// frame is dropped, repeated, held back and corrupted alike.
    #[test]
    fn decisions_match_the_simulator_transport() {
        const GAP: u64 = 100;
        for seed in [1u64, 2, 3, 42] {
            let mut schedule = FaultSchedule::new(spec(150), seed);
            let mut stats = FaultStats::default();
            let link = LinkConfig {
                min_delay: 1,
                max_delay: 1,
            };
            let mut sim = InMemoryTransport::new(link, spec(150), seed);
            for i in 0..300u64 {
                let frame = match i % 5 {
                    4 => WireFrame::Mark(FrameTally::default()).encode(),
                    k => sync(i as u8, 8 + 16 * k as usize),
                };
                let sent = i * GAP;
                sim.send(sent, 0, 1, frame.clone());
                let mut got = Vec::new();
                for now in sent..sent + GAP {
                    got.extend(sim.poll(now).into_iter().map(|d| (now, d.payload)));
                }
                let out = step(&mut schedule, &mut stats, &frame);
                if out.sever {
                    assert!(!got.is_empty(), "frame {i}");
                    assert!(got.iter().all(|(_, p)| *p != frame), "frame {i}");
                    continue;
                }
                assert_eq!(got.len(), out.write.len(), "frame {i}");
                assert!(got.iter().all(|(_, p)| *p == frame), "frame {i}");
                assert!(out.write.iter().all(|w| *w == frame), "frame {i}");
                if let Some((at, _)) = got.first() {
                    assert_eq!(*at, sent + 1 + out.delay_ms, "frame {i}");
                }
            }
            assert_eq!(stats, sim.stats());
            assert!(stats.dropped > 0 && stats.duplicated > 0);
            assert!(stats.corrupted > 0 && stats.delayed > 0);
        }
    }
}
