//! The daemon stages: live typing and catch-up between two `eg-daemon`
//! reactors over a Unix socket, and (in the traced pass) the same catch-up
//! taken apart on two in-process `ServerHost`s.
//!
//! Load is generated by this one thread. Daemons run `workers: 1`, otherwise
//! `DaemonConfig::default()`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eg_daemon::{ControlCmd, Daemon, DaemonConfig, DaemonHandle};
use eg_server::{ServerConfig, ServerHost};
use eg_sync::{FrameDecoder, Message, WireFrame};
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use serde::Value;

use crate::lanes::Rng;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Metrics, Tally};

/// Open-loop typing rate. At 100 ticks/s the daemons fall behind on two
/// cores (ticks get issued tens of milliseconds late), so the generator, not
/// the system, would be measured; 40 leaves the generator on time.
pub const TICKS_PER_S: u64 = 40;
const TICK: Duration = Duration::from_millis(1000 / TICKS_PER_S);
const TICK_TIMEOUT: Duration = Duration::from_secs(2);
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);
/// Pause between two convergence polls. A poll makes each reactor hash its
/// whole snapshot, so polling flat out would take the core the daemons need:
/// the pause is a few percent of what is being timed.
const TICK_POLL: Duration = Duration::from_micros(200);
const ROUND_POLL: Duration = Duration::from_millis(15);
/// Small documents resident on both daemons while the hot one is typed into.
const RESIDENT_DOCS: u64 = 64;
const HOT_DOC: u64 = 1000;
/// `eg_daemon`'s private `BUNDLE_DOCS_PER_FRAME`: how the session chunks a
/// bundle backlog into frames.
const DOCS_PER_FRAME: usize = 32;

/// Where the daemon stages keep their sockets and stores, and what they run.
#[derive(Clone, Copy)]
pub struct Net<'a> {
    pub dir: &'a Path,
    pub sizes: Sizes,
    pub seed: u64,
}

/// Input sizes of the two stages; `--quick` shrinks them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Script edits that fill the resident documents.
    pub resident_edits: usize,
    /// The catch-up script, applied with one seed on each side.
    pub docs: u64,
    pub sessions: usize,
    pub edits: usize,
}

fn spec(sizes: &Sizes, seed: u64) -> FleetSpec {
    FleetSpec {
        docs: sizes.docs,
        sessions: sizes.sessions,
        edits: sizes.edits,
        seed,
        ..FleetSpec::default()
    }
}

fn script_cmd(sizes: &Sizes, seed: u64) -> ControlCmd {
    ControlCmd::Script {
        docs: sizes.docs,
        sessions: sizes.sessions,
        edits: sizes.edits,
        seed,
    }
}

fn spawn(name: &str, dir: &Path, dial: Option<&str>, persist: bool) -> DaemonHandle {
    Daemon::spawn(DaemonConfig {
        name: name.to_owned(),
        socket: dir.join(format!("{name}.sock")),
        peers: dial
            .map(|peer| dir.join(format!("{peer}.sock")))
            .into_iter()
            .collect(),
        workers: 1,
        persist_dir: persist.then(|| dir.join(name)),
        ..DaemonConfig::default()
    })
    .expect("spawn daemon")
}

fn ask(daemon: &DaemonHandle, cmd: ControlCmd) -> Value {
    daemon.control(cmd).expect("daemon thread is alive")
}

/// The snapshot hash and the number of non-empty documents behind it.
fn snapshot(daemon: &DaemonHandle) -> (String, u64) {
    let reply = ask(daemon, ControlCmd::Snapshot { full: false });
    match (reply.get_field("hash"), reply.get_field("docs")) {
        (Some(Value::Str(hash)), Some(Value::UInt(docs))) => (hash.clone(), *docs),
        _ => panic!("malformed snapshot reply {reply:?}"),
    }
}

/// Socket bytes the daemon has read and written so far.
fn wire_bytes(daemon: &DaemonHandle) -> u64 {
    let reply = ask(daemon, ControlCmd::Status);
    ["bytes_in", "bytes_out"]
        .iter()
        .map(|key| match reply.get_field(key) {
            Some(Value::UInt(n)) => *n,
            _ => panic!("malformed status reply {reply:?}"),
        })
        .sum()
}

/// Polls until both daemons report the same hash over at least `docs`
/// documents; `None` when `deadline` passes first.
fn converged(
    a: &DaemonHandle,
    b: &DaemonHandle,
    docs: u64,
    poll: Duration,
    deadline: Instant,
) -> Option<String> {
    loop {
        let (ha, da) = snapshot(a);
        let (hb, db) = snapshot(b);
        if ha == hb && da >= docs && db >= docs {
            return Some(ha);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::sleep(poll);
    }
}

/// Samples of the typing stage, in seconds and bytes.
pub struct Typing {
    pub setup: Vec<f64>,
    converge: Vec<f64>,
    late: Vec<f64>,
    wire_per_tick: f64,
    /// `Status` round trips and socket bytes per second on the idle pair;
    /// sampled only in the traced pass.
    control_rtt: Vec<f64>,
    idle_wire_per_s: f64,
    pub hash: String,
}

/// Two connected daemons with [`RESIDENT_DOCS`] small documents on both.
fn resident_pair(net: &Net, tally: &mut Tally) -> (DaemonHandle, DaemonHandle) {
    let Net { dir, sizes, seed } = *net;
    let alpha = spawn("alpha", dir, None, false);
    let beta = spawn("beta", dir, Some("alpha"), false);
    ask(
        &alpha,
        ControlCmd::Script {
            docs: RESIDENT_DOCS,
            sessions: 8,
            edits: sizes.resident_edits,
            seed,
        },
    );
    // The script's popularity skew leaves some documents untouched.
    for doc in 0..RESIDENT_DOCS {
        ask(
            &alpha,
            ControlCmd::Edit {
                doc,
                at: 0,
                text: "resident\n".to_owned(),
            },
        );
    }
    let deadline = Instant::now() + ROUND_TIMEOUT;
    tally.attempted += 1;
    if converged(&alpha, &beta, RESIDENT_DOCS, ROUND_POLL, deadline).is_none() {
        tally.fail("resident documents did not reach beta within 60 s");
    }
    (alpha, beta)
}

/// Both sides insert one character into the hot document per tick, open
/// loop; a tick is timed from when it was due until both snapshot hashes are
/// equal.
pub fn typing(
    net: &Net,
    ticks: usize,
    setups: usize,
    idle_probe: Option<Duration>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Typing {
    let mut setup = Vec::new();
    let mut pair = None;
    for i in 0..setups {
        if let Some((alpha, beta)) = pair.take() {
            shutdown(beta, alpha);
        }
        let (p, t) = tracer.span("daemon.spawn_resident_pair", i, |_| {
            resident_pair(net, tally)
        });
        setup.push(t);
        pair = Some(p);
    }
    let (alpha, beta) = pair.expect("at least one set-up");
    // Let the preload's trailing digests drain before anything is timed.
    std::thread::sleep(Duration::from_millis(200));

    let mut control_rtt = Vec::new();
    let mut idle_wire_per_s = 0.0;
    if let Some(idle) = idle_probe {
        for _ in 0..100 {
            // Back-to-back commands would keep the reactor out of its idle
            // sleep, which is most of what an idle round trip costs.
            std::thread::sleep(Duration::from_millis(3));
            let t = Instant::now();
            wire_bytes(&alpha);
            control_rtt.push(t.elapsed().as_secs_f64());
        }
        let (before, t) = (wire_bytes(&alpha), Instant::now());
        std::thread::sleep(idle);
        idle_wire_per_s = (wire_bytes(&alpha) - before) as f64 / t.elapsed().as_secs_f64();
    }

    let mut rng = Rng::new(net.seed);
    let key = |rng: &mut Rng, daemon: &DaemonHandle| {
        let text = char::from(b'a' + rng.below(26) as u8).to_string();
        ask(
            daemon,
            ControlCmd::Edit {
                doc: HOT_DOC,
                at: rng.next() >> 1,
                text,
            },
        );
    };
    let (mut converge, mut late) = (Vec::with_capacity(ticks), Vec::with_capacity(ticks));
    let wire_before = wire_bytes(&alpha);
    let start = Instant::now();
    let mut hash = String::new();
    for i in 0..ticks {
        let due = start + TICK * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tally.attempted += 1;
        let (done, _) = tracer.span("daemon.tick", i, |_| {
            late.push(due.elapsed().as_secs_f64());
            key(&mut rng, &alpha);
            key(&mut rng, &beta);
            converged(
                &alpha,
                &beta,
                RESIDENT_DOCS + 1,
                TICK_POLL,
                due + TICK_TIMEOUT,
            )
        });
        converge.push(due.elapsed().as_secs_f64());
        match done {
            Some(h) => hash = h,
            None => tally.fail("tick did not converge within 2 s"),
        }
    }
    let wire_per_tick = (wire_bytes(&alpha) - wire_before) as f64 / ticks as f64;
    shutdown(beta, alpha);
    Typing {
        setup,
        converge,
        late,
        wire_per_tick,
        control_rtt,
        idle_wire_per_s,
        hash,
    }
}

/// The dialling side goes first, so that nobody redials a dead socket.
fn shutdown(dialler: DaemonHandle, listener: DaemonHandle) {
    dialler.shutdown();
    listener.shutdown();
}

impl Typing {
    pub fn ticks(&self) -> usize {
        self.converge.len()
    }

    pub fn end_to_end(&self, out: &mut Metrics) {
        out.push(("converge_p50_ms", median(&self.converge) * 1e3));
        out.push(("wire_bytes_per_tick", self.wire_per_tick));
    }

    pub fn layers(&self, out: &mut Metrics) {
        let quarter = (self.converge.len() / 4).max(1);
        let first = median(&self.converge[..quarter]);
        let last = median(&self.converge[self.converge.len() - quarter..]);
        out.push(("daemon.control_rtt_us", median(&self.control_rtt) * 1e6));
        out.push(("daemon.idle_wire_bytes_per_s", self.idle_wire_per_s));
        out.push((
            "daemon.converge_p90_ms",
            quantile(&self.converge, 0.9) * 1e3,
        ));
        out.push((
            "daemon.converge_p99_ms",
            quantile(&self.converge, 0.99) * 1e3,
        ));
        out.push(("daemon.converge_drift_x", last / first));
        out.push(("daemon.generator_late_p50_ms", median(&self.late) * 1e3));
    }
}

/// Samples of the catch-up stage, one entry per round.
#[derive(Default)]
pub struct Catchup {
    pub prep: Vec<f64>,
    seconds: Vec<f64>,
    wire: Vec<f64>,
    edits: usize,
    pub hash: String,
}

impl Catchup {
    /// Runs rounds for `budget`, at least one. Each round: alpha applies the
    /// script; beta applies it with another seed, offline, into a persist
    /// directory and shuts down; beta is respawned dialling alpha. Timed from
    /// the respawn until both snapshot hashes are equal. Every round starts
    /// from nothing and uses the same two seeds, so the rounds repeat one
    /// piece of work.
    pub fn rounds(&mut self, net: &Net, budget: Duration, tracer: &mut Tracer, tally: &mut Tally) {
        let Net { dir, sizes, seed } = *net;
        self.edits = 2 * sizes.edits;
        let start = Instant::now();
        let first = self.seconds.len();
        while self.seconds.len() == first || start.elapsed() < budget {
            let round = self.seconds.len();
            let dir = dir.join(format!("r{round}"));
            std::fs::create_dir_all(&dir).expect("create round directory");
            let (alpha, t) = tracer.span("daemon.catchup_prepare", round, |_| {
                let alpha = spawn("alpha", &dir, None, false);
                ask(&alpha, script_cmd(&sizes, seed));
                let beta = spawn("beta", &dir, None, true);
                ask(&beta, script_cmd(&sizes, seed ^ 1));
                beta.shutdown();
                alpha
            });
            self.prep.push(t);

            tally.attempted += 1;
            let wire_before = wire_bytes(&alpha);
            let ((beta, done), t) = tracer.span("daemon.catchup", round, |_| {
                let deadline = Instant::now() + ROUND_TIMEOUT;
                let beta = spawn("beta", &dir, Some("alpha"), true);
                let done = converged(&alpha, &beta, 1, ROUND_POLL, deadline);
                (beta, done)
            });
            self.seconds.push(t);
            self.wire.push((wire_bytes(&alpha) - wire_before) as f64);
            match done {
                Some(hash) => {
                    tally.check(
                        self.hash.is_empty() || self.hash == hash,
                        "catch-up rounds ended in different states",
                    );
                    self.hash = hash;
                }
                None => tally.fail("catch-up did not converge within 60 s"),
            }
            shutdown(beta, alpha);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    pub fn rounds_run(&self) -> usize {
        self.seconds.len()
    }

    pub fn end_to_end(&self, out: &mut Metrics) {
        out.push((
            "catchup_edits_per_s",
            self.edits as f64 / median(&self.seconds),
        ));
        out.push((
            "catchup_wire_bytes_per_edit",
            median(&self.wire) / self.edits as f64,
        ));
    }
}

/// The same catch-up on two in-process hosts, one call at a time. Both
/// directions of each step are summed into one sample per rebuild.
#[derive(Default)]
pub struct Staged {
    apply: Vec<f64>,
    flush_wait: Vec<f64>,
    digest: Vec<f64>,
    bundles_for: Vec<f64>,
    frame_encode: Vec<f64>,
    frame_decode: Vec<f64>,
    receive: Vec<f64>,
    bundle_bytes: usize,
    edits: usize,
}

pub fn staged(net: &Net, rebuilds: usize, tracer: &mut Tracer, tally: &mut Tally) -> Staged {
    let Net { dir, sizes, seed } = *net;
    let mut out = Staged {
        edits: sizes.edits,
        ..Staged::default()
    };
    let scripts: [Arc<[FleetOp]>; 2] = [
        fleet_workload(&spec(&sizes, seed)).into(),
        fleet_workload(&spec(&sizes, seed ^ 1)).into(),
    ];
    for rep in 0..rebuilds {
        let persist = dir.join(format!("staged{rep}"));
        let hosts =
            [("alpha", None), ("beta", Some(persist.clone()))].map(|(name, persist_dir)| {
                ServerHost::with_config(ServerConfig {
                    name: name.to_owned(),
                    workers: 1,
                    persist_dir,
                    ..ServerConfig::default()
                })
            });
        for (host, script) in hosts.iter().zip(&scripts) {
            let ((), total) = tracer.span("server.apply_script", rep, |tracer| {
                tracer.span("server.submit_script", rep, |_| host.submit_script(script));
                let ((), wait) = tracer.span("server.flush", rep, |_| host.flush());
                out.flush_wait.push(wait);
            });
            out.apply.push(total);
        }

        let mut sums = [0.0; 5];
        let mut bytes = 0;
        for (src, dst) in [(&hosts[0], &hosts[1]), (&hosts[1], &hosts[0])] {
            let (digest, t) = tracer.span("sync.digest_all", rep, |_| dst.digest_all());
            sums[0] += t;
            let (bundles, t) = tracer.span("sync.bundles_for", rep, |_| src.bundles_for(&digest));
            sums[1] += t;
            let (frames, t) = tracer.span("sync.frame_encode", rep, |_| {
                bundles
                    .chunks(DOCS_PER_FRAME)
                    .map(|chunk| WireFrame::Sync(Message::Bundles(chunk.to_vec())).encode())
                    .collect::<Vec<_>>()
            });
            sums[2] += t;
            bytes += frames.iter().map(Vec::len).sum::<usize>();
            let (incoming, t) = tracer.span("sync.frame_decode", rep, |_| {
                let mut decoder = FrameDecoder::new();
                let mut incoming = Vec::new();
                for frame in &frames {
                    decoder.push(frame);
                    while let Ok(Some(WireFrame::Sync(Message::Bundles(batch)))) =
                        decoder.next_wire_frame()
                    {
                        incoming.extend(batch);
                    }
                }
                incoming
            });
            sums[3] += t;
            let ((), t) = tracer.span("sync.receive", rep, |_| {
                dst.receive_bundles(incoming);
                dst.flush();
            });
            sums[4] += t;
        }
        tally.attempted += 1;
        tally.check(
            hosts[0].converged_with(&hosts[1]),
            "staged catch-up did not converge",
        );
        tally.check(
            out.bundle_bytes == 0 || out.bundle_bytes == bytes,
            "staged bundle bytes differ between rebuilds",
        );
        out.bundle_bytes = bytes;
        out.digest.push(sums[0]);
        out.bundles_for.push(sums[1]);
        out.frame_encode.push(sums[2]);
        out.frame_decode.push(sums[3]);
        out.receive.push(sums[4]);
        drop(hosts);
        let _ = std::fs::remove_dir_all(&persist);
    }
    out
}

impl Staged {
    pub fn layers(&self, catchup: &Catchup, out: &mut Metrics) {
        let steps = [
            &self.digest,
            &self.bundles_for,
            &self.frame_encode,
            &self.frame_decode,
            &self.receive,
        ];
        let names = [
            "sync.digest_us",
            "sync.bundles_for_us",
            "sync.frame_encode_us",
            "sync.frame_decode_us",
            "sync.receive_us",
        ];
        for (name, samples) in names.iter().zip(steps) {
            out.push((name, median(samples) * 1e6));
        }
        out.push(("sync.bundle_bytes", self.bundle_bytes as f64));
        out.push((
            "server.apply_ops_per_s",
            self.edits as f64 / median(&self.apply),
        ));
        out.push(("server.flush_wait_us", median(&self.flush_wait) * 1e6));
        let staged: f64 = steps.iter().map(|s| median(s)).sum();
        out.push((
            "daemon.resend_x",
            median(&catchup.wire) / self.bundle_bytes as f64,
        ));
        out.push((
            "daemon.unaccounted_ms",
            (median(&catchup.seconds) - staged) * 1e3,
        ));
    }
}
