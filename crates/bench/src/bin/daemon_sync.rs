//! Daemon-mode sync cost: convergence time and wire bytes for two
//! `eg-daemon` reactors syncing a seeded fleet workload over a
//! Unix-domain socket, with a fault proxy injecting loss at 0%, 1%,
//! and 5%.
//!
//! Unlike the in-process benches this measures the full socket path —
//! frame codec, session handshake, delta digests answered with
//! bundles, and (under faults) the periodic mark that detects a lost
//! frame plus the reset that re-derives what it carried. Numbers are therefore *latency-bound by the sync
//! interval*, not throughput-bound: see bench-results/README.md before
//! comparing against the in-process figures.
//!
//! Byte counters under faults depend on how many mark rounds and
//! resets elapse before convergence, which is wall-clock sensitive; they are reported
//! for inspection but deliberately named so `bench_diff` does not
//! regression-check them.

use eg_bench::harness::{fmt_bytes, fmt_time, json_num, json_str, parse_args, row, write_json};
use eg_daemon::{ControlCmd, Daemon, DaemonConfig, DaemonHandle, FaultProxy, ProxyFaults};
use serde::Value;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fault rates swept, in per-mille (‰): clean link, 1%, 5%.
const FAULT_PER_MILLE: [u16; 3] = [0, 10, 50];

/// A scratch directory for sockets, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("eg-daemon-sync-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(name: &str, socket: PathBuf, peers: Vec<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        name: name.to_owned(),
        socket,
        peers,
        sync_interval: Duration::from_millis(25),
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_millis(1500),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(200),
        ..DaemonConfig::default()
    }
}

fn snapshot(handle: &DaemonHandle) -> (String, u64) {
    let v = handle
        .control(ControlCmd::Snapshot { full: false })
        .expect("daemon thread alive");
    let hash = match v.get_field("hash") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("bad hash field {other:?}"),
    };
    let docs = match v.get_field("docs") {
        Some(Value::UInt(n)) => *n,
        other => panic!("bad docs field {other:?}"),
    };
    (hash, docs)
}

/// One measured round at a given fault rate: two daemons, seeded
/// workloads on both sides, wall-clock until their snapshot hashes
/// agree. Returns `(converge_seconds, proxy_stats)`.
fn run_round(per_mille: u16, edits: usize) -> (f64, eg_daemon::ProxyStats) {
    let scratch = ScratchDir::new(&format!("f{per_mille}"));
    let sock_a = scratch.0.join("a.sock");
    let sock_b = scratch.0.join("b.sock");
    let sock_proxy = scratch.0.join("p.sock");

    let alpha = Daemon::spawn(config("alpha", sock_a.clone(), Vec::new())).expect("spawn alpha");
    let faults = ProxyFaults::uniform(per_mille);
    let proxy = FaultProxy::spawn(
        sock_proxy.clone(),
        sock_a,
        faults,
        0xB000 + per_mille as u64,
    )
    .expect("spawn proxy");
    let beta = Daemon::spawn(config("beta", sock_b, vec![sock_proxy])).expect("spawn beta");

    let script = |seed: u64| ControlCmd::Script {
        docs: 4,
        sessions: 4,
        edits,
        seed,
    };
    let start = Instant::now();
    alpha.control(script(101)).expect("alpha script");
    beta.control(script(202)).expect("beta script");

    let deadline = start + Duration::from_secs(180);
    loop {
        let (ha, da) = snapshot(&alpha);
        let (hb, db) = snapshot(&beta);
        if ha == hb && da >= 4 && db >= 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no convergence at {per_mille}‰ within 180s: {ha} ({da} docs) vs {hb} ({db} docs)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let converge = start.elapsed().as_secs_f64();

    let stats = proxy.stats();
    beta.shutdown();
    proxy.shutdown();
    alpha.shutdown();
    (converge, stats)
}

fn main() {
    let args = parse_args();
    // Edits per side; 0.02 scale → 500, enough for several bundle frames
    // per document without making the 5% round crawl.
    let edits = ((args.scale * 25_000.0).round() as usize).max(100);
    let widths = [8, 12, 12, 12, 10];
    println!(
        "Daemon sync over Unix socket (scale {:.3}, {edits} edits/side) — fault-rate sweep",
        args.scale
    );
    println!(
        "{}",
        row(
            &["faults", "converge", "wire", "bundles", "injected"].map(String::from),
            &widths
        )
    );
    let mut json_rows = Vec::new();
    for per_mille in FAULT_PER_MILLE {
        let (converge, stats) = run_round(per_mille, edits);
        let injected = stats.frames_dropped
            + stats.frames_duplicated
            + stats.frames_delayed
            + stats.frames_truncated;
        println!(
            "{}",
            row(
                &[
                    format!("{:.1}%", per_mille as f64 / 10.0),
                    fmt_time(converge),
                    fmt_bytes(stats.bytes_forwarded as usize),
                    fmt_bytes(stats.bundle_bytes_forwarded as usize),
                    injected.to_string(),
                ],
                &widths
            )
        );
        json_rows.push(vec![
            ("name", json_str(&format!("fault_{per_mille}pm"))),
            ("fault_per_mille", json_num(per_mille as f64)),
            ("edits_per_side", json_num(edits as f64)),
            ("converge_s", json_num(converge)),
            // Wire counters are round-count sensitive under faults:
            // named to stay outside bench_diff's checked suffixes.
            ("wire_b", json_num(stats.bytes_forwarded as f64)),
            (
                "bundle_wire_b",
                json_num(stats.bundle_bytes_forwarded as f64),
            ),
            ("faults_injected", json_num(injected as f64)),
        ]);
    }
    println!("\n(latency-bound by the 25ms sync interval; see bench-results/README.md)");
    if let Some(path) = &args.json {
        write_json(path, "daemon_sync", args.scale, &json_rows);
    }
}
