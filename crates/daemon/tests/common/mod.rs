//! Shared harness for the daemon integration tests: spawns the real
//! `eg-daemon` binary as a child OS process and drives it over the
//! newline-delimited JSON control protocol on its stdin/stdout.
#![allow(dead_code)]

use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static UNIQUE: AtomicU64 = AtomicU64::new(0);

/// A scratch directory removed on drop; socket paths live here too so
/// they stay well under the Unix `sun_path` limit.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("egd-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Options for spawning a daemon process; defaults are tuned fast for
/// tests (25ms mark rounds, 10ms reconnect base).
pub struct DaemonOpts {
    pub name: String,
    pub socket: PathBuf,
    pub peers: Vec<PathBuf>,
    pub persist: Option<PathBuf>,
    pub sync_ms: u64,
    pub heartbeat_ms: u64,
    pub timeout_ms: u64,
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    pub seed: u64,
}

impl DaemonOpts {
    pub fn new(name: &str, socket: PathBuf) -> DaemonOpts {
        DaemonOpts {
            name: name.to_owned(),
            socket,
            peers: Vec::new(),
            persist: None,
            sync_ms: 25,
            heartbeat_ms: 100,
            timeout_ms: 1500,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            seed: 1,
        }
    }

    pub fn peer(mut self, p: &Path) -> DaemonOpts {
        self.peers.push(p.to_owned());
        self
    }

    pub fn persist(mut self, dir: &Path) -> DaemonOpts {
        self.persist = Some(dir.to_owned());
        self
    }
}

/// A running `eg-daemon` child process plus its control pipes.
pub struct DaemonProc {
    pub name: String,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl DaemonProc {
    /// Spawns the compiled `eg-daemon` binary (Cargo points
    /// `CARGO_BIN_EXE_eg-daemon` at it for integration tests).
    pub fn spawn(opts: &DaemonOpts) -> DaemonProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_eg-daemon"));
        cmd.arg("--name")
            .arg(&opts.name)
            .arg("--socket")
            .arg(&opts.socket)
            .arg("--sync-ms")
            .arg(opts.sync_ms.to_string())
            .arg("--heartbeat-ms")
            .arg(opts.heartbeat_ms.to_string())
            .arg("--timeout-ms")
            .arg(opts.timeout_ms.to_string())
            .arg("--backoff-base-ms")
            .arg(opts.backoff_base_ms.to_string())
            .arg("--backoff-cap-ms")
            .arg(opts.backoff_cap_ms.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string());
        for p in &opts.peers {
            cmd.arg("--peer").arg(p);
        }
        if let Some(dir) = &opts.persist {
            cmd.arg("--persist").arg(dir);
        }
        // `EG_TEST_STDERR=1` surfaces the daemons' stderr logs when
        // debugging a failing run; they are noise otherwise.
        let stderr = if std::env::var_os("EG_TEST_STDERR").is_some() {
            Stdio::inherit()
        } else {
            Stdio::null()
        };
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn eg-daemon");
        let stdin = child.stdin.take().expect("child stdin");
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        DaemonProc {
            name: opts.name.clone(),
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one JSON command line and reads the one JSON reply line.
    pub fn cmd(&mut self, line: &str) -> Value {
        writeln!(self.stdin, "{line}").expect("write command");
        self.stdin.flush().expect("flush command");
        let mut reply = String::new();
        let n = self.stdout.read_line(&mut reply).expect("read reply");
        assert!(n > 0, "[{}] daemon closed stdout mid-protocol", self.name);
        serde_json::from_str(&reply)
            .unwrap_or_else(|e| panic!("[{}] bad reply {reply:?}: {e}", self.name))
    }

    /// `cmd`, asserting the reply has `"ok": true`.
    pub fn cmd_ok(&mut self, line: &str) -> Value {
        let v = self.cmd(line);
        assert_eq!(
            v.get_field("ok"),
            Some(&Value::Bool(true)),
            "[{}] command {line} failed: {v:?}",
            self.name
        );
        v
    }

    /// The snapshot hash string (16 hex digits) and document count.
    pub fn snapshot(&mut self) -> (String, u64) {
        let v = self.cmd_ok(r#"{"cmd":"snapshot"}"#);
        let hash = match v.get_field("hash") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("[{}] bad hash field {other:?}", self.name),
        };
        let docs = match v.get_field("docs") {
            Some(Value::UInt(n)) => *n,
            other => panic!("[{}] bad docs field {other:?}", self.name),
        };
        (hash, docs)
    }

    /// Every document's text, sorted by id — the byte-identical check.
    pub fn full_texts(&mut self) -> Vec<(u64, String)> {
        let v = self.cmd_ok(r#"{"cmd":"snapshot","full":true}"#);
        let Some(Value::Arr(items)) = v.get_field("texts") else {
            panic!("[{}] snapshot full missing texts", self.name);
        };
        let mut out = Vec::new();
        for item in items {
            let doc = match item.get_field("doc") {
                Some(Value::UInt(n)) => *n,
                other => panic!("bad doc field {other:?}"),
            };
            let text = match item.get_field("text") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("bad text field {other:?}"),
            };
            out.push((doc, text));
        }
        out.sort();
        out
    }

    /// A named counter out of the `status` reply.
    pub fn status_counter(&mut self, field: &str) -> u64 {
        let v = self.cmd_ok(r#"{"cmd":"status"}"#);
        match v.get_field(field) {
            Some(Value::UInt(n)) => *n,
            other => panic!("[{}] status field {field}: {other:?}", self.name),
        }
    }

    /// Graceful stop: `shutdown` command, then reap the child.
    pub fn shutdown(mut self) {
        let _ = writeln!(self.stdin, r#"{{"cmd":"shutdown"}}"#);
        let _ = self.stdin.flush();
        let mut reply = String::new();
        let _ = self.stdout.read_line(&mut reply);
        let _ = self.child.wait();
    }

    /// SIGKILL — no warning, no flush, the crash-recovery case.
    pub fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls until the daemon reports at least one established dialed peer
/// link; panics at `deadline`. Tests that assert on reconnect counters
/// need the *first* connection pinned down before they cut it.
pub fn await_established(d: &mut DaemonProc, deadline: Duration) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        let status = d.cmd_ok(r#"{"cmd":"status"}"#);
        if let Some(Value::Arr(peers)) = status.get_field("peers") {
            let up = peers.iter().any(|p| {
                p.get_field("dialed") == Some(&Value::Bool(true))
                    && p.get_field("established") == Some(&Value::Bool(true))
            });
            if up {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("[{}] no established peer within {deadline:?}", d.name);
}

/// Polls until both daemons report the same snapshot hash with at least
/// `min_docs` documents; panics at `deadline`.
pub fn await_convergence(
    a: &mut DaemonProc,
    b: &mut DaemonProc,
    min_docs: u64,
    deadline: Duration,
) {
    let start = Instant::now();
    let mut last = (String::new(), String::new(), 0, 0);
    while start.elapsed() < deadline {
        let (ha, da) = a.snapshot();
        let (hb, db) = b.snapshot();
        if ha == hb && da >= min_docs && db >= min_docs {
            return;
        }
        last = (ha, hb, da, db);
        std::thread::sleep(Duration::from_millis(40));
    }
    panic!(
        "no convergence within {deadline:?}: {}={} ({} docs) vs {}={} ({} docs)",
        a.name, last.0, last.2, b.name, last.1, last.3
    );
}
