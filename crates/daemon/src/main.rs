//! `eg-daemon`: the cross-process sync daemon binary.
//!
//! Listens on a Unix-domain socket, dials configured peers (with
//! reconnect backoff), and bridges a newline-delimited JSON control
//! protocol between stdin and stdout — one reply line per command line
//! (see `crates/daemon/README.md` for the command set). Logs go to
//! stderr.
//!
//! ```text
//! eg-daemon --name alpha --socket /tmp/a.sock \
//!           --peer /tmp/b.sock --persist /var/lib/eg/alpha
//! ```

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use eg_daemon::control::{err_reply, ControlMsg};
use eg_daemon::{parse_cmd, Daemon, DaemonConfig};

fn usage() -> &'static str {
    "usage: eg-daemon --name NAME --socket PATH [options]\n\
     \n\
     options:\n\
       --name NAME          replica name (unique per deployment)\n\
       --socket PATH        Unix socket to listen on\n\
       --peer PATH          peer socket to dial (repeatable)\n\
       --persist DIR        segment-store directory (omit for in-memory)\n\
       --workers N          worker threads (default 2)\n\
       --sync-ms N          mark round period (default 200)\n\
       --heartbeat-ms N     heartbeat interval (default 500)\n\
       --timeout-ms N       heartbeat timeout (default 3000)\n\
       --backoff-base-ms N  first reconnect delay (default 50)\n\
       --backoff-cap-ms N   reconnect delay cap (default 2000)\n\
       --seed N             jitter seed (default 1)\n"
}

fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut cfg = DaemonConfig::default();
    let mut socket_set = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--name" => cfg.name = grab("--name")?,
            "--socket" => {
                cfg.socket = PathBuf::from(grab("--socket")?);
                socket_set = true;
            }
            "--peer" => cfg.peers.push(PathBuf::from(grab("--peer")?)),
            "--persist" => cfg.persist_dir = Some(PathBuf::from(grab("--persist")?)),
            "--workers" => {
                cfg.workers = grab("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be a number".to_owned())?
            }
            "--sync-ms" => cfg.sync_interval = ms(&grab("--sync-ms")?, "--sync-ms")?,
            "--heartbeat-ms" => {
                cfg.session.heartbeat_interval = ms(&grab("--heartbeat-ms")?, "--heartbeat-ms")?
            }
            "--timeout-ms" => {
                cfg.session.heartbeat_timeout = ms(&grab("--timeout-ms")?, "--timeout-ms")?
            }
            "--backoff-base-ms" => {
                cfg.backoff_base = ms(&grab("--backoff-base-ms")?, "--backoff-base-ms")?
            }
            "--backoff-cap-ms" => {
                cfg.backoff_cap = ms(&grab("--backoff-cap-ms")?, "--backoff-cap-ms")?
            }
            "--seed" => {
                cfg.seed = grab("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a number".to_owned())?
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }
    if !socket_set {
        return Err(format!("--socket is required\n\n{}", usage()));
    }
    Ok(cfg)
}

fn ms(s: &str, flag: &str) -> Result<Duration, String> {
    s.parse::<u64>()
        .map(Duration::from_millis)
        .map_err(|_| format!("{flag} must be milliseconds"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let name = cfg.name.clone();
    let daemon = match Daemon::new(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("[{name}] failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Stdin bridge: one thread reads command lines and relays them to
    // the reactor; each reply is streamed to stdout as one JSON line.
    let (tx, rx) = mpsc::channel::<ControlMsg>();
    let bridge = std::thread::Builder::new()
        .name("eg-daemon-stdin".to_owned())
        .spawn(move || {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                let reply_value = match parse_cmd(&line) {
                    Ok(cmd) => {
                        let (reply_tx, reply_rx) = mpsc::channel();
                        if tx
                            .send(ControlMsg {
                                cmd,
                                reply: reply_tx,
                            })
                            .is_err()
                        {
                            break;
                        }
                        match reply_rx.recv() {
                            Ok(v) => v,
                            Err(_) => break,
                        }
                    }
                    Err(e) => err_reply(&e),
                };
                let mut out = stdout.lock();
                if serde_json::to_writer(&mut out, &reply_value).is_err() {
                    break;
                }
                if out.write_all(b"\n").and_then(|_| out.flush()).is_err() {
                    break;
                }
            }
            // Stdin closed: dropping the sender shuts the reactor down.
        });
    if bridge.is_err() {
        eprintln!("[{name}] failed to start stdin bridge");
        return ExitCode::FAILURE;
    }

    daemon.run(rx);
    ExitCode::SUCCESS
}
