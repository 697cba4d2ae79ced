//! Fault-injection suite: two OS processes converge through a proxy
//! that drops, duplicates, delays, and corrupts (half a frame, then a
//! cut link) sync frames on a seeded schedule.
//!
//! The tier-1 sweep pins a handful of seeds; the `#[ignore]` campaign
//! is the open-ended nightly companion:
//!
//! ```text
//! EG_FAULT_SECS=120 cargo test -p eg-daemon --test fault_injection \
//!     --release -- --ignored --nocapture
//! ```

mod common;

use common::{await_convergence, DaemonOpts, DaemonProc, TempDir};
use eg_daemon::FaultProxy;
use eg_sync::{FaultSpec, FaultStats};
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const DOCS: u64 = 4;
const SESSIONS: usize = 4;

/// A flat schedule: drop, duplicate and delay at `per_mille`, delays up
/// to 20 ms, and corruption at half that rate.
fn uniform(per_mille: u16) -> FaultSpec {
    FaultSpec {
        drop_per_mille: per_mille,
        duplicate_per_mille: per_mille,
        delay_per_mille: per_mille,
        max_extra_delay: 20,
        corrupt_per_mille: per_mille / 2,
        partitions: Vec::new(),
    }
}

/// Runs one faulted convergence round: alpha listens, the proxy
/// mangles, beta dials through it, both run seeded workloads, and the
/// pair must converge. Returns the proxy's fault counters.
fn faulted_round(seed: u64, faults: FaultSpec, edits: u64, deadline: Duration) -> FaultStats {
    let tmp = TempDir::new(&format!("fault-{seed}"));
    let sock_a = tmp.path("a.sock");
    let sock_b = tmp.path("b.sock");
    let sock_proxy = tmp.path("p.sock");

    let mut a = DaemonProc::spawn(&DaemonOpts::new("alpha", sock_a.clone()));
    let proxy = FaultProxy::spawn(sock_proxy.clone(), sock_a, faults, seed).expect("spawn proxy");
    let mut b = DaemonProc::spawn(&DaemonOpts::new("beta", sock_b).peer(&sock_proxy));

    // The popularity skew leaves some of the four documents untouched
    // under some seeds, so count the ones the two scripts do create: the
    // daemon's `script` command runs exactly these specs.
    let seeds = [1, 2].map(|k| seed.wrapping_mul(2).wrapping_add(k));
    let mut edited = BTreeSet::new();
    for (daemon, script_seed) in [&mut a, &mut b].into_iter().zip(seeds) {
        let spec = FleetSpec {
            docs: DOCS,
            sessions: SESSIONS,
            edits: edits as usize,
            seed: script_seed,
            ..FleetSpec::default()
        };
        edited.extend(fleet_workload(&spec).iter().filter_map(|op| match op {
            FleetOp::Insert { doc, .. } => Some(*doc),
            _ => None,
        }));
        daemon.cmd_ok(&format!(
            r#"{{"cmd":"script","docs":{DOCS},"sessions":{SESSIONS},"edits":{edits},"seed":{script_seed}}}"#
        ));
    }

    await_convergence(&mut a, &mut b, edited.len() as u64, deadline);
    assert_eq!(a.full_texts(), b.full_texts(), "seed {seed}");

    let stats = proxy.stats();
    b.shutdown();
    proxy.shutdown();
    a.shutdown();
    stats
}

#[test]
fn seeded_fault_schedules_all_converge() {
    let mut injected = 0usize;
    for seed in [3u64, 17, 29] {
        let stats = faulted_round(seed, uniform(60), 150, Duration::from_secs(60));
        injected += stats.dropped + stats.duplicated + stats.delayed + stats.corrupted;
    }
    // The sweep must actually have hurt: convergence through a proxy
    // that never fired a fault proves nothing.
    assert!(injected > 0, "no faults injected across the sweep");
}

#[test]
#[ignore = "open-ended randomized campaign; run nightly / on demand with --ignored"]
fn randomized_fault_campaign() {
    let secs: u64 = std::env::var("EG_FAULT_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    let base_seed: u64 = std::env::var("EG_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFA11);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut round = 0u64;
    while Instant::now() < deadline {
        let seed = base_seed.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Log the seed *before* the round so a failure is replayable.
        eprintln!("fault campaign round {round}: seed {seed}");
        let stats = faulted_round(seed, uniform(100), 250, Duration::from_secs(120));
        eprintln!("  converged: {stats:?}");
        round += 1;
    }
    eprintln!("fault campaign: {round} rounds survived (base seed {base_seed})");
}
