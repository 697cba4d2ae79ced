//! Tier-1 determinism contract of the multi-core host (ISSUE 7): running
//! the deterministic fleet workload through any worker-pool size must
//! leave every document byte-identical to a single-threaded sequential
//! replay of the same seed — same text, same remote versions. The
//! parallelism must be invisible in the state, visible only in the clock.
//!
//! The argument being tested: one submitter thread routes edits in script
//! order, per-worker mpsc channels are FIFO, each worker processes its
//! queue sequentially, and shard affinity pins every document to one
//! worker — so each document sees exactly the script-order projection of
//! its ops, which is precisely what the sequential replay applies.
//! Position hints reduce against live per-document state only, so no
//! cross-document coupling can sneak in.

use eg_server::{replay_fleet_sequential, ServerConfig, ServerHost};
use eg_sync::{settle, SyncLink};
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use std::sync::Arc;

fn script(seed: u64, edits: usize) -> Arc<[FleetOp]> {
    fleet_workload(&FleetSpec {
        docs: 96,
        sessions: 48,
        edits,
        seed,
        ..FleetSpec::default()
    })
    .into()
}

fn host(name: &str, workers: usize) -> ServerHost {
    ServerHost::with_config(ServerConfig {
        name: name.to_owned(),
        workers,
        ..ServerConfig::default()
    })
}

/// Connects two hosts as a daemon does — a link end on each side, each
/// opening with a complete digest — and carries frames until the link is
/// quiet. Returns the bundle frames that crossed; a further mark round
/// on the settled link must queue none.
fn sync(a: &mut ServerHost, b: &mut ServerHost) -> usize {
    let (mut la, mut lb) = (SyncLink::open(&*a), SyncLink::open(&*b));
    let shipped = settle(&mut la, a, &mut lb, b);
    la.mark();
    lb.mark();
    assert_eq!(settle(&mut la, a, &mut lb, b), 0, "a settled link is quiet");
    shipped
}

#[test]
fn every_pool_size_matches_sequential_replay() {
    let script = script(0xD00D, 3000);
    let reference = replay_fleet_sequential("server", &script);
    assert!(!reference.is_empty());
    for workers in [1, 2, 4, 8] {
        let h = ServerHost::new(workers);
        let report = h.run_script(&script);
        assert!(report.edits() > 0);
        assert_eq!(
            h.snapshot(),
            reference,
            "{workers}-worker host diverged from sequential replay"
        );
    }
}

#[test]
fn runs_are_deterministic_against_each_other() {
    let script = script(0xCAFE, 2500);
    let (h1, h2) = (host("server", 4), host("server", 4));
    let (r1, r2) = (h1.run_script(&script), h2.run_script(&script));
    assert_eq!(h1.snapshot(), h2.snapshot());
    assert_eq!(r1.inserts, r2.inserts);
    assert_eq!(r1.deletes, r2.deletes);
    assert_eq!(r1.skipped, r2.skipped);
}

/// Three hosts with different pool sizes and different local edit
/// histories converge through link sessions over real wire frames within
/// a bounded number of pairwise connections — two full sweeps of the
/// triangle. Worker counts differ on purpose: the shard map is per-host,
/// so bundles extracted under one sharding must integrate cleanly under
/// another.
#[test]
fn three_hosts_converge_in_two_pairwise_sweeps() {
    let mut a = host("hostA", 1);
    let mut b = host("hostB", 2);
    let mut c = host("hostC", 4);
    a.run_script(&script(0xA, 1200));
    b.run_script(&script(0xB, 1200));
    c.run_script(&script(0xC, 1200));
    assert!(!a.converged_with(&b) && !b.converged_with(&c));

    for _sweep in 0..2 {
        sync(&mut a, &mut b);
        sync(&mut b, &mut c);
        sync(&mut a, &mut c);
    }
    assert!(a.converged_with(&b), "A/B diverged after two sweeps");
    assert!(b.converged_with(&c), "B/C diverged after two sweeps");

    // Convergence must be quiescent: reconnecting ships no bundle frame.
    assert_eq!(sync(&mut a, &mut b), 0);
    assert_eq!(sync(&mut b, &mut c), 0);
    assert_eq!(sync(&mut a, &mut c), 0);
}

/// Interleaving edit submission with anti-entropy must not break the
/// byte-identity of local documents: sync rounds only add remote events,
/// and the flush barrier orders them against local batches per worker.
#[test]
fn sync_interleaved_with_edits_still_converges() {
    let first = script(0x51, 1000);
    let second = script(0x52, 1000);
    let mut a = host("hostA", 2);
    let mut b = host("hostB", 3);
    a.run_script(&first);
    assert!(sync(&mut a, &mut b) > 0);
    b.run_script(&second);
    assert!(sync(&mut a, &mut b) > 0);
    assert!(a.converged_with(&b));
    assert_eq!(sync(&mut a, &mut b), 0);
}
