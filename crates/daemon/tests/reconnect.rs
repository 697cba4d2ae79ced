//! Tier-1 reconnect / resume-from-frontier: partition a link mid-burst,
//! heal it, and prove by byte accounting that the resumed sync is
//! incremental — already-acknowledged bundles are not re-sent.

mod common;

use common::{await_convergence, DaemonOpts, DaemonProc, TempDir};
use eg_daemon::FaultProxy;
use eg_sync::FaultSpec;
use std::time::Duration;

#[test]
fn heal_after_partition_resumes_from_frontier() {
    let tmp = TempDir::new("reconnect");
    let sock_a = tmp.path("a.sock");
    let sock_b = tmp.path("b.sock");
    let sock_proxy = tmp.path("p.sock");

    let mut a = DaemonProc::spawn(&DaemonOpts::new("alpha", sock_a.clone()));
    // A clean proxy (no random faults) between beta and alpha, so every
    // application byte on the link is counted.
    let proxy = FaultProxy::spawn(sock_proxy.clone(), sock_a, FaultSpec::default(), 0xACC7)
        .expect("spawn proxy");
    let mut b = DaemonProc::spawn(&DaemonOpts::new("beta", sock_b).peer(&sock_proxy));

    // Phase 1: a large burst syncs through the proxy. Accounting is in
    // *bundle* bytes — marks keep crossing the link every sync
    // interval whether or not anything changed, and every new session
    // opens with a complete digest, so total bytes also measure how
    // long the test ran and how often it reconnected, while bundle
    // bytes measure actual event transfer.
    a.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":600,"seed":21}"#);
    await_convergence(&mut a, &mut b, 4, Duration::from_secs(30));
    let phase1_bundle_bytes = proxy.bundle_bytes_forwarded();
    assert!(phase1_bundle_bytes > 0, "no bundles crossed the proxy");

    // Partition mid-stream, then a small phase-2 burst lands on alpha
    // while beta is cut off and cycling its backoff ladder.
    proxy.partition(true);
    a.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":40,"seed":22}"#);
    std::thread::sleep(Duration::from_millis(400));
    assert!(
        proxy.stats().blocked > 0,
        "partition never severed or refused anything"
    );

    // Heal. Beta reconnects, handshakes, and its first digest is the
    // resume point: alpha sends only what beta's frontier lacks.
    proxy.partition(false);
    await_convergence(&mut a, &mut b, 4, Duration::from_secs(30));
    assert_eq!(a.full_texts(), b.full_texts());

    let healed_bundle_bytes = proxy.bundle_bytes_forwarded() - phase1_bundle_bytes;
    eprintln!("bundle bytes: phase1={phase1_bundle_bytes} healed={healed_bundle_bytes}");
    // Byte accounting: the post-heal transfer carries only the 40-edit
    // phase-2 delta. Re-sending the already-acknowledged phase-1
    // bundles (600 edits) would rival `phase1_bundle_bytes`;
    // resume-from-frontier keeps it to a small fraction.
    assert!(healed_bundle_bytes > 0, "phase-2 delta never transferred");
    assert!(
        healed_bundle_bytes < phase1_bundle_bytes / 3,
        "post-heal bundle transfer too large for an incremental resume: \
         {healed_bundle_bytes} bytes vs {phase1_bundle_bytes} in phase 1"
    );

    // The dialer observed the outage and recovered.
    assert!(b.status_counter("reconnects") >= 1);

    b.shutdown();
    proxy.shutdown();
    a.shutdown();
}
