//! Tier-1: two real OS processes converge over a Unix-domain socket,
//! and a SIGKILLed daemon restarts from its segment store and converges
//! byte-identically.

mod common;

use common::{await_convergence, await_established, DaemonOpts, DaemonProc, TempDir};
use serde::Value;
use std::time::Duration;

#[test]
fn two_processes_converge_over_a_unix_socket() {
    let tmp = TempDir::new("two-proc");
    let sock_a = tmp.path("a.sock");
    let sock_b = tmp.path("b.sock");
    let mut a = DaemonProc::spawn(&DaemonOpts::new("alpha", sock_a.clone()));
    let mut b = DaemonProc::spawn(&DaemonOpts::new("beta", sock_b).peer(&sock_a));

    // Concurrent workloads with disjoint seeds on both sides; sessions
    // are namespaced by daemon name, so the agent sets never collide.
    a.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":200,"seed":7}"#);
    b.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":200,"seed":8}"#);

    await_convergence(&mut a, &mut b, 4, Duration::from_secs(30));

    // Interactive edits after the burst still flow.
    a.cmd_ok(r#"{"cmd":"edit","doc":0,"at":0,"text":"late-from-alpha "}"#);
    b.cmd_ok(r#"{"cmd":"edit","doc":1,"at":0,"text":"late-from-beta "}"#);
    await_convergence(&mut a, &mut b, 4, Duration::from_secs(30));

    // The texts themselves — not just the hash — must match.
    assert_eq!(a.full_texts(), b.full_texts());

    // The dialer reports its peer link as established.
    let status = b.cmd_ok(r#"{"cmd":"status"}"#);
    let Some(Value::Arr(peers)) = status.get_field("peers") else {
        panic!("status missing peers: {status:?}");
    };
    assert!(
        peers.iter().any(|p| {
            p.get_field("dialed") == Some(&Value::Bool(true))
                && p.get_field("established") == Some(&Value::Bool(true))
        }),
        "no established dialed peer in {peers:?}"
    );

    b.shutdown();
    a.shutdown();
}

#[test]
fn sigkill_mid_sync_restart_converges_byte_identical() {
    let tmp = TempDir::new("kill9");
    let sock_a = tmp.path("a.sock");
    let sock_b = tmp.path("b.sock");
    let persist_a = tmp.path("store-a");
    let persist_b = tmp.path("store-b");

    let opts_a = DaemonOpts::new("alpha", sock_a.clone()).persist(&persist_a);
    let mut a = DaemonProc::spawn(&opts_a);
    let mut b = DaemonProc::spawn(
        &DaemonOpts::new("beta", sock_b)
            .peer(&sock_a)
            .persist(&persist_b),
    );

    // Pin down the first connection before cutting it: the reconnect
    // counter below distinguishes re-establishment from first contact.
    await_established(&mut b, Duration::from_secs(10));

    // Both sides accumulate state; alpha's edits are on disk the moment
    // the script reply returns (workers persist synchronously).
    a.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":300,"seed":11}"#);
    b.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":300,"seed":12}"#);

    // SIGKILL alpha mid-sync: no flush, no checkpoint, no goodbye. The
    // sync rounds between the two scripts and this kill are partial by
    // construction.
    a.kill9();

    // Beta keeps editing into the void while its reconnect loop backs
    // off against the dead socket.
    b.cmd_ok(r#"{"cmd":"script","docs":4,"sessions":4,"edits":50,"seed":13}"#);

    // Restart alpha on the same socket and store: it must reopen warm
    // (stale socket file included) and resume from its persisted
    // frontier.
    let mut a = DaemonProc::spawn(&opts_a);
    assert!(
        a.status_counter("docs_loaded") > 0,
        "restarted daemon did not load from its segment store"
    );
    // Store size is readable from outside, and nothing was written yet.
    assert!(a.status_counter("store_bytes") > 0);
    assert_eq!(a.status_counter("bytes_written"), 0);

    await_convergence(&mut a, &mut b, 4, Duration::from_secs(45));
    // The edits beta made into the void arrived and were persisted. How
    // many checkpoints that took depends on where the kill fell; the
    // counter only has to be there.
    assert!(a.status_counter("bytes_written") > 0);
    a.status_counter("checkpoints_written");
    a.status_counter("checkpoints_live");
    assert_eq!(
        a.full_texts(),
        b.full_texts(),
        "texts differ after crash-restart convergence"
    );

    // Beta's dial slot survived the outage: at least one reconnect.
    assert!(b.status_counter("reconnects") >= 1);

    b.shutdown();
    a.shutdown();
}
