//! Compile-time thread-safety audit for the sync-engine types the
//! multi-core server host partitions across worker threads. `Replica` is
//! the unit of shard ownership — each `eg-server` worker owns one and
//! moves it onto its thread at spawn — and `Message` payloads (digests,
//! bundles) cross threads in the extract and receive jobs. A regression
//! here (an `Rc` in the pending buffer, a thread-bound cache) breaks the
//! server host at a distance; fail it in this crate instead.

use eg_sync::{Message, Replica};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[test]
fn replica_is_send() {
    // `Send` is what shard ownership needs (the replica moves onto its
    // worker thread once and never migrates).
    assert_send::<Replica>();
}

#[test]
fn messages_are_send_and_sync() {
    // Extracted bundles and digests are shared behind `Arc` during
    // anti-entropy fan-out, so they need `Sync` too.
    assert_send::<Message>();
    assert_sync::<Message>();
}
