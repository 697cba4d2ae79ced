//! Regression tests for §3.5 clearing at critical versions that sit in the
//! *middle* of a graph run.
//!
//! The walker used to test for a critical version only where an applied
//! chunk of events ended. A solo author who keeps typing into the next
//! concurrent window produces one graph run whose first events are critical
//! and whose last are not, so the test never fired: the tracker held every
//! record since the start of the history, and the plan covered all of it.
//! `testgen::mid_run_criticals_oplog` builds exactly that layout.

use eg_dag::Frontier;
use eg_rle::DTRange;
use egwalker::reference::replay_reference;
use egwalker::testgen::{coalesce_ops, mid_run_criticals_oplog};
use egwalker::walker::{self, transformed_ops};
use egwalker::{OpLog, Tracker, WalkerOpts};

fn no_clearing() -> WalkerOpts {
    WalkerOpts {
        enable_clearing: false,
        ..WalkerOpts::default()
    }
}

/// Walks the whole history through a fresh tracker and returns how many
/// records the tracker is left holding.
fn records_after_full_walk(oplog: &OpLog, opts: WalkerOpts) -> usize {
    let all = [DTRange::from(0..oplog.len())];
    let mut tracker = Tracker::new();
    walker::walk_reusing(
        oplog,
        &Frontier::root(),
        &all,
        &all,
        opts,
        &mut tracker,
        &mut |_, _| {},
    );
    tracker.check();
    tracker.num_records()
}

/// Clearing on, clearing off and the reference replay agree — on the text,
/// and the two walks on the operations that produce it.
#[test]
fn mid_run_criticals_do_not_change_the_output() {
    for (seed, windows) in [(1u64, 10usize), (2, 10), (3, 60), (4, 1000)] {
        let (oplog, len) = mid_run_criticals_oplog(seed, windows);
        let (v_on, on) = transformed_ops(&oplog, &[], oplog.version(), WalkerOpts::default());
        let (v_off, off) = transformed_ops(&oplog, &[], oplog.version(), no_clearing());
        assert_eq!(v_on, v_off);
        assert_eq!(
            coalesce_ops(&on),
            coalesce_ops(&off),
            "seed {seed}: clearing changed the transformed operations"
        );
        let mut doc = eg_rope::Rope::new();
        for (_, op) in &on {
            op.apply_to(&mut doc);
        }
        let text = doc.to_string();
        assert_eq!(text.chars().count(), len, "seed {seed}: merged length");
        // The reference is quadratic; the long history is covered by the
        // length oracle and the clearing-off walk above.
        if windows <= 60 {
            assert_eq!(text, replay_reference(&oplog), "seed {seed}");
        }
    }
}

/// What the tracker holds after a walk follows the last segment, not the
/// number of windows walked — and without clearing it does follow it, so
/// the bound below is not vacuous.
#[test]
fn tracker_state_is_bounded_by_the_segment_not_the_history() {
    // A window is at most 3 + 3 + 3 edits of at most 4 characters, and a
    // run of solo-less windows is short; no segment comes near this.
    const SEGMENT_BOUND: usize = 200;
    let (short, _) = mid_run_criticals_oplog(7, 10);
    let (long, _) = mid_run_criticals_oplog(7, 1000);
    let short_records = records_after_full_walk(&short, WalkerOpts::default());
    let long_records = records_after_full_walk(&long, WalkerOpts::default());
    assert!(
        short_records < SEGMENT_BOUND && long_records < SEGMENT_BOUND,
        "tracker holds {short_records} records after 10 windows, {long_records} after 1000"
    );
    let uncleared = records_after_full_walk(&long, no_clearing());
    assert!(
        uncleared > 10 * SEGMENT_BOUND,
        "without clearing the tracker should hold the whole history, holds {uncleared}"
    );
}

/// A window that starts in the middle of a critical run, ends in the middle
/// of one, or holds nothing but critical versions is cut correctly: every
/// historical checkout equals the reference.
#[test]
fn windows_that_start_and_end_anywhere() {
    let (oplog, _) = mid_run_criticals_oplog(11, 12);
    let mut live = egwalker::Branch::new();
    let mut tracker = Tracker::new();
    let mut resumed = 0;
    for lv in 0..oplog.len() {
        let expect = egwalker::reference::replay_reference_version(&oplog, &[lv]);
        assert_eq!(
            oplog.checkout(&[lv]).content.to_string(),
            expect,
            "checkout at {lv}"
        );
        // And incrementally, one event at a time, through the same branch
        // and tracker — which the previous merge left live, so most merges
        // walk just the one event: resumed == fresh at every step.
        resumed += usize::from(live.merge_to(&oplog, &[lv], WalkerOpts::default(), &mut tracker));
        tracker.check();
        assert_eq!(live, oplog.checkout(&live.version), "incremental at {lv}");
    }
    live.merge(&oplog);
    assert_eq!(live.content.to_string(), replay_reference(&oplog));
    assert!(
        resumed * 2 > oplog.len(),
        "only {resumed} of {} one-event merges resumed the tracker",
        oplog.len()
    );
}
