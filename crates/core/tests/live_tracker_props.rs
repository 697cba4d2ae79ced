//! The live tracker: a merge through a tracker that a previous merge left
//! live walks only what is new on that state (§3.5–§3.6) — and must end
//! exactly where a fresh merge ends. At every step below the merged branch
//! equals `oplog.checkout(branch.version)` (a fresh conflict-window replay)
//! and the tracker's tree invariants hold.
//!
//! Each case also counts the merges that resumed and asserts a minimum, so
//! a resume condition that silently always fails — every merge falling
//! back to the replay, which is correct but slow — fails the test too.

use egwalker::testgen::{random_oplog, SmallRng};
use egwalker::{Branch, EventBundle, Frontier, OpLog, Tracker, WalkerOpts, LV};
use std::collections::VecDeque;

/// The branch is what a fresh merge to its version builds, and the tracker
/// that merged it is structurally sound.
fn assert_fresh(oplog: &OpLog, branch: &Branch, tracker: &Tracker, what: &str) {
    tracker.check();
    assert_eq!(*branch, oplog.checkout(&branch.version), "{what}");
}

/// A merge target: usually an event a little past the branch's newest one
/// (incremental catch-up, often on another replica's line), sometimes any
/// event at all (an old one: a no-op or a merge of an old branch), and
/// sometimes the tip.
fn random_target(oplog: &OpLog, rng: &mut SmallRng, from: &[LV]) -> Frontier {
    let n = oplog.len();
    let next = from.iter().max().map_or(0, |&lv| lv + 1);
    match rng.below(10) {
        0 => oplog.version().clone(),
        1 | 2 => Frontier::new_1(rng.below(n)),
        _ => Frontier::new_1((next + rng.below(8)).min(n - 1)),
    }
}

/// Random `merge_to` targets over random concurrent histories, with two
/// branches of one oplog sharing two trackers and swapping them at random
/// — the pattern of `eg-trace`'s async generator, where one tracker serves
/// a trunk and every branch forked from it. A tracker is resumed only by a
/// branch that holds its live version; the other merges replay.
#[test]
fn random_targets_through_swapped_trackers_match_checkout() {
    let (mut merges, mut resumed) = (0usize, 0usize);
    for seed in 0..200u64 {
        let oplog = random_oplog(seed, 60, 3, 0.3);
        let mut rng = SmallRng::new(seed ^ 0x11fe);
        let mut branches = [Branch::new(), Branch::new()];
        let mut trackers = [Tracker::new(), Tracker::new()];
        for step in 0..40 {
            let (b, t) = (rng.below(2), rng.below(2));
            let to = random_target(&oplog, &mut rng, &branches[b].version);
            let before = branches[b].version.clone();
            let r = branches[b].merge_to(&oplog, &to, WalkerOpts::default(), &mut trackers[t]);
            merges += usize::from(branches[b].version != before);
            resumed += usize::from(r);
            assert_fresh(
                &oplog,
                &branches[b],
                &trackers[t],
                &format!("seed {seed} step {step}: branch {b} tracker {t} to {to}"),
            );
        }
    }
    eprintln!("{resumed} of {merges} merges resumed");
    assert!(
        resumed * 3 >= merges,
        "only {resumed} of {merges} merges resumed their tracker"
    );
}

/// One replica of [`two_sided_typing_with_random_delivery`]: its own log,
/// document and tracker, and the bundles on their way to it.
struct Side {
    oplog: OpLog,
    agent: u32,
    branch: Branch,
    tracker: Tracker,
    inbox: VecDeque<EventBundle>,
}

impl Side {
    fn new(name: &str) -> Self {
        let mut oplog = OpLog::new();
        let agent = oplog.get_or_create_agent(name);
        Side {
            oplog,
            agent,
            branch: Branch::new(),
            tracker: Tracker::new(),
            inbox: VecDeque::new(),
        }
    }

    /// Merges the log into the document, as a replica does after a local
    /// edit and after a delivery; returns whether the merge resumed.
    fn merge(&mut self, what: &str) -> bool {
        let r = self.branch.merge_reusing(&self.oplog, &mut self.tracker);
        assert_fresh(&self.oplog, &self.branch, &self.tracker, what);
        r
    }

    /// Types one short insert or deletes a character or two at a random
    /// place, merges it, and returns the bundle that carries it.
    fn edit(&mut self, rng: &mut SmallRng, what: &str) -> (EventBundle, bool) {
        let before = self.oplog.version().clone();
        let len = self.branch.len_chars();
        let at = self.branch.version.clone();
        if len > 0 && rng.below(4) == 0 {
            let pos = rng.below(len);
            let n = (1 + rng.below(2)).min(len - pos);
            self.oplog.add_delete_at(self.agent, &at, pos, n);
        } else {
            let text = ["a", "bc", "é", "日本", "🦀"][rng.below(5)];
            self.oplog
                .add_insert_at(self.agent, &at, rng.below(len + 1), text);
        }
        let r = self.merge(what);
        (self.oplog.bundle_since_local(&before), r)
    }

    /// Applies the next `k` bundles in its inbox (a link delivers in
    /// order, at its own pace), then merges; `None` if nothing was waiting.
    fn deliver(&mut self, k: usize, what: &str) -> Option<bool> {
        if self.inbox.is_empty() {
            return None;
        }
        for bundle in self.inbox.drain(..k.min(self.inbox.len())) {
            self.oplog
                .apply_bundle(&bundle)
                .expect("an in-order link delivers causally ready bundles");
        }
        Some(self.merge(what))
    }
}

/// Two replicas type into one document at once, each into its own log, and
/// the links deliver at random: a local edit lands on a document with the
/// other side's edits partly merged, and a delivery brings edits
/// concurrent with local ones. Typing like this rarely forms a critical
/// version, so without a live tracker every merge would replay the whole
/// session so far. (Where one does form, the side that types first clears
/// past what the other side knows, and the other side's next edit
/// arrives below the floor: those deliveries replay.)
#[test]
fn two_sided_typing_with_random_delivery() {
    let (mut merges, mut resumed) = (0usize, 0usize);
    for seed in 0..150u64 {
        let mut rng = SmallRng::new(seed ^ 0x7e7e);
        let mut sides = [Side::new("left"), Side::new("right")];
        for step in 0..60 {
            let s = rng.below(2);
            let what = format!("seed {seed} step {step} side {s}");
            let r = if rng.below(5) < 3 {
                let (bundle, r) = sides[s].edit(&mut rng, &what);
                sides[1 - s].inbox.push_back(bundle);
                Some(r)
            } else {
                sides[s].deliver(1 + rng.below(3), &what)
            };
            if let Some(r) = r {
                merges += 1;
                resumed += usize::from(r);
            }
        }
        for s in 0..2 {
            sides[s].deliver(usize::MAX, &format!("seed {seed} final side {s}"));
        }
        assert_eq!(
            sides[0].branch.content.to_string(),
            sides[1].branch.content.to_string(),
            "seed {seed}: the replicas diverged"
        );
    }
    eprintln!("{resumed} of {merges} merges resumed");
    assert!(
        resumed * 3 >= merges * 2,
        "only {resumed} of {merges} merges resumed their tracker"
    );
}

/// A tracker cleared at a critical version, then an event arrives that is
/// concurrent with that version — so it was never critical after all. The
/// tracker kept nothing below it, and the merge must fall back to the
/// conflict-window replay (not retreat into the placeholder and panic).
#[test]
fn late_event_concurrent_with_a_cleared_critical_version_falls_back() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    let c = oplog.get_or_create_agent("c");
    oplog.add_insert(a, 0, "hello"); // 0..5, critical
    oplog.add_insert_at(b, &[4], 5, "X"); // 5
    let fork = oplog.add_insert_at(a, &[4], 0, "Y"); // 6, concurrent with 5
    oplog.add_insert_at(a, &[5, 6], 3, "Z"); // 7: critical again
    oplog.add_insert(a, 8, "W"); // 8

    let mut branch = Branch::new();
    let mut tracker = Tracker::new();
    assert!(!branch.merge_to(&oplog, &[6], WalkerOpts::default(), &mut tracker));
    assert_fresh(&oplog, &branch, &tracker, "first merge");
    // Through 7 and 8: the walk crosses the critical run 7..9 and clears
    // there, leaving the placeholder standing for {8}.
    assert!(
        branch.merge_reusing(&oplog, &mut tracker),
        "the merge across the critical version should resume"
    );
    assert_fresh(&oplog, &branch, &tracker, "across the critical version");
    assert_eq!(tracker.num_records(), 1, "cleared at the critical version");
    let typed = oplog.add_insert(a, 0, "!"); // 9: after the floor
    assert!(branch.merge_reusing(&oplog, &mut tracker), "typing resumes");
    assert_fresh(&oplog, &branch, &tracker, "typing after the clear");

    // The late event: parented on 6, concurrent with 5 and with 7..10.
    oplog.add_insert_at(c, &[fork.last()], 1, "late");
    assert!(!oplog.graph.is_critical(typed.last()));
    assert!(
        !branch.merge_reusing(&oplog, &mut tracker),
        "an event below the floor must not resume the tracker"
    );
    assert_fresh(&oplog, &branch, &tracker, "after the late event");
    // And the replay left the tracker live again.
    oplog.add_insert(a, 0, "?");
    assert!(branch.merge_reusing(&oplog, &mut tracker));
    assert_fresh(&oplog, &branch, &tracker, "typing after the fallback");
}

/// A tracker left live by a merge on one oplog, handed to a branch of a
/// clone that has since diverged: the same LVs name other events there, so
/// the merge must replay rather than resume records of the wrong log.
#[test]
fn a_tracker_is_not_resumed_on_another_oplog() {
    let mut ours = OpLog::new();
    let a = ours.get_or_create_agent("a");
    ours.add_insert(a, 0, "shared"); // 0..6
    let mut theirs = ours.clone();
    let c = ours.get_or_create_agent("c");
    ours.add_insert_at(a, &[5], 0, "xy"); // 6..8
    ours.add_insert_at(c, &[5], 6, "zw"); // 8..10, concurrent
    let b = theirs.get_or_create_agent("b");
    let d = theirs.get_or_create_agent("d");
    theirs.add_insert_at(b, &[5], 3, "PQ"); // 6..8
    theirs.add_insert_at(d, &[5], 0, "RS"); // 8..10, concurrent

    let mut tracker = Tracker::new();
    let mut branch = Branch::new();
    branch.merge_reusing(&ours, &mut tracker);
    let mut their_branch = theirs.checkout_tip();
    assert_eq!(
        their_branch.version, branch.version,
        "same LVs, other events"
    );
    // Concurrent with "RS": resuming would retreat our "zw" instead.
    theirs.add_insert_at(b, &[7], 1, "!");
    assert!(
        !their_branch.merge_reusing(&theirs, &mut tracker),
        "a tracker must not be resumed on another log"
    );
    assert_fresh(&theirs, &their_branch, &tracker, "the clone");
    assert_eq!(their_branch.content.to_string(), "RSs!haPQred");
}

/// A merge of an old, still unmerged branch: its events are causally after
/// the tracker's floor and the document holds the live version, but their
/// LVs lie below where the tracker's LV-keyed indexes start counting, and
/// those cannot re-base downward. The merge must fall back.
#[test]
fn merging_an_old_branch_below_the_index_base_falls_back() {
    let mut oplog = OpLog::new();
    let a = oplog.get_or_create_agent("a");
    let b = oplog.get_or_create_agent("b");
    let base = oplog.add_insert(a, 0, "abc"); // 0..3, critical
    let old = oplog.add_insert_at(b, &[base.last()], 0, "old"); // 3..6
    let line = oplog.add_insert_at(a, &[base.last()], 3, "def"); // 6..9

    let mut branch = Branch::new();
    let mut tracker = Tracker::new();
    branch.merge_to(&oplog, &[base.last()], WalkerOpts::default(), &mut tracker);
    assert_fresh(&oplog, &branch, &tracker, "the base");
    // Along a's line: the tracker indexes LVs from 6 on.
    assert!(
        branch.merge_to(&oplog, &[line.last()], WalkerOpts::default(), &mut tracker),
        "extending the line should resume"
    );
    assert_fresh(&oplog, &branch, &tracker, "a's line");
    // b's branch, LVs 3..6, forked from the floor {2}.
    assert!(
        !branch.merge_to(&oplog, &[old.last()], WalkerOpts::default(), &mut tracker),
        "LVs below the index base must not resume the tracker"
    );
    assert_fresh(&oplog, &branch, &tracker, "b's old branch");
    assert_eq!(branch.version, oplog.version().clone());
}
