//! [`Branch`]: a materialised document — the text plus the version it
//! reflects (paper §3, "Document state").

use crate::tracker::{Tracker, TrackerSnapshot};
use crate::walker::{self, WalkerOpts};
use crate::{ListOpKind, OpLog};
use eg_dag::{Frontier, LV};
use eg_rle::{DTRange, HasLength as _};
use eg_rope::Rope;

/// A document state: the text at some version of the event graph.
///
/// In the steady state this is *all* a replica keeps in memory — no CRDT
/// metadata, no event graph (which can stay on disk). Merging remote edits
/// transiently builds walker state and applies the resulting transformed
/// operations to the rope.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Branch {
    /// The document text.
    pub content: Rope,
    /// The version (graph frontier) the text reflects.
    pub version: Frontier,
}

impl Branch {
    /// An empty document at the root version.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges all events of the oplog into this branch (up to the oplog's
    /// current version), on a throwaway [`Tracker`].
    pub fn merge(&mut self, oplog: &OpLog) {
        self.merge_reusing(oplog, &mut Tracker::new());
    }

    /// [`Branch::merge`] driving a caller-owned [`Tracker`], which stays
    /// live between merges: the next merge through it walks only the new
    /// events on the state this one left, when it can (see
    /// [`Branch::merge_to`]), and otherwise resets it with its slabs, ID
    /// index and scratch buffers keeping their capacity. A replica merging
    /// repeatedly (a sync daemon, a session loop) so pays for its new
    /// events, not for its conflict window, and for the tracker's
    /// allocations once. Returns `true` if the merge resumed the tracker.
    pub fn merge_reusing(&mut self, oplog: &OpLog, tracker: &mut Tracker) -> bool {
        self.merge_to(oplog, oplog.version(), WalkerOpts::default(), tracker)
    }

    /// Merges the events of `Events(to)` into this branch — the general
    /// merge behind [`Branch::merge`] and [`Branch::merge_reusing`].
    ///
    /// The branch ends up at version `self.version ∪ to`; events the branch
    /// already reflects are not re-applied. `opts` sets the walk's switches
    /// (the benchmarks toggle the §3.5 optimisations with it) and `tracker`
    /// is the walk's reusable context.
    ///
    /// The merge leaves `tracker` live at `self.version ∪ to`. A later
    /// merge through it — from this branch or from another branch of the
    /// same oplog (never of another, or of a clone) — resumes it when the
    /// branch holds that version and
    /// everything new is causally after the last critical version the
    /// tracker crossed; otherwise it replays the conflict window on a reset
    /// tracker. Returns `true` if this merge resumed (`false` if it reset
    /// the tracker, or had nothing to merge).
    ///
    /// Transformed operations are applied to the rope as borrowed
    /// [`crate::TextOpRef`]s: insert content goes straight from the
    /// oplog's UTF-8 arena into the rope's chunks without materialising an
    /// intermediate `String` — the merge path performs no per-op heap
    /// allocation.
    pub fn merge_to(
        &mut self,
        oplog: &OpLog,
        to: &[LV],
        opts: WalkerOpts,
        tracker: &mut Tracker,
    ) -> bool {
        let content = &mut self.content;
        let (target, resumed) =
            walker::merge_walk(oplog, &self.version, to, opts, tracker, &mut |_, op| {
                op.apply_to(content);
            });
        self.version = target;
        resumed
    }

    /// Merges the oplog tip into this branch through `tracker`, restored
    /// from a [`TrackerSnapshot`] taken at exactly `self.version`: that
    /// version becomes the tracker's live version and its floor, so the
    /// merge resumes it over a tail causally after the checkpoint and
    /// replays the conflict window otherwise. Returns whether it resumed.
    fn merge_resuming(&mut self, oplog: &OpLog, tracker: &mut Tracker) -> bool {
        tracker.live.install(oplog, &self.version);
        self.merge_reusing(oplog, tracker)
    }

    /// Rehydrates a branch from persisted parts: the materialised text and
    /// the version it reflects (a checkpoint record's payload).
    pub fn from_cached(content: &str, version: Frontier) -> Self {
        Branch {
            content: Rope::from_str(content),
            version,
        }
    }

    /// Applies an *uncontended* tail of events directly to the document:
    /// the cached-load fast path for the common case where everything
    /// after a checkpoint is one linear chain
    /// ([`eg_dag::Graph::is_sequential_extension`] from `tail.start` off
    /// `self.version`).
    ///
    /// With nothing concurrent in the tail, each run's recorded `loc` is
    /// already a document coordinate at the moment it executed — the
    /// transformation the walker would compute is the identity — so the
    /// ops replay verbatim onto the rope with no tracker at all. A
    /// forward or backward delete run both net-remove the `loc` range of
    /// the run-start document; a forward insert run places its content
    /// at `loc.start` (backward insert runs are unit-length).
    pub fn apply_sequential_tail(&mut self, oplog: &OpLog, tail: DTRange) {
        debug_assert!(oplog
            .graph
            .is_sequential_extension(tail.start, self.version.as_slice()));
        if tail.is_empty() {
            return;
        }
        for (_, run) in oplog.ops_in(tail) {
            match run.kind {
                ListOpKind::Ins => {
                    let content = run.content.expect("insert run carries content");
                    self.content
                        .insert(run.loc.start, oplog.content_slice(content));
                }
                ListOpKind::Del => {
                    self.content.remove(run.loc.start, run.loc.len());
                }
            }
        }
        self.version = Frontier::new_1(tail.end - 1);
    }

    /// The number of characters in the document.
    pub fn len_chars(&self) -> usize {
        self.content.len_chars()
    }
}

impl OpLog {
    /// Builds the document at the oplog's current version by replaying the
    /// (entire) event graph.
    pub fn checkout_tip(&self) -> Branch {
        let mut b = Branch::new();
        b.merge(self);
        b
    }

    /// Builds the historical document at an arbitrary version.
    pub fn checkout(&self, version: &[LV]) -> Branch {
        let mut b = Branch::new();
        b.merge_to(self, version, WalkerOpts::default(), &mut Tracker::new());
        b
    }

    /// The cached-load fast path (paper §3.5/§3.6): builds the document at
    /// the oplog tip starting from a persisted checkpoint — the
    /// materialised `content` at `version` plus (optionally) the tracker
    /// snapshot taken there — replaying only the events past `version`
    /// instead of the whole history.
    ///
    /// With a snapshot whose version matches `version`, the restored
    /// tracker is resumed over the tail;
    /// without one (or when tail events are concurrent with the
    /// checkpoint) a fresh conflict-window merge runs from `version`,
    /// which is still O(tail + conflict window), not O(history).
    ///
    /// The branch is byte-identical to [`OpLog::checkout_tip`]. It comes
    /// with the tracker it was merged through, left live at the tip, for
    /// the document's next merge to resume. The caller is responsible for
    /// snapshot/version integrity ([`TrackerSnapshot::validate`] plus
    /// remote→local version mapping for untrusted inputs).
    pub fn open_cached(
        &self,
        content: &str,
        version: &[LV],
        snapshot: Option<&TrackerSnapshot>,
    ) -> (Branch, Tracker) {
        let mut b = Branch::from_cached(content, Frontier::from(version));
        let tracker = match snapshot {
            Some(snap) => {
                let mut tracker = Tracker::from_snapshot(snap);
                b.merge_resuming(self, &mut tracker);
                tracker
            }
            None => {
                let mut tracker = Tracker::new();
                b.merge_reusing(self, &mut tracker);
                tracker
            }
        };
        (b, tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_checkout() {
        let oplog = OpLog::new();
        let b = oplog.checkout_tip();
        assert_eq!(b.content.to_string(), "");
        assert!(b.version.is_root());
    }

    #[test]
    fn sequential_checkout() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "hello world");
        oplog.add_delete(a, 5, 6);
        oplog.add_insert(a, 5, "!");
        let b = oplog.checkout_tip();
        assert_eq!(b.content.to_string(), "hello!");
        assert_eq!(&b.version, oplog.version());
    }

    #[test]
    fn incremental_merge_matches_batch() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let mut live = Branch::new();
        for i in 0..20 {
            oplog.add_insert(a, i, "x");
            live.merge(&oplog);
        }
        oplog.add_delete(a, 3, 5);
        live.merge(&oplog);
        let batch = oplog.checkout_tip();
        assert_eq!(live, batch);
    }

    #[test]
    fn open_cached_matches_checkout_tip() {
        use crate::testgen::{mid_run_criticals_oplog, random_oplog};
        use crate::walker;

        // Random concurrent histories cut at the quarters (their tails are
        // concurrent with the cut), and one with planted critical versions
        // cut everywhere (window ends resume).
        let mut cases: Vec<(OpLog, Vec<usize>)> = (0..8u64)
            .map(|seed| {
                let oplog = random_oplog(seed, 400, 3, 0.2);
                let n = oplog.len();
                (oplog, vec![(n / 4).max(1), n / 2, n * 3 / 4])
            })
            .collect();
        let (planted, _) = mid_run_criticals_oplog(5, 8);
        let every_cut = (1..planted.len()).collect();
        cases.push((planted, every_cut));

        let mut resumed_any = false;
        for (case, (oplog, cuts)) in cases.iter().enumerate() {
            let expect = oplog.checkout_tip();
            let all: Vec<LV> = (0..oplog.len()).collect();
            // Checkpoint at a mid-history version, then open cached with
            // and without a tracker snapshot.
            for &cut in cuts {
                let version = oplog.graph.find_dominators(&all[..cut]);
                let at = oplog.checkout(version.as_slice());
                let content = at.content.to_string();

                let (cold, _) = oplog.open_cached(&content, version.as_slice(), None);
                assert_eq!(cold, expect, "case {case} cut {cut} no-snapshot");

                let tracker = walker::tracker_at(oplog, version.as_slice(), WalkerOpts::default());
                let snap = tracker.to_snapshot();
                snap.validate(oplog.len())
                    .expect("self-made snapshot validates");
                let (warm, _) = oplog.open_cached(&content, version.as_slice(), Some(&snap));
                assert_eq!(warm, expect, "case {case} cut {cut} snapshot");

                // The same open by hand: it resumes exactly when the whole
                // tail is causally after the checkpoint, and leaves a sound
                // tracker either way.
                let mut by_hand = Branch::from_cached(&content, version.clone());
                let mut restored = Tracker::from_snapshot(&snap);
                let resumed = by_hand.merge_resuming(oplog, &mut restored);
                restored.check();
                let tail_after = (cut..oplog.len())
                    .all(|lv| oplog.graph.frontier_contains_frontier(&[lv], &version));
                assert_eq!(resumed, tail_after, "case {case} cut {cut}");
                assert_eq!(by_hand, expect);
                resumed_any |= resumed && snap.records.len() > 1;
            }
        }
        assert!(resumed_any, "no cut resumed a tracker with live records");
    }

    #[test]
    fn apply_sequential_tail_matches_checkout() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "hello world");
        let cut = oplog.len();
        let version = oplog.version().clone();
        let at = oplog.checkout(version.as_slice());
        // Sequential tail past the checkpoint: typing, deleting, typing.
        oplog.add_insert(a, 11, "!!!");
        oplog.add_delete(a, 0, 6);
        oplog.add_insert(a, 0, "W");
        let mut b = Branch::from_cached(&at.content.to_string(), version);
        b.apply_sequential_tail(&oplog, (cut..oplog.len()).into());
        assert_eq!(b, oplog.checkout_tip());
    }

    #[test]
    fn apply_sequential_tail_random_single_author() {
        use crate::testgen::random_oplog;
        for seed in 0..8u64 {
            // One replica, no merges: the whole history is one linear chain,
            // so any suffix is a valid sequential tail.
            let oplog = random_oplog(seed, 300, 1, 0.0);
            let expect = oplog.checkout_tip();
            for frac in [0, 1, 2, 3, 4] {
                let cut = (oplog.len() * frac / 4).max(1);
                let version = Frontier::new_1(cut - 1);
                let at = oplog.checkout(version.as_slice());
                let mut b = Branch::from_cached(&at.content.to_string(), version);
                b.apply_sequential_tail(&oplog, (cut..oplog.len()).into());
                assert_eq!(b.content, expect.content, "seed {seed} frac {frac}");
                assert_eq!(b.version, expect.version);
            }
        }
    }

    #[test]
    fn merge_resuming_falls_back_on_concurrent_tail() {
        // Checkpoint on one branch, then events arrive that are concurrent
        // with the checkpoint version: resuming is unsound and must fall
        // back to the fresh conflict-window merge.
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "base");
        let v0 = oplog.version().clone();
        let va = oplog.add_insert_at(a, &v0, 4, "-alice");
        let checkpoint = Frontier::new_1(va.last());
        let at = oplog.checkout(checkpoint.as_slice());
        let tracker_state =
            crate::walker::tracker_at(&oplog, checkpoint.as_slice(), WalkerOpts::default());
        let snap = tracker_state.to_snapshot();
        // Concurrent tail: bob edits from v0, not from alice's tip.
        oplog.add_insert_at(b, &v0, 4, "+bob");

        let mut warm = Branch::from_cached(&at.content.to_string(), checkpoint.clone());
        let mut tracker = Tracker::from_snapshot(&snap);
        let resumed = warm.merge_resuming(&oplog, &mut tracker);
        assert!(!resumed, "concurrent tail must take the fallback path");
        assert_eq!(warm, oplog.checkout_tip());
    }

    #[test]
    fn historical_checkout() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let v1 = oplog.add_insert(a, 0, "abc");
        let v2 = oplog.add_delete(a, 0, 1);
        assert_eq!(oplog.checkout(&[v1.last()]).content.to_string(), "abc");
        assert_eq!(oplog.checkout(&[v2.last()]).content.to_string(), "bc");
        assert_eq!(oplog.checkout(&[]).content.to_string(), "");
    }
}
