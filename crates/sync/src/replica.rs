//! [`Replica`]: one collaborating node — a keyed shard space of documents,
//! each with its own oplog, live branch, and causal delivery buffer.
//!
//! The paper's replication model is per-document: an event graph, a
//! materialised branch, and causal delivery of event bundles (§2.1–2.2).
//! A real node serves *many* documents at once, so a [`Replica`] hosts a
//! keyed map of [`DocId`] → document state with per-document frontiers;
//! digests and bundles are always scoped to one shard. The single-document
//! methods ([`Replica::insert`], [`Replica::receive`], …) operate on
//! [`DocId::DEFAULT`] so simple call sites stay simple.

use eg_dag::RemoteId;
use eg_rle::HasLength;
use egwalker::{Branch, BundleError, EventBundle, OpLog, Tracker};

use crate::link::SyncHost;
use std::collections::BTreeMap;

/// Identifies one document in a replica's shard space.
///
/// Document ids are global, application-assigned keys (a real deployment
/// would hash a path or UUID into one); every digest and bundle on the
/// wire is scoped to a `DocId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DocId(pub u64);

impl DocId {
    /// The document of a single-document deployment.
    pub const DEFAULT: DocId = DocId(0);
}

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc{}", self.0)
    }
}

/// Counters describing a replica's replication behaviour (summed across
/// all documents), for tests and the examples' narration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Bundles applied directly on arrival.
    pub applied_direct: usize,
    /// Bundles that had to wait in the causal buffer first.
    pub buffered: usize,
    /// Bundles that turned out to be pure duplicates.
    pub duplicates: usize,
    /// Events ingested from remote bundles.
    pub remote_events: usize,
}

/// What [`Replica::receive`] did with a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The bundle (and possibly previously buffered ones) applied; this many
    /// new events were ingested in total.
    Applied(usize),
    /// The bundle is causally premature and was buffered.
    Buffered,
    /// Every event in the bundle was already known.
    Duplicate,
    /// The bundle was structurally invalid and dropped.
    Rejected,
}

/// One document's replicated state: the event graph, the materialised
/// branch, and the causal buffer for out-of-order bundles.
#[derive(Debug)]
struct DocState {
    /// The event graph and operations (durable state).
    oplog: OpLog,
    /// The live document (text + version).
    branch: Branch,
    /// Causal buffer: bundles whose parents have not all arrived yet.
    pending: Vec<EventBundle>,
    /// Reused walker scratch state: every merge for this document drives
    /// the same tracker, so its slabs / ID index / scratch buffers are
    /// allocated once and recycled (the per-merge allocation storm the
    /// slab arena exists to kill).
    tracker: Tracker,
}

impl DocState {
    fn new(agent_name: &str) -> Self {
        let mut oplog = OpLog::new();
        oplog.get_or_create_agent(agent_name);
        DocState {
            oplog,
            branch: Branch::new(),
            pending: Vec::new(),
            tracker: Tracker::new(),
        }
    }

    fn merge(&mut self) {
        self.branch.merge_reusing(&self.oplog, &mut self.tracker);
    }
}

/// One collaborating node (paper §2.1), hosting a shard space of
/// documents. Each document keeps the full editing history, the
/// materialised text, and a buffer of causally premature bundles.
///
/// Local edits apply to the branch immediately ("without waiting for a
/// network round-trip"); remote bundles are merged through the walker,
/// which transforms their indexes against any concurrent local edits.
#[derive(Debug)]
pub struct Replica {
    name: String,
    docs: BTreeMap<DocId, DocState>,
    stats: ReplicaStats,
}

impl Replica {
    /// Creates an empty replica named `name` (the name is its agent ID on
    /// the wire, so it must be unique among collaborators).
    pub fn new(name: &str) -> Self {
        Replica {
            name: name.to_string(),
            docs: BTreeMap::new(),
            stats: ReplicaStats::default(),
        }
    }

    /// The replica's name / agent ID.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replication counters, summed across documents.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// The documents this replica holds at least one event for, in
    /// ascending id order.
    pub fn doc_ids(&self) -> Vec<DocId> {
        self.docs
            .iter()
            .filter(|(_, d)| !d.oplog.is_empty())
            .map(|(&id, _)| id)
            .collect()
    }

    fn doc(&self, doc: DocId) -> Option<&DocState> {
        self.docs.get(&doc)
    }

    /// The current text of `doc` (empty if the replica has never seen it).
    pub fn text(&self, doc: DocId) -> String {
        self.doc(doc)
            .map(|d| d.branch.content.to_string())
            .unwrap_or_default()
    }

    /// The number of characters in `doc`.
    pub fn len_chars(&self, doc: DocId) -> usize {
        self.doc(doc).map_or(0, |d| d.branch.len_chars())
    }

    /// The replica's anti-entropy digest of `doc`: a per-agent version
    /// vector rather than the causal frontier. Version vectors stay
    /// meaningful to a peer whose history has diverged — frontier tips the
    /// peer has never seen say nothing about their ancestry, which made
    /// post-partition resume degenerate to near-full re-sends. Empty if
    /// the document is unknown.
    pub fn digest(&self, doc: DocId) -> Vec<RemoteId> {
        self.doc(doc)
            .map(|d| d.oplog.version_vector())
            .unwrap_or_default()
    }

    /// Digests for every non-empty document, in ascending id order: the
    /// replica's whole shard space in network form.
    pub fn digest_all(&self) -> Vec<(DocId, Vec<RemoteId>)> {
        self.docs
            .iter()
            .filter(|(_, d)| !d.oplog.is_empty())
            .map(|(&id, d)| (id, d.oplog.version_vector()))
            .collect()
    }

    /// Everything this replica knows about `doc` that a peer with `digest`
    /// is missing.
    pub fn bundle_since(&self, doc: DocId, digest: &[RemoteId]) -> EventBundle {
        self.doc(doc)
            .map(|d| d.oplog.bundle_since(digest))
            .unwrap_or_default()
    }

    /// Inserts `text` at `pos` in `doc`, returning the bundle to replicate.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the end of the document or `text` is
    /// empty.
    pub fn insert(&mut self, doc: DocId, pos: usize, text: &str) -> EventBundle {
        let Self { name, docs, .. } = self;
        let d = docs.entry(doc).or_insert_with(|| DocState::new(name));
        assert!(pos <= d.branch.len_chars(), "insert out of bounds");
        let before = d.branch.version.clone();
        let agent = d.oplog.get_or_create_agent(name);
        d.oplog.add_insert_at(agent, &before, pos, text);
        d.merge();
        d.oplog.bundle_since_local(&before)
    }

    /// Deletes `len` characters at `pos` in `doc`, returning the bundle to
    /// replicate.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn delete(&mut self, doc: DocId, pos: usize, len: usize) -> EventBundle {
        let Self { name, docs, .. } = self;
        let d = docs.entry(doc).or_insert_with(|| DocState::new(name));
        assert!(pos + len <= d.branch.len_chars(), "delete out of bounds");
        let before = d.branch.version.clone();
        let agent = d.oplog.get_or_create_agent(name);
        d.oplog.add_delete_at(agent, &before, pos, len);
        d.merge();
        d.oplog.bundle_since_local(&before)
    }

    /// Inserts `text` at `pos` in `doc` **authored by `agent`**, without
    /// extracting a per-edit bundle — the server-host hot path.
    ///
    /// [`Replica::insert`] authors every edit as the replica itself
    /// and pays for a replication bundle per keystroke; a multi-session
    /// host authors edits as the originating session and replicates later
    /// via batched anti-entropy, so this path does neither. It also skips
    /// the pre-edit frontier clone (the edit parents directly at the live
    /// branch version), keeping the steady state allocation-free apart
    /// from the log append itself.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is beyond the end of the document or `text` is
    /// empty.
    pub fn edit_insert_as(&mut self, doc: DocId, agent: &str, pos: usize, text: &str) {
        let Self { name, docs, .. } = self;
        let d = docs.entry(doc).or_insert_with(|| DocState::new(name));
        assert!(pos <= d.branch.len_chars(), "insert out of bounds");
        let agent = d.oplog.get_or_create_agent(agent);
        d.oplog.add_insert_at(agent, &d.branch.version, pos, text);
        d.merge();
    }

    /// Deletes `len` characters at `pos` in `doc` authored by `agent`;
    /// the delete-side twin of [`Replica::edit_insert_as`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn edit_delete_as(&mut self, doc: DocId, agent: &str, pos: usize, len: usize) {
        let Self { name, docs, .. } = self;
        let d = docs.entry(doc).or_insert_with(|| DocState::new(name));
        assert!(pos + len <= d.branch.len_chars(), "delete out of bounds");
        let agent = d.oplog.get_or_create_agent(agent);
        d.oplog.add_delete_at(agent, &d.branch.version, pos, len);
        d.merge();
    }

    /// Ingests a remote bundle for `doc` with causal buffering.
    ///
    /// Premature bundles are stashed; each successful application retries
    /// the stash to a fixpoint, so delivery order does not matter as long
    /// as everything arrives eventually. A bundle that neither applies nor
    /// is stashed leaves no trace: an unknown `doc` stays unknown.
    pub fn receive(&mut self, doc: DocId, bundle: &EventBundle) -> ReceiveOutcome {
        let Self { name, docs, stats } = self;
        let mut fresh = None;
        let d = match docs.get_mut(&doc) {
            Some(d) => d,
            None => fresh.insert(DocState::new(name)),
        };
        let outcome = match d.oplog.apply_bundle(bundle) {
            Ok(new) if new.is_empty() => {
                stats.duplicates += 1;
                ReceiveOutcome::Duplicate
            }
            Ok(new) => {
                let mut total = new.len();
                total += Self::drain_pending(d);
                d.merge();
                stats.applied_direct += 1;
                stats.remote_events += total;
                ReceiveOutcome::Applied(total)
            }
            Err(BundleError::MissingParents(_)) => {
                stats.buffered += 1;
                // Keep at most one copy of identical bundles.
                if !d.pending.contains(bundle) {
                    d.pending.push(bundle.clone());
                }
                ReceiveOutcome::Buffered
            }
            Err(BundleError::Malformed(_)) => ReceiveOutcome::Rejected,
        };
        if let Some(d) = fresh {
            if matches!(
                outcome,
                ReceiveOutcome::Applied(_) | ReceiveOutcome::Buffered
            ) {
                docs.insert(doc, d);
            }
        }
        outcome
    }

    /// Retries buffered bundles until none can make progress. Returns the
    /// number of events ingested.
    fn drain_pending(d: &mut DocState) -> usize {
        let mut total = 0;
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < d.pending.len() {
                match d.oplog.apply_bundle(&d.pending[i]) {
                    Ok(new) => {
                        total += new.len();
                        d.pending.swap_remove(i);
                        progressed = true;
                    }
                    Err(BundleError::MissingParents(_)) => i += 1,
                    Err(BundleError::Malformed(_)) => {
                        d.pending.swap_remove(i);
                    }
                }
            }
            if !progressed {
                return total;
            }
        }
    }

    /// The number of bundles waiting in causal buffers, across all
    /// documents.
    pub fn pending_len(&self) -> usize {
        self.docs.values().map(|d| d.pending.len()).sum()
    }

    /// The number of bundles waiting in `doc`'s causal buffer.
    pub fn pending_len_doc(&self, doc: DocId) -> usize {
        self.doc(doc).map_or(0, |d| d.pending.len())
    }

    /// Borrows `doc`'s oplog and branch, e.g. for a persistence layer
    /// appending the log tail and writing checkpoints.
    pub fn doc_parts(&self, doc: DocId) -> Option<(&OpLog, &Branch)> {
        self.doc(doc).map(|d| (&d.oplog, &d.branch))
    }

    /// Installs a document rebuilt by a persistence layer (a segment-store
    /// reopen): the full oplog plus the branch materialised at its tip.
    /// Replaces any state this replica held for `doc`; the causal buffer
    /// starts empty and the walker tracker starts fresh.
    pub fn install_doc(&mut self, doc: DocId, mut oplog: OpLog, branch: Branch) {
        debug_assert_eq!(&branch.version, oplog.version(), "branch must be at tip");
        oplog.get_or_create_agent(&self.name);
        self.docs.insert(
            doc,
            DocState {
                oplog,
                branch,
                pending: Vec::new(),
                tracker: Tracker::new(),
            },
        );
    }

    /// Canonical comparable state: per non-empty document, the sorted
    /// digest and the text. Two replicas (or any unions of per-shard
    /// replicas, e.g. a worker pool's) hold the same documents iff their
    /// snapshots are equal.
    pub fn snapshot(&self) -> Vec<(DocId, Vec<RemoteId>, String)> {
        self.docs
            .iter()
            .filter(|(_, d)| !d.oplog.is_empty())
            .map(|(&id, d)| {
                let mut digest = d.oplog.remote_version();
                digest.sort();
                (id, digest, d.branch.content.to_string())
            })
            .collect()
    }

    /// Two-way state comparison: `true` if both replicas have the same
    /// events and the same text in every document either of them holds.
    pub fn converged_with(&self, other: &Replica) -> bool {
        self.snapshot() == other.snapshot()
    }
}

/// The link's view of a replica: digests, extraction and integration by
/// document, on the calling thread.
impl SyncHost for Replica {
    fn digest_of(&self, docs: &[DocId]) -> Vec<(DocId, Vec<RemoteId>)> {
        let mut docs = docs.to_vec();
        docs.sort_unstable();
        docs.dedup();
        docs.into_iter()
            .map(|doc| (doc, self.digest(doc)))
            .filter(|(_, vector)| !vector.is_empty())
            .collect()
    }

    fn digest_all(&self) -> Vec<(DocId, Vec<RemoteId>)> {
        Replica::digest_all(self)
    }

    fn bundles_for_listed(&self, have: &[(DocId, Vec<RemoteId>)]) -> Vec<(DocId, EventBundle)> {
        have.iter()
            .map(|(doc, vector)| (*doc, self.bundle_since(*doc, vector)))
            .filter(|(_, bundle)| !bundle.is_empty())
            .collect()
    }

    fn receive(&mut self, batch: Vec<(DocId, EventBundle)>) -> Vec<DocId> {
        batch
            .into_iter()
            .map(|(doc, bundle)| {
                Replica::receive(self, doc, &bundle);
                doc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DocId = DocId::DEFAULT;

    #[test]
    fn local_edits_apply_immediately() {
        let mut r = Replica::new("alice");
        r.insert(D, 0, "hello");
        r.insert(D, 5, " world");
        r.delete(D, 0, 1);
        assert_eq!(r.text(D), "ello world");
    }

    #[test]
    fn direct_exchange_converges() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let ba = a.insert(D, 0, "from alice ");
        let bb = b.insert(D, 0, "from bob ");
        assert!(matches!(b.receive(D, &ba), ReceiveOutcome::Applied(11)));
        assert!(matches!(a.receive(D, &bb), ReceiveOutcome::Applied(9)));
        assert!(a.converged_with(&b));
    }

    #[test]
    fn out_of_order_delivery_buffers_then_applies() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let first = a.insert(D, 0, "one ");
        let second = a.insert(D, 4, "two");
        // Deliver in the wrong order.
        assert_eq!(b.receive(D, &second), ReceiveOutcome::Buffered);
        assert_eq!(b.pending_len(), 1);
        assert!(matches!(b.receive(D, &first), ReceiveOutcome::Applied(7)));
        assert_eq!(b.pending_len(), 0);
        assert!(a.converged_with(&b));
        assert_eq!(b.stats().buffered, 1);
    }

    /// A chain buffered newest-first needs one fixpoint pass per link: the
    /// bundle that unblocks it drains all of it in a single `receive`.
    #[test]
    fn three_deep_out_of_order_chain_drains_in_one_receive() {
        let doc = DocId(7);
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let first = a.insert(doc, 0, "one ");
        let second = a.insert(doc, 4, "two ");
        let third = a.insert(doc, 8, "three ");
        let fourth = a.insert(doc, 14, "four");
        for late in [&fourth, &third, &second] {
            assert_eq!(b.receive(doc, late), ReceiveOutcome::Buffered);
        }
        assert_eq!(b.pending_len_doc(doc), 3);
        assert_eq!(b.receive(doc, &first), ReceiveOutcome::Applied(18));
        assert_eq!(b.pending_len_doc(doc), 0);
        assert_eq!(b.text(doc), "one two three four");
        assert!(a.converged_with(&b));
        assert_eq!(b.stats().buffered, 3);
    }

    /// Only a bundle that applies or waits for its parents creates a
    /// document; a malformed or empty one leaves the replica as it was.
    #[test]
    fn a_bundle_that_applies_nothing_creates_no_document() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let first = a.insert(DocId(1), 0, "one ");
        let second = a.insert(DocId(1), 4, "two");
        let mut bad = first.clone();
        bad.runs[0].content = None;
        assert_eq!(b.receive(DocId(2), &bad), ReceiveOutcome::Rejected);
        assert_eq!(
            b.receive(DocId(3), &EventBundle::default()),
            ReceiveOutcome::Duplicate
        );
        assert!(b.doc_parts(DocId(2)).is_none() && b.doc_parts(DocId(3)).is_none());
        assert_eq!(b.receive(DocId(1), &second), ReceiveOutcome::Buffered);
        assert!(b.doc_parts(DocId(1)).is_some(), "stashed");
        assert_eq!(b.receive(DocId(1), &first), ReceiveOutcome::Applied(7));
        assert_eq!(b.doc_ids(), vec![DocId(1)]);
    }

    #[test]
    fn duplicates_are_detected() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let bundle = a.insert(D, 0, "x");
        assert!(matches!(b.receive(D, &bundle), ReceiveOutcome::Applied(1)));
        assert_eq!(b.receive(D, &bundle), ReceiveOutcome::Duplicate);
    }

    #[test]
    fn concurrent_positions_transform() {
        // The Figure 1 scenario, end to end through replicas.
        let mut u1 = Replica::new("user1");
        let mut u2 = Replica::new("user2");
        let seed = u1.insert(D, 0, "Helo");
        u2.receive(D, &seed);
        let b1 = u1.insert(D, 3, "l"); // "Hello"
        let b2 = u2.insert(D, 4, "!"); // "Helo!"
        u2.receive(D, &b1);
        u1.receive(D, &b2);
        assert_eq!(u1.text(D), "Hello!");
        assert_eq!(u2.text(D), "Hello!");
    }

    #[test]
    fn anti_entropy_bundle_since() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        a.insert(D, 0, "shared");
        let missing = a.bundle_since(D, &b.digest(D));
        b.receive(D, &missing);
        // Now in sync: the delta is empty.
        assert!(a.bundle_since(D, &b.digest(D)).is_empty());
        assert!(b.bundle_since(D, &a.digest(D)).is_empty());
    }

    #[test]
    fn documents_are_isolated_shards() {
        let mut r = Replica::new("alice");
        r.insert(DocId(1), 0, "first doc");
        r.insert(DocId(2), 0, "second doc");
        assert_eq!(r.text(DocId(1)), "first doc");
        assert_eq!(r.text(DocId(2)), "second doc");
        assert_eq!(r.text(DocId(3)), "");
        assert_eq!(r.doc_ids(), vec![DocId(1), DocId(2)]);
        // Digests are scoped per shard.
        assert_eq!(r.digest(DocId(1)).len(), 1);
        assert!(r.digest(DocId(3)).is_empty());
        assert_ne!(r.digest(DocId(1)), r.digest(DocId(2)));
    }

    #[test]
    fn per_doc_exchange_converges_independently() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let d1 = DocId(10);
        let d2 = DocId(20);
        let b1 = a.insert(d1, 0, "alpha");
        let b2 = b.insert(d2, 0, "beta");
        // Cross-deliver: each side learns the other's document.
        assert!(matches!(b.receive(d1, &b1), ReceiveOutcome::Applied(5)));
        assert!(matches!(a.receive(d2, &b2), ReceiveOutcome::Applied(4)));
        assert!(a.converged_with(&b));
        assert_eq!(a.text(d2), "beta");
        assert_eq!(b.text(d1), "alpha");
    }

    #[test]
    fn converged_compares_whole_shard_space() {
        let mut a = Replica::new("alice");
        let mut b = Replica::new("bob");
        let bundle = a.insert(DocId(5), 0, "only in a");
        assert!(!a.converged_with(&b));
        b.receive(DocId(5), &bundle);
        assert!(a.converged_with(&b));
        // A doc id mismatch is divergence even with identical content.
        let c5 = a.insert(DocId(6), 0, "z");
        b.receive(DocId(7), &c5);
        assert!(!a.converged_with(&b));
    }

    #[test]
    fn agent_scoped_edits_author_as_their_session() {
        let mut r = Replica::new("server");
        r.edit_insert_as(DocId(1), "s0", 0, "hello");
        r.edit_insert_as(DocId(1), "s1", 5, " world");
        r.edit_delete_as(DocId(1), "s0", 0, 1);
        assert_eq!(r.text(DocId(1)), "ello world");
        // The digest names the authoring sessions, not the host.
        let digest = r.digest(DocId(1));
        assert!(digest.iter().all(|id| id.agent.starts_with('s')));
        // And the edits replicate like any other events.
        let mut peer = Replica::new("peer");
        let bundle = r.bundle_since(DocId(1), &peer.digest(DocId(1)));
        assert!(matches!(
            peer.receive(DocId(1), &bundle),
            ReceiveOutcome::Applied(12)
        ));
        assert!(peer.converged_with(&r));
    }

    #[test]
    fn digest_all_lists_every_shard() {
        let mut r = Replica::new("alice");
        r.insert(DocId(2), 0, "two");
        r.insert(DocId(9), 0, "nine");
        let all = r.digest_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, DocId(2));
        assert_eq!(all[1].0, DocId(9));
        assert!(all.iter().all(|(_, v)| !v.is_empty()));
    }
}
