//! The worker thread: one `Replica` shard, one mpsc inbox, no locks.
//!
//! Each worker owns the documents its shard maps to ([`crate::shard_for`])
//! and is the only thread that ever touches them, so every per-document
//! code path — merge, digest, extraction, integration — runs with the
//! exact single-threaded machinery PRs 4–6 optimised (reused trackers,
//! slab arenas, zero-alloc steady state). Cross-thread traffic is plain
//! `std::sync::mpsc`: jobs flow in, replies flow out on per-call channels,
//! and edit batches recycle their backing `Vec`s to the host so the
//! steady-state loop allocates nothing per op.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use eg_dag::RemoteId;
use eg_storage::DocStore;
use eg_sync::{DocId, ReceiveOutcome, Replica};
use eg_trace::FleetOp;
use egwalker::EventBundle;

use crate::fleet::{apply_fleet_op, FleetOutcome, SessionNames};
use crate::shard::shard_for;

/// A batch of edit submissions: indices into a shared script. The
/// `items` vector is recycled back to the host after processing.
pub(crate) struct EditBatch {
    pub script: Arc<[FleetOp]>,
    pub items: Vec<u32>,
}

/// Merge counters one worker accumulates between harvests, and the
/// host's roll-up of all of them.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub inserts: u64,
    pub deletes: u64,
    /// Edit ops that reduced to nothing (delete on an empty document).
    pub skipped: u64,
}

impl LoadReport {
    /// Total merged edit ops.
    pub fn edits(&self) -> u64 {
        self.inserts + self.deletes
    }

    pub(crate) fn merge(&mut self, other: &LoadReport) {
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.skipped += other.skipped;
    }
}

/// Per-worker construction parameters, handed to the spawned thread.
pub(crate) struct WorkerCtx {
    pub host_name: String,
    /// This worker's index in the pool (its shard id).
    pub index: usize,
    /// Total pool size — with `index`, determines which persisted segment
    /// files this worker claims at startup.
    pub workers: usize,
    pub persist_dir: Option<PathBuf>,
}

/// What the persistence layer restored at worker startup and has written
/// since, summed across the pool by [`crate::ServerHost::persist_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Documents restored from segment files.
    pub docs_loaded: usize,
    /// Of those, how many opened through the cached-load fast path (a
    /// checkpoint resolved; the rest replayed their history cold).
    pub docs_cached: usize,
    /// Segment files the store refused at startup (damaged, or not a
    /// segment store). Each was reported, skipped and left untouched; its
    /// document lives in memory only.
    pub docs_refused: usize,
    /// Total length of the open segment files.
    pub store_bytes: u64,
    /// Checkpoints written since startup (each replaced its file).
    pub checkpoints_written: u64,
    /// Of those, how many took their tracker snapshot from the tracker the
    /// document's last merge left live (the rest rebuilt one by replaying
    /// the conflict window).
    pub checkpoints_live: u64,
    /// Bytes written to segment files since startup, replaced ones
    /// included: ÷ `store_bytes` is the write amplification.
    pub bytes_written: u64,
}

impl PersistStats {
    pub(crate) fn merge(&mut self, other: &PersistStats) {
        self.docs_loaded += other.docs_loaded;
        self.docs_cached += other.docs_cached;
        self.docs_refused += other.docs_refused;
        self.store_bytes += other.store_bytes;
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoints_live += other.checkpoints_live;
        self.bytes_written += other.bytes_written;
    }
}

/// The worker-private persistence layer: one open [`DocStore`] per owned
/// document. Edits and received bundles are appended after every batch
/// (crash-safe: a torn tail loses at most the last batch), checkpoints
/// are written whenever a store says one is due
/// ([`DocStore::checkpoint_due`]).
struct Persistence {
    dir: PathBuf,
    stores: HashMap<DocId, DocStore>,
    /// Documents whose file [`DocStore::open`] refused at startup: never
    /// opened, written or replaced again, so the file stays as it was.
    refused: HashSet<DocId>,
    /// The startup counts and `checkpoints_written`; the byte totals are
    /// read off the stores on demand ([`Self::stats`]).
    stats: PersistStats,
}

impl Persistence {
    fn doc_path(dir: &Path, doc: DocId) -> PathBuf {
        dir.join(format!("doc-{}.seg", doc.0))
    }

    /// Opens the persist dir, claims every segment file whose document
    /// shards to this worker, and installs the restored documents into
    /// `replica`. Documents are materialised through the cached path when
    /// their file holds a usable checkpoint. Temp files that this
    /// shard's interrupted checkpoints left behind are deleted. A file the
    /// store refuses is reported on stderr, counted and skipped.
    fn open(dir: PathBuf, index: usize, workers: usize, replica: &mut Replica) -> Self {
        std::fs::create_dir_all(&dir).expect("create persist dir");
        let mut this = Persistence {
            dir,
            stores: HashMap::new(),
            refused: HashSet::new(),
            stats: PersistStats::default(),
        };
        let entries = std::fs::read_dir(&this.dir).expect("scan persist dir");
        for entry in entries {
            let entry = entry.expect("read persist dir entry");
            let name = entry.file_name();
            let name = name.to_str().unwrap_or_default();
            let (name, leftover) = match name.strip_suffix(".tmp") {
                Some(stem) => (stem, true),
                None => (name, false),
            };
            let Some(doc) = name
                .strip_prefix("doc-")
                .and_then(|n| n.strip_suffix(".seg"))
                .and_then(|n| n.parse::<u64>().ok())
                .map(DocId)
            else {
                continue;
            };
            if shard_for(doc, workers) != index {
                continue;
            }
            if leftover {
                // `DocStore::open` on the store beside it may get there
                // first.
                let _ = std::fs::remove_file(entry.path());
                continue;
            }
            let (store, loaded) = match DocStore::open(entry.path()) {
                Ok(opened) => opened,
                Err(e) => {
                    eprintln!(
                        "eg-server: skipping segment file {}: {e}; document {} stays in memory only",
                        entry.path().display(),
                        doc.0
                    );
                    this.stats.docs_refused += 1;
                    this.refused.insert(doc);
                    continue;
                }
            };
            if !loaded.oplog.is_empty() {
                this.stats.docs_loaded += 1;
                if loaded.cached {
                    this.stats.docs_cached += 1;
                }
                replica.install_doc(doc, loaded.oplog, loaded.branch, loaded.tracker);
            }
            this.stores.insert(doc, store);
        }
        this
    }

    /// Appends everything new in `doc` past its persisted frontier, and
    /// writes a checkpoint when the store's tail has earned one.
    fn persist(&mut self, replica: &mut Replica, doc: DocId) {
        self.save(replica, doc, DocStore::checkpoint_due);
    }

    /// Forces a checkpoint on every owned document with events past its
    /// last checkpoint. Returns how many checkpoints were written.
    fn checkpoint_all(&mut self, replica: &mut Replica) -> usize {
        replica
            .doc_ids()
            .into_iter()
            .filter(|&doc| self.save(replica, doc, |store| store.events_since_checkpoint() > 0))
            .count()
    }

    /// Appends what is new in `doc`, then checkpoints it if `due` says so,
    /// snapshotting the document's own tracker. Returns whether it wrote a
    /// checkpoint.
    fn save(&mut self, replica: &mut Replica, doc: DocId, due: impl Fn(&DocStore) -> bool) -> bool {
        if self.refused.contains(&doc) {
            return false;
        }
        let Some((oplog, branch, tracker)) = replica.doc_parts(doc) else {
            return false;
        };
        let store = self.stores.entry(doc).or_insert_with(|| {
            let (store, _) =
                DocStore::open(Self::doc_path(&self.dir, doc)).expect("create segment store");
            store
        });
        store.append_new(oplog).expect("append to segment store");
        if !due(store) {
            return false;
        }
        let from_live = store
            .write_checkpoint_with(oplog, branch, tracker)
            .expect("checkpoint");
        self.stats.checkpoints_written += 1;
        self.stats.checkpoints_live += u64::from(from_live);
        true
    }

    fn stats(&self) -> PersistStats {
        let mut stats = self.stats;
        for store in self.stores.values() {
            stats.store_bytes += store.file_bytes();
            stats.bytes_written += store.bytes_written();
        }
        stats
    }
}

/// Everything a worker can be asked to do. Reply channels are per-call,
/// created by the host for each fan-out.
pub(crate) enum Job {
    /// Apply a batch of fleet edits to this shard.
    Edits(EditBatch),
    /// Report this shard's per-document digests: of the documents in
    /// `only` (the host pre-routed them by affinity), or of every one.
    Digests {
        only: Option<Vec<DocId>>,
        reply: Sender<Vec<(DocId, Vec<RemoteId>)>>,
    },
    /// Extract bundles this shard has that the peer digest lacks: from
    /// every document of the shard, or with `listed_only` from just the
    /// ones the digest names. The digest is sorted by `DocId` for binary
    /// search.
    Extract {
        peer: Arc<Vec<(DocId, Vec<RemoteId>)>>,
        listed_only: bool,
        reply: Sender<Vec<(DocId, EventBundle)>>,
    },
    /// Integrate remote bundles into this shard (host pre-routed them by
    /// affinity).
    Receive(Vec<(DocId, EventBundle)>),
    /// Report a canonical snapshot of this shard.
    Snapshot(Sender<Vec<(DocId, Vec<RemoteId>, String)>>),
    /// Hand over (and reset) the accumulated load report.
    Harvest(Sender<LoadReport>),
    /// Force a checkpoint on every owned document that has events past
    /// its last one; reply with the number written. No-op (0) without a
    /// persist dir.
    Checkpoint(Sender<usize>),
    /// Report what persistence restored at startup and has written since
    /// (zeroes without a persist dir).
    Persisted(Sender<PersistStats>),
    /// Pure barrier: ack once every previously queued job is done.
    Flush(Sender<()>),
}

/// The worker main loop. Exits when the host drops all job senders.
pub(crate) fn worker_main(ctx: WorkerCtx, jobs: Receiver<Job>, recycle: Sender<Vec<u32>>) {
    let mut replica = Replica::new(&ctx.host_name);
    let mut names = SessionNames::new(&ctx.host_name);
    let mut report = LoadReport::default();
    let mut persist = ctx
        .persist_dir
        .map(|dir| Persistence::open(dir, ctx.index, ctx.workers, &mut replica));
    // Scratch list of documents an edit batch touched, reused per batch.
    let mut touched: Vec<DocId> = Vec::new();

    while let Ok(job) = jobs.recv() {
        match job {
            Job::Edits(batch) => {
                for &idx in &batch.items {
                    let op = &batch.script[idx as usize];
                    if persist.is_some() {
                        if let FleetOp::Insert { doc, .. } | FleetOp::Delete { doc, .. } = op {
                            let doc = DocId(*doc);
                            if !touched.contains(&doc) {
                                touched.push(doc);
                            }
                        }
                    }
                    match apply_fleet_op(&mut replica, &mut names, op) {
                        FleetOutcome::Insert => report.inserts += 1,
                        FleetOutcome::Delete => report.deletes += 1,
                        FleetOutcome::Skipped => report.skipped += 1,
                        FleetOutcome::NonEdit => {}
                    }
                }
                if let Some(p) = persist.as_mut() {
                    for doc in touched.drain(..) {
                        p.persist(&mut replica, doc);
                    }
                }
                let mut items = batch.items;
                items.clear();
                // Host gone mid-shutdown: recycling is best-effort.
                let _ = recycle.send(items);
            }
            Job::Digests { only, reply } => {
                let _ = reply.send(match only {
                    None => replica.digest_all(),
                    Some(docs) => docs
                        .into_iter()
                        .map(|doc| (doc, replica.digest(doc)))
                        .filter(|(_, vector)| !vector.is_empty())
                        .collect(),
                });
            }
            Job::Extract {
                peer,
                listed_only,
                reply,
            } => {
                let docs = if listed_only {
                    peer.iter()
                        .map(|e| e.0)
                        .filter(|&doc| shard_for(doc, ctx.workers) == ctx.index)
                        .collect()
                } else {
                    replica.doc_ids()
                };
                let mut out = Vec::new();
                for doc in docs {
                    let have = match peer.binary_search_by_key(&doc, |e| e.0) {
                        Ok(i) => peer[i].1.as_slice(),
                        Err(_) => &[],
                    };
                    let bundle = replica.bundle_since(doc, have);
                    if !bundle.is_empty() {
                        out.push((doc, bundle));
                    }
                }
                let _ = reply.send(out);
            }
            Job::Receive(bundles) => {
                // Only what applied has anything to persist: a stashed or
                // rejected bundle must not open a store for its document.
                let mut applied = Vec::new();
                for (doc, bundle) in &bundles {
                    if let ReceiveOutcome::Applied(_) = replica.receive(*doc, bundle) {
                        applied.push(*doc);
                    }
                }
                if let Some(p) = persist.as_mut() {
                    for doc in applied {
                        p.persist(&mut replica, doc);
                    }
                }
            }
            Job::Snapshot(reply) => {
                let _ = reply.send(replica.snapshot());
            }
            Job::Harvest(reply) => {
                let _ = reply.send(std::mem::take(&mut report));
            }
            Job::Checkpoint(reply) => {
                let written = persist
                    .as_mut()
                    .map_or(0, |p| p.checkpoint_all(&mut replica));
                let _ = reply.send(written);
            }
            Job::Persisted(reply) => {
                let _ = reply.send(
                    persist
                        .as_ref()
                        .map_or_else(PersistStats::default, Persistence::stats),
                );
            }
            Job::Flush(reply) => {
                let _ = reply.send(());
            }
        }
    }
}
