//! [`ServerHost`]: the coordinator that owns the worker pool.
//!
//! The host is the single seam between callers and the shard threads. It
//! never touches document state itself; it routes work by shard affinity,
//! fans anti-entropy out across the pool, and rolls replies back up.
//! Every public method takes `&self` — the host's own state is channels
//! and config — so a driver thread can interleave edit submission and
//! sync rounds freely.

use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use eg_dag::RemoteId;
use eg_sync::{DocId, SyncHost};
use eg_trace::FleetOp;
use egwalker::EventBundle;

use crate::shard::shard_for;
use crate::worker::{worker_main, EditBatch, Job, LoadReport, PersistStats, WorkerCtx};

/// Pool construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Replica name; also the namespace for fleet session agents, so two
    /// hosts syncing with each other must use distinct names.
    pub name: String,
    /// Worker thread count. Fixed for the host's lifetime (the shard map
    /// depends on it).
    pub workers: usize,
    /// Edits per batch handed to a worker. Larger batches amortise the
    /// channel send; smaller ones reduce queueing latency.
    pub batch: usize,
    /// Directory of per-document segment stores (`doc-{id}.seg`). When
    /// set, each worker reopens its shard's documents at startup — warm,
    /// through the checkpoint fast path where one resolves — and appends
    /// every edit/receive batch to disk. `None` keeps the host purely
    /// in-memory.
    pub persist_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "server".to_owned(),
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            batch: 128,
            persist_dir: None,
        }
    }
}

/// A multi-threaded in-process document host: shard-affinity worker pool
/// over [`eg_sync::Replica`] state, parallel anti-entropy.
pub struct ServerHost {
    config: ServerConfig,
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    /// Spent edit-batch vectors coming back from workers for reuse.
    recycle: Receiver<Vec<(u32, Instant)>>,
}

impl ServerHost {
    /// A host named `"server"` with `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self::with_config(ServerConfig {
            workers,
            ..ServerConfig::default()
        })
    }

    pub fn with_config(config: ServerConfig) -> Self {
        assert!(config.workers > 0, "worker pool must not be empty");
        assert!(config.batch > 0, "batch size must not be zero");
        let (recycle_tx, recycle) = mpsc::channel();
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let (tx, rx) = mpsc::channel();
            let ctx = WorkerCtx {
                host_name: config.name.clone(),
                index: i,
                workers: config.workers,
                persist_dir: config.persist_dir.clone(),
            };
            let recycle_tx = recycle_tx.clone();
            let handle = thread::Builder::new()
                .name(format!("eg-server-w{i}"))
                .spawn(move || worker_main(ctx, rx, recycle_tx))
                .expect("spawn worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        ServerHost {
            config,
            senders,
            handles,
            recycle,
        }
    }

    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    fn send(&self, worker: usize, job: Job) {
        self.senders[worker]
            .send(job)
            .expect("worker thread died (panicked?)");
    }

    /// A fresh or recycled batch vector.
    fn grab_items(&self) -> Vec<(u32, Instant)> {
        self.recycle
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.config.batch))
    }

    /// Streams a fleet script into the pool: each edit op is routed to
    /// its document's owner with a submit timestamp, in script order.
    /// Per-worker FIFO channels plus per-doc affinity mean every
    /// document sees its ops exactly in script order — the determinism
    /// invariant. Non-edit ops (join/leave/ticks) shape the script at
    /// generation time and are not shipped. Returns the number of edit
    /// ops submitted; call [`Self::flush`] to wait for them.
    pub fn submit_script(&self, script: &Arc<[FleetOp]>) -> usize {
        assert!(script.len() <= u32::MAX as usize, "script too long");
        let nw = self.senders.len();
        let mut pending: Vec<Vec<(u32, Instant)>> = (0..nw).map(|_| self.grab_items()).collect();
        let mut submitted = 0usize;
        for (idx, op) in script.iter().enumerate() {
            let doc = match op {
                FleetOp::Insert { doc, .. } | FleetOp::Delete { doc, .. } => *doc,
                FleetOp::Join { .. } | FleetOp::Leave { .. } | FleetOp::Ticks(_) => continue,
            };
            let w = shard_for(DocId(doc), nw);
            pending[w].push((idx as u32, Instant::now()));
            submitted += 1;
            if pending[w].len() >= self.config.batch {
                let items = std::mem::replace(&mut pending[w], self.grab_items());
                self.send(
                    w,
                    Job::Edits(EditBatch {
                        script: Arc::clone(script),
                        items,
                    }),
                );
            }
        }
        for (w, items) in pending.into_iter().enumerate() {
            if !items.is_empty() {
                self.send(
                    w,
                    Job::Edits(EditBatch {
                        script: Arc::clone(script),
                        items,
                    }),
                );
            }
        }
        submitted
    }

    /// Barrier: returns once every job queued so far has been processed.
    pub fn flush(&self) {
        let (tx, rx) = mpsc::channel();
        for w in 0..self.senders.len() {
            self.send(w, Job::Flush(tx.clone()));
        }
        drop(tx);
        let acks = rx.iter().count();
        assert_eq!(acks, self.senders.len(), "worker died before flush ack");
    }

    /// Harvests and resets all per-worker load reports, merged into one.
    pub fn harvest(&self) -> LoadReport {
        let (tx, rx) = mpsc::channel();
        for w in 0..self.senders.len() {
            self.send(w, Job::Harvest(tx.clone()));
        }
        drop(tx);
        let mut merged = LoadReport::default();
        let mut replies = 0;
        for report in rx.iter() {
            merged.merge(&report);
            replies += 1;
        }
        assert_eq!(replies, self.senders.len(), "worker died before harvest");
        merged
    }

    /// Submit + flush + harvest in one call.
    pub fn run_script(&self, script: &Arc<[FleetOp]>) -> LoadReport {
        self.submit_script(script);
        self.flush();
        self.harvest()
    }

    /// Forces a checkpoint on every document with events past its last
    /// one, across all workers. Returns the number of checkpoints
    /// written (always 0 without a persist dir). Call before an orderly
    /// shutdown so the next startup reopens every document warm.
    pub fn checkpoint_all(&self) -> usize {
        let (tx, rx) = mpsc::channel();
        for w in 0..self.senders.len() {
            self.send(w, Job::Checkpoint(tx.clone()));
        }
        drop(tx);
        let mut written = 0;
        let mut replies = 0;
        for n in rx.iter() {
            written += n;
            replies += 1;
        }
        assert_eq!(replies, self.senders.len(), "worker died before checkpoint");
        written
    }

    /// What persistence restored at startup and has written since, summed
    /// across workers (all zeroes without a persist dir).
    pub fn persist_stats(&self) -> PersistStats {
        let (tx, rx) = mpsc::channel();
        for w in 0..self.senders.len() {
            self.send(w, Job::Persisted(tx.clone()));
        }
        drop(tx);
        let mut merged = PersistStats::default();
        let mut replies = 0;
        for stats in rx.iter() {
            merged.merge(&stats);
            replies += 1;
        }
        assert_eq!(replies, self.senders.len(), "worker died before stats");
        merged
    }

    /// Per-document digests of the whole host, fanned out across workers
    /// and merged sorted by document id — the parallel equivalent of
    /// [`eg_sync::Replica::digest_all`].
    pub fn digest_all(&self) -> Vec<(DocId, Vec<RemoteId>)> {
        self.digests(None)
    }

    /// [`Self::digest_all`] restricted to `docs`: only their owning
    /// workers are asked, and only for those documents, so what a
    /// keystroke costs does not grow with what else is resident. Unknown
    /// and empty documents are left out.
    pub fn digest_of(&self, docs: &[DocId]) -> Vec<(DocId, Vec<RemoteId>)> {
        self.digests(Some(docs))
    }

    fn digests(&self, only: Option<&[DocId]>) -> Vec<(DocId, Vec<RemoteId>)> {
        let nw = self.senders.len();
        let (tx, rx) = mpsc::channel();
        let mut asked = 0;
        for w in 0..nw {
            let only = only.map(|docs| {
                let mut mine: Vec<DocId> = docs
                    .iter()
                    .copied()
                    .filter(|&doc| shard_for(doc, nw) == w)
                    .collect();
                mine.sort_unstable();
                mine.dedup();
                mine
            });
            if only.as_ref().is_some_and(Vec::is_empty) {
                continue;
            }
            self.send(
                w,
                Job::Digests {
                    only,
                    reply: tx.clone(),
                },
            );
            asked += 1;
        }
        drop(tx);
        let mut replies = 0;
        let mut out = Vec::new();
        for shard in rx.iter() {
            out.extend(shard);
            replies += 1;
        }
        assert_eq!(replies, asked, "worker died before digest");
        out.sort_by_key(|e| e.0);
        out
    }

    /// Bundles this host has that a peer digest lacks, from every
    /// resident document (one the digest does not name is sent whole).
    /// Extraction runs on each document's owning worker (it walks live
    /// oplog state); only the returned owned bundles cross threads.
    pub fn bundles_for(&self, peer: &[(DocId, Vec<RemoteId>)]) -> Vec<(DocId, EventBundle)> {
        self.extract(peer, false)
    }

    /// [`Self::bundles_for`] restricted to the documents `peer` names:
    /// only their owning workers are asked. For a caller that already
    /// knows which documents the peer is short of.
    pub fn bundles_for_listed(&self, peer: &[(DocId, Vec<RemoteId>)]) -> Vec<(DocId, EventBundle)> {
        self.extract(peer, true)
    }

    fn extract(
        &self,
        peer: &[(DocId, Vec<RemoteId>)],
        listed_only: bool,
    ) -> Vec<(DocId, EventBundle)> {
        let nw = self.senders.len();
        let mut sorted = peer.to_vec();
        sorted.sort_by_key(|e| e.0);
        let peer = Arc::new(sorted);
        let (tx, rx) = mpsc::channel();
        let mut asked = 0;
        for w in 0..nw {
            if listed_only && !peer.iter().any(|e| shard_for(e.0, nw) == w) {
                continue;
            }
            self.send(
                w,
                Job::Extract {
                    peer: Arc::clone(&peer),
                    listed_only,
                    reply: tx.clone(),
                },
            );
            asked += 1;
        }
        drop(tx);
        let mut replies = 0;
        let mut out = Vec::new();
        for shard in rx.iter() {
            out.extend(shard);
            replies += 1;
        }
        assert_eq!(replies, asked, "worker died before extract");
        out.sort_by_key(|e| e.0);
        out
    }

    /// Routes remote bundles to their owning workers for integration.
    /// Returns once routed (not integrated); [`Self::flush`] to wait.
    pub fn receive_bundles(&self, bundles: Vec<(DocId, EventBundle)>) {
        let nw = self.senders.len();
        let mut per: Vec<Vec<(DocId, EventBundle)>> = (0..nw).map(|_| Vec::new()).collect();
        for (doc, bundle) in bundles {
            per[shard_for(doc, nw)].push((doc, bundle));
        }
        for (w, batch) in per.into_iter().enumerate() {
            if !batch.is_empty() {
                self.send(w, Job::Receive(batch));
            }
        }
    }

    /// Canonical snapshot of every non-empty document: `(doc, version,
    /// text)` sorted by document id. Byte-comparable against
    /// [`crate::replay_fleet_sequential`] and against other hosts.
    pub fn snapshot(&self) -> Vec<(DocId, Vec<RemoteId>, String)> {
        let (tx, rx) = mpsc::channel();
        for w in 0..self.senders.len() {
            self.send(w, Job::Snapshot(tx.clone()));
        }
        drop(tx);
        let mut replies = 0;
        let mut out = Vec::new();
        for shard in rx.iter() {
            out.extend(shard);
            replies += 1;
        }
        assert_eq!(replies, self.senders.len(), "worker died before snapshot");
        out.sort_by_key(|e| e.0);
        out
    }

    /// The current text of one document (empty string if unknown).
    pub fn text(&self, doc: DocId) -> String {
        let (tx, rx) = mpsc::channel();
        self.send(shard_for(doc, self.senders.len()), Job::Snapshot(tx));
        let shard = rx.recv().expect("worker died before snapshot");
        shard
            .into_iter()
            .find(|(d, _, _)| *d == doc)
            .map(|(_, _, text)| text)
            .unwrap_or_default()
    }

    /// Whether both hosts hold identical documents (versions and text).
    pub fn converged_with(&self, peer: &ServerHost) -> bool {
        self.snapshot() == peer.snapshot()
    }
}

/// What a `SyncLink` needs of a host: the fanned-out digests and
/// extraction above, and integration that has finished when it returns.
impl SyncHost for ServerHost {
    fn digest_of(&self, docs: &[DocId]) -> Vec<(DocId, Vec<RemoteId>)> {
        ServerHost::digest_of(self, docs)
    }

    fn digest_all(&self) -> Vec<(DocId, Vec<RemoteId>)> {
        ServerHost::digest_all(self)
    }

    fn bundles_for_listed(&self, have: &[(DocId, Vec<RemoteId>)]) -> Vec<(DocId, EventBundle)> {
        ServerHost::bundles_for_listed(self, have)
    }

    fn receive(&mut self, batch: Vec<(DocId, EventBundle)>) -> Vec<DocId> {
        let docs = batch.iter().map(|(doc, _)| *doc).collect();
        self.receive_bundles(batch);
        self.flush();
        docs
    }
}

impl Drop for ServerHost {
    fn drop(&mut self) {
        // Closing the job channels is the shutdown signal.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::replay_fleet_sequential;
    use eg_sync::{settle, Replica, SyncLink};
    use eg_trace::{fleet_workload, FleetSpec};

    fn small_script() -> Arc<[FleetOp]> {
        let spec = FleetSpec {
            docs: 16,
            sessions: 8,
            edits: 400,
            ..FleetSpec::default()
        };
        fleet_workload(&spec).into()
    }

    #[test]
    fn host_matches_sequential_replay() {
        let script = small_script();
        for workers in [1, 3] {
            let host = ServerHost::new(workers);
            let report = host.run_script(&script);
            assert!(report.edits() > 0);
            assert_eq!(host.snapshot(), replay_fleet_sequential("server", &script));
        }
    }

    #[test]
    fn report_counts_match_outcomes() {
        let script = small_script();
        let host = ServerHost::new(2);
        let report = host.run_script(&script);
        let edit_ops = script
            .iter()
            .filter(|op| matches!(op, FleetOp::Insert { .. } | FleetOp::Delete { .. }))
            .count() as u64;
        assert_eq!(report.edits() + report.skipped, edit_ops);
        assert_eq!(report.insert_latency.count(), report.inserts);
        assert_eq!(report.delete_latency.count(), report.deletes);
        // Harvest resets: a second harvest is empty.
        assert_eq!(host.harvest().edits(), 0);
    }

    #[test]
    fn two_hosts_converge_via_wire_sync() {
        let script = small_script();
        let mut a = ServerHost::with_config(ServerConfig {
            name: "hostA".into(),
            workers: 2,
            ..ServerConfig::default()
        });
        let mut b = ServerHost::with_config(ServerConfig {
            name: "hostB".into(),
            workers: 3,
            ..ServerConfig::default()
        });
        a.run_script(&script);
        assert!(!a.converged_with(&b));
        // An untouched host reports nothing.
        assert!(b.digest_all().is_empty());
        assert!(b.snapshot().is_empty());
        let (mut la, mut lb) = (SyncLink::open(&a), SyncLink::open(&b));
        assert!(settle(&mut la, &mut a, &mut lb, &mut b) > 0);
        assert!(a.converged_with(&b));
        // A further mark round queues no bundle frame.
        la.mark();
        lb.mark();
        assert_eq!(settle(&mut la, &mut a, &mut lb, &mut b), 0);
    }

    #[test]
    fn scoped_digest_and_extract_match_the_unscoped_ones() {
        let script = small_script();
        for workers in [1, 3] {
            let host = ServerHost::new(workers);
            host.run_script(&script);
            let all = host.digest_all();
            assert!(all.len() > 4);
            // Any subset, in any order, repeats and strangers included.
            let picked = [all[3].0, all[0].0, DocId(9_999), all[3].0];
            let expect = vec![all[0].clone(), all[3].clone()];
            assert_eq!(host.digest_of(&picked), expect);
            assert!(host.digest_of(&[]).is_empty());
            assert!(host.digest_of(&[DocId(9_999)]).is_empty());

            // A peer that holds nothing of two documents gets exactly
            // those two, whole; the unscoped call adds the rest.
            let have = vec![(all[3].0, Vec::new()), (all[0].0, Vec::new())];
            let listed = host.bundles_for_listed(&have);
            let everything = host.bundles_for(&have);
            assert_eq!(listed.len(), 2);
            assert_eq!(everything.len(), all.len());
            assert!(listed.iter().all(|entry| everything.contains(entry)));
            // A peer level in a listed document gets nothing for it.
            let level = vec![all[0].clone(), (all[3].0, Vec::new())];
            let listed = host.bundles_for_listed(&level);
            assert_eq!(listed.len(), 1);
            assert_eq!(listed[0].0, all[3].0);
            assert!(host.bundles_for_listed(&[]).is_empty());
        }
    }

    /// A scratch persist dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("eg-server-test-{}-{tag}-{n}", std::process::id()));
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Events each resident document holds, read off its version vector.
    fn events_per_doc(host: &ServerHost) -> Vec<usize> {
        host.digest_all()
            .iter()
            .map(|(_, vector)| vector.iter().map(|id| id.seq + 1).sum())
            .collect()
    }

    fn dir_bytes(dir: &std::path::Path) -> u64 {
        std::fs::read_dir(dir)
            .expect("scan persist dir")
            .map(|entry| entry.expect("dir entry").metadata().expect("stat").len())
            .sum()
    }

    /// A peer that names documents it cannot deliver leaves nothing
    /// behind: a bundle waiting for its parents and a malformed one, each
    /// for a document this host has never seen, create no segment file
    /// and no resident document until something actually applies.
    #[test]
    fn bundles_that_apply_nothing_leave_no_document_and_no_file() {
        let tmp = TempDir::new("stray");
        let mut source = Replica::new("source");
        let parent = source.insert(DocId(7), 0, "parent ");
        let child = source.insert(DocId(7), 7, "child");
        let mut malformed = source.insert(DocId(8), 0, "bad");
        malformed.runs[0].content = None;
        let host = ServerHost::with_config(ServerConfig {
            workers: 2,
            persist_dir: Some(tmp.0.clone()),
            ..ServerConfig::default()
        });
        let files = || std::fs::read_dir(&tmp.0).expect("scan persist dir").count();

        host.receive_bundles(vec![(DocId(7), child), (DocId(8), malformed)]);
        host.flush();
        assert_eq!(files(), 0);
        assert_eq!(host.persist_stats().store_bytes, 0);
        assert!(host.snapshot().is_empty());

        // The missing parent applies both, and writes one store.
        host.receive_bundles(vec![(DocId(7), parent)]);
        host.flush();
        assert_eq!(files(), 1);
        assert_eq!(host.text(DocId(7)), "parent child");
        assert_eq!(host.snapshot().len(), 1);
    }

    #[test]
    fn restarted_host_reopens_cached_and_converges() {
        let tmp = TempDir::new("restart");
        let script = small_script();

        // The peer that never restarts.
        let peer = ServerHost::with_config(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        peer.run_script(&script);

        // Round one: run the script persistently, checkpoint, shut down.
        {
            let host = ServerHost::with_config(ServerConfig {
                workers: 3,
                persist_dir: Some(tmp.0.clone()),
                ..ServerConfig::default()
            });
            host.run_script(&script);
            assert!(host.checkpoint_all() > 0, "some docs have a tail");
            assert_eq!(host.checkpoint_all(), 0, "second pass has nothing new");
        }

        // What checkpoints interrupted by a crash would leave: a cut-off
        // temp file beside a store, and one whose store never existed.
        let leftovers = [tmp.0.join("doc-0.seg.tmp"), tmp.0.join("doc-4242.seg.tmp")];
        assert!(tmp.0.join("doc-0.seg").exists());
        for path in &leftovers {
            std::fs::write(path, b"EGSEG1\x01\x02torn").expect("plant temp file");
        }

        // Restart on the same directory — with a different worker count,
        // so the segment files redistribute across a new shard map. Every
        // document must come back through the cached path and the host
        // must match the peer byte for byte.
        let host = ServerHost::with_config(ServerConfig {
            workers: 2,
            persist_dir: Some(tmp.0.clone()),
            ..ServerConfig::default()
        });
        let expect = replay_fleet_sequential("server", &script);
        let stats = host.persist_stats();
        assert_eq!(stats.docs_loaded, expect.len(), "all edited docs restored");
        assert_eq!(
            stats.docs_cached, stats.docs_loaded,
            "every doc reopened via the checkpoint fast path"
        );
        for path in &leftovers {
            assert!(!path.exists(), "{} swept at startup", path.display());
        }
        assert!(host.converged_with(&peer));
        assert_eq!(host.snapshot(), expect);

        // The warm-restored replicas keep working: both hosts apply the
        // script again (deterministic against identical live state) and
        // still agree.
        host.run_script(&script);
        peer.run_script(&script);
        assert!(host.converged_with(&peer));
    }

    #[test]
    fn persistence_survives_mid_run_restart_without_checkpoint_all() {
        // No orderly checkpoint_all: rely on the per-batch appends and
        // whatever checkpoints fell due along the way.
        let tmp = TempDir::new("mid-run");
        let script = small_script();
        let expect = replay_fleet_sequential("server", &script);
        {
            let host = ServerHost::with_config(ServerConfig {
                workers: 2,
                persist_dir: Some(tmp.0.clone()),
                ..ServerConfig::default()
            });
            host.run_script(&script);
        }
        let host = ServerHost::with_config(ServerConfig {
            workers: 1,
            persist_dir: Some(tmp.0.clone()),
            ..ServerConfig::default()
        });
        let stats = host.persist_stats();
        assert_eq!(stats.docs_loaded, expect.len());
        // A tail is persisted after every batch and earns its first
        // checkpoint at 512 events, so exactly the documents that got
        // that far reopen cached; the rest replay cold.
        let events = events_per_doc(&host);
        let earned = events.iter().filter(|&&n| n >= 512).count();
        assert!(0 < earned && earned < events.len(), "script has both kinds");
        assert_eq!(stats.docs_cached, earned);
        assert_eq!(host.snapshot(), expect, "cold replay still exact");
    }

    #[test]
    fn doubling_rule_bounds_checkpoints_and_store_size() {
        let tmp = TempDir::new("doubling");
        // Few documents, so that each outgrows the 512-event floor
        // several times over.
        let script: Arc<[FleetOp]> = fleet_workload(&FleetSpec {
            docs: 4,
            sessions: 8,
            edits: 4000,
            ..FleetSpec::default()
        })
        .into();
        let host = ServerHost::with_config(ServerConfig {
            workers: 2,
            persist_dir: Some(tmp.0.clone()),
            ..ServerConfig::default()
        });
        host.run_script(&script);

        // Each checkpoint is taken over at least twice the events of the
        // one before and the first over at least 512, so k of them need
        // 512 · 2^(k-1) events: k ≤ log2(n / 512) + 1.
        let most: u64 = events_per_doc(&host)
            .iter()
            .map(|&n| {
                (n / 512)
                    .checked_ilog2()
                    .map_or(0, |log| u64::from(log) + 1)
            })
            .sum();
        let stats = host.persist_stats();
        assert!(most >= 8, "script too small to exercise the rule: {most}");
        assert!(
            (4..=most).contains(&stats.checkpoints_written),
            "{} checkpoints, rule allows {most}",
            stats.checkpoints_written
        );

        // The counters are the directory: nothing hides beside the stores.
        assert_eq!(stats.store_bytes, dir_bytes(&tmp.0));
        assert!(stats.bytes_written >= stats.store_bytes);

        // A tail never outgrows the checkpoint under it, so an orderly
        // shutdown's checkpoints can at best halve the directory.
        host.checkpoint_all();
        let compact = host.persist_stats();
        assert_eq!(compact.store_bytes, dir_bytes(&tmp.0));
        assert!(
            stats.store_bytes <= 2 * compact.store_bytes,
            "{} B before checkpoint_all, {} B after",
            stats.store_bytes,
            compact.store_bytes
        );
        assert!(compact.checkpoints_written > stats.checkpoints_written);
        assert!(compact.bytes_written > stats.bytes_written);
    }
}
