//! [`DocStore`]: one document's segment file — its newest checkpoint and
//! the event records appended since.
//!
//! The store owns a handle positioned at the end of the file and
//! remembers how much of the oplog is already on disk — always a whole
//! log, so an LV prefix — so persisting after an edit round is "write the
//! runs past that prefix as one frame, built in one buffer, and append
//! it". A checkpoint holds every event, so writing one
//! *replaces* the file (temp file + rename) instead of growing it: the
//! file is never longer than one checkpoint plus the tail behind it.
//! Opening scans the file, truncates any torn tail
//! ([`format::scan_frames`]), restores the oplog from the checkpoint's
//! image and the event frames after it, and materialises the document
//! through the cached-load fast path ([`egwalker::OpLog::open_cached`]).

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use eg_dag::{DiffResult, RemoteId};
use eg_encoding::varint::DecodeError;
use eg_encoding::{apply_bundle_bytes, ApplyBundleError};
use eg_rle::{DTRange, HasLength};
use egwalker::walker;
use egwalker::{Branch, BundleError, Frontier, OpLog, Tracker};

use crate::format::{self, scan_frames, HEADER_LEN, RECORD_CHECKPOINT, RECORD_EVENTS};

/// The shortest tail that earns a checkpoint, however small the one under
/// it: below this a document is as cheap to replay as to image.
const MIN_CHECKPOINT_TAIL: usize = 512;

/// Everything that can go wrong opening or appending to a segment store.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A CRC-valid record had an undecodable payload (disk corruption
    /// beyond a torn tail, or a file from a different format lineage).
    Decode(DecodeError),
    /// A committed event bundle no longer applies to the log rebuilt from
    /// the records before it (only possible with external tampering).
    Bundle(BundleError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "segment store I/O: {e}"),
            StorageError::Decode(e) => write!(f, "segment store record: {e}"),
            StorageError::Bundle(e) => write!(f, "segment store bundle: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<DecodeError> for StorageError {
    fn from(e: DecodeError) -> Self {
        StorageError::Decode(e)
    }
}

impl From<BundleError> for StorageError {
    fn from(e: BundleError) -> Self {
        StorageError::Bundle(e)
    }
}

impl From<ApplyBundleError> for StorageError {
    fn from(e: ApplyBundleError) -> Self {
        match e {
            ApplyBundleError::Decode(e) => StorageError::Decode(e),
            ApplyBundleError::Bundle(e) => StorageError::Bundle(e),
        }
    }
}

/// The in-memory result of opening a store: the rebuilt oplog, the
/// materialised document, and the tracker that merged it.
#[derive(Debug)]
pub struct LoadedDoc {
    /// The full event graph rebuilt from the segment file.
    pub oplog: OpLog,
    /// The document at the oplog tip.
    pub branch: Branch,
    /// The tracker a cached open merged through, live at the tip, so that
    /// the document's next merge can resume it. Fresh after a sequential
    /// tail (it replays without one) and after a cold replay.
    pub tracker: Tracker,
    /// `true` if a checkpoint drove the cached-load fast path; `false`
    /// means a cold full replay (no checkpoint, or one that did not
    /// resolve against the rebuilt log).
    pub cached: bool,
}

/// An open segment file for one document, positioned to append.
#[derive(Debug)]
pub struct DocStore {
    path: PathBuf,
    /// Positioned at the end of the file at `path`.
    file: File,
    /// The oplog version already committed to disk, and that oplog's
    /// length: every version recorded here is a whole log's, so the
    /// events it covers are exactly the LVs below `persisted_len`.
    persisted: Frontier,
    persisted_len: usize,
    /// Events held by the newest checkpoint's image (0 without one).
    checkpoint_events: usize,
    /// Events in the records after it: what a reopen replays.
    tail_events: usize,
    /// The file's current length.
    file_bytes: u64,
    /// Everything this handle has written, replaced bytes included.
    bytes_written: u64,
    /// [`Self::sync`] has been called on this handle, so what the file
    /// holds may have been promised to survive power loss.
    synced: bool,
    /// The directory entry at `path` was created or renamed over since
    /// the parent directory was last fsynced.
    dir_dirty: bool,
}

/// A payload outgrew the `u32` length field of its frame.
fn frame_too_long(what: &str) -> StorageError {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("{what} exceeds the frame length field"),
    )
    .into()
}

/// Where [`DocStore::write_checkpoint`] builds the replacement file.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    tmp.into()
}

impl DocStore {
    /// Opens (or creates) the segment file at `path`, recovering from a
    /// torn tail write by truncating to the last CRC-complete record.
    ///
    /// Returns the store (positioned to append) together with the rebuilt
    /// [`LoadedDoc`].
    ///
    /// A file that opens with a checkpoint was renamed into place whole,
    /// so a damaged or undecodable one there is corruption, not a torn
    /// write: it is refused with [`StorageError::Decode`] and left
    /// untouched, like a foreign file. A temp file left by a checkpoint
    /// that died before its rename is removed.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, LoadedDoc), StorageError> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(tmp_path(path));
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        let (oplog, ck_view, image_len, file_len) = if bytes.is_empty() {
            std::fs::write(path, format::file_header())?;
            (OpLog::new(), None, None, HEADER_LEN)
        } else {
            let (frames, valid) = scan_frames(&bytes)?;
            if frames.is_empty() && bytes.get(HEADER_LEN) == Some(&RECORD_CHECKPOINT) {
                return Err(DecodeError::Corrupt.into());
            }

            // The O(tail) fast path: restore the oplog from the newest
            // checkpoint's bulk image and skip every record before it
            // (the image holds every event the writer knew). In a file
            // this version wrote that checkpoint is the first frame. In
            // the older interleaved layout event records precede it, so
            // there a missing or corrupt image downgrades to replaying
            // from the start of the file. The checkpoint itself is only
            // *shallowly* parsed here — whether its tracker snapshot is
            // ever decoded is decided below, after the tail's shape is
            // known.
            let last_ck = frames
                .iter()
                .enumerate()
                .rfind(|(_, f)| f.kind == RECORD_CHECKPOINT);
            let mut ck_view: Option<format::CheckpointView<'_>> = None;
            let mut image_len: Option<usize> = None;
            let mut replay_from = 0usize;
            let mut oplog = OpLog::new();
            if let Some((i, ck_frame)) = last_ck {
                let view = format::read_checkpoint(ck_frame.payload)?;
                let image = view
                    .oplog_image
                    .ok_or(DecodeError::Corrupt)
                    .and_then(eg_encoding::decode_oplog_image);
                match image {
                    Ok(log) => {
                        image_len = Some(log.len());
                        oplog = log;
                        replay_from = i.saturating_add(1);
                    }
                    // No event records to fall back on: never an empty
                    // document with a tail that cannot apply.
                    Err(e) if frames.first().map(|f| f.kind) == Some(RECORD_CHECKPOINT) => {
                        return Err(e.into());
                    }
                    Err(_) => {}
                }
                ck_view = Some(view);
            }

            for frame in frames.iter().skip(replay_from) {
                match frame.kind {
                    RECORD_EVENTS => {
                        // Streaming apply: no intermediate EventBundle.
                        // Non-atomicity is fine here — `oplog` is local to
                        // this open and discarded on error.
                        apply_bundle_bytes(&mut oplog, frame.payload)
                            .map_err(StorageError::from)?;
                    }
                    // Only reached on the replay (downgrade) path or
                    // for checkpoints before the newest one.
                    RECORD_CHECKPOINT => {}
                    // `scan_frames` stops at the first unknown kind, so
                    // this arm is dead; error instead of panicking.
                    _ => return Err(DecodeError::Corrupt.into()),
                }
            }
            if valid == 0 {
                // Torn header: nothing was committed. Start the file over.
                std::fs::write(path, format::file_header())?;
            } else if valid < bytes.len() {
                // Torn or corrupt tail: drop it so appends continue
                // from the last committed record.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(valid as u64)?;
            }
            (oplog, ck_view, image_len, valid.max(HEADER_LEN))
        };

        // Resolve the newest checkpoint against the rebuilt log. Each
        // check that fails downgrades gracefully: an unresolvable frontier
        // means a cold replay, an invalid snapshot means a snapshot-less
        // cached open (fresh conflict-window walk from the checkpoint).
        //
        // When the image restored and the post-checkpoint tail is one
        // linear chain at the checkpoint version, nothing in the tail is
        // concurrent with anything: the raw ops replay verbatim onto the
        // checkpoint text ([`Branch::apply_sequential_tail`]) — no walker,
        // and the snapshot section is skipped without even parsing it.
        // The common single-author reopen stays O(tail). Only a tail with
        // real concurrency pays for decoding the snapshot and resuming
        // the tracker.
        let mut resolved: Option<(
            &str,
            Frontier,
            Option<usize>,
            Option<egwalker::TrackerSnapshot>,
        )> = None;
        if let Some(view) = &ck_view {
            let lvs: Option<Vec<egwalker::LV>> = view
                .version_ids()
                .map(|(agent, seq)| {
                    let a = oplog.agents.agent_id(agent)?;
                    oplog.agents.try_remote_to_lv(a, seq)
                })
                .collect();
            if let Some(lvs) = lvs {
                let frontier = oplog.graph.find_dominators(&lvs);
                let tail_from = image_len.filter(|&from| {
                    oplog
                        .graph
                        .is_sequential_extension(from, frontier.as_slice())
                });
                let snapshot = if tail_from.is_some() {
                    None
                } else {
                    view.snapshot
                        .and_then(|raw| format::decode_snapshot(raw).ok())
                        .filter(|s| s.validate(oplog.len()).is_ok())
                };
                resolved = Some((view.content, frontier, tail_from, snapshot));
            }
        }
        let (branch, tracker, cached) = match resolved {
            Some((content, frontier, Some(tail_from), _)) => {
                let mut b = Branch::from_cached(content, frontier);
                b.apply_sequential_tail(&oplog, (tail_from..oplog.len()).into());
                (b, Tracker::new(), true)
            }
            Some((content, frontier, None, snapshot)) => {
                let (b, tracker) =
                    oplog.open_cached(content, frontier.as_slice(), snapshot.as_ref());
                (b, tracker, true)
            }
            None => (oplog.checkout_tip(), Tracker::new(), false),
        };

        let file = OpenOptions::new().append(true).open(path)?;
        let checkpoint_events = image_len.unwrap_or(0);
        let store = DocStore {
            path: path.to_path_buf(),
            file,
            persisted: oplog.version().clone(),
            persisted_len: oplog.len(),
            checkpoint_events,
            tail_events: oplog.len().saturating_sub(checkpoint_events),
            file_bytes: file_len as u64,
            bytes_written: 0,
            synced: false,
            // Created just above.
            dir_dirty: bytes.is_empty(),
        };
        Ok((
            store,
            LoadedDoc {
                oplog,
                branch,
                tracker,
                cached,
            },
        ))
    }

    /// The segment file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The oplog version already committed to disk.
    pub fn persisted_version(&self) -> &Frontier {
        &self.persisted
    }

    /// Events in the tail: appended since the newest checkpoint, and
    /// replayed by the next open.
    pub fn events_since_checkpoint(&self) -> usize {
        self.tail_events
    }

    /// The segment file's current length in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Bytes this handle has written since it was opened, including those
    /// a later checkpoint replaced: ÷ [`Self::file_bytes`] is the store's
    /// write amplification.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Whether the tail has grown as long as the checkpoint under it (and
    /// to at least [`MIN_CHECKPOINT_TAIL`] events). Checkpointing exactly
    /// then is classic doubling: all the checkpoints of a document's life
    /// image at most twice its events between them, and a reopen after a
    /// crash replays at most as many events as it restores from the
    /// image (or 512).
    pub fn checkpoint_due(&self) -> bool {
        self.tail_events >= self.checkpoint_events.max(MIN_CHECKPOINT_TAIL)
    }

    /// Appends one event record covering everything in `oplog` past what
    /// is persisted. Returns the number of events committed (0 when
    /// already up to date — nothing is written).
    ///
    /// `oplog` must be the log this store last opened, appended or
    /// checkpointed, grown since: what is new is then its LV suffix from
    /// the persisted length on, and no graph diff is taken to find it.
    pub fn append_new(&mut self, oplog: &OpLog) -> Result<usize, StorageError> {
        let new: DTRange = (self.persisted_len.min(oplog.len())..oplog.len()).into();
        debug_assert_eq!(
            oplog.graph.diff(self.persisted.as_slice(), oplog.version()),
            DiffResult {
                only_a: Vec::new(),
                only_b: (!new.is_empty()).then_some(new).into_iter().collect(),
            },
            "not the oplog this store last recorded"
        );
        if new.is_empty() {
            return Ok(0);
        }
        let (frame, events) =
            format::events_frame(oplog, &[new]).ok_or_else(|| frame_too_long("event record"))?;
        self.file.write_all(&frame)?;
        self.persisted = oplog.version().clone();
        self.persisted_len = oplog.len();
        self.tail_events = self.tail_events.saturating_add(events);
        self.file_bytes = self.file_bytes.saturating_add(frame.len() as u64);
        self.bytes_written = self.bytes_written.saturating_add(frame.len() as u64);
        Ok(events)
    }

    /// Replaces the file with one checkpoint of `oplog` whole — an image
    /// of every event, persisted or not — and of `branch` (the document
    /// at some version of it, normally the tip). The new file is built
    /// beside the old one and renamed over it, so a process killed at any
    /// instruction leaves one of the two, complete.
    ///
    /// The tracker snapshot is built fresh at the branch version; at a
    /// critical version it degenerates to the placeholder and costs
    /// nothing to restore. A caller that keeps the document's tracker
    /// passes it to [`Self::write_checkpoint_with`] instead.
    pub fn write_checkpoint(&mut self, oplog: &OpLog, branch: &Branch) -> Result<(), StorageError> {
        self.write_checkpoint_with(oplog, branch, &mut Tracker::new())
            .map(drop)
    }

    /// [`Self::write_checkpoint`], taking the tracker snapshot from the
    /// document's own `tracker` ([`walker::snapshot_at`]). When the last
    /// merge left it live at the branch version, the snapshot costs only
    /// catching its prepare dimension up, not a replay of the conflict
    /// window; otherwise it is rebuilt there. Either way `tracker` is left
    /// live at the branch version. Returns `true` if the snapshot came
    /// from the live tracker.
    pub fn write_checkpoint_with(
        &mut self,
        oplog: &OpLog,
        branch: &Branch,
        tracker: &mut Tracker,
    ) -> Result<bool, StorageError> {
        let (snapshot, from_live) = walker::snapshot_at(oplog, branch.version.as_slice(), tracker);
        let version: Vec<RemoteId> = branch
            .version
            .iter()
            .map(|&lv| oplog.lv_to_remote(lv))
            .collect();
        let replacement = format::checkpoint_file(
            &version,
            branch.content.len_bytes(),
            branch.content.chunks(),
            &snapshot,
            &eg_encoding::encode_oplog_image(oplog),
        )
        .ok_or_else(|| frame_too_long("checkpoint"))?;

        let tmp = tmp_path(&self.path);
        let mut file = File::create(&tmp)?;
        file.write_all(&replacement)?;
        if self.synced {
            // What `sync` made durable must not give way to pages that
            // are not: flush the replacement before it takes the name.
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Still at the end of what it wrote, so it appends from here.
        self.file = file;
        self.dir_dirty = true;
        self.persisted = oplog.version().clone();
        self.persisted_len = oplog.len();
        self.checkpoint_events = oplog.len();
        self.tail_events = 0;
        self.file_bytes = replacement.len() as u64;
        self.bytes_written = self.bytes_written.saturating_add(self.file_bytes);
        Ok(from_live)
    }

    /// Forces the file's data to stable storage (`fdatasync`), and after
    /// the file was created or replaced also its directory entry (one
    /// `fsync` of the parent directory). The only call that buys
    /// durability against power loss; a store it is never called on
    /// issues no flush at all.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync_data()?;
        self.synced = true;
        if self.dir_dirty {
            let parent = match self.path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            File::open(parent)?.sync_all()?;
            self.dir_dirty = false;
        }
        Ok(())
    }
}
