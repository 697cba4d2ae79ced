//! Crash-safety and cached-load equivalence suites for the segment store.
//!
//! The properties:
//!
//! * truncating a segment file at **any** byte of its tail recovers the
//!   longest valid prefix — no panic, and no CRC-complete record is ever
//!   lost — while damage inside the checkpoint the file opens with is
//!   refused and the file left as it was;
//! * opening through a checkpoint (`open_cached`) is byte-identical to a
//!   cold full replay (`checkout_tip`), across generated traces,
//!   checkpoint versions, and restart points;
//! * whatever the sequence of appends, checkpoints and reopens, the file
//!   is one checkpoint at most, first, plus the tail behind it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use eg_storage::{
    encode_checkpoint, push_frame, scan_frames, Checkpoint, DocStore, StorageError, FRAME_OVERHEAD,
    HEADER_LEN, RECORD_CHECKPOINT, RECORD_EVENTS,
};
use egwalker::testgen::{mid_run_criticals_oplog, random_oplog, SmallRng};
use egwalker::{Branch, Frontier, OpLog, Tracker};

/// A fresh temp-file path (no tempfile crate in-tree; hand-rolled from the
/// process ID plus a counter).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "eg-storage-test-{}-{tag}-{n}.seg",
        std::process::id()
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(tmp_beside(&self.0));
    }
}

/// Where a store builds the file that replaces it.
fn tmp_beside(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    tmp.into()
}

/// Ground truth from the (independently tested) frame scanner: the offset
/// at which each complete frame ends, with the events the file holds up to
/// there. A checkpoint's image holds every event before it.
fn frame_boundaries(bytes: &[u8]) -> Vec<(usize, usize)> {
    let (frames, valid) = scan_frames(bytes).expect("scan");
    assert_eq!(valid, bytes.len(), "source file has no torn tail");
    let mut boundaries = vec![(HEADER_LEN, 0)];
    let mut pos = HEADER_LEN;
    let mut events = 0usize;
    for f in &frames {
        pos += f.payload.len() + FRAME_OVERHEAD;
        if f.kind == RECORD_EVENTS {
            events += eg_encoding::decode_bundle(f.payload)
                .expect("bundle")
                .runs
                .iter()
                .map(|r| r.len())
                .sum::<usize>();
        } else {
            let view = eg_storage::read_checkpoint(f.payload).expect("checkpoint");
            let image = view.oplog_image.expect("stores always write an image");
            events = eg_encoding::decode_oplog_image(image).expect("image").len();
        }
        boundaries.push((pos, events));
    }
    boundaries
}

/// An owned checkpoint of `oplog` at its tip, as the store would write it.
fn checkpoint_of(oplog: &OpLog) -> Checkpoint {
    let tip = oplog.checkout_tip();
    Checkpoint {
        version: oplog.remote_version(),
        content: tip.content.to_string(),
        snapshot: None,
        oplog_image: Some(eg_encoding::encode_oplog_image(oplog)),
    }
}

fn temp_file(tag: &str) -> (TempFile, PathBuf) {
    let p = temp_path(tag);
    (TempFile(p.clone()), p)
}

/// Grows a single-author document while persisting and reopening at every
/// step boundary: multi-record files, interleaved checkpoints, reopen
/// equivalence after each round.
#[test]
fn incremental_persist_and_reopen() {
    let (_guard, path) = temp_file("incremental");
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("alice");
    let (mut store, loaded) = DocStore::open(&path).expect("create");
    assert!(loaded.oplog.is_empty());
    assert!(!loaded.cached);
    drop(store);

    let mut rng = SmallRng::new(77);
    for round in 0..12 {
        // Reopen (as after a restart), verify, and continue appending.
        let (s, loaded) = DocStore::open(&path).expect("reopen");
        store = s;
        assert_eq!(loaded.oplog.len(), oplog.len(), "round {round}");
        assert_eq!(loaded.branch, oplog.checkout_tip(), "round {round}");
        if round > 0 {
            assert!(loaded.cached, "round {round}: checkpoint should resolve");
        }

        for _ in 0..10 {
            let len = oplog.checkout_tip().len_chars();
            if len > 4 && rng.unit_f64() < 0.3 {
                let pos = rng.below(len - 2);
                oplog.add_delete(agent, pos, 1 + rng.below(2));
            } else {
                let pos = if len == 0 { 0 } else { rng.below(len + 1) };
                oplog.add_insert(agent, pos, "ab");
            }
        }
        store.append_new(&oplog).expect("append");
        store
            .write_checkpoint(&oplog, &oplog.checkout_tip())
            .expect("checkpoint");
    }
    let (_, loaded) = DocStore::open(&path).expect("final open");
    assert_eq!(loaded.branch, oplog.checkout_tip());
    assert!(loaded.cached);
}

/// Checkpoints taken at mid-history versions (including ones the tail is
/// concurrent with) must still reopen byte-identical to a cold replay.
#[test]
fn open_cached_equivalence_across_traces_and_cut_points() {
    for seed in 0..6u64 {
        let oplog = random_oplog(seed, 300, 3, 0.25);
        let expect = oplog.checkout_tip();
        let all: Vec<usize> = (0..oplog.len()).collect();
        for frac in [1usize, 2, 3, 4] {
            let cut = (oplog.len() * frac / 4).max(1);
            let version = oplog.graph.find_dominators(&all[..cut]);
            let (_guard, path) = temp_file("equiv");
            let (mut store, _) = DocStore::open(&path).expect("create");
            store.append_new(&oplog).expect("events");
            store
                .write_checkpoint(&oplog, &oplog.checkout(version.as_slice()))
                .expect("checkpoint");
            drop(store);

            let (_, loaded) = DocStore::open(&path).expect("reopen");
            assert!(loaded.cached, "seed {seed} frac {frac}");
            assert_eq!(loaded.oplog.len(), oplog.len());
            assert_eq!(
                loaded.branch.content, expect.content,
                "seed {seed} frac {frac}"
            );
            assert_eq!(loaded.branch.version, expect.version);
        }
    }
}

/// Opens every prefix of `bytes` from `from` bytes up and checks that it
/// holds exactly the events of the frames that are whole — the longest
/// valid prefix, nothing more, nothing less — that the document equals a
/// cold replay of them, and that the recovered store takes the missing
/// events of `oplog` again.
fn check_every_cut(bytes: &[u8], from: usize, oplog: &OpLog) {
    let boundaries = frame_boundaries(bytes);
    for cut in from..=bytes.len() {
        let (_g, p) = temp_file("trunc");
        std::fs::write(&p, &bytes[..cut]).expect("write prefix");
        let (mut reopened, loaded) =
            DocStore::open(&p).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let expected_events = boundaries
            .iter()
            .rev()
            .find(|&&(off, _)| off <= cut)
            .map(|&(_, ev)| ev)
            .unwrap_or(0);
        assert_eq!(loaded.oplog.len(), expected_events, "cut {cut}");
        assert_eq!(loaded.branch, loaded.oplog.checkout_tip(), "cut {cut}");

        // The truncated store keeps working: append the missing tail.
        if loaded.oplog.len() < oplog.len() {
            reopened.append_new(oplog).expect("re-append");
            let (_, healed) = DocStore::open(&p).expect("healed open");
            assert_eq!(healed.oplog.len(), oplog.len(), "cut {cut}");
            assert_eq!(healed.branch, oplog.checkout_tip(), "cut {cut}");
        }
    }
}

/// The crash-recovery property, on the two shapes a file has: truncation
/// at EVERY byte offset opens without panicking, loses no CRC-complete
/// event record, and still matches a cold replay of whatever survived —
/// except inside the checkpoint a file opens with. That frame is only ever
/// renamed into place whole, so a cut there is damage: the open is refused
/// and the file stays byte for byte what it was.
#[test]
fn truncation_at_any_byte_recovers_longest_valid_prefix() {
    let (_guard, path) = temp_file("trunc-src");
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("alice");
    let (mut store, _) = DocStore::open(&path).expect("create");
    let type_and_append = |store: &mut DocStore, oplog: &mut OpLog, rounds: usize| {
        for _ in 0..rounds {
            for _ in 0..8 {
                oplog.add_insert(agent, oplog.len() / 2, "x");
            }
            store.append_new(oplog).expect("append");
        }
    };

    // (a) Events only.
    type_and_append(&mut store, &mut oplog, 4);
    let bytes = std::fs::read(&path).expect("read segment");
    assert_eq!(frame_boundaries(&bytes).len(), 1 + 4);
    check_every_cut(&bytes, 0, &oplog);

    // (b) A checkpoint with a tail behind it.
    store
        .write_checkpoint(&oplog, &oplog.checkout_tip())
        .expect("checkpoint");
    type_and_append(&mut store, &mut oplog, 4);
    drop(store);
    let bytes = std::fs::read(&path).expect("read segment");
    let boundaries = frame_boundaries(&bytes);
    assert_eq!(boundaries.len(), 1 + 1 + 4);
    let (base_end, base_events) = boundaries[1];
    assert_eq!(base_events, 32);
    check_every_cut(&bytes, base_end, &oplog);
    for cut in HEADER_LEN + 1..base_end {
        let (_g, p) = temp_file("trunc-base");
        std::fs::write(&p, &bytes[..cut]).expect("write prefix");
        match DocStore::open(&p) {
            Err(StorageError::Decode(_)) => {}
            other => panic!(
                "cut {cut} inside the base: {:?}",
                other.map(|(_, d)| d.oplog.len())
            ),
        }
        assert_eq!(
            std::fs::read(&p).expect("read back"),
            &bytes[..cut],
            "cut {cut}"
        );
    }
}

/// The rest of the refusal rule: a checkpoint that opens the file, passes
/// its CRC and still cannot restore the oplog is an error — never an empty
/// document with a tail that cannot apply — and so is a complete base
/// frame with a damaged byte. Neither open touches the file.
#[test]
fn undecodable_base_checkpoint_is_refused_untouched() {
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("alice");
    oplog.add_insert(agent, 0, "hello world");
    let good = checkpoint_of(&oplog);
    let with_tail = |ck: &Checkpoint| {
        let mut bytes = eg_storage::format::file_header().to_vec();
        push_frame(&mut bytes, RECORD_CHECKPOINT, &encode_checkpoint(ck));
        let mut later = oplog.clone();
        later.add_insert(agent, 11, "!");
        let tail = eg_encoding::encode_bundle(&later.bundle_since_local(oplog.version()));
        push_frame(&mut bytes, RECORD_EVENTS, &tail);
        bytes
    };

    let intact = with_tail(&good);
    let mut garbled_image = good.clone();
    garbled_image.oplog_image = Some(b"EGIM\x01 not an image".to_vec());
    let mut no_image = good.clone();
    no_image.oplog_image = None;
    let mut flipped = intact.clone();
    flipped[HEADER_LEN + 20] ^= 0x10;
    for (what, bytes) in [
        ("garbled image", with_tail(&garbled_image)),
        ("no image", with_tail(&no_image)),
        ("flipped bit", flipped),
    ] {
        let (_g, p) = temp_file("bad-base");
        std::fs::write(&p, &bytes).expect("write");
        assert!(
            matches!(DocStore::open(&p), Err(StorageError::Decode(_))),
            "{what}"
        );
        assert_eq!(std::fs::read(&p).expect("read back"), bytes, "{what}");
    }

    // The same file undamaged opens, tail and all.
    let (_g, p) = temp_file("good-base");
    std::fs::write(&p, &intact).expect("write");
    let (_, loaded) = DocStore::open(&p).expect("intact base");
    assert!(loaded.cached);
    assert_eq!(loaded.branch.content.to_string(), "hello world!");
}

/// The layout invariant: after ANY sequence of appends, checkpoints and
/// reopens the file holds at most one checkpoint, as its first frame, and
/// behind it only the event records appended since — and it reopens equal
/// to a cold replay.
#[test]
fn file_is_one_checkpoint_plus_its_tail_after_any_sequence() {
    for seed in 0..6u64 {
        let (_guard, path) = temp_file("layout");
        let mut rng = SmallRng::new(seed ^ 0xC0FFEE);
        let (mut store, _) = DocStore::open(&path).expect("create");
        let mut steps = 0;
        let mut oplog = OpLog::new();
        let mut checkpointed = false;
        for step in 0..40 {
            match rng.below(5) {
                0 | 1 => {
                    // `random_oplog` extends the same history as `steps`
                    // grows (one seeded draw sequence), concurrency included.
                    steps += 1 + rng.below(12);
                    let grown = random_oplog(seed, steps, 3, 0.25);
                    assert!(grown.len() >= oplog.len());
                    oplog = grown;
                    // The record is the one the owned path frames: the
                    // bundle since the persisted version, encoded, pushed.
                    let mut expect = Vec::new();
                    let owned = oplog.bundle_since_local(store.persisted_version());
                    if !owned.is_empty() {
                        let payload = eg_encoding::encode_bundle(&owned);
                        push_frame(&mut expect, RECORD_EVENTS, &payload);
                    }
                    let before = store.file_bytes() as usize;
                    store.append_new(&oplog).expect("append");
                    let bytes = std::fs::read(&path).expect("read segment");
                    assert_eq!(bytes[before..], expect, "seed {seed} step {step}");
                }
                2 => {
                    // Sometimes at an older version, sometimes with
                    // events the store has not been handed yet.
                    steps += rng.below(3);
                    oplog = random_oplog(seed, steps, 3, 0.25);
                    let all: Vec<usize> = (0..oplog.len()).collect();
                    let upto = if rng.below(2) == 0 {
                        all.len()
                    } else {
                        all.len() / 2
                    };
                    let version = oplog.graph.find_dominators(&all[..upto]);
                    store
                        .write_checkpoint(&oplog, &oplog.checkout(version.as_slice()))
                        .expect("checkpoint");
                    checkpointed = true;
                }
                _ => {
                    drop(store);
                    let (s, loaded) = DocStore::open(&path).expect("reopen");
                    store = s;
                    assert_eq!(loaded.cached, checkpointed, "seed {seed} step {step}");
                    assert_eq!(store.persisted_version(), loaded.oplog.version());
                    assert_eq!(loaded.branch, loaded.oplog.checkout_tip());
                }
            }

            let bytes = std::fs::read(&path).expect("read segment");
            assert_eq!(
                store.file_bytes(),
                bytes.len() as u64,
                "seed {seed} step {step}"
            );
            let boundaries = frame_boundaries(&bytes);
            let (frames, _) = scan_frames(&bytes).expect("scan");
            let checkpoints = frames
                .iter()
                .filter(|f| f.kind == RECORD_CHECKPOINT)
                .count();
            assert_eq!(
                checkpoints,
                usize::from(checkpointed),
                "seed {seed} step {step}"
            );
            if checkpointed {
                assert_eq!(frames[0].kind, RECORD_CHECKPOINT, "seed {seed} step {step}");
            }
            // No longer than that frame plus its tail: every record behind
            // the base adds events, and together they are the tail.
            let base_events = if checkpointed { boundaries[1].1 } else { 0 };
            let held = boundaries.last().expect("header boundary").1;
            assert!(boundaries.windows(2).skip(1).all(|w| w[0].1 < w[1].1));
            assert_eq!(store.events_since_checkpoint(), held - base_events);
            assert!(!tmp_beside(&path).exists(), "seed {seed} step {step}");
        }
    }
}

/// A file from before compaction — event records with three checkpoints
/// among them — still opens through the newest one, and the first
/// checkpoint this version writes folds it into the new layout.
#[test]
fn old_interleaved_layout_opens_and_compacts() {
    let full = random_oplog(11, 120, 3, 0.25);
    let mut bytes = eg_storage::format::file_header().to_vec();
    let mut held = OpLog::new();
    for (round, steps) in [30, 60, 90, 120].into_iter().enumerate() {
        let grown = random_oplog(11, steps, 3, 0.25);
        let events = eg_encoding::encode_bundle(&grown.bundle_since_local(held.version()));
        push_frame(&mut bytes, RECORD_EVENTS, &events);
        held = grown;
        if round < 3 {
            let ck = encode_checkpoint(&checkpoint_of(&held));
            push_frame(&mut bytes, RECORD_CHECKPOINT, &ck);
        }
    }
    assert_eq!(held.len(), full.len());
    let (_guard, path) = temp_file("old-layout");
    std::fs::write(&path, &bytes).expect("write fixture");

    let (mut store, loaded) = DocStore::open(&path).expect("open old layout");
    assert!(loaded.cached);
    assert_eq!(loaded.oplog.len(), full.len());
    assert_eq!(loaded.branch, full.checkout_tip());
    assert_eq!(
        std::fs::read(&path).expect("read").len(),
        bytes.len(),
        "open rewrites nothing"
    );
    let image_events = random_oplog(11, 90, 3, 0.25).len();
    assert_eq!(store.events_since_checkpoint(), full.len() - image_events);

    store
        .write_checkpoint(&loaded.oplog, &loaded.branch)
        .expect("checkpoint");
    let compacted = std::fs::read(&path).expect("read");
    let (frames, valid) = scan_frames(&compacted).expect("scan");
    assert_eq!(valid, compacted.len());
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].kind, RECORD_CHECKPOINT);
    assert!(compacted.len() < bytes.len());
    drop(store);
    let (_, again) = DocStore::open(&path).expect("reopen compacted");
    assert!(again.cached);
    assert_eq!(again.branch, full.checkout_tip());
}

/// A checkpoint that died before its rename leaves a cut-off temp file
/// beside an intact store: the open ignores and removes it, and the next
/// checkpoint goes through.
#[test]
fn stale_temp_file_is_ignored_and_removed() {
    let (_guard, path) = temp_file("stale-tmp");
    let oplog = random_oplog(5, 80, 3, 0.25);
    let (mut store, _) = DocStore::open(&path).expect("create");
    store
        .write_checkpoint(&oplog, &oplog.checkout_tip())
        .expect("checkpoint");
    drop(store);
    let intact = std::fs::read(&path).expect("read");
    let tmp = tmp_beside(&path);
    std::fs::write(&tmp, &intact[..intact.len() / 2]).expect("plant temp file");

    let (mut store, loaded) = DocStore::open(&path).expect("open beside a temp file");
    assert!(loaded.cached);
    assert_eq!(loaded.branch, oplog.checkout_tip());
    assert!(!tmp.exists());
    assert_eq!(std::fs::read(&path).expect("read"), intact);

    let grown = random_oplog(5, 100, 3, 0.25);
    store
        .write_checkpoint(&grown, &grown.checkout_tip())
        .expect("next checkpoint");
    assert!(!tmp.exists());
    drop(store);
    let (_, loaded) = DocStore::open(&path).expect("reopen");
    assert_eq!(loaded.branch, grown.checkout_tip());
}

/// The cadence is a rule of the file: a checkpoint falls due when the tail
/// has as many events as the checkpoint under it, and never under 512.
#[test]
fn checkpoint_falls_due_when_the_tail_matches_the_base() {
    let (_guard, path) = temp_file("due");
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("alice");
    let (mut store, _) = DocStore::open(&path).expect("create");
    let mut written = Vec::new();
    while oplog.len() < 5000 {
        oplog.add_insert(agent, 0, "abcdefg");
        store.append_new(&oplog).expect("append");
        let base = oplog.len() - store.events_since_checkpoint();
        assert_eq!(
            store.checkpoint_due(),
            store.events_since_checkpoint() >= base.max(512)
        );
        if store.checkpoint_due() {
            store
                .write_checkpoint(&oplog, &oplog.checkout_tip())
                .expect("checkpoint");
            assert!(!store.checkpoint_due());
            written.push(oplog.len());
            // The rule survives a restart: it is read off the file.
            drop(store);
            store = DocStore::open(&path).expect("reopen").0;
            assert!(!store.checkpoint_due());
        }
    }
    // 7-event steps: 518 is the first length past 512, then doubling.
    assert_eq!(written, [518, 1036, 2072, 4144]);
}

/// Flipping any single bit inside a committed record must never panic on
/// open: in the tail the CRC rejects the frame and the file truncates
/// there; in the checkpoint the file opens with, the open is refused.
#[test]
fn single_bit_corruption_never_panics() {
    let (_guard, path) = temp_file("bitflip-src");
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("alice");
    let (mut store, _) = DocStore::open(&path).expect("create");
    oplog.add_insert(agent, 0, "hello world");
    store
        .write_checkpoint(&oplog, &oplog.checkout_tip())
        .expect("checkpoint");
    let base_end = std::fs::metadata(&path).expect("meta").len() as usize;
    oplog.add_insert(agent, 0, "tail ");
    store.append_new(&oplog).expect("append");
    drop(store);
    let bytes = std::fs::read(&path).expect("read");

    let mut rng = SmallRng::new(99);
    for _ in 0..400 {
        let mut corrupt = bytes.clone();
        let byte = rng.below(corrupt.len());
        corrupt[byte] ^= 1 << rng.below(8);
        let (_g, p) = temp_file("bitflip");
        std::fs::write(&p, &corrupt).expect("write");
        let opened = DocStore::open(&p);
        if byte < HEADER_LEN {
            assert!(
                matches!(opened, Err(StorageError::Decode(_))),
                "byte {byte}"
            );
        } else if byte == HEADER_LEN {
            // The kind byte itself: the frame no longer says checkpoint.
        } else if byte < base_end {
            assert!(
                matches!(opened, Err(StorageError::Decode(_))),
                "byte {byte}"
            );
            assert_eq!(
                std::fs::read(&p).expect("read back"),
                corrupt,
                "byte {byte}"
            );
        } else {
            let (_, loaded) = opened.expect("tail damage recovers the base");
            assert_eq!(
                loaded.branch.content.to_string(),
                "hello world",
                "byte {byte}"
            );
        }
    }
}

/// The bundle-appending path is incremental: appending when nothing is new
/// writes nothing, and persisted frontiers survive reopen.
#[test]
fn append_is_incremental_and_idempotent() {
    let (_guard, path) = temp_file("idempotent");
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("alice");
    let (mut store, _) = DocStore::open(&path).expect("create");
    oplog.add_insert(agent, 0, "abc");
    assert_eq!(store.append_new(&oplog).expect("first"), 3);
    assert_eq!(store.append_new(&oplog).expect("repeat"), 0);
    let size = std::fs::metadata(&path).expect("meta").len();
    assert_eq!(store.append_new(&oplog).expect("repeat 2"), 0);
    assert_eq!(std::fs::metadata(&path).expect("meta").len(), size);
    assert_eq!(store.persisted_version(), oplog.version());

    oplog.add_insert(agent, 3, "def");
    assert_eq!(store.append_new(&oplog).expect("second"), 3);
    assert_eq!(store.events_since_checkpoint(), 6);
    let appended = store.bytes_written();
    assert_eq!(store.file_bytes(), HEADER_LEN as u64 + appended);

    // A checkpoint takes events the store was never handed, too.
    oplog.add_insert(agent, 6, "ghi");
    store
        .write_checkpoint(&oplog, &oplog.checkout_tip())
        .expect("checkpoint");
    assert_eq!(store.events_since_checkpoint(), 0);
    assert_eq!(store.persisted_version(), oplog.version());
    assert_eq!(store.append_new(&oplog).expect("nothing left"), 0);
    assert_eq!(store.bytes_written(), appended + store.file_bytes());
    assert_eq!(
        store.file_bytes(),
        std::fs::metadata(&path).expect("meta").len()
    );
}

/// The tracker snapshot of the checkpoint in the segment file at `path`.
fn stored_snapshot(path: &Path) -> egwalker::TrackerSnapshot {
    let bytes = std::fs::read(path).expect("read segment");
    let (frames, _) = scan_frames(&bytes).expect("scan");
    let frame = frames
        .iter()
        .find(|f| f.kind == RECORD_CHECKPOINT)
        .expect("a checkpoint");
    let view = eg_storage::read_checkpoint(frame.payload).expect("checkpoint");
    eg_storage::decode_snapshot(view.snapshot.expect("a snapshot")).expect("snapshot")
}

/// A replica that takes a history in deliveries, merging each through the
/// one tracker it keeps, as `eg-sync`'s `Replica` does.
struct Merger {
    log: OpLog,
    branch: Branch,
    tracker: Tracker,
}

impl Merger {
    fn new() -> Self {
        Merger {
            log: OpLog::new(),
            branch: Branch::new(),
            tracker: Tracker::new(),
        }
    }

    /// Applies what `source` holds beyond this log.
    fn take(&mut self, source: &OpLog) {
        let delta = source.bundle_since(&self.log.version_vector());
        self.log.apply_bundle(&delta).expect("causally ready");
    }

    /// Types `text` at the start of the document: a local edit.
    fn type_ahead(&mut self, text: &str) {
        let agent = self.log.get_or_create_agent("local");
        self.log.add_insert_at(agent, &self.branch.version, 0, text);
    }
}

/// A checkpoint that snapshots the tracker the last merge left live —
/// catching up its lagging prepare dimension instead of replaying the
/// conflict window — is as good as one from a rebuilt tracker. Two
/// replicas take the same deliveries of a growing history (concurrent
/// `random_oplog`s, and `mid_run_criticals_oplog`, whose critical versions
/// clear the tracker) and the same local edits; one of them checkpoints at random cuts, once with
/// its own tracker and once, into a second file, with a rebuilt one. At
/// every cut the snapshots validate, and after the next delivery both
/// files reopen to `checkout_tip`, over the sequential-tail path or the
/// snapshot path, whichever the delivery's shape picks. The checkpoint
/// leaves the tracker live: every later merge resumes exactly when the
/// other replica's does and builds the same text. Some cases checkpoint a
/// tracker that is not live instead; that one is rebuilt, and the next
/// merge resumes exactly when the delivery is causally after the
/// checkpoint.
#[test]
fn a_checkpoint_from_the_live_tracker_matches_one_from_a_rebuilt_tracker() {
    let [mut live, mut lagging, mut rebuilt] = [0usize; 3];
    let [mut sequential, mut snapshot, mut resumed_after] = [0usize; 3];
    for seed in 0..36u64 {
        let history = |step: usize| -> OpLog {
            if seed % 2 == 0 {
                random_oplog(seed, step * 6, 3, 0.3)
            } else {
                mid_run_criticals_oplog(seed, step).0
            }
        };
        let mut rng = SmallRng::new(seed ^ 0x5eed);
        let [mut ours, mut twin] = [Merger::new(), Merger::new()];
        let (_g, path) = temp_file("live-ck");
        let (_g2, rebuilt_path) = temp_file("rebuilt-ck");
        // A rebuilt case checkpoints one tracker that is not live; after
        // it the two trackers stand on different floors, and only the
        // texts are compared.
        let rebuild_at = (seed % 3 == 0).then(|| 1 + rng.below(8));
        let mut lockstep = true;
        // The last checkpoint: its version, the log length it imaged, and
        // whether it snapshotted the live tracker.
        let mut checkpoint: Option<(Frontier, usize, bool)> = None;
        for step in 1..=24 {
            // A delivery, or now and then a local edit: a tail that
            // chains onto the checkpoint.
            if rng.below(4) == 0 {
                ours.type_ahead("xy");
                twin.type_ahead("xy");
            } else {
                let source = history(step);
                ours.take(&source);
                twin.take(&source);
            }
            let what = format!("seed {seed} step {step}");
            if let Some((version, imaged, _)) = &checkpoint {
                // The delivery as the tail behind the checkpoint.
                let tail = ours.log.graph.is_sequential_extension(*imaged, version);
                sequential += usize::from(tail);
                snapshot += usize::from(!tail);
                for p in [&path, &rebuilt_path] {
                    let (mut store, _) = DocStore::open(p).expect("open");
                    store.append_new(&ours.log).expect("append");
                    drop(store);
                    let (_, loaded) = DocStore::open(p).expect("reopen");
                    assert!(loaded.cached, "{what}");
                    assert_eq!(
                        loaded.branch,
                        ours.log.checkout_tip(),
                        "{what}: sequential tail {tail}"
                    );
                }
            }
            let resumed = ours.branch.merge_reusing(&ours.log, &mut ours.tracker);
            let twin_resumed = twin.branch.merge_reusing(&twin.log, &mut twin.tracker);
            match checkpoint.take() {
                Some((version, imaged, false)) => {
                    let after = (imaged..ours.log.len())
                        .all(|lv| ours.log.graph.frontier_contains_frontier(&[lv], &version));
                    assert_eq!(resumed, after && imaged < ours.log.len(), "{what}");
                    resumed_after += usize::from(resumed);
                }
                Some(_) if lockstep => {
                    assert_eq!(resumed, twin_resumed, "{what}");
                    resumed_after += usize::from(resumed);
                }
                _ if lockstep => assert_eq!(resumed, twin_resumed, "{what}"),
                _ => {}
            }
            ours.tracker.check();
            assert_eq!(ours.branch, twin.branch, "{what}");
            assert_eq!(ours.branch, ours.log.checkout_tip(), "{what}");

            let rebuild = rebuild_at == Some(step);
            if rng.below(3) != 0 && !rebuild {
                continue;
            }
            if rebuild {
                ours.tracker = Tracker::new();
                lockstep = false;
            }
            let (mut store, _) = DocStore::open(&path).expect("open");
            store.append_new(&ours.log).expect("append");
            let from_live = store
                .write_checkpoint_with(&ours.log, &ours.branch, &mut ours.tracker)
                .expect("checkpoint");
            ours.tracker.check();
            assert_eq!(from_live, !rebuild, "{what}");
            let (mut store, _) = DocStore::open(&rebuilt_path).expect("open");
            store.append_new(&ours.log).expect("append");
            store
                .write_checkpoint(&ours.log, &ours.branch)
                .expect("checkpoint");
            for p in [&path, &rebuilt_path] {
                stored_snapshot(p)
                    .validate(ours.log.len())
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
            }
            let version = ours.branch.version.clone();
            live += usize::from(from_live);
            rebuilt += usize::from(!from_live);
            // A live prepare dimension stands on one event, so a version
            // with several heads was behind it.
            lagging += usize::from(from_live && version.len() > 1);
            checkpoint = Some((version, ours.log.len(), from_live));
        }
    }
    eprintln!(
        "{live} live checkpoints ({lagging} lagging), {rebuilt} rebuilt; reopened {sequential} \
         over a sequential tail and {snapshot} over the snapshot; {resumed_after} next merges resumed"
    );
    assert!(
        live > 0 && lagging > 0 && rebuilt > 0,
        "{live} {lagging} {rebuilt}"
    );
    assert!(sequential > 0 && snapshot > 0, "{sequential} {snapshot}");
    assert!(resumed_after > 0);
}

/// A reopen whose tail is causally after the checkpoint, but not one
/// chain, resumes the snapshot's tracker over it — and hands that tracker
/// over live at the tip, so the document's first merge after the reopen
/// resumes it too instead of replaying its conflict window.
#[test]
fn a_reopened_document_keeps_the_tracker_its_open_resumed() {
    let (_guard, path) = temp_file("reopen-tracker");
    let mut oplog = OpLog::new();
    let [a, b] = ["alice", "bob"].map(|name| oplog.get_or_create_agent(name));
    let base = oplog.add_insert(a, 0, "base");
    oplog.add_insert_at(b, &[base.last()], 4, "+bob");
    oplog.add_insert_at(a, &[base.last()], 0, "alice+");
    let (mut store, _) = DocStore::open(&path).expect("create");
    store.append_new(&oplog).expect("append");
    store
        .write_checkpoint(&oplog, &oplog.checkout_tip())
        .expect("checkpoint");
    // Two concurrent edits off the checkpoint version.
    let at = oplog.version().clone();
    oplog.add_insert_at(a, &at, 0, "A");
    oplog.add_insert_at(b, &at, 1, "B");
    store.append_new(&oplog).expect("append");
    drop(store);

    let (_, mut loaded) = DocStore::open(&path).expect("reopen");
    assert!(loaded.cached);
    assert_eq!(loaded.branch, oplog.checkout_tip());
    let agent = loaded.oplog.get_or_create_agent("carol");
    let tip = loaded.oplog.version().clone();
    loaded.oplog.add_insert_at(agent, &tip, 2, "C");
    assert!(
        loaded
            .branch
            .merge_reusing(&loaded.oplog, &mut loaded.tracker),
        "the first merge after the reopen resumes"
    );
    assert_eq!(loaded.branch, loaded.oplog.checkout_tip());
}
