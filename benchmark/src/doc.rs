//! The document stage: one lane-generated history through merge, incremental
//! merge, save, open and memory, and (in the traced pass) through each
//! crate's public functions one at a time.

use std::path::Path;
use std::time::Duration;

use eg_dag::walk::{PlanOrder, WalkPlan};
use eg_encoding::EncodeOpts;
use eg_rope::Rope;
use eg_storage::DocStore;
use egwalker::walker::{self, WalkerOpts};
use egwalker::{Branch, OpLog, Tracker};

use crate::lanes::{LaneGen, Rng, Shape};
use crate::stats::{best, fnv64, median, quantile, time_calls};
use crate::trace::Tracer;
use crate::{alloc, Metrics, Tally};

/// Autosaves per save pass; each is append + checkpoint + fdatasync.
pub const AUTOSAVES: usize = 16;
/// Events appended after the last checkpoint, so that an open replays a tail.
pub const TAIL_EVENTS: usize = 64;
/// Incremental merges sampled at the end of the history.
const WINDOWS: usize = 512;
/// Extra histories each round's memory pass merges besides its own.
const MEMORY_SIBLINGS: usize = 1;

/// A generated history and everything known about it without merging.
pub struct DocInput {
    pub shape: Shape,
    pub seed: u64,
    /// The whole history: `shape.windows` windows, then the capped tail.
    pub log: OpLog,
    /// Events before the tail.
    pub events: usize,
    /// Fingerprint of the text every path must arrive at.
    pub text_fnv: u64,
}

fn text_fnv(branch: &Branch) -> u64 {
    fnv64(branch.content.to_string().as_bytes())
}

/// Generates the history and checks it against the two oracles that do not
/// share the walker's emit path: the generator's predicted length and a
/// replay through the reference CRDT.
pub fn generate(shape: Shape, seed: u64, tally: &mut Tally) -> DocInput {
    let mut log = OpLog::new();
    let mut gen = LaneGen::new(shape, seed);
    gen.run_until(&mut log, shape.windows);
    let events = log.len();
    gen.run_exactly(&mut log, TAIL_EVENTS);

    let merged = log.checkout_tip().content.to_string();
    let mut crdt = eg_crdt_ref::CrdtDoc::new();
    crdt.apply_all(&log, &egwalker::convert::to_crdt_ops(&log));
    tally.check(
        merged.chars().count() == gen.predicted_len(),
        "merged length differs from the generator's prediction",
    );
    tally.check(
        crdt.to_string() == merged,
        "walker text differs from the reference CRDT's",
    );

    DocInput {
        shape,
        seed,
        events,
        text_fnv: fnv64(merged.as_bytes()),
        log,
    }
}

/// How the stage's share of the run is split among its timed phases.
struct Budget {
    merge: Duration,
    save: Duration,
    open: Duration,
    cold: Duration,
}

impl Budget {
    fn of(total: Duration) -> Budget {
        Budget {
            merge: total.mul_f64(0.45),
            save: total.mul_f64(0.20),
            open: total.mul_f64(0.15),
            cold: total.mul_f64(0.05),
            // The window pass and the memory pass are fixed work and take
            // what is left.
        }
    }
}

/// One round's samples, in seconds and bytes: one history through the five
/// phases.
struct Round {
    /// Events in the history, and in the part of it the autosaves cover.
    events: usize,
    saved_events: usize,
    merge: Vec<f64>,
    window: Vec<f64>,
    /// One entry per autosave, over all passes.
    append: Vec<f64>,
    checkpoint: Vec<f64>,
    sync: Vec<f64>,
    /// Σ(append + checkpoint + sync) of each pass.
    save_pass: Vec<f64>,
    open_cached: Vec<f64>,
    open_cold: Vec<f64>,
    store_bytes: u64,
    file_bytes: usize,
    peak: usize,
    steady: usize,
}

/// The stage's samples over all rounds of a run.
#[derive(Default)]
pub struct DocStage {
    rounds: Vec<Round>,
}

/// Replays the generator, saving after each of [`AUTOSAVES`] slices and
/// appending the tail; with `checkpoints` off the store holds events only.
/// Returns the three calls' times per autosave.
fn save_pass(
    input: &DocInput,
    path: &Path,
    checkpoints: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> [Vec<f64>; 3] {
    let _ = std::fs::remove_file(path);
    let (mut store, _) = DocStore::open(path).expect("create segment store");
    let mut log = OpLog::new();
    let mut gen = LaneGen::new(input.shape, input.seed);
    let mut branch = Branch::new();
    let mut tracker = Tracker::new();
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for i in 1..=AUTOSAVES {
        gen.run_until(&mut log, input.shape.windows * i / AUTOSAVES);
        branch.merge_reusing(&log, &mut tracker);
        tally.attempted += 1;
        let (r, t) = tracer.span("storage.append_new", i, |_| store.append_new(&log));
        tally.check(r.is_ok(), "append_new failed");
        times[0].push(t);
        if checkpoints {
            let (r, t) = tracer.span("storage.write_checkpoint", i, |_| {
                store.write_checkpoint(&log, &branch)
            });
            tally.check(r.is_ok(), "write_checkpoint failed");
            times[1].push(t);
        }
        let (r, t) = tracer.span("storage.sync", i, |_| store.sync());
        tally.check(r.is_ok(), "sync failed");
        times[2].push(t);
    }
    gen.run_exactly(&mut log, TAIL_EVENTS);
    let tail = store.append_new(&log).and_then(|_| store.sync());
    tally.check(
        tail.is_ok() && log.len() == input.log.len(),
        "tail append failed",
    );
    times
}

/// Times `DocStore::open` on `path`. Every open is checked for the path it
/// took; the text is fingerprinted once, after the clock has stopped, so that
/// hashing half a megabyte is not billed to the open.
fn timed_opens(
    name: &'static str,
    path: &Path,
    cached: bool,
    budget: Duration,
    input: &DocInput,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut last = None;
    let times = time_calls(
        tracer,
        name,
        budget,
        if cached { 3 } else { 1 },
        500,
        || {
            tally.attempted += 1;
            match DocStore::open(path) {
                Ok((_, doc)) => {
                    tally.check(doc.cached == cached, "open took the wrong path");
                    last = Some(doc);
                }
                Err(_) => tally.fail("DocStore::open failed"),
            }
        },
    );
    let same = last.is_some_and(|doc| text_fnv(&doc.branch) == input.text_fnv);
    tally.check(same, "opened text differs from the merged text");
    times
}

/// Grows the log one generator window at a time over the last windows of the
/// history, merging after each: what a live replica pays per received burst.
fn window_pass(input: &DocInput, tracer: &mut Tracer, tally: &mut Tally) -> Vec<f64> {
    let windows = input.shape.windows;
    let sampled = WINDOWS.min(windows / 2);
    let mut log = OpLog::new();
    let mut gen = LaneGen::new(input.shape, input.seed);
    gen.run_until(&mut log, windows - sampled);
    let mut branch = log.checkout_tip();
    let mut tracker = Tracker::new();
    let mut times = Vec::with_capacity(sampled);
    for i in 0..sampled {
        gen.step(&mut log, usize::MAX);
        tally.attempted += 1;
        let (_, t) = tracer.span("core.merge_window", i, |_| {
            branch.merge_reusing(&log, &mut tracker)
        });
        times.push(t);
    }
    gen.run_exactly(&mut log, TAIL_EVENTS);
    branch.merge_reusing(&log, &mut tracker);
    tally.check(
        text_fnv(&branch) == input.text_fnv,
        "incremental merges differ from the whole merge",
    );
    times
}

impl DocStage {
    /// Runs the five phases on `input` and keeps their samples. A run makes
    /// several short rounds, each on a history of its own, and not one long
    /// one: every metric then samples the whole run, not one stretch of it
    /// (this machine's speed drifts by ten percent and more over tens of
    /// seconds), and averages over several inputs. `dir` receives the two
    /// stores.
    pub fn round(
        &mut self,
        input: &DocInput,
        dir: &Path,
        total: Duration,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let budget = Budget::of(total);
        let merge = time_calls(tracer, "core.checkout_tip", budget.merge, 3, 200, || {
            std::hint::black_box(input.log.checkout_tip());
        });
        tally.attempted += merge.len() as u64;
        let mut round = Round {
            events: input.log.len(),
            saved_events: input.events,
            merge,
            window: window_pass(input, tracer, tally),
            append: Vec::new(),
            checkpoint: Vec::new(),
            sync: Vec::new(),
            save_pass: Vec::new(),
            open_cached: Vec::new(),
            open_cold: Vec::new(),
            store_bytes: 0,
            file_bytes: eg_encoding::encode(&input.log, EncodeOpts::default()).len(),
            peak: 0,
            steady: 0,
        };

        let cached_path = dir.join("doc.seg");
        let start = std::time::Instant::now();
        while round.save_pass.is_empty()
            || (start.elapsed() < budget.save && round.save_pass.len() < 50)
        {
            let [a, c, s] = save_pass(input, &cached_path, true, tracer, tally);
            round.save_pass.push(a.iter().chain(&c).chain(&s).sum());
            round.append.extend(a);
            round.checkpoint.extend(c);
            round.sync.extend(s);
            let bytes = std::fs::metadata(&cached_path).map_or(0, |m| m.len());
            tally.check(
                round.store_bytes == 0 || round.store_bytes == bytes,
                "store size differs between passes",
            );
            round.store_bytes = bytes;
        }

        round.open_cached = timed_opens(
            "storage.open_cached",
            &cached_path,
            true,
            budget.open,
            input,
            tracer,
            tally,
        );
        // A cold open replays the whole history, so only the first round
        // builds the events-only store and opens it.
        if self.rounds.is_empty() {
            let cold_path = dir.join("cold.seg");
            save_pass(input, &cold_path, false, &mut Tracer::new(false), tally);
            round.open_cold = timed_opens(
                "storage.open_cold",
                &cold_path,
                false,
                budget.cold,
                input,
                tracer,
                tally,
            );
        }

        tally.attempted += 1;
        let heap = alloc::measure(|| input.log.checkout_tip());
        tally.check(
            text_fnv(&heap.value) == input.text_fnv,
            "merge under the counting allocator differs",
        );
        let (mut peak, mut steady) = (heap.peak, heap.retained);
        drop(heap);
        // The tracker's slabs grow by doubling, so one history's peak sits on
        // one side or the other of a step a third of its size wide. Averaging
        // it with the peaks of sibling histories makes the reading follow the
        // shape, not the seed; the siblings are checked by length alone.
        let mut seeds = Rng::new(input.seed);
        for _ in 0..MEMORY_SIBLINGS {
            let mut log = OpLog::new();
            let mut gen = LaneGen::new(input.shape, seeds.next());
            gen.run_until(&mut log, input.shape.windows);
            tally.attempted += 1;
            let heap = alloc::measure(|| log.checkout_tip());
            tally.check(
                heap.value.len_chars() == gen.predicted_len(),
                "sibling history merged to the wrong length",
            );
            peak += heap.peak;
            steady += heap.retained;
        }
        round.peak = peak / (1 + MEMORY_SIBLINGS);
        round.steady = steady / (1 + MEMORY_SIBLINGS);
        self.rounds.push(round);
    }

    fn sum(&self, of: impl Fn(&Round) -> f64) -> f64 {
        self.rounds.iter().map(of).sum()
    }

    fn mean(&self, of: impl Fn(&Round) -> f64) -> f64 {
        self.sum(of) / self.rounds.len() as f64
    }

    fn pooled(&self, of: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| of(r).iter().copied())
            .collect()
    }

    /// Sample counts behind the stage's timings, for the run's log line.
    pub fn samples(&self) -> String {
        let n =
            |of: fn(&Round) -> &Vec<f64>| self.rounds.iter().map(|r| of(r).len()).sum::<usize>();
        format!(
            "{} merges, {} windows, {} save passes, {} opens",
            n(|r| &r.merge),
            n(|r| &r.window),
            n(|r| &r.save_pass),
            n(|r| &r.open_cached)
        )
    }

    /// Seconds of one whole merge, summed over the rounds' histories.
    pub fn merge_seconds(&self) -> f64 {
        self.sum(|r| best(&r.merge))
    }

    pub fn end_to_end(&self, out: &mut Metrics) {
        let events = self.sum(|r| r.events as f64);
        out.push(("merge_events_per_s", events / self.merge_seconds()));
        out.push((
            "apply_window_p50_us",
            median(&self.pooled(|r| &r.window)) * 1e6,
        ));
        out.push((
            "save_events_per_s",
            self.sum(|r| r.saved_events as f64) / self.sum(|r| best(&r.save_pass)),
        ));
        out.push(("open_cached_ms", self.mean(|r| best(&r.open_cached)) * 1e3));
        out.push((
            "store_bytes_per_event",
            self.sum(|r| r.store_bytes as f64) / events,
        ));
        out.push((
            "file_bytes_per_event",
            self.sum(|r| r.file_bytes as f64) / events,
        ));
        out.push(("peak_bytes", self.mean(|r| r.peak as f64)));
        out.push(("steady_bytes", self.mean(|r| r.steady as f64)));
    }

    /// The layer metrics that are other readings of this stage's samples.
    pub fn layers(&self, out: &mut Metrics) {
        let drift = |r: &Round| {
            let quarter = (r.window.len() / 4).clamp(1, 64);
            median(&r.window[r.window.len() - quarter..]) / median(&r.window[..quarter])
        };
        let first = &self.rounds[0];
        let cold = best(&first.open_cold);
        out.push(("core.merge_us", self.mean(|r| best(&r.merge)) * 1e6));
        out.push((
            "core.apply_window_p90_us",
            quantile(&self.pooled(|r| &r.window), 0.9) * 1e6,
        ));
        out.push(("core.apply_window_drift_x", self.mean(drift)));
        out.push((
            "storage.append_us",
            median(&self.pooled(|r| &r.append)) * 1e6,
        ));
        out.push((
            "storage.checkpoint_us",
            median(&self.pooled(|r| &r.checkpoint)) * 1e6,
        ));
        out.push(("storage.sync_us", median(&self.pooled(|r| &r.sync)) * 1e6));
        out.push(("storage.open_cold_ms", cold * 1e3));
        out.push(("storage.cached_speedup_x", cold / best(&first.open_cached)));
        out.push((
            "storage.write_amp_x",
            self.sum(|r| r.store_bytes as f64) / self.sum(|r| r.file_bytes as f64),
        ));
    }
}

/// Seconds of one whole merge with no span recorded around it: the base of
/// `trace_overhead_x`.
pub fn untraced_merge(input: &DocInput, budget: Duration) -> f64 {
    best(&time_calls(
        &mut Tracer::new(false),
        "",
        budget,
        3,
        200,
        || {
            std::hint::black_box(input.log.checkout_tip());
        },
    ))
}

/// Times each crate's public functions on the history, one at a time.
pub fn layers(input: &DocInput, total: Duration, tracer: &mut Tracer, out: &mut Metrics) {
    let log = &input.log;
    let events = log.len() as f64;
    let tip = log.version().clone();
    // Thirteen timed calls share the budget evenly.
    let each = total / 13;
    let timed = |name: &'static str, tracer: &mut Tracer, f: &mut dyn FnMut()| {
        median(&time_calls(tracer, name, each, 3, 1000, f)) * 1e6
    };

    let graph = &log.graph;
    let diff = graph.diff(&[], &tip);
    let (base, spans) = graph.conflict_window(&[], &tip);
    out.push((
        "dag.diff_us",
        timed("dag.diff", tracer, &mut || {
            std::hint::black_box(graph.diff(&[], &tip));
        }),
    ));
    out.push((
        "dag.conflict_window_us",
        timed("dag.conflict_window", tracer, &mut || {
            std::hint::black_box(graph.conflict_window(&[], &tip));
        }),
    ));
    let mut plan = WalkPlan::new();
    let plan_us = timed("dag.plan", tracer, &mut || {
        plan.plan_with_order(graph, &base, &spans, &diff.only_b, PlanOrder::SmallestFirst);
    });
    out.push(("dag.plan_us", plan_us));
    out.push(("dag.plan_steps", plan.len() as f64));
    out.push(("dag.graph_runs", graph.num_entries() as f64));
    out.push(("dag.criticals", criticals(log) as f64));

    let mut tracker = Tracker::new();
    let opts = WalkerOpts::default();
    let walk = |tracker: &mut Tracker| {
        walker::walk_reusing(
            log,
            &base,
            &spans,
            &diff.only_b,
            opts,
            tracker,
            &mut |_, op| {
                std::hint::black_box(op);
            },
        )
    };
    let transform_us = timed("walker.walk_reusing", tracer, &mut || walk(&mut tracker));
    out.push(("walker.transform_us", transform_us));
    out.push(("walker.self_us", transform_us - plan_us));
    let heap = alloc::measure(|| walk(&mut tracker));
    out.push(("walker.alloc_calls_per_event", heap.calls as f64 / events));
    out.push(("tracker.records", tracker.num_records() as f64));

    let (_, ops) = walker::transformed_ops(log, &[], &tip, opts);
    let mut rope = Rope::new();
    out.push((
        "rope.apply_us",
        timed("rope.apply", tracer, &mut || {
            rope = Rope::new();
            for (_, op) in &ops {
                op.apply_to(&mut rope);
            }
        }),
    ));
    out.push((
        "rope.to_string_us",
        timed("rope.to_string", tracer, &mut || {
            std::hint::black_box(rope.to_string());
        }),
    ));

    let file = eg_encoding::encode(log, EncodeOpts::default());
    let image = eg_encoding::encode_oplog_image(log);
    let bundle = log.bundle_since_local(&[]);
    let wire = eg_encoding::encode_bundle(&bundle);
    out.push((
        "encoding.encode_us",
        timed("encoding.encode", tracer, &mut || {
            std::hint::black_box(eg_encoding::encode(log, EncodeOpts::default()));
        }),
    ));
    out.push((
        "encoding.decode_us",
        timed("encoding.decode", tracer, &mut || {
            std::hint::black_box(eg_encoding::decode(&file).expect("decode own encoding"));
        }),
    ));
    out.push((
        "encoding.image_encode_us",
        timed("encoding.encode_oplog_image", tracer, &mut || {
            std::hint::black_box(eg_encoding::encode_oplog_image(log));
        }),
    ));
    out.push((
        "encoding.image_decode_us",
        timed("encoding.decode_oplog_image", tracer, &mut || {
            std::hint::black_box(
                eg_encoding::decode_oplog_image(&image).expect("decode own image"),
            );
        }),
    ));
    out.push((
        "encoding.bundle_encode_us",
        timed("encoding.encode_bundle", tracer, &mut || {
            std::hint::black_box(eg_encoding::encode_bundle(&bundle));
        }),
    ));
    out.push((
        "encoding.bundle_decode_us",
        timed("encoding.decode_bundle", tracer, &mut || {
            std::hint::black_box(eg_encoding::decode_bundle(&wire).expect("decode own bundle"));
        }),
    ));
    out.push((
        "encoding.crc_us",
        timed("encoding.crc32", tracer, &mut || {
            std::hint::black_box(eg_encoding::crc32(&file));
        }),
    ));
    out.push(("encoding.image_bytes", image.len() as f64));
}

/// Events whose version is critical (paper §3.5).
pub fn criticals(log: &OpLog) -> usize {
    log.graph
        .criticals_runs()
        .iter()
        .map(|r| r.end - r.start)
        .sum()
}
