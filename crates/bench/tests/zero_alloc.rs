//! Tier-1 proof of the zero-allocation emit pipeline: transforming a
//! steady-state (sequential) run of events performs **zero per-op heap
//! allocations**, and applying it to a live branch allocates only the
//! amortised chunk-growth tail — never per operation.
//!
//! The whole test binary runs under the counting [`TrackingAlloc`], so the
//! numbers include every allocation the pipeline makes (walker plan,
//! tracker, rope, arena slices). They are the *calling thread's* numbers:
//! `cargo test` runs these tests side by side, and a process-wide counter
//! bills each for the others' allocations (`counts_are_per_thread` pins
//! that).

use eg_bench::alloc_track::{alloc_calls, global_alloc_calls, measure_thread, TrackingAlloc};
use eg_dag::Frontier;
use eg_rle::HasLength;
use egwalker::testgen::{mid_run_criticals_oplog, SmallRng};
use egwalker::tracker::Tracker;
use egwalker::walker::{self, WalkerOpts};
use egwalker::{Branch, OpLog};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Appends `events` single-author events to the oplog in short bursts at
/// pseudo-random positions (sequential history: every run chains on its
/// predecessor, as in the paper's S-series traces). Returns the number of
/// events appended.
fn append_sequential(oplog: &mut OpLog, agent: u32, rng: &mut SmallRng, events: usize) -> usize {
    let mut doc_len = oplog.checkout_tip().len_chars();
    let mut done = 0;
    while done < events {
        let burst = 1 + rng.below(8).min(events - done - 1);
        if doc_len > 32 && rng.below(4) == 0 {
            let pos = rng.below(doc_len - burst.min(doc_len - 1));
            let n = burst.min(doc_len - pos).max(1);
            oplog.add_delete(agent, pos, n);
            doc_len -= n;
            done += n;
        } else {
            let pos = rng.below(doc_len + 1);
            let text: String = (0..burst)
                .map(|i| (b'a' + (i as u8 % 26)) as char)
                .collect();
            oplog.add_insert(agent, pos, &text);
            doc_len += burst;
            done += burst;
        }
    }
    done
}

/// Transform-only allocation count: replay the new events through the
/// walker with a sink that reads (but does not copy) every borrowed op.
fn transform_allocs(oplog: &OpLog, from: &[usize]) -> usize {
    let target = oplog.graph.version_union(from, oplog.version());
    let diff = oplog.graph.diff(from, &target);
    let (base, spans) = oplog.graph.conflict_window(from, &target);
    let before = alloc_calls();
    let mut sum = 0usize;
    walker::walk_reusing(
        oplog,
        &base,
        &spans,
        &diff.only_b,
        WalkerOpts::default(),
        &mut Tracker::new(),
        &mut |lvs, op| {
            // Touch the borrowed content so the slice is really served.
            sum += lvs.len() + op.pos + op.content.map_or(0, str::len);
        },
    );
    std::hint::black_box(sum);
    alloc_calls() - before
}

#[test]
fn transform_is_zero_alloc_per_op() {
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("solo");
    let mut rng = SmallRng::new(0x5eed);
    append_sequential(&mut oplog, agent, &mut rng, 2000);

    // Small batch, then a 4× batch: the walker's allocation count is the
    // per-merge fixed overhead (plan, tracker, frontier bookkeeping) and
    // must NOT scale with the number of events transformed.
    let from_small = oplog.version().clone();
    append_sequential(&mut oplog, agent, &mut rng, 1000);
    let allocs_small = transform_allocs(&oplog, &from_small);

    let from_large = oplog.version().clone();
    append_sequential(&mut oplog, agent, &mut rng, 4000);
    let allocs_large = transform_allocs(&oplog, &from_large);

    eprintln!("transform allocs: {allocs_small} (1000 events), {allocs_large} (4000 events)");
    assert!(
        allocs_small < 200,
        "transforming 1000 events allocated {allocs_small} times (expected fixed overhead only)"
    );
    assert!(
        allocs_large <= allocs_small + 64,
        "transform allocations scale with events: {allocs_small} for 1000 \
         events vs {allocs_large} for 4000"
    );
}

/// Appends `events` events per agent on `agents.len()` long-running
/// concurrent branches (no intermediate merges — the paper's C-series
/// shape: every branch is concurrent with every other). Positions are
/// relative to each agent's own isolated view.
fn append_concurrent(
    oplog: &mut OpLog,
    agents: &[u32],
    rng: &mut SmallRng,
    events_per_agent: usize,
) -> usize {
    let base = oplog.version().clone();
    let base_len = oplog.checkout_tip().len_chars();
    let mut frontiers: Vec<Frontier> = vec![base; agents.len()];
    let mut doc_lens: Vec<usize> = vec![base_len; agents.len()];
    let mut total = 0usize;
    let mut done = vec![0usize; agents.len()];
    while done.iter().any(|&d| d < events_per_agent) {
        let a = rng.below(agents.len());
        if done[a] >= events_per_agent {
            continue;
        }
        let burst = 1 + rng.below(6).min(events_per_agent - done[a] - 1);
        let parents = frontiers[a].clone();
        let lvs = if doc_lens[a] > 16 && rng.below(4) == 0 {
            let pos = rng.below(doc_lens[a] - 1);
            let n = burst.min(doc_lens[a] - pos).max(1);
            doc_lens[a] -= n;
            oplog.add_delete_at(agents[a], &parents, pos, n)
        } else {
            let pos = rng.below(doc_lens[a] + 1);
            let text: String = (0..burst)
                .map(|i| (b'a' + (i as u8 % 26)) as char)
                .collect();
            doc_lens[a] += burst;
            oplog.add_insert_at(agents[a], &parents, pos, &text)
        };
        let n = lvs.len();
        frontiers[a] = Frontier::new_1(lvs.last());
        done[a] += n;
        total += n;
    }
    total
}

/// Concurrent (C-series) batch: merging long concurrent branches must stay
/// well below one allocation per event — the slab-arena tracker builds its
/// whole CRDT structure out of inline-array nodes, so the only remaining
/// allocations are slab growth doublings and per-merge fixed overhead.
#[test]
fn concurrent_merge_allocates_sublinearly() {
    let mut oplog = OpLog::new();
    let agents: Vec<u32> = (0..3)
        .map(|i| oplog.get_or_create_agent(&format!("user{i}")))
        .collect();
    let mut rng = SmallRng::new(0xc0c0);
    // Shared sequential prefix, then three long concurrent branches.
    append_sequential(&mut oplog, agents[0], &mut rng, 500);
    let events = append_concurrent(&mut oplog, &agents, &mut rng, 1500);

    let mut branch = Branch::new();
    let before = alloc_calls();
    branch.merge(&oplog);
    let allocs = alloc_calls() - before;

    eprintln!("concurrent merge allocs: {allocs} for {events} concurrent events");
    assert!(
        allocs < events / 4,
        "concurrent merge of {events} events allocated {allocs} times — \
         the C-series allocation storm regressed"
    );
    assert_eq!(
        branch.content.to_string(),
        oplog.checkout_tip().content.to_string()
    );
}

/// Reused-tracker steady state: after the first merge warms a tracker's
/// slabs and scratch buffers, every subsequent merge through the same
/// (cleared) tracker must stay below a fixed allocation-call bound —
/// independent of how many merges have gone before.
#[test]
fn reused_tracker_merges_stay_below_fixed_alloc_bound() {
    let mut oplog = OpLog::new();
    let agents: Vec<u32> = (0..3)
        .map(|i| oplog.get_or_create_agent(&format!("peer{i}")))
        .collect();
    let mut rng = SmallRng::new(0xbeef);
    append_sequential(&mut oplog, agents[0], &mut rng, 400);

    let mut branch = Branch::new();
    let mut tracker: Tracker = Tracker::new();
    // Warm-up: first merge pays the slab / index / scratch capacity.
    branch.merge_reusing(&oplog, &mut tracker);

    // Steady state: concurrent batches of the same magnitude, merged
    // through the reused tracker. Allocation cost must not grow over the
    // sequence (no leak of capacity, no per-merge reconstruction).
    const BOUND: usize = 500;
    for round in 0..6 {
        let events = append_concurrent(&mut oplog, &agents, &mut rng, 300);
        let before = alloc_calls();
        branch.merge_reusing(&oplog, &mut tracker);
        let allocs = alloc_calls() - before;
        eprintln!("round {round}: {allocs} allocs for {events} events");
        assert!(
            allocs < BOUND,
            "round {round}: merge through a reused tracker allocated {allocs} \
             times (bound {BOUND}) — clear() is not retaining capacity"
        );
    }
    assert_eq!(
        branch.content.to_string(),
        oplog.checkout_tip().content.to_string()
    );
}

/// A keystroke costs the keystroke: in a two-writer document with no
/// critical version, a one-character remote insert resumes the tracker the
/// previous merge left live and walks that one event. Its allocator calls
/// are the merge's fixed overhead — the version union, two diffs, the
/// ancestry checks of the resume conditions — and nothing that grows with
/// the 20 k-event conflict window a replay would walk.
#[test]
fn resumed_keystroke_merge_is_bounded() {
    let mut oplog = OpLog::new();
    let agents: Vec<u32> = (0..2)
        .map(|i| oplog.get_or_create_agent(&format!("writer{i}")))
        .collect();
    let mut rng = SmallRng::new(0x6e75);
    let events = append_concurrent(&mut oplog, &agents, &mut rng, 10_000);
    assert!(events >= 20_000);
    assert!(oplog.graph.criticals_runs().is_empty());

    let mut branch = Branch::new();
    let mut tracker: Tracker = Tracker::new();
    branch.merge_reusing(&oplog, &mut tracker);
    // One writer keeps typing on its own line; each character is merged as
    // it arrives. The first few warm the plan and frontier buffers.
    let mut tip = oplog.version().as_slice()[1];
    let writer = oplog.agents.lv_to_agent_span(tip).agent;
    let mut keystroke = |oplog: &mut OpLog, branch: &mut Branch, tracker: &mut Tracker| {
        tip = oplog.add_insert_at(writer, &[tip], 0, "k").last();
        let before = alloc_calls();
        let resumed = branch.merge_reusing(oplog, tracker);
        (resumed, alloc_calls() - before)
    };
    for _ in 0..4 {
        assert!(keystroke(&mut oplog, &mut branch, &mut tracker).0);
    }

    // Twice what it makes today (8).
    const BOUND: usize = 16;
    let (resumed, allocs) = keystroke(&mut oplog, &mut branch, &mut tracker);
    eprintln!("resumed keystroke merge: {allocs} allocs");
    assert!(resumed, "the keystroke merge replayed the conflict window");
    assert!(
        allocs < BOUND,
        "a resumed one-character merge allocated {allocs} times (bound {BOUND})"
    );
    assert_eq!(branch, oplog.checkout_tip());
}

#[test]
fn transform_and_apply_allocates_sublinearly() {
    let mut oplog = OpLog::new();
    let agent = oplog.get_or_create_agent("solo");
    let mut rng = SmallRng::new(0xfeed);
    append_sequential(&mut oplog, agent, &mut rng, 2000);

    // Warm state: branch caught up, rope chunks built.
    let mut branch = Branch::new();
    branch.merge(&oplog);

    // Steady state: merge a fresh batch of sequential events into the live
    // branch and count every allocation on the transform+apply path.
    let events = append_sequential(&mut oplog, agent, &mut rng, 4000);
    let before = alloc_calls();
    branch.merge(&oplog);
    let allocs = alloc_calls() - before;

    // Per-op allocation (the pre-arena pipeline: a String per emitted
    // insert plus chunk copies) would cost >= `events` calls. The only
    // allocations left are amortised: rope chunk splits/growth (every
    // ~64 chars) and the per-merge fixed overhead.
    eprintln!("transform+apply allocs: {allocs} for {events} events");
    assert!(
        allocs < events / 4,
        "merge of {events} events allocated {allocs} times — per-op allocation regressed"
    );
    assert_eq!(
        branch.content.to_string(),
        oplog.checkout_tip().content.to_string()
    );
}

/// The counters every test here reads are the measuring thread's own: a
/// second thread allocating as fast as it can all the while — what the
/// other tests of this binary are to each of them under `cargo test`'s
/// default parallelism — leaves the count exact, while the process-wide
/// counter is billed for both.
/// An autosave costs buffer growth, not runs: the store writes the new
/// events' frame straight from the oplog's run lists, into one buffer, so
/// the allocator calls of an append do not count what it appends. (Built
/// from an owned bundle, as it was, every run cost more than three.)
#[test]
fn append_new_allocates_per_call_not_per_run() {
    let path = std::env::temp_dir().join(format!(
        "eg-bench-zero-alloc-{}-append.seg",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (mut store, _) = eg_storage::DocStore::open(&path).expect("create segment store");

    let mut oplog = OpLog::new();
    let agents: Vec<u32> = (0..3)
        .map(|i| oplog.get_or_create_agent(&format!("peer{i}")))
        .collect();
    let mut rng = SmallRng::new(0xa99e);
    append_sequential(&mut oplog, agents[0], &mut rng, 400);
    store.append_new(&oplog).expect("append the base");

    let events = append_concurrent(&mut oplog, &agents, &mut rng, 15_000);
    let runs = oplog
        .bundle_since_local(store.persisted_version())
        .runs
        .len();
    assert!(runs >= 10_000, "only {runs} runs in {events} events");

    const BOUND: usize = 64;
    let before = alloc_calls();
    let appended = store.append_new(&oplog);
    let allocs = alloc_calls() - before;
    drop(store);
    let _ = std::fs::remove_file(&path);
    assert_eq!(appended.expect("append the suffix"), events);
    eprintln!("{allocs} allocs for {runs} runs ({events} events)");
    assert!(
        allocs < BOUND,
        "appending {runs} runs allocated {allocs} times (bound {BOUND})"
    );
}

#[test]
fn counts_are_per_thread() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const MEASURED: usize = 100;
    const NOISE_BATCH: usize = 1000;
    let batches = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                for i in 0..NOISE_BATCH {
                    std::hint::black_box(Box::new(i));
                }
                batches.fetch_add(1, Ordering::SeqCst);
            }
        });
        // No sleeps: the measured window opens once the noise is running
        // and closes only after two more batch ends, so at least one whole
        // batch falls inside it.
        let wait_for = |n: usize| {
            while batches.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        };
        wait_for(1);
        let opened_at = batches.load(Ordering::SeqCst);
        let (mine, everyone) = (alloc_calls(), global_alloc_calls());
        for i in 0..MEASURED {
            std::hint::black_box(Box::new(i));
        }
        wait_for(opened_at + 2);
        let (mine, everyone) = (alloc_calls() - mine, global_alloc_calls() - everyone);
        stop.store(true, Ordering::SeqCst);
        assert_eq!(
            mine, MEASURED,
            "the measuring thread was billed for the noise"
        );
        assert!(
            everyone >= MEASURED + NOISE_BATCH,
            "the process-wide counter saw {everyone} calls, less than one noise batch"
        );
    });
}

/// Transient heap of a whole-history checkout — peak above what the
/// returned `Branch` retains, i.e. tracker + walk plan — on a history of
/// `windows` windows with a critical version planted mid-run in most.
fn checkout_transient_bytes(windows: usize) -> usize {
    let (oplog, len) = mid_run_criticals_oplog(0xc1ea4, windows);
    let (branch, peak, retained) = measure_thread(|| oplog.checkout_tip());
    assert_eq!(branch.len_chars(), len);
    peak - retained
}

/// §3.5, black-box: the walker drops its state at every critical version,
/// so a checkout's transient memory follows the largest stretch between two
/// critical versions and not the length of the history. (Testing for a
/// critical version only where a graph run ends, the walker missed the
/// mid-run ones: the tracker and the plan then grew with the window count.)
#[test]
fn checkout_transient_memory_follows_the_segment_not_the_history() {
    let short = checkout_transient_bytes(20);
    let long = checkout_transient_bytes(4000);
    eprintln!("checkout transient bytes: {short} (20 windows), {long} (4000 windows)");
    assert!(
        long < 2 * short + 16 * 1024,
        "200x the history took {long} transient bytes against {short}: \
         clearing at critical versions is not bounding the walker's state"
    );
}

/// Clearing is allocation-free too: a warm tracker walks thousands of
/// segments — a clear, a re-based index pair, a fresh placeholder and a
/// fresh plan for each — without one allocator call.
#[test]
fn clearing_at_every_critical_version_is_allocation_free() {
    let (oplog, _) = mid_run_criticals_oplog(3, 4000);
    let all = [eg_rle::DTRange::from(0..oplog.len())];
    let mut tracker: Tracker = Tracker::new();
    let walk = |tracker: &mut Tracker| {
        let before = alloc_calls();
        walker::walk_reusing(
            &oplog,
            &Frontier::root(),
            &all,
            &all,
            WalkerOpts::default(),
            tracker,
            &mut |_, _| {},
        );
        alloc_calls() - before
    };
    let cold = walk(&mut tracker);
    let warm = walk(&mut tracker);
    let segments = oplog.graph.criticals_runs().len();
    eprintln!("{segments} segments: {cold} allocs cold, {warm} warm");
    assert!(
        segments > 2000,
        "the history should clear thousands of times"
    );
    assert_eq!(
        warm, 0,
        "a warm walk allocated {warm} times over {segments} segments"
    );
}

/// The tracker's LV-keyed indexes count from the first LV of the segment
/// being replayed, not from LV 0 and not from the start of the window: a
/// long sequential prefix (fast-forwarded, never tracked) in front of a
/// small concurrent tail must not size them.
#[test]
fn sequential_prefix_does_not_size_the_tracker_indexes() {
    const PREFIX: usize = 50_000;
    let mut oplog = OpLog::new();
    let agents: Vec<u32> = (0..3)
        .map(|i| oplog.get_or_create_agent(&format!("tail{i}")))
        .collect();
    let mut rng = SmallRng::new(0x1dea);
    append_sequential(&mut oplog, agents[0], &mut rng, PREFIX);
    append_concurrent(&mut oplog, &agents, &mut rng, 100);

    let (branch, peak, retained) = measure_thread(|| oplog.checkout_tip());
    std::hint::black_box(branch);
    let transient = peak - retained;
    eprintln!("transient bytes behind a {PREFIX}-event prefix: {transient}");
    // Twelve index bytes per prefix event would be 600 kB.
    assert!(
        transient < PREFIX,
        "a 300-event concurrent tail took {transient} transient bytes"
    );
}
