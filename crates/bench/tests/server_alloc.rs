//! Tier-1 proof that the PR-6 zero-allocation steady state survives the
//! move onto worker threads (ISSUE 7 acceptance criterion).
//!
//! The whole test binary runs under the counting [`TrackingAlloc`], and
//! the test opts in to its process-wide counter
//! ([`global_alloc_calls`]): the work measured here happens *on the worker
//! threads*, which the per-thread default would not see. That is sound
//! only because this binary holds a single test. After a warm-up round (channel buffers, slab
//! arenas, session-name cache, rope chunks), each further round of the
//! same fleet script through the same host must stay within a small
//! per-op allocation budget, and the budget must not grow from round to
//! round: batch vectors recycle, trackers are reused per document, and
//! the edit path formats no strings.
//!
//! The per-op budget is NOT zero: every fleet edit is its own merge, and
//! a merge through a reused tracker has a small fixed overhead (tip
//! clone, version union — the same overhead the PR-6 `zero_alloc` test
//! bounds at 500 calls per *merge*). The bound here is far tighter than
//! that per-merge bound because steady-state sequential merges skip the
//! conflict machinery; what this test guards is the *pool* adding per-op
//! allocations (un-recycled batches, per-op boxing, name formatting).

use eg_bench::alloc_track::{global_alloc_calls, TrackingAlloc};
use eg_server::{ServerConfig, ServerHost};
use eg_trace::{fleet_workload, FleetOp, FleetSpec};
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn fleet_script() -> Arc<[FleetOp]> {
    fleet_workload(&FleetSpec {
        docs: 64,
        sessions: 32,
        edits: 4000,
        ..FleetSpec::default()
    })
    .into()
}

fn steady_state_allocs_per_op(workers: usize) -> Vec<f64> {
    let script = fleet_script();
    let host = ServerHost::with_config(ServerConfig {
        workers,
        ..ServerConfig::default()
    });
    // Warm-up: pays slab growth, channel buffers, session names, rope
    // chunks, histogram tables.
    let warm = host.run_script(&script);
    assert!(warm.edits() > 0);

    let mut per_round = Vec::new();
    for _ in 0..4 {
        let before = global_alloc_calls();
        let report = host.run_script(&script);
        let allocs = global_alloc_calls() - before;
        per_round.push(allocs as f64 / report.edits() as f64);
    }
    per_round
}

#[test]
fn worker_pool_steady_state_allocs_per_op_stay_bounded() {
    for workers in [1, 4] {
        let rounds = steady_state_allocs_per_op(workers);
        eprintln!("workers={workers}: allocs/op per round = {rounds:?}");
        for (i, &per_op) in rounds.iter().enumerate() {
            assert!(
                per_op < 16.0,
                "workers={workers} round {i}: {per_op:.1} allocs/op — \
                 the pool lost the zero-alloc steady state"
            );
        }
        // Flatness: the last round must not allocate meaningfully more
        // than the first (a growth trend means something is not being
        // recycled / reused).
        let (first, last) = (rounds[0], rounds[rounds.len() - 1]);
        assert!(
            last <= first * 1.5 + 1.0,
            "workers={workers}: allocs/op grew across rounds ({first:.1} -> {last:.1})"
        );
    }
}
