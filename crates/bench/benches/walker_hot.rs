//! Walker hot-path microbenchmarks: the cursor-cache ablation on the
//! concurrent traces (C1/C2) whose merge time is dominated by tracker
//! work, plus a scan-heavy sweep on the asynchronous traces (A1/A2) whose
//! long-running branches drive the `integrate` scan and its `raw_pos_of`
//! memo.
//!
//! The shipped `WalkerOpts::cursor_cache` default was chosen from this
//! bench; re-run it after changing the tracker's data layout:
//!
//! ```text
//! EG_SCALE=0.02 cargo bench -p eg-bench --bench walker_hot
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eg_trace::{generate, spec_by_name};
use egwalker::walker::{transformed_ops, WalkerOpts};
use egwalker::OpLog;

fn scale() -> f64 {
    std::env::var("EG_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02)
}

fn traces(names: &[&str]) -> Vec<(String, OpLog)> {
    names
        .iter()
        .map(|name| {
            let spec = spec_by_name(name, scale()).expect("builtin trace");
            (spec.name.clone(), generate(&spec))
        })
        .collect()
}

fn concurrent_traces() -> Vec<(String, OpLog)> {
    traces(&["C1", "C2"])
}

fn bench_cursor_cache(c: &mut Criterion) {
    let traces = concurrent_traces();
    let mut group = c.benchmark_group("walker_hot/cursor_cache");
    group.sample_size(10);
    for (name, oplog) in &traces {
        for cache in [true, false] {
            let opts = WalkerOpts {
                cursor_cache: cache,
                ..Default::default()
            };
            let label = if cache { "on" } else { "off" };
            group.bench_with_input(BenchmarkId::new(name, label), oplog, |b, o| {
                b.iter(|| {
                    let (_, ops) = transformed_ops(o, &[], o.version(), opts);
                    ops.len()
                })
            });
        }
    }
    group.finish();
}

/// Scan-heavy workload: full merges of the asynchronous traces, whose
/// long offline branches make `integrate` walk long runs of concurrent
/// records (each step asking for origin raw positions). Sweeps the
/// emit-position cache on/off alongside, since A-series merges mix the
/// scan path with long sequential emit runs.
fn bench_scan_heavy(c: &mut Criterion) {
    let traces = traces(&["A1", "A2"]);
    let mut group = c.benchmark_group("walker_hot/scan_heavy");
    group.sample_size(10);
    for (name, oplog) in &traces {
        for emit_cache in [true, false] {
            let opts = WalkerOpts {
                emit_cache,
                ..Default::default()
            };
            let label = if emit_cache {
                "emit_cache_on"
            } else {
                "emit_cache_off"
            };
            group.bench_with_input(BenchmarkId::new(name, label), oplog, |b, o| {
                b.iter(|| {
                    let (_, ops) = transformed_ops(o, &[], o.version(), opts);
                    ops.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(walker_hot, bench_cursor_cache, bench_scan_heavy);
criterion_main!(walker_hot);
