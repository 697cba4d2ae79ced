//! Shared benchmark infrastructure: trace construction, CLI parsing, and
//! paper-style table output.

use eg_trace::{builtin_specs, generate, TraceSpec};
use egwalker::OpLog;
use serde::Value;
use std::time::Instant;

/// Default fraction of the paper's trace sizes used by the quick-run
/// binaries (the paper's traces hold ~0.5–1M events each; scaling keeps
/// laptop runtimes in seconds while preserving every shape).
const DEFAULT_SCALE: f64 = 0.02;

/// Command-line options shared by the benchmark binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Trace scale relative to the paper (1.0 = paper size).
    pub scale: f64,
    /// Iterations for timing loops.
    pub iters: usize,
    /// Where to additionally write results as JSON (bench-trajectory
    /// capture; see `scripts/bench_trajectory.sh`).
    pub json: Option<String>,
}

/// Parses `--scale <f>`, `--full`, `--iters <n>` and `--json <path>` from
/// `std::env::args`.
pub fn parse_args() -> BenchArgs {
    let mut args = BenchArgs {
        scale: std::env::var("EG_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SCALE),
        iters: 3,
        json: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                args.scale = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
                i += 1;
            }
            "--full" => args.scale = 1.0,
            "--iters" => {
                args.iters = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a number");
                i += 1;
            }
            "--json" => {
                args.json = Some(
                    argv.get(i + 1)
                        .cloned()
                        .expect("--json needs an output path"),
                );
                i += 1;
            }
            other => panic!(
                "unknown argument {other}; supported: --scale <f> --full --iters <n> --json <path>"
            ),
        }
        i += 1;
    }
    args
}

/// One bench-output row: ordered `(key, value)` pairs in the workspace's
/// JSON [`Value`] model.
pub(crate) type JsonRow = Vec<(&'static str, Value)>;

/// Builds a string [`Value`].
pub fn json_str(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Builds a numeric [`Value`] (non-finite numbers become `null`).
pub fn json_num(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// Writes one bench result file for trajectory capture:
/// `{"bench": ..., "scale": ..., "rows": [{...}, ...]}`.
pub fn write_json(path: &str, bench: &str, scale: f64, rows: &[JsonRow]) {
    let top = vec![
        ("bench".to_string(), json_str(bench)),
        ("scale".to_string(), json_num(scale)),
        (
            "rows".to_string(),
            Value::Arr(
                rows.iter()
                    .map(|row| {
                        Value::Obj(
                            row.iter()
                                .map(|(k, v)| (k.to_string(), v.clone()))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ];
    let doc = Value::Obj(top);
    let mut out = serde_json::to_string(&doc).expect("serialise bench JSON");
    out.push('\n');
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create bench-results dir");
    }
    std::fs::write(path, out).expect("write bench JSON");
    eprintln!("wrote {path}");
}

/// Builds all seven traces at the given scale, reporting progress.
pub fn build_traces(scale: f64) -> Vec<(TraceSpec, OpLog)> {
    builtin_specs(scale)
        .into_iter()
        .map(|spec| {
            let t0 = Instant::now();
            let oplog = generate(&spec);
            eprintln!(
                "  built {} ({} events) in {:.1?}",
                spec.name,
                oplog.len(),
                t0.elapsed()
            );
            (spec, oplog)
        })
        .collect()
}

/// Times `f` over `iters` runs, returning the trimmed mean seconds.
///
/// With `iters >= 2`, one untimed warm-up run precedes measurement
/// (caches, branch predictors, lazy allocations), each iteration is
/// timed individually, and the top/bottom ~10% of samples are dropped
/// before averaging once there are at least five, so a committed
/// capture is stable against one-sided scheduler stalls.
/// `iters == 1` stays a single cold run: callers use it for routines
/// too expensive to repeat (e.g. quadratic OT merges).
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> f64 {
    let iters = iters.max(1);
    if iters == 1 {
        let t0 = Instant::now();
        f();
        return t0.elapsed().as_secs_f64();
    }
    f(); // warm-up, untimed
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let trim = if samples.len() >= 5 {
        (samples.len() / 10).max(1)
    } else {
        0
    };
    let kept = &samples[trim..samples.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Formats seconds like the paper's figures (ms / sec / min).
pub fn fmt_time(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{:.2} sec", secs)
    } else {
        format!("{:.1} min", secs / 60.0)
    }
}

/// Formats bytes like the paper's figures (KiB / MiB / GiB).
pub fn fmt_bytes(bytes: usize) -> String {
    let b = bytes as f64;
    if b < 1024.0 * 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}
