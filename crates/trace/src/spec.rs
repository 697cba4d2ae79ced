//! The seven benchmark trace specifications (paper Table 1).

use serde::{Deserialize, Serialize};

/// The editing pattern a trace exhibits (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// No concurrency: one author, or authors taking turns.
    Sequential,
    /// Real-time collaboration with network latency: many short-lived
    /// branches.
    Concurrent,
    /// Offline/git-style editing: few long-running branches.
    Asynchronous,
}

/// Parameters of one synthetic trace, with the paper-reported target
/// statistics it is tuned to reproduce.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Trace name (S1…A2).
    pub name: String,
    /// Editing pattern.
    pub kind: TraceKind,
    /// Deterministic seed.
    pub seed: u64,
    /// Total single-character events to generate.
    pub target_events: usize,
    /// Number of distinct authors.
    pub authors: usize,
    /// Fraction of inserted characters that should survive (Table 1
    /// "chars remaining").
    pub keep_ratio: f64,
    /// Events per editing turn (min, max).
    pub turn_len: (usize, usize),
    /// For concurrent/async kinds: number of simultaneously live branches
    /// to aim for (drives Table 1 "avg concurrency").
    pub live_branches: usize,
    /// Paper-reported statistics for this trace, for EXPERIMENTS.md
    /// comparisons: (events_k, avg_concurrency, graph_runs, authors,
    /// chars_remaining_pct, final_size_kb).
    pub paper_stats: (f64, f64, f64, f64, f64, f64),
}

/// The seven benchmark traces, scaled by `scale` (1.0 reproduces the
/// paper's ~0.5M-insert normalised sizes; the default benchmark scale is
/// smaller so the whole suite runs quickly on a laptop).
pub fn builtin_specs(scale: f64) -> Vec<TraceSpec> {
    let ev = |n: f64| ((n * 1000.0 * scale) as usize).max(1000);
    // Sequential/async turn lengths scale with the trace so run counts keep
    // the paper's shape; concurrent bursts are latency-bound and fixed.
    let turn = |lo: usize, hi: usize| {
        (
            ((lo as f64 * scale) as usize).max(20),
            ((hi as f64 * scale) as usize).max(100),
        )
    };
    vec![
        TraceSpec {
            name: "S1".into(),
            kind: TraceKind::Sequential,
            seed: 0x51,
            target_events: ev(779.0),
            authors: 2,
            keep_ratio: 0.575,
            turn_len: turn(400, 4000),
            live_branches: 1,
            paper_stats: (779.0, 0.00, 1.0, 2.0, 57.5, 307.2),
        },
        TraceSpec {
            name: "S2".into(),
            kind: TraceKind::Sequential,
            seed: 0x52,
            target_events: ev(1105.0),
            authors: 1,
            keep_ratio: 0.267,
            turn_len: turn(400, 4000),
            live_branches: 1,
            paper_stats: (1105.0, 0.00, 1.0, 1.0, 26.7, 166.3),
        },
        TraceSpec {
            name: "S3".into(),
            kind: TraceKind::Sequential,
            seed: 0x53,
            target_events: ev(2339.0),
            authors: 2,
            keep_ratio: 0.099,
            turn_len: turn(400, 4000),
            live_branches: 1,
            paper_stats: (2339.0, 0.00, 1.0, 2.0, 9.9, 119.5),
        },
        TraceSpec {
            name: "C1".into(),
            kind: TraceKind::Concurrent,
            seed: 0xC1,
            target_events: ev(652.0),
            authors: 2,
            keep_ratio: 0.901,
            turn_len: (2, 12),
            live_branches: 2,
            paper_stats: (652.0, 0.43, 92101.0, 2.0, 90.1, 521.5),
        },
        TraceSpec {
            name: "C2".into(),
            kind: TraceKind::Concurrent,
            seed: 0xC2,
            target_events: ev(608.0),
            authors: 2,
            keep_ratio: 0.93,
            turn_len: (1, 8),
            live_branches: 2,
            paper_stats: (608.0, 0.44, 133626.0, 2.0, 93.0, 516.3),
        },
        TraceSpec {
            name: "A1".into(),
            kind: TraceKind::Asynchronous,
            seed: 0xA1,
            target_events: ev(947.0),
            authors: 194,
            keep_ratio: 0.078,
            turn_len: turn(2000, 16000),
            live_branches: 2,
            paper_stats: (947.0, 0.10, 101.0, 194.0, 7.8, 37.2),
        },
        TraceSpec {
            name: "A2".into(),
            kind: TraceKind::Asynchronous,
            seed: 0xA2,
            target_events: ev(698.0),
            authors: 299,
            keep_ratio: 0.496,
            turn_len: turn(150, 1200),
            live_branches: 7,
            paper_stats: (698.0, 6.11, 2430.0, 299.0, 49.6, 222.0),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_specs() {
        let specs = builtin_specs(1.0);
        assert_eq!(specs.len(), 7);
        assert_eq!(specs[0].target_events, 779_000);
    }

    #[test]
    fn scale_shrinks() {
        let specs = builtin_specs(0.1);
        assert_eq!(specs[0].target_events, 77_900);
    }
}
