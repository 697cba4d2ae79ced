//! Tier-1 guard on the trace generators: the deterministic Table 1
//! columns at the committed capture's scale must equal
//! `bench-results/table1.json`. Every column here is a pure function of
//! the generator and the scale, so any drift, on any machine, is a
//! generator change that must ship with a refreshed capture
//! (`cargo run --release -p eg-bench --bin table1 -- --json
//! bench-results/table1.json`).

use eg_bench::harness::build_traces;
use eg_trace::trace_stats;
use serde::Value;

const CAPTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../bench-results/table1.json"
);

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(x)) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn trace_statistics_match_the_committed_capture() {
    let text = std::fs::read_to_string(CAPTURE).expect("read table1.json");
    let capture: Value = serde_json::from_str(&text).expect("parse table1.json");
    let scale = num(capture.get_field("scale"));
    let Some(Value::Arr(rows)) = capture.get_field("rows") else {
        panic!("table1.json has no rows");
    };

    let traces = build_traces(scale);
    assert_eq!(traces.len(), rows.len(), "trace count");
    for ((spec, oplog), row) in traces.iter().zip(rows) {
        assert_eq!(
            row.get_field("name"),
            Some(&Value::Str(spec.name.clone())),
            "trace order"
        );
        let s = trace_stats(oplog, None);
        let fresh = [
            ("events", s.events as f64),
            ("graph_runs", s.graph_runs as f64),
            ("authors", s.authors as f64),
            ("avg_concurrency", s.avg_concurrency),
            ("chars_remaining_pct", s.chars_remaining_pct),
            ("final_size_bytes", s.final_size_bytes as f64),
        ];
        for (column, value) in fresh {
            let committed = num(row.get_field(column));
            assert!(
                (value - committed).abs() <= 1e-9 * committed.abs().max(1.0),
                "{} {column}: generated {value}, committed {committed}",
                spec.name
            );
        }
    }
}
