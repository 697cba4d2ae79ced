//! Regenerates the paper's Fig. 11: full-history file sizes.
//!
//! Compares the event-graph encoding (with and without a cached copy of
//! the final document) against a naive one-record-per-event history file
//! (the stand-in for heavier full-history formats), with the concatenated
//! inserted text as the lower bound.

use eg_bench::harness::{build_traces, fmt_bytes, json_num, json_str, parse_args, row, write_json};
use eg_encoding::{encode, encode_verbose, EncodeOpts};
use eg_rle::HasLength;
use egwalker::ListOpKind;

fn main() {
    let args = parse_args();
    eprintln!("building traces at scale {} …", args.scale);
    let traces = build_traces(args.scale);
    let widths = [4, 13, 16, 13, 15];
    println!(
        "Fig. 11 — full-history file sizes (scale {:.3})",
        args.scale
    );
    println!(
        "{}",
        row(
            &[
                "",
                "eg-walker",
                "eg + cached doc",
                "verbose",
                "raw text (min)"
            ]
            .map(String::from),
            &widths
        )
    );
    let mut json_rows = Vec::new();
    for (spec, oplog) in &traces {
        let plain = encode(oplog, EncodeOpts::default());
        let cached = encode(
            oplog,
            EncodeOpts {
                cache_final_doc: true,
                ..Default::default()
            },
        );
        let verbose = encode_verbose(oplog);
        let mut raw_text = 0usize;
        for (lvs, run) in oplog.ops_in((0..oplog.len()).into()) {
            if run.kind == ListOpKind::Ins {
                raw_text += lvs.len();
            }
        }
        println!(
            "{}",
            row(
                &[
                    spec.name.clone(),
                    fmt_bytes(plain.len()),
                    fmt_bytes(cached.len()),
                    fmt_bytes(verbose.len()),
                    fmt_bytes(raw_text),
                ],
                &widths
            )
        );
        json_rows.push(vec![
            ("name", json_str(&spec.name)),
            ("events", json_num(oplog.len() as f64)),
            ("eg_bytes", json_num(plain.len() as f64)),
            ("eg_cached_doc_bytes", json_num(cached.len() as f64)),
            ("verbose_bytes", json_num(verbose.len() as f64)),
            ("raw_text_chars", json_num(raw_text as f64)),
        ]);
    }
    if let Some(path) = &args.json {
        write_json(path, "fig11_filesize", args.scale, &json_rows);
    }
}
