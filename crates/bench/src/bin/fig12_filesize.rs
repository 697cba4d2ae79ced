//! Regenerates the paper's Fig. 12: file sizes with deleted text omitted.
//!
//! Compares the event-graph encoding without deleted content against a
//! Yjs-like CRDT state file, with the final document as the lower bound.

use eg_bench::harness::{build_traces, fmt_bytes, json_num, json_str, parse_args, row, write_json};
use eg_encoding::{encode, encode_crdt_state, EncodeOpts};

fn main() {
    let args = parse_args();
    eprintln!("building traces at scale {} …", args.scale);
    let traces = build_traces(args.scale);
    let widths = [4, 18, 14, 15];
    println!(
        "Fig. 12 — file sizes, deleted text omitted (scale {:.3})",
        args.scale
    );
    println!(
        "{}",
        row(
            &["", "eg (no deleted)", "yjs-like", "final doc (min)"].map(String::from),
            &widths
        )
    );
    let mut json_rows = Vec::new();
    for (spec, oplog) in &traces {
        let slim = encode(
            oplog,
            EncodeOpts {
                keep_deleted_content: false,
                ..Default::default()
            },
        );
        let yjs_like = encode_crdt_state(oplog);
        let final_doc = oplog.checkout_tip().content.len_bytes();
        println!(
            "{}",
            row(
                &[
                    spec.name.clone(),
                    fmt_bytes(slim.len()),
                    fmt_bytes(yjs_like.len()),
                    fmt_bytes(final_doc),
                ],
                &widths
            )
        );
        json_rows.push(vec![
            ("name", json_str(&spec.name)),
            ("events", json_num(oplog.len() as f64)),
            ("eg_no_deleted_bytes", json_num(slim.len() as f64)),
            ("yjs_like_bytes", json_num(yjs_like.len() as f64)),
            ("final_doc_bytes", json_num(final_doc as f64)),
        ]);
    }
    if let Some(path) = &args.json {
        write_json(path, "fig12_filesize", args.scale, &json_rows);
    }
}
