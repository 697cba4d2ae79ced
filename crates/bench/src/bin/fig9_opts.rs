//! Regenerates the paper's Fig. 9: Eg-walker merge time with and without
//! the §3.5 optimisations (internal-state clearing + fast-forward).

use eg_bench::harness::{
    build_traces, fmt_time, json_num, json_str, parse_args, row, time_mean, write_json,
};
use egwalker::{Branch, Tracker, WalkerOpts};

fn main() {
    let args = parse_args();
    eprintln!("building traces at scale {} …", args.scale);
    let traces = build_traces(args.scale);
    let widths = [4, 16, 16, 8];
    println!(
        "Fig. 9 — the effect of state clearing (scale {:.3})",
        args.scale
    );
    println!(
        "{}",
        row(
            &["", "opt enabled", "opt disabled", "ratio"].map(String::from),
            &widths
        )
    );
    let mut json_rows = Vec::new();
    for (spec, oplog) in &traces {
        let on = time_mean(args.iters, || {
            let mut b = Branch::new();
            b.merge_to(
                oplog,
                oplog.version(),
                WalkerOpts {
                    enable_clearing: true,
                    ..Default::default()
                },
                &mut Tracker::new(),
            );
            std::hint::black_box(b.len_chars());
        });
        let off = time_mean(args.iters, || {
            let mut b = Branch::new();
            b.merge_to(
                oplog,
                oplog.version(),
                WalkerOpts {
                    enable_clearing: false,
                    ..Default::default()
                },
                &mut Tracker::new(),
            );
            std::hint::black_box(b.len_chars());
        });
        println!(
            "{}",
            row(
                &[
                    spec.name.clone(),
                    fmt_time(on),
                    fmt_time(off),
                    format!("{:.1}x", off / on),
                ],
                &widths
            )
        );
        json_rows.push(vec![
            ("name", json_str(&spec.name)),
            ("events", json_num(oplog.len() as f64)),
            ("opt_enabled_s", json_num(on)),
            ("opt_disabled_s", json_num(off)),
        ]);
    }
    if let Some(path) = &args.json {
        write_json(path, "fig9_opts", args.scale, &json_rows);
    }
}
