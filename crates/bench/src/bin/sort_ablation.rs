//! Traversal-order ablation (paper §4.3): "When merging an event graph
//! with very high concurrency (like A2), the performance of Eg-walker is
//! highly dependent on the order in which events are traversed. A poorly
//! chosen traversal order can make this trace as much as 8× slower to
//! merge."
//!
//! Merges every trace under the three [`PlanOrder`] policies: the paper's
//! smallest-branch-first heuristic, the pathological largest-first order,
//! and plain arrival order. Sequential traces are order-insensitive (one
//! branch); the concurrent and asynchronous traces show the gap.

use eg_bench::harness::{build_traces, fmt_time, parse_args, row, time_mean};
use eg_dag::walk::PlanOrder;
use egwalker::{Branch, Tracker, WalkerOpts};

fn main() {
    let args = parse_args();
    eprintln!("building traces at scale {} …", args.scale);
    let traces = build_traces(args.scale);
    let widths = [4, 14, 14, 14, 9];
    println!(
        "Traversal-order ablation (scale {:.3}) — §4.3's 'up to 8× slower'",
        args.scale
    );
    println!(
        "{}",
        row(
            &[
                "",
                "smallest-first",
                "largest-first",
                "arrival",
                "worst/best"
            ]
            .map(String::from),
            &widths
        )
    );
    for (spec, oplog) in &traces {
        let run = |order: PlanOrder| {
            time_mean(args.iters, || {
                let mut b = Branch::new();
                b.merge_to(
                    oplog,
                    oplog.version(),
                    WalkerOpts {
                        enable_clearing: true,
                        plan_order: order,
                        ..Default::default()
                    },
                    &mut Tracker::new(),
                );
                std::hint::black_box(b.len_chars());
            })
        };
        let smallest = run(PlanOrder::SmallestFirst);
        let largest = run(PlanOrder::LargestFirst);
        let arrival = run(PlanOrder::Arrival);
        let worst = largest.max(arrival).max(smallest);
        let best = largest.min(arrival).min(smallest);
        println!(
            "{}",
            row(
                &[
                    spec.name.clone(),
                    fmt_time(smallest),
                    fmt_time(largest),
                    fmt_time(arrival),
                    format!("{:.1}x", worst / best),
                ],
                &widths
            )
        );
    }
}
