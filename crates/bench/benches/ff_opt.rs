//! Criterion bench behind Fig. 9: the §3.5 clearing/fast-forward
//! optimisation, on and off.

use criterion::{criterion_group, criterion_main, Criterion};
use eg_trace::{builtin_specs, generate};
use egwalker::{Branch, Tracker, WalkerOpts};

fn ff_benches(c: &mut Criterion) {
    let scale = std::env::var("EG_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    for spec in builtin_specs(scale) {
        let oplog = generate(&spec);
        let mut group = c.benchmark_group(format!("ff_opt/{}", spec.name));
        group.sample_size(10);
        for (label, enable) in [("enabled", true), ("disabled", false)] {
            group.bench_function(label, |b| {
                b.iter(|| {
                    let mut branch = Branch::new();
                    branch.merge_to(
                        &oplog,
                        oplog.version(),
                        WalkerOpts {
                            enable_clearing: enable,
                            ..Default::default()
                        },
                        &mut Tracker::new(),
                    );
                    std::hint::black_box(branch.len_chars())
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, ff_benches);
criterion_main!(benches);
