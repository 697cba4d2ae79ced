//! Criterion bench for the sync engine at scale: the same multi-document
//! workload driven through a full mesh and a star relay, at two mark
//! cadences each.
//!
//! The interesting outputs are wall-clock (engine overhead per topology)
//! and, printed once per configuration, the bytes-on-wire split — the
//! quantity the ROADMAP's scale-out item is about.

use criterion::{criterion_group, criterion_main, Criterion};
use eg_sync::NetworkSim;
use eg_trace::workload::{apply_sync_workload, sync_workload, SyncWorkloadSpec};

fn scale() -> f64 {
    std::env::var("EG_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02)
}

fn run(nodes: usize, star: bool, mark_every: u64, ops: &[eg_trace::SyncOp]) -> NetworkSim {
    let names: Vec<String> = (0..nodes).map(|i| format!("n{i:03}")).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let b = NetworkSim::builder(&refs, 0xBE7C);
    let b = if star { b.star() } else { b.mesh() };
    let mut net = b.mark_every(mark_every).build();
    apply_sync_workload(&mut net, ops);
    assert!(net.run_until_quiescent(1_000_000));
    net
}

fn sync_benches(c: &mut Criterion) {
    // EG_SCALE=1.0 ≈ 3200 bursts over 64 nodes; the 0.02 default keeps the
    // suite laptop-quick.
    let bursts = ((3200.0 * scale()) as usize).max(120);
    let nodes = 64;
    let ops = sync_workload(&SyncWorkloadSpec {
        nodes,
        docs: 8,
        bursts,
        burst_len: (2, 10),
        gap_ticks: (0, 2),
        seed: 0x5CA1E,
    });

    let mut group = c.benchmark_group("sync_scale");
    for (name, star, marks) in [
        ("mesh_mark2", false, 2u64),
        ("mesh_mark8", false, 8),
        ("star_mark2", true, 2),
        ("star_mark8", true, 8),
    ] {
        let net = run(nodes, star, marks, &ops);
        let s = net.stats();
        eprintln!(
            "  {name}: {} frames, {} bytes on wire ({} digest + {} bundle), {} resets",
            s.sent, s.bytes, s.digest_bytes, s.bundle_bytes, s.resets
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let net = run(nodes, star, marks, &ops);
                std::hint::black_box(net.stats().bytes)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, sync_benches);
criterion_main!(benches);
