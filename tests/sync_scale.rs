//! Scale-out acceptance: a 100-replica, 8-document sharded simulation
//! must converge within a fixed tick budget, and the star topology must
//! put strictly fewer bytes and frames on the wire than the full mesh
//! for the same edit script and the same mark cadence.

use eg_walker_suite::sync::{DocId, NetworkSim, SimBuilder};
use eg_walker_suite::trace::workload::{apply_sync_workload, sync_workload, SyncWorkloadSpec};

const NODES: usize = 100;
const DOCS: u64 = 8;
/// Tick budget for draining the 100-node simulation to convergence.
const TICK_BUDGET: u64 = 20_000;
/// Ticks between mark rounds, the same for every topology compared.
const MARK_EVERY: u64 = 8;

fn scale_workload() -> Vec<eg_walker_suite::trace::SyncOp> {
    sync_workload(&SyncWorkloadSpec {
        nodes: NODES,
        docs: DOCS,
        bursts: 240,
        burst_len: (2, 10),
        gap_ticks: (0, 2),
        seed: 0x100_D0C5,
    })
}

fn builder(seed: u64) -> SimBuilder {
    let names: Vec<String> = (0..NODES).map(|i| format!("node{i:03}")).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    NetworkSim::builder(&refs, seed)
}

#[test]
fn hundred_replica_star_sharded_beats_mesh_eager_baseline() {
    let ops = scale_workload();

    // Star relay: leaves link only to the hub, which forwards.
    let mut star = builder(42).star().mark_every(MARK_EVERY).build();
    apply_sync_workload(&mut star, &ops);
    assert!(
        star.run_until_quiescent(TICK_BUDGET),
        "star did not converge within {TICK_BUDGET} ticks (used {} total)",
        star.now()
    );
    assert!(star.all_converged());
    assert_eq!(star.stats().resets, 0, "no faults: every mark agrees");

    // Full mesh: every node links to every other, the baseline.
    let mut mesh = builder(42).mesh().mark_every(MARK_EVERY).build();
    apply_sync_workload(&mut mesh, &ops);
    assert!(
        mesh.run_until_quiescent(TICK_BUDGET),
        "mesh baseline did not converge within {TICK_BUDGET} ticks"
    );
    assert!(mesh.all_converged());

    // Every shard actually carries data under both topologies. (Exact
    // per-shard lengths may differ between runs: delete ops clamp against
    // each run's live view, which depends on delivery interleaving.)
    for net in [&star, &mesh] {
        assert_eq!(net.replica(0).doc_ids().len() as u64, DOCS);
        for doc in 0..DOCS {
            assert!(net.replica(0).len_chars(DocId(doc)) > 0, "doc {doc} empty");
        }
    }

    // The honest-bandwidth acceptance bar: the star puts strictly fewer
    // bytes and frames on the wire than the mesh.
    let (s, m) = (star.stats(), mesh.stats());
    assert!(
        s.bytes < m.bytes,
        "star bytes {} not below mesh baseline {}",
        s.bytes,
        m.bytes
    );
    assert!(
        s.sent < m.sent,
        "star frames {} not below mesh baseline {}",
        s.sent,
        m.sent
    );
    // Byte accounting is wire-size based and splits by frame kind.
    assert_eq!(s.bytes, s.digest_bytes + s.bundle_bytes);
    assert_eq!(m.bytes, m.digest_bytes + m.bundle_bytes);
}

#[test]
fn hundred_replica_star_survives_loss() {
    use eg_walker_suite::sync::LinkConfig;
    let ops = sync_workload(&SyncWorkloadSpec {
        nodes: NODES,
        docs: DOCS,
        bursts: 80,
        burst_len: (2, 8),
        gap_ticks: (0, 2),
        seed: 0xBADC0DE,
    });
    let mut net = builder(7)
        .star()
        .mark_every(2)
        .link(LinkConfig {
            min_delay: 1,
            max_delay: 6,
            drop_per_mille: 200,
        })
        .build();
    apply_sync_workload(&mut net, &ops);
    assert!(
        net.run_until_quiescent(60_000),
        "lossy star did not converge"
    );
    assert!(net.stats().dropped > 0, "seed should exercise loss");
    assert!(net.stats().resets > 0, "loss must force a link reset");
}
