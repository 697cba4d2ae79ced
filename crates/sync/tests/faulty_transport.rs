//! Tier-1 convergence sweeps under in-process fault injection.
//!
//! The simulator's in-memory transport draws a seeded schedule of drops,
//! duplicates, corruption, extra delay, and timed partitions from a
//! [`FaultSpec`], all aimed at sync frames. Every schedule here must end
//! in convergence: the marks find every loss and reset the link, the CRC
//! layer turns corruption into ordinary loss, and partitions in
//! [`FaultSpec::random`] all close before the horizon, after which repair
//! is guaranteed. The transport keeps the link contract the marks rely
//! on, with and without corruption, which is pinned here too.

use std::collections::BTreeMap;

use eg_sync::frame::{frame_sync, FRAME_HEADER_LEN, TAG_RESET, TAG_SYNC};
use eg_sync::{
    DocId, FaultSpec, FrameTally, InMemoryTransport, LinkConfig, NetworkSim, PartitionWindow,
    WireFrame,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const D: DocId = DocId::DEFAULT;

const NAMES: [&str; 4] = ["n0", "n1", "n2", "n3"];

fn faulty_sim(spec: FaultSpec, seed: u64) -> NetworkSim {
    NetworkSim::builder(&NAMES, seed).faults(spec).build()
}

/// A deterministic concurrent edit script touching every node.
fn drive_edits(net: &mut NetworkSim, rounds: usize) {
    for r in 0..rounds {
        for who in 0..NAMES.len() {
            let len = net.replica(who).len_chars(D);
            net.edit_insert(who, D, (r * 7 + who * 3) % (len + 1), "ab ");
            if r % 3 == 2 {
                let len = net.replica(who).len_chars(D);
                if len > 2 {
                    net.edit_delete(who, D, (r + who) % (len - 1), 1);
                }
            }
        }
        net.tick();
    }
}

#[test]
fn every_seeded_fault_schedule_converges() {
    let mut exercised = 0usize;
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
        let spec = FaultSpec::random(seed, NAMES.len(), 400);
        let mut net = faulty_sim(spec, seed);
        drive_edits(&mut net, 12);
        assert!(
            net.run_until_quiescent(200_000),
            "seed {seed} failed to converge"
        );
        assert!(net.all_converged(), "seed {seed} not converged");
        let s = net.stats();
        exercised += s.dropped + s.corrupt_dropped;
    }
    // The sweep as a whole must actually have injected faults — a
    // schedule generator that degenerated to no-ops would pass
    // convergence vacuously.
    assert!(exercised > 0, "no faults were exercised across the sweep");
}

#[test]
fn corruption_is_detected_and_repaired() {
    let spec = FaultSpec {
        corrupt_per_mille: 300,
        ..FaultSpec::default()
    };
    let mut net = faulty_sim(spec, 7);
    drive_edits(&mut net, 10);
    assert!(net.run_until_quiescent(200_000));
    // With a 30% corruption rate some payloads must have been mangled,
    // detected by the decode layer, and repaired by anti-entropy.
    assert!(net.stats().corrupt_dropped > 0, "no corruption exercised");
    assert!(net.all_converged());
}

#[test]
fn timed_partition_heals_and_converges() {
    let spec = FaultSpec {
        partitions: vec![PartitionWindow {
            from: 2,
            until: 60,
            side_a: vec![0, 1],
        }],
        ..FaultSpec::default()
    };
    let mut net = faulty_sim(spec, 11);
    // Edits on both sides of the partition while it is up.
    drive_edits(&mut net, 8);
    assert!(net.run_until_quiescent(100_000));
    assert!(net.all_converged());
    let s = net.stats();
    // Cross-partition sends during the window were blackholed.
    assert!(s.dropped > 0, "partition never blocked anything");
}

#[test]
fn heavy_loss_with_duplicates_converges() {
    let spec = FaultSpec {
        drop_per_mille: 250,
        duplicate_per_mille: 250,
        delay_per_mille: 200,
        max_extra_delay: 9,
        ..FaultSpec::default()
    };
    let mut net = faulty_sim(spec, 23);
    drive_edits(&mut net, 15);
    assert!(net.run_until_quiescent(300_000));
    assert!(net.all_converged());
    let text = net.replica(0).text(D);
    for i in 1..NAMES.len() {
        assert_eq!(net.replica(i).text(D), text);
    }
}

/// Per directed link: the frames sent and the frames delivered, in order.
type Traffic = BTreeMap<(usize, usize), (Vec<Vec<u8>>, Vec<Vec<u8>>)>;

/// Sends frames carrying their send index over the six directed links of
/// three nodes for `ticks` ticks (every fourth one a mark, every ninth a
/// reset), then drains the transport. Returns, per directed link, what
/// was sent and what arrived, in order.
fn exercise(transport: &mut InMemoryTransport, seed: u64, ticks: u64) -> Traffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut links = Traffic::new();
    let mut index = 0u64;
    for now in 0..ticks + 64 {
        if now < ticks {
            for _ in 0..rng.gen_range(0..6u32) {
                let src = rng.gen_range(0..3usize);
                let dst = (src + rng.gen_range(1..3usize)) % 3;
                index += 1;
                let frame = match index % 36 {
                    i if i % 9 == 0 => WireFrame::Reset { echo: i % 2 == 0 }.encode(),
                    i if i % 4 == 0 => WireFrame::Mark(FrameTally {
                        frames: index,
                        check: 0,
                    })
                    .encode(),
                    _ => frame_sync(&index.to_le_bytes()),
                };
                links.entry((src, dst)).or_default().0.push(frame.clone());
                transport.send(now, src, dst, frame);
            }
        }
        for d in transport.poll(now) {
            links.entry((d.src, d.dst)).or_default().1.push(d.payload);
        }
    }
    links
}

fn is_sync(frame: &[u8]) -> bool {
    frame.get(FRAME_HEADER_LEN) == Some(&TAG_SYNC)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The link contract `SyncLink` relies on: frames on a directed link
    /// arrive in the order sent, however long any of them is held back,
    /// and only sync frames are ever lost, repeated, corrupted or
    /// delayed — every mark and reset arrives once, intact, in order.
    #[test]
    fn transports_keep_the_link_contract(seed in any::<u64>()) {
        let link = LinkConfig { min_delay: 1, max_delay: 9 };
        let spec = FaultSpec { drop_per_mille: 150, ..FaultSpec::random(seed, 3, 80) };
        let fifo = FaultSpec { corrupt_per_mille: 0, ..spec.clone() };
        for (spec, corrupting) in [(fifo, false), (spec, true)] {
            let mut t = InMemoryTransport::new(link, spec, seed);
            for (sent, got) in exercise(&mut t, seed, 80).into_values() {
                // A mangled sync frame may lose its tag, so the audit
                // frames are picked out by their exact bytes.
                let marks: Vec<Vec<u8>> = sent.iter().filter(|f| !is_sync(f)).cloned().collect();
                let arrived: Vec<Vec<u8>> = got.iter().filter(|f| marks.contains(f)).cloned().collect();
                prop_assert_eq!(arrived, marks);
                if !corrupting {
                    // Every arrival is a sent frame, no earlier than the
                    // one before it (resets all look alike: left out).
                    let at = |f: &Vec<u8>| sent.iter().position(|s| s == f);
                    let order: Vec<Option<usize>> = got
                        .iter()
                        .filter(|f| f.get(FRAME_HEADER_LEN) != Some(&TAG_RESET))
                        .map(at)
                        .collect();
                    prop_assert!(order.iter().all(Option::is_some));
                    prop_assert!(order.windows(2).all(|w| w[0] <= w[1]), "{:?}", order);
                }
            }
        }
    }
}

#[test]
fn lossless_star_at_scale_never_resets() {
    let names: Vec<String> = (0..24).map(|i| format!("n{i}")).collect();
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut net = NetworkSim::builder(&refs, 3).star().build();
    for i in 0..24 {
        net.edit_insert(i, DocId((i % 4) as u64), 0, "hi ");
        net.tick();
    }
    assert!(net.run_until_quiescent(10_000));
    assert_eq!(net.stats().resets, 0, "FIFO and no loss: every mark agrees");
    assert_eq!(net.stats().dropped, 0);
}
