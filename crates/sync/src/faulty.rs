//! [`FaultyTransport`]: seeded fault injection behind the [`Transport`]
//! seam.
//!
//! Wraps any inner transport and, on a deterministic schedule derived
//! from the construction seed, drops, duplicates, corrupts (bit-flips
//! or truncates mid-frame) and delays sync frames, and blocks them
//! across scheduled partition windows. Every replica-facing robustness
//! claim — "convergence holds under every seeded fault schedule" — is
//! a [`crate::NetworkSim`] run over this wrapper; the socket-level
//! twin (the daemon's fault proxy) injects the same fault classes into
//! real byte streams.
//!
//! Both keep the link contract [`crate::SyncLink`] relies on: only sync
//! frames are fault targets, so a `Mark` or `Reset` always arrives, and
//! a delayed frame holds back the frames behind it on its link rather
//! than being overtaken by them (it is handed to the inner transport as
//! if sent later).

use crate::transport::{is_sync_frame, Delivery, NodeId, SendOutcome, Tick, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled partition: sync frames crossing the `side_a` boundary
/// are blocked while `from <= now < until`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick of the window (inclusive).
    pub from: Tick,
    /// End of the window (exclusive).
    pub until: Tick,
    /// One side of the cut; everything else is the other side.
    pub side_a: Vec<NodeId>,
}

impl PartitionWindow {
    /// Returns `true` if a `src → dst` frame at `now` is severed.
    pub fn blocks(&self, now: Tick, src: NodeId, dst: NodeId) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        self.side_a.contains(&src) != self.side_a.contains(&dst)
    }
}

/// Per-sync-frame fault probabilities (parts per thousand) plus the
/// partition schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability of silently dropping a frame.
    pub drop_per_mille: u16,
    /// Probability of delivering a frame twice.
    pub duplicate_per_mille: u16,
    /// Probability of corrupting the payload (a bit flip or a mid-frame
    /// truncation, chosen pseudo-randomly); receivers must reject the
    /// mangled frame, and the next mark resets the link.
    pub corrupt_per_mille: u16,
    /// Probability of holding a frame (and those behind it) back for
    /// extra ticks.
    pub delay_per_mille: u16,
    /// Maximum extra delay, in ticks (inclusive; minimum is 1).
    pub max_extra_delay: u64,
    /// Scheduled partition windows.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultSpec {
    /// A moderately hostile randomized schedule derived from `seed`:
    /// a few percent of every fault class plus 1–3 partition windows
    /// over the first `horizon` ticks. Used by the seeded sweep tests
    /// and the nightly fault campaign.
    pub fn random(seed: u64, nodes: usize, horizon: Tick) -> FaultSpec {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_17_5C_ED);
        let windows = 1 + rng.gen_range(0..3u32) as usize;
        let mut partitions = Vec::with_capacity(windows);
        for _ in 0..windows {
            let from = rng.gen_range(0..horizon.max(2) / 2);
            let len = rng.gen_range(1..horizon.max(4) / 2);
            // A random non-empty strict subset of nodes.
            let mut side_a: Vec<NodeId> =
                (0..nodes).filter(|_| rng.gen_range(0..2u32) == 0).collect();
            if side_a.is_empty() {
                side_a.push(rng.gen_range(0..nodes.max(1)));
            }
            if side_a.len() == nodes && nodes > 1 {
                side_a.pop();
            }
            partitions.push(PartitionWindow {
                from,
                until: from + len,
                side_a,
            });
        }
        FaultSpec {
            drop_per_mille: rng.gen_range(0..80u32) as u16,
            duplicate_per_mille: rng.gen_range(0..60u32) as u16,
            corrupt_per_mille: rng.gen_range(0..40u32) as u16,
            delay_per_mille: rng.gen_range(0..150u32) as u16,
            max_extra_delay: 1 + rng.gen_range(0..12u64),
            partitions,
        }
    }
}

/// Counters of injected faults, for assertions that a schedule really
/// exercised its fault classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently dropped.
    pub dropped: usize,
    /// Frames delivered twice.
    pub duplicated: usize,
    /// Frames with a corrupted payload let through.
    pub corrupted: usize,
    /// Frames held back for extra ticks.
    pub delayed: usize,
    /// Frames blocked by a partition window.
    pub blocked: usize,
}

/// A [`Transport`] decorator injecting seeded faults; see the module
/// docs. Deterministic: identical seed + schedule + send sequence ⇒
/// identical behaviour.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    spec: FaultSpec,
    rng: StdRng,
    stats: FaultStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the fault schedule `spec`.
    pub fn new(inner: T, spec: FaultSpec, seed: u64) -> Self {
        FaultyTransport {
            inner,
            spec,
            rng: StdRng::seed_from_u64(seed ^ 0xBAD_F00D),
            stats: FaultStats::default(),
        }
    }

    /// Injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.rng.gen_range(0..1000u32) < u32::from(per_mille)
    }

    /// Mangles a payload: either flips one bit or truncates mid-frame.
    fn corrupt(&mut self, payload: &mut Vec<u8>) {
        if payload.is_empty() {
            return;
        }
        if self.rng.gen_range(0..2u32) == 0 {
            let i = self.rng.gen_range(0..payload.len());
            payload[i] ^= 1 << self.rng.gen_range(0..8u32);
        } else {
            let cut = self.rng.gen_range(0..payload.len());
            payload.truncate(cut);
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, now: Tick, src: NodeId, dst: NodeId, mut payload: Vec<u8>) -> SendOutcome {
        if !is_sync_frame(&payload) {
            return self.inner.send(now, src, dst, payload);
        }
        if self.spec.partitions.iter().any(|w| w.blocks(now, src, dst)) {
            self.stats.blocked += 1;
            return SendOutcome::Dropped;
        }
        if self.roll(self.spec.drop_per_mille) {
            self.stats.dropped += 1;
            return SendOutcome::Dropped;
        }
        if self.roll(self.spec.corrupt_per_mille) {
            self.stats.corrupted += 1;
            self.corrupt(&mut payload);
        }
        let mut at = now;
        if self.roll(self.spec.delay_per_mille) {
            self.stats.delayed += 1;
            at += 1 + self.rng.gen_range(0..self.spec.max_extra_delay.max(1));
        }
        if self.roll(self.spec.duplicate_per_mille) {
            self.stats.duplicated += 1;
            let _ = self.inner.send(at, src, dst, payload.clone());
        }
        self.inner.send(at, src, dst, payload)
    }

    fn poll(&mut self, now: Tick) -> Vec<Delivery> {
        self.inner.poll(now)
    }

    fn cut(&mut self, sever: &mut dyn FnMut(NodeId, NodeId) -> bool) -> usize {
        self.inner.cut(sever)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InMemoryTransport, LinkConfig};

    /// An encoded sync frame carrying `n`.
    fn sync(n: u8) -> Vec<u8> {
        crate::frame::frame_sync(&[n, 1, 2, 3, 4, 5, 6, 7])
    }

    fn inner() -> InMemoryTransport {
        InMemoryTransport::new(
            LinkConfig {
                min_delay: 1,
                max_delay: 1,
                drop_per_mille: 0,
            },
            3,
        )
    }

    #[test]
    fn partition_window_blocks_cross_traffic_only() {
        let spec = FaultSpec {
            partitions: vec![PartitionWindow {
                from: 5,
                until: 10,
                side_a: vec![0],
            }],
            ..FaultSpec::default()
        };
        let mut t = FaultyTransport::new(inner(), spec, 1);
        assert_eq!(t.send(6, 0, 1, sync(1)), SendOutcome::Dropped);
        assert_eq!(t.send(6, 1, 2, sync(2)), SendOutcome::Queued);
        assert_eq!(t.send(12, 0, 1, sync(3)), SendOutcome::Queued);
        assert_eq!(t.stats().blocked, 1);
        // The audit frames cross the window untouched.
        let mark = crate::frame::WireFrame::Reset { echo: false }.encode();
        assert_eq!(t.send(6, 0, 1, mark), SendOutcome::Queued);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let spec = FaultSpec {
            duplicate_per_mille: 1000,
            ..FaultSpec::default()
        };
        let mut t = FaultyTransport::new(inner(), spec, 2);
        t.send(0, 0, 1, sync(9));
        let got = t.poll(1);
        assert_eq!(got.len(), 2);
        assert_eq!(t.stats().duplicated, 1);
    }

    #[test]
    fn delay_holds_then_releases() {
        let spec = FaultSpec {
            delay_per_mille: 1000,
            max_extra_delay: 3,
            ..FaultSpec::default()
        };
        let mut t = FaultyTransport::new(inner(), spec, 7);
        t.send(0, 0, 1, sync(5));
        assert!(t.poll(1).is_empty(), "held back");
        let mut delivered = 0;
        for now in 1..10 {
            delivered += t.poll(now).len();
        }
        assert_eq!(delivered, 1);
        assert_eq!(t.stats().delayed, 1);
    }

    #[test]
    fn corrupt_mangles_payload() {
        let spec = FaultSpec {
            corrupt_per_mille: 1000,
            ..FaultSpec::default()
        };
        let mut t = FaultyTransport::new(inner(), spec, 11);
        let original = sync(1);
        t.send(0, 0, 1, original.clone());
        let got = t.poll(1);
        assert_eq!(got.len(), 1);
        assert_ne!(got[0].payload, original);
        assert_eq!(t.stats().corrupted, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let spec = FaultSpec::random(seed, 4, 100);
            let mut t = FaultyTransport::new(inner(), spec, seed);
            let mut log = Vec::new();
            for i in 0..200u64 {
                let out = t.send(
                    i / 4,
                    (i % 4) as usize,
                    ((i + 1) % 4) as usize,
                    sync(i as u8),
                );
                log.push(out == SendOutcome::Dropped);
            }
            (log, t.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn random_specs_vary_and_have_partitions() {
        let a = FaultSpec::random(1, 6, 500);
        let b = FaultSpec::random(2, 6, 500);
        assert_ne!(a, b);
        assert!(!a.partitions.is_empty());
        for w in &a.partitions {
            assert!(w.until > w.from);
            assert!(!w.side_a.is_empty() && w.side_a.len() < 6);
        }
    }
}
