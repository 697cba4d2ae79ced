//! The one fault schedule: seeded per-frame fault decisions that both
//! fault injectors ask.
//!
//! A [`FaultSpec`] says how often each fault class strikes; a
//! [`FaultSchedule`] draws, from a seeded RNG, the [`Fate`] of each frame
//! handed to it: dropped, duplicated, corrupted, or delayed. The
//! simulator's [`crate::InMemoryTransport`] carries out a fate in
//! simulated ticks; the daemon's fault proxy carries out the same fate on
//! a real byte stream, in milliseconds, and realises a corruption as half
//! the frame followed by a severed link. Scheduled
//! [`PartitionWindow`]s are a simulator input; the proxy partitions on
//! command. Both count what they injected in one [`FaultStats`].
//!
//! Both keep the link contract [`crate::SyncLink`] relies on: only sync
//! frames are fault targets, so a `Mark` or `Reset` always arrives, and
//! a delayed frame holds back the frames behind it on its link rather
//! than being overtaken by them.

use crate::frame::{FRAME_HEADER_LEN, TAG_SYNC};
use crate::transport::{NodeId, Tick};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether an encoded frame (length prefix included) is a sync frame:
/// the only kind a fault may strike.
pub(crate) fn is_sync_frame(frame: &[u8]) -> bool {
    frame.get(FRAME_HEADER_LEN) == Some(&TAG_SYNC)
}

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
    fn blocks(&self, now: Tick, src: NodeId, dst: NodeId) -> bool {
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
    /// Probability of corrupting a frame: a bit flip or a mid-frame
    /// truncation in the simulator, half the frame and a severed link at
    /// the proxy. Receivers must reject the mangled frame, and the next
    /// mark resets the link.
    pub corrupt_per_mille: u16,
    /// Probability of holding a frame (and those behind it) back.
    pub delay_per_mille: u16,
    /// Maximum extra delay (inclusive; minimum is 1): ticks in the
    /// simulator, milliseconds at the proxy.
    pub max_extra_delay: u64,
    /// Scheduled partition windows (simulator only).
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

/// How the simulator mangles a corrupted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Flip bit `bit` of byte `at`.
    Flip { at: usize, bit: u8 },
    /// Keep only the first `at` bytes.
    Truncate { at: usize },
}

impl Corruption {
    /// Mangles `frame` in place.
    pub(crate) fn apply(self, frame: &mut Vec<u8>) {
        match self {
            Corruption::Flip { at, bit } => {
                if let Some(b) = frame.get_mut(at) {
                    *b ^= 1 << bit;
                }
            }
            Corruption::Truncate { at } => frame.truncate(at),
        }
    }
}

/// What the schedule decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    /// How many times the frame is delivered: 0 (dropped), 1, or 2
    /// (duplicated).
    pub copies: usize,
    /// How long the frame, and those behind it, are held back: 0 unless
    /// delayed.
    pub delay: u64,
    /// Set when the frame is corrupted.
    pub corrupt: Option<Corruption>,
}

impl Fate {
    /// A frame no fault struck.
    const CLEAN: Fate = Fate {
        copies: 1,
        delay: 0,
        corrupt: None,
    };
}

/// Counters of injected faults, for assertions that a schedule really
/// exercised its fault classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames silently dropped.
    pub dropped: usize,
    /// Frames delivered twice.
    pub duplicated: usize,
    /// Frames corrupted.
    pub corrupted: usize,
    /// Frames held back.
    pub delayed: usize,
    /// Cut by a partition: frames in the simulator, connections refused
    /// or severed at the proxy.
    pub blocked: usize,
}

impl FaultStats {
    /// Counts the faults in `fate`.
    pub fn record(&mut self, fate: &Fate) {
        self.dropped += usize::from(fate.copies == 0);
        self.duplicated += usize::from(fate.copies > 1);
        self.corrupted += usize::from(fate.corrupt.is_some());
        self.delayed += usize::from(fate.delay > 0);
    }
}

/// A [`FaultSpec`] plus the seeded RNG that draws from it; see the module
/// docs. Deterministic: the same spec, seed and frame sequence give the
/// same fates.
#[derive(Debug)]
pub struct FaultSchedule {
    spec: FaultSpec,
    rng: StdRng,
}

impl FaultSchedule {
    /// A schedule drawing from `spec`, seeded by `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultSchedule {
            spec,
            rng: StdRng::seed_from_u64(seed ^ 0xBAD_F00D),
        }
    }

    /// Whether a scheduled partition window blocks `frame` from `src` to
    /// `dst` at `now`.
    pub(crate) fn blocks(&self, now: Tick, src: NodeId, dst: NodeId, frame: &[u8]) -> bool {
        is_sync_frame(frame) && self.spec.partitions.iter().any(|w| w.blocks(now, src, dst))
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.rng.gen_range(0..1000u32) < u32::from(per_mille)
    }

    /// Draws the fate of `frame`, the next frame on the link. Only sync
    /// frames are struck; every other frame passes clean without a draw.
    pub fn fate(&mut self, frame: &[u8]) -> Fate {
        if !is_sync_frame(frame) {
            return Fate::CLEAN;
        }
        if self.roll(self.spec.drop_per_mille) {
            return Fate {
                copies: 0,
                ..Fate::CLEAN
            };
        }
        let mut fate = Fate::CLEAN;
        if self.roll(self.spec.corrupt_per_mille) {
            let flip = self.rng.gen_range(0..2u32) == 0;
            let at = self.rng.gen_range(0..frame.len());
            fate.corrupt = Some(if flip {
                Corruption::Flip {
                    at,
                    bit: self.rng.gen_range(0..8u32) as u8,
                }
            } else {
                Corruption::Truncate { at }
            });
        }
        if self.roll(self.spec.delay_per_mille) {
            fate.delay = 1 + self.rng.gen_range(0..self.spec.max_extra_delay.max(1));
        }
        if self.roll(self.spec.duplicate_per_mille) {
            fate.copies = 2;
        }
        fate
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

    fn transport(spec: FaultSpec, seed: u64) -> InMemoryTransport {
        let link = LinkConfig {
            min_delay: 1,
            max_delay: 1,
        };
        InMemoryTransport::new(link, spec, seed)
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
        let mut t = transport(spec, 1);
        t.send(6, 0, 1, sync(1));
        assert_eq!(t.stats().blocked, 1);
        t.send(6, 1, 2, sync(2));
        // The audit frames cross the window untouched.
        let mark = crate::frame::WireFrame::Reset { echo: false }.encode();
        t.send(6, 0, 1, mark.clone());
        t.send(12, 0, 1, sync(3));
        assert_eq!(t.stats().blocked, 1);
        let got: Vec<Vec<u8>> = (0..20)
            .flat_map(|now| t.poll(now))
            .map(|d| d.payload)
            .collect();
        assert_eq!(got, vec![sync(2), mark, sync(3)]);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let spec = FaultSpec {
            duplicate_per_mille: 1000,
            ..FaultSpec::default()
        };
        let mut t = transport(spec, 2);
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
        let mut t = transport(spec, 7);
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
        let mut t = transport(spec, 11);
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
            let mut t = transport(spec, seed);
            let mut log = Vec::new();
            for i in 0..200u64 {
                let (src, dst) = ((i % 4) as usize, ((i + 1) % 4) as usize);
                t.send(i / 4, src, dst, sync(i as u8));
                log.push(t.stats());
            }
            log
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).last(), run(43).last());
    }

    /// Only sync frames draw from the schedule, so the proxy, which also
    /// carries handshakes and heartbeats, decides each sync frame as the
    /// simulator does.
    #[test]
    fn other_frames_draw_nothing() {
        let spec = FaultSpec::random(5, 2, 100);
        let (mut plain, mut mixed) = (
            FaultSchedule::new(spec.clone(), 5),
            FaultSchedule::new(spec, 5),
        );
        let ping = crate::frame::WireFrame::Ping(1).encode();
        for i in 0..100 {
            assert_eq!(mixed.fate(&ping), Fate::CLEAN);
            assert_eq!(plain.fate(&sync(i)), mixed.fate(&sync(i)));
        }
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
