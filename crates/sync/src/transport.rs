//! The [`Transport`] seam: how encoded frames move between nodes.
//!
//! The simulator never touches a socket or a queue directly — it hands
//! each frame a link queued to a [`Transport`] and polls deliveries back
//! out. A transport keeps the link contract [`crate::SyncLink`] relies
//! on, as a daemon connection does: frames on one directed link arrive
//! in the order they were sent, and only sync frames (tag
//! [`TAG_SYNC`]) may be lost. [`InMemoryTransport`] is the deterministic
//! simulated implementation (seeded per-frame delay and loss); a frame
//! held back holds back the frames queued behind it on its link.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{FRAME_HEADER_LEN, TAG_SYNC};

/// Index of a node in the sync engine (position in the replica vector).
pub type NodeId = usize;

/// Simulated time, in integer ticks.
pub type Tick = u64;

/// Whether an encoded frame (length prefix included) is a sync frame:
/// the only kind a transport may lose, repeat, corrupt or delay.
pub(crate) fn is_sync_frame(frame: &[u8]) -> bool {
    frame.get(FRAME_HEADER_LEN) == Some(&TAG_SYNC)
}

/// Behaviour of every link in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Minimum delivery delay, in ticks.
    pub min_delay: u64,
    /// Maximum delivery delay, in ticks (inclusive).
    pub max_delay: u64,
    /// Probability of losing a sync frame, in parts per thousand. Marks
    /// and resets are never lost: the link audit relies on them.
    pub drop_per_mille: u16,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            min_delay: 1,
            max_delay: 8,
            drop_per_mille: 0,
        }
    }
}

/// A frame handed back by [`Transport::poll`].
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The sending node.
    pub src: NodeId,
    /// The receiving node.
    pub dst: NodeId,
    /// The encoded frame.
    pub payload: Vec<u8>,
}

/// What a transport did with a submitted frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame is in flight and will be delivered by a later poll.
    Queued,
    /// The frame was lost at send time.
    Dropped,
}

/// Point-to-point movement of encoded frames between nodes, first in,
/// first out on every directed link.
///
/// Implementations own delay and loss; the engine owns what to send and
/// what delivery means. All methods must be deterministic given the
/// construction seed.
pub trait Transport: std::fmt::Debug {
    /// Hands a frame to the network at time `now`.
    fn send(&mut self, now: Tick, src: NodeId, dst: NodeId, payload: Vec<u8>) -> SendOutcome;

    /// Drains every frame due at or before `now`, in deterministic
    /// (delivery time, send order) order.
    fn poll(&mut self, now: Tick) -> Vec<Delivery>;

    /// Drops queued frames for which `sever(src, dst)` returns `true`
    /// (links cut by a partition), returning how many were lost.
    fn cut(&mut self, sever: &mut dyn FnMut(NodeId, NodeId) -> bool) -> usize;
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct InFlight {
    deliver_at: Tick,
    /// Tie-break so equal-time frames deliver in send order.
    seq: u64,
    src: NodeId,
    dst: NodeId,
    payload: Vec<u8>,
}

/// A deterministic single-process transport: per-frame seeded random
/// delay and sync-frame loss, FIFO per directed link. Together with the
/// link audit it models the paper's reliable-broadcast assumption (§2.1)
/// over an unreliable network.
#[derive(Debug)]
pub struct InMemoryTransport {
    link: LinkConfig,
    rng: StdRng,
    queue: BinaryHeap<Reverse<InFlight>>,
    /// Per directed link, when its last queued frame is due: no frame is
    /// due before the one queued ahead of it.
    tails: HashMap<(NodeId, NodeId), Tick>,
    next_seq: u64,
}

impl InMemoryTransport {
    /// Creates a transport with the given link model and RNG seed.
    pub fn new(link: LinkConfig, seed: u64) -> Self {
        assert!(link.min_delay <= link.max_delay, "invalid delay range");
        assert!(link.drop_per_mille <= 1000, "invalid drop probability");
        InMemoryTransport {
            link,
            rng: StdRng::seed_from_u64(seed),
            queue: BinaryHeap::new(),
            tails: HashMap::new(),
            next_seq: 0,
        }
    }
}

impl Transport for InMemoryTransport {
    fn send(&mut self, now: Tick, src: NodeId, dst: NodeId, payload: Vec<u8>) -> SendOutcome {
        if self.link.drop_per_mille > 0
            && is_sync_frame(&payload)
            && self.rng.gen_range(0..1000u32) < self.link.drop_per_mille as u32
        {
            return SendOutcome::Dropped;
        }
        let delay = self
            .rng
            .gen_range(self.link.min_delay..=self.link.max_delay);
        let tail = self.tails.entry((src, dst)).or_default();
        *tail = (*tail).max(now + delay);
        self.queue.push(Reverse(InFlight {
            deliver_at: *tail,
            seq: self.next_seq,
            src,
            dst,
            payload,
        }));
        self.next_seq += 1;
        SendOutcome::Queued
    }

    fn poll(&mut self, now: Tick) -> Vec<Delivery> {
        let mut due = Vec::new();
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(m)| m.deliver_at <= now)
        {
            if let Some(Reverse(m)) = self.queue.pop() {
                due.push(Delivery {
                    src: m.src,
                    dst: m.dst,
                    payload: m.payload,
                });
            }
        }
        due
    }

    fn cut(&mut self, sever: &mut dyn FnMut(NodeId, NodeId) -> bool) -> usize {
        let before = self.queue.len();
        self.queue.retain(|Reverse(m)| !sever(m.src, m.dst));
        self.tails.retain(|&(src, dst), _| !sever(src, dst));
        before - self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An encoded sync frame carrying `n`.
    fn sync(n: u8) -> Vec<u8> {
        crate::frame::frame_sync(&[n])
    }

    fn lossless() -> InMemoryTransport {
        InMemoryTransport::new(
            LinkConfig {
                min_delay: 1,
                max_delay: 4,
                drop_per_mille: 0,
            },
            7,
        )
    }

    #[test]
    fn delivers_within_delay_bounds() {
        let mut t = lossless();
        t.send(0, 0, 1, sync(1));
        t.send(0, 0, 2, sync(2));
        let mut got = 0;
        for now in 1..=4 {
            got += t.poll(now).len();
        }
        assert_eq!(got, 2);
    }

    #[test]
    fn equal_time_messages_deliver_in_send_order() {
        let mut t = InMemoryTransport::new(
            LinkConfig {
                min_delay: 2,
                max_delay: 2,
                drop_per_mille: 0,
            },
            1,
        );
        for i in 0..10u8 {
            t.send(0, 0, 1, sync(i));
        }
        let due = t.poll(2);
        let order: Vec<u8> = due.iter().map(|d| d.payload[5]).collect();
        assert_eq!(order, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let run = |seed| {
            let mut t = InMemoryTransport::new(
                LinkConfig {
                    min_delay: 1,
                    max_delay: 1,
                    drop_per_mille: 500,
                },
                seed,
            );
            (0..100)
                .filter(|_| t.send(0, 0, 1, sync(0)) == SendOutcome::Dropped)
                .count()
        };
        assert_eq!(run(42), run(42));
        let dropped = run(42);
        assert!((20..80).contains(&dropped), "drops wildly off: {dropped}");
    }

    #[test]
    fn only_sync_frames_are_lost() {
        let mut t = InMemoryTransport::new(
            LinkConfig {
                min_delay: 1,
                max_delay: 1,
                drop_per_mille: 1000,
            },
            5,
        );
        let mark = crate::frame::WireFrame::Mark(crate::frame::FrameTally::default()).encode();
        assert_eq!(t.send(0, 0, 1, sync(0)), SendOutcome::Dropped);
        assert_eq!(t.send(0, 0, 1, mark), SendOutcome::Queued);
    }

    #[test]
    fn cut_severs_matching_messages() {
        let mut t = lossless();
        t.send(0, 0, 1, sync(0));
        t.send(0, 1, 2, sync(1));
        t.send(0, 2, 0, sync(2));
        let lost = t.cut(&mut |src, _| src == 0);
        assert_eq!(lost, 1);
        assert_eq!((1..=4).map(|now| t.poll(now).len()).sum::<usize>(), 2);
    }
}
