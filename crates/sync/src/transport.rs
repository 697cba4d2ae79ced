//! [`InMemoryTransport`]: how the simulator moves encoded frames between
//! nodes.
//!
//! It keeps the link contract [`crate::SyncLink`] relies on, as a daemon
//! connection does: frames on one directed link arrive in the order they
//! were sent, and only sync frames may be lost, repeated, corrupted or
//! delayed. Each frame takes a seeded random delay from the
//! [`LinkConfig`], and its faults from the one [`FaultSchedule`]; a frame
//! held back holds back the frames queued behind it on its link.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faulty::{FaultSchedule, FaultSpec, FaultStats};

/// Index of a node in the sync engine (position in the replica vector).
pub(crate) type NodeId = usize;

/// Simulated time, in integer ticks.
pub type Tick = u64;

/// Delivery delay of every link in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Minimum delivery delay, in ticks.
    pub min_delay: u64,
    /// Maximum delivery delay, in ticks (inclusive).
    pub max_delay: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            min_delay: 1,
            max_delay: 8,
        }
    }
}

/// A frame handed back by [`InMemoryTransport::poll`].
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The sending node.
    pub src: NodeId,
    /// The receiving node.
    pub dst: NodeId,
    /// The encoded frame.
    pub payload: Vec<u8>,
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

/// A deterministic single-process transport: per-frame seeded delay,
/// seeded faults and scheduled partitions, FIFO per directed link.
/// Together with the link audit it models the paper's reliable-broadcast
/// assumption (§2.1) over an unreliable network. The same link model,
/// fault spec, seed and send sequence give the same deliveries.
#[derive(Debug)]
pub struct InMemoryTransport {
    link: LinkConfig,
    rng: StdRng,
    faults: FaultSchedule,
    stats: FaultStats,
    queue: BinaryHeap<Reverse<InFlight>>,
    /// Per directed link, when its last queued frame is due: no frame is
    /// due before the one queued ahead of it.
    tails: HashMap<(NodeId, NodeId), Tick>,
    next_seq: u64,
}

impl InMemoryTransport {
    /// Creates a transport with the given link model, fault spec and RNG
    /// seed.
    pub fn new(link: LinkConfig, faults: FaultSpec, seed: u64) -> Self {
        assert!(link.min_delay <= link.max_delay, "invalid delay range");
        InMemoryTransport {
            link,
            rng: StdRng::seed_from_u64(seed),
            faults: FaultSchedule::new(faults, seed),
            stats: FaultStats::default(),
            queue: BinaryHeap::new(),
            tails: HashMap::new(),
            next_seq: 0,
        }
    }

    /// Injected-fault counters; `blocked` also counts the frames a
    /// partition cut in flight.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Hands a frame to the network at time `now`, as its fate says.
    pub fn send(&mut self, now: Tick, src: NodeId, dst: NodeId, mut payload: Vec<u8>) {
        if self.faults.blocks(now, src, dst, &payload) {
            self.stats.blocked += 1;
            return;
        }
        let fate = self.faults.fate(&payload);
        self.stats.record(&fate);
        if let Some(corruption) = fate.corrupt {
            corruption.apply(&mut payload);
        }
        let at = now + fate.delay;
        if fate.copies > 1 {
            self.queue(at, src, dst, payload.clone());
        }
        if fate.copies > 0 {
            self.queue(at, src, dst, payload);
        }
    }

    /// Queues one copy sent at `at`, after a seeded link delay.
    fn queue(&mut self, at: Tick, src: NodeId, dst: NodeId, payload: Vec<u8>) {
        let delay = self
            .rng
            .gen_range(self.link.min_delay..=self.link.max_delay);
        let tail = self.tails.entry((src, dst)).or_default();
        *tail = (*tail).max(at + delay);
        self.queue.push(Reverse(InFlight {
            deliver_at: *tail,
            seq: self.next_seq,
            src,
            dst,
            payload,
        }));
        self.next_seq += 1;
    }

    /// Drains every frame due at or before `now`, in (delivery time, send
    /// order) order.
    pub fn poll(&mut self, now: Tick) -> Vec<Delivery> {
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

    /// Drops queued frames for which `sever(src, dst)` returns `true`
    /// (links cut by a partition), counting them as blocked.
    pub(crate) fn cut(&mut self, mut sever: impl FnMut(NodeId, NodeId) -> bool) {
        let before = self.queue.len();
        self.queue.retain(|Reverse(m)| !sever(m.src, m.dst));
        self.tails.retain(|&(src, dst), _| !sever(src, dst));
        self.stats.blocked += before - self.queue.len();
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
        let link = LinkConfig {
            min_delay: 1,
            max_delay: 4,
        };
        InMemoryTransport::new(link, FaultSpec::default(), 7)
    }

    /// A transport with one-tick links losing `drop_per_mille` of the
    /// sync frames.
    fn lossy(drop_per_mille: u16, seed: u64) -> InMemoryTransport {
        let link = LinkConfig {
            min_delay: 1,
            max_delay: 1,
        };
        let faults = FaultSpec {
            drop_per_mille,
            ..FaultSpec::default()
        };
        InMemoryTransport::new(link, faults, seed)
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
        let link = LinkConfig {
            min_delay: 2,
            max_delay: 2,
        };
        let mut t = InMemoryTransport::new(link, FaultSpec::default(), 1);
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
            let mut t = lossy(500, seed);
            for _ in 0..100 {
                t.send(0, 0, 1, sync(0));
            }
            t.stats().dropped
        };
        assert_eq!(run(42), run(42));
        let dropped = run(42);
        assert!((20..80).contains(&dropped), "drops wildly off: {dropped}");
    }

    #[test]
    fn only_sync_frames_are_lost() {
        let mut t = lossy(1000, 5);
        let mark = crate::frame::WireFrame::Mark(crate::frame::FrameTally::default()).encode();
        t.send(0, 0, 1, sync(0));
        t.send(0, 0, 1, mark.clone());
        assert_eq!(t.stats().dropped, 1);
        let got: Vec<Vec<u8>> = t.poll(1).into_iter().map(|d| d.payload).collect();
        assert_eq!(got, vec![mark]);
    }

    #[test]
    fn cut_severs_matching_messages() {
        let mut t = lossless();
        t.send(0, 0, 1, sync(0));
        t.send(0, 1, 2, sync(1));
        t.send(0, 2, 0, sync(2));
        t.cut(|src, _| src == 0);
        assert_eq!(t.stats().blocked, 1);
        assert_eq!((1..=4).map(|now| t.poll(now).len()).sum::<usize>(), 2);
    }
}
