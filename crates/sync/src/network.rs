//! [`NetworkSim`]: many replicas in one process, one [`SyncLink`] at
//! each end of every topology link, frames over a simulated
//! [`Transport`].
//!
//! The simulator is the second driver of the protocol the daemon speaks
//! (the first is the daemon's `PeerSession`). It owns what a daemon's
//! reactor owns, in simulated time: it opens the links, carries every
//! frame a link queues to the transport and every delivery to the link
//! at the other end, sends a mark on every link every
//! [`SimConfig::mark_every`] ticks (the daemon's `sync_interval`), and
//! lets the [`Topology`]'s relay rule decide which links hear about
//! events a node gained. A partition is a disconnect: the severed links
//! are dropped with the frames in flight on them, and healing opens new
//! ones, each with a complete digest, as a daemon does after a redial.
//!
//! Determinism: every run is a pure function of the seed, the
//! configuration and the edit script, which makes convergence failures
//! replayable.

use std::collections::BTreeMap;

use crate::frame::{is_bundle_body, FRAME_HEADER_LEN, TAG_RESET};
use crate::link::SyncLink;
use crate::replica::{DocId, Replica};
use crate::topology::{Mesh, Star, Topology};
use crate::transport::{
    Delivery, InMemoryTransport, LinkConfig, NodeId, SendOutcome, Tick, Transport,
};

/// Engine configuration (everything except the topology and the seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Link behaviour of the in-memory transport.
    pub link: LinkConfig,
    /// Ticks between mark rounds, at least 1: every `mark_every` ticks
    /// each end of every link sends its mark, which is what carries a
    /// lone edit and what finds a lost frame.
    pub mark_every: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: LinkConfig::default(),
            mark_every: 4,
        }
    }
}

/// Counters for the whole simulation.
///
/// Byte counters measure **wire size**: the length of every frame handed
/// to the transport, counted at send time whether or not it is lost, so
/// topology comparisons report honest bandwidth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames handed to the transport.
    pub sent: usize,
    /// Frames delivered to a link end.
    pub delivered: usize,
    /// Frames lost (lossy link, fault schedule or partition cut).
    pub dropped: usize,
    /// Deliveries that failed to decode (a fault-injecting transport
    /// corrupted them in flight): skipped, and the next mark resets the
    /// link.
    pub corrupt_dropped: usize,
    /// `Reset` frames sent: each is one end clearing its view and
    /// reopening with a complete digest.
    pub resets: usize,
    /// Total bytes put on the wire.
    pub bytes: usize,
    /// Bytes of everything but bundles: digests, marks and resets.
    pub digest_bytes: usize,
    /// Bytes of event-bundle frames.
    pub bundle_bytes: usize,
}

/// A deterministic multi-document sync engine over simulated nodes.
///
/// Time advances in integer ticks via [`NetworkSim::tick`].
/// [`NetworkSim::run_until_quiescent`] ticks until every reachable
/// component converges.
#[derive(Debug)]
pub struct NetworkSim {
    replicas: Vec<Replica>,
    topology: Box<dyn Topology>,
    transport: Box<dyn Transport>,
    /// Per node, its end of every link that is up, by peer.
    links: Vec<BTreeMap<NodeId, SyncLink>>,
    cfg: SimConfig,
    now: Tick,
    stats: NetStats,
    /// A replica or the link graph changed since convergence was last
    /// checked.
    changed: bool,
}

/// Configures and builds a [`NetworkSim`]; see [`NetworkSim::builder`].
pub struct SimBuilder {
    names: Vec<String>,
    seed: u64,
    cfg: SimConfig,
    topology: Option<Box<dyn Topology>>,
    transport: Option<Box<dyn Transport>>,
}

impl SimBuilder {
    /// Sets the link model of the in-memory transport.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.cfg.link = link;
        self
    }

    /// Replaces the default [`InMemoryTransport`] with a custom one —
    /// e.g. a [`crate::FaultyTransport`] wrapping it for seeded fault
    /// schedules. Overrides [`SimBuilder::link`].
    pub fn transport(mut self, transport: Box<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Sets the mark cadence (see [`SimConfig::mark_every`]).
    pub fn mark_every(mut self, ticks: u64) -> Self {
        self.cfg.mark_every = ticks;
        self
    }

    /// Uses a full-mesh topology (the default).
    pub fn mesh(mut self) -> Self {
        self.topology = Some(Box::new(Mesh::new(self.names.len())));
        self
    }

    /// Uses a star topology with node 0 as the hub.
    pub fn star(mut self) -> Self {
        self.topology = Some(Box::new(Star::new(self.names.len(), 0)));
        self
    }

    /// Uses a custom [`Topology`] implementation.
    pub fn topology(mut self, topology: Box<dyn Topology>) -> Self {
        assert_eq!(
            topology.len(),
            self.names.len(),
            "topology size must match the replica count"
        );
        self.topology = Some(topology);
        self
    }

    /// Builds the engine and opens every link.
    pub fn build(self) -> NetworkSim {
        assert!(self.cfg.mark_every > 0, "mark_every must be at least 1");
        let n = self.names.len();
        let topology = self.topology.unwrap_or_else(|| Box::new(Mesh::new(n)));
        let transport = self
            .transport
            .unwrap_or_else(|| Box::new(InMemoryTransport::new(self.cfg.link, self.seed)));
        let mut sim = NetworkSim {
            replicas: self.names.iter().map(|s| Replica::new(s)).collect(),
            topology,
            transport,
            links: (0..n).map(|_| BTreeMap::new()).collect(),
            cfg: self.cfg,
            now: 0,
            stats: NetStats::default(),
            changed: true,
        };
        sim.connect();
        sim
    }
}

impl NetworkSim {
    /// Creates a fully connected network of empty replicas.
    pub fn new(names: &[&str], seed: u64) -> Self {
        Self::builder(names, seed).build()
    }

    /// [`NetworkSim::new`] with an explicit link model.
    pub fn with_link(names: &[&str], seed: u64, link: LinkConfig) -> Self {
        Self::builder(names, seed).link(link).build()
    }

    /// Starts configuring an engine: topology, link model, mark cadence.
    pub fn builder(names: &[&str], seed: u64) -> SimBuilder {
        SimBuilder {
            names: names.iter().map(|s| s.to_string()).collect(),
            seed,
            cfg: SimConfig::default(),
            topology: None,
            transport: None,
        }
    }

    /// Read access to a replica.
    pub fn replica(&self, i: usize) -> &Replica {
        &self.replicas[i]
    }

    /// The current simulation time, in ticks.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Simulation counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Inserts text in document `doc` at replica `i` and announces it.
    pub fn edit_insert(&mut self, i: NodeId, doc: DocId, pos: usize, text: &str) {
        self.replicas[i].insert(doc, pos, text);
        self.relay(i, &[doc], None);
    }

    /// Deletes `len` characters from document `doc` at replica `i` and
    /// announces it.
    pub fn edit_delete(&mut self, i: NodeId, doc: DocId, pos: usize, len: usize) {
        self.replicas[i].delete(doc, pos, len);
        self.relay(i, &[doc], None);
    }

    /// Splits the network into partition groups (see
    /// [`Topology::set_partition`]). Every link crossing a boundary is
    /// disconnected: both ends are dropped, with the frames in flight on
    /// it.
    pub fn partition(&mut self, groups: &[&[NodeId]]) {
        self.topology.set_partition(groups);
        let Self {
            topology,
            transport,
            links,
            stats,
            ..
        } = self;
        stats.dropped += transport.cut(&mut |src, dst| !topology.linked(src, dst));
        for (node, ends) in links.iter_mut().enumerate() {
            ends.retain(|&peer, _| topology.linked(node, peer));
        }
        self.changed = true;
    }

    /// Heals all partitions: every severed link reconnects, and each end
    /// opens with a complete digest.
    pub fn heal(&mut self) {
        self.topology.heal();
        self.connect();
    }

    /// Advances time by one tick: sends the mark round when one is due,
    /// then delivers every frame whose delay has elapsed.
    pub fn tick(&mut self) {
        self.now += 1;
        if self.now % self.cfg.mark_every == 0 {
            for src in 0..self.links.len() {
                let peers: Vec<NodeId> = self.links[src].keys().copied().collect();
                for dst in peers {
                    if let Some(link) = self.links[src].get_mut(&dst) {
                        link.mark();
                    }
                    self.send(src, dst);
                }
            }
        }
        for delivery in self.transport.poll(self.now) {
            self.deliver(delivery);
        }
    }

    /// Ticks until every reachable component has converged, checking at
    /// mark rounds after something changed. Returns `false` if
    /// `max_ticks` elapsed first (which indicates a bug: the marks repair
    /// every loss once the faults stop).
    pub fn run_until_quiescent(&mut self, max_ticks: u64) -> bool {
        let deadline = self.now + max_ticks;
        loop {
            if self.changed && self.now % self.cfg.mark_every == 0 {
                self.changed = false;
                if self.all_converged() {
                    return true;
                }
            }
            if self.now >= deadline {
                return false;
            }
            self.tick();
        }
    }

    /// Returns `true` if every pair of replicas that can currently reach
    /// each other (directly or through relays) has the same events and
    /// text in every document.
    pub fn all_converged(&self) -> bool {
        let comp = self.components();
        let snaps: Vec<_> = self.replicas.iter().map(Replica::snapshot).collect();
        (0..snaps.len()).all(|i| {
            let first = comp.iter().position(|&c| c == comp[i]).unwrap_or(i);
            snaps[first] == snaps[i]
        })
    }

    /// Connected components of the current link graph (partition- and
    /// topology-aware): the units within which convergence is required.
    fn components(&self) -> Vec<usize> {
        let n = self.replicas.len();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = next;
            let mut queue = vec![start];
            while let Some(a) = queue.pop() {
                for b in 0..n {
                    if comp[b] == usize::MAX && self.topology.linked(a, b) {
                        comp[b] = next;
                        queue.push(b);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Opens every topology link that is up and not yet open.
    fn connect(&mut self) {
        for node in 0..self.replicas.len() {
            for peer in self.topology.links(node) {
                if self.topology.linked(node, peer) && !self.links[node].contains_key(&peer) {
                    self.links[node].insert(peer, SyncLink::open(&self.replicas[node]));
                    self.send(node, peer);
                }
            }
        }
        self.changed = true;
    }

    /// Announces `docs`, which `node` just gained, on the links the
    /// topology's relay rule picks: `from` is the peer they came from,
    /// `None` for a local edit.
    fn relay(&mut self, node: NodeId, docs: &[DocId], from: Option<NodeId>) {
        for peer in self.topology.relay_targets(node, from) {
            if let Some(link) = self.links[node].get_mut(&peer) {
                link.local_change(&self.replicas[node], Some(docs));
                self.send(node, peer);
            }
        }
        self.changed = true;
    }

    /// Hands the frames `src`'s link to `dst` has queued to the
    /// transport, counting them.
    fn send(&mut self, src: NodeId, dst: NodeId) {
        let Some(link) = self.links[src].get_mut(&dst) else {
            return;
        };
        while let Some(frame) = link.poll_outgoing() {
            let body = frame.get(FRAME_HEADER_LEN..).unwrap_or_default();
            let stats = &mut self.stats;
            stats.sent += 1;
            stats.bytes += frame.len();
            if is_bundle_body(body) {
                stats.bundle_bytes += frame.len();
            } else {
                stats.digest_bytes += frame.len();
            }
            if body.first() == Some(&TAG_RESET) {
                stats.resets += 1;
            }
            if self.transport.send(self.now, src, dst, frame) == SendOutcome::Dropped {
                stats.dropped += 1;
            }
        }
    }

    /// Hands one delivered frame to the link end it was sent to.
    fn deliver(&mut self, d: Delivery) {
        let Some(link) = self.links[d.dst].get_mut(&d.src) else {
            return;
        };
        let body = d.payload.get(FRAME_HEADER_LEN..).unwrap_or_default();
        match link.on_frame(&mut self.replicas[d.dst], body) {
            Ok(docs) => {
                self.stats.delivered += 1;
                self.send(d.dst, d.src);
                if !docs.is_empty() {
                    self.relay(d.dst, &docs, Some(d.src));
                }
            }
            Err(_) => self.stats.corrupt_dropped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_broadcast_converges() {
        let mut net = NetworkSim::new(&["a", "b", "c"], 7);
        net.edit_insert(0, DocId::DEFAULT, 0, "alpha ");
        net.edit_insert(1, DocId::DEFAULT, 0, "bravo ");
        net.edit_insert(2, DocId::DEFAULT, 0, "charlie ");
        assert!(net.run_until_quiescent(1000));
        let text = net.replica(0).text(DocId::DEFAULT);
        assert_eq!(text.len(), "alpha bravo charlie ".len());
        for i in 1..3 {
            assert_eq!(net.replica(i).text(DocId::DEFAULT), text);
        }
    }

    #[test]
    fn lossy_network_repaired_by_anti_entropy() {
        let link = LinkConfig {
            min_delay: 1,
            max_delay: 5,
            drop_per_mille: 400,
        };
        let mut net = NetworkSim::with_link(&["a", "b", "c", "d"], 99, link);
        for round in 0..20 {
            let who = round % 4;
            let len = net.replica(who).len_chars(DocId::DEFAULT);
            net.edit_insert(who, DocId::DEFAULT, len / 2, "xy");
        }
        assert!(net.run_until_quiescent(10_000));
        assert!(net.stats().dropped > 0, "seed should exercise loss");
        assert!(net.all_converged());
    }

    #[test]
    fn partition_then_heal() {
        let mut net = NetworkSim::new(&["a", "b", "c", "d"], 3);
        net.edit_insert(0, DocId::DEFAULT, 0, "base ");
        assert!(net.run_until_quiescent(1000));

        net.partition(&[&[0, 1], &[2, 3]]);
        net.edit_insert(0, DocId::DEFAULT, 0, "left ");
        net.edit_insert(2, DocId::DEFAULT, 0, "right ");
        assert!(net.run_until_quiescent(1000));
        // Sides diverged.
        assert_ne!(
            net.replica(0).text(DocId::DEFAULT),
            net.replica(2).text(DocId::DEFAULT)
        );
        assert_eq!(
            net.replica(0).text(DocId::DEFAULT),
            net.replica(1).text(DocId::DEFAULT)
        );
        assert_eq!(
            net.replica(2).text(DocId::DEFAULT),
            net.replica(3).text(DocId::DEFAULT)
        );

        net.heal();
        assert!(net.run_until_quiescent(1000));
        let text = net.replica(0).text(DocId::DEFAULT);
        assert!(text.contains("left ") && text.contains("right "));
        for i in 1..4 {
            assert_eq!(net.replica(i).text(DocId::DEFAULT), text);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let link = LinkConfig {
                min_delay: 1,
                max_delay: 9,
                drop_per_mille: 150,
            };
            let mut net = NetworkSim::with_link(&["a", "b", "c"], seed, link);
            for i in 0..15 {
                net.edit_insert(i % 3, DocId::DEFAULT, 0, "ab");
                if i % 4 == 3 {
                    net.tick();
                }
            }
            assert!(net.run_until_quiescent(10_000));
            net.replica(0).text(DocId::DEFAULT)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn byte_accounting_splits_digest_and_bundle_traffic() {
        let link = LinkConfig {
            min_delay: 1,
            max_delay: 4,
            drop_per_mille: 350,
        };
        let mut net = NetworkSim::with_link(&["a", "b", "c"], 1234, link);
        for i in 0..20 {
            net.edit_insert(i % 3, DocId::DEFAULT, 0, "abc");
        }
        assert!(net.run_until_quiescent(10_000));
        let s = net.stats();
        assert_eq!(s.bytes, s.digest_bytes + s.bundle_bytes);
        assert!(s.bundle_bytes > 0);
        // The lossy run must have needed a reset.
        assert!(s.resets > 0);
        assert!(s.digest_bytes > 0);
    }

    #[test]
    fn multi_doc_edits_replicate_per_shard() {
        let mut net = NetworkSim::new(&["a", "b"], 5);
        net.edit_insert(0, DocId(1), 0, "one");
        net.edit_insert(1, DocId(2), 0, "two");
        assert!(net.run_until_quiescent(1000));
        for i in 0..2 {
            assert_eq!(net.replica(i).text(DocId(1)), "one");
            assert_eq!(net.replica(i).text(DocId(2)), "two");
        }
    }
}
