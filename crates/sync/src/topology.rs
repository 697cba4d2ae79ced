//! The [`Topology`] seam: who talks to whom, and how information spreads.
//!
//! The event-graph model makes sync composable — any replica can ship any
//! subset of events to any other (paper §2) — so the *shape* of the
//! network is policy, not architecture. A topology decides two things:
//!
//! 1. **Links** — which peers a node keeps a [`crate::SyncLink`] to;
//! 2. **Relaying** — which of those links hear about events a node
//!    gained (locally, or from a peer).
//!
//! Two implementations ship: [`Mesh`] (full-mesh p2p: everyone pushes
//! their own edits to everyone, O(n²) links) and [`Star`] (server relay:
//! leaves talk only to a hub, which forwards, O(n) links). Partitions are
//! an overlay on either: nodes in different groups stop being linked
//! until [`Topology::heal`].
//!
//! To add a topology, implement the trait: `links` defines the link
//! graph and `relay_targets` the gossip rule (return the peers that
//! should hear about events `node` just gained, given where they came
//! from). The engine handles everything else (digests, marks, delivery,
//! convergence).

use crate::transport::NodeId;

/// A network shape: link structure and relay rule, with a partition
/// overlay.
pub trait Topology: std::fmt::Debug {
    /// The number of nodes.
    fn len(&self) -> usize;

    /// Returns `true` if the topology has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The peers `node` keeps links to (its edges, ignoring any active
    /// partition).
    fn links(&self, node: NodeId) -> Vec<NodeId>;

    /// Whether a message can pass directly between `a` and `b` right now
    /// (requires an edge *and* the same partition group).
    fn linked(&self, a: NodeId, b: NodeId) -> bool;

    /// The peers to tell when `node` gains new events. `from` is the peer
    /// that delivered them, or `None` for local edits.
    fn relay_targets(&self, node: NodeId, from: Option<NodeId>) -> Vec<NodeId>;

    /// Splits the nodes into partition groups; unlisted nodes keep group
    /// 0. Messages only pass within a group.
    fn set_partition(&mut self, groups: &[&[NodeId]]);

    /// Removes all partitions.
    fn heal(&mut self);
}

/// The partition overlay shared by the built-in topologies.
#[derive(Debug, Clone)]
struct Groups(Vec<u32>);

impl Groups {
    fn new(n: usize) -> Self {
        Groups(vec![0; n])
    }

    fn same(&self, a: NodeId, b: NodeId) -> bool {
        self.0[a] == self.0[b]
    }

    fn set(&mut self, groups: &[&[NodeId]]) {
        for g in self.0.iter_mut() {
            *g = 0;
        }
        for (gi, members) in groups.iter().enumerate() {
            for &m in *members {
                self.0[m] = gi as u32;
            }
        }
    }

    fn heal(&mut self) {
        for g in self.0.iter_mut() {
            *g = 0;
        }
    }
}

/// Full-mesh peer-to-peer: every node links to every other.
///
/// Each node pushes its own edits directly to all peers, so nothing is
/// relayed on receive.
#[derive(Debug, Clone)]
pub struct Mesh {
    groups: Groups,
}

impl Mesh {
    /// A full mesh over `n` nodes.
    pub fn new(n: usize) -> Self {
        Mesh {
            groups: Groups::new(n),
        }
    }
}

impl Topology for Mesh {
    fn len(&self) -> usize {
        self.groups.0.len()
    }

    fn links(&self, node: NodeId) -> Vec<NodeId> {
        (0..self.len()).filter(|&j| j != node).collect()
    }

    fn linked(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.groups.same(a, b)
    }

    fn relay_targets(&self, node: NodeId, from: Option<NodeId>) -> Vec<NodeId> {
        match from {
            // Local edits go straight to every peer; received events came
            // from a peer who is already pushing to everyone.
            None => self.links(node),
            Some(_) => Vec::new(),
        }
    }

    fn set_partition(&mut self, groups: &[&[NodeId]]) {
        self.groups.set(groups);
    }

    fn heal(&mut self) {
        self.groups.heal();
    }
}

/// Star / server-relay: every leaf links only to a hub, which forwards.
///
/// Local edits at a leaf go to the hub; the hub relays everything it
/// learns to every other spoke. This keeps the link count at O(n) and
/// concentrates fan-out at the server, like a relay deployment.
#[derive(Debug, Clone)]
pub struct Star {
    hub: NodeId,
    groups: Groups,
}

impl Star {
    /// A star over `n` nodes with `hub` at the centre.
    pub fn new(n: usize, hub: NodeId) -> Self {
        assert!(hub < n, "hub out of range");
        Star {
            hub,
            groups: Groups::new(n),
        }
    }
}

impl Topology for Star {
    fn len(&self) -> usize {
        self.groups.0.len()
    }

    fn links(&self, node: NodeId) -> Vec<NodeId> {
        if node == self.hub {
            (0..self.len()).filter(|&j| j != self.hub).collect()
        } else {
            vec![self.hub]
        }
    }

    fn linked(&self, a: NodeId, b: NodeId) -> bool {
        a != b && (a == self.hub || b == self.hub) && self.groups.same(a, b)
    }

    fn relay_targets(&self, node: NodeId, from: Option<NodeId>) -> Vec<NodeId> {
        if node == self.hub {
            // The hub forwards everything to every other spoke.
            (0..self.len())
                .filter(|&j| j != self.hub && Some(j) != from)
                .collect()
        } else if from.is_none() {
            vec![self.hub]
        } else {
            Vec::new()
        }
    }

    fn set_partition(&mut self, groups: &[&[NodeId]]) {
        self.groups.set(groups);
    }

    fn heal(&mut self) {
        self.groups.heal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_links_everyone() {
        let m = Mesh::new(4);
        assert_eq!(m.links(1), vec![0, 2, 3]);
        assert!(m.linked(0, 3));
        assert!(!m.linked(2, 2));
        assert_eq!(m.relay_targets(0, None), vec![1, 2, 3]);
        assert!(m.relay_targets(0, Some(1)).is_empty());
    }

    #[test]
    fn mesh_partition_blocks_cross_group() {
        let mut m = Mesh::new(4);
        m.set_partition(&[&[0, 1], &[2, 3]]);
        assert!(m.linked(0, 1));
        assert!(!m.linked(1, 2));
        m.heal();
        assert!(m.linked(1, 2));
    }

    #[test]
    fn star_links_through_hub_only() {
        let s = Star::new(4, 0);
        assert_eq!(s.links(0), vec![1, 2, 3]);
        assert_eq!(s.links(2), vec![0]);
        assert!(s.linked(0, 2));
        assert!(!s.linked(1, 2), "leaves must not talk directly");
    }

    #[test]
    fn star_hub_relays_except_to_source() {
        let s = Star::new(4, 0);
        assert_eq!(s.relay_targets(0, Some(2)), vec![1, 3]);
        assert_eq!(s.relay_targets(0, None), vec![1, 2, 3]);
        assert_eq!(s.relay_targets(2, None), vec![0]);
        assert!(s.relay_targets(2, Some(0)).is_empty());
    }

    #[test]
    fn star_partition_isolates_hubless_leaves() {
        let mut s = Star::new(5, 0);
        s.set_partition(&[&[0, 1, 2], &[3, 4]]);
        assert!(s.linked(0, 1));
        assert!(!s.linked(0, 3));
        // Leaves 3 and 4 share a group but have no hub: not linked.
        assert!(!s.linked(3, 4));
    }
}
