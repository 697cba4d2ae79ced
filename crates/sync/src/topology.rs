//! [`Topology`]: who talks to whom, and how information spreads.
//!
//! The event-graph model makes sync composable — any replica can ship any
//! subset of events to any other (paper §2) — so the *shape* of the
//! network is policy, not architecture. A shape decides two things:
//!
//! 1. **Links** — which peers a node keeps a [`crate::SyncLink`] to;
//! 2. **Relaying** — which of those links hear about events a node
//!    gained (locally, or from a peer).
//!
//! There are two: [`Shape::Mesh`] (full-mesh p2p: everyone pushes their
//! own edits to everyone, O(n²) links) and [`Shape::Star`] (server relay:
//! leaves talk only to hub node 0, which forwards, O(n) links).
//! Partitions are an overlay on either: nodes in different groups stop
//! being linked until [`Topology::heal`].

use crate::transport::NodeId;

/// The hub of a star.
const HUB: NodeId = 0;

/// The link structure and relay rule of a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Every node links to every other and pushes its own edits to all
    /// of them, so nothing is relayed on receive.
    Mesh,
    /// Every leaf links only to node 0, the hub. Local edits at a leaf go
    /// to the hub, and the hub relays everything it learns to every
    /// other leaf: a relay deployment, with the fan-out at the server.
    Star,
}

/// A [`Shape`] over `n` nodes with a partition overlay.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    shape: Shape,
    /// Each node's partition group; frames only pass within a group.
    groups: Vec<u32>,
}

impl Topology {
    /// `shape` over `n` nodes, unpartitioned.
    pub fn new(shape: Shape, n: usize) -> Self {
        Topology {
            shape,
            groups: vec![0; n],
        }
    }

    /// Whether the shape has an edge between `a` and `b`.
    fn edge(&self, a: NodeId, b: NodeId) -> bool {
        a != b && (self.shape == Shape::Mesh || a == HUB || b == HUB)
    }

    /// The peers `node` keeps links to (its edges, ignoring any active
    /// partition).
    pub fn links(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.groups.len()).filter(move |&j| self.edge(node, j))
    }

    /// Whether a frame can pass directly between `a` and `b` right now
    /// (an edge *and* the same partition group).
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.edge(a, b) && self.groups[a] == self.groups[b]
    }

    /// The peers to tell when `node` gains new events. `from` is the peer
    /// that delivered them, or `None` for local edits.
    pub fn relay_targets(&self, node: NodeId, from: Option<NodeId>) -> Vec<NodeId> {
        let relays = from.is_none() || (self.shape == Shape::Star && node == HUB);
        if !relays {
            return Vec::new();
        }
        self.links(node).filter(|&j| Some(j) != from).collect()
    }

    /// Splits the nodes into partition groups; unlisted nodes keep group
    /// 0.
    pub fn set_partition(&mut self, groups: &[&[NodeId]]) {
        self.heal();
        for (gi, members) in groups.iter().enumerate() {
            for &m in *members {
                self.groups[m] = gi as u32;
            }
        }
    }

    /// Removes all partitions.
    pub fn heal(&mut self) {
        self.groups.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(t: &Topology, node: NodeId) -> Vec<NodeId> {
        t.links(node).collect()
    }

    #[test]
    fn mesh_links_everyone() {
        let m = Topology::new(Shape::Mesh, 4);
        assert_eq!(links(&m, 1), vec![0, 2, 3]);
        assert!(m.linked(0, 3));
        assert!(!m.linked(2, 2));
        assert_eq!(m.relay_targets(0, None), vec![1, 2, 3]);
        assert!(m.relay_targets(0, Some(1)).is_empty());
    }

    #[test]
    fn mesh_partition_blocks_cross_group() {
        let mut m = Topology::new(Shape::Mesh, 4);
        m.set_partition(&[&[0, 1], &[2, 3]]);
        assert!(m.linked(0, 1));
        assert!(!m.linked(1, 2));
        m.heal();
        assert!(m.linked(1, 2));
    }

    #[test]
    fn star_links_through_hub_only() {
        let s = Topology::new(Shape::Star, 4);
        assert_eq!(links(&s, 0), vec![1, 2, 3]);
        assert_eq!(links(&s, 2), vec![0]);
        assert!(s.linked(0, 2));
        assert!(!s.linked(1, 2), "leaves must not talk directly");
    }

    #[test]
    fn star_hub_relays_except_to_source() {
        let s = Topology::new(Shape::Star, 4);
        assert_eq!(s.relay_targets(0, Some(2)), vec![1, 3]);
        assert_eq!(s.relay_targets(0, None), vec![1, 2, 3]);
        assert_eq!(s.relay_targets(2, None), vec![0]);
        assert!(s.relay_targets(2, Some(0)).is_empty());
    }

    #[test]
    fn star_partition_isolates_hubless_leaves() {
        let mut s = Topology::new(Shape::Star, 5);
        s.set_partition(&[&[0, 1, 2], &[3, 4]]);
        assert!(s.linked(0, 1));
        assert!(!s.linked(0, 3));
        // Leaves 3 and 4 share a group but have no hub: not linked.
        assert!(!s.linked(3, 4));
    }
}
