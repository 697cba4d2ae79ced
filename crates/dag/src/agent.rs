//! [`AgentAssignment`]: the mapping between local versions and globally
//! unique event IDs `(replica, sequence number)` (paper §3.8).

use crate::LV;
use eg_rle::{DTRange, HasLength, KVPair, MergableSpan, RleVec, SplitableSpan};
use std::collections::HashMap;

/// A compact per-replica agent identifier, interned by [`AgentAssignment`].
pub type AgentId = u32;

/// A globally unique event identifier: a replica name plus a per-replica
/// sequence number.
///
/// This is the form in which event references cross the network; locally
/// they are translated to [`LV`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RemoteId {
    /// The replica (agent) that generated the event.
    pub agent: String,
    /// The agent's sequence number for the event (0-based, dense).
    pub seq: usize,
}

/// A run of consecutive sequence numbers from one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentSpan {
    /// The interned agent.
    pub agent: AgentId,
    /// The covered sequence numbers.
    pub seq_range: DTRange,
}

impl HasLength for AgentSpan {
    fn len(&self) -> usize {
        self.seq_range.len()
    }
}

impl SplitableSpan for AgentSpan {
    fn truncate(&mut self, at: usize) -> Self {
        AgentSpan {
            agent: self.agent,
            seq_range: self.seq_range.truncate(at),
        }
    }
}

impl MergableSpan for AgentSpan {
    fn can_append(&self, other: &Self) -> bool {
        self.agent == other.agent && self.seq_range.can_append(&other.seq_range)
    }

    fn append(&mut self, other: Self) {
        self.seq_range.append(other.seq_range);
    }
}

/// Bidirectional RLE mapping between LVs and `(agent, seq)` event IDs.
///
/// Each agent's sequence numbers are dense from 0. Because people type in
/// runs, both directions collapse to a handful of entries in practice.
#[derive(Debug, Clone, Default)]
pub struct AgentAssignment {
    names: Vec<String>,
    by_name: HashMap<String, AgentId>,
    /// Per agent: seq range → LV range, sorted by seq.
    client_data: Vec<RleVec<KVPair<DTRange>>>,
    /// LV range → agent span, sorted by LV. Covers every assigned LV.
    lv_map: RleVec<KVPair<AgentSpan>>,
}

impl AgentAssignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an agent name, returning its compact ID.
    pub fn get_or_create_agent(&mut self, name: &str) -> AgentId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as AgentId;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.client_data.push(RleVec::new());
        id
    }

    /// Looks up an agent by name without creating it.
    pub fn agent_id(&self, name: &str) -> Option<AgentId> {
        self.by_name.get(name).copied()
    }

    /// The name of an interned agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` was not created by this assignment.
    pub fn agent_name(&self, agent: AgentId) -> &str {
        &self.names[agent as usize]
    }

    /// The number of interned agents.
    pub fn num_agents(&self) -> usize {
        self.names.len()
    }

    /// The total number of assigned LVs.
    pub fn len(&self) -> usize {
        self.lv_map.end_key()
    }

    /// Returns `true` if no LVs have been assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next unused sequence number for `agent`.
    pub(crate) fn next_seq_for(&self, agent: AgentId) -> usize {
        self.client_data[agent as usize].end_key()
    }

    /// Assigns the next sequence numbers of `agent` to the LV range `lvs`.
    ///
    /// Returns the assigned sequence range.
    pub fn assign_next(&mut self, agent: AgentId, lvs: DTRange) -> DTRange {
        let seq_start = self.next_seq_for(agent);
        let seqs: DTRange = (seq_start..seq_start + lvs.len()).into();
        self.assign_at(agent, seqs, lvs);
        seqs
    }

    /// Records that `agent`'s sequence numbers `seqs` correspond to the LV
    /// range `lvs` (used when ingesting remote events).
    ///
    /// # Panics
    ///
    /// Panics if the ranges have different lengths, if `lvs` does not append
    /// densely to the assigned LVs, or if any of `seqs` is already assigned.
    pub fn assign_at(&mut self, agent: AgentId, seqs: DTRange, lvs: DTRange) {
        assert_eq!(seqs.len(), lvs.len());
        assert_eq!(lvs.start, self.len(), "LV assignment must be dense");
        let data = &mut self.client_data[agent as usize];
        assert!(
            seqs.start >= data.end_key(),
            "agent sequence numbers must be assigned in order"
        );
        data.push(KVPair(seqs.start, lvs));
        self.lv_map.push(KVPair(
            lvs.start,
            AgentSpan {
                agent,
                seq_range: seqs,
            },
        ));
    }

    /// Maps an LV to its event ID, returning the containing run.
    ///
    /// The returned span starts *at* `lv` (trimmed).
    pub fn lv_to_agent_span(&self, lv: LV) -> AgentSpan {
        let (pair, offset) = self.lv_map.find_with_offset(lv).expect("LV not assigned");
        AgentSpan {
            agent: pair.1.agent,
            seq_range: pair.1.seq_range.suffix(offset),
        }
    }

    /// Maps an LV to a [`RemoteId`].
    pub fn lv_to_remote(&self, lv: LV) -> RemoteId {
        let span = self.lv_to_agent_span(lv);
        RemoteId {
            agent: self.agent_name(span.agent).to_string(),
            seq: span.seq_range.start,
        }
    }

    /// Maps an `(agent, seq)` pair to its LV, if assigned.
    pub fn try_remote_to_lv(&self, agent: AgentId, seq: usize) -> Option<LV> {
        let data = self.client_data.get(agent as usize)?;
        let (pair, offset) = data.find_with_offset(seq)?;
        Some(pair.1.start + offset)
    }

    /// Classifies `seq` for `agent` together with its run extent:
    /// `Ok((lv, len))` when assigned — `lv` is the event's LV and `len`
    /// how many consecutive sequence numbers from `seq` stay inside the
    /// same assigned run — or `Err(gap)` when unassigned, where `gap` is
    /// the number of consecutive unassigned sequence numbers starting at
    /// `seq` (`usize::MAX` when nothing later is assigned).
    ///
    /// Bundle ingestion uses this to classify whole runs as duplicate or
    /// new with one binary search instead of probing every event.
    pub fn seq_extent(&self, agent: AgentId, seq: usize) -> Result<(LV, usize), usize> {
        let Some(data) = self.client_data.get(agent as usize) else {
            return Err(usize::MAX);
        };
        match data.find_index(seq) {
            Ok(idx) => {
                let pair = &data.0[idx];
                let offset = seq - pair.0;
                Ok((pair.1.start + offset, pair.1.len() - offset))
            }
            Err(idx) => match data.0.get(idx) {
                Some(next) => Err(next.0 - seq),
                None => Err(usize::MAX),
            },
        }
    }

    /// Maps a [`RemoteId`] to its LV, if known.
    pub fn remote_id_to_lv(&self, id: &RemoteId) -> Option<LV> {
        let agent = self.agent_id(&id.agent)?;
        self.try_remote_to_lv(agent, id.seq)
    }

    /// The LV of the latest assigned event of `agent` with sequence number
    /// at most `seq`, or `None` if nothing that early is assigned.
    ///
    /// This is the sound interpretation of a peer's claim to hold
    /// `(agent, seq)`: an agent's events form a causal chain, so a peer
    /// holding sequence `seq` holds every earlier one — clamping to what
    /// is assigned locally never credits the peer with an event it lacks.
    pub fn latest_lv_at_or_below(&self, agent: AgentId, seq: usize) -> Option<LV> {
        let data = self.client_data.get(agent as usize)?;
        if data.end_key() == 0 {
            return None;
        }
        let seq = seq.min(data.end_key() - 1);
        match data.find_index(seq) {
            Ok(idx) => {
                let pair = &data.0[idx];
                Some(pair.1.start + (seq - pair.0))
            }
            // In a gap between runs: the last LV of the preceding run.
            Err(idx) => {
                let prev = &data.0[idx.checked_sub(1)?];
                Some(prev.1.start + prev.1.len() - 1)
            }
        }
    }

    /// The per-agent maximum sequence numbers, as remote IDs: a version
    /// vector. Because each agent's events form a causal chain, these
    /// maxima describe *everything* this assignment holds — unlike
    /// causal-frontier tips, which omit every agent that is not a tip.
    pub fn version_vector(&self) -> Vec<RemoteId> {
        self.client_data
            .iter()
            .enumerate()
            .filter_map(|(i, data)| {
                let end = data.end_key();
                if end == 0 {
                    return None;
                }
                Some(RemoteId {
                    agent: self.names[i].clone(),
                    seq: end - 1,
                })
            })
            .collect()
    }

    /// Returns `true` if this assignment knows the given remote event.
    pub fn knows(&self, id: &RemoteId) -> bool {
        self.remote_id_to_lv(id).is_some()
    }

    /// Iterates the LV → agent-span runs in LV order.
    pub fn iter_lv_map(&self) -> impl Iterator<Item = &KVPair<AgentSpan>> {
        self.lv_map.iter()
    }

    /// The LV → agent-span runs from the one holding `lv` on (untrimmed:
    /// the first may start before `lv`); empty when `lv` is unassigned.
    pub fn lv_spans_from(&self, lv: LV) -> &[KVPair<AgentSpan>] {
        self.lv_map.entries_from(lv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning() {
        let mut a = AgentAssignment::new();
        let x = a.get_or_create_agent("alice");
        let y = a.get_or_create_agent("bob");
        assert_ne!(x, y);
        assert_eq!(a.get_or_create_agent("alice"), x);
        assert_eq!(a.agent_name(y), "bob");
        assert_eq!(a.agent_id("carol"), None);
        assert_eq!(a.num_agents(), 2);
    }

    #[test]
    fn assign_and_lookup() {
        let mut a = AgentAssignment::new();
        let alice = a.get_or_create_agent("alice");
        let bob = a.get_or_create_agent("bob");
        let s = a.assign_next(alice, (0..10).into());
        assert_eq!(s, (0..10).into());
        let s = a.assign_next(bob, (10..15).into());
        assert_eq!(s, (0..5).into());
        let s = a.assign_next(alice, (15..20).into());
        assert_eq!(s, (10..15).into());

        assert_eq!(a.len(), 20);
        let span = a.lv_to_agent_span(12);
        assert_eq!(span.agent, bob);
        assert_eq!(span.seq_range, (2..5).into());
        assert_eq!(
            a.lv_to_remote(17),
            RemoteId {
                agent: "alice".into(),
                seq: 12
            }
        );
        // A cursor from mid-run starts at the (untrimmed) run holding it.
        let from = a.lv_spans_from(12);
        assert_eq!(from.iter().map(|s| s.0).collect::<Vec<_>>(), [10, 15]);
        assert_eq!(a.lv_spans_from(0).len(), 3);
        assert!(a.lv_spans_from(20).is_empty());
        assert_eq!(a.try_remote_to_lv(alice, 3), Some(3));
        assert_eq!(a.try_remote_to_lv(alice, 12), Some(17));
        assert_eq!(a.try_remote_to_lv(bob, 4), Some(14));
        assert_eq!(a.try_remote_to_lv(bob, 5), None);
        assert!(a.knows(&RemoteId {
            agent: "bob".into(),
            seq: 0
        }));
        assert!(!a.knows(&RemoteId {
            agent: "carol".into(),
            seq: 0
        }));
    }

    #[test]
    fn seq_extent_classifies_runs() {
        let mut a = AgentAssignment::new();
        let alice = a.get_or_create_agent("alice");
        let bob = a.get_or_create_agent("bob");
        a.assign_next(alice, (0..10).into());
        a.assign_next(bob, (10..15).into());
        a.assign_at(alice, (20..25).into(), (15..20).into());

        // Inside the first alice run, from an interior offset.
        assert_eq!(a.seq_extent(alice, 3), Ok((3, 7)));
        // In the gap between alice's runs: 10 unassigned seqs (10..20).
        assert_eq!(a.seq_extent(alice, 10), Err(10));
        assert_eq!(a.seq_extent(alice, 19), Err(1));
        // Inside the second (remote-assigned) run.
        assert_eq!(a.seq_extent(alice, 22), Ok((17, 3)));
        // Past everything assigned.
        assert_eq!(a.seq_extent(alice, 25), Err(usize::MAX));
        assert_eq!(a.seq_extent(bob, 5), Err(usize::MAX));
        // An agent id never interned.
        assert_eq!(a.seq_extent(99, 0), Err(usize::MAX));
    }

    #[test]
    fn version_vector_and_clamped_lookup() {
        let mut a = AgentAssignment::new();
        let alice = a.get_or_create_agent("alice");
        let bob = a.get_or_create_agent("bob");
        let carol = a.get_or_create_agent("carol"); // interned, nothing assigned
        a.assign_next(alice, (0..10).into());
        a.assign_next(bob, (10..15).into());
        a.assign_at(alice, (20..25).into(), (15..20).into());

        let vv = a.version_vector();
        assert_eq!(
            vv,
            vec![
                RemoteId {
                    agent: "alice".into(),
                    seq: 24
                },
                RemoteId {
                    agent: "bob".into(),
                    seq: 4
                },
            ]
        );

        // Exact hits.
        assert_eq!(a.latest_lv_at_or_below(alice, 3), Some(3));
        assert_eq!(a.latest_lv_at_or_below(bob, 4), Some(14));
        // Clamped past the end of what is assigned.
        assert_eq!(a.latest_lv_at_or_below(alice, 1000), Some(19));
        assert_eq!(a.latest_lv_at_or_below(bob, 5), Some(14));
        // Inside the 10..20 gap of alice's seqs: last LV of the run below.
        assert_eq!(a.latest_lv_at_or_below(alice, 12), Some(9));
        // Agents with no assigned events.
        assert_eq!(a.latest_lv_at_or_below(carol, 0), None);
        assert_eq!(a.latest_lv_at_or_below(99, 7), None);
    }

    #[test]
    fn runs_merge() {
        let mut a = AgentAssignment::new();
        let alice = a.get_or_create_agent("alice");
        a.assign_next(alice, (0..5).into());
        a.assign_next(alice, (5..9).into());
        // Both directions should have merged into single runs.
        assert_eq!(a.iter_lv_map().count(), 1);
        assert_eq!(a.lv_to_agent_span(0).seq_range, (0..9).into());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_lv_panics() {
        let mut a = AgentAssignment::new();
        let alice = a.get_or_create_agent("alice");
        a.assign_at(alice, (0..3).into(), (5..8).into());
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_seq_panics() {
        let mut a = AgentAssignment::new();
        let alice = a.get_or_create_agent("alice");
        a.assign_at(alice, (5..8).into(), (0..3).into());
        a.assign_at(alice, (0..3).into(), (3..6).into());
    }
}
