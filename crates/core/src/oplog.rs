//! [`OpLog`]: the durable state of a replica — the event graph plus each
//! event's operation and inserted content (paper §3: "Event graph").

use crate::content::ContentArena;
use crate::op::{ListOpKind, OpRun};
use eg_dag::{AgentAssignment, AgentId, Frontier, Graph, RemoteId, LV};
use eg_rle::{DTRange, HasLength, KVPair, RleVec, SplitableSpan};
use std::sync::atomic::{AtomicU64, Ordering};

/// The append-only log of editing events: who did what, where, and after
/// which version.
///
/// The oplog is the only state Eg-walker persists (besides an optional
/// cached copy of the document text). Everything else — CRDT records,
/// B-trees, transformed operations — is derived transiently during merges
/// and discarded (paper §3, §3.5).
///
/// # Examples
///
/// ```
/// use egwalker::OpLog;
/// let mut oplog = OpLog::new();
/// let alice = oplog.get_or_create_agent("alice");
/// oplog.add_insert(alice, 0, "Helo!");
/// oplog.add_insert(alice, 3, "l");
/// let doc = oplog.checkout_tip();
/// assert_eq!(doc.content.to_string(), "Hello!");
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// The causal DAG over events.
    pub graph: Graph,
    /// LV ↔ (agent, seq) mapping.
    pub agents: AgentAssignment,
    /// Run-length encoded operations, keyed by LV.
    pub(crate) ops: RleVec<KVPair<OpRun>>,
    /// Every inserted character, in LV order of the insert events, stored
    /// as one UTF-8 arena addressed by char index (see
    /// [`crate::content::ContentArena`]).
    pub(crate) ins_content: ContentArena,
    /// Reused parent-LV buffer for bundle-run ingestion
    /// ([`crate::bundle::RunView`] application runs once per run of a
    /// segment-store open and must not allocate).
    pub(crate) parents_scratch: Vec<LV>,
    /// Which oplog this is, for state derived from it.
    pub(crate) id: LogId,
}

/// Tells oplogs apart, so that a tracker left live by a merge on one log
/// is never resumed on another, whose LVs name other events. Every new
/// oplog draws a fresh value, and so does every clone: a clone may diverge
/// from its original.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LogId(pub(crate) u64);

impl Default for LogId {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        // Relaxed: the value publishes no other data, and no two
        // `fetch_add`s return the same one whatever the ordering.
        LogId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for LogId {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl OpLog {
    /// Creates an empty oplog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an agent (replica) name.
    pub fn get_or_create_agent(&mut self, name: &str) -> AgentId {
        self.agents.get_or_create_agent(name)
    }

    /// The number of events (single-character operations) in the log.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Returns `true` if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The current version: the frontier of the whole event graph.
    pub fn version(&self) -> &Frontier {
        self.graph.frontier()
    }

    /// Appends an op run, merging it into the previous run only when the
    /// new events directly chain onto the previous event in the graph.
    /// (Positionally mergeable ops from *different branches* — e.g. two
    /// concurrent `Delete(3)`s — must stay separate runs: a merged delete
    /// run means "press Delete n times in a row", which is a different
    /// operation.)
    pub(crate) fn push_op(&mut self, lvs: DTRange, run: OpRun, parents: &[LV]) {
        let chains = lvs.start > 0 && parents == [lvs.start - 1];
        if chains {
            self.ops.push(KVPair(lvs.start, run));
        } else {
            self.ops.0.push(KVPair(lvs.start, run));
        }
    }

    /// Adds a run of insertions at the current version.
    ///
    /// Returns the LV range of the new events.
    pub fn add_insert(&mut self, agent: AgentId, pos: usize, text: &str) -> DTRange {
        let parents = self.version().clone();
        self.add_insert_at(agent, &parents, pos, text)
    }

    /// Adds a run of insertions parented at an explicit version.
    pub fn add_insert_at(
        &mut self,
        agent: AgentId,
        parents: &[LV],
        pos: usize,
        text: &str,
    ) -> DTRange {
        let content = self.ins_content.push_str(text);
        assert!(!content.is_empty(), "empty insert");
        let start = self.len();
        let lvs: DTRange = (start..start + content.len()).into();
        self.push_op(
            lvs,
            OpRun {
                kind: ListOpKind::Ins,
                loc: (pos..pos + lvs.len()).into(),
                fwd: true,
                content: Some(content),
            },
            parents,
        );
        self.graph.push(parents, lvs);
        self.agents.assign_next(agent, lvs);
        lvs
    }

    /// Adds a run of forward deletions (Delete key) at the current version:
    /// deletes the characters at `[pos, pos + len)`.
    pub fn add_delete(&mut self, agent: AgentId, pos: usize, len: usize) -> DTRange {
        let parents = self.version().clone();
        self.add_delete_at(agent, &parents, pos, len)
    }

    /// Adds a run of forward deletions parented at an explicit version.
    pub fn add_delete_at(
        &mut self,
        agent: AgentId,
        parents: &[LV],
        pos: usize,
        len: usize,
    ) -> DTRange {
        assert!(len > 0, "empty delete");
        let start = self.len();
        let lvs: DTRange = (start..start + len).into();
        self.push_op(
            lvs,
            OpRun {
                kind: ListOpKind::Del,
                loc: (pos..pos + len).into(),
                fwd: true,
                content: None,
            },
            parents,
        );
        self.graph.push(parents, lvs);
        self.agents.assign_next(agent, lvs);
        lvs
    }

    /// Adds a run of backward deletions (Backspace) ending at `pos`:
    /// deletes the characters at `[pos + 1 - len, pos + 1)`, highest first.
    pub fn add_backspace_at(
        &mut self,
        agent: AgentId,
        parents: &[LV],
        pos: usize,
        len: usize,
    ) -> DTRange {
        assert!(len > 0, "empty delete");
        assert!(pos + 1 >= len, "backspace past document start");
        let start = self.len();
        let lvs: DTRange = (start..start + len).into();
        self.push_op(
            lvs,
            OpRun {
                kind: ListOpKind::Del,
                loc: (pos + 1 - len..pos + 1).into(),
                fwd: len == 1,
                content: None,
            },
            parents,
        );
        self.graph.push(parents, lvs);
        self.agents.assign_next(agent, lvs);
        lvs
    }

    /// Reassembles an oplog from storage-image parts: a graph and agent
    /// assignment restored via their own parts constructors, the exact
    /// operation-run entries (as `(lv_start, run)` pairs, boundaries
    /// preserved — runs from different branches must *not* be re-merged),
    /// and the full content arena text.
    ///
    /// Every `Ins` run's `content` range must be the cumulative char
    /// range of the arena in run order — the invariant all ingest paths
    /// maintain, which lets the storage image omit content ranges
    /// entirely. Callers (the image decoder) are responsible for
    /// structural validation; this constructor only rebuilds the arena's
    /// char→byte index.
    pub fn from_image_parts(
        graph: Graph,
        agents: AgentAssignment,
        runs: Vec<KVPair<OpRun>>,
        content: &str,
    ) -> Self {
        debug_assert_eq!(graph.len(), agents.len());
        debug_assert_eq!(graph.len(), runs.iter().map(|r| r.1.len()).sum::<usize>());
        let mut ins_content = ContentArena::new();
        ins_content.push_str(content);
        OpLog {
            graph,
            agents,
            ops: RleVec(runs),
            ins_content,
            parents_scratch: Vec::new(),
            id: LogId::default(),
        }
    }

    /// The operation run starting at `lv`, trimmed to start there.
    pub fn op_at(&self, lv: LV) -> (DTRange, OpRun) {
        let (pair, offset) = self.ops.find_with_offset(lv).expect("LV out of range");
        let mut run = pair.1;
        if offset > 0 {
            run = run.truncate(offset);
        }
        ((lv..pair.0 + pair.1.len()).into(), run)
    }

    /// The stored operation runs from the one holding `lv` on (untrimmed:
    /// the first may start before `lv`); empty when `lv` is out of range.
    pub(crate) fn op_runs_from(&self, lv: LV) -> &[KVPair<OpRun>] {
        self.ops.entries_from(lv)
    }

    /// Iterates the (trimmed) operation runs covering an LV range.
    pub fn ops_in(&self, range: DTRange) -> impl Iterator<Item = (DTRange, OpRun)> + '_ {
        let mut lv = range.start;
        std::iter::from_fn(move || {
            if lv >= range.end {
                return None;
            }
            let (lvs, mut run) = self.op_at(lv);
            let mut lvs = lvs;
            if lvs.end > range.end {
                run.truncate(range.end - lv);
                lvs.end = range.end;
            }
            lv = lvs.end;
            Some((lvs, run))
        })
    }

    /// Iterates every stored operation run, whole and in LV order: what
    /// [`Self::ops_in`] yields over `0..len()`, without a search per run.
    pub fn op_runs(&self) -> impl ExactSizeIterator<Item = (DTRange, OpRun)> + '_ {
        self.ops
            .iter()
            .map(|pair| ((pair.0..pair.0 + pair.1.len()).into(), pair.1))
    }

    /// The single-character operation of one event: `(kind, index, char)`.
    pub fn unit_op(&self, lv: LV) -> (ListOpKind, usize, Option<char>) {
        let (pair, offset) = self.ops.find_with_offset(lv).expect("LV out of range");
        let run = &pair.1;
        let pos = run.unit_pos(offset);
        let c = run
            .content
            .map(|content| self.ins_content.char_at(content.start + offset));
        (run.kind, pos, c)
    }

    /// The inserted text for a char range of the content buffer, borrowed
    /// straight from the UTF-8 arena (no allocation).
    pub fn content_slice(&self, range: DTRange) -> &str {
        self.ins_content.slice(range)
    }

    /// Maps a local version to a globally unique [`RemoteId`].
    pub fn lv_to_remote(&self, lv: LV) -> RemoteId {
        self.agents.lv_to_remote(lv)
    }

    /// Maps a remote ID to the LV of the latest locally known event from
    /// the same agent with sequence number at most `id.seq`, or `None` if
    /// the agent is entirely unknown here. The sound reading of a peer's
    /// claim to hold `id` when the peer is ahead of us — see
    /// [`AgentAssignment::latest_lv_at_or_below`].
    ///
    /// [`AgentAssignment::latest_lv_at_or_below`]: eg_dag::AgentAssignment::latest_lv_at_or_below
    pub(crate) fn clamp_remote_to_lv(&self, id: &RemoteId) -> Option<LV> {
        let agent = self.agents.agent_id(&id.agent)?;
        self.agents.latest_lv_at_or_below(agent, id.seq)
    }

    /// The current version expressed as remote IDs (safe to send to peers).
    pub fn remote_version(&self) -> Vec<RemoteId> {
        self.version()
            .iter()
            .map(|&lv| self.lv_to_remote(lv))
            .collect()
    }

    /// The per-agent maximum sequence numbers, as remote IDs: a version
    /// vector (safe to send to peers).
    ///
    /// Prefer this over [`OpLog::remote_version`] for anti-entropy digests.
    /// Frontier tips under-describe the log to a peer whose history has
    /// diverged: a tip the peer has never seen tells it nothing about the
    /// tip's ancestry, so [`OpLog::bundle_since`] must fall back to
    /// re-sending events the digest sender already holds. Per-agent maxima
    /// stay meaningful under divergence because an agent's events form a
    /// causal chain — holding `(a, n)` implies holding every `(a, m ≤ n)`.
    pub fn version_vector(&self) -> Vec<RemoteId> {
        self.agents.version_vector()
    }

    /// Merges all events from `other` that this oplog does not know yet.
    ///
    /// This is the replication entry point used when two replicas exchange
    /// their logs (the "union of their sets of events", paper §2.2). Events
    /// are matched by `(agent, seq)`; LVs are remapped.
    ///
    /// Returns the range of newly assigned local LVs (possibly empty).
    pub fn merge_oplog(&mut self, other: &OpLog) -> DTRange {
        let first_new = self.len();
        // Map from other's LVs to ours, filled in other's (topological) LV
        // order.
        let mut map: Vec<LV> = Vec::with_capacity(other.len());
        let mut other_lv = 0;
        while other_lv < other.len() {
            let span = other.agents.lv_to_agent_span(other_lv);
            let agent_name = other.agents.agent_name(span.agent);
            let run_len = span.seq_range.len();
            // Split the run into known/unknown prefixes.
            let my_agent = self.get_or_create_agent(agent_name);
            let mut k = 0;
            while k < run_len {
                let seq = span.seq_range.start + k;
                if let Some(my_lv) = self.agents.try_remote_to_lv(my_agent, seq) {
                    // Known already (events are immutable, so identical).
                    map.push(my_lv);
                    k += 1;
                } else {
                    // Unknown: ingest one event (chunking is handled by the
                    // RLE push paths; correctness first).
                    let lv = other_lv + k;
                    let parents: Vec<LV> =
                        other.graph.parents_of(lv).iter().map(|&p| map[p]).collect();
                    let my_lv = self.len();
                    let (kind, _, _) = other.unit_op(lv);
                    let (pair, offset) = other.ops.find_with_offset(lv).unwrap();
                    let run = &pair.1;
                    // Build a unit-length run for this event.
                    let unit_pos = run.unit_pos(offset);
                    let content = match run.content {
                        Some(c) => {
                            let at = self
                                .ins_content
                                .push_char(other.ins_content.char_at(c.start + offset));
                            Some((at..at + 1).into())
                        }
                        None => None,
                    };
                    self.push_op(
                        (my_lv..my_lv + 1).into(),
                        OpRun {
                            kind,
                            loc: (unit_pos..unit_pos + 1).into(),
                            fwd: true,
                            content,
                        },
                        &parents,
                    );
                    self.graph.push(&parents, (my_lv..my_lv + 1).into());
                    self.agents.assign_at(
                        my_agent,
                        (seq..seq + 1).into(),
                        (my_lv..my_lv + 1).into(),
                    );
                    map.push(my_lv);
                    k += 1;
                }
            }
            other_lv += run_len;
        }
        (first_new..self.len()).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        let lvs = log.add_insert(a, 0, "hey");
        assert_eq!(lvs, (0..3).into());
        assert_eq!(log.version().as_slice(), &[2]);
        let lvs = log.add_delete(a, 1, 2);
        assert_eq!(lvs, (3..5).into());
        assert_eq!(log.len(), 5);
        assert_eq!(log.unit_op(0), (ListOpKind::Ins, 0, Some('h')));
        assert_eq!(log.unit_op(2), (ListOpKind::Ins, 2, Some('y')));
        assert_eq!(log.unit_op(3), (ListOpKind::Del, 1, None));
        assert_eq!(log.unit_op(4), (ListOpKind::Del, 1, None));
    }

    #[test]
    fn ops_rle_merge() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        log.add_insert(a, 0, "ab");
        log.add_insert(a, 2, "cd"); // continues typing: should merge
        assert_eq!(log.ops.num_entries(), 1);
        log.add_insert(a, 0, "x"); // cursor moved: new run
        assert_eq!(log.ops.num_entries(), 2);
    }

    #[test]
    fn backspace_positions() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        log.add_insert(a, 0, "abcde");
        // Backspace three times from after 'e' (deleting e, d, c).
        let parents = log.version().clone();
        log.add_backspace_at(a, &parents, 4, 3);
        assert_eq!(log.unit_op(5), (ListOpKind::Del, 4, None));
        assert_eq!(log.unit_op(6), (ListOpKind::Del, 3, None));
        assert_eq!(log.unit_op(7), (ListOpKind::Del, 2, None));
    }

    #[test]
    fn ops_in_trims() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        log.add_insert(a, 0, "abcdef");
        let runs: Vec<_> = log.ops_in((2..5).into()).collect();
        assert_eq!(runs.len(), 1);
        let (lvs, run) = runs[0];
        assert_eq!(lvs, (2..5).into());
        assert_eq!(run.loc, (2..5).into());
        assert_eq!(log.content_slice(run.content.unwrap()), "cde");
    }

    #[test]
    fn remote_ids_roundtrip() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        log.add_insert(a, 0, "hi");
        let id = log.lv_to_remote(1);
        assert_eq!(id.agent, "alice");
        assert_eq!(id.seq, 1);
        assert_eq!(log.agents.remote_id_to_lv(&id), Some(1));
    }

    #[test]
    fn merge_oplog_disjoint_and_overlap() {
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "shared");

        // Replica b starts from a copy, then both diverge.
        let mut b = a.clone();
        let bob = b.get_or_create_agent("bob");
        a.add_insert(alice, 6, "!");
        b.add_insert(bob, 0, "?");

        // Cross-merge.
        let new_in_a = a.merge_oplog(&b);
        assert_eq!(new_in_a.len(), 1);
        let new_in_b = b.merge_oplog(&a);
        assert_eq!(new_in_b.len(), 1);
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
        // Merging again is a no-op.
        assert!(a.merge_oplog(&b).is_empty());

        // Both now know the same set of remote events.
        for lv in 0..a.len() {
            let id = a.lv_to_remote(lv);
            assert!(b.agents.remote_id_to_lv(&id).is_some());
        }
    }
}
