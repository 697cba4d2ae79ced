//! Event bundles: a self-describing subset of an event graph, exchanged
//! between replicas.
//!
//! The paper's storage format persists a *whole* event graph, identifying
//! events by their index in a topological sort (§3.8). That does not work
//! for replication, where a replica sends only the events its peer is
//! missing: "references to parent events outside of that subset need to be
//! encoded using event IDs of the form (replicaID, seqNo)" (§3.8). An
//! [`EventBundle`] is exactly that encoding, still run-length compressed:
//! each [`BundleRun`] carries a run of events from one agent, the operation
//! run they performed, and the remote IDs of the *first* event's parents
//! (later events in a run chain on their predecessor).
//!
//! Bundles are pure data; [`OpLog::bundle_since`] extracts one and
//! [`OpLog::apply_bundle`] ingests one. Application is all-or-nothing: if a
//! parent is neither known locally nor supplied earlier in the bundle, the
//! bundle is rejected with the missing IDs so the caller can causally
//! buffer it (paper §2.2: "the replica waits for them to arrive").
//!
//! The owned bundle is the form for handing events around; between an
//! oplog and bytes they travel as borrowed [`RunView`]s, in both
//! directions: [`OpLog::for_each_run`] lends the runs of a set of events
//! to an encoder straight from the oplog's run-length encoded lists, and
//! [`OpLog::apply_run_view`] takes one from a decoder.

use crate::op::{ListOpKind, OpRun};
use crate::OpLog;
use eg_dag::{AgentId, RemoteId, LV};
use eg_rle::{DTRange, HasLength, SplitableSpan};

/// A run of consecutive events from one agent, in network form.
///
/// Events `seq_start + k` for `k in 1..len` are implicitly parented on
/// their predecessor `seq_start + k - 1`; only the first event's parents
/// are spelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleRun {
    /// The generating replica's name.
    pub agent: String,
    /// First sequence number of the run.
    pub seq_start: usize,
    /// Parents of the run's first event, as remote IDs. Empty for a root
    /// event.
    pub parents: Vec<RemoteId>,
    /// Operation kind shared by the whole run.
    pub kind: ListOpKind,
    /// Target index range, in document coordinates at run start (same
    /// semantics as [`OpRun`]).
    pub loc: DTRange,
    /// Direction of the run (see [`OpRun`]).
    pub fwd: bool,
    /// Inserted text (`Ins` only; one char per event).
    pub content: Option<String>,
}

impl BundleRun {
    /// The number of events in the run.
    pub fn len(&self) -> usize {
        self.loc.len()
    }

    /// Returns `true` if the run holds no events (never produced by
    /// extraction; guarded against in application).
    pub fn is_empty(&self) -> bool {
        self.loc.is_empty()
    }
}

/// A causally-closed-above-nothing set of events in network form: every
/// parent is either inside the bundle or referenced by remote ID.
///
/// Runs appear in a topological order (parents before children).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBundle {
    /// The event runs, topologically ordered.
    pub runs: Vec<BundleRun>,
}

impl EventBundle {
    /// Returns `true` if the bundle carries no events.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of events across all runs.
    pub fn num_events(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum()
    }
}

/// A [`BundleRun`] in pre-resolved, borrowed form: agents as local
/// [`AgentId`]s, content as a borrowed slice.
///
/// This is the zero-copy shape in which runs cross between an oplog and
/// bytes: streaming decoders hand it to [`OpLog::apply_run_view`], and
/// [`OpLog::for_each_run`] hands it to encoders. Saving or rebuilding a
/// document moves thousands of runs, and materialising an owned
/// [`BundleRun`] (agent `String`, parent `RemoteId`s, content `String`)
/// for each dominates the time.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a> {
    /// The generating agent, already interned in the target oplog.
    pub agent: AgentId,
    /// First sequence number of the run.
    pub seq_start: usize,
    /// Parents of the run's first event as `(agent, seq)` pairs, agents
    /// likewise pre-interned. Empty for a root event.
    pub parents: &'a [(AgentId, usize)],
    /// Operation kind shared by the whole run.
    pub kind: ListOpKind,
    /// Target index range (same semantics as [`BundleRun`]).
    pub loc: DTRange,
    /// Direction of the run.
    pub fwd: bool,
    /// Inserted text (`Ins` only; one char per event).
    pub content: Option<&'a str>,
}

/// Why a bundle could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// Some parents are neither known locally nor supplied by the bundle.
    /// The caller should buffer the bundle and retry once the listed events
    /// have arrived (causal delivery, paper §2.2).
    MissingParents(Vec<RemoteId>),
    /// A run was structurally invalid (empty, or an insert without content
    /// of matching length).
    Malformed(&'static str),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::MissingParents(ids) => {
                write!(f, "bundle depends on {} unknown event(s): ", ids.len())?;
                for (i, id) in ids.iter().take(3).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "({}, {})", id.agent, id.seq)?;
                }
                if ids.len() > 3 {
                    write!(f, ", …")?;
                }
                Ok(())
            }
            BundleError::Malformed(why) => write!(f, "malformed bundle: {why}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// The byte offset of the `n`-th character of `s` (or `s.len()` when `n`
/// equals the char count).
fn char_boundary(s: &str, n: usize) -> usize {
    s.char_indices().nth(n).map(|(b, _)| b).unwrap_or(s.len())
}

impl OpLog {
    /// Extracts the events this oplog knows that are **not** in the history
    /// of `have` (a version expressed as remote IDs, e.g. a peer's
    /// [`OpLog::version_vector`] or [`OpLog::remote_version`]).
    ///
    /// Remote IDs in `have` ahead of this replica's knowledge are *clamped*
    /// to the local per-agent maximum rather than ignored: an agent's
    /// events form a causal chain, so a peer holding `(a, n)` holds every
    /// `(a, m ≤ n)`, and crediting it with our latest event from `a` is
    /// always sound. Only agents this replica has never seen at all carry
    /// no information. Clamping matters after a partition: the side that
    /// kept editing sends digest entries the other side has never seen,
    /// and without clamping the response degenerates to a near-full
    /// re-send (deduplicated on arrival, but wasted bytes on the wire).
    ///
    /// Digest fast path: anti-entropy rounds overwhelmingly probe peers
    /// that are already caught up, so when every tip of the local version
    /// appears in `have` the graph walk (dominators + diff + run
    /// extraction) is skipped entirely.
    pub fn bundle_since(&self, have: &[RemoteId]) -> EventBundle {
        let known: Vec<LV> = have
            .iter()
            .filter_map(|id| self.clamp_remote_to_lv(id))
            .collect();
        if self.version().iter().all(|tip| known.contains(tip)) {
            return EventBundle::default();
        }
        let frontier = self.graph.find_dominators(&known);
        if frontier == *self.version() {
            return EventBundle::default();
        }
        self.bundle_since_local(&frontier)
    }

    /// [`OpLog::bundle_since`] for a local frontier: extracts the events in
    /// the current version's history but not in `Events(have)`.
    pub fn bundle_since_local(&self, have: &[LV]) -> EventBundle {
        if have == self.version().as_slice() {
            return EventBundle::default();
        }
        let diff = self.graph.diff(have, self.version());
        debug_assert!(diff.only_a.is_empty());
        let remote = |&(agent, seq): &(AgentId, usize)| RemoteId {
            agent: self.agents.agent_name(agent).to_string(),
            seq,
        };
        let mut runs = Vec::new();
        self.for_each_run(&diff.only_b, |run| {
            runs.push(BundleRun {
                agent: self.agents.agent_name(run.agent).to_string(),
                seq_start: run.seq_start,
                parents: run.parents.iter().map(remote).collect(),
                kind: run.kind,
                loc: run.loc,
                fwd: run.fwd,
                content: run.content.map(str::to_string),
            })
        });
        EventBundle { runs }
    }

    /// Calls `emit` with each run of the events in `spans` (ascending LV
    /// ranges), in LV order: the form in which events leave an oplog, as
    /// [`OpLog::apply_run_view`] is how they enter one. A run ends where
    /// the agent span, the op run, the graph entry or the span does.
    ///
    /// The three RLE lists are each searched once per span and then only
    /// stepped through. A run's parents are its graph entry's at the
    /// entry's head and the event before it anywhere else; they are lent
    /// from one buffer reused for every run, which is why this is a
    /// callback and not an `Iterator`.
    ///
    /// # Panics
    ///
    /// Panics if a span reaches past [`OpLog::len`].
    pub fn for_each_run(&self, spans: &[DTRange], mut emit: impl FnMut(&RunView<'_>)) {
        let id_of = |lv: LV| {
            let span = self.agents.lv_to_agent_span(lv);
            (span.agent, span.seq_range.start)
        };
        let mut parents: Vec<(AgentId, usize)> = Vec::new();
        for span in spans {
            let mut lv = span.start;
            let mut agent_spans = self.agents.lv_spans_from(lv).iter().peekable();
            let mut op_runs = self.op_runs_from(lv).iter().peekable();
            let mut entries = self.graph.entries_from(lv).iter().peekable();
            // The id of `lv - 1`: looked up when the span starts inside an
            // entry, the last event of the run before from then on.
            let mut prev: Option<(AgentId, usize)> = None;
            while lv < span.end {
                let (Some(agent_span), Some(op_run), Some(entry)) =
                    (agent_spans.peek(), op_runs.peek(), entries.peek())
                else {
                    panic!("span {span:?} reaches past the end of the oplog");
                };
                let end = span
                    .end
                    .min(agent_span.end())
                    .min(op_run.end())
                    .min(entry.span.end);
                let len = end - lv;

                let agent = agent_span.1.agent;
                let seq_start = agent_span.1.seq_range.start + (lv - agent_span.0);
                parents.clear();
                if lv == entry.span.start {
                    parents.extend(entry.parents.iter().map(|&p| id_of(p)));
                } else {
                    parents.push(prev.unwrap_or_else(|| id_of(lv - 1)));
                }
                let mut op = op_run.1;
                if lv > op_run.0 {
                    op = op.truncate(lv - op_run.0);
                }
                if op.len() > len {
                    op.truncate(len);
                }
                emit(&RunView {
                    agent,
                    seq_start,
                    parents: &parents,
                    kind: op.kind,
                    loc: op.loc,
                    fwd: op.fwd,
                    content: op.content.map(|c| self.content_slice(c)),
                });

                prev = Some((agent, seq_start + len - 1));
                agent_spans.next_if(|s| s.end() == end);
                op_runs.next_if(|r| r.end() == end);
                entries.next_if(|e| e.span.end == end);
                lv = end;
            }
        }
    }

    /// Ingests an event bundle, deduplicating events this log already
    /// knows.
    ///
    /// Returns the LV range newly assigned (possibly empty, if every event
    /// was already known). Application is all-or-nothing: on
    /// [`BundleError::MissingParents`] the oplog is unchanged.
    pub fn apply_bundle(&mut self, bundle: &EventBundle) -> Result<DTRange, BundleError> {
        self.check_bundle(bundle)?;
        let first_new = self.len();
        for run in &bundle.runs {
            self.apply_bundle_run(run);
        }
        Ok((first_new..self.len()).into())
    }

    /// Validates a bundle without mutating the log: structure plus causal
    /// readiness (every parent known locally or supplied earlier in the
    /// bundle).
    pub fn check_bundle(&self, bundle: &EventBundle) -> Result<(), BundleError> {
        // Seq ranges the bundle itself provides, grouped per agent. Runs
        // from one agent arrive seq-ascending when extracted by
        // `bundle_since`, but a hand-built bundle need not be sorted, so
        // sort before binary searching. This stays O(runs log runs) where
        // the old per-event set was O(events) hash inserts — the
        // difference is most of a cold segment-store open.
        let mut provided: std::collections::HashMap<&str, Vec<DTRange>> =
            std::collections::HashMap::new();
        for r in &bundle.runs {
            provided
                .entry(r.agent.as_str())
                .or_default()
                .push((r.seq_start..r.seq_start + r.len()).into());
        }
        for ranges in provided.values_mut() {
            ranges.sort_unstable_by_key(|r| r.start);
        }
        let provides = |id: &RemoteId| -> bool {
            provided.get(id.agent.as_str()).is_some_and(|ranges| {
                let i = ranges.partition_point(|r| r.end <= id.seq);
                ranges.get(i).is_some_and(|r| r.start <= id.seq)
            })
        };
        let mut missing = Vec::new();
        for run in &bundle.runs {
            if run.is_empty() {
                return Err(BundleError::Malformed("empty run"));
            }
            match (run.kind, &run.content) {
                (ListOpKind::Ins, Some(text)) => {
                    if text.chars().count() != run.len() {
                        return Err(BundleError::Malformed("content length mismatch"));
                    }
                }
                (ListOpKind::Ins, None) => {
                    return Err(BundleError::Malformed("insert run without content"));
                }
                (ListOpKind::Del, Some(_)) => {
                    return Err(BundleError::Malformed("delete run with content"));
                }
                (ListOpKind::Del, None) => {}
            }
            if !run.fwd && run.kind == ListOpKind::Ins && run.len() > 1 {
                return Err(BundleError::Malformed("multi-event backward insert run"));
            }
            for parent in &run.parents {
                let known = self.agents.knows(parent) || provides(parent);
                if !known && !missing.contains(parent) {
                    missing.push(parent.clone());
                }
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(BundleError::MissingParents(missing))
        }
    }

    /// Ingests one (pre-validated) run, skipping already-known events.
    fn apply_bundle_run(&mut self, run: &BundleRun) {
        let agent = self.get_or_create_agent(&run.agent);
        // Parents resolve through agents that exist by now: either known
        // before the bundle, or created when their earlier run applied
        // (runs are topologically ordered).
        let parents: Vec<(AgentId, usize)> = run
            .parents
            .iter()
            .map(|p| (self.agents.agent_id(&p.agent).expect("validated"), p.seq))
            .collect();
        let view = RunView {
            agent,
            seq_start: run.seq_start,
            parents: &parents,
            kind: run.kind,
            loc: run.loc,
            fwd: run.fwd,
            content: run.content.as_deref(),
        };
        self.apply_run_view(&view).expect("validated");
    }

    /// Ingests one run in pre-resolved borrowed form, skipping
    /// already-known events. This is the zero-copy core of bundle
    /// application, shared by [`OpLog::apply_bundle`] and streaming
    /// decoders ([`RunView`]).
    ///
    /// Unlike [`OpLog::apply_bundle`], validation is per run: an error on
    /// the N-th run of a stream leaves the earlier runs applied. Use it
    /// when the whole log is discarded on failure (rebuilding from a
    /// segment file) or when runs are independently committed.
    pub fn apply_run_view(&mut self, run: &RunView<'_>) -> Result<(), BundleError> {
        let run_len = run.loc.len();
        if run_len == 0 {
            return Err(BundleError::Malformed("empty run"));
        }
        if run.seq_start.checked_add(run_len).is_none() {
            return Err(BundleError::Malformed("sequence range overflow"));
        }
        match (run.kind, run.content) {
            (ListOpKind::Ins, Some(text)) => {
                if text.chars().count() != run_len {
                    return Err(BundleError::Malformed("content length mismatch"));
                }
            }
            (ListOpKind::Ins, None) => {
                return Err(BundleError::Malformed("insert run without content"));
            }
            (ListOpKind::Del, Some(_)) => {
                return Err(BundleError::Malformed("delete run with content"));
            }
            (ListOpKind::Del, None) => {}
        }
        if !run.fwd && run.kind == ListOpKind::Ins && run_len > 1 {
            return Err(BundleError::Malformed("multi-event backward insert run"));
        }
        // Resolve the head parents up front: every one must already be
        // ingested (causal order). Failing here — before any mutation of
        // this run lands — keeps single-run application atomic. The
        // buffer is a reused oplog scratch: this runs once per ingested
        // run and must not allocate.
        let mut head_parents = std::mem::take(&mut self.parents_scratch);
        head_parents.clear();
        for &(agent, seq) in run.parents {
            match self.agents.try_remote_to_lv(agent, seq) {
                Some(lv) => head_parents.push(lv),
                None => {
                    self.parents_scratch = head_parents;
                    return Err(BundleError::MissingParents(vec![RemoteId {
                        agent: self.agents.agent_name(agent).to_string(),
                        seq,
                    }]));
                }
            }
        }

        let mut offset = 0;
        while offset < run_len {
            let seq = run.seq_start + offset;
            // One extent lookup classifies a whole chunk: the common
            // cases (entirely-new run, exact duplicate delivery) resolve
            // in a single binary search instead of one probe per event.
            let chunk_len = match self.agents.seq_extent(run.agent, seq) {
                Ok((_, known_len)) => {
                    // Duplicate delivery; events are immutable, so skip.
                    offset += known_len.min(run_len - offset);
                    continue;
                }
                Err(gap) => gap.min(run_len - offset),
            };

            // Slice the op run down to `[offset, offset + chunk_len)`.
            let mut op = OpRun {
                kind: run.kind,
                loc: run.loc,
                fwd: run.fwd,
                content: None,
            };
            if offset > 0 {
                op.truncate_keeping_right(offset);
            }
            if op.len() > chunk_len {
                op.truncate(chunk_len);
            }

            // Register inserted content: slice the run's text down to the
            // chunk's chars and push the UTF-8 bytes straight in.
            if run.kind == ListOpKind::Ins {
                let text = run.content.expect("validated above");
                let byte_start = char_boundary(text, offset);
                let byte_end = char_boundary(&text[byte_start..], chunk_len) + byte_start;
                op.content = Some(self.ins_content.push_str(&text[byte_start..byte_end]));
            }

            // Resolve parents: explicit for the run head, predecessor chain
            // otherwise. Both are plain slices — `graph.push` reduces to
            // dominators itself, so materialising a `Frontier` here would
            // be a per-run allocation for nothing.
            let pred;
            let parents: &[LV] = if offset == 0 {
                &head_parents
            } else {
                pred = [self
                    .agents
                    .try_remote_to_lv(run.agent, seq - 1)
                    .expect("predecessor ingested")];
                &pred
            };

            let lv_start = self.len();
            let lvs: DTRange = (lv_start..lv_start + chunk_len).into();
            self.push_op(lvs, op, parents);
            self.graph.push(parents, lvs);
            self.agents
                .assign_at(run.agent, (seq..seq + chunk_len).into(), lvs);
            offset += chunk_len;
        }
        self.parents_scratch = head_parents;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_replica_logs() -> (OpLog, OpLog) {
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "shared base ");
        let b = a.clone();
        (a, b)
    }

    #[test]
    fn bundle_roundtrip_simple() {
        let (mut a, mut b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 12, "from alice");

        let bundle = a.bundle_since(&b.remote_version());
        assert_eq!(bundle.num_events(), 10);
        assert_eq!(bundle.runs.len(), 1);
        let new = b.apply_bundle(&bundle).unwrap();
        assert_eq!(new.len(), 10);
        assert_eq!(
            b.checkout_tip().content.to_string(),
            a.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn bundle_since_fast_path_on_caught_up_digest() {
        // A peer whose digest names our exact frontier gets an empty
        // bundle without a graph diff (the quiescent anti-entropy case).
        let (a, b) = two_replica_logs();
        assert!(a.bundle_since(&b.remote_version()).is_empty());
        // Extra unknown ids in the digest don't defeat the fast path.
        let mut digest = a.remote_version();
        digest.push(RemoteId {
            agent: "stranger".into(),
            seq: 3,
        });
        assert!(a.bundle_since(&digest).is_empty());
        // An empty oplog has nothing to send to anyone.
        assert!(OpLog::new().bundle_since(&[]).is_empty());
    }

    #[test]
    fn bundle_since_excludes_known() {
        let (mut a, b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "x");
        let bundle = a.bundle_since(&b.remote_version());
        // Only the new event, not the shared base.
        assert_eq!(bundle.num_events(), 1);
    }

    #[test]
    fn bundle_concurrent_merge_converges() {
        let (mut a, mut b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        let bob = b.get_or_create_agent("bob");
        a.add_insert(alice, 0, "A-side ");
        a.add_delete(alice, 10, 2);
        b.add_insert(bob, 12, "B-side");
        b.add_insert(bob, 0, "| ");

        let to_b = a.bundle_since(&b.remote_version());
        let to_a = b.bundle_since(&a.remote_version());
        b.apply_bundle(&to_b).unwrap();
        a.apply_bundle(&to_a).unwrap();
        assert_eq!(
            a.checkout_tip().content.to_string(),
            b.checkout_tip().content.to_string()
        );
        // Frontiers are LV-ordered and LVs are replica-local; compare the
        // remote versions as sets.
        let mut va = a.remote_version();
        let mut vb = b.remote_version();
        va.sort();
        vb.sort();
        assert_eq!(va, vb);
    }

    #[test]
    fn missing_parents_rejected_atomically() {
        let (mut a, mut b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "one");
        let v_mid = a.remote_version();
        a.add_insert(alice, 0, "two");

        // Bundle containing only the second batch: depends on the first.
        let late = a.bundle_since(&v_mid);
        let before_len = b.len();
        let err = b.apply_bundle(&late).unwrap_err();
        match err {
            BundleError::MissingParents(ids) => {
                assert!(ids.iter().all(|id| id.agent == "alice"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(b.len(), before_len, "rejected bundle must not mutate");

        // Delivering the earlier events first unblocks it.
        let early = a.bundle_since(&b.remote_version());
        // `early` includes both batches (b's version predates both); apply
        // then retry the late bundle as a duplicate.
        b.apply_bundle(&early).unwrap();
        let dup = b.apply_bundle(&late).unwrap();
        assert!(dup.is_empty());
        assert_eq!(
            a.checkout_tip().content.to_string(),
            b.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let (mut a, mut b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "dup");
        let bundle = a.bundle_since(&b.remote_version());
        assert_eq!(b.apply_bundle(&bundle).unwrap().len(), 3);
        assert!(b.apply_bundle(&bundle).unwrap().is_empty());
        assert_eq!(b.len(), a.len());
    }

    #[test]
    fn partial_overlap_applies_suffix() {
        let (mut a, mut b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "abc");
        let v1 = b.remote_version();
        let first = a.bundle_since(&v1);
        b.apply_bundle(&first).unwrap();
        a.add_insert(alice, 3, "def");
        // Bundle from the *old* version overlaps what b already has.
        let overlapping = a.bundle_since(&v1);
        assert_eq!(overlapping.num_events(), 6);
        let new = b.apply_bundle(&overlapping).unwrap();
        assert_eq!(new.len(), 3);
        assert_eq!(
            b.checkout_tip().content.to_string(),
            a.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn backspace_runs_roundtrip() {
        let (mut a, mut b) = two_replica_logs();
        let alice = a.get_or_create_agent("alice");
        let parents = a.version().clone();
        a.add_backspace_at(alice, &parents, 11, 4);
        let bundle = a.bundle_since(&b.remote_version());
        b.apply_bundle(&bundle).unwrap();
        assert_eq!(
            b.checkout_tip().content.to_string(),
            a.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn malformed_bundles_rejected() {
        let (_, mut b) = two_replica_logs();
        let bad = EventBundle {
            runs: vec![BundleRun {
                agent: "alice".into(),
                seq_start: 50,
                parents: vec![],
                kind: ListOpKind::Ins,
                loc: (0..3).into(),
                fwd: true,
                content: Some("xy".into()), // Wrong length.
            }],
        };
        assert!(matches!(
            b.apply_bundle(&bad),
            Err(BundleError::Malformed(_))
        ));

        let bad = EventBundle {
            runs: vec![BundleRun {
                agent: "alice".into(),
                seq_start: 50,
                parents: vec![],
                kind: ListOpKind::Del,
                loc: (0..1).into(),
                fwd: true,
                content: Some("x".into()),
            }],
        };
        assert!(matches!(
            b.apply_bundle(&bad),
            Err(BundleError::Malformed(_))
        ));
    }

    #[test]
    fn intra_bundle_dependencies_resolve() {
        // A bundle whose second run is parented on its first run must apply
        // even though neither event is known beforehand.
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "seed");
        let mut b = OpLog::new();
        let bundle = a.bundle_since(&b.remote_version());
        b.apply_bundle(&bundle).unwrap();
        assert_eq!(b.checkout_tip().content.to_string(), "seed");
    }
}
