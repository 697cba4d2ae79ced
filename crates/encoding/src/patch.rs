//! Patches: the §3.8 columns over just the events one peer sends another.
//!
//! The paper's file format names a parent by its distance back in the
//! file, which means nothing to a replica holding a different history.
//! A patch keeps the file's columns but covers only the events being
//! sent, numbered from 0 in the order they come; a parent inside the
//! patch is still a distance back, and one outside it — an event the
//! receiver already holds — is named by `(replicaID, seqNo)`, as §3.8's
//! last paragraph asks.
//!
//! Layout (all integers LEB128; the column entries are `columns.rs`'s,
//! shared with the file format):
//!
//! ```text
//! event count n
//! names:      count, then per agent: name length, UTF-8 name bytes
//! assignment: entries (agent index, seq start − the end of the agent's
//!             previous entry (wrapping), length) covering n events
//! ops:        entries (length << 2 | kind << 1 | fwd, zigzag Δposition)
//!             covering n events
//! parents:    entries (span length, parent count, per parent: distance
//!             back, or 0 for "the next boundary entry") covering n events
//! boundary:   per 0 in parents: agent index, seq
//! content:    byte length, then the inserted text as UTF-8
//! ```
//!
//! Every later event of a parents entry has the event before it as its
//! one parent, so a run that continues what precedes it costs nothing
//! there. The names are those of the runs' agents and of the boundary
//! parents' agents, in the order the encoder meets them, so equal runs
//! give equal bytes. A patch has no magic, version or checksum of its
//! own: it travels inside an `EGWM` batch (`digest_wire.rs`), whose
//! header and CRC cover it.
//!
//! The writer takes [`RunView`]s, the form in which runs leave an oplog,
//! and merges them into the columns' entries as it goes. The reader
//! checks structure only — lengths, counts, ranges, that all columns
//! cover the same events, no trailing bytes — and splits the entries
//! back into [`BundleRun`]s at every place one of them ends, which for
//! runs taken from an oplog gives back the runs that went in. Whether
//! the events fit the receiver's history is
//! [`egwalker::OpLog::apply_bundle`]'s check, as for any bundle.

use crate::columns::{self, AgentTable, Assignment};
use crate::varint::{push_usize, read_usize, take, DecodeError};
use eg_dag::{AgentAssignment, AgentId, RemoteId};
use eg_rle::{DTRange, HasLength, MergableSpan, SplitableSpan};
use egwalker::{BundleRun, EventBundle, ListOpKind, OpRun, RunView};

/// Writes patches, one after another, reusing its buffers.
#[derive(Debug, Default)]
pub(crate) struct PatchWriter {
    agents: AgentTable,
    /// By agent index: where that agent's events sit in the patch, as
    /// `(seq start, length, first index)` in the order they came.
    placed: Vec<Vec<(usize, usize, usize)>>,
    /// Events written so far, and the id of the last one.
    events: usize,
    last: Option<(AgentId, usize)>,
    /// The entries still open: each may yet grow with the next run.
    op: Option<OpRun>,
    prev_pos: i64,
    parents_span: usize,
    parents: Vec<usize>,
    assign: Option<Assignment>,
    /// By agent index: where the agent's last written assignment ended.
    next_seq: Vec<usize>,
    head: Vec<u8>,
    assign_col: Vec<u8>,
    ops_col: Vec<u8>,
    parents_col: Vec<u8>,
    boundary_col: Vec<u8>,
    content: Vec<u8>,
}

impl PatchWriter {
    /// Appends the patch of `bundle` to `out`, preceded by its byte length.
    pub(crate) fn write_bundle(&mut self, bundle: &EventBundle, out: &mut Vec<u8>) {
        let names = columns::bundle_views(bundle, |run| self.push(run));
        self.finish(&names, out);
    }

    /// The table index of `agent`, the next free one at its first use.
    fn index(&mut self, agent: AgentId) -> usize {
        let index = self.agents.index(agent);
        if self.placed.len() < self.agents.len() {
            self.placed.push(Vec::new());
        }
        index
    }

    /// The patch index of event `(agent, seq)`, if it is already written.
    fn locate(&self, agent: AgentId, seq: usize) -> Option<usize> {
        let placed = self.placed.get(self.agents.get(agent)?)?;
        let i = placed.partition_point(|&(start, len, _)| start.saturating_add(len) <= seq);
        let &(start, _, at) = placed.get(i)?;
        (start <= seq).then(|| at + (seq - start))
    }

    /// Adds one run, in the patch's event order.
    pub(crate) fn push(&mut self, run: &RunView<'_>) {
        let len = run.loc.len();
        if len == 0 {
            return;
        }
        let agent_index = self.index(run.agent);

        let implicit =
            self.events > 0 && run.parents.len() == 1 && run.parents.first() == self.last.as_ref();
        if implicit {
            self.parents_span += len;
        } else {
            self.flush_parents();
            self.parents_span = len;
            for &(agent, seq) in run.parents {
                let back = match self.locate(agent, seq) {
                    Some(at) => self.events - at,
                    None => {
                        let agent = self.index(agent);
                        push_usize(&mut self.boundary_col, agent);
                        push_usize(&mut self.boundary_col, seq);
                        0
                    }
                };
                self.parents.push(back);
            }
        }

        if let Some(placed) = self.placed.get_mut(agent_index) {
            match placed.last_mut() {
                Some(last)
                    if last.0 + last.1 == run.seq_start && last.2 + last.1 == self.events =>
                {
                    last.1 += len;
                }
                _ => placed.push((run.seq_start, len, self.events)),
            }
        }

        match &mut self.assign {
            Some(open)
                if open.agent == agent_index
                    && open.seq_start.checked_add(open.len) == Some(run.seq_start) =>
            {
                open.len += len;
            }
            _ => {
                let entry = Assignment {
                    agent: agent_index,
                    seq_start: run.seq_start,
                    len,
                };
                if let Some(done) = self.assign.replace(entry) {
                    self.push_assignment(done);
                }
            }
        }

        // The content range only lets two insert runs merge when they are
        // adjacent, as in an oplog's op list.
        let op = OpRun {
            kind: run.kind,
            loc: run.loc,
            fwd: run.fwd,
            content: (run.kind == ListOpKind::Ins)
                .then(|| DTRange::new(self.events, self.events.saturating_add(len))),
        };
        match &mut self.op {
            Some(open) if joins(open, &op) => open.append(op),
            _ => {
                if let Some(done) = self.op.replace(op) {
                    columns::push_op(&mut self.ops_col, &mut self.prev_pos, &done);
                }
            }
        }
        if run.kind == ListOpKind::Ins {
            self.content
                .extend_from_slice(run.content.unwrap_or_default().as_bytes());
        }

        self.last = Some((
            run.agent,
            run.seq_start.saturating_add(len).saturating_sub(1),
        ));
        self.events += len;
    }

    fn push_assignment(&mut self, entry: Assignment) {
        if self.next_seq.len() <= entry.agent {
            self.next_seq.resize(entry.agent.saturating_add(1), 0);
        }
        if let Some(next) = self.next_seq.get_mut(entry.agent) {
            columns::push_assignment(&mut self.assign_col, entry, *next);
            *next = entry.seq_start.saturating_add(entry.len);
        }
    }

    fn flush_parents(&mut self) {
        if self.parents_span > 0 {
            let parents = self.parents.drain(..);
            columns::push_parents(&mut self.parents_col, self.parents_span, parents);
        }
        self.parents_span = 0;
    }

    /// Closes the patch (names from `names`), appends it to `out` preceded
    /// by its byte length, and makes the writer ready for the next one.
    pub(crate) fn finish(&mut self, names: &AgentAssignment, out: &mut Vec<u8>) {
        self.flush_parents();
        if let Some(done) = self.assign.take() {
            self.push_assignment(done);
        }
        if let Some(done) = self.op.take() {
            columns::push_op(&mut self.ops_col, &mut self.prev_pos, &done);
        }
        push_usize(&mut self.head, self.events);
        self.agents.push_names(&mut self.head, names);

        let body = [
            &self.head,
            &self.assign_col,
            &self.ops_col,
            &self.parents_col,
            &self.boundary_col,
        ];
        let content_len = self.content.len();
        let patch_len = body
            .iter()
            .fold(content_len, |sum, col| sum.saturating_add(col.len()))
            .saturating_add(varint_len(content_len));
        push_usize(out, patch_len);
        for col in body {
            out.extend_from_slice(col);
        }
        push_usize(out, content_len);
        out.extend_from_slice(&self.content);
        self.reset();
    }

    fn reset(&mut self) {
        self.agents.clear();
        for placed in &mut self.placed {
            placed.clear();
        }
        self.next_seq.fill(0);
        self.events = 0;
        self.last = None;
        self.prev_pos = 0;
        for col in [
            &mut self.head,
            &mut self.assign_col,
            &mut self.ops_col,
            &mut self.parents_col,
            &mut self.boundary_col,
            &mut self.content,
        ] {
            col.clear();
        }
    }
}

/// Whether `next` can join the ops entry `open` so that splitting the
/// entry where `next` began gives both back unchanged. That is the
/// oplog's own rule, except that two deletes only join backwards when
/// both already run backwards: joining turns a one-unit forward delete
/// backwards.
fn joins(open: &OpRun, next: &OpRun) -> bool {
    open.can_append(next)
        && (open.kind == ListOpKind::Ins
            || next.loc.start == open.loc.start && open.fwd && next.fwd
            || !open.fwd && !next.fwd)
}

/// Bytes of `value` as LEB128.
fn varint_len(value: usize) -> usize {
    let bits = (usize::BITS - value.leading_zeros()).max(1);
    bits.div_ceil(7) as usize
}

/// Splits `text` after its first `chars` characters; `None` if it has
/// fewer.
fn split_chars(text: &str, chars: usize) -> Option<(&str, &str)> {
    let at = match text.char_indices().nth(chars) {
        Some((at, _)) => at,
        None if text.chars().count() == chars => text.len(),
        None => return None,
    };
    Some((text.get(..at)?, text.get(at..)?))
}

/// Decodes one patch (without its length prefix) into the runs it
/// carries.
pub(crate) fn decode_patch(mut input: &[u8]) -> Result<EventBundle, DecodeError> {
    let events = read_usize(&mut input)?;
    let names = columns::read_names(&mut input)?;

    // Agent assignments, each with the patch index of its first event.
    let mut assigns: Vec<(usize, Assignment)> = Vec::new();
    let mut next_seq = vec![0usize; names.len()];
    let mut covered = 0usize;
    while covered < events {
        let expected = |agent| next_seq.get(agent).copied().unwrap_or(0);
        let entry = columns::read_assignment(&mut input, names.len(), expected)?;
        if let Some(next) = next_seq.get_mut(entry.agent) {
            *next = entry.seq_start.saturating_add(entry.len);
        }
        assigns.push((covered, entry));
        covered = covered.checked_add(entry.len).ok_or(DecodeError::Corrupt)?;
    }
    if covered != events {
        return Err(DecodeError::Corrupt);
    }

    let mut ops: Vec<OpRun> = Vec::new();
    let mut prev_pos = 0i64;
    let mut inserted = 0usize;
    covered = 0;
    while covered < events {
        let op = columns::read_op(&mut input, &mut prev_pos)?;
        let op_len = op.len();
        if op.kind == ListOpKind::Ins {
            // Only a forward insert run can be split.
            if !op.fwd && op_len > 1 {
                return Err(DecodeError::Corrupt);
            }
            inserted = inserted.checked_add(op_len).ok_or(DecodeError::Corrupt)?;
        }
        ops.push(op);
        covered = covered.checked_add(op_len).ok_or(DecodeError::Corrupt)?;
    }
    if covered != events {
        return Err(DecodeError::Corrupt);
    }

    // Parents entries as (span length, parent count), their parents'
    // distances back in one list.
    let mut entries: Vec<(usize, usize)> = Vec::new();
    let mut distances: Vec<usize> = Vec::new();
    let mut outside = 0usize;
    covered = 0;
    while covered < events {
        let (span_len, count) = columns::read_parents_head(&mut input)?;
        for _ in 0..count {
            let back = read_usize(&mut input)?;
            if back > covered {
                return Err(DecodeError::Corrupt);
            }
            outside += usize::from(back == 0);
            distances.push(back);
        }
        entries.push((span_len, count));
        covered = covered.checked_add(span_len).ok_or(DecodeError::Corrupt)?;
    }
    if covered != events {
        return Err(DecodeError::Corrupt);
    }

    let mut boundary: Vec<(usize, usize)> = Vec::new();
    for _ in 0..outside {
        let agent = read_usize(&mut input)?;
        let seq = read_usize(&mut input)?;
        if agent >= names.len() {
            return Err(DecodeError::Corrupt);
        }
        boundary.push((agent, seq));
    }

    let content_len = read_usize(&mut input)?;
    let raw = take(&mut input, content_len)?;
    let mut content = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
    if !input.is_empty() || content.chars().count() != inserted {
        return Err(DecodeError::Corrupt);
    }

    // The id of the event at patch index `at`.
    let id_of = |at: usize| -> Result<(usize, usize), DecodeError> {
        let i = assigns.partition_point(|(first, entry)| first.saturating_add(entry.len) <= at);
        let (first, entry) = assigns.get(i).ok_or(DecodeError::Corrupt)?;
        let seq = entry.seq_start.checked_add(at.saturating_sub(*first));
        Ok((entry.agent, seq.ok_or(DecodeError::Corrupt)?))
    };
    let name = |agent: usize| -> Result<String, DecodeError> {
        Ok(names.get(agent).ok_or(DecodeError::Corrupt)?.to_string())
    };
    let remote = |(agent, seq): (usize, usize)| -> Result<RemoteId, DecodeError> {
        Ok(RemoteId {
            agent: name(agent)?,
            seq,
        })
    };

    // Walk the three run-length columns side by side; a run ends where
    // any of their entries does.
    let mut runs = Vec::new();
    let (mut op_i, mut op_off) = (0usize, 0usize);
    let (mut entry_i, mut entry_off) = (0usize, 0usize);
    let (mut asn_i, mut asn_off) = (0usize, 0usize);
    let mut distances = distances.into_iter();
    let mut boundary = boundary.into_iter();
    let mut last: Option<(usize, usize)> = None;
    let mut at = 0usize;
    while at < events {
        let op = ops.get(op_i).ok_or(DecodeError::Corrupt)?;
        let &(span_len, count) = entries.get(entry_i).ok_or(DecodeError::Corrupt)?;
        let &(_, assign) = assigns.get(asn_i).ok_or(DecodeError::Corrupt)?;
        let run_len = op
            .len()
            .saturating_sub(op_off)
            .min(span_len.saturating_sub(entry_off))
            .min(assign.len.saturating_sub(asn_off));
        if run_len == 0 {
            return Err(DecodeError::Corrupt);
        }
        let seq_start = assign
            .seq_start
            .checked_add(asn_off)
            .ok_or(DecodeError::Corrupt)?;

        let mut parents = Vec::new();
        if entry_off == 0 {
            for _ in 0..count {
                let back = distances.next().ok_or(DecodeError::Corrupt)?;
                let id = match back {
                    0 => boundary.next().ok_or(DecodeError::Corrupt)?,
                    _ => id_of(at.checked_sub(back).ok_or(DecodeError::Corrupt)?)?,
                };
                parents.push(remote(id)?);
            }
        } else {
            parents.push(remote(last.ok_or(DecodeError::Corrupt)?)?);
        }

        let mut piece = *op;
        if op_off > 0 {
            piece = piece.truncate(op_off);
        }
        if piece.len() > run_len {
            piece.truncate(run_len);
        }
        let text = match piece.kind {
            ListOpKind::Ins => {
                let (text, rest) = split_chars(content, run_len).ok_or(DecodeError::Corrupt)?;
                content = rest;
                Some(text.to_string())
            }
            ListOpKind::Del => None,
        };
        runs.push(BundleRun {
            agent: name(assign.agent)?,
            seq_start,
            parents,
            kind: piece.kind,
            loc: piece.loc,
            fwd: piece.fwd,
            content: text,
        });

        let last_seq = seq_start.checked_add(run_len - 1);
        last = Some((assign.agent, last_seq.ok_or(DecodeError::Corrupt)?));
        at = at.checked_add(run_len).ok_or(DecodeError::Corrupt)?;
        op_off += run_len;
        if op_off == op.len() {
            op_i += 1;
            op_off = 0;
        }
        entry_off += run_len;
        if entry_off == span_len {
            entry_i += 1;
            entry_off = 0;
        }
        asn_off += run_len;
        if asn_off == assign.len {
            asn_i += 1;
            asn_off = 0;
        }
    }
    Ok(EventBundle { runs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(bundle: &EventBundle) -> EventBundle {
        let mut out = Vec::new();
        PatchWriter::default().write_bundle(bundle, &mut out);
        let mut input = out.as_slice();
        let len = read_usize(&mut input).unwrap();
        assert_eq!(len, input.len(), "the length prefix covers the patch");
        decode_patch(input).unwrap()
    }

    fn id(agent: &str, seq: usize) -> RemoteId {
        RemoteId {
            agent: agent.into(),
            seq,
        }
    }

    #[test]
    fn hand_built_runs_come_back_exactly() {
        // A parent outside the patch, one inside it that is not the event
        // before, an agent going back in its sequence (the assignment's
        // jump wraps), a backward one-unit insert and a backward delete.
        let bundle = EventBundle {
            runs: vec![
                BundleRun {
                    agent: "bob".into(),
                    seq_start: 5,
                    parents: vec![id("alice", 9)],
                    kind: ListOpKind::Ins,
                    loc: (0..5).into(),
                    fwd: true,
                    content: Some("héllo".into()),
                },
                BundleRun {
                    agent: "alice".into(),
                    seq_start: 3,
                    parents: vec![],
                    kind: ListOpKind::Del,
                    loc: (2..4).into(),
                    fwd: false,
                    content: None,
                },
                BundleRun {
                    agent: "bob".into(),
                    seq_start: 0,
                    parents: vec![id("bob", 7), id("alice", 4)],
                    kind: ListOpKind::Ins,
                    loc: (7..8).into(),
                    fwd: false,
                    content: Some("🦀".into()),
                },
            ],
        };
        assert_eq!(round_trip(&bundle), bundle);
    }

    #[test]
    fn runs_that_continue_each_other_share_entries() {
        // Typing split across two runs: one entry in every column, and
        // one run back.
        let first = BundleRun {
            agent: "carol".into(),
            seq_start: 0,
            parents: vec![],
            kind: ListOpKind::Ins,
            loc: (0..3).into(),
            fwd: true,
            content: Some("abc".into()),
        };
        let second = BundleRun {
            seq_start: 3,
            parents: vec![id("carol", 2)],
            loc: (3..5).into(),
            content: Some("de".into()),
            ..first.clone()
        };
        let decoded = round_trip(&EventBundle {
            runs: vec![first.clone(), second],
        });
        let whole = BundleRun {
            loc: (0..5).into(),
            content: Some("abcde".into()),
            ..first
        };
        assert_eq!(decoded.runs, vec![whole]);
    }

    #[test]
    fn empty_bundles_and_runs() {
        assert!(round_trip(&EventBundle::default()).is_empty());
        let empty_run = BundleRun {
            agent: "dave".into(),
            seq_start: 0,
            parents: vec![],
            kind: ListOpKind::Del,
            loc: (4..4).into(),
            fwd: true,
            content: None,
        };
        let bundle = EventBundle {
            runs: vec![empty_run],
        };
        assert!(
            round_trip(&bundle).is_empty(),
            "an empty run carries nothing"
        );
    }

    #[test]
    fn the_writer_starts_each_patch_afresh() {
        let bundle = EventBundle {
            runs: vec![BundleRun {
                agent: "erin".into(),
                seq_start: 40,
                parents: vec![id("frank", 2)],
                kind: ListOpKind::Ins,
                loc: (1..2).into(),
                fwd: true,
                content: Some("x".into()),
            }],
        };
        let mut writer = PatchWriter::default();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        writer.write_bundle(&bundle, &mut first);
        writer.write_bundle(&bundle, &mut second);
        assert_eq!(first, second);
    }
}
