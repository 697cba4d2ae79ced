//! The §3.8 property columns, written and read in one place.
//!
//! A whole file ([`crate::encode`]) and a patch (the events one peer
//! sends another, `patch.rs`) store events the same way: an ops column,
//! a parents column, the agent names and the agent assignments, each a
//! run-length encoded list of LEB128 integers. These are the writers and
//! readers of one entry of each; the containers around them differ, the
//! entries do not.
//!
//! Readers check only what one entry can show — a zero length, an
//! overflowing end, an agent index past the table, a count larger than
//! the bytes left. Whether the columns agree with each other is the
//! container's check.

use crate::varint::{push_i64, push_usize, read_i64, read_usize, take, DecodeError};
use eg_dag::{AgentAssignment, AgentId};
use eg_rle::{DTRange, HasLength};
use egwalker::{EventBundle, ListOpKind, OpRun, RunView};

/// Appends one ops entry: `len << 2 | kind << 1 | fwd`, then the run's
/// start position as a zigzag delta from the previous entry's.
pub(crate) fn push_op(col: &mut Vec<u8>, prev_pos: &mut i64, op: &OpRun) {
    let kind_bit = usize::from(op.kind == ListOpKind::Del);
    push_usize(col, op.len() << 2 | kind_bit << 1 | usize::from(op.fwd));
    let pos = op.loc.start as i64;
    push_i64(col, pos.wrapping_sub(*prev_pos));
    *prev_pos = pos;
}

/// Reads one ops entry written by [`push_op`]. The run is non-empty and
/// its range does not overflow; its content is `None`.
pub(crate) fn read_op(cur: &mut &[u8], prev_pos: &mut i64) -> Result<OpRun, DecodeError> {
    let head = read_usize(cur)?;
    let run_len = head >> 2;
    let kind = if head & 0b10 != 0 {
        ListOpKind::Del
    } else {
        ListOpKind::Ins
    };
    let pos = prev_pos
        .checked_add(read_i64(cur)?)
        .ok_or(DecodeError::Corrupt)?;
    let start = usize::try_from(pos).map_err(|_| DecodeError::Corrupt)?;
    if run_len == 0 {
        return Err(DecodeError::Corrupt);
    }
    let end = start.checked_add(run_len).ok_or(DecodeError::Corrupt)?;
    *prev_pos = pos;
    Ok(OpRun {
        kind,
        loc: DTRange::new(start, end),
        fwd: head & 1 != 0,
        content: None,
    })
}

/// Appends one parents entry: the length of the span it covers, then
/// the first event's parents. Every later event of the span has the
/// event before it as its one parent, which costs nothing.
pub(crate) fn push_parents(
    col: &mut Vec<u8>,
    span_len: usize,
    parents: impl ExactSizeIterator<Item = usize>,
) {
    push_usize(col, span_len);
    push_usize(col, parents.len());
    for parent in parents {
        push_usize(col, parent);
    }
}

/// Reads the head of one parents entry written by [`push_parents`]: the
/// span length (non-zero) and the parent count (no larger than the bytes
/// left, each parent taking at least one). The parents follow.
pub(crate) fn read_parents_head(cur: &mut &[u8]) -> Result<(usize, usize), DecodeError> {
    let span_len = read_usize(cur)?;
    let count = read_usize(cur)?;
    if span_len == 0 || count > cur.len() {
        return Err(DecodeError::Corrupt);
    }
    Ok((span_len, count))
}

/// Appends the agent-name table: the count, then each name's byte length
/// and UTF-8 bytes.
pub(crate) fn push_names<'a>(col: &mut Vec<u8>, names: impl ExactSizeIterator<Item = &'a str>) {
    push_usize(col, names.len());
    for name in names {
        push_usize(col, name.len());
        col.extend_from_slice(name.as_bytes());
    }
}

/// Reads a table written by [`push_names`], borrowing the names.
pub(crate) fn read_names<'a>(cur: &mut &'a [u8]) -> Result<Vec<&'a str>, DecodeError> {
    let count = read_usize(cur)?;
    // Each name takes at least one byte: refuse a larger count before
    // sizing the allocation by it.
    if count > cur.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = read_usize(cur)?;
        let raw = take(cur, name_len)?;
        names.push(std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?);
    }
    Ok(names)
}

/// The agent-name table of a writer that meets agents as it goes: an
/// agent's index is the order of its first appearance, so equal runs give
/// equal bytes.
#[derive(Debug, Default)]
pub(crate) struct AgentTable {
    /// Index by [`AgentId`] (`usize::MAX` until the agent is met).
    index_of: Vec<usize>,
    /// The agents in index order.
    agents: Vec<AgentId>,
}

impl AgentTable {
    /// The index of `agent`, the next free one at its first use.
    pub(crate) fn index(&mut self, agent: AgentId) -> usize {
        let id = agent as usize;
        if id >= self.index_of.len() {
            self.index_of.resize(id.saturating_add(1), usize::MAX);
        }
        let next = self.agents.len();
        // Always `Some`: the table was just grown to hold `id`.
        let Some(index) = self.index_of.get_mut(id) else {
            return next;
        };
        if *index == usize::MAX {
            *index = next;
            self.agents.push(agent);
        }
        *index
    }

    /// The index of `agent`, if it has been met.
    pub(crate) fn get(&self, agent: AgentId) -> Option<usize> {
        self.index_of
            .get(agent as usize)
            .copied()
            .filter(|&index| index != usize::MAX)
    }

    /// How many agents have been met.
    pub(crate) fn len(&self) -> usize {
        self.agents.len()
    }

    /// Appends the table ([`push_names`]), the names read from `names`.
    pub(crate) fn push_names(&self, col: &mut Vec<u8>, names: &AgentAssignment) {
        push_names(col, self.agents.iter().map(|&a| names.agent_name(a)));
    }

    /// Forgets every agent met, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        for &agent in &self.agents {
            if let Some(index) = self.index_of.get_mut(agent as usize) {
                *index = usize::MAX;
            }
        }
        self.agents.clear();
    }
}

/// Lends `bundle`'s runs to `push` as [`RunView`]s — the form both
/// writers take — with the agents interned in the returned table in the
/// order they are met, so that each name is hashed here and nowhere else.
pub(crate) fn bundle_views(
    bundle: &EventBundle,
    mut push: impl FnMut(&RunView<'_>),
) -> AgentAssignment {
    let mut names = AgentAssignment::new();
    let mut parents: Vec<(AgentId, usize)> = Vec::new();
    for run in &bundle.runs {
        let agent = names.get_or_create_agent(&run.agent);
        parents.clear();
        for p in &run.parents {
            parents.push((names.get_or_create_agent(&p.agent), p.seq));
        }
        push(&RunView {
            agent,
            seq_start: run.seq_start,
            parents: &parents,
            kind: run.kind,
            loc: run.loc,
            fwd: run.fwd,
            content: run.content.as_deref(),
        });
    }
    names
}

/// One agent-assignment entry: `len` events by the agent at index
/// `agent`, with sequence numbers from `seq_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Assignment {
    pub(crate) agent: usize,
    pub(crate) seq_start: usize,
    pub(crate) len: usize,
}

/// Appends one agent-assignment entry: the agent index, how far the
/// first sequence number lies past `next_seq` — the one the reader
/// expects for that agent — and the length.
///
/// A whole file expects 0, and so stores the sequence number itself. A
/// patch expects the end of the agent's previous entry, which makes the
/// usual distance 0; an agent's first entry in a patch, or a gap where
/// the receiver holds the events between, stores the distance. It wraps,
/// so a start below the expected one (a hand-built bundle's agent going
/// back in its sequence) still reads back exactly.
pub(crate) fn push_assignment(col: &mut Vec<u8>, entry: Assignment, next_seq: usize) {
    push_usize(col, entry.agent);
    push_usize(col, entry.seq_start.wrapping_sub(next_seq));
    push_usize(col, entry.len);
}

/// Reads one entry written by [`push_assignment`], with `next_seq` giving
/// the expected sequence number of a valid agent index. The agent index
/// is below `num_agents`, the length is non-zero and the sequence numbers
/// do not overflow.
pub(crate) fn read_assignment(
    cur: &mut &[u8],
    num_agents: usize,
    next_seq: impl FnOnce(usize) -> usize,
) -> Result<Assignment, DecodeError> {
    let agent = read_usize(cur)?;
    let jump = read_usize(cur)?;
    let len = read_usize(cur)?;
    if agent >= num_agents || len == 0 {
        return Err(DecodeError::Corrupt);
    }
    let seq_start = next_seq(agent).wrapping_add(jump);
    if seq_start.checked_add(len).is_none() {
        return Err(DecodeError::Corrupt);
    }
    Ok(Assignment {
        agent,
        seq_start,
        len,
    })
}
