//! Comparison encodings for the file-size experiments (paper §4.5).
//!
//! * [`encode_crdt_state`] — a Yjs-*like* CRDT state file: items in
//!   document order with IDs and origins, deleted characters' content and
//!   the event graph's happened-before edges omitted (what Fig. 12
//!   compares against);
//! * [`encode_verbose`] — a naive one-record-per-event history file with no
//!   run-length encoding: the upper baseline standing in for heavier
//!   full-history formats in Fig. 11.

use crate::varint::push_usize;
use eg_rle::HasLength;
use egwalker::convert::{to_crdt_ops, CrdtOp};
use egwalker::{ListOpKind, OpLog};

/// Encodes the Yjs-like persistent CRDT state: one record per item run
/// (ID, origins, deleted flag, content for visible items). No parents, no
/// deleted text.
pub fn encode_crdt_state(oplog: &OpLog) -> Vec<u8> {
    let ops = to_crdt_ops(oplog);
    // Deleted set.
    let mut deleted: Vec<eg_rle::DTRange> = ops
        .iter()
        .filter_map(|op| match op {
            CrdtOp::Del { target } => Some(*target),
            _ => None,
        })
        .collect();
    deleted.sort_unstable();
    let is_deleted = |lv: usize| -> bool {
        deleted
            .binary_search_by(|r| {
                if lv < r.start {
                    std::cmp::Ordering::Greater
                } else if lv >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    };

    let mut out = Vec::new();
    out.extend_from_slice(b"YJSLIKE1");
    for op in &ops {
        if let CrdtOp::Ins {
            id,
            origin_left,
            origin_right,
            content,
        } = op
        {
            // Split the run at deleted/visible boundaries.
            let chars: Vec<char> = content.chars().collect();
            let mut k = 0usize;
            while k < id.len() {
                let del = is_deleted(id.start + k);
                let mut end = k + 1;
                while end < id.len() && is_deleted(id.start + end) == del {
                    end += 1;
                }
                // Record: id (agent+seq), len, origins, flag, content.
                let span = oplog.agents.lv_to_agent_span(id.start + k);
                push_usize(&mut out, span.agent as usize);
                push_usize(&mut out, span.seq_range.start);
                push_usize(&mut out, end - k);
                push_usize(&mut out, origin_left.map(|v| v + 1).unwrap_or(0));
                push_usize(&mut out, origin_right.map(|v| v + 1).unwrap_or(0));
                out.push(del as u8);
                if !del {
                    let text: String = chars[k..end].iter().collect();
                    push_usize(&mut out, text.len());
                    out.extend_from_slice(text.as_bytes());
                }
                k = end;
            }
        }
    }
    out
}

/// Encodes a naive per-event full-history file: every event spelled out
/// with its agent, sequence number, parents, kind, position and character.
pub fn encode_verbose(oplog: &OpLog) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"VERBOSE1");
    push_usize(&mut out, oplog.len());
    for lv in 0..oplog.len() {
        let (kind, pos, ch) = oplog.unit_op(lv);
        let span = oplog.agents.lv_to_agent_span(lv);
        push_usize(&mut out, span.agent as usize);
        push_usize(&mut out, span.seq_range.start);
        let parents = oplog.graph.parents_of(lv);
        push_usize(&mut out, parents.len());
        for &p in parents.iter() {
            push_usize(&mut out, p);
        }
        out.push(matches!(kind, ListOpKind::Del) as u8);
        push_usize(&mut out, pos);
        if let Some(c) = ch {
            let mut buf = [0u8; 4];
            let s = c.encode_utf8(&mut buf);
            out.push(s.len() as u8);
            out.extend_from_slice(s.as_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::{read_usize, DecodeError};
    use egwalker::testgen::random_oplog;

    /// Decodes the event count of a verbose file.
    fn verbose_event_count(data: &[u8]) -> Result<usize, DecodeError> {
        if data.len() < 8 || &data[..8] != b"VERBOSE1" {
            return Err(DecodeError::BadMagic);
        }
        let mut cur = &data[8..];
        read_usize(&mut cur)
    }

    #[test]
    fn crdt_state_smaller_than_verbose() {
        let oplog = random_oplog(5, 400, 3, 0.3);
        let state = encode_crdt_state(&oplog);
        let verbose = encode_verbose(&oplog);
        assert!(state.len() < verbose.len());
        assert_eq!(verbose_event_count(&verbose).unwrap(), oplog.len());
    }

    #[test]
    fn crdt_state_omits_deleted_text() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, &"z".repeat(400));
        let full = encode_crdt_state(&oplog);
        oplog.add_delete(a, 0, 350);
        let trimmed = encode_crdt_state(&oplog);
        assert!(trimmed.len() + 300 < full.len());
    }

    #[test]
    fn verbose_scales_per_event() {
        let small = encode_verbose(&random_oplog(1, 50, 2, 0.2));
        let large = encode_verbose(&random_oplog(1, 500, 2, 0.2));
        assert!(large.len() > small.len() * 5);
    }
}
