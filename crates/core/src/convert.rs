//! Converting event graphs into CRDT operation streams.
//!
//! Traditional CRDTs consume ID-based operations (`insert X with origins
//! L/R`, `delete target T`), not index-based events. To benchmark such a
//! CRDT on an editing trace, the trace must first be converted — the paper
//! does this by "simulating (in memory) a set of collaborating peers"
//! (§A.5). Here the simulation *is* an Eg-walker replay: the tracker already
//! resolves every insertion's origins and every deletion's target, so a
//! full-graph walk with an observer yields exactly the CRDT operation
//! stream.

use crate::tracker::{is_underwater_id, CrdtChange, Tracker, ORIGIN_END, ORIGIN_START};
use crate::{OpLog, LV};
use eg_dag::walk::WalkPlan;
use eg_dag::Frontier;
use eg_rle::{DTRange, HasLength};

/// An ID-based CRDT operation (run-length encoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrdtOp {
    /// Insert a run of characters.
    Ins {
        /// IDs of the inserted characters (the insert events' LVs).
        id: DTRange,
        /// ID of the character left of the run at insert time.
        origin_left: Option<LV>,
        /// ID of the character right of the run at insert time.
        origin_right: Option<LV>,
        /// The inserted text.
        content: String,
    },
    /// Mark a run of characters deleted.
    Del {
        /// IDs of the deleted characters (ascending).
        target: DTRange,
    },
}

/// Replays the full event graph and returns the equivalent CRDT operation
/// stream, in a causal order.
pub fn to_crdt_ops(oplog: &OpLog) -> Vec<CrdtOp> {
    let mut ops: Vec<CrdtOp> = Vec::new();
    if oplog.is_empty() {
        return ops;
    }
    let spans = [DTRange::from(0..oplog.len())];
    let mut plan = WalkPlan::new();
    plan.plan(&oplog.graph, &Frontier::root(), &spans, &spans);
    let mut tracker: Tracker = Tracker::new();
    let mut sink = |_lvs: DTRange, _op: crate::TextOpRef<'_>| {};
    for step in plan.iter() {
        for r in step.retreat.iter().rev() {
            tracker.retreat(oplog, *r);
        }
        for r in step.advance {
            tracker.advance(oplog, *r);
        }
        tracker.apply_range_observed(oplog, step.consume, false, &mut sink, &mut |change| {
            match change {
                CrdtChange::Ins { span } => {
                    // In a full replay from the root the placeholder stands
                    // for the (empty) base document, so an origin that
                    // resolves to it means "document end".
                    let origin_left = if span.origin_left == ORIGIN_START {
                        None
                    } else {
                        debug_assert!(!is_underwater_id(span.origin_left));
                        Some(span.origin_left)
                    };
                    let origin_right =
                        if span.origin_right == ORIGIN_END || is_underwater_id(span.origin_right) {
                            None
                        } else {
                            Some(span.origin_right)
                        };
                    let (_, run) = oplog.op_at(span.id.start);
                    let content = oplog.content_slice(run.content.expect("insert content"));
                    ops.push(CrdtOp::Ins {
                        id: span.id,
                        origin_left,
                        origin_right,
                        content: content.chars().take(span.id.len()).collect(),
                    });
                }
                CrdtChange::Del { target, .. } => {
                    ops.push(CrdtOp::Del { target });
                }
            }
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convert_simple() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, "ab");
        oplog.add_delete(a, 0, 1);
        let ops = to_crdt_ops(&oplog);
        assert_eq!(ops.len(), 2);
        match &ops[0] {
            CrdtOp::Ins {
                id,
                origin_left,
                origin_right,
                content,
            } => {
                assert_eq!(*id, (0..2).into());
                assert_eq!(*origin_left, None);
                assert_eq!(*origin_right, None);
                assert_eq!(content, "ab");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &ops[1] {
            CrdtOp::Del { target } => assert_eq!(*target, (0..1).into()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn convert_concurrent_origins() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "xy");
        let base = oplog.version().clone();
        oplog.add_insert_at(a, &base, 1, "A");
        oplog.add_insert_at(b, &base, 1, "B");
        let ops = to_crdt_ops(&oplog);
        assert_eq!(ops.len(), 3);
        // Both concurrent inserts share the origins x (left) and y (right).
        for op in &ops[1..] {
            match op {
                CrdtOp::Ins {
                    origin_left,
                    origin_right,
                    ..
                } => {
                    assert_eq!(*origin_left, Some(0));
                    assert_eq!(*origin_right, Some(1));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
