//! Applying fleet-workload scripts to replicas.
//!
//! One function, [`apply_fleet_op`], is the *only* code path that turns a
//! [`FleetOp`] into replica edits — the worker threads and the
//! single-threaded reference replay ([`replay_fleet_sequential`]) both
//! call it. That is what makes the determinism test meaningful: position
//! clamping, agent naming, and skip rules cannot diverge between the
//! parallel host and the sequential baseline because they are literally
//! the same instructions.

use eg_sync::{DocId, Replica};
use eg_trace::FleetOp;

/// What applying one [`FleetOp`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOutcome {
    /// An insert was merged into the target document.
    Insert,
    /// A delete was merged into the target document.
    Delete,
    /// An edit op was a no-op (delete against an empty document or a
    /// fully clamped-away range) and touched nothing.
    Skipped,
    /// Join/Leave/Ticks — fleet bookkeeping with no document effect.
    NonEdit,
}

/// Per-session agent names, cached so the steady-state edit path never
/// formats strings. Names are namespaced by the host (`"{host}.s{n}"`):
/// two hosts replaying fleets against the same documents must not collide
/// on `(agent, seq)` pairs when they later anti-entropy with each other.
#[derive(Debug)]
pub struct SessionNames {
    prefix: String,
    names: Vec<String>,
}

impl SessionNames {
    pub fn new(host: &str) -> Self {
        SessionNames {
            prefix: host.to_owned(),
            names: Vec::new(),
        }
    }

    /// The agent name for `session`, formatted at most once per session.
    pub fn get(&mut self, session: u32) -> &str {
        let i = session as usize;
        if i >= self.names.len() {
            self.names.resize_with(i + 1, String::new);
        }
        if self.names[i].is_empty() {
            self.names[i] = format!("{}.s{}", self.prefix, session);
        }
        &self.names[i]
    }
}

/// Applies one fleet op to `replica`.
///
/// The generator emits position *hints* (`at` is an arbitrary `u64`);
/// they are reduced against the live document here — insert positions
/// modulo `len + 1`, delete ranges clamped to what exists — so a script
/// is applicable to any replica state and the reduction is a pure
/// function of the per-document history.
pub fn apply_fleet_op(
    replica: &mut Replica,
    names: &mut SessionNames,
    op: &FleetOp,
) -> FleetOutcome {
    match op {
        FleetOp::Insert {
            session,
            doc,
            at,
            text,
        } => {
            let doc = DocId(*doc);
            let len = replica.len_chars(doc);
            let pos = (*at % (len as u64 + 1)) as usize;
            replica.edit_insert_as(doc, names.get(*session), pos, text);
            FleetOutcome::Insert
        }
        FleetOp::Delete {
            session,
            doc,
            at,
            len,
        } => {
            let doc = DocId(*doc);
            let doc_len = replica.len_chars(doc);
            if doc_len == 0 {
                return FleetOutcome::Skipped;
            }
            let pos = (*at % doc_len as u64) as usize;
            let n = (*len).min(doc_len - pos);
            if n == 0 {
                return FleetOutcome::Skipped;
            }
            replica.edit_delete_as(doc, names.get(*session), pos, n);
            FleetOutcome::Delete
        }
        FleetOp::Join { .. } | FleetOp::Leave { .. } | FleetOp::Ticks(_) => FleetOutcome::NonEdit,
    }
}

/// Single-threaded reference replay: one replica, ops applied in script
/// order, then a canonical snapshot. The parallel host must reproduce
/// this byte for byte — shard affinity keeps every document's op
/// subsequence in script order, and documents are independent.
pub fn replay_fleet_sequential(
    host: &str,
    script: &[FleetOp],
) -> Vec<(DocId, Vec<eg_dag::RemoteId>, String)> {
    let mut replica = Replica::new(host);
    let mut names = SessionNames::new(host);
    for op in script {
        apply_fleet_op(&mut replica, &mut names, op);
    }
    replica.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_names_are_cached_and_namespaced() {
        let mut names = SessionNames::new("hostA");
        assert_eq!(names.get(0), "hostA.s0");
        assert_eq!(names.get(7), "hostA.s7");
        let p0 = names.get(0).as_ptr();
        assert_eq!(names.get(0).as_ptr(), p0, "name re-formatted");
    }

    #[test]
    fn insert_positions_reduce_mod_len_plus_one() {
        let mut r = Replica::new("h");
        let mut names = SessionNames::new("h");
        let op = FleetOp::Insert {
            session: 0,
            doc: 1,
            at: 1_000_003,
            text: "ab".into(),
        };
        assert_eq!(
            apply_fleet_op(&mut r, &mut names, &op),
            FleetOutcome::Insert
        );
        assert_eq!(r.text(DocId(1)), "ab");
        // Same hint against a 2-char doc now lands at 1_000_003 % 3 == 1.
        let op = FleetOp::Insert {
            session: 0,
            doc: 1,
            at: 1_000_003,
            text: "X".into(),
        };
        apply_fleet_op(&mut r, &mut names, &op);
        assert_eq!(r.text(DocId(1)), "aXb");
    }

    #[test]
    fn delete_on_empty_doc_is_skipped() {
        let mut r = Replica::new("h");
        let mut names = SessionNames::new("h");
        let op = FleetOp::Delete {
            session: 0,
            doc: 9,
            at: 4,
            len: 2,
        };
        assert_eq!(
            apply_fleet_op(&mut r, &mut names, &op),
            FleetOutcome::Skipped
        );
    }

    #[test]
    fn bookkeeping_ops_touch_nothing() {
        let mut r = Replica::new("h");
        let mut names = SessionNames::new("h");
        for op in [
            FleetOp::Join { session: 1, doc: 0 },
            FleetOp::Leave { session: 1 },
            FleetOp::Ticks(5),
        ] {
            assert_eq!(
                apply_fleet_op(&mut r, &mut names, &op),
                FleetOutcome::NonEdit
            );
        }
        assert!(r.snapshot().is_empty());
    }
}
