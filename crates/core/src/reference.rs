//! A deliberately simple reference implementation of Eg-walker replay,
//! mirroring the paper's Appendix B pseudocode (Listings 1 and 2) and the
//! authors' TypeScript reference implementation.
//!
//! No B-trees, no run-length encoding, no state clearing, no partial replay
//! — just a flat `Vec` of augmented CRDT items walked one event at a time.
//! The optimised walker is property-tested against this oracle.

use crate::op::ListOpKind;
use crate::OpLog;
use eg_dag::{Frontier, LV};

/// Sentinel for "no delete target recorded at this LV".
const NO_TARGET: usize = usize::MAX;

/// Delete-event LV → id of the deleted character, dense over the event-LV
/// space — the representation the optimised tracker uses
/// ([`crate::tracker`]'s `LvIndex`, here always counting from LV 0), kept
/// structurally alike so the two implementations stay comparable.
#[derive(Debug, Default)]
struct DenseDelTargets {
    dense: Vec<usize>,
}

impl DenseDelTargets {
    fn record(&mut self, lv: LV, target: LV) {
        if lv >= self.dense.len() {
            self.dense.resize(lv + 1, NO_TARGET);
        }
        self.dense[lv] = target;
    }

    fn target_of(&self, lv: LV) -> LV {
        let t = self.dense[lv];
        debug_assert_ne!(t, NO_TARGET, "delete {lv} has no recorded target");
        t
    }
}

/// Sentinel: the new item was inserted at the document start.
const START: usize = usize::MAX;
/// Sentinel: the new item was inserted at the document end.
const END: usize = usize::MAX - 1;

/// One augmented CRDT item (paper Listing 1: `AugmentedCRDTItem`).
#[derive(Debug, Clone)]
struct RefItem {
    /// LV of the insert event that created this character.
    id: LV,
    /// LV of the character to the left at insert time, or [`START`].
    origin_left: usize,
    /// LV of the next character to the right at insert time, or [`END`].
    origin_right: usize,
    /// `true` if any applied event deleted this character (effect state).
    ever_deleted: bool,
    /// 0 = not-inserted-yet, 1 = inserted, `n >= 2` = concurrently deleted
    /// `n - 1` times (prepare state).
    prepare_state: i64,
}

/// Replays the events of `oplog` listed in `order` (which must be a valid
/// topological order of a causally closed subset), returning the resulting
/// document text.
pub fn replay_reference_order(oplog: &OpLog, order: &[LV]) -> String {
    let mut items: Vec<RefItem> = Vec::new();
    let mut doc: Vec<char> = Vec::new();
    // Delete event LV → id of the character it deleted.
    let mut del_targets = DenseDelTargets::default();
    let mut cur_version = Frontier::root();

    let find_idx = |items: &[RefItem], id: usize| -> usize {
        items.iter().position(|it| it.id == id).expect("unknown id")
    };

    for &lv in order {
        // Step 1: move the prepare version to the event's parents.
        let parents = oplog.graph.parents_of(lv);
        let d = oplog.graph.diff(&cur_version, &parents);
        for r in &d.only_a {
            for ev in r.iter() {
                let target = match oplog.unit_op(ev).0 {
                    ListOpKind::Ins => ev,
                    ListOpKind::Del => del_targets.target_of(ev),
                };
                let idx = find_idx(&items, target);
                items[idx].prepare_state -= 1;
            }
        }
        for r in &d.only_b {
            for ev in r.iter() {
                let target = match oplog.unit_op(ev).0 {
                    ListOpKind::Ins => ev,
                    ListOpKind::Del => del_targets.target_of(ev),
                };
                let idx = find_idx(&items, target);
                items[idx].prepare_state += 1;
            }
        }

        // Step 2: apply.
        let (kind, pos, ch) = oplog.unit_op(lv);
        match kind {
            ListOpKind::Ins => {
                // Find the insert position: after `pos` prepare-visible items.
                let mut ins_idx = 0;
                let mut seen = 0;
                while seen < pos {
                    if items[ins_idx].prepare_state == 1 {
                        seen += 1;
                    }
                    ins_idx += 1;
                }
                let origin_left = if ins_idx == 0 {
                    START
                } else {
                    items[ins_idx - 1].id
                };
                let origin_right = items[ins_idx..]
                    .iter()
                    .find(|it| it.prepare_state >= 1)
                    .map(|it| it.id)
                    .unwrap_or(END);
                let new_item = RefItem {
                    id: lv,
                    origin_left,
                    origin_right,
                    ever_deleted: false,
                    prepare_state: 1,
                };
                let dest_idx = integrate(oplog, &items, &new_item, ins_idx, &find_idx);
                let effect_pos = items[..dest_idx]
                    .iter()
                    .filter(|it| !it.ever_deleted)
                    .count();
                items.insert(dest_idx, new_item);
                doc.insert(effect_pos, ch.unwrap());
            }
            ListOpKind::Del => {
                // The pos-th prepare-visible item.
                let mut idx = 0;
                let mut seen = 0;
                loop {
                    if items[idx].prepare_state == 1 {
                        if seen == pos {
                            break;
                        }
                        seen += 1;
                    }
                    idx += 1;
                }
                del_targets.record(lv, items[idx].id);
                let was_visible = !items[idx].ever_deleted;
                items[idx].ever_deleted = true;
                items[idx].prepare_state += 1;
                if was_visible {
                    let effect_pos = items[..idx].iter().filter(|it| !it.ever_deleted).count();
                    doc.remove(effect_pos);
                }
            }
        }
        // After applying, the current version is exactly {lv} (the event
        // dominates its parents) — paper Listing 2: `cur_version = {e.id}`.
        cur_version = Frontier::new_1(lv);
    }
    doc.into_iter().collect()
}

/// The YjsMod/FugueMax integration rule (paper §3.3 and Listing 2): decides
/// where among concurrent siblings the new item lands. Returns the index to
/// insert at.
fn integrate(
    oplog: &OpLog,
    items: &[RefItem],
    new_item: &RefItem,
    ins_idx: usize,
    find_idx: &dyn Fn(&[RefItem], usize) -> usize,
) -> usize {
    let left_idx = ins_idx as i64 - 1; // -1 when origin is START
    let right_idx = if new_item.origin_right == END {
        items.len()
    } else {
        find_idx(items, new_item.origin_right)
    };
    let mut scanning = false;
    let mut dest_idx = ins_idx;
    let mut i = ins_idx;
    loop {
        if !scanning {
            dest_idx = i;
        }
        if i == items.len() || i == right_idx {
            break;
        }
        let other = &items[i];
        let oleft = if other.origin_left == START {
            -1
        } else {
            find_idx(items, other.origin_left) as i64
        };
        let oright = if other.origin_right == END {
            items.len()
        } else {
            find_idx(items, other.origin_right)
        };
        #[allow(clippy::comparison_chain)]
        if oleft < left_idx {
            break;
        } else if oleft == left_idx {
            #[allow(clippy::comparison_chain)]
            if oright < right_idx {
                scanning = true;
            } else if oright == right_idx {
                // Same origins: order by agent name (stable across replicas).
                let my_agent = oplog.lv_to_remote(new_item.id).agent;
                let other_agent = oplog.lv_to_remote(other.id).agent;
                if my_agent < other_agent {
                    break;
                }
                scanning = false;
            } else {
                scanning = false;
            }
        }
        i += 1;
    }
    dest_idx
}

/// Replays the full oplog in LV order.
pub fn replay_reference(oplog: &OpLog) -> String {
    let order: Vec<LV> = (0..oplog.len()).collect();
    replay_reference_order(oplog, &order)
}

/// Replays only `Events(version)` (in LV order), producing the historical
/// document at that version.
pub fn replay_reference_version(oplog: &OpLog, version: &[LV]) -> String {
    let d = oplog.graph.diff(&[], version);
    let order: Vec<LV> = d.only_b.iter().flat_map(|r| r.iter()).collect();
    replay_reference_order(oplog, &order)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Figure 1/2: concurrent insertions into "Helo".
    #[test]
    fn fig1_concurrent_inserts() {
        let mut log = OpLog::new();
        let u1 = log.get_or_create_agent("user1");
        let u2 = log.get_or_create_agent("user2");
        log.add_insert(u1, 0, "Helo");
        let base = log.version().clone();
        log.add_insert_at(u1, &base, 3, "l"); // e5
        log.add_insert_at(u2, &base, 4, "!"); // e6
        assert_eq!(replay_reference(&log), "Hello!");
    }

    /// Paper Figure 4: hi → (hey / Hi) → Hey!.
    #[test]
    fn fig4_merge() {
        let mut log = OpLog::new();
        let u1 = log.get_or_create_agent("user1");
        let u2 = log.get_or_create_agent("user2");
        log.add_insert(u1, 0, "hi"); // e1 e2
        let base = log.version().clone();
        // Branch A: capitalise: insert 'H' at 0, delete 'h' (now at 1).
        log.add_insert_at(u2, &base, 0, "H"); // e3
        log.add_delete_at(u2, &[2], 1, 1); // e4
                                           // Branch B: hi -> hey: delete 'i' (at 1), insert "ey".
        log.add_delete_at(u1, &base, 1, 1); // e5
        log.add_insert_at(u1, &[4], 1, "ey"); // e6 e7
                                              // Merge and append '!'.
        let merged = log.version().clone();
        assert_eq!(merged.as_slice(), &[3, 6]);
        log.add_insert_at(u1, &merged, 3, "!"); // e8
        assert_eq!(replay_reference(&log), "Hey!");
    }

    /// Concurrent deletes of the same character collapse to one deletion.
    #[test]
    fn concurrent_double_delete() {
        let mut log = OpLog::new();
        let u1 = log.get_or_create_agent("user1");
        let u2 = log.get_or_create_agent("user2");
        log.add_insert(u1, 0, "abc");
        let base = log.version().clone();
        log.add_delete_at(u1, &base, 1, 1);
        log.add_delete_at(u2, &base, 1, 1);
        assert_eq!(replay_reference(&log), "ac");
    }

    /// Delete of a character concurrent with an insert before it.
    #[test]
    fn insert_before_concurrent_delete() {
        let mut log = OpLog::new();
        let u1 = log.get_or_create_agent("user1");
        let u2 = log.get_or_create_agent("user2");
        log.add_insert(u1, 0, "abc");
        let base = log.version().clone();
        log.add_insert_at(u1, &base, 0, "X");
        log.add_delete_at(u2, &base, 2, 1); // deletes 'c'
        assert_eq!(replay_reference(&log), "Xab");
    }

    /// Replay order must not matter (convergence, paper Lemma C.8).
    #[test]
    fn order_independence_fig4() {
        let mut log = OpLog::new();
        let u1 = log.get_or_create_agent("user1");
        let u2 = log.get_or_create_agent("user2");
        log.add_insert(u1, 0, "hi");
        let base = log.version().clone();
        log.add_insert_at(u2, &base, 0, "H");
        log.add_delete_at(u2, &[2], 1, 1);
        log.add_delete_at(u1, &base, 1, 1);
        log.add_insert_at(u1, &[4], 1, "ey");
        log.add_insert_at(u1, &[3, 6], 3, "!");

        let expected = replay_reference(&log);
        // A different topological order: branch B first.
        let order = vec![0, 1, 4, 5, 6, 2, 3, 7];
        assert_eq!(replay_reference_order(&log, &order), expected);
        // Interleaved.
        let order = vec![0, 1, 2, 4, 3, 5, 6, 7];
        assert_eq!(replay_reference_order(&log, &order), expected);
    }

    /// Historical checkout.
    #[test]
    fn replay_at_version() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        log.add_insert(a, 0, "abc");
        log.add_delete(a, 0, 1);
        log.add_insert(a, 2, "X");
        assert_eq!(replay_reference_version(&log, &[2]), "abc");
        assert_eq!(replay_reference_version(&log, &[3]), "bc");
        assert_eq!(
            replay_reference_version(&log, &log.version().clone()),
            "bcX"
        );
    }

    /// Sequential inserts at the same position by different agents do not
    /// interleave badly (agent-name tie-break is deterministic).
    #[test]
    fn same_position_tiebreak() {
        let mut log = OpLog::new();
        let a = log.get_or_create_agent("alice");
        let b = log.get_or_create_agent("bob");
        log.add_insert(a, 0, "base");
        let v = log.version().clone();
        log.add_insert_at(a, &v, 0, "AAA");
        log.add_insert_at(b, &v, 0, "BBB");
        // Runs stay contiguous (non-interleaving) and agent order is stable.
        assert_eq!(replay_reference(&log), "AAABBBbase");
    }
}
