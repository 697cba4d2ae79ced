//! Multi-document sync workloads: deterministic edit scripts for driving
//! an [`eg_sync::NetworkSim`] across many nodes and document shards.
//!
//! The Table 1 generators ([`crate::gen`]) produce one oplog per trace —
//! the algorithm's input. The sync layer needs something different: a
//! *script* of node-scoped, document-scoped edits interleaved with time,
//! so the same workload can be replayed against different topologies
//! (mesh vs star), flush cadences, and link models and their
//! bytes-on-wire compared honestly. Positions are carried as raw hints
//! and reduced modulo the live document length at apply time, so every
//! edit is valid regardless of how deliveries interleaved.

use eg_sync::{DocId, NetworkSim};
use egwalker::testgen::SmallRng;

/// Parameters of one sync workload.
#[derive(Debug, Clone)]
pub struct SyncWorkloadSpec {
    /// Number of simulated nodes.
    pub nodes: usize,
    /// Number of document shards (ids `0..docs`).
    pub docs: u64,
    /// Total editing bursts to generate.
    pub bursts: usize,
    /// Characters typed (or deleted) per burst, `(min, max)` inclusive.
    pub burst_len: (usize, usize),
    /// Ticks of simulated time between bursts, `(min, max)` inclusive.
    pub gap_ticks: (u64, u64),
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for SyncWorkloadSpec {
    fn default() -> Self {
        SyncWorkloadSpec {
            nodes: 8,
            docs: 2,
            bursts: 64,
            burst_len: (2, 12),
            gap_ticks: (0, 3),
            seed: 0x5EED,
        }
    }
}

/// One step of a sync workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOp {
    /// Insert `text` in `doc` at node `node`; `at` is reduced modulo the
    /// live document length at apply time.
    Insert {
        /// Editing node.
        node: usize,
        /// Target document shard.
        doc: u64,
        /// Raw position hint.
        at: u64,
        /// Characters to type.
        text: String,
    },
    /// Delete up to `len` characters in `doc` at node `node`.
    Delete {
        /// Editing node.
        node: usize,
        /// Target document shard.
        doc: u64,
        /// Raw position hint.
        at: u64,
        /// Characters to delete (clamped to the document).
        len: usize,
    },
    /// Advance simulated time by this many ticks.
    Ticks(u64),
}

/// Word-like filler, kept tiny and local (no dependency on the Table 1
/// babbler so the script shape stays independent of the trace
/// generators).
fn babble(rng: &mut SmallRng, n: usize) -> String {
    const SYLLABLES: &[&str] = &[
        "ing", "ter", "al", "ed", "es", "re", "tion", "an", "de", "en", "the", "to",
    ];
    let mut out = String::with_capacity(n + 4);
    while out.len() < n {
        if !out.is_empty() && rng.below(5) == 0 {
            out.push(' ');
        }
        out.push_str(SYLLABLES[rng.below(SYLLABLES.len())]);
    }
    out.truncate(n);
    out
}

/// Generates a deterministic multi-document edit script.
///
/// Bursts model typing: one node picks a (skewed-popularity) document and
/// types or deletes a run of characters, then time advances. Roughly one
/// burst in six deletes; everything else inserts.
pub fn sync_workload(spec: &SyncWorkloadSpec) -> Vec<SyncOp> {
    assert!(spec.nodes > 0 && spec.docs > 0 && spec.burst_len.0 >= 1);
    assert!(spec.burst_len.0 <= spec.burst_len.1);
    assert!(spec.gap_ticks.0 <= spec.gap_ticks.1);
    let mut rng = SmallRng::new(spec.seed);
    let mut ops = Vec::with_capacity(spec.bursts * 2);
    for _ in 0..spec.bursts {
        let node = rng.below(spec.nodes);
        // Skew document popularity: min of two draws biases toward low
        // ids, giving a few hot shards and a long cool tail.
        let doc = (rng
            .below(spec.docs as usize)
            .min(rng.below(spec.docs as usize))) as u64;
        let len = spec.burst_len.0 + rng.below(spec.burst_len.1 - spec.burst_len.0 + 1);
        let at = (rng.below(usize::MAX >> 1)) as u64;
        if rng.below(6) == 0 {
            ops.push(SyncOp::Delete { node, doc, at, len });
        } else {
            let text = babble(&mut rng, len);
            ops.push(SyncOp::Insert {
                node,
                doc,
                at,
                text,
            });
        }
        let gap =
            spec.gap_ticks.0 + rng.below((spec.gap_ticks.1 - spec.gap_ticks.0 + 1) as usize) as u64;
        if gap > 0 {
            ops.push(SyncOp::Ticks(gap));
        }
    }
    ops
}

/// Applies one script step to a sync engine, clamping position hints to
/// the editing node's live view.
pub(crate) fn apply_sync_op(net: &mut NetworkSim, op: &SyncOp) {
    match op {
        SyncOp::Insert {
            node,
            doc,
            at,
            text,
        } => {
            let len = net.replica(*node).len_chars(DocId(*doc));
            let pos = (*at as usize) % (len + 1);
            net.edit_insert(*node, DocId(*doc), pos, text);
        }
        SyncOp::Delete { node, doc, at, len } => {
            let doc_len = net.replica(*node).len_chars(DocId(*doc));
            if doc_len == 0 {
                return;
            }
            let pos = (*at as usize) % doc_len;
            let n = (*len).min(doc_len - pos);
            if n > 0 {
                net.edit_delete(*node, DocId(*doc), pos, n);
            }
        }
        SyncOp::Ticks(n) => {
            for _ in 0..*n {
                net.tick();
            }
        }
    }
}

/// Applies a whole script; see [`apply_sync_op`].
pub fn apply_sync_workload(net: &mut NetworkSim, ops: &[SyncOp]) {
    for op in ops {
        apply_sync_op(net, op);
    }
}

// ---------------------------------------------------------------------------
// Fleet workloads: what a multi-core server host actually serves.
// ---------------------------------------------------------------------------

/// Parameters of a fleet workload: many documents, many sessions, the
/// access patterns observed in large collaborative deployments (see the
/// Large-Scale Collaborative Writing paper in PAPERS.md): *zipfian*
/// document popularity (a few hot documents, a long cold tail), *bursty*
/// typing separated by think time, and session *churn* (editors joining
/// a document, working for a while, and moving on).
///
/// The generated script is a pure function of the spec, so the same fleet
/// can be replayed against a single-threaded baseline and a multi-worker
/// host and the results compared byte for byte.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Document population (ids `0..docs`; id 0 is the most popular).
    pub docs: u64,
    /// Live session slots. Each slot is one editor identity (`s<slot>`);
    /// on churn the slot leaves its document and rejoins another.
    pub sessions: usize,
    /// Total edit operations (insert or delete bursts) to generate.
    pub edits: usize,
    /// Zipf exponent for document popularity (1.0 is the classic web
    /// skew; 0.0 degenerates to uniform).
    pub zipf_s: f64,
    /// Characters typed (or deleted) per burst, `(min, max)` inclusive.
    pub burst_len: (usize, usize),
    /// Think-time ticks between one session's bursts, `(min, max)`
    /// inclusive.
    pub think_ticks: (u64, u64),
    /// Per-burst probability (‰) that the session leaves its document
    /// afterwards and rejoins a freshly drawn one.
    pub churn_per_mille: u32,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            docs: 128,
            sessions: 64,
            edits: 4096,
            zipf_s: 1.0,
            burst_len: (2, 12),
            think_ticks: (1, 8),
            churn_per_mille: 30,
            seed: 0xF1EE7,
        }
    }
}

/// One step of a fleet workload.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    /// Session `session` opens `doc` and will edit it until it leaves.
    Join {
        /// Session slot.
        session: u32,
        /// Document it opened.
        doc: u64,
    },
    /// Session `session` closes its current document.
    Leave {
        /// Session slot.
        session: u32,
    },
    /// One typing burst: `text` inserted at the raw position hint `at`
    /// (reduced modulo the live document length at apply time).
    Insert {
        /// Authoring session slot.
        session: u32,
        /// Target document.
        doc: u64,
        /// Raw position hint.
        at: u64,
        /// Characters typed.
        text: String,
    },
    /// One deletion burst: up to `len` characters removed at the raw
    /// position hint `at` (clamped to the live document at apply time).
    Delete {
        /// Authoring session slot.
        session: u32,
        /// Target document.
        doc: u64,
        /// Raw position hint.
        at: u64,
        /// Characters to delete.
        len: usize,
    },
    /// Simulated think time: no session was due for this many ticks.
    Ticks(u64),
}

/// Zipfian sampler over `0..docs`: popularity of rank `k` is
/// `1 / (k+1)^s`, sampled by binary search over the cumulative weights.
/// Purely deterministic for a given RNG stream.
#[derive(Debug, Clone)]
struct Zipf {
    /// Cumulative (unnormalised) weights; `cdf[k]` covers ranks `0..=k`.
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(docs: u64, s: f64) -> Self {
        assert!(docs > 0, "zipf over an empty population");
        let mut cdf = Vec::with_capacity(docs as usize);
        let mut total = 0.0;
        for k in 0..docs {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        let target = rng.unit_f64() * self.cdf[self.cdf.len() - 1];
        // partition_point: first rank whose cumulative weight exceeds the
        // dart. The last bucket is a catch-all for target == total.
        let idx = self.cdf.partition_point(|&c| c <= target);
        idx.min(self.cdf.len() - 1) as u64
    }
}

/// One live session while generating: its document and next wake-up time.
#[derive(Debug, Clone)]
struct SessionState {
    doc: u64,
    wake: u64,
}

/// Generates a deterministic fleet edit script (see [`FleetSpec`]).
///
/// The script is event-driven: every session sleeps for a think-time gap
/// between bursts, and the generator always wakes the earliest-due
/// session (ties broken by slot number), so sessions genuinely interleave
/// the way a fleet of concurrent editors does. A burst is one run of
/// typing (roughly one in six bursts deletes instead); after a burst the
/// session may churn — leave its document and rejoin a freshly drawn
/// (zipf-popular) one.
pub fn fleet_workload(spec: &FleetSpec) -> Vec<FleetOp> {
    assert!(spec.docs > 0 && spec.sessions > 0, "empty fleet");
    assert!(spec.sessions <= u32::MAX as usize, "too many sessions");
    assert!(spec.burst_len.0 >= 1 && spec.burst_len.0 <= spec.burst_len.1);
    assert!(spec.think_ticks.0 <= spec.think_ticks.1);
    let mut rng = SmallRng::new(spec.seed);
    let zipf = Zipf::new(spec.docs, spec.zipf_s);
    let mut ops = Vec::with_capacity(spec.edits * 2 + spec.sessions);
    let mut now = 0u64;

    // Everyone joins up front, with staggered first wake-ups so the
    // initial bursts interleave rather than running slot 0..n in order.
    let mut sessions: Vec<SessionState> = (0..spec.sessions)
        .map(|slot| {
            let doc = zipf.sample(&mut rng);
            ops.push(FleetOp::Join {
                session: slot as u32,
                doc,
            });
            let spread = spec.think_ticks.1.max(1);
            SessionState {
                doc,
                wake: rng.below(spread as usize) as u64,
            }
        })
        .collect();

    for _ in 0..spec.edits {
        // Wake the earliest-due session (lowest slot wins ties).
        let slot = (0..sessions.len())
            .min_by_key(|&i| (sessions[i].wake, i))
            .unwrap();
        if sessions[slot].wake > now {
            ops.push(FleetOp::Ticks(sessions[slot].wake - now));
            now = sessions[slot].wake;
        }
        let session = slot as u32;
        let doc = sessions[slot].doc;
        let len = spec.burst_len.0 + rng.below(spec.burst_len.1 - spec.burst_len.0 + 1);
        let at = (rng.below(usize::MAX >> 1)) as u64;
        if rng.below(6) == 0 {
            ops.push(FleetOp::Delete {
                session,
                doc,
                at,
                len,
            });
        } else {
            let text = babble(&mut rng, len);
            ops.push(FleetOp::Insert {
                session,
                doc,
                at,
                text,
            });
        }
        // Churn: leave and rejoin a freshly drawn document.
        if rng.below(1000) < spec.churn_per_mille as usize {
            ops.push(FleetOp::Leave { session });
            let doc = zipf.sample(&mut rng);
            ops.push(FleetOp::Join { session, doc });
            sessions[slot].doc = doc;
        }
        let think = spec.think_ticks.0
            + rng.below((spec.think_ticks.1 - spec.think_ticks.0 + 1) as usize) as u64;
        sessions[slot].wake = now + think;
    }
    for slot in 0..spec.sessions {
        ops.push(FleetOp::Leave {
            session: slot as u32,
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let spec = SyncWorkloadSpec::default();
        assert_eq!(sync_workload(&spec), sync_workload(&spec));
        let other = SyncWorkloadSpec {
            seed: 1,
            ..spec.clone()
        };
        assert_ne!(sync_workload(&spec), sync_workload(&other));
    }

    #[test]
    fn workload_respects_bounds() {
        let spec = SyncWorkloadSpec {
            nodes: 5,
            docs: 3,
            bursts: 200,
            ..Default::default()
        };
        let ops = sync_workload(&spec);
        let mut edits = 0;
        for op in &ops {
            match op {
                SyncOp::Insert {
                    node, doc, text, ..
                } => {
                    assert!(*node < 5 && *doc < 3);
                    assert!((2..=12).contains(&text.len()));
                    edits += 1;
                }
                SyncOp::Delete { node, doc, len, .. } => {
                    assert!(*node < 5 && *doc < 3);
                    assert!((2..=12).contains(len));
                    edits += 1;
                }
                SyncOp::Ticks(n) => assert!((1..=3).contains(n)),
            }
        }
        assert_eq!(edits, 200);
    }

    #[test]
    fn workload_drives_a_sim_to_convergence() {
        let spec = SyncWorkloadSpec {
            nodes: 4,
            docs: 3,
            bursts: 40,
            ..Default::default()
        };
        let ops = sync_workload(&spec);
        let names: Vec<String> = (0..4).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut net = NetworkSim::new(&refs, 99);
        apply_sync_workload(&mut net, &ops);
        assert!(net.run_until_quiescent(50_000));
        assert!(net.all_converged());
        // The hot shard really is multi-writer.
        assert!(net.replica(0).len_chars(DocId(0)) > 0);
    }

    // --- fleet workloads -------------------------------------------------

    #[test]
    fn fleet_is_deterministic() {
        let spec = FleetSpec::default();
        assert_eq!(fleet_workload(&spec), fleet_workload(&spec));
        let other = FleetSpec {
            seed: 1,
            ..spec.clone()
        };
        assert_ne!(fleet_workload(&spec), fleet_workload(&other));
    }

    #[test]
    fn fleet_respects_bounds() {
        let spec = FleetSpec {
            docs: 24,
            sessions: 10,
            edits: 800,
            ..Default::default()
        };
        let ops = fleet_workload(&spec);
        let mut edits = 0;
        let mut current_doc = vec![None::<u64>; spec.sessions];
        for op in &ops {
            match op {
                FleetOp::Join { session, doc } => {
                    assert!(*doc < 24 && (*session as usize) < 10);
                    assert!(current_doc[*session as usize].is_none(), "double join");
                    current_doc[*session as usize] = Some(*doc);
                }
                FleetOp::Leave { session } => {
                    assert!(
                        current_doc[*session as usize].take().is_some(),
                        "leave w/o join"
                    );
                }
                FleetOp::Insert {
                    session, doc, text, ..
                } => {
                    assert_eq!(current_doc[*session as usize], Some(*doc), "edit w/o join");
                    assert!((2..=12).contains(&text.len()));
                    edits += 1;
                }
                FleetOp::Delete {
                    session, doc, len, ..
                } => {
                    assert_eq!(current_doc[*session as usize], Some(*doc), "edit w/o join");
                    assert!((2..=12).contains(len));
                    edits += 1;
                }
                FleetOp::Ticks(n) => assert!(*n > 0),
            }
        }
        assert_eq!(edits, 800);
        assert!(
            current_doc.iter().all(Option::is_none),
            "sessions left open"
        );
    }

    #[test]
    fn fleet_popularity_is_zipfian() {
        let spec = FleetSpec {
            docs: 64,
            sessions: 32,
            edits: 6000,
            ..Default::default()
        };
        let ops = fleet_workload(&spec);
        let mut per_doc = vec![0usize; 64];
        for op in &ops {
            match op {
                FleetOp::Insert { doc, .. } | FleetOp::Delete { doc, .. } => {
                    per_doc[*doc as usize] += 1;
                }
                _ => {}
            }
        }
        // Rank 0 is the hottest document and the head dwarfs the tail:
        // with s = 1.0 over 64 docs, rank 0 alone carries ~1/H(64) ≈ 21%
        // of the traffic and the top 8 docs a majority of it.
        let max = *per_doc.iter().max().unwrap();
        assert_eq!(per_doc[0], max, "doc 0 is not the hottest");
        let head: usize = per_doc[..8].iter().sum();
        assert!(
            head * 2 > spec.edits,
            "top-8 docs carry only {head}/{} edits — popularity is not skewed",
            spec.edits
        );
        let tail: usize = per_doc[32..].iter().sum();
        assert!(
            tail * 4 < spec.edits,
            "cold tail carries {tail}/{} edits — too flat",
            spec.edits
        );
    }

    #[test]
    fn fleet_churns_sessions() {
        let spec = FleetSpec {
            churn_per_mille: 100,
            ..Default::default()
        };
        let ops = fleet_workload(&spec);
        let joins = ops
            .iter()
            .filter(|op| matches!(op, FleetOp::Join { .. }))
            .count();
        // Every slot joins once up front; churn must add rejoins on top.
        assert!(
            joins > spec.sessions + spec.edits / 50,
            "only {joins} joins across {} edits — churn is not happening",
            spec.edits
        );
    }

    #[test]
    fn fleet_interleaves_sessions() {
        let ops = fleet_workload(&FleetSpec::default());
        // Consecutive edits should regularly come from different sessions
        // (think time forces interleaving).
        let authors: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op {
                FleetOp::Insert { session, .. } | FleetOp::Delete { session, .. } => Some(*session),
                _ => None,
            })
            .collect();
        let switches = authors.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches * 2 > authors.len(),
            "sessions do not interleave: {switches} switches over {} edits",
            authors.len()
        );
    }
}
