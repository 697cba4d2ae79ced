//! [`LinkView`]: what the two ends of one link believe about each other.
//!
//! A digest that repeats every document's whole version vector costs
//! bytes per resident document whether or not anything changed. A link
//! that remembers what it has already said and heard can send the
//! difference instead. The view keeps two per-document version vectors
//! (agent → last sequence number held), both of which only ever grow:
//!
//! * `told` — what the peer has been given to believe *we* hold: every
//!   entry our digests on this link have carried;
//! * `heard` — what *the peer* holds: every entry its digests carried,
//!   merged per agent by maximum.
//!
//! Every bundle run that crosses the link, in either direction, is folded
//! into both: whoever sent it holds it, and whoever received it holds it
//! once integrated — the sender assumes so when it sends, which is what
//! keeps a batch still in flight from being extracted a second time.
//! That assumption, and the deltas built on `told`, are only as good as
//! the link: the owner must [`LinkView::clear`] the view whenever frames
//! may have been lost (the [`crate::SyncLink`] `Mark` / `Reset` audit),
//! after which the next digest is the delta against nothing, i.e.
//! complete.
//!
//! Merging by maximum is sound because an agent's events form a causal
//! chain: holding `(agent, n)` implies holding every `(agent, m ≤ n)`.

use crate::replica::DocId;
use eg_dag::RemoteId;
use eg_rle::HasLength;
use egwalker::EventBundle;
use std::collections::{BTreeMap, BTreeSet};

/// Per document, per agent: the last sequence number held.
type Vectors = BTreeMap<DocId, BTreeMap<String, usize>>;

/// Raises `agent`'s entry to `seq`; returns whether it rose.
fn raise(vector: &mut BTreeMap<String, usize>, agent: &str, seq: usize) -> bool {
    match vector.get_mut(agent) {
        Some(held) if *held >= seq => false,
        Some(held) => {
            *held = seq;
            true
        }
        None => {
            vector.insert(agent.to_owned(), seq);
            true
        }
    }
}

/// The two monotone views of one link; see the module docs. The default
/// view has said and heard nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkView {
    told: Vectors,
    heard: Vectors,
    /// The documents in which `told` may exceed `heard`. Only
    /// [`LinkView::tell`] can make that so, so [`LinkView::behind`] looks
    /// at these alone.
    owed: BTreeSet<DocId>,
}

impl LinkView {
    /// Forgets everything: the next [`LinkView::tell`] reports in full.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// The digest to send for `ours` (current version vectors of some
    /// documents): the entries the peer has not been told yet, which are
    /// recorded as told. Documents with nothing new are left out.
    pub fn tell(&mut self, ours: &[(DocId, Vec<RemoteId>)]) -> Vec<(DocId, Vec<RemoteId>)> {
        let mut delta = Vec::new();
        for (doc, vector) in ours {
            let told = self.told.entry(*doc).or_default();
            let news: Vec<RemoteId> = vector
                .iter()
                .filter(|id| raise(told, &id.agent, id.seq))
                .cloned()
                .collect();
            if !news.is_empty() {
                self.owed.insert(*doc);
                delta.push((*doc, news));
            }
        }
        delta
    }

    /// Takes in a digest from the peer, full or delta alike.
    pub fn hear(&mut self, theirs: &[(DocId, Vec<RemoteId>)]) {
        for (doc, entries) in theirs {
            let heard = self.heard.entry(*doc).or_default();
            for id in entries {
                raise(heard, &id.agent, id.seq);
            }
        }
    }

    /// Records a bundle batch sent to or received from the peer: both
    /// ends hold its runs from here on.
    pub fn crossed(&mut self, batch: &[(DocId, EventBundle)]) {
        for (doc, bundle) in batch {
            for run in &bundle.runs {
                let last = run
                    .seq_start
                    .saturating_add(run.loc.len())
                    .saturating_sub(1);
                raise(self.told.entry(*doc).or_default(), &run.agent, last);
                raise(self.heard.entry(*doc).or_default(), &run.agent, last);
            }
        }
    }

    /// The documents in which the peer has been told of events it does
    /// not hold, each with the version vector the peer is known to have —
    /// the `have` side of a bundle extraction. Empty when the peer lacks
    /// nothing it knows of.
    pub fn behind(&mut self) -> Vec<(DocId, Vec<RemoteId>)> {
        let nothing = BTreeMap::new();
        let mut lacking = Vec::new();
        self.owed.retain(|doc| {
            let told = self.told.get(doc).unwrap_or(&nothing);
            let heard = self.heard.get(doc).unwrap_or(&nothing);
            let lacks = told
                .iter()
                .any(|(agent, seq)| heard.get(agent).map_or(true, |has| has < seq));
            if lacks {
                let have = heard
                    .iter()
                    .map(|(agent, &seq)| RemoteId {
                        agent: agent.clone(),
                        seq,
                    })
                    .collect();
                lacking.push((*doc, have));
            }
            lacks
        });
        lacking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Replica;

    fn id(agent: &str, seq: usize) -> RemoteId {
        RemoteId {
            agent: agent.into(),
            seq,
        }
    }

    #[test]
    fn first_tell_is_complete_and_later_ones_are_deltas() {
        let mut view = LinkView::default();
        let ours = vec![
            (DocId(1), vec![id("a", 4), id("b", 0)]),
            (DocId(2), vec![id("a", 9)]),
        ];
        assert_eq!(
            view.tell(&ours),
            ours,
            "nothing told yet: everything is news"
        );
        assert!(view.tell(&ours).is_empty(), "nothing changed");
        // One agent advanced in one document: one entry, whatever else is
        // resident and however many agents the document has.
        let ours = vec![
            (DocId(1), vec![id("a", 4), id("b", 3)]),
            (DocId(2), vec![id("a", 9)]),
        ];
        assert_eq!(view.tell(&ours), vec![(DocId(1), vec![id("b", 3)])]);
        // A scoped report only looks at the documents it names.
        assert_eq!(
            view.tell(&[(DocId(2), vec![id("a", 9), id("c", 0)])]),
            vec![(DocId(2), vec![id("c", 0)])]
        );
    }

    #[test]
    fn both_views_only_grow() {
        let mut view = LinkView::default();
        view.tell(&[(DocId(1), vec![id("a", 8)])]);
        view.hear(&[(DocId(1), vec![id("a", 8)])]);
        let settled = view.clone();
        // Stale reports, of ours and of theirs, change nothing.
        assert!(view.tell(&[(DocId(1), vec![id("a", 3)])]).is_empty());
        view.hear(&[(DocId(1), vec![id("a", 2)])]);
        assert_eq!(view, settled);
        assert!(view.behind().is_empty());
    }

    #[test]
    fn behind_lists_what_the_peer_was_told_of_but_lacks() {
        let mut view = LinkView::default();
        assert!(view.behind().is_empty());
        view.tell(&[
            (DocId(1), vec![id("a", 4)]),
            (DocId(2), vec![id("a", 1), id("b", 6)]),
            (DocId(3), Vec::new()),
        ]);
        // Heard nothing yet: the peer lacks every non-empty document.
        assert_eq!(
            view.behind(),
            vec![(DocId(1), Vec::new()), (DocId(2), Vec::new())]
        );
        // The peer is level in doc 1, ahead on `a` and short on `b` in
        // doc 2, and holds a document we have never reported on.
        view.hear(&[
            (DocId(1), vec![id("a", 4)]),
            (DocId(2), vec![id("a", 7), id("b", 2)]),
            (DocId(9), vec![id("z", 0)]),
        ]);
        assert_eq!(
            view.behind(),
            vec![(DocId(2), vec![id("a", 7), id("b", 2)])]
        );
        view.hear(&[(DocId(2), vec![id("b", 6)])]);
        assert!(view.behind().is_empty());
    }

    #[test]
    fn crossed_runs_are_held_by_both_ends() {
        let mut alice = Replica::new("alice");
        alice.insert(DocId(5), 0, "hello");
        let later = alice.insert(DocId(5), 5, " world");
        assert_eq!(later.runs[0].seq_start, 5);

        // Sent: the peer is assumed to hold the runs, so the same events
        // are not extracted again while the batch is still in flight.
        let mut sender = LinkView::default();
        sender.tell(&alice.digest_all());
        assert_eq!(sender.behind().len(), 1);
        let batch = vec![(DocId(5), alice.bundle_since(DocId(5), &[]))];
        sender.crossed(&batch);
        assert!(sender.behind().is_empty(), "in flight counts as held");

        // Received: the sender holds what it sent, and knows we do, so
        // neither a digest nor a bundle goes back for it.
        let mut receiver = LinkView::default();
        receiver.crossed(&batch);
        assert!(receiver.tell(&alice.digest_all()).is_empty());
        assert!(receiver.behind().is_empty());

        // A run in the middle of an agent's history stands for all of it.
        let mut partial = LinkView::default();
        partial.crossed(&[(DocId(5), later)]);
        assert!(partial
            .tell(&[(DocId(5), vec![id("alice", 10)])])
            .is_empty());
        assert_eq!(
            partial.tell(&[(DocId(5), vec![id("alice", 11)])]),
            vec![(DocId(5), vec![id("alice", 11)])]
        );
    }

    #[test]
    fn clear_makes_the_next_tell_complete_again() {
        let mut view = LinkView::default();
        let ours = vec![(DocId(1), vec![id("a", 4)])];
        view.tell(&ours);
        view.hear(&ours);
        view.clear();
        assert_eq!(view, LinkView::default());
        assert_eq!(view.tell(&ours), ours);
        assert_eq!(view.behind(), vec![(DocId(1), Vec::new())]);
    }
}
