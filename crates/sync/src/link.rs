//! [`SyncLink`]: one end of an anti-entropy link, as a sans-IO state
//! machine.
//!
//! The link holds no clock, socket or thread. Its inputs are calls — the
//! link opened, a local change, the periodic mark, a frame body from the
//! peer, a reset — and its output is a queue of encoded frames
//! ([`SyncLink::poll_outgoing`]) that a driver carries to the other end.
//! It reads and writes documents through a [`SyncHost`]. There are two
//! drivers: the daemon's `PeerSession`, which wraps a link in a
//! handshake, heartbeats and a byte-capped outbox over a socket, and
//! [`crate::NetworkSim`], which carries frames over a simulated
//! [`crate::Transport`]. [`settle`] is the smallest one, a lossless
//! in-process pair.
//!
//! **What is said.** The link keeps a view of what its digests have told
//! the peer this host holds, and of what the peer is known to hold. A
//! `Digest` carries only the entries the peer has not been told yet —
//! one `(doc, agent, seq)` for a keystroke, whatever else is resident —
//! and `Bundles` are extracted against what the peer is known to hold,
//! which counts a batch as held from the moment it is queued, so a digest
//! that was already on its way does not get the same events twice. The
//! first digest of a link is the delta against an empty view, i.e. every
//! document's whole version vector.
//!
//! **When it is said.** A digest goes out when the link opens, after a
//! local change ([`SyncLink::local_change`]) and as the acknowledgement
//! of a bundle batch. Bundles travel only in answer to a frame from the
//! peer: to a `Digest`, or to the periodic `Mark`, whenever the view then
//! says the peer lacks something. Nothing is pulled: a digest that shows
//! the *sender* ahead is not answered, so a lone edit waits for the other
//! side's next frame — at the latest its next `Mark`.
//!
//! **The audit.** Deltas and optimism are only right while no sync frame
//! is lost. So each end tallies the sync frames it queues and the ones it
//! decodes ([`FrameTally`]), and [`SyncLink::mark`] sends the former. A
//! receiver whose tally agrees has seen everything the view assumes; one
//! whose tally differs sends `Reset`, and both ends clear their views and
//! reopen with a complete digest, exactly as when the link opened. A
//! driver that lost frames itself (an outbox that shed its queue) calls
//! [`SyncLink::reset`]. Between asking for a reset and the peer's answer
//! a link reads no sync frame and no mark: they were written against the
//! old views.
//!
//! **The link contract.** The audit assumes what a connection gives it:
//! frames on one directed link arrive in the order they were sent, and
//! only `Sync` frames are lost, repeated, corrupted or delayed — `Mark`
//! and `Reset` always arrive. A sync frame that fails to decode is
//! skipped; the next mark's mismatch resets the link. A partition is a
//! disconnect: both ends drop their links, and a reconnect opens new
//! ones.

use std::collections::VecDeque;

use eg_dag::RemoteId;
use egwalker::EventBundle;

use crate::frame::{
    frame_sync, is_bundle_body, FrameError, FrameTally, WireFrame, FRAME_HEADER_LEN,
};
use crate::link_view::LinkView;
use crate::message::Message;
use crate::replica::DocId;

/// Max documents per bundle frame: keeps encoded frames far below the
/// decoder's 16 MiB guard for realistic bundle sizes.
const BUNDLE_DOCS_PER_FRAME: usize = 32;

/// The documents a [`SyncLink`] synchronises: what it needs to read a
/// digest, extract bundles and integrate them.
pub trait SyncHost {
    /// The version vectors of `docs`, ascending by id; unknown and empty
    /// documents are left out.
    fn digest_of(&self, docs: &[DocId]) -> Vec<(DocId, Vec<RemoteId>)>;

    /// The version vector of every non-empty document, ascending by id.
    fn digest_all(&self) -> Vec<(DocId, Vec<RemoteId>)>;

    /// For each listed document, the events this host holds that a peer
    /// with the listed version vector lacks; documents with nothing to
    /// send are left out.
    fn bundles_for_listed(&self, have: &[(DocId, Vec<RemoteId>)]) -> Vec<(DocId, EventBundle)>;

    /// Integrates a batch from the peer and returns the batch's
    /// documents.
    fn receive(&mut self, batch: Vec<(DocId, EventBundle)>) -> Vec<DocId>;
}

/// One end of an anti-entropy link; see the module docs.
#[derive(Debug)]
pub struct SyncLink {
    view: LinkView,
    /// Sync frames queued since the last `Reset` this end sent.
    sent: FrameTally,
    /// Sync frames decoded since the last `Reset` this end received.
    seen: FrameTally,
    /// This end asked for a reset and the peer has not answered yet.
    awaiting_reset: bool,
    /// Encoded frames for the driver to carry, oldest first.
    outgoing: VecDeque<Vec<u8>>,
}

impl SyncLink {
    /// A link that has just connected: it queues the complete digest of
    /// `host`.
    pub fn open(host: &impl SyncHost) -> SyncLink {
        let mut link = SyncLink {
            view: LinkView::default(),
            sent: FrameTally::default(),
            seen: FrameTally::default(),
            awaiting_reset: false,
            outgoing: VecDeque::new(),
        };
        link.local_change(host, None);
        link
    }

    /// Tells the peer what changed in `docs` (`None`: in any document):
    /// the entries it has not been told yet. The digest goes out even
    /// when that is nothing, as it is also the peer's cue to answer with
    /// what this host lacks.
    pub fn local_change(&mut self, host: &impl SyncHost, docs: Option<&[DocId]>) {
        let ours = match docs {
            Some(docs) => host.digest_of(docs),
            None => host.digest_all(),
        };
        let digest = Message::Digest(self.view.tell(&ours));
        self.queue_sync(&digest.encode());
    }

    /// Queues the periodic audit frame: the tally of sync frames queued
    /// on this link since its last reset.
    pub fn mark(&mut self) {
        self.outgoing.push_back(WireFrame::Mark(self.sent).encode());
    }

    /// Asks the peer to reset the link, for a driver that lost frames the
    /// view counts as delivered.
    pub fn reset(&mut self, host: &impl SyncHost) {
        self.restart(host, false);
    }

    /// The next encoded frame (length prefix included) to carry to the
    /// peer, oldest first.
    pub fn poll_outgoing(&mut self) -> Option<Vec<u8>> {
        self.outgoing.pop_front()
    }

    /// Handles one frame body from the peer (as cut by
    /// `FrameDecoder::next_frame`). Returns the documents of a bundle
    /// batch it integrated, for the driver to announce on its other
    /// links. Handshake and heartbeat frames are the connection's
    /// business and are ignored here.
    pub fn on_frame(
        &mut self,
        host: &mut impl SyncHost,
        body: &[u8],
    ) -> Result<Vec<DocId>, FrameError> {
        match WireFrame::decode(body)? {
            WireFrame::Reset { echo } => {
                // The incoming tally restarts here, whoever asked.
                self.seen = FrameTally::default();
                self.awaiting_reset = false;
                if !echo {
                    self.restart(host, true);
                }
            }
            // Written against views this end has already thrown away.
            WireFrame::Sync(_) | WireFrame::Mark(_) if self.awaiting_reset => {}
            WireFrame::Mark(theirs) => {
                if theirs == self.seen {
                    // Every sync frame the peer sent has been read: the
                    // view is sound, and this is the peer's periodic cue.
                    self.answer(host);
                } else {
                    self.restart(host, false);
                }
            }
            WireFrame::Sync(Message::Digest(theirs)) => {
                self.seen.note(body);
                self.view.hear(&theirs);
                self.answer(host);
            }
            WireFrame::Sync(Message::Bundles(batch)) => {
                self.seen.note(body);
                self.view.crossed(&batch);
                let docs = host.receive(batch);
                // Acknowledge: tells the peer whatever else has changed
                // in these documents, and cues it to send anything this
                // host still lacks.
                self.local_change(host, Some(&docs));
                return Ok(docs);
            }
            WireFrame::Hello { .. } | WireFrame::Ping(_) | WireFrame::Pong(_) => {}
        }
        Ok(Vec::new())
    }

    /// Queues an encoded sync message and counts it into the tally the
    /// next mark reports.
    fn queue_sync(&mut self, message: &[u8]) {
        let frame = frame_sync(message);
        self.sent.note(&frame[FRAME_HEADER_LEN..]);
        self.outgoing.push_back(frame);
    }

    /// Queues whatever the view says the peer has been told of and does
    /// not hold, and counts it as held from here on.
    fn answer(&mut self, host: &impl SyncHost) {
        let lacking = self.view.behind();
        if lacking.is_empty() {
            return;
        }
        let bundles = host.bundles_for_listed(&lacking);
        self.view.crossed(&bundles);
        // Chunk by document so no single frame approaches the decoder's
        // max-frame guard on a large backlog.
        for chunk in bundles.chunks(BUNDLE_DOCS_PER_FRAME) {
            self.queue_sync(&Message::encode_bundles(chunk));
        }
    }

    /// Clears the view, restarts the outgoing tally at a `Reset` frame
    /// and reopens with a complete digest. With `echo` this answers the
    /// peer's request; without, it makes one, and the link reads no sync
    /// traffic until the peer has answered.
    fn restart(&mut self, host: &impl SyncHost, echo: bool) {
        self.view.clear();
        self.sent = FrameTally::default();
        self.awaiting_reset = !echo;
        self.outgoing.push_back(WireFrame::Reset { echo }.encode());
        self.local_change(host, None);
    }
}

/// Carries frames between two link ends in process, losslessly and in
/// order, until neither has any left; returns how many bundle frames
/// crossed, both ways. The smallest driver: two hosts in one process
/// converge through it, and a settled pair ships no bundle frame on a
/// further mark round.
pub fn settle(
    a: &mut SyncLink,
    host_a: &mut impl SyncHost,
    b: &mut SyncLink,
    host_b: &mut impl SyncHost,
) -> usize {
    let mut bundles = 0;
    while carry(a, b, host_b, &mut bundles) + carry(b, a, host_a, &mut bundles) > 0 {}
    bundles
}

/// Hands every frame `from` has queued to `to`; returns how many.
fn carry(
    from: &mut SyncLink,
    to: &mut SyncLink,
    host: &mut impl SyncHost,
    bundles: &mut usize,
) -> usize {
    let mut moved = 0;
    while let Some(frame) = from.poll_outgoing() {
        let body = &frame[FRAME_HEADER_LEN..];
        *bundles += usize::from(is_bundle_body(body));
        // A frame this crate encoded always decodes.
        let _ = to.on_frame(host, body);
        moved += 1;
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{TAG_RESET, TAG_SYNC};
    use crate::replica::Replica;

    const HOT: DocId = DocId(1000);

    /// One insert at the start of `doc`, authored by session `session`
    /// of host `r`.
    fn edit_as(r: &mut Replica, session: u32, doc: DocId, text: &str) {
        let agent = format!("{}.s{session}", r.name());
        r.edit_insert_as(doc, &agent, 0, text);
    }

    fn edit(r: &mut Replica, doc: u64, text: &str) {
        edit_as(r, 0, DocId(doc), text);
    }

    /// Drains every queued frame of `from` into `to`, returning how many
    /// crossed and counting the resets among them. The link may lose one
    /// sync frame: `drop` counts down over the sync frames crossing and
    /// swallows the one it reaches zero on, as the fault proxy would.
    fn pump(
        from: &mut SyncLink,
        to: &mut SyncLink,
        to_host: &mut Replica,
        drop: &mut Option<usize>,
        resets: &mut usize,
    ) -> usize {
        let mut moved = 0;
        while let Some(frame) = from.poll_outgoing() {
            let body = &frame[FRAME_HEADER_LEN..];
            match body.first() {
                Some(&TAG_SYNC) => match drop {
                    Some(0) => {
                        *drop = None;
                        continue;
                    }
                    Some(n) => *n -= 1,
                    None => {}
                },
                Some(&TAG_RESET) => *resets += 1,
                _ => {}
            }
            to.on_frame(to_host, body).expect("well-formed");
            moved += 1;
        }
        moved
    }

    /// Two hosts and the two ends of the link between them, with the
    /// bytes and resets that have crossed it.
    struct Pair {
        ha: Replica,
        hb: Replica,
        la: SyncLink,
        lb: SyncLink,
        bytes: usize,
        /// Reset frames each end has sent.
        resets: [usize; 2],
        /// When set, the link loses the sync frame with that index.
        drop: Option<usize>,
    }

    impl Pair {
        /// Two hosts written to by `seed`, and a link just opened
        /// between them.
        fn new(seed: impl FnOnce(&mut Replica, &mut Replica)) -> Pair {
            let (mut ha, mut hb) = (Replica::new("alpha"), Replica::new("beta"));
            seed(&mut ha, &mut hb);
            let (la, lb) = (SyncLink::open(&ha), SyncLink::open(&hb));
            Pair {
                ha,
                hb,
                la,
                lb,
                bytes: 0,
                resets: [0; 2],
                drop: None,
            }
        }

        fn queued(link: &SyncLink) -> usize {
            link.outgoing.iter().map(Vec::len).sum()
        }

        fn a_to_b(&mut self) -> usize {
            self.bytes += Self::queued(&self.la);
            let Pair {
                hb,
                la,
                lb,
                drop,
                resets,
                ..
            } = self;
            pump(la, lb, hb, drop, &mut resets[0])
        }

        fn b_to_a(&mut self) -> usize {
            self.bytes += Self::queued(&self.lb);
            let Pair {
                ha,
                la,
                lb,
                drop,
                resets,
                ..
            } = self;
            pump(lb, la, ha, drop, &mut resets[1])
        }

        /// Carries frames back and forth until neither end has any.
        fn settle(&mut self) {
            for _ in 0..32 {
                if self.a_to_b() + self.b_to_a() == 0 {
                    return;
                }
            }
            panic!("the exchange does not terminate");
        }

        /// A local edit on alpha, announced as the daemon announces it.
        fn type_a(&mut self, session: u32, doc: DocId, text: &str) {
            edit_as(&mut self.ha, session, doc, text);
            self.la.local_change(&self.ha, Some(&[doc]));
        }

        fn type_b(&mut self, session: u32, doc: DocId, text: &str) {
            edit_as(&mut self.hb, session, doc, text);
            self.lb.local_change(&self.hb, Some(&[doc]));
        }

        /// One periodic round: both ends send their mark.
        fn marks(&mut self) {
            self.la.mark();
            self.lb.mark();
        }

        fn converged(&self) -> bool {
            self.ha.converged_with(&self.hb)
        }

        fn resets(&self) -> usize {
            self.resets[0] + self.resets[1]
        }

        fn sync_frames(&self) -> u64 {
            self.la.sent.frames + self.lb.sent.frames
        }
    }

    #[test]
    fn opened_links_converge_and_a_further_mark_round_ships_nothing() {
        let (mut ha, mut hb) = (Replica::new("alpha"), Replica::new("beta"));
        edit(&mut ha, 1, "from-alpha ");
        edit(&mut hb, 2, "from-beta ");
        let (mut la, mut lb) = (SyncLink::open(&ha), SyncLink::open(&hb));
        assert_eq!(settle(&mut la, &mut ha, &mut lb, &mut hb), 2);
        assert!(ha.converged_with(&hb), "both docs on both hosts");
        la.mark();
        lb.mark();
        assert_eq!(settle(&mut la, &mut ha, &mut lb, &mut hb), 0);
    }

    /// What one keystroke on each side costs the link, both directions
    /// summed, with `residents` other documents on both hosts and
    /// `agents` authors in the hot document's history.
    fn keystroke_bytes(residents: u64, agents: u32) -> usize {
        let mut p = Pair::new(|ha, _| {
            for doc in 0..residents {
                edit(ha, doc, "resident\n");
            }
            // Descending, so that the history ends on the typing agent
            // whatever its width.
            for session in (0..agents).rev() {
                edit_as(ha, session, HOT, "h");
            }
        });
        p.settle();
        assert!(p.converged());

        let before = p.bytes;
        p.type_a(0, HOT, "a");
        p.type_b(0, HOT, "b");
        p.settle();
        assert!(p.converged(), "both keystrokes on both hosts");
        assert_eq!(p.resets(), 0);
        p.bytes - before
    }

    #[test]
    fn keystroke_bytes_ignore_residents_and_history_width() {
        let base = keystroke_bytes(8, 2);
        // Two delta digests, two one-event bundles, two acknowledgements.
        assert!(base < 300, "a keystroke exchange cost {base} B");
        assert_eq!(keystroke_bytes(256, 2), base, "256 resident documents");
        assert_eq!(keystroke_bytes(8, 128), base, "128 agents in the history");
    }

    #[test]
    fn periodic_round_on_converged_pair_is_two_small_marks() {
        let mut p = Pair::new(|ha, _| {
            for doc in 0..64 {
                edit(ha, doc, "resident\n");
            }
        });
        p.settle();
        p.marks();
        assert_eq!((p.la.outgoing.len(), p.lb.outgoing.len()), (1, 1));
        assert!(Pair::queued(&p.la) <= 32 && Pair::queued(&p.lb) <= 32);
        // Both tallies agree and nobody lacks anything: no answer.
        assert_eq!((p.a_to_b(), p.b_to_a()), (1, 1));
        assert!(p.la.outgoing.is_empty() && p.lb.outgoing.is_empty());
        assert_eq!(p.resets(), 0);
    }

    #[test]
    fn lone_edit_travels_on_the_peers_next_mark_and_not_before() {
        let mut p = Pair::new(|ha, _| edit_as(ha, 0, HOT, "shared "));
        p.settle();

        // Alpha types; beta does not. Beta hears of the event, and does
        // not pull it.
        p.type_a(0, HOT, "x");
        p.settle();
        assert!(!p.converged(), "nothing has asked alpha for the event");
        // Alpha's own mark does not carry it either.
        p.la.mark();
        p.settle();
        assert!(!p.converged());
        // Beta's periodic mark is a frame from the peer: alpha answers it
        // with what beta lacks.
        p.lb.mark();
        p.settle();
        assert!(p.converged());
        assert_eq!(p.resets(), 0);
    }

    /// The typing stall `egbench` sees a few times a run: when alpha's
    /// digest is read before beta's own edit of the same tick, beta's
    /// event has no frame to answer. Alpha's bundle is acknowledged, not
    /// answered, and alpha does not pull, so the event waits for alpha's
    /// next mark. Pinned because the benchmark's typing inputs rely on
    /// exactly these triggers.
    #[test]
    fn digest_read_before_the_peers_edit_strands_it_until_the_next_mark() {
        let mut p = Pair::new(|ha, _| edit_as(ha, 0, HOT, "shared "));
        p.settle();

        p.type_a(0, HOT, "a");
        p.a_to_b();
        p.type_b(0, HOT, "b");
        p.settle();
        assert_eq!(p.hb.len_chars(HOT), "shared ab".len());
        assert_eq!(p.ha.len_chars(HOT), "shared a".len());

        p.la.mark();
        p.settle();
        assert!(p.converged());
        assert_eq!(p.resets(), 0);
    }

    #[test]
    fn stale_digest_gets_no_second_copy_of_queued_bundles() {
        let mut p = Pair::new(|ha, _| {
            for doc in 0..4 {
                edit(ha, doc, "a backlog for beta ");
            }
        });
        // Beta's opening digest is empty: alpha queues the whole backlog
        // for it, behind its own opening digest.
        p.b_to_a();
        let (frames, queued) = (p.la.outgoing.len(), Pair::queued(&p.la));
        assert!(frames > 0);

        // Before any of that reaches beta, beta sends two more digests:
        // about a document of its own, and a repeat. To a link that
        // answered each digest from scratch both would show beta still
        // lacking the backlog.
        p.type_b(0, DocId(9), "beta's own ");
        p.lb.local_change(&p.hb, None);
        p.b_to_a();
        assert_eq!(p.la.outgoing.len(), frames, "no second copy");
        assert_eq!(Pair::queued(&p.la), queued);

        p.settle();
        assert!(p.converged());
        assert_eq!(p.resets(), 0);
    }

    /// A scripted exchange touching every kind of sync frame; returns the
    /// pair after its periodic rounds.
    fn scripted(drop: Option<usize>) -> Pair {
        let mut p = Pair::new(|ha, hb| {
            edit(ha, 1, "alpha's backlog ");
            edit(hb, 2, "beta's backlog ");
        });
        p.drop = drop;
        p.settle();
        p.type_a(0, HOT, "a");
        p.type_b(0, HOT, "b");
        p.settle();
        p.type_b(1, DocId(2), "lone ");
        p.settle();
        p.type_a(1, HOT, "c");
        p.type_b(1, HOT, "d");
        p.settle();
        // Two periodic rounds: the first catches a loss (and carries the
        // lone edit), the second carries what the reset re-derived.
        for _ in 0..2 {
            p.marks();
            p.settle();
        }
        p
    }

    #[test]
    fn a_sync_frame_dropped_at_any_index_is_caught_by_the_next_mark() {
        let clean = scripted(None);
        assert!(clean.converged());
        assert_eq!(clean.resets(), 0, "nothing lost: nothing reset");
        let frames = clean.sync_frames() as usize;
        assert!(frames >= 16, "the script exercised {frames} sync frames");

        for index in 0..frames {
            let mut p = scripted(Some(index));
            assert!(p.drop.is_none(), "frame {index} was dropped");
            assert!(p.resets() >= 2, "frame {index}: both ends reset");
            assert!(p.converged(), "frame {index}: converged after the reset");
            // The tallies restarted together: a further round is quiet.
            let resets = p.resets();
            p.marks();
            p.settle();
            assert_eq!(p.resets(), resets, "frame {index}: tallies agree again");
            assert!(p.la.outgoing.is_empty() && p.lb.outgoing.is_empty());
        }
    }

    #[test]
    fn both_ends_asking_for_a_reset_at_once_settle() {
        let mut p = Pair::new(|ha, hb| {
            edit(ha, 1, "alpha's ");
            edit(hb, 2, "beta's ");
        });
        p.settle();
        // Lose a digest in each direction, then let both marks cross
        // before either end has seen the other's request.
        p.type_a(0, DocId(1), "x");
        p.type_b(0, DocId(2), "y");
        while p.la.poll_outgoing().is_some() {}
        while p.lb.poll_outgoing().is_some() {}
        p.marks();
        p.settle();
        assert!(p.resets[0] >= 1 && p.resets[1] >= 1);
        p.marks();
        p.settle();
        assert!(p.converged());
        let resets = p.resets();
        p.marks();
        p.settle();
        assert_eq!(p.resets(), resets);
    }

    #[test]
    fn an_undecodable_sync_frame_is_skipped_and_the_next_mark_resets() {
        let mut p = Pair::new(|ha, _| edit(ha, 1, "alpha's "));
        p.settle();
        p.type_a(0, DocId(1), "x");
        let mut frame = p.la.poll_outgoing().expect("the digest");
        let last = frame.len() - 1;
        frame[last] ^= 1;
        assert!(p
            .lb
            .on_frame(&mut p.hb, &frame[FRAME_HEADER_LEN..])
            .is_err());
        p.marks();
        p.settle();
        assert!(p.resets[0] >= 1 && p.resets[1] >= 1);
        p.marks();
        p.settle();
        assert!(p.converged());
    }
}
