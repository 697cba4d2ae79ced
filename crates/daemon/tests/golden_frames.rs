//! Pins of the daemon's frame sequence, twice over.
//!
//! Two `ServerHost`-backed sessions run fixed exchanges — a scripted
//! conversation touching every kind of sync frame, the same with one
//! sync frame lost, both ends asking for a reset at once, and an outbox
//! that sheds and then drains — and every frame either end queues is
//! folded, in the order it leaves its outbox, into two FNV-64s per
//! scenario:
//!
//! * the **byte fold** eats the frames' bytes, so it changes with the
//!   wire format as well as with the conversation;
//! * the **order fold** eats what the frames say, decoded: each frame's
//!   kind, the document ids, each bundle run as `(agent, seq, kind, loc,
//!   fwd, parents, content)` and each digest entry. It leaves out what
//!   only the encoding decides — the protocol version in a hello, the
//!   CRC fold in a mark — so a new byte format leaves it unchanged.
//!
//! A refactor of the protocol that changes what is sent, to whom, or in
//! which order fails both; a codec change moves only the byte fold. The
//! benchmark's `typing_hash` depends on exactly this sequence.

use std::sync::Arc;
use std::time::Instant;

use eg_daemon::{PeerSession, SessionConfig};
use eg_server::{ServerConfig, ServerHost};
use eg_sync::frame::{FrameDecoder, WireFrame, FRAME_HEADER_LEN, PROTOCOL_VERSION, TAG_SYNC};
use eg_sync::{DocId, Message};
use eg_trace::FleetOp;
use egwalker::ListOpKind;

const HOT: u64 = 1000;

/// One FNV-64 step per byte.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The byte fold and the order fold over every frame popped from either
/// outbox.
struct Fold {
    bytes: u64,
    order: u64,
    frames: FrameDecoder,
}

impl Fold {
    fn new() -> Fold {
        Fold {
            bytes: 0xcbf2_9ce4_8422_2325,
            order: 0xcbf2_9ce4_8422_2325,
            frames: FrameDecoder::new(),
        }
    }

    fn eat(&mut self, bytes: &[u8]) {
        fnv(&mut self.bytes, bytes);
        self.frames.push(bytes);
        while let Some(frame) = self.frames.next_wire_frame().expect("well-formed") {
            self.eat_frame(&frame);
        }
    }

    fn word(&mut self, value: u64) {
        fnv(&mut self.order, &value.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        fnv(&mut self.order, text.as_bytes());
    }

    fn eat_frame(&mut self, frame: &WireFrame) {
        match frame {
            WireFrame::Hello { name, .. } => {
                self.word(1);
                self.text(name);
            }
            WireFrame::Ping(seq) => {
                self.word(2);
                self.word(*seq);
            }
            WireFrame::Pong(seq) => {
                self.word(3);
                self.word(*seq);
            }
            WireFrame::Sync(Message::Digest(docs)) => {
                self.word(4);
                for (doc, entries) in docs {
                    self.word(doc.0);
                    self.word(entries.len() as u64);
                    for entry in entries {
                        self.text(&entry.agent);
                        self.word(entry.seq as u64);
                    }
                }
            }
            WireFrame::Sync(Message::Bundles(docs)) => {
                self.word(5);
                for (doc, bundle) in docs {
                    self.word(doc.0);
                    self.word(bundle.runs.len() as u64);
                    for run in &bundle.runs {
                        self.text(&run.agent);
                        self.word(run.seq_start as u64);
                        self.word(u64::from(run.kind == ListOpKind::Del));
                        self.word(run.loc.start as u64);
                        self.word(run.loc.end as u64);
                        self.word(u64::from(run.fwd));
                        self.word(run.parents.len() as u64);
                        for parent in &run.parents {
                            self.text(&parent.agent);
                            self.word(parent.seq as u64);
                        }
                        match &run.content {
                            Some(text) => self.text(text),
                            None => self.word(u64::MAX),
                        }
                    }
                }
            }
            WireFrame::Mark(tally) => {
                self.word(6);
                self.word(tally.frames);
            }
            WireFrame::Reset { echo } => {
                self.word(7);
                self.word(u64::from(*echo));
            }
        }
    }
}

fn host(name: &str) -> ServerHost {
    ServerHost::with_config(ServerConfig {
        name: name.into(),
        workers: 1,
        ..ServerConfig::default()
    })
}

/// One insert at the start of `doc`, authored by `session`.
fn edit_as(h: &ServerHost, session: u32, doc: u64, text: &str) {
    let script: Arc<[FleetOp]> = vec![FleetOp::Insert {
        session,
        doc,
        at: 0,
        text: text.into(),
    }]
    .into();
    h.submit_script(&script);
    h.flush();
}

/// Drains every queued frame of `from` into `to`, folding each into
/// `fold`; `drop` counts down over the sync frames crossing and swallows
/// the one it reaches zero on.
fn pump(
    fold: &mut Fold,
    from: &mut PeerSession,
    to: &mut PeerSession,
    to_host: &mut ServerHost,
    now: Instant,
    drop: &mut Option<usize>,
) -> usize {
    let mut moved = 0;
    let mut dec = FrameDecoder::new();
    while let Some(bytes) = from.outbox().pop() {
        fold.eat(&bytes);
        dec.push(&bytes);
        while let Some(frame) = dec.next_frame().expect("well-formed") {
            if frame.first() == Some(&TAG_SYNC) {
                match drop {
                    Some(0) => {
                        *drop = None;
                        continue;
                    }
                    Some(n) => *n -= 1,
                    None => {}
                }
            }
            to.on_frame(now, &frame, to_host).expect("session ok");
            moved += 1;
        }
    }
    moved
}

struct Pair {
    now: Instant,
    ha: ServerHost,
    hb: ServerHost,
    sa: PeerSession,
    sb: PeerSession,
    drop: Option<usize>,
    fold: Fold,
}

impl Pair {
    fn new() -> Pair {
        let now = Instant::now();
        Pair {
            now,
            ha: host("alpha"),
            hb: host("beta"),
            sa: PeerSession::connect(now, "alpha", SessionConfig::default()),
            sb: PeerSession::connect(now, "beta", SessionConfig::default()),
            drop: None,
            fold: Fold::new(),
        }
    }

    fn a_to_b(&mut self) -> usize {
        let Pair {
            now,
            hb,
            sa,
            sb,
            drop,
            fold,
            ..
        } = self;
        pump(fold, sa, sb, hb, *now, drop)
    }

    fn b_to_a(&mut self) -> usize {
        let Pair {
            now,
            ha,
            sa,
            sb,
            drop,
            fold,
            ..
        } = self;
        pump(fold, sb, sa, ha, *now, drop)
    }

    fn settle(&mut self) {
        for _ in 0..32 {
            if self.a_to_b() + self.b_to_a() == 0 {
                return;
            }
        }
        panic!("the exchange does not terminate");
    }

    fn type_a(&mut self, session: u32, doc: u64, text: &str) {
        edit_as(&self.ha, session, doc, text);
        self.sa
            .local_change(self.now, &self.ha, Some(&[DocId(doc)]));
    }

    fn type_b(&mut self, session: u32, doc: u64, text: &str) {
        edit_as(&self.hb, session, doc, text);
        self.sb
            .local_change(self.now, &self.hb, Some(&[DocId(doc)]));
    }

    fn marks(&mut self) {
        self.sa.mark(self.now);
        self.sb.mark(self.now);
    }

    fn discard(&mut self) {
        while let Some(bytes) = self.sa.outbox().pop() {
            self.fold.eat(&bytes);
        }
        while let Some(bytes) = self.sb.outbox().pop() {
            self.fold.eat(&bytes);
        }
    }
}

/// `peer.rs`'s scripted exchange: backlogs, keystrokes both ways, a lone
/// edit, then two periodic rounds.
fn scripted(drop: Option<usize>) -> Fold {
    let mut p = Pair::new();
    p.drop = drop;
    edit_as(&p.ha, 0, 1, "alpha's backlog ");
    edit_as(&p.hb, 0, 2, "beta's backlog ");
    p.settle();
    p.type_a(0, HOT, "a");
    p.type_b(0, HOT, "b");
    p.settle();
    p.type_b(1, 2, "lone ");
    p.settle();
    p.type_a(1, HOT, "c");
    p.type_b(1, HOT, "d");
    p.settle();
    for _ in 0..2 {
        p.marks();
        p.settle();
    }
    assert!(p.ha.converged_with(&p.hb));
    p.fold
}

fn simultaneous_resets() -> Fold {
    let mut p = Pair::new();
    edit_as(&p.ha, 0, 1, "alpha's ");
    edit_as(&p.hb, 0, 2, "beta's ");
    p.settle();
    p.type_a(0, 1, "x");
    p.type_b(0, 2, "y");
    p.discard();
    p.marks();
    p.settle();
    p.marks();
    p.settle();
    p.marks();
    p.settle();
    assert!(p.ha.converged_with(&p.hb));
    assert!(p.sa.stats().resets >= 1 && p.sb.stats().resets >= 1);
    p.fold
}

fn shed_then_drain() -> Fold {
    let now = Instant::now();
    let mut h = host("big");
    edit_as(&h, 0, 1, "seed ");
    let mut s = PeerSession::connect(
        now,
        "big",
        SessionConfig {
            outbox_cap_bytes: 96,
            ..SessionConfig::default()
        },
    );
    let hello = WireFrame::Hello {
        proto: PROTOCOL_VERSION,
        name: "peer".into(),
    };
    s.on_frame(now, &hello.encode()[FRAME_HEADER_LEN..], &mut h)
        .unwrap();
    for _ in 0..64 {
        s.local_change(now, &h, None);
    }
    let mut fold = Fold::new();
    while let Some(bytes) = s.outbox().pop() {
        fold.eat(&bytes);
    }
    s.on_drained(now, &h);
    while let Some(bytes) = s.outbox().pop() {
        fold.eat(&bytes);
    }
    assert_eq!(s.stats().resets, 1);
    fold
}

fn scenarios() -> [(&'static str, Fold); 6] {
    [
        ("scripted, lossless", scripted(None)),
        ("scripted, sync frame 0 lost", scripted(Some(0))),
        ("scripted, sync frame 7 lost", scripted(Some(7))),
        ("scripted, sync frame 13 lost", scripted(Some(13))),
        ("simultaneous resets", simultaneous_resets()),
        ("shed then drain", shed_then_drain()),
    ]
}

/// Compares one fold of every scenario with its recorded constant, and
/// names every scenario that differs.
fn check(expect: [u64; 6], fold_of: impl Fn(&Fold) -> u64) {
    let wrong: Vec<String> = scenarios()
        .iter()
        .zip(expect)
        .filter(|((_, fold), want)| fold_of(fold) != *want)
        .map(|((name, fold), _)| format!("{name}: {:#018x}", fold_of(fold)))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Recorded with the frames' bytes: re-recorded when the wire format
/// changes, together with `PROTOCOL_VERSION` (last: protocol 3, whose
/// bundle batches carry §3.8 patches).
#[test]
fn frame_sequences_match_the_recorded_hashes() {
    let expect: [u64; 6] = [
        0x0763_ebde_a015_5712,
        0xb7af_9c70_ac11_d42c,
        0xd7b8_020d_1aff_affc,
        0xc436_ad64_9afc_64da,
        0x2e32_fb53_d595_eed3,
        0x1110_9329_b820_36f0,
    ];
    check(expect, |fold| fold.bytes);
}

/// Recorded over what the frames say: a change of byte format keeps
/// these, a change of what is sent, to whom or in which order does not.
#[test]
fn frame_order_matches_the_recorded_hashes() {
    let expect: [u64; 6] = [
        0x7da5_810b_b398_e7d3,
        0xf35a_8d87_06c7_243a,
        0x39ad_4908_7fbf_f453,
        0x450f_7a9a_291b_f36b,
        0xa04f_e639_e971_b4ec,
        0x389c_30e6_6f08_3b3f,
    ];
    check(expect, |fold| fold.order);
}
