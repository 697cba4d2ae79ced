//! Byte-identity pin for the daemon's frame sequence.
//!
//! Two `ServerHost`-backed sessions run fixed exchanges — a scripted
//! conversation touching every kind of sync frame, the same with one
//! sync frame lost, both ends asking for a reset at once, and an outbox
//! that sheds and then drains — and every frame either end queues is
//! folded, in the order it leaves its outbox, into one FNV-64 per
//! scenario. The constants were recorded before the link logic moved
//! out of the daemon; a refactor of the protocol that changes one byte
//! or the order of one frame fails here, without a benchmark run. The
//! benchmark's `typing_hash` depends on exactly this sequence.

use std::sync::Arc;
use std::time::Instant;

use eg_daemon::{PeerSession, SessionConfig};
use eg_server::{ServerConfig, ServerHost};
use eg_sync::frame::{FrameDecoder, WireFrame, FRAME_HEADER_LEN, PROTOCOL_VERSION, TAG_SYNC};
use eg_sync::DocId;
use eg_trace::FleetOp;

const HOT: u64 = 1000;

/// FNV-64 over every frame popped from either outbox.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
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
fn scripted(drop: Option<usize>) -> u64 {
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
    p.fold.0
}

fn simultaneous_resets() -> u64 {
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
    p.fold.0
}

fn shed_then_drain() -> u64 {
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
    fold.0
}

#[test]
fn frame_sequences_match_the_recorded_hashes() {
    let got = [
        ("scripted, lossless", scripted(None)),
        ("scripted, sync frame 0 lost", scripted(Some(0))),
        ("scripted, sync frame 7 lost", scripted(Some(7))),
        ("scripted, sync frame 13 lost", scripted(Some(13))),
        ("simultaneous resets", simultaneous_resets()),
        ("shed then drain", shed_then_drain()),
    ];
    let expect: [u64; 6] = [
        0x47a1_fc9b_ff93_cf5f,
        0xb49e_0d71_d8ff_55dc,
        0x557b_20b4_5e6b_e5c1,
        0x4af2_17ff_8d2b_ad1b,
        0xc0d5_a17f_6294_8cb0,
        0x1110_9329_b820_36f0,
    ];
    for ((name, hash), want) in got.iter().zip(expect) {
        assert_eq!(*hash, want, "{name}: {hash:016x}");
    }
}
