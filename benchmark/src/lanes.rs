//! The lane generator: the benchmark's own source of event graphs.
//!
//! Time advances in *windows*. In each window up to `authors` authors start
//! from the shared version (the tips the previous window left behind) and
//! edit concurrently, each confined to a disjoint *lane* of the shared text
//! (random cut points; an author's upper bound moves with its own edits).
//! Lanes never overlap, so concurrent deletes never hit the same character
//! and the merged length is exactly `len + Σ deltas` — an oracle that needs
//! no merge. Every `solo_every`-th window has a single author, which is what
//! produces critical versions.
//!
//! The structure is regular on purpose: a history is a fixed number of
//! windows and solo windows come at a fixed cadence, so that two seeds give
//! histories that differ in every position, length and character but not in
//! how far the checkpoints, the sampled windows and the tip lie from the last
//! critical version. With random solo windows those distances, and every
//! metric that depends on them, swing by tens of percent from seed to seed.
//!
//! Events go straight into an [`OpLog`] through `add_insert_at` /
//! `add_delete_at`: generation is linear in the number of events and performs
//! no product merge. The generator is resumable — [`LaneGen::step`] emits one
//! window — so a workload can grow a log one window at a time, and two
//! generators with the same shape and seed emit identical logs.

use eg_dag::{AgentId, LV};
use egwalker::OpLog;

/// What a generated history looks like. One value per workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Windows in the history; `events` follows from the burst sizes.
    pub windows: usize,
    /// Authors in a concurrent window (`w`).
    pub authors: usize,
    /// Events one author emits in one window, inclusive range.
    pub burst: (usize, usize),
    /// Size of the agent pool the authors are drawn from.
    pub agents: usize,
    /// Every window whose index is a multiple of this has a single author.
    pub solo_every: usize,
    /// Share of inserted characters that survive (sets the delete rate).
    pub keep: f64,
}

/// splitmix64: small, fast, and good enough to decorrelate workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Longest single typing or deleting run; bursts are made of such runs.
const MAX_RUN: usize = 16;
/// Out of 100 runs, how many continue at the author's cursor instead of
/// jumping elsewhere in the lane (people mostly type where they are).
const STAY_PCT: usize = 70;

const ALPHABET: &[u8] = b"etaoin shrdlu cmfwyp vbgkqjxz ETAOIN .,\n";

/// Resumable generator state for one document.
#[derive(Debug, Clone)]
pub struct LaneGen {
    shape: Shape,
    rng: Rng,
    /// Tips of the previous window: the shared version of the next one.
    tips: Vec<LV>,
    /// Length of the merged text at `tips`, known without merging.
    len: usize,
    windows: usize,
    solo_turn: usize,
    agent_ids: Vec<Option<AgentId>>,
    text: String,
}

impl LaneGen {
    pub fn new(shape: Shape, seed: u64) -> Self {
        assert!(shape.authors >= 1 && shape.agents >= shape.authors && shape.solo_every >= 1);
        assert!(shape.burst.0 >= 1 && shape.burst.0 <= shape.burst.1);
        LaneGen {
            shape,
            rng: Rng::new(seed),
            tips: Vec::new(),
            len: 0,
            windows: 0,
            solo_turn: 0,
            agent_ids: vec![None; shape.agents],
            text: String::with_capacity(MAX_RUN),
        }
    }

    /// The merged text's length at the current tips.
    pub fn predicted_len(&self) -> usize {
        self.len
    }

    fn agent(&mut self, oplog: &mut OpLog, slot: usize) -> AgentId {
        *self.agent_ids[slot].get_or_insert_with(|| oplog.get_or_create_agent(&format!("a{slot}")))
    }

    /// Emits one window of at most `cap` events into `oplog`.
    pub fn step(&mut self, oplog: &mut OpLog, cap: usize) {
        assert!(cap >= 1);
        let shape = self.shape;
        let solo = self.windows.is_multiple_of(shape.solo_every);
        let k = if solo { 1 } else { shape.authors.min(cap) };
        let first_slot = if k == 1 {
            self.solo_turn += 1;
            (self.solo_turn - 1) % shape.agents
        } else {
            self.rng.below(shape.agents)
        };

        // k - 1 cut points split the shared text into k lanes.
        let mut cuts: Vec<usize> = (1..k).map(|_| self.rng.below(self.len + 1)).collect();
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(self.len);

        let p_ins = 1.0 / (2.0 - shape.keep);
        let shared: Vec<LV> = self.tips.clone();
        let mut tips = Vec::with_capacity(k);
        let mut left = cap;
        let mut delta: isize = 0;
        for j in 0..k {
            let agent = self.agent(oplog, (first_slot + j) % shape.agents);
            // Leave one event for each author still to come.
            let budget = left - (k - j - 1);
            let mut todo = self.rng.between(shape.burst.0, shape.burst.1).min(budget);
            left -= todo;
            let (lo, mut hi) = (cuts[j], cuts[j + 1]);
            let mut cursor = self.rng.between(lo, hi);
            let mut tip: Option<LV> = None;
            while todo > 0 {
                let run = self.rng.between(1, MAX_RUN.min(todo));
                if self.rng.below(100) >= STAY_PCT {
                    cursor = self.rng.between(lo, hi);
                }
                let insert = hi == lo || (self.rng.next() as f64 / u64::MAX as f64) < p_ins;
                let parents: &[LV] = match &tip {
                    Some(t) => std::slice::from_ref(t),
                    None => &shared,
                };
                let lvs = if insert {
                    self.text.clear();
                    for _ in 0..run {
                        let c = ALPHABET[self.rng.below(ALPHABET.len())];
                        self.text.push(c as char);
                    }
                    let lvs = oplog.add_insert_at(agent, parents, cursor, &self.text);
                    cursor += run;
                    hi += run;
                    delta += run as isize;
                    lvs
                } else {
                    let run = run.min(hi - lo);
                    cursor = cursor.min(hi - run);
                    let lvs = oplog.add_delete_at(agent, parents, cursor, run);
                    hi -= run;
                    delta -= run as isize;
                    lvs
                };
                todo -= lvs.end - lvs.start;
                tip = Some(lvs.end - 1);
            }
            tips.push(tip.expect("every author emits at least one event"));
        }
        self.len = (self.len as isize + delta) as usize;
        self.tips = tips;
        self.windows += 1;
    }

    /// Emits whole windows until `windows` have been emitted in all.
    pub fn run_until(&mut self, oplog: &mut OpLog, windows: usize) {
        while self.windows < windows {
            self.step(oplog, usize::MAX);
        }
    }

    /// Emits capped windows until `oplog` holds exactly `extra` more events.
    pub fn run_exactly(&mut self, oplog: &mut OpLog, extra: usize) {
        let end = oplog.len() + extra;
        while oplog.len() < end {
            self.step(oplog, end - oplog.len());
        }
    }
}
