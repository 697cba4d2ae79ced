//! The two bundle encoders write the same bytes: [`encode_runs`], which
//! walks the oplog's runs, against `encode_bundle(&bundle_since_local(..))`,
//! which builds the owned bundle first — for every kind of `have` a store
//! or a peer can name. Both take their runs from [`OpLog::for_each_run`],
//! so that walk is itself held to a reference that searches for every run.

use eg_dag::{Frontier, LV};
use eg_encoding::{apply_bundle_bytes, decode_bundle, encode_bundle, encode_runs};
use eg_rle::{DTRange, HasLength, SplitableSpan};
use egwalker::testgen::{mid_run_criticals_oplog, random_oplog, SmallRng};
use egwalker::{BundleRun, EventBundle, OpLog};

/// The runs of `spans` found the slow way: three searches per run and no
/// state carried from one run to the next.
fn runs_by_search(oplog: &OpLog, spans: &[DTRange]) -> Vec<BundleRun> {
    let mut runs = Vec::new();
    for span in spans {
        let mut lv = span.start;
        while lv < span.end {
            let agent_span = oplog.agents.lv_to_agent_span(lv);
            let (op_lvs, mut op) = oplog.op_at(lv);
            let (entry, offset) = oplog.graph.entry_for(lv);
            let len = (span.end - lv)
                .min(agent_span.seq_range.len())
                .min(op_lvs.len())
                .min(entry.span.end - lv);
            if op.len() > len {
                op.truncate(len);
            }
            let parents = match offset {
                0 => entry
                    .parents
                    .iter()
                    .map(|&p| oplog.lv_to_remote(p))
                    .collect(),
                _ => vec![oplog.lv_to_remote(lv - 1)],
            };
            runs.push(BundleRun {
                agent: oplog.agents.agent_name(agent_span.agent).to_string(),
                seq_start: agent_span.seq_range.start,
                parents,
                kind: op.kind,
                loc: op.loc,
                fwd: op.fwd,
                content: op.content.map(|c| oplog.content_slice(c).to_string()),
            });
            lv += len;
        }
    }
    runs
}

/// Both encoders on the events of `oplog` outside `Events(have)`; returns
/// the owned bundle and the spans the run encoder was given.
fn assert_identical(oplog: &OpLog, have: &[LV], what: &str) -> (EventBundle, Vec<DTRange>) {
    let owned = oplog.bundle_since_local(have);
    let spans = oplog.graph.diff(have, oplog.version()).only_b;
    assert_eq!(owned.runs, runs_by_search(oplog, &spans), "{what}");
    // Behind bytes already there, as a frame head is in the store.
    let mut bytes = vec![0xEE; 5];
    let events = encode_runs(oplog, &spans, &mut bytes);
    assert_eq!(&bytes[..5], [0xEE; 5], "{what}");
    assert_eq!(&bytes[5..], encode_bundle(&owned), "{what}");
    assert_eq!(events, owned.num_events(), "{what}");
    assert_eq!(
        decode_bundle(&bytes[5..]).expect("decodes"),
        owned,
        "{what}"
    );
    (owned, spans)
}

/// The version of each whole-log prefix `0..n`, for `n` in `0..=len`.
fn prefix_versions(oplog: &OpLog) -> Vec<Frontier> {
    let mut version = Frontier::root();
    let mut out = vec![version.clone()];
    for lv in 0..oplog.len() {
        version.advance_by(lv, &oplog.graph.parents_of(lv));
        out.push(version.clone());
    }
    out
}

/// Root, every whole-log prefix and `random` mid-history versions.
fn assert_identical_everywhere(oplog: &OpLog, rng: &mut SmallRng, random: usize, what: &str) {
    let (_, spans) = assert_identical(oplog, &[], what);
    assert_eq!(spans, [(0..oplog.len()).into()], "{what}");
    let mut rebuilt = OpLog::new();
    let mut bytes = Vec::new();
    encode_runs(oplog, &spans, &mut bytes);
    apply_bundle_bytes(&mut rebuilt, &bytes).expect("applies to an empty log");
    assert_eq!(
        rebuilt.checkout_tip().content.to_string(),
        oplog.checkout_tip().content.to_string(),
        "{what}"
    );

    for (n, have) in prefix_versions(oplog).iter().enumerate() {
        let (_, spans) = assert_identical(oplog, have, &format!("{what}, prefix {n}"));
        let suffix: Vec<DTRange> = (n < oplog.len())
            .then(|| (n..oplog.len()).into())
            .into_iter()
            .collect();
        assert_eq!(spans, suffix, "{what}, prefix {n}");
    }
    for i in 0..random {
        let picks: Vec<LV> = (0..1 + rng.below(3))
            .map(|_| rng.below(oplog.len()))
            .collect();
        let have = oplog.graph.find_dominators(&picks);
        assert_identical(oplog, &have, &format!("{what}, random {i} = {have:?}"));
    }
}

#[test]
fn run_encoder_matches_owned_encoder_on_random_histories() {
    let mut rng = SmallRng::new(0xB17E);
    for seed in 0..48u64 {
        let replicas = 3 + (seed % 3) as usize;
        let oplog = random_oplog(seed, 70, replicas, 0.3);
        assert_identical_everywhere(&oplog, &mut rng, 8, &format!("seed {seed}"));
    }
    for seed in 0..6u64 {
        let (oplog, _) = mid_run_criticals_oplog(seed, 14);
        assert_identical_everywhere(&oplog, &mut rng, 8, &format!("criticals seed {seed}"));
    }
}

/// The shapes the cursor walk has to get right, built by hand: a graph
/// entry that changes agent in the middle, backspace runs cut by a span,
/// a span that starts inside an entry, and an agent the bundle names only
/// as a parent.
#[test]
fn run_encoder_matches_owned_encoder_on_hand_built_shapes() {
    let mut oplog = OpLog::new();
    let alice = oplog.get_or_create_agent("alice");
    let bob = oplog.get_or_create_agent("bob");
    let carol = oplog.get_or_create_agent("carol");
    oplog.add_insert(alice, 0, "héllo wörld 🦀!"); // 0..14
    let v = oplog.version().clone();
    // Bob continues alice's chain: one graph entry, two agents.
    oplog.add_backspace_at(bob, &v, 13, 5); // 14..19
    assert_eq!(oplog.graph.entry_for(16).1, 16);
    let after_bob = oplog.version().clone();
    // Carol branches off the middle of that entry; alice off bob's tip.
    oplog.add_insert_at(carol, &[6], 3, "√日"); // 19..21
    oplog.add_backspace_at(alice, &after_bob, 8, 3); // 21..24
    let tips = oplog.version().clone();
    oplog.add_delete_at(bob, &tips, 0, 2); // 24..26

    let mut rng = SmallRng::new(7);
    assert_identical_everywhere(&oplog, &mut rng, 200, "hand-built");

    // A span from the middle of bob's backspace run: mid-entry, mid-op-run
    // and mid-agent-span at once, its parent the event before it.
    let (owned, spans) = assert_identical(&oplog, &[16], "mid-entry");
    assert_eq!(spans[0].start, 17);
    let first = &owned.runs[0];
    assert_eq!((first.agent.as_str(), first.seq_start), ("bob", 3));
    assert_eq!(first.parents, [oplog.lv_to_remote(16)]);
    assert!(!first.fwd);

    // Someone at alice's tip lacks carol's run and bob's last: alice is in
    // that bundle's name table — second, after carol — without a run.
    let (owned, _) = assert_identical(&oplog, &[23], "parent-only agent");
    let agents: Vec<&str> = owned.runs.iter().map(|r| r.agent.as_str()).collect();
    assert_eq!(agents, ["carol", "bob"]);
    assert_eq!(owned.runs[0].parents, [oplog.lv_to_remote(6)]);
    assert_eq!(oplog.lv_to_remote(6).agent, "alice");
}
