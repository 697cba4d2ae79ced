//! Structural validity of walk plans under every branch-ordering policy
//! (paper §3.2, §3.7): whatever the order, a plan must consume every event
//! exactly once, respect causality, and keep its retreat/advance lists
//! consistent with the prepare-version transitions.

use eg_dag::walk::{PlanOrder, WalkPlan, WalkStep};
use eg_dag::{Frontier, Graph, LV};
use eg_rle::DTRange;
use proptest::prelude::*;
use std::collections::HashSet;

/// Builds a random DAG: a few branchy agents occasionally merging.
fn random_graph(seed: u64, steps: usize, branches: usize) -> Graph {
    let mut g = Graph::new();
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rand = move |bound: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng >> 16) as usize % bound.max(1)
    };
    let mut tips: Vec<Frontier> = vec![Frontier::root(); branches];
    for _ in 0..steps {
        let b = rand(branches);
        let len = 1 + rand(4);
        let start = g.len();
        let span: DTRange = (start..start + len).into();
        // Sometimes merge another branch's tip into ours first.
        if rand(100) < 30 {
            let other = rand(branches);
            let mut merged: Vec<LV> = tips[b].as_slice().to_vec();
            merged.extend_from_slice(tips[other].as_slice());
            let f = Frontier::from_unsorted(&merged);
            let f = g.find_dominators(f.as_slice());
            g.push(f.as_slice(), span);
        } else {
            let parents = tips[b].clone();
            g.push(parents.as_slice(), span);
        }
        tips[b] = Frontier::new_1(span.last());
    }
    g
}

/// The owned steps of a throwaway plan over `spans`, everything new.
fn steps_with_order(g: &Graph, spans: &[DTRange], order: PlanOrder) -> Vec<WalkStep> {
    let mut plan = WalkPlan::new();
    plan.plan_with_order(g, &Frontier::root(), spans, spans, order);
    plan.to_steps()
}

/// Checks one plan for structural soundness.
fn check_plan_sound(g: &Graph, order: PlanOrder) {
    let spans = [DTRange::from(0..g.len())];
    let steps = steps_with_order(g, &spans, order);

    // 1. Every event consumed exactly once.
    let mut seen: HashSet<LV> = HashSet::new();
    for s in &steps {
        for lv in s.consume.iter() {
            assert!(seen.insert(lv), "event {lv} consumed twice ({order:?})");
        }
    }
    assert_eq!(seen.len(), g.len(), "missing events ({order:?})");

    // 2. Causality: when a run is consumed, all its parents were consumed.
    let mut consumed: HashSet<LV> = HashSet::new();
    for s in &steps {
        let parents = g.parents_of(s.consume.start);
        for &p in parents.iter() {
            assert!(consumed.contains(&p), "run consumed before parent {p}");
        }
        consumed.extend(s.consume.iter());
    }

    // 3. The prepare version transitions match the retreat/advance lists:
    //    simulate the prepare set and verify each step's consume parents
    //    equal the simulated set's frontier.
    let mut prepare: HashSet<LV> = HashSet::new();
    for s in &steps {
        for r in &s.retreat {
            for lv in r.iter() {
                assert!(prepare.remove(&lv), "retreating {lv} not in prepare");
            }
        }
        for a in &s.advance {
            for lv in a.iter() {
                assert!(prepare.insert(lv), "advancing {lv} already in prepare");
            }
        }
        // The prepare set must now be exactly Events(parents of consume).
        let parents = g.parents_of(s.consume.start);
        let expect = events_of(g, parents.as_slice());
        assert_eq!(prepare, expect, "prepare set mismatch ({order:?})");
        // Consume the run.
        prepare.extend(s.consume.iter());
    }
}

/// `Events(V)`: the transitive closure below a version.
fn events_of(g: &Graph, version: &[LV]) -> HashSet<LV> {
    let mut out = HashSet::new();
    let mut stack: Vec<LV> = version.to_vec();
    while let Some(lv) = stack.pop() {
        if !out.insert(lv) {
            continue;
        }
        let (entry, _) = g.entry_for(lv);
        // Events within the run chain linearly.
        if lv > entry.span.start {
            stack.push(lv - 1);
        } else {
            stack.extend(entry.parents.iter().copied());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn plans_sound_under_every_order(
        seed in any::<u64>(),
        steps in 1usize..30,
        branches in 1usize..4,
    ) {
        let g = random_graph(seed, steps, branches);
        for order in [PlanOrder::SmallestFirst, PlanOrder::LargestFirst, PlanOrder::Arrival] {
            check_plan_sound(&g, order);
        }
    }
}

#[test]
fn orders_differ_on_asymmetric_branches() {
    // Two branches of different sizes: smallest-first and largest-first
    // must visit them in opposite orders.
    let mut g = Graph::new();
    g.push(&[], (0..2).into());
    g.push(&[1], (2..10).into()); // big branch
    g.push(&[1], (10..12).into()); // small branch
    let spans = [DTRange::from(0..12)];
    let small_first = steps_with_order(&g, &spans, PlanOrder::SmallestFirst);
    let large_first = steps_with_order(&g, &spans, PlanOrder::LargestFirst);
    // Consecutive consumption merges into one step, so compare the step
    // positions of a representative event from each branch.
    let pos_of = |steps: &[WalkStep], lv: LV| -> usize {
        steps
            .iter()
            .position(|s| s.consume.contains(lv))
            .unwrap_or_else(|| panic!("event {lv} not consumed"))
    };
    assert!(
        pos_of(&small_first, 10) < pos_of(&small_first, 2),
        "smallest-first must visit the small branch first"
    );
    assert!(
        pos_of(&large_first, 2) < pos_of(&large_first, 10),
        "largest-first must visit the big branch first"
    );
}
