//! Property tests: the optimised graph algorithms vs. the brute-force
//! [`eg_dag::naive`] oracle, on randomised event graphs.

use eg_dag::naive::{random_graph, NaiveGraph};
use eg_dag::{criticality, Graph, LV};
use eg_rle::HasLength;
use proptest::prelude::*;
use std::collections::HashSet;

/// Picks a plausible frontier out of a naive graph using a seed: a few
/// mutually concurrent events.
fn pick_frontier(g: &NaiveGraph, seed: usize) -> Vec<LV> {
    if g.is_empty() {
        return vec![];
    }
    let mut picks: Vec<LV> = Vec::new();
    let mut x = seed;
    for _ in 0..3 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        picks.push((x >> 33) % g.len());
    }
    // Reduce to maximal elements so it is a real frontier.
    let set: HashSet<LV> = g.events_of(&picks);
    g.frontier_of(&set)
}

fn graph_strategy() -> impl Strategy<Value = (NaiveGraph, Graph)> {
    (0u64..10_000, 1usize..120, 0.0f64..0.8, proptest::bool::ANY).prop_map(
        |(seed, n, branchiness, multi_root)| {
            let naive = random_graph(seed, n, branchiness, multi_root);
            let graph = naive.to_graph();
            (naive, graph)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `frontier_contains` matches set membership of the ancestor closure.
    #[test]
    fn contains_matches_naive((naive, graph) in graph_strategy(), seed in 0usize..1_000_000) {
        let f = pick_frontier(&naive, seed);
        let events = naive.events_of(&f);
        for lv in 0..naive.len() {
            prop_assert_eq!(
                graph.frontier_contains(&f, lv),
                events.contains(&lv),
                "frontier {:?}, lv {}", f, lv
            );
        }
    }

    /// The span-wise diff matches the brute-force set difference.
    #[test]
    fn diff_matches_naive((naive, graph) in graph_strategy(), s1 in 0usize..1_000_000, s2 in 0usize..1_000_000) {
        let a = pick_frontier(&naive, s1);
        let b = pick_frontier(&naive, s2);
        let (exp_a, exp_b) = naive.diff(&a, &b);
        let got = graph.diff(&a, &b);
        let got_a: Vec<LV> = got.only_a.iter().flat_map(|r| r.iter()).collect();
        let got_b: Vec<LV> = got.only_b.iter().flat_map(|r| r.iter()).collect();
        prop_assert_eq!(got_a, exp_a, "only_a mismatch for {:?} vs {:?}", a, b);
        prop_assert_eq!(got_b, exp_b, "only_b mismatch for {:?} vs {:?}", a, b);
    }

    /// Both the standalone sweep and the incrementally maintained critical
    /// versions match the definitional brute force.
    #[test]
    fn criticals_match_naive((naive, graph) in graph_strategy()) {
        let expected = naive.criticals();
        let sweep = criticality(&graph);
        prop_assert_eq!(&sweep, &expected, "sweep vs naive");
        let incremental: Vec<LV> = graph.criticals().iter().flat_map(|r| r.iter()).collect();
        prop_assert_eq!(&incremental, &expected, "incremental vs naive");
    }

    /// `find_dominators` returns exactly the maximal elements.
    #[test]
    fn dominators_match_naive((naive, graph) in graph_strategy(), s in 0usize..1_000_000) {
        prop_assume!(!naive.is_empty());
        let mut x = s;
        let mut picks: Vec<LV> = Vec::new();
        for _ in 0..5 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(99991);
            picks.push((x >> 33) % naive.len());
        }
        let got = graph.find_dominators(&picks);
        let set: HashSet<LV> = picks.iter().copied().collect();
        let expected = naive.frontier_of(&set);
        prop_assert_eq!(got.as_slice(), &expected[..]);
    }

    /// The graph's incrementally maintained frontier matches the naive one.
    #[test]
    fn graph_frontier_matches_naive((naive, graph) in graph_strategy()) {
        prop_assert_eq!(graph.frontier().as_slice(), &naive.frontier()[..]);
    }

    /// `conflict_window(a, b)` returns a base that is critical and below
    /// both versions, with spans exactly `(Events(a) ∪ Events(b)) −
    /// Events(base)`.
    #[test]
    fn conflict_window_is_sound((naive, graph) in graph_strategy(), s1 in 0usize..1_000_000, s2 in 0usize..1_000_000) {
        let a = pick_frontier(&naive, s1);
        let b = pick_frontier(&naive, s2);
        let (base, spans) = graph.conflict_window(&a, &b);

        // Base is critical (or root) and happened before both versions.
        if let Some(c) = base.try_get_single() {
            prop_assert!(graph.is_critical(c));
            prop_assert!(graph.frontier_contains(&a, c) || a.is_empty());
            prop_assert!(graph.frontier_contains(&b, c) || b.is_empty());
        } else {
            prop_assert!(base.is_root());
        }

        // Spans are ascending and disjoint.
        for w in spans.windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }

        // Spans = union of events minus Events(base).
        let mut expected: HashSet<LV> = naive.events_of(&a);
        expected.extend(naive.events_of(&b));
        for e in naive.events_of(&base) {
            expected.remove(&e);
        }
        let got: HashSet<LV> = spans.iter().flat_map(|r| r.iter()).collect();
        prop_assert_eq!(got, expected);
    }

    /// Walk plans visit every event exactly once, and at each step the
    /// prepare version (tracked as a brute-force event set) lands exactly on
    /// the consumed run's parents.
    #[test]
    fn walk_plan_is_sound((naive, graph) in graph_strategy(), s1 in 0usize..1_000_000) {
        let a = pick_frontier(&naive, s1);
        let full = graph.frontier().clone();
        let (base, spans) = graph.conflict_window(&a, &full);
        let mut plan = eg_dag::walk::WalkPlan::new();
        plan.plan(&graph, &base, &spans, &spans);

        let expected_total: usize = spans.iter().map(|r| r.len()).sum();
        let total: usize = plan.iter().map(|s| s.consume.len()).sum();
        prop_assert_eq!(total, expected_total);

        // Simulate the prepare version as an event set.
        let mut prepare: HashSet<LV> = naive.events_of(&base);
        let mut seen: HashSet<LV> = HashSet::new();
        for step in plan.iter() {
            for r in step.retreat {
                for lv in r.iter() {
                    prop_assert!(prepare.remove(&lv), "retreat of absent event {}", lv);
                }
            }
            for r in step.advance {
                for lv in r.iter() {
                    prop_assert!(prepare.insert(lv), "advance of present event {}", lv);
                    prop_assert!(seen.contains(&lv), "advance of never-applied event {}", lv);
                }
            }
            for lv in step.consume.iter() {
                // The prepare version must equal Events(parents of lv).
                let parents = naive.parents[lv].clone();
                let expected = naive.events_of(&parents);
                prop_assert_eq!(
                    &prepare, &expected,
                    "prepare version wrong before applying {}", lv
                );
                prepare.insert(lv);
                prop_assert!(seen.insert(lv), "event {} consumed twice", lv);
            }
        }
    }
}
