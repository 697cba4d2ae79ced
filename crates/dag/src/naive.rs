//! Brute-force event graph model, used as a test oracle.
//!
//! [`NaiveGraph`] stores one parent list per event and answers every query
//! by materialising ancestor sets. It is hopelessly slow and that is the
//! point: the optimised algorithms in this crate (and the walker built on
//! them) are property-tested against it.

use crate::{Frontier, Graph, LV};
use std::collections::HashSet;

/// A plain one-`Vec`-per-event event graph.
#[derive(Debug, Clone, Default)]
pub struct NaiveGraph {
    /// `parents[i]` are the (dominator-reduced) parents of event `i`.
    pub parents: Vec<Vec<LV>>,
}

impl NaiveGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of events.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Returns `true` if the graph has no events.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Adds an event with the given parents, returning its LV.
    ///
    /// Parents are dominator-reduced so the graph stays transitively
    /// reduced.
    pub(crate) fn add(&mut self, parents: &[LV]) -> LV {
        let lv = self.parents.len();
        let mut reduced: Vec<LV> = Vec::new();
        for &p in parents {
            assert!(p < lv);
            let dominated = parents
                .iter()
                .any(|&q| q != p && self.ancestors(q).contains(&p));
            if !dominated && !reduced.contains(&p) {
                reduced.push(p);
            }
        }
        reduced.sort_unstable();
        self.parents.push(reduced);
        lv
    }

    /// The ancestor closure of `lv`, including `lv` itself.
    pub(crate) fn ancestors(&self, lv: LV) -> HashSet<LV> {
        let mut out = HashSet::new();
        let mut stack = vec![lv];
        while let Some(v) = stack.pop() {
            if out.insert(v) {
                stack.extend(self.parents[v].iter().copied());
            }
        }
        out
    }

    /// `Events(frontier)`: everything that happened at or before the
    /// version.
    pub fn events_of(&self, frontier: &[LV]) -> HashSet<LV> {
        let mut out = HashSet::new();
        for &v in frontier {
            out.extend(self.ancestors(v));
        }
        out
    }

    /// Brute-force version difference.
    pub fn diff(&self, a: &[LV], b: &[LV]) -> (Vec<LV>, Vec<LV>) {
        let ea = self.events_of(a);
        let eb = self.events_of(b);
        let mut only_a: Vec<LV> = ea.difference(&eb).copied().collect();
        let mut only_b: Vec<LV> = eb.difference(&ea).copied().collect();
        only_a.sort_unstable();
        only_b.sort_unstable();
        (only_a, only_b)
    }

    /// Brute-force critical versions, straight from the paper's definition:
    /// `{v}` is critical iff every event is `<= v` or a descendant of `v`.
    pub fn criticals(&self) -> Vec<LV> {
        (0..self.len())
            .filter(|&v| {
                let anc_v = self.ancestors(v);
                (0..self.len()).all(|e| anc_v.contains(&e) || self.ancestors(e).contains(&v))
            })
            .collect()
    }

    /// The frontier (maximal events) of an arbitrary event set.
    pub fn frontier_of(&self, events: &HashSet<LV>) -> Vec<LV> {
        let mut out: Vec<LV> = events
            .iter()
            .copied()
            .filter(|&v| {
                !events
                    .iter()
                    .any(|&w| w != v && self.ancestors(w).contains(&v))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Converts to the optimised [`Graph`] representation.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new();
        for (lv, parents) in self.parents.iter().enumerate() {
            g.push(parents, (lv..lv + 1).into());
        }
        g
    }

    /// The version of the whole graph.
    pub fn frontier(&self) -> Frontier {
        let all: HashSet<LV> = (0..self.len()).collect();
        Frontier(self.frontier_of(&all))
    }
}

/// Deterministically generates a random-but-plausible event graph.
///
/// `branchiness` in `[0.0, 1.0]` controls how often the generator forks or
/// merges instead of extending a tip; 0.0 yields a linear chain. The
/// generator occasionally (rarely) creates extra roots when `multi_root` is
/// set.
pub fn random_graph(
    seed: u64,
    num_events: usize,
    branchiness: f64,
    multi_root: bool,
) -> NaiveGraph {
    // A tiny, dependency-free xorshift PRNG — the graph shape only needs to
    // be deterministic, not statistically strong.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let next_u64 = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut next_f64 = {
        let mut n = next_u64;
        move || (n() >> 11) as f64 / (1u64 << 53) as f64
    };

    let mut g = NaiveGraph::new();
    let mut tips: Vec<LV> = Vec::new();
    for _ in 0..num_events {
        let roll = next_f64();
        if g.is_empty() {
            g.add(&[]);
            tips = vec![0];
            continue;
        }
        if multi_root && roll < 0.02 {
            let lv = g.add(&[]);
            tips.push(lv);
        } else if roll < branchiness * 0.5 {
            // Branch: extend a random *earlier* event (not necessarily a tip).
            let base = (next_f64() * g.len() as f64) as usize % g.len();
            let lv = g.add(&[base]);
            tips.retain(|&t| t != base);
            tips.push(lv);
        } else if roll < branchiness && tips.len() >= 2 {
            // Merge: combine two or three random tips.
            let mut parents: Vec<LV> = Vec::new();
            let count = 2 + (next_f64() * 2.0) as usize % 2;
            for _ in 0..count.min(tips.len()) {
                let i = (next_f64() * tips.len() as f64) as usize % tips.len();
                parents.push(tips[i]);
            }
            parents.sort_unstable();
            parents.dedup();
            let lv = g.add(&parents);
            tips.retain(|t| !parents.contains(t));
            tips.push(lv);
        } else {
            // Chain: extend a random tip.
            let i = (next_f64() * tips.len() as f64) as usize % tips.len();
            let base = tips[i];
            let lv = g.add(&[base]);
            tips.retain(|&t| t != base);
            tips.push(lv);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_basics() {
        let mut g = NaiveGraph::new();
        g.add(&[]);
        g.add(&[0]);
        g.add(&[0]);
        g.add(&[1, 2]);
        assert_eq!(g.ancestors(3), [0, 1, 2, 3].into_iter().collect());
        assert_eq!(g.criticals(), vec![0, 3]);
        assert_eq!(g.frontier().as_slice(), &[3]);
        let (a, b) = g.diff(&[1], &[2]);
        assert_eq!(a, vec![1]);
        assert_eq!(b, vec![2]);
    }

    #[test]
    fn add_reduces_parents() {
        let mut g = NaiveGraph::new();
        g.add(&[]);
        g.add(&[0]);
        // Parent 0 is an ancestor of 1; it must be dropped.
        g.add(&[0, 1]);
        assert_eq!(g.parents[2], vec![1]);
    }

    #[test]
    fn generator_is_deterministic_and_valid() {
        let g1 = random_graph(42, 80, 0.4, true);
        let g2 = random_graph(42, 80, 0.4, true);
        assert_eq!(g1.parents, g2.parents);
        assert_eq!(g1.len(), 80);
        for (lv, ps) in g1.parents.iter().enumerate() {
            for &p in ps {
                assert!(p < lv);
            }
        }
        // Branchy seeds actually branch.
        assert!(g1.parents.iter().any(|p| p.len() > 1));
    }

    #[test]
    fn generator_zero_branchiness_is_linear() {
        let g = random_graph(7, 50, 0.0, false);
        let opt = g.to_graph();
        assert_eq!(opt.num_entries(), 1);
    }
}
