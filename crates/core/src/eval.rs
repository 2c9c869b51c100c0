//! Hot-loop evaluation of elimination orderings: the fitness functions of
//! GA-tw (Fig 6.2) and GA-ghw (Fig 7.1).
//!
//! Both are adaptations of the perfect-elimination-ordering check of Golumbic
//! \[25\]: process vertices back to front, keep per-vertex adjacency *lists*
//! that only ever grow, and push each bucket's residue onto the next vertex
//! to be eliminated. Running time is O(|V| + |E′|) where E′ includes fill
//! edges. The evaluators own reusable buffers so that a genetic algorithm's
//! millions of evaluations do not allocate.

use crate::ordering::EliminationOrdering;
use crate::setcover::CoverCache;
use ghd_hypergraph::{BitSet, Graph, Hypergraph};
use ghd_prng::{Rng, RngExt};

/// Shared list-based elimination engine. `lists[v]` starts as the adjacency
/// list of `v` and grows by appended residues; `base_len` allows O(n) reset.
struct Engine {
    lists: Vec<Vec<u32>>,
    base_len: Vec<usize>,
    stamp: Vec<u32>,
    round: u32,
    bag: Vec<u32>,
}

impl Engine {
    fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        Engine {
            lists: (0..n)
                .map(|v| g.neighbors(v).iter().map(|u| u as u32).collect())
                .collect(),
            base_len: (0..n).map(|v| g.degree(v)).collect(),
            stamp: vec![0; n],
            round: 0,
            bag: Vec::with_capacity(n),
        }
    }

    fn reset(&mut self) {
        for (list, &len) in self.lists.iter_mut().zip(&self.base_len) {
            list.truncate(len);
        }
    }

    /// Computes `X = {x ∈ A[v] | x <_σ v}` (deduplicated) into `self.bag`.
    fn collect_bag(&mut self, v: usize, i: usize, sigma: &EliminationOrdering) {
        self.round += 1;
        let round = self.round;
        self.bag.clear();
        let list = std::mem::take(&mut self.lists[v]);
        for &x in &list {
            let x_us = x as usize;
            if sigma.position(x_us) < i && self.stamp[x_us] != round {
                self.stamp[x_us] = round;
                self.bag.push(x);
            }
        }
        self.lists[v] = list;
    }

    /// Pushes `bag − {u}` onto `A[u]` where `u` is the member of the bag
    /// eliminated next (maximum position). Returns `u` if the bag is
    /// nonempty.
    fn forward(&mut self, sigma: &EliminationOrdering) -> Option<usize> {
        let u = self
            .bag
            .iter()
            .copied()
            .max_by_key(|&x| sigma.position(x as usize))? as usize;
        // borrow juggling: move the list out while extending
        let mut list = std::mem::take(&mut self.lists[u]);
        list.extend(self.bag.iter().copied().filter(|&x| x as usize != u));
        self.lists[u] = list;
        Some(u)
    }
}

/// Evaluates the treewidth of orderings on a fixed graph (Fig 6.2).
pub struct TwEvaluator {
    engine: Engine,
}

impl TwEvaluator {
    /// Prepares an evaluator for `g`.
    pub fn new(g: &Graph) -> Self {
        TwEvaluator {
            engine: Engine::new(g),
        }
    }

    /// The width of the tree decomposition induced by `σ` — an upper bound
    /// on the treewidth, tight for at least one ordering (§2.5.1).
    pub fn width(&mut self, sigma: &EliminationOrdering) -> usize {
        let n = sigma.len();
        debug_assert_eq!(n, self.engine.lists.len());
        let mut width = 0;
        for i in (0..n).rev() {
            if width >= i {
                break; // remaining bags have ≤ i vertices (Fig 6.2 loop bound)
            }
            let v = sigma.at(i);
            self.engine.collect_bag(v, i, sigma);
            width = width.max(self.engine.bag.len());
            self.engine.forward(sigma);
        }
        self.engine.reset();
        width
    }
}

/// Evaluates the generalized-hypertree width of orderings on a fixed
/// hypergraph (Fig 7.1): each bucket's bag `{v} ∪ X` is covered greedily
/// (Fig 7.2) and the maximum cover size is the fitness.
pub struct GhwEvaluator {
    engine: Engine,
    h: Hypergraph,
    covered: BitSet,
    // reusable buffers of the allocation-free greedy cover
    bag_vertices: Vec<u32>,
    bag_set: BitSet,
    uncovered: BitSet,
    candidates: Vec<u32>,
    cand_stamp: Vec<u32>,
    round: u32,
    // per edge, valid while `cand_stamp[e] == round`: its position in
    // `candidates` and its gain `|e ∩ uncovered|`
    slot: Vec<u32>,
    gain: Vec<u32>,
    // `buckets[g]`: the candidate positions of gain `g`, for `g >= 1`
    buckets: Vec<BitSet>,
    tied: Vec<usize>,
}

impl GhwEvaluator {
    /// Prepares an evaluator for `h` (the primal graph is derived once).
    pub fn new(h: &Hypergraph) -> Self {
        let primal = h.primal_graph();
        GhwEvaluator {
            engine: Engine::new(&primal),
            covered: h.covered_vertices(),
            bag_vertices: Vec::new(),
            bag_set: BitSet::new(h.num_vertices()),
            uncovered: BitSet::new(h.num_vertices()),
            candidates: Vec::new(),
            cand_stamp: vec![0; h.num_edges()],
            round: 0,
            slot: vec![0; h.num_edges()],
            gain: vec![0; h.num_edges()],
            buckets: vec![BitSet::new(0); h.rank() + 1],
            tied: Vec::new(),
            h: h.clone(),
        }
    }

    /// Greedy cover size of the vertices currently in `bag_vertices`,
    /// without allocation (Fig 7.2 semantics: repeatedly take the edge
    /// covering the most uncovered vertices, ties broken randomly or by the
    /// first maximum).
    ///
    /// Candidates (the edges touching the bag) are numbered in discovery
    /// order, bag vertex by bag vertex, and sit in one bucket per gain.
    /// The pick is the lowest position in the highest non-empty bucket,
    /// and with an `rng` that bucket read in ascending order is the tied
    /// list: the candidates of maximum gain in discovery order, as a
    /// rescan of every candidate lists them. Covering a vertex moves each
    /// edge through it down one bucket; gains only fall, so the top
    /// pointer only moves down.
    fn fast_greedy_size<R: Rng + ?Sized>(&mut self, rng: &mut Option<&mut R>) -> usize {
        self.round += 1;
        let round = self.round;
        self.candidates.clear();
        self.uncovered.clear();
        let mut top = 0;
        for &v in &self.bag_vertices {
            self.uncovered.insert(v as usize);
            for &e in self.h.edges_containing(v as usize) {
                if self.cand_stamp[e] != round {
                    self.cand_stamp[e] = round;
                    self.slot[e] = self.candidates.len() as u32;
                    self.gain[e] = 0;
                    self.candidates.push(e as u32);
                }
                self.gain[e] += 1;
                top = top.max(self.gain[e] as usize);
            }
        }
        for row in &mut self.buckets[1..=top] {
            row.reset(self.candidates.len());
        }
        for (at, &e) in self.candidates.iter().enumerate() {
            self.buckets[self.gain[e as usize] as usize].insert(at);
        }
        let mut remaining = self.bag_vertices.len();
        let mut k = 0;
        while remaining > 0 {
            while top > 0 && self.buckets[top].is_empty() {
                top -= 1;
            }
            assert!(top > 0, "bag not coverable by hypergraph edges");
            let at = match rng.as_deref_mut() {
                Some(r) => {
                    self.tied.clear();
                    self.tied.extend(self.buckets[top].iter());
                    self.tied[r.random_range(0..self.tied.len())]
                }
                None => self.buckets[top].min().expect("nonempty bucket"),
            };
            let pick = self.h.edge(self.candidates[at] as usize);
            debug_assert_eq!(
                top,
                pick.intersection_len(&self.uncovered),
                "stale greedy gain"
            );
            for u in pick.iter().filter(|&u| self.uncovered.contains(u)) {
                for &f in self.h.edges_containing(u) {
                    let g = self.gain[f] as usize;
                    let at = self.slot[f] as usize;
                    self.buckets[g].remove(at);
                    if g > 1 {
                        self.buckets[g - 1].insert(at);
                    }
                    self.gain[f] -= 1;
                }
            }
            self.uncovered.difference_with(pick);
            remaining -= top;
            k += 1;
        }
        k
    }

    /// The width (max greedy cover size over all buckets) of the GHD induced
    /// by `σ`. Ties in the greedy cover are broken randomly when `rng` is
    /// supplied, matching the thesis; otherwise first-maximum.
    pub fn width<R: Rng + ?Sized>(
        &mut self,
        sigma: &EliminationOrdering,
        rng: Option<&mut R>,
    ) -> usize {
        let n = sigma.len();
        debug_assert_eq!(n, self.engine.lists.len());
        let mut width = 0;
        let mut rng = rng;
        for i in (0..n).rev() {
            // The bag at position i is {v}∪X with X among positions 0..i, so
            // it has at most i+1 vertices and its cover at most i+1 edges:
            // skipping is safe only once width > i (Fig 7.1's bound, with
            // 0-indexed positions).
            if width > i {
                break;
            }
            let v = sigma.at(i);
            self.engine.collect_bag(v, i, sigma);
            self.bag_vertices.clear();
            if self.covered.contains(v) {
                self.bag_vertices.push(v as u32);
            }
            for idx in 0..self.engine.bag.len() {
                let x = self.engine.bag[idx];
                // unconstrained vertices need no cover
                if self.covered.contains(x as usize) {
                    self.bag_vertices.push(x);
                }
            }
            let k = self.fast_greedy_size(&mut rng);
            width = width.max(k);
            self.engine.forward(sigma);
        }
        self.engine.reset();
        width
    }

    /// Like [`GhwEvaluator::width`] with deterministic tie-breaking, but
    /// every bag cover is routed through `cache` (the first-maximum greedy
    /// of `setcover`), so repeated bags — across positions *and* across
    /// orderings, which share most buckets near the root — are solved once.
    ///
    /// The cache must belong to the same hypergraph as this evaluator.
    pub fn width_cached(&mut self, sigma: &EliminationOrdering, cache: &mut CoverCache) -> usize {
        let n = sigma.len();
        debug_assert_eq!(n, self.engine.lists.len());
        let mut width = 0;
        for i in (0..n).rev() {
            if width > i {
                break; // same Fig 7.1 bound as `width`
            }
            let v = sigma.at(i);
            self.engine.collect_bag(v, i, sigma);
            self.bag_set.clear();
            if self.covered.contains(v) {
                self.bag_set.insert(v);
            }
            for idx in 0..self.engine.bag.len() {
                let x = self.engine.bag[idx] as usize;
                if self.covered.contains(x) {
                    self.bag_set.insert(x);
                }
            }
            let k = cache.greedy_cover_size(&self.bag_set, &self.h);
            width = width.max(k);
            self.engine.forward(sigma);
        }
        self.engine.reset();
        width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{bucket_elimination, ghd_from_ordering};
    use crate::setcover::CoverMethod;
    use ghd_hypergraph::generators::{graphs, hypergraphs};
    use ghd_prng::rngs::StdRng;

    #[test]
    fn tw_evaluator_matches_bucket_elimination_width() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..10u64 {
            let g = graphs::gnm_random(25, 60, seed);
            let h = Hypergraph::from_graph(&g);
            let mut eval = TwEvaluator::new(&g);
            for _ in 0..5 {
                let sigma = EliminationOrdering::random(25, &mut rng);
                let fast = eval.width(&sigma);
                let td = bucket_elimination(&h, &sigma);
                assert_eq!(fast, td.width(), "seed {seed}");
            }
        }
    }

    #[test]
    fn tw_evaluator_is_reusable() {
        let g = graphs::grid(4);
        let mut eval = TwEvaluator::new(&g);
        let sigma = EliminationOrdering::identity(16);
        let w1 = eval.width(&sigma);
        let w2 = eval.width(&sigma);
        assert_eq!(w1, w2);
    }

    #[test]
    fn ghw_evaluator_upper_bounds_exact_cover_width() {
        let mut rng = StdRng::seed_from_u64(2);
        for seed in 0..6u64 {
            let h = hypergraphs::random_hypergraph(18, 12, 4, seed);
            let mut eval = GhwEvaluator::new(&h);
            for _ in 0..4 {
                let sigma = EliminationOrdering::random(18, &mut rng);
                let greedy_w = eval.width::<StdRng>(&sigma, None);
                let exact = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
                assert!(
                    greedy_w >= exact.width(),
                    "greedy {} < exact {} (seed {seed})",
                    greedy_w,
                    exact.width()
                );
                let greedy_ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Greedy);
                // Both run Fig 7.2's greedy rule, but they enumerate tied
                // maximum-gain edges in different candidate orders, so the
                // covers may differ slightly on tie-heavy bags. Each is a
                // sound upper bound on the exact cover width.
                assert!(greedy_ghd.width() >= exact.width(), "seed {seed}");
                assert!(
                    greedy_w.abs_diff(greedy_ghd.width()) <= 1,
                    "greedy evaluators diverged: {} vs {} (seed {seed})",
                    greedy_w,
                    greedy_ghd.width()
                );
            }
        }
    }

    #[test]
    fn cached_width_matches_bucket_greedy_and_reuses_covers() {
        use crate::setcover::CoverCache;
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..6u64 {
            let h = hypergraphs::random_hypergraph(16, 11, 4, seed);
            let mut eval = GhwEvaluator::new(&h);
            let mut cache = CoverCache::new();
            for _ in 0..4 {
                let sigma = EliminationOrdering::random(16, &mut rng);
                let w = eval.width_cached(&sigma, &mut cache);
                // identical on replay (cache answers are proven facts)
                assert_eq!(w, eval.width_cached(&sigma, &mut cache), "seed {seed}");
                // same greedy rule as the bucket-elimination pipeline
                let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Greedy);
                assert_eq!(w, ghd.width(), "seed {seed}");
                let exact = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
                assert!(w >= exact.width(), "seed {seed}");
            }
            let stats = cache.stats();
            assert!(stats.hits > 0, "replays must hit the cache: {stats:?}");
        }
    }

    #[test]
    fn clique_hypergraph_ghw_is_half_n() {
        // K6 as binary hyperedges: every ordering gives a bag of all 6
        // vertices at some point; its exact/greedy cover is 3 = ⌈6/2⌉.
        let h = hypergraphs::clique(6);
        let mut eval = GhwEvaluator::new(&h);
        let sigma = EliminationOrdering::identity(6);
        assert_eq!(eval.width::<StdRng>(&sigma, None), 3);
    }

    #[test]
    fn grid_identity_ordering_width() {
        // Eliminating an n×n grid row-major gives width exactly n.
        let g = graphs::grid(5);
        let mut eval = TwEvaluator::new(&g);
        let sigma = EliminationOrdering::identity(25);
        assert_eq!(eval.width(&sigma), 5);
    }
}
