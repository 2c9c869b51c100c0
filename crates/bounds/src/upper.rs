//! Upper-bound ordering heuristics (§4.4.2): min-fill (used by QuickBB and
//! the thesis' A\*/BB algorithms for the initial upper bound), min-degree,
//! and maximum cardinality search.

use crate::lower::pick_tied;
use ghd_core::eval::{GhwEvaluator, TwEvaluator};
use ghd_core::EliminationOrdering;
use ghd_hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};
use ghd_prng::Rng;

/// Picks, among indices with the minimum key, either the first or a random
/// one. `tied` is a reusable buffer.
fn argmin_tie<R: Rng + ?Sized>(
    keys: impl Iterator<Item = (usize, usize)>,
    tied: &mut Vec<usize>,
    rng: &mut Option<&mut R>,
) -> Option<usize> {
    let mut best_key = usize::MAX;
    tied.clear();
    for (v, key) in keys {
        match key.cmp(&best_key) {
            std::cmp::Ordering::Less => {
                best_key = key;
                tied.clear();
                tied.push(v);
            }
            std::cmp::Ordering::Equal => tied.push(v),
            std::cmp::Ordering::Greater => {}
        }
    }
    (!tied.is_empty()).then(|| pick_tied(tied, rng))
}

/// The min-fill heuristic (§4.4.2): repeatedly eliminate the vertex whose
/// elimination adds the fewest edges, filling the ordering from the back
/// (position n first). Ties broken randomly when `rng` is given.
///
/// Fill counts are cached per vertex and refreshed only where an
/// elimination can change them: eliminating `v` changes the neighbourhood
/// of each `u ∈ N(v)`, and its fill edges (all inside `N(v)`) can only close
/// pairs in the neighbourhoods of `N(N(v))`. A simplicial `v` adds no fill,
/// so then only `N(v)` is refreshed.
pub fn min_fill_ordering<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> EliminationOrdering {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut fill: Vec<usize> = (0..n).map(|v| eg.fill_in_count(v)).collect();
    let mut affected = BitSet::new(n);
    let mut tied = Vec::new();
    let mut order = vec![0usize; n];
    for pos in (0..n).rev() {
        let v = argmin_tie(eg.alive().iter().map(|v| (v, fill[v])), &mut tied, &mut rng)
            .expect("alive vertex exists");
        debug_assert_eq!(fill[v], eg.fill_in_count(v), "stale fill count");
        order[pos] = v;
        affected.copy_from(eg.neighbors(v));
        if fill[v] > 0 {
            for u in eg.neighbors(v).iter() {
                affected.union_with(eg.neighbors(u));
            }
            affected.remove(v);
        }
        eg.eliminate(v);
        for u in affected.iter() {
            fill[u] = eg.fill_in_count(u);
        }
    }
    EliminationOrdering::new(order).expect("permutation by construction")
}

/// The min-degree heuristic: like min-fill but keyed on current degree.
/// Degrees are cached; an elimination changes only its neighbours' degrees.
pub fn min_degree_ordering<R: Rng + ?Sized>(
    g: &Graph,
    mut rng: Option<&mut R>,
) -> EliminationOrdering {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut nb = Vec::new();
    let mut tied = Vec::new();
    let mut order = vec![0usize; n];
    for pos in (0..n).rev() {
        let v = argmin_tie(eg.alive().iter().map(|v| (v, deg[v])), &mut tied, &mut rng)
            .expect("alive vertex exists");
        order[pos] = v;
        nb.clear();
        nb.extend(eg.neighbors(v).iter());
        eg.eliminate(v);
        for &u in &nb {
            deg[u] = eg.degree(u);
        }
    }
    EliminationOrdering::new(order).expect("permutation by construction")
}

/// Maximum cardinality search: vertices are numbered front-to-back, each
/// step choosing the vertex with the most already-numbered neighbours (the
/// ordering is then used back-to-front for elimination, as everywhere else).
///
/// Unnumbered vertices sit in one bucket per weight, so the tied
/// maximum-weight vertices are read off in ascending order without a scan
/// of all vertices. Weights only grow, one step at a time, so the
/// maximum-weight pointer moves down at most as often as it moves up.
pub fn mcs_ordering<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> EliminationOrdering {
    let n = g.num_vertices();
    let mut weight = vec![0usize; n];
    let mut numbered = vec![false; n];
    let mut buckets = vec![BitSet::full(n)];
    let mut max_w = 0;
    let mut tied = Vec::new();
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        while buckets[max_w].is_empty() {
            max_w -= 1;
        }
        tied.clear();
        tied.extend(buckets[max_w].iter());
        let v = pick_tied(&tied, &mut rng);
        numbered[v] = true;
        buckets[max_w].remove(v);
        order.push(v);
        for u in g.neighbors(v).iter() {
            if !numbered[u] {
                buckets[weight[u]].remove(u);
                weight[u] += 1;
                if weight[u] == buckets.len() {
                    buckets.push(BitSet::new(n));
                }
                buckets[weight[u]].insert(u);
                max_w = max_w.max(weight[u]);
            }
        }
    }
    EliminationOrdering::new(order).expect("permutation by construction")
}

/// Initial treewidth upper bound: the width of the min-fill ordering
/// (QuickBB's choice, §4.4.2). Returns `(width, ordering)`.
pub fn tw_upper_bound<R: Rng + ?Sized>(g: &Graph, rng: Option<&mut R>) -> (usize, EliminationOrdering) {
    let sigma = min_fill_ordering(g, rng);
    let w = TwEvaluator::new(g).width(&sigma);
    (w, sigma)
}

/// Multi-start min-fill: `k` randomized-tie-break runs, keeping the best
/// (the thesis exploits min-fill's random tie-breaking by reporting the
/// best of ten runs per instance).
pub fn tw_upper_bound_multistart(g: &Graph, k: usize, seed: u64) -> (usize, EliminationOrdering) {
    use ghd_prng::rngs::StdRng;
    assert!(k >= 1);
    let mut eval = TwEvaluator::new(g);
    let mut best: Option<(usize, EliminationOrdering)> = None;
    for i in 0..k {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let sigma = min_fill_ordering(g, Some(&mut rng));
        let w = eval.width(&sigma);
        if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
            best = Some((w, sigma));
        }
    }
    best.expect("k >= 1")
}

/// Initial generalized hypertree width upper bound: min-fill ordering on the
/// primal graph, bags covered greedily (McMahan's pipeline, §2.5.2).
/// Returns `(width, ordering)`.
pub fn ghw_upper_bound<R: Rng + ?Sized>(
    h: &Hypergraph,
    mut rng: Option<&mut R>,
) -> (usize, EliminationOrdering) {
    let sigma = min_fill_ordering(&h.primal_graph(), rng.as_deref_mut());
    let w = GhwEvaluator::new(h).width(&sigma, rng);
    (w, sigma)
}

/// [`ghw_upper_bound`] with the per-bag greedy covers routed through a
/// [`CoverCache`](ghd_core::setcover::CoverCache) shared with the caller's
/// search: the heuristic warms the cache with every root bag, and multistart
/// restarts hit covers computed by earlier starts. Deterministic
/// (first-maximum tie rule).
pub fn ghw_upper_bound_cached(
    h: &Hypergraph,
    cache: &mut ghd_core::setcover::CoverCache,
) -> (usize, EliminationOrdering) {
    let sigma = min_fill_ordering::<ghd_prng::rngs::StdRng>(&h.primal_graph(), None);
    let w = GhwEvaluator::new(h).width_cached(&sigma, cache);
    (w, sigma)
}

/// Multi-start variant of [`ghw_upper_bound_cached`]: `k` randomized
/// min-fill orderings (seeded), every bag cover memoized in `cache`, best
/// `(width, ordering)` returned. Restarts share most buckets, so later
/// starts are mostly cache hits.
pub fn ghw_upper_bound_multistart_cached(
    h: &Hypergraph,
    k: usize,
    seed: u64,
    cache: &mut ghd_core::setcover::CoverCache,
) -> (usize, EliminationOrdering) {
    use ghd_prng::rngs::StdRng;
    assert!(k >= 1);
    let primal = h.primal_graph();
    let mut eval = GhwEvaluator::new(h);
    let mut best: Option<(usize, EliminationOrdering)> = None;
    for i in 0..k {
        let sigma = if i == 0 {
            min_fill_ordering::<StdRng>(&primal, None)
        } else {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            min_fill_ordering(&primal, Some(&mut rng))
        };
        let w = eval.width_cached(&sigma, cache);
        if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
            best = Some((w, sigma));
        }
    }
    best.expect("k >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_hypergraph::generators::{graphs, hypergraphs};
    use ghd_prng::rngs::StdRng;

    #[test]
    fn min_fill_is_optimal_on_chordal_graphs() {
        // a tree (treewidth 1) and a clique (treewidth n-1) are chordal:
        // min-fill finds a perfect elimination ordering with zero fill.
        let tree = graphs::path(10);
        let (w, _) = tw_upper_bound::<StdRng>(&tree, None);
        assert_eq!(w, 1);
        let k5 = graphs::complete(5);
        let (w, _) = tw_upper_bound::<StdRng>(&k5, None);
        assert_eq!(w, 4);
    }

    #[test]
    fn min_fill_finds_grid_treewidth() {
        // min-fill achieves width n on small n×n grids
        for n in 2..=5 {
            let g = graphs::grid(n);
            let (w, sigma) = tw_upper_bound::<StdRng>(&g, None);
            assert_eq!(w, n, "grid{n}");
            assert_eq!(sigma.len(), n * n);
        }
    }

    #[test]
    fn orderings_are_valid_permutations() {
        let g = graphs::queen(4);
        let mut rng = StdRng::seed_from_u64(7);
        for sigma in [
            min_fill_ordering(&g, Some(&mut rng)),
            min_degree_ordering(&g, Some(&mut rng)),
            mcs_ordering(&g, Some(&mut rng)),
        ] {
            let mut seen = sigma.as_slice().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mcs_is_exact_on_interval_graph() {
        // path graphs are interval graphs; MCS yields a perfect elimination
        // ordering → width 1
        let g = graphs::path(12);
        let sigma = mcs_ordering::<StdRng>(&g, None);
        let w = TwEvaluator::new(&g).width(&sigma);
        assert_eq!(w, 1);
    }

    #[test]
    fn ghw_upper_bound_on_acyclic_instance_is_one() {
        let h = hypergraphs::acyclic_chain(6, 3, 1);
        let (w, _) = ghw_upper_bound::<StdRng>(&h, None);
        assert_eq!(w, 1);
    }

    #[test]
    fn ghw_upper_bound_on_adder_is_small() {
        let h = hypergraphs::adder(10);
        let (w, _) = ghw_upper_bound::<StdRng>(&h, None);
        assert!(w <= 3, "adder ghw ub should be tiny, got {w}");
    }

    #[test]
    fn multistart_never_worse_than_single_deterministic_run() {
        for seed in 0..5u64 {
            let g = graphs::gnm_random(40, 150, seed);
            let (single, _) = tw_upper_bound::<StdRng>(&g, None);
            let (multi, sigma) = tw_upper_bound_multistart(&g, 8, seed);
            assert!(multi <= single + 1, "seed {seed}"); // randomized runs vary
            let w = TwEvaluator::new(&g).width(&sigma);
            assert_eq!(w, multi);
        }
    }

    #[test]
    fn cached_ghw_upper_bound_matches_uncached_tie_rule_and_hits() {
        use ghd_core::setcover::CoverCache;
        for seed in 0..5u64 {
            let h = hypergraphs::random_hypergraph(15, 10, 4, seed);
            let mut cache = CoverCache::new();
            let (w1, s1) = ghw_upper_bound_cached(&h, &mut cache);
            let (w2, s2) = ghw_upper_bound_cached(&h, &mut cache);
            assert_eq!((w1, s1.as_slice()), (w2, s2.as_slice()), "seed {seed}");
            assert!(cache.stats().hits > 0, "second run should hit");
            // multistart shares the cache and can only improve
            let (wm, sm) = ghw_upper_bound_multistart_cached(&h, 6, seed, &mut cache);
            assert!(wm <= w1, "seed {seed}");
            assert_eq!(sm.len(), 15);
            // widths are genuine upper bounds on the uncached heuristic's
            // exact realization
            let ghd = ghd_core::bucket::ghd_from_ordering(
                &h,
                &sm,
                ghd_core::setcover::CoverMethod::Exact,
            );
            assert!(ghd.width() <= wm, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_and_seeded_variants_agree_with_themselves() {
        let g = graphs::gnm_random(30, 90, 5);
        let a = min_fill_ordering::<StdRng>(&g, None);
        let b = min_fill_ordering::<StdRng>(&g, None);
        assert_eq!(a, b);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        assert_eq!(
            min_fill_ordering(&g, Some(&mut r1)),
            min_fill_ordering(&g, Some(&mut r2))
        );
    }
}
