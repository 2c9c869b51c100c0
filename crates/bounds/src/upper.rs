//! Upper-bound ordering heuristics (§4.4.2): min-fill (used by QuickBB and
//! the thesis' A\*/BB algorithms for the initial upper bound), min-degree,
//! and maximum cardinality search.

use crate::lower::{pick_in, pick_tied, DegreeQueue};
use ghd_core::eval::{GhwEvaluator, TwEvaluator};
use ghd_core::EliminationOrdering;
use ghd_hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};
use ghd_prng::Rng;

/// The live vertices of the `w`-th 64-vertex word of the live set
/// `alive` (its raw blocks), ascending.
fn live_in_word(alive: &[u64], w: usize) -> impl Iterator<Item = usize> {
    let mut bits = alive[w];
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let v = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            v
        })
    })
}

/// The least fill count of the live vertices in word `w` of `alive`;
/// `usize::MAX` when none is live.
fn word_minimum(alive: &[u64], w: usize, fill: &[usize]) -> usize {
    live_in_word(alive, w)
        .map(|v| fill[v])
        .min()
        .unwrap_or(usize::MAX)
}

/// The min-fill pick: the first live vertex of least fill, or, with `rng`,
/// a random one of the live vertices of least fill in ascending order
/// (`tied` is a reusable buffer). `word_min` holds [`word_minimum`] of
/// every word of `alive`, so only the first word at the least value and,
/// with `rng`, the later words at it are read vertex by vertex.
fn pick_min_fill<R: Rng + ?Sized>(
    alive: &[u64],
    fill: &[usize],
    word_min: &[usize],
    tied: &mut Vec<usize>,
    rng: &mut Option<&mut R>,
) -> usize {
    let least = *word_min.iter().min().expect("a vertex exists");
    let first = word_min
        .iter()
        .position(|&m| m == least)
        .expect("least is a minimum");
    let at_least = |w: usize| live_in_word(alive, w).filter(move |&v| fill[v] == least);
    if rng.is_none() {
        return at_least(first)
            .next()
            .expect("a live vertex attains its word's minimum");
    }
    tied.clear();
    for w in (first..word_min.len()).filter(|&w| word_min[w] == least) {
        tied.extend(at_least(w));
    }
    pick_tied(tied, rng)
}

/// The min-fill heuristic (§4.4.2): repeatedly eliminate the vertex whose
/// elimination adds the fewest edges, filling the ordering from the back
/// (position n first). Ties broken randomly when `rng` is given.
///
/// Fill counts are cached per vertex and refreshed only where an
/// elimination can change them: eliminating `v` changes the neighbourhood
/// of each `u ∈ N(v)`, and its fill edges (all inside `N(v)`) can only close
/// pairs in the neighbourhoods of `N(N(v))`. A simplicial `v` adds no fill,
/// so then only `N(v)` is refreshed. The least fill count of each 64-vertex
/// word of the live set is cached too, and refreshed only for the words
/// holding `v` or a refreshed vertex, so the argmin reads `n/64` word
/// minima and one or a few words, not every live vertex.
pub fn min_fill_ordering<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> EliminationOrdering {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut fill: Vec<usize> = (0..n).map(|v| eg.fill_in_count(v)).collect();
    let words = eg.alive().blocks().len();
    let mut word_min: Vec<usize> = (0..words)
        .map(|w| word_minimum(eg.alive().blocks(), w, &fill))
        .collect();
    let mut affected = BitSet::new(n);
    let mut tied = Vec::new();
    let mut order = vec![0usize; n];
    for pos in (0..n).rev() {
        let v = pick_min_fill(eg.alive().blocks(), &fill, &word_min, &mut tied, &mut rng);
        debug_assert_eq!(fill[v], eg.fill_in_count(v), "stale fill count");
        debug_assert!(
            scan_agrees(eg.alive(), &fill, v, &tied, rng.is_some()),
            "min-fill pick differs from the ascending scan's"
        );
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
        // the words whose minimum can move: the refreshed vertices' and v's
        affected.insert(v);
        let alive = eg.alive().blocks();
        for (w, &bits) in affected.blocks().iter().enumerate() {
            if bits != 0 {
                word_min[w] = word_minimum(alive, w, &fill);
            }
        }
    }
    EliminationOrdering::new(order).expect("permutation by construction")
}

/// Debug check of [`pick_min_fill`] against an ascending scan of the live
/// set: without an rng `v` is the scan's first vertex of least fill; with
/// one, `tied` is the scan's whole list of them.
fn scan_agrees(alive: &BitSet, fill: &[usize], v: usize, tied: &[usize], seeded: bool) -> bool {
    let least = alive.iter().map(|u| fill[u]).min();
    let mut scan = alive.iter().filter(|&u| Some(fill[u]) == least);
    if seeded {
        scan.eq(tied.iter().copied())
    } else {
        scan.next() == Some(v)
    }
}

/// The min-degree heuristic: like min-fill but keyed on current degree.
/// Live vertices sit in a degree bucket queue (ties in ascending vertex
/// order, as a scan of the live set gives them); an elimination moves only
/// its neighbours, the only vertices whose degree changes.
pub fn min_degree_ordering<R: Rng + ?Sized>(
    g: &Graph,
    mut rng: Option<&mut R>,
) -> EliminationOrdering {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut queue = DegreeQueue::default();
    queue.fill(&deg);
    let mut nb = Vec::new();
    let mut tied = Vec::new();
    let mut order = vec![0usize; n];
    for pos in (0..n).rev() {
        let (d, bucket) = queue.min_bucket().expect("alive vertex exists");
        let v = pick_in(bucket, &mut tied, &mut rng);
        queue.remove(v, d);
        order[pos] = v;
        nb.clear();
        nb.extend(eg.neighbors(v).iter());
        eg.eliminate(v);
        for &u in &nb {
            let d = eg.degree(u);
            queue.moved(u, deg[u], d);
            deg[u] = d;
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
        let v = pick_in(&buckets[max_w], &mut tied, &mut rng);
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
/// search: the heuristic warms the cache with every root bag.
/// Deterministic (first-maximum tie rule).
pub fn ghw_upper_bound_cached(
    h: &Hypergraph,
    cache: &mut ghd_core::setcover::CoverCache,
) -> (usize, EliminationOrdering) {
    let sigma = min_fill_ordering::<ghd_prng::rngs::StdRng>(&h.primal_graph(), None);
    let w = GhwEvaluator::new(h).width_cached(&sigma, cache);
    (w, sigma)
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
    fn cached_ghw_upper_bound_matches_uncached_tie_rule_and_hits() {
        use ghd_core::setcover::CoverCache;
        for seed in 0..5u64 {
            let h = hypergraphs::random_hypergraph(15, 10, 4, seed);
            let mut cache = CoverCache::new();
            let (w1, s1) = ghw_upper_bound_cached(&h, &mut cache);
            let (w2, s2) = ghw_upper_bound_cached(&h, &mut cache);
            assert_eq!((w1, s1.as_slice()), (w2, s2.as_slice()), "seed {seed}");
            assert!(cache.stats().hits > 0, "second run should hit");
            // the width is a genuine upper bound on the ordering's exact
            // realization
            let ghd = ghd_core::bucket::ghd_from_ordering(
                &h,
                &s1,
                ghd_core::setcover::CoverMethod::Exact,
            );
            assert!(ghd.width() <= w1, "seed {seed}");
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
