//! Ground-truth cross-validation: on instances small enough to enumerate
//! *every* elimination ordering, the exact searches must match the
//! brute-force optimum over the whole search space (sound by Theorem 3 for
//! ghw and the classical result for tw).

use ghd::core::bucket::ghd_from_ordering;
use ghd::core::eval::TwEvaluator;
use ghd::core::{CoverMethod, EliminationOrdering};
use ghd::hypergraph::generators::{graphs, hypergraphs};
use ghd::hypergraph::{Graph, Hypergraph};
use ghd::search::{
    astar_ghw, astar_tw, bb_ghw, bb_ghw_parallel, bb_tw, BbConfig, BbGhwConfig, SearchLimits,
};

/// Iterates all permutations of `0..n` (Heap's algorithm).
fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize])) {
    let mut a: Vec<usize> = (0..n).collect();
    let mut c = vec![0usize; n];
    f(&a);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            f(&a);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

fn brute_force_tw(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut eval = TwEvaluator::new(g);
    let mut best = usize::MAX;
    for_each_permutation(n, |perm| {
        let sigma = EliminationOrdering::new(perm.to_vec()).expect("permutation");
        best = best.min(eval.width(&sigma));
    });
    best
}

fn brute_force_ghw(h: &Hypergraph) -> usize {
    let n = h.num_vertices();
    let mut best = usize::MAX;
    for_each_permutation(n, |perm| {
        let sigma = EliminationOrdering::new(perm.to_vec()).expect("permutation");
        let ghd = ghd_from_ordering(h, &sigma, CoverMethod::Exact);
        best = best.min(ghd.width());
    });
    best
}

#[test]
fn treewidth_searches_match_exhaustive_optimum() {
    let mut cases: Vec<Graph> = vec![
        graphs::cycle(6),
        graphs::complete(5),
        graphs::grid(2),
        graphs::path(6),
    ];
    for seed in 0..6u64 {
        cases.push(graphs::gnm_random(7, 12, seed));
    }
    for (i, g) in cases.iter().enumerate() {
        let brute = brute_force_tw(g);
        let a = astar_tw(g, SearchLimits::unlimited());
        let b = bb_tw(g, &BbConfig::default());
        assert!(a.exact && b.exact, "case {i}");
        assert_eq!(a.upper_bound, brute, "A* case {i}");
        assert_eq!(b.upper_bound, brute, "BB case {i}");
    }
}

#[test]
fn ghw_searches_match_exhaustive_optimum() {
    let mut cases: Vec<Hypergraph> = vec![
        hypergraphs::clique(5),
        hypergraphs::acyclic_chain(3, 3, 1),
        Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]),
    ];
    for seed in 0..6u64 {
        cases.push(hypergraphs::random_hypergraph(7, 5, 3, seed));
    }
    let uncached = BbGhwConfig {
        use_cover_cache: false,
        ..BbGhwConfig::default()
    };
    for (i, h) in cases.iter().enumerate() {
        let brute = brute_force_ghw(h);
        // every search path with its own cover store: A*, sequential BB
        // with and without it, and parallel BB sharing one across workers
        let runs = [
            ("A*", astar_ghw(h, SearchLimits::unlimited())),
            ("BB", bb_ghw(h, &BbGhwConfig::default())),
            ("BB parallel-1", bb_ghw_parallel(h, &BbGhwConfig::default(), 1)),
            ("BB parallel-2", bb_ghw_parallel(h, &BbGhwConfig::default(), 2)),
            ("BB uncached", bb_ghw(h, &uncached)),
        ];
        for (name, r) in runs {
            assert!(r.exact, "{name} case {i}");
            assert_eq!(r.upper_bound, brute, "{name} case {i}");
        }
    }
}

/// Every pruning/reduction configuration of the branch and bound still
/// matches the exhaustive optimum — the rules are loss-free.
#[test]
fn pruning_rules_are_lossless_against_ground_truth() {
    for seed in 0..4u64 {
        let g = graphs::gnm_random(7, 11, 100 + seed);
        let brute = brute_force_tw(&g);
        for (red, pr2) in [(true, true), (true, false), (false, true), (false, false)] {
            let r = bb_tw(
                &g,
                &BbConfig {
                    use_reductions: red,
                    use_pr2: pr2,
                    ..BbConfig::default()
                },
            );
            assert_eq!(r.upper_bound, brute, "seed {seed} red={red} pr2={pr2}");
        }
        let h = hypergraphs::random_hypergraph(7, 5, 3, 200 + seed);
        let brute_h = brute_force_ghw(&h);
        for (red, pr2) in [(true, true), (true, false), (false, true), (false, false)] {
            let r = bb_ghw(
                &h,
                &BbGhwConfig {
                    use_reductions: red,
                    use_pr2: pr2,
                    ..BbGhwConfig::default()
                },
            );
            assert_eq!(r.upper_bound, brute_h, "seed {seed} red={red} pr2={pr2}");
        }
    }
}
