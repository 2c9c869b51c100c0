//! Width of the stitched split ordering. When the whole-instance witness
//! does not finish, `split_tw` stitches the block orderings into one; that
//! ordering must realise no more than the widest block (and the reductions'
//! base width), so an instance whose blocks are all exact stays exact at
//! the block maximum. The stitched path is forced with deterministic node
//! budgets on one worker: a budget just covering the block solves leaves
//! the witness (almost) nothing, smaller ones leave blocks inexact too.
//! The stitched width must also stay within the root min-fill bound.
//!
//! Inputs: seeded chains of gnm and Mycielski blocks glued at cut vertices
//! (one biconnected block per piece), and two queen(4) graphs glued on an
//! edge (one biconnected block split by a clique separator into atoms).

use ghd_bounds::upper::min_fill_ordering;
use ghd_core::eval::TwEvaluator;
use ghd_core::EliminationOrdering;
use ghd_hypergraph::generators::graphs;
use ghd_hypergraph::Graph;
use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;
use ghd_search::{split_tw, BbConfig, SearchLimits, SplitOutcome};

/// Glues `blocks` into a chain: block `i + 1`'s vertex 0 is identified
/// with a seeded vertex of block `i`.
fn chain(blocks: &[Graph], rng: &mut StdRng) -> Graph {
    let n = blocks.iter().map(Graph::num_vertices).sum::<usize>() + 1 - blocks.len();
    let mut g = Graph::new(n);
    let mut prev: Vec<usize> = Vec::new();
    let mut next = 0;
    for b in blocks {
        let ids: Vec<usize> = (0..b.num_vertices())
            .map(|i| {
                if i == 0 && !prev.is_empty() {
                    prev[rng.random_range(0..prev.len())]
                } else {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        for (u, v) in b.edges() {
            g.add_edge(ids[u], ids[v]);
        }
        prev = ids;
    }
    g
}

/// Two queen(4) graphs sharing the edge {0, 1}: a clique separator.
fn queen_pair() -> Graph {
    let q = graphs::queen(4);
    let qn = q.num_vertices();
    let mut g = Graph::new(2 * qn - 2);
    let map: Vec<usize> = (0..qn)
        .map(|v| if v < 2 { v } else { qn - 2 + v })
        .collect();
    for (u, v) in q.edges() {
        g.add_edge(u, v);
        g.add_edge(map[u], map[v]);
    }
    g
}

fn run(g: &Graph, nodes: u64) -> SplitOutcome {
    let cfg = BbConfig {
        limits: SearchLimits::with_nodes(nodes),
        ..BbConfig::default()
    };
    split_tw(g, &cfg, 1, None)
}

/// Checks every stitched run of `g` over a sweep of node budgets; returns
/// how many runs were stitched, and how many of those had every block
/// exact.
fn check(case: &str, g: &Graph) -> (usize, usize) {
    let min_fill = TwEvaluator::new(g).width(&min_fill_ordering::<StdRng>(g, None));
    // the blocks' own node count: double the budget until they all finish
    let mut probe_budget = 1024;
    let probe = loop {
        let s = run(g, probe_budget);
        if s.report.blocks.iter().all(|b| b.exact) {
            break s;
        }
        probe_budget *= 2;
    };
    assert!(probe.report.split, "{case} must split");
    let block_nodes: u64 = probe.report.blocks.iter().map(|b| b.nodes).sum();
    let (mut stitched, mut all_exact) = (0, 0);
    for nodes in [block_nodes / 2, block_nodes, block_nodes + 1] {
        let s = run(g, nodes);
        if !s.report.stitched {
            continue;
        }
        stitched += 1;
        let order = s.result.ordering.clone().expect("stitched ordering");
        let sigma = EliminationOrdering::new(order).expect("permutation");
        let w = TwEvaluator::new(g).width(&sigma);
        let block_max = s
            .report
            .blocks
            .iter()
            .map(|b| b.width)
            .max()
            .unwrap_or(0)
            .max(s.report.base_width);
        let what = format!("{case}, {nodes} nodes");
        assert!(
            w <= block_max,
            "{what}: stitched width {w} above the block maximum {block_max}"
        );
        assert!(
            w <= min_fill,
            "{what}: stitched width {w} above min-fill {min_fill}"
        );
        assert!(
            w <= s.result.upper_bound,
            "{what}: width {w} not certified by the bound"
        );
        if s.report.blocks.iter().all(|b| b.exact) {
            all_exact += 1;
            assert_eq!(w, block_max, "{what}: exact blocks stitch to their maximum");
            assert!(s.result.exact, "{what}: exact blocks give an exact answer");
            assert_eq!(s.result.upper_bound, block_max, "{what}");
        }
    }
    (stitched, all_exact)
}

#[test]
fn stitched_chains_keep_the_block_maximum() {
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    let mut all_exact = 0;
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = [
            graphs::gnm_random(24, 60, 7),
            graphs::gnm_random(20, 50, 3),
            graphs::mycielski(4),
        ];
        let k = rng.random_range(3..5usize);
        let blocks: Vec<Graph> = (0..k)
            .map(|_| pool[rng.random_range(0..pool.len())].clone())
            .collect();
        let g = chain(&blocks, &mut rng);
        all_exact += check(&format!("chain seed {seed}"), &g).1;
    }
    assert!(
        all_exact >= 4,
        "only {all_exact} stitched runs with every block exact"
    );
}

/// The queen-pair witness finishes without expanding a node once both
/// atoms are exact, so only budgets that leave an atom inexact stitch here.
#[test]
fn stitched_clique_atoms_keep_the_block_maximum() {
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    let (stitched, _) = check("queen-pair", &queen_pair());
    assert!(stitched >= 1, "queen-pair never took the stitched path");
}
