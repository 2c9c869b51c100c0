//! Micro-benchmarks over the workspace's hot operations: the
//! eliminate/restore machinery (§5.2.1), ordering evaluation (Figs 6.2 and
//! 7.1), set covering (plain and memoized), the lower-bound heuristics and
//! the GA operators; the root bounds also on ~1000-vertex circuit primal
//! graphs, and the per-node lower bound on elimination residuals.
//!
//! Driven by the dependency-free median-of-N harness in
//! `ghd_bench::timer` (the offline build has no criterion). Pass a
//! substring to filter: `cargo bench --bench micro -- set_cover`.

use ghd_bench::timer::Harness;
use ghd_bounds::lower::{
    degeneracy, minor_gamma_r, minor_min_width, tw_lower_bound_elim, LbScratch,
};
use ghd_bounds::upper::min_fill_ordering;
use ghd_bounds::{ghw_lower_bound, ghw_upper_bound};
use ghd_core::bucket::{
    bucket_elimination, certificate_from_ordering, ghd_from_ordering, vertex_elimination,
};
use ghd_core::eval::{GhwEvaluator, TwEvaluator};
use ghd_core::setcover::{exact_cover, greedy_cover, CoverCache};
use ghd_core::{CoverMethod, EliminationOrdering};
use ghd_ga::{CrossoverOp, MutationOp};
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{BitSet, EliminationGraph, Hypergraph};
use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;
use std::hint::black_box;

fn bench_eliminate_restore(h: &mut Harness) {
    let g = graphs::queen(8);
    let mut eg = EliminationGraph::new(&g);
    h.bench("eliminate_restore/queen8_8", || {
        for v in 0..16 {
            eg.eliminate(black_box(v));
        }
        for _ in 0..16 {
            eg.restore();
        }
    });
}

fn bench_bucket_vs_vertex_elimination(hn: &mut Harness) {
    let h = hypergraphs::grid2d(14);
    let g = h.primal_graph();
    let sigma = EliminationOrdering::identity(h.num_vertices());
    hn.bench("bucket_elimination/grid2d_14", || {
        black_box(bucket_elimination(black_box(&h), &sigma));
    });
    hn.bench("vertex_elimination/grid2d_14", || {
        black_box(vertex_elimination(black_box(&g), &sigma));
    });
}

fn bench_evaluators(hn: &mut Harness) {
    let g = graphs::queen(8);
    let mut tw_eval = TwEvaluator::new(&g);
    let mut rng = StdRng::seed_from_u64(1);
    let sigma = EliminationOrdering::random(64, &mut rng);
    hn.bench("tw_eval/queen8_8 (Fig 6.2)", || {
        black_box(tw_eval.width(black_box(&sigma)));
    });

    let h = hypergraphs::grid2d(12);
    let mut ghw_eval = GhwEvaluator::new(&h);
    let sigma_h = EliminationOrdering::random(h.num_vertices(), &mut rng);
    hn.bench("ghw_eval/grid2d_12 (Fig 7.1)", || {
        black_box(ghw_eval.width::<StdRng>(black_box(&sigma_h), None));
    });
}

fn bench_set_cover(hn: &mut Harness) {
    let h = hypergraphs::random_hypergraph(60, 40, 5, 3);
    let target = BitSet::from_iter(60, (0..30).map(|i| i * 2));
    hn.bench("set_cover/greedy (Fig 7.2)", || {
        black_box(greedy_cover::<StdRng>(black_box(&target), &h, None));
    });
    hn.bench("set_cover/exact (BnB, IP-solver substitute)", || {
        black_box(exact_cover(black_box(&target), &h));
    });
    let cache = CoverCache::new(1);
    hn.bench("set_cover/exact_cached (warm transposition hit)", || {
        black_box(cache.exact_cover_size_capped(black_box(&target), &h, usize::MAX));
    });
}

fn bench_lower_bounds(hn: &mut Harness) {
    let g = graphs::queen(8);
    hn.bench("lb/degeneracy/queen8_8", || {
        black_box(degeneracy(black_box(&g)));
    });
    hn.bench("lb/minor_min_width/queen8_8 (Fig 4.7)", || {
        black_box(minor_min_width::<StdRng>(black_box(&g), None));
    });
    hn.bench("lb/minor_gamma_r/queen8_8 (Fig 4.8)", || {
        black_box(minor_gamma_r::<StdRng>(black_box(&g), None));
    });
}

fn bench_upper_bounds(hn: &mut Harness) {
    let g = graphs::queen(8);
    hn.bench("ub/min_fill/queen8_8", || {
        black_box(min_fill_ordering::<StdRng>(black_box(&g), None));
    });
}

/// The root bounds on the primal graphs of `adder 200` (1001 vertices) and
/// `bridge 100` (902 vertices): sparse instances of about a thousand
/// vertices, the size at which the exact searches' root passes set the
/// cost of a whole solve.
fn bench_root_bounds_at_scale(hn: &mut Harness) {
    for (name, h) in [
        ("adder_200", hypergraphs::adder(200)),
        ("bridge_100", hypergraphs::bridge(100)),
    ] {
        let g = h.primal_graph();
        hn.bench(&format!("lb/minor_min_width/{name}"), || {
            black_box(minor_min_width::<StdRng>(black_box(&g), None));
        });
        hn.bench(&format!("lb/minor_gamma_r/{name}"), || {
            black_box(minor_gamma_r::<StdRng>(black_box(&g), None));
        });
        hn.bench(&format!("lb/degeneracy/{name}"), || {
            black_box(degeneracy(black_box(&g)));
        });
        hn.bench(&format!("ub/min_fill/{name}"), || {
            black_box(min_fill_ordering::<StdRng>(black_box(&g), None));
        });
        hn.bench(&format!("lb/ghw_lower_bound/{name}"), || {
            black_box(ghw_lower_bound::<StdRng>(black_box(&h), None));
        });
        hn.bench(&format!("ub/ghw_upper_bound/{name}"), || {
            black_box(ghw_upper_bound::<StdRng>(black_box(&h), None));
        });
    }
}

/// The root upper bound where it costs most against the search: min-fill
/// on the `adder 150` primal graph, the greedy covers of `clique 40` and
/// `clique 50` (bags meeting hundreds of edges), and min-fill on a chain
/// of the four `serve-blocks` blocks (queen 5, gnm 24 60 7, gnm 20 50 3,
/// Mycielski 4) glued at seeded cut vertices, 89 vertices.
fn bench_root_upper_bound(hn: &mut Harness) {
    let g = hypergraphs::adder(150).primal_graph();
    hn.bench("ub/min_fill/adder_150", || {
        black_box(min_fill_ordering::<StdRng>(black_box(&g), None));
    });
    for (name, h) in [
        ("clique_40", hypergraphs::clique(40)),
        ("clique_50", hypergraphs::clique(50)),
    ] {
        hn.bench(&format!("ub/ghw_upper_bound/{name}"), || {
            black_box(ghw_upper_bound::<StdRng>(black_box(&h), None));
        });
    }
    let blocks = [
        graphs::queen(5),
        graphs::gnm_random(24, 60, 7),
        graphs::gnm_random(20, 50, 3),
        graphs::mycielski(4),
    ];
    let g = glue_chain(&blocks, 4);
    hn.bench("ub/min_fill/chain_4_serve_blocks", || {
        black_box(min_fill_ordering::<StdRng>(black_box(&g), None));
    });
}

/// Glues `blocks` into a chain: block `b + 1` shares its vertex 0 with a
/// seeded vertex of block `b`, the rest of its vertices are new.
fn glue_chain(blocks: &[ghd_hypergraph::Graph], seed: u64) -> ghd_hypergraph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = blocks.iter().map(|q| q.num_vertices() - 1).sum::<usize>() + 1;
    let mut g = ghd_hypergraph::Graph::new(n);
    let mut prev: Vec<usize> = Vec::new();
    let mut next = 0;
    for q in blocks {
        let k = q.num_vertices();
        let ids: Vec<usize> = (0..k)
            .map(|i| {
                if i == 0 && !prev.is_empty() {
                    prev[rng.random_range(0..prev.len())]
                } else {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        for (u, v) in q.edges() {
            g.add_edge(ids[u], ids[v]);
        }
        prev = ids;
    }
    g
}

/// The exact searches' per-node lower bound: `tw_lower_bound_elim` over
/// 200 seeded residuals (a third of the vertices eliminated at random),
/// all through one reused scratch, as A\* and BB call it. One iteration
/// is the whole batch of 200 calls.
fn bench_node_lower_bound(hn: &mut Harness) {
    for (name, g) in [
        ("queen_5", graphs::queen(5)),
        ("gnm_40_200", graphs::gnm_random(40, 200, 1)),
    ] {
        let n = g.num_vertices();
        let mut pick = StdRng::seed_from_u64(9);
        let residuals: Vec<EliminationGraph> = (0..200)
            .map(|_| {
                let mut eg = EliminationGraph::new(&g);
                for _ in 0..n / 3 {
                    let alive: Vec<usize> = eg.alive().iter().collect();
                    eg.eliminate(alive[pick.random_range(0..alive.len())]);
                }
                eg
            })
            .collect();
        let mut scratch = LbScratch::new();
        let label = format!("lb/tw_lower_bound_elim/{name} (200 residuals)");
        hn.bench(&label, || {
            for eg in &residuals {
                black_box(tw_lower_bound_elim::<StdRng>(eg, None, &mut scratch));
            }
        });
    }
}

/// Certification of a ghw answer (§2.5.2 / Theorem 3): the GHD an ordering
/// induces with an exact cover of every bag (what `--show` prints), the
/// certificate that covers only the bags that can set the width, and the
/// Definition 13 check, on `clique 40`/`clique 50` (one bag meeting every
/// edge holds all the others) and `adder 200`; the min-fill ordering
/// stands in for the certified one.
fn bench_certification(hn: &mut Harness) {
    for (name, h) in [
        ("clique_40", hypergraphs::clique(40)),
        ("clique_50", hypergraphs::clique(50)),
        ("adder_200", hypergraphs::adder(200)),
    ] {
        let (_, sigma) = ghw_upper_bound::<StdRng>(&h, None);
        hn.bench(&format!("certify/ghd_from_ordering_exact/{name}"), || {
            black_box(ghd_from_ordering(black_box(&h), &sigma, CoverMethod::Exact));
        });
        hn.bench(&format!("certify/certificate_from_ordering/{name}"), || {
            black_box(certificate_from_ordering(black_box(&h), &sigma));
        });
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        hn.bench(&format!("certify/ghd_verify/{name}"), || {
            black_box(black_box(&ghd).verify(&h)).expect("valid GHD");
        });
    }
}

/// Whole A\* searches, so the figure is the per-node cost times the
/// expansions: A\*-tw on queen(5) (1166 expansions) and A\*-ghw on
/// grid2d-h 6 (907 expansions, exact covers through the cover cache).
fn bench_astar(hn: &mut Harness) {
    let limits = ghd_search::SearchLimits::unlimited;
    let g = graphs::queen(5);
    hn.bench("astar/tw/queen5", || {
        black_box(ghd_search::astar_tw(black_box(&g), limits()));
    });
    let h = hypergraphs::grid2d(6);
    hn.bench("astar/ghw/grid2d_h6", || {
        black_box(ghd_search::astar_ghw(black_box(&h), limits()));
    });
}

/// The split search on 24 queen(4) blocks glued into a chain at seeded cut
/// vertices: one distinct block, so one block search plus the witness.
fn bench_split(hn: &mut Harness) {
    let g = glue_chain(&vec![graphs::queen(4); 24], 24);
    let cfg = ghd_search::BbConfig::default();
    hn.bench("split_tw/chain_24_queen_4", || {
        black_box(ghd_search::split_tw(black_box(&g), &cfg, 1, None));
    });
}

fn bench_ga_operators(hn: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(5);
    let p1: Vec<usize> = (0..200).collect();
    let p2: Vec<usize> = (0..200).rev().collect();
    for op in CrossoverOp::ALL {
        hn.bench(&format!("crossover_n200/{}", op.name()), || {
            black_box(op.apply(black_box(&p1), black_box(&p2), &mut rng));
        });
    }
    for op in MutationOp::ALL {
        // clone cost is part of the loop body (mutation is in-place)
        hn.bench(&format!("mutation_n200/{} (incl. clone)", op.name()), || {
            let mut p = p1.clone();
            op.apply(&mut p, &mut rng);
            black_box(p);
        });
    }
}

fn bench_csp_joins(hn: &mut Harness) {
    use ghd_csp::Relation;
    let tuples_a: Vec<Vec<u32>> = (0..500u32).map(|i| vec![i % 50, i % 7]).collect();
    let tuples_b: Vec<Vec<u32>> = (0..500u32).map(|i| vec![i % 7, i % 11]).collect();
    let a = Relation::new(vec![0, 1], tuples_a);
    let b2 = Relation::new(vec![1, 2], tuples_b);
    hn.bench("csp/natural_join_500x500", || {
        black_box(black_box(&a).join(black_box(&b2)));
    });
    // clone cost is part of the loop body (semijoin is in-place)
    hn.bench("csp/semijoin_500x500 (incl. clone)", || {
        let mut x = a.clone();
        x.semijoin(black_box(&b2));
        black_box(x);
    });
}

fn bench_preprocess_and_adaptive(hn: &mut Harness) {
    let g = graphs::queen(6);
    hn.bench("preprocess_tw/queen6_6", || {
        black_box(ghd_search::preprocess_tw(black_box(&g)));
    });
    let csp = ghd_csp::examples::australia();
    let sigma = EliminationOrdering::identity(csp.num_variables());
    hn.bench("csp/adaptive_consistency/australia", || {
        black_box(ghd_csp::adaptive_consistency(black_box(&csp), &sigma));
    });
    let h = csp.constraint_hypergraph();
    let ghd = ghd_core::bucket::ghd_from_ordering(&h, &sigma, ghd_core::CoverMethod::Exact);
    hn.bench("csp/count_solutions/australia", || {
        black_box(ghd_csp::count_solutions_with_ghd(black_box(&csp), &ghd).unwrap());
    });
}

fn bench_primal_and_lnf(hn: &mut Harness) {
    let h: Hypergraph = hypergraphs::grid2d(14);
    hn.bench("hypergraph/primal_graph/grid2d_14", || {
        black_box(black_box(&h).primal_graph());
    });
    let sigma = EliminationOrdering::identity(h.num_vertices());
    let td = vertex_elimination(&h.primal_graph(), &sigma);
    hn.bench("lnf/transform/grid2d_14 (Fig 3.1)", || {
        black_box(ghd_core::lnf::leaf_normal_form(black_box(&h), &td));
    });
}

fn main() {
    let mut hn = Harness::from_env();
    bench_eliminate_restore(&mut hn);
    bench_bucket_vs_vertex_elimination(&mut hn);
    bench_evaluators(&mut hn);
    bench_set_cover(&mut hn);
    bench_lower_bounds(&mut hn);
    bench_upper_bounds(&mut hn);
    bench_root_bounds_at_scale(&mut hn);
    bench_root_upper_bound(&mut hn);
    bench_node_lower_bound(&mut hn);
    bench_certification(&mut hn);
    bench_astar(&mut hn);
    bench_split(&mut hn);
    bench_ga_operators(&mut hn);
    bench_csp_joins(&mut hn);
    bench_preprocess_and_adaptive(&mut hn);
    bench_primal_and_lnf(&mut hn);
    hn.finish();
}
