//! Algorithm GA-ghw (§7.1): a genetic algorithm computing generalized
//! hypertree width upper bounds, evaluating individuals with the greedy-
//! set-cover elimination evaluator of Fig 7.1 (random tie-breaking, Fig 7.2).

use crate::engine::{run_ga, GaConfig, GaResult};
use ghd_core::eval::GhwEvaluator;
use ghd_core::EliminationOrdering;
use ghd_hypergraph::{Graph, Hypergraph};
use ghd_prng::rngs::StdRng;

/// Runs GA-ghw on a hypergraph, returning the best width found (a
/// generalized hypertree width upper bound) and the realising ordering.
pub fn ga_ghw(h: &Hypergraph, cfg: &GaConfig) -> GaResult {
    run(h, &h.primal_graph(), cfg)
}

/// [`ga_ghw`] on `h` with its primal graph already built.
fn run(h: &Hypergraph, primal: &Graph, cfg: &GaConfig) -> GaResult {
    let mut eval = GhwEvaluator::with_primal(h, primal);
    // a separate stream for the greedy cover's random tie-breaks, so the
    // engine's own randomness stays comparable across evaluators
    let mut cover_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    run_ga(h.num_vertices(), cfg, move |genes| {
        let sigma = EliminationOrdering::new(genes.to_vec()).expect("GA maintains permutations");
        eval.width(&sigma, Some(&mut cover_rng))
    })
}

/// GA-ghw with the min-fill/min-degree/MCS orderings seeded into the
/// initial population — an opt-in memetic extension (the thesis initialises
/// at random). Guarantees the result is no worse than the best seeded
/// heuristic ordering.
pub fn ga_ghw_seeded(h: &Hypergraph, cfg: &GaConfig) -> GaResult {
    let primal = h.primal_graph();
    let mut cfg = cfg.clone();
    cfg.initial_seeds.extend([
        ghd_bounds::upper::min_fill_ordering::<StdRng>(&primal, None).into_vec(),
        ghd_bounds::upper::min_degree_ordering::<StdRng>(&primal, None).into_vec(),
        ghd_bounds::upper::mcs_ordering::<StdRng>(&primal, None).into_vec(),
    ]);
    run(h, &primal, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_core::bucket::ghd_from_ordering;
    use ghd_core::setcover::CoverMethod;
    use ghd_hypergraph::generators::hypergraphs;

    #[test]
    fn finds_ghw_of_easy_hypergraphs() {
        let cfg = GaConfig::small(5);
        assert_eq!(ga_ghw(&hypergraphs::acyclic_chain(5, 3, 1), &cfg).best_width, 1);
        assert_eq!(ga_ghw(&hypergraphs::clique(8), &cfg).best_width, 4);
    }

    #[test]
    fn adder_upper_bound_is_small() {
        let r = ga_ghw(&hypergraphs::adder(8), &GaConfig::small(6));
        assert!(r.best_width <= 3, "got {}", r.best_width);
    }

    #[test]
    fn witness_ordering_is_consistent() {
        let h = hypergraphs::random_hypergraph(15, 10, 4, 7);
        let r = ga_ghw(&h, &GaConfig::small(8));
        let sigma = EliminationOrdering::new(r.best_ordering).unwrap();
        // with *exact* covers the realised width can only be ≤ the greedy
        // fitness the GA measured
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        ghd.verify(&h).unwrap();
        assert!(ghd.width() <= r.best_width);
    }

    #[test]
    fn seeded_variant_never_worse_than_min_fill_pipeline() {
        let h = hypergraphs::grid2d(12);
        let (mf, _) = ghd_bounds::upper::ghw_upper_bound::<ghd_prng::rngs::StdRng>(&h, None);
        let r = ga_ghw_seeded(&h, &GaConfig { population: 40, generations: 15, seed: 1, ..GaConfig::default() });
        assert!(r.best_width <= mf, "seeded GA {} > min-fill {}", r.best_width, mf);
    }

    #[test]
    fn never_below_the_exact_optimum() {
        for seed in 0..4u64 {
            let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
            let exact = ghd_search::bb_ghw(&h, &ghd_search::BbGhwConfig::default());
            assert!(exact.exact);
            let r = ga_ghw(&h, &GaConfig::small(seed));
            assert!(r.best_width >= exact.upper_bound, "seed {seed}");
        }
    }
}
