//! Standalone preprocessing with the reduction rules of §4.4.3 (after
//! Bodlaender et al. \[8\]): repeatedly eliminate simplicial and strongly
//! almost simplicial vertices *before* any search. For such a vertex `v`,
//! `tw(G) = max(deg(v), tw(G'))` where `G'` is the graph after eliminating
//! `v`, so the search only ever sees the irreducible core.

use crate::rules::find_reduction_tw;
use ghd_bounds::lower::tw_lower_bound;
use ghd_hypergraph::{EliminationGraph, Graph};

/// The result of reduction preprocessing.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// The irreducible core, reindexed to dense vertices `0..k`.
    pub core: Graph,
    /// `original_of_core[i]` = the original vertex index of core vertex `i`.
    pub original_of_core: Vec<usize>,
    /// Width contributed by the eliminated vertices: the treewidth of the
    /// original graph is `max(base_width, tw(core))`.
    pub base_width: usize,
    /// The eliminated vertices in elimination order (original indices).
    /// Appending them *behind* any elimination ordering of the core (in
    /// reverse) yields an ordering of the original graph: they are
    /// eliminated first.
    pub eliminated: Vec<usize>,
    /// Reduction rounds: loop iterations that eliminated at least one
    /// vertex (the final bulk flush counts as one round). Zero when the
    /// input was already irreducible.
    pub rounds: usize,
}

/// Exhaustively applies the simplicial / strongly-almost-simplicial
/// reductions (§4.4.3). The almost-simplicial degree threshold is the
/// combined treewidth lower bound of the original graph, as in BB-tw \[5\].
pub fn preprocess_tw(g: &Graph) -> Preprocessed {
    let lb = tw_lower_bound::<ghd_prng::rngs::StdRng>(g, None);
    let mut eg = EliminationGraph::new(g);
    let mut eliminated = Vec::new();
    let mut base_width = 0;
    let mut rounds = 0;
    while eg.num_alive() > 0 {
        // once few vertices remain, finishing here is exact
        if eg.num_alive() <= base_width.max(lb) + 1 {
            let rest = eg.alive().to_vec();
            for v in rest {
                base_width = base_width.max(eg.eliminate(v));
                eliminated.push(v);
            }
            rounds += 1;
            break;
        }
        match find_reduction_tw(&eg, lb.max(base_width)) {
            Some(v) => {
                base_width = base_width.max(eg.eliminate(v));
                eliminated.push(v);
                rounds += 1;
            }
            None => break,
        }
    }
    // compact the residual graph
    let original_of_core = eg.alive().to_vec();
    let mut new_of_old = vec![usize::MAX; g.num_vertices()];
    for (i, &v) in original_of_core.iter().enumerate() {
        new_of_old[v] = i;
    }
    let mut core = Graph::new(original_of_core.len());
    for &v in &original_of_core {
        for u in eg.neighbors(v).iter() {
            if u > v {
                core.add_edge(new_of_old[v], new_of_old[u]);
            }
        }
    }
    Preprocessed {
        core,
        original_of_core,
        base_width,
        eliminated,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_core::eval::TwEvaluator;
    use ghd_core::EliminationOrdering;
    use ghd_hypergraph::generators::graphs;

    #[test]
    fn trees_reduce_completely() {
        let g = graphs::path(20);
        let pre = preprocess_tw(&g);
        assert_eq!(pre.core.num_vertices(), 0);
        assert_eq!(pre.base_width, 1);
        // the reductions' elimination sequence (eliminated first ⇒ back of
        // σ) must actually realise the width
        let order: Vec<usize> = pre.eliminated.iter().rev().copied().collect();
        let sigma = EliminationOrdering::new(order).unwrap();
        assert_eq!(TwEvaluator::new(&g).width(&sigma), 1);
    }

    #[test]
    fn chordal_graphs_reduce_completely() {
        // complete graphs are chordal: everything is simplicial
        let g = graphs::complete(8);
        let pre = preprocess_tw(&g);
        assert_eq!(pre.core.num_vertices(), 0);
        assert_eq!(pre.base_width, 7);
    }

    #[test]
    fn preprocessing_only_shrinks() {
        let g = graphs::queen(5);
        let pre = preprocess_tw(&g);
        assert!(pre.core.num_vertices() <= g.num_vertices());
        assert_eq!(
            pre.core.num_vertices() + pre.eliminated.len(),
            g.num_vertices()
        );
    }
}
