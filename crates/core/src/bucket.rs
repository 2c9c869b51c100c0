//! Bucket elimination (Fig 2.10) and vertex elimination (Fig 2.12): building
//! tree decompositions — and, with set covering, generalized hypertree
//! decompositions (§2.5.2) — from elimination orderings.

use crate::ghd::GeneralizedHypertreeDecomposition;
use crate::ordering::EliminationOrdering;
use crate::setcover::CoverMethod;
use crate::tree_decomposition::TreeDecomposition;
use ghd_hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};

/// Connects any secondary roots (arising from disconnected instances)
/// beneath the primary root so that the result is a single tree; bags of
/// different components are disjoint, so connectedness is preserved.
fn unify_roots(td: &mut TreeDecomposition) {
    let roots: Vec<usize> = td.nodes().filter(|&p| td.parent(p).is_none()).collect();
    if let Some((&first, rest)) = roots.split_first() {
        for &r in rest {
            td.attach(r, first);
        }
    }
}

/// Algorithm *Bucket Elimination* (Fig 2.10): returns the tree decomposition
/// of `h` induced by `σ`. Node `i` of the result is the bucket of vertex
/// `σ.at(i)`; the bucket of `σ.at(0)` is the root.
///
/// # Panics
/// Panics if `σ.len() != h.num_vertices()`.
pub fn bucket_elimination(h: &Hypergraph, sigma: &EliminationOrdering) -> TreeDecomposition {
    let n = h.num_vertices();
    assert_eq!(sigma.len(), n, "ordering/hypergraph size mismatch");
    // χ(B_{v}) indexed by *position* of v.
    let mut chi: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    // Step 2: each hyperedge goes into the bucket of its maximum vertex.
    for edge in h.edges() {
        let max_pos = edge
            .iter()
            .map(|v| sigma.position(v))
            .max()
            .expect("hyperedges are nonempty");
        chi[max_pos].union_with(edge);
    }
    // Step 3: process buckets back to front.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for i in (0..n).rev() {
        let v = sigma.at(i);
        chi[i].insert(v); // buckets of isolated vertices still get {v}
        let mut a = chi[i].clone();
        a.remove(v);
        if let Some(j) = a.iter().map(|x| sigma.position(x)).max() {
            // every other vertex in the bucket precedes v in σ
            debug_assert!(j < i);
            chi[j].union_with(&a);
            parent[i] = Some(j);
        }
    }
    let mut td = TreeDecomposition::new(n);
    for bag in chi {
        td.add_root(bag);
    }
    for (i, p) in parent.into_iter().enumerate() {
        if let Some(p) = p {
            td.attach(i, p);
        }
    }
    unify_roots(&mut td);
    td
}

/// Algorithm *Vertex Elimination* (Fig 2.12): the same decomposition as
/// [`bucket_elimination`], constructed on the primal graph by eliminating
/// vertices back-to-front. Node `i` is the bucket of `σ.at(i)`.
pub fn vertex_elimination(g: &Graph, sigma: &EliminationOrdering) -> TreeDecomposition {
    let n = g.num_vertices();
    assert_eq!(sigma.len(), n, "ordering/graph size mismatch");
    let mut eg = EliminationGraph::new(g);
    let mut bags: Vec<BitSet> = Vec::with_capacity(n);
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for i in (0..n).rev() {
        let v = sigma.at(i);
        let mut bag = eg.neighbors(v).clone();
        let link = bag.iter().map(|x| sigma.position(x)).max();
        bag.insert(v);
        bags.push(bag);
        parent[i] = link;
        eg.eliminate(v);
    }
    bags.reverse(); // bags were produced back-to-front
    let mut td = TreeDecomposition::new(n);
    for bag in bags {
        td.add_root(bag);
    }
    for (i, p) in parent.into_iter().enumerate() {
        if let Some(p) = p {
            td.attach(i, p);
        }
    }
    unify_roots(&mut td);
    td
}

/// Builds a generalized hypertree decomposition from an elimination ordering
/// (§2.5.2): vertex elimination on the primal graph, then a set cover of
/// every bag. With [`CoverMethod::Exact`] this realises the construction of
/// Theorem 3 — at least one ordering yields a GHD of width `ghw(H)`.
pub fn ghd_from_ordering(
    h: &Hypergraph,
    sigma: &EliminationOrdering,
    method: CoverMethod,
) -> GeneralizedHypertreeDecomposition {
    GeneralizedHypertreeDecomposition::from_tree_decomposition(ordering_tree(h, sigma), h, method)
}

/// The elimination-tree decomposition of `σ` that [`ghd_from_ordering`]
/// covers. Vertices in no hyperedge are unconstrained (isolated in the
/// primal graph); condition 3 could never cover them, so they are dropped
/// from the bags — harmless, since no hyperedge mentions them either.
fn ordering_tree(h: &Hypergraph, sigma: &EliminationOrdering) -> TreeDecomposition {
    let mut td = vertex_elimination(&h.primal_graph(), sigma);
    let covered = h.covered_vertices();
    if covered.len() < h.num_vertices() {
        for p in td.nodes() {
            td.bag_mut(p).intersect_with(&covered);
        }
    }
    td
}

/// The GHD that certifies a ghw claim for `σ`: the tree of
/// [`ghd_from_ordering`], with an exact cover only for the bags that can
/// set the width ([`GeneralizedHypertreeDecomposition::certificate`]). Its
/// width is that of `ghd_from_ordering(h, σ, CoverMethod::Exact)`.
pub fn certificate_from_ordering(
    h: &Hypergraph,
    sigma: &EliminationOrdering,
) -> GeneralizedHypertreeDecomposition {
    GeneralizedHypertreeDecomposition::certificate(ordering_tree(h, sigma), h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_prng::rngs::StdRng;

    /// Fig 2.11's hypergraph: C1={x1,x2,x3}, C2={x1,x5,x6}, C3={x3,x4,x5}.
    fn fig_2_11() -> Hypergraph {
        Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]])
    }

    /// σ = (x6, x5, x4, x3, x2, x1): x1 is eliminated first.
    fn fig_2_11_sigma() -> EliminationOrdering {
        EliminationOrdering::new(vec![5, 4, 3, 2, 1, 0]).unwrap()
    }

    #[test]
    fn bucket_elimination_reproduces_fig_2_11() {
        let h = fig_2_11();
        let sigma = fig_2_11_sigma();
        let td = bucket_elimination(&h, &sigma);
        td.verify(&h).unwrap();
        // Fig 2.11(b): eliminating x1 gives bag {x1,x2,x3,x5,x6}; then
        // {x2,x3,x5,x6} propagates. Width = 4 (bag of 5 vertices).
        assert_eq!(td.width(), 4);
        // bucket of x1 (position 5) holds {x1,x2,x3,x5,x6} = {0,1,2,4,5}
        assert_eq!(td.bag(5).to_vec(), vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn vertex_and_bucket_elimination_agree() {
        let mut rng = StdRng::seed_from_u64(99);
        for seed in 0..20u64 {
            let h = ghd_hypergraph::generators::hypergraphs::random_hypergraph(14, 10, 4, seed);
            let sigma = EliminationOrdering::random(14, &mut rng);
            let a = bucket_elimination(&h, &sigma);
            let b = vertex_elimination(&h.primal_graph(), &sigma);
            assert_eq!(a.num_nodes(), b.num_nodes());
            for p in a.nodes() {
                assert_eq!(a.bag(p), b.bag(p), "bag {p} differs (seed {seed})");
                assert_eq!(a.parent(p), b.parent(p), "parent {p} differs (seed {seed})");
            }
            a.verify(&h).unwrap();
            b.verify(&h).unwrap();
        }
    }

    #[test]
    fn decompositions_from_random_orderings_are_always_valid() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = ghd_hypergraph::generators::graphs::queen(4);
        let h = Hypergraph::from_graph(&g);
        for _ in 0..10 {
            let sigma = EliminationOrdering::random(16, &mut rng);
            let td = vertex_elimination(&g, &sigma);
            td.verify_graph(&g).unwrap();
            td.verify(&h).unwrap();
        }
    }

    #[test]
    fn ghd_from_ordering_is_valid_and_completable() {
        let h = fig_2_11();
        let sigma = fig_2_11_sigma();
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        ghd.verify(&h).unwrap();
        // Fig 2.11(c): the bag {x1,x2,x3,x5,x6} is covered by C1 ∪ C2 → width 2.
        assert_eq!(ghd.width(), 2);
        let complete = ghd.complete(&h);
        complete.verify(&h).unwrap();
        assert!(complete.is_complete(&h));
    }

    #[test]
    fn certificate_covers_fewer_bags_at_the_same_width() {
        // clique(6): every bag of the elimination path is contained in the
        // full bag, so only that one gets its own cover
        let h = ghd_hypergraph::generators::hypergraphs::clique(6);
        let sigma = EliminationOrdering::identity(6);
        let cert = certificate_from_ordering(&h, &sigma);
        cert.verify(&h).unwrap();
        assert_eq!(
            cert.width(),
            ghd_from_ordering(&h, &sigma, CoverMethod::Exact).width()
        );
        let full = (0..6).find(|&p| cert.tree().bag(p).len() == 6).unwrap();
        for p in cert.tree().nodes() {
            assert_eq!(cert.lambda(p), cert.lambda(full), "bag {p}");
        }
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..20u64 {
            let h = ghd_hypergraph::generators::hypergraphs::random_hypergraph(12, 9, 4, seed);
            let sigma = EliminationOrdering::random(12, &mut rng);
            let cert = certificate_from_ordering(&h, &sigma);
            let every = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
            cert.verify(&h).unwrap();
            assert_eq!(cert.width(), every.width(), "seed {seed}");
        }
    }

    #[test]
    fn disconnected_instances_yield_one_tree() {
        let h = Hypergraph::from_edges(4, [vec![0, 1], vec![2, 3]]);
        let sigma = EliminationOrdering::identity(4);
        let td = bucket_elimination(&h, &sigma);
        td.verify(&h).unwrap();
    }

    #[test]
    fn acyclic_chain_has_ghw_1_via_good_ordering() {
        let h = ghd_hypergraph::generators::hypergraphs::acyclic_chain(4, 3, 1);
        // eliminate strictly from one end: identity ordering works for the
        // chain layout (vertices numbered along the chain)
        let n = h.num_vertices();
        let sigma = EliminationOrdering::identity(n);
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        ghd.verify(&h).unwrap();
        assert_eq!(ghd.width(), 1);
    }
}
