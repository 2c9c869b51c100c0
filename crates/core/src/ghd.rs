//! Generalized hypertree decompositions (Definition 13) and completion
//! (Definition 14 / Lemma 2).

use crate::setcover::{cover, exact_cover, CoverMethod};
use crate::tree_decomposition::{DecompositionError, TreeDecomposition};
use ghd_hypergraph::{BitSet, Hypergraph};

/// A generalized hypertree decomposition `⟨T, χ, λ⟩`: a tree decomposition
/// plus, per node, a set of hyperedges whose variables cover the node's bag.
#[derive(Clone, Debug)]
pub struct GeneralizedHypertreeDecomposition {
    td: TreeDecomposition,
    /// `lambda[p]` = hyperedge indices associated with node `p`.
    lambda: Vec<Vec<usize>>,
}

impl GeneralizedHypertreeDecomposition {
    /// Wraps a tree decomposition and λ-labels.
    ///
    /// # Panics
    /// Panics if `lambda` does not have one entry per tree node.
    pub fn new(td: TreeDecomposition, lambda: Vec<Vec<usize>>) -> Self {
        assert_eq!(td.num_nodes(), lambda.len(), "one λ-set per node");
        GeneralizedHypertreeDecomposition { td, lambda }
    }

    /// Builds a GHD from a tree decomposition by covering every bag with
    /// hyperedges of `h` (§2.5.2, McMahan's construction).
    pub fn from_tree_decomposition(
        td: TreeDecomposition,
        h: &Hypergraph,
        method: CoverMethod,
    ) -> Self {
        let lambda = td
            .nodes()
            .map(|p| cover(td.bag(p), h, method))
            .collect();
        GeneralizedHypertreeDecomposition { td, lambda }
    }

    /// Builds a GHD from a tree decomposition with an exact cover only for
    /// the bags that can set the width; every other bag borrows the λ of a
    /// tree neighbour whose bag contains it. A bag contained in its
    /// parent's bag takes the parent's λ; failing that, a bag strictly
    /// contained in a child's bag takes that child's λ. Along a chain of
    /// borrows the bags grow under ⊆, strictly on every step down, so a
    /// chain cannot return to its start (that would take parent steps
    /// only) and ends at a bag with its own exact cover. Each borrowed λ
    /// covers a superset of its bag, so Definition 13 holds exactly when it
    /// holds with every bag covered, and exact cover size is monotone under
    /// ⊆, so the width equals that of
    /// `from_tree_decomposition(td, h, CoverMethod::Exact)`.
    pub fn certificate(td: TreeDecomposition, h: &Hypergraph) -> Self {
        let source: Vec<Option<usize>> = td
            .nodes()
            .map(|p| {
                let bag = td.bag(p);
                td.parent(p)
                    .filter(|&q| bag.is_subset(td.bag(q)))
                    .or_else(|| {
                        td.children(p)
                            .iter()
                            .copied()
                            .find(|&c| bag.is_subset(td.bag(c)) && bag.len() < td.bag(c).len())
                    })
            })
            .collect();
        let mut lambda: Vec<Option<Vec<usize>>> = vec![None; td.num_nodes()];
        let mut chain = Vec::new();
        for p in td.nodes() {
            let mut q = p;
            while lambda[q].is_none() {
                match source[q] {
                    Some(s) => {
                        debug_assert!(
                            td.bag(q).is_subset(td.bag(s)),
                            "bag {q} borrows λ from bag {s}, which does not contain it"
                        );
                        chain.push(q);
                        // cannot fire (see above); stops a bad borrow rule
                        // with a panic instead of an endless walk
                        assert!(
                            chain.len() < td.num_nodes(),
                            "λ borrow cycle through bag {q}"
                        );
                        q = s;
                    }
                    None => lambda[q] = Some(exact_cover(td.bag(q), h)),
                }
            }
            for r in chain.drain(..) {
                lambda[r] = lambda[q].clone();
            }
        }
        let lambda = lambda
            .into_iter()
            .map(|l| l.expect("every borrow chain ends at a covered bag"))
            .collect();
        GeneralizedHypertreeDecomposition { td, lambda }
    }

    /// The underlying tree decomposition.
    #[inline]
    pub fn tree(&self) -> &TreeDecomposition {
        &self.td
    }

    /// The λ-set of a node.
    #[inline]
    pub fn lambda(&self, node: usize) -> &[usize] {
        &self.lambda[node]
    }

    /// The width: `max |λ(p)|` (Definition 13).
    pub fn width(&self) -> usize {
        self.lambda.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Validates the three conditions of Definition 13 against `h`.
    pub fn verify(&self, h: &Hypergraph) -> Result<(), DecompositionError> {
        self.td.verify(h)?;
        let mut covered = BitSet::new(h.num_vertices());
        for p in self.td.nodes() {
            covered.clear();
            for &e in &self.lambda[p] {
                covered.union_with(h.edge(e));
            }
            if !self.td.bag(p).is_subset(&covered) {
                return Err(DecompositionError::ChiNotCovered { node: p });
            }
        }
        Ok(())
    }

    /// `true` iff this is a *complete* GHD (Definition 14): every hyperedge
    /// `h` has a node `p` with `h ⊆ χ(p)` **and** `h ∈ λ(p)`.
    pub fn is_complete(&self, h: &Hypergraph) -> bool {
        (0..h.num_edges()).all(|e| {
            self.td.nodes().any(|p| {
                h.edge(e).is_subset(self.td.bag(p)) && self.lambda[p].contains(&e)
            })
        })
    }

    /// Transforms into a complete GHD of the same width (Lemma 2): for every
    /// hyperedge lacking a witnessing node, a fresh child `⟨χ=h, λ={h}⟩` is
    /// attached below a node whose bag contains `h`.
    pub fn complete(mut self, h: &Hypergraph) -> Self {
        for e in 0..h.num_edges() {
            let witnessed = self.td.nodes().any(|p| {
                h.edge(e).is_subset(self.td.bag(p)) && self.lambda[p].contains(&e)
            });
            if witnessed {
                continue;
            }
            let host = self
                .td
                .nodes()
                .find(|&p| h.edge(e).is_subset(self.td.bag(p)))
                .expect("valid GHD covers every hyperedge (condition 1)");
            let child = self.td.add_child(host, h.edge(e).clone());
            debug_assert_eq!(child, self.lambda.len());
            self.lambda.push(vec![e]);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 5 with the width-2 GHD of Fig. 2.7: root χ={x1,x3,x5},
    /// λ={C1,C3}; children are the three constraints themselves.
    fn example5() -> (Hypergraph, GeneralizedHypertreeDecomposition) {
        let h = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let mut td = TreeDecomposition::new(6);
        let root = td.add_root(BitSet::from_iter(6, [0, 2, 4]));
        td.add_child(root, BitSet::from_iter(6, [0, 1, 2]));
        td.add_child(root, BitSet::from_iter(6, [0, 4, 5]));
        td.add_child(root, BitSet::from_iter(6, [2, 3, 4]));
        let ghd = GeneralizedHypertreeDecomposition::new(
            td,
            vec![vec![0, 2], vec![0], vec![1], vec![2]],
        );
        (h, ghd)
    }

    #[test]
    fn fig_2_7_is_valid_width_2_and_complete() {
        let (h, ghd) = example5();
        ghd.verify(&h).unwrap();
        assert_eq!(ghd.width(), 2);
        assert!(ghd.is_complete(&h));
    }

    #[test]
    fn detects_chi_not_covered() {
        let (h, ghd) = example5();
        let td = ghd.tree().clone();
        let bad = GeneralizedHypertreeDecomposition::new(
            td,
            vec![vec![0], vec![0], vec![1], vec![2]], // root loses C3 → x5 uncovered
        );
        assert_eq!(
            bad.verify(&h),
            Err(DecompositionError::ChiNotCovered { node: 0 })
        );
    }

    #[test]
    fn completion_adds_witness_nodes_without_width_growth() {
        let h = Hypergraph::from_edges(4, [vec![0, 1], vec![1, 2], vec![2, 3]]);
        // one fat bag covering everything, λ exactly covers it
        let td = TreeDecomposition::single_bag(4, BitSet::full(4));
        let ghd = GeneralizedHypertreeDecomposition::new(td, vec![vec![0, 2]]);
        ghd.verify(&h).unwrap();
        assert!(!ghd.is_complete(&h)); // edge 1 is not in any λ-set
        let complete = ghd.complete(&h);
        complete.verify(&h).unwrap();
        assert!(complete.is_complete(&h));
        assert_eq!(complete.width(), 2);
        assert_eq!(complete.tree().num_nodes(), 2); // one witness for edge 1
    }

    #[test]
    fn from_td_with_exact_cover_matches_fig_2_7_width() {
        let (h, reference) = example5();
        let ghd = GeneralizedHypertreeDecomposition::from_tree_decomposition(
            reference.tree().clone(),
            &h,
            CoverMethod::Exact,
        );
        ghd.verify(&h).unwrap();
        assert_eq!(ghd.width(), 2);
    }
}
