//! Tree decompositions of hypergraphs (Definition 11) as rooted labelled
//! trees, with structural validation.

use ghd_hypergraph::{BitSet, Graph, Hypergraph};

/// Why a proposed decomposition is not valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompositionError {
    /// Hyperedge `edge` is not contained in any bag (condition 1).
    EdgeNotCovered { edge: usize },
    /// The nodes containing `vertex` do not induce a connected subtree
    /// (condition 2, the connectedness condition).
    Disconnected { vertex: usize },
    /// The node links do not form a single tree.
    NotATree,
    /// A GHD node's χ-set is not covered by its λ-set (condition 3).
    ChiNotCovered { node: usize },
    /// A bag refers to a vertex outside the hypergraph.
    VertexOutOfRange { node: usize },
    /// The decomposition was built for a different number of vertices than
    /// the (hyper)graph it is validated against.
    SizeMismatch,
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EdgeNotCovered { edge } => write!(f, "hyperedge {edge} not covered by any bag"),
            Self::Disconnected { vertex } => {
                write!(f, "nodes containing vertex {vertex} are not connected")
            }
            Self::NotATree => write!(f, "decomposition nodes do not form a tree"),
            Self::ChiNotCovered { node } => {
                write!(f, "χ({node}) not contained in var(λ({node}))")
            }
            Self::VertexOutOfRange { node } => write!(f, "bag {node} mentions unknown vertex"),
            Self::SizeMismatch => write!(f, "decomposition built for a different vertex count"),
        }
    }
}

impl std::error::Error for DecompositionError {}

/// A rooted tree decomposition `⟨T, χ⟩`.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    bags: Vec<BitSet>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Capacity of every bag (number of hypergraph vertices).
    n_vertices: usize,
}

impl TreeDecomposition {
    /// Creates an empty decomposition over `n_vertices` hypergraph vertices.
    pub fn new(n_vertices: usize) -> Self {
        TreeDecomposition {
            bags: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
            n_vertices,
        }
    }

    /// A single-bag decomposition containing all of `bag`.
    pub fn single_bag(n_vertices: usize, bag: BitSet) -> Self {
        let mut td = Self::new(n_vertices);
        td.add_root(bag);
        td
    }

    /// Number of hypergraph vertices the bags range over.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of tree nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.bags.len()
    }

    /// Adds a root node (a node without parent). The first root is the tree
    /// root; additional parentless nodes make the structure a forest, which
    /// `verify` rejects — callers connect them explicitly.
    pub fn add_root(&mut self, bag: BitSet) -> usize {
        debug_assert_eq!(bag.capacity(), self.n_vertices);
        let id = self.bags.len();
        self.bags.push(bag);
        self.parent.push(None);
        self.children.push(Vec::new());
        id
    }

    /// Adds a node as a child of `parent`.
    pub fn add_child(&mut self, parent: usize, bag: BitSet) -> usize {
        debug_assert_eq!(bag.capacity(), self.n_vertices);
        let id = self.bags.len();
        self.bags.push(bag);
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent].push(id);
        id
    }

    /// Re-attaches existing node `node` (currently a root) under `parent`.
    pub fn attach(&mut self, node: usize, parent: usize) {
        assert!(self.parent[node].is_none(), "node already has a parent");
        self.parent[node] = Some(parent);
        self.children[parent].push(node);
    }

    /// The bag (χ-set) of a node.
    #[inline]
    pub fn bag(&self, node: usize) -> &BitSet {
        &self.bags[node]
    }

    /// Mutable access to a bag — used by normal-form transformations.
    #[inline]
    pub fn bag_mut(&mut self, node: usize) -> &mut BitSet {
        &mut self.bags[node]
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, node: usize) -> Option<usize> {
        self.parent[node]
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// `true` iff `node` has no children (rooted-leaf semantics, as used by
    /// the leaf-normal-form algorithm).
    #[inline]
    pub fn is_leaf(&self, node: usize) -> bool {
        self.children[node].is_empty()
    }

    /// Iterates node ids.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        0..self.bags.len()
    }

    /// The undirected tree edges `(parent, child)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|p| (p, c)))
    }

    /// The width: `max |χ(p)| − 1` (Definition 11). Returns 0 for an empty
    /// decomposition.
    pub fn width(&self) -> usize {
        self.bags.iter().map(BitSet::len).max().unwrap_or(1).saturating_sub(1)
    }

    /// Nodes in depth-first preorder from the root(s).
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.bags.len());
        let mut stack: Vec<usize> = self
            .nodes()
            .rev()
            .filter(|&v| self.parent[v].is_none())
            .collect();
        while let Some(u) = stack.pop() {
            out.push(u);
            for &c in self.children[u].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Checks the tree-shape and the connectedness condition (condition 2),
    /// shared by TD and GHD validation. Returns the nodes containing each
    /// vertex, which the edge-coverage checks look edges up in.
    fn verify_structure(&self) -> Result<VertexNodes, DecompositionError> {
        let n_nodes = self.bags.len();
        if n_nodes == 0 {
            return Err(DecompositionError::NotATree);
        }
        if self.parent.iter().filter(|p| p.is_none()).count() != 1 {
            return Err(DecompositionError::NotATree);
        }
        if self.preorder().len() != n_nodes {
            return Err(DecompositionError::NotATree);
        }
        for (node, bag) in self.bags.iter().enumerate() {
            if bag.capacity() != self.n_vertices {
                return Err(DecompositionError::VertexOutOfRange { node });
            }
        }
        // Connectedness: for vertex Y let k = #nodes containing Y and
        // e = #tree edges whose both endpoints contain Y. The nodes with Y
        // induce a forest with k − e trees; connected ⟺ k − e == 1.
        let index = VertexNodes::new(&self.bags, self.n_vertices);
        let mut edge_count = vec![0usize; self.n_vertices];
        let mut shared = BitSet::new(self.n_vertices);
        for (p, c) in self.edges() {
            shared.copy_from(&self.bags[p]);
            shared.intersect_with(&self.bags[c]);
            for v in shared.iter() {
                edge_count[v] += 1;
            }
        }
        for (v, &shared) in edge_count.iter().enumerate() {
            let k = index.count(v);
            if k > 0 && k - shared != 1 {
                return Err(DecompositionError::Disconnected { vertex: v });
            }
        }
        Ok(index)
    }

    /// Validates this as a tree decomposition of `h` (Definition 11).
    ///
    /// A bag holds an edge only if it holds the edge's rarest vertex, so
    /// each edge is tested against the nodes of that vertex alone: one pass
    /// over the bag/edge incidences instead of `|E|·|T|` subset tests. The
    /// empty edge lies in every bag, and there is at least one.
    pub fn verify(&self, h: &Hypergraph) -> Result<(), DecompositionError> {
        if self.n_vertices != h.num_vertices() {
            return Err(DecompositionError::SizeMismatch);
        }
        let index = self.verify_structure()?;
        for (e, edge) in h.edges().iter().enumerate() {
            let covered = match edge.iter().min_by_key(|&v| index.count(v)) {
                Some(rarest) => index
                    .nodes(rarest)
                    .iter()
                    .any(|&p| edge.is_subset(&self.bags[p])),
                None => true,
            };
            if !covered {
                return Err(DecompositionError::EdgeNotCovered { edge: e });
            }
        }
        Ok(())
    }

    /// Validates this as a tree decomposition of a regular graph (Lemma 1:
    /// equivalent to a decomposition of the graph viewed as hypergraph).
    /// Each edge is looked up among the nodes of its rarer endpoint.
    pub fn verify_graph(&self, g: &Graph) -> Result<(), DecompositionError> {
        if self.n_vertices != g.num_vertices() {
            return Err(DecompositionError::SizeMismatch);
        }
        let index = self.verify_structure()?;
        for (e, (u, v)) in g.edges().enumerate() {
            let (rare, other) = if index.count(u) <= index.count(v) {
                (u, v)
            } else {
                (v, u)
            };
            if !index
                .nodes(rare)
                .iter()
                .any(|&p| self.bags[p].contains(other))
            {
                return Err(DecompositionError::EdgeNotCovered { edge: e });
            }
        }
        Ok(())
    }
}

/// The nodes containing each vertex, in node order, as one flat array
/// (`nodes[start[v]..start[v + 1]]` for vertex `v`).
struct VertexNodes {
    start: Vec<usize>,
    nodes: Vec<usize>,
}

impl VertexNodes {
    fn new(bags: &[BitSet], n_vertices: usize) -> Self {
        let mut start = vec![0usize; n_vertices + 1];
        for bag in bags {
            for v in bag.iter() {
                start[v + 1] += 1;
            }
        }
        for v in 0..n_vertices {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut nodes = vec![0usize; start[n_vertices]];
        for (p, bag) in bags.iter().enumerate() {
            for v in bag.iter() {
                nodes[fill[v]] = p;
                fill[v] += 1;
            }
        }
        VertexNodes { start, nodes }
    }

    #[inline]
    fn count(&self, v: usize) -> usize {
        self.start[v + 1] - self.start[v]
    }

    #[inline]
    fn nodes(&self, v: usize) -> &[usize] {
        &self.nodes[self.start[v]..self.start[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The width-2 tree decomposition of Example 5 / Fig. 2.6(b):
    /// bags {x1,x3,x5}, {x1,x2,x3}, {x1,x5,x6}, {x3,x4,x5} (0-indexed).
    fn example5_td() -> (Hypergraph, TreeDecomposition) {
        let h = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        let mut td = TreeDecomposition::new(6);
        let root = td.add_root(BitSet::from_iter(6, [0, 2, 4]));
        td.add_child(root, BitSet::from_iter(6, [0, 1, 2]));
        td.add_child(root, BitSet::from_iter(6, [0, 4, 5]));
        td.add_child(root, BitSet::from_iter(6, [2, 3, 4]));
        (h, td)
    }

    #[test]
    fn example5_is_valid_width_2() {
        let (h, td) = example5_td();
        assert_eq!(td.width(), 2);
        td.verify(&h).unwrap();
        td.verify_graph(&h.primal_graph()).unwrap();
    }

    #[test]
    fn detects_uncovered_edge() {
        let (mut h, td) = example5_td();
        h.add_edge([1, 5]);
        assert_eq!(
            td.verify(&h),
            Err(DecompositionError::EdgeNotCovered { edge: 3 })
        );
    }

    #[test]
    fn detects_connectedness_violation() {
        let h = Hypergraph::from_edges(3, [vec![0, 1], vec![1, 2]]);
        let mut td = TreeDecomposition::new(3);
        let r = td.add_root(BitSet::from_iter(3, [0, 1]));
        let mid = td.add_child(r, BitSet::from_iter(3, [1]));
        // vertex 0 reappears below without being in the middle bag
        td.add_child(mid, BitSet::from_iter(3, [0, 1, 2]));
        assert_eq!(
            td.verify(&h),
            Err(DecompositionError::Disconnected { vertex: 0 })
        );
    }

    #[test]
    fn detects_forest() {
        let h = Hypergraph::from_edges(2, [vec![0], vec![1]]);
        let mut td = TreeDecomposition::new(2);
        td.add_root(BitSet::from_iter(2, [0]));
        td.add_root(BitSet::from_iter(2, [1]));
        assert_eq!(td.verify(&h), Err(DecompositionError::NotATree));
    }

    #[test]
    fn attach_repairs_forest() {
        let h = Hypergraph::from_edges(2, [vec![0], vec![1]]);
        let mut td = TreeDecomposition::new(2);
        let a = td.add_root(BitSet::from_iter(2, [0]));
        let b = td.add_root(BitSet::from_iter(2, [1]));
        td.attach(b, a);
        td.verify(&h).unwrap();
    }

    #[test]
    fn preorder_visits_all_nodes_once() {
        let (_, td) = example5_td();
        let order = td.preorder();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn empty_is_invalid() {
        let td = TreeDecomposition::new(0);
        assert!(matches!(
            td.verify_structure(),
            Err(DecompositionError::NotATree)
        ));
    }
}
