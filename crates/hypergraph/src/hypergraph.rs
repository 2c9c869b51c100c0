//! Hypergraphs (Definition 2) with primal/Gaifman (Definition 3) and dual
//! (Definition 4) graph construction.

use crate::bitset::BitSet;
use crate::graph::Graph;

/// Typed error for checked hypergraph construction ([`Hypergraph::try_add_edge`]
/// / [`Hypergraph::try_from_edges`]). The panicking builders ([`Hypergraph::add_edge`])
/// remain for internal generators, whose inputs are correct by construction;
/// everything that touches *untrusted* data (file parsers, network input)
/// must go through the checked path so a malformed edge list becomes an
/// `Err`, not a process abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HypergraphError {
    /// A hyperedge references vertex `vertex`, but only `n` vertices exist.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// Number of vertices in the hypergraph.
        n: usize,
    },
}

impl std::fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypergraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "hyperedge vertex {vertex} out of range (n = {n})")
            }
        }
    }
}

impl std::error::Error for HypergraphError {}

/// A hypergraph `H = (V, H)`: vertices are dense indices `0..n`, hyperedges
/// are vertex sets. Vertices and hyperedges may carry names (for parsed
/// benchmark instances); generated instances get systematic names.
#[derive(Clone)]
pub struct Hypergraph {
    n: usize,
    vertex_names: Vec<String>,
    edges: Vec<BitSet>,
    edge_names: Vec<String>,
    /// `incidence[v]` = indices of hyperedges containing `v`.
    incidence: Vec<Vec<usize>>,
}

impl Hypergraph {
    /// Creates a hypergraph with `n` vertices named `v0..v{n-1}` and no
    /// hyperedges.
    pub fn new(n: usize) -> Self {
        Hypergraph {
            n,
            vertex_names: (0..n).map(|i| format!("v{i}")).collect(),
            edges: Vec::new(),
            edge_names: Vec::new(),
            incidence: vec![Vec::new(); n],
        }
    }

    /// Builds a hypergraph from hyperedges given as vertex lists.
    pub fn from_edges<I, E>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: IntoIterator<Item = usize>,
    {
        let mut h = Hypergraph::new(n);
        for e in edges {
            h.add_edge(e);
        }
        h
    }

    /// Views a regular graph as a hypergraph whose hyperedges are the graph's
    /// edges (§2.1: "every graph may be regarded as hypergraph").
    pub fn from_graph(g: &Graph) -> Self {
        Hypergraph::from_edges(g.num_vertices(), g.edges().map(|(u, v)| [u, v]))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of hyperedges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a hyperedge; duplicate vertices within the edge are collapsed.
    /// Returns its index.
    ///
    /// Panics when a vertex is out of range — for *internal* construction
    /// (generators, tests) where that is a programming error. Parsers of
    /// untrusted input must use [`Hypergraph::try_add_edge`] instead.
    pub fn add_edge<E: IntoIterator<Item = usize>>(&mut self, vertices: E) -> usize {
        self.try_add_edge(vertices)
            .expect("hyperedge vertex out of range")
    }

    /// Checked [`Hypergraph::add_edge`]: rejects out-of-range vertices with
    /// a typed error instead of panicking, leaving the hypergraph unchanged.
    /// This is the construction path for untrusted (parsed) edge lists.
    pub fn try_add_edge<E: IntoIterator<Item = usize>>(
        &mut self,
        vertices: E,
    ) -> Result<usize, HypergraphError> {
        let idx = self.edges.len();
        self.push_edge(format!("e{idx}"), vertices)
    }

    /// Appends hyperedge `name` over `vertices` (checked; on `Err` the
    /// hypergraph is unchanged).
    fn push_edge<E: IntoIterator<Item = usize>>(
        &mut self,
        name: String,
        vertices: E,
    ) -> Result<usize, HypergraphError> {
        let idx = self.edges.len();
        let mut set = BitSet::new(self.n);
        for v in vertices {
            if v >= self.n {
                return Err(HypergraphError::VertexOutOfRange { vertex: v, n: self.n });
            }
            set.insert(v);
        }
        for v in set.iter() {
            self.incidence[v].push(idx);
        }
        self.edges.push(set);
        self.edge_names.push(name);
        Ok(idx)
    }

    /// Checked construction from named parts, for parsers: one vertex per
    /// entry of `vertex_names` (in index order) and one hyperedge per
    /// `(name, vertices)` pair. Builds no placeholder names.
    pub fn try_from_named_edges<I, E>(
        vertex_names: Vec<String>,
        edges: I,
    ) -> Result<Self, HypergraphError>
    where
        I: IntoIterator<Item = (String, E)>,
        E: IntoIterator<Item = usize>,
    {
        let n = vertex_names.len();
        let mut h = Hypergraph {
            n,
            vertex_names,
            edges: Vec::new(),
            edge_names: Vec::new(),
            incidence: vec![Vec::new(); n],
        };
        for (name, vertices) in edges {
            h.push_edge(name, vertices)?;
        }
        Ok(h)
    }

    /// Checked [`Hypergraph::from_edges`] for untrusted edge lists.
    pub fn try_from_edges<I, E>(n: usize, edges: I) -> Result<Self, HypergraphError>
    where
        I: IntoIterator<Item = E>,
        E: IntoIterator<Item = usize>,
    {
        let mut h = Hypergraph::new(n);
        for e in edges {
            h.try_add_edge(e)?;
        }
        Ok(h)
    }

    /// Adds a named hyperedge.
    pub fn add_named_edge<E: IntoIterator<Item = usize>>(
        &mut self,
        name: impl Into<String>,
        vertices: E,
    ) -> usize {
        let idx = self.add_edge(vertices);
        self.edge_names[idx] = name.into();
        idx
    }

    /// Checked [`Hypergraph::add_named_edge`] for untrusted edge lists.
    pub fn try_add_named_edge<E: IntoIterator<Item = usize>>(
        &mut self,
        name: impl Into<String>,
        vertices: E,
    ) -> Result<usize, HypergraphError> {
        self.push_edge(name.into(), vertices)
    }

    /// Renames vertex `v`.
    pub fn set_vertex_name(&mut self, v: usize, name: impl Into<String>) {
        self.vertex_names[v] = name.into();
    }

    /// Name of vertex `v`.
    pub fn vertex_name(&self, v: usize) -> &str {
        &self.vertex_names[v]
    }

    /// Name of hyperedge `e`.
    pub fn edge_name(&self, e: usize) -> &str {
        &self.edge_names[e]
    }

    /// Looks up a vertex index by name (linear scan; parsing uses its own map).
    pub fn vertex_by_name(&self, name: &str) -> Option<usize> {
        self.vertex_names.iter().position(|n| n == name)
    }

    /// The vertex set of hyperedge `e`.
    #[inline]
    pub fn edge(&self, e: usize) -> &BitSet {
        &self.edges[e]
    }

    /// All hyperedges.
    #[inline]
    pub fn edges(&self) -> &[BitSet] {
        &self.edges
    }

    /// Indices of the hyperedges containing vertex `v`.
    #[inline]
    pub fn edges_containing(&self, v: usize) -> &[usize] {
        &self.incidence[v]
    }

    /// Maximum hyperedge cardinality (the *rank* of the hypergraph).
    pub fn rank(&self) -> usize {
        self.edges.iter().map(BitSet::len).max().unwrap_or(0)
    }

    /// `true` iff every vertex occurs in at least one hyperedge.
    pub fn covers_all_vertices(&self) -> bool {
        self.incidence.iter().all(|inc| !inc.is_empty())
    }

    /// The vertices occurring in at least one hyperedge. Vertices outside
    /// this set are unconstrained: they never need λ-cover support.
    pub fn covered_vertices(&self) -> BitSet {
        BitSet::from_iter(
            self.n,
            (0..self.n).filter(|&v| !self.incidence[v].is_empty()),
        )
    }

    /// The primal (Gaifman) graph `G*(H)` (Definition 3): same vertices; two
    /// vertices adjacent iff they co-occur in some hyperedge.
    pub fn primal_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for e in &self.edges {
            let vs = e.to_vec();
            for (i, &u) in vs.iter().enumerate() {
                for &v in &vs[i + 1..] {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// `true` iff the hypergraph is α-acyclic, decided by GYO reduction:
    /// repeatedly (1) drop vertices that occur in exactly one hyperedge and
    /// (2) drop hyperedges contained in another hyperedge; the hypergraph is
    /// α-acyclic iff everything reduces away. α-acyclicity is exactly the
    /// `ghw = 1` / join-tree-exists case (Definition 9).
    pub fn is_alpha_acyclic(&self) -> bool {
        let mut edges: Vec<BitSet> = self.edges.clone();
        let mut alive: Vec<bool> = vec![true; edges.len()];
        let mut occurrences = vec![0usize; self.n];
        for e in &edges {
            for v in e.iter() {
                occurrences[v] += 1;
            }
        }
        loop {
            let mut changed = false;
            // ear rule 1: remove vertices unique to one edge
            for (i, e) in edges.iter_mut().enumerate() {
                if !alive[i] {
                    continue;
                }
                let lonely: Vec<usize> = e.iter().filter(|&v| occurrences[v] == 1).collect();
                for v in lonely {
                    e.remove(v);
                    occurrences[v] = 0;
                    changed = true;
                }
            }
            // ear rule 2: remove edges contained in another (or emptied)
            for i in 0..edges.len() {
                if !alive[i] {
                    continue;
                }
                let contained = edges[i].is_empty()
                    || (0..edges.len()).any(|j| {
                        j != i && alive[j] && edges[i].is_subset(&edges[j])
                    });
                if contained {
                    alive[i] = false;
                    for v in edges[i].iter() {
                        occurrences[v] -= 1;
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        alive.iter().all(|&a| !a)
    }

    /// The dual graph (Definition 4): one vertex per hyperedge; two adjacent
    /// iff the hyperedges share a vertex.
    pub fn dual_graph(&self) -> Graph {
        let m = self.edges.len();
        let mut g = Graph::new(m);
        for v in 0..self.n {
            let inc = &self.incidence[v];
            for (i, &a) in inc.iter().enumerate() {
                for &b in &inc[i + 1..] {
                    g.add_edge(a, b);
                }
            }
        }
        g
    }
}

impl std::fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hypergraph(n={}, m={})", self.n, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hypergraph of thesis Example 5 / Fig. 2.6(a):
    /// C1={x1,x2,x3}, C2={x1,x5,x6}, C3={x3,x4,x5} (0-indexed).
    pub(crate) fn example5() -> Hypergraph {
        Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]])
    }

    #[test]
    fn primal_graph_of_example5() {
        let h = example5();
        let g = h.primal_graph();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 9);
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(1, 2));
        assert!(g.has_edge(0, 4) && g.has_edge(0, 5) && g.has_edge(4, 5));
        assert!(g.has_edge(2, 3) && g.has_edge(2, 4) && g.has_edge(3, 4));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn dual_graph_of_example5() {
        let h = example5();
        let d = h.dual_graph();
        assert_eq!(d.num_vertices(), 3);
        // C1∩C2={x1}, C1∩C3={x3}, C2∩C3={x5} → triangle
        assert_eq!(d.num_edges(), 3);
    }

    #[test]
    fn incidence_is_consistent() {
        let h = example5();
        assert_eq!(h.edges_containing(0), &[0, 1]);
        assert_eq!(h.edges_containing(3), &[2]);
        assert_eq!(h.rank(), 3);
        assert!(h.covers_all_vertices());
        let lonely = Hypergraph::from_edges(3, [vec![0, 1]]);
        assert!(!lonely.covers_all_vertices());
    }

    #[test]
    fn gyo_recognises_acyclicity() {
        // Example 5 is cyclic
        assert!(!example5().is_alpha_acyclic());
        // a chain of overlapping edges is acyclic
        let chain = Hypergraph::from_edges(5, [vec![0, 1, 2], vec![2, 3], vec![3, 4]]);
        assert!(chain.is_alpha_acyclic());
        // a single covering edge plus sub-edges is acyclic
        let star = Hypergraph::from_edges(4, [vec![0, 1, 2, 3], vec![1, 2], vec![0, 3]]);
        assert!(star.is_alpha_acyclic());
        // the triangle of binary edges is the smallest cyclic case
        let tri = Hypergraph::from_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2]]);
        assert!(!tri.is_alpha_acyclic());
        // but adding the covering 3-edge makes it acyclic
        let tri_cov =
            Hypergraph::from_edges(3, [vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2]]);
        assert!(tri_cov.is_alpha_acyclic());
    }

    #[test]
    fn from_graph_roundtrip_primal() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let h = Hypergraph::from_graph(&g);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.primal_graph(), g);
    }

    #[test]
    fn duplicate_vertices_in_edge_collapse() {
        let mut h = Hypergraph::new(3);
        let e = h.add_edge([1, 1, 2]);
        assert_eq!(h.edge(e).len(), 2);
    }

    #[test]
    fn try_add_edge_rejects_out_of_range_and_leaves_state_unchanged() {
        let mut h = Hypergraph::new(3);
        assert_eq!(
            h.try_add_edge([0, 7]),
            Err(HypergraphError::VertexOutOfRange { vertex: 7, n: 3 })
        );
        assert_eq!(h.num_edges(), 0);
        assert!(h.edges_containing(0).is_empty(), "no partial incidence");
        assert_eq!(h.try_add_edge([0, 2]), Ok(0));
        assert_eq!(h.num_edges(), 1);
        assert!(Hypergraph::try_from_edges(2, [vec![0usize, 1], vec![2]]).is_err());
        let err = HypergraphError::VertexOutOfRange { vertex: 7, n: 3 };
        assert!(err.to_string().contains("7"));
    }

    #[test]
    fn try_from_named_edges_keeps_the_given_names() {
        let names = vec!["x".to_string(), "y".to_string(), "z".to_string()];
        let h = Hypergraph::try_from_named_edges(
            names.clone(),
            [("A".to_string(), vec![0, 2, 0]), ("B".to_string(), vec![1])],
        )
        .unwrap();
        assert_eq!((h.num_vertices(), h.num_edges()), (3, 2));
        assert_eq!((h.vertex_name(2), h.edge_name(0), h.edge_name(1)), ("z", "A", "B"));
        assert_eq!(h.edge(0).to_vec(), vec![0, 2]);
        assert_eq!(h.edges_containing(0), &[0]);
        assert_eq!(
            Hypergraph::try_from_named_edges(names, [("A".to_string(), vec![3])]).unwrap_err(),
            HypergraphError::VertexOutOfRange { vertex: 3, n: 3 }
        );
    }
}
