//! Treewidth lower bound heuristics (§4.4.2): degeneracy (MMD),
//! minor-min-width / MMD+least-c (Fig 4.7) and minor-γ_R (Fig 4.8).
//!
//! All three are *minor-monotone*: they contract edges, and treewidth never
//! increases under taking minors, so the largest degree statistic observed
//! along the way lower-bounds the treewidth of the original graph.

use ghd_hypergraph::{BitSet, EliminationGraph, Graph};
use ghd_prng::{Rng, RngExt};

/// Live vertices bucketed by degree: one bit set per degree, a pointer at
/// or below the lowest non-empty bucket, and a live count. The
/// minimum-degree vertices are read off in ascending order without a scan
/// of every live vertex, as `mcs_ordering` reads its weight buckets.
///
/// Buckets are sized lazily: after a [`fill`](Self::fill) only buckets
/// `..used` belong to the current load, and a bucket is re-dimensioned the
/// first time a degree reaches it, so a reused queue never clears buckets
/// the current graph does not reach.
#[derive(Default)]
pub(crate) struct DegreeQueue {
    buckets: Vec<BitSet>,
    used: usize,
    min: usize,
    live: usize,
    n: usize,
}

impl DegreeQueue {
    /// Refills the queue with the vertices `0..deg.len()`, vertex `v`
    /// under degree `deg[v]`.
    pub(crate) fn fill(&mut self, deg: &[usize]) {
        self.n = deg.len();
        self.used = 0;
        self.min = usize::MAX;
        self.live = 0;
        for (v, &d) in deg.iter().enumerate() {
            self.push(v, d);
        }
    }

    /// Adds live vertex `v` with degree `d`.
    fn push(&mut self, v: usize, d: usize) {
        while self.used <= d {
            match self.buckets.get_mut(self.used) {
                Some(b) => b.reset(self.n),
                None => self.buckets.push(BitSet::new(self.n)),
            }
            self.used += 1;
        }
        self.buckets[d].insert(v);
        self.live += 1;
        self.min = self.min.min(d);
    }

    /// Drops live vertex `v`, whose degree is `d`.
    pub(crate) fn remove(&mut self, v: usize, d: usize) {
        debug_assert!(d < self.used, "vertex {v}: degree {d} has no bucket");
        let present = self.buckets[d].remove(v);
        debug_assert!(present, "vertex {v} is not in the bucket of its degree {d}");
        self.live -= 1;
    }

    /// Moves live vertex `v` from degree `old` to degree `new`.
    pub(crate) fn moved(&mut self, v: usize, old: usize, new: usize) {
        if old != new {
            self.remove(v, old);
            self.push(v, new);
        }
    }

    /// The number of live vertices.
    fn len(&self) -> usize {
        self.live
    }

    /// Raises `min` to the lowest non-empty bucket; `false` once no vertex
    /// is live.
    fn settle(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        while self.buckets[self.min].is_empty() {
            self.min += 1;
        }
        true
    }

    /// The minimum degree and its bucket, or `None` once no vertex is live.
    pub(crate) fn min_bucket(&mut self) -> Option<(usize, &BitSet)> {
        self.settle().then(|| (self.min, &self.buckets[self.min]))
    }

    /// Every live vertex by ascending degree, ascending within a degree:
    /// the order a stable sort of `0..n` by degree gives.
    fn ascending(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.settle();
        self.buckets[self.min.min(self.used)..self.used]
            .iter()
            .flat_map(BitSet::iter)
    }
}

/// Reusable buffers for the minor-based lower bounds, so that per-node
/// heuristic calls inside the exact searches allocate nothing in the steady
/// state. One scratch serves any number of consecutive bound computations.
///
/// `deg[v]` caches `adj[v].len()` for every loaded vertex: it is set once
/// per load and kept exact by [`contract_into`], so no degree read ever
/// popcounts a row. `queue` holds the live vertices under those degrees.
#[derive(Default)]
pub struct LbScratch {
    adj: Vec<BitSet>,
    deg: Vec<usize>,
    queue: DegreeQueue,
    tied: Vec<usize>,
    /// The already-walked prefix of γ_R's degree order.
    prefix: BitSet,
}

impl LbScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `n` rows and sizes the prefix set for them.
    fn prepare(&mut self, n: usize) {
        if self.adj.len() < n {
            self.adj.resize_with(n, BitSet::default);
            self.deg.resize(n, 0);
        }
        self.prefix.reset(n);
    }

    /// Loads the contraction rows from a static graph.
    fn load_graph(&mut self, g: &Graph) {
        let n = g.num_vertices();
        self.prepare(n);
        for v in 0..n {
            self.adj[v].copy_from(g.neighbors(v));
            self.deg[v] = g.degree(v);
        }
        self.queue.fill(&self.deg[..n]);
    }

    /// Loads the contraction rows from the residual of an elimination graph,
    /// exactly as `load_graph(&eg.to_graph())` would — dead vertices become
    /// isolated but stay live, in bucket 0 — without materialising the
    /// graph.
    fn load_elim(&mut self, eg: &EliminationGraph) {
        let n = eg.num_vertices();
        self.prepare(n);
        for v in 0..n {
            self.adj[v].reset(n);
            self.deg[v] = 0;
        }
        for u in eg.alive().iter() {
            self.adj[u].copy_from(eg.neighbors(u));
            self.deg[u] = eg.degree(u);
        }
        self.queue.fill(&self.deg[..n]);
    }
}

/// Contracts the edge `(v, u)` into `u` and removes `v`, which the caller
/// has already taken off `queue`. `deg` stays exact from the membership
/// changes `insert`/`remove` report, and exactly the vertices whose degree
/// changed move bucket.
fn contract_into(adj: &mut [BitSet], deg: &mut [usize], queue: &mut DegreeQueue, v: usize, u: usize) {
    let nv = std::mem::take(&mut adj[v]);
    let old_u = deg[u];
    for w in nv.iter() {
        let old_w = deg[w];
        deg[w] -= usize::from(adj[w].remove(v));
        if w != u {
            deg[w] += usize::from(adj[w].insert(u));
            deg[u] += usize::from(adj[u].insert(w));
            queue.moved(w, old_w, deg[w]);
        }
    }
    adj[v] = nv;
    adj[v].clear();
    deg[v] = 0;
    deg[u] -= usize::from(adj[u].remove(u));
    queue.moved(u, old_u, deg[u]);
}

/// Picks one of `tied`: the first, or a uniformly random one when `rng` is
/// given.
pub(crate) fn pick_tied<R: Rng + ?Sized>(tied: &[usize], rng: &mut Option<&mut R>) -> usize {
    match rng {
        Some(r) => tied[r.random_range(0..tied.len())],
        None => tied[0],
    }
}

/// [`pick_tied`] over the elements of a nonempty `set` in ascending order;
/// `tied` is a reusable buffer, filled only when `rng` is given.
pub(crate) fn pick_in<R: Rng + ?Sized>(
    set: &BitSet,
    tied: &mut Vec<usize>,
    rng: &mut Option<&mut R>,
) -> usize {
    if rng.is_none() {
        return set.min().expect("nonempty");
    }
    tied.clear();
    tied.extend(set.iter());
    pick_tied(tied, rng)
}

/// Picks a minimum-degree neighbour of `v` (ties in ascending vertex order,
/// broken by `rng` when given) — the contraction partner of both minor
/// bounds.
fn min_degree_neighbour<R: Rng + ?Sized>(
    adj: &[BitSet],
    deg: &[usize],
    tied: &mut Vec<usize>,
    v: usize,
    rng: &mut Option<&mut R>,
) -> usize {
    let min_nb_deg = adj[v].iter().map(|u| deg[u]).min().expect("nonempty");
    tied.clear();
    tied.extend(adj[v].iter().filter(|&u| deg[u] == min_nb_deg));
    pick_tied(tied, rng)
}

/// The degeneracy / maximum-minimum-degree (MMD) lower bound: repeatedly
/// delete a minimum-degree vertex; the maximum such degree lower-bounds the
/// treewidth.
///
/// Deletion only lowers the degrees of the deleted vertex's live
/// neighbours, so the rows of `g` are read, never copied.
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut deleted = vec![false; n];
    let mut queue = DegreeQueue::default();
    queue.fill(&deg);
    let mut lb = 0;
    while let Some((d, bucket)) = queue.min_bucket() {
        let v = bucket.min().expect("nonempty");
        lb = lb.max(d);
        queue.remove(v, d);
        deleted[v] = true;
        for w in g.neighbors(v).iter() {
            if !deleted[w] {
                queue.moved(w, deg[w], deg[w] - 1);
                deg[w] -= 1;
            }
        }
    }
    lb
}

/// Algorithm *minor-min-width* (Fig 4.7), a.k.a. MMD+least-c: repeatedly
/// contract a minimum-degree vertex into its least-degree neighbour,
/// recording the maximum minimum degree seen. Ties broken randomly when
/// `rng` is given.
pub fn minor_min_width<R: Rng + ?Sized>(g: &Graph, rng: Option<&mut R>) -> usize {
    let mut scratch = LbScratch::new();
    scratch.load_graph(g);
    mmw_core(&mut scratch, rng)
}

fn mmw_core<R: Rng + ?Sized>(scratch: &mut LbScratch, mut rng: Option<&mut R>) -> usize {
    let LbScratch { adj, deg, queue, tied, .. } = scratch;
    let mut lb = 0;
    // (a) minimum-degree vertex v, ties in ascending vertex order
    while let Some((min_deg, bucket)) = queue.min_bucket() {
        let v = pick_in(bucket, tied, &mut rng);
        queue.remove(v, min_deg);
        // (b) record degree
        lb = lb.max(min_deg);
        // (a cont.) contract with minimum-degree neighbour
        if min_deg > 0 {
            let u = min_degree_neighbour(adj, deg, tied, v, &mut rng);
            contract_into(adj, deg, queue, v, u);
        }
    }
    lb
}

/// Algorithm *minor-γ_R* (Fig 4.8): based on Ramachandramurthi's γ
/// parameter. Each round orders the live vertices by degree, finds the
/// first vertex not adjacent to all of its predecessors, records its
/// degree, and contracts it into its least-degree neighbour. If every
/// vertex is adjacent to all predecessors the remaining graph is complete
/// and contributes `n − 1`.
pub fn minor_gamma_r<R: Rng + ?Sized>(g: &Graph, rng: Option<&mut R>) -> usize {
    let mut scratch = LbScratch::new();
    scratch.load_graph(g);
    gamma_r_core(&mut scratch, rng)
}

fn gamma_r_core<R: Rng + ?Sized>(scratch: &mut LbScratch, mut rng: Option<&mut R>) -> usize {
    let LbScratch { adj, deg, queue, tied, prefix } = scratch;
    let mut lb = 0;
    while queue.len() > 0 {
        // (a, b) walk the degree order (the buckets upward, each in
        // ascending vertex order) to the first vertex with a non-neighbour
        // predecessor, i.e. whose predecessors are not all in its row (more
        // than deg(v) of them cannot be)
        prefix.clear();
        let mut found = None;
        for (i, v) in queue.ascending().enumerate() {
            if i > deg[v] || !prefix.is_subset(&adj[v]) {
                found = Some(v);
                break;
            }
            prefix.insert(v);
        }
        let Some(v) = found else {
            // complete graph: γ = n − 1, nothing further to contract
            lb = lb.max(queue.len() - 1);
            break;
        };
        // (c,e) γ_R = degree(v)
        lb = lb.max(deg[v]);
        queue.remove(v, deg[v]);
        // (d) contract with minimum-degree neighbour
        if deg[v] > 0 {
            let u = min_degree_neighbour(adj, deg, tied, v, &mut rng);
            contract_into(adj, deg, queue, v, u);
        }
    }
    lb
}

/// The combined treewidth lower bound used by A\*-tw and BB-ghw: the
/// maximum of [`minor_min_width`] and [`minor_gamma_r`] (§5.1).
pub fn tw_lower_bound<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> usize {
    let mut scratch = LbScratch::new();
    scratch.load_graph(g);
    let a = mmw_core(&mut scratch, rng.as_deref_mut());
    scratch.load_graph(g);
    let b = gamma_r_core(&mut scratch, rng);
    a.max(b)
}

/// [`tw_lower_bound`] evaluated directly on the residual of an elimination
/// graph, reusing `scratch` so that per-node calls inside A\*/BB allocate
/// nothing. Returns exactly `tw_lower_bound(&eg.to_graph(), rng)`.
pub fn tw_lower_bound_elim<R: Rng + ?Sized>(
    eg: &EliminationGraph,
    mut rng: Option<&mut R>,
    scratch: &mut LbScratch,
) -> usize {
    scratch.load_elim(eg);
    let a = mmw_core(scratch, rng.as_deref_mut());
    scratch.load_elim(eg);
    let b = gamma_r_core(scratch, rng);
    a.max(b)
}

/// [`minor_min_width`] evaluated directly on the residual of an elimination
/// graph, reusing `scratch`. Returns exactly
/// `minor_min_width(&eg.to_graph(), rng)`.
pub fn minor_min_width_elim<R: Rng + ?Sized>(
    eg: &EliminationGraph,
    rng: Option<&mut R>,
    scratch: &mut LbScratch,
) -> usize {
    scratch.load_elim(eg);
    mmw_core(scratch, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upper::tw_upper_bound;
    use ghd_hypergraph::generators::graphs;
    use ghd_prng::rngs::StdRng;

    #[test]
    fn exact_on_cliques() {
        let g = graphs::complete(7);
        assert_eq!(degeneracy(&g), 6);
        assert_eq!(minor_min_width::<StdRng>(&g, None), 6);
        assert_eq!(minor_gamma_r::<StdRng>(&g, None), 6);
    }

    #[test]
    fn exact_on_trees_and_cycles() {
        let p = graphs::path(9);
        assert_eq!(minor_min_width::<StdRng>(&p, None), 1);
        let c = graphs::cycle(9);
        assert_eq!(minor_min_width::<StdRng>(&c, None), 2);
        assert_eq!(degeneracy(&c), 2);
    }

    #[test]
    fn grid_lower_bounds_are_sound_and_nontrivial() {
        for n in 2..=6 {
            let g = graphs::grid(n);
            let lb = tw_lower_bound::<StdRng>(&g, None);
            assert!(lb <= n, "grid{n}: lb {lb} exceeds treewidth {n}");
            assert!(lb >= 2.min(n), "grid{n}: lb {lb} uselessly small");
        }
    }

    #[test]
    fn lower_bounds_never_exceed_upper_bounds() {
        let mut rng = StdRng::seed_from_u64(13);
        for seed in 0..15u64 {
            let g = graphs::gnm_random(24, 60, seed);
            let lb = tw_lower_bound(&g, Some(&mut rng));
            let (ub, _) = tw_upper_bound(&g, Some(&mut rng));
            assert!(lb <= ub, "seed {seed}: lb {lb} > ub {ub}");
        }
    }

    #[test]
    fn minor_min_width_dominates_degeneracy_usually() {
        // MMW is provably ≥ MMD on every run with deterministic tie-break?
        // Not in general, but on these instances it should not be smaller
        // than half of it; we just sanity-check both are positive.
        let g = graphs::queen(5);
        let mmd = degeneracy(&g);
        let mmw = minor_min_width::<StdRng>(&g, None);
        assert!(mmd >= 1 && mmw >= 1);
        assert!(mmw <= 18); // known: tw(queen5_5) = 18
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::new(0);
        assert_eq!(degeneracy(&g), 0);
        assert_eq!(minor_min_width::<StdRng>(&g, None), 0);
        assert_eq!(minor_gamma_r::<StdRng>(&g, None), 0);
        let one = Graph::new(1);
        assert_eq!(minor_min_width::<StdRng>(&one, None), 0);
        assert_eq!(minor_gamma_r::<StdRng>(&one, None), 0);
    }

    #[test]
    fn elim_variants_match_materialised_graph() {
        use ghd_hypergraph::EliminationGraph;
        let mut scratch = LbScratch::new();
        for seed in 0..10u64 {
            let g = graphs::gnm_random(22, 55, seed);
            let mut eg = EliminationGraph::new(&g);
            // partially eliminate so dead vertices are present
            for v in [3usize, 11, 7] {
                if eg.is_alive(v) {
                    eg.eliminate(v);
                }
            }
            let residual = eg.to_graph();
            assert_eq!(
                tw_lower_bound_elim::<StdRng>(&eg, None, &mut scratch),
                tw_lower_bound::<StdRng>(&residual, None),
                "tw lb mismatch, seed {seed}"
            );
            assert_eq!(
                minor_min_width_elim::<StdRng>(&eg, None, &mut scratch),
                minor_min_width::<StdRng>(&residual, None),
                "mmw mismatch, seed {seed}"
            );
        }
    }

    #[test]
    fn a_contraction_past_the_initial_maximum_grows_the_queue() {
        // K_{3,5}: maximum degree 5; the first contraction puts leaf 3 into
        // hub 0, which gains hubs 1 and 2 and reaches degree 6
        let g = Graph::from_edges(8, (0..3).flat_map(|a| (3..8).map(move |l| (a, l))));
        let mut scratch = LbScratch::new();
        scratch.load_graph(&g);
        assert_eq!(scratch.queue.used, 6);
        assert_eq!(mmw_core::<StdRng>(&mut scratch, None), 3);
        assert!(scratch.queue.used > 6, "no bucket past degree 5 was made");
        assert_eq!(scratch.queue.len(), 0);
    }

    #[test]
    fn isolated_vertices_are_harmless() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2); // triangle + 3 isolated
        assert_eq!(minor_min_width::<StdRng>(&g, None), 2);
        assert_eq!(degeneracy(&g), 2);
    }
}
