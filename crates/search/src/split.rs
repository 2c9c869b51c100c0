//! Safe-separator divide and conquer: decompose the irreducible core into
//! independent blocks, solve each block with the existing searches, and
//! stitch the per-block results back into one certified answer.
//!
//! For treewidth three separator kinds are exact-safe (`tw(G) = max` over
//! the blocks): connected components, cut vertices (Tarjan biconnected
//! blocks) and clique separators (MCS-M atoms). Every block is an induced
//! subgraph containing its separator as a clique, so per-block lower
//! bounds carry over and per-block decompositions glue at a separator bag.
//! For ghw only hypergraph connected components and the isolated-edge /
//! contained-edge reductions are provably safe, so the ghw pipeline is
//! restricted to those.
//!
//! The pipeline is written once: [`split`] drives any [`Pipeline`], and
//! `(&Graph, &BbConfig)` and `(&Hypergraph, &BbGhwConfig)` supply only what
//! differs — the reductions and the plan, the per-block, monolithic and
//! witness searches, the degraded stand-in for a block and the stitch.
//!
//! Each distinct block is searched once: units are grouped by the canonical
//! text of their compact block, one unit per group is solved (and probed
//! in / admitted to a [`BlockStore`]), and every copy takes that answer
//! with its ordering mapped through its own vertex list. Sequential BB on
//! an identical compact block is deterministic, so a copy's answer is the
//! one re-solving it would give.
//!
//! Determinism: blocks are enumerated canonically (sorted vertex lists, in
//! order of smallest vertex), the fan-out preserves input order, and for
//! exact runs the emitted ordering is re-derived by the sequential witness
//! reconstruction of [`crate::bb_tw::witness_tw`] /
//! [`crate::bb_ghw::witness_ghw`] on the *whole* instance — so a split
//! run is bit-identical to the monolithic sequential search for any
//! thread count. Anytime runs (budget expiry, cancellation, double
//! faults) fall back to a stitched ordering whose width is re-verified
//! before it is claimed.

use crate::bb_ghw::{bb_ghw_budgeted, bb_ghw_parallel_budgeted, witness_ghw, BbGhwConfig};
use crate::bb_tw::{bb_tw_budgeted, bb_tw_parallel_budgeted, witness_tw, BbConfig};
use crate::common::{Budget, SearchLimits, SearchResult, SearchStats};
use crate::preprocess::{preprocess_tw, Preprocessed};
use ghd_core::eval::TwEvaluator;
use ghd_core::{bucket::vertex_elimination, EliminationOrdering};
use ghd_hypergraph::separators::{
    biconnected_components, clique_separator_atoms, hypergraph_components,
};
use ghd_hypergraph::{BitSet, Graph, Hypergraph};
use ghd_par::WorkerFault;
use std::collections::HashMap;

/// What detached a block from the rest of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeparatorKind {
    /// A connected component (no separator at all).
    Component,
    /// A biconnected block joined to the rest at cut vertices.
    CutVertex,
    /// A clique-separator atom.
    CliqueSeparator,
    /// A hyperedge sharing no vertex with any other (ghw only): width 1.
    IsolatedEdge,
}

impl SeparatorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SeparatorKind::Component => "component",
            SeparatorKind::CutVertex => "cut-vertex",
            SeparatorKind::CliqueSeparator => "clique-separator",
            SeparatorKind::IsolatedEdge => "isolated-edge",
        }
    }
}

/// Per-block outcome, reported under the `split` stats section.
#[derive(Clone, Debug)]
pub struct BlockOutcome {
    pub size: usize,
    pub width: usize,
    pub lower_bound: usize,
    pub exact: bool,
    pub kind: SeparatorKind,
    pub cache_hit: bool,
    pub nodes: u64,
}

/// The split trace: how the instance decomposed and how each block fared.
#[derive(Clone, Debug, Default)]
pub struct SplitReport {
    /// `true` iff at least two blocks were solved independently.
    pub split: bool,
    pub blocks: Vec<BlockOutcome>,
    /// Width contributed by the §4.4.3 reductions (tw only).
    pub base_width: usize,
    /// Vertices eliminated by preprocessing (tw only).
    pub eliminated: usize,
    /// Preprocessing rounds (tw only).
    pub rounds: usize,
    /// Hyperedges dropped by the contained-edge reduction (ghw only).
    pub contained_edges: usize,
    /// Nodes the sequential witness reconstruction expanded.
    pub witness_nodes: u64,
    /// `true` when the emitted ordering was stitched from block orderings
    /// rather than reconstructed by the canonical witness.
    pub stitched: bool,
}

/// An exact block solution a [`BlockStore`] can replay: ordering indices
/// are compact block indices.
#[derive(Clone, Debug)]
pub struct BlockSolution {
    pub width: usize,
    pub lower_bound: usize,
    pub ordering: Vec<usize>,
}

/// Cross-instance cache for exact block solutions, keyed by the canonical
/// text of the compact block. The serve layer backs this with its
/// byte-capped LRU so two instances sharing a block hit the cache even
/// when the whole instances differ.
pub trait BlockStore: Sync {
    fn probe(&self, canon: &str) -> Option<BlockSolution>;
    fn admit(&self, canon: &str, sol: &BlockSolution);
}

/// A split solve: the combined search result plus the split trace.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    pub result: SearchResult,
    pub report: SplitReport,
}

/// Treewidth by safe-separator divide and conquer: preprocess, decompose
/// the core, solve each block over `threads` workers (`0` = all cores)
/// against one shared [`Budget`] / cancel token, and recombine. Exact
/// results are bit-identical to the monolithic sequential [`crate::bb_tw`]
/// (see the module notes); anytime results report the stitched ordering.
/// `store` optionally caches exact block solutions across instances.
pub fn split_tw(
    g: &Graph,
    cfg: &BbConfig,
    threads: usize,
    store: Option<&dyn BlockStore>,
) -> SplitOutcome {
    split(&(g, cfg), &cfg.limits, threads, store)
}

/// Generalized hypertree width by the provably safe ghw reductions:
/// contained-edge removal, hypergraph connected components and the
/// isolated-edge shortcut. Components are solved over `threads` workers
/// (`0` = all cores) against one shared [`Budget`] and concatenated —
/// components are independent in the primal graph, so the combined width
/// is the maximum. Exact results are bit-identical to the monolithic
/// sequential [`crate::bb_ghw`] via witness reconstruction on the whole
/// instance.
pub fn split_ghw(
    h: &Hypergraph,
    cfg: &BbGhwConfig,
    threads: usize,
    store: Option<&dyn BlockStore>,
) -> SplitOutcome {
    split(&(h, cfg), &cfg.limits, threads, store)
}

// ---------------------------------------------------------------------------
// the driver

/// One block of a plan: sorted core (tw) or instance (ghw) vertex indices.
struct Unit<B> {
    verts: Vec<usize>,
    kind: SeparatorKind,
    work: Work<B>,
}

/// How a unit is answered.
enum Work<B> {
    /// Search the compact induced block; its canonical text keys the
    /// dedupe and the [`BlockStore`].
    Search { sub: B, canon: String },
    /// Settled at this width by the reductions: ghw's components with no
    /// hyperedge (0) or exactly one (1).
    Fixed(usize),
}

/// The units in report order, plus what the stitch needs besides them.
struct Plan<B, S> {
    units: Vec<Unit<B>>,
    shape: S,
}

/// What the tw and ghw split pipelines do differently; [`split`] owns the
/// rest.
trait Pipeline: Sync {
    /// A compact block, searched on its own.
    type Block: Sync;
    type Shape;

    fn num_vertices(&self) -> usize;
    /// Applies the safe reductions, recording them in `report`, and plans
    /// the blocks: `None` when one block would be the whole search, no
    /// unit when the reductions settle the instance.
    fn plan(&self, report: &mut SplitReport) -> Option<Plan<Self::Block, Self::Shape>>;
    /// The monolithic search on `budget`, work-stealing unless `threads == 1`.
    fn whole(&self, budget: &Budget, threads: usize) -> SearchResult;
    fn search(&self, block: &Self::Block, budget: &Budget) -> SearchResult;
    /// A width the identity ordering of `block` realises: the stand-in for
    /// a block whose worker faulted twice.
    fn identity_width(&self, block: &Self::Block) -> usize;
    /// The ordering the sequential search reports for a proven `width`.
    fn witness(&self, width: usize, budget: &Budget) -> (Option<Vec<usize>>, u64);
    /// One instance ordering from the units' (mapped) orderings, of width
    /// at most `ub`; a realised width above it raises `ub`, clears `exact`.
    fn stitch(
        &self,
        plan: &Plan<Self::Block, Self::Shape>,
        solved: &[Solved],
        ub: &mut usize,
        exact: &mut bool,
    ) -> Vec<usize>;
}

/// Safe-separator divide and conquer over `p`: reduce and plan, solve the
/// distinct blocks over `threads` workers against one [`Budget`] drawn from
/// `limits`, and recombine (see the module notes). With nothing to split,
/// the monolithic search answers on the same budget.
fn split<P: Pipeline>(
    p: &P,
    limits: &SearchLimits,
    threads: usize,
    store: Option<&dyn BlockStore>,
) -> SplitOutcome {
    let budget = Budget::new(limits);
    let mut report = SplitReport::default();
    let Some(plan) = p.plan(&mut report) else {
        // nothing to split: the monolithic search is the answer — the
        // work-stealing parallel one when threads were requested, so an
        // irreducible instance loses nothing to the split attempt
        let result = p.whole(&budget, threads);
        report.blocks.push(BlockOutcome {
            size: p.num_vertices(),
            width: result.upper_bound,
            lower_bound: result.lower_bound,
            exact: result.exact,
            kind: SeparatorKind::Component,
            cache_hit: false,
            nodes: result.nodes_expanded,
        });
        return SplitOutcome { result, report };
    };
    report.split = plan.units.len() > 1;
    let (mut solved, faults) = fan_out(p, &plan.units, threads, &budget, store);
    let base = report.base_width;
    let (mut ub, mut lb, mut exact, mut nodes) = (base, base, true, 0u64);
    for (s, unit) in solved.iter_mut().zip(&plan.units) {
        s.map_ordering(&unit.verts);
        ub = ub.max(s.width);
        lb = lb.max(s.lower_bound);
        exact &= s.exact;
        nodes += s.nodes;
        report.blocks.push(BlockOutcome {
            size: unit.verts.len(),
            width: s.width,
            lower_bound: s.lower_bound,
            exact: s.exact,
            kind: unit.kind,
            cache_hit: s.cache_hit,
            nodes: s.nodes,
        });
    }
    lb = lb.min(ub);
    // exact runs re-derive the canonical sequential ordering on the whole
    // instance; anytime runs (and an expired witness) stitch block orderings
    let mut witness = None;
    if exact {
        let (w, wnodes) = p.witness(ub, &budget);
        report.witness_nodes = wnodes;
        nodes += wnodes;
        witness = w;
    }
    let ordering = witness.unwrap_or_else(|| {
        report.stitched = true;
        p.stitch(&plan, &solved, &mut ub, &mut exact)
    });
    if exact {
        lb = ub;
    }
    let stats = limits.collect_stats.then(|| {
        let mut merged = SearchStats::merge(solved.iter_mut().filter_map(|s| s.stats.take()));
        merged.faults = faults.clone();
        merged
    });
    SplitOutcome {
        result: SearchResult {
            upper_bound: ub,
            lower_bound: lb,
            exact,
            ordering: Some(ordering),
            nodes_expanded: nodes,
            elapsed: budget.elapsed(),
            cover_cache: None,
            stats,
            faults,
        },
        report,
    }
}

/// A solved unit: width interval plus an ordering in compact block indices
/// (mapped to core or instance indices once every unit is solved).
struct Solved {
    width: usize,
    lower_bound: usize,
    exact: bool,
    ordering: Vec<usize>,
    nodes: u64,
    cache_hit: bool,
    stats: Option<SearchStats>,
}

impl Solved {
    /// An answer with the identity ordering of a `k`-vertex block and no
    /// search: a fixed unit, or the sound stand-in for a faulted one.
    fn identity(width: usize, lower_bound: usize, exact: bool, k: usize) -> Solved {
        Solved {
            width,
            lower_bound,
            exact,
            ordering: (0..k).collect(),
            nodes: 0,
            cache_hit: false,
            stats: None,
        }
    }

    /// The answer a copy of this unit's block reports: the same width
    /// interval and compact ordering, with no search of its own.
    fn copy(&self) -> Solved {
        Solved {
            ordering: self.ordering.clone(),
            ..Solved::identity(self.width, self.lower_bound, self.exact, 0)
        }
    }

    /// Maps the compact ordering to the indices `verts` names.
    fn map_ordering(&mut self, verts: &[usize]) {
        for v in &mut self.ordering {
            *v = verts[*v];
        }
    }
}

/// Solves one searched unit per distinct canonical text over `threads`
/// workers (see [`solve_block`]), gives every copy its representative's
/// answer (see [`Solved::copy`]) and every fixed unit its width. A faulted
/// representative is retried once on the caller, then replaced by its
/// identity ordering, and its copies follow it. Fault task indices count
/// the representatives in unit order.
fn fan_out<P: Pipeline>(
    p: &P,
    units: &[Unit<P::Block>],
    threads: usize,
    budget: &Budget,
    store: Option<&dyn BlockStore>,
) -> (Vec<Solved>, Vec<WorkerFault>) {
    // a canonical text's representative is its first unit
    let mut first: HashMap<&str, usize> = HashMap::with_capacity(units.len());
    let distinct: Vec<(usize, &P::Block, &str)> = units
        .iter()
        .enumerate()
        .filter_map(|(u, unit)| match &unit.work {
            Work::Search { sub, canon } if *first.entry(canon).or_insert(u) == u => {
                Some((u, sub, canon.as_str()))
            }
            _ => None,
        })
        .collect();
    let solve = |&(u, sub, canon): &(usize, &P::Block, &str)| {
        solve_block(canon, units[u].verts.len(), store, || p.search(sub, budget))
    };
    let contained = ghd_par::parallel_map_contained(&distinct, threads, solve);
    let mut faults: Vec<WorkerFault> = contained.faults;
    let mut own: Vec<Option<Solved>> = (0..units.len()).map(|_| None).collect();
    for (i, slot) in contained.results.into_iter().enumerate() {
        let (u, sub, _) = distinct[i];
        let s = match slot {
            Some(s) => Ok(s),
            None => ghd_par::run_contained(ghd_par::RETRY_WORKER, i, || solve(&distinct[i])),
        };
        own[u] = Some(s.unwrap_or_else(|fault| {
            faults.push(fault);
            Solved::identity(p.identity_width(sub), 0, false, units[u].verts.len())
        }));
    }
    faults.sort_by_key(|f| f.task);
    let mut solved: Vec<Solved> = Vec::with_capacity(units.len());
    for (u, unit) in units.iter().enumerate() {
        // a representative precedes its copies, so it is already in place
        let s = match (own[u].take(), &unit.work) {
            (Some(s), _) => s,
            (None, Work::Search { canon, .. }) => solved[first[canon.as_str()]].copy(),
            (None, Work::Fixed(w)) => Solved::identity(*w, *w, true, unit.verts.len()),
        };
        solved.push(s);
    }
    (solved, faults)
}

/// Replays an exact block solution from `store`, or solves the block with
/// `search` and admits an exact answer; the ordering stays compact.
fn solve_block(
    canon: &str,
    k: usize,
    store: Option<&dyn BlockStore>,
    search: impl FnOnce() -> SearchResult,
) -> Solved {
    if let Some(hit) = store.and_then(|s| s.probe(canon)) {
        if hit.ordering.len() == k {
            return Solved {
                width: hit.width,
                lower_bound: hit.lower_bound,
                exact: true,
                ordering: hit.ordering,
                nodes: 0,
                cache_hit: true,
                stats: None,
            };
        }
    }
    let r = search();
    let ordering = r.ordering.unwrap_or_else(|| (0..k).collect());
    if let (true, Some(s)) = (r.exact, store) {
        s.admit(
            canon,
            &BlockSolution {
                width: r.upper_bound,
                lower_bound: r.lower_bound,
                ordering: ordering.clone(),
            },
        );
    }
    Solved {
        width: r.upper_bound,
        lower_bound: r.lower_bound,
        exact: r.exact,
        ordering,
        nodes: r.nodes_expanded,
        cache_hit: false,
        stats: r.stats,
    }
}

/// Induced subgraph of `g` on the sorted vertex list `verts`, compacted to
/// dense indices (compact `i` = `verts[i]`).
fn induced(g: &Graph, verts: &[usize]) -> Graph {
    let mut pos = vec![usize::MAX; g.num_vertices()];
    for (i, &v) in verts.iter().enumerate() {
        pos[v] = i;
    }
    let mut sub = Graph::new(verts.len());
    for (i, &v) in verts.iter().enumerate() {
        for u in g.neighbors(v).iter() {
            if u > v && pos[u] != usize::MAX {
                sub.add_edge(i, pos[u]);
            }
        }
    }
    sub
}

/// Canonical text of a compact block graph: vertex count plus the sorted
/// edge list. Blocks are compacted from sorted vertex lists, so equal
/// labelled blocks — the reuse the block cache targets — get equal keys.
fn graph_canon(g: &Graph) -> String {
    use std::fmt::Write;
    let mut s = format!("v{}", g.num_vertices());
    for (u, v) in g.edges() {
        let _ = write!(s, ";{u}-{v}");
    }
    s
}

/// Canonical text of a compact block hypergraph.
fn hypergraph_canon(h: &Hypergraph) -> String {
    use std::fmt::Write;
    let mut s = format!("v{}", h.num_vertices());
    for e in h.edges() {
        let _ = write!(s, ";e");
        for v in e.iter() {
            let _ = write!(s, ",{v}");
        }
    }
    s
}

// ---------------------------------------------------------------------------
// treewidth pipeline

/// A biconnected block in component peel order: its clique atoms (unit
/// ids, creation order) and the cut vertex deferred toward later blocks
/// (`None` for the last block of a component).
struct BccPlan {
    verts: Vec<usize>,
    attach: Option<usize>,
    unit_ids: Vec<usize>,
}

struct CompPlan {
    bccs: Vec<BccPlan>,
}

impl Pipeline for (&Graph, &BbConfig) {
    type Block = Graph;
    /// The preprocessed instance and the core's block–cut structure.
    type Shape = (Preprocessed, Vec<CompPlan>);

    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    fn plan(&self, report: &mut SplitReport) -> Option<Plan<Graph, Self::Shape>> {
        let pre = preprocess_tw(self.0);
        report.base_width = pre.base_width;
        report.eliminated = pre.eliminated.len();
        report.rounds = pre.rounds;
        let (units, comps) = plan_tw(&pre.core);
        (units.len() != 1).then_some(Plan {
            units,
            shape: (pre, comps),
        })
    }

    fn whole(&self, budget: &Budget, threads: usize) -> SearchResult {
        let (g, cfg) = *self;
        match threads {
            1 => bb_tw_budgeted(g, cfg, budget),
            t => bb_tw_parallel_budgeted(g, cfg, t, budget),
        }
    }

    fn search(&self, block: &Graph, budget: &Budget) -> SearchResult {
        bb_tw_budgeted(block, self.1, budget)
    }

    fn identity_width(&self, block: &Graph) -> usize {
        let k = block.num_vertices();
        let sigma = EliminationOrdering::new((0..k).collect()).expect("identity is a permutation");
        TwEvaluator::new(block).width(&sigma)
    }

    fn witness(&self, width: usize, budget: &Budget) -> (Option<Vec<usize>>, u64) {
        witness_tw(self.0, width, self.1, budget)
    }

    fn stitch(
        &self,
        plan: &Plan<Graph, Self::Shape>,
        solved: &[Solved],
        ub: &mut usize,
        exact: &mut bool,
    ) -> Vec<usize> {
        let (pre, comps) = &plan.shape;
        let o = stitch_tw(pre, comps, &plan.units, solved);
        // the stitched ordering may only certify what it realises
        let sigma = EliminationOrdering::new(o.clone());
        let w = sigma.map(|sigma| TwEvaluator::new(self.0).width(&sigma));
        if w.is_none_or(|w| w > *ub) {
            debug_assert!(false, "stitched width {w:?} exceeds combined bound {ub}");
            *ub = (*ub).max(w.unwrap_or(0));
            *exact = false;
        }
        o
    }
}

/// Re-derives an elimination ordering for the block `verts` from the tree
/// decomposition of `order` on its induced subgraph, leaving the (clique)
/// `defer` set out entirely: bags are peeled leaf-first toward a bag
/// containing `defer`, which eliminates every other vertex at degree
/// ≤ the decomposition width while the deferred separator stays for a
/// later block. Returns the emitted vertices (all of `verts` minus
/// `defer`) in elimination order.
fn peel_ordering(g: &Graph, verts: &[usize], order: &[usize], defer: &[usize]) -> Vec<usize> {
    let sub = induced(g, verts);
    let mut pos = vec![usize::MAX; g.num_vertices()];
    for (i, &v) in verts.iter().enumerate() {
        pos[v] = i;
    }
    let sigma_c: Vec<usize> = order.iter().map(|&v| pos[v]).collect();
    let defer_set = BitSet::from_iter(verts.len(), defer.iter().map(|&v| pos[v]));
    let sigma = match EliminationOrdering::new(sigma_c) {
        Some(s) => s,
        // defensive: a malformed block ordering falls back to solver order
        None => {
            return order
                .iter()
                .copied()
                .filter(|&v| !defer.contains(&v))
                .collect()
        }
    };
    let td = vertex_elimination(&sub, &sigma);
    // a clique is always contained in some bag; defensively fall back to
    // the solver order (the stitched width is re-verified either way)
    let Some(root) = td
        .nodes()
        .find(|&b| defer_set.iter().all(|v| td.bag(b).contains(v)))
    else {
        return order
            .iter()
            .copied()
            .filter(|&v| !defer.contains(&v))
            .collect();
    };
    // re-root the tree at `root` and peel in reverse-BFS order, emitting
    // each vertex at the bag closest to the root that contains it
    let nb = td.num_nodes();
    let mut parent_new = vec![usize::MAX; nb];
    let mut seen = vec![false; nb];
    let mut bfs = vec![root];
    seen[root] = true;
    let mut i = 0;
    while i < bfs.len() {
        let b = bfs[i];
        i += 1;
        let mut nbrs: Vec<usize> = td.children(b).to_vec();
        if let Some(p) = td.parent(b) {
            nbrs.push(p);
        }
        for t in nbrs {
            if !seen[t] {
                seen[t] = true;
                parent_new[t] = b;
                bfs.push(t);
            }
        }
    }
    let mut emitted = BitSet::new(verts.len());
    let mut out = Vec::with_capacity(verts.len() - defer.len());
    for &b in bfs.iter().rev() {
        for v in td.bag(b).iter() {
            if defer_set.contains(v) || emitted.contains(v) {
                continue;
            }
            if parent_new[b] != usize::MAX && td.bag(parent_new[b]).contains(v) {
                continue;
            }
            emitted.insert(v);
            out.push(verts[v]);
        }
    }
    // completeness insurance: a valid connected decomposition emits every
    // non-deferred vertex above; anything missed is appended canonically
    for (i, &v) in verts.iter().enumerate() {
        if !emitted.contains(i) && !defer_set.contains(i) {
            out.push(v);
        }
    }
    out
}

/// Leaf-peel order for the biconnected blocks of one connected component:
/// repeatedly detach the canonically-first block sharing exactly one
/// vertex with the remaining blocks (the block–cut tree always has such a
/// leaf), recording that vertex as the block's attachment point.
fn peel_bccs(blocks: Vec<Vec<usize>>, n: usize) -> Vec<(Vec<usize>, Option<usize>)> {
    let k = blocks.len();
    if k == 1 {
        return blocks.into_iter().map(|b| (b, None)).collect();
    }
    let mut occ = vec![0usize; n];
    for b in &blocks {
        for &v in b {
            occ[v] += 1;
        }
    }
    let mut remaining = vec![true; k];
    let mut left = k;
    let mut out = Vec::with_capacity(k);
    while left > 1 {
        let leaf = (0..k).find(|&i| {
            remaining[i] && blocks[i].iter().filter(|&&v| occ[v] >= 2).count() == 1
        });
        let Some(i) = leaf else {
            // defensive: cannot happen for a block–cut tree; merge what is
            // left into one block so every vertex is still solved
            debug_assert!(false, "block-cut structure is not a tree");
            let mut merged = BitSet::new(n);
            for (j, b) in blocks.iter().enumerate() {
                if remaining[j] {
                    for &v in b {
                        merged.insert(v);
                    }
                }
            }
            out.push((merged.to_vec(), None));
            return out;
        };
        let attach = blocks[i].iter().copied().find(|&v| occ[v] >= 2);
        for &v in &blocks[i] {
            occ[v] -= 1;
        }
        out.push((blocks[i].clone(), attach));
        remaining[i] = false;
        left -= 1;
    }
    let i = remaining.iter().position(|&r| r).expect("one block remains");
    out.push((blocks[i].clone(), None));
    out
}

/// Decomposition plan for the irreducible core: connected components →
/// biconnected blocks (leaf-peel order) → clique-separator atoms
/// (creation order). Every solve unit is canonical (sorted vertex lists).
/// An empty core plans nothing.
fn plan_tw(core: &Graph) -> (Vec<Unit<Graph>>, Vec<CompPlan>) {
    let n = core.num_vertices();
    let mut units = Vec::new();
    let mut comps = Vec::new();
    for comp in core.connected_components() {
        let sub_c = induced(core, &comp);
        let mut blocks: Vec<Vec<usize>> = biconnected_components(&sub_c)
            .blocks
            .into_iter()
            .map(|b| b.into_iter().map(|i| comp[i]).collect())
            .collect();
        blocks.sort();
        let many_bccs = blocks.len() > 1;
        let mut bccs = Vec::new();
        for (bverts, attach) in peel_bccs(blocks, n) {
            let atoms: Vec<Vec<usize>> = if bverts.len() >= 4 {
                let sub_b = induced(core, &bverts);
                clique_separator_atoms(&sub_b)
                    .atoms
                    .into_iter()
                    .map(|a| a.into_iter().map(|i| bverts[i]).collect())
                    .collect()
            } else {
                vec![bverts.clone()]
            };
            let kind = if atoms.len() > 1 {
                SeparatorKind::CliqueSeparator
            } else if many_bccs {
                SeparatorKind::CutVertex
            } else {
                SeparatorKind::Component
            };
            let mut unit_ids = Vec::with_capacity(atoms.len());
            for verts in atoms {
                unit_ids.push(units.len());
                let sub = induced(core, &verts);
                let canon = format!("tw;{}", graph_canon(&sub));
                units.push(Unit {
                    verts,
                    kind,
                    work: Work::Search { sub, canon },
                });
            }
            bccs.push(BccPlan {
                verts: bverts,
                attach,
                unit_ids,
            });
        }
        comps.push(CompPlan { bccs });
    }
    (units, comps)
}

/// Stitches the per-unit orderings into one core ordering of width
/// ≤ max unit widths: atoms of each biconnected block are peeled in
/// creation order (deferring what later atoms share), each block is then
/// re-peeled to defer its attachment cut vertex (the root block defers
/// nothing), components concatenate. Peels emit first-eliminated first, so
/// the result is reversed into the workspace's back-to-front convention,
/// in instance indices, with the vertices preprocessing eliminated behind.
fn stitch_tw(
    pre: &Preprocessed,
    comps: &[CompPlan],
    units: &[Unit<Graph>],
    solved: &[Solved],
) -> Vec<usize> {
    let core = &pre.core;
    let mut out = Vec::with_capacity(core.num_vertices());
    for comp in comps {
        for bcc in &comp.bccs {
            let m = bcc.unit_ids.len();
            // the block's ordering, eliminated from the back
            let bcc_order: Vec<usize> = if m == 1 {
                solved[bcc.unit_ids[0]].ordering.clone()
            } else {
                // first-eliminated first while the atoms are peeled
                let mut elim: Vec<usize> = Vec::with_capacity(bcc.verts.len());
                // occurrences of each vertex among the not-yet-peeled atoms
                let mut occ = vec![0usize; core.num_vertices()];
                for &u in &bcc.unit_ids {
                    for &v in &units[u].verts {
                        occ[v] += 1;
                    }
                }
                for &u in &bcc.unit_ids {
                    let unit = &units[u];
                    for &v in &unit.verts {
                        occ[v] -= 1;
                    }
                    let defer: Vec<usize> =
                        unit.verts.iter().copied().filter(|&v| occ[v] > 0).collect();
                    let owned: Vec<usize> = if defer.is_empty() {
                        // emit whatever this atom still owns, in its solver's elimination order
                        solved[u].ordering.iter().rev().copied().collect()
                    } else {
                        peel_ordering(core, &unit.verts, &solved[u].ordering, &defer)
                    };
                    let fresh: Vec<usize> =
                        owned.into_iter().filter(|v| !elim.contains(v)).collect();
                    elim.extend(fresh);
                }
                elim.reverse();
                elim
            };
            let defer: &[usize] = bcc.attach.as_slice();
            out.extend(peel_ordering(core, &bcc.verts, &bcc_order, defer));
        }
    }
    let mut o: Vec<usize> = out.iter().rev().map(|&v| pre.original_of_core[v]).collect();
    o.extend(pre.eliminated.iter().rev());
    o
}

// ---------------------------------------------------------------------------
// ghw pipeline

impl Pipeline for (&Hypergraph, &BbGhwConfig) {
    type Block = Hypergraph;
    type Shape = ();

    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    /// Contained-edge removal, then one unit per hypergraph component of
    /// what is left.
    fn plan(&self, report: &mut SplitReport) -> Option<Plan<Hypergraph, ()>> {
        let (h, n) = (self.0, self.0.num_vertices());
        // contained-edge reduction: e ⊆ f keeps ghw exactly (f's bag covers e,
        // and f replaces e in any λ-cover without growing it)
        let kept: Vec<Vec<usize>> = h
            .uncontained_edges()
            .iter()
            .map(|&e| h.edge(e).to_vec())
            .collect();
        report.contained_edges = h.num_edges() - kept.len();
        let reduced = Hypergraph::from_edges(n, kept.iter().map(|e| e.iter().copied()));
        let comps = hypergraph_components(&reduced);
        if comps.len() <= 1 || h.covered_vertices().is_empty() {
            return None;
        }
        // compact each kept edge into its component's bucket, in kept order:
        // one pass over the edges, however many components there are
        let (mut comp_of, mut pos) = (vec![0; n], vec![0; n]);
        for (c, comp) in comps.iter().enumerate() {
            for (i, &v) in comp.iter().enumerate() {
                comp_of[v] = c;
                pos[v] = i;
            }
        }
        let mut buckets: Vec<Vec<Vec<usize>>> = vec![Vec::new(); comps.len()];
        for e in &kept {
            if let Some(&v) = e.first() {
                buckets[comp_of[v]].push(e.iter().map(|&v| pos[v]).collect());
            }
        }
        let units = comps.into_iter().zip(buckets).map(|(verts, edges)| {
            let (kind, work) = match edges.len() {
                0 => (SeparatorKind::Component, Work::Fixed(0)),
                1 => (SeparatorKind::IsolatedEdge, Work::Fixed(1)),
                _ => {
                    let sub = Hypergraph::from_edges(verts.len(), edges);
                    let canon = format!("ghw;{}", hypergraph_canon(&sub));
                    (SeparatorKind::Component, Work::Search { sub, canon })
                }
            };
            Unit { verts, kind, work }
        });
        Some(Plan {
            units: units.collect(),
            shape: (),
        })
    }

    fn whole(&self, budget: &Budget, threads: usize) -> SearchResult {
        let (h, cfg) = *self;
        match threads {
            1 => bb_ghw_budgeted(h, cfg, budget),
            t => bb_ghw_parallel_budgeted(h, cfg, t, budget),
        }
    }

    fn search(&self, block: &Hypergraph, budget: &Budget) -> SearchResult {
        bb_ghw_budgeted(block, self.1, budget)
    }

    /// Every bag is covered by all of the block's hyperedges.
    fn identity_width(&self, block: &Hypergraph) -> usize {
        block.num_edges().max(1)
    }

    fn witness(&self, width: usize, budget: &Budget) -> (Option<Vec<usize>>, u64) {
        witness_ghw(self.0, width, self.1, budget)
    }

    /// Components are independent in the primal graph: their orderings
    /// concatenate, and the width is the largest block's.
    fn stitch(
        &self,
        _: &Plan<Hypergraph, ()>,
        solved: &[Solved],
        _: &mut usize,
        _: &mut bool,
    ) -> Vec<usize> {
        solved.iter().flat_map(|s| &s.ordering).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SearchLimits;
    use crate::{bb_ghw, bb_tw};
    use ghd_core::EliminationOrdering;
    use ghd_hypergraph::generators::graphs;

    fn cfg() -> BbConfig {
        BbConfig::default()
    }

    /// Four Mycielski(3) blocks: two glued on the edge {0, 1} (a clique
    /// separator), one attached at the cut vertex 4, one disjoint. The
    /// Grötzsch graph is triangle-free with minimum degree 3, so none of
    /// its vertices are (almost) simplicial and every block survives
    /// preprocessing intact.
    fn blocky_graph() -> Graph {
        let m = graphs::mycielski(3);
        let mn = m.num_vertices(); // 11
        let mut g = Graph::new(41);
        for (u, v) in m.edges() {
            g.add_edge(u, v);
        }
        // b glued on the clique-separator edge {0, 1} of a
        let bm: Vec<usize> = (0..mn)
            .map(|i| match i {
                0 => 0,
                1 => 1,
                k => 9 + k,
            })
            .collect();
        for (u, v) in m.edges() {
            g.add_edge(bm[u], bm[v]);
        }
        // c attached at the cut vertex 4
        let cm: Vec<usize> = (0..mn).map(|i| if i == 0 { 4 } else { 19 + i }).collect();
        for (u, v) in m.edges() {
            g.add_edge(cm[u], cm[v]);
        }
        // d: a disjoint component
        for (u, v) in m.edges() {
            g.add_edge(30 + u, 30 + v);
        }
        g
    }

    #[test]
    fn split_tw_matches_monolithic_bitwise() {
        let g = blocky_graph();
        let mono = bb_tw(&g, &cfg());
        for threads in [1, 2, 4] {
            let s = split_tw(&g, &cfg(), threads, None);
            assert!(s.result.exact && mono.exact);
            assert_eq!(s.result.upper_bound, mono.upper_bound, "threads {threads}");
            assert_eq!(s.result.ordering, mono.ordering, "threads {threads}");
            assert!(s.report.split);
            assert!(s.report.blocks.len() >= 3, "{:?}", s.report.blocks);
        }
    }

    #[test]
    fn split_tw_on_random_graphs_matches_widths() {
        for seed in 0..6u64 {
            let g = graphs::gnm_random(18, 30, seed);
            let mono = bb_tw(&g, &cfg());
            let s = split_tw(&g, &cfg(), 2, None);
            assert!(s.result.exact && mono.exact, "seed {seed}");
            assert_eq!(s.result.upper_bound, mono.upper_bound, "seed {seed}");
            assert_eq!(s.result.ordering, mono.ordering, "seed {seed}");
        }
    }

    #[test]
    fn stitched_ordering_realises_the_width() {
        // force the stitched path by exhausting the witness budget is
        // flaky; instead verify the stitch directly on an anytime-style
        // run: solve blocks, stitch, and evaluate
        let g = blocky_graph();
        let s = split_tw(&g, &cfg(), 1, None);
        let sigma = EliminationOrdering::new(s.result.ordering.clone().unwrap()).unwrap();
        let w = TwEvaluator::new(&g).width(&sigma);
        assert_eq!(w, s.result.upper_bound);
    }

    #[test]
    fn split_reports_separator_kinds() {
        let g = blocky_graph();
        let s = split_tw(&g, &cfg(), 1, None);
        let kinds: Vec<SeparatorKind> = s.report.blocks.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&SeparatorKind::CliqueSeparator), "{kinds:?}");
    }

    #[test]
    fn split_tw_fully_reduced_graphs() {
        let g = graphs::path(12);
        let mono = bb_tw(&g, &cfg());
        let s = split_tw(&g, &cfg(), 2, None);
        assert_eq!(s.result.upper_bound, 1);
        assert!(s.result.exact);
        assert_eq!(s.result.ordering, mono.ordering);
        assert!(s.report.eliminated > 0);
        assert!(s.report.rounds > 0);
    }

    #[test]
    fn split_tw_single_block_falls_back() {
        let g = graphs::queen(4);
        let mono = bb_tw(&g, &cfg());
        let s = split_tw(&g, &cfg(), 2, None);
        assert!(!s.report.split);
        assert_eq!(s.result.upper_bound, mono.upper_bound);
        assert_eq!(s.result.ordering, mono.ordering);
    }

    #[test]
    fn split_ghw_matches_monolithic_bitwise() {
        // two disjoint cycle hypergraphs plus an isolated edge
        let mut edges: Vec<Vec<usize>> = Vec::new();
        for c in 0..2 {
            let base = c * 5;
            for i in 0..5 {
                edges.push(vec![base + i, base + (i + 1) % 5]);
            }
        }
        edges.push(vec![10, 11, 12]);
        let h = Hypergraph::from_edges(13, edges);
        let gcfg = BbGhwConfig::default();
        let mono = bb_ghw(&h, &gcfg);
        for threads in [1, 2, 4] {
            let s = split_ghw(&h, &gcfg, threads, None);
            assert!(s.result.exact && mono.exact);
            assert_eq!(s.result.upper_bound, mono.upper_bound);
            assert_eq!(s.result.ordering, mono.ordering, "threads {threads}");
            assert!(s.report.split);
            assert!(s
                .report
                .blocks
                .iter()
                .any(|b| b.kind == SeparatorKind::IsolatedEdge));
        }
    }

    #[test]
    fn split_ghw_contained_edges_are_counted() {
        let h = Hypergraph::from_edges(
            6,
            [vec![0, 1, 2], vec![0, 1], vec![3, 4], vec![4, 5]],
        );
        let s = split_ghw(&h, &BbGhwConfig::default(), 1, None);
        assert_eq!(s.report.contained_edges, 1);
        assert!(s.result.exact);
    }

    #[test]
    fn split_respects_cancellation() {
        use crate::common::CancelToken;
        let token = CancelToken::arm();
        token.cancel();
        let mut c = cfg();
        c.limits = SearchLimits::unlimited().with_cancel(token);
        let g = blocky_graph();
        let s = split_tw(&g, &c, 2, None);
        // a pre-cancelled run stays sound: the emitted ordering realises
        // no more than the claimed upper bound
        let sigma = EliminationOrdering::new(s.result.ordering.clone().unwrap()).unwrap();
        let w = TwEvaluator::new(&g).width(&sigma);
        assert!(s.result.upper_bound >= s.result.lower_bound);
        assert!(w <= s.result.upper_bound, "{w} > {}", s.result.upper_bound);
    }

    #[test]
    fn peel_ordering_defers_the_separator() {
        // K4 on {0,1,2,3}: defer the clique {2,3}
        let mut g = Graph::new(4);
        for i in 0..4 {
            for j in i + 1..4 {
                g.add_edge(i, j);
            }
        }
        let out = peel_ordering(&g, &[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 3]);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }
}
