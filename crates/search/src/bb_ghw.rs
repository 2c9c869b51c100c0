//! Algorithm BB-ghw (Chapter 8, Fig 8.3): branch and bound over elimination
//! orderings for the generalized hypertree width, justified by Theorem 3
//! (some ordering attains `ghw` under exact set covering), and A\*-ghw
//! (Chapter 9, Fig 9.1), the best-first search over the same measure.
//!
//! Per state the cost is the largest *exact* set cover of a bucket bag so
//! far; the heuristic is tw-ksc-width (Fig 8.1) on the residual graph; the
//! reductions of §8.2 (simplicial vertices) and the GHW-safe part of pruning
//! rule 2 (§8.3, non-adjacent swaps) shrink the tree, and the GHW analogue
//! of PR1 closes subtrees whose residual vertex set is already coverable
//! within the current cost.

use crate::astar;
use crate::bb::{self, Completion, Measure, Root};
use crate::common::{Budget, SearchLimits, SearchResult, Telemetry};
use crate::interner::StateInterner;
use crate::rules::{find_simplicial, pr2_allowed_children, swappable_ghw};
use crate::sharded::ShardedInterner;
use crate::steal::StealConfig;
use ghd_bounds::ksc::KscTable;
use ghd_bounds::lower::{tw_lower_bound_elim, LbScratch};
use ghd_bounds::upper::ghw_upper_bound;
use ghd_core::setcover::{
    exact_cover_size_capped, greedy_cover_size, CacheStats, CoverCache, CoverMethod,
    StripedCoverCache,
};
use ghd_hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};
use ghd_prng::rngs::StdRng;

/// Configuration for [`bb_ghw`].
#[derive(Clone, Debug)]
pub struct BbGhwConfig {
    /// Resource limits (global per run — parallel workers share them).
    pub limits: SearchLimits,
    /// Apply the simplicial-vertex reduction (§8.2).
    pub use_reductions: bool,
    /// Apply the non-adjacent-swap pruning rule (§8.3).
    pub use_pr2: bool,
    /// Bag cover solver. Exactness of the search requires
    /// [`CoverMethod::Exact`] (Theorem 3); `Greedy` turns this into a fast
    /// upper-bound heuristic.
    pub cover: CoverMethod,
    /// Memoize per-bag covers in a [`CoverCache`]. The cache stores only
    /// proven facts, so results are identical on/off; permutation-heavy
    /// search trees revisit bags constantly and hit rates are high.
    pub use_cover_cache: bool,
    /// Work-stealing runtime knobs ([`bb_ghw_parallel`] only; sequential
    /// runs ignore it).
    pub steal: StealConfig,
}

impl Default for BbGhwConfig {
    fn default() -> Self {
        BbGhwConfig {
            limits: SearchLimits::unlimited(),
            use_reductions: true,
            use_pr2: true,
            cover: CoverMethod::Exact,
            use_cover_cache: true,
            steal: StealConfig::default(),
        }
    }
}

/// Interns `key` into the worker's interner; `None` (with the sticky
/// overflow flag raised) when its id space is exhausted. Free function so
/// it can borrow the interner while the caller holds `&mut` to the cache.
fn try_intern_key(interner: &mut StateInterner, overflow: &mut bool, key: &[u64]) -> Option<u32> {
    match interner.try_intern(key) {
        Some((id, _)) => Some(id),
        None => {
            *overflow = true;
            None
        }
    }
}

/// The ghw measure: a bag costs the size of its set cover (exact under
/// [`CoverMethod::Exact`], Theorem 3), taken before its vertex is
/// eliminated.
struct Ghw<'a> {
    h: &'a Hypergraph,
    cfg: &'a BbGhwConfig,
    primal: Graph,
    /// Vertices in some hyperedge; the others need no cover support.
    covered: BitSet,
    /// Prefix-sum table answering k-set-cover queries for `h`.
    ksc: KscTable,
    /// Cover store shared by the workers of a parallel run (`None`
    /// otherwise): exact bag covers go through it so every worker reuses
    /// every other worker's proven facts.
    striped: Option<StripedCoverCache>,
}

/// One BB-ghw worker's scratch buffers, memos and degradation flags.
struct GhwWorker {
    bag: BitSet,
    /// Scratch for the PR1 target (`alive ∩ covered`).
    target: BitSet,
    /// Reusable buffers for the residual treewidth lower bound.
    lb_scratch: LbScratch,
    /// Transposition cache for per-bag covers (`None` = disabled).
    cache: Option<CoverCache>,
    /// Canonical ids for the cache's targets, routing it onto its dense
    /// store (a [`ShardedInterner`] shard in a parallel run).
    interner: StateInterner,
    /// This worker's hit/miss attribution of the shared store's queries.
    shared_stats: CacheStats,
    /// Set when a capped cover exhausted its budget: the result may no
    /// longer be proven optimal.
    degraded: bool,
    /// Set when the interner's worker-local id space ran out. Checked in
    /// every build mode: rather than wrap ids into another worker's range,
    /// the worker folds its remaining work into the expiry floor, like a
    /// second fault, so bounds stay sound and `exact` is withdrawn.
    interner_overflow: bool,
}

impl<'a> Ghw<'a> {
    fn new(h: &'a Hypergraph, cfg: &'a BbGhwConfig) -> Self {
        Ghw {
            h,
            cfg,
            primal: h.primal_graph(),
            covered: h.covered_vertices(),
            ksc: KscTable::new(h),
            striped: None,
        }
    }

    fn worker_with(&self, interner: StateInterner) -> GhwWorker {
        let n = self.h.num_vertices();
        GhwWorker {
            bag: BitSet::new(n),
            target: BitSet::new(n),
            lb_scratch: LbScratch::new(),
            cache: self.cfg.use_cover_cache.then(CoverCache::new),
            interner,
            shared_stats: CacheStats::default(),
            degraded: false,
            interner_overflow: false,
        }
    }

    /// Cover size of `w.bag` (already restricted to covered vertices),
    /// capped at the incumbent: any value ≥ `ub` prunes the child
    /// identically, so `min(true size, ub)` is all the search needs — and
    /// the cap prunes the set-cover branch and bound enormously. The second
    /// component is `false` iff the cover search exhausted its internal
    /// budget and the size is only an upper estimate.
    fn bag_cover(&self, w: &mut GhwWorker, ub: usize) -> (usize, bool) {
        let h = self.h;
        let greedy = |bag: &BitSet| greedy_cover_size::<StdRng>(bag, h, None);
        match (self.cfg.cover, &self.striped, w.cache.as_mut()) {
            (CoverMethod::Exact, Some(shared), _) => {
                let (s, ok, hit) = shared.exact_cover_size_capped(&w.bag, h, ub);
                if hit {
                    w.shared_stats.hits += 1;
                } else {
                    w.shared_stats.misses += 1;
                }
                (s, ok)
            }
            (CoverMethod::Exact, None, Some(c)) => {
                match try_intern_key(&mut w.interner, &mut w.interner_overflow, w.bag.blocks()) {
                    Some(key) => c.exact_cover_size_capped_interned(key, &w.bag, h, ub),
                    // id space exhausted: compute uncached — the value is
                    // identical, and the search abandons this worker at
                    // its next node
                    None => exact_cover_size_capped(&w.bag, h, ub),
                }
            }
            (CoverMethod::Exact, None, None) => exact_cover_size_capped(&w.bag, h, ub),
            (CoverMethod::Greedy, _, Some(c)) => {
                match try_intern_key(&mut w.interner, &mut w.interner_overflow, w.bag.blocks()) {
                    Some(key) => (c.greedy_cover_size_interned(key, &w.bag, h), true),
                    None => (greedy(&w.bag), true),
                }
            }
            (CoverMethod::Greedy, _, None) => (greedy(&w.bag), true),
        }
    }
}

impl Measure for Ghw<'_> {
    type Worker = GhwWorker;

    fn graph(&self) -> &Graph {
        &self.primal
    }

    fn worker(&self) -> GhwWorker {
        self.worker_with(StateInterner::for_vertices(self.h.num_vertices()))
    }

    /// Sets up the shared striped cover store and hands each worker its own
    /// interner shard, so the hot per-node path stays contention-free.
    fn workers(&mut self, n: usize) -> Vec<GhwWorker> {
        self.striped = self
            .cfg
            .use_cover_cache
            .then(|| StripedCoverCache::new((n * 4).next_power_of_two().min(64)));
        let shards = ShardedInterner::for_vertices(n, self.h.num_vertices()).split();
        shards.into_iter().map(|s| self.worker_with(s)).collect()
    }

    fn reduction(&self, eg: &EliminationGraph, _f: usize) -> Option<usize> {
        let on = self.cfg.use_reductions;
        on.then(|| find_simplicial(eg)).flatten()
    }

    fn pr2_filter(&self, eg: &EliminationGraph, v: usize) -> Option<BitSet> {
        let on = self.cfg.use_pr2;
        on.then(|| pr2_allowed_children(eg, v, swappable_ghw))
    }

    /// PR1 analogue: any completion's bags sit inside the alive set, so its
    /// exact-cover width is ≤ cover(alive); greedy gives a safe bound. The
    /// memoized value is identical to the uncached call: the cache stores
    /// the same deterministic first-maximum greedy.
    fn completion(&self, w: &mut GhwWorker, eg: &EliminationGraph, g: usize) -> Completion {
        if eg.num_alive() == 0 {
            return Completion::Leaf(g.max(1));
        }
        w.target.copy_from(eg.alive());
        w.target.intersect_with(&self.covered);
        let interned = match w.cache.as_mut() {
            Some(c) => try_intern_key(&mut w.interner, &mut w.interner_overflow, w.target.blocks())
                .map(|key| c.greedy_cover_size_interned(key, &w.target, self.h)),
            None => None,
        };
        Completion::Within(
            interned.unwrap_or_else(|| greedy_cover_size::<StdRng>(&w.target, self.h, None)),
        )
    }

    fn eliminate(
        &self,
        w: &mut GhwWorker,
        eg: &mut EliminationGraph,
        v: usize,
        ub: usize,
        telemetry: &mut Telemetry,
    ) -> usize {
        // vertices in no hyperedge are unconstrained and need no cover
        // support, so the bag is restricted to the covered set up front
        w.bag.copy_from(eg.neighbors(v));
        w.bag.insert(v);
        w.bag.intersect_with(&self.covered);
        let (k, cover_exact) = self.bag_cover(w, ub);
        if !cover_exact {
            w.degraded = true;
            telemetry.prune(|p| p.capped_covers += 1);
        }
        eg.eliminate(v);
        k
    }

    /// The treewidth bound on the residual graph lifted through the
    /// k-set-cover bound (Fig 8.1): the value of `tw_ksc_width(h, &r,
    /// tw_lower_bound(&r, None))` on `r = eg.to_graph()`, without
    /// materialising `r` — the treewidth bound runs on the elimination
    /// graph and the k-set-cover answer comes from the prefix-sum table.
    fn node_lb(&self, w: &mut GhwWorker, eg: &EliminationGraph) -> usize {
        if eg.num_alive() == 0 {
            return 0;
        }
        let tw_lb = tw_lower_bound_elim::<StdRng>(eg, None, &mut w.lb_scratch);
        self.ksc.bound(tw_lb + 1)
    }

    /// With `CoverMethod::Greedy` or a capped-out cover, g overestimates and
    /// f is no longer a true bound.
    fn floor_sound(&self, w: &GhwWorker) -> bool {
        self.cfg.cover == CoverMethod::Exact && !w.degraded
    }

    fn abandoned(&self, w: &GhwWorker) -> bool {
        w.interner_overflow
    }

    /// Attributes the worker's shared-store queries to it, so merged
    /// hits/misses equal the sum over `worker_caches` exactly.
    fn finish(&self, w: &GhwWorker, telemetry: &mut Telemetry) -> Option<CacheStats> {
        let local = w.cache.as_ref().map(|c| c.stats());
        if let Some(mut attributed) = local {
            attributed.hits += w.shared_stats.hits;
            attributed.misses += w.shared_stats.misses;
            telemetry.cache(attributed);
        }
        let overflow = w.interner_overflow;
        telemetry.note(|s| s.interner_overflow |= overflow);
        local
    }

    /// The shared store's counters plus every local memo's: hits, misses
    /// and evictions sum; `entries` is a gauge and takes the maximum.
    fn cover_total(&self, locals: &[CacheStats]) -> Option<CacheStats> {
        let mut total = match &self.striped {
            Some(s) => s.stats(),
            None if locals.is_empty() => return None,
            None => CacheStats::default(),
        };
        for l in locals {
            total.absorb_parallel(l);
        }
        Some(total)
    }

    fn state_bytes(&self, workers: &[GhwWorker]) -> usize {
        let cache = |w: &GhwWorker| w.cache.as_ref().map_or(0, CoverCache::bytes);
        workers.iter().map(|w| w.interner.bytes() + cache(w)).sum()
    }
}

fn root_lb(h: &Hypergraph) -> usize {
    ghd_bounds::ksc::ghw_lower_bound::<StdRng>(h, None)
}

fn root(h: &Hypergraph) -> Root {
    Root::new(h.num_vertices(), root_lb(h), ghw_upper_bound::<StdRng>(h, None))
}

/// Computes the generalized hypertree width of `h` by branch and bound
/// (Fig 8.3). With [`CoverMethod::Exact`] and no limits the result is exact;
/// anytime otherwise — on expiry the lower bound keeps the minimum f-value
/// proven over the unexplored frontier rather than collapsing to the root
/// heuristic.
pub fn bb_ghw(h: &Hypergraph, cfg: &BbGhwConfig) -> SearchResult {
    let budget = Budget::new(&cfg.limits);
    bb_ghw_budgeted(h, cfg, &budget)
}

/// [`bb_ghw`] drawing on an externally owned [`Budget`]: the split layer
/// solves many blocks against one shared deadline / node pool / cancel
/// token, so the budget must outlive any single search. `elapsed` in the
/// result is measured from the budget's creation, not this call.
pub fn bb_ghw_budgeted(h: &Hypergraph, cfg: &BbGhwConfig, budget: &Budget) -> SearchResult {
    bb::solve(root(h), budget, || Ghw::new(h, cfg))
}

/// Computes the generalized hypertree width of `h` with A\* under the
/// default rules (exact covers through the cover cache). Exact when it
/// terminates within limits; otherwise the maximum visited f-value is
/// reported as an anytime lower bound (the thesis notes A\*-ghw "returned
/// improved lower bounds" for several instances).
pub fn astar_ghw(h: &Hypergraph, limits: SearchLimits) -> SearchResult {
    let budget = Budget::new(&limits);
    let cfg = BbGhwConfig::default();
    astar::solve(root(h), &budget, || Ghw::new(h, &cfg))
}

/// Reconstructs the ordering [`bb_ghw`] reports for a *proven* `width`; the
/// ghw twin of [`crate::bb_tw::witness_tw`].
pub fn witness_ghw(
    h: &Hypergraph,
    width: usize,
    cfg: &BbGhwConfig,
    budget: &Budget,
) -> (Option<Vec<usize>>, u64) {
    let upper = ghw_upper_bound::<StdRng>(h, None);
    bb::witness(h.num_vertices(), upper, || root_lb(h), width, budget, || {
        Ghw::new(h, cfg)
    })
}

/// Work-stealing parallel BB-ghw; the ghw twin of
/// [`crate::bb_tw::bb_tw_parallel`]. Workers also share one striped store
/// of proven covers ([`StripedCoverCache`]) and keep private interner
/// shards ([`ShardedInterner`]). Under [`CoverMethod::Exact`] every cover
/// fact is exact, so cached, uncached and striped runs agree bit for bit.
/// The merged [`SearchResult::cover_cache`] sums counters and maxes the
/// `entries` gauge; per-worker stats are in
/// [`crate::SearchStats::worker_caches`].
pub fn bb_ghw_parallel(h: &Hypergraph, cfg: &BbGhwConfig, threads: usize) -> SearchResult {
    let budget = Budget::new(&cfg.limits);
    bb::solve_parallel(root(h), &budget, threads, cfg.steal.depth, || {
        Ghw::new(h, cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_core::bucket::ghd_from_ordering;
    use ghd_core::EliminationOrdering;
    use ghd_hypergraph::generators::hypergraphs;

    fn exact_ghw(h: &Hypergraph) -> usize {
        let r = bb_ghw(h, &BbGhwConfig::default());
        assert!(r.exact, "BB-ghw did not complete");
        r.upper_bound
    }

    #[test]
    fn acyclic_hypergraphs_have_ghw_1() {
        let h = hypergraphs::acyclic_chain(5, 3, 1);
        assert_eq!(exact_ghw(&h), 1);
    }

    #[test]
    fn clique_hypergraph_ghw_is_ceil_half() {
        for n in [4, 5, 6] {
            let h = hypergraphs::clique(n);
            assert_eq!(exact_ghw(&h), n.div_ceil(2), "clique_{n}");
        }
    }

    #[test]
    fn fig_2_11_hypergraph_has_ghw_2() {
        // Example 5: a cyclic join of three ternary edges; ghw = 2
        // (not acyclic, so > 1; Fig 2.7 exhibits width 2).
        let h = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(exact_ghw(&h), 2);
    }

    #[test]
    fn small_adder_ghw_is_at_most_2() {
        let h = hypergraphs::adder(4);
        let w = exact_ghw(&h);
        assert!((1..=2).contains(&w), "adder ghw = {w}");
    }

    #[test]
    fn returned_ordering_realises_the_width() {
        let h = hypergraphs::clique(6);
        let r = bb_ghw(&h, &BbGhwConfig::default());
        let sigma = EliminationOrdering::new(r.ordering.clone().unwrap()).unwrap();
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        ghd.verify(&h).unwrap();
        assert_eq!(ghd.width(), r.upper_bound);
    }

    #[test]
    fn ablations_agree_on_optimum() {
        for seed in 0..5u64 {
            let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
            let base = exact_ghw(&h);
            for (red, pr2) in [(false, true), (true, false), (false, false)] {
                let cfg = BbGhwConfig {
                    use_reductions: red,
                    use_pr2: pr2,
                    ..BbGhwConfig::default()
                };
                let r = bb_ghw(&h, &cfg);
                assert!(r.exact);
                assert_eq!(r.upper_bound, base, "seed {seed} red={red} pr2={pr2}");
            }
        }
    }

    #[test]
    fn greedy_cover_mode_upper_bounds_exact() {
        for seed in 0..5u64 {
            let h = hypergraphs::random_hypergraph(12, 8, 4, seed);
            let exact = exact_ghw(&h);
            let r = bb_ghw(
                &h,
                &BbGhwConfig {
                    cover: CoverMethod::Greedy,
                    ..BbGhwConfig::default()
                },
            );
            assert!(r.upper_bound >= exact, "seed {seed}");
        }
    }

    #[test]
    fn work_stealing_is_width_and_ordering_identical() {
        for seed in 0..5u64 {
            let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
            let seq = bb_ghw(&h, &BbGhwConfig::default());
            for threads in [1, 2, 4, 8] {
                let par = bb_ghw_parallel(&h, &BbGhwConfig::default(), threads);
                assert!(par.exact, "seed {seed} threads {threads}");
                assert_eq!(
                    par.upper_bound, seq.upper_bound,
                    "seed {seed} threads {threads}"
                );
                // witness reconstruction makes the full ordering
                // schedule-independent, not just the width
                assert_eq!(par.ordering, seq.ordering, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn cover_cache_reports_hits_and_does_not_change_widths() {
        for seed in 0..4u64 {
            let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
            let with = bb_ghw(&h, &BbGhwConfig::default());
            let without = bb_ghw(
                &h,
                &BbGhwConfig {
                    use_cover_cache: false,
                    ..BbGhwConfig::default()
                },
            );
            assert_eq!(with.upper_bound, without.upper_bound, "seed {seed}");
            assert_eq!(with.exact, without.exact, "seed {seed}");
            assert_eq!(with.ordering, without.ordering, "seed {seed}");
            assert_eq!(with.nodes_expanded, without.nodes_expanded, "seed {seed}");
            assert!(without.cover_cache.is_none());
            if with.nodes_expanded > 0 {
                let stats = with.cover_cache.expect("cache enabled by default");
                assert!(stats.misses > 0, "seed {seed}: {stats:?}");
            }
        }
    }

    /// Regression test for double-counting under work stealing: every
    /// cache query must be attributed to exactly one executing worker, so
    /// the merged counters equal the sum over `worker_caches` exactly. A
    /// per-*task* snapshot of the counters (the natural bug: a stolen
    /// task's queries reported by both thief and victim) breaks this
    /// identity by counting stolen tasks' traffic twice.
    #[test]
    fn parallel_cache_merge_attributes_each_query_exactly_once() {
        let h = hypergraphs::grid2d(5);
        let r = bb_ghw_parallel(
            &h,
            &BbGhwConfig {
                limits: SearchLimits::unlimited().stats(true),
                ..BbGhwConfig::default()
            },
            4,
        );
        let merged = r.cover_cache.expect("cache enabled by default");
        let stats = r.stats.expect("stats requested");
        let workers = &stats.worker_caches;
        assert!(!workers.is_empty());
        assert_eq!(merged.hits, workers.iter().map(|c| c.hits).sum::<u64>());
        assert_eq!(merged.misses, workers.iter().map(|c| c.misses).sum::<u64>());
        // stripe-store evictions have no single owning worker, so merged
        // can only exceed the per-worker (local memo) sum
        assert!(merged.evictions >= workers.iter().map(|c| c.evictions).sum::<u64>());
        // the entries gauge covers at least the largest single store
        assert!(merged.entries >= workers.iter().map(|c| c.entries).max().unwrap());
        // steal accounting: every published task runs exactly once, plus
        // the seed task, and counters belong to the executing worker
        let steals = &stats.worker_steals;
        assert!(!steals.is_empty());
        let published: u64 = steals.iter().map(|s| s.published).sum();
        let executed: u64 = steals.iter().map(|s| s.executed).sum();
        assert_eq!(executed, published + 1, "seed + each publication once");
        assert_eq!(steals.iter().map(|s| s.retried).sum::<u64>(), 0);
    }

    #[test]
    fn anytime_mode_reports_consistent_bounds() {
        let h = hypergraphs::grid2d(6);
        let r = bb_ghw(
            &h,
            &BbGhwConfig {
                limits: SearchLimits::with_nodes(100),
                ..BbGhwConfig::default()
            },
        );
        assert!(r.lower_bound <= r.upper_bound);
        assert!(
            r.nodes_expanded <= 100,
            "budget overrun: {}",
            r.nodes_expanded
        );
    }

    #[test]
    fn stats_collection_is_behaviourally_free() {
        for seed in 0..3u64 {
            let h = hypergraphs::random_hypergraph(10, 7, 3, seed);
            for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(200)] {
                let off = bb_ghw(
                    &h,
                    &BbGhwConfig {
                        limits: limits.clone(),
                        ..BbGhwConfig::default()
                    },
                );
                let on = bb_ghw(
                    &h,
                    &BbGhwConfig {
                        limits: limits.stats(true),
                        ..BbGhwConfig::default()
                    },
                );
                assert_eq!(on.upper_bound, off.upper_bound, "seed {seed}");
                assert_eq!(on.lower_bound, off.lower_bound, "seed {seed}");
                assert_eq!(on.ordering, off.ordering, "seed {seed}");
                assert_eq!(on.nodes_expanded, off.nodes_expanded, "seed {seed}");
                assert!(off.stats.is_none());
                let stats = on.stats.expect("stats requested");
                assert!(!stats.incumbents.is_empty(), "seed {seed}");
            }
        }
    }
}
