//! Branch and bound for treewidth (§4.4.1) — the baseline exact algorithm
//! in the style of QuickBB \[24\] / BB-tw \[5\], searching the elimination-
//! ordering tree depth-first with reductions, PR1 and PR2 — and A\*-tw
//! (Chapter 5, Fig 5.1), searching it best-first with the same rules. The
//! searches themselves are the engines in `bb.rs` and `astar.rs`; this
//! module supplies the treewidth measure.

use crate::astar;
use crate::bb::{self, Completion, Measure, Root};
use crate::common::{Budget, SearchLimits, SearchResult, Telemetry};
use crate::rules::{find_reduction_tw, pr2_allowed_children, swappable_tw};
use crate::steal::StealConfig;
use ghd_bounds::lower::{minor_min_width_elim, tw_lower_bound, tw_lower_bound_elim, LbScratch};
use ghd_bounds::upper::tw_upper_bound;
use ghd_hypergraph::{BitSet, EliminationGraph, Graph};
use ghd_prng::rngs::StdRng;

/// Per-node lower bound heuristic selection (for the ablation benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LbMode {
    /// No per-node bound (PR1 and the incumbent still prune).
    None,
    /// minor-min-width only (QuickBB's choice).
    Mmw,
    /// max(minor-min-width, minor-γ_R) (the thesis' A\*-tw choice).
    #[default]
    MmwGammaR,
}

/// Configuration for [`bb_tw`].
#[derive(Clone, Debug)]
pub struct BbConfig {
    /// Resource limits (global per run — parallel workers share them).
    pub limits: SearchLimits,
    /// Apply the simplicial / strongly-almost-simplicial reductions.
    pub use_reductions: bool,
    /// Apply pruning rule 2.
    pub use_pr2: bool,
    /// Per-node lower bound heuristic.
    pub lb_mode: LbMode,
    /// Work-stealing knobs (used by [`bb_tw_parallel`]).
    pub steal: StealConfig,
}

impl Default for BbConfig {
    fn default() -> Self {
        BbConfig {
            limits: SearchLimits::unlimited(),
            use_reductions: true,
            use_pr2: true,
            lb_mode: LbMode::default(),
            steal: StealConfig::default(),
        }
    }
}

/// The treewidth measure: a bag costs its size − 1, which is the degree
/// `eliminate` returns.
struct Tw<'a> {
    g: &'a Graph,
    cfg: &'a BbConfig,
}

impl Measure for Tw<'_> {
    /// Reusable buffers for the per-node lower bound heuristics.
    type Worker = LbScratch;

    fn graph(&self) -> &Graph {
        self.g
    }

    fn worker(&self) -> LbScratch {
        LbScratch::new()
    }

    fn reduction(&self, eg: &EliminationGraph, f: usize) -> Option<usize> {
        let on = self.cfg.use_reductions;
        on.then(|| find_reduction_tw(eg, f)).flatten()
    }

    fn pr2_filter(&self, eg: &EliminationGraph, v: usize) -> Option<BitSet> {
        let on = self.cfg.use_pr2;
        on.then(|| pr2_allowed_children(eg, v, swappable_tw))
    }

    /// PR1 (§4.4.5): completing in any order yields width ≤ max(g, n′ − 1).
    fn completion(&self, _: &mut LbScratch, eg: &EliminationGraph, _g: usize) -> Completion {
        Completion::Within(eg.num_alive().saturating_sub(1))
    }

    fn eliminate(
        &self,
        _: &mut LbScratch,
        eg: &mut EliminationGraph,
        v: usize,
        _ub: usize,
        _: &mut Telemetry,
    ) -> usize {
        eg.eliminate(v)
    }

    fn node_lb(&self, scratch: &mut LbScratch, eg: &EliminationGraph) -> usize {
        // the `_elim` variants compute the same values as running the bound
        // on `eg.to_graph()` but reuse the scratch buffers
        match self.cfg.lb_mode {
            LbMode::None => 0,
            LbMode::Mmw => minor_min_width_elim::<StdRng>(eg, None, scratch),
            LbMode::MmwGammaR => tw_lower_bound_elim::<StdRng>(eg, None, scratch),
        }
    }
}

fn root_lb(g: &Graph) -> usize {
    tw_lower_bound::<StdRng>(g, None)
}

fn root(g: &Graph) -> Root {
    Root::new(g.num_vertices(), root_lb(g), tw_upper_bound::<StdRng>(g, None))
}

/// Computes the treewidth of `g` by branch and bound. Anytime: with limits,
/// returns the best upper bound found, and a lower bound tightened by the
/// minimum f-value of the unexplored frontier (`exact == false` unless
/// proven).
pub fn bb_tw(g: &Graph, cfg: &BbConfig) -> SearchResult {
    let budget = Budget::new(&cfg.limits);
    bb_tw_budgeted(g, cfg, &budget)
}

/// [`bb_tw`] drawing on an externally owned [`Budget`]: the split layer
/// solves many blocks against one shared deadline / node pool / cancel
/// token, so the budget must outlive any single search. `elapsed` in the
/// result is measured from the budget's creation, not this call.
pub fn bb_tw_budgeted(g: &Graph, cfg: &BbConfig, budget: &Budget) -> SearchResult {
    bb::solve(root(g), budget, || Tw { g, cfg })
}

/// Computes the treewidth of `g` with A\* under the default rules (min-fill
/// upper bound, minor-min-width / minor-γ_R heuristic, reductions, PR2).
/// Exact when it terminates within limits; otherwise an anytime lower bound
/// (§5.3) plus the heuristic upper bound are reported.
pub fn astar_tw(g: &Graph, limits: SearchLimits) -> SearchResult {
    let budget = Budget::new(&limits);
    let cfg = BbConfig::default();
    astar::solve(root(g), &budget, || Tw { g, cfg: &cfg })
}

/// Reconstructs the ordering [`bb_tw`] reports for a *proven* `width` (the
/// split layer's route to results bit-identical to the monolithic search):
/// the sequential DFS rerun with `ub = width + 1` up to its first
/// improvement. Returns it (`None` if the budget expired first) with the
/// nodes the rerun expanded.
pub fn witness_tw(
    g: &Graph,
    width: usize,
    cfg: &BbConfig,
    budget: &Budget,
) -> (Option<Vec<usize>>, u64) {
    let upper = tw_upper_bound::<StdRng>(g, None);
    bb::witness(g.num_vertices(), upper, || root_lb(g), width, budget, || Tw { g, cfg })
}

/// Work-stealing parallel BB-tw (`0` threads = all cores) on one shared
/// incumbent and [`Budget`]. With enough budget the width *and ordering*
/// are bit-identical to [`bb_tw`] for every thread count and schedule; a
/// task that faults twice degrades the run to sound anytime bounds.
pub fn bb_tw_parallel(g: &Graph, cfg: &BbConfig, threads: usize) -> SearchResult {
    let budget = Budget::new(&cfg.limits);
    bb::solve_parallel(root(g), &budget, threads, cfg.steal.depth, || Tw { g, cfg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghd_core::eval::TwEvaluator;
    use ghd_core::EliminationOrdering;
    use ghd_hypergraph::generators::graphs;

    fn exact_tw(g: &Graph) -> usize {
        let r = bb_tw(g, &BbConfig::default());
        assert!(r.exact, "search did not complete");
        r.upper_bound
    }

    #[test]
    fn treewidth_of_basic_families() {
        assert_eq!(exact_tw(&graphs::path(8)), 1);
        assert_eq!(exact_tw(&graphs::cycle(8)), 2);
        assert_eq!(exact_tw(&graphs::complete(6)), 5);
    }

    #[test]
    fn treewidth_of_grids_matches_table_5_2() {
        for n in 2..=4 {
            assert_eq!(exact_tw(&graphs::grid(n)), n, "grid{n}");
        }
    }

    #[test]
    fn returned_ordering_realises_the_width() {
        let g = graphs::grid(4);
        let r = bb_tw(&g, &BbConfig::default());
        let sigma = EliminationOrdering::new(r.ordering.clone().unwrap()).unwrap();
        let w = TwEvaluator::new(&g).width(&sigma);
        assert_eq!(w, r.upper_bound);
    }

    #[test]
    fn ablations_agree_on_the_optimum() {
        let g = graphs::queen(4); // tw(queen4_4) = 11
        let base = bb_tw(&g, &BbConfig::default());
        for (red, pr2, lb) in [
            (false, true, LbMode::MmwGammaR),
            (true, false, LbMode::Mmw),
            (false, false, LbMode::None),
        ] {
            let cfg = BbConfig {
                use_reductions: red,
                use_pr2: pr2,
                lb_mode: lb,
                ..BbConfig::default()
            };
            let r = bb_tw(&g, &cfg);
            assert!(r.exact);
            assert_eq!(
                r.upper_bound, base.upper_bound,
                "red={red} pr2={pr2} lb={lb:?}"
            );
        }
    }

    #[test]
    fn work_stealing_is_width_and_ordering_identical() {
        for g in [
            graphs::grid(4),
            graphs::queen(4),
            graphs::gnm_random(14, 40, 3),
        ] {
            let seq = bb_tw(&g, &BbConfig::default());
            for threads in [1, 2, 4, 8] {
                let par = bb_tw_parallel(&g, &BbConfig::default(), threads);
                assert!(par.exact);
                assert_eq!(par.upper_bound, seq.upper_bound, "threads {threads}");
                // witness reconstruction makes the full ordering
                // schedule-independent, not just the width
                assert_eq!(par.ordering, seq.ordering, "threads {threads}");
            }
        }
    }

    #[test]
    fn anytime_mode_returns_bounds() {
        let g = graphs::queen(5);
        let r = bb_tw(
            &g,
            &BbConfig {
                limits: SearchLimits::with_nodes(200),
                ..BbConfig::default()
            },
        );
        assert!(r.lower_bound <= r.upper_bound);
        assert!(r.upper_bound <= 25);
        assert!(
            r.nodes_expanded <= 200,
            "budget overrun: {}",
            r.nodes_expanded
        );
    }

    #[test]
    fn expiry_floor_never_undercuts_the_root_bound() {
        // the anytime lower bound after expiry dominates the root heuristic
        let g = graphs::queen(5);
        let root_lb = tw_lower_bound::<StdRng>(&g, None);
        for nodes in [50, 500, 5000] {
            let r = bb_tw(
                &g,
                &BbConfig {
                    limits: SearchLimits::with_nodes(nodes),
                    ..BbConfig::default()
                },
            );
            assert!(r.lower_bound >= root_lb, "nodes={nodes}");
            assert!(r.lower_bound <= r.upper_bound, "nodes={nodes}");
        }
    }

    #[test]
    fn stats_collection_is_behaviourally_free() {
        for g in [graphs::grid(4), graphs::queen(4)] {
            for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(300)] {
                let off = bb_tw(
                    &g,
                    &BbConfig {
                        limits: limits.clone(),
                        ..BbConfig::default()
                    },
                );
                let on = bb_tw(
                    &g,
                    &BbConfig {
                        limits: limits.stats(true),
                        ..BbConfig::default()
                    },
                );
                assert_eq!(on.upper_bound, off.upper_bound);
                assert_eq!(on.lower_bound, off.lower_bound);
                assert_eq!(on.ordering, off.ordering);
                assert_eq!(on.nodes_expanded, off.nodes_expanded);
                assert!(off.stats.is_none());
                let stats = on.stats.expect("stats requested");
                assert!(!stats.incumbents.is_empty());
            }
        }
    }

    #[test]
    fn singleton_and_empty_edge_graphs() {
        assert_eq!(exact_tw(&Graph::new(1)), 0);
        assert_eq!(exact_tw(&Graph::new(5)), 0);
    }
}
