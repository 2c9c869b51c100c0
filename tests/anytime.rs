//! Anytime-soundness tests: interrupted searches must report bounds that
//! bracket the true optimum, for every algorithm and every budget — plus
//! determinism of the parallel work-stealing searches and the cover cache's
//! behavioural transparency.

use ghd::core::bucket::ghd_from_ordering;
use ghd::core::eval::TwEvaluator;
use ghd::core::{CoverMethod, EliminationOrdering};
use ghd::hypergraph::generators::{graphs, hypergraphs};
use ghd::hypergraph::Hypergraph;
use ghd::search::{
    astar_ghw, astar_tw, bb_ghw, bb_ghw_parallel, bb_tw, bb_tw_parallel, BbConfig, BbGhwConfig,
    SearchLimits,
};
use std::time::{Duration, Instant};

#[test]
fn truncated_tw_searches_bracket_the_optimum() {
    for seed in 0..5u64 {
        let g = graphs::gnm_random(16, 45, seed);
        let truth = astar_tw(&g, SearchLimits::unlimited());
        assert!(truth.exact);
        for budget in [1u64, 5, 25, 100] {
            let a = astar_tw(&g, SearchLimits::with_nodes(budget));
            assert!(
                a.lower_bound <= truth.upper_bound && a.upper_bound >= truth.upper_bound,
                "A* seed {seed} budget {budget}: [{}, {}] vs {}",
                a.lower_bound,
                a.upper_bound,
                truth.upper_bound
            );
            if a.exact {
                assert_eq!(a.upper_bound, truth.upper_bound);
            }
            let b = bb_tw(
                &g,
                &BbConfig {
                    limits: SearchLimits::with_nodes(budget),
                    ..BbConfig::default()
                },
            );
            assert!(
                b.lower_bound <= truth.upper_bound && b.upper_bound >= truth.upper_bound,
                "BB seed {seed} budget {budget}"
            );
            if b.exact {
                assert_eq!(b.upper_bound, truth.upper_bound);
            }
        }
    }
}

#[test]
fn truncated_ghw_searches_bracket_the_optimum() {
    for seed in 0..4u64 {
        let h = hypergraphs::random_hypergraph(11, 8, 3, seed);
        let truth = bb_ghw(&h, &BbGhwConfig::default());
        assert!(truth.exact);
        for budget in [1u64, 10, 50] {
            let a = astar_ghw(&h, SearchLimits::with_nodes(budget));
            assert!(
                a.lower_bound <= truth.upper_bound && a.upper_bound >= truth.upper_bound,
                "A*-ghw seed {seed} budget {budget}: [{}, {}] vs {}",
                a.lower_bound,
                a.upper_bound,
                truth.upper_bound
            );
            if a.exact {
                assert_eq!(a.upper_bound, truth.upper_bound);
            }
            let b = bb_ghw(
                &h,
                &BbGhwConfig {
                    limits: SearchLimits::with_nodes(budget),
                    ..BbGhwConfig::default()
                },
            );
            assert!(
                b.lower_bound <= truth.upper_bound && b.upper_bound >= truth.upper_bound,
                "BB-ghw seed {seed} budget {budget}"
            );
            if b.exact {
                assert_eq!(b.upper_bound, truth.upper_bound);
            }
        }
    }
}

/// Larger budgets never worsen the bracket (monotone anytime behaviour of
/// the branch and bound upper bound).
#[test]
fn bb_upper_bounds_improve_monotonically_with_budget() {
    let g = graphs::queen(5);
    let mut last_ub = usize::MAX;
    for budget in [10u64, 100, 1_000, 10_000] {
        let r = bb_tw(
            &g,
            &BbConfig {
                limits: SearchLimits::with_nodes(budget),
                ..BbConfig::default()
            },
        );
        assert!(r.upper_bound <= last_ub, "budget {budget}");
        last_ub = r.upper_bound;
    }
    assert!(last_ub >= 18); // never below the true treewidth
}

/// The parallel work-stealing searches are deterministic and width-identical
/// to the sequential searches for fixed seeds, for every thread count, and
/// the returned orderings actually realise the reported widths.
#[test]
fn parallel_searches_match_sequential_and_orderings_realize_widths() {
    for seed in [3u64, 11, 42] {
        let h = hypergraphs::random_hypergraph(12, 9, 3, seed);
        let seq = bb_ghw(&h, &BbGhwConfig::default());
        assert!(seq.exact, "seed {seed}");
        for threads in [1usize, 2, 4] {
            let par = bb_ghw_parallel(&h, &BbGhwConfig::default(), threads);
            assert!(par.exact, "seed {seed} threads {threads}");
            assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed} threads {threads}");
            let sigma = EliminationOrdering::new(
                par.ordering.clone().expect("exact search returns an ordering"),
            )
            .expect("search orderings are permutations");
            let realized = ghd_from_ordering(&h, &sigma, CoverMethod::Exact).width();
            assert_eq!(realized, par.upper_bound, "seed {seed} threads {threads}");
        }

        let g = graphs::gnm_random(14, 40, seed);
        let seq = bb_tw(&g, &BbConfig::default());
        assert!(seq.exact, "seed {seed}");
        for threads in [1usize, 2, 4] {
            let par = bb_tw_parallel(&g, &BbConfig::default(), threads);
            assert!(par.exact, "seed {seed} threads {threads}");
            assert_eq!(par.upper_bound, seq.upper_bound, "seed {seed} threads {threads}");
            let sigma = EliminationOrdering::new(
                par.ordering.clone().expect("exact search returns an ordering"),
            )
            .expect("search orderings are permutations");
            let realized = TwEvaluator::new(&g).width(&sigma);
            assert_eq!(realized, par.upper_bound, "seed {seed} threads {threads}");
        }
    }
}

/// One wall-clock deadline is shared by every worker of the parallel
/// work-stealing searches: a run with `time_limit = T` finishes in O(T) wall
/// time for **any** thread count — never `threads × T`. The fixed grace
/// term covers the uninterruptible root work (heuristic bounds, root
/// covers), which runs before the first deadline check.
#[test]
fn parallel_time_budget_is_shared_not_multiplied() {
    let h = hypergraphs::grid2d(8);
    let budget = Duration::from_millis(600);
    let grace = Duration::from_secs(3);
    for threads in [1usize, 2, 4] {
        let cfg = BbGhwConfig {
            limits: SearchLimits::with_time(budget),
            ..BbGhwConfig::default()
        };
        let started = Instant::now();
        let r = bb_ghw_parallel(&h, &cfg, threads);
        let wall = started.elapsed();
        assert!(
            wall <= budget.mul_f64(1.2) + grace,
            "threads {threads}: wall {wall:?} blew the {budget:?} budget"
        );
        assert!(r.lower_bound <= r.upper_bound, "threads {threads}");
    }
}

/// `max_nodes = N` is one **global** pool of node credits: the merged
/// expansion count of all workers never exceeds N, for any thread count
/// (the pre-fix behaviour handed every parallel worker its own budget,
/// inflating the real limit by the number of workers).
#[test]
fn parallel_node_budget_is_global() {
    let g = graphs::queen(6);
    let h = hypergraphs::grid2d(6);
    for cap in [100u64, 400] {
        for threads in [1usize, 2, 4] {
            let r = bb_tw_parallel(
                &g,
                &BbConfig {
                    limits: SearchLimits::with_nodes(cap),
                    ..BbConfig::default()
                },
                threads,
            );
            assert!(
                r.nodes_expanded <= cap,
                "tw cap {cap} threads {threads}: expanded {}",
                r.nodes_expanded
            );
            assert!(r.lower_bound <= r.upper_bound, "tw cap {cap} threads {threads}");

            let r = bb_ghw_parallel(
                &h,
                &BbGhwConfig {
                    limits: SearchLimits::with_nodes(cap),
                    ..BbGhwConfig::default()
                },
                threads,
            );
            assert!(
                r.nodes_expanded <= cap,
                "ghw cap {cap} threads {threads}: expanded {}",
                r.nodes_expanded
            );
            assert!(r.lower_bound <= r.upper_bound, "ghw cap {cap} threads {threads}");
        }
    }
}

/// Telemetry is behaviourally free across the whole search suite: the
/// sequential searches are **bit-identical** with stats on and off (same
/// bounds, same ordering, same node count) under capped and uncapped
/// budgets, and the stats object appears exactly when requested.
#[test]
fn telemetry_is_behaviourally_free_across_the_search_suite() {
    let g = graphs::gnm_random(14, 40, 7);
    let h = hypergraphs::random_hypergraph(11, 8, 3, 5);
    for cap in [Some(1u64), Some(25), Some(500), None] {
        let off = match cap {
            Some(n) => SearchLimits::with_nodes(n),
            None => SearchLimits::unlimited(),
        };
        let on = off.clone().stats(true);
        let runs: [(&str, ghd::search::SearchResult, ghd::search::SearchResult); 4] = [
            ("astar_tw", astar_tw(&g, off.clone()), astar_tw(&g, on.clone())),
            (
                "bb_tw",
                bb_tw(&g, &BbConfig { limits: off.clone(), ..BbConfig::default() }),
                bb_tw(&g, &BbConfig { limits: on.clone(), ..BbConfig::default() }),
            ),
            ("astar_ghw", astar_ghw(&h, off.clone()), astar_ghw(&h, on.clone())),
            (
                "bb_ghw",
                bb_ghw(&h, &BbGhwConfig { limits: off, ..BbGhwConfig::default() }),
                bb_ghw(&h, &BbGhwConfig { limits: on, ..BbGhwConfig::default() }),
            ),
        ];
        for (name, a, b) in &runs {
            let tag = format!("{name} cap {cap:?}");
            assert_eq!(a.upper_bound, b.upper_bound, "{tag}: ub");
            assert_eq!(a.lower_bound, b.lower_bound, "{tag}: lb");
            assert_eq!(a.exact, b.exact, "{tag}: exact");
            assert_eq!(a.ordering, b.ordering, "{tag}: ordering");
            assert_eq!(a.nodes_expanded, b.nodes_expanded, "{tag}: nodes");
            assert!(a.stats.is_none(), "{tag}: stats off must carry no stats");
            let st = b.stats.as_ref().unwrap_or_else(|| panic!("{tag}: stats on"));
            assert!(!st.incumbents.is_empty(), "{tag}: incumbent trace");
            assert!(
                st.incumbents.windows(2).all(|w| w[0].elapsed <= w[1].elapsed),
                "{tag}: incumbents sorted"
            );
            assert!(
                st.incumbents.iter().all(|s| s.lower_bound <= s.upper_bound),
                "{tag}: incumbent lb <= ub"
            );
        }
    }

    // parallel searches: widths identical, stats merged from all workers
    let off = SearchLimits::unlimited();
    let a = bb_ghw_parallel(&h, &BbGhwConfig { limits: off.clone(), ..BbGhwConfig::default() }, 3);
    let b = bb_ghw_parallel(
        &h,
        &BbGhwConfig { limits: off.stats(true), ..BbGhwConfig::default() },
        3,
    );
    assert_eq!(a.upper_bound, b.upper_bound, "parallel: ub");
    assert_eq!(a.exact, b.exact, "parallel: exact");
    assert!(a.stats.is_none() && b.stats.is_some(), "parallel: stats gating");
    assert!(!b.stats.unwrap().incumbents.is_empty(), "parallel: incumbents");
}

/// The set-cover transposition cache is behaviourally invisible: identical
/// widths with the cache on and off (Fig 2.11's hypergraph, ghw 2, and a
/// clique).
#[test]
fn cover_cache_is_transparent_and_effective() {
    let fig_2_11 = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
    let clique = hypergraphs::clique(8);
    for (name, h, expect) in [("fig_2_11", &fig_2_11, Some(2)), ("clique_8", &clique, Some(4))] {
        // cache on/off: identical results
        let on = bb_ghw(h, &BbGhwConfig::default());
        let off = bb_ghw(
            h,
            &BbGhwConfig {
                use_cover_cache: false,
                ..BbGhwConfig::default()
            },
        );
        assert_eq!(on.upper_bound, off.upper_bound, "{name}");
        assert_eq!(on.exact, off.exact, "{name}");
        assert_eq!(on.ordering, off.ordering, "{name}");
        if let Some(w) = expect {
            assert!(on.exact, "{name}");
            assert_eq!(on.upper_bound, w, "{name}");
        }
        assert!(off.cover_cache.is_none(), "{name}");
    }
}

/// The A\* searches are fully deterministic run-to-run: repeated invocations
/// produce the same widths, orderings and node counts, and — with telemetry
/// on — the same open/seen peak gauges *and peak byte gauges*. The byte
/// gauges come from the bucket queue and the state interner, whose layouts
/// are functions of the (deterministic) expansion sequence alone.
#[test]
fn astar_runs_are_reproducible_including_peak_bytes() {
    let g = graphs::gnm_random(15, 42, 11);
    let h = hypergraphs::random_hypergraph(12, 8, 3, 9);
    for cap in [Some(40u64), None] {
        let limits = match cap {
            Some(n) => SearchLimits::with_nodes(n).stats(true),
            None => SearchLimits::unlimited().stats(true),
        };
        let (a1, a2) = (astar_tw(&g, limits.clone()), astar_tw(&g, limits.clone()));
        let (b1, b2) = (astar_ghw(&h, limits.clone()), astar_ghw(&h, limits));
        for (name, x, y) in [("astar_tw", &a1, &a2), ("astar_ghw", &b1, &b2)] {
            let tag = format!("{name} cap {cap:?}");
            assert_eq!(x.upper_bound, y.upper_bound, "{tag}: ub");
            assert_eq!(x.lower_bound, y.lower_bound, "{tag}: lb");
            assert_eq!(x.ordering, y.ordering, "{tag}: ordering");
            assert_eq!(x.nodes_expanded, y.nodes_expanded, "{tag}: nodes");
            let (sx, sy) = (x.stats.as_ref().unwrap(), y.stats.as_ref().unwrap());
            assert_eq!(sx.open_peak, sy.open_peak, "{tag}: open_peak");
            assert_eq!(sx.seen_peak, sy.seen_peak, "{tag}: seen_peak");
            assert_eq!(sx.open_peak_bytes, sy.open_peak_bytes, "{tag}: open bytes");
            assert_eq!(sx.seen_peak_bytes, sy.seen_peak_bytes, "{tag}: seen bytes");
            if x.nodes_expanded > 2 {
                assert!(sx.open_peak_bytes > 0, "{tag}: open bytes recorded");
                assert!(sx.seen_peak_bytes > 0, "{tag}: seen bytes recorded");
            }
        }
    }
}

/// BB-tw / BB-ghw keep reporting zero peak gauges (depth-first search has no
/// open list or closed set), so the new byte columns stay meaningful: a
/// nonzero value always identifies a best-first run.
#[test]
fn bb_runs_report_zero_peak_gauges() {
    let g = graphs::gnm_random(14, 38, 3);
    let h = hypergraphs::random_hypergraph(11, 7, 3, 3);
    let limits = SearchLimits::unlimited().stats(true);
    let b1 = bb_tw(&g, &BbConfig { limits: limits.clone(), ..BbConfig::default() });
    let b2 = bb_ghw(&h, &BbGhwConfig { limits, ..BbGhwConfig::default() });
    for (name, r) in [("bb_tw", &b1), ("bb_ghw", &b2)] {
        let st = r.stats.as_ref().unwrap();
        assert_eq!(st.open_peak, 0, "{name}");
        assert_eq!(st.open_peak_bytes, 0, "{name}");
        assert_eq!(st.seen_peak_bytes, 0, "{name}");
    }
}
