//! Golden values of the branch-and-bound and A\* searches. Every other suite
//! compares runs against each other (parallel vs sequential, stats on vs
//! off, split on vs off), so a change that shifted every ordering or node
//! count the same way would pass them all. This test pins the literal
//! outcome of each entry point on seeded instances: bounds, exactness, the
//! ordering, the node count, the incumbent trajectory, the prune counters
//! and the cover-cache hits/misses.
//!
//! Each row renders as `ub lb exact nodes | ordering | prunes | cache |
//! incumbents`, with prunes as `simplicial pr2_filtered pr1_closures
//! f_prunes capped_covers` and incumbents as `ub:lb` pairs (wall-clock
//! times are dropped). A\* rows append `| dominance_hits open_peak
//! seen_peak`. A mismatch prints every differing row.

use ghd_core::setcover::CoverMethod;
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{Graph, Hypergraph};
use ghd_search::{
    astar_ghw, astar_tw, bb_ghw, bb_ghw_parallel, bb_tw, bb_tw_parallel, witness_ghw, witness_tw, BbConfig, BbGhwConfig,
    Budget, LbMode, SearchLimits, SearchResult,
};

fn render(r: &SearchResult) -> String {
    let order: Vec<String> = r.ordering.iter().flatten().map(|v| v.to_string()).collect();
    let stats = r.stats.as_ref().expect("golden runs collect stats");
    let p = &stats.prunes;
    let cache = match &r.cover_cache {
        Some(c) => format!("{}/{}", c.hits, c.misses),
        None => "-".to_string(),
    };
    let incumbents: Vec<String> = stats
        .incumbents
        .iter()
        .map(|s| format!("{}:{}", s.upper_bound, s.lower_bound))
        .collect();
    format!(
        "{} {} {} {} | {} | {} {} {} {} {} | {} | {}",
        r.upper_bound,
        r.lower_bound,
        r.exact,
        r.nodes_expanded,
        order.join(" "),
        p.simplicial,
        p.pr2_filtered,
        p.pr1_closures,
        p.f_prunes,
        p.capped_covers,
        cache,
        incumbents.join(" ")
    )
}

/// [`render`] plus the A\* closed-set counters: dominance hits and the
/// open/seen high-water marks.
fn render_astar(r: &SearchResult) -> String {
    let stats = r.stats.as_ref().expect("golden runs collect stats");
    format!(
        "{} | {} {} {}",
        render(r),
        stats.prunes.dominance_hits,
        stats.open_peak,
        stats.seen_peak
    )
}

fn render_witness((ordering, nodes): (Option<Vec<usize>>, u64)) -> String {
    match ordering {
        Some(o) => {
            let o: Vec<String> = o.iter().map(|v| v.to_string()).collect();
            format!("{nodes} | {}", o.join(" "))
        }
        None => format!("{nodes} | none"),
    }
}

fn stats_limits() -> SearchLimits {
    SearchLimits::unlimited().stats(true)
}

fn budget_limits(nodes: u64) -> SearchLimits {
    SearchLimits::with_nodes(nodes).stats(true)
}

fn tw_instances() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnm14-40-3", graphs::gnm_random(14, 40, 3)),
        ("gnm16-45-0", graphs::gnm_random(16, 45, 0)),
        ("gnm16-45-1", graphs::gnm_random(16, 45, 1)),
        ("gnm18-50-7", graphs::gnm_random(18, 50, 7)),
        ("queen4", graphs::queen(4)),
        ("queen5", graphs::queen(5)),
        ("grid4", graphs::grid(4)),
        ("grid5", graphs::grid(5)),
        ("myciel4", graphs::mycielski(4)),
    ]
}

fn ghw_instances() -> Vec<(&'static str, Hypergraph)> {
    vec![
        ("rh10-7-3-0", hypergraphs::random_hypergraph(10, 7, 3, 0)),
        ("rh11-7-3-1", hypergraphs::random_hypergraph(11, 7, 3, 1)),
        ("rh12-8-4-2", hypergraphs::random_hypergraph(12, 8, 4, 2)),
        ("rh14-11-4-1", hypergraphs::random_hypergraph(14, 11, 4, 1)),
        ("circuit14-10-1", hypergraphs::random_circuit(14, 10, 1)),
        ("circuit16-12-4", hypergraphs::random_circuit(16, 12, 4)),
        ("clique6", hypergraphs::clique(6)),
        ("grid2d-h5", hypergraphs::grid2d(5)),
        ("grid2d-h6", hypergraphs::grid2d(6)),
        ("rh16-13-4-5", hypergraphs::random_hypergraph(16, 13, 4, 5)),
        ("circuit20-16-2", hypergraphs::random_circuit(20, 16, 2)),
    ]
}

/// Every pinned run, as `(row name, rendered outcome)`.
fn actual_rows() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for (name, g) in tw_instances() {
        let base = BbConfig {
            limits: stats_limits(),
            ..BbConfig::default()
        };
        let r = bb_tw(&g, &base);
        rows.push((format!("tw {name} default"), render(&r)));
        let width = r.upper_bound;
        let ablations = [
            (
                "lb-none",
                BbConfig {
                    lb_mode: LbMode::None,
                    ..base.clone()
                },
            ),
            (
                "lb-mmw",
                BbConfig {
                    lb_mode: LbMode::Mmw,
                    ..base.clone()
                },
            ),
            (
                "no-reductions",
                BbConfig {
                    use_reductions: false,
                    ..base.clone()
                },
            ),
            (
                "no-pr2",
                BbConfig {
                    use_pr2: false,
                    ..base.clone()
                },
            ),
        ];
        for (label, cfg) in ablations {
            // the unreduced, unbounded searches of the larger graphs take
            // too long for a debug-build test
            if g.num_vertices() > 16 && label != "lb-mmw" {
                continue;
            }
            rows.push((format!("tw {name} {label}"), render(&bb_tw(&g, &cfg))));
        }
        for nodes in [1u64, 25, 200] {
            let cfg = BbConfig {
                limits: budget_limits(nodes),
                ..BbConfig::default()
            };
            rows.push((format!("tw {name} nodes={nodes}"), render(&bb_tw(&g, &cfg))));
        }
        let budget = Budget::new(&SearchLimits::unlimited());
        let w = witness_tw(&g, width, &BbConfig::default(), &budget);
        rows.push((format!("tw {name} witness"), render_witness(w)));
        rows.push((
            format!("tw {name} parallel-1"),
            render(&bb_tw_parallel(&g, &base, 1)),
        ));
    }
    for (name, h) in ghw_instances() {
        let base = BbGhwConfig {
            limits: stats_limits(),
            ..BbGhwConfig::default()
        };
        let r = bb_ghw(&h, &base);
        rows.push((format!("ghw {name} default"), render(&r)));
        let width = r.upper_bound;
        let ablations = [
            (
                "no-reductions",
                BbGhwConfig {
                    use_reductions: false,
                    ..base.clone()
                },
            ),
            (
                "no-pr2",
                BbGhwConfig {
                    use_pr2: false,
                    ..base.clone()
                },
            ),
            (
                "greedy",
                BbGhwConfig {
                    cover: CoverMethod::Greedy,
                    ..base.clone()
                },
            ),
            (
                "no-cache",
                BbGhwConfig {
                    use_cover_cache: false,
                    ..base.clone()
                },
            ),
        ];
        for (label, cfg) in ablations {
            if h.num_vertices() > 16 && (label == "no-reductions" || label == "no-pr2") {
                continue;
            }
            rows.push((format!("ghw {name} {label}"), render(&bb_ghw(&h, &cfg))));
        }
        for nodes in [1u64, 25, 200] {
            let cfg = BbGhwConfig {
                limits: budget_limits(nodes),
                ..BbGhwConfig::default()
            };
            rows.push((
                format!("ghw {name} nodes={nodes}"),
                render(&bb_ghw(&h, &cfg)),
            ));
        }
        // a truncated greedy run: its expiry floor is not a sound bound
        let cfg = BbGhwConfig {
            limits: budget_limits(25),
            cover: CoverMethod::Greedy,
            ..BbGhwConfig::default()
        };
        rows.push((
            format!("ghw {name} greedy nodes=25"),
            render(&bb_ghw(&h, &cfg)),
        ));
        let budget = Budget::new(&SearchLimits::unlimited());
        let w = witness_ghw(&h, width, &BbGhwConfig::default(), &budget);
        rows.push((format!("ghw {name} witness"), render_witness(w)));
        rows.push((
            format!("ghw {name} parallel-1"),
            render(&bb_ghw_parallel(&h, &base, 1)),
        ));
    }
    rows
}

/// Every pinned A\* run: each instance unlimited and at 1, 25 and 200
/// expansions.
fn astar_rows() -> Vec<(String, String)> {
    let limits = || {
        [
            ("unlimited".to_string(), stats_limits()),
            ("nodes=1".to_string(), budget_limits(1)),
            ("nodes=25".to_string(), budget_limits(25)),
            ("nodes=200".to_string(), budget_limits(200)),
        ]
    };
    let mut rows = Vec::new();
    for (name, g) in tw_instances() {
        for (label, l) in limits() {
            rows.push((format!("tw {name} {label}"), render_astar(&astar_tw(&g, l))));
        }
    }
    for (name, h) in ghw_instances() {
        for (label, l) in limits() {
            rows.push((format!("ghw {name} {label}"), render_astar(&astar_ghw(&h, l))));
        }
    }
    rows
}

/// The recorded outcomes, one `row name => rendered outcome` per line.
const GOLDEN: &str = "
tw gnm14-40-3 default => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm14-40-3 lb-none => 6 6 true 28 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 16 30 0 84 0 | - | 6:5 6:6
tw gnm14-40-3 lb-mmw => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm14-40-3 no-reductions => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 0 0 0 14 0 | - | 6:5 6:6
tw gnm14-40-3 no-pr2 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm14-40-3 nodes=1 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm14-40-3 nodes=25 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm14-40-3 nodes=200 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm14-40-3 witness => 0 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9
tw gnm14-40-3 parallel-1 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6
tw gnm16-45-0 default => 7 7 true 30 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 21 22 0 78 0 | - | 7:6 7:7
tw gnm16-45-0 lb-none => 7 7 true 104 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 85 88 0 118 0 | - | 7:6 7:7
tw gnm16-45-0 lb-mmw => 7 7 true 30 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 21 22 0 78 0 | - | 7:6 7:7
tw gnm16-45-0 no-reductions => 7 7 true 98 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 0 1050 0 119 0 | - | 7:6 7:7
tw gnm16-45-0 no-pr2 => 7 7 true 45 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 34 0 0 122 0 | - | 7:6 7:7
tw gnm16-45-0 nodes=1 => 7 6 false 1 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 1 0 0 0 0 | - | 7:6 7:6
tw gnm16-45-0 nodes=25 => 7 6 false 25 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 18 22 0 46 0 | - | 7:6 7:6
tw gnm16-45-0 nodes=200 => 7 7 true 30 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 21 22 0 78 0 | - | 7:6 7:7
tw gnm16-45-0 witness => 0 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8
tw gnm16-45-0 parallel-1 => 7 7 true 30 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 21 22 0 78 0 | - | 7:6 7:7
tw gnm16-45-1 default => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 124 1 38 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 lb-none => 7 7 true 73 | 2 3 4 5 8 9 10 11 6 7 1 13 15 14 12 0 | 11 484 1 201 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 lb-mmw => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 124 1 38 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 no-reductions => 7 7 true 93 | 2 3 4 5 6 8 11 12 10 15 14 13 9 7 1 0 | 0 864 1 191 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 no-pr2 => 7 7 true 29 | 2 3 4 5 8 10 11 15 9 6 7 1 14 13 12 0 | 4 0 1 289 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 nodes=1 => 8 6 false 1 | 15 11 9 8 7 6 5 3 2 1 4 10 14 13 12 0 | 1 0 0 0 0 | - | 8:6 8:6
tw gnm16-45-1 nodes=25 => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 124 1 38 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 nodes=200 => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 124 1 38 0 | - | 8:6 7:6 7:7
tw gnm16-45-1 witness => 9 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0
tw gnm16-45-1 parallel-1 => 7 7 true 33 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 13 157 1 49 0 | - | 8:6 7:6 7:6 7:7
tw gnm18-50-7 default => 7 7 true 45 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 15 217 0 175 0 | - | 7:6 7:7
tw gnm18-50-7 lb-mmw => 7 7 true 45 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 15 217 0 175 0 | - | 7:6 7:7
tw gnm18-50-7 nodes=1 => 7 6 false 1 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 1 0 0 0 0 | - | 7:6 7:6
tw gnm18-50-7 nodes=25 => 7 6 false 25 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 10 95 0 82 0 | - | 7:6 7:6
tw gnm18-50-7 nodes=200 => 7 7 true 45 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 15 217 0 175 0 | - | 7:6 7:7
tw gnm18-50-7 witness => 0 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16
tw gnm18-50-7 parallel-1 => 7 7 true 45 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 15 217 0 175 0 | - | 7:6 7:7
tw queen4 default => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:11
tw queen4 lb-none => 11 11 true 69 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 40 255 0 137 0 | - | 11:9 11:11
tw queen4 lb-mmw => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:11
tw queen4 no-reductions => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 0 99 0 95 0 | - | 11:9 11:11
tw queen4 no-pr2 => 11 11 true 17 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 7 0 0 142 0 | - | 11:9 11:11
tw queen4 nodes=1 => 11 9 false 1 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 0 0 0 0 0 | - | 11:9 11:9
tw queen4 nodes=25 => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:11
tw queen4 nodes=200 => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:11
tw queen4 witness => 0 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0
tw queen4 parallel-1 => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:11
tw queen5 default => 18 18 true 1403 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 179 16378 0 8992 0 | - | 18:12 18:18
tw queen5 lb-mmw => 18 18 true 1403 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 179 16378 0 8992 0 | - | 18:12 18:18
tw queen5 nodes=1 => 18 12 false 1 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 0 0 0 0 0 | - | 18:12 18:12
tw queen5 nodes=25 => 18 12 false 25 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 2 283 0 145 0 | - | 18:12 18:12
tw queen5 nodes=200 => 18 12 false 200 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 22 2264 0 1361 0 | - | 18:12 18:12
tw queen5 witness => 0 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0
tw queen5 parallel-1 => 18 18 true 1403 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 179 16378 0 8992 0 | - | 18:12 18:18
tw grid4 default => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 lb-none => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 lb-mmw => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 no-reductions => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 no-pr2 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 nodes=1 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 nodes=25 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 nodes=200 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid4 witness => 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0
tw grid4 parallel-1 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4
tw grid5 default => 5 5 true 43 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 215 0 104 0 | - | 5:4 5:5
tw grid5 lb-mmw => 5 5 true 43 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 215 0 104 0 | - | 5:4 5:5
tw grid5 nodes=1 => 5 4 false 1 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 1 0 0 0 0 | - | 5:4 5:4
tw grid5 nodes=25 => 5 4 false 25 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 62 0 56 0 | - | 5:4 5:4
tw grid5 nodes=200 => 5 5 true 43 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 215 0 104 0 | - | 5:4 5:5
tw grid5 witness => 0 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0
tw grid5 parallel-1 => 5 5 true 43 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 215 0 104 0 | - | 5:4 5:5
tw myciel4 default => 10 10 true 1362 | 0 1 3 4 6 8 10 12 14 21 22 2 9 7 15 13 11 5 20 17 19 18 16 | 324 9461 1 5083 0 | - | 11:8 10:8 10:10
tw myciel4 lb-mmw => 10 10 true 1362 | 0 1 3 4 6 8 10 12 14 21 22 2 9 7 15 13 11 5 20 17 19 18 16 | 324 9461 1 5083 0 | - | 11:8 10:8 10:10
tw myciel4 nodes=1 => 11 8 false 1 | 22 21 9 8 7 6 5 10 4 3 2 1 0 15 12 14 13 11 20 17 19 18 16 | 0 0 0 0 0 | - | 11:8 11:8
tw myciel4 nodes=25 => 11 8 false 25 | 22 21 9 8 7 6 5 10 4 3 2 1 0 15 12 14 13 11 20 17 19 18 16 | 4 229 0 16 0 | - | 11:8 11:8
tw myciel4 nodes=200 => 10 8 false 200 | 0 1 3 4 6 8 10 12 14 21 22 2 9 7 15 13 11 5 20 17 19 18 16 | 37 1600 1 635 0 | - | 11:8 10:8 10:8
tw myciel4 witness => 77 | 0 1 3 4 6 8 10 12 14 21 22 2 9 7 15 13 11 5 20 17 19 18 16
tw myciel4 parallel-1 => 10 10 true 1418 | 0 1 3 4 6 8 10 12 14 21 22 2 9 7 15 13 11 5 20 17 19 18 16 | 336 9954 1 5163 0 | - | 11:8 10:8 10:8 10:10
ghw rh10-7-3-0 default => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2
ghw rh10-7-3-0 no-reductions => 2 2 true 242 | 9 8 3 4 1 7 6 5 2 0 | 0 799 0 368 0 | 738/113 | 2:1 2:2
ghw rh10-7-3-0 no-pr2 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2
ghw rh10-7-3-0 greedy => 2 1 false 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:1
ghw rh10-7-3-0 no-cache => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | - | 2:1 2:2
ghw rh10-7-3-0 nodes=1 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2
ghw rh10-7-3-0 nodes=25 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2
ghw rh10-7-3-0 nodes=200 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2
ghw rh10-7-3-0 greedy nodes=25 => 2 1 false 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:1
ghw rh10-7-3-0 witness => 0 | 9 8 3 4 1 7 6 5 2 0
ghw rh10-7-3-0 parallel-1 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2
ghw rh11-7-3-1 default => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2
ghw rh11-7-3-1 no-reductions => 2 2 true 498 | 10 9 2 8 7 1 6 5 0 4 3 | 0 1002 0 1115 0 | 1959/151 | 2:1 2:2
ghw rh11-7-3-1 no-pr2 => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2
ghw rh11-7-3-1 greedy => 2 1 false 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:1
ghw rh11-7-3-1 no-cache => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | - | 2:1 2:2
ghw rh11-7-3-1 nodes=1 => 2 1 false 1 | 10 9 2 8 7 1 6 5 0 4 3 | 1 0 0 0 0 | 0/2 | 2:1 2:1
ghw rh11-7-3-1 nodes=25 => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2
ghw rh11-7-3-1 nodes=200 => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2
ghw rh11-7-3-1 greedy nodes=25 => 2 1 false 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:1
ghw rh11-7-3-1 witness => 0 | 10 9 2 8 7 1 6 5 0 4 3
ghw rh11-7-3-1 parallel-1 => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2
ghw rh12-8-4-2 default => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2
ghw rh12-8-4-2 no-reductions => 2 2 true 20 | 11 10 9 6 4 8 7 0 5 3 2 1 | 0 102 0 75 0 | 69/45 | 2:1 2:2
ghw rh12-8-4-2 no-pr2 => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2
ghw rh12-8-4-2 greedy => 2 1 false 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:1
ghw rh12-8-4-2 no-cache => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | - | 2:1 2:2
ghw rh12-8-4-2 nodes=1 => 2 1 false 1 | 11 10 9 6 4 8 7 0 5 3 2 1 | 1 0 0 0 0 | 0/2 | 2:1 2:1
ghw rh12-8-4-2 nodes=25 => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2
ghw rh12-8-4-2 nodes=200 => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2
ghw rh12-8-4-2 greedy nodes=25 => 2 1 false 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:1
ghw rh12-8-4-2 witness => 0 | 11 10 9 6 4 8 7 0 5 3 2 1
ghw rh12-8-4-2 parallel-1 => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2
ghw rh14-11-4-1 default => 3 3 true 64 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 104 0 303 0 | 283/147 | 3:2 3:3
ghw rh14-11-4-1 no-reductions => 3 3 true 3126 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 0 8788 0 14749 0 | 20063/937 | 3:2 3:3
ghw rh14-11-4-1 no-pr2 => 3 3 true 162 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 0 0 1016 0 | 1192/147 | 3:2 3:3
ghw rh14-11-4-1 greedy => 3 2 false 64 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 104 0 303 0 | 312/118 | 3:2 3:2
ghw rh14-11-4-1 no-cache => 3 3 true 64 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 104 0 303 0 | - | 3:2 3:3
ghw rh14-11-4-1 nodes=1 => 3 2 false 1 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 1 0 0 0 0 | 0/2 | 3:2 3:2
ghw rh14-11-4-1 nodes=25 => 3 2 false 25 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 27 0 100 0 | 70/80 | 3:2 3:2
ghw rh14-11-4-1 nodes=200 => 3 3 true 64 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 104 0 303 0 | 283/147 | 3:2 3:3
ghw rh14-11-4-1 greedy nodes=25 => 3 2 false 25 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 27 0 100 0 | 80/70 | 3:2 3:2
ghw rh14-11-4-1 witness => 0 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2
ghw rh14-11-4-1 parallel-1 => 3 3 true 64 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 104 0 303 0 | 283/147 | 3:2 3:3
ghw circuit14-10-1 default => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2
ghw circuit14-10-1 no-reductions => 2 2 true 56 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 0 332 0 217 0 | 248/80 | 2:1 2:2
ghw circuit14-10-1 no-pr2 => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2
ghw circuit14-10-1 greedy => 2 1 false 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:1
ghw circuit14-10-1 no-cache => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | - | 2:1 2:2
ghw circuit14-10-1 nodes=1 => 2 1 false 1 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 1 0 0 0 0 | 0/2 | 2:1 2:1
ghw circuit14-10-1 nodes=25 => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2
ghw circuit14-10-1 nodes=200 => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2
ghw circuit14-10-1 greedy nodes=25 => 2 1 false 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:1
ghw circuit14-10-1 witness => 0 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5
ghw circuit14-10-1 parallel-1 => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2
ghw circuit16-12-4 default => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3
ghw circuit16-12-4 no-reductions => 3 3 true 118 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 0 837 0 503 0 | 586/152 | 3:2 3:3
ghw circuit16-12-4 no-pr2 => 3 3 true 12 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 0 0 78 0 | 59/42 | 3:2 3:3
ghw circuit16-12-4 greedy => 3 2 false 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 20/39 | 3:2 3:2
ghw circuit16-12-4 no-cache => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | - | 3:2 3:3
ghw circuit16-12-4 nodes=1 => 3 2 false 1 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 1 0 0 0 0 | 0/2 | 3:2 3:2
ghw circuit16-12-4 nodes=25 => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3
ghw circuit16-12-4 nodes=200 => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3
ghw circuit16-12-4 greedy nodes=25 => 3 2 false 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 20/39 | 3:2 3:2
ghw circuit16-12-4 witness => 0 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1
ghw circuit16-12-4 parallel-1 => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3
ghw clique6 default => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 no-reductions => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 no-pr2 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 greedy => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 no-cache => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 nodes=1 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 nodes=25 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 nodes=200 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 greedy nodes=25 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw clique6 witness => 0 | 5 4 3 2 1 0
ghw clique6 parallel-1 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3
ghw grid2d-h5 default => 2 2 true 59 | 1 4 6 9 11 12 8 10 7 5 3 2 0 | 16 120 1 187 0 | 175/129 | 3:2 2:2 2:2
ghw grid2d-h5 no-reductions => 2 2 true 62 | 1 4 6 9 11 12 8 10 7 5 3 2 0 | 0 142 1 264 0 | 258/129 | 3:2 2:2 2:2
ghw grid2d-h5 no-pr2 => 2 2 true 330 | 1 4 6 9 11 12 8 10 7 5 3 2 0 | 181 0 1 1001 0 | 1454/206 | 3:2 2:2 2:2
ghw grid2d-h5 greedy => 2 2 true 122 | 1 3 6 9 11 12 7 4 0 5 8 10 2 | 22 321 1 420 0 | 467/196 | 3:2 2:2 2:2
ghw grid2d-h5 no-cache => 2 2 true 59 | 1 4 6 9 11 12 8 10 7 5 3 2 0 | 16 120 1 187 0 | - | 3:2 2:2 2:2
ghw grid2d-h5 nodes=1 => 3 2 false 1 | 11 9 8 7 6 5 4 3 1 12 10 2 0 | 0 0 0 0 0 | 0/2 | 3:2 3:2
ghw grid2d-h5 nodes=25 => 3 2 false 25 | 11 9 8 7 6 5 4 3 1 12 10 2 0 | 4 64 0 56 0 | 42/64 | 3:2 3:2
ghw grid2d-h5 nodes=200 => 2 2 true 59 | 1 4 6 9 11 12 8 10 7 5 3 2 0 | 16 120 1 187 0 | 175/129 | 3:2 2:2 2:2
ghw grid2d-h5 greedy nodes=25 => 3 2 false 25 | 11 9 8 7 6 5 4 3 1 12 10 2 0 | 2 73 0 67 0 | 58/59 | 3:2 3:2
ghw grid2d-h5 witness => 59 | 1 4 6 9 11 12 8 10 7 5 3 2 0
ghw grid2d-h5 parallel-1 => 2 2 true 67 | 1 4 6 9 11 12 8 10 7 5 3 2 0 | 17 147 1 168 0 | 159/141 | 3:2 2:2 2:2 2:2
ghw grid2d-h6 default => 3 3 true 3778 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 168 20733 1 16761 0 | 23009/1307 | 4:2 3:2 3:3
ghw grid2d-h6 greedy => 3 2 false 394 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 1 2842 1 1749 0 | 2020/516 | 4:2 3:2 3:2
ghw grid2d-h6 no-cache => 3 3 true 3778 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 168 20733 1 16761 0 | - | 4:2 3:2 3:3
ghw grid2d-h6 nodes=1 => 4 2 false 1 | 16 13 11 10 9 8 6 7 4 1 14 3 15 12 5 2 17 0 | 0 0 0 0 0 | 0/2 | 4:2 4:2
ghw grid2d-h6 nodes=25 => 3 2 false 25 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 1 128 1 89 0 | 56/83 | 4:2 3:2 3:2
ghw grid2d-h6 nodes=200 => 3 2 false 200 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 1 1127 1 938 0 | 1050/288 | 4:2 3:2 3:2
ghw grid2d-h6 greedy nodes=25 => 3 2 false 25 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 1 158 1 88 0 | 56/82 | 4:2 3:2 3:2
ghw grid2d-h6 witness => 11 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0
ghw grid2d-h6 parallel-1 => 3 3 true 3794 | 1 3 4 7 9 10 13 16 8 2 5 14 6 15 12 11 17 0 | 171 20787 1 16795 0 | 23061/1320 | 4:2 3:2 3:2 3:3
ghw rh16-13-4-5 default => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 no-reductions => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 no-pr2 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 greedy => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 no-cache => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 nodes=1 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 nodes=25 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 nodes=200 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 greedy nodes=25 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw rh16-13-4-5 witness => 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4
ghw rh16-13-4-5 parallel-1 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2
ghw circuit20-16-2 default => 3 3 true 27 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 17 46 0 66 0 | 54/65 | 3:2 3:3
ghw circuit20-16-2 greedy => 3 2 false 22 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 14 40 0 51 0 | 34/60 | 3:2 3:2
ghw circuit20-16-2 no-cache => 3 3 true 27 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 17 46 0 66 0 | - | 3:2 3:3
ghw circuit20-16-2 nodes=1 => 3 2 false 1 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 1 0 0 0 0 | 0/2 | 3:2 3:2
ghw circuit20-16-2 nodes=25 => 3 2 false 25 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 15 46 0 56 0 | 45/61 | 3:2 3:2
ghw circuit20-16-2 nodes=200 => 3 3 true 27 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 17 46 0 66 0 | 54/65 | 3:2 3:3
ghw circuit20-16-2 greedy nodes=25 => 3 2 false 22 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 14 40 0 51 0 | 34/60 | 3:2 3:2
ghw circuit20-16-2 witness => 0 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3
ghw circuit20-16-2 parallel-1 => 3 3 true 27 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 17 46 0 66 0 | 54/65 | 3:2 3:3
";

/// The recorded A\* outcomes, in [`GOLDEN`]'s format.
const ASTAR_GOLDEN: &str = "
tw gnm14-40-3 unlimited => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6 | 0 0 0
tw gnm14-40-3 nodes=1 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6 | 0 0 0
tw gnm14-40-3 nodes=25 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6 | 0 0 0
tw gnm14-40-3 nodes=200 => 6 6 true 1 | 13 8 5 4 3 2 0 6 12 7 11 1 10 9 | 1 0 0 1 0 | - | 6:5 6:6 | 0 0 0
tw gnm16-45-0 unlimited => 7 7 true 19 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 13 22 0 44 0 | - | 7:6 7:7 | 4 7 18
tw gnm16-45-0 nodes=1 => 7 6 false 1 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 1 0 0 0 0 | - | 7:6 7:6 | 0 1 1
tw gnm16-45-0 nodes=25 => 7 7 true 19 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 13 22 0 44 0 | - | 7:6 7:7 | 4 7 18
tw gnm16-45-0 nodes=200 => 7 7 true 19 | 13 12 10 9 6 2 1 3 0 4 14 7 11 5 15 8 | 13 22 0 44 0 | - | 7:6 7:7 | 4 7 18
tw gnm16-45-1 unlimited => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 172 0 11 0 | - | 8:6 8:7 7:7 | 0 28 44
tw gnm16-45-1 nodes=1 => 8 6 false 1 | 15 11 9 8 7 6 5 3 2 1 4 10 14 13 12 0 | 1 0 0 0 0 | - | 8:6 8:6 | 0 1 1
tw gnm16-45-1 nodes=25 => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 172 0 11 0 | - | 8:6 8:7 7:7 | 0 28 44
tw gnm16-45-1 nodes=200 => 7 7 true 18 | 2 3 4 5 6 8 10 11 7 1 9 15 14 13 12 0 | 4 172 0 11 0 | - | 8:6 8:7 7:7 | 0 28 44
tw gnm18-50-7 unlimited => 7 7 true 40 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 14 205 0 135 0 | - | 7:6 7:7 | 3 14 39
tw gnm18-50-7 nodes=1 => 7 6 false 1 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 1 0 0 0 0 | - | 7:6 7:6 | 0 1 1
tw gnm18-50-7 nodes=25 => 7 6 false 25 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 12 144 0 85 0 | - | 7:6 7:6 | 2 14 33
tw gnm18-50-7 nodes=200 => 7 7 true 40 | 17 14 12 7 5 3 9 8 1 10 15 6 2 0 4 13 11 16 | 14 205 0 135 0 | - | 7:6 7:7 | 3 14 39
tw queen4 unlimited => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:10 11:11 | 0 9 13
tw queen4 nodes=1 => 11 10 false 1 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 0 65 0 7 0 | - | 11:9 11:10 | 0 9 9
tw queen4 nodes=25 => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:10 11:11 | 0 9 13
tw queen4 nodes=200 => 11 11 true 14 | 15 14 13 12 11 10 9 6 4 2 5 3 1 8 7 0 | 4 65 0 77 0 | - | 11:9 11:10 11:11 | 0 9 13
tw queen5 unlimited => 18 18 true 1166 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 148 15541 0 5664 0 | - | 18:12 18:13 18:14 18:15 18:16 18:17 18:18 | 111 560 1165
tw queen5 nodes=1 => 18 13 false 1 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 0 300 0 0 0 | - | 18:12 18:13 | 0 25 25
tw queen5 nodes=25 => 18 15 false 25 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 0 3050 0 72 0 | - | 18:12 18:13 18:14 18:15 18:15 | 0 216 240
tw queen5 nodes=200 => 18 16 false 200 | 24 22 21 20 19 18 17 15 12 11 10 8 6 4 1 16 13 9 5 3 2 7 23 14 0 | 0 9063 0 660 0 | - | 18:12 18:13 18:14 18:15 18:16 18:16 | 0 470 661
tw grid4 unlimited => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4 | 0 0 0
tw grid4 nodes=1 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4 | 0 0 0
tw grid4 nodes=25 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4 | 0 0 0
tw grid4 nodes=200 => 4 4 true 0 | 14 11 10 9 8 6 5 2 13 7 4 1 15 12 3 0 | 0 0 0 0 0 | - | 4:4 | 0 0 0
tw grid5 unlimited => 5 5 true 43 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 215 0 104 0 | - | 5:4 5:5 | 0 12 42
tw grid5 nodes=1 => 5 4 false 1 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 1 0 0 0 0 | - | 5:4 5:4 | 0 1 1
tw grid5 nodes=25 => 5 4 false 25 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 128 0 65 0 | - | 5:4 5:4 | 0 12 32
tw grid5 nodes=200 => 5 5 true 43 | 22 17 14 13 11 10 7 2 18 12 16 8 6 23 21 19 15 9 5 3 1 24 20 4 0 | 12 215 0 104 0 | - | 5:4 5:5 | 0 12 42
tw myciel4 unlimited => 10 10 true 219 | 1 2 3 4 6 9 10 12 15 21 22 0 14 13 8 7 5 20 17 19 18 16 11 | 99 1581 0 268 0 | - | 11:8 11:9 11:10 10:10 | 106 244 458
tw myciel4 nodes=1 => 11 8 false 1 | 22 21 9 8 7 6 5 10 4 3 2 1 0 15 12 14 13 11 20 17 19 18 16 | 0 21 0 2 0 | - | 11:8 11:8 | 0 21 21
tw myciel4 nodes=25 => 11 8 false 25 | 22 21 9 8 7 6 5 10 4 3 2 1 0 15 12 14 13 11 20 17 19 18 16 | 20 294 0 18 0 | - | 11:8 11:8 | 6 63 87
tw myciel4 nodes=200 => 11 9 false 200 | 22 21 9 8 7 6 5 10 4 3 2 1 0 15 12 14 13 11 20 17 19 18 16 | 83 1581 0 261 0 | - | 11:8 11:9 11:9 | 103 244 439
ghw rh10-7-3-0 unlimited => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2 | 0 0 0
ghw rh10-7-3-0 nodes=1 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2 | 0 0 0
ghw rh10-7-3-0 nodes=25 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2 | 0 0 0
ghw rh10-7-3-0 nodes=200 => 2 2 true 1 | 9 8 3 4 1 7 6 5 2 0 | 1 0 0 1 0 | 0/2 | 2:1 2:2 | 0 0 0
ghw rh11-7-3-1 unlimited => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2 | 0 1 4
ghw rh11-7-3-1 nodes=1 => 2 1 false 1 | 10 9 2 8 7 1 6 5 0 4 3 | 1 0 0 0 0 | 0/2 | 2:1 2:1 | 0 1 1
ghw rh11-7-3-1 nodes=25 => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2 | 0 1 4
ghw rh11-7-3-1 nodes=200 => 2 2 true 5 | 10 9 2 8 7 1 6 5 0 4 3 | 5 0 0 1 0 | 0/10 | 2:1 2:2 | 0 1 4
ghw rh12-8-4-2 unlimited => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2 | 0 1 1
ghw rh12-8-4-2 nodes=1 => 2 1 false 1 | 11 10 9 6 4 8 7 0 5 3 2 1 | 1 0 0 0 0 | 0/2 | 2:1 2:1 | 0 1 1
ghw rh12-8-4-2 nodes=25 => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2 | 0 1 1
ghw rh12-8-4-2 nodes=200 => 2 2 true 2 | 11 10 9 6 4 8 7 0 5 3 2 1 | 2 0 0 1 0 | 0/4 | 2:1 2:2 | 0 1 1
ghw rh14-11-4-1 unlimited => 3 3 true 54 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 95 0 245 0 | 210/147 | 3:2 3:3 | 5 13 53
ghw rh14-11-4-1 nodes=1 => 3 2 false 1 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 1 0 0 0 0 | 0/2 | 3:2 3:2 | 0 1 1
ghw rh14-11-4-1 nodes=25 => 3 2 false 25 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 50 0 105 0 | 78/84 | 3:2 3:2 | 1 13 31
ghw rh14-11-4-1 nodes=200 => 3 3 true 54 | 13 8 7 5 3 11 10 0 4 1 12 9 6 2 | 4 95 0 245 0 | 210/147 | 3:2 3:3 | 5 13 53
ghw circuit14-10-1 unlimited => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2 | 0 1 5
ghw circuit14-10-1 nodes=1 => 2 1 false 1 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 1 0 0 0 0 | 0/2 | 2:1 2:1 | 0 1 1
ghw circuit14-10-1 nodes=25 => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2 | 0 1 5
ghw circuit14-10-1 nodes=200 => 2 2 true 6 | 13 9 8 7 1 3 4 6 2 12 11 0 10 5 | 6 0 0 1 0 | 0/12 | 2:1 2:2 | 0 1 5
ghw circuit16-12-4 unlimited => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3 | 0 4 9
ghw circuit16-12-4 nodes=1 => 3 2 false 1 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 1 0 0 0 0 | 0/2 | 3:2 3:2 | 0 1 1
ghw circuit16-12-4 nodes=25 => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3 | 0 4 9
ghw circuit16-12-4 nodes=200 => 3 3 true 10 | 11 10 9 7 5 4 3 8 6 0 2 12 15 14 13 1 | 4 20 0 40 0 | 17/42 | 3:2 3:3 | 0 4 9
ghw clique6 unlimited => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3 | 0 0 0
ghw clique6 nodes=1 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3 | 0 0 0
ghw clique6 nodes=25 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3 | 0 0 0
ghw clique6 nodes=200 => 3 3 true 0 | 5 4 3 2 1 0 | 0 0 0 0 0 | - | 3:3 | 0 0 0
ghw grid2d-h5 unlimited => 2 2 true 9 | 7 9 10 11 12 8 6 5 4 3 2 1 0 | 1 76 0 40 0 | 31/49 | 3:2 2:2 | 0 24 31
ghw grid2d-h5 nodes=1 => 3 2 false 1 | 11 9 8 7 6 5 4 3 1 12 10 2 0 | 0 18 0 9 0 | 0/14 | 3:2 3:2 | 0 4 4
ghw grid2d-h5 nodes=25 => 2 2 true 9 | 7 9 10 11 12 8 6 5 4 3 2 1 0 | 1 76 0 40 0 | 31/49 | 3:2 2:2 | 0 24 31
ghw grid2d-h5 nodes=200 => 2 2 true 9 | 7 9 10 11 12 8 6 5 4 3 2 1 0 | 1 76 0 40 0 | 31/49 | 3:2 2:2 | 0 24 31
ghw grid2d-h6 unlimited => 3 3 true 907 | 1 3 6 7 10 14 16 11 17 13 9 15 12 8 4 5 2 0 | 16 10232 0 649 0 | 4749/1294 | 4:2 4:3 3:3 | 948 2634 3407
ghw grid2d-h6 nodes=1 => 4 2 false 1 | 16 13 11 10 9 8 6 7 4 1 14 3 15 12 5 2 17 0 | 0 64 0 2 0 | 0/19 | 4:2 4:2 | 0 16 16
ghw grid2d-h6 nodes=25 => 4 2 false 25 | 16 13 11 10 9 8 6 7 4 1 14 3 15 12 5 2 17 0 | 1 399 0 21 0 | 87/117 | 4:2 4:2 | 15 119 143
ghw grid2d-h6 nodes=200 => 4 2 false 200 | 16 13 11 10 9 8 6 7 4 1 14 3 15 12 5 2 17 0 | 8 2023 0 142 0 | 951/399 | 4:2 4:2 | 208 601 767
ghw rh16-13-4-5 unlimited => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2 | 0 0 0
ghw rh16-13-4-5 nodes=1 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2 | 0 0 0
ghw rh16-13-4-5 nodes=25 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2 | 0 0 0
ghw rh16-13-4-5 nodes=200 => 2 2 true 0 | 15 14 10 8 3 0 2 1 11 13 12 9 7 6 5 4 | 0 0 0 0 0 | - | 2:2 | 0 0 0
ghw circuit20-16-2 unlimited => 3 3 true 24 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 16 34 0 55 0 | 39/65 | 3:2 3:3 | 2 7 23
ghw circuit20-16-2 nodes=1 => 3 2 false 1 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 1 0 0 0 0 | 0/2 | 3:2 3:2 | 0 1 1
ghw circuit20-16-2 nodes=25 => 3 3 true 24 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 16 34 0 55 0 | 39/65 | 3:2 3:3 | 2 7 23
ghw circuit20-16-2 nodes=200 => 3 3 true 24 | 15 12 11 8 7 5 6 4 2 0 10 9 1 16 19 18 14 17 13 3 | 16 34 0 55 0 | 39/65 | 3:2 3:3 | 2 7 23
";

/// Compares `actual` against the `golden` rows; panics listing every
/// differing row.
fn assert_rows(golden: &str, actual: Vec<(String, String)>) {
    let expected: Vec<(&str, &str)> = golden
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_once(" => ").expect("row name => outcome"))
        .map(|(k, v)| (k.trim(), v))
        .collect();
    let mut diffs = Vec::new();
    for (i, (name, got)) in actual.iter().enumerate() {
        match expected.get(i) {
            Some((k, v)) if k == name && v == got => {}
            Some((k, v)) => diffs.push(format!(
                "row {i}: expected\n  {k} => {v}\ngot\n  {name} => {got}"
            )),
            None => diffs.push(format!("row {i}: unexpected\n  {name} => {got}")),
        }
    }
    if expected.len() > actual.len() {
        diffs.push(format!(
            "{} recorded rows missing",
            expected.len() - actual.len()
        ));
    }
    assert!(
        diffs.is_empty(),
        "{} golden rows differ:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn bb_outcomes_match_the_recorded_golden_values() {
    assert_rows(GOLDEN, actual_rows());
}

#[test]
fn astar_outcomes_match_the_recorded_golden_values() {
    assert_rows(ASTAR_GOLDEN, astar_rows());
}
