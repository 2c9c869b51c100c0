//! The best-first engine behind A\*-tw (Chapter 5, Fig 5.1) and A\*-ghw
//! (Chapter 9, Fig 9.1): the thesis builds A\*-ghw "from the BB-ghw cost
//! and heuristic functions on the A\*-tw state machinery", so the search is
//! written once over the branch-and-bound [`Measure`] and the two differ
//! only in what a bag costs, the heuristic, the reductions and the goal
//! test.
//!
//! The state machinery follows §5.2: a single elimination graph is
//! transformed between visited states by restoring to the common prefix of
//! the two elimination paths (§5.2.1); visited states keep only their parent
//! link and vertex for path reconstruction, and their child lists are freed
//! after expansion (§5.2.3). Visiting order is (f ascending, depth
//! descending) per §5.3, and the maximum f-value of visited states is an
//! anytime lower bound.

use crate::bb::{Completion, Measure, Root};
use crate::common::{complete_ordering, Budget, SearchResult, Telemetry};
use crate::interner::StateInterner;
use crate::queue::BucketQueue;
use ghd_hypergraph::{BitSet, EliminationGraph};

struct Node {
    parent: u32,
    vertex: u32,
    g: u32,
    f: u32,
    depth: u32,
    reduced: bool,
    /// Candidate vertices to eliminate next; freed after expansion (§5.2.3).
    children: Vec<u32>,
}

/// Rebuilds the elimination path (root → node) of `id` into `path`
/// (a reusable scratch buffer — states store only `(parent, vertex)`).
fn path_of_into(nodes: &[Node], mut id: u32, path: &mut Vec<u32>) {
    path.clear();
    while id != 0 {
        path.push(nodes[id as usize].vertex);
        id = nodes[id as usize].parent;
    }
    path.reverse();
}

/// Transforms `eg` from the state reached via `current` to the state of
/// `target` by restoring to the common prefix and eliminating the rest.
fn transform(eg: &mut EliminationGraph, current: &mut Vec<u32>, target: &[u32]) {
    let common = current
        .iter()
        .zip(target)
        .take_while(|(a, b)| a == b)
        .count();
    while current.len() > common {
        eg.restore();
        current.pop();
    }
    for &v in &target[common..] {
        eg.eliminate(v as usize);
        current.push(v);
    }
}

/// Duplicate detection: two states with the same eliminated set have the
/// same residual graph, and the one with smaller g dominates (an
/// improvement over the thesis' A\*, see DESIGN.md). The alive bitset's
/// blocks are hash-consed into `keys` (probes hash the borrowed `&[u64]`,
/// the canonical copy lands once in the bump arena) and the best g per
/// state lives in the dense side table `best_g` (`u32::MAX` = unvisited).
struct Closed {
    keys: StateInterner,
    best_g: Vec<u32>,
}

impl Closed {
    /// Records reaching the state `alive` at width `g`; `false` when it was
    /// already reached at width `g` or less.
    fn admit(&mut self, alive: &[u64], g: u32) -> bool {
        let k = self.keys.intern(alive).0 as usize;
        if self.best_g.len() <= k {
            self.best_g.resize(k + 1, u32::MAX);
        }
        let fresh = self.best_g[k] > g;
        if fresh {
            self.best_g[k] = g;
        }
        fresh
    }

    fn bytes(&self) -> usize {
        self.keys.bytes() + self.best_g.capacity() * std::mem::size_of::<u32>()
    }
}

/// The vertices to eliminate next from the current state of bound `f`: the
/// one a reduction rule forces (`true`), else the PR2-allowed set, else
/// every alive vertex.
fn children<M: Measure>(
    m: &M,
    eg: &EliminationGraph,
    f: usize,
    allowed: Option<&BitSet>,
    telemetry: &mut Telemetry,
) -> (Vec<u32>, bool) {
    if let Some(w) = m.reduction(eg, f) {
        return (vec![w as u32], true);
    }
    let set = match allowed {
        Some(s) => {
            if telemetry.on() {
                let cut = eg.num_alive().saturating_sub(s.len()) as u64;
                telemetry.prune(|p| p.pr2_filtered += cut);
            }
            s.iter().map(|x| x as u32).collect()
        }
        None => eg.alive().iter().map(|x| x as u32).collect(),
    };
    (set, false)
}

/// How the search loop ended.
enum End {
    /// The budget expired with this entry's f next in line.
    Expired(usize),
    /// A goal state realised this width along the current path.
    Goal(usize),
    /// Every state with f below the root upper bound was visited.
    Exhausted,
}

/// Best-first search from `root`; `measure` is built only when the root
/// bounds do not settle the instance. Exact when it terminates within the
/// budget and the bag costs stayed exact; otherwise the maximum visited
/// f-value (§5.3) is reported as an anytime lower bound with the root's
/// heuristic upper bound. `elapsed` is measured from the budget's creation.
pub(crate) fn solve<M: Measure>(
    root: Root,
    budget: &Budget,
    measure: impl FnOnce() -> M,
) -> SearchResult {
    let mut telemetry = Telemetry::new(budget.collect_stats());
    telemetry.sample(budget.elapsed(), root.ub, root.lb.min(root.ub));
    if root.settled() {
        return root.settled_result(budget, telemetry);
    }
    let m = measure();
    let mut w = m.worker();
    let (n, root_lb, ub) = (root.n, root.lb, root.ub);
    let mut ticker = budget.worker();
    let mut eg = EliminationGraph::new(m.graph());
    let mut nodes: Vec<Node> = Vec::new();
    let mut queue = BucketQueue::new();
    let mut lb = root_lb;
    let mut closed = Closed {
        keys: StateInterner::for_vertices(n),
        best_g: Vec::new(),
    };

    let (root_children, root_reduced) = children(&m, &eg, root_lb, None, &mut telemetry);
    nodes.push(Node {
        parent: 0,
        vertex: u32::MAX,
        g: 0,
        f: root_lb as u32,
        depth: 0,
        reduced: root_reduced,
        children: root_children,
    });
    queue.push(root_lb, 0, 0);

    let mut current_path: Vec<u32> = Vec::new();
    let mut target_path: Vec<u32> = Vec::new();

    let end = loop {
        let Some(entry_id) = queue.pop() else {
            break End::Exhausted;
        };
        let s_id = entry_id as usize;
        let (s_g, s_f, s_depth) = (nodes[s_id].g, nodes[s_id].f, nodes[s_id].depth);
        if !ticker.tick() {
            break End::Expired(s_f as usize);
        }
        path_of_into(&nodes, entry_id, &mut target_path);
        transform(&mut eg, &mut current_path, &target_path);

        // new lower bound found: the visited f-sequence is nondecreasing
        if (s_f as usize) > lb {
            lb = s_f as usize;
            telemetry.sample(budget.elapsed(), ub, lb.min(ub));
        }

        // goal: the partial solution already dominates the rest, so
        // finishing in any order realises its width
        match m.completion(&mut w, &eg, s_g as usize) {
            Completion::Leaf(width) => break End::Goal(width),
            Completion::Within(cost) if cost <= s_g as usize => break End::Goal(s_g as usize),
            Completion::Within(_) => {}
        }

        // expand: evaluate children of s
        let s_children = std::mem::take(&mut nodes[s_id].children); // §5.2.3
        let s_reduced = nodes[s_id].reduced;
        if s_reduced {
            telemetry.prune(|p| p.simplicial += 1);
        }
        for &v in &s_children {
            let v_us = v as usize;
            // PR2 grandchild filter evaluated in G^s (before eliminating v)
            let pr2_set = (!s_reduced).then(|| m.pr2_filter(&eg, v_us)).flatten();
            let k = m.eliminate(&mut w, &mut eg, v_us, ub, &mut telemetry) as u32;
            let t_g = s_g.max(k);
            let mut t_f = t_g.max(s_f);
            if (t_f as usize) < ub {
                t_f = t_f.max(m.node_lb(&mut w, &eg) as u32);
            }
            if (t_f as usize) >= ub {
                telemetry.prune(|p| p.f_prunes += 1);
            } else if !closed.admit(eg.alive().blocks(), t_g) {
                telemetry.prune(|p| p.dominance_hits += 1);
            } else {
                let (children, reduced) =
                    children(&m, &eg, t_f as usize, pr2_set.as_ref(), &mut telemetry);
                let id = nodes.len() as u32;
                nodes.push(Node {
                    parent: entry_id,
                    vertex: v,
                    g: t_g,
                    f: t_f,
                    depth: s_depth + 1,
                    reduced,
                    children,
                });
                queue.push(t_f as usize, (s_depth + 1) as usize, id);
            }
            eg.restore();
        }
        if telemetry.on() {
            let state = m.state_bytes(std::slice::from_ref(&w));
            telemetry.peaks(
                queue.len(),
                closed.keys.len(),
                queue.bytes(),
                closed.bytes() + state,
            );
        }
    };

    // Optimality rests on the proven pop order and on exact bag costs: a
    // degraded queue (below-floor push, detected and clamped) or an inexact
    // cost voids the visited-f argument, and the root bound is all that
    // remains proven.
    let qd = queue.degraded();
    telemetry.note(|s| s.queue_degraded |= qd);
    let sound = !qd && m.floor_sound(&w);
    let (upper_bound, lower_bound, exact, ordering) = match end {
        End::Expired(f) => {
            let proven = lb.max(f);
            let lower = if sound { proven } else { root_lb };
            (ub, lower.min(ub), sound && proven >= ub, root.order)
        }
        End::Goal(width) => {
            let path: Vec<usize> = target_path.iter().map(|&v| v as usize).collect();
            let order = complete_ordering(n, &path, (0..n).collect());
            let lower = if sound { width } else { root_lb.min(width) };
            (width, lower, sound, order)
        }
        End::Exhausted => {
            let lower = if sound { ub } else { root_lb.min(ub) };
            (ub, lower, sound, root.order)
        }
    };
    telemetry.sample(budget.elapsed(), upper_bound, lower_bound);
    let local = m.finish(&w, &mut telemetry);
    SearchResult {
        upper_bound,
        lower_bound,
        exact,
        ordering: Some(ordering),
        nodes_expanded: ticker.nodes(),
        elapsed: budget.elapsed(),
        cover_cache: m.cover_total(local.as_slice()),
        stats: telemetry.finish(),
        faults: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb_ghw::{astar_ghw, bb_ghw, BbGhwConfig};
    use crate::bb_tw::{astar_tw, bb_tw, BbConfig};
    use crate::common::SearchLimits;
    use ghd_core::bucket::ghd_from_ordering;
    use ghd_core::eval::TwEvaluator;
    use ghd_core::setcover::CoverMethod;
    use ghd_core::EliminationOrdering;
    use ghd_hypergraph::generators::{graphs, hypergraphs};
    use ghd_hypergraph::{Graph, Hypergraph};

    fn exact_tw(g: &Graph) -> usize {
        let r = astar_tw(g, SearchLimits::unlimited());
        assert!(r.exact, "A* did not complete");
        r.upper_bound
    }

    fn exact_ghw(h: &Hypergraph) -> usize {
        let r = astar_ghw(h, SearchLimits::unlimited());
        assert!(r.exact, "A*-ghw did not complete");
        r.upper_bound
    }

    #[test]
    fn basic_families() {
        assert_eq!(exact_tw(&graphs::path(8)), 1);
        assert_eq!(exact_tw(&graphs::cycle(9)), 2);
        assert_eq!(exact_tw(&graphs::complete(7)), 6);
        assert_eq!(exact_tw(&graphs::mycielski(3)), 5); // Table 5.1: myciel3
    }

    #[test]
    fn grids_match_table_5_2() {
        for n in 2..=4 {
            assert_eq!(exact_tw(&graphs::grid(n)), n, "grid{n}");
        }
    }

    #[test]
    fn acyclic_and_clique_families() {
        assert_eq!(exact_ghw(&hypergraphs::acyclic_chain(4, 3, 1)), 1);
        assert_eq!(exact_ghw(&hypergraphs::clique(6)), 3);
        assert_eq!(exact_ghw(&hypergraphs::clique(5)), 3);
    }

    #[test]
    fn example5_has_ghw_2() {
        let h = Hypergraph::from_edges(6, [vec![0, 1, 2], vec![0, 4, 5], vec![2, 3, 4]]);
        assert_eq!(exact_ghw(&h), 2);
    }

    #[test]
    fn agrees_with_branch_and_bound_on_random_graphs() {
        for seed in 0..8u64 {
            let g = graphs::gnm_random(13, 30, seed);
            let a = astar_tw(&g, SearchLimits::unlimited());
            let b = bb_tw(&g, &BbConfig::default());
            assert!(a.exact && b.exact);
            assert_eq!(a.upper_bound, b.upper_bound, "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_bb_ghw_on_random_hypergraphs() {
        for seed in 0..8u64 {
            let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
            let a = astar_ghw(&h, SearchLimits::unlimited());
            let b = bb_ghw(&h, &BbGhwConfig::default());
            assert!(a.exact && b.exact);
            assert_eq!(a.upper_bound, b.upper_bound, "seed {seed}");
        }
    }

    #[test]
    fn goal_ordering_realises_width() {
        let g = graphs::grid(4);
        let r = astar_tw(&g, SearchLimits::unlimited());
        if let Some(o) = r.ordering {
            let sigma = EliminationOrdering::new(o).unwrap();
            let w = TwEvaluator::new(&g).width(&sigma);
            assert!(w <= r.upper_bound);
        }
    }

    #[test]
    fn goal_ordering_is_a_valid_witness() {
        let h = hypergraphs::clique(5);
        let r = astar_ghw(&h, SearchLimits::unlimited());
        if r.nodes_expanded > 0 {
            let sigma = EliminationOrdering::new(r.ordering.clone().unwrap()).unwrap();
            let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
            ghd.verify(&h).unwrap();
            assert_eq!(ghd.width(), r.upper_bound);
        }
    }

    #[test]
    fn anytime_lower_bound_is_sound() {
        let g = graphs::queen(5); // tw = 18, too hard for 200 expansions
        let r = astar_tw(&g, SearchLimits::with_nodes(200));
        assert!(r.lower_bound <= 18);
        assert!(r.lower_bound >= 1);
        assert!(r.upper_bound >= 18);
        assert!(r.nodes_expanded <= 200, "budget overrun: {}", r.nodes_expanded);

        let h = hypergraphs::grid2d(6);
        let r = astar_ghw(&h, SearchLimits::with_nodes(50));
        let full = bb_ghw(&h, &BbGhwConfig::default());
        if full.exact {
            assert!(r.lower_bound <= full.upper_bound);
        }
        assert!(r.nodes_expanded <= 50, "budget overrun: {}", r.nodes_expanded);
    }

    #[test]
    fn stats_collection_is_behaviourally_free() {
        for (g, limits) in [
            (graphs::grid(4), SearchLimits::unlimited()),
            (graphs::queen(5), SearchLimits::with_nodes(200)),
        ] {
            let off = astar_tw(&g, limits.clone());
            let on = astar_tw(&g, limits.stats(true));
            assert_eq!(on.upper_bound, off.upper_bound);
            assert_eq!(on.lower_bound, off.lower_bound);
            assert_eq!(on.ordering, off.ordering);
            assert_eq!(on.nodes_expanded, off.nodes_expanded);
            assert!(off.stats.is_none());
            let stats = on.stats.expect("stats requested");
            assert!(!stats.incumbents.is_empty());
            if on.nodes_expanded > 1 {
                assert!(stats.open_peak > 0, "heap high-water mark recorded");
                assert!(stats.seen_peak > 0, "seen-set high-water mark recorded");
            }
        }
        for seed in 0..3u64 {
            let h = hypergraphs::random_hypergraph(11, 7, 3, seed);
            for limits in [SearchLimits::unlimited(), SearchLimits::with_nodes(60)] {
                let off = astar_ghw(&h, limits.clone());
                let on = astar_ghw(&h, limits.stats(true));
                assert_eq!(on.upper_bound, off.upper_bound, "seed {seed}");
                assert_eq!(on.lower_bound, off.lower_bound, "seed {seed}");
                assert_eq!(on.ordering, off.ordering, "seed {seed}");
                assert_eq!(on.nodes_expanded, off.nodes_expanded, "seed {seed}");
                assert_eq!(on.cover_cache, off.cover_cache, "seed {seed}");
                assert!(off.stats.is_none());
                let stats = on.stats.expect("stats requested");
                assert!(!stats.incumbents.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn transform_walks_between_arbitrary_states() {
        let g = graphs::grid(3);
        let mut eg = EliminationGraph::new(&g);
        let snapshot = eg.to_graph();
        let mut cur: Vec<u32> = Vec::new();
        transform(&mut eg, &mut cur, &[0, 1, 2]);
        assert_eq!(eg.num_alive(), 6);
        transform(&mut eg, &mut cur, &[0, 5]);
        assert_eq!(eg.num_alive(), 7);
        assert_eq!(cur, vec![0, 5]);
        transform(&mut eg, &mut cur, &[]);
        assert_eq!(eg.to_graph(), snapshot);
    }
}
