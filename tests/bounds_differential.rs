//! Differential test of the root heuristics against the earlier
//! implementations, kept here as oracles: minor-min-width and minor-γ_R
//! that popcount a row on every degree read and re-sort every round,
//! min-fill that recomputes every fill count at every position, the
//! scan-based degeneracy / min-degree / MCS, and the all-pairs
//! contained-edge scan. The heuristics must return the same value or
//! ordering, with and without a seeded tie-breaking `rng`, and leave the
//! `rng` in the same state (checked by comparing the next draw).
//!
//! Inputs: seeded `gnm_random` graphs (n from 5 to 60 across densities),
//! grids, queens, cliques, paths and cycles; residuals of partial
//! eliminations (dead vertices present); the primal graphs of
//! `ghd gen adder 150` and `ghd gen bridge 80`, in generator and file
//! numbering; and hypergraphs with empty and duplicate edges for the
//! contained-edge scan. Min-fill is also run at the 64-vertex word
//! boundaries of the live set (`n` = 63, 64, 65, 129, isolated vertices)
//! and on the primal graphs of `adder 200` and `clique 50`. The greedy
//! ghw evaluator is checked against its rescanning predecessor on random
//! hypergraphs, circuit and clique families, vertices in no edge and bags
//! meeting more than 64 edges. The degree bucket queue behind the minor bounds,
//! degeneracy and min-degree is stressed by graphs whose contractions
//! raise a degree above the initial maximum (complete bipartite `K_{t,n}`),
//! wheels and stars, isolated vertices, `n = 0` and `n = 1`, and residuals
//! of the `adder 200` primal with more than half the vertices dead. A
//! failing case names its input and seed.

use ghd::bounds::{
    degeneracy, ghw_upper_bound, mcs_ordering, min_degree_ordering, min_fill_ordering,
    minor_gamma_r, minor_min_width, minor_min_width_elim, tw_lower_bound, tw_lower_bound_elim,
    LbScratch,
};
use ghd::core::eval::GhwEvaluator;
use ghd::core::EliminationOrdering;
use ghd::hypergraph::generators::{graphs, hypergraphs};
use ghd::hypergraph::io::{parse_hypergraph, write_hypergraph};
use ghd::hypergraph::{BitSet, EliminationGraph, Graph, Hypergraph};
use ghd_prng::rngs::StdRng;
use ghd_prng::{Rng, RngExt};

// ---------------------------------------------------------------------------
// Oracles: the heuristics as they stood before degrees and fill counts were
// cached, verbatim apart from names and the scratch struct inlined.
// ---------------------------------------------------------------------------

fn oracle_contract_into(adj: &mut [BitSet], alive: &mut Vec<usize>, v: usize, u: usize) {
    let nv = std::mem::take(&mut adj[v]);
    for w in nv.iter() {
        adj[w].remove(v);
        if w != u {
            adj[w].insert(u);
            adj[u].insert(w);
        }
    }
    adj[v] = nv;
    adj[v].clear();
    adj[u].remove(u);
    alive.retain(|&x| x != v);
}

fn oracle_pick_tied<R: Rng + ?Sized>(tied: &[usize], rng: &mut Option<&mut R>) -> usize {
    match rng {
        Some(r) => tied[r.random_range(0..tied.len())],
        None => tied[0],
    }
}

fn rows(g: &Graph) -> (Vec<BitSet>, Vec<usize>) {
    let n = g.num_vertices();
    (
        (0..n).map(|v| g.neighbors(v).clone()).collect(),
        (0..n).collect(),
    )
}

fn oracle_degeneracy(g: &Graph) -> usize {
    let mut adj: Vec<BitSet> = (0..g.num_vertices())
        .map(|v| g.neighbors(v).clone())
        .collect();
    let mut alive: Vec<usize> = (0..g.num_vertices()).collect();
    let mut lb = 0;
    while !alive.is_empty() {
        let (idx, &v) = alive
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| adj[v].len())
            .expect("nonempty");
        lb = lb.max(adj[v].len());
        let nv = std::mem::take(&mut adj[v]);
        for w in nv.iter() {
            adj[w].remove(v);
        }
        alive.swap_remove(idx);
    }
    lb
}

fn oracle_mmw<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> usize {
    let (mut adj, mut alive) = rows(g);
    let mut tied = Vec::new();
    let mut lb = 0;
    while !alive.is_empty() {
        let min_deg = alive.iter().map(|&v| adj[v].len()).min().expect("nonempty");
        tied.clear();
        tied.extend(alive.iter().copied().filter(|&v| adj[v].len() == min_deg));
        let v = oracle_pick_tied(&tied, &mut rng);
        lb = lb.max(adj[v].len());
        if adj[v].is_empty() {
            alive.retain(|&x| x != v);
            continue;
        }
        let min_nb_deg = adj[v].iter().map(|u| adj[u].len()).min().expect("nonempty");
        tied.clear();
        tied.extend(adj[v].iter().filter(|&u| adj[u].len() == min_nb_deg));
        let u = oracle_pick_tied(&tied, &mut rng);
        oracle_contract_into(&mut adj, &mut alive, v, u);
    }
    lb
}

fn oracle_gamma_r<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> usize {
    let (mut adj, mut alive) = rows(g);
    let (mut tied, mut seq) = (Vec::new(), Vec::new());
    let mut lb = 0;
    while !alive.is_empty() {
        seq.clear();
        seq.extend_from_slice(&alive);
        seq.sort_by_key(|&v| adj[v].len());
        let mut found = None;
        'outer: for (i, &v) in seq.iter().enumerate() {
            for &p in &seq[..i] {
                if !adj[v].contains(p) {
                    found = Some(v);
                    break 'outer;
                }
            }
        }
        let Some(v) = found else {
            lb = lb.max(alive.len() - 1);
            break;
        };
        lb = lb.max(adj[v].len());
        if adj[v].is_empty() {
            alive.retain(|&x| x != v);
            continue;
        }
        let min_nb_deg = adj[v].iter().map(|u| adj[u].len()).min().expect("nonempty");
        tied.clear();
        tied.extend(adj[v].iter().filter(|&u| adj[u].len() == min_nb_deg));
        let u = oracle_pick_tied(&tied, &mut rng);
        oracle_contract_into(&mut adj, &mut alive, v, u);
    }
    lb
}

fn oracle_tw_lower_bound<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> usize {
    let a = oracle_mmw(g, rng.as_deref_mut());
    let b = oracle_gamma_r(g, rng);
    a.max(b)
}

fn oracle_argmin_tie<R: Rng + ?Sized>(
    keys: impl Iterator<Item = (usize, usize)>,
    rng: &mut Option<&mut R>,
) -> Option<usize> {
    let mut best_key = usize::MAX;
    let mut tied: Vec<usize> = Vec::new();
    for (v, key) in keys {
        match key.cmp(&best_key) {
            std::cmp::Ordering::Less => {
                best_key = key;
                tied.clear();
                tied.push(v);
            }
            std::cmp::Ordering::Equal => tied.push(v),
            std::cmp::Ordering::Greater => {}
        }
    }
    if tied.is_empty() {
        return None;
    }
    Some(match rng {
        Some(r) => tied[r.random_range(0..tied.len())],
        None => tied[0],
    })
}

fn oracle_min_fill<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> Vec<usize> {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut order = vec![0usize; n];
    for pos in (0..n).rev() {
        let v = oracle_argmin_tie(
            eg.alive().iter().map(|v| (v, eg.fill_in_count(v))),
            &mut rng,
        )
        .expect("alive vertex exists");
        order[pos] = v;
        eg.eliminate(v);
    }
    order
}

fn oracle_min_degree<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> Vec<usize> {
    let n = g.num_vertices();
    let mut eg = EliminationGraph::new(g);
    let mut order = vec![0usize; n];
    for pos in (0..n).rev() {
        let v = oracle_argmin_tie(eg.alive().iter().map(|v| (v, eg.degree(v))), &mut rng)
            .expect("alive vertex exists");
        order[pos] = v;
        eg.eliminate(v);
    }
    order
}

fn oracle_mcs<R: Rng + ?Sized>(g: &Graph, mut rng: Option<&mut R>) -> Vec<usize> {
    let n = g.num_vertices();
    let mut weight = vec![0usize; n];
    let mut numbered = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = oracle_argmin_tie(
            (0..n).filter(|&v| !numbered[v]).map(|v| (v, n - weight[v])),
            &mut rng,
        )
        .expect("unnumbered vertex exists");
        numbered[v] = true;
        order.push(v);
        for u in g.neighbors(v).iter() {
            if !numbered[u] {
                weight[u] += 1;
            }
        }
    }
    order
}

fn oracle_uncontained_edges(h: &Hypergraph) -> Vec<usize> {
    (0..h.num_edges())
        .filter(|&i| {
            let e = h.edge(i);
            !(0..h.num_edges()).any(|j| {
                j != i && {
                    let f = h.edge(j);
                    e.is_subset(f) && (e.len() < f.len() || j < i)
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Runs `new` and `old` once without an rng and once each with a fresh
/// `StdRng` per seed, asserting equal results and an equal next draw.
fn agree<T: PartialEq + std::fmt::Debug>(
    what: &str,
    case: &str,
    mut new: impl FnMut(Option<&mut StdRng>) -> T,
    mut old: impl FnMut(Option<&mut StdRng>) -> T,
) {
    assert_eq!(new(None), old(None), "{what} on {case}, rng = None");
    for seed in [1u64, 0x5EED] {
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        assert_eq!(
            new(Some(&mut a)),
            old(Some(&mut b)),
            "{what} on {case}, rng seed {seed}"
        );
        assert_eq!(
            a.next_u64(),
            b.next_u64(),
            "{what} on {case}: rng state after seed {seed}"
        );
    }
}

fn check_graph(case: &str, g: &Graph) {
    assert_eq!(degeneracy(g), oracle_degeneracy(g), "degeneracy on {case}");
    agree(
        "minor_min_width",
        case,
        |r| minor_min_width(g, r),
        |r| oracle_mmw(g, r),
    );
    agree(
        "minor_gamma_r",
        case,
        |r| minor_gamma_r(g, r),
        |r| oracle_gamma_r(g, r),
    );
    agree(
        "tw_lower_bound",
        case,
        |r| tw_lower_bound(g, r),
        |r| oracle_tw_lower_bound(g, r),
    );
    agree(
        "min_fill_ordering",
        case,
        |r| min_fill_ordering(g, r).into_vec(),
        |r| oracle_min_fill(g, r),
    );
    agree(
        "min_degree_ordering",
        case,
        |r| min_degree_ordering(g, r).into_vec(),
        |r| oracle_min_degree(g, r),
    );
    agree(
        "mcs_ordering",
        case,
        |r| mcs_ordering(g, r).into_vec(),
        |r| oracle_mcs(g, r),
    );
}

fn small_graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for n in [5usize, 8, 12, 20, 30, 45, 60] {
        let pairs = n * (n - 1) / 2;
        for density in [0.05, 0.15, 0.4, 0.8] {
            let m = ((pairs as f64) * density).round() as usize;
            for seed in 0..2u64 {
                out.push((
                    format!("gnm({n},{m},{seed})"),
                    graphs::gnm_random(n, m, seed),
                ));
            }
        }
    }
    for k in 2..=7 {
        out.push((format!("grid({k})"), graphs::grid(k)));
    }
    for k in 3..=6 {
        out.push((format!("queen({k})"), graphs::queen(k)));
    }
    for k in 0..=8 {
        out.push((format!("complete({k})"), graphs::complete(k)));
    }
    out.push(("path(9)".into(), graphs::path(9)));
    out.push(("cycle(9)".into(), graphs::cycle(9)));
    out.push(("mycielski(4)".into(), graphs::mycielski(4)));
    out.push(("empty(0)".into(), Graph::new(0)));
    out.push(("isolated(4)".into(), Graph::new(4)));
    out
}

#[test]
fn heuristics_match_the_oracles_on_small_graphs() {
    for (case, g) in small_graphs() {
        check_graph(&case, &g);
    }
}

#[test]
fn elimination_residuals_match_the_oracles() {
    // one scratch across all cases, sizes up and down, so stale rows from
    // a larger earlier graph are exercised too
    let mut scratch = LbScratch::new();
    for (case, g) in small_graphs() {
        let n = g.num_vertices();
        let mut eg = EliminationGraph::new(&g);
        let mut pick = StdRng::seed_from_u64(n as u64);
        for _ in 0..n / 3 {
            let alive: Vec<usize> = eg.alive().iter().collect();
            eg.eliminate(alive[pick.random_range(0..alive.len())]);
        }
        let residual = eg.to_graph();
        let case = format!("{case} after {} eliminations", n / 3);
        agree(
            "minor_min_width_elim",
            &case,
            |r| minor_min_width_elim(&eg, r, &mut LbScratch::new()),
            |r| oracle_mmw(&residual, r),
        );
        agree(
            "tw_lower_bound_elim",
            &case,
            |r| tw_lower_bound_elim(&eg, r, &mut LbScratch::new()),
            |r| oracle_tw_lower_bound(&residual, r),
        );
        assert_eq!(
            tw_lower_bound_elim::<StdRng>(&eg, None, &mut scratch),
            oracle_tw_lower_bound::<StdRng>(&residual, None),
            "tw_lower_bound_elim with a shared scratch on {case}"
        );
        assert_eq!(
            minor_min_width_elim::<StdRng>(&eg, None, &mut scratch),
            oracle_mmw::<StdRng>(&residual, None),
            "minor_min_width_elim with a shared scratch on {case}"
        );
    }
}

/// A generated circuit hypergraph as built in process and as numbered by
/// a round trip through its instance text (what `ghd gen` prints).
fn both_numberings(name: &str, h: Hypergraph) -> [(String, Hypergraph); 2] {
    let parsed = parse_hypergraph(&write_hypergraph(&h)).expect("generated text parses");
    [(name.to_string(), h), (format!("{name} (parsed)"), parsed)]
}

fn check_circuit(name: &str, h: Hypergraph) {
    for (case, h) in both_numberings(name, h) {
        let g = h.primal_graph();
        check_graph(&case, &g);
        agree(
            "ghw_upper_bound",
            &case,
            |r| {
                let (w, sigma) = ghw_upper_bound(&h, r);
                (w, sigma.into_vec())
            },
            |mut r| {
                let sigma = oracle_min_fill(&g, r.as_deref_mut());
                let sigma = EliminationOrdering::new(sigma).expect("permutation");
                (GhwEvaluator::new(&h).width(&sigma, r), sigma.into_vec())
            },
        );
    }
}

#[test]
fn adder_150_primal_graph_matches_the_oracles() {
    check_circuit("adder 150", hypergraphs::adder(150));
}

#[test]
fn bridge_80_primal_graph_matches_the_oracles() {
    check_circuit("bridge 80", hypergraphs::bridge(80));
}

#[test]
fn contained_edge_scan_matches_the_oracle() {
    let mut cases: Vec<(String, Hypergraph)> = vec![
        ("no edges".into(), Hypergraph::new(3)),
        (
            "one empty edge".into(),
            Hypergraph::from_edges(3, [Vec::<usize>::new()]),
        ),
        (
            "only empty edges".into(),
            Hypergraph::from_edges(2, vec![vec![]; 3]),
        ),
        (
            "empty edges around nonempty ones".into(),
            Hypergraph::from_edges(4, vec![vec![], vec![0, 1], vec![], vec![1], vec![]]),
        ),
        (
            "empty edge after nonempty".into(),
            Hypergraph::from_edges(3, vec![vec![2], vec![]]),
        ),
        (
            "duplicates and chains".into(),
            Hypergraph::from_edges(
                5,
                vec![
                    vec![0, 1],
                    vec![0, 1],
                    vec![0, 1, 2],
                    vec![2],
                    vec![3, 4],
                    vec![0, 1, 2],
                    vec![4],
                ],
            ),
        ),
    ];
    cases.extend(both_numberings("adder 150", hypergraphs::adder(150)));
    cases.extend(both_numberings("bridge 80", hypergraphs::bridge(80)));
    for k in [4usize, 7] {
        cases.push((format!("clique({k})"), hypergraphs::clique(k)));
        cases.push((format!("grid2d({k})"), hypergraphs::grid2d(k)));
    }
    for seed in 0..40u64 {
        let h = hypergraphs::random_hypergraph(12, 20, 4, seed);
        // the same edges plus seeded empty edges and repeats
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<Vec<usize>> = h.edges().iter().map(BitSet::to_vec).collect();
        for _ in 0..3 {
            let at = rng.random_range(0..=edges.len());
            if rng.random_range(0..2) == 0 {
                edges.insert(at, Vec::new());
            } else {
                let copy = edges[rng.random_range(0..edges.len())].clone();
                edges.insert(at, copy);
            }
        }
        cases.push((format!("random_hypergraph seed {seed}"), h));
        cases.push((
            format!("random_hypergraph seed {seed} + empty/repeat edges"),
            Hypergraph::from_edges(12, edges),
        ));
    }
    for (case, h) in cases {
        assert_eq!(
            h.uncontained_edges(),
            oracle_uncontained_edges(&h),
            "contained-edge scan on {case}"
        );
    }
}

/// The residual checks for one elimination graph, all through the shared
/// `scratch`: both `_elim` bounds with and without an rng (value and next
/// draw), and γ_R alone, rng-driven, on the residual's materialised graph.
fn check_residual(case: &str, eg: &EliminationGraph, scratch: &mut LbScratch) {
    let residual = eg.to_graph();
    agree(
        "minor_min_width_elim",
        case,
        |r| minor_min_width_elim(eg, r, scratch),
        |r| oracle_mmw(&residual, r),
    );
    agree(
        "tw_lower_bound_elim",
        case,
        |r| tw_lower_bound_elim(eg, r, scratch),
        |r| oracle_tw_lower_bound(&residual, r),
    );
    agree(
        "minor_gamma_r on the residual",
        case,
        |r| minor_gamma_r(&residual, r),
        |r| oracle_gamma_r(&residual, r),
    );
}

/// `K_{t,n}`: hubs `0..t`, leaves `t..t + n`.
fn complete_bipartite(t: usize, n: usize) -> Graph {
    Graph::from_edges(t + n, (0..t).flat_map(|a| (t..t + n).map(move |l| (a, l))))
}

/// `W_n`: hub 0 on the cycle `1..=n`.
fn wheel(n: usize) -> Graph {
    Graph::from_edges(
        n + 1,
        (1..=n).flat_map(|v| [(0, v), (v, if v == n { 1 } else { v + 1 })]),
    )
}

/// `K_{1,n}`: centre 0, leaves `1..=n`.
fn star(n: usize) -> Graph {
    Graph::from_edges(n + 1, (1..=n).map(|l| (0, l)))
}

/// `g` with `k` isolated vertices interleaved at the odd ids below `2k`.
fn with_isolated(g: &Graph, k: usize) -> Graph {
    let at = |v: usize| if v < k { 2 * v } else { v + k };
    let n = g.num_vertices();
    Graph::from_edges(
        n + k,
        (0..n).flat_map(|u| g.neighbors(u).iter().filter(move |&v| u < v).map(move |v| (at(u), at(v)))),
    )
}

fn bucket_stress_graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    // for t >= 3 the first minor-min-width contraction puts a leaf into a
    // hub of degree n, which gains the other t - 1 hubs: degree n + t - 2
    for t in 2..=4 {
        for n in [5usize, 12, 40] {
            out.push((format!("K_{{{t},{n}}}"), complete_bipartite(t, n)));
        }
    }
    for n in [3usize, 5, 9, 20] {
        out.push((format!("wheel({n})"), wheel(n)));
    }
    for n in [1usize, 5, 30] {
        out.push((format!("star({n})"), star(n)));
    }
    out.push(("single(1)".into(), Graph::new(1)));
    out.push(("empty(0)".into(), Graph::new(0)));
    out.push(("K_{3,12} + 5 isolated".into(), with_isolated(&complete_bipartite(3, 12), 5)));
    out.push(("wheel(9) + 4 isolated".into(), with_isolated(&wheel(9), 4)));
    out.push(("queen(5) + 3 isolated".into(), with_isolated(&graphs::queen(5), 3)));
    out.push(("complete(6) + 6 isolated".into(), with_isolated(&graphs::complete(6), 6)));
    out
}

#[test]
fn bucket_stress_graphs_match_the_oracles() {
    let mut scratch = LbScratch::new();
    for (case, g) in bucket_stress_graphs() {
        check_graph(&case, &g);
        let n = g.num_vertices();
        let mut eg = EliminationGraph::new(&g);
        check_residual(&format!("{case} (nothing eliminated)"), &eg, &mut scratch);
        let mut pick = StdRng::seed_from_u64(n as u64 + 17);
        for _ in 0..n / 2 {
            let alive: Vec<usize> = eg.alive().iter().collect();
            eg.eliminate(alive[pick.random_range(0..alive.len())]);
        }
        check_residual(&format!("{case} after {} eliminations", n / 2), &eg, &mut scratch);
    }
}

#[test]
fn adder_200_residual_matches_the_oracles() {
    // 601 of the 1001 vertices dead: they load as isolated rows and fill
    // bucket 0. The shared scratch serves a small graph before and after
    // the large residual, so its buckets are re-dimensioned both ways.
    let g = hypergraphs::adder(200).primal_graph();
    let n = g.num_vertices();
    let wheel = wheel(9);
    let mut scratch = LbScratch::new();
    check_residual("wheel(9) before the adder residual", &EliminationGraph::new(&wheel), &mut scratch);
    let mut eg = EliminationGraph::new(&g);
    let mut pick = StdRng::seed_from_u64(200);
    let dead = n * 3 / 5;
    for _ in 0..dead {
        let alive: Vec<usize> = eg.alive().iter().collect();
        eg.eliminate(alive[pick.random_range(0..alive.len())]);
    }
    check_residual(&format!("adder 200 after {dead} eliminations"), &eg, &mut scratch);
    check_residual("wheel(9) after the adder residual", &EliminationGraph::new(&wheel), &mut scratch);
}

// ---------------------------------------------------------------------------
// Min-fill at word boundaries of the live set
// ---------------------------------------------------------------------------

fn check_min_fill(case: &str, g: &Graph) {
    agree(
        "min_fill_ordering",
        case,
        |r| min_fill_ordering(g, r).into_vec(),
        |r| oracle_min_fill(g, r),
    );
}

#[test]
fn min_fill_matches_the_oracle_at_word_boundaries() {
    let mut cases: Vec<(String, Graph)> = Vec::new();
    for n in [0usize, 1, 63, 64, 65, 129] {
        cases.push((format!("isolated({n})"), Graph::new(n)));
        cases.push((format!("path({n})"), graphs::path(n)));
        if n >= 2 {
            let pairs = n * (n - 1) / 2;
            for (density, seed) in [(0.04, 1u64), (0.1, 2), (0.3, 3)] {
                let m = ((pairs as f64) * density).round() as usize;
                cases.push((
                    format!("gnm({n},{m},{seed})"),
                    graphs::gnm_random(n, m, seed),
                ));
            }
        }
    }
    // isolated vertices interleaved with a connected part, straddling the
    // first and second words
    let g = graphs::gnm_random(60, 240, 4);
    cases.push(("gnm(60,240,4) + 10 isolated".into(), with_isolated(&g, 10)));
    let g = graphs::gnm_random(100, 500, 5);
    cases.push(("gnm(100,500,5) + 40 isolated".into(), with_isolated(&g, 40)));
    cases.push((
        "queen(8) + 1 isolated".into(),
        with_isolated(&graphs::queen(8), 1),
    ));
    cases.push(("complete(64)".into(), graphs::complete(64)));
    cases.push(("complete(65)".into(), graphs::complete(65)));
    for (case, g) in cases {
        check_min_fill(&case, &g);
    }
}

#[test]
fn adder_200_and_clique_50_primal_min_fill_matches_the_oracle() {
    check_min_fill("adder 200 primal", &hypergraphs::adder(200).primal_graph());
    check_min_fill("clique 50 primal", &hypergraphs::clique(50).primal_graph());
}

// ---------------------------------------------------------------------------
// The greedy ghw evaluator
// ---------------------------------------------------------------------------

/// The ghw fitness evaluator (Figs 7.1–7.2) as it stood when each greedy
/// round recomputed `|e ∩ uncovered|` for every candidate edge: the
/// list-based elimination engine and the rescanning greedy cover, verbatim
/// apart from names and one struct.
struct OracleGhwEvaluator {
    lists: Vec<Vec<u32>>,
    base_len: Vec<usize>,
    stamp: Vec<u32>,
    round: u32,
    bag: Vec<u32>,
    h: Hypergraph,
    covered: BitSet,
    bag_vertices: Vec<u32>,
    uncovered: BitSet,
    candidates: Vec<u32>,
    cand_stamp: Vec<u32>,
    cover_round: u32,
    tied: Vec<u32>,
}

impl OracleGhwEvaluator {
    fn new(h: &Hypergraph) -> Self {
        let g = h.primal_graph();
        let n = g.num_vertices();
        OracleGhwEvaluator {
            lists: (0..n)
                .map(|v| g.neighbors(v).iter().map(|u| u as u32).collect())
                .collect(),
            base_len: (0..n).map(|v| g.degree(v)).collect(),
            stamp: vec![0; n],
            round: 0,
            bag: Vec::with_capacity(n),
            h: h.clone(),
            covered: h.covered_vertices(),
            bag_vertices: Vec::new(),
            uncovered: BitSet::new(h.num_vertices()),
            candidates: Vec::new(),
            cand_stamp: vec![0; h.num_edges()],
            cover_round: 0,
            tied: Vec::new(),
        }
    }

    fn collect_bag(&mut self, v: usize, i: usize, sigma: &EliminationOrdering) {
        self.round += 1;
        let round = self.round;
        self.bag.clear();
        let list = std::mem::take(&mut self.lists[v]);
        for &x in &list {
            let x_us = x as usize;
            if sigma.position(x_us) < i && self.stamp[x_us] != round {
                self.stamp[x_us] = round;
                self.bag.push(x);
            }
        }
        self.lists[v] = list;
    }

    fn forward(&mut self, sigma: &EliminationOrdering) {
        let Some(u) = self
            .bag
            .iter()
            .copied()
            .max_by_key(|&x| sigma.position(x as usize))
        else {
            return;
        };
        let u = u as usize;
        let mut list = std::mem::take(&mut self.lists[u]);
        list.extend(self.bag.iter().copied().filter(|&x| x as usize != u));
        self.lists[u] = list;
    }

    fn greedy_size<R: Rng + ?Sized>(&mut self, rng: &mut Option<&mut R>) -> usize {
        self.cover_round += 1;
        let round = self.cover_round;
        self.candidates.clear();
        self.uncovered.clear();
        let mut remaining = 0usize;
        for &v in &self.bag_vertices {
            self.uncovered.insert(v as usize);
            remaining += 1;
            for &e in self.h.edges_containing(v as usize) {
                if self.cand_stamp[e] != round {
                    self.cand_stamp[e] = round;
                    self.candidates.push(e as u32);
                }
            }
        }
        let mut k = 0;
        while remaining > 0 {
            let mut best_gain = 0;
            self.tied.clear();
            for &e in &self.candidates {
                let gain = self.h.edge(e as usize).intersection_len(&self.uncovered);
                match gain.cmp(&best_gain) {
                    std::cmp::Ordering::Greater => {
                        best_gain = gain;
                        self.tied.clear();
                        self.tied.push(e);
                    }
                    std::cmp::Ordering::Equal if gain > 0 => self.tied.push(e),
                    _ => {}
                }
            }
            assert!(best_gain > 0, "bag not coverable by hypergraph edges");
            let pick = match rng.as_deref_mut() {
                Some(r) => self.tied[r.random_range(0..self.tied.len())],
                None => self.tied[0],
            };
            self.uncovered.difference_with(self.h.edge(pick as usize));
            remaining -= best_gain;
            k += 1;
        }
        k
    }

    fn width<R: Rng + ?Sized>(
        &mut self,
        sigma: &EliminationOrdering,
        rng: Option<&mut R>,
    ) -> usize {
        let n = sigma.len();
        let mut width = 0;
        let mut rng = rng;
        for i in (0..n).rev() {
            if width > i {
                break;
            }
            let v = sigma.at(i);
            self.collect_bag(v, i, sigma);
            self.bag_vertices.clear();
            if self.covered.contains(v) {
                self.bag_vertices.push(v as u32);
            }
            for idx in 0..self.bag.len() {
                let x = self.bag[idx];
                if self.covered.contains(x as usize) {
                    self.bag_vertices.push(x);
                }
            }
            let k = self.greedy_size(&mut rng);
            width = width.max(k);
            self.forward(sigma);
        }
        for (list, &len) in self.lists.iter_mut().zip(&self.base_len) {
            list.truncate(len);
        }
        width
    }
}

/// Widths of `orderings` through one evaluator per side (so buffers are
/// reused across orderings), the rng threaded through every call.
fn check_greedy(case: &str, h: &Hypergraph, orderings: &[EliminationOrdering]) {
    agree(
        "GhwEvaluator::width",
        case,
        |mut r| {
            let mut eval = GhwEvaluator::new(h);
            orderings
                .iter()
                .map(|s| eval.width(s, r.as_deref_mut()))
                .collect::<Vec<_>>()
        },
        |mut r| {
            let mut eval = OracleGhwEvaluator::new(h);
            orderings
                .iter()
                .map(|s| eval.width(s, r.as_deref_mut()))
                .collect::<Vec<_>>()
        },
    );
}

/// The identity, reversed and min-fill orderings of `h`, plus `k` seeded
/// random ones.
fn orderings_for(h: &Hypergraph, k: usize, seed: u64) -> Vec<EliminationOrdering> {
    let n = h.num_vertices();
    let mut out = vec![
        EliminationOrdering::identity(n),
        EliminationOrdering::new((0..n).rev().collect()).expect("permutation"),
        min_fill_ordering::<StdRng>(&h.primal_graph(), None),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    out.extend((0..k).map(|_| EliminationOrdering::random(n, &mut rng)));
    out
}

#[test]
fn greedy_evaluator_matches_the_oracle_on_random_hypergraphs() {
    for seed in 0..20u64 {
        for (n, m, arity) in [(12usize, 10usize, 3usize), (25, 30, 5), (70, 90, 6)] {
            let h = hypergraphs::random_hypergraph(n, m, arity, seed);
            let case = format!("random_hypergraph({n},{m},{arity},{seed})");
            check_greedy(&case, &h, &orderings_for(&h, 4, seed));
        }
    }
}

#[test]
fn greedy_evaluator_matches_the_oracle_on_structured_families() {
    let cases = [
        ("clique 10", hypergraphs::clique(10)),
        ("clique 30", hypergraphs::clique(30)),
        ("clique 50", hypergraphs::clique(50)),
        ("adder 50", hypergraphs::adder(50)),
        ("adder 150", hypergraphs::adder(150)),
        ("bridge 50", hypergraphs::bridge(50)),
        ("bridge 100", hypergraphs::bridge(100)),
        ("grid2d-h 6", hypergraphs::grid2d(6)),
    ];
    for (name, h) in cases {
        for (case, h) in both_numberings(name, h) {
            check_greedy(&case, &h, &orderings_for(&h, 3, 11));
        }
    }
}

#[test]
fn greedy_evaluator_matches_the_oracle_on_uncovered_vertices_and_wide_bags() {
    // vertices 0, 7 and 19 lie in no edge (isolated in the primal graph)
    let sparse = Hypergraph::from_edges(
        20,
        vec![
            vec![1, 2, 3],
            vec![3, 4],
            vec![4, 5, 6, 8],
            vec![8, 9],
            vec![9, 10, 1],
            vec![11, 12, 13, 14],
            vec![14, 15, 16, 17, 18],
            vec![2, 5, 10],
        ],
    );
    // only vertex-free edges and vertices in none
    let empty_edges = Hypergraph::from_edges(4, vec![vec![], vec![1, 2], vec![]]);
    // hub 0 meets 100 binary edges and chords join consecutive leaves: the
    // hub's bag meets more than 64 (and more than 128) candidate edges,
    // with ties straddling the words of the candidate set
    let mut edges: Vec<Vec<usize>> = (1..=100).map(|i| vec![0, i]).collect();
    edges.extend((1..100).step_by(2).map(|i| vec![i, i + 1]));
    edges.extend((1..98).step_by(3).map(|i| vec![i, i + 1, i + 2]));
    let hub = Hypergraph::from_edges(101, edges);
    let hub_last = {
        // the hub at the back of σ: eliminated first, its bag is everything
        let mut order: Vec<usize> = (1..=100).collect();
        order.push(0);
        EliminationOrdering::new(order).expect("permutation")
    };
    for (case, h, extra) in [
        ("vertices in no edge", sparse, None),
        ("empty edges", empty_edges, None),
        ("hub of 100 edges", hub, Some(hub_last)),
    ] {
        let mut orderings = orderings_for(&h, 6, 23);
        orderings.extend(extra);
        check_greedy(case, &h, &orderings);
    }
}
