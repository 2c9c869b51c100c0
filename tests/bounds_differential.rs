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
//! contained-edge scan. A failing case names its input and seed.

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
    new: impl Fn(Option<&mut StdRng>) -> T,
    old: impl Fn(Option<&mut StdRng>) -> T,
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
