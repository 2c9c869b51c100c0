//! Differential test of certification against the earlier implementations,
//! kept here as oracles: the set-cover candidate dedupe that compares each
//! new restriction with every kept one, and the decomposition checks that
//! test every edge against every bag. `setcover::candidates` must return the
//! same `(edge, restriction)` vector, order included (greedy tie-breaks and
//! the printed λ-sets depend on it); `verify` / `verify_graph` must return
//! the same `Ok` or the same first error, down to the uncovered edge index.
//!
//! Inputs: seeded random hypergraphs with duplicate, nested and empty edges
//! under random targets and elimination bags; every bag of the certificates
//! the CLI builds for `clique 40/50`, `adder 150/200` and `bridge 80/100`
//! (instance-file numbering, A* or split-BB ordering as `cli-large` runs
//! them); and valid decompositions next to mutated ones (a vertex dropped
//! from a bag, an edge dropped from a λ-set, a bag removed). A failing case names its input and seed.
//!
//! The certificate the CLI verifies covers only the bags that can set the
//! width and lets every other bag borrow a containing neighbour's λ
//! (`GeneralizedHypertreeDecomposition::certificate`). It is compared with
//! the decomposition that covers every bag exactly: the same tree, the same
//! width, and the same verdict from `verify`, on the seeded corpus, on the
//! mutated trees, and on the ghw instances of the `cli-large` and
//! `serve-warm` benchmarks under seeded edge orders and vertex names.

use ghd::bounds::upper::ghw_upper_bound;
use ghd::core::bucket::{certificate_from_ordering, ghd_from_ordering, vertex_elimination};
use ghd::core::setcover::{candidates, CoverMethod};
use ghd::core::{
    DecompositionError, EliminationOrdering, GeneralizedHypertreeDecomposition, TreeDecomposition,
};
use ghd::hypergraph::generators::hypergraphs;
use ghd::hypergraph::io::{parse_hypergraph, write_hypergraph};
use ghd::hypergraph::{BitSet, Graph, Hypergraph};
use ghd::search::{astar_ghw, split_ghw, BbGhwConfig, SearchLimits};
use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;

// ---------------------------------------------------------------------------
// Oracles: candidate dedupe and edge coverage as they stood before the
// incidence indices, verbatim apart from names and public accessors.
// ---------------------------------------------------------------------------

fn oracle_candidates(target: &BitSet, h: &Hypergraph) -> Vec<(usize, BitSet)> {
    let mut seen = Vec::<(usize, BitSet)>::new();
    let mut edge_ids = BitSet::new(h.num_edges());
    for v in target.iter() {
        for &e in h.edges_containing(v) {
            edge_ids.insert(e);
        }
    }
    'next: for e in edge_ids.iter() {
        let mut restriction = h.edge(e).clone();
        restriction.intersect_with(target);
        // drop restrictions dominated by an existing candidate
        let mut i = 0;
        while i < seen.len() {
            if restriction.is_subset(&seen[i].1) {
                continue 'next;
            }
            if seen[i].1.is_subset(&restriction) {
                seen.swap_remove(i);
            } else {
                i += 1;
            }
        }
        seen.push((e, restriction));
    }
    seen
}

fn oracle_verify_structure(td: &TreeDecomposition) -> Result<(), DecompositionError> {
    let n_nodes = td.num_nodes();
    if n_nodes == 0 {
        return Err(DecompositionError::NotATree);
    }
    if td.nodes().filter(|&p| td.parent(p).is_none()).count() != 1 {
        return Err(DecompositionError::NotATree);
    }
    if td.preorder().len() != n_nodes {
        return Err(DecompositionError::NotATree);
    }
    for node in td.nodes() {
        if td.bag(node).capacity() != td.num_vertices() {
            return Err(DecompositionError::VertexOutOfRange { node });
        }
    }
    let mut node_count = vec![0usize; td.num_vertices()];
    let mut edge_count = vec![0usize; td.num_vertices()];
    for p in td.nodes() {
        for v in td.bag(p).iter() {
            node_count[v] += 1;
        }
    }
    for (p, c) in td.edges() {
        let mut shared = td.bag(p).clone();
        shared.intersect_with(td.bag(c));
        for v in shared.iter() {
            edge_count[v] += 1;
        }
    }
    for v in 0..td.num_vertices() {
        if node_count[v] > 0 && node_count[v] - edge_count[v] != 1 {
            return Err(DecompositionError::Disconnected { vertex: v });
        }
    }
    Ok(())
}

fn oracle_verify(td: &TreeDecomposition, h: &Hypergraph) -> Result<(), DecompositionError> {
    if td.num_vertices() != h.num_vertices() {
        return Err(DecompositionError::SizeMismatch);
    }
    oracle_verify_structure(td)?;
    for (e, edge) in h.edges().iter().enumerate() {
        if !td.nodes().any(|p| edge.is_subset(td.bag(p))) {
            return Err(DecompositionError::EdgeNotCovered { edge: e });
        }
    }
    Ok(())
}

fn oracle_verify_graph(td: &TreeDecomposition, g: &Graph) -> Result<(), DecompositionError> {
    if td.num_vertices() != g.num_vertices() {
        return Err(DecompositionError::SizeMismatch);
    }
    oracle_verify_structure(td)?;
    for (e, (u, v)) in g.edges().enumerate() {
        if !td
            .nodes()
            .any(|p| td.bag(p).contains(u) && td.bag(p).contains(v))
        {
            return Err(DecompositionError::EdgeNotCovered { edge: e });
        }
    }
    Ok(())
}

fn oracle_verify_ghd(
    ghd: &GeneralizedHypertreeDecomposition,
    h: &Hypergraph,
) -> Result<(), DecompositionError> {
    oracle_verify(ghd.tree(), h)?;
    for p in ghd.tree().nodes() {
        let mut covered = BitSet::new(h.num_vertices());
        for &e in ghd.lambda(p) {
            covered.union_with(h.edge(e));
        }
        if !ghd.tree().bag(p).is_subset(&covered) {
            return Err(DecompositionError::ChiNotCovered { node: p });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn check_candidates(case: &str, h: &Hypergraph, target: &BitSet) {
    assert_eq!(
        candidates(target, h),
        oracle_candidates(target, h),
        "candidates on {case}, target {target:?}"
    );
}

/// Every bag of the decomposition `σ` induces, as certification covers it.
fn check_bags(case: &str, h: &Hypergraph, sigma: &EliminationOrdering) {
    let ghd = ghd_from_ordering(h, sigma, CoverMethod::Greedy);
    for p in ghd.tree().nodes() {
        check_candidates(&format!("{case}, bag {p}"), h, ghd.tree().bag(p));
    }
}

fn check_verify(case: &str, h: &Hypergraph, td: &TreeDecomposition) {
    let g = h.primal_graph();
    assert_eq!(td.verify(h), oracle_verify(td, h), "verify on {case}");
    assert_eq!(
        td.verify_graph(&g),
        oracle_verify_graph(td, &g),
        "verify_graph on {case}"
    );
}

/// A borrowed-λ certificate against the decomposition that covers every
/// bag of the same tree exactly: the same tree, the same width, and
/// `verify` accepts both or neither.
fn check_same_verdict(
    case: &str,
    h: &Hypergraph,
    borrowed: &GeneralizedHypertreeDecomposition,
    every: &GeneralizedHypertreeDecomposition,
) {
    assert_eq!(borrowed.width(), every.width(), "certificate width on {case}");
    assert_eq!(
        borrowed.verify(h).is_ok(),
        every.verify(h).is_ok(),
        "certificate verdict on {case}: borrowed {:?}, every bag {:?}",
        borrowed.verify(h),
        every.verify(h)
    );
    let (a, b) = (borrowed.tree(), every.tree());
    assert_eq!(a.num_nodes(), b.num_nodes(), "tree of {case}");
    for p in b.nodes() {
        assert_eq!(a.bag(p), b.bag(p), "bag {p} of {case}");
        assert_eq!(a.parent(p), b.parent(p), "parent of {p} in {case}");
    }
}

/// [`check_same_verdict`] on any tree decomposition, valid or not.
fn check_borrowed(case: &str, h: &Hypergraph, td: &TreeDecomposition) {
    let every = GeneralizedHypertreeDecomposition::from_tree_decomposition(
        td.clone(),
        h,
        CoverMethod::Exact,
    );
    let borrowed = GeneralizedHypertreeDecomposition::certificate(td.clone(), h);
    check_same_verdict(case, h, &borrowed, &every);
}

/// [`check_same_verdict`] on the tree of `σ`, through the entry points the
/// CLI calls; both decompositions verify.
fn check_certificate_of(case: &str, h: &Hypergraph, sigma: &EliminationOrdering) {
    let every = ghd_from_ordering(h, sigma, CoverMethod::Exact);
    assert_eq!(every.verify(h), Ok(()), "every-bag decomposition of {case}");
    check_same_verdict(case, h, &certificate_from_ordering(h, sigma), &every);
}

fn check_verify_ghd(case: &str, h: &Hypergraph, ghd: &GeneralizedHypertreeDecomposition) {
    check_verify(case, h, ghd.tree());
    assert_eq!(
        ghd.verify(h),
        oracle_verify_ghd(ghd, h),
        "ghd verify on {case}"
    );
}

/// `ghd` without node `drop`: its children hang from its parent (from its
/// first child when it was the root), λ-sets follow their nodes.
fn without_node(
    ghd: &GeneralizedHypertreeDecomposition,
    drop: usize,
) -> GeneralizedHypertreeDecomposition {
    let td = ghd.tree();
    let mut out = TreeDecomposition::new(td.num_vertices());
    let mut lambda = Vec::new();
    let mut new_id = vec![usize::MAX; td.num_nodes()];
    let mut root = None;
    for p in td.preorder() {
        if p == drop {
            continue;
        }
        let mut anc = td.parent(p);
        while anc == Some(drop) {
            anc = td.parent(drop);
        }
        let id = match anc.map(|a| new_id[a]).or(root) {
            Some(parent) => out.add_child(parent, td.bag(p).clone()),
            None => {
                let r = out.add_root(td.bag(p).clone());
                root = Some(r);
                r
            }
        };
        new_id[p] = id;
        lambda.push(ghd.lambda(p).to_vec());
    }
    GeneralizedHypertreeDecomposition::new(out, lambda)
}

/// The decomposition of `σ` as built (valid), then `rounds` of seeded
/// mutations: a vertex dropped from a bag, an edge dropped from a λ-set, a
/// bag removed.
fn check_decompositions(
    case: &str,
    h: &Hypergraph,
    sigma: &EliminationOrdering,
    seed: u64,
    rounds: usize,
) {
    let ghd = ghd_from_ordering(h, sigma, CoverMethod::Greedy);
    assert_eq!(ghd.verify(h), Ok(()), "valid decomposition of {case}");
    check_verify_ghd(&format!("{case} (valid)"), h, &ghd);
    check_certificate_of(&format!("{case} (valid)"), h, sigma);
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = ghd.tree().num_nodes();
    for k in 0..rounds {
        let p = rng.random_range(0..nodes);
        let bag = ghd.tree().bag(p).to_vec();
        if !bag.is_empty() {
            let v = bag[rng.random_range(0..bag.len())];
            let mut td = ghd.tree().clone();
            td.bag_mut(p).remove(v);
            let lambda = td.nodes().map(|q| ghd.lambda(q).to_vec()).collect();
            let mutated = GeneralizedHypertreeDecomposition::new(td, lambda);
            let what = format!("{case}, seed {seed}.{k}: vertex {v} dropped from bag {p}");
            check_verify_ghd(&what, h, &mutated);
            check_borrowed(&what, h, mutated.tree());
        }
        if !ghd.lambda(p).is_empty() {
            let mut lambda: Vec<Vec<usize>> =
                ghd.tree().nodes().map(|q| ghd.lambda(q).to_vec()).collect();
            let i = rng.random_range(0..lambda[p].len());
            let e = lambda[p].remove(i);
            let mutated = GeneralizedHypertreeDecomposition::new(ghd.tree().clone(), lambda);
            check_verify_ghd(
                &format!("{case}, seed {seed}.{k}: edge {e} dropped from λ({p})"),
                h,
                &mutated,
            );
        }
        if nodes > 1 {
            let mutated = without_node(&ghd, p);
            let what = format!("{case}, seed {seed}.{k}: bag {p} removed");
            check_verify_ghd(&what, h, &mutated);
            check_borrowed(&what, h, mutated.tree());
        }
    }
}

/// `random_hypergraph` edges plus seeded duplicates, nested sub-edges and
/// empty edges, shuffled into the edge list.
fn messy_hypergraph(seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCE57);
    let n = rng.random_range(4..24usize);
    let m = rng.random_range(1..30usize);
    let base = hypergraphs::random_hypergraph(n, m, rng.random_range(2..7usize), seed);
    let mut edges: Vec<Vec<usize>> = base.edges().iter().map(BitSet::to_vec).collect();
    for _ in 0..rng.random_range(0..12usize) {
        let src = edges[rng.random_range(0..edges.len())].clone();
        let e = match rng.random_range(0..3u32) {
            0 => src,
            1 => src
                .into_iter()
                .filter(|_| rng.random_range(0..2u32) == 0)
                .collect(),
            _ => Vec::new(),
        };
        let at = rng.random_range(0..=edges.len());
        edges.insert(at, e);
    }
    Hypergraph::from_edges(n, edges)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn candidates_match_the_oracle_on_messy_hypergraphs() {
    for seed in 0..300u64 {
        let h = messy_hypergraph(seed);
        let n = h.num_vertices();
        let case = format!("messy hypergraph seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed);
        check_candidates(&case, &h, &BitSet::new(n));
        check_candidates(&case, &h, &BitSet::full(n));
        for e in h.edges() {
            check_candidates(&case, &h, e);
        }
        for _ in 0..8 {
            let keep = rng.random_range(1..5u32);
            let target = BitSet::from_iter(n, (0..n).filter(|_| rng.random_range(0..5u32) < keep));
            check_candidates(&case, &h, &target);
        }
        let sigma = EliminationOrdering::random(n, &mut rng);
        check_bags(&case, &h, &sigma);
        check_certificate_of(&case, &h, &sigma);
    }
}

#[test]
fn candidates_match_the_oracle_on_structured_families() {
    let mut cases: Vec<(String, Hypergraph)> = Vec::new();
    for k in [3usize, 6, 9] {
        cases.push((format!("clique({k})"), hypergraphs::clique(k)));
        cases.push((format!("grid2d({k})"), hypergraphs::grid2d(k)));
    }
    cases.push(("adder(12)".into(), hypergraphs::adder(12)));
    cases.push(("bridge(8)".into(), hypergraphs::bridge(8)));
    cases.push(("acyclic chain".into(), hypergraphs::acyclic_chain(12, 4, 2)));
    for (i, (case, h)) in cases.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        for _ in 0..4 {
            let sigma = EliminationOrdering::random(h.num_vertices(), &mut rng);
            check_bags(case, h, &sigma);
            check_certificate_of(case, h, &sigma);
        }
    }
}

/// The certificates `cli-large` prints: instance-file numbering, solved by
/// the method the workload runs them with.
fn certificate(h: &Hypergraph, astar: bool) -> EliminationOrdering {
    let r = if astar {
        astar_ghw(h, SearchLimits::unlimited())
    } else {
        split_ghw(h, &BbGhwConfig::default(), 1, None).result
    };
    assert!(r.exact, "certificate search finishes");
    EliminationOrdering::new(r.ordering.expect("ordering")).expect("permutation")
}

fn check_certificate(name: &str, h: Hypergraph, astar: bool) {
    let h = parse_hypergraph(&write_hypergraph(&h)).expect("generated text parses");
    let sigma = certificate(&h, astar);
    check_bags(name, &h, &sigma);
    let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
    check_verify_ghd(&format!("{name} certificate"), &h, &ghd);
    check_certificate_of(&format!("{name} certificate"), &h, &sigma);
    check_decompositions(name, &h, &sigma, 7, 2);
}

#[test]
fn clique_certificates_match_the_oracles() {
    check_certificate("clique 40", hypergraphs::clique(40), true);
    check_certificate("clique 50", hypergraphs::clique(50), false);
}

#[test]
fn circuit_certificates_match_the_oracles() {
    check_certificate("adder 150", hypergraphs::adder(150), true);
    check_certificate("adder 200", hypergraphs::adder(200), false);
    check_certificate("bridge 80", hypergraphs::bridge(80), true);
    check_certificate("bridge 100", hypergraphs::bridge(100), false);
}

#[test]
fn verify_matches_the_oracles_on_valid_and_mutated_decompositions() {
    for seed in 0..200u64 {
        let h = messy_hypergraph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7D);
        let sigma = EliminationOrdering::random(h.num_vertices(), &mut rng);
        check_decompositions(
            &format!("messy hypergraph seed {seed}"),
            &h,
            &sigma,
            seed,
            6,
        );
    }
    // a decomposition built for another vertex count, and a forest
    let h = hypergraphs::clique(4);
    let sigma = EliminationOrdering::identity(4);
    let td = vertex_elimination(&h.primal_graph(), &sigma);
    check_verify("clique(4) against clique(5)", &hypergraphs::clique(5), &td);
    let mut forest = TreeDecomposition::new(4);
    forest.add_root(BitSet::from_iter(4, [0, 1]));
    forest.add_root(BitSet::from_iter(4, [2, 3]));
    check_verify("forest", &h, &forest);
}

/// `h` as instance text with every vertex under a fresh seeded name and,
/// with `reorder`, its edges in a seeded order, parsed back: vertices are
/// numbered by first appearance, so a renamed variant keeps the numbering
/// and a reordered one gets a new numbering, as the CLI reads such files.
fn variant(h: &Hypergraph, seed: u64, reorder: bool) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..h.num_edges()).collect();
    if reorder {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
    }
    let mut names: Vec<String> = Vec::with_capacity(h.num_vertices());
    let mut used = std::collections::HashSet::new();
    while names.len() < h.num_vertices() {
        let name = format!("v{:06x}", rng.random_range(0..1u32 << 24));
        if used.insert(name.clone()) {
            names.push(name);
        }
    }
    let lines: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            let vs: Vec<&str> = h.edge(e).iter().map(|v| names[v].as_str()).collect();
            format!("e{i}({})", vs.join(","))
        })
        .collect();
    parse_hypergraph(&format!("{}.\n", lines.join(",\n"))).expect("variant parses")
}

/// The ghw instances of `cli-large` and `serve-warm`. A renamed variant is
/// certified from the ordering of the search the benchmark runs it with,
/// and from min-fill's; two reordered variants from min-fill's, which is
/// also the ordering BB returns whenever the root bounds meet. (The search
/// itself is not run on reordered bridges: under a new numbering A* and BB
/// take seconds there.) Every certificate must match the every-bag
/// decomposition.
#[test]
fn borrowed_certificates_match_every_bag_covers_on_benchmark_instances() {
    let cases: Vec<(&str, Hypergraph, bool)> = vec![
        ("adder 50", hypergraphs::adder(50), false),
        ("adder 100", hypergraphs::adder(100), true),
        ("adder 150", hypergraphs::adder(150), true),
        ("adder 200", hypergraphs::adder(200), false),
        ("bridge 50", hypergraphs::bridge(50), true),
        ("bridge 80", hypergraphs::bridge(80), true),
        ("bridge 100", hypergraphs::bridge(100), false),
        ("clique 10", hypergraphs::clique(10), true),
        ("clique 30", hypergraphs::clique(30), false),
        ("clique 40", hypergraphs::clique(40), true),
        ("clique 50", hypergraphs::clique(50), false),
        ("grid2d-h 6", hypergraphs::grid2d(6), true),
    ];
    for (name, base, astar) in cases {
        for seed in 0..3u64 {
            let reorder = seed > 0;
            let h = variant(&base, seed, reorder);
            let case = format!("{name}, variant {seed} (reordered: {reorder})");
            if !reorder {
                let sigma = certificate(&h, astar);
                check_certificate_of(&format!("{case}, search ordering"), &h, &sigma);
            }
            let (_, min_fill) = ghw_upper_bound::<StdRng>(&h, None);
            check_certificate_of(&format!("{case}, min-fill ordering"), &h, &min_fill);
        }
    }
}
