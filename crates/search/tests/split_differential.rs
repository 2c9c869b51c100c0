//! Differential tests for the safe-separator split layer: with splitting
//! enabled the exact searches must report the *same* widths, orderings,
//! and certificates as the monolithic searches — for any thread count,
//! under cancellation, and with a worker fault injected into one block.

use ghd_core::bucket::ghd_from_ordering;
use ghd_core::eval::TwEvaluator;
use ghd_core::{CoverMethod, EliminationOrdering};
use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{Graph, Hypergraph};
use ghd_search::{
    bb_ghw, bb_tw, split_ghw, split_tw, BbConfig, BbGhwConfig, CancelToken, SearchLimits,
};

fn tw_cfg() -> BbConfig {
    BbConfig { limits: SearchLimits::unlimited(), ..BbConfig::default() }
}

fn ghw_cfg() -> BbGhwConfig {
    BbGhwConfig { limits: SearchLimits::unlimited(), ..BbGhwConfig::default() }
}

/// The certificate check the CLI applies before printing any width.
fn certify_tw(g: &Graph, ordering: &[usize], width: usize) {
    let sigma = EliminationOrdering::new(ordering.to_vec()).expect("permutation");
    assert_eq!(TwEvaluator::new(g).width(&sigma), width, "certificate width");
}

fn certify_ghw(h: &Hypergraph, ordering: &[usize], width: usize) {
    let sigma = EliminationOrdering::new(ordering.to_vec()).expect("permutation");
    let ghd = ghd_from_ordering(h, &sigma, CoverMethod::Exact);
    ghd.verify(h).expect("valid GHD");
    assert_eq!(ghd.width(), width, "certificate width");
}

/// Three Mycielski(3) blocks glued on an edge and a cut vertex plus a
/// disjoint grid: survives preprocessing and splits into several blocks.
fn structured(variant: usize) -> Graph {
    let m = graphs::mycielski(3);
    let mn = m.num_vertices(); // 11
    let mut g = Graph::new(46);
    for (u, v) in m.edges() {
        g.add_edge(u, v);
    }
    // second copy glued on the edge {0, 1}
    let bm: Vec<usize> = (0..mn).map(|i| if i < 2 { i } else { 9 + i }).collect();
    for (u, v) in m.edges() {
        g.add_edge(bm[u], bm[v]);
    }
    // third copy at a cut vertex (varies per instance)
    let cut = variant % mn;
    let cm: Vec<usize> = (0..mn).map(|i| if i == 0 { cut } else { 19 + i }).collect();
    for (u, v) in m.edges() {
        g.add_edge(cm[u], cm[v]);
    }
    // disjoint grid component on the remaining 16 vertices
    for (u, v) in graphs::grid(4).edges() {
        g.add_edge(30 + u, 30 + v);
    }
    g
}

#[test]
fn random_batch_split_on_off_identical() {
    // an empty plan keeps a concurrent test's injected kill out of these runs
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    for seed in 0..6u64 {
        let g = graphs::gnm_random(16, 34, seed);
        let mono = bb_tw(&g, &tw_cfg());
        let mono_order = mono.ordering.clone().expect("ordering");
        certify_tw(&g, &mono_order, mono.upper_bound);
        for threads in [1, 2, 4] {
            let s = split_tw(&g, &tw_cfg(), threads, None);
            assert_eq!(s.result.upper_bound, mono.upper_bound, "seed {seed} t{threads}");
            assert_eq!(s.result.lower_bound, mono.lower_bound, "seed {seed} t{threads}");
            assert!(s.result.exact, "seed {seed} t{threads}");
            let order = s.result.ordering.expect("ordering");
            assert_eq!(order, mono_order, "seed {seed} t{threads}");
            certify_tw(&g, &order, s.result.upper_bound);
        }
    }
}

#[test]
fn structured_batch_split_on_off_identical() {
    // an empty plan keeps a concurrent test's injected kill out of these runs
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    for variant in [0, 3, 7] {
        let g = structured(variant);
        let mono = bb_tw(&g, &tw_cfg());
        let mono_order = mono.ordering.clone().expect("ordering");
        for threads in [1, 2, 4] {
            let s = split_tw(&g, &tw_cfg(), threads, None);
            assert!(s.report.split, "variant {variant} must split");
            assert_eq!(s.result.upper_bound, mono.upper_bound, "variant {variant} t{threads}");
            assert!(s.result.exact);
            let order = s.result.ordering.expect("ordering");
            assert_eq!(order, mono_order, "variant {variant} t{threads}");
            certify_tw(&g, &order, s.result.upper_bound);
        }
    }
}

/// `k` disjoint components cycling through single triples, triangles
/// whose three edges one triple contains, and 4-, 5- and 6-cycles, so most
/// shapes repeat. Edges are listed round-robin across the components, and
/// the last vertex is in no hyperedge.
fn many_components(k: usize) -> Hypergraph {
    let mut comps: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut n = 0;
    for c in 0..k {
        let len = 2 + c % 5;
        let mut edges = Vec::new();
        if len <= 3 {
            edges.push(vec![n, n + 1, n + 2]);
        }
        if len >= 3 {
            edges.extend((0..len).map(|i| vec![n + i, n + (i + 1) % len]));
        }
        comps.push(edges);
        n += len.max(3);
    }
    let rounds = comps.iter().map(Vec::len).max().unwrap_or(0);
    let edges = (0..rounds).flat_map(|r| comps.iter().filter_map(move |c| c.get(r).cloned()));
    Hypergraph::from_edges(n + 1, edges)
}

#[test]
fn ghw_batch_split_on_off_identical() {
    // an empty plan keeps a concurrent test's injected kill out of these runs
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    // two structured hypergraphs plus seeded random circuits
    let mut cases: Vec<Hypergraph> = vec![hypergraphs::grid2d(3), hypergraphs::bridge(3)];
    for seed in 0..3u64 {
        // two disjoint circuits in one instance: splits into components
        let a = hypergraphs::random_circuit(8, 10, seed);
        let b = hypergraphs::random_circuit(9, 11, seed + 100);
        let n = a.num_vertices() + b.num_vertices();
        let edges: Vec<Vec<usize>> = a
            .edges()
            .iter()
            .map(ghd_hypergraph::BitSet::to_vec)
            .chain(
                b.edges()
                    .iter()
                    .map(|e| e.iter().map(|v| v + a.num_vertices()).collect()),
            )
            .collect();
        cases.push(Hypergraph::from_edges(n, edges));
    }
    cases.push(many_components(100));
    for (i, h) in cases.iter().enumerate() {
        let mono = bb_ghw(h, &ghw_cfg());
        let mono_order = mono.ordering.clone().expect("ordering");
        certify_ghw(h, &mono_order, mono.upper_bound);
        for threads in [1, 2, 4] {
            let s = split_ghw(h, &ghw_cfg(), threads, None);
            assert_eq!(s.result.upper_bound, mono.upper_bound, "case {i} t{threads}");
            assert!(s.result.exact, "case {i} t{threads}");
            let order = s.result.ordering.expect("ordering");
            assert_eq!(order, mono_order, "case {i} t{threads}");
            certify_ghw(h, &order, s.result.upper_bound);
        }
    }
}

#[test]
fn cancel_mid_block_stays_sound() {
    // an empty plan keeps a concurrent test's injected kill out of these runs
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    // cancel fires while block solves are in flight: the result must
    // still be a sound, certified anytime answer
    let g = structured(0);
    let token = CancelToken::arm();
    let limits = SearchLimits::unlimited().with_cancel(token.clone());
    let cfg = BbConfig { limits, ..BbConfig::default() };
    let stop = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        stop.cancel();
    });
    let s = split_tw(&g, &cfg, 2, None);
    canceller.join().expect("canceller");
    assert!(s.result.lower_bound <= s.result.upper_bound);
    let order = s.result.ordering.expect("anytime ordering");
    let sigma = EliminationOrdering::new(order).expect("permutation");
    assert!(
        TwEvaluator::new(&g).width(&sigma) <= s.result.upper_bound,
        "ordering must realise the claimed bound"
    );
}

#[test]
fn worker_fault_in_one_block_is_contained() {
    // kill the first block's worker once: the one-shot retry must recover
    // and the final answer must still match the monolithic search bit for
    // bit (the fault is recorded, not silently swallowed)
    let g = structured(0);
    let mono = bb_tw(&g, &tw_cfg());
    let mono_order = mono.ordering.clone().expect("ordering");
    let _scope = ghd_par::fault::install(ghd_par::fault::FaultPlan::new().kill_task(0));
    let s = split_tw(&g, &tw_cfg(), 2, None);
    assert!(s.report.split);
    assert_eq!(s.result.faults.len(), 1, "the injected fault is reported");
    assert_eq!(s.result.faults[0].task, 0);
    assert_eq!(s.result.upper_bound, mono.upper_bound);
    assert!(s.result.exact);
    let order = s.result.ordering.expect("ordering");
    assert_eq!(order, mono_order, "retry restores bit-identity");
    certify_tw(&g, &order, s.result.upper_bound);
}
