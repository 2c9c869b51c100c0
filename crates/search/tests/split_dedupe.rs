//! Golden values of the split searches on instances built from repeated
//! blocks: cut-vertex chains of identical queen(4), Mycielski(3) and
//! gnm(20, 50, 3) blocks, one mixed chain, and a hypergraph of two
//! identical components. Each row pins what leaves `split_tw` /
//! `split_ghw` — bounds, exactness, the witness node count, whether the
//! ordering was stitched, the number of blocks and the ordering itself (as
//! its length and FNV-1a digest) — at one and two threads, so a change to
//! how repeated blocks are solved must keep every answer byte.
//!
//! Each row renders as `ub lb exact witness_nodes stitched blocks |
//! len:digest`. A mismatch prints every differing row.
//!
//! Each distinct block is searched once: a copy reports its
//! representative's bounds with no nodes of its own, and a [`BlockStore`]
//! sees one probe (and one admission) per distinct block text, while the
//! answers stay on the golden rows.

use ghd_hypergraph::generators::{graphs, hypergraphs};
use ghd_hypergraph::{BitSet, Graph, Hypergraph};
use ghd_prng::rngs::StdRng;
use ghd_prng::RngExt;
use ghd_search::{
    split_ghw, split_tw, BbConfig, BbGhwConfig, BlockSolution, BlockStore, SearchLimits,
    SplitOutcome,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// Glues `blocks` into a chain: block `i + 1`'s vertex 0 is identified
/// with a seeded vertex of block `i`, and its other vertices follow in
/// order, so every copy of a block has the same compact text.
fn chain(blocks: &[Graph], seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = blocks.iter().map(Graph::num_vertices).sum::<usize>() + 1 - blocks.len();
    let mut g = Graph::new(n);
    let mut prev: Vec<usize> = Vec::new();
    let mut next = 0;
    for b in blocks {
        let ids: Vec<usize> = (0..b.num_vertices())
            .map(|i| {
                if i == 0 && !prev.is_empty() {
                    prev[rng.random_range(0..prev.len())]
                } else {
                    next += 1;
                    next - 1
                }
            })
            .collect();
        for (u, v) in b.edges() {
            g.add_edge(ids[u], ids[v]);
        }
        prev = ids;
    }
    g
}

fn copies(b: Graph, k: usize) -> Vec<Graph> {
    vec![b; k]
}

/// The glue seeds are ones whose whole-instance witness finishes without
/// expanding a node: on other gnm chains the witness DFS can run far past
/// any test budget, and the pins need unlimited runs so that no block's
/// answer depends on what another block spent.
fn tw_instances() -> Vec<(&'static str, Graph)> {
    let q = graphs::queen(4);
    let m = graphs::mycielski(3);
    let r = graphs::gnm_random(20, 50, 3);
    let mixed: Vec<Graph> = (0..9)
        .map(|i| [q.clone(), m.clone(), r.clone()][i % 3].clone())
        .collect();
    vec![
        ("queen4 x6", chain(&copies(q.clone(), 6), 1)),
        ("queen4 x24", chain(&copies(q, 24), 2)),
        ("myciel3 x6", chain(&copies(m.clone(), 6), 3)),
        ("myciel3 x24", chain(&copies(m, 24), 4)),
        ("gnm20-50-3 x6", chain(&copies(r.clone(), 6), 5)),
        ("gnm20-50-3 x12", chain(&copies(r, 12), 5)),
        ("mixed x9", chain(&mixed, 7)),
    ]
}

/// `h` twice, the second copy shifted past the first: two identical
/// hypergraph components.
fn twice(h: &Hypergraph) -> Hypergraph {
    let n = h.num_vertices();
    let edges: Vec<Vec<usize>> = h
        .edges()
        .iter()
        .map(BitSet::to_vec)
        .chain(h.edges().iter().map(|e| e.iter().map(|v| v + n).collect()))
        .collect();
    Hypergraph::from_edges(2 * n, edges)
}

fn ghw_instances() -> Vec<(&'static str, Hypergraph)> {
    vec![
        ("circuit12-14-1 x2", twice(&hypergraphs::random_circuit(12, 14, 1))),
        ("circuit16-18-2 x2", twice(&hypergraphs::random_circuit(16, 18, 2))),
    ]
}

fn fnv1a(ordering: &[usize]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &v in ordering {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn render(s: &SplitOutcome) -> String {
    let r = &s.result;
    let order = r.ordering.as_deref().unwrap_or(&[]);
    format!(
        "{} {} {} {} {} {} | {}:{:016x}",
        r.upper_bound,
        r.lower_bound,
        r.exact,
        s.report.witness_nodes,
        s.report.stitched,
        s.report.blocks.len(),
        order.len(),
        fnv1a(order)
    )
}

fn tw_cfg() -> BbConfig {
    BbConfig { limits: SearchLimits::unlimited(), ..BbConfig::default() }
}

fn ghw_cfg() -> BbGhwConfig {
    BbGhwConfig { limits: SearchLimits::unlimited(), ..BbGhwConfig::default() }
}

fn actual_rows() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for threads in [1, 2] {
        for (name, g) in tw_instances() {
            let s = split_tw(&g, &tw_cfg(), threads, None);
            rows.push((format!("tw {name} t{threads}"), render(&s)));
        }
        for (name, h) in ghw_instances() {
            let s = split_ghw(&h, &ghw_cfg(), threads, None);
            rows.push((format!("ghw {name} t{threads}"), render(&s)));
        }
    }
    rows
}

/// Recorded from the search that solves every copy of a block.
const GOLDEN: &[(&str, &str)] = &[
    ("tw queen4 x6 t1", "11 11 true 0 false 6 | 91:2e6a9e75b44412be"),
    ("tw queen4 x24 t1", "11 11 true 0 false 24 | 361:2235a7145dc6cf22"),
    ("tw myciel3 x6 t1", "5 5 true 0 false 6 | 61:662063dcc215b539"),
    ("tw myciel3 x24 t1", "5 5 true 0 false 24 | 241:b607f98d08a1b075"),
    ("tw gnm20-50-3 x6 t1", "7 7 true 0 false 6 | 115:f80ae3cab4448376"),
    ("tw gnm20-50-3 x12 t1", "7 7 true 0 false 12 | 229:c706c6a58af747c1"),
    ("tw mixed x9 t1", "11 11 true 0 false 9 | 133:6cdc540c4bc89fc1"),
    ("ghw circuit12-14-1 x2 t1", "2 2 true 20 false 2 | 24:3060efad420c6be5"),
    ("ghw circuit16-18-2 x2 t1", "3 3 true 0 false 2 | 32:f5a06955dddfe485"),
    ("tw queen4 x6 t2", "11 11 true 0 false 6 | 91:2e6a9e75b44412be"),
    ("tw queen4 x24 t2", "11 11 true 0 false 24 | 361:2235a7145dc6cf22"),
    ("tw myciel3 x6 t2", "5 5 true 0 false 6 | 61:662063dcc215b539"),
    ("tw myciel3 x24 t2", "5 5 true 0 false 24 | 241:b607f98d08a1b075"),
    ("tw gnm20-50-3 x6 t2", "7 7 true 0 false 6 | 115:f80ae3cab4448376"),
    ("tw gnm20-50-3 x12 t2", "7 7 true 0 false 12 | 229:c706c6a58af747c1"),
    ("tw mixed x9 t2", "11 11 true 0 false 9 | 133:6cdc540c4bc89fc1"),
    ("ghw circuit12-14-1 x2 t2", "2 2 true 20 false 2 | 24:3060efad420c6be5"),
    ("ghw circuit16-18-2 x2 t2", "3 3 true 0 false 2 | 32:f5a06955dddfe485"),
];

#[test]
fn repeated_blocks_match_the_recorded_golden_values() {
    // an empty plan keeps a concurrent test's injected kill out of these runs
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    let actual = actual_rows();
    let names: Vec<&str> = actual.iter().map(|(k, _)| k.as_str()).collect();
    let golden: Vec<&str> = GOLDEN.iter().map(|(k, _)| *k).collect();
    assert_eq!(names, golden, "row set changed");
    let diffs: Vec<String> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((k, got), (_, want))| format!("{k}\n  want {want}\n  got  {got}"))
        .collect();
    assert!(diffs.is_empty(), "{} rows differ:\n{}", diffs.len(), diffs.join("\n"));
}

/// What a [`CountingStore`] saw of one block text.
#[derive(Default)]
struct Seen {
    probes: usize,
    admissions: usize,
    solution: Option<BlockSolution>,
}

/// Probe and admission counts per block text; replays what it admitted.
#[derive(Default)]
struct CountingStore {
    seen: Mutex<HashMap<String, Seen>>,
}

impl BlockStore for CountingStore {
    fn probe(&self, canon: &str) -> Option<BlockSolution> {
        let mut seen = self.seen.lock().unwrap();
        let entry = seen.entry(canon.to_string()).or_default();
        entry.probes += 1;
        entry.solution.clone()
    }

    fn admit(&self, canon: &str, sol: &BlockSolution) {
        let mut seen = self.seen.lock().unwrap();
        let entry = seen.entry(canon.to_string()).or_default();
        entry.admissions += 1;
        entry.solution = Some(sol.clone());
    }
}

impl CountingStore {
    /// `(probes, admissions)` of every text seen, in text order.
    fn counts(&self) -> Vec<(usize, usize)> {
        let seen = self.seen.lock().unwrap();
        let mut keys: Vec<&String> = seen.keys().collect();
        keys.sort();
        keys.iter().map(|k| (seen[*k].probes, seen[*k].admissions)).collect()
    }
}

/// Runs `solve` cold and then warm on one [`CountingStore`] and checks
/// both runs against the golden row, the copies' reports and the counts.
fn check_dedupe(row: &str, solve: impl Fn(Option<&dyn BlockStore>) -> SplitOutcome) {
    let want = GOLDEN.iter().find(|(k, _)| *k == row).expect("golden row").1;
    let plain = solve(None);
    assert_eq!(render(&plain), want, "{row}, no store");
    let blocks = &plain.report.blocks;
    assert!(blocks.iter().all(|b| !b.cache_hit), "{row}: hit without a store");

    let store = CountingStore::default();
    let cold = solve(Some(&store));
    assert_eq!(render(&cold), want, "{row}, cold store");
    let distinct = store.counts().len();
    assert!(distinct < blocks.len(), "{row}: {distinct} texts for {} blocks", blocks.len());
    assert!(
        store.counts().iter().all(|&c| c == (1, 1)),
        "{row}: one probe and one admission per text, got {:?}",
        store.counts()
    );
    // only a representative can have searched, so at most one block per text
    let searched = blocks.iter().filter(|b| b.nodes > 0).count();
    assert!(searched <= distinct, "{row}: {searched} blocks searched, {distinct} texts");
    for (a, b) in plain.report.blocks.iter().zip(&cold.report.blocks) {
        assert_eq!(
            (a.width, a.lower_bound, a.exact, a.nodes),
            (b.width, b.lower_bound, b.exact, b.nodes),
            "{row}"
        );
    }

    let warm = solve(Some(&store));
    assert_eq!(render(&warm), want, "{row}, warm store");
    let hits = warm.report.blocks.iter().filter(|b| b.cache_hit).count();
    assert_eq!(hits, distinct, "{row}: one hit per text, copies report none");
    assert!(warm.report.blocks.iter().all(|b| b.nodes == 0), "{row}: a warm block searched");
    assert!(store.counts().iter().all(|&c| c == (2, 1)), "{row}: {:?}", store.counts());
}

#[test]
fn each_distinct_block_is_searched_and_probed_once() {
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    for threads in [1, 2] {
        for (name, g) in tw_instances() {
            check_dedupe(&format!("tw {name} t{threads}"), |store| {
                split_tw(&g, &tw_cfg(), threads, store)
            });
        }
        for (name, h) in ghw_instances() {
            check_dedupe(&format!("ghw {name} t{threads}"), |store| {
                split_ghw(&h, &ghw_cfg(), threads, store)
            });
        }
    }
}

#[test]
fn copies_report_the_representative_with_no_nodes() {
    let _clean = ghd_par::fault::install(ghd_par::fault::FaultPlan::new());
    let named = |name: &str| tw_instances().into_iter().find(|(n, _)| *n == name);
    let (_, g) = named("queen4 x24").expect("instance");
    let (_, h) = ghw_instances().swap_remove(0);
    for threads in [1, 2] {
        let tw = split_tw(&g, &tw_cfg(), threads, None).report.blocks;
        let ghw = split_ghw(&h, &ghw_cfg(), threads, None).report.blocks;
        for (what, blocks) in [("queen4 x24", tw), ("circuit12-14-1 x2", ghw)] {
            let (rep, copies) = blocks.split_first().expect("blocks");
            assert!(rep.nodes > 0, "{what} t{threads}: the representative searches");
            for c in copies {
                assert_eq!(
                    (c.size, c.width, c.lower_bound, c.exact, c.kind, c.cache_hit, c.nodes),
                    (rep.size, rep.width, rep.lower_bound, rep.exact, rep.kind, false, 0),
                    "{what} t{threads}"
                );
            }
        }
    }
}
