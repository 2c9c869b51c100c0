//! Byte pins of the `--stats json` document: every section populated
//! (faults whose payload holds a quote and a newline, split blocks,
//! incumbents, prunes, gauges, per-worker caches and steals) and every
//! optional section empty. Each rendering is compared with fixed bytes
//! and read back with [`ghd_core::json::Json::parse`].

use super::{search_json, JsonHeader};
use ghd_core::json::Json;
use ghd_core::setcover::CacheStats;
use ghd_par::WorkerFault;
use ghd_search::{
    BlockOutcome, IncumbentSample, PruneCounters, SearchResult, SearchStats, SeparatorKind,
    SplitReport, StealCounters,
};
use std::time::Duration;

/// Compares `actual` with the pinned bytes and checks that it parses.
fn pin(actual: &str, expected: &str) {
    assert_eq!(actual, expected, "rendering drifted; actual bytes:\n{actual}");
    Json::parse(actual).unwrap_or_else(|e| panic!("{e} in {actual}"));
}

fn result(stats: Option<SearchStats>, faults: Vec<WorkerFault>) -> SearchResult {
    SearchResult {
        upper_bound: 11,
        lower_bound: 9,
        exact: false,
        ordering: None,
        nodes_expanded: 4242,
        elapsed: Duration::from_micros(1_234_567),
        cover_cache: None,
        stats,
        faults,
    }
}

const FULL: &str = r#"{
  "problem": "tw",
  "method": "bb",
  "vertices": 30,
  "edges": 151,
  "lower_bound": 9,
  "upper_bound": 11,
  "exact": false,
  "certified": true,
  "cancelled": true,
  "faults": [{"worker": 1, "task": 3, "payload": "boom \"quoted\"\nline two"}, {"worker": 18446744073709551615, "task": 0, "payload": "tab\there \\ é"}],
  "nodes_expanded": 4242,
  "elapsed_s": 1.234567,
  "preprocess": {"eliminated": 4, "base_width": 2, "rounds": 3},
  "split": {"enabled": true, "stitched": true, "witness_nodes": 17, "contained_edges": 5, "blocks": [{"size": 14, "width": 11, "lower_bound": 9, "exact": false, "kind": "clique-separator", "cache_hit": true, "nodes": 0}, {"size": 3, "width": 2, "lower_bound": 2, "exact": true, "kind": "cut-vertex", "cache_hit": false, "nodes": 99}]},
  "stats": {
    "incumbents": [{"elapsed_s": 0.000100, "upper_bound": 12, "lower_bound": 8}, {"elapsed_s": 0.500001, "upper_bound": 11, "lower_bound": 9}],
    "prunes": {"simplicial": 1, "pr2_filtered": 2, "pr1_closures": 3, "f_prunes": 4, "dominance_hits": 5, "capped_covers": 6},
    "open_peak": 7,
    "seen_peak": 8,
    "open_peak_bytes": 9000,
    "seen_peak_bytes": 10000,
    "queue_degraded": true,
    "interner_overflow": false,
    "worker_caches": [{"hits": 10, "misses": 2, "evictions": 0, "entries": 2}, {"hits": 0, "misses": 1, "evictions": 1, "entries": 0}],
    "worker_steals": [{"published": 4, "executed": 5, "stolen": 1, "retried": 0}, {"published": 0, "executed": 1, "stolen": 1, "retried": 1}]
  }
}
"#;

const EMPTY: &str = r#"{
  "problem": "ghw",
  "method": "astar",
  "vertices": 0,
  "edges": 0,
  "lower_bound": 9,
  "upper_bound": 11,
  "exact": false,
  "certified": false,
  "cancelled": false,
  "faults": [],
  "nodes_expanded": 4242,
  "elapsed_s": 1.234567,
  "preprocess": null,
  "split": null,
  "stats": null
}
"#;

#[test]
fn stats_json_bytes_are_pinned() {
    let faults = vec![
        WorkerFault { worker: 1, task: 3, payload: "boom \"quoted\"\nline two".into() },
        WorkerFault { worker: usize::MAX, task: 0, payload: "tab\there \\ é".into() },
    ];
    let stats = SearchStats {
        incumbents: vec![
            IncumbentSample {
                elapsed: Duration::from_micros(100),
                upper_bound: 12,
                lower_bound: 8,
            },
            IncumbentSample {
                elapsed: Duration::from_micros(500_001),
                upper_bound: 11,
                lower_bound: 9,
            },
        ],
        prunes: PruneCounters {
            simplicial: 1,
            pr2_filtered: 2,
            pr1_closures: 3,
            f_prunes: 4,
            dominance_hits: 5,
            capped_covers: 6,
        },
        open_peak: 7,
        seen_peak: 8,
        open_peak_bytes: 9000,
        seen_peak_bytes: 10000,
        worker_caches: vec![
            CacheStats { hits: 10, misses: 2, evictions: 0, entries: 2 },
            CacheStats { hits: 0, misses: 1, evictions: 1, entries: 0 },
        ],
        worker_steals: vec![
            StealCounters { published: 4, executed: 5, stolen: 1, retried: 0 },
            StealCounters { published: 0, executed: 1, stolen: 1, retried: 1 },
        ],
        queue_degraded: true,
        interner_overflow: false,
        faults: faults.clone(),
    };
    let block = |size, width, lower_bound, exact, kind, cache_hit, nodes| BlockOutcome {
        size,
        width,
        lower_bound,
        exact,
        kind,
        cache_hit,
        nodes,
    };
    let split = SplitReport {
        split: true,
        blocks: vec![
            block(14, 11, 9, false, SeparatorKind::CliqueSeparator, true, 0),
            block(3, 2, 2, true, SeparatorKind::CutVertex, false, 99),
        ],
        base_width: 2,
        eliminated: 4,
        rounds: 3,
        contained_edges: 5,
        witness_nodes: 17,
        stitched: true,
    };
    let hdr = JsonHeader { problem: "tw", method: "bb", vertices: 30, edges: 151 };
    pin(&search_json(&hdr, &result(Some(stats), faults), true, true, Some(&split)), FULL);
    let hdr = JsonHeader { problem: "ghw", method: "astar", vertices: 0, edges: 0 };
    pin(&search_json(&hdr, &result(None, Vec::new()), false, false, None), EMPTY);
}
