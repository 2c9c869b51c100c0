//! Fault-containment integration tests: with a deterministic fault injected
//! into one of the work-stealing tasks, the parallel searches must return
//! the *same width* as the sequential search, report the fault through
//! `SearchResult::faults` / `SearchStats::faults`, and keep respecting the
//! global node/time budget. With injection disabled, results are
//! bit-identical to a clean run (the containment wrapper is behaviourally
//! free).
//!
//! All tests here install a `FaultPlan` (possibly empty); installation
//! holds a process-wide scope lock, so the tests serialise instead of
//! observing each other's injected faults.

use ghd::core::bucket::ghd_from_ordering;
use ghd::core::eval::TwEvaluator;
use ghd::core::{CoverMethod, EliminationOrdering};
use ghd::ga::{saiga_ghw, SaigaConfig};
use ghd::hypergraph::generators::{graphs, hypergraphs};
use ghd::par::fault::{self, FaultPlan};
use ghd::search::{
    bb_ghw, bb_ghw_parallel, bb_tw, bb_tw_parallel, BbConfig, BbGhwConfig, SearchLimits,
};

#[test]
fn bb_tw_parallel_survives_a_killed_worker_width_identical() {
    for g in [graphs::queen(4), graphs::gnm_random(14, 40, 3)] {
        let seq = {
            let _clean = fault::install(FaultPlan::new());
            bb_tw(&g, &BbConfig::default())
        };
        assert!(seq.exact);
        for threads in [2, 4] {
            // kill the seed task once; the retry explores it
            let scope = fault::install(FaultPlan::new().kill_task(0));
            let par = bb_tw_parallel(&g, &BbConfig::default(), threads);
            assert_eq!(scope.fired(), 1, "threads {threads}: fault did not fire");
            drop(scope);
            assert!(par.exact, "threads {threads}: lost exactness");
            assert_eq!(par.upper_bound, seq.upper_bound, "threads {threads}");
            assert_eq!(par.faults.len(), 1, "threads {threads}");
            assert_eq!(par.faults[0].task, 0);
            assert!(par.faults[0].payload.contains("injected fault"));
            // the returned ordering still realises the width
            let sigma = EliminationOrdering::new(par.ordering.unwrap()).unwrap();
            assert_eq!(TwEvaluator::new(&g).width(&sigma), par.upper_bound);
        }
    }
}

#[test]
fn bb_ghw_parallel_survives_a_killed_worker_width_identical() {
    // grid2d(5) fans out to several root children (no forced simplicial
    // reduction at the root), so task index 1 exists and the kill fires
    let h = hypergraphs::grid2d(5);
    let seq = {
        let _clean = fault::install(FaultPlan::new());
        bb_ghw(&h, &BbGhwConfig::default())
    };
    assert!(seq.exact);
    for threads in [2, 4] {
        let scope = fault::install(FaultPlan::new().kill_task(1));
        let par = bb_ghw_parallel(&h, &BbGhwConfig::default(), threads);
        assert_eq!(scope.fired(), 1, "threads {threads}: fault did not fire");
        drop(scope);
        assert!(par.exact, "threads {threads}");
        assert_eq!(par.upper_bound, seq.upper_bound, "threads {threads}");
        assert_eq!(par.faults.len(), 1);
        assert_eq!(par.faults[0].task, 1);
        // certificate: the ordering yields a verifying GHD of that width
        let sigma = EliminationOrdering::new(par.ordering.unwrap()).unwrap();
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        assert!(ghd.verify(&h).is_ok());
        assert_eq!(ghd.width(), par.upper_bound);
    }
}

#[test]
fn faults_are_reported_in_stats_and_budget_is_respected() {
    let h = hypergraphs::random_circuit(20, 22, 7);
    let cap = 10_000u64;
    for threads in [2, 4] {
        let _scope = fault::install(FaultPlan::new().kill_task(0));
        let cfg = BbGhwConfig {
            limits: SearchLimits::with_nodes(cap).stats(true),
            ..BbGhwConfig::default()
        };
        let r = bb_ghw_parallel(&h, &cfg, threads);
        let stats = r.stats.expect("stats requested");
        assert_eq!(stats.faults, r.faults, "threads {threads}");
        assert_eq!(r.faults.len(), 1, "threads {threads}");
        assert!(
            r.nodes_expanded <= cap,
            "threads {threads}: global node budget overrun ({} > {cap})",
            r.nodes_expanded
        );
        assert!(r.lower_bound <= r.upper_bound);
    }
}

#[test]
fn injection_disabled_results_are_bit_identical() {
    // the containment machinery itself must be behaviourally free
    let g = graphs::grid(4);
    let h = hypergraphs::random_circuit(20, 22, 7);
    let _clean = fault::install(FaultPlan::new());
    for threads in [1, 2, 4] {
        let a = bb_tw_parallel(&g, &BbConfig::default(), threads);
        let b = bb_tw_parallel(&g, &BbConfig::default(), threads);
        assert_eq!(a.upper_bound, b.upper_bound);
        assert_eq!(a.ordering, b.ordering, "tw threads {threads}");
        assert!(a.faults.is_empty() && b.faults.is_empty());
        let a = bb_ghw_parallel(&h, &BbGhwConfig::default(), threads);
        let b = bb_ghw_parallel(&h, &BbGhwConfig::default(), threads);
        assert_eq!(a.upper_bound, b.upper_bound);
        assert_eq!(a.ordering, b.ordering, "ghw threads {threads}");
        assert!(a.faults.is_empty() && b.faults.is_empty());
    }
}

#[test]
fn injected_delays_leave_parallel_results_unchanged() {
    let h = hypergraphs::random_circuit(20, 22, 7);
    let clean = {
        let _scope = fault::install(FaultPlan::new());
        bb_ghw_parallel(&h, &BbGhwConfig::default(), 4)
    };
    let _scope = fault::install(FaultPlan::new().delay(0xD5, 300));
    let jittered = bb_ghw_parallel(&h, &BbGhwConfig::default(), 4);
    assert!(jittered.faults.is_empty());
    assert_eq!(jittered.upper_bound, clean.upper_bound);
    assert_eq!(jittered.ordering, clean.ordering);
}

#[test]
fn saiga_survives_a_killed_island_epoch() {
    let h = hypergraphs::clique(6);
    let clean = {
        let _scope = fault::install(FaultPlan::new());
        saiga_ghw(&h, &SaigaConfig::small(11))
    };
    assert!(clean.faults.is_empty());
    for threads in [1, 2, 4] {
        let cfg = SaigaConfig {
            threads,
            ..SaigaConfig::small(11)
        };
        let _scope = fault::install(FaultPlan::new().kill_task(1));
        let r = saiga_ghw(&h, &cfg);
        assert_eq!(r.faults.len(), 1, "threads {threads}");
        assert_eq!(r.faults[0].task, 1, "island index is the task index");
        // the run still produced a valid ordering achieving a sound width
        let sigma = EliminationOrdering::new(r.result.best_ordering.clone()).unwrap();
        let ghd = ghd_from_ordering(&h, &sigma, CoverMethod::Exact);
        assert!(ghd.verify(&h).is_ok(), "threads {threads}");
        assert_eq!(ghd.width(), r.result.best_width, "threads {threads}");
        // clique(6) has ghw 3; any elimination-based ordering stays >= that
        assert!(r.result.best_width >= clean.result.best_width.min(3));
    }
}
