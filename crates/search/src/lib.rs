//! Exact anytime algorithms for treewidth and generalized hypertree width:
//! branch and bound (§4.4, Ch 8) and A\* (Ch 5, Ch 9), with the reduction
//! and pruning rules of §4.4.3–§4.4.5 and §8.2–§8.3.
//!
//! All four searches walk the elimination-ordering tree (vertices eliminated
//! from the back of σ) over a single incrementally-maintained
//! [`ghd_hypergraph::EliminationGraph`], and are *anytime*: given a
//! [`SearchLimits`] budget they report the best upper bound found plus a
//! proven lower bound.
//!
//! Treewidth and ghw differ only in what a bag costs (Chapter 3), so there
//! are two engines, each written once over a crate-private width measure:
//! the depth-first branch and bound (`bb.rs`) and the best-first A\*
//! (`astar.rs`). `bb_tw` and `bb_ghw` supply the two measures and the
//! public entry points of both engines. The safe-separator split
//! (`split.rs`) is likewise one driver over a tw and a ghw pipeline.
//!
//! The ghw measure memoises bag covers in
//! [`ghd_core::setcover::CoverCache`]: each search worker owns a
//! one-stripe store, and the workers of a parallel run share one striped
//! store. The A\* closed set interns its state keys ([`StateInterner`]).

pub mod arena;
mod astar;
mod bb;
pub mod bb_ghw;
pub mod bb_tw;
pub mod common;
pub mod interner;
pub mod preprocess;
pub mod queue;
pub mod rules;
pub mod split;
pub mod steal;

pub use arena::WordArena;
pub use interner::StateInterner;
pub use queue::BucketQueue;
pub use steal::StealConfig;
pub use bb_ghw::{astar_ghw, bb_ghw, bb_ghw_budgeted, bb_ghw_parallel, witness_ghw, BbGhwConfig};
pub use bb_tw::{astar_tw, bb_tw, bb_tw_budgeted, bb_tw_parallel, witness_tw, BbConfig, LbMode};
pub use common::{
    Budget, CancelToken, IncumbentSample, PruneCounters, SearchLimits, SearchResult,
    SearchStats, StealCounters, Ticker,
};
pub use ghd_par::WorkerFault;
pub use preprocess::{preprocess_tw, Preprocessed};
pub use split::{
    split_ghw, split_tw, BlockOutcome, BlockSolution, BlockStore, SeparatorKind, SplitOutcome,
    SplitReport,
};
