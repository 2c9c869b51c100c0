//! Upper and lower bound heuristics for treewidth and generalized hypertree
//! width (§4.4.2, §8.1).
//!
//! * [`upper`] — ordering heuristics: min-fill, min-degree, MCS.
//! * [`lower`] — minor-monotone treewidth lower bounds: degeneracy,
//!   minor-min-width (Fig 4.7), minor-γ_R (Fig 4.8).
//! * [`ksc`] — the k-set-cover bound and tw-ksc-width (Fig 8.1) lifting
//!   treewidth lower bounds to generalized hypertree width lower bounds.

pub mod ksc;
pub mod lower;
pub mod upper;

pub use ksc::{ghw_lower_bound, k_set_cover_lower_bound, tw_ksc_width, KscTable};
pub use lower::{
    degeneracy, minor_gamma_r, minor_min_width, minor_min_width_elim, tw_lower_bound,
    tw_lower_bound_elim, LbScratch,
};
pub use upper::{
    ghw_upper_bound, ghw_upper_bound_cached, mcs_ordering, min_degree_ordering,
    min_fill_ordering, tw_upper_bound,
};
