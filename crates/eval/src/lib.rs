//! # wot-eval — reproduction harness for every table and figure
//!
//! One module per experiment of Kim et al. (ICDEW 2008), plus sweeps and
//! report rendering. The mapping to the paper (also in DESIGN.md §4):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`quartiles`] | Table 2 (rater reputation vs Advisors), Table 3 (writer reputation vs Top Reviewers) |
//! | [`density`] | Fig. 3 (density of `T̂`, `R`, `T` and their overlaps) |
//! | [`streaming`] | Fig. 3 and top-k analyses over the *full* `T̂`, reduced row by row inside the Eq. 5 scan in O(users) memory (paper scale) |
//! | [`validation`] | Table 4 (recall / precision in `R` / non-trust→trust rate, ours vs baseline `B`) |
//! | [`values`] | §IV.C value analysis (scores in `R−T` vs `T∩R`) |
//! | [`propagation_cmp`] | §V future work (propagation over derived vs explicit web of trust) |
//! | [`sweep`] | ablations A1–A3 (experience discount, fixed-point iterations, generator noise) |
//!
//! [`Workbench`] bundles the common setup — generate a synthetic
//! community, derive the model, extract `R`/`T` — so experiments,
//! examples, benches and tests share one entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
mod error;
pub mod propagation_cmp;
pub mod quartiles;
pub mod report;
pub mod rounding_cmp;
pub mod streaming;
pub mod sweep;
pub mod validation;
pub mod values;
mod workbench;

pub use error::EvalError;
pub use workbench::Workbench;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, EvalError>;
