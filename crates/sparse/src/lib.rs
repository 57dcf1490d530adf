//! # wot-sparse — sparse and dense matrix substrate
//!
//! This crate is the linear-algebra substrate of the `webtrust` workspace,
//! built from scratch so the reproduction of Kim et al. (ICDEW 2008) carries
//! no external matrix dependencies.
//!
//! The workload it serves is characteristic of trust inference over review
//! communities:
//!
//! * **Very sparse user×user matrices** (an explicit web of trust `T`, the
//!   direct-connection matrix `R`, a derived trust matrix `T̂` restricted to
//!   an evaluation region) — tens of thousands of rows, hundreds of
//!   thousands of non-zeros. These live in [`Coo`] while being assembled and
//!   in [`Csr`] while being consumed.
//! * **Tall-skinny user×category matrices** (the expertise matrix `E` and
//!   affiliation matrix `A` — 12 sub-categories in the paper). These fit
//!   comfortably in a [`Dense`] matrix.
//! * **Set-algebraic masking** between sparse matrices: the paper's Fig. 3
//!   and Table 4 are defined over the regions `T ∩ R`, `R − T` and `T − R`,
//!   which map to [`Csr::intersect_pattern`] and [`Csr::subtract_pattern`].
//!
//! ## Format cheat-sheet
//!
//! | Type | Use it for |
//! |---|---|
//! | [`Coo`] | incremental assembly, triplet interchange |
//! | [`Csr`] | row-sliced consumption, products, masking |
//! | [`Dense`] | small dense blocks (user×category) |
//!
//! All formats use `u32` column/row indices internally (a community of
//! 4 billion users is beyond this crate's ambition) and `f64` values.
//!
//! ## Example
//!
//! ```
//! use wot_sparse::{Coo, Csr};
//!
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 1, 0.8).unwrap();
//! coo.push(1, 2, 0.6).unwrap();
//! coo.push(0, 1, 0.2).unwrap(); // duplicates are summed on conversion
//! let csr = Csr::from_coo(&coo);
//! assert_eq!(csr.nnz(), 2);
//! assert_eq!(csr.get(0, 1), Some(1.0));
//! let y = csr.spmv(&[1.0, 2.0, 3.0]).unwrap();
//! assert_eq!(y[0], 2.0);
//! assert!((y[1] - 1.8).abs() < 1e-12);
//! assert_eq!(y[2], 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csr;
mod dense;
mod error;
mod ops;
mod stats;
mod vector;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use error::SparseError;
pub use ops::masked_row_dot_block;
pub use stats::{MatrixSummary, Quantiles};
pub use vector::{
    argmax, dot, dot_scalar, l1_norm, l1_normalize, l2_norm, linf_distance, max, mean, min, sum,
};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
