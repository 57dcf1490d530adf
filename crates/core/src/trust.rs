//! Step 3 — deriving the degree of trust (Eq. 5).
//!
//! ```text
//! T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic                        (5)
//! ```
//!
//! User *i* trusts user *j* to the degree that *j* is an expert in the
//! categories *i* is affiliated with. `T̂_ij = 0` means no overlap between
//! *i*'s interests and *j*'s expertise; a user with an all-zero affiliation
//! row trusts nobody (denominator zero ⇒ 0 by definition here).
//!
//! The full U×U matrix is dense in principle (Fig. 3's point is exactly
//! that `T̂` is *much* denser than the explicit web of trust), so several
//! evaluation shapes are provided:
//!
//! * [`pairwise`] — one `(i, j)` entry, O(C);
//! * [`row`] — one whole row read straight off `E`, O(U·C), one
//!   denominator for the row;
//! * [`derive_masked`] — values on a sparse candidate pattern (the
//!   evaluation region of Table 4), O(nnz·C), computed per stored entry
//!   with [`pairwise`]'s operations;
//! * [`derive_dense`] — the full matrix for small communities, O(U²·C),
//!   refused with [`CoreError::Capacity`] beyond a configurable byte
//!   budget ([`dense_budget_bytes`]);
//! * [`TrustBlocks`] — the paper-scale
//!   shape: a streaming iterator over row-blocks of `T̂` in O(block)
//!   memory, of which [`derive_dense`] is a thin, bit-identical
//!   specialization;
//! * [`TrustRows`](crate::trust_rows::TrustRows) — the full `T̂` handed
//!   row by row to a visitor and never stored, for analyses that only
//!   reduce it;
//! * [`support_count`] — the *number* of non-zero entries of the full `T̂`
//!   without materializing it (Fig. 3's density), via category-overlap
//!   bitmask counting, O(U + U·distinct-masks) for C ≤ 64.
//!
//! Every multi-entry form is row-parallel: rows of `T̂` are independent
//! (each reads the shared `A`/`E` matrices and writes its own output
//! range), so they split across worker threads with bit-identical
//! results for any thread count. Each takes the count as `threads`
//! (`0` = auto, `1` = sequential): explicit counts are honoured as
//! given; in auto mode a size cutoff keeps small problems on the calling
//! thread and large ones fan out to all hardware threads.

use std::collections::HashMap;

use wot_sparse::{Csr, Dense};

use crate::trust_blocks::{
    auto_threads, validate_shapes, BlockConfig, TrustBlock, TrustBlocks, PAR_CELLS_THRESHOLD,
};
use crate::{CoreError, Result};

/// Default byte budget for materializing the full dense `T̂`
/// (4 GiB — comfortably above every laptop-scale analysis, far below the
/// ~15.6 GB the paper's 44k users would need).
pub const DEFAULT_DENSE_BUDGET_BYTES: usize = 4 << 30;

/// The byte budget [`derive_dense`] enforces: the
/// `WOT_TRUST_DENSE_BUDGET_BYTES` environment variable (plain bytes,
/// e.g. `2147483648`) when set, otherwise
/// [`DEFAULT_DENSE_BUDGET_BYTES`].
///
/// A set-but-unparseable value (`512MB`, `1e9`, …) **fails closed**: it
/// resolves to a zero budget so every materialization is refused with a
/// [`CoreError::Capacity`] naming the variable — an OOM guard must not
/// silently ignore the operator's intent and fall back to a larger
/// default.
pub fn dense_budget_bytes() -> usize {
    match std::env::var("WOT_TRUST_DENSE_BUDGET_BYTES") {
        Ok(v) => v.parse().unwrap_or(0),
        Err(_) => DEFAULT_DENSE_BUDGET_BYTES,
    }
}

/// Eq. 5 for one ordered pair.
pub fn pairwise(affiliation: &Dense, expertise: &Dense, i: usize, j: usize) -> f64 {
    let a_row = affiliation.row(i);
    let e_row = expertise.row(j);
    let den: f64 = a_row.iter().sum();
    if den <= 0.0 {
        return 0.0;
    }
    wot_sparse::dot(a_row, e_row) / den
}

/// Eq. 5 for one whole row: `T̂_ij` for `j = 0, 1, …, U-1`, each
/// bit-identical to [`pairwise`] — with the denominator computed once
/// for the row instead of once per cell — or `None` for a user with no
/// affiliation mass, whose whole row is zero. Reads `E` as it is stored,
/// so a caller that wants a single row (the serving daemon's top-k)
/// prepares nothing.
pub fn row<'a>(
    affiliation: &'a Dense,
    expertise: &'a Dense,
    i: usize,
) -> Option<impl Iterator<Item = f64> + 'a> {
    let a_row = affiliation.row(i);
    let den: f64 = a_row.iter().sum();
    // A positive mass means at least one category, so the chunks are rows.
    (den > 0.0).then(|| {
        let e_rows = expertise.as_slice().chunks_exact(a_row.len());
        e_rows.map(move |e_row| wot_sparse::dot(a_row, e_row) / den)
    })
}

/// Eq. 5 on every coordinate of `mask` (values of `mask` are ignored; its
/// pattern defines the candidate set, explicit zeros included) — the
/// evaluation region of Table 4. Each stored entry is `dot(A_i, E_j) /
/// Σ_c A_ic` with the denominator computed once per row, the operations of
/// [`pairwise`], so every value is bit-identical to it.
///
/// Row-parallel on large masks, split by stored-entry count (mask rows
/// are heavily skewed); each worker writes a disjoint slice of the one
/// value buffer, so the output is bit-identical for any thread count.
pub fn derive_masked(
    affiliation: &Dense,
    expertise: &Dense,
    mask: &Csr,
    threads: usize,
) -> Result<Csr> {
    validate_shapes(affiliation, expertise)?;
    let u = affiliation.nrows();
    if mask.shape() != (u, u) {
        return Err(CoreError::Shape(format!(
            "trust mask must be {u}×{u}, got {:?}",
            mask.shape()
        )));
    }
    let (row_ptr, col_idx) = (mask.row_ptr(), mask.col_indices());
    let rows = wot_par::weighted_boundaries(row_ptr, auto_threads(threads, mask.nnz()));
    let bounds: Vec<usize> = rows.iter().map(|&r| row_ptr[r]).collect();
    let mut values = vec![0.0f64; mask.nnz()];
    wot_par::par_chunks_mut(&mut values, &bounds, |k, chunk| {
        let base = row_ptr[rows[k]];
        for i in rows[k]..rows[k + 1] {
            let a_row = affiliation.row(i);
            let den: f64 = a_row.iter().sum();
            if den <= 0.0 {
                continue;
            }
            for p in row_ptr[i]..row_ptr[i + 1] {
                let e_row = expertise.row(col_idx[p] as usize);
                chunk[p - base] = wot_sparse::dot(a_row, e_row) / den;
            }
        }
    });
    Ok(Csr::from_raw_parts(
        u,
        u,
        row_ptr.to_vec(),
        col_idx.to_vec(),
        values,
    )?)
}

/// Eq. 5 as a full dense matrix — O(U²·C) time, O(U²) memory; intended
/// for examples, tests and laptop-scale analyses. Row-parallel on large
/// communities.
///
/// A thin collector over [`TrustBlocks::dense`], guarded by a byte
/// budget ([`dense_budget_bytes`]): at the paper's 44k users the result
/// would occupy ~15.6 GB, so instead of aborting the allocator this
/// returns [`CoreError::Capacity`] pointing at the streaming engine.
pub fn derive_dense(affiliation: &Dense, expertise: &Dense, threads: usize) -> Result<Dense> {
    derive_dense_budgeted(affiliation, expertise, threads, dense_budget_bytes())
}

/// [`derive_dense`] with an explicit byte budget.
///
/// Fails with [`CoreError::Capacity`] — instead of attempting a doomed
/// `U² × 8` byte allocation — when the output would exceed
/// `budget_bytes`; callers at that scale should stream row-blocks via
/// [`TrustBlocks`], or reduce rows in place as `wot-eval`'s streaming
/// reducers do.
pub fn derive_dense_budgeted(
    affiliation: &Dense,
    expertise: &Dense,
    threads: usize,
    budget_bytes: usize,
) -> Result<Dense> {
    validate_shapes(affiliation, expertise)?;
    let u = affiliation.nrows();
    let required_bytes = (u as u128) * (u as u128) * std::mem::size_of::<f64>() as u128;
    if required_bytes > budget_bytes as u128 {
        return Err(CoreError::Capacity {
            required_bytes,
            budget_bytes,
        });
    }
    // One block spanning every row: the buffer is the budgeted U×U
    // allocation itself and moves into the output without a copy.
    let cfg = BlockConfig {
        block_rows: u.max(1),
        threads,
    };
    let mut blocks = TrustBlocks::dense(affiliation, expertise, &cfg)?;
    let values = blocks
        .next()
        .map(TrustBlock::into_values)
        .unwrap_or_default();
    Ok(Dense::from_vec(u, u, values)?)
}

/// Number of strictly positive entries the full `T̂` would have (including
/// the diagonal), computed without materializing it. Row-parallel over the
/// affiliation side.
///
/// `T̂_ij > 0` iff some category holds both `A_ic > 0` and `E_jc > 0`, so
/// the count only depends on each user's *support bitmask* over categories.
/// Supports up to 64 categories.
pub fn support_count(affiliation: &Dense, expertise: &Dense, threads: usize) -> Result<u64> {
    let c = affiliation.ncols();
    if c != expertise.ncols() {
        return Err(CoreError::Shape(
            "affiliation and expertise must share categories".into(),
        ));
    }
    if c > 64 {
        return Err(CoreError::Shape(format!(
            "support_count handles at most 64 categories, got {c}"
        )));
    }
    let mask_of = |row: &[f64]| -> u64 {
        row.iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0.0)
            .fold(0u64, |m, (k, _)| m | (1u64 << k))
    };
    // Histogram of expertise masks (one linear pass; the row loop below
    // dominates, so only that side is parallelized).
    let mut hist: HashMap<u64, u64> = HashMap::new();
    for j in 0..expertise.nrows() {
        let m = mask_of(expertise.row(j));
        if m != 0 {
            *hist.entry(m).or_insert(0) += 1;
        }
    }
    let mut hist: Vec<(u64, u64)> = hist.into_iter().collect();
    hist.sort_unstable(); // deterministic scan order
    let u = affiliation.nrows();
    // Explicit counts are authoritative; the size cutoff only governs
    // auto mode (threads == 0).
    let threads = if threads == 0 && u * hist.len().max(1) < PAR_CELLS_THRESHOLD {
        1
    } else {
        threads
    };
    // Integer partial sums are exactly associative, so the split cannot
    // change the total.
    let partials = wot_par::par_ranges(u, threads, |rows| {
        let mut total = 0u64;
        for i in rows {
            let am = mask_of(affiliation.row(i));
            if am == 0 {
                continue;
            }
            for &(em, count) in &hist {
                if am & em != 0 {
                    total += count;
                }
            }
        }
        total
    });
    Ok(partials.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Dense, Dense) {
        // 3 users, 2 categories.
        let a = Dense::from_rows(&[
            &[0.5, 0.5], // u0 splits attention
            &[1.0, 0.0], // u1 only cat0
            &[0.0, 0.0], // u2 inactive
        ])
        .unwrap();
        let e = Dense::from_rows(&[
            &[0.0, 0.0], // u0 no expertise
            &[0.8, 0.2], // u1
            &[0.0, 0.9], // u2 expert in cat1 only
        ])
        .unwrap();
        (a, e)
    }

    #[test]
    fn pairwise_hand_values() {
        let (a, e) = small();
        // u0 -> u1: (0.5·0.8 + 0.5·0.2)/1.0 = 0.5
        assert!((pairwise(&a, &e, 0, 1) - 0.5).abs() < 1e-12);
        // u1 -> u2: (1.0·0.0)/1.0 = 0 — no category overlap.
        assert_eq!(pairwise(&a, &e, 1, 2), 0.0);
        // u0 -> u2: (0.5·0.9)/1.0 = 0.45
        assert!((pairwise(&a, &e, 0, 2) - 0.45).abs() < 1e-12);
        // Inactive truster trusts nobody.
        assert_eq!(pairwise(&a, &e, 2, 1), 0.0);
    }

    #[test]
    fn masked_matches_pairwise() {
        let (a, e) = small();
        let mask =
            Csr::from_triplets(3, 3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let t = derive_masked(&a, &e, &mask, 0).unwrap();
        assert_eq!(t.nnz(), mask.nnz());
        for (i, j, v) in t.iter() {
            assert_eq!(v.to_bits(), pairwise(&a, &e, i, j).to_bits(), "({i},{j})");
        }
    }

    #[test]
    fn dense_matches_pairwise() {
        let (a, e) = small();
        let t = derive_dense(&a, &e, 0).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((t.get(i, j) - pairwise(&a, &e, i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trust_stays_in_unit_range() {
        let (a, e) = small();
        let t = derive_dense(&a, &e, 0).unwrap();
        for &v in t.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn support_count_matches_dense_support() {
        let (a, e) = small();
        let t = derive_dense(&a, &e, 0).unwrap();
        let brute = t.as_slice().iter().filter(|&&v| v > 0.0).count() as u64;
        assert_eq!(support_count(&a, &e, 0).unwrap(), brute);
    }

    #[test]
    fn support_count_rejects_too_many_categories() {
        let a = Dense::zeros(1, 65);
        let e = Dense::zeros(1, 65);
        assert!(support_count(&a, &e, 0).is_err());
        let a = Dense::zeros(1, 2);
        let e = Dense::zeros(1, 3);
        assert!(support_count(&a, &e, 0).is_err());
    }

    /// A deterministic pseudo-random instance big enough to cross the
    /// parallel thresholds (u² > 2^16).
    fn large() -> (Dense, Dense) {
        let (u, c) = (300usize, 5usize);
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut a = Dense::zeros(u, c);
        let mut e = Dense::zeros(u, c);
        for i in 0..u {
            for j in 0..c {
                if next() % 3 == 0 {
                    a.set(i, j, (next() % 1000) as f64 / 1000.0);
                }
                if next() % 4 == 0 {
                    e.set(i, j, (next() % 1000) as f64 / 1000.0);
                }
            }
        }
        (a, e)
    }

    #[test]
    fn threaded_dense_matches_sequential_bitwise() {
        let (a, e) = large();
        let seq = derive_dense(&a, &e, 1).unwrap();
        for threads in [0usize, 2, 5] {
            let par = derive_dense(&a, &e, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn threaded_support_count_matches_sequential() {
        let (a, e) = large();
        let seq = support_count(&a, &e, 1).unwrap();
        let brute = derive_dense(&a, &e, 0)
            .unwrap()
            .as_slice()
            .iter()
            .filter(|&&v| v > 0.0)
            .count() as u64;
        assert_eq!(seq, brute);
        for threads in [0usize, 2, 5] {
            assert_eq!(support_count(&a, &e, threads).unwrap(), seq);
        }
    }

    #[test]
    fn threaded_masked_matches_sequential_bitwise() {
        let (a, e) = large();
        let u = a.nrows();
        let mut triplets = Vec::new();
        for i in 0..u {
            for j in 0..u {
                if (i * 31 + j * 17) % 7 == 0 {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let mask = Csr::from_triplets(u, u, triplets).unwrap();
        let seq = derive_masked(&a, &e, &mask, 1).unwrap();
        for threads in [0usize, 2, 5] {
            let par = derive_masked(&a, &e, &mask, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Dense::zeros(2, 2);
        let e = Dense::zeros(3, 2);
        assert!(derive_dense(&a, &e, 0).is_err());
        let mask = Csr::empty(2, 3);
        assert!(derive_masked(&a, &e, &mask, 0).is_err());
        // Matching A/E, but the mask is not U×U.
        let e = Dense::zeros(2, 2);
        assert!(derive_masked(&a, &e, &mask, 0).is_err());
        assert!(derive_masked(&a, &e, &Csr::empty(2, 2), 0).is_ok());
    }

    #[test]
    fn dense_over_budget_returns_capacity_error() {
        let (a, e) = small();
        // 3×3×8 = 72 bytes; a 71-byte budget must refuse before allocating.
        let err = derive_dense_budgeted(&a, &e, 1, 71).unwrap_err();
        match &err {
            CoreError::Capacity {
                required_bytes,
                budget_bytes,
            } => {
                assert_eq!(*required_bytes, 72);
                assert_eq!(*budget_bytes, 71);
            }
            other => panic!("expected Capacity error, got {other:?}"),
        }
        // The message points callers at the streaming engine.
        assert!(err.to_string().contains("TrustBlocks"), "{err}");
        assert!(derive_dense_budgeted(&a, &e, 1, 72).is_ok());
    }

    #[test]
    fn paper_scale_dense_is_rejected_by_default_budget() {
        // 44k users would need ~15.6 GB — the default budget refuses
        // without touching the allocator (construction of the matrices
        // here is cheap; only the U×U output is over budget). The budget
        // is pinned explicitly so an ambient WOT_TRUST_DENSE_BUDGET_BYTES
        // cannot turn this refusal test into a 15.6 GB allocation.
        let a = Dense::zeros(44_197, 1);
        let e = Dense::zeros(44_197, 1);
        assert!(matches!(
            derive_dense_budgeted(&a, &e, 1, DEFAULT_DENSE_BUDGET_BYTES),
            Err(CoreError::Capacity { .. })
        ));
    }
}
