//! Cross-format operations.
//!
//! The derived-trust computation (Eq. 5 of the paper) is a *masked* product:
//! `T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic` evaluated only on a sparse candidate
//! pattern (the direct-connection region `R`, or an explicit pair list) —
//! materializing the full dense U×U product at Epinions scale would need
//! ~15 GB. [`masked_row_dot`] is that primitive.
//!
//! The output pattern **is** the mask's pattern, so the kernel clones the
//! mask's `row_ptr`/`col_idx` arrays verbatim and computes values straight
//! into a flat buffer — no intermediate COO, no re-sort — and splits the
//! buffer by row ranges (balanced by non-zero count) across worker
//! threads. Every output slot is written exactly once from inputs that are
//! only read, so the result is bit-identical for any thread count.

use crate::{Csr, Dense, Result, SparseError};

/// Below this many stored entries the kernel stays on the calling thread:
/// a laptop-scale thread spawn costs more than the whole product.
const PAR_NNZ_THRESHOLD: usize = 1 << 13;

/// For every coordinate `(i, j)` stored in `mask`, computes the dot product
/// of `a.row(i)` and `b.row(j)`, returning the results as a CSR with the
/// same pattern as `mask` (explicit zeros retained).
///
/// `a` and `b` must have the same number of columns (the shared inner
/// dimension — categories, in the paper); `mask` must be
/// `a.nrows() × b.nrows()`.
///
/// `threads` is the worker count: `0` = auto (small masks stay on the
/// calling thread, large ones use all hardware threads), explicit counts
/// are honoured as given, `1` = fully sequential.
pub fn masked_row_dot(a: &Dense, b: &Dense, mask: &Csr, threads: usize) -> Result<Csr> {
    if a.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "masked_row_dot (inner dim)",
        });
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), b.nrows()),
            right: mask.shape(),
            op: "masked_row_dot (mask shape)",
        });
    }
    let row_ptr = mask.row_ptr();
    let mut values = vec![0.0f64; mask.nnz()];

    // An explicit count is authoritative; the size cutoff only governs
    // auto mode (threads == 0), so benchmarks pinning a count really
    // measure that count.
    let threads = if threads == 0 {
        if mask.nnz() < PAR_NNZ_THRESHOLD {
            1
        } else {
            wot_par::max_threads()
        }
    } else {
        threads
    };
    // Exactly one kernel exists: every path (sequential, each parallel
    // chunk, and the streaming block iterator) goes through
    // [`masked_row_dot_block`], so the bit-identity guarantee cannot
    // drift between copies.
    if threads <= 1 {
        masked_row_dot_block(a, b, mask, 0..mask.nrows(), &mut values)?;
    } else {
        // Split rows so each worker carries a near-equal non-zero count
        // (mask rows can be heavily skewed), then hand each worker its
        // disjoint slice of the value buffer.
        let row_bounds = wot_par::weighted_boundaries(row_ptr, threads);
        let elem_bounds: Vec<usize> = row_bounds.iter().map(|&r| row_ptr[r]).collect();
        wot_par::par_chunks_mut(&mut values, &elem_bounds, |chunk, out| {
            masked_row_dot_block(a, b, mask, row_bounds[chunk]..row_bounds[chunk + 1], out)
                .expect("shapes validated above; chunk bounds from the mask's own row_ptr");
        });
    }

    Csr::from_raw_parts(
        mask.nrows(),
        mask.ncols(),
        row_ptr.to_vec(),
        mask.col_indices().to_vec(),
        values,
    )
}

/// [`masked_row_dot`] restricted to the mask rows `rows`, writing the
/// values straight into `out` — the row-block primitive of the streaming
/// Eq. 5 engine (`wot-core`'s `TrustBlocks`).
///
/// `out` must hold exactly the stored entries of the block, i.e.
/// `mask.row_ptr()[rows.end] - mask.row_ptr()[rows.start]` slots;
/// `out[k - mask.row_ptr()[rows.start]]` receives the value of the mask's
/// `k`-th stored coordinate. Entry values are computed by the same kernel
/// as the full product, so a block scan concatenates bit-identically to
/// [`masked_row_dot`]'s value array.
pub fn masked_row_dot_block(
    a: &Dense,
    b: &Dense,
    mask: &Csr,
    rows: core::ops::Range<usize>,
    out: &mut [f64],
) -> Result<()> {
    if a.ncols() != b.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "masked_row_dot_block (inner dim)",
        });
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.nrows(), b.nrows()),
            right: mask.shape(),
            op: "masked_row_dot_block (mask shape)",
        });
    }
    let row_ptr = mask.row_ptr();
    if rows.start > rows.end || rows.end > mask.nrows() {
        return Err(SparseError::IndexOutOfBounds {
            row: rows.end,
            col: 0,
            nrows: mask.nrows(),
            ncols: mask.ncols(),
        });
    }
    let base = row_ptr[rows.start];
    let expected = row_ptr[rows.end] - base;
    if out.len() != expected {
        return Err(SparseError::VectorLengthMismatch {
            expected,
            actual: out.len(),
        });
    }
    let col_idx = mask.col_indices();
    for i in rows {
        let a_row = a.row(i);
        for k in row_ptr[i]..row_ptr[i + 1] {
            let j = col_idx[k] as usize;
            out[k - base] = crate::vector::dot(a_row, b.row(j));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_dot_matches_manual() {
        let a = Dense::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]).unwrap();
        let b = Dense::from_rows(&[&[0.2, 0.8], &[1.0, 1.0], &[0.0, 0.0]]).unwrap();
        let mask = Csr::from_triplets(2, 3, [(0, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0)]).unwrap();
        let out = masked_row_dot(&a, &b, &mask, 0).unwrap();
        assert_eq!(out.get(0, 0), Some(0.2)); // 1*0.2 + 0*0.8
        assert_eq!(out.get(0, 2), Some(0.0)); // kept: pattern preserved even if 0
        assert_eq!(out.get(1, 1), Some(1.0)); // 0.5+0.5
        assert_eq!(out.get(1, 0), None); // not in mask
        assert_eq!(out.nnz(), 3);
    }

    #[test]
    fn masked_dot_validates_shapes() {
        let a = Dense::zeros(2, 2);
        let b = Dense::zeros(3, 3);
        let mask = Csr::empty(2, 3);
        assert!(masked_row_dot(&a, &b, &mask, 0).is_err());
        let b2 = Dense::zeros(3, 2);
        let bad_mask = Csr::empty(3, 3);
        assert!(masked_row_dot(&a, &b2, &bad_mask, 0).is_err());
        assert!(masked_row_dot(&a, &b2, &mask, 0).is_ok());
    }

    /// Builds a deterministic pseudo-random instance big enough to cross
    /// the parallel threshold.
    fn large_instance() -> (Dense, Dense, Csr) {
        let (n, c) = (160usize, 6usize);
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut a = Dense::zeros(n, c);
        let mut b = Dense::zeros(n, c);
        for i in 0..n {
            for j in 0..c {
                a.set(i, j, (next() % 1000) as f64 / 1000.0);
                b.set(i, j, (next() % 1000) as f64 / 1000.0);
            }
        }
        let mut coo = crate::Coo::new(n, n);
        for _ in 0..3 * PAR_NNZ_THRESHOLD {
            coo.push(next() % n, next() % n, 1.0).unwrap();
        }
        (a, b, Csr::from_coo(&coo))
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (a, b, mask) = large_instance();
        assert!(
            mask.nnz() >= PAR_NNZ_THRESHOLD,
            "instance must exercise the parallel path"
        );
        let seq = masked_row_dot(&a, &b, &mask, 1).unwrap();
        for threads in [0usize, 2, 3, 8] {
            let par = masked_row_dot(&a, &b, &mask, threads).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn block_scan_concatenates_to_full_product() {
        let (a, b, mask) = large_instance();
        let full = masked_row_dot(&a, &b, &mask, 1).unwrap();
        for block_rows in [1usize, 13, 64, 1000] {
            let mut flat: Vec<f64> = Vec::new();
            let row_ptr = mask.row_ptr();
            let mut start = 0;
            while start < mask.nrows() {
                let end = (start + block_rows).min(mask.nrows());
                let mut out = vec![0.0; row_ptr[end] - row_ptr[start]];
                masked_row_dot_block(&a, &b, &mask, start..end, &mut out).unwrap();
                flat.extend_from_slice(&out);
                start = end;
            }
            assert_eq!(flat, full.values(), "block_rows={block_rows}");
        }
    }

    #[test]
    fn block_validates_range_and_buffer() {
        let (a, b, mask) = large_instance();
        let row_ptr = mask.row_ptr();
        // Out-of-range rows.
        let mut out = vec![0.0; 1];
        assert!(masked_row_dot_block(&a, &b, &mask, 0..mask.nrows() + 1, &mut out).is_err());
        // Wrong buffer length.
        let mut out = vec![0.0; row_ptr[3] - row_ptr[0] + 1];
        assert!(masked_row_dot_block(&a, &b, &mask, 0..3, &mut out).is_err());
        // Empty range is fine.
        assert!(masked_row_dot_block(&a, &b, &mask, 5..5, &mut []).is_ok());
        // Shape mismatches are rejected like the full kernel.
        let wrong = Dense::zeros(a.nrows(), a.ncols() + 1);
        let mut out = vec![0.0; row_ptr[1]];
        assert!(masked_row_dot_block(&a, &wrong, &mask, 0..1, &mut out).is_err());
    }

    #[test]
    fn output_pattern_is_masks_pattern() {
        let (a, b, mask) = large_instance();
        let out = masked_row_dot(&a, &b, &mask, 0).unwrap();
        assert_eq!(out.row_ptr(), mask.row_ptr());
        assert_eq!(out.col_indices(), mask.col_indices());
        // Spot-check values against the naive definition.
        for (i, j, v) in out.iter().take(500) {
            let expect = crate::vector::dot(a.row(i), b.row(j));
            assert_eq!(v, expect, "({i},{j})");
        }
    }
}
