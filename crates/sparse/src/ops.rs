//! Cross-format operations.
//!
//! The derived-trust computation (Eq. 5 of the paper) is a *masked* product:
//! `T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic` evaluated only on a sparse candidate
//! pattern (the direct-connection region `R`, or an explicit pair list) —
//! materializing the full dense U×U product at Epinions scale would need
//! ~15 GB. [`masked_row_dot_block`] is that primitive, one row block at a
//! time: the output pattern **is** the mask's pattern, so values go
//! straight into a flat buffer aligned with the mask's stored entries — no
//! intermediate COO, no re-sort. Every output slot is written exactly once
//! from inputs that are only read, so a caller that splits the rows across
//! threads (`wot-core`'s `TrustBlocks`) gets bit-identical values for any
//! split.

use crate::{Csr, Dense, Result, SparseError};

/// For every coordinate `(i, j)` stored in `mask` with `i` in `rows`,
/// computes the dot product of `a.row(i)` and `b.row(j)`, writing the
/// values straight into `out` — the row-block primitive of the streaming
/// Eq. 5 engine (`wot-core`'s `TrustBlocks`).
///
/// `a` and `b` must have the same number of columns (the shared inner
/// dimension — categories, in the paper); `mask` must be
/// `a.nrows() × b.nrows()`. `out` must hold exactly the stored entries of
/// the block, i.e. `mask.row_ptr()[rows.end] - mask.row_ptr()[rows.start]`
/// slots; `out[k - mask.row_ptr()[rows.start]]` receives the value of the
/// mask's `k`-th stored coordinate (explicit zeros included).
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

    /// The whole mask as one block.
    fn full(a: &Dense, b: &Dense, mask: &Csr) -> Result<Vec<f64>> {
        let mut out = vec![0.0; mask.nnz()];
        masked_row_dot_block(a, b, mask, 0..mask.nrows(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn masked_dot_matches_manual() {
        let a = Dense::from_rows(&[&[1.0, 0.0], &[0.5, 0.5]]).unwrap();
        let b = Dense::from_rows(&[&[0.2, 0.8], &[1.0, 1.0], &[0.0, 0.0]]).unwrap();
        let mask = Csr::from_triplets(2, 3, [(0, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0)]).unwrap();
        // Stored order: (0,0), (0,2), (1,1); a zero value keeps its slot.
        assert_eq!(full(&a, &b, &mask).unwrap(), vec![0.2, 0.0, 1.0]);
    }

    #[test]
    fn masked_dot_validates_shapes() {
        let a = Dense::zeros(2, 2);
        let b = Dense::zeros(3, 3);
        let mask = Csr::empty(2, 3);
        assert!(full(&a, &b, &mask).is_err());
        let b2 = Dense::zeros(3, 2);
        let bad_mask = Csr::empty(3, 3);
        assert!(full(&a, &b2, &bad_mask).is_err());
        assert!(full(&a, &b2, &mask).is_ok());
    }

    /// A deterministic pseudo-random instance with skewed mask rows.
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
        for _ in 0..3 << 13 {
            coo.push(next() % n, next() % n, 1.0).unwrap();
        }
        (a, b, Csr::from_coo(&coo))
    }

    #[test]
    fn block_scan_concatenates_to_full_product() {
        let (a, b, mask) = large_instance();
        let oracle: Vec<f64> = mask
            .iter()
            .map(|(i, j, _)| crate::vector::dot(a.row(i), b.row(j)))
            .collect();
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
            assert_eq!(flat, oracle, "block_rows={block_rows}");
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
        // Shape mismatches are rejected.
        let wrong = Dense::zeros(a.nrows(), a.ncols() + 1);
        let mut out = vec![0.0; row_ptr[1]];
        assert!(masked_row_dot_block(&a, &wrong, &mask, 0..1, &mut out).is_err());
    }
}
