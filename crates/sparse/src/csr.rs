use crate::{Coo, Result, SparseError};

/// Compressed sparse row matrix — the workhorse consumption format.
///
/// Rows are stored contiguously; within a row, column indices are strictly
/// increasing. Supports the products, masking and row-slicing operations the
/// trust pipeline needs:
///
/// * [`spmv`](Csr::spmv) / [`spmv_t`](Csr::spmv_t) for EigenTrust-style
///   power iteration,
/// * [`spmm`](Csr::spmm) for Guha et al.'s atomic propagations
///   (e.g. co-citation `B·Bᵀ·B`),
/// * [`intersect_pattern`](Csr::intersect_pattern) /
///   [`subtract_pattern`](Csr::subtract_pattern) for the paper's evaluation
///   regions `T ∩ R`, `R − T`, `T − R`,
/// * [`row_top_fraction`](Csr::row_top_fraction) for the per-user top-`k_i%`
///   binarization of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// An empty (all-zero) matrix of the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds from a [`Coo`], summing duplicate coordinates.
    pub fn from_coo(coo: &Coo) -> Self {
        let entries = coo.sorted_dedup();
        let (nrows, ncols) = coo.shape();
        let mut row_ptr = vec![0usize; nrows + 1];
        for &(r, _, _) in &entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (_, c, v) in entries {
            col_idx.push(c);
            values.push(v);
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Convenience: builds directly from validated triplets.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        Ok(Self::from_coo(&Coo::from_triplets(nrows, ncols, triplets)?))
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The raw row-pointer array (`nrows + 1` entries; row `i` occupies
    /// `row_ptr[i]..row_ptr[i + 1]` of the index/value arrays). Exposed so
    /// perf-sensitive consumers can partition work by non-zero count.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array, row-major, strictly increasing within
    /// each row.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// The raw value array, parallel to [`col_indices`](Self::col_indices).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Builds a CSR directly from its raw arrays, validating the
    /// invariants (`row_ptr` spans `0..=nnz` monotonically; column indices
    /// are strictly increasing within each row and in bounds).
    ///
    /// This is the zero-copy construction path for operations that compute
    /// values onto an existing pattern (e.g. masked products): clone the
    /// pattern arrays, fill a value buffer, and assemble — no COO
    /// round-trip, no re-sort.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1
            || row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&col_idx.len())
            || col_idx.len() != values.len()
        {
            return Err(SparseError::ShapeMismatch {
                left: (nrows, ncols),
                right: (row_ptr.len(), col_idx.len()),
                op: "from_raw_parts (array lengths)",
            });
        }
        for i in 0..nrows {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            if lo > hi || hi > col_idx.len() {
                return Err(SparseError::ShapeMismatch {
                    left: (lo, hi),
                    right: (nrows, ncols),
                    op: "from_raw_parts (row_ptr monotonicity)",
                });
            }
            let row = &col_idx[lo..hi];
            let in_bounds = row.last().is_none_or(|&c| (c as usize) < ncols);
            let increasing = row.windows(2).all(|w| w[0] < w[1]);
            if !in_bounds || !increasing {
                return Err(SparseError::IndexOutOfBounds {
                    row: i,
                    col: row.last().copied().unwrap_or(0) as usize,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Fraction of cells that are explicitly stored.
    ///
    /// Returns `0.0` for a degenerate zero-area matrix.
    pub fn density(&self) -> f64 {
        let area = self.nrows as f64 * self.ncols as f64;
        if area == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / area
        }
    }

    /// Column indices and values of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Value at `(i, j)` if explicitly stored.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i >= self.nrows || j >= self.ncols {
            return None;
        }
        let (cols, vals) = self.row(i);
        cols.binary_search(&(j as u32)).ok().map(|k| vals[k])
    }

    /// Whether `(i, j)` is explicitly stored (pattern membership).
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.get(i, j).is_some()
    }

    /// Iterates over all stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Converts back to triplet format.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.nrows, self.ncols);
        coo.reserve(self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j, v).expect("csr invariant: indices in bounds");
        }
        coo
    }

    /// Transposed copy, still in CSR.
    pub fn transpose(&self) -> Csr {
        // Counting sort over columns: O(nnz + ncols).
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for (i, j, v) in self.iter() {
            let pos = next[j];
            next[j] += 1;
            col_idx[pos] = i as u32;
            values[pos] = v;
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Applies `f` to every stored value, keeping the pattern.
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> Csr {
        Csr {
            values: self.values.iter().map(|&v| f(v)).collect(),
            ..self.clone()
        }
    }

    /// Drops entries with `|v| <= eps`, shrinking the pattern.
    pub fn prune(&self, eps: f64) -> Csr {
        self.filter(|_, _, v| v.abs() > eps)
    }

    /// Keeps only entries where `pred(i, j, v)` holds.
    pub fn filter(&self, pred: impl Fn(usize, usize, f64) -> bool) -> Csr {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if pred(i, c as usize, v) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// All stored values replaced by `1.0` (pattern indicator).
    pub fn to_pattern(&self) -> Csr {
        self.map_values(|_| 1.0)
    }

    /// Sparse matrix × dense vector: `y = A·x`.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::VectorLengthMismatch {
                expected: self.ncols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.nrows];
        for (i, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
        Ok(y)
    }

    /// Transposed product: `y = Aᵀ·x` without materializing `Aᵀ`.
    pub fn spmv_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.nrows {
            return Err(SparseError::VectorLengthMismatch {
                expected: self.nrows,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.ncols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c as usize] += v * xi;
            }
        }
        Ok(y)
    }

    /// Sparse × sparse product `C = A·B` (classical Gustavson row merge).
    pub fn spmm(&self, other: &Csr) -> Result<Csr> {
        if self.ncols != other.nrows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "spmm",
            });
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        // Dense accumulator with a touched-list; reset cost is O(touched).
        let mut acc = vec![0.0f64; other.ncols];
        let mut touched: Vec<u32> = Vec::new();
        for i in 0..self.nrows {
            let (a_cols, a_vals) = self.row(i);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = other.row(k as usize);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    if acc[j as usize] == 0.0 && !touched.contains(&j) {
                        touched.push(j);
                    }
                    acc[j as usize] += av * bv;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                col_idx.push(j);
                values.push(acc[j as usize]);
                acc[j as usize] = 0.0;
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            nrows: self.nrows,
            ncols: other.ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Per-column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.ncols];
        for (_, j, v) in self.iter() {
            sums[j] += v;
        }
        sums
    }

    /// L1-normalizes every non-empty row (rows summing to zero are left
    /// untouched). This is the row-stochastic form EigenTrust iterates on.
    pub fn row_normalize_l1(&self) -> Csr {
        let mut out = self.clone();
        for i in 0..self.nrows {
            let lo = out.row_ptr[i];
            let hi = out.row_ptr[i + 1];
            let s: f64 = out.values[lo..hi].iter().map(|v| v.abs()).sum();
            if s > 0.0 {
                for v in &mut out.values[lo..hi] {
                    *v /= s;
                }
            }
        }
        out
    }

    /// Entries of `self` whose coordinates also appear in `mask`
    /// (values come from `self`). Implements the `X ∩ Y` region algebra of
    /// the paper's Fig. 3.
    pub fn intersect_pattern(&self, mask: &Csr) -> Result<Csr> {
        self.pattern_op(mask, true)
    }

    /// Entries of `self` whose coordinates do *not* appear in `mask`.
    /// Implements `X − Y`.
    pub fn subtract_pattern(&self, mask: &Csr) -> Result<Csr> {
        self.pattern_op(mask, false)
    }

    fn pattern_op(&self, mask: &Csr, keep_if_present: bool) -> Result<Csr> {
        if self.shape() != mask.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: mask.shape(),
                op: if keep_if_present {
                    "intersect_pattern"
                } else {
                    "subtract_pattern"
                },
            });
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            let (m_cols, _) = mask.row(i);
            // Sorted-merge membership test: O(|row| + |mask row|).
            let mut mi = 0usize;
            for (&c, &v) in cols.iter().zip(vals) {
                while mi < m_cols.len() && m_cols[mi] < c {
                    mi += 1;
                }
                let present = mi < m_cols.len() && m_cols[mi] == c;
                if present == keep_if_present {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of coordinates stored in both `self` and `other`.
    pub fn pattern_overlap(&self, other: &Csr) -> Result<usize> {
        Ok(self.intersect_pattern(other)?.nnz())
    }

    /// Weighted sum of same-shaped matrices: `Σ wₖ·Mₖ`.
    ///
    /// Used to combine Guha et al.'s atomic propagation matrices.
    pub fn linear_combination(terms: &[(f64, &Csr)]) -> Result<Csr> {
        let Some(&(_, first)) = terms.first() else {
            return Ok(Csr::empty(0, 0));
        };
        let shape = first.shape();
        let mut coo = Coo::new(shape.0, shape.1);
        for &(w, m) in terms {
            if m.shape() != shape {
                return Err(SparseError::ShapeMismatch {
                    left: shape,
                    right: m.shape(),
                    op: "linear_combination",
                });
            }
            for (i, j, v) in m.iter() {
                coo.push(i, j, w * v)
                    .expect("csr invariant: indices in bounds");
            }
        }
        Ok(Csr::from_coo(&coo))
    }

    /// Indices (and values) of the `k` largest entries of row `i`,
    /// descending by value with ascending column index as the tie-break so
    /// results are deterministic.
    pub fn row_top_k(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        let (cols, vals) = self.row(i);
        let mut entries: Vec<(usize, f64)> = cols
            .iter()
            .zip(vals)
            .map(|(&c, &v)| (c as usize, v))
            .collect();
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        entries.truncate(k);
        entries
    }

    /// The top `fraction` (0..=1) of row `i` by value, rounding the count up
    /// so a non-zero fraction on a non-empty row selects at least one entry.
    /// This is the per-user binarization rule of the paper's Table 4.
    pub fn row_top_fraction(&self, i: usize, fraction: f64) -> Vec<(usize, f64)> {
        let n = self.row_nnz(i);
        if n == 0 || fraction <= 0.0 {
            return Vec::new();
        }
        let k = ((fraction * n as f64).ceil() as usize).min(n);
        self.row_top_k(i, k)
    }

    /// Frobenius-style L1 difference between same-shaped matrices; useful in
    /// convergence tests.
    pub fn l1_difference(&self, other: &Csr) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "l1_difference",
            });
        }
        let mut diff = 0.0;
        for i in 0..self.nrows {
            let (a_cols, a_vals) = self.row(i);
            let (b_cols, b_vals) = other.row(i);
            let (mut ai, mut bi) = (0usize, 0usize);
            while ai < a_cols.len() || bi < b_cols.len() {
                if bi >= b_cols.len() || (ai < a_cols.len() && a_cols[ai] < b_cols[bi]) {
                    diff += a_vals[ai].abs();
                    ai += 1;
                } else if ai >= a_cols.len() || b_cols[bi] < a_cols[ai] {
                    diff += b_vals[bi].abs();
                    bi += 1;
                } else {
                    diff += (a_vals[ai] - b_vals[bi]).abs();
                    ai += 1;
                    bi += 1;
                }
            }
        }
        Ok(diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 0  2  0 ]
        // [ 1  0  3 ]
        // [ 0  0  0 ]
        Csr::from_triplets(3, 3, [(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)]).unwrap()
    }

    #[test]
    fn from_coo_builds_sorted_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[1u32][..], &[2.0][..]));
        assert_eq!(m.row(1), (&[0u32, 2][..], &[1.0, 3.0][..]));
        assert_eq!(m.row_nnz(2), 0);
    }

    #[test]
    fn get_and_contains() {
        let m = sample();
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(9, 9), None);
        assert!(m.contains(1, 2));
        assert!(!m.contains(2, 2));
    }

    #[test]
    fn density_counts_nnz_over_area() {
        let m = sample();
        assert!((m.density() - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(Csr::empty(0, 5).density(), 0.0);
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let m = sample();
        let y = m.spmv(&[1.0, 10.0, 100.0]).unwrap();
        assert_eq!(y, vec![20.0, 301.0, 0.0]);
    }

    #[test]
    fn spmv_rejects_bad_length() {
        assert!(sample().spmv(&[1.0]).is_err());
    }

    #[test]
    fn spmv_t_equals_transpose_spmv() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let via_t = m.transpose().spmv(&x).unwrap();
        let direct = m.spmv_t(&x).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn spmm_identity_is_noop() {
        let m = sample();
        let i = Csr::identity(3);
        assert_eq!(m.spmm(&i).unwrap(), m);
        assert_eq!(i.spmm(&m).unwrap(), m);
    }

    #[test]
    fn spmm_small_reference() {
        // A = [1 2; 0 1], B = [0 1; 1 0]  =>  A*B = [2 1; 1 0]
        let a = Csr::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)]).unwrap();
        let b = Csr::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let c = a.spmm(&b).unwrap();
        assert_eq!(c.get(0, 0), Some(2.0));
        assert_eq!(c.get(0, 1), Some(1.0));
        assert_eq!(c.get(1, 0), Some(1.0));
        assert_eq!(c.get(1, 1), None);
    }

    #[test]
    fn spmm_shape_mismatch() {
        let a = Csr::empty(2, 3);
        let b = Csr::empty(2, 3);
        assert!(a.spmm(&b).is_err());
    }

    #[test]
    fn pattern_intersect_and_subtract() {
        let t = Csr::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0)]).unwrap();
        let r = Csr::from_triplets(2, 2, [(0, 1, 5.0), (1, 0, 5.0)]).unwrap();
        let t_and_r = t.intersect_pattern(&r).unwrap();
        assert_eq!(t_and_r.nnz(), 1);
        assert_eq!(t_and_r.get(0, 1), Some(1.0)); // value from t
        let r_minus_t = r.subtract_pattern(&t).unwrap();
        assert_eq!(r_minus_t.nnz(), 1);
        assert_eq!(r_minus_t.get(1, 0), Some(5.0));
        assert_eq!(t.pattern_overlap(&r).unwrap(), 1);
    }

    #[test]
    fn row_normalize_l1_makes_rows_stochastic() {
        let m = sample().row_normalize_l1();
        let sums: Vec<f64> = (0..3).map(|i| m.row(i).1.iter().sum()).collect();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert_eq!(sums[2], 0.0); // empty row untouched
    }

    #[test]
    fn row_top_k_orders_by_value_then_col() {
        let m =
            Csr::from_triplets(1, 4, [(0, 0, 0.5), (0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.1)]).unwrap();
        let top = m.row_top_k(0, 3);
        assert_eq!(top, vec![(1, 0.9), (2, 0.9), (0, 0.5)]);
    }

    #[test]
    fn row_top_fraction_rounds_up() {
        let m =
            Csr::from_triplets(1, 4, [(0, 0, 0.5), (0, 1, 0.9), (0, 2, 0.7), (0, 3, 0.1)]).unwrap();
        assert_eq!(m.row_top_fraction(0, 0.25).len(), 1);
        assert_eq!(m.row_top_fraction(0, 0.26).len(), 2);
        assert_eq!(m.row_top_fraction(0, 1.0).len(), 4);
        assert!(m.row_top_fraction(0, 0.0).is_empty());
    }

    #[test]
    fn linear_combination_sums_weighted() {
        let a = Csr::from_triplets(2, 2, [(0, 0, 1.0)]).unwrap();
        let b = Csr::from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let c = Csr::linear_combination(&[(2.0, &a), (0.5, &b)]).unwrap();
        assert_eq!(c.get(0, 0), Some(2.5));
        assert_eq!(c.get(1, 1), Some(1.0));
    }

    #[test]
    fn l1_difference_handles_disjoint_patterns() {
        let a = Csr::from_triplets(1, 3, [(0, 0, 1.0), (0, 1, 2.0)]).unwrap();
        let b = Csr::from_triplets(1, 3, [(0, 1, 1.0), (0, 2, 4.0)]).unwrap();
        let d = a.l1_difference(&b).unwrap();
        assert!((d - (1.0 + 1.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn prune_drops_small_entries() {
        let m = Csr::from_triplets(1, 3, [(0, 0, 1e-12), (0, 1, 0.5)]).unwrap();
        let p = m.prune(1e-9);
        assert_eq!(p.nnz(), 1);
        assert_eq!(p.get(0, 1), Some(0.5));
    }

    #[test]
    fn filter_by_coordinate() {
        let m = sample();
        let diag_free = m.filter(|i, j, _| i != j);
        assert_eq!(diag_free.nnz(), 3); // sample has no diagonal entries
        let col0 = m.filter(|_, j, _| j == 0);
        assert_eq!(col0.nnz(), 1);
    }

    #[test]
    fn to_coo_roundtrip() {
        let m = sample();
        assert_eq!(Csr::from_coo(&m.to_coo()), m);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let m = sample();
        let rebuilt = Csr::from_raw_parts(
            m.nrows(),
            m.ncols(),
            m.row_ptr().to_vec(),
            m.col_indices().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn raw_parts_validation() {
        // Length mismatch.
        assert!(Csr::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // row_ptr not ending at nnz.
        assert!(Csr::from_raw_parts(2, 2, vec![0, 1, 2], vec![0], vec![1.0]).is_err());
        // Non-monotone row_ptr.
        assert!(Csr::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Column out of bounds.
        assert!(Csr::from_raw_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Duplicate / unsorted columns within a row.
        assert!(Csr::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(Csr::from_raw_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).is_err());
        // Valid empty matrix.
        assert!(Csr::from_raw_parts(0, 0, vec![0], vec![], vec![]).is_ok());
    }
}
