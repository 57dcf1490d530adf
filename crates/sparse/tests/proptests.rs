//! Property-based tests for the sparse algebra substrate.
//!
//! Each property asserts an algebraic law against either a dense reference
//! implementation or a structural invariant of the format.

use proptest::prelude::*;
use wot_sparse::{Coo, Csr, Dense};

const MAX_DIM: usize = 24;

/// Strategy: a random triplet list within an `r x c` shape.
fn triplets(r: usize, c: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec((0..r, 0..c, -10.0f64..10.0), 0..(r * c).min(64))
}

/// Strategy: shape plus triplets.
fn matrix_input() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1..MAX_DIM, 1..MAX_DIM).prop_flat_map(|(r, c)| (Just(r), Just(c), triplets(r, c)))
}

fn to_dense(m: &Csr) -> Dense {
    let mut d = Dense::zeros(m.nrows(), m.ncols());
    for (i, j, v) in m.iter() {
        d.set(i, j, d.get(i, j) + v);
    }
    d
}

proptest! {
    /// COO -> CSR preserves the duplicate-summed dense content.
    #[test]
    fn coo_to_csr_matches_dense_accumulation((r, c, ts) in matrix_input()) {
        let coo = Coo::from_triplets(r, c, ts.clone()).unwrap();
        let csr = Csr::from_coo(&coo);
        let mut dense = Dense::zeros(r, c);
        for (i, j, v) in ts {
            dense.set(i, j, dense.get(i, j) + v);
        }
        for i in 0..r {
            for j in 0..c {
                let got = csr.get(i, j).unwrap_or(0.0);
                prop_assert!((got - dense.get(i, j)).abs() < 1e-9);
            }
        }
    }

    /// Transpose is an involution and swaps coordinates.
    #[test]
    fn transpose_involution((r, c, ts) in matrix_input()) {
        let m = Csr::from_triplets(r, c, ts).unwrap();
        let t = m.transpose();
        prop_assert_eq!(t.shape(), (c, r));
        prop_assert_eq!(&t.transpose(), &m);
        for (i, j, v) in m.iter() {
            prop_assert_eq!(t.get(j, i), Some(v));
        }
    }

    /// spmv agrees with a dense reference product.
    #[test]
    fn spmv_matches_dense((r, c, ts) in matrix_input(), seed in 0u64..1000) {
        let m = Csr::from_triplets(r, c, ts).unwrap();
        let x: Vec<f64> = (0..c).map(|k| ((k as u64 * 31 + seed) % 17) as f64 / 7.0).collect();
        let y = m.spmv(&x).unwrap();
        let d = to_dense(&m);
        for (i, &yi) in y.iter().enumerate() {
            let expect = wot_sparse::dot(d.row(i), &x);
            prop_assert!((yi - expect).abs() < 1e-9);
        }
    }

    /// spmv_t(x) equals transpose().spmv(x).
    #[test]
    fn spmv_t_matches_transpose((r, c, ts) in matrix_input()) {
        let m = Csr::from_triplets(r, c, ts).unwrap();
        let x: Vec<f64> = (0..r).map(|k| k as f64 * 0.5 - 1.0).collect();
        let a = m.spmv_t(&x).unwrap();
        let b = m.transpose().spmv(&x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    /// spmm agrees with dense matmul on the shared inner dimension.
    #[test]
    fn spmm_matches_dense(
        (r, k, ts_a) in matrix_input(),
        c in 1..MAX_DIM,
        seed in 0u64..100,
    ) {
        let a = Csr::from_triplets(r, k, ts_a).unwrap();
        // Build b deterministically from the seed.
        let mut b_triplets = Vec::new();
        for i in 0..k {
            for j in 0..c {
                if (i * 7 + j * 13 + seed as usize).is_multiple_of(5) {
                    b_triplets.push((i, j, ((i + j) % 3) as f64 - 1.0));
                }
            }
        }
        let b = Csr::from_triplets(k, c, b_triplets).unwrap();
        let prod = a.spmm(&b).unwrap();
        let dense_prod = to_dense(&a).matmul(&to_dense(&b)).unwrap();
        for i in 0..r {
            for j in 0..c {
                let got = prod.get(i, j).unwrap_or(0.0);
                prop_assert!((got - dense_prod.get(i, j)).abs() < 1e-9);
            }
        }
    }

    /// Pattern algebra: intersect + subtract partition the matrix.
    #[test]
    fn pattern_partition((r, c, ts_a) in matrix_input(), ts_b_seed in 0u64..100) {
        let a = Csr::from_triplets(r, c, ts_a).unwrap();
        let mut ts_b = Vec::new();
        for i in 0..r {
            for j in 0..c {
                if (i * 3 + j * 5 + ts_b_seed as usize).is_multiple_of(4) {
                    ts_b.push((i, j, 1.0));
                }
            }
        }
        let b = Csr::from_triplets(r, c, ts_b).unwrap();
        let inter = a.intersect_pattern(&b).unwrap();
        let diff = a.subtract_pattern(&b).unwrap();
        prop_assert_eq!(inter.nnz() + diff.nnz(), a.nnz());
        for (i, j, v) in a.iter() {
            if b.contains(i, j) {
                prop_assert_eq!(inter.get(i, j), Some(v));
                prop_assert_eq!(diff.get(i, j), None);
            } else {
                prop_assert_eq!(diff.get(i, j), Some(v));
                prop_assert_eq!(inter.get(i, j), None);
            }
        }
    }

    /// Row L1 normalization yields |row sums| of 1 for non-empty rows.
    #[test]
    fn row_normalize_is_stochastic((r, c, ts) in matrix_input()) {
        let m = Csr::from_triplets(r, c, ts).unwrap()
            .map_values(f64::abs)
            .prune(1e-12);
        let n = m.row_normalize_l1();
        for i in 0..n.nrows() {
            let s: f64 = n.row(i).1.iter().sum();
            if m.row_nnz(i) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9, "row {} sums to {}", i, s);
            } else {
                prop_assert_eq!(s, 0.0);
            }
        }
    }

    /// row_top_fraction never selects more than row_nnz entries and selects
    /// at least one when fraction > 0 and the row is non-empty.
    #[test]
    fn top_fraction_bounds((r, c, ts) in matrix_input(), f in 0.0f64..1.0) {
        let m = Csr::from_triplets(r, c, ts).unwrap();
        for i in 0..r {
            let picked = m.row_top_fraction(i, f);
            prop_assert!(picked.len() <= m.row_nnz(i));
            if f > 0.0 && m.row_nnz(i) > 0 {
                prop_assert!(!picked.is_empty());
            }
            // Selected values dominate unselected ones.
            if let Some(min_sel) = picked.iter().map(|p| p.1).fold(None, |a: Option<f64>, v| {
                Some(a.map_or(v, |x| x.min(v)))
            }) {
                let (cols, vals) = m.row(i);
                for (&cidx, &v) in cols.iter().zip(vals) {
                    if !picked.iter().any(|p| p.0 == cidx as usize) {
                        prop_assert!(v <= min_sel + 1e-12);
                    }
                }
            }
        }
    }

    /// Linear combination distributes over dense accumulation.
    #[test]
    fn linear_combination_matches_dense(
        (r, c, ts_a) in matrix_input(),
        w1 in -2.0f64..2.0,
        w2 in -2.0f64..2.0,
    ) {
        let a = Csr::from_triplets(r, c, ts_a).unwrap();
        let b = a.transpose().transpose().map_values(|v| v * 0.5 + 1.0);
        let lc = Csr::linear_combination(&[(w1, &a), (w2, &b)]).unwrap();
        let (da, db) = (to_dense(&a), to_dense(&b));
        for i in 0..r {
            for j in 0..c {
                let expect = w1 * da.get(i, j) + w2 * db.get(i, j);
                let got = lc.get(i, j).unwrap_or(0.0);
                prop_assert!((got - expect).abs() < 1e-9);
            }
        }
    }

    /// l1_difference is a metric: zero on self, symmetric.
    #[test]
    fn l1_difference_metric((r, c, ts) in matrix_input()) {
        let a = Csr::from_triplets(r, c, ts).unwrap();
        let b = a.map_values(|v| v + 1.0);
        prop_assert_eq!(a.l1_difference(&a).unwrap(), 0.0);
        let d_ab = a.l1_difference(&b).unwrap();
        let d_ba = b.l1_difference(&a).unwrap();
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!((d_ab - a.nnz() as f64).abs() < 1e-9);
    }
}
