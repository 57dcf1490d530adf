use std::sync::Arc;

use crate::{Csr, Result, SparseError};

/// Row-major dense matrix with copy-on-write storage.
///
/// Sized for the tall-skinny user×category blocks of the pipeline (the
/// expertise matrix `E` and affiliation matrix `A` are ~40k×12 in the
/// paper's dataset — a few megabytes). Not intended for user×user data;
/// that's what [`Csr`] is for. The default value is the empty 0×0 matrix.
///
/// The values sit behind an `Arc`, so `clone` is a pointer copy and the
/// clones share one buffer. Every mutator ([`set`](Self::set),
/// [`row_mut`](Self::row_mut), [`as_mut_slice`](Self::as_mut_slice))
/// goes through [`Arc::make_mut`]: a matrix that shares its buffer copies
/// it before its first write, and an unshared one is written in place. A
/// clone therefore never sees another clone's writes — which is what lets
/// a publisher hand out a clone of the matrices it keeps patching. Each
/// mutator call costs two atomic operations, so hot loops take
/// `as_mut_slice` once rather than calling `set` per cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dense {
    nrows: usize,
    ncols: usize,
    data: Arc<Vec<f64>>,
}

impl Dense {
    /// All-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: Arc::new(vec![0.0; nrows * ncols]),
        }
    }

    /// Builds from a row-major data vector, adopting its buffer (no copy).
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::VectorLengthMismatch {
                expected: nrows * ncols,
                actual: data.len(),
            });
        }
        Ok(Self {
            nrows,
            ncols,
            data: Arc::new(data),
        })
    }

    /// Builds from nested row slices (mostly for tests and fixtures).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(SparseError::VectorLengthMismatch {
                    expected: ncols,
                    actual: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Self::from_vec(nrows, ncols, data)
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

    /// Value at `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "dense index out of bounds"
        );
        self.data[i * self.ncols + j]
    }

    /// Sets the value at `(i, j)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "dense index out of bounds"
        );
        let ncols = self.ncols;
        Arc::make_mut(&mut self.data)[i * ncols + j] = value;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutable row `i` (copies a shared buffer first; see [`Dense`]).
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let ncols = self.ncols;
        &mut Arc::make_mut(&mut self.data)[i * ncols..(i + 1) * ncols]
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major data (for bulk fills; row `i` occupies
    /// `i * ncols..(i + 1) * ncols`). Copies a shared buffer first (see
    /// [`Dense`]); take it once per loop, not once per cell.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Per-column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.ncols];
        for i in 0..self.nrows {
            for (j, v) in self.row(i).iter().enumerate() {
                s[j] += v;
            }
        }
        s
    }

    /// Dense × dense product (small matrices only — O(n·m·k)).
    pub fn matmul(&self, other: &Dense) -> Result<Dense> {
        if self.ncols != other.nrows {
            return Err(SparseError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "dense matmul",
            });
        }
        let mut out = vec![0.0; self.nrows * other.ncols];
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.ncols {
                    out[i * other.ncols + j] += a * other.get(k, j);
                }
            }
        }
        Dense::from_vec(self.nrows, other.ncols, out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Dense {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out[j * self.nrows + i] = self.get(i, j);
            }
        }
        Dense::from_vec(self.ncols, self.nrows, out).expect("transposed shape holds every value")
    }

    /// Converts to CSR, storing every non-zero element.
    pub fn to_csr(&self) -> Csr {
        let mut coo = crate::Coo::new(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, &v) in self.row(i).iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v).expect("dense shape matches coo shape");
                }
            }
        }
        Csr::from_coo(&coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_get() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Dense::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Dense::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Dense::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn sums() {
        let m = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let row_sums: Vec<f64> = (0..2).map(|i| m.row(i).iter().sum()).collect();
        assert_eq!(row_sums, vec![3.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn matmul_reference() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        let b = Dense::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Dense::from_rows(&[&[2.0, 1.0], &[1.0, 0.0]]).unwrap());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Dense::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    fn bits(m: &Dense) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A clone shares the buffer until one side writes; every mutator
    /// copies first, so the other side keeps its bits.
    #[test]
    fn clones_never_see_each_others_writes() {
        let original = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let before = bits(&original);
        type Mutate = fn(&mut Dense);
        let mutators: [(&str, Mutate); 3] = [
            ("set", |m| m.set(1, 0, -1.0)),
            ("row_mut", |m| m.row_mut(0).fill(f64::NAN)),
            ("as_mut_slice", |m| m.as_mut_slice()[3] = 0.5),
        ];
        for (what, mutate) in mutators {
            let mut copy = original.clone();
            assert_eq!(
                copy.as_slice().as_ptr(),
                original.as_slice().as_ptr(),
                "{what}: clone copied"
            );
            mutate(&mut copy);
            assert_ne!(bits(&copy), before, "{what}: write lost");
            assert_eq!(bits(&original), before, "{what}: original changed");
            assert_ne!(copy.as_slice().as_ptr(), original.as_slice().as_ptr());
        }
    }

    /// An unshared matrix is written in place, through every mutator.
    #[test]
    fn unshared_writes_keep_the_buffer() {
        let mut m = Dense::zeros(3, 2);
        let at = m.as_slice().as_ptr();
        m.set(2, 1, 1.0);
        m.row_mut(0).fill(2.0);
        m.as_mut_slice()[1] = 3.0;
        assert_eq!(m.as_slice().as_ptr(), at);
        assert_eq!(m.as_slice(), &[2.0, 3.0, 0.0, 0.0, 0.0, 1.0]);
        // A clone that has been dropped no longer forces a copy.
        drop(m.clone());
        m.set(0, 0, 4.0);
        assert_eq!(m.as_slice().as_ptr(), at);
    }

    #[test]
    fn from_vec_adopts_the_buffer() {
        let data = vec![1.0; 6];
        let at = data.as_ptr();
        let m = Dense::from_vec(2, 3, data).unwrap();
        assert_eq!(m.as_slice().as_ptr(), at);
    }

    #[test]
    fn to_csr_skips_zeros() {
        let m = Dense::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]).unwrap();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), Some(2.0));
    }
}
