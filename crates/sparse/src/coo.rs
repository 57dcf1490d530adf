use crate::{Result, SparseError};

/// Coordinate-format (triplet) sparse matrix.
///
/// `Coo` is the assembly format: pushing an entry is O(1) and duplicate
/// coordinates are permitted (they are summed when converting to [`Csr`]).
/// It is the interchange point between generators, stores and the
/// compressed format.
///
/// [`Csr`]: crate::Csr
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl Coo {
    /// Creates an empty matrix with the given shape.
    ///
    /// # Panics
    /// Panics if either dimension exceeds `u32::MAX`; use [`Coo::try_new`]
    /// to handle that case gracefully.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self::try_new(nrows, ncols).expect("matrix dimension exceeds u32 index space")
    }

    /// Creates an empty matrix, failing if a dimension exceeds the `u32`
    /// index space.
    pub fn try_new(nrows: usize, ncols: usize) -> Result<Self> {
        if nrows > u32::MAX as usize {
            return Err(SparseError::DimensionTooLarge(nrows));
        }
        if ncols > u32::MAX as usize {
            return Err(SparseError::DimensionTooLarge(ncols));
        }
        Ok(Self {
            nrows,
            ncols,
            entries: Vec::new(),
        })
    }

    /// Creates a matrix from a triplet list, validating every coordinate.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let mut coo = Self::try_new(nrows, ncols)?;
        for (r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(coo)
    }

    /// Appends one entry. Duplicates are allowed and summed on conversion.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.entries.push((row as u32, col as u32, value));
        Ok(())
    }

    /// Reserves capacity for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
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

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over stored triplets in insertion order (duplicates intact).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .map(|&(r, c, v)| (r as usize, c as usize, v))
    }

    /// Internal: sorted, duplicate-summed triplets (row-major order).
    ///
    /// Entries whose sum collapses to exactly `0.0` are *kept*; explicit
    /// zeros are meaningful to pattern operations and are only dropped by
    /// [`Csr::prune`](crate::Csr::prune).
    pub(crate) fn sorted_dedup(&self) -> Vec<(u32, u32, f64)> {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut out: Vec<(u32, u32, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        out
    }

    /// Transposed copy (rows and columns swapped).
    pub fn transpose(&self) -> Coo {
        Coo {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_empty() {
        let coo = Coo::new(3, 4);
        assert_eq!(coo.shape(), (3, 4));
        assert!(coo.is_empty());
    }

    #[test]
    fn push_validates_bounds() {
        let mut coo = Coo::new(2, 2);
        assert!(coo.push(0, 0, 1.0).is_ok());
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            coo.push(0, 2, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn duplicates_summed_in_sorted_dedup() {
        let coo = Coo::from_triplets(2, 2, [(0, 1, 1.0), (0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let entries = coo.sorted_dedup();
        assert_eq!(entries, vec![(0, 1, 3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn sorted_dedup_orders_row_major() {
        let coo =
            Coo::from_triplets(3, 3, [(2, 0, 1.0), (0, 2, 1.0), (0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let entries = coo.sorted_dedup();
        let coords: Vec<(u32, u32)> = entries.iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let coo = Coo::from_triplets(2, 3, [(0, 2, 5.0), (1, 0, 7.0)]).unwrap();
        let t = coo.transpose();
        assert_eq!(t.shape(), (3, 2));
        let triplets: Vec<_> = t.iter().collect();
        assert_eq!(triplets, vec![(2, 0, 5.0), (0, 1, 7.0)]);
    }

    #[test]
    fn zero_sum_duplicates_are_kept() {
        let coo = Coo::from_triplets(1, 1, [(0, 0, 1.0), (0, 0, -1.0)]).unwrap();
        let entries = coo.sorted_dedup();
        assert_eq!(entries, vec![(0, 0, 0.0)]);
    }

    #[test]
    fn try_new_rejects_huge_dims() {
        assert!(Coo::try_new(u32::MAX as usize + 1, 1).is_err());
        assert!(Coo::try_new(1, u32::MAX as usize + 1).is_err());
    }
}
