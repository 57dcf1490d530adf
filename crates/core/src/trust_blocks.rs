//! Row-blocks of the derived-trust matrix (Eq. 5), for callers that want
//! the values themselves.
//!
//! ```text
//! T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic                        (5)
//! ```
//!
//! The full pairwise view `T̂` is *dense by design* — Fig. 3's point is that
//! derived trust connects almost every pair — so materializing it at the
//! paper's 44k users needs `44_197² × 8 B ≈ 15.6 GB`. [`TrustBlocks`]
//! yields it a **row-block** at a time (configurable height, dense or
//! restricted to a sparse mask), computed straight from the index-dense
//! `A`/`E` matrices of [`Derived`](crate::Derived) and holding only **one
//! block at a time** — O(`block_rows × U`) transient memory instead of
//! O(`U²`).
//!
//! This is the collector, not the analysis path: the batch forms
//! [`trust::derive_dense`](crate::trust::derive_dense) and
//! [`trust::derive_masked`](crate::trust::derive_masked) are one block
//! spanning every row. A consumer that only *reduces* `T̂` (`wot-eval`'s
//! Fig. 3 aggregates and top-k) never stores a block: it visits rows
//! inside [`TrustRows`](crate::trust_rows::TrustRows)' fan-out. Dense
//! blocks and that scan fill their rows with the same kernel,
//! [`ExpertisePanel::fill`], so there is exactly one dense Eq. 5 kernel.
//!
//! ## Parallelism and determinism
//!
//! Rows of `T̂` are independent, so each block fans its rows across
//! `wot-par` worker threads — split by stored-entry count in masked mode
//! (mask rows are heavily skewed), by row count in dense mode. Every
//! worker writes a disjoint slice of the one block buffer from read-only
//! inputs, and each cell's arithmetic (`dot(A_i, E_j) / Σ_c A_ic`) does
//! not depend on the partition, so block contents are **bit-identical**
//! for any block height and any thread count — the workspace's
//! `block_streaming` suite asserts this with `==` on `f64` against the
//! batch collectors.

use wot_sparse::{Csr, Dense};

use crate::trust_rows::ExpertisePanel;
use crate::{CoreError, Result};

/// Below this many output cells a block's row loop stays on the calling
/// thread (mirrors the batch kernels' auto-mode cutoff).
pub(crate) const PAR_CELLS_THRESHOLD: usize = 1 << 16;

/// Default transient-buffer target for auto block sizing (32 MiB — small
/// enough that a handful of concurrent scans fit in any laptop's memory,
/// large enough to amortize per-block scheduling).
pub const DEFAULT_BLOCK_BYTES: usize = 32 << 20;

/// Tunables of a [`TrustBlocks`] scan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockConfig {
    /// Rows of `T̂` per yielded block — or per chunk a worker of the
    /// fused row scan claims; `0` (the default) = auto-size so one
    /// block's value buffer is ≈ [`DEFAULT_BLOCK_BYTES`].
    pub block_rows: usize,
    /// Worker threads (`0`, the default, = auto: small jobs stay on the
    /// calling thread, large ones use all hardware threads; explicit
    /// counts are honoured as given, `1` = fully sequential).
    pub threads: usize,
}

impl BlockConfig {
    /// A fully sequential scan (one thread, auto block height).
    pub fn sequential() -> Self {
        Self {
            block_rows: 0,
            threads: 1,
        }
    }
}

/// Streaming iterator over row-blocks of the derived-trust matrix `T̂`
/// (Eq. 5). See the [module docs](self) for the memory model.
///
/// Construct with [`TrustBlocks::dense`] (every `U×U` cell) or
/// [`TrustBlocks::masked`] (only the stored coordinates of a sparse
/// candidate pattern, e.g. the paper's direct-connection matrix `R`).
/// Iteration yields [`TrustBlock`]s in ascending row order; each block's
/// buffer is freed as soon as the consumer drops it.
#[derive(Debug)]
pub struct TrustBlocks<'a> {
    affiliation: &'a Dense,
    mode: Mode<'a>,
    block_rows: usize,
    threads: usize,
    next_row: usize,
}

#[derive(Debug)]
enum Mode<'a> {
    Dense {
        panel: ExpertisePanel,
    },
    Masked {
        expertise: &'a Dense,
        /// Pattern borrowed from the caller's mask.
        mask: &'a Csr,
        /// `1 / Σ_c A_ic` per row (`0.0` for inactive rows), the exact
        /// factor the batch collector applies via `scale_rows`.
        inv_mass: Vec<f64>,
    },
}

impl<'a> TrustBlocks<'a> {
    /// Blocked scan of the **full** `T̂` — every cell of every row, Eq. 5's
    /// `T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic` with rows of zeros for users with
    /// no affiliation mass.
    pub fn dense(affiliation: &'a Dense, expertise: &Dense, cfg: &BlockConfig) -> Result<Self> {
        validate_shapes(affiliation, expertise)?;
        let u = affiliation.nrows();
        Ok(Self {
            affiliation,
            mode: Mode::Dense {
                panel: ExpertisePanel::new(expertise),
            },
            block_rows: resolve_block_rows(cfg.block_rows, u, u),
            threads: cfg.threads,
            next_row: 0,
        })
    }

    /// Blocked scan of `T̂` restricted to the stored coordinates of
    /// `mask` (values of `mask` are ignored; its pattern defines the
    /// candidate set — explicit zeros are kept, like
    /// [`trust::derive_masked`](crate::trust::derive_masked)).
    pub fn masked(
        affiliation: &'a Dense,
        expertise: &'a Dense,
        mask: &'a Csr,
        cfg: &BlockConfig,
    ) -> Result<Self> {
        validate_shapes(affiliation, expertise)?;
        let u = affiliation.nrows();
        if mask.shape() != (u, u) {
            return Err(CoreError::Shape(format!(
                "trust mask must be {u}×{u}, got {:?}",
                mask.shape()
            )));
        }
        let inv_mass: Vec<f64> = affiliation
            .row_sums()
            .iter()
            .map(|&m| if m > 0.0 { 1.0 / m } else { 0.0 })
            .collect();
        // Auto height targets the *average* stored entries per row, so a
        // sparse mask gets proportionally taller blocks than a dense scan.
        let avg_row_nnz = mask.nnz() / u.max(1);
        let block_rows = resolve_block_rows(cfg.block_rows, avg_row_nnz, u);
        Ok(Self {
            affiliation,
            mode: Mode::Masked {
                expertise,
                mask,
                inv_mass,
            },
            block_rows,
            threads: cfg.threads,
            next_row: 0,
        })
    }

    /// Number of users `U` — `T̂` is `U×U`.
    pub fn num_users(&self) -> usize {
        self.affiliation.nrows()
    }

    /// Resolved rows per block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Total blocks a full iteration yields.
    pub fn num_blocks(&self) -> usize {
        self.num_users().div_ceil(self.block_rows)
    }

    /// Largest transient value-buffer any block of this scan allocates,
    /// in bytes — the O(block) memory bound the streaming analyses rely
    /// on (plus the consumer's own reducer state).
    pub fn max_block_bytes(&self) -> usize {
        let rows_per_block = match &self.mode {
            Mode::Dense { .. } => self.block_rows * self.num_users(),
            Mode::Masked { mask, .. } => {
                let row_ptr = mask.row_ptr();
                let u = self.num_users();
                (0..u)
                    .step_by(self.block_rows.max(1))
                    .map(|start| {
                        let end = (start + self.block_rows).min(u);
                        row_ptr[end] - row_ptr[start]
                    })
                    .max()
                    .unwrap_or(0)
            }
        };
        rows_per_block * std::mem::size_of::<f64>()
    }

    /// Computes the dense value buffer for rows `rows`.
    fn fill_dense(&self, panel: &ExpertisePanel, rows: std::ops::Range<usize>) -> Vec<f64> {
        let u = self.num_users();
        let len = rows.len();
        let mut values = vec![0.0f64; len * u];
        let fill = |sub: std::ops::Range<usize>, chunk: &mut [f64]| {
            let mut buf = panel.row_buffer();
            for (i, out_row) in sub.zip(chunk.chunks_exact_mut(u.max(1))) {
                if let Some(vals) = panel.fill(self.affiliation.row(i), &mut buf) {
                    for (&j, &v) in panel.writers().iter().zip(vals) {
                        out_row[j as usize] = v;
                    }
                }
            }
        };
        let threads = auto_threads(self.threads, len * u);
        if threads <= 1 {
            fill(rows, &mut values);
        } else {
            let local = wot_par::even_ranges(len, threads);
            let bounds: Vec<usize> = std::iter::once(0)
                .chain(local.iter().map(|r| r.end * u))
                .collect();
            wot_par::par_chunks_mut(&mut values, &bounds, |k, chunk| {
                fill(
                    rows.start + local[k].start..rows.start + local[k].end,
                    chunk,
                );
            });
        }
        values
    }

    /// Computes the masked value buffer for rows `rows` of `mask`.
    fn fill_masked(
        &self,
        expertise: &Dense,
        mask: &Csr,
        inv_mass: &[f64],
        rows: std::ops::Range<usize>,
    ) -> Vec<f64> {
        let row_ptr = mask.row_ptr();
        let base = row_ptr[rows.start];
        let nnz = row_ptr[rows.end] - base;
        let mut values = vec![0.0f64; nnz];
        let fill = |sub: std::ops::Range<usize>, chunk: &mut [f64]| {
            wot_sparse::masked_row_dot_block(self.affiliation, expertise, mask, sub.clone(), chunk)
                .expect("shapes validated at construction");
            // Same per-entry factor (and the same `numerator × inv` op)
            // as the batch collector's `scale_rows`.
            let sub_base = row_ptr[sub.start];
            for i in sub {
                let inv = inv_mass[i];
                for k in row_ptr[i]..row_ptr[i + 1] {
                    chunk[k - sub_base] *= inv;
                }
            }
        };
        let threads = auto_threads(self.threads, nnz);
        if threads <= 1 {
            fill(rows, &mut values);
        } else {
            // nnz-balanced split: mask rows are heavily skewed.
            let local_cum: Vec<usize> = row_ptr[rows.start..=rows.end]
                .iter()
                .map(|&p| p - base)
                .collect();
            let local_rows = wot_par::weighted_boundaries(&local_cum, threads);
            let elem_bounds: Vec<usize> = local_rows.iter().map(|&r| local_cum[r]).collect();
            wot_par::par_chunks_mut(&mut values, &elem_bounds, |k, chunk| {
                fill(
                    rows.start + local_rows[k]..rows.start + local_rows[k + 1],
                    chunk,
                );
            });
        }
        values
    }
}

impl<'a> Iterator for TrustBlocks<'a> {
    type Item = TrustBlock<'a>;

    fn next(&mut self) -> Option<TrustBlock<'a>> {
        let u = self.num_users();
        if self.next_row >= u {
            return None;
        }
        let rows = self.next_row..(self.next_row + self.block_rows).min(u);
        self.next_row = rows.end;
        let kind = match &self.mode {
            Mode::Dense { panel } => BlockKind::Dense {
                values: self.fill_dense(panel, rows.clone()),
            },
            Mode::Masked {
                expertise,
                mask,
                inv_mass,
            } => {
                let row_ptr = mask.row_ptr();
                let base = row_ptr[rows.start];
                let end = row_ptr[rows.end];
                BlockKind::Masked {
                    row_ptr: &row_ptr[rows.start..=rows.end],
                    col_idx: &mask.col_indices()[base..end],
                    values: self.fill_masked(expertise, mask, inv_mass, rows.clone()),
                }
            }
        };
        Some(TrustBlock {
            rows,
            ncols: u,
            kind,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.num_users() - self.next_row).div_ceil(self.block_rows);
        (left, Some(left))
    }
}

/// One row-block of `T̂`, yielded by [`TrustBlocks`]: the Eq. 5 values of
/// rows `rows()`, either every cell (dense mode) or the mask's stored
/// coordinates (masked mode, pattern borrowed from the caller's mask).
#[derive(Debug, Clone, PartialEq)]
pub struct TrustBlock<'a> {
    rows: std::ops::Range<usize>,
    ncols: usize,
    kind: BlockKind<'a>,
}

#[derive(Debug, Clone, PartialEq)]
enum BlockKind<'a> {
    /// Row-major `rows.len() × ncols` buffer.
    Dense { values: Vec<f64> },
    /// CSR slice: `row_ptr` spans `rows.len() + 1` *global* offsets
    /// (borrowed from the mask), `col_idx`/`values` hold the block's
    /// stored entries.
    Masked {
        row_ptr: &'a [usize],
        col_idx: &'a [u32],
        values: Vec<f64>,
    },
}

impl TrustBlock<'_> {
    /// Global row range of `T̂` this block covers.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.rows.clone()
    }

    /// Number of columns of `T̂` (= users).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `true` when the block carries only a mask's stored coordinates.
    pub fn is_masked(&self) -> bool {
        matches!(self.kind, BlockKind::Masked { .. })
    }

    /// Stored values of the block, in row-major / CSR order — exactly the
    /// slice the batch collectors would place at this block's offset.
    pub fn values(&self) -> &[f64] {
        match &self.kind {
            BlockKind::Dense { values } => values,
            BlockKind::Masked { values, .. } => values,
        }
    }

    /// Full row `i` (global index) of a **dense** block; `None` for rows
    /// outside the block or in masked mode.
    pub fn dense_row(&self, i: usize) -> Option<&[f64]> {
        if !self.rows.contains(&i) {
            return None;
        }
        match &self.kind {
            BlockKind::Dense { values } => {
                let local = i - self.rows.start;
                Some(&values[local * self.ncols..(local + 1) * self.ncols])
            }
            BlockKind::Masked { .. } => None,
        }
    }

    /// Stored `(columns, values)` of row `i` (global index) of a
    /// **masked** block; `None` for rows outside the block or in dense
    /// mode.
    pub fn masked_row(&self, i: usize) -> Option<(&[u32], &[f64])> {
        if !self.rows.contains(&i) {
            return None;
        }
        match &self.kind {
            BlockKind::Dense { .. } => None,
            BlockKind::Masked {
                row_ptr,
                col_idx,
                values,
            } => {
                let local = i - self.rows.start;
                let base = row_ptr[0];
                let (lo, hi) = (row_ptr[local] - base, row_ptr[local + 1] - base);
                Some((&col_idx[lo..hi], &values[lo..hi]))
            }
        }
    }

    /// Stored entries in the block (dense: every cell).
    pub fn stored(&self) -> usize {
        self.values().len()
    }

    /// Consumes the block, returning its owned value buffer (row-major /
    /// CSR order) — lets single-block collectors avoid a copy.
    pub fn into_values(self) -> Vec<f64> {
        match self.kind {
            BlockKind::Dense { values } => values,
            BlockKind::Masked { values, .. } => values,
        }
    }

    /// Iterates the block's stored entries as global `(i, j, T̂_ij)`
    /// triples, in row-major order (no per-row allocation).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows.clone().flat_map(move |i| {
            // In dense mode the column index is the position itself; in
            // masked mode it comes from the block's stored columns.
            let (cols, vals): (Option<&[u32]>, &[f64]) = match &self.kind {
                BlockKind::Dense { .. } => (None, self.dense_row(i).expect("row in block")),
                BlockKind::Masked { .. } => {
                    let (c, v) = self.masked_row(i).expect("row in block");
                    (Some(c), v)
                }
            };
            vals.iter().enumerate().map(move |(k, &v)| {
                let j = cols.map_or(k, |c| c[k] as usize);
                (i, j, v)
            })
        })
    }
}

pub(crate) fn validate_shapes(affiliation: &Dense, expertise: &Dense) -> Result<()> {
    if affiliation.shape() != expertise.shape() {
        return Err(CoreError::Shape(format!(
            "affiliation {:?} vs expertise {:?}",
            affiliation.shape(),
            expertise.shape()
        )));
    }
    Ok(())
}

/// Worker threads for a job of `cells` output slots: explicit counts are
/// authoritative, auto mode (`0`) keeps small jobs sequential.
pub(crate) fn auto_threads(requested: usize, cells: usize) -> usize {
    match requested {
        0 if cells < PAR_CELLS_THRESHOLD => 1,
        0 => wot_par::max_threads(),
        n => n,
    }
}

/// Rows per block: the request, or in auto mode (`0`) as many as fit
/// [`DEFAULT_BLOCK_BYTES`] at `row_width` stored entries per row on
/// average — never more than the `users` rows there are, never zero.
pub(crate) fn resolve_block_rows(requested: usize, row_width: usize, users: usize) -> usize {
    let rows = if requested > 0 {
        requested
    } else {
        DEFAULT_BLOCK_BYTES / (std::mem::size_of::<f64>() * row_width.max(1))
    };
    rows.clamp(1, users.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust;

    /// Deterministic pseudo-random `A`/`E` big enough for several blocks.
    fn instance(u: usize, c: usize) -> (Dense, Dense) {
        let mut state = 0xD1CE_5EEDu64;
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
    fn dense_blocks_concatenate_to_derive_dense() {
        let (a, e) = instance(157, 5);
        let full = trust::derive_dense(&a, &e, 0).unwrap();
        for block_rows in [1usize, 7, 64, 500] {
            for threads in [1usize, 3, 0] {
                let cfg = BlockConfig {
                    block_rows,
                    threads,
                };
                let mut seen_rows = 0;
                let mut flat: Vec<f64> = Vec::new();
                for b in TrustBlocks::dense(&a, &e, &cfg).unwrap() {
                    assert_eq!(b.rows().start, seen_rows);
                    assert!(!b.is_masked());
                    seen_rows = b.rows().end;
                    flat.extend_from_slice(b.values());
                }
                assert_eq!(seen_rows, 157);
                assert_eq!(
                    flat,
                    full.as_slice(),
                    "block_rows={block_rows} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn masked_blocks_concatenate_to_derive_masked() {
        let (a, e) = instance(120, 4);
        let mut triplets = Vec::new();
        for i in 0..120usize {
            for j in 0..120usize {
                if (i * 13 + j * 7) % 5 == 0 {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let mask = Csr::from_triplets(120, 120, triplets).unwrap();
        let full = trust::derive_masked(&a, &e, &mask, 0).unwrap();
        for block_rows in [1usize, 11, 64, 0] {
            for threads in [1usize, 4, 0] {
                let cfg = BlockConfig {
                    block_rows,
                    threads,
                };
                let mut flat: Vec<f64> = Vec::new();
                for b in TrustBlocks::masked(&a, &e, &mask, &cfg).unwrap() {
                    assert!(b.is_masked());
                    flat.extend_from_slice(b.values());
                }
                assert_eq!(
                    flat,
                    full.values(),
                    "block_rows={block_rows} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn block_row_accessors_agree_with_pairwise() {
        let (a, e) = instance(40, 3);
        let cfg = BlockConfig {
            block_rows: 7,
            threads: 1,
        };
        for b in TrustBlocks::dense(&a, &e, &cfg).unwrap() {
            for i in b.rows() {
                let row = b.dense_row(i).unwrap();
                assert!(b.masked_row(i).is_none());
                for (j, &v) in row.iter().enumerate() {
                    assert_eq!(v, trust::pairwise(&a, &e, i, j), "({i},{j})");
                }
            }
            assert!(b.dense_row(b.rows().end).is_none());
        }
    }

    #[test]
    fn masked_row_accessor_and_iter() {
        let (a, e) = instance(30, 3);
        let mask = Csr::from_triplets(
            30,
            30,
            (0..30usize).flat_map(|i| [(i, (i * 3) % 30, 1.0), (i, (i * 7 + 1) % 30, 1.0)]),
        )
        .unwrap();
        let cfg = BlockConfig {
            block_rows: 4,
            threads: 1,
        };
        let mut total = 0usize;
        for b in TrustBlocks::masked(&a, &e, &mask, &cfg).unwrap() {
            for (i, j, v) in b.iter() {
                // The masked kernel multiplies by a precomputed 1/mass
                // (like `derive_masked`), so agreement with `pairwise`'s
                // division is approximate; bit-exactness vs the batch
                // collector is asserted separately.
                assert!(
                    (v - trust::pairwise(&a, &e, i, j)).abs() < 1e-12,
                    "({i},{j})"
                );
                total += 1;
            }
            for i in b.rows() {
                assert!(b.dense_row(i).is_none());
                let (cols, vals) = b.masked_row(i).unwrap();
                assert_eq!(cols.len(), vals.len());
            }
        }
        assert_eq!(total, mask.nnz());
    }

    #[test]
    fn block_count_and_memory_bound() {
        let (a, e) = instance(100, 4);
        let cfg = BlockConfig {
            block_rows: 32,
            threads: 1,
        };
        let it = TrustBlocks::dense(&a, &e, &cfg).unwrap();
        assert_eq!(it.num_blocks(), 4);
        assert_eq!(it.max_block_bytes(), 32 * 100 * 8);
        assert_eq!(it.size_hint(), (4, Some(4)));
        assert_eq!(it.count(), 4);
        // Auto sizing never exceeds the default target.
        let it = TrustBlocks::dense(&a, &e, &BlockConfig::default()).unwrap();
        assert!(it.max_block_bytes() <= DEFAULT_BLOCK_BYTES.max(100 * 8));
    }

    #[test]
    fn shape_validation() {
        let a = Dense::zeros(3, 2);
        let e = Dense::zeros(4, 2);
        assert!(TrustBlocks::dense(&a, &e, &BlockConfig::default()).is_err());
        let e = Dense::zeros(3, 2);
        let bad_mask = Csr::empty(3, 4);
        assert!(TrustBlocks::masked(&a, &e, &bad_mask, &BlockConfig::default()).is_err());
        let mask = Csr::empty(3, 3);
        assert!(TrustBlocks::masked(&a, &e, &mask, &BlockConfig::default()).is_ok());
    }
}
