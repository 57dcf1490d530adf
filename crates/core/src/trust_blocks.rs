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
//! yields it a **row-block** at a time (configurable height), computed
//! straight from the index-dense `A`/`E` matrices of
//! [`Derived`](crate::Derived) and holding only **one block at a time** —
//! O(`block_rows × U`) transient memory instead of O(`U²`).
//!
//! This is the collector, not the analysis path: the batch form
//! [`trust::derive_dense`](crate::trust::derive_dense) is one block
//! spanning every row. A consumer that only *reduces* `T̂` (`wot-eval`'s
//! Fig. 3 aggregates and top-k) never stores a block: it visits rows
//! inside [`TrustRows`](crate::trust_rows::TrustRows)' fan-out. Blocks and
//! that scan fill their rows with the same kernel,
//! [`ExpertisePanel::fill`], so there is exactly one dense Eq. 5 kernel.
//! Values on a sparse pattern (Table 4's region `R`) come from
//! [`trust::derive_masked`](crate::trust::derive_masked), not from here.
//!
//! ## Parallelism and determinism
//!
//! Rows of `T̂` are independent, so each block fans its rows across
//! `wot-par` worker threads, split by row count. Every worker writes a
//! disjoint slice of the one block buffer from read-only inputs, and each
//! cell's arithmetic (`dot(A_i, E_j) / Σ_c A_ic`) does not depend on the
//! partition, so block contents are **bit-identical** for any block
//! height and any thread count — the workspace's `block_streaming` suite
//! asserts this with `==` on `f64` against the batch collector.

use wot_sparse::Dense;

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
/// Construct with [`TrustBlocks::dense`]. Iteration yields
/// [`TrustBlock`]s in ascending row order; each block's buffer is freed
/// as soon as the consumer drops it.
#[derive(Debug)]
pub struct TrustBlocks<'a> {
    affiliation: &'a Dense,
    panel: ExpertisePanel,
    block_rows: usize,
    threads: usize,
    next_row: usize,
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
            panel: ExpertisePanel::new(expertise),
            block_rows: resolve_block_rows(cfg.block_rows, u),
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
        self.block_rows * self.num_users() * std::mem::size_of::<f64>()
    }

    /// Computes the row-major value buffer for rows `rows`.
    fn fill(&self, rows: std::ops::Range<usize>) -> Vec<f64> {
        let u = self.num_users();
        let len = rows.len();
        let mut values = vec![0.0f64; len * u];
        let fill = |sub: std::ops::Range<usize>, chunk: &mut [f64]| {
            let mut buf = self.panel.row_buffer();
            for (i, out_row) in sub.zip(chunk.chunks_exact_mut(u.max(1))) {
                if let Some(vals) = self.panel.fill(self.affiliation.row(i), &mut buf) {
                    for (&j, &v) in self.panel.writers().iter().zip(vals) {
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
}

impl Iterator for TrustBlocks<'_> {
    type Item = TrustBlock;

    fn next(&mut self) -> Option<TrustBlock> {
        let u = self.num_users();
        if self.next_row >= u {
            return None;
        }
        let rows = self.next_row..(self.next_row + self.block_rows).min(u);
        self.next_row = rows.end;
        Some(TrustBlock {
            values: self.fill(rows.clone()),
            rows,
            ncols: u,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.num_users() - self.next_row).div_ceil(self.block_rows);
        (left, Some(left))
    }
}

/// One row-block of `T̂`, yielded by [`TrustBlocks`]: every Eq. 5 value of
/// rows `rows()`, in one row-major `rows().len() × ncols()` buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustBlock {
    rows: std::ops::Range<usize>,
    ncols: usize,
    values: Vec<f64>,
}

impl TrustBlock {
    /// Global row range of `T̂` this block covers.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.rows.clone()
    }

    /// Number of columns of `T̂` (= users).
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Values of the block, row-major — exactly the slice the batch
    /// collector would place at this block's offset.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Full row `i` (global index); `None` for rows outside the block.
    pub fn dense_row(&self, i: usize) -> Option<&[f64]> {
        if !self.rows.contains(&i) {
            return None;
        }
        let local = i - self.rows.start;
        Some(&self.values[local * self.ncols..(local + 1) * self.ncols])
    }

    /// Stored entries in the block (every cell).
    pub fn stored(&self) -> usize {
        self.values.len()
    }

    /// Consumes the block, returning its owned row-major value buffer —
    /// lets single-block collectors avoid a copy.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Iterates the block's entries as global `(i, j, T̂_ij)` triples, in
    /// row-major order (no per-row allocation).
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let width = self.ncols.max(1);
        self.values
            .iter()
            .enumerate()
            .map(move |(k, &v)| (self.rows.start + k / width, k % width, v))
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

/// Rows per block of a `users`-wide `T̂`: the request, or in auto mode
/// (`0`) as many as fit [`DEFAULT_BLOCK_BYTES`] — never more than the
/// `users` rows there are, never zero.
pub(crate) fn resolve_block_rows(requested: usize, users: usize) -> usize {
    let rows = if requested > 0 {
        requested
    } else {
        DEFAULT_BLOCK_BYTES / (std::mem::size_of::<f64>() * users.max(1))
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
    fn block_row_accessors_agree_with_pairwise() {
        let (a, e) = instance(40, 3);
        let cfg = BlockConfig {
            block_rows: 7,
            threads: 1,
        };
        for b in TrustBlocks::dense(&a, &e, &cfg).unwrap() {
            for i in b.rows() {
                let row = b.dense_row(i).unwrap();
                for (j, &v) in row.iter().enumerate() {
                    assert_eq!(v, trust::pairwise(&a, &e, i, j), "({i},{j})");
                }
            }
            assert!(b.dense_row(b.rows().end).is_none());
            let mut cells = 0;
            for (i, j, v) in b.iter() {
                assert_eq!(v, trust::pairwise(&a, &e, i, j), "iter ({i},{j})");
                cells += 1;
            }
            assert_eq!(cells, b.stored());
        }
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
    }
}
