//! The Eq. 5 row kernel, and the fused scan of the full `T̂` built on it.
//!
//! ```text
//! T̂_ij = Σ_c A_ic·E_jc / Σ_c A_ic                        (5)
//! ```
//!
//! Every multi-cell evaluation of the dense `T̂` goes through
//! [`ExpertisePanel::fill`]: one row of `T̂` from `A_i` and a
//! category-major copy of `E`, built once per scan and restricted to
//! **writer** columns. A user whose `E` row is all zero has an exactly
//! zero column of `T̂` for every `i` (finite `A`), so those columns are
//! never computed — 11 % of the paper preset's. The denominator is
//! computed once per row and the inner loop runs across `j`, so the
//! compiler vectorises it.
//!
//! Each cell keeps the summation tree of [`wot_sparse::dot`] —
//! `(s0 + s1) + (s2 + s3)` over 4-strided categories, then the tail, then
//! a division by the denominator (not a multiplication by its
//! reciprocal) — so every value is bit-identical to
//! [`trust::pairwise`](crate::trust::pairwise).
//!
//! [`TrustRows`] is the scan: row chunks fan out over `wot-par` workers,
//! each worker owns one reusable row buffer, and a caller-supplied
//! visitor reduces every row where it was computed. No block of `T̂` is
//! ever materialised; [`TrustBlocks`](crate::TrustBlocks) is the
//! collector for callers that want the values themselves.
//!
//! ## Determinism
//!
//! A row never splits across workers, every chunk folds its rows in
//! ascending order into its own state, and the states come back in
//! ascending chunk order. A reducer that keeps per-row results per row
//! and combines them in that order (as `wot-eval`'s do, including their
//! `f64` sums) is bit-identical for any chunk height and thread count.

use std::ops::Range;

use wot_sparse::Dense;

use crate::trust_blocks::{auto_threads, resolve_block_rows, validate_shapes, BlockConfig};
use crate::Result;

/// Columns per kernel tile: 4 accumulators × 4 columns fill the eight
/// SSE2 registers a baseline x86-64 build has to spare.
const TILE: usize = 4;

/// `E` transposed and restricted to writer columns — the right-hand side
/// of the Eq. 5 row kernel. See the [module docs](self).
#[derive(Debug)]
pub struct ExpertisePanel {
    /// Ascending indices of the users whose `E` row has a non-zero entry.
    writers: Vec<u32>,
    /// Tiles of `TILE` writers, category-major inside a tile:
    /// `data[(t * ncat + c) * TILE + l] = E[writers[t * TILE + l]][c]`,
    /// the last tile zero-padded. The kernel reads it front to back.
    data: Vec<f64>,
    ncat: usize,
}

impl ExpertisePanel {
    /// Transposes the writer rows of `expertise`.
    pub fn new(expertise: &Dense) -> Self {
        let ncat = expertise.ncols();
        let writers: Vec<u32> = (0..expertise.nrows())
            .filter(|&j| expertise.row(j).iter().any(|&v| v != 0.0))
            .map(|j| j as u32)
            .collect();
        let mut data = vec![0.0f64; writers.len().next_multiple_of(TILE) * ncat];
        for (w, &j) in writers.iter().enumerate() {
            let (t, l) = (w / TILE, w % TILE);
            for (c, &v) in expertise.row(j as usize).iter().enumerate() {
                data[(t * ncat + c) * TILE + l] = v;
            }
        }
        Self {
            writers,
            data,
            ncat,
        }
    }

    /// The columns of `T̂` the panel computes, ascending; every other
    /// column is exactly `0.0` in every row.
    pub fn writers(&self) -> &[u32] {
        &self.writers
    }

    /// `writers().len()` rounded up to whole tiles.
    fn padded_len(&self) -> usize {
        self.writers.len().next_multiple_of(TILE)
    }

    /// A zeroed buffer of the length [`fill`](Self::fill) expects.
    pub fn row_buffer(&self) -> Vec<f64> {
        vec![0.0; self.padded_len()]
    }

    /// Heap bytes of the panel.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.data[..]) + std::mem::size_of_val(&self.writers[..])
    }

    /// One row of `T̂`: writes `T̂_ij` for `j = writers()[w]` to `buf[w]`
    /// and returns those cells, or `None` — leaving `buf` as it was — for
    /// a user with no affiliation mass, whose whole row is zero.
    pub fn fill<'b>(&self, a_row: &[f64], buf: &'b mut [f64]) -> Option<&'b [f64]> {
        assert_eq!(a_row.len(), self.ncat, "affiliation row width");
        assert_eq!(
            buf.len() * self.ncat,
            self.data.len(),
            "row buffer from row_buffer()"
        );
        let den: f64 = a_row.iter().sum();
        if den <= 0.0 {
            return None;
        }
        let (a_body, a_tail) = a_row.split_at(self.ncat / 4 * 4);
        let tiles = self.data.chunks_exact(self.ncat * TILE);
        for (tile, out) in tiles.zip(buf.chunks_exact_mut(TILE)) {
            let (body, tail) = tile.split_at(a_body.len() * TILE);
            // `dot`'s four strided partial sums, TILE columns at a time.
            let mut s = [[0.0f64; TILE]; 4];
            for (a4, e4) in a_body.chunks_exact(4).zip(body.chunks_exact(4 * TILE)) {
                for ((acc, &a), e) in s.iter_mut().zip(a4).zip(e4.chunks_exact(TILE)) {
                    for (x, &e) in acc.iter_mut().zip(e) {
                        *x += a * e;
                    }
                }
            }
            for (l, x) in out.iter_mut().enumerate() {
                *x = (s[0][l] + s[1][l]) + (s[2][l] + s[3][l]);
            }
            for (&a, e) in a_tail.iter().zip(tail.chunks_exact(TILE)) {
                for (x, &e) in out.iter_mut().zip(e) {
                    *x += a * e;
                }
            }
            for x in out.iter_mut() {
                *x /= den;
            }
        }
        Some(&buf[..self.writers.len()])
    }
}

/// Row `i`'s `k` most-trusted peers among `cells` (`(j, T̂_ij)` in any
/// order): positive trust only, `j ≠ i` (self-trust is not a
/// recommendation), sorted by descending trust with ascending `j`
/// breaking ties. The one top-k reducer — the full scan and the serving
/// daemon both answer from it.
pub fn top_k_of_row(
    i: usize,
    k: usize,
    cells: impl Iterator<Item = (usize, f64)>,
) -> Vec<(usize, f64)> {
    let mut best: Vec<(usize, f64)> = Vec::new();
    if k == 0 {
        return best;
    }
    for (j, v) in cells {
        if v <= 0.0 || j == i {
            continue;
        }
        // `best` stays sorted; a candidate must beat the current worst
        // (or fill a free slot) to enter.
        if best.len() == k {
            let &(wj, wv) = best.last().expect("k ≥ 1");
            if v < wv || (v == wv && j > wj) {
                continue;
            }
            best.pop();
        }
        let pos = best.partition_point(|&(bj, bv)| bv > v || (bv == v && bj < j));
        best.insert(pos, (j, v));
    }
    best
}

/// The fused scan of the full `T̂`: every row computed once, handed to a
/// visitor on the worker that computed it, never stored. See the
/// [module docs](self).
#[derive(Debug)]
pub struct TrustRows<'a> {
    affiliation: &'a Dense,
    panel: ExpertisePanel,
    chunk_rows: usize,
    workers: usize,
}

impl<'a> TrustRows<'a> {
    /// Prepares a scan. `cfg.block_rows` is the height of one row chunk —
    /// the unit a worker claims, the block [`TrustBlocks`](crate::TrustBlocks)
    /// would have yielded — and `cfg.threads` the worker count.
    pub fn new(affiliation: &'a Dense, expertise: &Dense, cfg: &BlockConfig) -> Result<Self> {
        validate_shapes(affiliation, expertise)?;
        let u = affiliation.nrows();
        let chunk_rows = resolve_block_rows(cfg.block_rows, u, u);
        Ok(Self {
            affiliation,
            panel: ExpertisePanel::new(expertise),
            chunk_rows,
            workers: auto_threads(cfg.threads, u * u).min(u.div_ceil(chunk_rows).max(1)),
        })
    }

    /// Number of users `U` — `T̂` is `U×U`.
    pub fn num_users(&self) -> usize {
        self.affiliation.nrows()
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Chunks a scan visits.
    pub fn num_chunks(&self) -> usize {
        self.num_users().div_ceil(self.chunk_rows)
    }

    /// Transient heap bytes of one scan: the `E` panel plus one row
    /// buffer per worker (reducer state is the visitor's own).
    pub fn transient_bytes(&self) -> usize {
        self.panel.bytes() + self.workers * self.panel.padded_len() * std::mem::size_of::<f64>()
    }

    /// Scans every row. Each chunk starts from `init(rows)` and folds its
    /// rows in ascending order through `visit(state, i, cols, vals)`,
    /// where `vals[w] = T̂[i][cols[w]]` and every column not in `cols` is
    /// exactly zero (a user with no affiliation mass gets empty slices).
    /// Returns the chunk states in ascending row order.
    pub fn fold_chunks<S, I, V>(&self, init: I, visit: V) -> Vec<S>
    where
        S: Send,
        I: Fn(Range<usize>) -> S + Sync,
        V: Fn(&mut S, usize, &[u32], &[f64]) + Sync,
    {
        let u = self.num_users();
        wot_par::par_map_indexed_with(
            self.num_chunks(),
            self.workers,
            || self.panel.row_buffer(),
            |buf, chunk| {
                let rows = chunk * self.chunk_rows..((chunk + 1) * self.chunk_rows).min(u);
                let mut state = init(rows.clone());
                for i in rows {
                    match self.panel.fill(self.affiliation.row(i), buf) {
                        Some(vals) => visit(&mut state, i, self.panel.writers(), vals),
                        None => visit(&mut state, i, &[], &[]),
                    }
                }
                state
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trust;

    /// Deterministic `A`/`E` with the shapes the kernel must get right:
    /// all-zero `A` rows, all-zero `E` rows, dense and sparse rows.
    fn instance(u: usize, c: usize) -> (Dense, Dense) {
        let mut state = 0x5EED_0005u64 ^ ((u as u64) << 20) ^ c as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut a = Dense::zeros(u, c);
        let mut e = Dense::zeros(u, c);
        for i in 0..u {
            let (a_live, e_live) = (next() % 5 != 0, next() % 4 != 0);
            for k in 0..c {
                if a_live && next() % 3 != 0 {
                    a.set(i, k, (next() % 100_000) as f64 / 99_991.0);
                }
                if e_live && next() % 3 != 0 {
                    e.set(i, k, (next() % 100_000) as f64 / 99_989.0);
                }
            }
        }
        (a, e)
    }

    /// Row `i` three ways: the panel kernel scattered to full width, the
    /// single-row kernel, and `pairwise` cell by cell.
    fn assert_row_kernels_agree(a: &Dense, e: &Dense) {
        let u = a.nrows();
        let panel = ExpertisePanel::new(e);
        let mut buf = panel.row_buffer();
        for i in 0..u {
            let mut from_panel = vec![0.0f64; u];
            if let Some(vals) = panel.fill(a.row(i), &mut buf) {
                assert_eq!(vals.len(), panel.writers().len());
                for (&j, &v) in panel.writers().iter().zip(vals) {
                    from_panel[j as usize] = v;
                }
            }
            let single: Vec<f64> = match trust::row(a, e, i) {
                Some(row) => row.collect(),
                None => vec![0.0; u],
            };
            assert_eq!(single.len(), u);
            for j in 0..u {
                let want = trust::pairwise(a, e, i, j).to_bits();
                assert_eq!(from_panel[j].to_bits(), want, "panel ({i},{j})");
                assert_eq!(single[j].to_bits(), want, "single row ({i},{j})");
            }
        }
    }

    #[test]
    fn panel_single_row_and_pairwise_are_bit_identical() {
        // Tail and no-tail category counts, below and above one 4-chunk.
        for c in [1usize, 3, 4, 5, 12, 13] {
            // 37 writers-ish: not a multiple of the tile width.
            let (a, e) = instance(53, c);
            let panel = ExpertisePanel::new(&e);
            assert!(panel.writers().len() < 53, "some E rows are all zero");
            assert!((0..53).any(|i| a.row(i).iter().all(|&v| v == 0.0)));
            assert_row_kernels_agree(&a, &e);
        }
    }

    #[test]
    fn lone_writer_no_writer_and_no_category() {
        let (a, _) = instance(9, 5);
        let mut e = Dense::zeros(9, 5);
        assert!(ExpertisePanel::new(&e).writers().is_empty());
        assert_row_kernels_agree(&a, &e);
        e.set(6, 4, 0.75);
        assert_eq!(ExpertisePanel::new(&e).writers(), &[6]);
        assert_row_kernels_agree(&a, &e);
        assert_row_kernels_agree(&Dense::zeros(3, 0), &Dense::zeros(3, 0));
    }

    #[test]
    fn fold_chunks_visits_every_row_once_in_chunk_order() {
        let (a, e) = instance(41, 5);
        for (block_rows, threads) in [(1usize, 1usize), (7, 2), (0, 3), (64, 0)] {
            let cfg = BlockConfig {
                block_rows,
                threads,
            };
            let scan = TrustRows::new(&a, &e, &cfg).unwrap();
            assert!(scan.transient_bytes() >= scan.panel.bytes());
            let chunks = scan.fold_chunks(
                |rows| (rows, Vec::new()),
                |(_, seen), i, cols, vals| {
                    assert_eq!(cols.len(), vals.len());
                    seen.push((i, vals.iter().sum::<f64>().to_bits()));
                },
            );
            assert_eq!(chunks.len(), scan.num_chunks());
            let mut next = 0;
            for (rows, seen) in chunks {
                assert_eq!(rows.start, next);
                next = rows.end;
                for (i, (row, sum)) in rows.zip(seen) {
                    assert_eq!(row, i);
                    let want: f64 = (0..41)
                        .map(|j| trust::pairwise(&a, &e, i, j))
                        .filter(|&v| v != 0.0)
                        .sum();
                    assert_eq!(sum, want.to_bits(), "row {i}");
                }
            }
            assert_eq!(next, 41);
        }
    }

    #[test]
    fn top_k_orders_by_trust_then_column_and_skips_self() {
        let cells = [(0, 0.5), (1, 0.9), (2, 0.5), (3, 0.0), (4, 0.9), (5, 0.1)];
        let top = top_k_of_row(1, 3, cells.iter().copied());
        assert_eq!(top, vec![(4, 0.9), (0, 0.5), (2, 0.5)]);
        // Arrival order does not matter.
        let top_rev = top_k_of_row(1, 3, cells.iter().rev().copied());
        assert_eq!(top_rev, top);
        assert!(top_k_of_row(1, 0, cells.iter().copied()).is_empty());
        assert_eq!(top_k_of_row(9, 100, cells.iter().copied()).len(), 5);
    }
}
