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
//! ## Two column orders
//!
//! [`ExpertisePanel::new`] keeps the writer columns in ascending user
//! order — what [`TrustRows::fold_chunks`] promises its visitors (the
//! Fig. 3 reducer folds its `f64` row sums in that order) and what dense
//! blocks scatter from. [`ExpertisePanel::ranked`] sorts them by
//! descending `b_j = max_c E_jc` instead. Eq. 5 is a convex combination
//! of `E_j`'s entries whenever `A_i ≥ 0`, so `T̂_ij ≤ b_j` for every `i`,
//! and [`TrustRows::top_k`] walks a row's tiles in that order and stops
//! at the first tile whose bound is below the row's current `k`-th best:
//! nothing further along can enter the list. Only *which* cells are
//! computed changes; every computed cell is the same arithmetic as
//! [`ExpertisePanel::fill`]'s.
//!
//! The bound has to dominate the **computed** value, which rounding can
//! lift a few ulps over `b_j`. Rounding is monotone and, for `A_i ≥ 0`,
//! so is every operation of the kernel in the entries of `E_j`; the
//! computed `T̂_ij` is therefore at most what the kernel computes for a
//! column whose every entry is `b_j`. In that column each product and
//! each of the at most `C - 1` inexact additions above it errs by a
//! factor `≤ 1 + u` (`u = 2⁻⁵³`), the denominator's `C - 1` additions by
//! `≥ 1 - u` each, the division by `≤ 1 + u`:
//!
//! ```text
//! fl(T̂_ij) ≤ b_j · (1+u)^(C+1) / (1-u)^(C-1) ≤ b_j / (1-u)^(2C) ≤ b_j · (1 + 2Cε),   ε = 2u
//! ```
//!
//! for any summation tree. The stored bound is `b_j · (1 + (2C+4)ε)` —
//! one `ε` pays for rounding that product, the rest is slack — and the
//! walk compares with a strict `<`, so a tile that could still tie the
//! `k`-th value is evaluated. The factor model needs every product to
//! stay a normal number: the bound is taken from `max(b_j, 10⁻¹⁵⁰)`
//! (`+∞` above `10¹⁵⁰`), and a row qualifies for the walk only if each
//! of its entries is `0` or inside `[10⁻¹⁵⁰, 10¹⁵⁰]` — which also rules
//! out the negative entry that would break the convexity argument. Any
//! other row is filled whole and reduced as before.
//!
//! ## Determinism
//!
//! A row never splits across workers, every chunk folds its rows in
//! ascending order into its own state, and the states come back in
//! ascending chunk order. A reducer that keeps per-row results per row
//! and combines them in that order (as the Fig. 3 reducer does, including
//! its `f64` sums) is bit-identical for any chunk height and thread count.
//!
//! ## Two reducers
//!
//! [`TrustRows::top_k`] is the all-users top-`k` above.
//! [`Derived::trust_fig3`] is the Fig. 3 reducer: support, density, value
//! sum / mean / max, per-user out-support and a value histogram of the
//! full `T̂`, folded row by row by a [`TrustRows::fold_chunks`] visitor. The
//! support cross-checks against the bitmask
//! [`support_count`](crate::trust::support_count). The visitor neither
//! stores nor branches per cell: sum and maximum go through selects, and
//! the histogram is kept as register counts of `fl(v · N) > b` for each
//! threshold `b`, differenced into bins once per scan. A per-cell bin
//! index and `histogram[bin] += 1` made the reducer cost more than the
//! kernel (`docs/ARCHITECTURE.md` § 4 has the split).

use std::ops::Range;

use wot_sparse::Dense;

use crate::trust_blocks::{auto_threads, resolve_block_rows, validate_shapes, BlockConfig};
use crate::{Derived, Result};

/// Columns per kernel tile: 4 accumulators × 4 columns fill the eight
/// SSE2 registers a baseline x86-64 build has to spare.
const TILE: usize = 4;

/// `E` transposed and restricted to writer columns — the right-hand side
/// of the Eq. 5 row kernel. See the [module docs](self).
#[derive(Debug)]
pub struct ExpertisePanel {
    /// The users whose `E` row has a non-zero entry, in column order:
    /// ascending ([`new`](Self::new)) or by descending bound
    /// ([`ranked`](Self::ranked)).
    writers: Vec<u32>,
    /// Tiles of `TILE` writers, category-major inside a tile:
    /// `data[(t * ncat + c) * TILE + l] = E[writers[t * TILE + l]][c]`,
    /// the last tile zero-padded. The kernel reads it front to back.
    data: Vec<f64>,
    ncat: usize,
    /// Ranked panels only: per tile, an upper bound on every cell any
    /// row with entries in `{0} ∪ [A_MIN, A_MAX]` computes in this tile
    /// or a later one (non-increasing). Empty for an ascending panel.
    tile_bounds: Vec<f64>,
}

/// The magnitudes between which every product of the bound's error model
/// is a normal number (see the [module docs](self)): `A_MIN²` is above
/// the smallest normal `f64`, `C · A_MAX²` below the largest.
const A_MIN: f64 = 1e-150;
const A_MAX: f64 = 1e150;

/// Indices of the users whose `E` row has a non-zero entry, ascending.
fn writer_rows(expertise: &Dense) -> impl Iterator<Item = u32> + '_ {
    (0..expertise.nrows())
        .filter(|&j| expertise.row(j).iter().any(|&v| v != 0.0))
        .map(|j| j as u32)
}

impl ExpertisePanel {
    /// Transposes the writer rows of `expertise`, columns in ascending
    /// user order.
    pub fn new(expertise: &Dense) -> Self {
        Self::with_columns(expertise, writer_rows(expertise).collect(), Vec::new())
    }

    /// Transposes the writer rows of `expertise`, columns sorted by
    /// descending `b_j = max_c E_jc` (ascending `j` on ties), and keeps
    /// one rounding-safe bound per tile — the order
    /// [`TrustRows::top_k`] prunes in. See the [module docs](self).
    pub fn ranked(expertise: &Dense) -> Self {
        let mut ranked: Vec<(f64, u32)> = writer_rows(expertise)
            .map(|j| {
                let row = expertise.row(j as usize);
                (row.iter().copied().fold(f64::NEG_INFINITY, f64::max), j)
            })
            .collect();
        ranked.sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        let margin = 1.0 + (2 * expertise.ncols() + 4) as f64 * f64::EPSILON;
        // A tile's first column has its largest `b_j`.
        let tile_bounds = ranked
            .chunks(TILE)
            .map(|tile| match tile[0].0 {
                b if b <= 0.0 => 0.0,
                b if b <= A_MAX => b.max(A_MIN) * margin,
                _ => f64::INFINITY,
            })
            .collect();
        let writers = ranked.into_iter().map(|(_, j)| j).collect();
        Self::with_columns(expertise, writers, tile_bounds)
    }

    fn with_columns(expertise: &Dense, writers: Vec<u32>, tile_bounds: Vec<f64>) -> Self {
        let ncat = expertise.ncols();
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
            tile_bounds,
        }
    }

    /// The columns of `T̂` the panel computes, in panel order; every
    /// other column is exactly `0.0` in every row.
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
        std::mem::size_of_val(&self.data[..])
            + std::mem::size_of_val(&self.writers[..])
            + std::mem::size_of_val(&self.tile_bounds[..])
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

    /// Row `i`'s [`top_k_of_row`] (`k ≥ 1`) and the number of cells
    /// computed for it, on a [`ranked`](Self::ranked) panel: tiles are
    /// visited in bound order until the next bound is below the `k`-th
    /// best held. `None` for a user with no affiliation mass. A row the
    /// bound does not cover (see the [module docs](self)) is filled whole
    /// into `buf`.
    fn top_k(
        &self,
        i: usize,
        a_row: &[f64],
        k: usize,
        buf: &mut [f64],
    ) -> Option<(Vec<(usize, f64)>, usize)> {
        assert_eq!(
            self.tile_bounds.len() * TILE,
            self.padded_len(),
            "a ranked panel"
        );
        if !a_row
            .iter()
            .all(|&a| a == 0.0 || (A_MIN..=A_MAX).contains(&a))
        {
            let vals = self.fill(a_row, buf)?;
            let cells = self.writers.iter().zip(vals);
            let cells = cells.map(|(&j, &v)| (j as usize, v));
            return Some((top_k_of_row(i, k, cells), vals.len()));
        }
        assert_eq!(a_row.len(), self.ncat, "affiliation row width");
        let den: f64 = a_row.iter().sum();
        if den <= 0.0 {
            return None;
        }
        let (a_body, a_tail) = a_row.split_at(self.ncat / 4 * 4);
        let tiles = self.data.chunks_exact(self.ncat * TILE);
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k.min(self.writers.len()));
        let mut computed = 0;
        for ((tile, cols), &bound) in tiles.zip(self.writers.chunks(TILE)).zip(&self.tile_bounds) {
            // Strict: a cell that ties the k-th value can still displace
            // it through a smaller column index.
            if best.len() == k && bound < best[k - 1].1 {
                break;
            }
            let vals = tile_cells(a_body, a_tail, tile, den);
            for (&j, v) in cols.iter().zip(vals) {
                offer(&mut best, i, k, j as usize, v);
            }
            computed += cols.len();
        }
        Some((best, computed))
    }
}

/// One tile of [`ExpertisePanel::fill`]: the same operations in the same
/// order, so the values are the same bits. A copy rather than a shared
/// body because `fill` calling this per tile slows the full-row kernel
/// by a fifth (`docs/ARCHITECTURE.md` § 4 has the A/B);
/// `panel_single_row_and_pairwise_are_bit_identical` pins both to
/// [`trust::pairwise`](crate::trust::pairwise).
#[inline]
fn tile_cells(a_body: &[f64], a_tail: &[f64], tile: &[f64], den: f64) -> [f64; TILE] {
    let (body, tail) = tile.split_at(a_body.len() * TILE);
    let mut s = [[0.0f64; TILE]; 4];
    for (a4, e4) in a_body.chunks_exact(4).zip(body.chunks_exact(4 * TILE)) {
        for ((acc, &a), e) in s.iter_mut().zip(a4).zip(e4.chunks_exact(TILE)) {
            for (x, &e) in acc.iter_mut().zip(e) {
                *x += a * e;
            }
        }
    }
    let mut out = [0.0f64; TILE];
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
    out
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
        offer(&mut best, i, k, j, v);
    }
    best
}

/// [`top_k_of_row`] of row `i` from the single-row kernel
/// ([`trust::row`](crate::trust::row)): every cell of the row, nothing
/// prepared. What the serving daemon answers with, and the oracle
/// [`TrustRows::top_k`] is held to.
pub fn top_k_single_row(
    affiliation: &Dense,
    expertise: &Dense,
    i: usize,
    k: usize,
) -> Vec<(usize, f64)> {
    crate::trust::row(affiliation, expertise, i)
        .map_or_else(Vec::new, |row| top_k_of_row(i, k, row.enumerate()))
}

/// Offers cell `(j, v)` of row `i` to `best`, the sorted list of at most
/// `k ≥ 1` entries [`top_k_of_row`] builds.
#[inline]
fn offer(best: &mut Vec<(usize, f64)>, i: usize, k: usize, j: usize, v: f64) {
    if v <= 0.0 || j == i {
        return;
    }
    // `best` stays sorted; a candidate must beat the current worst (or
    // fill a free slot) to enter.
    if best.len() == k {
        let &(wj, wv) = best.last().expect("k ≥ 1");
        if v < wv || (v == wv && j > wj) {
            return;
        }
        best.pop();
    }
    let pos = best.partition_point(|&(bj, bv)| bv > v || (bv == v && bj < j));
    best.insert(pos, (j, v));
}

/// What [`TrustRows::top_k`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Per user `i`, [`top_k_of_row`] of row `i` of `T̂`.
    pub lists: Vec<Vec<(usize, f64)>>,
    /// Cells of `T̂` the scan evaluated.
    pub cells_computed: u64,
    /// Cells a full-row scan evaluates: the writer columns of every row
    /// with affiliation mass.
    pub cells_full: u64,
}

impl TopK {
    /// `cells_computed / cells_full` — `1.0` when nothing was pruned
    /// (or there was nothing to compute).
    pub fn computed_share(&self) -> f64 {
        if self.cells_full == 0 {
            1.0
        } else {
            self.cells_computed as f64 / self.cells_full as f64
        }
    }
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
        Self::with_panel(affiliation, expertise, cfg, ExpertisePanel::new)
    }

    fn with_panel(
        affiliation: &'a Dense,
        expertise: &Dense,
        cfg: &BlockConfig,
        panel: fn(&Dense) -> ExpertisePanel,
    ) -> Result<Self> {
        validate_shapes(affiliation, expertise)?;
        let u = affiliation.nrows();
        let chunk_rows = resolve_block_rows(cfg.block_rows, u);
        Ok(Self {
            affiliation,
            panel: panel(expertise),
            chunk_rows,
            workers: auto_threads(cfg.threads, u * u).min(u.div_ceil(chunk_rows).max(1)),
        })
    }

    /// Every user's `k` most-trusted peers ([`top_k_of_row`] of every row
    /// of `T̂`) without computing every cell: the scan runs on a
    /// [ranked](ExpertisePanel::ranked) panel and leaves a row as soon as
    /// no remaining column can enter its list. Row chunks are claimed by
    /// `cfg.threads` workers exactly as in [`fold_chunks`](Self::fold_chunks);
    /// the lists are the same for any chunk height and thread count.
    pub fn top_k(
        affiliation: &'a Dense,
        expertise: &Dense,
        k: usize,
        cfg: &BlockConfig,
    ) -> Result<TopK> {
        let scan = Self::with_panel(affiliation, expertise, cfg, ExpertisePanel::ranked)?;
        let u = scan.num_users();
        let mut top = TopK {
            lists: Vec::with_capacity(u),
            cells_computed: 0,
            cells_full: 0,
        };
        if k == 0 {
            top.lists.resize(u, Vec::new());
            return Ok(top);
        }
        let width = scan.panel.writers().len() as u64;
        let chunks = wot_par::par_map_indexed_with(
            scan.num_chunks(),
            scan.workers,
            || scan.panel.row_buffer(),
            |buf, chunk| {
                let rows = scan.chunk(chunk);
                let mut lists = Vec::with_capacity(rows.len());
                let (mut computed, mut full) = (0u64, 0u64);
                for i in rows {
                    match scan.panel.top_k(i, affiliation.row(i), k, buf) {
                        Some((list, cells)) => {
                            lists.push(list);
                            computed += cells as u64;
                            full += width;
                        }
                        None => lists.push(Vec::new()),
                    }
                }
                (lists, computed, full)
            },
        );
        for (lists, computed, full) in chunks {
            top.lists.extend(lists);
            top.cells_computed += computed;
            top.cells_full += full;
        }
        Ok(top)
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

    /// The rows of chunk `chunk`.
    fn chunk(&self, chunk: usize) -> Range<usize> {
        chunk * self.chunk_rows..((chunk + 1) * self.chunk_rows).min(self.num_users())
    }

    /// Transient heap bytes of one scan: the `E` panel plus one row
    /// buffer per worker (reducer state is the visitor's own).
    pub fn transient_bytes(&self) -> usize {
        self.panel.bytes() + self.workers * self.panel.padded_len() * std::mem::size_of::<f64>()
    }

    /// Scans every row. Each chunk starts from `init(rows)` and folds its
    /// rows in ascending order through `visit(state, i, cols, vals)`,
    /// where `vals[w] = T̂[i][cols[w]]`, `cols` is ascending and every
    /// column not in it is exactly zero (a user with no affiliation mass
    /// gets empty slices).
    /// Returns the chunk states in ascending row order.
    pub fn fold_chunks<S, I, V>(&self, init: I, visit: V) -> Vec<S>
    where
        S: Send,
        I: Fn(Range<usize>) -> S + Sync,
        V: Fn(&mut S, usize, &[u32], &[f64]) + Sync,
    {
        wot_par::par_map_indexed_with(
            self.num_chunks(),
            self.workers,
            || self.panel.row_buffer(),
            |buf, chunk| {
                let rows = self.chunk(chunk);
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

/// Global aggregates of the full `T̂` — the streaming Fig. 3 numbers
/// ([`Derived::trust_fig3`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Aggregates {
    /// Number of users `U` (`T̂` is `U×U`).
    pub users: usize,
    /// Strictly positive entries of `T̂` (its support, as in Fig. 3).
    pub support: u64,
    /// Sum of all entries (row sums folded in ascending row order).
    pub sum: f64,
    /// Largest entry.
    pub max: f64,
    /// Strictly positive entries per row — user `i`'s derived
    /// out-degree.
    pub row_support: Vec<u32>,
    /// Histogram of the positive values over `N` uniform bins of
    /// `(0, 1]`, binned on `x = fl(v · N)`: `histogram[b]` counts `v`
    /// with `b < x ≤ b + 1`, the last bin every `x > N - 1` (values
    /// above 1 and `+∞` included). That is `min(ceil(x), N) - 1`, and not
    /// quite `b/N < v ≤ (b+1)/N` at the edges: the double `0.1` is a
    /// little above `1/10`, but `fl(0.1 · 10) = 1` puts it in bin 0.
    pub histogram: Vec<u64>,
    /// Row chunks the scan's workers claimed.
    pub blocks: usize,
    /// Resolved rows per chunk.
    pub block_rows: usize,
    /// Transient bytes the scan allocated: the transposed copy of `E`
    /// plus one row buffer per worker (no block of `T̂` is ever stored).
    pub max_block_bytes: usize,
}

impl Fig3Aggregates {
    /// Support density over `U²` — Fig. 3's headline number for `T̂`.
    pub fn density(&self) -> f64 {
        let cells = (self.users as f64) * (self.users as f64);
        if cells > 0.0 {
            self.support as f64 / cells
        } else {
            0.0
        }
    }

    /// Mean of the strictly positive entries.
    pub fn mean_positive(&self) -> f64 {
        if self.support == 0 {
            0.0
        } else {
            self.sum / self.support as f64
        }
    }
}

/// Histogram bins of [`Fig3Aggregates::histogram`].
const FIG3_HIST_BINS: usize = 10;

/// One row of the Fig. 3 reduction, given the largest cell seen so far:
/// the row's sum of positive cells, the new largest cell, and `above`,
/// where `above[b]` counts the cells with `x = fl(v · N) > b`. `above[0]`
/// is the row's support, and for `x > 0` the number of thresholds
/// `1..N` that `x` passes is `min(ceil(x), N) - 1` — its bin.
///
/// Nothing per cell stores to memory or branches on its value: the sum
/// and the maximum go through selects and the counters stay in
/// registers. The sum keeps its serial ascending-column order; a
/// non-positive cell adds `+0.0`, which leaves a sum that started at
/// `+0.0` bit-unchanged, so it has the bits of the positive cells'
/// sum.
#[inline]
fn fig3_row<const N: usize>(vals: &[f64], mut max: f64) -> (f64, f64, [u64; N]) {
    let mut sum = 0.0f64;
    let mut above = [0u64; N];
    for &v in vals {
        sum += if v > 0.0 { v } else { 0.0 };
        max = if v > max { v } else { max };
        let x = v * N as f64;
        for (b, n) in above.iter_mut().enumerate() {
            *n += u64::from(x > b as f64);
        }
    }
    (sum, max, above)
}

/// The histogram with [`fig3_row`]'s threshold counts `above`: bin `b`
/// is `above[b] - above[b + 1]`, the last bin `above[N - 1]`.
fn histogram_of<const N: usize>(above: [u64; N]) -> Vec<u64> {
    let next = above.iter().skip(1).chain([&0]);
    above.iter().zip(next).map(|(a, b)| a - b).collect()
}

/// What one row chunk of the Fig. 3 scan reduces to.
struct Fig3Chunk {
    /// Per row of the chunk, ascending.
    row_support: Vec<u32>,
    row_sum: Vec<f64>,
    max: f64,
    /// [`fig3_row`]'s threshold counts summed over the chunk's rows.
    above: [u64; FIG3_HIST_BINS],
}

/// Scans the full `T̂` once and reduces it to [`Fig3Aggregates`]; what
/// [`Derived::trust_fig3`] runs.
///
/// Memory: [`Fig3Aggregates::max_block_bytes`] of scan buffers plus the
/// O(U) per-row results — at the paper's 44k users, a few megabytes
/// instead of the ~15.6 GB dense matrix.
pub(crate) fn fig3_aggregates(derived: &Derived, cfg: &BlockConfig) -> Result<Fig3Aggregates> {
    let scan = derived.trust_rows(cfg)?;
    let chunks = scan.fold_chunks(
        |rows| Fig3Chunk {
            row_support: Vec::with_capacity(rows.len()),
            row_sum: Vec::with_capacity(rows.len()),
            max: 0.0,
            above: [0; FIG3_HIST_BINS],
        },
        |chunk, _i, _cols, vals| {
            let (row_sum, max, above) = fig3_row::<FIG3_HIST_BINS>(vals, chunk.max);
            for (total, n) in chunk.above.iter_mut().zip(above) {
                *total += n;
            }
            chunk.row_support.push(above[0] as u32);
            chunk.row_sum.push(row_sum);
            chunk.max = max;
        },
    );
    let users = scan.num_users();
    let mut agg = Fig3Aggregates {
        users,
        support: 0,
        sum: 0.0,
        max: 0.0,
        row_support: Vec::with_capacity(users),
        histogram: Vec::new(),
        blocks: chunks.len(),
        block_rows: scan.chunk_rows(),
        max_block_bytes: scan.transient_bytes(),
    };
    let mut above = [0u64; FIG3_HIST_BINS];
    // Row sums combine in ascending row order whatever the chunking and
    // whichever worker produced them: the f64 fold has one order.
    for chunk in chunks {
        for row_sum in chunk.row_sum {
            agg.sum += row_sum;
        }
        agg.row_support.extend(chunk.row_support);
        agg.max = agg.max.max(chunk.max);
        for (total, n) in above.iter_mut().zip(chunk.above) {
            *total += n;
        }
    }
    agg.support = above[0];
    agg.histogram = histogram_of(above);
    Ok(agg)
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

    fn bits(list: &[(usize, f64)]) -> Vec<(usize, u64)> {
        list.iter().map(|&(j, v)| (j, v.to_bits())).collect()
    }

    /// Row `i` four ways: the panel kernel scattered to full width, the
    /// single-row kernel, `pairwise` cell by cell, and the ranked panel's
    /// walk with a `k` no row can fill — it never prunes, so every cell
    /// of the row goes through `tile_cells`.
    fn assert_row_kernels_agree(a: &Dense, e: &Dense) {
        let u = a.nrows();
        let panel = ExpertisePanel::new(e);
        let ranked = ExpertisePanel::ranked(e);
        let mut buf = panel.row_buffer();
        for i in 0..u {
            let exact = (0..u).map(|j| (j, trust::pairwise(a, e, i, j)));
            match ranked.top_k(i, a.row(i), u + 1, &mut buf) {
                Some((list, computed)) => {
                    assert_eq!(computed, ranked.writers().len());
                    assert_eq!(bits(&list), bits(&top_k_of_row(i, u + 1, exact)));
                }
                None => assert!(a.row(i).iter().sum::<f64>() <= 0.0),
            }
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

    /// The shapes the bound must survive: constant `E` rows (a computed
    /// cell equals or rounds past `b_j`), quantised rows (exact ties) and
    /// one-hot `A` rows (`T̂_ij = E_jc`).
    fn tied_instance(u: usize, c: usize) -> (Dense, Dense) {
        let (mut a, mut e) = instance(u, c);
        for j in 0..u {
            match j % 4 {
                0 => (0..c).for_each(|k| e.set(j, k, (j % 7 + 1) as f64 / 7.1)),
                1 => (0..c).for_each(|k| e.set(j, k, ((j + k) % 3) as f64 / 2.0)),
                _ => {}
            }
            if j % 5 == 2 {
                (0..c).for_each(|k| a.set(j, k, if k == j % c { 0.3 } else { 0.0 }));
            }
        }
        (a, e)
    }

    #[test]
    fn ranked_panel_sorts_by_bound_and_bounds_dominate_computed_cells() {
        for c in [1usize, 3, 5, 12] {
            let (a, e) = tied_instance(61, c);
            let panel = ExpertisePanel::ranked(&e);
            let mut sorted = panel.writers().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, ExpertisePanel::new(&e).writers(), "same columns");
            let b = |j: u32| e.row(j as usize).iter().copied().fold(f64::MIN, f64::max);
            for w in panel.writers().windows(2) {
                assert!(b(w[0]) > b(w[1]) || (b(w[0]) == b(w[1]) && w[0] < w[1]));
            }
            assert_eq!(panel.tile_bounds.len() * TILE, panel.padded_len());
            assert!(panel.tile_bounds.windows(2).all(|w| w[0] >= w[1]));
            let mut buf = panel.row_buffer();
            let mut at_bound = 0;
            for i in 0..61 {
                let Some(vals) = panel.fill(a.row(i), &mut buf) else {
                    continue;
                };
                for (w, (&v, &j)) in vals.iter().zip(panel.writers()).enumerate() {
                    assert!(v <= panel.tile_bounds[w / TILE], "cell ({i},{j})");
                    at_bound += usize::from(v >= b(j));
                }
            }
            assert!(at_bound > 0, "some cell reaches its column's max");
        }
    }

    #[test]
    fn top_k_scan_prunes_and_equals_full_rows() {
        let (mut a, e) = tied_instance(97, 5);
        // A row the bound does not cover is still answered — in full.
        a.set(3, 1, -0.25);
        a.set(3, 2, 0.75);
        let width = ExpertisePanel::new(&e).writers().len() as u64;
        let active = (0..97).filter(|&i| a.row(i).iter().sum::<f64>() > 0.0);
        let full = active.count() as u64 * width;
        for k in [0usize, 1, 4, 10, 200] {
            let mut computed = None;
            for (block_rows, threads) in [(1usize, 1usize), (7, 3), (0, 0)] {
                let cfg = BlockConfig {
                    block_rows,
                    threads,
                };
                let scan = TrustRows::top_k(&a, &e, k, &cfg).unwrap();
                assert_eq!(scan.lists.len(), 97);
                for (i, list) in scan.lists.iter().enumerate() {
                    assert_eq!(
                        bits(list),
                        bits(&top_k_single_row(&a, &e, i, k)),
                        "k={k} row {i}"
                    );
                }
                assert_eq!(scan.cells_full, if k == 0 { 0 } else { full });
                assert_eq!(
                    *computed.get_or_insert(scan.cells_computed),
                    scan.cells_computed
                );
            }
            let computed = computed.unwrap();
            match k {
                0 => assert_eq!(computed, 0),
                200 => assert_eq!(computed, full, "no row can fill 200 slots"),
                // At least the uncovered row is computed whole.
                _ => assert!(
                    (width..full * 2 / 3).contains(&computed),
                    "k={k}: {computed} of {full}"
                ),
            }
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

    /// The tiny preset, derived — what the Fig. 3 tests scan.
    struct Bench {
        derived: Derived,
    }

    fn bench() -> Bench {
        let out = wot_synth::generate(&wot_synth::SynthConfig::tiny(31)).unwrap();
        let derived = crate::pipeline::derive(&out.store, &crate::DeriveConfig::default()).unwrap();
        Bench { derived }
    }

    /// The bin [`Fig3Aggregates::histogram`] defines for `v > 0`.
    fn ceil_bin(v: f64, nbins: usize) -> usize {
        ((v * nbins as f64).ceil() as usize).clamp(1, nbins) - 1
    }

    #[test]
    fn aggregates_match_dense_reference() {
        let wb = bench();
        let dense = wb.derived.trust_dense().unwrap();
        let agg = fig3_aggregates(&wb.derived, &BlockConfig::sequential()).unwrap();
        let u = wb.derived.num_users();
        // Reference fold in the exact same per-row order.
        let mut support = 0u64;
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut histogram = vec![0u64; FIG3_HIST_BINS];
        for i in 0..u {
            let mut row_sum = 0.0;
            let mut row_support = 0u32;
            for &v in dense.row(i) {
                if v > 0.0 {
                    row_support += 1;
                    row_sum += v;
                    max = max.max(v);
                    histogram[ceil_bin(v, FIG3_HIST_BINS)] += 1;
                }
            }
            assert_eq!(agg.row_support[i], row_support, "row {i}");
            support += row_support as u64;
            sum += row_sum;
        }
        assert_eq!(agg.support, support);
        assert_eq!(agg.sum.to_bits(), sum.to_bits());
        assert_eq!(agg.max.to_bits(), max.to_bits());
        assert_eq!(agg.histogram, histogram);
        assert!(histogram.iter().filter(|&&n| n > 0).count() > 1);
        // Cross-check against the bitmask counter of Fig. 3.
        assert_eq!(agg.support, wb.derived.trust_support_count().unwrap());
        assert!(agg.density() > 0.0 && agg.density() <= 1.0);
        assert!(agg.mean_positive() > 0.0 && agg.mean_positive() <= agg.max);
    }

    #[test]
    fn aggregates_invariant_to_blocks_and_threads() {
        let wb = bench();
        let reference = fig3_aggregates(&wb.derived, &BlockConfig::sequential()).unwrap();
        for (block_rows, threads) in [(1usize, 1usize), (7, 2), (64, 0), (0, 3)] {
            let cfg = BlockConfig {
                block_rows,
                threads,
            };
            let agg = fig3_aggregates(&wb.derived, &cfg).unwrap();
            assert_eq!(agg.support, reference.support);
            assert_eq!(agg.sum, reference.sum, "bit-identical sum");
            assert_eq!(agg.max, reference.max);
            assert_eq!(agg.row_support, reference.row_support);
            assert_eq!(agg.histogram, reference.histogram);
        }
    }

    /// `fig3_row::<N>` of `vals`, differenced into its histogram.
    fn row_histogram<const N: usize>(vals: &[f64]) -> Vec<u64> {
        histogram_of(fig3_row::<N>(vals, 0.0).2)
    }

    fn threshold_rule_is_the_ceil_form<const N: usize>() {
        let n = N as f64;
        // Exact bin edges and their neighbours on both sides.
        let mut values: Vec<f64> = (0..=2 * N)
            .map(|b| b as f64 / n)
            .flat_map(|e| [e, e.next_down(), e.next_up()])
            .collect();
        // The smallest positive values, values past 1, and a sweep.
        values.extend([
            f64::MIN_POSITIVE,
            5e-324,
            1e-300,
            1.0,
            1.5,
            7.25,
            1e9,
            1e300,
        ]);
        values.extend((1..=10_000).map(|s| s as f64 / 9_973.0));
        let mut want = vec![0u64; N];
        for &v in values.iter().filter(|&&v| v > 0.0) {
            let mut one = vec![0u64; N];
            one[ceil_bin(v, N)] = 1;
            assert_eq!(row_histogram::<N>(&[v]), one, "v={v:e} N={N}");
            want[ceil_bin(v, N)] += 1;
        }
        // Counted nowhere: `-0.0`, negatives and NaN. `+∞` is in the last
        // bin.
        let nowhere = [-0.0, -f64::MIN_POSITIVE, -1.0, f64::NEG_INFINITY, f64::NAN];
        for v in nowhere {
            assert_eq!(row_histogram::<N>(&[v]), vec![0; N], "v={v:e} N={N}");
        }
        values.extend(nowhere);
        let mut last = vec![0u64; N];
        last[N - 1] = 1;
        assert_eq!(row_histogram::<N>(&[f64::INFINITY]), last, "+∞ N={N}");
        values.push(f64::INFINITY);
        want[N - 1] += 1;
        assert_eq!(row_histogram::<N>(&values), want, "N={N}");
        let (_, _, above) = fig3_row::<N>(&values, 0.0);
        assert_eq!(above[0], want.iter().sum::<u64>(), "the support");
    }

    #[test]
    fn threshold_counts_are_the_ceil_form() {
        threshold_rule_is_the_ceil_form::<1>();
        threshold_rule_is_the_ceil_form::<4>();
        threshold_rule_is_the_ceil_form::<FIG3_HIST_BINS>();
        threshold_rule_is_the_ceil_form::<64>();
    }

    #[test]
    fn row_sum_and_max_are_the_positive_cells_in_order() {
        let vals = [0.25, -0.0, 0.5, f64::NAN, 0.0, -3.0, 1e-300, 0.125, 0.75];
        let (sum, max, _) = fig3_row::<FIG3_HIST_BINS>(&vals, 0.0);
        let want = vals.iter().filter(|&&v| v > 0.0).fold(0.0, |s, &v| s + v);
        assert_eq!(sum.to_bits(), want.to_bits());
        assert_eq!(max, 0.75);
        assert_eq!(fig3_row::<FIG3_HIST_BINS>(&vals, 2.0).1, 2.0);
        let (sum, max, _) = fig3_row::<FIG3_HIST_BINS>(&[-0.0, f64::NAN, -1.0], 0.0);
        assert_eq!((sum.to_bits(), max.to_bits()), (0, 0), "+0.0 stays +0.0");
    }
}
