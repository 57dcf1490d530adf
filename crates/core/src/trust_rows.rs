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
//! ## Two instruction sets
//!
//! The scans' three chunk loops — [`TrustRows::fold_chunks`]'s, the
//! Fig. 3 fold and [`TrustRows::top_k`]'s walk — are one source compiled
//! twice: for the build's baseline target (SSE2 on x86-64) and, in a
//! `#[target_feature(enable = "avx2")]` wrapper, for AVX2, which a chunk
//! runs where `is_x86_feature_detected!` reports it ([`kernel_isa`]).
//! The kernel, the Fig. 3 row fold and the top-k walk are
//! `#[inline(always)]`, so each copy holds them whole, reducer included.
//! No bit depends on the choice: a tile's four columns fill one AVX2
//! register instead of two SSE2 ones, and each lane runs the same IEEE
//! operations in the same order — the `(s0 + s1) + (s2 + s3)` tree, the
//! tail, a real division, select-based sum and maximum, exact compares.
//! Only `avx2` is enabled, never `fma`, and rustc never contracts
//! `a * b + c` into one rounding.
//!
//! ## Two reducers
//!
//! [`TrustRows::top_k`] is the all-users top-`k` above.
//! [`Derived::trust_fig3`] is the Fig. 3 reducer: support, density, value
//! sum / mean / max, per-user out-support and a value histogram of the
//! full `T̂`, folded row by row in the scan's own chunk loop, beside the
//! kernel, no visitor between them. The support cross-checks against the
//! bitmask [`support_count`](crate::trust::support_count). The fold
//! neither stores nor branches per cell: sum and maximum go through
//! selects, and the histogram is kept as register counts of
//! `fl(v · N) > b` for each threshold `b`, differenced into bins once per
//! scan. A per-cell bin index and `histogram[bin] += 1` made the reducer
//! cost more than the kernel (`docs/ARCHITECTURE.md` § 4 has the split).

use std::ops::Range;

use wot_sparse::Dense;

use crate::trust_blocks::{auto_threads, resolve_block_rows, validate_shapes, BlockConfig};
use crate::{Derived, Result};

/// Columns per kernel tile: 4 accumulators × 4 columns fill eight SSE2
/// registers on a baseline x86-64 build, four `ymm` registers under AVX2.
const TILE: usize = 4;

/// The instruction sets a scan's chunk loop is compiled for (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Isa {
    /// The build's target.
    Baseline,
    /// AVX2, run only where the CPU reports it.
    Avx2,
}

impl Isa {
    /// The variant the scans of this process run.
    pub(crate) fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Baseline
    }
}

/// The instruction set the Eq. 5 scans run on in this process: `"avx2"`
/// on an x86-64 CPU that has it, `"baseline"` otherwise.
pub fn kernel_isa() -> &'static str {
    match Isa::detected() {
        Isa::Baseline => "baseline",
        Isa::Avx2 => "avx2",
    }
}

/// One chunk of a scan: the loop [`on_isa`] compiles once per [`Isa`].
trait ChunkLoop: Sync {
    type Out: Send;
    /// Reduces rows `rows` of `scan`; `buf` is a row buffer of its panel.
    fn run(&self, scan: &TrustRows<'_>, buf: &mut [f64], rows: Range<usize>) -> Self::Out;
}

/// Runs `job` over `rows` as code compiled for `isa`: the AVX2 copy only
/// where the CPU has AVX2, the baseline copy otherwise.
#[allow(unsafe_code)]
#[inline(always)]
fn on_isa<J: ChunkLoop>(
    isa: Isa,
    job: &J,
    scan: &TrustRows<'_>,
    buf: &mut [f64],
    rows: Range<usize>,
) -> J::Out {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if std::is_x86_feature_detected!("avx2") => {
            #[target_feature(enable = "avx2")]
            fn avx2<J: ChunkLoop>(
                job: &J,
                scan: &TrustRows<'_>,
                buf: &mut [f64],
                rows: Range<usize>,
            ) -> J::Out {
                job.run(scan, buf, rows)
            }
            // SAFETY: `avx2` needs the AVX2 instructions and nothing else,
            // and this arm is reached only after detection reported them.
            unsafe { avx2(job, scan, buf, rows) }
        }
        _ => job.run(scan, buf, rows),
    }
}

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
    #[inline(always)]
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
    #[inline(always)]
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
#[inline(always)]
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
        Self::top_k_with(affiliation, expertise, k, cfg, Isa::detected())
    }

    /// [`top_k`](Self::top_k) on the chunk loop compiled for `isa`.
    pub(crate) fn top_k_with(
        affiliation: &'a Dense,
        expertise: &Dense,
        k: usize,
        cfg: &BlockConfig,
        isa: Isa,
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
        for (lists, computed, full) in scan.map_chunks(isa, &TopKChunk { k }) {
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
        self.map_chunks(Isa::detected(), &Fold { init, visit })
    }

    /// Runs `job` on every chunk, chunks claimed by the scan's workers,
    /// and returns the results in ascending row order.
    fn map_chunks<J: ChunkLoop>(&self, isa: Isa, job: &J) -> Vec<J::Out> {
        wot_par::par_map_indexed_with(
            self.num_chunks(),
            self.workers,
            || self.panel.row_buffer(),
            |buf, chunk| on_isa(isa, job, self, buf, self.chunk(chunk)),
        )
    }

    /// The Fig. 3 reduction of the full `T̂` on the chunk loop compiled
    /// for `isa`.
    pub(crate) fn fig3_with(&self, isa: Isa) -> Fig3Aggregates {
        let chunks = self.map_chunks(isa, &Fig3Fold);
        let users = self.num_users();
        let mut agg = Fig3Aggregates {
            users,
            support: 0,
            sum: 0.0,
            max: 0.0,
            row_support: Vec::with_capacity(users),
            histogram: Vec::new(),
            blocks: chunks.len(),
            block_rows: self.chunk_rows(),
            max_block_bytes: self.transient_bytes(),
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
        agg
    }
}

/// [`TrustRows::fold_chunks`]'s chunk loop: `init`, then `visit` per row.
struct Fold<I, V> {
    init: I,
    visit: V,
}

impl<S, I, V> ChunkLoop for Fold<I, V>
where
    S: Send,
    I: Fn(Range<usize>) -> S + Sync,
    V: Fn(&mut S, usize, &[u32], &[f64]) + Sync,
{
    type Out = S;

    #[inline(always)]
    fn run(&self, scan: &TrustRows<'_>, buf: &mut [f64], rows: Range<usize>) -> S {
        let mut state = (self.init)(rows.clone());
        for i in rows {
            match scan.panel.fill(scan.affiliation.row(i), buf) {
                Some(vals) => (self.visit)(&mut state, i, scan.panel.writers(), vals),
                None => (self.visit)(&mut state, i, &[], &[]),
            }
        }
        state
    }
}

/// [`TrustRows::top_k`]'s chunk loop: the rows' lists, the cells
/// computed and the cells full rows would have cost.
struct TopKChunk {
    k: usize,
}

impl ChunkLoop for TopKChunk {
    type Out = (Vec<Vec<(usize, f64)>>, u64, u64);

    #[inline(always)]
    fn run(&self, scan: &TrustRows<'_>, buf: &mut [f64], rows: Range<usize>) -> Self::Out {
        let width = scan.panel.writers().len() as u64;
        let mut lists = Vec::with_capacity(rows.len());
        let (mut computed, mut full) = (0u64, 0u64);
        for i in rows {
            match scan.panel.top_k(i, scan.affiliation.row(i), self.k, buf) {
                Some((list, cells)) => {
                    lists.push(list);
                    computed += cells as u64;
                    full += width;
                }
                None => lists.push(Vec::new()),
            }
        }
        (lists, computed, full)
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
#[inline(always)]
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

/// The Fig. 3 scan's chunk loop: the kernel and [`fig3_row`] per row, no
/// visitor between them.
struct Fig3Fold;

impl ChunkLoop for Fig3Fold {
    type Out = Fig3Chunk;

    #[inline(always)]
    fn run(&self, scan: &TrustRows<'_>, buf: &mut [f64], rows: Range<usize>) -> Fig3Chunk {
        let mut chunk = Fig3Chunk {
            row_support: Vec::with_capacity(rows.len()),
            row_sum: Vec::with_capacity(rows.len()),
            max: 0.0,
            above: [0; FIG3_HIST_BINS],
        };
        for i in rows {
            let vals = scan.panel.fill(scan.affiliation.row(i), buf);
            let (row_sum, max, above) = fig3_row::<FIG3_HIST_BINS>(vals.unwrap_or(&[]), chunk.max);
            for (total, n) in chunk.above.iter_mut().zip(above) {
                *total += n;
            }
            chunk.row_support.push(above[0] as u32);
            chunk.row_sum.push(row_sum);
            chunk.max = max;
        }
        chunk
    }
}

/// Scans the full `T̂` once and reduces it to [`Fig3Aggregates`]; what
/// [`Derived::trust_fig3`] runs.
///
/// Memory: [`Fig3Aggregates::max_block_bytes`] of scan buffers plus the
/// O(U) per-row results — at the paper's 44k users, a few megabytes
/// instead of the ~15.6 GB dense matrix.
pub(crate) fn fig3_aggregates(derived: &Derived, cfg: &BlockConfig) -> Result<Fig3Aggregates> {
    Ok(derived.trust_rows(cfg)?.fig3_with(Isa::detected()))
}

#[cfg(test)]
mod tests;
