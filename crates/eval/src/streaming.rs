//! Paper-scale streaming analyses of the full derived-trust view `T̂`.
//!
//! Fig. 3-style analyses need *every* pair `(i, j)` of Eq. 5, but the
//! dense `T̂` at the paper's 44k users is a ~15.6 GB allocation. The
//! reducers here are row visitors of [`wot_core::TrustRows`]: each row is
//! reduced on the worker that computed it, out of that worker's one row
//! buffer, so a scan holds a copy of `E`, one row per worker and O(U)
//! reducer state — no block of `T̂` ever exists:
//!
//! * [`fig3_aggregates`] — global Fig. 3 aggregates: support (non-zero
//!   count, cross-checkable against the bitmask
//!   [`support_count`](wot_core::trust::support_count)), density, value
//!   sum / mean / max, per-user out-support, and a value histogram;
//! * [`top_k_trusted`] — each user's `k` most-trusted peers (the
//!   recommendation surface a trust-aware recommender serves), from
//!   [`TrustRows::top_k`](wot_core::TrustRows::top_k)'s bound-ordered
//!   scan, which computes only the cells that can enter a list.
//!
//! Every reducer folds **per row**: a row of `T̂` is never split across
//! workers and row results are combined in ascending row order, so all
//! outputs are bit-identical for any chunk height and any thread count
//! (proven by the workspace's `block_streaming` suite).

use wot_core::trust_rows::top_k_single_row;
use wot_core::{BlockConfig, Derived};

use crate::report::{f3, Table};
use crate::{EvalError, Result};

/// Global aggregates of the full `T̂` — the streaming Fig. 3 numbers.
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
    /// Histogram of positive values over `(0, 1]`:
    /// `histogram[b]` counts `v` with `b/N < v ≤ (b+1)/N` for `N` bins
    /// (values above 1 clamp into the last bin).
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

    /// Renders the aggregates as a report table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig. 3 (streaming) — full T-hat over {0}x{0} users, O(users) memory",
                self.users
            ),
            &["quantity", "value"],
        );
        t.push_row(vec![
            "support (entries > 0)".into(),
            self.support.to_string(),
        ]);
        t.push_row(vec!["density".into(), format!("{:.6}", self.density())]);
        t.push_row(vec!["mean positive trust".into(), f3(self.mean_positive())]);
        t.push_row(vec!["max trust".into(), f3(self.max)]);
        t.push_row(vec![
            "row chunks × rows/chunk".into(),
            format!("{} × {}", self.blocks, self.block_rows),
        ]);
        t.push_row(vec![
            "scan buffers (E panel + a row per worker)".into(),
            format!("{:.1} MiB", self.max_block_bytes as f64 / (1 << 20) as f64),
        ]);
        for (b, &n) in self.histogram.iter().enumerate() {
            let nbins = self.histogram.len();
            t.push_row(vec![
                format!(
                    "values in ({:.2}, {:.2}]",
                    b as f64 / nbins as f64,
                    (b + 1) as f64 / nbins as f64
                ),
                n.to_string(),
            ]);
        }
        t
    }
}

/// Histogram bins used by [`fig3_aggregates`].
pub const FIG3_HIST_BINS: usize = 10;

/// The bin of `v > 0` among `nbins` uniform bins over `(0, 1]`:
/// `ceil(v · nbins) - 1`, values above 1 clamped into the last bin.
///
/// `f64::ceil` is a libm call per cell on a baseline x86-64 build (no
/// SSE4.1), which was a third of the fused Fig. 3 scan; truncate-and-bump
/// is the same function for every positive `x` (capped first, so the
/// bump cannot overflow).
fn bin_of(v: f64, nbins: usize) -> usize {
    let x = (v * nbins as f64).min(nbins as f64);
    let t = x as usize;
    let ceil = if (t as f64) < x { t + 1 } else { t };
    ceil.max(1) - 1
}

/// What one row chunk of the Fig. 3 scan reduces to.
struct Fig3Chunk {
    /// Per row of the chunk, ascending.
    row_support: Vec<u32>,
    row_sum: Vec<f64>,
    max: f64,
    histogram: [u64; FIG3_HIST_BINS],
}

/// Scans the full `T̂` once and reduces it to [`Fig3Aggregates`].
///
/// Memory: [`Fig3Aggregates::max_block_bytes`] of scan buffers plus the
/// O(U) per-row results — at the paper's 44k users, a few megabytes
/// instead of the ~15.6 GB dense matrix.
pub fn fig3_aggregates(derived: &Derived, cfg: &BlockConfig) -> Result<Fig3Aggregates> {
    let scan = derived.trust_rows(cfg)?;
    let chunks = scan.fold_chunks(
        |rows| Fig3Chunk {
            row_support: Vec::with_capacity(rows.len()),
            row_sum: Vec::with_capacity(rows.len()),
            max: 0.0,
            histogram: [0; FIG3_HIST_BINS],
        },
        |chunk, _i, _cols, vals| {
            let mut row_sum = 0.0;
            let mut row_support = 0u32;
            for &v in vals {
                if v > 0.0 {
                    row_support += 1;
                    row_sum += v;
                    if v > chunk.max {
                        chunk.max = v;
                    }
                    chunk.histogram[bin_of(v, FIG3_HIST_BINS)] += 1;
                }
            }
            chunk.row_support.push(row_support);
            chunk.row_sum.push(row_sum);
        },
    );
    let users = scan.num_users();
    let mut agg = Fig3Aggregates {
        users,
        support: 0,
        sum: 0.0,
        max: 0.0,
        row_support: Vec::with_capacity(users),
        histogram: vec![0u64; FIG3_HIST_BINS],
        blocks: chunks.len(),
        block_rows: scan.chunk_rows(),
        max_block_bytes: scan.transient_bytes(),
    };
    // Row sums combine in ascending row order whatever the chunking and
    // whichever worker produced them: the f64 fold has one order.
    for chunk in chunks {
        for row_sum in chunk.row_sum {
            agg.sum += row_sum;
        }
        agg.support += chunk.row_support.iter().map(|&s| s as u64).sum::<u64>();
        agg.row_support.extend(chunk.row_support);
        agg.max = agg.max.max(chunk.max);
        for (total, n) in agg.histogram.iter_mut().zip(chunk.histogram) {
            *total += n;
        }
    }
    Ok(agg)
}

/// Each user's `k` most-trusted peers, in O(U·k) memory beyond the scan's
/// buffers.
///
/// Returns, per user `i`, up to `k` pairs `(j, T̂_ij)` with `v > 0` and
/// `j ≠ i` (self-trust is not a recommendation), sorted by descending
/// trust with ascending `j` breaking ties — a deterministic order for
/// any chunk height or thread count, from the reducer the serving daemon
/// answers with ([`top_k_of_row`](wot_core::trust_rows::top_k_of_row)).
/// [`Derived::trust_top_k`] is the same scan with its cell counts.
pub fn top_k_trusted(
    derived: &Derived,
    k: usize,
    cfg: &BlockConfig,
) -> Result<Vec<Vec<(usize, f64)>>> {
    if k == 0 {
        return Err(EvalError::InvalidParameter(
            "top_k_trusted needs k ≥ 1".into(),
        ));
    }
    Ok(derived.trust_top_k(k, cfg)?.lists)
}

/// Holds `sample` evenly spaced rows of a top-`k` scan's `lists` to the
/// single-row kernel ([`top_k_single_row`] computes every cell of the
/// row) and returns how many differ — in a user or, the listed values
/// being positive, a bit. The live conformance check of the pruned scan
/// at scales where checking every row would cost the full scan it avoids.
pub fn top_k_mismatches(
    derived: &Derived,
    lists: &[Vec<(usize, f64)>],
    k: usize,
    sample: usize,
) -> usize {
    let sample = sample.min(lists.len());
    (0..sample)
        .map(|s| s * lists.len() / sample)
        .filter(|&i| lists[i] != top_k_single_row(&derived.affiliation, &derived.expertise, i, k))
        .count()
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or
/// `None` where `/proc` is unavailable — how the paper-scale streaming
/// runs measure their 2 GB memory budget (the `repro` bench summary and
/// the `block_streaming` acceptance test both report it).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use wot_core::DeriveConfig;
    use wot_synth::SynthConfig;

    use super::*;
    use crate::Workbench;

    fn bench() -> Workbench {
        Workbench::new(&SynthConfig::tiny(31), &DeriveConfig::default()).unwrap()
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
        for i in 0..u {
            let mut row_sum = 0.0;
            let mut row_support = 0u32;
            for &v in dense.row(i) {
                if v > 0.0 {
                    row_support += 1;
                    row_sum += v;
                    max = max.max(v);
                }
            }
            assert_eq!(agg.row_support[i], row_support, "row {i}");
            support += row_support as u64;
            sum += row_sum;
        }
        assert_eq!(agg.support, support);
        assert_eq!(agg.sum, sum);
        assert_eq!(agg.max, max);
        // Cross-check against the bitmask counter of Fig. 3.
        assert_eq!(agg.support, wb.derived.trust_support_count().unwrap());
        // The histogram partitions the support.
        assert_eq!(agg.histogram.iter().sum::<u64>(), agg.support);
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

    #[test]
    fn top_k_matches_brute_force() {
        let wb = bench();
        let k = 5;
        let top = top_k_trusted(&wb.derived, k, &BlockConfig::default()).unwrap();
        let dense = wb.derived.trust_dense().unwrap();
        for (i, best) in top.iter().enumerate() {
            let mut brute: Vec<(usize, f64)> = dense
                .row(i)
                .iter()
                .enumerate()
                .filter(|&(j, &v)| j != i && v > 0.0)
                .map(|(j, &v)| (j, v))
                .collect();
            brute.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            brute.truncate(k);
            assert_eq!(best, &brute, "user {i}");
        }
    }

    #[test]
    fn bin_of_is_the_ceil_form() {
        let ceil_form =
            |v: f64, nbins: usize| ((v * nbins as f64).ceil() as usize).clamp(1, nbins) - 1;
        for nbins in [1usize, 4, FIG3_HIST_BINS, 64] {
            let n = nbins as f64;
            // Exact bin edges and their neighbours on both sides.
            let mut values: Vec<f64> = (0..=2 * nbins)
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
            for v in values.into_iter().filter(|&v| v > 0.0) {
                assert_eq!(
                    bin_of(v, nbins),
                    ceil_form(v, nbins),
                    "v={v:e} nbins={nbins}"
                );
            }
        }
    }

    #[test]
    fn parameter_validation() {
        let wb = bench();
        assert!(top_k_trusted(&wb.derived, 0, &BlockConfig::default()).is_err());
    }

    #[test]
    fn table_renders() {
        let wb = bench();
        let s = fig3_aggregates(&wb.derived, &BlockConfig::default())
            .unwrap()
            .to_table()
            .to_string();
        for needle in ["support", "density", "scan buffers", "values in"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }
}
