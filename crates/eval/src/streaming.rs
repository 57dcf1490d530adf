//! Paper-scale streaming analyses of the full derived-trust view `T̂`.
//!
//! Fig. 3-style analyses need *every* pair `(i, j)` of Eq. 5, but the
//! dense `T̂` at the paper's 44k users is a ~15.6 GB allocation. Both
//! reducers live in `wot-core` as row visitors of [`wot_core::TrustRows`]:
//! each row is reduced on the worker that computed it, out of that
//! worker's one row buffer, so a scan holds a copy of `E`, one row per
//! worker and O(U) reducer state — no block of `T̂` ever exists. This
//! module is their reporting face:
//!
//! * [`fig3_aggregates`] — global Fig. 3 aggregates
//!   ([`Derived::trust_fig3`]): support (non-zero count, cross-checkable
//!   against the bitmask [`support_count`](wot_core::trust::support_count)),
//!   density, value sum / mean / max, per-user out-support, and a value
//!   histogram; [`fig3_table`] renders them;
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
pub use wot_core::Fig3Aggregates;
use wot_core::{BlockConfig, Derived};

use crate::report::{f3, Table};
use crate::{EvalError, Result};

/// Scans the full `T̂` once and reduces it to [`Fig3Aggregates`]
/// ([`Derived::trust_fig3`]).
pub fn fig3_aggregates(derived: &Derived, cfg: &BlockConfig) -> Result<Fig3Aggregates> {
    Ok(derived.trust_fig3(cfg)?)
}

/// Renders Fig. 3 aggregates as a report table.
pub fn fig3_table(agg: &Fig3Aggregates) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 3 (streaming) — full T-hat over {0}x{0} users, O(users) memory",
            agg.users
        ),
        &["quantity", "value"],
    );
    t.push_row(vec![
        "support (entries > 0)".into(),
        agg.support.to_string(),
    ]);
    t.push_row(vec!["density".into(), format!("{:.6}", agg.density())]);
    t.push_row(vec!["mean positive trust".into(), f3(agg.mean_positive())]);
    t.push_row(vec!["max trust".into(), f3(agg.max)]);
    t.push_row(vec![
        "row chunks × rows/chunk".into(),
        format!("{} × {}", agg.blocks, agg.block_rows),
    ]);
    t.push_row(vec![
        "scan buffers (E panel + a row per worker)".into(),
        format!("{:.1} MiB", agg.max_block_bytes as f64 / (1 << 20) as f64),
    ]);
    for (b, &n) in agg.histogram.iter().enumerate() {
        let nbins = agg.histogram.len();
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
    fn parameter_validation() {
        let wb = bench();
        assert!(top_k_trusted(&wb.derived, 0, &BlockConfig::default()).is_err());
    }

    #[test]
    fn table_renders() {
        let wb = bench();
        let agg = fig3_aggregates(&wb.derived, &BlockConfig::default()).unwrap();
        let s = fig3_table(&agg).to_string();
        for needle in ["support", "density", "scan buffers", "values in"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }
}
