//! The analyst's path: derive the community, then stream the full
//! derived-trust matrix through the Fig. 3 reducer and the all-user
//! top-10.
//!
//! At the paper preset a full scan is 44,197² cells — about a minute on
//! two cores, more than a run may spend. The scans therefore cover the
//! square sub-matrix of a sample of [`SCAN_USERS`] users: same kernel,
//! same reducers, same 12 categories, same A and E rows (derived at full
//! scale), 1/30.5 of the cells. Per-cell cost is flat in the user count
//! (measured 17–24 ns from 4k to 44k users), so the sample's time scales
//! to the full scan by the cell ratio.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wot_community::CommunityStore;
use wot_core::{pipeline, BlockConfig, DeriveConfig, Derived};
use wot_eval::streaming;
use wot_sparse::Dense;

use crate::check::{check_scans, Report};
use crate::loadgen::TOP_K;
use crate::schedule::Rng;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{Metric, Res};

/// Users the scans cover when the community has more. Not 8,192: the
/// auto-sized block of an 8,192-wide scan is exactly 32 MiB, one header
/// past the largest chunk glibc will recycle, so every block would be
/// fresh pages from the kernel — a cliff the paper's 44,197-wide blocks
/// (33.2 MB) and the laptop's (33.5 MB) both stop just short of.
pub const SCAN_USERS: usize = 8000;
/// Which users: like the community itself (see `workload::generate`), the
/// sample does not follow `--seed` — what a top-10 scan costs depends on
/// whose rows it reads, by more than the scans' bounds.
const SAMPLE_SEED: u64 = crate::DEFAULT_SEED;
/// Blocks the thread-scaling probe drains at each thread count.
const SPEEDUP_BLOCKS: usize = 4;

/// The matrix the scans cover: `derived` itself, or its restriction to a
/// seeded, ascending sample of `SCAN_USERS` users.
pub fn scan_view(derived: &Derived, seed: u64) -> Res<Derived> {
    let users = derived.num_users();
    if users <= SCAN_USERS {
        return Ok(derived.clone());
    }
    // Selection sampling: each user is kept with probability
    // (still needed) / (still available), giving a uniform subset.
    let mut rng = Rng::new(seed);
    let mut keep = Vec::with_capacity(SCAN_USERS);
    for u in 0..users {
        let needed = SCAN_USERS - keep.len();
        if (rng.below(users - u) as usize) < needed {
            keep.push(u);
        }
    }
    let rows = |m: &Dense| -> Res<Dense> {
        let data = keep.iter().flat_map(|&u| m.row(u)).copied().collect();
        Ok(Dense::from_vec(keep.len(), m.ncols(), data)?)
    };
    Ok(Derived {
        expertise: rows(&derived.expertise)?,
        affiliation: rows(&derived.affiliation)?,
        per_category: derived.per_category.iter().map(Arc::clone).collect(),
    })
}

/// Per-iteration times of the offline stage.
#[derive(Debug, Default)]
pub struct Offline {
    pub derive_s: Vec<f64>,
    pub fig3_s: Vec<f64>,
    pub topk_s: Vec<f64>,
    pub check: Report,
}

impl Offline {
    /// derive + both scans, per iteration.
    pub fn e2e_s(&self) -> Vec<f64> {
        (0..self.derive_s.len())
            .map(|k| self.derive_s[k] + self.fig3_s[k] + self.topk_s[k])
            .collect()
    }
}

impl Offline {
    /// Repeats derive → Fig. 3 scan → top-10 scan, at least once and until
    /// `budget` has passed, and checks the last iteration's outputs. A run
    /// calls this at three points spread over its length: the machine's
    /// speed drifts over seconds, and the fastest iteration is only a good
    /// estimate if some iteration can land in a quiet stretch.
    pub fn iterate(
        &mut self,
        store: &CommunityStore,
        cfg: &DeriveConfig,
        blocks: &BlockConfig,
        seed: u64,
        budget: Duration,
    ) -> Res<()> {
        let began = Instant::now();
        loop {
            let t = Instant::now();
            let derived = pipeline::derive(store, cfg)?;
            self.derive_s.push(t.elapsed().as_secs_f64());
            let view = scan_view(&derived, SAMPLE_SEED)?;
            let t = Instant::now();
            let fig3 = streaming::fig3_aggregates(&view, blocks)?;
            self.fig3_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let top = streaming::top_k_trusted(&view, TOP_K as usize, blocks)?;
            self.topk_s.push(t.elapsed().as_secs_f64());
            if began.elapsed() >= budget {
                let report = check_scans(&view, &fig3, &top, seed)?;
                self.check.compared += report.compared;
                self.check.mismatched += report.mismatched;
                return Ok(());
            }
        }
    }
}

/// Drains `take` blocks, touching one value of each so none is elided.
fn drain(view: &Derived, cfg: &BlockConfig, take: usize) -> Res<(f64, usize)> {
    let t = Instant::now();
    let mut n = 0;
    let mut touched = 0.0;
    for block in view.trust_blocks(cfg)?.take(take) {
        touched += block.values().first().copied().unwrap_or(0.0);
        n += 1;
    }
    std::hint::black_box(touched);
    Ok((t.elapsed().as_secs_f64(), n))
}

/// The traced breakdown of one offline iteration: how much of each scan
/// is the Eq. 5 block kernel and how much the reducer on top of it.
pub fn layers(
    store: &CommunityStore,
    cfg: &DeriveConfig,
    blocks: &BlockConfig,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Vec<Metric>,
) -> Res<Report> {
    let (derived, derive_s) = rec.time("core.pipeline.derive", 0, || pipeline::derive(store, cfg));
    let derived = derived?;
    let sweeps: usize = derived.per_category.iter().map(|c| c.iterations).sum();
    out.push(Metric::new("core.pipeline.derive_s", derive_s, "s"));
    out.push(Metric::new("core.riggs.sweeps", sweeps as f64, "count"));

    let view = scan_view(&derived, SAMPLE_SEED)?;
    let scan = view.trust_blocks(blocks)?;
    let (n, c) = (scan.num_users(), view.num_categories());
    let (num_blocks, block_bytes) = (scan.num_blocks(), scan.max_block_bytes());
    drop(scan);
    // Untimed first pass: a process's first 32 MiB blocks are fresh pages
    // from the kernel, later ones recycled heap, and every scan after
    // this one runs on recycled heap.
    drain(&view, blocks, usize::MAX)?;
    let open = rec.enter("core.trust_blocks.drain", 0);
    let (drain_s, drained) = drain(&view, blocks, usize::MAX)?;
    rec.exit(open);
    out.push(Metric::new("core.trust_blocks.drain_s", drain_s, "s"));
    out.push(Metric::new(
        "core.trust_blocks.cells",
        (n * n) as f64,
        "count",
    ));
    out.push(Metric::new(
        "core.trust_blocks.blocks",
        drained as f64,
        "count",
    ));
    out.push(Metric::new(
        "core.trust_blocks.block_bytes",
        block_bytes as f64,
        "B",
    ));
    // Computed operation count: one multiply-add per category per cell.
    let flops = 2.0 * c as f64 * (n * n) as f64;
    out.push(Metric::new(
        "core.trust_blocks.gflops",
        flops / drain_s / 1e9,
        "GFLOP/s",
    ));

    let take = num_blocks.min(SPEEDUP_BLOCKS);
    let sequential = BlockConfig {
        threads: 1,
        ..blocks.clone()
    };
    let mut speedups = Vec::new();
    for _ in 0..3 {
        let (one_s, _) = drain(&view, &sequential, take)?;
        let (par_s, _) = drain(&view, blocks, take)?;
        speedups.push(one_s / par_s);
    }
    out.push(Metric::new("par.threads", blocks.threads as f64, "count"));
    out.push(Metric::new(
        "par.drain_speedup",
        median(&mut speedups),
        "ratio",
    ));

    let (fig3, fig3_s) = rec.time("eval.streaming.fig3", 0, || {
        streaming::fig3_aggregates(&view, blocks)
    });
    let fig3 = fig3?;
    let (top, topk_s) = rec.time("eval.streaming.top_k", 0, || {
        streaming::top_k_trusted(&view, TOP_K as usize, blocks)
    });
    let top = top?;
    // The reducers run on the calling thread over blocks the kernel
    // filled; what a scan costs beyond the bare drain is theirs.
    out.push(Metric::new(
        "eval.streaming.fig3_reduce_s",
        fig3_s - drain_s,
        "s",
    ));
    out.push(Metric::new(
        "eval.streaming.topk_reduce_s",
        topk_s - drain_s,
        "s",
    ));
    out.push(Metric::new(
        "eval.streaming.support",
        fig3.support as f64,
        "count",
    ));
    check_scans(&view, &fig3, &top, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wot_synth::SynthConfig;

    #[test]
    fn small_communities_are_scanned_whole() {
        let store = wot_synth::generate(&SynthConfig::tiny(3)).unwrap().store;
        let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        assert_eq!(scan_view(&d, 1).unwrap(), d);
    }

    #[test]
    fn a_sample_keeps_rows_intact_and_repeats_for_a_seed() {
        let users = SCAN_USERS + 1000;
        let mut cfg = SynthConfig::tiny(3);
        cfg.num_users = users;
        let store = wot_synth::generate(&cfg).unwrap().store;
        let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let v = scan_view(&d, 9).unwrap();
        assert_eq!(v.num_users(), SCAN_USERS);
        assert_eq!(v, scan_view(&d, 9).unwrap());
        assert_ne!(v, scan_view(&d, 10).unwrap());
        // Every sampled row is some original user's (A, E) row pair, in
        // ascending user order.
        let mut from = 0;
        for r in 0..SCAN_USERS {
            let at = (from..users)
                .find(|&u| {
                    d.affiliation.row(u) == v.affiliation.row(r)
                        && d.expertise.row(u) == v.expertise.row(r)
                })
                .expect("sampled row exists in the source");
            from = at + 1;
        }
    }

    #[test]
    fn offline_stage_accumulates_and_checks_its_outputs() {
        let store = wot_synth::generate(&SynthConfig::tiny(3)).unwrap().store;
        let mut o = Offline::default();
        for _ in 0..2 {
            o.iterate(
                &store,
                &DeriveConfig::default(),
                &BlockConfig::sequential(),
                4,
                Duration::ZERO,
            )
            .unwrap();
        }
        assert_eq!(o.derive_s.len(), 2);
        assert_eq!(o.e2e_s().len(), 2);
        assert_eq!(o.check.mismatched, 0);
        assert_eq!(o.check.compared, 2 * 17);
    }
}
