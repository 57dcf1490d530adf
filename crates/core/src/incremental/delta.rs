//! The refresh paths: the delta worklist, whose passes are push or pull
//! by frontier width, and the full warm sweep it is proven against — per
//! category, and fanned out over the model's stale categories.

use wot_community::{CategoryId, ReviewId, UserId};

use super::category::CategoryState;
use super::IncrementalDerived;
use crate::{riggs, DeriveConfig};

/// A set of local node indexes as a bitmap: O(1) duplicate-free insert,
/// members read back in ascending order, and small enough (one bit per
/// node — 3.5 KB for a paper-scale category's raters) that emptying it is
/// a memset and probing it stays in L1.
#[derive(Debug, Clone, Default)]
struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// Empties the set and sizes it for nodes `0..n`.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.len = 0;
    }

    /// Sizes the set for at least nodes `0..n`, keeping its members. The
    /// words are grown exactly: a set that lives between refreshes holds
    /// one bit per node and no slack.
    #[inline]
    fn fit(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if words > self.words.len() {
            self.words.reserve_exact(words - self.words.len());
            self.words.resize(words, 0);
        }
    }

    /// Empties the set, keeping its size.
    fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    #[inline]
    fn insert(&mut self, i: u32) {
        let word = &mut self.words[i as usize / 64];
        let bit = 1u64 << (i % 64);
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Removes every member, handing each to `visit` in ascending order.
    #[inline]
    fn drain(&mut self, mut visit: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                visit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.len = 0;
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }
}

/// The delta worklist's working memory, kept per category so a refresh
/// allocates nothing.
///
/// Between refreshes the frontiers hold the **pending seeds**: the review
/// and the rater of every rating added or revised since the last refresh,
/// marked by [`seed`](Self::seed) as the event is applied (new reviews
/// mark nothing: an unrated review's quality is exact at insert and
/// influences no rater). The seen sets hold the last refresh's visit
/// marks, which [`CategoryState::trace`] reads. A refresh starts from the
/// seeds, empties the seen sets at [`begin`](Self::begin), and leaves both
/// frontiers empty at [`finish`](Self::finish), whatever stopped it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaScratch {
    /// Reviews / raters queued for recomputation. A set, so the worklist
    /// is duplicate-free; drained in ascending order, so a pass walks the
    /// arenas front to back instead of in discovery order.
    rev_frontier: NodeSet,
    rat_frontier: NodeSet,
    /// Reviews / raters the current (or last) refresh recomputed.
    rev_seen: NodeSet,
    rat_seen: NodeSet,
}

impl DeltaScratch {
    /// Marks the rating of local review `local` by local rater `lr` for
    /// the next delta solve, growing the frontiers to cover both.
    #[inline]
    pub(super) fn seed(&mut self, lr: u32, local: u32) {
        self.rev_frontier.fit(local as usize + 1);
        self.rev_frontier.insert(local);
        // The seed rater must recompute even if its review's quality
        // holds still: the rating changed the rater's own n, discount
        // and deviation terms directly.
        self.rat_frontier.fit(lr as usize + 1);
        self.rat_frontier.insert(lr);
    }

    /// Sizes the scratch for a category of `n_rev` reviews and `n_rat`
    /// raters, keeping the seeds, and empties the seen sets.
    fn begin(&mut self, n_rev: usize, n_rat: usize) {
        self.rev_frontier.fit(n_rev);
        self.rat_frontier.fit(n_rat);
        self.rev_seen.reset(n_rev);
        self.rat_seen.reset(n_rat);
    }

    /// Empties the frontiers at the end of a refresh: a converged delta
    /// solve already has, but a solve cut off by the iteration cap leaves
    /// its last frontier, and the full warm sweep never reads the seeds.
    fn finish(&mut self) {
        self.rev_frontier.clear();
        self.rat_frontier.clear();
    }

    /// Keeps the pending seeds and frees the rest: the seen sets hold
    /// the last refresh's visit marks, which the next refresh empties
    /// anyway.
    pub(super) fn compact(&mut self) {
        *self = DeltaScratch {
            rev_frontier: std::mem::take(&mut self.rev_frontier),
            rat_frontier: std::mem::take(&mut self.rat_frontier),
            ..DeltaScratch::default()
        };
    }

    /// Heap bytes of the pending seeds: both frontiers, at capacity.
    pub(super) fn seed_bytes(&self) -> usize {
        (self.rev_frontier.words.capacity() + self.rat_frontier.words.capacity()) * 8
    }
}

/// Delta refreshes of one category between two residual audits: every
/// `AUDIT_EVERY`-th delta refresh of a category measures how far its warm
/// state sits from a fixed point of Eqs. 1–2 ([`DeltaReport::residual`]).
/// An audit costs about one dense pass, so at this cadence it stays out
/// of the median refresh.
pub const AUDIT_EVERY: u64 = 16;

/// Residual above which an audit re-sweeps the category: the full warm
/// sweep at [`DeriveConfig::fixpoint_tolerance`], as a refresh with delta
/// refresh off runs it. A tenth of the `1e-6` the warm state is held to
/// against the cold solve; the residual tracks that distance closely
/// (within 12 % on 1 k-event paper-preset tails at cut-offs 1e-9–1e-7).
pub const AUDIT_BOUND: f64 = 1e-7;

/// What one refresh did — the worklist's audit trail, exposed by
/// [`IncrementalDerived::refresh_traced`] so tests can prove no node was
/// left stale (every node whose value moved must appear here).
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Passes executed, worklist and dense alike, re-sweep passes
    /// included.
    pub sweeps: usize,
    /// Whether the tolerance was met before the iteration cap (the
    /// re-sweep's, when one ran).
    pub converged: bool,
    /// Whether at least one pass was dense — every review, then every
    /// rater — so the visited lists hold the whole category. The delta
    /// solver runs a dense pass whenever the frontier exceeds
    /// [`DeriveConfig::delta_frontier_threshold`], and an audit's re-sweep
    /// is dense throughout, as is the full warm sweep (delta refresh off).
    /// `false` when the category had nothing to iterate.
    pub fell_back: bool,
    /// The fixed-point residual after the delta solve, when this refresh
    /// was one of the category's audited ones ([`AUDIT_EVERY`]); `None`
    /// otherwise, and always with delta refresh off.
    pub residual: Option<f64>,
    /// Full warm sweeps the audit ran because the residual exceeded
    /// [`AUDIT_BOUND`] (0 or 1); their passes count in
    /// [`sweeps`](Self::sweeps).
    pub resweeps: usize,
    /// Reviews the solver recomputed, as global ids.
    pub visited_reviews: Vec<ReviewId>,
    /// Raters the solver recomputed, as global user ids.
    pub visited_raters: Vec<UserId>,
}

impl DeltaReport {
    /// A refresh with nothing to iterate: no pass, nothing visited.
    fn idle() -> Self {
        DeltaReport {
            sweeps: 0,
            converged: true,
            fell_back: false,
            residual: None,
            resweeps: 0,
            visited_reviews: Vec::new(),
            visited_raters: Vec::new(),
        }
    }
}

impl CategoryState {
    /// Re-solves the category in place through whichever path
    /// [`DeriveConfig::delta_refresh`] selects — the delta solve or the
    /// full warm sweep — clears the staleness bookkeeping (seeds
    /// included) and reports what was done, visited lists left empty.
    ///
    /// A delta refresh at a frontier threshold of 0 is the full warm
    /// sweep, run as such: every pass would be dense, and the sweep's own
    /// [`DeriveConfig::fixpoint_tolerance`] keeps it bit for bit what a
    /// refresh with delta refresh off computes, whatever
    /// [`DeriveConfig::delta_tolerance`] is. Any other delta refresh is
    /// counted, and every [`AUDIT_EVERY`]-th one audits the residual the
    /// looser cut-off left: past [`AUDIT_BOUND`] it re-sweeps the category
    /// and bumps its data version, so the next publish patches it. The
    /// count lives in the category's state, so the audit lands on the same
    /// refreshes for every thread count, arena layout and replica.
    pub(super) fn refresh(&mut self, cfg: &DeriveConfig) -> DeltaReport {
        let report = if cfg.delta_refresh && cfg.delta_frontier_threshold > 0.0 {
            let mut report = self.solve_delta(cfg);
            self.delta_refreshes += 1;
            if self.delta_refreshes.is_multiple_of(AUDIT_EVERY) {
                self.audit(cfg, &mut report);
            }
            report
        } else {
            let (sweeps, converged) = self.solve_warm(cfg);
            DeltaReport {
                sweeps,
                converged,
                fell_back: sweeps > 0,
                ..DeltaReport::idle()
            }
        };
        self.last_iterations = report.sweeps;
        self.last_converged = report.converged;
        self.stale = false;
        self.scratch.finish();
        report
    }

    /// Measures the warm state's residual into `report` and, past
    /// [`AUDIT_BOUND`], re-sweeps the category warm at
    /// [`DeriveConfig::fixpoint_tolerance`].
    fn audit(&mut self, cfg: &DeriveConfig, report: &mut DeltaReport) {
        let residual = riggs::residual(
            &self.ratings_by_review_local,
            &self.ratings_by_rater_local,
            &self.rater_discount,
            cfg,
            &self.quality,
            &self.reputation,
        );
        report.residual = Some(residual);
        if residual > AUDIT_BOUND {
            let (sweeps, converged) = self.solve_warm(cfg);
            report.sweeps += sweeps;
            report.converged = converged;
            report.fell_back |= sweeps > 0;
            report.resweeps += 1;
            self.data_version += 1;
        }
    }

    /// The **delta solver**: starts from the pending seeds already marked
    /// in its frontiers (the one review and one rater each new or revised
    /// rating touches) and propagates Eq. 1 / Eq. 2 recomputations
    /// through the bipartite incidence only while a node moves by more than
    /// [`DeriveConfig::delta_tolerance`] — the only reader of that
    /// cut-off. Each pass picks its own kind from its own frontier (push
    /// or pull, as in Beamer et al.'s direction-optimising search):
    ///
    /// * frontier wider than [`DeriveConfig::delta_frontier_threshold`] ×
    ///   (reviews + raters): a **dense pass** — every review, then every
    ///   rater, through [`riggs::dense_pass`], the pass the full warm
    ///   sweep runs; the reviews of every rater that moved past the
    ///   cut-off are the next frontier;
    /// * otherwise a **worklist pass** that drains the frontiers.
    ///
    /// Nothing is abandoned: the next pass reads the frontier the last one
    /// left. Converged means the frontier is empty, which after a dense
    /// pass is the full sweep's test at the delta cut-off (the largest
    /// rater move is within it), and the iteration cap counts every pass.
    /// Both half-steps are Jacobi — a node reads only the other side's
    /// values — so which nodes a pass visits, and in what order, changes
    /// no value a recomputed node lands on. At threshold 1 no pass is
    /// dense; threshold 0 never gets here ([`refresh`](Self::refresh)
    /// runs the full warm sweep instead).
    ///
    /// Per-node arithmetic is [`riggs::quality_one`] /
    /// [`riggs::reputation_one`] over the node's arena slices — the calls
    /// the dense pass makes, over the memory it reads. The canonical cold
    /// snapshot ([`IncrementalDerived::to_derived`]) never reads this warm
    /// state, which is how delta mode keeps the bit-identical-to-batch
    /// contract untouched.
    fn solve_delta(&mut self, cfg: &DeriveConfig) -> DeltaReport {
        let n_rev = self.reviews.len();
        let n_rat = self.rater_of_local.len();
        self.scratch.begin(n_rev, n_rat);
        // Mirror `solve_warm`'s unrated-only early return: nothing to
        // iterate, no phantom sweeps, no node visited.
        if self.num_ratings() == 0 {
            self.quality.fill(cfg.unrated_review_quality);
            return DeltaReport::idle();
        }
        let Self {
            ratings_by_review_local: by_review,
            ratings_by_rater_local: by_rater,
            rater_discount,
            quality,
            reputation,
            scratch,
            ..
        } = self;
        let DeltaScratch {
            rev_frontier,
            rat_frontier,
            rev_seen,
            rat_seen,
        } = scratch;
        let total = (n_rev + n_rat) as f64;
        let cut_off = cfg.delta_tolerance;
        let mut sweeps = 0usize;
        let mut converged = false;
        let mut dense = false;
        loop {
            let active = rev_frontier.len + rat_frontier.len;
            if active == 0 {
                converged = true;
                break;
            }
            if sweeps >= cfg.fixpoint_max_iters {
                break;
            }
            sweeps += 1;
            // Strict `>`: at 1 no frontier runs dense (a frontier is at
            // most the whole category).
            if active as f64 > cfg.delta_frontier_threshold * total {
                dense = true;
                // The pass recomputes every node, so the frontier it
                // replaces is spent; the next one is the reviews of the
                // raters that moved past the cut-off.
                rev_frontier.reset(n_rev);
                rat_frontier.reset(n_rat);
                riggs::dense_pass(
                    by_review,
                    by_rater,
                    rater_discount,
                    cfg,
                    cut_off,
                    quality,
                    reputation,
                    |reviews| {
                        for &j in reviews {
                            rev_frontier.insert(j);
                        }
                    },
                );
                continue;
            }
            // Eq. 1 half-sweep: recompute dirty reviews; a quality move
            // beyond the cut-off dirties every rater of that review.
            rev_frontier.drain(|j| {
                rev_seen.insert(j as u32);
                let (raters, values) = by_review.node(j);
                let q = riggs::quality_one(raters, values, reputation, cfg);
                let moved = (q - quality[j]).abs() > cut_off;
                quality[j] = q;
                if moved {
                    for &lr in raters {
                        rat_frontier.insert(lr);
                    }
                }
            });
            // Eq. 2 half-sweep: recompute dirty raters; a reputation move
            // beyond the cut-off dirties every review they rated, for the
            // next pass.
            rat_frontier.drain(|i| {
                rat_seen.insert(i as u32);
                let (reviews, values) = by_rater.node(i);
                let rep = riggs::reputation_one(reviews, values, quality, rater_discount[i]);
                let moved = (rep - reputation[i]).abs() > cut_off;
                reputation[i] = rep;
                if moved {
                    for &j in reviews {
                        rev_frontier.insert(j);
                    }
                }
            });
        }
        DeltaReport {
            sweeps,
            converged,
            fell_back: dense,
            ..DeltaReport::idle()
        }
    }

    /// Fills `report`'s visited lists — the nodes the refresh that
    /// returned it recomputed, as global ids in ascending local order:
    /// every node once a dense pass ran, the marked ones after worklist
    /// passes only. Valid until the next refresh.
    fn trace(&self, report: &mut DeltaReport) {
        if report.fell_back {
            report.visited_reviews = self.reviews.clone();
            report.visited_raters = self.rater_of_local.clone();
            return;
        }
        let DeltaScratch {
            rev_seen, rat_seen, ..
        } = &self.scratch;
        report.visited_reviews = rev_seen.iter().map(|j| self.reviews[j]).collect();
        report.visited_raters = rat_seen.iter().map(|i| self.rater_of_local[i]).collect();
    }
}

impl IncrementalDerived {
    /// Re-solves one category if stale, warm-starting from the previous
    /// reputations. Returns `(sweeps, converged)`; `(0, true)` when the
    /// category was already fresh, out of range, or stale but without any
    /// ratings to iterate (unrated reviews are assigned their quality
    /// directly — no phantom sweeps are reported).
    ///
    /// With [`DeriveConfig::delta_refresh`] on, the solve is the delta
    /// solve (seeded by the ratings since the last refresh), whose passes
    /// are dense while the frontier is wider than the configured fraction
    /// and drain the worklist otherwise; off (the default), it is the
    /// full warm sweep — the oracle the delta path is proven against.
    pub fn refresh(&mut self, category: CategoryId) -> (usize, bool) {
        let report = self.refresh_one(category, false);
        (report.sweeps, report.converged)
    }

    /// Like [`refresh`](Self::refresh), but reports the solver's audit
    /// trail: which path ran and exactly which nodes were recomputed.
    /// The coverage contract — every node whose warm value differs from
    /// its pre-refresh value appears in the visited sets — is what the
    /// workspace's delta proptests assert.
    pub fn refresh_traced(&mut self, category: CategoryId) -> DeltaReport {
        self.refresh_one(category, true)
    }

    /// The body of both: refreshes `category` if it is stale, and lists
    /// the visited nodes only if `trace`.
    fn refresh_one(&mut self, category: CategoryId, trace: bool) -> DeltaReport {
        match self.categories.get_mut(category.index()) {
            Some(state) if state.stale => {
                let mut report = state.refresh(&self.cfg);
                if trace {
                    state.trace(&mut report);
                }
                report
            }
            _ => DeltaReport::idle(),
        }
    }

    /// Re-solves every stale category in place, fanning out over up to
    /// [`DeriveConfig::effective_threads`] `wot-par` workers (stale
    /// categories are independent fixed points, so the refreshed state is
    /// identical for every thread count — delta worklists included, since
    /// each runs wholly inside its category). Returns total sweeps
    /// executed.
    ///
    /// Each worker owns a contiguous run of categories `&mut`, cut so the
    /// runs carry near-equal shares of the stale categories' ratings: a
    /// solve advances the warm buffers and reuses the worklist scratch
    /// where they live, which a fan-out over `&self` could not. One stale
    /// category — the per-event case — is one run, solved on the calling
    /// thread.
    pub fn refresh_all(&mut self) -> usize {
        let stale: Vec<usize> = self
            .categories
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.stale.then_some(c))
            .collect();
        if stale.is_empty() {
            return 0;
        }
        let cfg = &self.cfg;
        let mut cum = Vec::with_capacity(self.categories.len() + 1);
        cum.push(0);
        for s in &self.categories {
            let weight = if s.stale { s.num_ratings() + 1 } else { 0 };
            cum.push(cum[cum.len() - 1] + weight);
        }
        // Resolving the thread count can read the cgroup CPU quota; one
        // stale category — the per-event case — is one run regardless.
        let runs = if stale.len() > 1 {
            cfg.effective_threads().min(stale.len())
        } else {
            1
        };
        let boundaries = wot_par::weighted_boundaries(&cum, runs);
        wot_par::par_chunks_mut(&mut self.categories, &boundaries, |_, run| {
            for state in run.iter_mut().filter(|s| s.stale) {
                state.refresh(cfg);
            }
        });
        stale
            .iter()
            .map(|&c| self.categories[c].last_iterations)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::tests::{delta_cfg, sample_store};

    #[test]
    fn members_come_back_once_and_ascending_across_word_boundaries() {
        let mut set = NodeSet::default();
        set.reset(130);
        for i in [129, 0, 64, 63, 64, 0, 65] {
            set.insert(i);
        }
        assert_eq!(set.len, 5);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 65, 129]);
        let mut drained = Vec::new();
        set.drain(|i| drained.push(i));
        assert_eq!(drained, [0, 63, 64, 65, 129]);
        assert_eq!((set.len, set.iter().count()), (0, 0));
        // A reset empties whatever is left and follows the category's size.
        set.insert(7);
        set.reset(200);
        assert_eq!((set.len, set.iter().count()), (0, 0));
        set.insert(199);
        assert_eq!(set.iter().collect::<Vec<_>>(), [199]);
    }

    /// Seeds are marks in the frontier bitmaps, the delta solve's alone:
    /// a model without delta refresh marks nothing, and a delta model's
    /// seeds take one bit a node per frontier however many events
    /// arrived. A refresh leaves no mark behind, whether it converged or
    /// the iteration cap cut it off.
    #[test]
    fn seeds_are_frontier_bits_for_the_delta_solve_only() {
        let users = 40u32;
        let ingest = |cfg: &DeriveConfig| {
            let mut inc = IncrementalDerived::new(users as usize, 1, cfg).unwrap();
            for r in 0..users {
                inc.add_review(UserId(r), ReviewId(r), CategoryId(0))
                    .unwrap();
            }
            for rater in 0..users {
                for r in (0..users).filter(|&r| r != rater) {
                    inc.add_rating(UserId(rater), ReviewId(r), 0.5).unwrap();
                }
            }
            inc
        };
        let marks = |inc: &IncrementalDerived| {
            let scratch = &inc.categories[0].scratch;
            (scratch.rev_frontier.len, scratch.rat_frontier.len)
        };
        let cold = ingest(&DeriveConfig::default());
        assert_eq!(cold.heap_bytes().seeds, 0);

        let mut delta = ingest(&delta_cfg(0.25));
        // 1,560 ratings mark each of the 40 reviews and 40 raters once,
        // in one 8-byte word per frontier.
        assert_eq!(marks(&delta), (40, 40));
        assert_eq!(delta.heap_bytes().seeds, 2 * 8);
        delta.refresh_all();
        assert_eq!(marks(&delta), (0, 0));
        // A revision marks its review and its rater only.
        delta.upsert_rating(UserId(0), ReviewId(1), 0.75).unwrap();
        assert_eq!(marks(&delta), (1, 1));
        delta.refresh(CategoryId(0));
        assert_eq!(marks(&delta), (0, 0));

        // A solve cut off by the iteration cap drops its last frontier.
        let capped = DeriveConfig::builder()
            .delta_refresh(true)
            .delta_frontier_threshold(1.0)
            .fixpoint_max_iters(1)
            .build()
            .unwrap();
        let mut capped = ingest(&capped);
        capped.upsert_rating(UserId(0), ReviewId(1), 1.0).unwrap();
        let (_, converged) = capped.refresh(CategoryId(0));
        assert!(!converged);
        assert_eq!(marks(&capped), (0, 0));
    }

    /// Frontier-threshold boundary semantics: at 0 every pass is dense —
    /// the full warm sweep, same bits, same sweep count — and at 1 none
    /// is.
    #[test]
    fn delta_frontier_boundary_semantics() {
        let store = sample_store();
        for (threshold, expect_fallback) in [(0.0, true), (1.0, false)] {
            let cfg = delta_cfg(threshold);
            let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
            let mut full =
                IncrementalDerived::from_store(&store, &DeriveConfig::default()).unwrap();
            let rt = store.ratings().iter().next().unwrap();
            // A revision seeds the worklist without touching counts.
            assert!(inc.upsert_rating(rt.rater, rt.review, 0.55).unwrap());
            assert!(full.upsert_rating(rt.rater, rt.review, 0.55).unwrap());
            let cat = store.reviews()[rt.review.index()].category;
            let report = inc.refresh_traced(cat);
            assert_eq!(report.fell_back, expect_fallback, "threshold {threshold}");
            if expect_fallback {
                // Dense passes recomputed every node of the category…
                let state = &inc.categories[cat.index()];
                assert_eq!(report.visited_reviews.len(), state.reviews.len());
                assert_eq!(report.visited_raters.len(), state.rater_of_local.len());
                // …and are the full warm sweep, pass for pass.
                let (sweeps, converged) = full.refresh(cat);
                assert_eq!((report.sweeps, report.converged), (sweeps, converged));
                let twin = &full.categories[cat.index()];
                assert_eq!(state.quality, twin.quality);
                assert_eq!(state.reputation, twin.reputation);
            }
            assert!(!inc.categories[cat.index()].stale);
            let scratch = &inc.categories[cat.index()].scratch;
            assert_eq!((scratch.rev_frontier.len, scratch.rat_frontier.len), (0, 0));
        }
    }

    /// The worklist's coverage contract on a single perturbation: every
    /// node whose warm value moved appears in the visited sets.
    #[test]
    fn delta_visited_covers_every_changed_node() {
        let store = sample_store();
        let cfg = delta_cfg(1.0);
        let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        let rt = store.ratings().iter().next().unwrap();
        let cat = store.reviews()[rt.review.index()].category;
        let before = inc.categories[cat.index()].clone();
        assert!(inc.upsert_rating(rt.rater, rt.review, 0.15).unwrap());
        let report = inc.refresh_traced(cat);
        assert!(!report.fell_back);
        assert!(report.sweeps >= 1);
        let after = &inc.categories[cat.index()];
        for (j, (x, y)) in before.quality.iter().zip(&after.quality).enumerate() {
            if x.to_bits() != y.to_bits() {
                let rid = after.reviews[j];
                assert!(
                    report.visited_reviews.contains(&rid),
                    "review {rid} moved but was not visited"
                );
            }
        }
        for (i, (x, y)) in before.reputation.iter().zip(&after.reputation).enumerate() {
            if x.to_bits() != y.to_bits() {
                let u = after.rater_of_local[i];
                assert!(
                    report.visited_raters.contains(&u),
                    "rater {u} moved but was not visited"
                );
            }
        }
    }
}
