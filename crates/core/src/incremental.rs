//! Incremental (online) maintenance of the derived model, on the **same
//! index-dense layout as the batch pipeline**.
//!
//! A deployed community ingests ratings continuously; re-running the whole
//! batch pipeline per event is wasteful. [`IncrementalDerived`] keeps the
//! per-category fixed-point state alive — and that state *is* the batch
//! layout: flat `Vec<f64>` quality/reputation buffers plus the grouped
//! local-index incidence (`ratings_by_review_local` and
//! `ratings_by_rater_local`, each one [`Incidence`] arena — the type a
//! batch `CategorySlice` holds — and `reviews_by_writer_local`) that
//! [`riggs`](crate::riggs#)'s one and only sweep loop walks in place.
//! There is no `HashMap` in the fixed-point state, no second solver and
//! no copy of the ratings made for a solve:
//!
//! * [`ingest`](IncrementalDerived::ingest) (and the
//!   [`add_review`](IncrementalDerived::add_review) /
//!   [`add_rating`](IncrementalDerived::add_rating) shorthands) admits
//!   the event through [`admission::admit`] — the one rule every ingest
//!   path applies, over the model's [`ReviewTable`] — and only then grows
//!   the local index tables in place — O(1) scatter-table lookups (user
//!   index → local index), amortized O(1) appends into the arenas'
//!   per-node slack — marking only its category **stale**;
//! * [`refresh`](IncrementalDerived::refresh) re-solves one stale category
//!   through the shared solver, **warm-starting** from the previous
//!   reputations — after a single rating the fixed point typically
//!   re-converges in a small fraction of the cold-start sweeps;
//! * [`refresh_all`](IncrementalDerived::refresh_all) fans the stale
//!   categories out over `wot-par` worker threads
//!   ([`DeriveConfig::parallel`] / [`DeriveConfig::threads`]) with the
//!   batch pipeline's determinism guarantee: the refreshed state does not
//!   depend on the thread count;
//! * [`to_derived`](IncrementalDerived::to_derived) produces the canonical
//!   [`Derived`] snapshot by **cold-solving** every category from the
//!   in-place index tables — the same arithmetic, in the same order, as
//!   [`pipeline::derive`](crate::pipeline::derive) over the equivalent
//!   store, so the snapshot is **bit-identical** to the batch output (the
//!   workspace's replay-conformance suite asserts this with `==` on
//!   `f64`, for any thread count);
//! * [`replay`](IncrementalDerived::replay) folds an event log
//!   ([`ReplayEvent`], a superset of
//!   [`wot_community::StoreEvent`] with refresh markers) and returns that
//!   canonical snapshot.
//!
//! ## Why the snapshot is bit-identical *by construction*
//!
//! The batch `CategorySlice` and this module's `CategoryState` maintain
//! the same three groupings, in the same element order: ratings per
//! review in ingestion order (which is exactly how `CommunityStore` groups
//! them), ratings per rater in ascending local-review order (enforced here
//! by sorted insertion), reviews per writer in ascending local-review
//! order (automatic, appends only). Both hand their arenas to
//! `riggs::solve_warm`; where a node's edges physically sit (exactly
//! packed in a slice, relocated or compacted here) never changes their
//! order — identical summation order means identical floating-point
//! bits, identical sweep counts and identical convergence flags, not just
//! values "within tolerance". The paper itself is batch-only; this module
//! is the natural production extension, with the conformance suite as its
//! contract.
//!
//! Memory: each category holds two `num_users`-sized `u32` scatter tables
//! (rater and writer local-index resolution) — the same tables the batch
//! slice builder allocates transiently, kept alive here because the
//! incremental model must resolve locals on every event.

use std::sync::Arc;

use wot_community::{CategoryId, CommunityStore, Incidence, ReviewId, StoreEvent, UserId};
use wot_sparse::Dense;

use crate::admission::{self, AdmissionView, IdRule, Rejection, ReviewRow, ReviewTable};
use crate::affiliation::ActivityLedger;
use crate::assemble::Assembler;
use crate::pipeline::{CategoryReputation, Derived};
use crate::{reputation, riggs, CoreError, DeriveConfig, Result};

/// One event of a derivation replay: the community's ingestion events
/// ([`StoreEvent`]) plus explicit refresh markers, so a recorded log can
/// reproduce not only *what* was ingested but *when* the online model
/// re-solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayEvent {
    /// A review was published.
    Review {
        /// The review's author.
        writer: UserId,
        /// The review's id (dense, in review-arrival order).
        review: ReviewId,
        /// The category reviewed in.
        category: CategoryId,
    },
    /// A review received a rating.
    Rating {
        /// The user who rated.
        rater: UserId,
        /// The rated review.
        review: ReviewId,
        /// Rating value in `[0, 1]`.
        value: f64,
    },
    /// Re-solve one category if stale (a no-op otherwise).
    Refresh {
        /// The category to refresh.
        category: CategoryId,
    },
    /// Re-solve every stale category.
    RefreshAll,
}

impl From<StoreEvent> for ReplayEvent {
    fn from(e: StoreEvent) -> Self {
        match e {
            StoreEvent::Review {
                writer,
                review,
                category,
            } => ReplayEvent::Review {
                writer,
                review,
                category,
            },
            StoreEvent::Rating {
                rater,
                review,
                value,
            } => ReplayEvent::Rating {
                rater,
                review,
                value,
            },
        }
    }
}

/// Result of cold-solving one category into fresh buffers.
struct SolveOutcome {
    quality: Vec<f64>,
    reputation: Vec<f64>,
    iterations: usize,
    converged: bool,
}

/// A solved category as [`CategoryState::category_reputation`] reads it:
/// borrowed from a fresh [`SolveOutcome`] (the cold path) or from the
/// state's own warm buffers (the warm path) — no copy either way.
#[derive(Clone, Copy)]
struct Solved<'a> {
    quality: &'a [f64],
    reputation: &'a [f64],
    iterations: usize,
    converged: bool,
}

impl SolveOutcome {
    fn solved(&self) -> Solved<'_> {
        Solved {
            quality: &self.quality,
            reputation: &self.reputation,
            iterations: self.iterations,
            converged: self.converged,
        }
    }
}

/// Local indexes in ascending-[`UserId`] order — the order a
/// [`CategoryReputation`] lists its raters and writers in — kept between
/// table builds so a build is a gather, not a sort.
///
/// Locals are handed out in arrival order and never removed, so the ones
/// this order does not cover yet are exactly `len()..`: an implicit
/// unsorted tail that costs `apply` nothing and that
/// [`cover`](Self::cover) sorts and merges in when the next table is
/// built. An empty order (a fresh cache) is all tail.
#[derive(Debug, Clone, Default)]
struct SortedLocals(Vec<u32>);

impl SortedLocals {
    /// Extends the order over every local of `user_of_local`: sorts the
    /// uncovered tail by user and merges it in, in one linear pass.
    fn cover(&mut self, user_of_local: &[UserId]) {
        let covered = self.0.len();
        if covered == user_of_local.len() {
            return;
        }
        let user = |l: u32| user_of_local[l as usize];
        let mut tail: Vec<u32> = (covered as u32..user_of_local.len() as u32).collect();
        // A user holds one local index per category, so keys are distinct
        // and the merged order is the one a full sort by user would give.
        tail.sort_unstable_by_key(|&l| user(l));
        let head = std::mem::take(&mut self.0);
        let mut merged = Vec::with_capacity(user_of_local.len());
        let (mut h, mut t) = (0, 0);
        while h < head.len() && t < tail.len() {
            if user(head[h]) < user(tail[t]) {
                merged.push(head[h]);
                h += 1;
            } else {
                merged.push(tail[t]);
                t += 1;
            }
        }
        merged.extend_from_slice(&head[h..]);
        merged.extend_from_slice(&tail[t..]);
        self.0 = merged;
    }

    /// `(user, value)` of every local, in ascending user order. The order
    /// must [`cover`](Self::cover) `user_of_local`.
    fn gather(&self, user_of_local: &[UserId], value_of_local: &[f64]) -> Vec<(UserId, f64)> {
        debug_assert_eq!(self.0.len(), user_of_local.len());
        self.0
            .iter()
            .map(|&l| (user_of_local[l as usize], value_of_local[l as usize]))
            .collect()
    }
}

/// One category's [`SortedLocals`], raters and writers.
#[derive(Debug, Clone, Default)]
struct TableOrder {
    raters: SortedLocals,
    writers: SortedLocals,
}

/// What one [`CategoryState::refresh`] did to the warm state it solved in
/// place — what kind of passes ran and how many. Which nodes it
/// recomputed (the worklist's coverage proof) stays in the state's
/// [`DeltaScratch`] until the next refresh; [`CategoryState::visited`]
/// lists them on request.
#[derive(Clone, Copy)]
struct RefreshOutcome {
    iterations: usize,
    converged: bool,
    /// At least one dense pass ran, so every node was recomputed.
    dense: bool,
}

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

#[cfg(test)]
mod node_set_tests {
    use super::NodeSet;

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
}

/// The delta worklist's working memory, kept per category so a refresh
/// allocates nothing. It carries nothing from one refresh to the next:
/// [`begin`](Self::begin) empties all four sets, whatever the last
/// refresh left in them (a frontier cut off by the iteration cap, its
/// visit marks).
#[derive(Debug, Clone, Default)]
struct DeltaScratch {
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
    /// Empties the scratch and sizes it for a category of `n_rev` reviews
    /// and `n_rat` raters.
    fn begin(&mut self, n_rev: usize, n_rat: usize) {
        self.rev_frontier.reset(n_rev);
        self.rat_frontier.reset(n_rat);
        self.rev_seen.reset(n_rev);
        self.rat_seen.reset(n_rat);
    }
}

/// What one traced refresh did — the worklist's audit trail, exposed by
/// [`IncrementalDerived::refresh_traced`] so tests can prove no node was
/// left stale (every node whose value moved must appear here).
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Passes executed, worklist and dense alike.
    pub sweeps: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Whether at least one pass was dense — every review, then every
    /// rater — so the visited lists hold the whole category. The delta
    /// solver runs a dense pass whenever the frontier exceeds
    /// [`DeriveConfig::delta_frontier_threshold`]; the full warm sweep
    /// (delta refresh off) is dense throughout. `false` when the category
    /// had nothing to iterate.
    pub fell_back: bool,
    /// Reviews the solver recomputed, as global ids.
    pub visited_reviews: Vec<ReviewId>,
    /// Raters the solver recomputed, as global user ids.
    pub visited_raters: Vec<UserId>,
}

/// Growable per-category fixed-point state — the incremental analogue of
/// [`wot_community::CategorySlice`], carrying the same index-dense grouped
/// incidence plus persistent scatter tables for O(1) local-index
/// resolution.
#[derive(Debug, Clone)]
struct CategoryState {
    /// Global review ids, by local index (arrival order).
    reviews: Vec<ReviewId>,
    /// Ratings received per local review: `(local rater, value)`,
    /// ingestion order.
    ratings_by_review_local: Incidence,
    /// Global user id of each local rater (arrival order).
    rater_of_local: Vec<UserId>,
    /// user index → local rater index (`u32::MAX` = not a rater here).
    rater_slot: Vec<u32>,
    /// Ratings given per local rater: `(local review, value)`, kept
    /// sorted by local review index — the batch slice's ordering, which
    /// is what makes the canonical snapshot bit-identical.
    ratings_by_rater_local: Incidence,
    /// `discount(n_i)` per local rater, kept current by `add_rating` so no
    /// solve, sweep or worklist visit recomputes it.
    rater_discount: Vec<f64>,
    /// Global user id of each local writer (arrival order).
    writer_of_local: Vec<UserId>,
    /// user index → local writer index (`u32::MAX` = not a writer here).
    writer_slot: Vec<u32>,
    /// Local reviews per local writer (ascending local review index).
    reviews_by_writer_local: Vec<Vec<u32>>,
    /// Current review-quality estimates (last refresh).
    quality: Vec<f64>,
    /// Current rater reputations, by local rater (warm-start state).
    reputation: Vec<f64>,
    /// Whether data changed since the last refresh.
    stale: bool,
    /// Monotone counter bumped on every mutation — the invalidation key
    /// for [`DerivedCache`].
    data_version: u64,
    /// Worklist seeds for the delta solver: the `(local rater, local
    /// review)` endpoints of every rating added or revised since the last
    /// refresh. Cleared by every refresh (delta or full); new reviews
    /// seed nothing (an unrated review's quality is exact at insert and
    /// influences no rater).
    pending_seeds: Vec<(u32, u32)>,
    /// Sweep count of the last refresh (for warm snapshot assembly).
    last_iterations: usize,
    /// Convergence flag of the last refresh.
    last_converged: bool,
    /// The delta worklist's reusable working memory.
    scratch: DeltaScratch,
}

impl CategoryState {
    fn empty(num_users: usize) -> Self {
        Self {
            reviews: Vec::new(),
            ratings_by_review_local: Incidence::new(),
            rater_of_local: Vec::new(),
            rater_slot: vec![u32::MAX; num_users],
            ratings_by_rater_local: Incidence::new(),
            rater_discount: Vec::new(),
            writer_of_local: Vec::new(),
            writer_slot: vec![u32::MAX; num_users],
            reviews_by_writer_local: Vec::new(),
            quality: Vec::new(),
            reputation: Vec::new(),
            stale: false,
            data_version: 0,
            pending_seeds: Vec::new(),
            last_iterations: 0,
            last_converged: true,
            scratch: DeltaScratch::default(),
        }
    }

    /// Total ratings ingested. O(1).
    fn num_ratings(&self) -> usize {
        self.ratings_by_review_local.num_edges()
    }

    /// Re-packs both arenas exactly (no slack, no relocated nodes, same
    /// per-node order) and empties the worklist scratch.
    fn compact(&mut self) {
        let packed = |arena: &Incidence| -> Incidence {
            (0..arena.num_nodes()).map(|i| arena.pairs(i)).collect()
        };
        self.ratings_by_review_local = packed(&self.ratings_by_review_local);
        self.ratings_by_rater_local = packed(&self.ratings_by_rater_local);
        self.scratch = DeltaScratch::default();
    }

    /// Where local review `local` sits in rater `lr`'s ascending list:
    /// `Ok(position)` if they rated it, `Err(insertion point)` if not.
    fn find_rating(&self, lr: u32, local: u32) -> std::result::Result<usize, usize> {
        let (reviews, _) = self.ratings_by_rater_local.node(lr as usize);
        reviews.binary_search(&local)
    }

    /// Appends a review; returns its local index.
    fn add_review(&mut self, writer: UserId, review: ReviewId, cfg: &DeriveConfig) -> u32 {
        let local = self.reviews.len() as u32;
        let lw = match self.writer_slot[writer.index()] {
            u32::MAX => {
                let lw = self.writer_of_local.len() as u32;
                self.writer_slot[writer.index()] = lw;
                self.writer_of_local.push(writer);
                self.reviews_by_writer_local.push(Vec::new());
                lw
            }
            lw => lw,
        };
        self.reviews.push(review);
        self.ratings_by_review_local.push_node();
        self.reviews_by_writer_local[lw as usize].push(local);
        self.quality.push(cfg.unrated_review_quality);
        self.stale = true;
        self.data_version += 1;
        local
    }

    /// The local index of `rater`, if they rated in this category.
    fn rater_local(&self, rater: UserId) -> Option<u32> {
        Some(self.rater_slot[rater.index()]).filter(|&lr| lr != u32::MAX)
    }

    /// Appends an admitted rating of local review `local` by `rater`.
    fn add_rating(&mut self, rater: UserId, local: u32, value: f64, cfg: &DeriveConfig) {
        let lr = match self.rater_slot[rater.index()] {
            u32::MAX => {
                let lr = self.rater_of_local.len() as u32;
                self.rater_slot[rater.index()] = lr;
                self.rater_of_local.push(rater);
                self.ratings_by_rater_local.push_node();
                self.rater_discount.push(cfg.discount(0));
                // New raters enter at the configured initial reputation so
                // their ratings carry weight before their first refresh.
                self.reputation.push(cfg.initial_rater_reputation);
                lr
            }
            lr => lr,
        };
        // Sorted insertion by local review index: keeps this rater's
        // list in the batch slice's order (and makes the duplicate probe
        // a binary search). Raters mostly rate recent reviews, so the
        // insertion point is usually the end.
        let at = self
            .find_rating(lr, local)
            .expect_err("an admitted rating is new");
        let given = &mut self.ratings_by_rater_local;
        given.insert(lr as usize, at, local, value);
        self.rater_discount[lr as usize] = cfg.discount(given.degree(lr as usize));
        self.ratings_by_review_local.push(local as usize, lr, value);
        self.stale = true;
        self.data_version += 1;
        self.pending_seeds.push((lr, local));
    }

    /// Revises an **existing** rating in place in both grouped mirrors —
    /// rater `lr`'s entry at position `at` (from
    /// [`find_rating`](Self::find_rating)) and its twin under the review.
    /// Counts are untouched (a revision is not a new rating).
    fn revise_rating(&mut self, lr: u32, at: usize, value: f64) {
        let local = self.ratings_by_rater_local.node(lr as usize).0[at];
        self.ratings_by_rater_local
            .set_value(lr as usize, at, value);
        let (raters, _) = self.ratings_by_review_local.node(local as usize);
        let slot = raters
            .iter()
            .position(|&r| r == lr)
            .expect("review-grouped mirror out of sync with rater-grouped list");
        self.ratings_by_review_local
            .set_value(local as usize, slot, value);
        self.stale = true;
        self.data_version += 1;
        self.pending_seeds.push((lr, local));
    }

    /// Re-solves the category **warm** and in place, starting from the
    /// current reputations; returns `(sweeps, converged)`. Categories with
    /// no ratings have nothing to iterate — every review takes
    /// [`DeriveConfig::unrated_review_quality`] directly and zero sweeps
    /// are reported (no phantom convergence work).
    fn solve_warm(&mut self, cfg: &DeriveConfig) -> (usize, bool) {
        if self.num_ratings() == 0 {
            self.quality.fill(cfg.unrated_review_quality);
            return (0, true);
        }
        riggs::solve_warm(
            &self.ratings_by_review_local,
            &self.ratings_by_rater_local,
            &self.rater_discount,
            cfg,
            &mut self.quality,
            &mut self.reputation,
        )
    }

    /// Re-solves the category **cold** into fresh buffers — exactly the
    /// batch [`riggs::solve`] computation over the in-place arenas, bit
    /// for bit (same per-node order, same sweep loop, same initial
    /// state). Leaves the warm state alone.
    fn solve_cold(&self, cfg: &DeriveConfig) -> SolveOutcome {
        let mut quality = vec![cfg.unrated_review_quality; self.reviews.len()];
        let mut reputation = vec![cfg.initial_rater_reputation; self.rater_of_local.len()];
        let (iterations, converged) = riggs::solve_warm(
            &self.ratings_by_review_local,
            &self.ratings_by_rater_local,
            &self.rater_discount,
            cfg,
            &mut quality,
            &mut reputation,
        );
        SolveOutcome {
            quality,
            reputation,
            iterations,
            converged,
        }
    }

    /// Re-solves the category in place through whichever path
    /// [`DeriveConfig::delta_refresh`] selects — the delta solve or the
    /// full warm sweep — clears the staleness bookkeeping (seeds
    /// included) and reports what was done.
    fn refresh(&mut self, cfg: &DeriveConfig) -> RefreshOutcome {
        let outcome = if cfg.delta_refresh {
            self.solve_delta(cfg)
        } else {
            let (iterations, converged) = self.solve_warm(cfg);
            RefreshOutcome {
                iterations,
                converged,
                dense: iterations > 0,
            }
        };
        self.last_iterations = outcome.iterations;
        self.last_converged = outcome.converged;
        self.stale = false;
        self.pending_seeds.clear();
        outcome
    }

    /// The **delta solver**: starts from the pending seeds (the one
    /// review and one rater each new or revised rating touches) and
    /// propagates Eq. 1 / Eq. 2 recomputations through the bipartite
    /// incidence only while a node moves by more than
    /// [`DeriveConfig::fixpoint_tolerance`]. Each pass picks its own kind
    /// from its own frontier (push or pull, as in Beamer et al.'s
    /// direction-optimising search):
    ///
    /// * frontier wider than [`DeriveConfig::delta_frontier_threshold`] ×
    ///   (reviews + raters): a **dense pass** — every review, then every
    ///   rater, through [`riggs::dense_pass`], the pass the full warm
    ///   sweep runs; the reviews of every rater that moved past the
    ///   tolerance are the next frontier;
    /// * otherwise a **worklist pass** that drains the frontiers.
    ///
    /// Nothing is abandoned: the next pass reads the frontier the last one
    /// left. Converged means the frontier is empty, which after a dense
    /// pass is exactly the full sweep's test (the largest rater move is
    /// within the tolerance), and the iteration cap counts every pass.
    /// Both half-steps are Jacobi — a node reads only the other side's
    /// values — so which nodes a pass visits, and in what order, changes
    /// no value a recomputed node lands on. At threshold 0 every pass is
    /// dense, which is the full warm sweep bit for bit, sweep count
    /// included; at 1 no pass is.
    ///
    /// Per-node arithmetic is [`riggs::quality_one`] /
    /// [`riggs::reputation_one`] over the node's arena slices — the calls
    /// the dense pass makes, over the memory it reads. The canonical cold
    /// snapshot ([`IncrementalDerived::to_derived`]) never reads this warm
    /// state, which is how delta mode keeps the bit-identical-to-batch
    /// contract untouched.
    fn solve_delta(&mut self, cfg: &DeriveConfig) -> RefreshOutcome {
        let n_rev = self.reviews.len();
        let n_rat = self.rater_of_local.len();
        self.scratch.begin(n_rev, n_rat);
        // Mirror `solve_warm`'s unrated-only early return: nothing to
        // iterate, no phantom sweeps, no node visited.
        if self.num_ratings() == 0 {
            self.quality.fill(cfg.unrated_review_quality);
            return RefreshOutcome {
                iterations: 0,
                converged: true,
                dense: false,
            };
        }
        let Self {
            ratings_by_review_local: by_review,
            ratings_by_rater_local: by_rater,
            rater_discount,
            quality,
            reputation,
            pending_seeds,
            scratch,
            ..
        } = self;
        let DeltaScratch {
            rev_frontier,
            rat_frontier,
            rev_seen,
            rat_seen,
        } = scratch;
        for &(lr, local) in pending_seeds.iter() {
            rev_frontier.insert(local);
            // The seed rater must recompute even if its review's quality
            // holds still: the rating changed the rater's own n, discount
            // and deviation terms directly.
            rat_frontier.insert(lr);
        }
        let total = (n_rev + n_rat) as f64;
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
            // Strict `>` gives the endpoints: at 0 any non-empty frontier
            // runs dense, at 1 none does (a frontier is at most the whole
            // category).
            if active as f64 > cfg.delta_frontier_threshold * total {
                dense = true;
                // The pass recomputes every node, so the frontier it
                // replaces is spent; the next one is the reviews of the
                // raters that moved.
                rev_frontier.reset(n_rev);
                rat_frontier.reset(n_rat);
                riggs::dense_pass(
                    by_review,
                    by_rater,
                    rater_discount,
                    cfg,
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
            // beyond tolerance dirties every rater of that review.
            rev_frontier.drain(|j| {
                rev_seen.insert(j as u32);
                let (raters, values) = by_review.node(j);
                let q = riggs::quality_one(raters, values, reputation, cfg);
                let moved = (q - quality[j]).abs() > cfg.fixpoint_tolerance;
                quality[j] = q;
                if moved {
                    for &lr in raters {
                        rat_frontier.insert(lr);
                    }
                }
            });
            // Eq. 2 half-sweep: recompute dirty raters; a reputation move
            // beyond tolerance dirties every review they rated, for the
            // next pass.
            rat_frontier.drain(|i| {
                rat_seen.insert(i as u32);
                let (reviews, values) = by_rater.node(i);
                let rep = riggs::reputation_one(reviews, values, quality, rater_discount[i]);
                let moved = (rep - reputation[i]).abs() > cfg.fixpoint_tolerance;
                reputation[i] = rep;
                if moved {
                    for &j in reviews {
                        rev_frontier.insert(j);
                    }
                }
            });
        }
        RefreshOutcome {
            iterations: sweeps,
            converged,
            dense,
        }
    }

    /// The nodes the refresh that returned `outcome` recomputed, as
    /// global ids in ascending local order: every node once a dense pass
    /// ran, the marked ones after worklist passes only. Valid until the
    /// next refresh.
    fn visited(&self, outcome: RefreshOutcome) -> (Vec<ReviewId>, Vec<UserId>) {
        if outcome.dense {
            return (self.reviews.clone(), self.rater_of_local.clone());
        }
        let DeltaScratch {
            rev_seen, rat_seen, ..
        } = &self.scratch;
        (
            rev_seen.iter().map(|j| self.reviews[j]).collect(),
            rat_seen.iter().map(|i| self.rater_of_local[i]).collect(),
        )
    }

    /// The state's own warm buffers, as of the last refresh.
    fn warm(&self) -> Solved<'_> {
        Solved {
            quality: &self.quality,
            reputation: &self.reputation,
            iterations: self.last_iterations,
            converged: self.last_converged,
        }
    }

    /// Assembles one category's canonical [`CategoryReputation`] from a
    /// solved state — the exact shape (and user order) batch
    /// [`pipeline::derive`](crate::pipeline::derive) emits. `order` must
    /// cover every local rater and writer.
    fn category_reputation(
        &self,
        c: usize,
        solved: Solved<'_>,
        order: &TableOrder,
        cfg: &DeriveConfig,
    ) -> CategoryReputation {
        let rater_reputation = order.raters.gather(&self.rater_of_local, solved.reputation);
        let writer_values = reputation::writer_reputation_grouped(
            &self.reviews_by_writer_local,
            solved.quality,
            cfg,
        );
        let writer_reputation = order.writers.gather(&self.writer_of_local, &writer_values);
        let review_quality: Vec<(ReviewId, f64)> = self
            .reviews
            .iter()
            .copied()
            .zip(solved.quality.iter().copied())
            .collect();
        CategoryReputation {
            category: CategoryId::from_index(c),
            rater_reputation,
            writer_reputation,
            review_quality,
            iterations: solved.iterations,
            converged: solved.converged,
        }
    }
}

/// Memo state for [`IncrementalDerived::to_derived_cached`]: everything
/// the last publish computed that the next one can keep.
///
/// * the last canonical per-category solve, keyed by each category's
///   data version;
/// * per category, its raters and writers in ascending-user order, so
///   rebuilding a dirty category's tables gathers instead of sorting;
/// * the last two assembled `E` and `A` (an [`Assembler`]), patched in
///   place: only the columns of re-solved categories and the rows of
///   users whose counts changed are written, and a published `Derived`
///   shares them by pointer.
///
/// Create one with [`DerivedCache::default`] and keep feeding it the same
/// model — a serving daemon holds one alongside its `IncrementalDerived`
/// and republishes snapshots cheaply after sparse write bursts. A cache
/// is **bound to the model it last saw** by that model's process-unique
/// instance id (drawn at construction and clone): handed any other
/// model — same shape or not — it resets itself wholesale, so a swapped
/// or cloned model starts cold rather than being
/// served another model's versions, orders or `A` rows.
///
/// Slots are `Arc`-shared with every [`Derived`] published from this
/// cache: a clean category costs one pointer clone per publish, not a
/// deep copy of its reputation tables (the regression test
/// `publish_shares_clean_categories_by_pointer` pins this down).
///
/// One cache instance must stay on **one path**: either the canonical
/// cold solves of [`to_derived_cached`] or the warm assemblies of
/// [`refresh_and_derive_warm`] — the two memoize different values under
/// the same version key, so mixing them would serve one path's entries
/// as the other's.
///
/// [`to_derived_cached`]: IncrementalDerived::to_derived_cached
/// [`refresh_and_derive_warm`]: IncrementalDerived::refresh_and_derive_warm
#[derive(Debug, Clone, Default)]
pub struct DerivedCache {
    /// Instance id of the model the slots belong to (0 = none yet).
    model: u64,
    /// Data version each slot was solved at (`u64::MAX` = never).
    versions: Vec<u64>,
    /// Canonical per-category output as of `versions`, shared by pointer
    /// into every published [`Derived`].
    per_category: Vec<Arc<CategoryReputation>>,
    /// Per category: the user order its tables are gathered in.
    order: Vec<TableOrder>,
    assembler: Assembler,
}

impl DerivedCache {
    /// Binds the cache to `model`: a cache that last saw a different
    /// instance (or none) is reset to never-solved slots.
    fn fit(&mut self, model: &IncrementalDerived) {
        let id = model.counts.id();
        if self.model == id {
            return;
        }
        let n = model.categories.len();
        *self = DerivedCache {
            model: id,
            // Every slot starts at version u64::MAX, which no data
            // version reaches, so each placeholder is overwritten by a
            // real solve before it can be read.
            versions: vec![u64::MAX; n],
            per_category: CategoryReputation::empty_tables(n),
            order: vec![TableOrder::default(); n],
            assembler: Assembler::default(),
        };
    }

    /// Extends category `c`'s table order over every local `state` holds.
    fn cover(&mut self, c: usize, state: &CategoryState) {
        self.order[c].raters.cover(&state.rater_of_local);
        self.order[c].writers.cover(&state.writer_of_local);
    }
}

/// Online derived model: append events, refresh stale categories, read
/// trust — all on the batch pipeline's index-dense layout. See the module
/// docs for the conformance contract.
#[derive(Debug, Clone)]
pub struct IncrementalDerived {
    cfg: DeriveConfig,
    num_users: usize,
    categories: Vec<CategoryState>,
    /// Every registered review's category, writer and local index.
    reviews: ReviewTable,
    /// The review ids events may carry next.
    ids: IdRule,
    /// `a^r_ij` / `a^w_ij`: rating and review counts per user per
    /// category, row-stamped on every change. Its process-unique id is
    /// this model's instance id — what a [`DerivedCache`] binds to — and
    /// a clone of the model draws a fresh one.
    counts: ActivityLedger,
}

/// The model as [`admission::admit`] reads it, under one id rule.
struct View<'a> {
    model: &'a IncrementalDerived,
    ids: IdRule,
}

impl AdmissionView for View<'_> {
    fn num_users(&self) -> usize {
        self.model.num_users
    }

    fn reviews(&self) -> &ReviewTable {
        &self.model.reviews
    }

    fn id_rule(&self) -> IdRule {
        self.ids
    }

    /// Answered from the rater's sorted list in the review's category.
    fn has_rated(&self, rater: UserId, _: ReviewId, row: ReviewRow) -> bool {
        let state = &self.model.categories[row.category.index()];
        state
            .rater_local(rater)
            .is_some_and(|lr| state.find_rating(lr, row.local).is_ok())
    }
}

/// One category's warm state as of its last refresh, by local index.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct WarmState {
    /// Global id of each local review.
    pub reviews: Vec<ReviewId>,
    /// Global id of each local rater.
    pub raters: Vec<UserId>,
    /// Review qualities.
    pub quality: Vec<f64>,
    /// Rater reputations.
    pub reputation: Vec<f64>,
}

impl IncrementalDerived {
    /// Starts from an empty community of known size. Its events follow
    /// [`IdRule::Dense`]; see [`with_id_rule`](Self::with_id_rule).
    pub fn new(num_users: usize, num_categories: usize, cfg: &DeriveConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self {
            cfg: cfg.clone(),
            num_users,
            categories: (0..num_categories)
                .map(|_| CategoryState::empty(num_users))
                .collect(),
            reviews: ReviewTable::new(num_categories),
            ids: IdRule::Dense,
            counts: ActivityLedger::new(num_users, num_categories),
        })
    }

    /// The same model, admitting review events under `ids`: a shard
    /// worker's model holds a subset of the reviews
    /// ([`IdRule::Subset`]).
    pub fn with_id_rule(mut self, ids: IdRule) -> Self {
        self.ids = ids;
        self
    }

    /// Bootstraps from an existing store and solves every category once.
    /// The result agrees with [`pipeline::derive`] on the same store bit
    /// for bit (the bootstrap solve starts from the same cold state).
    ///
    /// [`pipeline::derive`]: crate::pipeline::derive
    pub fn from_store(store: &CommunityStore, cfg: &DeriveConfig) -> Result<Self> {
        let mut inc = Self::new(store.num_users(), store.num_categories(), cfg)?;
        for review in store.reviews() {
            inc.add_review(review.writer, review.id, review.category)?;
        }
        for rating in store.ratings() {
            inc.add_rating(rating.rater, rating.review, rating.value)?;
        }
        inc.refresh_all();
        Ok(inc)
    }

    /// Folds an event log into the canonical derived model — the full
    /// Eq. 1–4 state (`E`, `A`, per-category reputations) from which
    /// Eq. 5 trust is read off, built online instead of batch.
    ///
    /// Equivalent to constructing with [`new`](Self::new), applying every
    /// event, and taking [`to_derived`](Self::to_derived) — which is
    /// bit-identical to batch-deriving the store the log folds into
    /// (see [`wot_community::events::replay_into_store`]), for any
    /// [`DeriveConfig::threads`] setting and any placement of `Refresh`
    /// events in the log.
    ///
    /// That bit-identity contract depends on review ids being **dense in
    /// arrival order** (id = the review's rank among review events — the
    /// id a [`CommunityBuilder`](wot_community::CommunityBuilder) would
    /// assign), so [`apply`](Self::apply) enforces it, rejecting exactly
    /// the logs `replay_into_store` rejects.
    pub fn replay(
        num_users: usize,
        num_categories: usize,
        cfg: &DeriveConfig,
        events: &[ReplayEvent],
    ) -> Result<Derived> {
        let mut inc = Self::new(num_users, num_categories, cfg)?;
        for event in events {
            inc.apply(event)?;
        }
        Ok(inc.to_derived())
    }

    /// Applies one replay event. Store events go through
    /// [`ingest`](Self::ingest), so under the default [`IdRule::Dense`] a
    /// review id that is not the review's arrival rank is rejected here —
    /// silently accepting one would void the bit-identical-to-batch
    /// guarantee without a diagnostic.
    pub fn apply(&mut self, event: &ReplayEvent) -> Result<()> {
        let event = match *event {
            ReplayEvent::Review {
                writer,
                review,
                category,
            } => StoreEvent::Review {
                writer,
                review,
                category,
            },
            ReplayEvent::Rating {
                rater,
                review,
                value,
            } => StoreEvent::Rating {
                rater,
                review,
                value,
            },
            ReplayEvent::Refresh { category } => {
                self.refresh(category);
                return Ok(());
            }
            ReplayEvent::RefreshAll => {
                self.refresh_all();
                return Ok(());
            }
        };
        self.ingest(&event).map(drop)
    }

    /// Read-only admission check: would [`apply`](Self::apply) accept
    /// this event right now? It is [`admit`](Self::admit) with the
    /// refusal as a [`CoreError::Rejected`].
    ///
    /// This exists for write-ahead logging: a durable ingest path must
    /// reject a bad event *before* appending it to the log (an appended
    /// event that then fails to apply would poison every future replay
    /// of that log). After `check_event` returns `Ok`, the matching
    /// `apply` on the unchanged model is guaranteed to succeed.
    pub fn check_event(&self, event: &StoreEvent) -> Result<()> {
        self.admit(event).map(drop).map_err(CoreError::Rejected)
    }

    /// [`admission::admit`] over this model under its [`IdRule`]: the
    /// event's category if [`ingest`](Self::ingest) would take it, the
    /// rule it breaks if not. Changes nothing.
    pub fn admit(&self, event: &StoreEvent) -> std::result::Result<CategoryId, Rejection> {
        self.admit_under(event, self.ids)
    }

    /// Admits `event` and applies it; returns its category. Amortized
    /// O(1) (a rating also pays a binary search of its rater's list);
    /// marks the category stale.
    pub fn ingest(&mut self, event: &StoreEvent) -> Result<CategoryId> {
        self.ingest_under(event, self.ids)
    }

    fn admit_under(
        &self,
        event: &StoreEvent,
        ids: IdRule,
    ) -> std::result::Result<CategoryId, Rejection> {
        admission::admit(&View { model: self, ids }, event)
    }

    fn ingest_under(&mut self, event: &StoreEvent, ids: IdRule) -> Result<CategoryId> {
        let category = self.admit_under(event, ids)?;
        let c = category.index();
        match *event {
            StoreEvent::Review { writer, review, .. } => {
                let local = self.reviews.push(review, category, writer);
                let state_local = self.categories[c].add_review(writer, review, &self.cfg);
                debug_assert_eq!(local, state_local);
                self.counts.bump_reviews(writer.index(), c, 1.0);
            }
            StoreEvent::Rating {
                rater,
                review,
                value,
            } => {
                let row = self.reviews.get(review).expect("an admitted review");
                self.categories[c].add_rating(rater, row.local, value, &self.cfg);
                self.counts.bump_ratings(rater.index(), c, 1.0);
            }
        }
        Ok(category)
    }

    /// The same state with exactly packed arenas and an empty worklist
    /// scratch — a twin for tests that hold the physical layout to have
    /// no effect on any answer. Like a clone, it draws a fresh instance
    /// id.
    pub fn compacted(&self) -> Self {
        let mut twin = self.clone();
        for state in &mut twin.categories {
            state.compact();
        }
        twin
    }

    /// One category's warm state as of its last refresh (`None` out of
    /// range). A window for tests; not part of the API.
    #[doc(hidden)]
    pub fn warm_state(&self, category: CategoryId) -> Option<WarmState> {
        let state = self.categories.get(category.index())?;
        Some(WarmState {
            reviews: state.reviews.clone(),
            raters: state.rater_of_local.clone(),
            quality: state.quality.clone(),
            reputation: state.reputation.clone(),
        })
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    /// Whether any category has unrefreshed data.
    pub fn is_stale(&self) -> bool {
        self.categories.iter().any(|c| c.stale)
    }

    /// Registers a new review — the raw streaming API: any id above the
    /// registered ones is taken ([`IdRule::Subset`]), whatever the
    /// model's own rule. Amortized O(1); marks the category stale.
    pub fn add_review(
        &mut self,
        writer: UserId,
        review: ReviewId,
        category: CategoryId,
    ) -> Result<()> {
        let event = StoreEvent::Review {
            writer,
            review,
            category,
        };
        self.ingest_under(&event, IdRule::Subset).map(drop)
    }

    /// Registers a new rating. Amortized O(1); marks the category stale.
    pub fn add_rating(&mut self, rater: UserId, review: ReviewId, value: f64) -> Result<()> {
        let event = StoreEvent::Rating {
            rater,
            review,
            value,
        };
        self.ingest(&event).map(drop)
    }

    /// Adds the rating if the `(rater, review)` pair is new, or **revises
    /// it in place** if the rater already rated that review — the
    /// incremental counterpart of
    /// [`CommunityBuilder::upsert_rating`](wot_community::CommunityBuilder::upsert_rating),
    /// with the same return convention: `Ok(true)` when an existing
    /// rating was replaced, `Ok(false)` when this was a first rating.
    /// Every other refusal of [`admit`](Self::admit) is returned.
    ///
    /// A revision changes no counts (`a^r` and the rater's `n` are about
    /// *how many* ratings exist, and that did not change) but does
    /// perturb the fixed point, so the category goes stale and the pair
    /// seeds the delta worklist exactly like a fresh rating.
    pub fn upsert_rating(&mut self, rater: UserId, review: ReviewId, value: f64) -> Result<bool> {
        let event = StoreEvent::Rating {
            rater,
            review,
            value,
        };
        match self.admit(&event) {
            Err(Rejection::AlreadyRated { .. }) => {
                let row = self.reviews.get(review).expect("a rated review");
                let state = &mut self.categories[row.category.index()];
                let lr = state.rater_local(rater).expect("a rater who rated");
                let at = state.find_rating(lr, row.local).expect("a given rating");
                state.revise_rating(lr, at, value);
                Ok(true)
            }
            Err(refusal) => Err(CoreError::Rejected(refusal)),
            Ok(_) => self.ingest(&event).map(|_| false),
        }
    }

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
        match self.categories.get_mut(category.index()) {
            Some(state) if state.stale => {
                let r = state.refresh(&self.cfg);
                (r.iterations, r.converged)
            }
            _ => (0, true),
        }
    }

    /// Like [`refresh`](Self::refresh), but reports the solver's audit
    /// trail: which path ran and exactly which nodes were recomputed.
    /// The coverage contract — every node whose warm value differs from
    /// its pre-refresh value appears in the visited sets — is what the
    /// workspace's delta proptests assert.
    pub fn refresh_traced(&mut self, category: CategoryId) -> DeltaReport {
        match self.categories.get_mut(category.index()) {
            Some(state) if state.stale => {
                let r = state.refresh(&self.cfg);
                let (visited_reviews, visited_raters) = state.visited(r);
                DeltaReport {
                    sweeps: r.iterations,
                    converged: r.converged,
                    fell_back: r.dense,
                    visited_reviews,
                    visited_raters,
                }
            }
            _ => DeltaReport {
                sweeps: 0,
                converged: true,
                fell_back: false,
                visited_reviews: Vec::new(),
                visited_raters: Vec::new(),
            },
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
        let runs = cfg.effective_threads().min(stale.len());
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

    /// The canonical batch-equal snapshot: cold-solves every category from
    /// the in-place index tables (in parallel, deterministically) and
    /// assembles the same [`Derived`] that
    /// [`pipeline::derive`](crate::pipeline::derive) produces on the
    /// equivalent store — bit-identical expertise, affiliation,
    /// per-category reputations, qualities, sweep counts and convergence
    /// flags.
    ///
    /// This does not consult or disturb the warm online state; it is a
    /// read-only O(total ratings) pass.
    pub fn to_derived(&self) -> Derived {
        // A fresh cache marks every category dirty: the cold path is the
        // cached path with nothing to reuse.
        self.to_derived_cached(&mut DerivedCache::default())
    }

    /// Like [`to_derived`](Self::to_derived), but re-solves **only the
    /// categories whose data changed** since the cache last saw them,
    /// reusing the cached canonical [`CategoryReputation`] for the rest,
    /// and patches only those categories' columns of `E` and the rows of
    /// `A` whose counts changed.
    ///
    /// The result is bit-identical to `to_derived()` *by construction*:
    /// a cached entry was produced by the very same cold solve over the
    /// very same index tables (each category carries a monotone data
    /// version, bumped on every mutation, that keys the cache), and a
    /// cell of `E` or `A` the patch skips is one whose inputs did not
    /// change, so skipping the work cannot change a single bit. This is
    /// what makes frequent snapshot publication affordable for a serving
    /// daemon: after a burst of events touching `k` categories, a new
    /// snapshot costs `k` cold solves instead of *all* of them, and an
    /// assembly proportional to what the burst touched.
    ///
    /// The cache binds itself to this model instance (see
    /// [`DerivedCache`]): fed any other, it starts cold rather than
    /// wrong.
    pub fn to_derived_cached(&self, cache: &mut DerivedCache) -> Derived {
        self.tables_cached(cache);
        cache.assembler.assemble(&self.counts, &cache.per_category)
    }

    /// The first half of [`to_derived_cached`](Self::to_derived_cached):
    /// brings the cache's canonical per-category tables up to date and
    /// returns them, indexed by category, **without assembling `E` or
    /// `A`** — all a shard worker needs, since Eq. 4 spans categories it
    /// does not own.
    pub fn tables_cached<'c>(&self, cache: &'c mut DerivedCache) -> &'c [Arc<CategoryReputation>] {
        let cfg = &self.cfg;
        let categories = &self.categories;
        cache.fit(self);
        let dirty: Vec<usize> = categories
            .iter()
            .enumerate()
            .filter_map(|(c, s)| (cache.versions[c] != s.data_version).then_some(c))
            .collect();
        for &c in &dirty {
            cache.cover(c, &categories[c]);
        }
        let order = &cache.order;
        let solved = wot_par::par_map_indexed(dirty.len(), cfg.effective_threads(), |k| {
            let c = dirty[k];
            let state = &categories[c];
            state.category_reputation(c, state.solve_cold(cfg).solved(), &order[c], cfg)
        });
        for (&c, cr) in dirty.iter().zip(solved) {
            cache.per_category[c] = Arc::new(cr);
            cache.versions[c] = categories[c].data_version;
        }
        &cache.per_category
    }

    /// Refreshes every stale category (through whichever path
    /// [`DeriveConfig::delta_refresh`] selects) and assembles a
    /// [`Derived`] from the resulting **warm** state, memoizing each
    /// category's assembly in `cache` under its data version — the delta
    /// writer's publish step: after a sparse batch, only the touched
    /// categories pay a worklist solve plus an O(category) re-assembly,
    /// every clean category rides its cached `Arc`, and `E` / `A` are
    /// patched where the batch touched them.
    ///
    /// Refreshing and assembling in one call is what makes the version
    /// key sound for warm values: a category's warm state only changes
    /// when data arrived (which bumped the version) and a refresh
    /// followed — and here the refresh *always* runs before assembly, so
    /// a cached entry can never capture pre-refresh warm state.
    ///
    /// Unlike [`to_derived_cached`](Self::to_derived_cached) this is
    /// within-tolerance of the canonical snapshot, not bit-identical: the
    /// warm values carry the fixed point's convergence epsilon. Keep the
    /// cache exclusive to this method (see [`DerivedCache`]).
    pub fn refresh_and_derive_warm(&mut self, cache: &mut DerivedCache) -> Derived {
        self.refresh_all();
        cache.fit(self);
        for (c, state) in self.categories.iter().enumerate() {
            if cache.versions[c] == state.data_version {
                continue;
            }
            cache.cover(c, state);
            let cr = state.category_reputation(c, state.warm(), &cache.order[c], &self.cfg);
            cache.per_category[c] = Arc::new(cr);
            cache.versions[c] = state.data_version;
        }
        cache.assembler.assemble(&self.counts, &cache.per_category)
    }

    /// Current expertise matrix `E` from the last refresh (use
    /// [`to_derived`](Self::to_derived) for the canonical cold snapshot).
    pub fn expertise(&self) -> Dense {
        let mut e = Dense::zeros(self.num_users, self.categories.len());
        for (c, state) in self.categories.iter().enumerate() {
            let reps = reputation::writer_reputation_grouped(
                &state.reviews_by_writer_local,
                &state.quality,
                &self.cfg,
            );
            for (&u, rep) in state.writer_of_local.iter().zip(reps) {
                e.set(u.index(), c, rep);
            }
        }
        e
    }

    /// Current affiliation matrix `A` (always exact — counts are
    /// maintained eagerly).
    pub fn affiliation(&self) -> Dense {
        self.counts.affiliation()
    }

    /// Rater reputation in one category, if the user rated there.
    pub fn rater_reputation(&self, category: CategoryId, user: UserId) -> Option<f64> {
        let state = self.categories.get(category.index())?;
        match state.rater_slot.get(user.index()).copied()? {
            u32::MAX => None,
            lr => Some(state.reputation[lr as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use wot_community::{CommunityBuilder, RatingScale};

    use super::*;
    use crate::pipeline;

    fn sample_store() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let a = b.add_user("a");
        let w = b.add_user("w");
        let x = b.add_user("x");
        let cat = b.add_category("cat");
        let cat2 = b.add_category("cat2");
        for k in 0..3 {
            let o = b.add_object(format!("o{k}"), cat).unwrap();
            let r = b.add_review(w, o).unwrap();
            b.add_rating(a, r, 0.8).unwrap();
            b.add_rating(x, r, 0.6).unwrap();
        }
        let o = b.add_object("p0", cat2).unwrap();
        let r = b.add_review(x, o).unwrap();
        b.add_rating(a, r, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn bootstrap_is_bit_identical_to_batch() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let batch = pipeline::derive(&store, &cfg).unwrap();
        let inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        // The warm online state after bootstrap equals the cold batch
        // solve exactly (the bootstrap *was* a cold solve).
        assert_eq!(inc.expertise().as_slice(), batch.expertise.as_slice());
        assert_eq!(inc.affiliation().as_slice(), batch.affiliation.as_slice());
        // And the canonical snapshot is the full Derived, bit for bit.
        assert_eq!(inc.to_derived(), batch);
    }

    /// The gold test: stream events one at a time with refreshes in
    /// between; the canonical snapshot ends bit-for-bit where batch ends,
    /// and even the warm state agrees to tolerance.
    #[test]
    fn streaming_converges_to_batch_result() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let mut inc =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        for review in store.reviews() {
            inc.add_review(review.writer, review.id, review.category)
                .unwrap();
            inc.refresh_all(); // refresh aggressively mid-stream
        }
        for rating in store.ratings() {
            inc.add_rating(rating.rater, rating.review, rating.value)
                .unwrap();
            inc.refresh_all();
        }
        let batch = pipeline::derive(&store, &cfg).unwrap();
        for (x, y) in inc
            .expertise()
            .as_slice()
            .iter()
            .zip(batch.expertise.as_slice())
        {
            assert!((x - y).abs() < 1e-6, "streamed {x} vs batch {y}");
        }
        assert_eq!(inc.affiliation().as_slice(), batch.affiliation.as_slice());
        assert_eq!(inc.to_derived(), batch);
    }

    #[test]
    fn warm_start_refresh_is_cheaper_than_cold() {
        // A synth-scale store: the cold fixed point needs real work, so
        // the warm advantage after a one-rating perturbation is visible.
        let store = wot_synth::generate(&wot_synth::SynthConfig::tiny(7))
            .unwrap()
            .store;
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        // One new rating on review 0 from an established rater in the
        // category who hasn't rated it yet, at the review's converged
        // quality — a small perturbation (only the rater's experience
        // discount moves), which is the streaming steady state the warm
        // start is for.
        let review = store.reviews()[0];
        let cat = review.category;
        let rated: std::collections::HashSet<UserId> = store
            .ratings_of_review(review.id)
            .iter()
            .map(|&(u, _)| u)
            .collect();
        let rater = inc.categories[cat.index()]
            .rater_of_local
            .iter()
            .copied()
            .find(|&u| u != review.writer && !rated.contains(&u))
            .expect("some established rater has not rated review 0");
        let local = inc.reviews.get(review.id).unwrap().local as usize;
        let value = inc.categories[cat.index()].quality[local].clamp(0.0, 1.0);
        inc.add_rating(rater, review.id, value).unwrap();
        let cold = inc.categories[cat.index()].solve_cold(&cfg);
        let (warm_iters, converged) = inc.refresh(cat);
        assert!(converged && cold.converged);
        assert!(
            warm_iters < cold.iterations,
            "warm {warm_iters} sweeps vs cold {}",
            cold.iterations
        );
        // An untouched category: refresh is a no-op.
        let other = CategoryId::from_index((cat.index() + 1) % store.num_categories());
        assert_eq!(inc.refresh(other), (0, true));
    }

    /// The cached snapshot path is bit-identical to the uncached one at
    /// every point of an event stream — including after restores and
    /// mutations that touch only a subset of categories — and actually
    /// skips clean categories.
    #[test]
    fn cached_snapshot_is_bit_identical_and_skips_clean_categories() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let log = wot_community::events::event_log(&store);
        let mut inc =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        let mut cache = DerivedCache::default();
        // Snapshot after every event: cached == cold every time, with
        // `==` on the full Derived (which compares every f64 bit-level
        // via Dense/Vec equality of identical bits).
        for e in &log {
            inc.apply(&ReplayEvent::from(*e)).unwrap();
            assert_eq!(inc.to_derived_cached(&mut cache), inc.to_derived());
        }
        // A mutation in category 1 only must leave category 0's cache
        // entry untouched (same version ⇒ same slot, no re-solve).
        let v0_before = cache.versions[0];
        inc.add_review(
            UserId(0),
            ReviewId(store.num_reviews() as u32),
            CategoryId(1),
        )
        .unwrap();
        let d = inc.to_derived_cached(&mut cache);
        assert_eq!(cache.versions[0], v0_before, "clean category re-solved");
        assert_eq!(d, inc.to_derived());
        // An idle republish re-solves nothing and still agrees.
        let versions = cache.versions.clone();
        assert_eq!(inc.to_derived_cached(&mut cache), inc.to_derived());
        assert_eq!(cache.versions, versions);
        // A differently-shaped model resets the cache instead of serving
        // stale slots.
        let other = IncrementalDerived::new(3, 5, &cfg).unwrap();
        let d = other.to_derived_cached(&mut cache);
        assert_eq!(d, other.to_derived());
        assert_eq!(cache.versions.len(), 5);
    }

    #[test]
    fn staleness_tracking() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        assert!(!inc.is_stale());
        inc.add_review(UserId(0), ReviewId(50), CategoryId(1))
            .unwrap();
        assert!(inc.is_stale());
        inc.refresh_all();
        assert!(!inc.is_stale());
    }

    #[test]
    fn refresh_reports_no_phantom_sweeps() {
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::new(2, 2, &cfg).unwrap();
        // Fresh categories: no work, no sweeps.
        assert_eq!(inc.refresh(CategoryId(0)), (0, true));
        assert_eq!(inc.refresh_all(), 0);
        // A stale category whose only content is an unrated review still
        // has no fixed point to iterate: zero sweeps, converged, and the
        // review gets the configured unrated quality.
        inc.add_review(UserId(0), ReviewId(0), CategoryId(0))
            .unwrap();
        assert!(inc.is_stale());
        assert_eq!(inc.refresh(CategoryId(0)), (0, true));
        assert!(!inc.is_stale());
        assert_eq!(inc.expertise().get(0, 0), 0.0);
        // Out-of-range category: a stats no-op rather than a panic.
        assert_eq!(inc.refresh(CategoryId(9)), (0, true));
        // refresh_all over one stale rated category reports its sweeps
        // and nothing for the fresh one.
        inc.add_review(UserId(1), ReviewId(1), CategoryId(1))
            .unwrap();
        inc.add_rating(UserId(0), ReviewId(1), 0.8).unwrap();
        let sweeps = inc.refresh_all();
        assert!(sweeps >= 1);
        // But the canonical snapshot still reports the batch solver's
        // sweep accounting (one sweep to settle an unrated-only
        // category), because that is what batch derive reports.
        let d = inc.to_derived();
        assert_eq!(d.per_category[0].iterations, 1);
        assert!(d.per_category[0].converged);
    }

    #[test]
    fn duplicate_rating_rejected_anywhere_in_rater_history() {
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::new(3, 1, &cfg).unwrap();
        for r in 0..3 {
            inc.add_review(UserId(0), ReviewId(r), CategoryId(0))
                .unwrap();
        }
        // Rate out of review order: 2, then 0 — the per-rater list stays
        // sorted by local review index.
        inc.add_rating(UserId(1), ReviewId(2), 0.8).unwrap();
        inc.add_rating(UserId(1), ReviewId(0), 0.6).unwrap();
        assert!(inc.add_rating(UserId(1), ReviewId(2), 0.4).is_err());
        assert!(inc.add_rating(UserId(1), ReviewId(0), 0.4).is_err());
        inc.add_rating(UserId(1), ReviewId(1), 0.4).unwrap();
        assert_eq!(
            inc.categories[0]
                .ratings_by_rater_local
                .pairs(0)
                .collect::<Vec<_>>(),
            vec![(0, 0.6), (1, 0.4), (2, 0.8)]
        );
    }

    #[test]
    fn input_validation() {
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::new(2, 1, &cfg).unwrap();
        // Out-of-range writer / category.
        assert!(inc
            .add_review(UserId(9), ReviewId(0), CategoryId(0))
            .is_err());
        assert!(inc
            .add_review(UserId(0), ReviewId(0), CategoryId(9))
            .is_err());
        inc.add_review(UserId(0), ReviewId(0), CategoryId(0))
            .unwrap();
        // Duplicate review id.
        assert!(inc
            .add_review(UserId(1), ReviewId(0), CategoryId(0))
            .is_err());
        // Unknown review, self-rating, out-of-range rater, off-range value.
        assert!(inc.add_rating(UserId(1), ReviewId(7), 0.8).is_err());
        assert!(inc.add_rating(UserId(0), ReviewId(0), 0.8).is_err());
        assert!(inc.add_rating(UserId(9), ReviewId(0), 0.8).is_err());
        assert!(inc.add_rating(UserId(1), ReviewId(0), 1.5).is_err());
        assert!(inc.add_rating(UserId(1), ReviewId(0), f64::NAN).is_err());
        // Valid rating works.
        inc.add_rating(UserId(1), ReviewId(0), 0.8).unwrap();
        inc.refresh_all();
        assert!(crate::trust::pairwise(&inc.affiliation(), &inc.expertise(), 1, 0) > 0.0);
        assert!(inc.rater_reputation(CategoryId(0), UserId(1)).is_some());
        assert!(inc.rater_reputation(CategoryId(0), UserId(0)).is_none());
        assert!(inc.rater_reputation(CategoryId(9), UserId(0)).is_none());
    }

    /// `check_event` admits exactly the events `apply` admits, and never
    /// mutates — the precondition the WAL-before-apply ingest path rests
    /// on.
    #[test]
    fn check_event_mirrors_apply_and_is_read_only() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let log = wot_community::events::event_log(&store);
        let mut inc =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        for e in &log {
            inc.check_event(e).unwrap();
            inc.apply(&ReplayEvent::from(*e)).unwrap();
        }
        let image = |m: &IncrementalDerived| {
            let warm: Vec<_> = (0..m.num_categories())
                .map(|c| m.warm_state(CategoryId::from_index(c)))
                .collect();
            (warm, m.is_stale(), m.to_derived())
        };
        let before = image(&inc);
        let next_id = ReviewId(store.num_reviews() as u32);
        let bad = [
            // Non-dense review id (replay contract).
            StoreEvent::Review {
                writer: UserId(0),
                review: ReviewId(next_id.0 + 5),
                category: CategoryId(0),
            },
            // Out-of-range writer and category.
            StoreEvent::Review {
                writer: UserId(99),
                review: next_id,
                category: CategoryId(0),
            },
            StoreEvent::Review {
                writer: UserId(0),
                review: next_id,
                category: CategoryId(99),
            },
            // Unknown review, off-scale value, out-of-range rater.
            StoreEvent::Rating {
                rater: UserId(0),
                review: ReviewId(999),
                value: 0.5,
            },
            StoreEvent::Rating {
                rater: UserId(0),
                review: ReviewId(0),
                value: 1.5,
            },
            StoreEvent::Rating {
                rater: UserId(99),
                review: ReviewId(0),
                value: 0.5,
            },
        ];
        for e in &bad {
            assert!(inc.check_event(e).is_err(), "{e:?} must be rejected");
        }
        // Duplicate rating and self-rating from the folded store.
        let rt = store.ratings()[0];
        assert!(inc
            .check_event(&StoreEvent::Rating {
                rater: rt.rater,
                review: rt.review,
                value: 0.5,
            })
            .is_err());
        let rv = store.reviews()[0];
        assert!(inc
            .check_event(&StoreEvent::Rating {
                rater: rv.writer,
                review: rv.id,
                value: 0.5,
            })
            .is_err());
        // All those checks left no trace.
        assert_eq!(image(&inc), before);
        // And an admitted event still applies.
        let good = StoreEvent::Review {
            writer: UserId(0),
            review: next_id,
            category: CategoryId(1),
        };
        inc.check_event(&good).unwrap();
        inc.apply(&ReplayEvent::from(good)).unwrap();
    }

    #[test]
    fn replay_rejects_non_dense_review_ids() {
        let cfg = DeriveConfig::default();
        // Out-of-order arrival: id 1 first. add_review would accept it;
        // the replay contract must not.
        let events = [ReplayEvent::Review {
            writer: UserId(0),
            review: ReviewId(1),
            category: CategoryId(0),
        }];
        assert!(IncrementalDerived::replay(2, 1, &cfg, &events).is_err());
        // The same id stream ingested through the raw streaming API is
        // fine — only replay pins the dense-arrival-rank invariant.
        let mut inc = IncrementalDerived::new(2, 1, &cfg).unwrap();
        inc.add_review(UserId(0), ReviewId(1), CategoryId(0))
            .unwrap();
    }

    #[test]
    fn replay_events_fold_like_manual_calls() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let log = wot_community::events::event_log(&store);
        let mut events: Vec<ReplayEvent> = log.into_iter().map(ReplayEvent::from).collect();
        events.insert(
            3,
            ReplayEvent::Refresh {
                category: CategoryId(0),
            },
        );
        events.push(ReplayEvent::RefreshAll);
        let derived =
            IncrementalDerived::replay(store.num_users(), store.num_categories(), &cfg, &events)
                .unwrap();
        let batch = pipeline::derive(&store, &cfg).unwrap();
        assert_eq!(derived, batch);
    }

    fn delta_cfg(threshold: f64) -> DeriveConfig {
        DeriveConfig::builder()
            .delta_refresh(true)
            .delta_frontier_threshold(threshold)
            .build()
            .unwrap()
    }

    /// Delta refresh tracks the full warm sweep within the fixed point's
    /// epsilon at every step of an event stream, and never perturbs the
    /// canonical snapshot: `to_derived()` stays bit-identical to batch
    /// regardless of which refresh path maintained the warm state.
    #[test]
    fn delta_refresh_tracks_full_sweep_within_epsilon() {
        let store = sample_store();
        let log = wot_community::events::event_log(&store);
        let full_cfg = DeriveConfig::default();
        let mut delta =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &delta_cfg(1.0))
                .unwrap();
        let mut full =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &full_cfg).unwrap();
        for e in &log {
            delta.apply(&ReplayEvent::from(*e)).unwrap();
            full.apply(&ReplayEvent::from(*e)).unwrap();
            delta.refresh_all();
            full.refresh_all();
            for (c, (sd, sf)) in delta.categories.iter().zip(&full.categories).enumerate() {
                for (x, y) in sd.quality.iter().zip(&sf.quality) {
                    assert!((x - y).abs() < 1e-6, "category {c} quality {x} vs {y}");
                }
                for (x, y) in sd.reputation.iter().zip(&sf.reputation) {
                    assert!((x - y).abs() < 1e-6, "category {c} reputation {x} vs {y}");
                }
            }
        }
        let batch = pipeline::derive(&store, &full_cfg).unwrap();
        assert_eq!(delta.to_derived(), batch);
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
            let rt = store.ratings()[0];
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
            assert!(inc.categories[cat.index()].pending_seeds.is_empty());
        }
    }

    /// The worklist's coverage contract on a single perturbation: every
    /// node whose warm value moved appears in the visited sets.
    #[test]
    fn delta_visited_covers_every_changed_node() {
        let store = sample_store();
        let cfg = delta_cfg(1.0);
        let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        let rt = store.ratings()[0];
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

    /// `upsert_rating` revises in place: counts untouched, both grouped
    /// mirrors updated, and after a refresh the model is within epsilon
    /// of one built with the final value from the start (the canonical
    /// snapshot is bit-identical to that rebuild).
    #[test]
    fn upsert_rating_revises_in_place() {
        let store = sample_store();
        for cfg in [DeriveConfig::default(), delta_cfg(0.5)] {
            let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
            let rt = store.ratings()[0];
            let cat = store.reviews()[rt.review.index()].category;
            let a_before = inc.affiliation();
            let n_before = inc.categories[cat.index()].num_ratings();
            // Replacing reports true and changes no counts.
            assert!(inc.upsert_rating(rt.rater, rt.review, 0.2).unwrap());
            assert_eq!(inc.categories[cat.index()].num_ratings(), n_before);
            assert_eq!(inc.affiliation().as_slice(), a_before.as_slice());
            inc.refresh_all();
            // A rebuild that ingested 0.2 for that pair from the start
            // produces the same canonical model.
            let mut twin =
                IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
            for review in store.reviews() {
                twin.add_review(review.writer, review.id, review.category)
                    .unwrap();
            }
            for rating in store.ratings() {
                let value = if rating.rater == rt.rater && rating.review == rt.review {
                    0.2
                } else {
                    rating.value
                };
                twin.add_rating(rating.rater, rating.review, value).unwrap();
            }
            assert_eq!(inc.to_derived(), twin.to_derived());
            // A first-time pair reports false and does count. Review 3
            // (cat2, writer x) has only been rated by a — w is new.
            let lone = ReviewId(3);
            let cat2 = store.reviews()[lone.index()].category;
            let m_before = inc.categories[cat2.index()].num_ratings();
            assert!(!inc.upsert_rating(UserId(1), lone, 0.9).unwrap());
            assert_eq!(inc.categories[cat2.index()].num_ratings(), m_before + 1);
            // Validation still applies.
            let writer = store.reviews()[rt.review.index()].writer;
            assert!(inc.upsert_rating(writer, rt.review, 0.5).is_err());
            assert!(inc.upsert_rating(rt.rater, ReviewId(999), 0.5).is_err());
            assert!(inc.upsert_rating(rt.rater, rt.review, 1.5).is_err());
        }
    }

    /// Satellite regression: publishing from a cache must not deep-clone
    /// clean categories — their `Arc` is shared pointer-identical across
    /// consecutive snapshots, while dirty categories get fresh tables.
    #[test]
    fn publish_shares_clean_categories_by_pointer() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
        let mut cache = DerivedCache::default();
        let d1 = inc.to_derived_cached(&mut cache);
        // Mutate category 1 only.
        inc.add_review(
            UserId(0),
            ReviewId(store.num_reviews() as u32),
            CategoryId(1),
        )
        .unwrap();
        let d2 = inc.to_derived_cached(&mut cache);
        assert!(
            Arc::ptr_eq(&d1.per_category[0], &d2.per_category[0]),
            "clean category was cloned on publish"
        );
        assert!(
            !Arc::ptr_eq(&d1.per_category[1], &d2.per_category[1]),
            "dirty category must be re-solved"
        );
        // An idle republish shares every category.
        let d3 = inc.to_derived_cached(&mut cache);
        for (a, b) in d2.per_category.iter().zip(&d3.per_category) {
            assert!(Arc::ptr_eq(a, b), "idle republish cloned a category");
        }
        // The warm-assembly path shares the same way. (The new review's
        // writer is user 0, so user 1 rates it.)
        let mut warm_cache = DerivedCache::default();
        let w1 = inc.refresh_and_derive_warm(&mut warm_cache);
        inc.add_rating(UserId(1), ReviewId(store.num_reviews() as u32), 0.7)
            .unwrap();
        let w2 = inc.refresh_and_derive_warm(&mut warm_cache);
        assert!(Arc::ptr_eq(&w1.per_category[0], &w2.per_category[0]));
        assert!(!Arc::ptr_eq(&w1.per_category[1], &w2.per_category[1]));
    }

    /// Publish work tracks the dirty set, on both publish paths: one new
    /// rating recomputes one row of `A`, rewrites only its category's
    /// column of `E` and re-sorts nothing; an idle publish writes nothing
    /// at all. The cached matrices are poisoned before each publish, so
    /// every cell that still reads NaN afterwards was provably left alone.
    #[test]
    fn publish_work_tracks_the_dirty_set() {
        let store = wot_synth::generate(&wot_synth::SynthConfig::laptop(11))
            .unwrap()
            .store;
        let review = store.reviews()[0];
        let cat = review.category.index();
        let all_nan = |m: &Dense| m.as_slice().iter().all(|v| v.is_nan());
        let poison = |cache: &mut DerivedCache| {
            for (e, a) in cache.assembler.matrices_mut() {
                e.as_mut_slice().fill(f64::NAN);
                a.as_mut_slice().fill(f64::NAN);
            }
        };
        type Publish = fn(&mut IncrementalDerived, &mut DerivedCache) -> Derived;
        let paths: [(DeriveConfig, Publish); 2] = [
            (DeriveConfig::default(), |m, c| m.to_derived_cached(c)),
            (delta_cfg(0.5), |m, c| m.refresh_and_derive_warm(c)),
        ];
        for (cfg, publish) in paths {
            let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
            let mut cache = DerivedCache::default();
            let d0 = publish(&mut inc, &mut cache);
            // A user new to the category, so the rater order grows a tail.
            let rater = (0..store.num_users())
                .map(UserId::from_index)
                .find(|&u| {
                    u != review.writer && inc.categories[cat].rater_slot[u.index()] == u32::MAX
                })
                .expect("someone has not rated in this category yet");
            inc.add_rating(rater, review.id, 0.8).unwrap();
            let state = &inc.categories[cat];
            assert_eq!(
                cache.order[cat].raters.0.len() + 1,
                state.rater_of_local.len()
            );
            poison(&mut cache);
            let d1 = publish(&mut inc, &mut cache);
            let state = &inc.categories[cat];
            let (fresh_e, fresh_a) = (inc.expertise(), inc.affiliation());
            for i in 0..store.num_users() {
                if i == rater.index() {
                    assert_eq!(d1.affiliation.row(i), fresh_a.row(i));
                } else {
                    assert!(
                        d1.affiliation.row(i).iter().all(|v| v.is_nan()),
                        "A row {i}"
                    );
                }
                for c in 0..store.num_categories() {
                    let v = d1.expertise.get(i, c);
                    if c == cat && state.writer_slot[i] != u32::MAX {
                        // Warm E is the live accessor's; cold E is checked
                        // against the batch oracle elsewhere.
                        assert!(!v.is_nan());
                        if cfg.delta_refresh {
                            assert_eq!(v, fresh_e.get(i, c));
                        }
                    } else {
                        assert!(v.is_nan(), "E[{i},{c}] written");
                    }
                }
            }
            for c in 0..store.num_categories() {
                assert_eq!(
                    Arc::ptr_eq(&d0.per_category[c], &d1.per_category[c]),
                    c != cat,
                    "category {c}"
                );
            }
            // The tail was merged in, and the gather order is the order a
            // fresh sort by user gives.
            for (order, user_of_local) in [
                (&cache.order[cat].raters, &state.rater_of_local),
                (&cache.order[cat].writers, &state.writer_of_local),
            ] {
                let mut sorted: Vec<u32> = (0..user_of_local.len() as u32).collect();
                sorted.sort_by_key(|&l| user_of_local[l as usize]);
                assert_eq!(order.0, sorted);
            }
            // Nothing dirty: zero rows recomputed, zero tables installed.
            // The assembler's other slot last published before the rating,
            // so one publish catches it up; after that neither slot has
            // anything to write.
            publish(&mut inc, &mut cache);
            poison(&mut cache);
            for _ in 0..2 {
                let d2 = publish(&mut inc, &mut cache);
                assert!(all_nan(&d2.expertise) && all_nan(&d2.affiliation));
                for (x, y) in d1.per_category.iter().zip(&d2.per_category) {
                    assert!(Arc::ptr_eq(x, y));
                }
            }
            // Every publish kept its own values while the slots moved on.
            assert!(!all_nan(&d1.expertise) && !all_nan(&d1.affiliation));
            assert!(d0.expertise.as_slice().iter().all(|v| !v.is_nan()));
        }
    }

    /// The warm assembly agrees with the live warm accessors and stays
    /// within epsilon of the canonical snapshot, on both refresh paths.
    #[test]
    fn warm_assembly_matches_warm_state() {
        let store = sample_store();
        for cfg in [DeriveConfig::default(), delta_cfg(0.5)] {
            let mut inc =
                IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
            let mut cache = DerivedCache::default();
            for e in &wot_community::events::event_log(&store) {
                inc.apply(&ReplayEvent::from(*e)).unwrap();
                let warm = inc.refresh_and_derive_warm(&mut cache);
                assert!(!inc.is_stale());
                assert_eq!(warm.expertise.as_slice(), inc.expertise().as_slice());
                assert_eq!(warm.affiliation.as_slice(), inc.affiliation().as_slice());
                let cold = inc.to_derived();
                for (w, c) in warm
                    .expertise
                    .as_slice()
                    .iter()
                    .zip(cold.expertise.as_slice())
                {
                    assert!((w - c).abs() < 1e-6, "warm {w} vs cold {c}");
                }
            }
        }
    }
}
