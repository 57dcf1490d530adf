//! Index maintenance: one category's growable fixed-point state, grown
//! by admitted events (or built in bulk from a store by
//! [`crate::slice`]), and its cold and warm solves.

use std::borrow::Cow;

use wot_community::{Incidence, ReviewId, UserId};

use super::delta::DeltaScratch;
use crate::{riggs, DeriveConfig};

/// A solved category as the publish step reads it: fresh buffers from
/// [`CategoryState::solve_cold`], or the state's own warm buffers
/// borrowed by [`CategoryState::warm`] — no copy either way.
pub(crate) struct Solved<'a> {
    pub(crate) quality: Cow<'a, [f64]>,
    pub(crate) reputation: Cow<'a, [f64]>,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
}

/// One category's fixed-point state — the one per-category layout of
/// Eqs. 1–3: the category's reviews, raters and writers renumbered
/// `0..n`, its ratings grouped by review and by rater in two
/// [`Incidence`] arenas, the writer column, and `num_users`-sized
/// scatter tables for O(1) local-index resolution.
///
/// Two constructors fill it. The online model grows it by events
/// ([`empty`](Self::empty), then [`add_review`](Self::add_review) /
/// [`add_rating`](Self::add_rating)): locals in arrival order, arenas
/// appended with slack. The batch pipeline builds it in one pass
/// ([`build`](Self::build)): locals in ascending user order, arenas
/// filled exactly. Both keep every node's edges in the same order —
/// each review's ratings in ingestion order, each rater's ascending by
/// local review — so both solve to the same bits.
#[derive(Debug, Clone, Default)]
pub(crate) struct CategoryState {
    /// Global review ids, by local index (arrival order).
    pub(crate) reviews: Vec<ReviewId>,
    /// Ratings received per local review: `(local rater, value)`,
    /// ingestion order.
    pub(crate) ratings_by_review_local: Incidence,
    /// Global user id of each local rater (arrival order; ascending when
    /// built in bulk).
    pub(crate) rater_of_local: Vec<UserId>,
    /// user index → local rater index (`u32::MAX` = not a rater here).
    pub(crate) rater_slot: Vec<u32>,
    /// Ratings given per local rater: `(local review, value)`, kept
    /// sorted by local review index — Eq. 2's summation order, which is
    /// what makes the canonical snapshot bit-identical to batch.
    pub(crate) ratings_by_rater_local: Incidence,
    /// `discount(n_i)` per local rater, kept current by `add_rating` so no
    /// solve, sweep or worklist visit recomputes it.
    pub(crate) rater_discount: Vec<f64>,
    /// Global user id of each local writer (arrival order; ascending
    /// when built in bulk).
    pub(crate) writer_of_local: Vec<UserId>,
    /// user index → local writer index (`u32::MAX` = not a writer here).
    pub(crate) writer_slot: Vec<u32>,
    /// Local writer of each local review (parallel to `reviews`) — the
    /// column Eq. 3's one ascending pass reads.
    pub(crate) review_writer_local: Vec<u32>,
    /// Current review-quality estimates (last refresh).
    pub(crate) quality: Vec<f64>,
    /// Current rater reputations, by local rater (warm-start state).
    pub(crate) reputation: Vec<f64>,
    /// Whether data changed since the last refresh.
    pub(crate) stale: bool,
    /// Monotone counter bumped on every mutation — the invalidation key
    /// for [`DerivedCache`](super::DerivedCache).
    pub(crate) data_version: u64,
    /// Sweep count of the last refresh (for warm snapshot assembly).
    pub(crate) last_iterations: usize,
    /// Convergence flag of the last refresh.
    pub(crate) last_converged: bool,
    /// Delta refreshes run so far — the residual audit's cadence
    /// ([`AUDIT_EVERY`](super::AUDIT_EVERY)). State, not scratch: it
    /// survives [`compact`](Self::compact) and travels with a clone.
    pub(crate) delta_refreshes: u64,
    /// The delta worklist's reusable working memory, and between
    /// refreshes its pending seeds. Seeded only under
    /// [`DeriveConfig::delta_refresh`]: only the delta solve reads the
    /// seeds, and a cold-publish model never refreshes, so it would never
    /// clear them.
    pub(crate) scratch: DeltaScratch,
}

impl CategoryState {
    /// A category with nothing in it, over `num_users` users.
    pub(crate) fn empty(num_users: usize) -> Self {
        Self {
            rater_slot: vec![u32::MAX; num_users],
            writer_slot: vec![u32::MAX; num_users],
            last_converged: true,
            ..Self::default()
        }
    }

    /// Total ratings ingested. O(1).
    #[inline]
    pub(crate) fn num_ratings(&self) -> usize {
        self.ratings_by_review_local.num_edges()
    }

    /// Re-packs both arenas in place through [`Incidence::compact`] —
    /// node order, settled slack, no dead space, same per-node order —
    /// one arena at a time, and frees the worklist's visit marks. The
    /// pending seeds stay: a stale category compacts without losing them.
    pub(crate) fn compact(&mut self) {
        self.ratings_by_review_local.compact();
        self.ratings_by_rater_local.compact();
        self.scratch.compact();
    }

    /// Where local review `local` sits in rater `lr`'s ascending list:
    /// `Ok(position)` if they rated it, `Err(insertion point)` if not.
    #[inline]
    pub(crate) fn find_rating(&self, lr: u32, local: u32) -> std::result::Result<usize, usize> {
        let (reviews, _) = self.ratings_by_rater_local.node(lr as usize);
        reviews.binary_search(&local)
    }

    /// Appends a review; returns its local index.
    pub(crate) fn add_review(
        &mut self,
        writer: UserId,
        review: ReviewId,
        cfg: &DeriveConfig,
    ) -> u32 {
        let local = self.reviews.len() as u32;
        let lw = match self.writer_slot[writer.index()] {
            u32::MAX => {
                let lw = self.writer_of_local.len() as u32;
                self.writer_slot[writer.index()] = lw;
                self.writer_of_local.push(writer);
                lw
            }
            lw => lw,
        };
        self.reviews.push(review);
        self.ratings_by_review_local.push_node();
        self.review_writer_local.push(lw);
        self.quality.push(cfg.unrated_review_quality);
        self.stale = true;
        self.data_version += 1;
        local
    }

    /// The local index of `rater`, if they rated in this category.
    #[inline]
    pub(crate) fn rater_local(&self, rater: UserId) -> Option<u32> {
        Some(self.rater_slot[rater.index()]).filter(|&lr| lr != u32::MAX)
    }

    /// Appends an admitted rating of local review `local` by `rater`.
    pub(crate) fn add_rating(&mut self, rater: UserId, local: u32, value: f64, cfg: &DeriveConfig) {
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
        self.touched(lr, local, cfg);
    }

    /// Marks the category changed by the rating `(lr, local)` and, for
    /// the delta solve, seeds its worklist with it.
    fn touched(&mut self, lr: u32, local: u32, cfg: &DeriveConfig) {
        self.stale = true;
        self.data_version += 1;
        if cfg.delta_refresh {
            self.scratch.seed(lr, local);
        }
    }

    /// Revises an **existing** rating in place in both grouped mirrors —
    /// rater `lr`'s entry at position `at` (from
    /// [`find_rating`](Self::find_rating)) and its twin under the review.
    /// Counts are untouched (a revision is not a new rating).
    pub(crate) fn revise_rating(&mut self, lr: u32, at: usize, value: f64, cfg: &DeriveConfig) {
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
        self.touched(lr, local, cfg);
    }

    /// Re-solves the category **warm** and in place, starting from the
    /// current reputations; returns `(sweeps, converged)`. Categories with
    /// no ratings have nothing to iterate — every review takes
    /// [`DeriveConfig::unrated_review_quality`] directly and zero sweeps
    /// are reported (no phantom convergence work).
    pub(crate) fn solve_warm(&mut self, cfg: &DeriveConfig) -> (usize, bool) {
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

    /// Solves the category **cold** into fresh buffers: the sweeps of
    /// [`riggs::solve_warm`] from uniform initial reputations, which is
    /// what [`pipeline::derive`](crate::pipeline::derive) reports — a
    /// category with only unrated reviews takes one sweep. Leaves the
    /// warm state alone.
    pub(crate) fn solve_cold(&self, cfg: &DeriveConfig) -> Solved<'static> {
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
        Solved {
            quality: Cow::Owned(quality),
            reputation: Cow::Owned(reputation),
            iterations,
            converged,
        }
    }

    /// The state's own warm buffers, as of the last refresh.
    pub(crate) fn warm(&self) -> Solved<'_> {
        Solved {
            quality: Cow::Borrowed(&self.quality),
            reputation: Cow::Borrowed(&self.reputation),
            iterations: self.last_iterations,
            converged: self.last_converged,
        }
    }
}
