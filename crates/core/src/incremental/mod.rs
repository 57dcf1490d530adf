//! Incremental (online) maintenance of the derived model, on the **same
//! index-dense layout as the batch pipeline**.
//!
//! A deployed community ingests ratings continuously; re-running the whole
//! batch pipeline per event is wasteful. [`IncrementalDerived`] keeps the
//! per-category fixed-point state alive — and that state *is* the batch
//! layout: flat `Vec<f64>` quality/reputation buffers plus the grouped
//! local-index incidence (`ratings_by_review_local` and
//! `ratings_by_rater_local`, each one [`Incidence`](wot_community::Incidence) arena — the type a
//! batch `CategorySlice` holds — and the writer column `review_writer_local`) that
//! [`riggs`](crate::riggs#)'s one and only sweep loop walks in place.
//! There is no `HashMap` in the fixed-point state, no second solver and
//! no copy of the ratings made for a solve:
//!
//! * [`ingest`](IncrementalDerived::ingest) (and the
//!   [`add_review`](IncrementalDerived::add_review) /
//!   [`add_rating`](IncrementalDerived::add_rating) shorthands) admits
//!   the event through [`admission::admit`] — the one rule every ingest
//!   path applies, over the model's [`ReviewTable`] and [`IdRule`] — and
//!   only then grows the local index tables in place — O(1)
//!   scatter-table lookups (user index → local index), amortized O(1)
//!   appends into the arenas' per-node slack — marking only its category
//!   **stale**;
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
//!   ([`ReplayEvent`]: a [`StoreEvent`] or a refresh marker) and returns
//!   that canonical snapshot.
//!
//! The module splits along the same seams: this file holds the API,
//! construction and the event entry points; `category` one category's
//! index maintenance and its cold and warm solves; `delta` the refresh
//! paths (the delta worklist and the full warm sweep); `publish` the
//! [`DerivedCache`] and the one loop that fills it.
//!
//! ## Why the snapshot is bit-identical *by construction*
//!
//! The batch `CategorySlice` and this module's `CategoryState` maintain
//! the same three groupings, in the same element order: ratings per
//! review in ingestion order (which is exactly how `CommunityStore` groups
//! them), ratings per rater in ascending local-review order (enforced here
//! by sorted insertion), and each review's local writer in local-review
//! order (appends only), which Eq. 3 reads in one ascending pass. Both
//! hand their arenas to
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

mod category;
mod delta;
mod publish;

use wot_community::{CategoryId, CommunityStore, ReviewId, StoreEvent, UserId};
use wot_sparse::Dense;

use self::category::CategoryState;
pub use self::delta::{DeltaReport, AUDIT_BOUND, AUDIT_EVERY};
pub use self::publish::DerivedCache;
use crate::admission::{self, AdmissionView, IdRule, Rejection, ReviewRow, ReviewTable};
use crate::affiliation::ActivityLedger;
use crate::pipeline::Derived;
use crate::{reputation, CoreError, DeriveConfig, Result};

/// One event of a derivation replay: a community ingestion event plus
/// explicit refresh markers, so a recorded log can reproduce not only
/// *what* was ingested but *when* the online model re-solved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayEvent {
    /// A review or a rating, ingested through
    /// [`ingest`](IncrementalDerived::ingest).
    Event(StoreEvent),
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
        ReplayEvent::Event(e)
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

/// The model as [`admission::admit`] reads it.
struct View<'a>(&'a IncrementalDerived);

impl AdmissionView for View<'_> {
    fn num_users(&self) -> usize {
        self.0.num_users
    }

    fn reviews(&self) -> &ReviewTable {
        &self.0.reviews
    }

    fn id_rule(&self) -> IdRule {
        self.0.ids
    }

    /// Answered from the rater's sorted list in the review's category.
    fn has_rated(&self, rater: UserId, _: ReviewId, row: ReviewRow) -> bool {
        let state = &self.0.categories[row.category.index()];
        state
            .rater_local(rater)
            .is_some_and(|lr| state.find_rating(lr, row.local).is_ok())
    }
}

/// Heap bytes by component, summed over categories
/// ([`IncrementalDerived::heap_bytes`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// Both rating arenas: node records and slot buffers.
    pub arenas: usize,
    /// What the arenas' edges alone take (12 B each): an exact pack.
    pub arena_edges: usize,
    /// The delta worklist's pending seeds.
    pub seeds: usize,
    /// Slots no node owns in either arena (what a re-pack drops).
    pub arena_dead: usize,
    /// The writer column (`review_writer_local`).
    pub writer_column: usize,
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
        match *event {
            ReplayEvent::Event(e) => self.ingest(&e).map(drop),
            ReplayEvent::Refresh { category } => {
                self.refresh(category);
                Ok(())
            }
            ReplayEvent::RefreshAll => {
                self.refresh_all();
                Ok(())
            }
        }
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
        admission::admit(&View(self), event)
    }

    /// Admits `event` and applies it; returns its category. Amortized
    /// O(1) (a rating also pays a binary search of its rater's list);
    /// marks the category stale.
    pub fn ingest(&mut self, event: &StoreEvent) -> Result<CategoryId> {
        let category = self.admit(event)?;
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

    /// Re-packs every rating arena in place, one at a time
    /// ([`Incidence::compact`](wot_community::Incidence::compact)), and
    /// empties the worklist scratch. Changes no answer.
    pub fn compact(&mut self) {
        for state in &mut self.categories {
            state.compact();
        }
    }

    /// A [`compact`](Self::compact)ed clone — a twin for tests that hold
    /// the physical layout to have no effect on any answer. Like a
    /// clone, it draws a fresh instance id.
    pub fn compacted(&self) -> Self {
        let mut twin = self.clone();
        twin.compact();
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

    /// Heap bytes of the per-category components that grow with
    /// ingest, at capacity. A window for memory probes; not part of the
    /// API.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> HeapBytes {
        let mut bytes = HeapBytes::default();
        for state in &self.categories {
            let arenas = [
                &state.ratings_by_review_local,
                &state.ratings_by_rater_local,
            ];
            for arena in arenas {
                bytes.arenas += arena.heap_bytes();
                bytes.arena_edges += arena.num_edges() * (4 + 8);
                bytes.arena_dead += arena.dead_slots();
            }
            bytes.seeds += state.pending_seeds.capacity() * std::mem::size_of::<(u32, u32)>();
            bytes.writer_column += state.review_writer_local.capacity() * 4;
        }
        bytes
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

    /// Registers a new review: [`ingest`](Self::ingest) of a review
    /// event, under the model's own [`IdRule`]. On the default
    /// [`IdRule::Dense`] the id must be the review's arrival rank (the
    /// next id); a model built [`with_id_rule`](Self::with_id_rule)`(`
    /// [`IdRule::Subset`]`)` takes any id above every registered one.
    /// Amortized O(1); marks the category stale.
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
        self.ingest(&event).map(drop)
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
                state.revise_rating(lr, at, value, &self.cfg);
                Ok(true)
            }
            Err(refusal) => Err(CoreError::Rejected(refusal)),
            Ok(_) => self.ingest(&event).map(|_| false),
        }
    }

    /// Current expertise matrix `E` from the last refresh (use
    /// [`to_derived`](Self::to_derived) for the canonical cold snapshot).
    pub fn expertise(&self) -> Dense {
        let mut e = Dense::zeros(self.num_users, self.categories.len());
        for (c, state) in self.categories.iter().enumerate() {
            let reps = reputation::writer_reputation_flat(
                &state.review_writer_local,
                state.writer_of_local.len(),
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
    use std::sync::Arc;

    use wot_community::{CommunityBuilder, RatingScale};

    use super::*;
    use crate::pipeline;

    pub(super) fn sample_store() -> CommunityStore {
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

    #[test]
    fn staleness_tracking() {
        let store = sample_store();
        let cfg = DeriveConfig::default();
        let mut inc = IncrementalDerived::from_store(&store, &cfg)
            .unwrap()
            .with_id_rule(IdRule::Subset);
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
        // Out-of-order arrival: id 1 first. A subset model would accept
        // it; the replay contract must not.
        let events = [ReplayEvent::from(StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(1),
            category: CategoryId(0),
        })];
        assert!(IncrementalDerived::replay(2, 1, &cfg, &events).is_err());
        // The same id stream is fine on a model that holds a subset of
        // the reviews — only the dense rule pins the arrival rank.
        let mut inc = IncrementalDerived::new(2, 1, &cfg)
            .unwrap()
            .with_id_rule(IdRule::Subset);
        inc.add_review(UserId(0), ReviewId(1), CategoryId(0))
            .unwrap();
    }

    /// `add_review` admits under the model's own id rule: a dense model
    /// refuses a gap with the arrival-rank message and changes nothing; a
    /// subset model takes it.
    #[test]
    fn add_review_follows_the_models_id_rule() {
        let cfg = DeriveConfig::default();
        let mut dense = IncrementalDerived::new(2, 1, &cfg).unwrap();
        let err = dense
            .add_review(UserId(0), ReviewId(1), CategoryId(0))
            .unwrap_err();
        let gap = Rejection::NotNextReviewId {
            review: ReviewId(1),
            next: ReviewId(0),
        };
        assert!(err.to_string().contains("arrival rank assigns"), "{err}");
        assert_eq!(err, CoreError::Rejected(gap));
        assert!(!dense.is_stale());
        let mut subset = IncrementalDerived::new(2, 1, &cfg)
            .unwrap()
            .with_id_rule(IdRule::Subset);
        subset
            .add_review(UserId(0), ReviewId(1), CategoryId(0))
            .unwrap();
        assert!(subset.is_stale());
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

    pub(super) fn delta_cfg(threshold: f64) -> DeriveConfig {
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
