//! The Users×Category affiliation matrix `A` (Step 2, Eq. 4).
//!
//! A user's affiliation with a category averages their **rating** activity
//! and their **writing** activity there, each max-normalized across the
//! user's own categories:
//!
//! ```text
//! A_ij = ( a^r_ij / max_j' a^r_ij'  +  a^w_ij / max_j' a^w_ij' ) / 2   (4)
//! ```
//!
//! The normalization is per-user (row-wise): a user whose entire activity
//! sits in one category gets affiliation 1 there regardless of volume,
//! which is exactly the paper's intent — affiliation captures *where* a
//! user's attention goes, not *how much* of it there is. A user with no
//! ratings (or no reviews) contributes 0 for that term, so pure raters and
//! pure writers top out at 0.5.
//!
//! Because the normalization is row-wise, one rating or review changes
//! exactly one row of `A`. [`ActivityLedger`] keeps the counts of a live
//! community together with a stamp of when each user's row last changed,
//! so a publisher that already holds an `A` recomputes only the rows
//! stamped since it last looked ([`ActivityLedger::patch`]) — through the
//! same [`affiliation_row`] the batch [`affiliation_matrix`] runs, so a
//! patched matrix is bit-identical to a rebuilt one.

use std::sync::atomic::{AtomicU64, Ordering};

use wot_community::CommunityStore;
use wot_sparse::Dense;

/// Raw per-user, per-category activity counts backing Eq. 4.
#[derive(Debug, Clone)]
pub struct ActivityCounts {
    /// `a^r_ij`: ratings user `i` gave in category `j`.
    pub ratings: Dense,
    /// `a^w_ij`: reviews user `i` wrote in category `j`.
    pub reviews: Dense,
}

/// Counts rating and writing activity per user per category.
pub fn activity_counts(store: &CommunityStore) -> ActivityCounts {
    let u = store.num_users();
    let c = store.num_categories();
    let mut ratings = vec![0.0; u * c];
    let mut reviews = vec![0.0; u * c];
    for review in store.reviews() {
        reviews[review.writer.index() * c + review.category.index()] += 1.0;
    }
    for rating in store.ratings() {
        let review = &store.reviews()[rating.review.index()];
        ratings[rating.rater.index() * c + review.category.index()] += 1.0;
    }
    let dense = |data| Dense::from_vec(u, c, data).expect("shape matches the buffer");
    ActivityCounts {
        ratings: dense(ratings),
        reviews: dense(reviews),
    }
}

/// Eq. 4 for one user: `out[j]` from the user's rating counts and review
/// counts per category. The one copy of the formula — batch assembly, the
/// incremental model and the cluster coordinator all run it, which is what
/// makes their `A` rows agree bit for bit.
pub fn affiliation_row(ratings: &[f64], reviews: &[f64], out: &mut [f64]) {
    debug_assert!(ratings.len() == out.len() && reviews.len() == out.len());
    let r_max = ratings.iter().copied().fold(0.0f64, f64::max);
    let w_max = reviews.iter().copied().fold(0.0f64, f64::max);
    for ((o, &r), &w) in out.iter_mut().zip(ratings).zip(reviews) {
        let r_term = if r_max > 0.0 { r / r_max } else { 0.0 };
        let w_term = if w_max > 0.0 { w / w_max } else { 0.0 };
        let v = (r_term + w_term) / 2.0;
        *o = if v > 0.0 { v } else { 0.0 };
    }
}

/// Assembles `A` from activity counts per Eq. 4.
pub fn affiliation_matrix(counts: &ActivityCounts) -> Dense {
    let (u, c) = counts.ratings.shape();
    debug_assert_eq!(counts.reviews.shape(), (u, c));
    let mut a = Dense::zeros(u, c);
    if c > 0 {
        for (i, out) in a.as_mut_slice().chunks_exact_mut(c).enumerate() {
            affiliation_row(counts.ratings.row(i), counts.reviews.row(i), out);
        }
    }
    a
}

/// Convenience: counts + assembly in one call.
pub fn affiliation_of(store: &CommunityStore) -> Dense {
    affiliation_matrix(&activity_counts(store))
}

/// Source of process-unique [`ActivityLedger`] ids. 0 is never handed out:
/// it is what a publisher bound to no ledger yet holds.
static NEXT_LEDGER_ID: AtomicU64 = AtomicU64::new(1);

fn next_ledger_id() -> u64 {
    // Relaxed: the id only has to be unique; it publishes no other data.
    NEXT_LEDGER_ID.fetch_add(1, Ordering::Relaxed)
}

/// The activity counts of a **live** community, with the bookkeeping an
/// incremental publisher needs: every change to a user's counts stamps
/// that user's row with a fresh tick of the ledger's clock, so "which rows
/// of `A` are out of date" is a scan for stamps newer than the clock value
/// the publisher last saw — no dirty list to keep in step, and nothing
/// for a reader holding only `&self` to mutate.
///
/// Stamps and clock are meaningful for this instance only, so each ledger
/// carries a process-unique id and a clone draws a fresh
/// one: a publisher that finds a different id than the one it assembled
/// from knows its matrices belong to another community and starts over.
#[derive(Debug)]
pub struct ActivityLedger {
    id: u64,
    counts: ActivityCounts,
    /// Per user: the clock value of the last change to one of their
    /// counts (0 = never changed, so the row is all zeros).
    row_stamp: Vec<u64>,
    clock: u64,
}

impl Clone for ActivityLedger {
    fn clone(&self) -> Self {
        Self {
            id: next_ledger_id(),
            counts: self.counts.clone(),
            row_stamp: self.row_stamp.clone(),
            clock: self.clock,
        }
    }
}

impl ActivityLedger {
    /// An all-zero ledger for a community of the given shape.
    pub fn new(num_users: usize, num_categories: usize) -> Self {
        Self {
            id: next_ledger_id(),
            counts: ActivityCounts {
                ratings: Dense::zeros(num_users, num_categories),
                reviews: Dense::zeros(num_users, num_categories),
            },
            row_stamp: vec![0; num_users],
            clock: 0,
        }
    }

    /// This instance's process-unique id (never 0).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// `(users, categories)`.
    pub fn shape(&self) -> (usize, usize) {
        self.counts.ratings.shape()
    }

    fn stamp(&mut self, user: usize) {
        self.clock += 1;
        self.row_stamp[user] = self.clock;
    }

    /// Adds `by` to `a^r[user, category]` — `1.0` for a new rating, `-1.0`
    /// to take one back (exact: the counts are integers held in `f64`).
    pub fn bump_ratings(&mut self, user: usize, category: usize, by: f64) {
        let r = &mut self.counts.ratings;
        r.set(user, category, r.get(user, category) + by);
        self.stamp(user);
    }

    /// Adds `by` to `a^w[user, category]`; see
    /// [`bump_ratings`](Self::bump_ratings).
    pub fn bump_reviews(&mut self, user: usize, category: usize, by: f64) {
        let w = &mut self.counts.reviews;
        w.set(user, category, w.get(user, category) + by);
        self.stamp(user);
    }

    /// `A` built from scratch (Eq. 4 over every row).
    pub fn affiliation(&self) -> Dense {
        affiliation_matrix(&self.counts)
    }

    /// Brings `a` — this ledger's `A` as of clock value `seen` — up to
    /// date by recomputing the rows stamped since, and returns the clock
    /// value to pass next time. With `seen = 0` and an all-zero `a` this
    /// is the full build: rows never stamped are rows of zeros.
    ///
    /// Nothing stamped since `seen` means `a` is not written at all, so a
    /// matrix that shares its buffer with a published copy is not copied
    /// (see [`Dense`]); otherwise it is taken for writing once.
    pub fn patch(&self, a: &mut Dense, seen: u64) -> u64 {
        debug_assert_eq!(a.shape(), self.shape());
        let Some(first) = self.row_stamp.iter().position(|&stamp| stamp > seen) else {
            return self.clock;
        };
        let c = self.shape().1;
        let rows = a.as_mut_slice();
        for (i, &stamp) in self.row_stamp.iter().enumerate().skip(first) {
            if stamp > seen {
                affiliation_row(
                    self.counts.ratings.row(i),
                    self.counts.reviews.row(i),
                    &mut rows[i * c..(i + 1) * c],
                );
            }
        }
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use wot_community::{CommunityBuilder, RatingScale, UserId};

    use super::*;

    /// User 0: 3 ratings in cat0, 1 in cat1; 2 reviews in cat1, none in
    /// cat0. Hand computation:
    ///   a^r normalized = [1, 1/3]; a^w normalized = [0, 1]
    ///   A_0 = [(1+0)/2, (1/3+1)/2] = [0.5, 2/3]
    fn fixture() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let u0 = b.add_user("u0");
        let w = b.add_user("w");
        let c0 = b.add_category("c0");
        let c1 = b.add_category("c1");
        // Writer provides rateable reviews.
        for k in 0..3 {
            let o = b.add_object(format!("c0-{k}"), c0).unwrap();
            let r = b.add_review(w, o).unwrap();
            b.add_rating(u0, r, 0.8).unwrap();
        }
        let o = b.add_object("c1-0", c1).unwrap();
        let r = b.add_review(w, o).unwrap();
        b.add_rating(u0, r, 0.8).unwrap();
        // u0 writes two reviews in c1.
        for k in 0..2 {
            let o = b.add_object(format!("c1-u0-{k}"), c1).unwrap();
            b.add_review(u0, o).unwrap();
        }
        b.build()
    }

    #[test]
    fn matches_hand_computation() {
        let store = fixture();
        let a = affiliation_of(&store);
        assert!((a.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((a.get(0, 1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn counts_are_raw_activity() {
        let store = fixture();
        let counts = activity_counts(&store);
        assert_eq!(counts.ratings.get(0, 0), 3.0);
        assert_eq!(counts.ratings.get(0, 1), 1.0);
        assert_eq!(counts.reviews.get(0, 1), 2.0);
        assert_eq!(counts.reviews.get(0, 0), 0.0);
    }

    #[test]
    fn pure_rater_tops_at_half() {
        let store = fixture();
        let a = affiliation_of(&store);
        // The writer `w` wrote in c0 (3 reviews) and c1 (1 review), never
        // rated: a^w normalized = [1, 1/3], a^r = 0.
        assert!((a.get(1, 0) - 0.5).abs() < 1e-12);
        assert!((a.get(1, 1) - 1.0 / 6.0).abs() < 1e-12);
        let _ = UserId(1);
    }

    #[test]
    fn inactive_user_has_zero_row() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        b.add_user("lurker");
        b.add_category("c0");
        let store = b.build();
        let a = affiliation_of(&store);
        assert_eq!(a.row_sums(), vec![0.0]);
    }

    /// A patched `A` equals a rebuilt one after every kind of count
    /// change (added, taken back, a row emptied again), and the patch
    /// recomputes stamped rows only.
    #[test]
    fn ledger_patch_matches_rebuild_and_touches_stamped_rows_only() {
        let mut ledger = ActivityLedger::new(4, 3);
        let mut a = Dense::zeros(4, 3);
        let mut seen = ledger.patch(&mut a, 0);
        assert_eq!(a, ledger.affiliation());
        let steps: [(usize, usize, f64, bool); 6] = [
            (0, 0, 1.0, true),
            (0, 1, 1.0, true),
            (2, 1, 1.0, false),
            (0, 0, 1.0, true),
            (0, 1, -1.0, true),
            (2, 1, -1.0, false),
        ];
        for (user, cat, by, rating) in steps {
            if rating {
                ledger.bump_ratings(user, cat, by);
            } else {
                ledger.bump_reviews(user, cat, by);
            }
            // Poison every other row: the patch must leave them alone.
            let poisoned: Vec<usize> = (0..4).filter(|&i| i != user).collect();
            let saved = a.clone();
            for &i in &poisoned {
                a.row_mut(i).fill(f64::NAN);
            }
            seen = ledger.patch(&mut a, seen);
            for &i in &poisoned {
                assert!(a.row(i).iter().all(|v| v.is_nan()), "row {i} recomputed");
                a.row_mut(i).copy_from_slice(saved.row(i));
            }
            assert_eq!(a, ledger.affiliation());
        }
        // Nothing stamped since: nothing recomputed.
        a.as_mut_slice().fill(f64::NAN);
        assert_eq!(ledger.patch(&mut a, seen), seen);
        assert!(a.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn ledger_clones_draw_fresh_ids() {
        let ledger = ActivityLedger::new(2, 2);
        let twin = ledger.clone();
        assert_ne!(ledger.id(), 0);
        assert_ne!(ledger.id(), twin.id());
        assert_ne!(ActivityLedger::new(2, 2).id(), twin.id());
    }

    #[test]
    fn affiliation_in_unit_range() {
        let store = fixture();
        let a = affiliation_of(&store);
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                let v = a.get(i, j);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
