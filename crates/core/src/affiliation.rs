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
    let mut ratings = Dense::zeros(u, c);
    let mut reviews = Dense::zeros(u, c);
    for review in store.reviews() {
        let i = review.writer.index();
        let j = review.category.index();
        reviews.set(i, j, reviews.get(i, j) + 1.0);
    }
    for rating in store.ratings() {
        let review = &store.reviews()[rating.review.index()];
        let i = rating.rater.index();
        let j = review.category.index();
        ratings.set(i, j, ratings.get(i, j) + 1.0);
    }
    ActivityCounts { ratings, reviews }
}

/// Assembles `A` from activity counts per Eq. 4.
pub fn affiliation_matrix(counts: &ActivityCounts) -> Dense {
    let (u, c) = counts.ratings.shape();
    debug_assert_eq!(counts.reviews.shape(), (u, c));
    let mut a = Dense::zeros(u, c);
    for i in 0..u {
        let r_row = counts.ratings.row(i);
        let w_row = counts.reviews.row(i);
        let r_max = r_row.iter().copied().fold(0.0f64, f64::max);
        let w_max = w_row.iter().copied().fold(0.0f64, f64::max);
        for j in 0..c {
            let r_term = if r_max > 0.0 { r_row[j] / r_max } else { 0.0 };
            let w_term = if w_max > 0.0 { w_row[j] / w_max } else { 0.0 };
            let v = (r_term + w_term) / 2.0;
            if v > 0.0 {
                a.set(i, j, v);
            }
        }
    }
    a
}

/// Convenience: counts + assembly in one call.
pub fn affiliation_of(store: &CommunityStore) -> Dense {
    affiliation_matrix(&activity_counts(store))
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
