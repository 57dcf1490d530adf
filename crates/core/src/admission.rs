//! The one admission rule every ingest path applies.
//!
//! The paper's data model is a set of ratings in `[0, 1]`, each given by
//! a user who is not the review's writer, at most one per (rater, review)
//! pair. Every event that reaches the Eq. 1–2 fixed point must obey those
//! rules, so [`admit`] is the contract of every ingest path: the online
//! model ([`IncrementalDerived`](crate::IncrementalDerived)), the flat
//! daemon and every shard worker (both through the model, inside
//! `wot-serve`'s engine), and the cluster coordinator (over its own
//! review table). Each refusal is a typed [`Rejection`], which prints the
//! same words on every backend.
//!
//! [`admit`] reads its state through an [`AdmissionView`]: the user count,
//! a [`ReviewTable`] (every held review's category and writer, and with
//! it the category count), the review-id rule, and a duplicate probe that
//! each storage answers its own way.

use wot_community::{CategoryId, ReviewId, StoreEvent, UserId};

pub use wot_community::Rejection;

/// Which review ids a state admits next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdRule {
    /// The state sees every review of the community (the flat model, the
    /// coordinator): a new review's id is the next one, its arrival rank.
    Dense,
    /// The state holds the reviews of some categories only (a shard
    /// worker): a new review's id is above every id it holds. Events
    /// arrive in global order, so that is exactly "not yet registered".
    Subset,
}

/// What [`admit`] reads of the state an event would join.
pub trait AdmissionView {
    /// The community's user count: the bound on writer and rater ids.
    fn num_users(&self) -> usize;
    /// Every review the state holds; its category count bounds category
    /// ids.
    fn reviews(&self) -> &ReviewTable;
    /// Which review ids may come next.
    fn id_rule(&self) -> IdRule;
    /// Whether `rater` (a valid user) already rated the held review
    /// `review`, whose row is `row`.
    fn has_rated(&self, rater: UserId, review: ReviewId, row: ReviewRow) -> bool;
}

/// Checks `event` against `view` without changing anything and returns
/// the category it belongs to. The rules run in a fixed order — bounds,
/// value range, review id, known review, no self-rating, no duplicate —
/// and the first one broken is the refusal.
pub fn admit(view: &impl AdmissionView, event: &StoreEvent) -> Result<CategoryId, Rejection> {
    let users = view.num_users();
    let reviews = view.reviews();
    match *event {
        StoreEvent::Review {
            writer,
            review,
            category,
        } => {
            if writer.index() >= users {
                return Err(Rejection::WriterOutOfRange { writer, users });
            }
            let categories = reviews.num_categories();
            if category.index() >= categories {
                return Err(Rejection::CategoryOutOfRange {
                    category,
                    categories,
                });
            }
            reviews.check_new(review, view.id_rule())?;
            Ok(category)
        }
        StoreEvent::Rating {
            rater,
            review,
            value,
        } => {
            if rater.index() >= users {
                return Err(Rejection::RaterOutOfRange { rater, users });
            }
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(Rejection::ValueOutOfRange { value });
            }
            let Some(row) = reviews.get(review) else {
                return Err(Rejection::UnknownReview { review });
            };
            if row.writer == rater {
                return Err(Rejection::SelfRating { rater, review });
            }
            if view.has_rated(rater, review, row) {
                return Err(Rejection::AlreadyRated { rater, review });
            }
            Ok(row.category)
        }
    }
}

/// One held review: where it lives and who wrote it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReviewRow {
    /// The review's category.
    pub category: CategoryId,
    /// The review's writer.
    pub writer: UserId,
    /// Its index among its category's reviews, in arrival order.
    pub local: u32,
}

/// Every held review, by id, appended in ascending id order.
///
/// While the ids are exactly `0..len` (a state that sees every review)
/// a lookup is a direct index and the table stores no ids at all. The
/// first id past a gap (a worker's subset, or the raw
/// [`add_review`](crate::IncrementalDerived::add_review) API) switches it
/// to a sorted id column, which a lookup binary-searches. Nothing is
/// ever sized by an id the table has not stored: a shard worker's input
/// comes from outside the process.
#[derive(Debug, Clone)]
pub struct ReviewTable {
    rows: Vec<ReviewRow>,
    /// The id of each row, ascending — `None` while the ids are dense.
    ids: Option<Vec<ReviewId>>,
    /// Reviews held per category: the next category-local index.
    per_category: Vec<u32>,
}

impl ReviewTable {
    /// An empty table over `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        ReviewTable {
            rows: Vec::new(),
            ids: None,
            per_category: vec![0; num_categories],
        }
    }

    /// The community's category count.
    pub fn num_categories(&self) -> usize {
        self.per_category.len()
    }

    /// The row of a held review.
    pub fn get(&self, review: ReviewId) -> Option<ReviewRow> {
        match &self.ids {
            None => self.rows.get(review.index()).copied(),
            Some(ids) => Some(self.rows[ids.binary_search(&review).ok()?]),
        }
    }

    /// The highest id held.
    fn last(&self) -> Option<ReviewId> {
        match &self.ids {
            Some(ids) => ids.last().copied(),
            None => self.rows.len().checked_sub(1).map(ReviewId::from_index),
        }
    }

    /// Whether `review` may be the next review under `rule`.
    pub fn check_new(&self, review: ReviewId, rule: IdRule) -> Result<(), Rejection> {
        let last = self.last();
        match rule {
            IdRule::Dense => {
                let next = last.map_or(0, |l| u64::from(l.0) + 1);
                if u64::from(review.0) != next {
                    return Err(Rejection::NotNextReviewId {
                        review,
                        next: ReviewId(next as u32),
                    });
                }
            }
            IdRule::Subset => {
                if let Some(last) = last.filter(|&l| review <= l) {
                    return Err(Rejection::NotAboveHeldReviews { review, last });
                }
            }
        }
        Ok(())
    }

    /// Appends a review above every held id; returns its category-local
    /// index.
    ///
    /// # Panics
    /// Panics if `review` is not above every held id or `category` is out
    /// of range — both are [`admit`]'s to refuse first.
    pub fn push(&mut self, review: ReviewId, category: CategoryId, writer: UserId) -> u32 {
        assert!(
            self.check_new(review, IdRule::Subset).is_ok(),
            "review {review} pushed out of order"
        );
        if self.ids.is_none() && review.index() != self.rows.len() {
            self.ids = Some((0..self.rows.len()).map(ReviewId::from_index).collect());
        }
        if let Some(ids) = &mut self.ids {
            ids.push(review);
        }
        let slot = &mut self.per_category[category.index()];
        let local = *slot;
        *slot += 1;
        self.rows.push(ReviewRow {
            category,
            writer,
            local,
        });
        local
    }

    /// Removes the review appended last — a rollback, newest first.
    pub fn pop(&mut self) -> Option<ReviewRow> {
        let row = self.rows.pop()?;
        if let Some(ids) = &mut self.ids {
            ids.pop();
        }
        self.per_category[row.category.index()] -= 1;
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare view: a table plus an explicit list of (rater, review)
    /// pairs already rated.
    struct Bare {
        users: usize,
        table: ReviewTable,
        rule: IdRule,
        rated: Vec<(UserId, ReviewId)>,
    }

    impl AdmissionView for Bare {
        fn num_users(&self) -> usize {
            self.users
        }
        fn reviews(&self) -> &ReviewTable {
            &self.table
        }
        fn id_rule(&self) -> IdRule {
            self.rule
        }
        fn has_rated(&self, rater: UserId, review: ReviewId, _: ReviewRow) -> bool {
            self.rated.contains(&(rater, review))
        }
    }

    /// Four users, two categories, review 0 by user 0 in category 0,
    /// rated by user 1.
    fn community(rule: IdRule) -> Bare {
        let mut table = ReviewTable::new(2);
        table.push(ReviewId(0), CategoryId(0), UserId(0));
        Bare {
            users: 4,
            table,
            rule,
            rated: vec![(UserId(1), ReviewId(0))],
        }
    }

    fn review(writer: u32, review: u32, category: u32) -> StoreEvent {
        StoreEvent::Review {
            writer: UserId(writer),
            review: ReviewId(review),
            category: CategoryId(category),
        }
    }

    fn rating(rater: u32, review: u32, value: f64) -> StoreEvent {
        StoreEvent::Rating {
            rater: UserId(rater),
            review: ReviewId(review),
            value,
        }
    }

    /// One case per variant, each with its message pinned.
    #[test]
    fn every_rejection_has_its_case_and_message() {
        let view = community(IdRule::Dense);
        let cases = [
            (review(4, 1, 0), "writer 4 out of bounds for 4 users"),
            (review(0, 1, 2), "category 2 out of bounds for 2 categories"),
            (
                review(0, 2, 0),
                "review event carries id 2 but arrival rank assigns 1",
            ),
            (rating(4, 0, 0.5), "rater 4 out of bounds for 4 users"),
            (rating(2, 0, 1.5), "rating value 1.5 must be within [0, 1]"),
            (
                rating(2, 0, f64::NAN),
                "rating value NaN must be within [0, 1]",
            ),
            (rating(2, 1, 0.5), "unknown review 1"),
            (rating(0, 0, 0.5), "user 0 cannot rate their own review 0"),
            (rating(1, 0, 0.5), "user 1 already rated review 0"),
        ];
        for (event, message) in cases {
            let refusal = admit(&view, &event).unwrap_err();
            assert_eq!(refusal.to_string(), message, "{event:?}");
        }
        let subset = community(IdRule::Subset);
        let refusal = admit(&subset, &review(1, 0, 1)).unwrap_err();
        assert_eq!(
            refusal,
            Rejection::NotAboveHeldReviews {
                review: ReviewId(0),
                last: ReviewId(0)
            }
        );
        assert_eq!(
            refusal.to_string(),
            "review 0 is not above the last held review 0"
        );
        // What passes returns the event's category.
        assert_eq!(admit(&view, &review(3, 1, 1)), Ok(CategoryId(1)));
        assert_eq!(admit(&view, &rating(2, 0, 1.0)), Ok(CategoryId(0)));
    }

    /// Bounds come before everything else, and the value before the
    /// review it rates.
    #[test]
    fn the_first_broken_rule_is_the_refusal() {
        let view = community(IdRule::Dense);
        assert!(matches!(
            admit(&view, &review(9, 7, 9)),
            Err(Rejection::WriterOutOfRange { .. })
        ));
        assert!(matches!(
            admit(&view, &review(0, 7, 9)),
            Err(Rejection::CategoryOutOfRange { .. })
        ));
        assert!(matches!(
            admit(&view, &rating(0, 7, -1.0)),
            Err(Rejection::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            admit(&view, &rating(0, 7, 0.5)),
            Err(Rejection::UnknownReview { .. })
        ));
    }

    /// A worker's view refuses an id at or below one it holds and takes
    /// a gap above it; lookups then binary-search the sparse ids.
    #[test]
    fn the_subset_rule_takes_gaps_above_and_nothing_at_or_below() {
        let mut view = community(IdRule::Subset);
        view.table.push(ReviewId(5), CategoryId(1), UserId(2));
        assert!(admit(&view, &review(0, 5, 0)).is_err());
        assert!(admit(&view, &review(0, 3, 0)).is_err());
        assert_eq!(admit(&view, &review(0, 9, 0)), Ok(CategoryId(0)));
        let local = view.table.push(ReviewId(9), CategoryId(0), UserId(0));
        assert_eq!(local, 1, "second review of category 0");
        assert_eq!(view.table.get(ReviewId(3)), None);
        assert_eq!(
            view.table.get(ReviewId(5)),
            Some(ReviewRow {
                category: CategoryId(1),
                writer: UserId(2),
                local: 0
            })
        );
        assert_eq!(admit(&view, &rating(2, 9, 0.5)), Ok(CategoryId(0)));
        // The dense rule names the id after the highest one held.
        view.rule = IdRule::Dense;
        assert_eq!(
            admit(&view, &review(0, 4, 0)),
            Err(Rejection::NotNextReviewId {
                review: ReviewId(4),
                next: ReviewId(10)
            })
        );
        // Rollback pops newest first and frees the local index.
        assert_eq!(view.table.pop().map(|r| r.local), Some(1));
        assert_eq!(view.table.get(ReviewId(9)), None);
        assert_eq!(view.table.push(ReviewId(7), CategoryId(0), UserId(0)), 1);
    }

    /// An id the table has not admitted sizes nothing: lookups, checks
    /// and refusals of `u32::MAX` leave every buffer as it was, and
    /// admitting it stores one row.
    #[test]
    fn a_huge_unadmitted_id_allocates_nothing() {
        let mut view = community(IdRule::Dense);
        let capacity = |t: &ReviewTable| (t.rows.capacity(), t.ids.as_ref().map(Vec::capacity));
        let before = capacity(&view.table);
        let huge = u32::MAX;
        assert_eq!(view.table.get(ReviewId(huge)), None);
        assert!(admit(&view, &review(0, huge, 0)).is_err());
        assert!(admit(&view, &rating(2, huge, 0.5)).is_err());
        assert_eq!(capacity(&view.table), before);
        view.rule = IdRule::Subset;
        assert!(admit(&view, &review(0, huge, 0)).is_ok());
        view.table.push(ReviewId(huge), CategoryId(0), UserId(0));
        assert_eq!(view.table.rows.len(), 2);
        let ids = view.table.ids.as_ref().map_or(0, Vec::capacity);
        assert!(ids < 16 && view.table.rows.capacity() < 16);
        assert_eq!(view.table.get(ReviewId(huge)).map(|r| r.local), Some(1));
    }

    /// A subset whose first review is not review 0 is sparse from the
    /// start.
    #[test]
    fn a_first_review_past_zero_is_found_by_its_id() {
        let mut table = ReviewTable::new(1);
        table.push(ReviewId(3), CategoryId(0), UserId(1));
        assert_eq!(table.get(ReviewId(0)), None);
        assert_eq!(table.get(ReviewId(3)).map(|r| r.writer), Some(UserId(1)));
        assert!(table.check_new(ReviewId(3), IdRule::Subset).is_err());
        table.push(ReviewId(4), CategoryId(0), UserId(2));
        assert_eq!(table.get(ReviewId(4)).map(|r| r.local), Some(1));
        assert_eq!(table.get(ReviewId(1)), None);
    }
}
