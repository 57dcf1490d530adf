//! Append-only ingestion event logs.
//!
//! A deployed community does not arrive as a finished [`CommunityStore`] —
//! it accretes as a stream of *events*: a review is published, a rating is
//! given. [`StoreEvent`] is that stream's vocabulary, shared by the batch
//! world (a store **is** a folded event log) and the incremental world
//! (`wot-core`'s `IncrementalDerived` consumes the same events one at a
//! time).
//!
//! Two directions are provided:
//!
//! * [`event_log`] — serialize a store into its canonical event log
//!   (reviews in id order, then ratings in insertion order); folding that
//!   log back reproduces the store exactly.
//! * [`replay_into_store`] — fold any *causally valid* log (each rating
//!   after its review) into a fresh validated store. Review ids in the log
//!   must be dense in review-event order, which is exactly what a log
//!   produced by [`event_log`] — or any causal reshuffle of it with ids
//!   renumbered by arrival, e.g. `wot_synth`'s `shuffled_event_log` —
//!   guarantees.
//!
//! The pair gives replay-conformance tests their ground truth: build a
//! store from a log, batch-derive it, and demand the incremental fold of
//! the same log lands on the identical bits.

use crate::{
    CategoryId, CommunityBuilder, CommunityError, CommunityStore, RatingScale, Result, ReviewId,
    UserId,
};

/// One ingestion event of a review community.
///
/// Trust statements are deliberately absent: they are evaluation labels,
/// never derivation inputs, so they have no place in the derivation
/// replay contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoreEvent {
    /// A review was published.
    Review {
        /// The review's author.
        writer: UserId,
        /// The id the review is known by from this point on.
        review: ReviewId,
        /// The category reviewed in.
        category: CategoryId,
    },
    /// A review received a helpfulness rating.
    Rating {
        /// The user who rated.
        rater: UserId,
        /// The rated review (must have appeared earlier in the log).
        review: ReviewId,
        /// Rating value on the community's scale.
        value: f64,
    },
}

impl StoreEvent {
    /// The review this event concerns — the routing key shared by both
    /// variants (a `Review` event creates it, a `Rating` event references
    /// it). An ingest router that partitions by review — e.g. a serving
    /// daemon deciding which category's state an event will dirty —
    /// resolves this id against its review index.
    pub fn review(&self) -> ReviewId {
        match *self {
            StoreEvent::Review { review, .. } | StoreEvent::Rating { review, .. } => review,
        }
    }

    /// The user originating the event: the writer of a `Review`, the
    /// rater of a `Rating`.
    pub fn actor(&self) -> UserId {
        match *self {
            StoreEvent::Review { writer, .. } => writer,
            StoreEvent::Rating { rater, .. } => rater,
        }
    }

    /// The category a `Review` event opens in, if this is one (`Rating`
    /// events carry no category — it is implied by the rated review).
    pub fn category(&self) -> Option<CategoryId> {
        match *self {
            StoreEvent::Review { category, .. } => Some(category),
            StoreEvent::Rating { .. } => None,
        }
    }
}

/// Why an ingest path refused a [`StoreEvent`]: one variant per rule of
/// the rating data model, in the order the rules are checked. `wot-core`'s
/// `admission::admit` is the one place the rules are decided; the type
/// lives here, beside the event, so that the batch builder's refusals of
/// the same rules ([`CommunityError::DuplicateRating`],
/// [`CommunityError::SelfRating`], [`replay_into_store`]'s id check) print
/// the same words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejection {
    /// A review's writer is not a user of the community.
    WriterOutOfRange {
        /// The writer.
        writer: UserId,
        /// The community's user count.
        users: usize,
    },
    /// A review's category is not a category of the community.
    CategoryOutOfRange {
        /// The category.
        category: CategoryId,
        /// The community's category count.
        categories: usize,
    },
    /// A state that sees every review got a review whose id is not the
    /// next one (ids are dense in arrival order).
    NotNextReviewId {
        /// The id the event carries.
        review: ReviewId,
        /// The id its arrival rank assigns.
        next: ReviewId,
    },
    /// A state that holds a subset of the reviews got a review whose id
    /// is not above every id it holds.
    NotAboveHeldReviews {
        /// The id the event carries.
        review: ReviewId,
        /// The highest id the state holds.
        last: ReviewId,
    },
    /// A rating's rater is not a user of the community.
    RaterOutOfRange {
        /// The rater.
        rater: UserId,
        /// The community's user count.
        users: usize,
    },
    /// A rating's value is not a number in `[0, 1]`.
    ValueOutOfRange {
        /// The value.
        value: f64,
    },
    /// A rating names a review the state does not hold.
    UnknownReview {
        /// The review.
        review: ReviewId,
    },
    /// A user rated their own review.
    SelfRating {
        /// The user.
        rater: UserId,
        /// Their review.
        review: ReviewId,
    },
    /// A user rated a review a second time.
    AlreadyRated {
        /// The user.
        rater: UserId,
        /// The review they rated before.
        review: ReviewId,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Rejection::WriterOutOfRange { writer, users } => {
                write!(f, "writer {writer} out of bounds for {users} users")
            }
            Rejection::CategoryOutOfRange {
                category,
                categories,
            } => write!(
                f,
                "category {category} out of bounds for {categories} categories"
            ),
            Rejection::NotNextReviewId { review, next } => write!(
                f,
                "review event carries id {review} but arrival rank assigns {next}"
            ),
            Rejection::NotAboveHeldReviews { review, last } => {
                write!(
                    f,
                    "review {review} is not above the last held review {last}"
                )
            }
            Rejection::RaterOutOfRange { rater, users } => {
                write!(f, "rater {rater} out of bounds for {users} users")
            }
            Rejection::ValueOutOfRange { value } => {
                write!(f, "rating value {value} must be within [0, 1]")
            }
            Rejection::UnknownReview { review } => write!(f, "unknown review {review}"),
            Rejection::SelfRating { rater, review } => {
                write!(f, "user {rater} cannot rate their own review {review}")
            }
            Rejection::AlreadyRated { rater, review } => {
                write!(f, "user {rater} already rated review {review}")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Serializes a store into its canonical event log: every review in id
/// order, then every rating in insertion order. Folding the result with
/// [`replay_into_store`] reproduces the store's reviews and ratings
/// exactly (ids included).
pub fn event_log(store: &CommunityStore) -> Vec<StoreEvent> {
    let mut log = Vec::with_capacity(store.num_reviews() + store.num_ratings());
    for r in store.reviews() {
        log.push(StoreEvent::Review {
            writer: r.writer,
            review: r.id,
            category: r.category,
        });
    }
    for rt in store.ratings() {
        log.push(StoreEvent::Rating {
            rater: rt.rater,
            review: rt.review,
            value: rt.value,
        });
    }
    log
}

/// Folds a causally valid event log into a fresh validated store.
///
/// Users get synthetic handles `u0..u{num_users-1}` and categories
/// `c0..c{num_categories-1}`; each review gets its own synthetic object
/// (the log carries no object identity — like the Epinions dumps, content
/// is what gets rated). Every builder invariant is enforced, and each
/// review event's id must equal its arrival rank among review events
/// (dense ids), so a log and the store it folds into always agree on
/// review identity.
pub fn replay_into_store(
    scale: RatingScale,
    num_users: usize,
    num_categories: usize,
    events: &[StoreEvent],
) -> Result<CommunityStore> {
    let mut b = CommunityBuilder::new(scale);
    for u in 0..num_users {
        b.add_user(format!("u{u}"));
    }
    for c in 0..num_categories {
        b.add_category(format!("c{c}"));
    }
    for (k, event) in events.iter().enumerate() {
        match *event {
            StoreEvent::Review {
                writer,
                review,
                category,
            } => {
                let object = b.add_object(format!("obj-{}", review.0), category)?;
                let assigned = b.add_review(writer, object)?;
                if assigned != review {
                    return Err(CommunityError::Parse {
                        file: "event-log".into(),
                        line: k + 1,
                        message: Rejection::NotNextReviewId {
                            review,
                            next: assigned,
                        }
                        .to_string(),
                    });
                }
            }
            StoreEvent::Rating {
                rater,
                review,
                value,
            } => b.add_rating(rater, review, value)?,
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let u0 = b.add_user("u0");
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let c0 = b.add_category("c0");
        let c1 = b.add_category("c1");
        let o0 = b.add_object("o0", c0).unwrap();
        let o1 = b.add_object("o1", c1).unwrap();
        let r0 = b.add_review(u1, o0).unwrap();
        let r1 = b.add_review(u2, o1).unwrap();
        b.add_rating(u0, r0, 0.8).unwrap();
        b.add_rating(u2, r0, 0.4).unwrap();
        b.add_rating(u0, r1, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn canonical_log_roundtrips() {
        let store = sample();
        let log = event_log(&store);
        assert_eq!(log.len(), store.num_reviews() + store.num_ratings());
        let rebuilt = replay_into_store(
            store.scale().clone(),
            store.num_users(),
            store.num_categories(),
            &log,
        )
        .unwrap();
        assert_eq!(rebuilt.num_reviews(), store.num_reviews());
        assert_eq!(rebuilt.num_ratings(), store.num_ratings());
        for (a, b) in rebuilt.reviews().iter().zip(store.reviews()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.writer, b.writer);
            assert_eq!(a.category, b.category);
        }
        for (a, b) in rebuilt.ratings().iter().zip(store.ratings()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn event_accessors_expose_routing_keys() {
        let rev = StoreEvent::Review {
            writer: UserId(3),
            review: ReviewId(7),
            category: CategoryId(2),
        };
        let rat = StoreEvent::Rating {
            rater: UserId(5),
            review: ReviewId(7),
            value: 0.6,
        };
        assert_eq!(rev.review(), ReviewId(7));
        assert_eq!(rat.review(), ReviewId(7));
        assert_eq!(rev.actor(), UserId(3));
        assert_eq!(rat.actor(), UserId(5));
        assert_eq!(rev.category(), Some(CategoryId(2)));
        assert_eq!(rat.category(), None);
    }

    #[test]
    fn non_dense_review_ids_rejected() {
        let events = [StoreEvent::Review {
            writer: UserId(0),
            review: ReviewId(5),
            category: CategoryId(0),
        }];
        let err = replay_into_store(RatingScale::five_step(), 2, 1, &events).unwrap_err();
        assert!(matches!(err, CommunityError::Parse { ref file, .. } if file == "event-log"));
    }

    #[test]
    fn causality_violations_rejected() {
        // Rating before any review: the builder sees a dangling review id.
        let events = [StoreEvent::Rating {
            rater: UserId(0),
            review: ReviewId(0),
            value: 0.8,
        }];
        let err = replay_into_store(RatingScale::five_step(), 2, 1, &events).unwrap_err();
        assert!(matches!(err, CommunityError::UnknownEntity { .. }));
    }
}
