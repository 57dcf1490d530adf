use std::collections::{HashMap, HashSet};

use crate::{
    Category, CategoryId, CommunityError, CommunityStore, Object, ObjectId, Rating, RatingScale,
    Result, Review, ReviewId, TrustStatement, User, UserId,
};

/// Referential-integrity-checked construction of a [`CommunityStore`].
///
/// The builder hands out dense ids in insertion order and enforces the
/// invariants documented on the entity types:
///
/// * unique user handles, category names and object keys,
/// * at most one review per (writer, object),
/// * at most one rating per (rater, review), never on one's own review,
/// * rating values on the community's [`RatingScale`],
/// * no self-trust, no duplicate trust statements.
#[derive(Debug, Clone)]
pub struct CommunityBuilder {
    scale: RatingScale,
    users: Vec<User>,
    categories: Vec<Category>,
    objects: Vec<Object>,
    reviews: Vec<Review>,
    ratings: Vec<Rating>,
    trust: Vec<TrustStatement>,
    user_handles: HashMap<String, UserId>,
    category_names: HashMap<String, CategoryId>,
    object_keys: HashMap<String, ObjectId>,
    review_keys: HashSet<(UserId, ObjectId)>,
    /// Position of each (rater, review) rating in `ratings`, for duplicate
    /// detection and O(1) upsert.
    rating_index: HashMap<(UserId, ReviewId), usize>,
    trust_keys: HashSet<(UserId, UserId)>,
}

impl CommunityBuilder {
    /// Creates an empty builder with the given rating scale.
    pub fn new(scale: RatingScale) -> Self {
        Self {
            scale,
            users: Vec::new(),
            categories: Vec::new(),
            objects: Vec::new(),
            reviews: Vec::new(),
            ratings: Vec::new(),
            trust: Vec::new(),
            user_handles: HashMap::new(),
            category_names: HashMap::new(),
            object_keys: HashMap::new(),
            review_keys: HashSet::new(),
            rating_index: HashMap::new(),
            trust_keys: HashSet::new(),
        }
    }

    /// Registers a user; duplicate handles get the existing id back.
    pub fn add_user(&mut self, handle: impl Into<String>) -> UserId {
        let handle = handle.into();
        if let Some(&id) = self.user_handles.get(&handle) {
            return id;
        }
        let id = UserId::from_index(self.users.len());
        self.user_handles.insert(handle.clone(), id);
        self.users.push(User { id, handle });
        id
    }

    /// Registers a user, failing on a duplicate handle.
    pub fn add_user_strict(&mut self, handle: impl Into<String>) -> Result<UserId> {
        let handle = handle.into();
        if self.user_handles.contains_key(&handle) {
            return Err(CommunityError::DuplicateKey {
                kind: "user",
                key: handle,
            });
        }
        Ok(self.add_user(handle))
    }

    /// Registers a category; duplicate names get the existing id back.
    pub fn add_category(&mut self, name: impl Into<String>) -> CategoryId {
        let name = name.into();
        if let Some(&id) = self.category_names.get(&name) {
            return id;
        }
        let id = CategoryId::from_index(self.categories.len());
        self.category_names.insert(name.clone(), id);
        self.categories.push(Category { id, name });
        id
    }

    /// Registers an object in a category, failing on an unknown category or
    /// duplicate key.
    pub fn add_object(&mut self, key: impl Into<String>, category: CategoryId) -> Result<ObjectId> {
        let key = key.into();
        if category.index() >= self.categories.len() {
            return Err(CommunityError::UnknownEntity {
                kind: "category",
                id: category.0,
            });
        }
        if self.object_keys.contains_key(&key) {
            return Err(CommunityError::DuplicateKey {
                kind: "object",
                key,
            });
        }
        let id = ObjectId::from_index(self.objects.len());
        self.object_keys.insert(key.clone(), id);
        self.objects.push(Object { id, key, category });
        Ok(id)
    }

    /// Records a review of `object` by `writer`.
    pub fn add_review(&mut self, writer: UserId, object: ObjectId) -> Result<ReviewId> {
        if writer.index() >= self.users.len() {
            return Err(CommunityError::UnknownEntity {
                kind: "user",
                id: writer.0,
            });
        }
        let Some(obj) = self.objects.get(object.index()) else {
            return Err(CommunityError::UnknownEntity {
                kind: "object",
                id: object.0,
            });
        };
        if !self.review_keys.insert((writer, object)) {
            return Err(CommunityError::DuplicateReview { writer, object });
        }
        let id = ReviewId::from_index(self.reviews.len());
        self.reviews.push(Review {
            id,
            writer,
            object,
            category: obj.category,
        });
        Ok(id)
    }

    /// Validates everything about a rating except (rater, review)
    /// uniqueness — the part `add_rating` and `upsert_rating` disagree on.
    fn validate_rating(&self, rater: UserId, review: ReviewId, value: f64) -> Result<()> {
        if rater.index() >= self.users.len() {
            return Err(CommunityError::UnknownEntity {
                kind: "user",
                id: rater.0,
            });
        }
        let Some(rev) = self.reviews.get(review.index()) else {
            return Err(CommunityError::UnknownEntity {
                kind: "review",
                id: review.0,
            });
        };
        if rev.writer == rater {
            return Err(CommunityError::SelfRating {
                user: rater,
                review,
            });
        }
        if !self.scale.is_valid(value) {
            return Err(CommunityError::OffScaleRating { value });
        }
        Ok(())
    }

    /// Records a rating of `review` by `rater` with `value`.
    pub fn add_rating(&mut self, rater: UserId, review: ReviewId, value: f64) -> Result<()> {
        self.validate_rating(rater, review, value)?;
        if self.rating_index.contains_key(&(rater, review)) {
            return Err(CommunityError::DuplicateRating { rater, review });
        }
        self.rating_index
            .insert((rater, review), self.ratings.len());
        self.ratings.push(Rating {
            rater,
            review,
            value,
        });
        Ok(())
    }

    /// Records a rating, or — when `rater` already rated `review` —
    /// replaces the stored value in place (the rating keeps its original
    /// position in insertion order). Returns `true` iff an existing rating
    /// was replaced.
    ///
    /// Streaming ingestion needs this: review sites let users revise a
    /// helpfulness vote, and a re-ingested feed replays the same rating
    /// line twice; both must fold to one rating with the latest value
    /// rather than abort where [`add_rating`](Self::add_rating)'s strict
    /// uniqueness would.
    pub fn upsert_rating(&mut self, rater: UserId, review: ReviewId, value: f64) -> Result<bool> {
        self.validate_rating(rater, review, value)?;
        if let Some(&at) = self.rating_index.get(&(rater, review)) {
            self.ratings[at].value = value;
            return Ok(true);
        }
        self.rating_index
            .insert((rater, review), self.ratings.len());
        self.ratings.push(Rating {
            rater,
            review,
            value,
        });
        Ok(false)
    }

    /// Records an explicit trust statement `source → target`.
    pub fn add_trust(&mut self, source: UserId, target: UserId) -> Result<()> {
        for u in [source, target] {
            if u.index() >= self.users.len() {
                return Err(CommunityError::UnknownEntity {
                    kind: "user",
                    id: u.0,
                });
            }
        }
        if source == target {
            return Err(CommunityError::SelfTrust(source));
        }
        if !self.trust_keys.insert((source, target)) {
            return Err(CommunityError::DuplicateTrust { source, target });
        }
        self.trust.push(TrustStatement { source, target });
        Ok(())
    }

    /// Number of users registered so far.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of reviews registered so far.
    pub fn num_reviews(&self) -> usize {
        self.reviews.len()
    }

    /// Finalizes the store, computing all indexes.
    pub fn build(self) -> CommunityStore {
        let Self {
            scale,
            users,
            categories,
            objects,
            reviews,
            ratings,
            trust,
            user_handles,
            category_names,
            object_keys,
            review_keys,
            rating_index,
            trust_keys,
        } = self;
        // The key maps only guard insertion; free them before the store
        // builds its indexes, so the two never coexist.
        drop((
            user_handles,
            category_names,
            object_keys,
            review_keys,
            rating_index,
            trust_keys,
        ));
        CommunityStore::from_parts(scale, users, categories, objects, reviews, ratings, trust)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (CommunityBuilder, UserId, UserId, ReviewId) {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let alice = b.add_user("alice");
        let bob = b.add_user("bob");
        let cat = b.add_category("movies");
        let obj = b.add_object("film-1", cat).unwrap();
        let review = b.add_review(bob, obj).unwrap();
        (b, alice, bob, review)
    }

    #[test]
    fn add_user_idempotent_by_handle() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let a1 = b.add_user("alice");
        let a2 = b.add_user("alice");
        assert_eq!(a1, a2);
        assert_eq!(b.num_users(), 1);
        assert!(b.add_user_strict("alice").is_err());
        assert!(b.add_user_strict("carol").is_ok());
    }

    #[test]
    fn review_constraints() {
        let (mut b, _alice, bob, _review) = base();
        let obj = ObjectId(0);
        assert!(matches!(
            b.add_review(bob, obj),
            Err(CommunityError::DuplicateReview { .. })
        ));
        assert!(matches!(
            b.add_review(UserId(99), obj),
            Err(CommunityError::UnknownEntity { .. })
        ));
        assert!(matches!(
            b.add_review(bob, ObjectId(99)),
            Err(CommunityError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn rating_constraints() {
        let (mut b, alice, bob, review) = base();
        assert!(b.add_rating(alice, review, 0.8).is_ok());
        assert!(matches!(
            b.add_rating(alice, review, 0.8),
            Err(CommunityError::DuplicateRating { .. })
        ));
        assert!(matches!(
            b.add_rating(bob, review, 0.8),
            Err(CommunityError::SelfRating { .. })
        ));
        let (mut b2, alice2, _, review2) = base();
        assert!(matches!(
            b2.add_rating(alice2, review2, 0.55),
            Err(CommunityError::OffScaleRating { .. })
        ));
        assert!(matches!(
            b2.add_rating(UserId(99), review2, 0.8),
            Err(CommunityError::UnknownEntity { .. })
        ));
        assert!(matches!(
            b2.add_rating(alice2, ReviewId(99), 0.8),
            Err(CommunityError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn upsert_rating_replaces_in_place() {
        let (mut b, alice, _bob, review) = base();
        // First upsert inserts.
        assert!(!b.upsert_rating(alice, review, 0.4).unwrap());
        // Second upsert replaces the value, keeping one rating in place.
        assert!(b.upsert_rating(alice, review, 0.8).unwrap());
        let store = b.build();
        assert_eq!(store.num_ratings(), 1);
        assert_eq!(store.ratings()[0].value, 0.8);
        assert_eq!(store.ratings()[0].rater, alice);
    }

    #[test]
    fn upsert_rating_keeps_insertion_order() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let alice = b.add_user("alice");
        let carol = b.add_user("carol");
        let bob = b.add_user("bob");
        let cat = b.add_category("movies");
        let obj = b.add_object("film-1", cat).unwrap();
        let review = b.add_review(bob, obj).unwrap();
        b.add_rating(alice, review, 0.2).unwrap();
        b.add_rating(carol, review, 0.6).unwrap();
        // Revising alice's vote must not move it behind carol's.
        assert!(b.upsert_rating(alice, review, 1.0).unwrap());
        let store = b.build();
        assert_eq!(
            store.ratings_of_review(review),
            (&[alice.0, carol.0][..], &[1.0, 0.6][..])
        );
    }

    #[test]
    fn upsert_rating_still_validates() {
        let (mut b, alice, bob, review) = base();
        // Same integrity rules as add_rating: scale, self-rating,
        // dangling ids.
        assert!(matches!(
            b.upsert_rating(alice, review, 0.55),
            Err(CommunityError::OffScaleRating { .. })
        ));
        assert!(matches!(
            b.upsert_rating(bob, review, 0.8),
            Err(CommunityError::SelfRating { .. })
        ));
        assert!(matches!(
            b.upsert_rating(alice, ReviewId(99), 0.8),
            Err(CommunityError::UnknownEntity { .. })
        ));
        assert!(matches!(
            b.upsert_rating(UserId(99), review, 0.8),
            Err(CommunityError::UnknownEntity { .. })
        ));
        // A failed upsert leaves nothing behind.
        assert_eq!(b.build().num_ratings(), 0);
    }

    #[test]
    fn add_after_upsert_detects_duplicate() {
        let (mut b, alice, _bob, review) = base();
        assert!(!b.upsert_rating(alice, review, 0.4).unwrap());
        assert!(matches!(
            b.add_rating(alice, review, 0.6),
            Err(CommunityError::DuplicateRating { .. })
        ));
    }

    #[test]
    fn trust_constraints() {
        let (mut b, alice, bob, _) = base();
        assert!(b.add_trust(alice, bob).is_ok());
        assert!(matches!(
            b.add_trust(alice, bob),
            Err(CommunityError::DuplicateTrust { .. })
        ));
        assert!(matches!(
            b.add_trust(alice, alice),
            Err(CommunityError::SelfTrust(_))
        ));
        assert!(matches!(
            b.add_trust(alice, UserId(77)),
            Err(CommunityError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn object_constraints() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let cat = b.add_category("movies");
        assert!(b.add_object("x", cat).is_ok());
        assert!(matches!(
            b.add_object("x", cat),
            Err(CommunityError::DuplicateKey { .. })
        ));
        assert!(matches!(
            b.add_object("y", CategoryId(9)),
            Err(CommunityError::UnknownEntity { .. })
        ));
    }
}
