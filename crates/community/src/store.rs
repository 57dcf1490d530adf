use std::collections::HashMap;

use wot_sparse::{Coo, Csr};

use crate::{
    Category, CategoryId, CommunityError, Object, ObjectId, Rating, RatingScale, Result, Review,
    ReviewId, TrustStatement, User, UserId,
};

/// Immutable, fully indexed community dataset.
///
/// Built by [`CommunityBuilder`](crate::CommunityBuilder) (or
/// [`tsv::load`](crate::tsv::load)); all invariants hold by construction.
/// Besides entity access it provides the matrix extractions the paper's
/// evaluation is defined over:
///
/// * [`trust_matrix`](Self::trust_matrix) — the explicit web of trust `T`,
/// * [`direct_connection_matrix`](Self::direct_connection_matrix) — `R`,
///   where `R_ij = 1` iff user `i` rated at least one review written by `j`,
/// * [`baseline_matrix`](Self::baseline_matrix) — `B`, where `B_ij` is the
///   mean rating `i` gave to `j`'s reviews (the paper's baseline model).
#[derive(Debug, Clone)]
pub struct CommunityStore {
    scale: RatingScale,
    users: Vec<User>,
    categories: Vec<Category>,
    objects: Vec<Object>,
    reviews: Vec<Review>,
    ratings: Vec<Rating>,
    trust: Vec<TrustStatement>,
    reviews_by_writer: Vec<Vec<ReviewId>>,
    reviews_by_category: Vec<Vec<ReviewId>>,
    ratings_by_review: Vec<Vec<(UserId, f64)>>,
    ratings_by_rater: Vec<Vec<(ReviewId, f64)>>,
}

impl CommunityStore {
    pub(crate) fn from_parts(
        scale: RatingScale,
        users: Vec<User>,
        categories: Vec<Category>,
        objects: Vec<Object>,
        reviews: Vec<Review>,
        ratings: Vec<Rating>,
        trust: Vec<TrustStatement>,
    ) -> Self {
        let reviews_by_writer = grouped(users.len(), &reviews, |r| (r.writer.index(), r.id));
        let reviews_by_category =
            grouped(categories.len(), &reviews, |r| (r.category.index(), r.id));
        let ratings_by_review = grouped(reviews.len(), &ratings, |rt| {
            (rt.review.index(), (rt.rater, rt.value))
        });
        let ratings_by_rater = grouped(users.len(), &ratings, |rt| {
            (rt.rater.index(), (rt.review, rt.value))
        });
        Self {
            scale,
            users,
            categories,
            objects,
            reviews,
            ratings,
            trust,
            reviews_by_writer,
            reviews_by_category,
            ratings_by_review,
            ratings_by_rater,
        }
    }

    // ---- entity access -------------------------------------------------

    /// The community's rating scale.
    pub fn scale(&self) -> &RatingScale {
        &self.scale
    }

    /// All users, indexed by `UserId`.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All categories, indexed by `CategoryId`.
    pub fn categories(&self) -> &[Category] {
        &self.categories
    }

    /// All objects, indexed by `ObjectId`.
    pub fn objects(&self) -> &[Object] {
        &self.objects
    }

    /// All reviews, indexed by `ReviewId`.
    pub fn reviews(&self) -> &[Review] {
        &self.reviews
    }

    /// All ratings in insertion order.
    pub fn ratings(&self) -> &[Rating] {
        &self.ratings
    }

    /// All explicit trust statements in insertion order.
    pub fn trust_statements(&self) -> &[TrustStatement] {
        &self.trust
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.categories.len()
    }

    /// Number of reviews.
    pub fn num_reviews(&self) -> usize {
        self.reviews.len()
    }

    /// Number of ratings.
    pub fn num_ratings(&self) -> usize {
        self.ratings.len()
    }

    /// Number of trust statements.
    pub fn num_trust(&self) -> usize {
        self.trust.len()
    }

    /// Looks up a user record, failing on a dangling id.
    pub fn user(&self, id: UserId) -> Result<&User> {
        self.users
            .get(id.index())
            .ok_or(CommunityError::UnknownEntity {
                kind: "user",
                id: id.0,
            })
    }

    /// Looks up a category record, failing on a dangling id.
    pub fn category(&self, id: CategoryId) -> Result<&Category> {
        self.categories
            .get(id.index())
            .ok_or(CommunityError::UnknownEntity {
                kind: "category",
                id: id.0,
            })
    }

    /// Looks up an object record, failing on a dangling id.
    pub fn object(&self, id: ObjectId) -> Result<&Object> {
        self.objects
            .get(id.index())
            .ok_or(CommunityError::UnknownEntity {
                kind: "object",
                id: id.0,
            })
    }

    /// Looks up a review record, failing on a dangling id.
    pub fn review(&self, id: ReviewId) -> Result<&Review> {
        self.reviews
            .get(id.index())
            .ok_or(CommunityError::UnknownEntity {
                kind: "review",
                id: id.0,
            })
    }

    /// Finds a user by handle (linear in the user count is avoided by
    /// building a map once; this is a convenience accessor for examples and
    /// tests, not a hot path).
    pub fn user_by_handle(&self, handle: &str) -> Option<&User> {
        self.users.iter().find(|u| u.handle == handle)
    }

    // ---- relationship access --------------------------------------------

    /// Reviews written by `writer`.
    pub fn reviews_by_writer(&self, writer: UserId) -> &[ReviewId] {
        &self.reviews_by_writer[writer.index()]
    }

    /// Reviews in `category`.
    pub fn reviews_in_category(&self, category: CategoryId) -> &[ReviewId] {
        &self.reviews_by_category[category.index()]
    }

    /// Ratings received by `review` as `(rater, value)` pairs.
    pub fn ratings_of_review(&self, review: ReviewId) -> &[(UserId, f64)] {
        &self.ratings_by_review[review.index()]
    }

    /// Ratings given by `rater` as `(review, value)` pairs.
    pub fn ratings_by_rater(&self, rater: UserId) -> &[(ReviewId, f64)] {
        &self.ratings_by_rater[rater.index()]
    }

    /// Users with at least one review written or one rating given — the
    /// paper's dataset-inclusion criterion.
    pub fn active_users(&self) -> Vec<UserId> {
        (0..self.users.len())
            .map(UserId::from_index)
            .filter(|&u| {
                !self.reviews_by_writer[u.index()].is_empty()
                    || !self.ratings_by_rater[u.index()].is_empty()
            })
            .collect()
    }

    // ---- matrix extraction ----------------------------------------------

    /// The explicit web of trust `T` as a binary U×U matrix.
    pub fn trust_matrix(&self) -> Csr {
        let n = self.num_users();
        let mut coo = Coo::new(n, n);
        coo.reserve(self.trust.len());
        for t in &self.trust {
            coo.push(t.source.index(), t.target.index(), 1.0)
                .expect("trust ids validated at build time");
        }
        Csr::from_coo(&coo)
    }

    /// The direct-connection matrix `R`: `R_ij = 1` iff `i` rated at least
    /// one review written by `j`.
    pub fn direct_connection_matrix(&self) -> Csr {
        let n = self.num_users();
        let mut coo = Coo::new(n, n);
        coo.reserve(self.ratings.len());
        for rt in &self.ratings {
            let writer = self.reviews[rt.review.index()].writer;
            coo.push(rt.rater.index(), writer.index(), 1.0)
                .expect("rating ids validated at build time");
        }
        // Duplicates sum on conversion; collapse to a pattern.
        Csr::from_coo(&coo).to_pattern()
    }

    /// The baseline matrix `B`: `B_ij` = mean rating `i` gave across all of
    /// `j`'s reviews (the paper's baseline trust model).
    pub fn baseline_matrix(&self) -> Csr {
        let n = self.num_users();
        let mut sums = Coo::new(n, n);
        let mut counts = Coo::new(n, n);
        for rt in &self.ratings {
            let writer = self.reviews[rt.review.index()].writer;
            sums.push(rt.rater.index(), writer.index(), rt.value)
                .expect("rating ids validated at build time");
            counts
                .push(rt.rater.index(), writer.index(), 1.0)
                .expect("rating ids validated at build time");
        }
        let sums = Csr::from_coo(&sums);
        let counts = Csr::from_coo(&counts);
        // Same pattern by construction; divide value-wise via iteration.
        let mut out = Coo::new(n, n);
        for ((i, j, s), (_, _, c)) in sums.iter().zip(counts.iter()) {
            out.push(i, j, s / c).expect("pattern coordinates valid");
        }
        Csr::from_coo(&out)
    }

    /// Projects the community onto a subset of categories: keeps every user
    /// and category record (ids stay stable) but drops objects, reviews and
    /// ratings outside `keep`. Trust statements are preserved.
    pub fn project_categories(&self, keep: &[CategoryId]) -> CommunityStore {
        let keep_set: std::collections::HashSet<CategoryId> = keep.iter().copied().collect();
        let mut kept_objects = Vec::new();
        let mut object_map: HashMap<ObjectId, ObjectId> = HashMap::new();
        for o in &self.objects {
            if keep_set.contains(&o.category) {
                let new_id = ObjectId::from_index(kept_objects.len());
                object_map.insert(o.id, new_id);
                kept_objects.push(Object {
                    id: new_id,
                    key: o.key.clone(),
                    category: o.category,
                });
            }
        }
        let mut kept_reviews = Vec::new();
        // Review ids are dense, so the old id indexes the map.
        let mut review_map: Vec<Option<ReviewId>> = vec![None; self.reviews.len()];
        for r in &self.reviews {
            if let Some(&new_obj) = object_map.get(&r.object) {
                let new_id = ReviewId::from_index(kept_reviews.len());
                review_map[r.id.index()] = Some(new_id);
                kept_reviews.push(Review {
                    id: new_id,
                    writer: r.writer,
                    object: new_obj,
                    category: r.category,
                });
            }
        }
        let kept_ratings: Vec<Rating> = self
            .ratings
            .iter()
            .filter_map(|rt| {
                review_map[rt.review.index()].map(|new_rev| Rating {
                    rater: rt.rater,
                    review: new_rev,
                    value: rt.value,
                })
            })
            .collect();
        CommunityStore::from_parts(
            self.scale.clone(),
            self.users.clone(),
            self.categories.clone(),
            kept_objects,
            kept_reviews,
            kept_ratings,
            self.trust.clone(),
        )
    }
}

/// Groups `items` into `n` lists by the index `entry` gives each, in
/// `items` order. Degrees are counted first, so every list is allocated
/// at exactly its length: a list grown by doubling would carry up to as
/// much again in slack, and the store is built once and never grows.
fn grouped<T, V>(n: usize, items: &[T], entry: impl Fn(&T) -> (usize, V)) -> Vec<Vec<V>> {
    let mut degree = vec![0usize; n];
    for item in items {
        degree[entry(item).0] += 1;
    }
    let mut lists: Vec<Vec<V>> = degree.into_iter().map(Vec::with_capacity).collect();
    for item in items {
        let (i, v) = entry(item);
        lists[i].push(v);
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CommunityBuilder;

    /// Two categories, three users.
    /// cat0: obj0 reviewed by u1 (rated by u0: 0.8, u2: 0.4)
    /// cat1: obj1 reviewed by u2 (rated by u0: 1.0)
    /// trust: u0 -> u1
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
        b.add_trust(u0, u1).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let s = sample();
        assert_eq!(s.num_users(), 3);
        assert_eq!(s.num_categories(), 2);
        assert_eq!(s.num_reviews(), 2);
        assert_eq!(s.num_ratings(), 3);
        assert_eq!(s.num_trust(), 1);
    }

    #[test]
    fn lookups_and_indexes() {
        let s = sample();
        assert_eq!(s.user(UserId(1)).unwrap().handle, "u1");
        assert!(s.user(UserId(9)).is_err());
        assert_eq!(s.reviews_by_writer(UserId(1)), &[ReviewId(0)]);
        assert_eq!(s.reviews_in_category(CategoryId(1)), &[ReviewId(1)]);
        assert_eq!(
            s.ratings_of_review(ReviewId(0)),
            &[(UserId(0), 0.8), (UserId(2), 0.4)]
        );
        assert_eq!(s.ratings_by_rater(UserId(0)).len(), 2);
        assert_eq!(s.user_by_handle("u2").unwrap().id, UserId(2));
    }

    /// Every adjacency list is allocated at its length: lists of 0, 1,
    /// 3 and 5 entries, lengths a doubling growth would over-allocate.
    #[test]
    fn store_lists_are_exact() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let users: Vec<UserId> = (0..6).map(|i| b.add_user(format!("u{i}"))).collect();
        let c0 = b.add_category("c0");
        let _empty = b.add_category("c1");
        let mut reviews = Vec::new();
        for (k, &writer) in users[..3].iter().enumerate() {
            for o in 0..=k {
                let obj = b.add_object(format!("o{k}-{o}"), c0).unwrap();
                reviews.push(b.add_review(writer, obj).unwrap());
            }
        }
        for &rater in &users[1..] {
            for &r in &reviews {
                // Skips the rater's own reviews.
                let _ = b.add_rating(rater, r, 0.6);
            }
        }
        let s = b.build();
        let lens_and_caps = s
            .reviews_by_writer
            .iter()
            .chain(&s.reviews_by_category)
            .map(|l| (l.len(), l.capacity()))
            .chain(s.ratings_by_review.iter().map(|l| (l.len(), l.capacity())))
            .chain(s.ratings_by_rater.iter().map(|l| (l.len(), l.capacity())));
        for (len, capacity) in lens_and_caps {
            assert_eq!(capacity, len);
        }
        // The lists are the ones the accessors hand out.
        assert_eq!(s.reviews_in_category(c0).len(), 6);
        assert_eq!(s.reviews_by_writer(users[2]).len(), 3);
        assert_eq!(s.ratings_by_rater(users[5]).len(), 6);
        assert_eq!(s.ratings_of_review(reviews[0]).len(), 5);
    }

    #[test]
    fn active_users_checks_both_roles() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let writer = b.add_user("writer");
        let rater = b.add_user("rater");
        let _lurker = b.add_user("lurker");
        let c = b.add_category("c");
        let o = b.add_object("o", c).unwrap();
        let r = b.add_review(writer, o).unwrap();
        b.add_rating(rater, r, 0.6).unwrap();
        let s = b.build();
        assert_eq!(s.active_users(), vec![writer, rater]);
    }

    #[test]
    fn trust_matrix_binary() {
        let s = sample();
        let t = s.trust_matrix();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(0, 1), Some(1.0));
    }

    #[test]
    fn direct_connection_matrix_collapses_multiplicity() {
        let s = sample();
        let r = s.direct_connection_matrix();
        // u0 rated reviews of u1 and u2; u2 rated review of u1.
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.get(0, 1), Some(1.0));
        assert_eq!(r.get(0, 2), Some(1.0));
        assert_eq!(r.get(2, 1), Some(1.0));
        assert_eq!(r.get(1, 0), None);
    }

    #[test]
    fn baseline_matrix_averages() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let rater = b.add_user("rater");
        let writer = b.add_user("writer");
        let c = b.add_category("c");
        let o1 = b.add_object("o1", c).unwrap();
        let o2 = b.add_object("o2", c).unwrap();
        let r1 = b.add_review(writer, o1).unwrap();
        let r2 = b.add_review(writer, o2).unwrap();
        b.add_rating(rater, r1, 0.2).unwrap();
        b.add_rating(rater, r2, 1.0).unwrap();
        let s = b.build();
        let bm = s.baseline_matrix();
        assert_eq!(bm.nnz(), 1);
        assert!((bm.get(0, 1).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn project_categories_keeps_users_and_drops_foreign_reviews() {
        let s = sample();
        let p = s.project_categories(&[CategoryId(0)]);
        assert_eq!(p.num_users(), 3);
        assert_eq!(p.num_categories(), 2); // ids stay stable
        assert_eq!(p.num_reviews(), 1);
        assert_eq!(p.num_ratings(), 2);
        assert_eq!(p.num_trust(), 1);
        assert_eq!(p.reviews()[0].writer, UserId(1));
        // Re-indexed object ids stay dense.
        assert_eq!(p.objects()[0].id, ObjectId(0));
    }
}
