use std::collections::HashMap;

use wot_sparse::{Coo, Csr};

use crate::builder::RatingColumns;
use crate::{
    Category, CategoryId, CommunityError, Incidence, Object, ObjectId, Rating, RatingScale, Result,
    Review, ReviewId, TrustStatement, User, UserId,
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
    trust: Vec<TrustStatement>,
    reviews_by_writer: ReviewGroups,
    reviews_by_category: ReviewGroups,
    /// Per review, its raters' indexes and their values, in insertion
    /// order: the store's one copy of the ratings.
    ratings_by_review: Incidence,
    /// The review of every rating, in insertion order. Each review's list
    /// above keeps insertion order too, so the k-th rating ever added is
    /// the next unread slot of review `rating_order[k]`.
    rating_order: Vec<ReviewId>,
}

impl CommunityStore {
    pub(crate) fn from_parts(
        scale: RatingScale,
        users: Vec<User>,
        categories: Vec<Category>,
        objects: Vec<Object>,
        reviews: Vec<Review>,
        ratings: RatingColumns,
        trust: Vec<TrustStatement>,
    ) -> Self {
        let reviews_by_writer = ReviewGroups::new(users.len(), &reviews, |r| r.writer.index());
        let reviews_by_category =
            ReviewGroups::new(categories.len(), &reviews, |r| r.category.index());
        let RatingColumns {
            raters,
            reviews: mut rating_order,
            values,
        } = ratings;
        let mut degrees = vec![0u32; reviews.len()];
        for r in &rating_order {
            degrees[r.index()] += 1;
        }
        let mut ratings_by_review = Incidence::with_degrees(&degrees);
        for ((r, rater), &value) in rating_order.iter().zip(&raters).zip(&values) {
            ratings_by_review.push(r.index(), rater.0, value);
        }
        // The raters and values now live in the per-review lists; the
        // review column stays as the order column, trimmed to its length.
        drop((degrees, raters, values));
        rating_order.shrink_to_fit();
        Self {
            scale,
            users,
            categories,
            objects,
            reviews,
            trust,
            reviews_by_writer,
            reviews_by_category,
            ratings_by_review,
            rating_order,
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

    /// All ratings in insertion order, a revised rating in its first
    /// place. The store holds each rating once, in its review's list
    /// ([`ratings_of_review`](Self::ratings_of_review)), plus a 4-byte
    /// order entry; iterating puts the records back together. A result
    /// that cannot depend on order reads the per-review lists instead.
    pub fn ratings(&self) -> Ratings<'_> {
        Ratings {
            order: &self.rating_order,
            by_review: &self.ratings_by_review,
        }
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
        self.rating_order.len()
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
        self.reviews_by_writer.get(writer.index())
    }

    /// Reviews in `category`.
    pub fn reviews_in_category(&self, category: CategoryId) -> &[ReviewId] {
        self.reviews_by_category.get(category.index())
    }

    /// Ratings received by `review` in insertion order, as parallel
    /// slices: the raters' indexes (`UserId.0`) and the values.
    pub fn ratings_of_review(&self, review: ReviewId) -> (&[u32], &[f64]) {
        self.ratings_by_review.node(review.index())
    }

    /// Users with at least one review written or one rating given — the
    /// paper's dataset-inclusion criterion.
    pub fn active_users(&self) -> Vec<UserId> {
        let mut active = vec![false; self.users.len()];
        for r in &self.reviews {
            active[r.writer.index()] = true;
        }
        for (raters, _) in self.ratings_by_review.iter() {
            for &rater in raters {
                active[rater as usize] = true;
            }
        }
        (0..self.users.len())
            .filter(|&u| active[u])
            .map(UserId::from_index)
            .collect()
    }

    /// Heap bytes the store holds, at capacity: its records (names and
    /// keys included) and its grouped views. A window for memory probes;
    /// not part of the API.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let names: usize = self
            .users
            .iter()
            .map(|u| &u.handle)
            .chain(self.categories.iter().map(|c| &c.name))
            .chain(self.objects.iter().map(|o| &o.key))
            .map(String::capacity)
            .sum();
        names
            + held(&self.users)
            + held(&self.categories)
            + held(&self.objects)
            + held(&self.reviews)
            + held(&self.trust)
            + self.reviews_by_writer.heap_bytes()
            + self.reviews_by_category.heap_bytes()
            + self.ratings_by_review.heap_bytes()
            + held(&self.rating_order)
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
        coo.reserve(self.num_ratings());
        for (review, (raters, _)) in self.reviews.iter().zip(self.ratings_by_review.iter()) {
            for &rater in raters {
                coo.push(rater as usize, review.writer.index(), 1.0)
                    .expect("rating ids validated at build time");
            }
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
        // Each pair's sum adds its values in insertion order, which fixes
        // B's bits.
        for rt in self.ratings() {
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
        let mut kept_ratings = RatingColumns::default();
        for rt in self.ratings() {
            if let Some(new_rev) = review_map[rt.review.index()] {
                kept_ratings.push(rt.rater, new_rev, rt.value);
            }
        }
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

/// A store's ratings in insertion order: see
/// [`CommunityStore::ratings`]. Iterate it (`for rt in store.ratings()`,
/// or [`iter`](Self::iter)) to get [`Rating`] records back.
#[derive(Debug, Clone, Copy)]
pub struct Ratings<'a> {
    order: &'a [ReviewId],
    by_review: &'a Incidence,
}

impl<'a> Ratings<'a> {
    /// Number of ratings.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the store holds no rating.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The ratings in insertion order. Holds one 4-byte cursor per
    /// review while it runs.
    pub fn iter(&self) -> RatingsIter<'a> {
        let (raters, values) = self.by_review.slots();
        RatingsIter {
            order: self.order.iter(),
            raters,
            values,
            next: (0..self.by_review.num_nodes())
                .map(|r| self.by_review.offset(r))
                .collect(),
        }
    }
}

impl<'a> IntoIterator for Ratings<'a> {
    type Item = Rating;
    type IntoIter = RatingsIter<'a>;

    fn into_iter(self) -> RatingsIter<'a> {
        self.iter()
    }
}

/// Iterator over a store's ratings in insertion order
/// ([`Ratings::iter`]): the k-th rating is the next unread slot of the
/// k-th entry of the order column.
#[derive(Debug, Clone)]
pub struct RatingsIter<'a> {
    order: std::slice::Iter<'a, ReviewId>,
    /// The store's slot buffers, each review's list in insertion order.
    raters: &'a [u32],
    values: &'a [f64],
    /// Per review, the slot of its next unread rating.
    next: Vec<u32>,
}

impl Iterator for RatingsIter<'_> {
    type Item = Rating;

    #[inline]
    fn next(&mut self) -> Option<Rating> {
        let &review = self.order.next()?;
        let at = &mut self.next[review.index()];
        let slot = *at as usize;
        *at += 1;
        Some(Rating {
            rater: UserId(self.raters[slot]),
            review,
            value: self.values[slot],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.order.size_hint()
    }
}

impl ExactSizeIterator for RatingsIter<'_> {}

/// Reviews grouped by a key (writer or category) in one flat buffer:
/// group `i` is `ids[offsets[i]..offsets[i + 1]]`, ascending by id. Both
/// buffers are allocated at exactly their length: the store is built once
/// and never grows.
#[derive(Debug, Clone)]
struct ReviewGroups {
    offsets: Vec<u32>,
    ids: Vec<ReviewId>,
}

impl ReviewGroups {
    /// Groups `reviews` into `n` groups by `key`: count, prefix sum,
    /// scatter.
    fn new(n: usize, reviews: &[Review], key: impl Fn(&Review) -> usize) -> Self {
        let mut offsets = vec![0u32; n + 1];
        for r in reviews {
            offsets[key(r) + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let mut ids = vec![ReviewId(0); reviews.len()];
        for r in reviews {
            let slot = &mut next[key(r)];
            ids[*slot as usize] = r.id;
            *slot += 1;
        }
        Self { offsets, ids }
    }

    fn get(&self, i: usize) -> &[ReviewId] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.ids.capacity() * 4
    }
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
            (&[0, 2][..], &[0.8, 0.4][..])
        );
        assert_eq!(s.user_by_handle("u2").unwrap().id, UserId(2));
    }

    /// Every grouped view is allocated at its length, with lists of 0,
    /// 1, 3 and 5 entries, lengths a doubling growth would over-allocate:
    /// the review groups hold one id per review, the ratings one 12-byte
    /// slot per rating, and the order column one `ReviewId` per rating.
    #[test]
    fn store_lists_are_exact() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let users: Vec<UserId> = (0..6).map(|i| b.add_user(format!("u{i}"))).collect();
        let c0 = b.add_category("c0");
        let empty = b.add_category("c1");
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
        for groups in [&s.reviews_by_writer, &s.reviews_by_category] {
            assert_eq!(groups.ids.capacity(), s.num_reviews());
            assert_eq!(groups.offsets.len(), groups.offsets.capacity());
        }
        let by_review = &s.ratings_by_review;
        assert_eq!(by_review.num_edges(), s.num_ratings());
        assert_eq!(by_review.num_slots(), s.num_ratings());
        assert_eq!(
            by_review.heap_bytes(),
            s.num_reviews() * 12 + s.num_ratings() * 12
        );
        assert_eq!(s.rating_order.len(), s.num_ratings());
        assert_eq!(s.rating_order.capacity(), s.num_ratings());
        // The lists are the ones the accessors hand out.
        assert_eq!(s.reviews_in_category(c0).len(), 6);
        assert_eq!(s.reviews_in_category(empty), &[]);
        assert_eq!(s.reviews_by_writer(users[2]).len(), 3);
        assert_eq!(s.reviews_by_writer(users[5]), &[]);
        assert_eq!(s.ratings_of_review(reviews[0]).0.len(), 5);
        assert_eq!(s.ratings_of_review(reviews[5]).1.len(), 4);
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
