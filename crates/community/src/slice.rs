use std::collections::HashMap;
use std::sync::OnceLock;

use crate::{CategoryId, CommunityStore, Incidence, ReviewId, UserId};

/// Compact per-category projection — the unit of work for the reputation
/// algorithms.
///
/// The paper computes *everything per category*: review quality, rater
/// reputation and writer reputation are all category-local (Section III.A:
/// "the reputation of review rater, the quality of review and the
/// reputation of review writer should be calculated for each category").
/// A `CategorySlice` renumbers the category's reviews `0..num_reviews`,
/// its raters `0..num_raters` and its writers (`writer_of_local`), and
/// pre-groups its ratings both by review and by rater — each direction in
/// one [`Incidence`] arena, filled exactly — so the fixed-point iteration
/// runs entirely over dense local indexes and contiguous memory: flat
/// `Vec<f64>` state instead of `HashMap<UserId, f64>` lookups in the
/// Eq. 1/Eq. 2 inner loops.
///
/// Local rater/writer indexes are assigned in ascending [`UserId`] order,
/// so iterating `0..num_raters()` visits raters deterministically and
/// `rater_of_local` is sorted.
///
/// ## Lazy map views
///
/// Only the index-dense mirrors are materialized at build time. The
/// `HashMap`-keyed views ([`ratings_by_review`](Self::ratings_by_review),
/// [`ratings_by_rater`](Self::ratings_by_rater),
/// [`reviews_by_writer`](Self::reviews_by_writer),
/// [`local_of_rater`](Self::local_of_rater),
/// [`local_of_writer`](Self::local_of_writer)) are consumed only by the
/// reference solver, `derive_baseline` and tests, so they are derived
/// lazily on first access (`OnceLock`) instead of eagerly cloned — slice
/// projection on the hot path pays nothing for them.
#[derive(Debug, Clone)]
pub struct CategorySlice {
    /// The source category.
    pub category: CategoryId,
    /// Global review ids, indexed by local review index.
    pub reviews: Vec<ReviewId>,
    /// Global user id of each local rater index (ascending).
    pub rater_of_local: Vec<UserId>,
    /// Ratings received, per local review index: `(local rater index,
    /// value)` in ingestion order — drives the Eq. 1 sweep.
    pub ratings_by_review_local: Incidence,
    /// Ratings given, per local rater index: `(local review index,
    /// value)`, ascending by local review — drives the Eq. 2 sweep.
    pub ratings_by_rater_local: Incidence,
    /// Global user id of each local writer index (ascending).
    pub writer_of_local: Vec<UserId>,
    /// Local writer index of each review (parallel to `reviews`) — the
    /// column Eq. 3's one ascending pass reads.
    pub review_writer_local: Vec<u32>,
    /// Lazy view: ratings received per local review as `(rater, value)`.
    ratings_by_review: OnceLock<Vec<Vec<(UserId, f64)>>>,
    /// Lazy view: ratings given per rater, keyed by user id.
    ratings_by_rater: OnceLock<HashMap<UserId, Vec<(u32, f64)>>>,
    /// Lazy view: local reviews per writer, keyed by user id.
    reviews_by_writer: OnceLock<HashMap<UserId, Vec<u32>>>,
    /// Lazy view: inverse of `rater_of_local`.
    local_of_rater: OnceLock<HashMap<UserId, u32>>,
    /// Lazy view: inverse of `writer_of_local`.
    local_of_writer: OnceLock<HashMap<UserId, u32>>,
}

/// `num_users`-sized scatter table: global user index → position in
/// `sorted_locals` (`u32::MAX` for users not in it).
fn scatter_table(sorted_locals: &[UserId], num_users: usize) -> Vec<u32> {
    let mut slot = vec![u32::MAX; num_users];
    for (l, &u) in sorted_locals.iter().enumerate() {
        slot[u.index()] = l as u32;
    }
    slot
}

impl CategorySlice {
    pub(crate) fn build(store: &CommunityStore, category: CategoryId) -> Self {
        // Hot path: projected once per category per derivation, so local
        // indexes are resolved through O(1) scatter tables (user index →
        // local index) rather than per-rating hashing; the `HashMap`
        // views are lazy and cost nothing here. Inputs are the category's
        // data in canonical order — reviews ascending by global id,
        // per-review ratings in ingestion order.
        let reviews = store.reviews_in_category(category).to_vec();
        let writer = |rid: &ReviewId| store.reviews()[rid.index()].writer;
        let ratings_per_review: Vec<&[(UserId, f64)]> = reviews
            .iter()
            .map(|&rid| store.ratings_of_review(rid))
            .collect();

        // Writers: sorted-unique ids, then scatter-resolved locals.
        let mut writer_of_local: Vec<UserId> = reviews.iter().map(writer).collect();
        writer_of_local.sort_unstable();
        writer_of_local.dedup();
        let local_of_writer = scatter_table(&writer_of_local, store.num_users());
        let review_writer_local = reviews
            .iter()
            .map(|rid| local_of_writer[writer(rid).index()])
            .collect();

        // Ratings, grouped by review (store order) and by rater (review
        // order within each rater) — both arenas built exactly, with no
        // per-node allocation: the first collected review by review, the
        // second its transpose (count, prefix-sum, scatter).
        let mut rater_of_local: Vec<UserId> = Vec::new();
        for ratings in &ratings_per_review {
            rater_of_local.extend(ratings.iter().map(|&(rater, _)| rater));
        }
        rater_of_local.sort_unstable();
        rater_of_local.dedup();
        let local_of_rater = scatter_table(&rater_of_local, store.num_users());
        let ratings_by_review_local: Incidence = ratings_per_review
            .iter()
            .map(|ratings| {
                ratings
                    .iter()
                    .map(|&(rater, value)| (local_of_rater[rater.index()], value))
            })
            .collect();
        let ratings_by_rater_local = ratings_by_review_local.transposed(rater_of_local.len());

        Self {
            category,
            reviews,
            rater_of_local,
            ratings_by_review_local,
            ratings_by_rater_local,
            writer_of_local,
            review_writer_local,
            ratings_by_review: OnceLock::new(),
            ratings_by_rater: OnceLock::new(),
            reviews_by_writer: OnceLock::new(),
            local_of_rater: OnceLock::new(),
            local_of_writer: OnceLock::new(),
        }
    }

    /// Number of reviews in the category.
    pub fn num_reviews(&self) -> usize {
        self.reviews.len()
    }

    /// Number of distinct raters active in the category.
    pub fn num_raters(&self) -> usize {
        self.rater_of_local.len()
    }

    /// Total ratings in the category. O(1).
    pub fn num_ratings(&self) -> usize {
        self.ratings_by_review_local.num_edges()
    }

    /// Ratings received, per local review index: `(rater, value)`.
    ///
    /// Lazy user-id view of
    /// [`ratings_by_review_local`](Self::ratings_by_review_local),
    /// materialized on first access.
    pub fn ratings_by_review(&self) -> &Vec<Vec<(UserId, f64)>> {
        self.ratings_by_review.get_or_init(|| {
            (0..self.num_reviews())
                .map(|j| {
                    self.ratings_by_review_local
                        .pairs(j)
                        .map(|(lr, value)| (self.rater_of_local[lr as usize], value))
                        .collect()
                })
                .collect()
        })
    }

    /// Ratings given per rater: `(local review index, value)`, keyed by
    /// user id.
    ///
    /// Lazy view of
    /// [`ratings_by_rater_local`](Self::ratings_by_rater_local),
    /// materialized on first access.
    pub fn ratings_by_rater(&self) -> &HashMap<UserId, Vec<(u32, f64)>> {
        self.ratings_by_rater.get_or_init(|| {
            self.rater_of_local
                .iter()
                .enumerate()
                .map(|(l, &u)| (u, self.ratings_by_rater_local.pairs(l).collect()))
                .collect()
        })
    }

    /// Local review indexes written, per writer, keyed by user id, each
    /// list ascending.
    ///
    /// Lazy view of
    /// [`review_writer_local`](Self::review_writer_local),
    /// materialized on first access.
    pub fn reviews_by_writer(&self) -> &HashMap<UserId, Vec<u32>> {
        self.reviews_by_writer.get_or_init(|| {
            let mut lists = vec![Vec::new(); self.writer_of_local.len()];
            for (local, &w) in self.review_writer_local.iter().enumerate() {
                lists[w as usize].push(local as u32);
            }
            self.writer_of_local.iter().copied().zip(lists).collect()
        })
    }

    /// Local rater index of each active rater (lazy inverse of
    /// [`rater_of_local`](Self::rater_of_local)).
    pub fn local_of_rater(&self) -> &HashMap<UserId, u32> {
        self.local_of_rater.get_or_init(|| {
            self.rater_of_local
                .iter()
                .enumerate()
                .map(|(l, &u)| (u, l as u32))
                .collect()
        })
    }

    /// Local writer index of each active writer (lazy inverse of
    /// [`writer_of_local`](Self::writer_of_local)).
    pub fn local_of_writer(&self) -> &HashMap<UserId, u32> {
        self.local_of_writer.get_or_init(|| {
            self.writer_of_local
                .iter()
                .enumerate()
                .map(|(l, &u)| (u, l as u32))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{CommunityBuilder, RatingScale};

    use super::*;

    fn sample() -> CommunityStore {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        let u0 = b.add_user("u0");
        let u1 = b.add_user("u1");
        let u2 = b.add_user("u2");
        let c0 = b.add_category("c0");
        let c1 = b.add_category("c1");
        let o0 = b.add_object("o0", c0).unwrap();
        let o1 = b.add_object("o1", c0).unwrap();
        let o2 = b.add_object("o2", c1).unwrap();
        let r0 = b.add_review(u1, o0).unwrap();
        let r1 = b.add_review(u1, o1).unwrap();
        let r2 = b.add_review(u2, o2).unwrap();
        b.add_rating(u0, r0, 0.8).unwrap();
        b.add_rating(u0, r1, 0.6).unwrap();
        b.add_rating(u2, r0, 0.4).unwrap();
        b.add_rating(u0, r2, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn slice_is_category_local() {
        let s = sample();
        let slice = s.category_slice(CategoryId(0)).unwrap();
        assert_eq!(slice.num_reviews(), 2);
        assert_eq!(slice.num_ratings(), 3);
        assert_eq!(slice.num_raters(), 2);
        assert_eq!(slice.writer_of_local.len(), 1);
        // Local review 0 is global review 0, written by u1.
        assert_eq!(slice.reviews, vec![ReviewId(0), ReviewId(1)]);
        assert_eq!(slice.writer_of_local, vec![UserId(1)]);
        assert_eq!(
            slice.ratings_by_review()[0],
            vec![(UserId(0), 0.8), (UserId(2), 0.4)]
        );
        assert_eq!(
            slice.ratings_by_rater()[&UserId(0)],
            vec![(0, 0.8), (1, 0.6)]
        );
        assert_eq!(slice.reviews_by_writer()[&UserId(1)], vec![0, 1]);
    }

    #[test]
    fn local_indexes_mirror_maps() {
        let s = sample();
        let slice = s.category_slice(CategoryId(0)).unwrap();
        // Raters u0 and u2 get local indexes 0 and 1 (ascending id).
        assert_eq!(slice.rater_of_local, vec![UserId(0), UserId(2)]);
        assert_eq!(slice.local_of_rater()[&UserId(0)], 0);
        assert_eq!(slice.local_of_rater()[&UserId(2)], 1);
        // Review 0 is rated by u0 (0.8) and u2 (0.4) → locals 0 and 1.
        let pairs = |arena: &Incidence, i| arena.pairs(i).collect::<Vec<_>>();
        assert_eq!(
            pairs(&slice.ratings_by_review_local, 0),
            vec![(0, 0.8), (1, 0.4)]
        );
        assert_eq!(pairs(&slice.ratings_by_review_local, 1), vec![(0, 0.6)]);
        // Local rater 0 (= u0) mirrors ratings_by_rater()[&u0].
        assert_eq!(
            pairs(&slice.ratings_by_rater_local, 0),
            vec![(0, 0.8), (1, 0.6)]
        );
        assert_eq!(pairs(&slice.ratings_by_rater_local, 1), vec![(0, 0.4)]);
        // Built exactly: no slack, no dead space.
        assert_eq!(slice.ratings_by_review_local.num_slots(), 3);
        assert_eq!(slice.ratings_by_rater_local.num_slots(), 3);
        // Writers: only u1 active.
        assert_eq!(slice.writer_of_local, vec![UserId(1)]);
        assert_eq!(slice.local_of_writer()[&UserId(1)], 0);
        assert_eq!(slice.review_writer_local, vec![0, 0]);
    }

    #[test]
    fn lazy_views_agree_with_dense_mirrors_everywhere() {
        let s = sample();
        for c in 0..2 {
            let slice = s.category_slice(CategoryId(c)).unwrap();
            assert_eq!(slice.rater_of_local.len(), slice.num_raters());
            for (l, &u) in slice.rater_of_local.iter().enumerate() {
                assert_eq!(
                    slice.ratings_by_rater_local.pairs(l).collect::<Vec<_>>(),
                    slice.ratings_by_rater()[&u]
                );
            }
            for (j, &l) in slice.review_writer_local.iter().enumerate() {
                let u = slice.writer_of_local[l as usize];
                assert_eq!(s.reviews()[slice.reviews[j].index()].writer, u);
                assert!(slice.reviews_by_writer()[&u].contains(&(j as u32)));
            }
            for (j, ratings) in slice.ratings_by_review().iter().enumerate() {
                let locals = slice.ratings_by_review_local.pairs(j);
                assert_eq!(ratings.len(), locals.len());
                for (&(u, v), (l, lv)) in ratings.iter().zip(locals) {
                    assert_eq!(slice.rater_of_local[l as usize], u);
                    assert_eq!(v, lv);
                }
            }
        }
    }

    #[test]
    fn cloning_preserves_initialized_lazy_views() {
        let s = sample();
        let slice = s.category_slice(CategoryId(0)).unwrap();
        // Initialize one view, then clone: both copies must answer
        // identically (the clone either carries or re-derives the view).
        let before = slice.ratings_by_rater().clone();
        let cloned = slice.clone();
        assert_eq!(&before, cloned.ratings_by_rater());
        assert_eq!(slice.local_of_writer(), cloned.local_of_writer());
    }

    #[test]
    fn other_category_slice() {
        let s = sample();
        let slice = s.category_slice(CategoryId(1)).unwrap();
        assert_eq!(slice.num_reviews(), 1);
        assert_eq!(slice.writer_of_local, vec![UserId(2)]);
        assert_eq!(slice.num_raters(), 1);
    }

    #[test]
    fn unknown_category_errors() {
        let s = sample();
        assert!(s.category_slice(CategoryId(9)).is_err());
    }

    #[test]
    fn deterministic_orderings() {
        let s = sample();
        let slice = s.category_slice(CategoryId(0)).unwrap();
        assert_eq!(slice.rater_of_local, vec![UserId(0), UserId(2)]);
        assert_eq!(slice.writer_of_local, vec![UserId(1)]);
    }

    #[test]
    fn empty_category_slice() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        b.add_user("u");
        let c = b.add_category("empty");
        let s = b.build();
        let slice = s.category_slice(c).unwrap();
        assert_eq!(slice.num_reviews(), 0);
        assert_eq!(slice.num_ratings(), 0);
        assert!(slice.rater_of_local.is_empty());
        assert!(slice.ratings_by_review().is_empty());
        assert!(slice.ratings_by_rater().is_empty());
    }
}
