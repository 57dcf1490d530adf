//! Category slices: one category of a store, built in bulk into the
//! per-category state the online model grows by events
//! ([`CategoryState`]). This is the batch pipeline's per-category input —
//! [`pipeline::derive`](crate::pipeline::derive) builds one slice per
//! category, solves it cold and reads its table — so batch and online
//! share one layout, one solve and one table build.

use wot_community::{CategoryId, CommunityStore, Incidence, ReviewId, UserId};

use crate::incremental::CategoryState;
use crate::{riggs, DeriveConfig};

impl CategoryState {
    /// `category` of `store` in one pass, every arena filled exactly —
    /// the batch pipeline's per-category state. Locals are handed out in
    /// ascending user order through scatter tables (user index → local
    /// index); the by-review arena is collected review by review in
    /// store order (reviews ascending by id, each one's ratings in
    /// ingestion order), the by-rater arena is its transpose (each
    /// rater's ratings ascending by local review), and rater discounts
    /// are computed once. Nothing is seeded for a delta solve: the state
    /// is solved cold and read once.
    pub(crate) fn build(store: &CommunityStore, category: CategoryId, cfg: &DeriveConfig) -> Self {
        let reviews = store.reviews_in_category(category).to_vec();
        let writer = |rid: &ReviewId| store.reviews()[rid.index()].writer;
        let ratings_per_review: Vec<(&[u32], &[f64])> = reviews
            .iter()
            .map(|&rid| store.ratings_of_review(rid))
            .collect();

        let mut writer_of_local: Vec<UserId> = reviews.iter().map(writer).collect();
        writer_of_local.sort_unstable();
        writer_of_local.dedup();
        let writer_slot = scatter_table(&writer_of_local, store.num_users());
        let review_writer_local = reviews
            .iter()
            .map(|rid| writer_slot[writer(rid).index()])
            .collect();

        let mut rater_of_local: Vec<UserId> = Vec::new();
        for &(raters, _) in &ratings_per_review {
            rater_of_local.extend(raters.iter().map(|&r| UserId(r)));
        }
        rater_of_local.sort_unstable();
        rater_of_local.dedup();
        let rater_slot = scatter_table(&rater_of_local, store.num_users());
        let ratings_by_review_local =
            Incidence::relabeled(&ratings_per_review, |r| rater_slot[r as usize]);
        let ratings_by_rater_local = ratings_by_review_local.transposed(rater_of_local.len());
        let rater_discount = riggs::rater_discounts(&ratings_by_rater_local, cfg);

        Self {
            quality: vec![cfg.unrated_review_quality; reviews.len()],
            reputation: vec![cfg.initial_rater_reputation; rater_of_local.len()],
            reviews,
            ratings_by_review_local,
            rater_of_local,
            rater_slot,
            ratings_by_rater_local,
            rater_discount,
            writer_of_local,
            writer_slot,
            review_writer_local,
            stale: true,
            last_converged: true,
            ..Self::default()
        }
    }
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use wot_community::{CommunityBuilder, ObjectId, RatingScale};

    use super::*;

    /// Two categories: u1 writes r0, r1 in c0, u2 writes r2 in c1; u0
    /// rates all three, u2 rates r0 after u0.
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
        b.add_rating(u2, r0, 0.4).unwrap();
        b.add_rating(u0, r0, 0.8).unwrap();
        b.add_rating(u0, r1, 0.6).unwrap();
        b.add_rating(u0, r2, 1.0).unwrap();
        b.build()
    }

    fn pairs(arena: &Incidence, i: usize) -> Vec<(u32, f64)> {
        arena.pairs(i).collect()
    }

    #[test]
    fn slice_is_category_local() {
        let store = sample();
        let cfg = DeriveConfig::default();
        let s = CategoryState::build(&store, CategoryId(0), &cfg);
        assert_eq!(s.reviews, vec![ReviewId(0), ReviewId(1)]);
        assert_eq!(s.num_ratings(), 3);
        assert_eq!(s.writer_of_local, vec![UserId(1)]);
        assert_eq!(s.review_writer_local, vec![0, 0]);
        assert_eq!(s.quality, vec![cfg.unrated_review_quality; 2]);
        assert_eq!(s.reputation, vec![cfg.initial_rater_reputation; 2]);
        assert_eq!(s.rater_discount, vec![cfg.discount(2), cfg.discount(1)]);
    }

    #[test]
    fn other_category_slice() {
        let store = sample();
        let s = CategoryState::build(&store, CategoryId(1), &DeriveConfig::default());
        assert_eq!(s.reviews, vec![ReviewId(2)]);
        assert_eq!(s.writer_of_local, vec![UserId(2)]);
        assert_eq!(s.rater_of_local, vec![UserId(0)]);
        assert_eq!(pairs(&s.ratings_by_review_local, 0), vec![(0, 1.0)]);
    }

    #[test]
    fn deterministic_orderings() {
        let store = sample();
        let s = CategoryState::build(&store, CategoryId(0), &DeriveConfig::default());
        // u2 rated first, yet u0 takes local 0: ascending user order.
        assert_eq!(s.rater_of_local, vec![UserId(0), UserId(2)]);
        assert_eq!(s.writer_of_local, vec![UserId(1)]);
    }

    #[test]
    fn local_indexes_mirror_maps() {
        let store = sample();
        let s = CategoryState::build(&store, CategoryId(0), &DeriveConfig::default());
        // The scatter tables invert the local lists.
        assert_eq!(
            (s.rater_slot[0], s.rater_slot[1], s.rater_slot[2]),
            (0, u32::MAX, 1)
        );
        assert_eq!(s.writer_slot, vec![u32::MAX, 0, u32::MAX]);
        // Review 0's ratings keep ingestion order: u2 (local 1), then u0.
        assert_eq!(
            pairs(&s.ratings_by_review_local, 0),
            vec![(1, 0.4), (0, 0.8)]
        );
        assert_eq!(pairs(&s.ratings_by_review_local, 1), vec![(0, 0.6)]);
        // Each rater's ratings ascend by local review.
        assert_eq!(
            pairs(&s.ratings_by_rater_local, 0),
            vec![(0, 0.8), (1, 0.6)]
        );
        assert_eq!(pairs(&s.ratings_by_rater_local, 1), vec![(0, 0.4)]);
        // Built exactly: no slack, no dead space.
        assert_eq!(s.ratings_by_review_local.num_slots(), 3);
        assert_eq!(s.ratings_by_rater_local.num_slots(), 3);
    }

    #[test]
    fn empty_category_slice() {
        let mut b = CommunityBuilder::new(RatingScale::five_step());
        b.add_user("u");
        let c = b.add_category("empty");
        let store = b.build();
        let s = CategoryState::build(&store, c, &DeriveConfig::default());
        assert!(s.reviews.is_empty() && s.rater_of_local.is_empty());
        assert_eq!(s.num_ratings(), 0);
        assert_eq!(s.ratings_by_rater_local.num_nodes(), 0);
        let cold = s.solve_cold(&DeriveConfig::default());
        assert_eq!((cold.iterations, cold.converged), (1, true));
    }

    /// A random valid community: a handful of users, categories, reviews
    /// and ratings (invalid combinations skipped).
    fn community() -> impl Strategy<Value = CommunityStore> {
        (
            2usize..9,
            1usize..4,
            proptest::collection::vec((0usize..9, 0usize..12), 0..20),
            proptest::collection::vec((0usize..9, 0usize..20, 0usize..5), 0..50),
        )
            .prop_map(|(users, cats, reviews, ratings)| {
                let mut b = CommunityBuilder::new(RatingScale::five_step());
                for u in 0..users {
                    b.add_user(format!("u{u}"));
                }
                for c in 0..cats {
                    b.add_category(format!("c{c}"));
                    for o in 0..4 {
                        b.add_object(format!("o{c}-{o}"), CategoryId::from_index(c))
                            .unwrap();
                    }
                }
                let ids: Vec<ReviewId> = reviews
                    .into_iter()
                    .filter_map(|(w, o)| {
                        let object = ObjectId::from_index(o % (cats * 4));
                        b.add_review(UserId::from_index(w % users), object).ok()
                    })
                    .collect();
                let levels = [0.2, 0.4, 0.6, 0.8, 1.0];
                for (rater, r, level) in ratings {
                    if let Some(&review) = ids.get(r % ids.len().max(1)) {
                        let rater = UserId::from_index(rater % users);
                        let _ = b.add_rating(rater, review, levels[level]);
                    }
                }
                b.build()
            })
    }

    proptest! {
        /// Bulk-built categories partition the store's reviews and
        /// ratings; locals ascend by user; the writer column names each
        /// review's writer; the by-review arena is the store's lists in
        /// ingestion order, and the by-rater arena its exact transpose,
        /// each rater's list ascending by local review.
        #[test]
        fn bulk_builds_partition_the_store(store in community()) {
            let cfg = DeriveConfig::default();
            let (mut reviews, mut ratings) = (0, 0);
            for c in 0..store.num_categories() {
                let s = CategoryState::build(&store, CategoryId::from_index(c), &cfg);
                reviews += s.reviews.len();
                ratings += s.num_ratings();
                prop_assert!(s.rater_of_local.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(s.writer_of_local.windows(2).all(|w| w[0] < w[1]));
                let (by_review, by_rater) = (&s.ratings_by_review_local, &s.ratings_by_rater_local);
                prop_assert_eq!(by_review.num_slots(), by_review.num_edges());
                prop_assert_eq!(by_rater.num_slots(), by_rater.num_edges());
                prop_assert_eq!(by_rater.num_edges(), by_review.num_edges());
                for (j, &rid) in s.reviews.iter().enumerate() {
                    let review = store.review(rid).unwrap();
                    prop_assert_eq!(review.category.index(), c);
                    let writer = s.writer_of_local[s.review_writer_local[j] as usize];
                    prop_assert_eq!(writer, review.writer);
                    let (locals, values) = by_review.node(j);
                    let raters: Vec<u32> =
                        locals.iter().map(|&lr| s.rater_of_local[lr as usize].0).collect();
                    prop_assert_eq!((&raters[..], values), store.ratings_of_review(rid));
                    for (lr, v) in by_review.pairs(j) {
                        let given = pairs(by_rater, lr as usize);
                        prop_assert!(given.contains(&(j as u32, v)));
                    }
                }
                for (lr, &u) in s.rater_of_local.iter().enumerate() {
                    prop_assert_eq!(s.rater_slot[u.index()], lr as u32);
                    let (locals, _) = by_rater.node(lr);
                    prop_assert!(locals.windows(2).all(|w| w[0] < w[1]));
                    prop_assert_eq!(s.rater_discount[lr], cfg.discount(locals.len()));
                }
            }
            prop_assert_eq!(reviews, store.num_reviews());
            prop_assert_eq!(ratings, store.num_ratings());
        }
    }
}
