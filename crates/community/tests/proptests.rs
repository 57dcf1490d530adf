//! Property-based tests: random community construction, invariant
//! preservation, and TSV round-trips.

use proptest::prelude::*;
use wot_community::{
    stats::CommunityStats, CategoryId, CommunityBuilder, CommunityStore, ObjectId, RatingScale,
    ReviewId, UserId,
};

/// A compact encodable description of a random community.
#[derive(Debug, Clone)]
struct Spec {
    users: usize,
    categories: usize,
    objects: Vec<usize>,              // category index per object
    reviews: Vec<(usize, usize)>,     // (writer, object) candidates
    ratings: Vec<(usize, usize, u8)>, // (rater, review-candidate idx, level)
    trust: Vec<(usize, usize)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (2usize..8, 1usize..4).prop_flat_map(|(users, categories)| {
        let objects = proptest::collection::vec(0..categories, 1..6);
        (Just(users), Just(categories), objects).prop_flat_map(
            move |(users, categories, objects)| {
                let n_obj = objects.len();
                let reviews = proptest::collection::vec((0..users, 0..n_obj), 0..10);
                let ratings = proptest::collection::vec((0..users, 0..10usize, 0u8..5), 0..20);
                let trust = proptest::collection::vec((0..users, 0..users), 0..10);
                (
                    Just(users),
                    Just(categories),
                    Just(objects),
                    reviews,
                    ratings,
                    trust,
                )
                    .prop_map(
                        |(users, categories, objects, reviews, ratings, trust)| Spec {
                            users,
                            categories,
                            objects,
                            reviews,
                            ratings,
                            trust,
                        },
                    )
            },
        )
    })
}

/// Materializes a spec, silently skipping entries that violate invariants
/// (duplicates, self-ratings, …) — the point is to produce a *valid* store
/// of random shape.
fn build(spec: &Spec) -> CommunityStore {
    let mut b = CommunityBuilder::new(RatingScale::five_step());
    for u in 0..spec.users {
        b.add_user(format!("user-{u}"));
    }
    for c in 0..spec.categories {
        b.add_category(format!("cat-{c}"));
    }
    for (i, &c) in spec.objects.iter().enumerate() {
        b.add_object(format!("obj-{i}"), CategoryId::from_index(c))
            .expect("category exists");
    }
    let mut review_ids = Vec::new();
    for &(w, o) in &spec.reviews {
        if let Ok(id) = b.add_review(UserId::from_index(w), ObjectId::from_index(o)) {
            review_ids.push(id);
        }
    }
    let levels = [0.2, 0.4, 0.6, 0.8, 1.0];
    for &(rater, rev_idx, level) in &spec.ratings {
        if review_ids.is_empty() {
            break;
        }
        let review = review_ids[rev_idx % review_ids.len()];
        let _ = b.add_rating(UserId::from_index(rater), review, levels[level as usize]);
    }
    for &(s, t) in &spec.trust {
        let _ = b.add_trust(UserId::from_index(s), UserId::from_index(t));
    }
    b.build()
}

proptest! {
    /// Builder invariants hold on arbitrary valid stores.
    #[test]
    fn invariants_hold(spec in spec()) {
        let store = build(&spec);
        // One review per (writer, object).
        let mut seen = std::collections::HashSet::new();
        for r in store.reviews() {
            prop_assert!(seen.insert((r.writer, r.object)));
            // Denormalized category matches the object's.
            prop_assert_eq!(store.object(r.object).unwrap().category, r.category);
        }
        // One rating per (rater, review); never self.
        let mut seen = std::collections::HashSet::new();
        for rt in store.ratings() {
            prop_assert!(seen.insert((rt.rater, rt.review)));
            prop_assert_ne!(store.review(rt.review).unwrap().writer, rt.rater);
            prop_assert!(store.scale().is_valid(rt.value));
        }
        // Trust is irreflexive and unique.
        let mut seen = std::collections::HashSet::new();
        for t in store.trust_statements() {
            prop_assert!(seen.insert((t.source, t.target)));
            prop_assert_ne!(t.source, t.target);
        }
    }

    /// Index tables agree with the flat record lists.
    #[test]
    fn indexes_agree(spec in spec()) {
        let store = build(&spec);
        for u in 0..store.num_users() {
            let uid = UserId::from_index(u);
            for &rid in store.reviews_by_writer(uid) {
                prop_assert_eq!(store.review(rid).unwrap().writer, uid);
            }
        }
        // Each review's ratings are the flat list's, in insertion order.
        let mut by_review = vec![(Vec::new(), Vec::new()); store.num_reviews()];
        for rt in store.ratings() {
            let (raters, values) = &mut by_review[rt.review.index()];
            raters.push(rt.rater.0);
            values.push(rt.value);
        }
        for (r, (raters, values)) in by_review.iter().enumerate() {
            let held = store.ratings_of_review(ReviewId::from_index(r));
            prop_assert_eq!(held, (&raters[..], &values[..]));
        }
    }

    /// Category slices — each category's review list and the ratings
    /// those reviews received — partition reviews and ratings.
    #[test]
    fn slices_partition(spec in spec()) {
        let store = build(&spec);
        let mut review_total = 0usize;
        let mut rating_total = 0usize;
        for c in 0..store.num_categories() {
            let reviews = store.reviews_in_category(CategoryId::from_index(c));
            review_total += reviews.len();
            for &rid in reviews {
                let review = store.review(rid).unwrap();
                prop_assert_eq!(review.category.index(), c);
                prop_assert!(store.reviews_by_writer(review.writer).contains(&rid));
                rating_total += store.ratings_of_review(rid).0.len();
            }
        }
        prop_assert_eq!(review_total, store.num_reviews());
        prop_assert_eq!(rating_total, store.num_ratings());
    }

    /// R's pattern contains the baseline matrix B's pattern exactly.
    #[test]
    fn r_and_b_have_identical_patterns(spec in spec()) {
        let store = build(&spec);
        let r = store.direct_connection_matrix();
        let b = store.baseline_matrix();
        prop_assert_eq!(r.nnz(), b.nnz());
        for (i, j, _) in r.iter() {
            let v = b.get(i, j).expect("same pattern");
            prop_assert!((0.2..=1.0).contains(&v), "baseline {} out of scale", v);
        }
    }

    /// TSV round-trip is lossless.
    #[test]
    fn tsv_roundtrip(spec in spec()) {
        let store = build(&spec);
        let dir = std::env::temp_dir().join(format!(
            "wot-community-prop-{}-{}",
            std::process::id(),
            spec.users * 1000 + store.num_ratings() * 7 + store.num_reviews()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        wot_community::tsv::save(&store, &dir).unwrap();
        let loaded = wot_community::tsv::load(&dir).unwrap();
        prop_assert_eq!(loaded.num_users(), store.num_users());
        prop_assert_eq!(loaded.num_reviews(), store.num_reviews());
        prop_assert_eq!(loaded.num_ratings(), store.num_ratings());
        prop_assert_eq!(loaded.num_trust(), store.num_trust());
        for (a, b) in loaded.ratings().iter().zip(store.ratings()) {
            prop_assert_eq!(a.rater, b.rater);
            prop_assert_eq!(a.review, b.review);
            prop_assert_eq!(a.value, b.value);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Projection keeps exactly the selected categories' activity.
    #[test]
    fn projection_is_exact(spec in spec()) {
        let store = build(&spec);
        if store.num_categories() < 2 {
            return Ok(());
        }
        let keep = CategoryId(0);
        let p = store.project_categories(&[keep]);
        prop_assert_eq!(p.num_users(), store.num_users());
        for r in p.reviews() {
            prop_assert_eq!(r.category, keep);
        }
        let expected_reviews = store.reviews().iter().filter(|r| r.category == keep).count();
        prop_assert_eq!(p.num_reviews(), expected_reviews);
        let stats = CommunityStats::of(&p);
        prop_assert_eq!(stats.reviews, expected_reviews);
    }
}
