//! Random **causal interleavings** of community event logs.
//!
//! A review community's history is a partial order: a rating can only
//! follow the review it rates, but everything else — reviews across
//! categories, ratings across reviews — may interleave arbitrarily. The
//! replay-conformance suite needs many *different* linearizations of the
//! same community to prove the incremental pipeline insensitive to arrival
//! order, so [`shuffled_event_log`] draws a uniform-ish random topological
//! order of the store's events with the crate's seeded xoshiro stream
//! (same seed, same interleaving, on every platform).
//!
//! Review ids are renumbered by arrival (the id a review would receive if
//! the shuffled log were ingested through a [`CommunityBuilder`]), so the
//! emitted log is directly foldable by
//! [`wot_community::events::replay_into_store`] and by `wot-core`'s
//! `IncrementalDerived::replay`.
//!
//! [`CommunityBuilder`]: wot_community::CommunityBuilder

use wot_community::{CommunityStore, ReviewId, StoreEvent, UserId};

use crate::rng::Xoshiro256pp;

/// Emits the store's reviews and ratings in a seeded random order that
/// respects causality (each rating after its review), with review ids
/// renumbered densely by arrival.
///
/// The result folds into a store with the same derived model as `store`
/// itself — same users, same per-category review sets, same rating
/// multisets per review — but with a fresh arrival history, which is
/// exactly what replay-conformance testing wants to vary.
pub fn shuffled_event_log(store: &CommunityStore, seed: u64) -> Vec<StoreEvent> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let reviews = store.reviews();

    /// One emittable item: a review (by index) or the `at`-th rating of
    /// a review (by index), in the store's per-review order.
    enum Item {
        Review(u32),
        Rating { review: u32, at: u32 },
    }
    let mut ready: Vec<Item> = (0..reviews.len() as u32).map(Item::Review).collect();
    let mut new_id_of: Vec<Option<ReviewId>> = vec![None; reviews.len()];
    let mut next_review = 0u32;
    let mut log = Vec::with_capacity(reviews.len() + store.num_ratings());
    while !ready.is_empty() {
        // Uniform pick from the ready pool (modulo bias over a 2^64 draw
        // is immaterial here); swap_remove keeps the pop O(1) without
        // affecting the distribution.
        let k = (rng.next_u64_impl() % ready.len() as u64) as usize;
        match ready.swap_remove(k) {
            Item::Review(r) => {
                let review = &reviews[r as usize];
                let id = ReviewId(next_review);
                next_review += 1;
                new_id_of[r as usize] = Some(id);
                log.push(StoreEvent::Review {
                    writer: review.writer,
                    review: id,
                    category: review.category,
                });
                let rated = store.ratings_of_review(review.id).0.len() as u32;
                ready.extend((0..rated).map(|at| Item::Rating { review: r, at }));
            }
            Item::Rating { review, at } => {
                let (raters, values) = store.ratings_of_review(ReviewId(review));
                log.push(StoreEvent::Rating {
                    rater: UserId(raters[at as usize]),
                    review: new_id_of[review as usize].expect("review emitted before rating"),
                    value: values[at as usize],
                });
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use wot_community::events::replay_into_store;
    use wot_community::CategoryId;

    use super::*;
    use crate::{generate, SynthConfig};

    #[test]
    fn shuffle_is_causal_complete_and_deterministic() {
        let store = generate(&SynthConfig::tiny(11)).unwrap().store;
        let log = shuffled_event_log(&store, 99);
        assert_eq!(log.len(), store.num_reviews() + store.num_ratings());
        // Causality: every rating's review already appeared; review ids
        // are dense in arrival order.
        let mut seen = std::collections::HashSet::new();
        let mut next = 0;
        for e in &log {
            match *e {
                StoreEvent::Review { review, .. } => {
                    assert_eq!(review.index(), next);
                    next += 1;
                    seen.insert(review);
                }
                StoreEvent::Rating { review, .. } => assert!(seen.contains(&review)),
            }
        }
        // Determinism: same seed, same log; different seed, different log.
        assert_eq!(log, shuffled_event_log(&store, 99));
        assert_ne!(log, shuffled_event_log(&store, 100));
    }

    /// The benchmark's laptop log (its default community and log seeds),
    /// event for event: a change to how the shuffle reads the store must
    /// leave every event and its position alone. `DefaultHasher::new()`
    /// is SipHash under fixed keys; were a toolchain to change that
    /// algorithm, re-derive the constant on the parent commit.
    #[test]
    fn laptop_event_log_is_pinned() {
        use std::hash::{Hash, Hasher};
        let store = generate(&SynthConfig::laptop(20080407)).unwrap().store;
        let log = shuffled_event_log(&store, 20080408);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for e in &log {
            match *e {
                StoreEvent::Review {
                    writer,
                    review,
                    category,
                } => (0u8, writer.0, review.0, category.0).hash(&mut h),
                StoreEvent::Rating {
                    rater,
                    review,
                    value,
                } => (1u8, rater.0, review.0, value.to_bits()).hash(&mut h),
            }
        }
        assert_eq!(
            (log.len(), h.finish()),
            (160_088, 8_018_163_356_629_882_007)
        );
    }

    #[test]
    fn shuffled_log_folds_into_an_equivalent_store() {
        let store = generate(&SynthConfig::tiny(12)).unwrap().store;
        let log = shuffled_event_log(&store, 5);
        let rebuilt = replay_into_store(
            store.scale().clone(),
            store.num_users(),
            store.num_categories(),
            &log,
        )
        .unwrap();
        assert_eq!(rebuilt.num_reviews(), store.num_reviews());
        assert_eq!(rebuilt.num_ratings(), store.num_ratings());
        // Same per-category review counts and the same rating multiset
        // per (writer, category) — identity up to arrival order.
        for c in 0..store.num_categories() {
            let cid = CategoryId::from_index(c);
            assert_eq!(
                rebuilt.reviews_in_category(cid).len(),
                store.reviews_in_category(cid).len()
            );
        }
        let key = |s: &wot_community::CommunityStore| {
            let mut v: Vec<(u32, u32, u64)> = s
                .ratings()
                .iter()
                .map(|rt| {
                    let w = s.reviews()[rt.review.index()].writer;
                    (rt.rater.0, w.0, rt.value.to_bits())
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&rebuilt), key(&store));
    }
}
