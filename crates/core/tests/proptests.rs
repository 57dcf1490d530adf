//! Property-based tests of the derivation pipeline on randomly shaped
//! (but always valid) communities.

use proptest::prelude::*;
use wot_community::{CategoryId, CommunityBuilder, CommunityStore, ObjectId, RatingScale, UserId};
use wot_core::trust_rows::top_k_single_row;
use wot_core::{binarize, metrics, pipeline, riggs, BlockConfig, DeriveConfig, TrustRows};
use wot_sparse::{Csr, Dense};

/// Random valid community: a handful of users, categories, objects,
/// reviews and ratings (invalid combinations silently skipped).
fn community() -> impl Strategy<Value = CommunityStore> {
    (
        3usize..10,
        1usize..4,
        proptest::collection::vec((0usize..10, 0usize..12), 1..25), // reviews
        proptest::collection::vec((0usize..10, 0usize..25, 0u8..5), 0..60), // ratings
        proptest::collection::vec((0usize..10, 0usize..10), 0..20), // trust
    )
        .prop_map(|(users, cats, reviews, ratings, trust)| {
            let mut b = CommunityBuilder::new(RatingScale::five_step());
            for u in 0..users {
                b.add_user(format!("u{u}"));
            }
            for c in 0..cats {
                b.add_category(format!("c{c}"));
            }
            let objects_per_cat = 4usize;
            for c in 0..cats {
                for o in 0..objects_per_cat {
                    b.add_object(format!("o{c}-{o}"), CategoryId::from_index(c))
                        .unwrap();
                }
            }
            let n_objects = cats * objects_per_cat;
            let mut review_ids = Vec::new();
            for (w, o) in reviews {
                if let Ok(id) = b.add_review(
                    UserId::from_index(w % users),
                    ObjectId::from_index(o % n_objects),
                ) {
                    review_ids.push(id);
                }
            }
            let levels = [0.2, 0.4, 0.6, 0.8, 1.0];
            for (rater, rv, lvl) in ratings {
                if review_ids.is_empty() {
                    break;
                }
                let _ = b.add_rating(
                    UserId::from_index(rater % users),
                    review_ids[rv % review_ids.len()],
                    levels[lvl as usize],
                );
            }
            for (s, t) in trust {
                let _ = b.add_trust(UserId::from_index(s % users), UserId::from_index(t % users));
            }
            b.build()
        })
}

/// Random `A`/`E` for the bound-ordered top-k scan, each row one of the
/// shapes that stress the bound: all zero, continuous, quantised to four
/// levels (exact ties), constant (`T̂_ij` equals, or rounds past, the
/// column's `max_c E_jc`) or one-hot (`T̂_ij = E_jc`). User and writer
/// counts are rarely a multiple of the kernel's tile width; one instance
/// in three gets a negative `A` entry, which the bound does not cover.
fn scan_matrices() -> impl Strategy<Value = (Dense, Dense)> {
    (1usize..40, 1usize..14)
        .prop_flat_map(|(u, c)| {
            let row = || (0u8..5, proptest::collection::vec(0u32..1000, c..c + 1));
            (
                proptest::collection::vec(row(), u..u + 1),
                proptest::collection::vec(row(), u..u + 1),
                0u8..3,
            )
        })
        .prop_map(|(a_rows, e_rows, negative)| {
            let (u, c) = (a_rows.len(), a_rows[0].1.len());
            let fill = |rows: Vec<(u8, Vec<u32>)>| {
                let mut m = Dense::zeros(u, c);
                for (i, (kind, raw)) in rows.into_iter().enumerate() {
                    for (k, &r) in raw.iter().enumerate() {
                        let v = match kind {
                            0 => 0.0,
                            1 if r % 4 == 0 => 0.0,
                            1 => r as f64 / 997.0,
                            2 => (r % 4) as f64 / 4.0,
                            3 => (raw[0] % 9 + 1) as f64 / 9.7,
                            _ if k == raw[0] as usize % c => (raw[0] % 9 + 1) as f64 / 9.7,
                            _ => 0.0,
                        };
                        m.set(i, k, v);
                    }
                }
                m
            };
            let (mut a, e) = (fill(a_rows), fill(e_rows));
            if negative == 0 && c >= 2 {
                a.set(0, 0, -0.125);
                a.set(0, c - 1, 1.0);
            }
            (a, e)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pruned top-k scan returns, for every row, exactly the list a
    /// full row yields — same users, same bits — for any `k`, chunk
    /// height and thread count, including `k` beyond a row's positive
    /// cells, ties at the `k`-th value and rows it must compute whole.
    #[test]
    fn pruned_top_k_equals_full_row_top_k(
        (a, e) in scan_matrices(),
        k in 0usize..5,
        block_rows in 0usize..9,
        threads in 1usize..4,
    ) {
        let k = [1usize, 2, 3, 10, 100][k];
        let scan = TrustRows::top_k(&a, &e, k, &BlockConfig { block_rows, threads }).unwrap();
        prop_assert_eq!(scan.lists.len(), a.nrows());
        prop_assert!(scan.cells_computed <= scan.cells_full);
        for (i, list) in scan.lists.iter().enumerate() {
            let want = top_k_single_row(&a, &e, i, k);
            prop_assert_eq!(list.len(), want.len());
            for (got, want) in list.iter().zip(&want) {
                prop_assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
            }
        }
    }

    /// Every derived quantity respects its paper-mandated range:
    /// qualities, reputations, affiliations and trust all in [0, 1].
    #[test]
    fn ranges_hold(store in community()) {
        let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        for cr in &d.per_category {
            for &(_, v) in cr.rater_reputation.iter().chain(&cr.writer_reputation) {
                prop_assert!((0.0..=1.0).contains(&v), "reputation {v}");
            }
            for &(_, q) in &cr.review_quality {
                prop_assert!((0.0..=1.0).contains(&q), "quality {q}");
            }
            prop_assert!(cr.iterations >= 1);
        }
        for &v in d.expertise.as_slice().iter().chain(d.affiliation.as_slice()) {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        let t = d.trust_dense().unwrap();
        for &v in t.as_slice() {
            prop_assert!((0.0..=1.0).contains(&v), "trust {v}");
        }
    }

    /// The fixed point converges on small communities with default config.
    #[test]
    fn fixpoint_converges(store in community()) {
        let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        for cr in &d.per_category {
            prop_assert!(cr.converged, "category {} did not converge", cr.category);
        }
    }

    /// The index-dense Riggs solver matches the original HashMap
    /// formulation **bit for bit** on every category of every random
    /// community — same qualities, same reputations, same iteration
    /// count, same convergence flag.
    #[test]
    fn index_dense_riggs_matches_hashmap_reference(store in community()) {
        let cfg = DeriveConfig::default();
        for c in 0..store.num_categories() {
            let slice = store.category_slice(CategoryId::from_index(c)).unwrap();
            let dense = riggs::solve(&slice, &cfg);
            let reference = riggs::reference::solve(&slice, &cfg);
            prop_assert_eq!(&dense.review_quality, &reference.review_quality);
            prop_assert_eq!(dense.iterations, reference.iterations);
            prop_assert_eq!(dense.converged, reference.converged);
            prop_assert_eq!(
                dense.rater_reputation.len(),
                reference.rater_reputation.len()
            );
            for (u, rep) in dense.reputation_pairs(&slice) {
                // Exact f64 equality: both solvers iterate the same
                // arithmetic in the same order.
                prop_assert_eq!(rep, reference.rater_reputation[&u]);
            }
        }
    }

    /// Parallel derivation is bit-identical to sequential on arbitrary
    /// community shapes, for several thread counts.
    #[test]
    fn parallel_derive_matches_sequential(store in community()) {
        let sequential = pipeline::derive(
            &store,
            &DeriveConfig::builder().parallel(false).build().unwrap(),
        )
        .unwrap();
        for threads in [0usize, 2, 3] {
            let parallel = pipeline::derive(
                &store,
                &DeriveConfig::builder().parallel(true).threads(threads).build().unwrap(),
            )
            .unwrap();
            prop_assert_eq!(&parallel, &sequential);
        }
    }

    /// The full index-dense pipeline matches the HashMap baseline
    /// pipeline exactly.
    #[test]
    fn pipeline_matches_baseline(store in community()) {
        let cfg = DeriveConfig::builder().parallel(false).build().unwrap();
        let dense = pipeline::derive(&store, &cfg).unwrap();
        let baseline = pipeline::derive_baseline(&store, &cfg).unwrap();
        prop_assert_eq!(&dense, &baseline);
    }

    /// Derivation is a pure function of the store.
    #[test]
    fn derivation_is_deterministic(store in community()) {
        let d1 = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let d2 = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        prop_assert_eq!(d1.expertise.as_slice(), d2.expertise.as_slice());
        prop_assert_eq!(d1.affiliation.as_slice(), d2.affiliation.as_slice());
    }

    /// Eq. 5 equivalence: masked and dense forms agree on the mask, and
    /// support_count matches dense support.
    #[test]
    fn trust_forms_agree(store in community()) {
        let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let dense = d.trust_dense().unwrap();
        let u = store.num_users();
        let r = store.direct_connection_matrix();
        let masked = d.trust_on_mask(&r).unwrap();
        for (i, j, v) in masked.iter() {
            prop_assert!((v - dense.get(i, j)).abs() < 1e-12);
        }
        let brute = (0..u)
            .flat_map(|i| (0..u).map(move |j| (i, j)))
            .filter(|&(i, j)| dense.get(i, j) > 0.0)
            .count() as u64;
        prop_assert_eq!(d.trust_support_count().unwrap(), brute);
    }

    /// Binarization under the paper's recipe marks at most |candidates|
    /// per row and only coordinates that carry scores; validation
    /// identities hold (recall·|RT| = hits ≤ predicted-in-R).
    #[test]
    fn binarize_and_validate_consistent(store in community()) {
        let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let r = store.direct_connection_matrix();
        let t = store.trust_matrix();
        let scores = d.trust_on_mask(&r).unwrap();
        let pred = binarize::binarize_like_paper(&scores, &r, &t).unwrap();
        for i in 0..r.nrows() {
            prop_assert!(pred.row_nnz(i) <= r.row_nnz(i));
        }
        for (i, j, v) in pred.iter() {
            prop_assert_eq!(v, 1.0);
            prop_assert!(scores.contains(i, j));
        }
        let v = metrics::validate(&pred, &r, &t).unwrap();
        prop_assert!(v.predicted_in_rt <= v.rt_total);
        prop_assert!(v.predicted_in_r_minus_t <= v.r_minus_t_total);
        prop_assert!((0.0..=1.0).contains(&v.recall));
        prop_assert!((0.0..=1.0).contains(&v.precision_in_r));
        prop_assert!((0.0..=1.0).contains(&v.nontrust_as_trust_rate));
        if v.rt_total > 0 {
            let hits = (v.recall * v.rt_total as f64).round() as usize;
            prop_assert_eq!(hits, v.predicted_in_rt);
        }
    }

    /// Ablating the experience discount never lowers a reputation.
    #[test]
    fn discount_ablation_monotone(store in community()) {
        let with = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let without = pipeline::derive(
            &store,
            &DeriveConfig::builder().experience_discount(false).build().unwrap(),
        )
        .unwrap();
        // Writer reputation: quality estimates shift too (rater weights
        // change), so compare expertise only where both models see the
        // same single-review writers; the global claim that holds
        // unconditionally is on the *affiliation* matrix, which ignores
        // the discount entirely.
        prop_assert_eq!(with.affiliation.as_slice(), without.affiliation.as_slice());
        // And every writer with at least one review in a category keeps a
        // non-negative expertise either way.
        for (a, b) in with.expertise.as_slice().iter().zip(without.expertise.as_slice()) {
            prop_assert!(*a >= 0.0 && *b >= 0.0);
        }
    }

    /// Streaming the same events through the incremental model lands
    /// **bit-identically** on the batch pipeline, regardless of community
    /// shape: the bootstrap refresh is a cold solve over the same
    /// index-dense arrays, and the canonical snapshot reproduces the
    /// entire `Derived` with `==` on `f64`.
    #[test]
    fn incremental_matches_batch_bitwise(store in community()) {
        let cfg = DeriveConfig::default();
        let batch = pipeline::derive(&store, &cfg).unwrap();
        let mut inc = wot_core::IncrementalDerived::new(
            store.num_users(),
            store.num_categories(),
            &cfg,
        )
        .unwrap();
        for review in store.reviews() {
            inc.add_review(review.writer, review.id, review.category).unwrap();
        }
        for rating in store.ratings() {
            inc.add_rating(rating.rater, rating.review, rating.value).unwrap();
        }
        inc.refresh_all();
        prop_assert!(!inc.is_stale());
        prop_assert_eq!(inc.expertise().as_slice(), batch.expertise.as_slice());
        prop_assert_eq!(inc.affiliation().as_slice(), batch.affiliation.as_slice());
        prop_assert_eq!(&inc.to_derived(), &batch);
    }

    /// Replaying a store's canonical event log — with refreshes spliced at
    /// arbitrary strides — reproduces the batch derivation bit for bit at
    /// several thread counts.
    #[test]
    fn replay_of_event_log_matches_batch(store in community(), stride in 1usize..7) {
        let cfg = DeriveConfig::default();
        let batch = pipeline::derive(&store, &cfg).unwrap();
        let mut events: Vec<wot_core::ReplayEvent> = Vec::new();
        for (i, e) in wot_community::events::event_log(&store).into_iter().enumerate() {
            events.push(e.into());
            if i % stride == 0 {
                events.push(wot_core::ReplayEvent::RefreshAll);
            }
        }
        for threads in [1usize, 3] {
            let cfg_t = cfg.to_builder().thread_count(threads).build().unwrap();
            let derived = wot_core::IncrementalDerived::replay(
                store.num_users(),
                store.num_categories(),
                &cfg_t,
                &events,
            )
            .unwrap();
            prop_assert_eq!(&derived, &batch);
        }
    }

    /// Delta refresh never leaves a node stale: after an arbitrary
    /// single-rating perturbation, every node whose warm value moved
    /// appears in the worklist's visited set (threshold 1.0 — the
    /// worklist is never abandoned, so this is the pure coverage claim).
    #[test]
    fn delta_worklist_visits_every_moved_node(store in community(), pick in 0usize..1000, lvl in 0u8..5) {
        let cfg = DeriveConfig::builder()
            .delta_refresh(true)
            .delta_frontier_threshold(1.0)
            .build()
            .unwrap();
        if store.ratings().is_empty() {
            return Ok(());
        }
        let mut inc = wot_core::IncrementalDerived::from_store(&store, &cfg).unwrap();
        let rt = store.ratings()[pick % store.ratings().len()];
        let cat = store.reviews()[rt.review.index()].category;
        let before = inc.warm_state(cat).unwrap();
        let value = [0.2, 0.4, 0.6, 0.8, 1.0][lvl as usize];
        prop_assert!(inc.upsert_rating(rt.rater, rt.review, value).unwrap());
        let report = inc.refresh_traced(cat);
        prop_assert!(!report.fell_back);
        let after = &inc.warm_state(cat).unwrap();
        for (j, (x, y)) in before.quality.iter().zip(&after.quality).enumerate() {
            if x.to_bits() != y.to_bits() {
                prop_assert!(
                    report.visited_reviews.contains(&after.reviews[j]),
                    "review {} moved unvisited", after.reviews[j]
                );
            }
        }
        for (i, (x, y)) in before.reputation.iter().zip(&after.reputation).enumerate() {
            if x.to_bits() != y.to_bits() {
                prop_assert!(
                    report.visited_raters.contains(&after.raters[i]),
                    "rater {} moved unvisited", after.raters[i]
                );
            }
        }
    }

    /// Upserts through the delta path agree with the same upserts
    /// through the full-sweep path: identical accept/reject decisions,
    /// replace-vs-insert verdicts, and a bit-identical canonical
    /// snapshot — with warm states within the fixed point's epsilon.
    #[test]
    fn delta_upserts_match_full_sweep_upserts(
        store in community(),
        edits in proptest::collection::vec((0usize..10, 0usize..25, 0u8..5), 1..12),
    ) {
        let full_cfg = DeriveConfig::default();
        let delta_cfg = DeriveConfig::builder()
            .delta_refresh(true)
            .delta_frontier_threshold(0.75)
            .build()
            .unwrap();
        if store.num_reviews() == 0 {
            return Ok(());
        }
        let mut delta = wot_core::IncrementalDerived::from_store(&store, &delta_cfg).unwrap();
        let mut full = wot_core::IncrementalDerived::from_store(&store, &full_cfg).unwrap();
        let users = store.num_users();
        let reviews = store.num_reviews();
        for (u, r, lvl) in edits {
            let rater = UserId::from_index(u % users);
            let review = wot_community::ReviewId::from_index(r % reviews);
            let value = [0.2, 0.4, 0.6, 0.8, 1.0][lvl as usize];
            let a = delta.upsert_rating(rater, review, value);
            let b = full.upsert_rating(rater, review, value);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "replace/insert verdicts differ"),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "admission diverged: {:?} vs {:?}", a, b),
            }
            delta.refresh_all();
            full.refresh_all();
        }
        for (w, c) in delta.expertise().as_slice().iter().zip(full.expertise().as_slice()) {
            prop_assert!((w - c).abs() < 1e-6, "warm {} vs {}", w, c);
        }
        prop_assert_eq!(
            delta.affiliation().as_slice(),
            full.affiliation().as_slice()
        );
        prop_assert_eq!(&delta.to_derived(), &full.to_derived());
    }

    /// Generosity fractions are within [0,1] and zero for users without
    /// direct connections.
    #[test]
    fn generosity_bounds(store in community()) {
        let r = store.direct_connection_matrix();
        let t = store.trust_matrix();
        let k = binarize::trust_generosity(&r, &t).unwrap();
        for (i, &ki) in k.iter().enumerate() {
            prop_assert!((0.0..=1.0).contains(&ki));
            if r.row_nnz(i) == 0 {
                prop_assert_eq!(ki, 0.0);
            }
        }
        let _ = Csr::empty(1, 1);
    }
}
