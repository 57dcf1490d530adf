//! Replay conformance: the incremental pipeline, fed any causal
//! linearization of a community's event history with refreshes interleaved
//! anywhere, lands **bit-identically** on the batch pipeline's output for
//! the final store — for any thread count.
//!
//! This is the contract that makes `IncrementalDerived` "matches batch"
//! *by construction* rather than by convention: both paths maintain the
//! same index-dense grouped arrays and run the same `riggs` sweep loop, so
//! the comparison below is `==` on `f64` (and `to_bits` where belt and
//! braces are wanted), never approximate.
//!
//! The thread counts exercised are 1, 2 and all-hardware; CI adds an
//! explicit count through the `WOT_REPLAY_THREADS` environment variable
//! (matrix legs run the suite pinned to 1 and 4).

use webtrust::community::events::replay_into_store;
use webtrust::community::{events, CategoryId, CommunityStore, UserId};
use webtrust::core::{pipeline, DeriveConfig, Derived, IncrementalDerived, ReplayEvent};
use webtrust::synth::{generate, shuffled_event_log, SynthConfig};

/// 1, 2, all-hardware (0), plus whatever `WOT_REPLAY_THREADS` pins.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 0];
    if let Some(n) = std::env::var("WOT_REPLAY_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn cfg_with(threads: usize) -> DeriveConfig {
    DeriveConfig::builder().threads(threads).build().unwrap()
}

/// Interleaves deterministic refresh events into an ingestion log:
/// per-category refreshes and full refreshes at fixed strides, so the
/// online model re-solves mid-stream from many different partial states.
fn splice_refreshes(log: &[events::StoreEvent], num_categories: usize) -> Vec<ReplayEvent> {
    let mut out = Vec::with_capacity(log.len() + log.len() / 16);
    for (i, e) in log.iter().enumerate() {
        out.push(ReplayEvent::from(*e));
        if i % 37 == 17 {
            out.push(ReplayEvent::Refresh {
                category: CategoryId::from_index(i % num_categories),
            });
        }
        if i % 113 == 60 {
            out.push(ReplayEvent::RefreshAll);
        }
    }
    out
}

fn assert_bit_identical(derived: &Derived, batch: &Derived, label: &str) {
    // Structural equality covers expertise, affiliation and every
    // per-category reputation/quality list, sweep count and convergence
    // flag (PartialEq on f64 — exact).
    assert_eq!(derived, batch, "{label}");
    // Belt and braces: the f64 payloads bit for bit.
    for (a, b) in derived
        .expertise
        .as_slice()
        .iter()
        .zip(batch.expertise.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: expertise bits");
    }
    for (a, b) in derived
        .affiliation
        .as_slice()
        .iter()
        .zip(batch.affiliation.as_slice())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: affiliation bits");
    }
    // And Eq. 5 reads off the same trust, pair by sampled pair.
    let n = derived.num_users();
    for (i, j) in [(0, 1), (1, 0), (3, 7), (n - 1, 0), (n / 2, n / 3)] {
        let a = derived.pairwise_trust(UserId::from_index(i), UserId::from_index(j));
        let b = batch.pairwise_trust(UserId::from_index(i), UserId::from_index(j));
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: trust {i}->{j}");
    }
}

/// The headline conformance sweep: random causal event streams (reviews
/// and ratings interleaved across categories by a seeded shuffle, refresh
/// events spliced at fixed strides), replayed incrementally at every
/// thread count, bit-compared against `pipeline::derive` on the store the
/// stream folds into.
#[test]
fn randomized_replay_is_bit_identical_to_batch() {
    for synth_seed in [3u64, 20080407] {
        let base = generate(&SynthConfig::tiny(synth_seed)).unwrap().store;
        for shuffle_seed in [1u64, 2] {
            let log = shuffled_event_log(&base, shuffle_seed);
            let store = replay_into_store(
                base.scale().clone(),
                base.num_users(),
                base.num_categories(),
                &log,
            )
            .unwrap();
            let batch = pipeline::derive(&store, &cfg_with(1)).unwrap();
            let replay_events = splice_refreshes(&log, store.num_categories());
            for threads in thread_counts() {
                let derived = IncrementalDerived::replay(
                    store.num_users(),
                    store.num_categories(),
                    &cfg_with(threads),
                    &replay_events,
                )
                .unwrap();
                assert_bit_identical(
                    &derived,
                    &batch,
                    &format!("synth={synth_seed} shuffle={shuffle_seed} threads={threads}"),
                );
            }
        }
    }
}

/// The canonical (unshuffled) log of a store replays onto that exact
/// store's batch derivation — no rebuild in the middle.
#[test]
fn canonical_log_replay_matches_batch_on_original_store() {
    let store = generate(&SynthConfig::tiny(5)).unwrap().store;
    let batch = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
    let log: Vec<ReplayEvent> = events::event_log(&store)
        .into_iter()
        .map(ReplayEvent::from)
        .collect();
    for threads in thread_counts() {
        let derived = IncrementalDerived::replay(
            store.num_users(),
            store.num_categories(),
            &cfg_with(threads),
            &log,
        )
        .unwrap();
        assert_bit_identical(&derived, &batch, &format!("canonical threads={threads}"));
    }
}

/// Incremental ingestion through the streaming API (with aggressive
/// mid-stream warm refreshes) still snapshots bit-identically to batch.
#[test]
fn streamed_ingestion_with_warm_refreshes_snapshots_to_batch() {
    let store = generate(&SynthConfig::tiny(17)).unwrap().store;
    let cfg = cfg_with(2);
    let batch = pipeline::derive(&store, &cfg).unwrap();
    let mut inc = IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    for review in store.reviews() {
        inc.add_review(review.writer, review.id, review.category)
            .unwrap();
    }
    for (k, rating) in store.ratings().iter().enumerate() {
        inc.add_rating(rating.rater, rating.review, rating.value)
            .unwrap();
        if k % 211 == 0 {
            inc.refresh_all(); // warm mid-stream refreshes on partial data
        }
    }
    assert_bit_identical(&inc.to_derived(), &batch, "streamed");
}

/// Acceptance criterion: after a single additional rating, a warm-started
/// refresh re-converges in strictly fewer sweeps than a cold solve of the
/// same category state.
#[test]
fn warm_refresh_after_single_rating_beats_cold_solve() {
    let store = generate(&SynthConfig::tiny(7)).unwrap().store;
    let cfg = DeriveConfig::default();
    let mut inc = IncrementalDerived::from_store(&store, &cfg).unwrap();
    // A steady-state perturbation: an established rater in the category
    // rates one more review, near its converged quality.
    let review = store.reviews()[0];
    let cat = review.category;
    let quality = pipeline::derive(&store, &cfg).unwrap().per_category[cat.index()]
        .review_quality
        .iter()
        .find(|&&(rid, _)| rid == review.id)
        .unwrap()
        .1
        .clamp(0.0, 1.0);
    let already: std::collections::HashSet<UserId> = store
        .ratings_of_review(review.id)
        .iter()
        .map(|&(u, _)| u)
        .collect();
    let rater = store
        .ratings()
        .iter()
        .filter(|rt| store.reviews()[rt.review.index()].category == cat)
        .map(|rt| rt.rater)
        .find(|&u| u != review.writer && !already.contains(&u))
        .expect("an established rater has not rated review 0");
    inc.add_rating(rater, review.id, quality).unwrap();
    // Cold sweep count for the *same* in-place category state, from the
    // canonical snapshot (a cold solve by definition).
    let cold = inc.to_derived().per_category[cat.index()].iterations;
    let (warm, converged) = inc.refresh(cat);
    assert!(converged);
    assert!(warm < cold, "warm {warm} sweeps vs cold {cold}");
}

/// Replays of the same events at different thread counts are not merely
/// equal to batch — they are the same object, bit for bit, among
/// themselves (no thread count may perturb the fold).
#[test]
fn replay_is_thread_count_invariant() {
    let base = generate(&SynthConfig::tiny(23)).unwrap().store;
    let log = shuffled_event_log(&base, 9);
    let store: CommunityStore = replay_into_store(
        base.scale().clone(),
        base.num_users(),
        base.num_categories(),
        &log,
    )
    .unwrap();
    let events_spliced = splice_refreshes(&log, store.num_categories());
    let reference = IncrementalDerived::replay(
        store.num_users(),
        store.num_categories(),
        &cfg_with(1),
        &events_spliced,
    )
    .unwrap();
    for threads in thread_counts() {
        let derived = IncrementalDerived::replay(
            store.num_users(),
            store.num_categories(),
            &cfg_with(threads),
            &events_spliced,
        )
        .unwrap();
        assert_eq!(derived, reference, "threads={threads}");
    }
}
