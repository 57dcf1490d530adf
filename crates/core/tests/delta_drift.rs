//! The per-event delta solve does not drift.
//!
//! A delta refresh recomputes only what moved past the tolerance, and a
//! dense pass resumes from whatever the worklist left. Run one refresh per
//! event over a long stream and the warm state could, in principle, walk
//! away from the fixed point a pass at a time. It must not: at every
//! checkpoint, every category's warm review qualities and rater
//! reputations are within `1e-6` of a cold solve of the same prefix. The
//! stream must also exercise both kinds of refresh — pure worklists, and
//! refreshes that ran at least one dense pass — or it proves nothing
//! about their mix.
//!
//! The full run (10 k laptop-preset events after a 60 % bootstrap, a cold
//! solve every 100th) is `#[ignore]`d for the debug tier-1 suite and runs
//! in release: `cargo test --release -p wot-core --test delta_drift --
//! --ignored`. A 1 k-event stretch of the same stream runs by default.

use wot_community::{CategoryId, StoreEvent};
use wot_core::{DeriveConfig, DerivedCache, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

const EPSILON: f64 = 1e-6;
const CHECK_EVERY: usize = 100;

/// How many refreshes of each kind a drift run saw.
struct Refreshes {
    worklist: usize,
    dense: usize,
}

/// Bootstraps on the first 60 % of a laptop-preset stream, then applies
/// `tail` events with one refresh each at the default frontier threshold,
/// holding the warm state to a cold solve every [`CHECK_EVERY`] events.
fn drift(tail: usize) -> Refreshes {
    let store = generate(&SynthConfig::laptop(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 31);
    let cfg = DeriveConfig::builder().delta_refresh(true).build().unwrap();
    assert_eq!(cfg.delta_frontier_threshold, 0.25);
    let boot = log.len() * 6 / 10;
    assert!(
        log.len() - boot >= tail,
        "{} events after the bootstrap, {tail} wanted",
        log.len() - boot
    );

    let mut review_category = Vec::new();
    let mut category_of = |e: &StoreEvent| match *e {
        StoreEvent::Review { category, .. } => {
            review_category.push(category);
            category
        }
        StoreEvent::Rating { review, .. } => review_category[review.index()],
    };
    let categories: Vec<CategoryId> = log.iter().map(&mut category_of).collect();

    let mut model =
        IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    for e in &log[..boot] {
        model.apply(&ReplayEvent::from(*e)).unwrap();
    }
    model.refresh_all();
    let mut warm_cache = DerivedCache::default();
    let mut seen = Refreshes {
        worklist: 0,
        dense: 0,
    };
    for (k, (e, &cat)) in log[boot..boot + tail]
        .iter()
        .zip(&categories[boot..])
        .enumerate()
    {
        model.apply(&ReplayEvent::from(*e)).unwrap();
        let report = model.refresh_traced(cat);
        assert!(report.converged, "event {k}: hit the iteration cap");
        if report.fell_back {
            seen.dense += 1;
        } else if report.sweeps > 0 {
            seen.worklist += 1;
        }
        if (k + 1) % CHECK_EVERY == 0 {
            assert_within_epsilon(&mut model, &mut warm_cache, k + 1);
        }
    }
    seen
}

/// Every category's warm tables against its cold ones: the same reviews
/// and raters in the same order, each value within [`EPSILON`].
fn assert_within_epsilon(model: &mut IncrementalDerived, warm_cache: &mut DerivedCache, at: usize) {
    // Every category is already fresh: this only assembles the warm
    // tables of the categories that changed since the last check.
    let warm = model.refresh_and_derive_warm(warm_cache);
    let cold = model.to_derived();
    for (w, c) in warm.per_category.iter().zip(&cold.per_category) {
        let cat = c.category;
        for (what, warm_pairs, cold_pairs) in [
            ("rater reputation", &w.rater_reputation, &c.rater_reputation),
            (
                "writer reputation",
                &w.writer_reputation,
                &c.writer_reputation,
            ),
        ] {
            assert_eq!(warm_pairs.len(), cold_pairs.len());
            for (&(u, x), &(v, y)) in warm_pairs.iter().zip(cold_pairs.iter()) {
                assert_eq!(u, v);
                assert!(
                    (x - y).abs() < EPSILON,
                    "after {at} events: category {cat} {what} of {u}: warm {x} vs cold {y}"
                );
            }
        }
        assert_eq!(w.review_quality.len(), c.review_quality.len());
        for (&(r, x), &(s, y)) in w.review_quality.iter().zip(&c.review_quality) {
            assert_eq!(r, s);
            assert!(
                (x - y).abs() < EPSILON,
                "after {at} events: category {cat} quality of review {r}: warm {x} vs cold {y}"
            );
        }
    }
}

#[test]
fn a_thousand_events_stay_within_epsilon_of_cold() {
    let seen = drift(1_000);
    assert!(seen.worklist > 0 && seen.dense > 0);
}

#[test]
#[ignore = "10 k events and 100 cold solves: run in release"]
fn ten_thousand_events_stay_within_epsilon_of_cold() {
    let seen = drift(10_000);
    assert!(
        seen.worklist > 0 && seen.dense > 0,
        "both kinds of refresh must occur: {} worklist, {} with a dense pass",
        seen.worklist,
        seen.dense
    );
    eprintln!(
        "{} pure worklist refreshes, {} with a dense pass",
        seen.worklist, seen.dense
    );
}
