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
//!
//! Those runs use the default `delta_tolerance`. A third, also ignored,
//! loosens it to `1e-7`, where the worklist alone would let the warm
//! state creep: the model's residual audit must re-sweep at least once and
//! keep every checkpoint inside the same bound. It prints, per
//! checkpoint, the largest residual the audits measured since the last
//! one beside the drift measured against the cold solve.

use wot_community::{CategoryId, StoreEvent};
use wot_core::{DeriveConfig, DerivedCache, IncrementalDerived, ReplayEvent, AUDIT_BOUND};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

const EPSILON: f64 = 1e-6;
const CHECK_EVERY: usize = 100;

/// How many refreshes of each kind a drift run saw.
struct Refreshes {
    worklist: usize,
    dense: usize,
    /// Refreshes whose residual audit re-swept the category.
    resweeps: usize,
    /// Per checkpoint: events so far, the largest residual an audit
    /// measured since the last checkpoint (if one ran), and the largest
    /// warm-vs-cold difference.
    checkpoints: Vec<(usize, Option<f64>, f64)>,
}

/// [`drift_at`] the default delta cut-off.
fn drift(tail: usize) -> Refreshes {
    drift_at(
        &DeriveConfig::builder().delta_refresh(true).build().unwrap(),
        tail,
    )
}

/// Bootstraps on the first 60 % of a laptop-preset stream, then applies
/// `tail` events with one refresh each at the default frontier threshold,
/// holding the warm state to a cold solve every [`CHECK_EVERY`] events.
fn drift_at(cfg: &DeriveConfig, tail: usize) -> Refreshes {
    let store = generate(&SynthConfig::laptop(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 31);
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
        IncrementalDerived::new(store.num_users(), store.num_categories(), cfg).unwrap();
    for e in &log[..boot] {
        model.apply(&ReplayEvent::from(*e)).unwrap();
    }
    model.refresh_all();
    let mut warm_cache = DerivedCache::default();
    let mut seen = Refreshes {
        worklist: 0,
        dense: 0,
        resweeps: 0,
        checkpoints: Vec::new(),
    };
    let mut residual: Option<f64> = None;
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
        seen.resweeps += report.resweeps;
        if let Some(r) = report.residual {
            residual = Some(residual.map_or(r, |m| m.max(r)));
        }
        if (k + 1) % CHECK_EVERY == 0 {
            let drift = assert_within_epsilon(&mut model, &mut warm_cache, k + 1);
            seen.checkpoints.push((k + 1, residual.take(), drift));
        }
    }
    seen
}

/// Every category's warm tables against its cold ones: the same reviews
/// and raters in the same order, each value within [`EPSILON`]. Returns
/// the largest difference.
fn assert_within_epsilon(
    model: &mut IncrementalDerived,
    warm_cache: &mut DerivedCache,
    at: usize,
) -> f64 {
    // Every category is already fresh: this only assembles the warm
    // tables of the categories that changed since the last check.
    let warm = model.refresh_and_derive_warm(warm_cache);
    let cold = model.to_derived();
    let mut largest = 0.0f64;
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
                largest = largest.max((x - y).abs());
                assert!(
                    (x - y).abs() < EPSILON,
                    "after {at} events: category {cat} {what} of {u}: warm {x} vs cold {y}"
                );
            }
        }
        assert_eq!(w.review_quality.len(), c.review_quality.len());
        for (&(r, x), &(s, y)) in w.review_quality.iter().zip(&c.review_quality) {
            assert_eq!(r, s);
            largest = largest.max((x - y).abs());
            assert!(
                (x - y).abs() < EPSILON,
                "after {at} events: category {cat} quality of review {r}: warm {x} vs cold {y}"
            );
        }
    }
    largest
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

#[test]
#[ignore = "10 k events and 100 cold solves: run in release"]
fn a_loose_delta_cut_off_is_held_by_the_residual_audit() {
    let cfg = DeriveConfig::builder()
        .delta_refresh(true)
        .delta_tolerance(1e-7)
        .build()
        .unwrap();
    let seen = drift_at(&cfg, 10_000);
    eprintln!("events  audited residual  drift vs cold (audit bound {AUDIT_BOUND:e})");
    for &(at, residual, drift) in &seen.checkpoints {
        let residual = residual.map_or("-".to_string(), |r| format!("{r:.2e}"));
        eprintln!("{at:>6}  {residual:>16}  {drift:.2e}");
    }
    eprintln!(
        "{} pure worklist refreshes, {} with a dense pass, {} re-swept by the audit",
        seen.worklist, seen.dense, seen.resweeps
    );
    assert!(
        seen.resweeps > 0,
        "the audit never re-swept at a 1e-7 cut-off"
    );
}
