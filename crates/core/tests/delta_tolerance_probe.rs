//! What the delta cut-off buys at paper scale, and what it costs in
//! accuracy — the numbers behind `DeriveConfig::delta_tolerance`'s default.
//!
//! For each cut-off the probe bootstraps a delta-refresh model on the
//! first 90 % of a paper-preset stream, then applies the next
//! [`EVENTS`] events with one `refresh_traced` each, as the delta-publish
//! daemon does. It prints one row per cut-off:
//!
//! * `ms/event` — mean wall time of the refresh (audits included);
//! * `passes` — mean solver passes per event, re-sweeps included;
//! * `dense` — events whose refresh ran at least one dense pass;
//! * `resweeps` — refreshes the residual audit re-swept;
//! * `max residual` — the largest fixed-point residual an audit measured;
//! * `max drift` — the largest difference between the warm tables and a
//!   cold solve of the same prefix (`to_derived`), every [`CHECK_EVERY`]
//!   events.
//!
//! Ignored: it generates the paper preset and bootstraps it once per
//! cut-off (~30 s and under 1 GB in release). Run it with
//! `cargo test --release -p wot-core --test delta_tolerance_probe --
//! --ignored --nocapture`. Timings are the machine's; the drift column
//! must stay under the `1e-6` the warm state is held to.

use std::time::Instant;

use wot_community::{CategoryId, StoreEvent};
use wot_core::{DeriveConfig, Derived, DerivedCache, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// Events refreshed one at a time per cut-off.
const EVENTS: usize = 1_000;
/// Events between two comparisons with the cold solve.
const CHECK_EVERY: usize = 250;
/// The delta cut-offs compared; `1e-9` equals `fixpoint_tolerance`.
const CUT_OFFS: [f64; 4] = [1e-9, 1e-8, 3e-8, 1e-7];

/// The largest difference between two tables over the same ids.
fn largest<T: PartialEq + std::fmt::Debug>(warm: &[(T, f64)], cold: &[(T, f64)]) -> f64 {
    assert_eq!(warm.len(), cold.len());
    warm.iter().zip(cold).fold(0.0, |m, ((u, a), (v, b))| {
        assert_eq!(u, v);
        m.max((a - b).abs())
    })
}

/// The largest difference between the warm and the cold tables.
fn max_drift(warm: &Derived, cold: &Derived) -> f64 {
    warm.per_category
        .iter()
        .zip(&cold.per_category)
        .map(|(w, c)| {
            largest(&w.rater_reputation, &c.rater_reputation)
                .max(largest(&w.writer_reputation, &c.writer_reputation))
                .max(largest(&w.review_quality, &c.review_quality))
        })
        .fold(0.0, f64::max)
}

#[test]
#[ignore = "paper preset, one bootstrap per cut-off: run in release"]
fn delta_cut_off_cost_and_drift_at_paper_scale() {
    let store = generate(&SynthConfig::paper_scale(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 102);
    let mut review_category = Vec::new();
    let categories: Vec<CategoryId> = log
        .iter()
        .map(|e| match *e {
            StoreEvent::Review { category, .. } => {
                review_category.push(category);
                category
            }
            StoreEvent::Rating { review, .. } => review_category[review.index()],
        })
        .collect();
    let boot = log.len() * 9 / 10;
    assert!(log.len() - boot >= EVENTS);

    eprintln!(
        "{} users, {} categories, {} events bootstrapped, {EVENTS} refreshed one at a time",
        store.num_users(),
        store.num_categories(),
        boot
    );
    eprintln!("cut-off  ms/event  passes  dense  resweeps  max residual  max drift");
    for cut_off in CUT_OFFS {
        let cfg = DeriveConfig::builder()
            .delta_refresh(true)
            .delta_tolerance(cut_off)
            .build()
            .unwrap();
        let mut model =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        for e in &log[..boot] {
            model.apply(&ReplayEvent::from(*e)).unwrap();
        }
        model.refresh_all();
        let mut cache = DerivedCache::default();
        let (mut secs, mut passes, mut dense, mut resweeps) = (0.0, 0, 0, 0);
        let (mut residual, mut drift) = (0.0f64, 0.0f64);
        for (k, (e, &cat)) in log[boot..boot + EVENTS]
            .iter()
            .zip(&categories[boot..])
            .enumerate()
        {
            model.apply(&ReplayEvent::from(*e)).unwrap();
            let t = Instant::now();
            let report = model.refresh_traced(cat);
            secs += t.elapsed().as_secs_f64();
            assert!(report.converged, "event {k}: hit the iteration cap");
            passes += report.sweeps;
            dense += usize::from(report.fell_back);
            resweeps += report.resweeps;
            residual = residual.max(report.residual.unwrap_or(0.0));
            if (k + 1) % CHECK_EVERY == 0 {
                let warm = model.refresh_and_derive_warm(&mut cache);
                drift = drift.max(max_drift(&warm, &model.to_derived()));
            }
        }
        eprintln!(
            "{cut_off:>7.0e}  {:>8.2}  {:>6.2}  {dense:>5}  {resweeps:>8}  {residual:>12.2e}  {drift:>9.2e}",
            secs * 1e3 / EVENTS as f64,
            passes as f64 / EVENTS as f64,
        );
        assert!(drift < 1e-6, "cut-off {cut_off:e}: drift {drift:e}");
    }
}
