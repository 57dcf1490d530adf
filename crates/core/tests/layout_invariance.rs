//! Where a category's ratings physically sit, and what the last refresh
//! left in the delta worklist's scratch, cannot change an answer.
//!
//! A live model that bootstrapped by appending (relocated nodes, slack,
//! several compactions) and then refreshed once per event (a scratch
//! holding the last refresh's frontiers and visit marks) is twinned
//! through `compacted()`: same state, exactly packed arenas, fresh
//! scratch. Fed the same events, the two must agree bit for bit on every
//! warm value and on everything `refresh_traced` reports — sweep counts,
//! whether a dense pass ran, and the visited sets — at every event.
//!
//! The delta worklist's pending seeds live in the same scratch, as marks
//! in its frontier bitmaps, so a compaction must keep them. The second
//! case twins a model while its categories are still stale — once with
//! a whole bootstrap pending, once with a round of tail events — and
//! holds the twins' first refreshes equal the same way.

use wot_community::{CategoryId, StoreEvent};
use wot_core::{DeltaReport, DeriveConfig, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// Events the live model refreshes through before it is twinned.
const WARM_UP: usize = 300;
/// Events both models are then held equal over.
const COMPARED: usize = 200;

fn assert_same_warm_bits(live: &IncrementalDerived, twin: &IncrementalDerived, event: usize) {
    for c in (0..live.num_categories()).map(CategoryId::from_index) {
        let (x, y) = (live.warm_state(c).unwrap(), twin.warm_state(c).unwrap());
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&x.quality),
            bits(&y.quality),
            "event {event}: category {c} quality"
        );
        assert_eq!(
            bits(&x.reputation),
            bits(&y.reputation),
            "event {event}: category {c} reputation"
        );
        // The ids the values belong to.
        assert_eq!(x, y, "event {event}: category {c}");
    }
    assert_eq!(live.is_stale(), twin.is_stale(), "event {event}");
}

#[test]
fn arena_layout_and_scratch_residue_never_change_an_answer() {
    let store = generate(&SynthConfig::laptop(22)).unwrap().store;
    let log = shuffled_event_log(&store, 2_022);
    // Delta refresh at the default frontier threshold (0.25).
    let cfg = DeriveConfig::builder().delta_refresh(true).build().unwrap();
    assert_eq!(cfg.delta_frontier_threshold, 0.25);
    let tail = log.len() - (WARM_UP + COMPARED);

    let mut review_category = Vec::new();
    let mut category_of = |e: &StoreEvent| match *e {
        StoreEvent::Review { category, .. } => {
            review_category.push(category);
            category
        }
        StoreEvent::Rating { review, .. } => review_category[review.index()],
    };
    let categories: Vec<CategoryId> = log.iter().map(&mut category_of).collect();

    let mut live =
        IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    for e in &log[..tail] {
        live.apply(&ReplayEvent::from(*e)).unwrap();
    }
    live.refresh_all();
    // One refresh per event: worklists that converge, worklists abandoned
    // for the full sweep, and every one reusing the scratch of the last.
    let mut fallbacks = 0;
    for (e, &cat) in log[tail..].iter().zip(&categories[tail..]).take(WARM_UP) {
        live.apply(&ReplayEvent::from(*e)).unwrap();
        fallbacks += usize::from(live.refresh_traced(cat).fell_back);
    }
    assert!(
        (1..WARM_UP).contains(&fallbacks),
        "the warm-up must see both worklist outcomes, saw {fallbacks} fallbacks"
    );
    assert!(!live.is_stale());

    let mut twin = live.compacted();
    let (mut fallbacks, mut worklists) = (0, 0);
    let from = tail + WARM_UP;
    for (k, (e, &cat)) in log[from..].iter().zip(&categories[from..]).enumerate() {
        live.apply(&ReplayEvent::from(*e)).unwrap();
        twin.apply(&ReplayEvent::from(*e)).unwrap();
        let (a, b) = (live.refresh_traced(cat), twin.refresh_traced(cat));
        assert_eq!(a.sweeps, b.sweeps, "event {k}: sweeps");
        assert_eq!(a.converged, b.converged, "event {k}: converged");
        assert_eq!(a.fell_back, b.fell_back, "event {k}: fell_back");
        assert_eq!(a.visited_reviews, b.visited_reviews, "event {k}: reviews");
        assert_eq!(a.visited_raters, b.visited_raters, "event {k}: raters");
        assert_same_warm_bits(&live, &twin, k);
        if a.fell_back {
            fallbacks += 1;
        } else if a.sweeps > 0 {
            worklists += 1;
        }
    }
    assert!(
        fallbacks > 0 && worklists > 0,
        "the compared stretch must exercise both paths: {fallbacks} fallbacks, {worklists} worklists"
    );
}

/// Tail rounds after the bootstrap, each twinned while still stale.
const ROUNDS: usize = 40;
/// Events per tail round.
const ROUND_EVENTS: usize = 2;

fn assert_same_report(a: &DeltaReport, b: &DeltaReport, at: &str) {
    assert_eq!(a.sweeps, b.sweeps, "{at}: sweeps");
    assert_eq!(a.converged, b.converged, "{at}: converged");
    assert_eq!(a.fell_back, b.fell_back, "{at}: fell_back");
    assert_eq!(a.residual, b.residual, "{at}: residual");
    assert_eq!(a.resweeps, b.resweeps, "{at}: resweeps");
    assert_eq!(a.visited_reviews, b.visited_reviews, "{at}: reviews");
    assert_eq!(a.visited_raters, b.visited_raters, "{at}: raters");
}

/// Twins `live` through `compacted()` while it is stale, refreshes every
/// category of both, and holds the reports and the warm bits equal.
/// Returns the reports.
fn refresh_a_stale_twin(live: &mut IncrementalDerived, at: &str) -> Vec<DeltaReport> {
    assert!(live.is_stale(), "{at}: nothing pending to carry over");
    let mut twin = live.compacted();
    let reports = (0..live.num_categories())
        .map(CategoryId::from_index)
        .map(|c| {
            let (a, b) = (live.refresh_traced(c), twin.refresh_traced(c));
            assert_same_report(&a, &b, &format!("{at}, category {c}"));
            a
        })
        .collect();
    assert_same_warm_bits(live, &twin, 0);
    reports
}

#[test]
fn pending_seeds_survive_compaction() {
    let store = generate(&SynthConfig::laptop(22)).unwrap().store;
    let log = shuffled_event_log(&store, 2_022);
    let cfg = DeriveConfig::builder().delta_refresh(true).build().unwrap();
    let boot = log.len() - ROUNDS * ROUND_EVENTS;

    let mut live =
        IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    for e in &log[..boot] {
        live.apply(&ReplayEvent::from(*e)).unwrap();
    }
    // Every bootstrap rating pending: frontiers this wide run dense.
    let reports = refresh_a_stale_twin(&mut live, "bootstrap");
    assert!(reports.iter().all(|r| r.fell_back && r.converged));

    // A few tail events pending: narrow frontiers, some of them drained
    // by worklist passes alone.
    let mut worklists = 0;
    for (k, round) in log[boot..].chunks(ROUND_EVENTS).enumerate() {
        for e in round {
            live.apply(&ReplayEvent::from(*e)).unwrap();
        }
        let reports = refresh_a_stale_twin(&mut live, &format!("tail round {k}"));
        worklists += reports
            .iter()
            .filter(|r| !r.fell_back && r.sweeps > 0)
            .count();
    }
    assert!(worklists > 0, "the tail rounds must run a worklist");
}
