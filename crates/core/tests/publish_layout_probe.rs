//! What the served model's re-pack buys a paper-scale event — the
//! attribution behind `ShardEngine::open`'s `IncrementalDerived::compact`,
//! which the benchmark's traced replay cannot see: that replay builds its
//! model without the engine, so it solves over as-grown arenas.
//!
//! The probe bootstraps a delta-refresh model on the first 90 % of a
//! paper-preset stream by appends (relocated nodes, dead space), and
//! re-packs a clone of it in place, as `open` does. Both then take the
//! next [`EVENTS`] events, each with one `refresh_traced` of the event's
//! category and one `refresh_and_derive_warm`, as the delta-publish
//! daemon does; the two sides alternate which goes first. It prints
//! each side's arena bytes and, per event, the p50 of:
//!
//! * `solve` — the `refresh_traced` (the Eq. 1–2 delta solve);
//! * `tables` — the publish less its assembly: Eq. 3 and the table
//!   gather;
//! * `assemble` — the `E` / `A` patch, timed on a second [`Assembler`]
//!   fed the published tables and a ledger that mirrors the model's
//!   counts (its output is held equal to the publish's).
//!
//! At every event both sides must report the same solve (sweeps,
//! visited sets) and publish the same bits.
//!
//! Ignored: it generates the paper preset and holds two models (~20 s
//! and under 1 GB in release). Run it with `cargo test --release -p
//! wot-core --test publish_layout_probe -- --ignored --nocapture`.
//! Timings are the machine's.

use std::time::Instant;

use wot_community::{CategoryId, StoreEvent};
use wot_core::{
    ActivityLedger, Assembler, DeltaReport, DeriveConfig, Derived, DerivedCache,
    IncrementalDerived, ReplayEvent,
};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// Events applied, solved and published one at a time.
const EVENTS: usize = 500;

/// One side of the comparison and its per-event timings (µs).
struct Side {
    model: IncrementalDerived,
    cache: DerivedCache,
    assembler: Assembler,
    solve: Vec<f64>,
    tables: Vec<f64>,
    assemble: Vec<f64>,
}

impl Side {
    fn new(model: IncrementalDerived) -> Self {
        Side {
            model,
            cache: DerivedCache::default(),
            assembler: Assembler::default(),
            solve: Vec::new(),
            tables: Vec::new(),
            assemble: Vec::new(),
        }
    }

    /// Applies `event`, solves `cat`, publishes, and times each stage.
    fn step(
        &mut self,
        event: &StoreEvent,
        cat: CategoryId,
        ledger: &ActivityLedger,
    ) -> (DeltaReport, Derived) {
        self.model.apply(&ReplayEvent::from(*event)).unwrap();
        let t = Instant::now();
        let report = self.model.refresh_traced(cat);
        self.solve.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let published = self.model.refresh_and_derive_warm(&mut self.cache);
        let publish = t.elapsed().as_secs_f64() * 1e6;
        let t = Instant::now();
        let mirror = self.assembler.assemble(ledger, &published.per_category);
        let assemble = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(bits(&mirror), bits(&published), "the mirror's E and A");
        self.tables.push(publish - assemble);
        self.assemble.push(assemble);
        (report, published)
    }
}

/// Every bit of `E`, then of `A`.
fn bits(d: &Derived) -> Vec<u64> {
    let cells = d
        .expertise
        .as_slice()
        .iter()
        .chain(d.affiliation.as_slice());
    cells.map(|v| v.to_bits()).collect()
}

fn p50(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Counts `event` into a ledger the way the model counts it.
fn count(ledger: &mut ActivityLedger, event: &StoreEvent, cat: CategoryId) {
    match *event {
        StoreEvent::Review { writer, .. } => ledger.bump_reviews(writer.index(), cat.index(), 1.0),
        StoreEvent::Rating { rater, .. } => ledger.bump_ratings(rater.index(), cat.index(), 1.0),
    }
}

#[test]
#[ignore = "paper preset, two models: run in release"]
fn re_packed_model_solves_and_publishes_the_same_bits_at_paper_scale() {
    let store = generate(&SynthConfig::paper_scale(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 102);
    let (users, num_categories) = (store.num_users(), store.num_categories());
    drop(store);
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

    let cfg = DeriveConfig::builder().delta_refresh(true).build().unwrap();
    let mut grown = IncrementalDerived::new(users, num_categories, &cfg).unwrap();
    let mut ledger = ActivityLedger::new(users, num_categories);
    for (e, &cat) in log[..boot].iter().zip(&categories) {
        grown.apply(&ReplayEvent::from(*e)).unwrap();
        count(&mut ledger, e, cat);
    }
    grown.refresh_all();
    let mut packed = grown.clone();
    let t = Instant::now();
    packed.compact();
    let repack_ms = t.elapsed().as_secs_f64() * 1e3;

    eprintln!("{users} users, {num_categories} categories, {boot} events bootstrapped, {EVENTS} solved and published one at a time");
    for (name, model) in [("as grown", &grown), ("re-packed", &packed)] {
        let heap = model.heap_bytes();
        eprintln!(
            "{name:>9}: arenas {:.1} MB at capacity ({} dead slots) for {:.1} MB of edges",
            heap.arenas as f64 / 1e6,
            heap.arena_dead,
            heap.arena_edges as f64 / 1e6
        );
    }
    eprintln!("re-pack in place: {repack_ms:.1} ms");
    assert_eq!(packed.heap_bytes().arena_dead, 0);

    let mut sides = [Side::new(grown), Side::new(packed)];
    for (k, (e, &cat)) in log[boot..boot + EVENTS]
        .iter()
        .zip(&categories[boot..])
        .enumerate()
    {
        count(&mut ledger, e, cat);
        let first = k % 2;
        let (ra, da) = sides[first].step(e, cat, &ledger);
        let (rb, db) = sides[first ^ 1].step(e, cat, &ledger);
        assert_eq!(ra.sweeps, rb.sweeps, "event {k}: sweeps");
        assert_eq!(ra.fell_back, rb.fell_back, "event {k}: fell_back");
        assert_eq!(ra.visited_reviews, rb.visited_reviews, "event {k}: reviews");
        assert_eq!(ra.visited_raters, rb.visited_raters, "event {k}: raters");
        assert_eq!(bits(&da), bits(&db), "event {k}: E and A");
        assert_eq!(da.per_category, db.per_category, "event {k}: tables");
    }

    eprintln!("p50 per event (µs)  solve   tables  assemble");
    for (name, side) in ["as grown", "re-packed"].iter().zip(&sides) {
        eprintln!(
            "{name:>18}  {:>6.0}  {:>7.0}  {:>8.0}",
            p50(&side.solve),
            p50(&side.tables),
            p50(&side.assemble)
        );
    }
}
