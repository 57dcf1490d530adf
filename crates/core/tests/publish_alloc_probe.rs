//! Which per-publish buffers cross glibc's mmap threshold at paper
//! scale: the allocations behind the delta-publish daemon's sensitivity
//! to `MALLOC_MMAP_THRESHOLD_`. A request of at least 128 KiB (glibc's
//! default threshold) is `mmap`ped and unmapped again on free, unless an
//! earlier free of a larger block raised the dynamic threshold past it,
//! as the bootstrap's frees do. So whether these buffers cost a page
//! fault per publish depends on what the process freed before.
//!
//! The probe bootstraps a delta-refresh model on the first 90 % of the
//! paper preset's history (community seed 20080407, log seed 20080408,
//! as `serve_mixed_paper` boots it), solves it and re-packs it, as
//! `ShardEngine::open` does, and publishes once. Then it takes the next
//! [`EVENTS`] events one at a time, as the daemon's writer does with
//! delta publish: apply, then the publish of
//! `refresh_and_derive_warm`, split into stages:
//!
//! * `refresh` — the `refresh_all` that starts the publish (the Eq. 1–2
//!   delta solve of the event's category);
//! * `tables` — the publish less its refresh and assembly: Eq. 3 and the
//!   table gather;
//! * `assemble` — the `E` / `A` patch, counted on a second [`Assembler`]
//!   fed the published tables and a ledger that mirrors the model's
//!   counts (its output is held equal to the publish's).
//!
//! As in the daemon, the previous snapshot stays alive while the next one
//! is published. A counting global allocator (`counting_alloc`) counts
//! the requests of at least 128 KiB; the probe prints their count and
//! bytes per publish, per stage. Beside the `tables` line it prints the
//! re-solved category's three published tables (raters, writers and
//! reviews, 16 B an entry) that reach the threshold: the buffers that
//! stage allocates afresh at every publish.
//!
//! Ignored: it generates the paper preset (~15 s and under 0.5 GB in
//! release). Run it with `cargo test --release -p wot-core --test
//! publish_alloc_probe -- --ignored --nocapture`.

mod counting_alloc;

use wot_community::{CategoryId, StoreEvent};
use wot_core::{
    ActivityLedger, Assembler, DeriveConfig, Derived, DerivedCache, IncrementalDerived, ReplayEvent,
};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// Events applied and published one at a time.
const EVENTS: usize = 500;

/// Large requests (count, bytes) made while `f` runs.
fn large_during<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let (n0, b0) = counting_alloc::large();
    let out = f();
    let (n1, b1) = counting_alloc::large();
    (out, (n1 - n0, b1 - b0))
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

/// Counts `event` into a ledger the way the model counts it.
fn count(ledger: &mut ActivityLedger, event: &StoreEvent, cat: CategoryId) {
    match *event {
        StoreEvent::Review { writer, .. } => ledger.bump_reviews(writer.index(), cat.index(), 1.0),
        StoreEvent::Rating { rater, .. } => ledger.bump_ratings(rater.index(), cat.index(), 1.0),
    }
}

#[test]
#[ignore = "paper preset; run in release with --ignored --nocapture"]
fn large_allocations_per_delta_publish_at_paper_scale() {
    let store = generate(&SynthConfig::paper_scale(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 20080408);
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
    let mut model = IncrementalDerived::new(users, num_categories, &cfg).unwrap();
    let mut ledger = ActivityLedger::new(users, num_categories);
    for (e, &cat) in log[..boot].iter().zip(&categories) {
        model.apply(&ReplayEvent::from(*e)).unwrap();
        count(&mut ledger, e, cat);
    }
    model.refresh_all();
    model.compact();
    let mut cache = DerivedCache::default();
    let mut mirror = Assembler::default();
    let mut current = model.refresh_and_derive_warm(&mut cache);
    mirror.assemble(&ledger, &current.per_category);

    // Per stage: large requests and their bytes, summed over the events;
    // then the re-solved category's tables at or above the threshold.
    let mut stages = [(0usize, 0usize); 4];
    let mut add = |stage: usize, (n, b): (usize, usize)| {
        stages[stage].0 += n;
        stages[stage].1 += b;
    };
    for (e, &cat) in log[boot..boot + EVENTS].iter().zip(&categories[boot..]) {
        model.apply(&ReplayEvent::from(*e)).unwrap();
        count(&mut ledger, e, cat);
        let (_, refresh) = large_during(|| model.refresh_all());
        let (published, publish) = large_during(|| model.refresh_and_derive_warm(&mut cache));
        let (mirrored, assemble) =
            large_during(|| mirror.assemble(&ledger, &published.per_category));
        assert_eq!(bits(&mirrored), bits(&published), "the mirror's E and A");
        drop(mirrored);
        add(0, refresh);
        add(1, (publish.0 - assemble.0, publish.1 - assemble.1));
        add(2, assemble);
        let table = &published.per_category[cat.index()];
        for bytes in [
            table.rater_reputation.capacity() * 16,
            table.writer_reputation.capacity() * 16,
            table.review_quality.capacity() * 16,
        ] {
            if bytes >= counting_alloc::LARGE {
                add(3, (1, bytes));
            }
        }
        // The daemon swaps its snapshot in; the one before goes.
        current = published;
    }
    drop(current);

    println!(
        "{users} users, {num_categories} categories, {boot} events bootstrapped, \
         {EVENTS} applied and published one at a time (delta publish)"
    );
    println!(
        "requests of >= {} KiB        per publish: count      kB   over {EVENTS}: count       MB",
        counting_alloc::LARGE / 1024
    );
    let names = ["refresh", "tables", "assemble", "  of which the 3 tables"];
    for (name, (n, b)) in names.iter().zip(stages) {
        println!(
            "  {name:<24} {:>18.3} {:>7.1} {:>16} {:>8.1}",
            n as f64 / EVENTS as f64,
            b as f64 / EVENTS as f64 / 1e3,
            n,
            b as f64 / 1e6
        );
    }
}
