//! Where the incremental model's memory goes, per ingested event.
//!
//! A counting global allocator (std only) tracks live heap bytes. The
//! probe bootstraps a laptop-preset model on the first 60 % of a shuffled
//! history — the laptop workloads' split — then ingests tail events,
//! publishing once per 64 (one client round), once through a cold-publish
//! model and once through a delta-publish one. It prints the growth per
//! event: the live total, and the components the model reports — both
//! rating arenas (their slots against what their edges alone take), the
//! delta worklist's seeds, the writer column, and the cache's
//! published tables. The rest is the model's other indexes and the
//! assembled matrices.
//!
//! It holds two facts: a cold-publish model keeps no seeds (0 B/event),
//! and the refresh after a bootstrap frees the bootstrap's seed buffer.
//!
//! The run (50 k tail events) is `#[ignore]`d for the debug tier-1 suite
//! and runs in release: `cargo test --release -p wot-core --test
//! memory_probe -- --ignored --nocapture`. The seed facts alone are
//! unit tests of `incremental::delta`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use wot_core::{DeriveConfig, DerivedCache, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Events per publish: one laptop client round.
const ROUND: usize = 64;

/// Live bytes and the model's components at one point of a run.
#[derive(Debug, Clone, Copy)]
struct Reading {
    live: usize,
    arenas: usize,
    arena_edges: usize,
    seeds: usize,
    writer_column: usize,
    tables: usize,
}

fn read(model: &IncrementalDerived, cache: &DerivedCache) -> Reading {
    let heap = model.heap_bytes();
    Reading {
        live: LIVE.load(Ordering::Relaxed),
        arenas: heap.arenas,
        arena_edges: heap.arena_edges,
        seeds: heap.seeds,
        writer_column: heap.writer_column,
        tables: cache.table_bytes(),
    }
}

/// Bootstraps, ingests `tail` events publishing every [`ROUND`], and
/// returns the readings after the bootstrap's publish and at the end.
fn run(delta: bool, tail: usize) -> (Reading, Reading) {
    let store = generate(&SynthConfig::laptop(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 102);
    let boot = log.len() * 6 / 10;
    assert!(
        log.len() - boot >= tail,
        "{} events after the bootstrap, {tail} wanted",
        log.len() - boot
    );
    let cfg = DeriveConfig::builder()
        .delta_refresh(delta)
        .build()
        .unwrap();
    let mut model =
        IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    for e in &log[..boot] {
        model.apply(&ReplayEvent::from(*e)).unwrap();
    }
    if delta {
        assert!(model.heap_bytes().seeds > 0, "a delta bootstrap seeds");
    }
    model.refresh_all();
    assert_eq!(
        model.heap_bytes().seeds,
        0,
        "the bootstrap's refresh keeps its seed buffer"
    );
    drop(store);

    let mut cache = DerivedCache::default();
    let publish = |model: &mut IncrementalDerived, cache: &mut DerivedCache| {
        if delta {
            model.refresh_and_derive_warm(cache);
        } else {
            model.to_derived_cached(cache);
        }
    };
    publish(&mut model, &mut cache);
    let before = read(&model, &cache);
    for round in log[boot..boot + tail].chunks(ROUND) {
        for e in round {
            model.apply(&ReplayEvent::from(*e)).unwrap();
        }
        publish(&mut model, &mut cache);
    }
    (before, read(&model, &cache))
}

#[test]
#[ignore = "50 k laptop events; run in release with --ignored --nocapture"]
fn memory_per_event_by_component() {
    let tail = 50_000;
    for delta in [false, true] {
        let (a, b) = run(delta, tail);
        let per = |x: usize, y: usize| (y as f64 - x as f64) / tail as f64;
        let parts = [
            ("live heap", per(a.live, b.live)),
            ("arenas (slots)", per(a.arenas, b.arenas)),
            ("arenas (edges)", per(a.arena_edges, b.arena_edges)),
            ("seeds", per(a.seeds, b.seeds)),
            ("writer column", per(a.writer_column, b.writer_column)),
            ("cache tables", per(a.tables, b.tables)),
        ];
        let mode = if delta { "delta" } else { "cold" };
        println!("{mode} publish, {tail} events, one publish per {ROUND}:");
        for (name, bytes) in parts {
            println!("  {name:<24} {bytes:>8.1} B/event");
        }
        println!(
            "  resident at the end: {:.2} MB live, arenas {:.2} MB for {:.2} MB of edges",
            b.live as f64 / 1e6,
            b.arenas as f64 / 1e6,
            b.arena_edges as f64 / 1e6
        );
        if !delta {
            assert_eq!(b.seeds, 0, "a cold-publish model kept seeds");
        }
    }
}
