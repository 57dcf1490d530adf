//! Delta-refresh conformance: the per-event worklist
//! ([`DeriveConfig::delta_refresh`]) may maintain the warm solver state
//! through any causal event stream with refreshes spliced anywhere, and
//!
//! 1. the warm state stays **within epsilon** of the cold batch solve of
//!    the same event prefix,
//! 2. the canonical snapshot after a settling sweep (`to_derived`) is
//!    **bit-identical** (`==` on `f64`) to `pipeline::derive`, and
//! 3. the frontier-threshold boundary values behave exactly: `0.0`
//!    always falls back to the full warm sweep (bit-identical warm state
//!    to a non-delta twin), `1.0` never abandons the worklist.
//!
//! Thread counts exercised are 1, 2 and all-hardware; CI pins extra
//! counts through `WOT_DELTA_THREADS` (matrix legs run 1 and 4).

use webtrust::community::events::replay_into_store;
use webtrust::community::{events, CategoryId};
use webtrust::core::{pipeline, DeriveConfig, Derived, IncrementalDerived, ReplayEvent};
use webtrust::synth::{generate, shuffled_event_log, SynthConfig};

/// 1, 2, all-hardware (0), plus whatever `WOT_DELTA_THREADS` pins.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 0];
    if let Some(n) = std::env::var("WOT_DELTA_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Frontier thresholds under test: both boundary semantics plus an
/// interior value. `WOT_DELTA_FRONTIER` pins an extra one (CI matrix).
fn frontier_thresholds() -> Vec<f64> {
    let mut thresholds = vec![0.0, 0.25, 1.0];
    if let Some(t) = std::env::var("WOT_DELTA_FRONTIER")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
    {
        if !thresholds.contains(&t) {
            thresholds.push(t);
        }
    }
    thresholds
}

fn delta_cfg(threads: usize, threshold: f64) -> DeriveConfig {
    DeriveConfig::builder()
        .threads(threads)
        .delta_refresh(true)
        .delta_frontier_threshold(threshold)
        .build()
        .unwrap()
}

/// Splices per-category and full refreshes into an ingestion log at
/// seeded pseudo-random points, so the delta worklist runs from many
/// different partial warm states.
fn splice_refreshes(
    log: &[events::StoreEvent],
    num_categories: usize,
    seed: u64,
) -> Vec<ReplayEvent> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        // xorshift64* — deterministic splice points, no external RNG.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut out = Vec::with_capacity(log.len() + log.len() / 8);
    for e in log {
        out.push(ReplayEvent::from(*e));
        let roll = next() % 100;
        if roll < 12 {
            out.push(ReplayEvent::Refresh {
                category: CategoryId::from_index((next() % num_categories as u64) as usize),
            });
        } else if roll < 16 {
            out.push(ReplayEvent::RefreshAll);
        }
    }
    out
}

fn assert_within_epsilon(inc: &IncrementalDerived, batch: &Derived, label: &str) {
    for (w, c) in inc
        .expertise()
        .as_slice()
        .iter()
        .zip(batch.expertise.as_slice())
    {
        assert!(
            (w - c).abs() < 1e-6,
            "{label}: warm expertise {w} vs cold {c}"
        );
    }
    assert_eq!(
        inc.affiliation().as_slice(),
        batch.affiliation.as_slice(),
        "{label}: affiliation is count-derived and must be exact"
    );
}

/// The headline proof: randomized replayed event streams with delta
/// refreshes spliced at random points, across thread counts and the
/// frontier-threshold boundary values. Warm state within epsilon of the
/// cold batch solve; canonical snapshot bit-identical after settling.
#[test]
fn delta_replay_conforms_to_batch_across_threads_and_thresholds() {
    for synth_seed in [11u64, 20080407] {
        let base = generate(&SynthConfig::tiny(synth_seed)).unwrap().store;
        let log = shuffled_event_log(&base, synth_seed.wrapping_add(1));
        let store = replay_into_store(
            base.scale().clone(),
            base.num_users(),
            base.num_categories(),
            &log,
        )
        .unwrap();
        let batch = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
        let spliced = splice_refreshes(&log, store.num_categories(), synth_seed);
        for threads in thread_counts() {
            for threshold in frontier_thresholds() {
                let label = format!("synth={synth_seed} threads={threads} threshold={threshold}");
                let cfg = delta_cfg(threads, threshold);
                let mut inc =
                    IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg)
                        .unwrap();
                for e in &spliced {
                    inc.apply(e).unwrap();
                }
                // Bring every category current through the delta path,
                // then hold the warm state to the cold oracle.
                inc.refresh_all();
                assert_within_epsilon(&inc, &batch, &label);
                // The settling sweep restores bit-identity: the delta
                // path never touches the index tables the canonical
                // snapshot cold-solves from.
                assert_eq!(inc.to_derived(), batch, "{label}: settled snapshot");
            }
        }
    }
}

/// Threshold 0 is *exactly* the full warm sweep: the worklist is
/// abandoned before its first sweep, so the fallback runs the same
/// arithmetic from the same warm state as a non-delta twin — warm
/// quality and reputation are bit-identical, category by category.
#[test]
fn threshold_zero_is_bit_identical_to_full_sweep_refresh() {
    let base = generate(&SynthConfig::tiny(41)).unwrap().store;
    let log = shuffled_event_log(&base, 42);
    let store = replay_into_store(
        base.scale().clone(),
        base.num_users(),
        base.num_categories(),
        &log,
    )
    .unwrap();
    let spliced = splice_refreshes(&log, store.num_categories(), 43);
    let mut delta = IncrementalDerived::new(
        store.num_users(),
        store.num_categories(),
        &delta_cfg(1, 0.0),
    )
    .unwrap();
    let mut full = IncrementalDerived::new(
        store.num_users(),
        store.num_categories(),
        &DeriveConfig::default(),
    )
    .unwrap();
    for e in &spliced {
        delta.apply(e).unwrap();
        full.apply(e).unwrap();
    }
    delta.refresh_all();
    full.refresh_all();
    assert_eq!(
        delta.expertise().as_slice(),
        full.expertise().as_slice(),
        "threshold 0 must take the identical full-sweep path"
    );
    assert_eq!(delta.to_derived(), full.to_derived());
}

/// Per-event delta refreshes (refresh after *every* event, the serving
/// daemon's cadence) conform at every prefix, not just the end state.
#[test]
fn per_event_delta_refresh_conforms_at_every_prefix() {
    let base = generate(&SynthConfig::tiny(53)).unwrap().store;
    let log = shuffled_event_log(&base, 54);
    let cfg = delta_cfg(1, 1.0);
    let mut inc = IncrementalDerived::new(base.num_users(), base.num_categories(), &cfg).unwrap();
    // Check the expensive oracle at a seeded sample of prefixes; the
    // warm state itself advances event by event like the daemon's.
    let stride = (log.len() / 12).max(1);
    for (n, e) in log.iter().enumerate() {
        inc.apply(&ReplayEvent::from(*e)).unwrap();
        inc.refresh_all();
        if n % stride == 0 || n + 1 == log.len() {
            let store = replay_into_store(
                base.scale().clone(),
                base.num_users(),
                base.num_categories(),
                &log[..=n],
            )
            .unwrap();
            let batch = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
            assert_within_epsilon(&inc, &batch, &format!("prefix {}", n + 1));
            assert_eq!(inc.to_derived(), batch, "prefix {} settled", n + 1);
        }
    }
}
