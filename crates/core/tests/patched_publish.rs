//! A publish patched onto a long-lived [`DerivedCache`] equals a publish
//! built from nothing.
//!
//! The cache keeps the last assembled `E` and `A`, each category's last
//! tables and the user order they are gathered in, and a publish rewrites
//! only what the events since the last one dirtied. These properties hold
//! that shortcut to two oracles, with `==` on every `f64`, on all three
//! publish paths, through a clone and a model swap on the same cache:
//! the same publish on a fresh cache, where everything is dirty; and —
//! because that one runs the same assembly code — the from-scratch
//! builders (the reference oracle's `E`, Eq. 4 over every row for `A`),
//! which know nothing of stamps or patches.

use std::sync::Arc;

use proptest::prelude::*;
use wot_community::{CategoryId, StoreEvent, UserId};
use wot_core::oracle::expertise_matrix;
use wot_core::{
    ActivityLedger, Assembler, CategoryReputation, DeriveConfig, Derived, DerivedCache,
    IncrementalDerived, ReplayEvent,
};
use wot_sparse::Dense;
use wot_synth::{generate, shuffled_event_log, SynthConfig};

type Publish = fn(&mut IncrementalDerived, &mut DerivedCache) -> Derived;

/// The three publish paths: canonical cold solves, warm assembly after a
/// full warm sweep, warm assembly after the delta worklist.
fn paths() -> [(&'static str, DeriveConfig, Publish); 3] {
    let delta = DeriveConfig::builder()
        .delta_refresh(true)
        .delta_frontier_threshold(0.5)
        .build()
        .unwrap();
    [
        ("cold", DeriveConfig::default(), |m, c| {
            m.to_derived_cached(c)
        }),
        ("warm", DeriveConfig::default(), |m, c| {
            m.refresh_and_derive_warm(c)
        }),
        ("delta", delta, |m, c| m.refresh_and_derive_warm(c)),
    ]
}

fn same_bits(x: &Dense, y: &Dense) -> bool {
    x.shape() == y.shape()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Publishes `model` through the long-lived `cache` and holds the result
/// to a fresh-cache publish from a clone of the model at that point. (The
/// clone is taken after the patched publish: a warm publish refreshes the
/// model first, and the oracle must start from that refreshed state.)
fn publish_checked(
    model: &mut IncrementalDerived,
    cache: &mut DerivedCache,
    publish: Publish,
    at: &str,
) {
    let patched = publish(model, cache);
    let fresh = publish(&mut model.clone(), &mut DerivedCache::default());
    assert!(
        same_bits(&patched.affiliation, &fresh.affiliation),
        "{at}: A differs"
    );
    assert!(
        same_bits(&patched.expertise, &fresh.expertise),
        "{at}: E differs"
    );
    assert!(patched == fresh, "{at}: tables differ");
    // Independent of the cache machinery: E is its own tables' writer
    // columns, A is Eq. 4 over every row of the model's counts.
    let scratch = from_scratch(model.num_users(), &patched.per_category);
    assert!(
        same_bits(&patched.expertise, &scratch),
        "{at}: E is not its tables'"
    );
    assert!(
        same_bits(&patched.affiliation, &model.affiliation()),
        "{at}: A is not its counts'"
    );
}

fn apply_all(model: &mut IncrementalDerived, events: &[StoreEvent]) {
    for e in events {
        model.apply(&ReplayEvent::from(*e)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random causal streams, publishes after random-size bursts on one
    /// long-lived cache; mid-stream the model is replaced by its own
    /// clone, and a different model of the same shape takes a turn on
    /// the same cache (both must reset it through the instance id).
    #[test]
    fn patched_publish_equals_fresh_publish(
        seed in 0u64..1_000_000,
        bursts in proptest::collection::vec(1usize..260, 24..40),
        clone_at in 2usize..12,
        swap_at in 2usize..12,
    ) {
        let store = generate(&SynthConfig::tiny(seed)).unwrap().store;
        let log = shuffled_event_log(&store, seed ^ 0x5eed);
        let other_log = shuffled_event_log(&store, seed ^ 0x07e4);
        for (path, cfg, publish) in paths() {
            let fresh_model =
                || IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
            let mut model = fresh_model();
            let mut cache = DerivedCache::default();
            publish_checked(&mut model, &mut cache, publish, &format!("{path}: empty"));
            let mut done = 0;
            for (k, &burst) in bursts.iter().enumerate() {
                let end = (done + burst).min(log.len());
                apply_all(&mut model, &log[done..end]);
                done = end;
                let at = format!("{path}: seed {seed}, publish {k} at event {done}");
                publish_checked(&mut model, &mut cache, publish, &at);
                // An idle republish patches nothing and still agrees.
                publish_checked(&mut model, &mut cache, publish, &format!("{at}, idle"));
                if k == clone_at {
                    model = model.clone();
                    publish_checked(&mut model, &mut cache, publish, &format!("{at}, cloned"));
                }
                if k == swap_at {
                    // Same shape, different history: a prefix of another
                    // interleaving. Then back to the original model.
                    let mut other = fresh_model();
                    apply_all(&mut other, &other_log[..done / 2]);
                    publish_checked(&mut other, &mut cache, publish, &format!("{at}, swapped in"));
                    publish_checked(&mut model, &mut cache, publish, &format!("{at}, swapped back"));
                }
            }
        }
    }
}

fn table(c: usize, writers: &[(u32, f64)]) -> Arc<CategoryReputation> {
    Arc::new(CategoryReputation {
        writer_reputation: writers.iter().map(|&(u, v)| (UserId(u), v)).collect(),
        ..CategoryReputation::empty(CategoryId::from_index(c))
    })
}

/// `E` as the reference oracle builds it from per-category tables.
fn from_scratch(num_users: usize, tables: &[Arc<CategoryReputation>]) -> Dense {
    let maps: Vec<_> = tables
        .iter()
        .map(|t| t.writer_reputation.iter().copied().collect())
        .collect();
    expertise_matrix(num_users, &maps)
}

/// The `E` patch when a column **shrinks**: a category's table is replaced
/// by one with fewer writers — what the coordinator does when a rolled-back
/// round or a restarted worker hands it an older table. No event stream
/// through the flat model can produce this (writers only accumulate), so
/// it is built by hand. Without the clear of the old table's writers, the
/// dropped writer's cell keeps its stale reputation.
#[test]
fn replaced_table_with_fewer_writers_shrinks_the_column() {
    let mut counts = ActivityLedger::new(4, 2);
    counts.bump_reviews(1, 0, 1.0);
    counts.bump_reviews(3, 0, 1.0);
    counts.bump_reviews(2, 1, 1.0);
    let mut tables = vec![table(0, &[(1, 0.7), (3, 0.4)]), table(1, &[(2, 0.9)])];
    let mut assembler = Assembler::default();
    let check = |patched: Derived, counts: &ActivityLedger, tables: &[Arc<CategoryReputation>]| {
        assert!(same_bits(&patched.expertise, &from_scratch(4, tables)));
        assert!(same_bits(&patched.affiliation, &counts.affiliation()));
        assert_eq!(patched.per_category, tables);
    };
    check(assembler.assemble(&counts, &tables), &counts, &tables);
    // Roll user 3's review in category 0 back.
    counts.bump_reviews(3, 0, -1.0);
    tables[0] = table(0, &[(1, 0.65)]);
    let patched = assembler.assemble(&counts, &tables);
    assert_eq!(patched.expertise.get(3, 0), 0.0, "stale writer cell");
    assert_eq!(patched.affiliation.row(3), [0.0, 0.0]);
    check(patched, &counts, &tables);
    // And the column grows back, with a different writer.
    counts.bump_reviews(0, 0, 1.0);
    tables[0] = table(0, &[(0, 0.1), (1, 0.65)]);
    check(assembler.assemble(&counts, &tables), &counts, &tables);
}

/// `E` and `A` of a publish, as bits.
fn matrix_bits(d: &Derived) -> Vec<u64> {
    d.expertise
        .as_slice()
        .iter()
        .chain(d.affiliation.as_slice())
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A published `Derived` never changes while the cache that made it
    /// moves on. The assembler hands out its matrices by pointer and
    /// patches them again two publishes later, so a publish still held
    /// then must have been copied before the write, not written through.
    /// Up to three publishes at a time are held, each for a random number
    /// of later publishes (some for many), on all three publish paths;
    /// each one's bits are recorded when it is published and checked when
    /// it is let go. Every publish, held or not, still equals a
    /// fresh-cache publish of the same model.
    #[test]
    fn held_publishes_never_change(
        seed in 0u64..1_000_000,
        bursts in proptest::collection::vec(1usize..200, 20..36),
        holds in proptest::collection::vec(0usize..14, 36..37),
    ) {
        let store = generate(&SynthConfig::tiny(seed)).unwrap().store;
        let log = shuffled_event_log(&store, seed ^ 0x401d);
        for (path, cfg, publish) in paths() {
            let mut model =
                IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
            let mut cache = DerivedCache::default();
            // (publish, its bits when published, publishes left to hold it)
            let mut held: Vec<(Derived, Vec<u64>, usize, String)> = Vec::new();
            let mut done = 0;
            for (k, (&burst, &hold)) in bursts.iter().zip(&holds).enumerate() {
                let end = (done + burst).min(log.len());
                apply_all(&mut model, &log[done..end]);
                done = end;
                // A burst, then (every third time) an idle republish: both
                // kinds of publish find held snapshots in either slot.
                for idle in [false, true] {
                    if idle && k % 3 != 0 {
                        continue;
                    }
                    let at = format!("{path}: seed {seed}, publish {k} at event {done}, idle {idle}");
                    let d = publish(&mut model, &mut cache);
                    let fresh = publish(&mut model.clone(), &mut DerivedCache::default());
                    prop_assert!(
                        same_bits(&d.expertise, &fresh.expertise)
                            && same_bits(&d.affiliation, &fresh.affiliation)
                            && d == fresh,
                        "{}: differs from a fresh-cache publish", at
                    );
                    for (old, bits, left, when) in held.iter_mut() {
                        *left = left.saturating_sub(1);
                        if *left == 0 {
                            prop_assert!(matrix_bits(old) == *bits, "{} changed by {}", when, at);
                        }
                    }
                    held.retain(|&(_, _, left, _)| left > 0);
                    if hold > 0 && held.len() < 3 {
                        let bits = matrix_bits(&d);
                        held.push((d, bits, hold, at));
                    }
                }
            }
            for (old, bits, _, when) in &held {
                prop_assert!(matrix_bits(old) == *bits, "{} changed by the end", when);
            }
        }
    }
}
