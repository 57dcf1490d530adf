//! Cross-crate determinism: the parallel derivation pipeline must produce
//! **bit-identical** output to the sequential one — `==` on `f64`, not
//! approximate comparison.
//!
//! This is the contract that makes `DeriveConfig::parallel` a pure
//! throughput knob: Jacobi sweeps are order-independent within a category,
//! categories are independent of each other, and every parallel kernel
//! (per-category fan-out, masked products, dense row loops, support
//! counting) writes disjoint output from read-only input, so no thread
//! count may perturb a single bit.

use webtrust::community::{CategoryId, CommunityStore, StoreEvent};
use webtrust::core::{pipeline, trust, DeriveConfig, IncrementalDerived, ReplayEvent};
use webtrust::synth::{generate, shuffled_event_log, SynthConfig};

fn tiny_store() -> CommunityStore {
    generate(&SynthConfig::tiny(20080407))
        .expect("preset valid")
        .store
}

#[test]
fn parallel_derive_is_bit_identical_to_sequential() {
    let store = tiny_store();
    let sequential = pipeline::derive(
        &store,
        &DeriveConfig::builder().parallel(false).build().unwrap(),
    )
    .unwrap();

    for threads in [0usize, 2, 3, 8] {
        let parallel = pipeline::derive(
            &store,
            &DeriveConfig::builder()
                .parallel(true)
                .threads(threads)
                .build()
                .unwrap(),
        )
        .unwrap();
        // Full structural equality: expertise, affiliation and every
        // per-category reputation/quality list, compared exactly.
        assert_eq!(parallel, sequential, "threads={threads}");
        // Belt and braces: the f64 payloads bit for bit.
        for (a, b) in parallel
            .expertise
            .as_slice()
            .iter()
            .zip(sequential.expertise.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn baseline_pipeline_is_bit_identical_to_index_dense() {
    let store = tiny_store();
    let cfg = DeriveConfig::builder().parallel(false).build().unwrap();
    let dense = pipeline::derive(&store, &cfg).unwrap();
    let baseline = pipeline::derive_baseline(&store, &cfg).unwrap();
    assert_eq!(dense, baseline);
}

#[test]
fn threaded_trust_kernels_are_bit_identical() {
    let store = tiny_store();
    let derived = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
    let r = store.direct_connection_matrix();

    let masked_seq = trust::derive_masked(&derived.affiliation, &derived.expertise, &r, 1).unwrap();
    let dense_seq = trust::derive_dense(&derived.affiliation, &derived.expertise, 1).unwrap();
    let count_seq = trust::support_count(&derived.affiliation, &derived.expertise, 1).unwrap();

    for threads in [0usize, 2, 5] {
        let masked =
            trust::derive_masked(&derived.affiliation, &derived.expertise, &r, threads).unwrap();
        assert_eq!(masked, masked_seq, "masked, threads={threads}");
        let dense = trust::derive_dense(&derived.affiliation, &derived.expertise, threads).unwrap();
        assert_eq!(dense, dense_seq, "dense, threads={threads}");
        let count =
            trust::support_count(&derived.affiliation, &derived.expertise, threads).unwrap();
        assert_eq!(count, count_seq, "support, threads={threads}");
    }
}

/// The delta solve's residual audit lands on the same refreshes, and
/// re-sweeps the same categories, at every thread count: its cadence is
/// per-category state, so a `refresh_all` fan-out cannot reorder it. The
/// cut-off is loose enough that audits re-sweep; per-event refreshes of
/// one category are interleaved with fan-outs over every stale one.
#[test]
fn residual_audit_is_identical_at_every_thread_count() {
    let store = tiny_store();
    let log = shuffled_event_log(&store, 7);
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

    let run = |threads: usize| {
        let cfg = DeriveConfig::builder()
            .thread_count(threads)
            .delta_refresh(true)
            .delta_tolerance(1e-5)
            .build()
            .unwrap();
        let mut inc =
            IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
        let (mut fanned, mut traced) = (Vec::new(), Vec::new());
        for (k, (e, &cat)) in log.iter().zip(&categories).enumerate() {
            inc.apply(&ReplayEvent::from(*e)).unwrap();
            match k % 5 {
                0 => {
                    let r = inc.refresh_traced(cat);
                    traced.push((
                        r.sweeps,
                        r.converged,
                        r.fell_back,
                        r.residual.map(f64::to_bits),
                        r.resweeps,
                    ));
                }
                4 => fanned.push(inc.refresh_all()),
                _ => {}
            }
        }
        inc.refresh_all();
        let warm: Vec<Vec<u64>> = (0..store.num_categories())
            .map(|c| {
                let state = inc.warm_state(CategoryId::from_index(c)).unwrap();
                state
                    .quality
                    .iter()
                    .chain(&state.reputation)
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect();
        (fanned, traced, warm)
    };

    let (fanned, traced, warm) = run(1);
    let resweeps: usize = traced.iter().map(|r| r.4).sum();
    assert!(resweeps > 0, "the audit never re-swept at a 1e-5 cut-off");
    for threads in [2usize, 3, 8] {
        let (f, t, w) = run(threads);
        assert_eq!(f, fanned, "refresh_all sweeps, threads={threads}");
        assert_eq!(t, traced, "traced reports, threads={threads}");
        assert_eq!(w, warm, "warm bits, threads={threads}");
    }
}
