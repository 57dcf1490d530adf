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

use webtrust::community::CommunityStore;
use webtrust::core::{pipeline, trust, DeriveConfig};
use webtrust::synth::{generate, SynthConfig};

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
