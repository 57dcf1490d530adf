//! `pipeline::derive`'s bits, pinned beyond the tiny preset.
//!
//! `repro_golden` holds only the tiny preset's printed numbers, and the
//! replay and delta conformance suites compare two callers of the same
//! per-category solve, so a change that moves both sides at once passes
//! them. These pins hash every bit `derive` returns — `E`, `A`, and each
//! category's tables, sweep count and convergence flag — and compare it
//! with a constant computed before the batch path moved onto the online
//! model's per-category state.
//!
//! The laptop pin runs in tier-1. The paper pin is `#[ignore]`d (a few
//! seconds in release) and runs in CI's paper-scale leg:
//!
//! ```text
//! cargo test --release -p wot-core --test derive_pins -- --ignored
//! ```

use wot_core::{pipeline, DeriveConfig, Derived};
use wot_synth::{generate, SynthConfig};

/// The hash of `derive` over `SynthConfig::laptop(20080407)`.
const LAPTOP: u64 = 0xc42a_081c_4dc1_90c0;

/// The hash of `derive` over `SynthConfig::paper_scale(20080407)`.
const PAPER: u64 = 0x7e83_ec4f_f5cb_0e06;

/// XOR-rotate-multiply over every bit of `d` in canonical order: `E` and
/// `A` row-major, then per category its raters, writers and reviews as
/// `(id, value bits)` in table order, its sweep count and its flag.
fn derived_hash(d: &Derived) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h.rotate_left(5) ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for x in d
        .expertise
        .as_slice()
        .iter()
        .chain(d.affiliation.as_slice())
    {
        mix(x.to_bits());
    }
    for table in &d.per_category {
        mix(table.category.index() as u64);
        for &(u, v) in table
            .rater_reputation
            .iter()
            .chain(&table.writer_reputation)
        {
            mix(u.index() as u64);
            mix(v.to_bits());
        }
        for &(r, q) in &table.review_quality {
            mix(r.index() as u64);
            mix(q.to_bits());
        }
        mix(table.iterations as u64);
        mix(u64::from(table.converged));
    }
    h
}

fn derive_hash(synth: &SynthConfig) -> u64 {
    let store = generate(synth).unwrap().store;
    let d = pipeline::derive(&store, &DeriveConfig::default()).unwrap();
    derived_hash(&d)
}

#[test]
fn laptop_derive_bits_are_pinned() {
    let h = derive_hash(&SynthConfig::laptop(20080407));
    assert_eq!(h, LAPTOP, "derive moved a bit at laptop scale: {h:#018x}");
}

#[test]
#[ignore = "paper scale: a few seconds in release; CI's paper-scale leg runs it"]
fn paper_derive_bits_are_pinned() {
    let h = derive_hash(&SynthConfig::paper_scale(20080407));
    assert_eq!(h, PAPER, "derive moved a bit at paper scale: {h:#018x}");
}
