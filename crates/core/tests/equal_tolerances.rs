//! A delta cut-off equal to the cold tolerance changes no bit.
//!
//! `DeriveConfig::delta_tolerance` is the delta solve's own propagation
//! cut-off. Set equal to `fixpoint_tolerance` (1e-9), the delta solve must
//! be the one that ran when both jobs were one knob, and the residual
//! audit must measure without ever re-sweeping. This test pins that: a
//! laptop-preset stream with one refresh per event at the default
//! frontier threshold, hashed over every category's warm quality and
//! reputation bits, must give [`PINNED`].
//!
//! [`PINNED`] was computed by this same stream on the code before the
//! delta cut-off was split from `fixpoint_tolerance`, where the worklist
//! and its dense passes read `fixpoint_tolerance` directly and no audit
//! existed.

use wot_community::{CategoryId, StoreEvent};
use wot_core::{DeriveConfig, IncrementalDerived, ReplayEvent};
use wot_synth::{generate, shuffled_event_log, SynthConfig};

/// Events refreshed one at a time after the bootstrap.
const TAIL: usize = 600;

/// The warm-state hash of the stream below, from before the split.
const PINNED: u64 = 0xe059_8327_f966_ab3e;

/// XOR-rotate-multiply over the warm bits of every category, in category
/// order, qualities before reputations.
fn warm_hash(model: &IncrementalDerived) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in (0..model.num_categories()).map(CategoryId::from_index) {
        let state = model.warm_state(c).unwrap();
        for x in state.quality.iter().chain(&state.reputation) {
            h = (h.rotate_left(5) ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn equal_tolerances_change_no_warm_bit() {
    let store = generate(&SynthConfig::laptop(20080407)).unwrap().store;
    let log = shuffled_event_log(&store, 31);
    let cfg = DeriveConfig::builder()
        .delta_refresh(true)
        .delta_tolerance(1e-9)
        .build()
        .unwrap();
    assert_eq!(cfg.delta_tolerance, cfg.fixpoint_tolerance);
    assert_eq!(cfg.delta_frontier_threshold, 0.25);

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

    let boot = log.len() * 6 / 10;
    let mut model =
        IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg).unwrap();
    for e in &log[..boot] {
        model.apply(&ReplayEvent::from(*e)).unwrap();
    }
    model.refresh_all();
    let (mut audits, mut resweeps) = (0, 0);
    for (e, &cat) in log[boot..boot + TAIL].iter().zip(&categories[boot..]) {
        model.apply(&ReplayEvent::from(*e)).unwrap();
        let report = model.refresh_traced(cat);
        audits += usize::from(report.residual.is_some());
        resweeps += report.resweeps;
    }
    assert!(audits > 0, "the stream must reach an audited refresh");
    assert_eq!(resweeps, 0, "an audit at the cold tolerance re-swept");
    assert_eq!(
        warm_hash(&model),
        PINNED,
        "warm bits moved at equal tolerances"
    );
}
