//! Online trust maintenance: keep `T̂` fresh as ratings stream in.
//!
//! ```text
//! cargo run --release --example incremental_updates [seed]
//! ```
//!
//! A deployed community ingests events continuously. This example replays
//! a synthetic community as an event stream into
//! [`IncrementalDerived`](webtrust::core::IncrementalDerived), refreshing
//! the per-category fixed point with warm starts, and shows (a) the
//! streamed model agrees with a batch recomputation and (b) warm-start
//! refreshes converge in a fraction of the cold-start sweeps.

use webtrust::core::{pipeline, DeriveConfig, IncrementalDerived};
use webtrust::synth::{generate, SynthConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20080407);

    let out = generate(&SynthConfig::tiny(seed)).expect("preset is valid");
    let store = &out.store;
    let cfg = DeriveConfig::default();
    println!(
        "replaying {} reviews and {} ratings as an event stream…",
        store.num_reviews(),
        store.num_ratings()
    );

    // ---- stream: 90% bootstrap, then per-event refreshes -------------------
    let mut inc = IncrementalDerived::new(store.num_users(), store.num_categories(), &cfg)
        .expect("valid config");
    for review in store.reviews() {
        inc.add_review(review.writer, review.id, review.category)
            .expect("fresh review");
    }
    let cut = store.num_ratings() * 9 / 10;
    let mut ratings = store.ratings().iter();
    for rating in ratings.by_ref().take(cut) {
        inc.add_rating(rating.rater, rating.review, rating.value)
            .expect("valid rating");
    }
    let bootstrap_sweeps = inc.refresh_all();
    println!("bootstrap on {cut} ratings: {bootstrap_sweeps} fixed-point sweeps total");

    // The live phase: refresh after every single event.
    let mut live_sweeps = 0usize;
    for rating in ratings {
        inc.add_rating(rating.rater, rating.review, rating.value)
            .expect("valid rating");
        live_sweeps += inc.refresh_all();
    }
    let live_events = store.num_ratings() - cut;
    println!(
        "live phase: {live_events} events, {live_sweeps} sweeps \
         ({:.1} sweeps/event thanks to warm starts)",
        live_sweeps as f64 / live_events.max(1) as f64
    );

    // ---- agreement with the batch pipeline --------------------------------
    let batch = pipeline::derive(store, &cfg).expect("derivation");
    let streamed = inc.expertise();
    let max_diff = streamed
        .as_slice()
        .iter()
        .zip(batch.expertise.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |streamed − batch| over the expertise matrix: {max_diff:.2e}");
    assert!(
        max_diff < 1e-6,
        "streamed model diverged from the batch pipeline"
    );
    assert_eq!(
        inc.affiliation().as_slice(),
        batch.affiliation.as_slice(),
        "affiliation counts must match exactly"
    );
    println!("ok: online model matches the batch pipeline");
}
