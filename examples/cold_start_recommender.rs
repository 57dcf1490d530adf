//! Cold-start review recommendation — the paper's motivating application.
//!
//! ```text
//! cargo run --release --example cold_start_recommender [seed]
//! ```
//!
//! An e-commerce site has rating data but **no** web of trust (the exact
//! setting of the paper's introduction). For a target user we derive
//! per-writer trust from ratings alone and recommend unread reviews by the
//! most-trusted writers, then check the recommendations against the
//! held-out explicit trust statements the model never saw.

use webtrust::community::{ReviewId, UserId};
use webtrust::core::{pipeline, DeriveConfig};
use webtrust::synth::{generate, SynthConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let out = generate(&SynthConfig::laptop(seed)).expect("preset is valid");
    let store = &out.store;
    let derived = pipeline::derive(store, &DeriveConfig::default()).expect("derivation");

    // Pick the most active rater as our target user.
    let mut rated = vec![0usize; store.num_users()];
    for rt in store.ratings() {
        rated[rt.rater.index()] += 1;
    }
    let target = (0..store.num_users())
        .map(UserId::from_index)
        .max_by_key(|&u| rated[u.index()])
        .expect("non-empty community");
    println!(
        "target user {} rated {} reviews; deriving their personal web of trust…\n",
        store.users()[target.index()].handle,
        rated[target.index()]
    );

    // Rank every other user by derived trust (Eq. 5). This works even for
    // writers the target has never interacted with.
    let mut ranked: Vec<(UserId, f64)> = (0..store.num_users())
        .map(UserId::from_index)
        .filter(|&j| j != target)
        .map(|j| (j, derived.pairwise_trust(target, j)))
        .filter(|&(_, t)| t > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));

    println!("top 10 derived-trust writers for the target:");
    let already_rated: std::collections::HashSet<ReviewId> = store
        .ratings()
        .iter()
        .filter(|rt| rt.rater == target)
        .map(|rt| rt.review)
        .collect();
    let mut recommendations = Vec::new();
    for &(writer, trust) in ranked.iter().take(10) {
        let unread: Vec<ReviewId> = store
            .reviews_by_writer(writer)
            .iter()
            .copied()
            .filter(|r| !already_rated.contains(r))
            .collect();
        println!(
            "  {:<12} trust {:.3}  ({} unread reviews)",
            store.users()[writer.index()].handle,
            trust,
            unread.len()
        );
        recommendations.extend(unread.into_iter().take(2));
    }
    println!("\nrecommended {} unread reviews.", recommendations.len());

    // ---- sanity check against the held-out explicit web of trust ----------
    // The derivation never saw trust statements; if the paper's premise
    // holds, the target's *stated* trustees should score well above the
    // population average.
    let stated: Vec<UserId> = store
        .trust_statements()
        .iter()
        .filter(|t| t.source == target)
        .map(|t| t.target)
        .collect();
    if stated.is_empty() {
        println!("(target stated no explicit trust; nothing to cross-check)");
        return;
    }
    let mean_stated: f64 = stated
        .iter()
        .map(|&j| derived.pairwise_trust(target, j))
        .sum::<f64>()
        / stated.len() as f64;
    let mean_all: f64 = ranked.iter().map(|&(_, t)| t).sum::<f64>() / ranked.len().max(1) as f64;
    println!(
        "mean derived trust toward {} stated trustees: {:.3} (population mean {:.3})",
        stated.len(),
        mean_stated,
        mean_all
    );
    assert!(
        mean_stated > mean_all,
        "derived trust should rank stated trustees above the population average"
    );
    println!("ok: stated trustees rank above the population average");
}
