//! Paper-scale trust analyses without the 15.6 GB matrix.
//!
//! ```text
//! cargo run --release --example paper_scale_trust [tiny|laptop|paper]
//! ```
//!
//! Fig. 3's message is that the derived trust view `T̂` (Eq. 5) is *much*
//! denser than the explicit web of trust — dense enough that
//! materializing it at the paper's 44,197 users would allocate
//! `44_197² × 8 B ≈ 15.6 GB`. This example shows the two halves of the
//! workspace's answer:
//!
//! 1. `trust_dense` now *refuses* over-budget materializations with a
//!    capacity error instead of invoking the OOM killer;
//! 2. `wot-eval`'s streaming reducers run the same analyses (Fig. 3
//!    aggregates, per-user top-k) as row visitors of the Eq. 5 kernel:
//!    a copy of `E` and one row per worker, no block of `T̂` at all —
//!    and the top-k scan does not even compute most cells: it visits the
//!    writers in descending order of `max_c E_jc`, an upper bound on
//!    every `T̂_ij`, and leaves a row once the bound drops under the
//!    row's k-th best.
//!
//! At `paper` scale the whole run fits comfortably under 2 GB of peak
//! RSS; `laptop` (the default, ~4k users) finishes in seconds.

use webtrust::core::{pipeline, BlockConfig, CoreError, DeriveConfig};
use webtrust::eval::streaming;
use webtrust::synth::{generate, SynthConfig};

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "laptop".into());
    let synth = match scale.as_str() {
        "tiny" => SynthConfig::tiny(20080407),
        "laptop" => SynthConfig::laptop(20080407),
        "paper" => SynthConfig::paper_scale(20080407),
        other => {
            eprintln!("unknown scale {other:?} (want tiny|laptop|paper)");
            std::process::exit(1);
        }
    };

    let t = std::time::Instant::now();
    let out = generate(&synth).expect("preset valid");
    let derived = pipeline::derive(&out.store, &DeriveConfig::default()).expect("valid config");
    let users = derived.num_users();
    println!(
        "[{scale}] {} users, {} ratings — generated + derived in {:.1?}",
        users,
        out.store.num_ratings(),
        t.elapsed()
    );

    // ---- the dense wall -----------------------------------------------------
    let dense_bytes = (users as u128) * (users as u128) * 8;
    println!(
        "full dense T-hat would need {:.2} GB",
        dense_bytes as f64 / 1e9
    );
    match derived.trust_dense() {
        Ok(_) => println!("  -> fits the configured budget at this scale; materialized once"),
        Err(CoreError::Capacity { .. }) => {
            println!("  -> REFUSED by the capacity budget (no OOM) — streaming instead")
        }
        Err(e) => panic!("unexpected error: {e}"),
    }

    // ---- the streaming path -------------------------------------------------
    let cfg = BlockConfig::default();
    let t = std::time::Instant::now();
    let agg = streaming::fig3_aggregates(&derived, &cfg).expect("scan succeeds");
    println!(
        "Fig. 3 aggregates in {:.1?}: support={} density={:.4} mean+={:.3} max={:.3}",
        t.elapsed(),
        agg.support,
        agg.density(),
        agg.mean_positive(),
        agg.max
    );
    println!(
        "  scanned as {} row chunks of {} rows; scan buffers {:.1} MiB (E panel + a row per worker)",
        agg.blocks,
        agg.block_rows,
        agg.max_block_bytes as f64 / (1 << 20) as f64
    );

    let t = std::time::Instant::now();
    let k = 5;
    let scan = derived.trust_top_k(k, &cfg).expect("scan succeeds");
    println!(
        "top-{k} trusted peers per user in {:.1?}, computing {:.1} % of the cells \
         ({} of {}); e.g.:",
        t.elapsed(),
        scan.computed_share() * 100.0,
        scan.cells_computed,
        scan.cells_full
    );
    let top = scan.lists;
    let busiest = agg
        .row_support
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i)
        .expect("non-empty community");
    for &(j, v) in &top[busiest] {
        println!("  user {busiest} -> user {j}: {v:.3}");
    }

    // Cross-check: the streaming support equals the bitmask counter.
    assert_eq!(
        agg.support,
        derived.trust_support_count().expect("C <= 64"),
        "streaming scan and bitmask counter agree"
    );
    println!("ok: scanned the full T-hat without storing a block of it");
}
