//! Block-streaming conformance: the `TrustBlocks` engine must reproduce
//! the batch dense Eq. 5 collector **bit for bit** — `==` on `f64`, not
//! approximate comparison — for any block height and any thread count,
//! the masked form must equal `trust::pairwise` bit for bit on the
//! paper's region `R` at every thread count, and the streaming reducers
//! (row visitors of the dense kernel) must agree with dense references at
//! laptop scale while fitting paper scale in O(users) memory.
//!
//! The paper-scale run (44k users — the dense `T̂` would be ~15.6 GB) is
//! `#[ignore]`d by default and exercised by its own CI leg:
//!
//! ```text
//! cargo test --release --test block_streaming -- --ignored
//! ```

use webtrust::core::{trust, trust_blocks::BlockConfig, trust_blocks::TrustBlocks};
use webtrust::core::{CoreError, DeriveConfig};
use webtrust::eval::{streaming, Workbench};
use webtrust::synth::SynthConfig;

/// Laptop-scale workbench shared by the conformance tests (built once —
/// generation plus derivation dominate this suite's wall time).
fn laptop() -> &'static Workbench {
    use std::sync::OnceLock;
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| {
        Workbench::new(&SynthConfig::laptop(20080407), &DeriveConfig::default())
            .expect("preset valid")
    })
}

#[test]
fn block_streamed_dense_is_bit_identical_at_laptop_scale() {
    let wb = laptop();
    let full = wb.derived.trust_dense().unwrap();
    let (a, e) = (&wb.derived.affiliation, &wb.derived.expertise);
    for (block_rows, threads) in [(1usize, 1usize), (97, 2), (1024, 0), (0, 5), (0, 0)] {
        let cfg = BlockConfig {
            block_rows,
            threads,
        };
        let mut rows_seen = 0usize;
        for block in TrustBlocks::dense(a, e, &cfg).unwrap() {
            assert_eq!(block.rows().start, rows_seen);
            rows_seen = block.rows().end;
            let u = block.ncols();
            let expect = &full.as_slice()[block.rows().start * u..block.rows().end * u];
            assert_eq!(
                block.values(),
                expect,
                "block_rows={block_rows} threads={threads} rows={:?}",
                block.rows()
            );
        }
        assert_eq!(rows_seen, wb.derived.num_users());
    }
}

#[test]
fn masked_equals_pairwise_bits_at_laptop_scale() {
    let wb = laptop();
    let (a, e) = (&wb.derived.affiliation, &wb.derived.expertise);
    // The paper's own evaluation mask: the direct-connection matrix R.
    for threads in [1usize, 2, 3, 0] {
        let masked = trust::derive_masked(a, e, &wb.r, threads).unwrap();
        assert_eq!(masked.nnz(), wb.r.nnz(), "threads={threads}");
        for (i, j, v) in masked.iter() {
            assert_eq!(
                v.to_bits(),
                trust::pairwise(a, e, i, j).to_bits(),
                "({i},{j}) threads={threads}"
            );
        }
    }
}

#[test]
fn streaming_aggregates_are_invariant_and_match_bitmask_support() {
    let wb = laptop();
    let reference = streaming::fig3_aggregates(&wb.derived, &BlockConfig::sequential()).unwrap();
    // The streaming support must equal the category-bitmask counter that
    // Fig. 3 already used (two independent algorithms, one number).
    assert_eq!(reference.support, wb.derived.trust_support_count().unwrap());
    assert_eq!(
        reference.histogram.iter().sum::<u64>(),
        reference.support,
        "histogram partitions the support"
    );
    for (block_rows, threads) in [(217usize, 3usize), (0, 0)] {
        let agg = streaming::fig3_aggregates(
            &wb.derived,
            &BlockConfig {
                block_rows,
                threads,
            },
        )
        .unwrap();
        assert_eq!(agg.support, reference.support);
        assert_eq!(agg.sum, reference.sum, "bit-identical f64 fold");
        assert_eq!(agg.max, reference.max);
        assert_eq!(agg.row_support, reference.row_support);
        assert_eq!(agg.histogram, reference.histogram);
    }
}

#[test]
fn top_k_is_invariant_to_block_height_and_threads() {
    let wb = laptop();
    let reference = streaming::top_k_trusted(&wb.derived, 10, &BlockConfig::sequential()).unwrap();
    let other = streaming::top_k_trusted(
        &wb.derived,
        10,
        &BlockConfig {
            block_rows: 139,
            threads: 0,
        },
    )
    .unwrap();
    assert_eq!(reference, other);
    // The scan skips the cells that cannot enter a list; every list must
    // still be the one a full row yields, bit for bit.
    for k in [1usize, 10, 100] {
        let scan = wb
            .derived
            .trust_top_k(
                k,
                &BlockConfig {
                    block_rows: 61,
                    threads: 3,
                },
            )
            .unwrap();
        let users = wb.derived.num_users();
        assert_eq!(scan.lists.len(), users);
        assert_eq!(
            streaming::top_k_mismatches(&wb.derived, &scan.lists, k, users),
            0,
            "k={k}: every row against the single-row kernel"
        );
        assert!(scan.cells_computed <= scan.cells_full);
        if k == 10 {
            assert_eq!(scan.lists, reference);
            assert!(
                scan.computed_share() < 0.5,
                "the top-10 scan prunes: computed {} of {} cells",
                scan.cells_computed,
                scan.cells_full
            );
        }
    }
    // Spot-check the ordering contract on the busiest user.
    let busiest = reference
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .unwrap();
    let list = &reference[busiest];
    assert!(!list.is_empty());
    for w in list.windows(2) {
        assert!(
            w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
            "descending trust, ties by ascending user"
        );
    }
    for &(j, v) in list {
        assert!(j != busiest && v > 0.0);
        assert!(
            (wb.derived.pairwise_trust(
                webtrust::community::UserId(busiest as u32),
                webtrust::community::UserId(j as u32)
            ) - v)
                .abs()
                < 1e-12
        );
    }
}

#[test]
fn trust_dense_refuses_over_budget_and_points_at_blocks() {
    let wb = laptop();
    let (a, e) = (&wb.derived.affiliation, &wb.derived.expertise);
    let u = wb.derived.num_users();
    let need = u * u * 8;
    let err = trust::derive_dense_budgeted(a, e, 0, need - 1).unwrap_err();
    assert!(
        matches!(err, CoreError::Capacity { .. }),
        "expected capacity error, got {err:?}"
    );
    assert!(err.to_string().contains("TrustBlocks"), "{err}");
    // At exactly the budget it succeeds (laptop scale fits comfortably).
    assert!(trust::derive_dense_budgeted(a, e, 0, need).is_ok());
}

/// The headline paper-scale acceptance run: generate the 44k-user
/// community, derive the model, stream the full-T̂ Fig. 3 aggregates and
/// per-user top-k — and stay under a 2 GB peak-memory budget where the
/// dense T̂ alone would be ~15.6 GB.
#[test]
#[ignore = "paper scale (~minutes); run with --ignored (own CI leg)"]
fn paper_scale_streaming_fits_2gb_budget() {
    let wb = Workbench::new(
        &SynthConfig::paper_scale(20080407),
        &DeriveConfig::default(),
    )
    .expect("preset valid");
    let users = wb.derived.num_users();
    assert!(users > 44_000, "paper preset is ~44,197 users, got {users}");

    // The dense path must refuse this scale by default…
    assert!(matches!(
        wb.derived.trust_dense(),
        Err(CoreError::Capacity { .. })
    ));

    // …while the streaming path serves the same analyses: blocks for a
    // caller that wants values, no block at all for the reducers.
    let cfg = BlockConfig::default();
    let blocks = wb.derived.trust_blocks(&cfg).unwrap();
    assert!(
        blocks.max_block_bytes() <= 64 << 20,
        "one block stays tens of MiB, got {}",
        blocks.max_block_bytes()
    );
    let t = std::time::Instant::now();
    let agg = streaming::fig3_aggregates(&wb.derived, &cfg).unwrap();
    let fig3_ms = t.elapsed().as_secs_f64() * 1e3;
    // The same scan with a visitor that only lets each row escape: the
    // kernel's share of `fig3_ms`, the rest being the Fig. 3 reducer.
    let t = std::time::Instant::now();
    let rows: usize = wb
        .derived
        .trust_rows(&cfg)
        .unwrap()
        .fold_chunks(
            |_| 0usize,
            |n, _, _, vals| {
                std::hint::black_box(vals);
                *n += 1;
            },
        )
        .into_iter()
        .sum();
    let fig3_kernel_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rows, users);
    assert_eq!(agg.users, users);
    assert!(
        agg.max_block_bytes < 16 << 20,
        "the fused scan holds a copy of E and a row per worker, never a \
         block of T-hat; it allocated {} bytes",
        agg.max_block_bytes
    );
    assert_eq!(agg.support, wb.derived.trust_support_count().unwrap());
    assert!(agg.density() > 0.1, "T̂ is dense in spirit at paper scale");

    let t = std::time::Instant::now();
    let scan = wb.derived.trust_top_k(10, &cfg).unwrap();
    let topk_ms = t.elapsed().as_secs_f64() * 1e3;
    let topk_share = scan.computed_share();
    let top = scan.lists;
    assert_eq!(top.len(), users);
    assert!(top.iter().any(|l| l.len() == 10));
    assert_eq!(
        top,
        streaming::top_k_trusted(&wb.derived, 10, &cfg).unwrap(),
        "the streaming entry point is this scan"
    );
    // Without the bound the scan is back to computing every cell.
    assert!(
        topk_share < 0.25,
        "top-10 scan computed {:.1} % of the cells",
        topk_share * 100.0
    );
    let checked = 64;
    assert_eq!(
        streaming::top_k_mismatches(&wb.derived, &top, 10, checked),
        0,
        "{checked} evenly spaced rows against the single-row kernel"
    );

    let rss = streaming::peak_rss_bytes().expect("Linux /proc available in CI");
    println!(
        "paper-scale streaming: users={users} support={} density={:.4} \
         isa={} fig3={fig3_ms:.0}ms fig3_kernel={fig3_kernel_ms:.0}ms top_k={topk_ms:.0}ms \
         top_k_cells={:.1}% \
         top_k_rows_checked={checked} scan_buffers={:.1}MiB peak_rss={:.2}GB",
        agg.support,
        agg.density(),
        webtrust::core::trust_rows::kernel_isa(),
        topk_share * 100.0,
        agg.max_block_bytes as f64 / (1 << 20) as f64,
        rss as f64 / 1e9
    );
    assert!(
        rss < 2 * 1024 * 1024 * 1024,
        "peak RSS {rss} exceeds the 2 GB streaming budget"
    );
}
