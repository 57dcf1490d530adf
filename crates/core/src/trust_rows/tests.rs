use super::*;
use crate::trust;

/// Deterministic `A`/`E` with the shapes the kernel must get right:
/// all-zero `A` rows, all-zero `E` rows, dense and sparse rows.
fn instance(u: usize, c: usize) -> (Dense, Dense) {
    let mut state = 0x5EED_0005u64 ^ ((u as u64) << 20) ^ c as u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut a = Dense::zeros(u, c);
    let mut e = Dense::zeros(u, c);
    for i in 0..u {
        let (a_live, e_live) = (next() % 5 != 0, next() % 4 != 0);
        for k in 0..c {
            if a_live && next() % 3 != 0 {
                a.set(i, k, (next() % 100_000) as f64 / 99_991.0);
            }
            if e_live && next() % 3 != 0 {
                e.set(i, k, (next() % 100_000) as f64 / 99_989.0);
            }
        }
    }
    (a, e)
}

fn bits(list: &[(usize, f64)]) -> Vec<(usize, u64)> {
    list.iter().map(|&(j, v)| (j, v.to_bits())).collect()
}

/// Row `i` four ways: the panel kernel scattered to full width, the
/// single-row kernel, `pairwise` cell by cell, and the ranked panel's
/// walk with a `k` no row can fill — it never prunes, so every cell
/// of the row goes through `tile_cells`.
fn assert_row_kernels_agree(a: &Dense, e: &Dense) {
    let u = a.nrows();
    let panel = ExpertisePanel::new(e);
    let ranked = ExpertisePanel::ranked(e);
    let mut buf = panel.row_buffer();
    for i in 0..u {
        let exact = (0..u).map(|j| (j, trust::pairwise(a, e, i, j)));
        match ranked.top_k(i, a.row(i), u + 1, &mut buf) {
            Some((list, computed)) => {
                assert_eq!(computed, ranked.writers().len());
                assert_eq!(bits(&list), bits(&top_k_of_row(i, u + 1, exact)));
            }
            None => assert!(a.row(i).iter().sum::<f64>() <= 0.0),
        }
        let mut from_panel = vec![0.0f64; u];
        if let Some(vals) = panel.fill(a.row(i), &mut buf) {
            assert_eq!(vals.len(), panel.writers().len());
            for (&j, &v) in panel.writers().iter().zip(vals) {
                from_panel[j as usize] = v;
            }
        }
        let single: Vec<f64> = match trust::row(a, e, i) {
            Some(row) => row.collect(),
            None => vec![0.0; u],
        };
        assert_eq!(single.len(), u);
        for j in 0..u {
            let want = trust::pairwise(a, e, i, j).to_bits();
            assert_eq!(from_panel[j].to_bits(), want, "panel ({i},{j})");
            assert_eq!(single[j].to_bits(), want, "single row ({i},{j})");
        }
    }
}

#[test]
fn panel_single_row_and_pairwise_are_bit_identical() {
    // Tail and no-tail category counts, below and above one 4-chunk.
    for c in [1usize, 3, 4, 5, 12, 13] {
        // 37 writers-ish: not a multiple of the tile width.
        let (a, e) = instance(53, c);
        let panel = ExpertisePanel::new(&e);
        assert!(panel.writers().len() < 53, "some E rows are all zero");
        assert!((0..53).any(|i| a.row(i).iter().all(|&v| v == 0.0)));
        assert_row_kernels_agree(&a, &e);
    }
}

#[test]
fn lone_writer_no_writer_and_no_category() {
    let (a, _) = instance(9, 5);
    let mut e = Dense::zeros(9, 5);
    assert!(ExpertisePanel::new(&e).writers().is_empty());
    assert_row_kernels_agree(&a, &e);
    e.set(6, 4, 0.75);
    assert_eq!(ExpertisePanel::new(&e).writers(), &[6]);
    assert_row_kernels_agree(&a, &e);
    assert_row_kernels_agree(&Dense::zeros(3, 0), &Dense::zeros(3, 0));
}

#[test]
fn fold_chunks_visits_every_row_once_in_chunk_order() {
    let (a, e) = instance(41, 5);
    for (block_rows, threads) in [(1usize, 1usize), (7, 2), (0, 3), (64, 0)] {
        let cfg = BlockConfig {
            block_rows,
            threads,
        };
        let scan = TrustRows::new(&a, &e, &cfg).unwrap();
        assert!(scan.transient_bytes() >= scan.panel.bytes());
        let chunks = scan.fold_chunks(
            |rows| (rows, Vec::new()),
            |(_, seen), i, cols, vals| {
                assert_eq!(cols.len(), vals.len());
                seen.push((i, vals.iter().sum::<f64>().to_bits()));
            },
        );
        assert_eq!(chunks.len(), scan.num_chunks());
        let mut next = 0;
        for (rows, seen) in chunks {
            assert_eq!(rows.start, next);
            next = rows.end;
            for (i, (row, sum)) in rows.zip(seen) {
                assert_eq!(row, i);
                let want: f64 = (0..41)
                    .map(|j| trust::pairwise(&a, &e, i, j))
                    .filter(|&v| v != 0.0)
                    .sum();
                assert_eq!(sum, want.to_bits(), "row {i}");
            }
        }
        assert_eq!(next, 41);
    }
}

/// The shapes the bound must survive: constant `E` rows (a computed
/// cell equals or rounds past `b_j`), quantised rows (exact ties) and
/// one-hot `A` rows (`T̂_ij = E_jc`).
fn tied_instance(u: usize, c: usize) -> (Dense, Dense) {
    let (mut a, mut e) = instance(u, c);
    for j in 0..u {
        match j % 4 {
            0 => (0..c).for_each(|k| e.set(j, k, (j % 7 + 1) as f64 / 7.1)),
            1 => (0..c).for_each(|k| e.set(j, k, ((j + k) % 3) as f64 / 2.0)),
            _ => {}
        }
        if j % 5 == 2 {
            (0..c).for_each(|k| a.set(j, k, if k == j % c { 0.3 } else { 0.0 }));
        }
    }
    (a, e)
}

#[test]
fn ranked_panel_sorts_by_bound_and_bounds_dominate_computed_cells() {
    for c in [1usize, 3, 5, 12] {
        let (a, e) = tied_instance(61, c);
        let panel = ExpertisePanel::ranked(&e);
        let mut sorted = panel.writers().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, ExpertisePanel::new(&e).writers(), "same columns");
        let b = |j: u32| e.row(j as usize).iter().copied().fold(f64::MIN, f64::max);
        for w in panel.writers().windows(2) {
            assert!(b(w[0]) > b(w[1]) || (b(w[0]) == b(w[1]) && w[0] < w[1]));
        }
        assert_eq!(panel.tile_bounds.len() * TILE, panel.padded_len());
        assert!(panel.tile_bounds.windows(2).all(|w| w[0] >= w[1]));
        let mut buf = panel.row_buffer();
        let mut at_bound = 0;
        for i in 0..61 {
            let Some(vals) = panel.fill(a.row(i), &mut buf) else {
                continue;
            };
            for (w, (&v, &j)) in vals.iter().zip(panel.writers()).enumerate() {
                assert!(v <= panel.tile_bounds[w / TILE], "cell ({i},{j})");
                at_bound += usize::from(v >= b(j));
            }
        }
        assert!(at_bound > 0, "some cell reaches its column's max");
    }
}

#[test]
fn top_k_scan_prunes_and_equals_full_rows() {
    let (mut a, e) = tied_instance(97, 5);
    // A row the bound does not cover is still answered — in full.
    a.set(3, 1, -0.25);
    a.set(3, 2, 0.75);
    let width = ExpertisePanel::new(&e).writers().len() as u64;
    let active = (0..97).filter(|&i| a.row(i).iter().sum::<f64>() > 0.0);
    let full = active.count() as u64 * width;
    for k in [0usize, 1, 4, 10, 200] {
        let mut computed = None;
        for (block_rows, threads) in [(1usize, 1usize), (7, 3), (0, 0)] {
            let cfg = BlockConfig {
                block_rows,
                threads,
            };
            let scan = TrustRows::top_k(&a, &e, k, &cfg).unwrap();
            assert_eq!(scan.lists.len(), 97);
            for (i, list) in scan.lists.iter().enumerate() {
                assert_eq!(
                    bits(list),
                    bits(&top_k_single_row(&a, &e, i, k)),
                    "k={k} row {i}"
                );
            }
            assert_eq!(scan.cells_full, if k == 0 { 0 } else { full });
            assert_eq!(
                *computed.get_or_insert(scan.cells_computed),
                scan.cells_computed
            );
        }
        let computed = computed.unwrap();
        match k {
            0 => assert_eq!(computed, 0),
            200 => assert_eq!(computed, full, "no row can fill 200 slots"),
            // At least the uncovered row is computed whole.
            _ => assert!(
                (width..full * 2 / 3).contains(&computed),
                "k={k}: {computed} of {full}"
            ),
        }
    }
}

#[test]
fn top_k_orders_by_trust_then_column_and_skips_self() {
    let cells = [(0, 0.5), (1, 0.9), (2, 0.5), (3, 0.0), (4, 0.9), (5, 0.1)];
    let top = top_k_of_row(1, 3, cells.iter().copied());
    assert_eq!(top, vec![(4, 0.9), (0, 0.5), (2, 0.5)]);
    // Arrival order does not matter.
    let top_rev = top_k_of_row(1, 3, cells.iter().rev().copied());
    assert_eq!(top_rev, top);
    assert!(top_k_of_row(1, 0, cells.iter().copied()).is_empty());
    assert_eq!(top_k_of_row(9, 100, cells.iter().copied()).len(), 5);
}

/// The tiny preset, derived — what the Fig. 3 tests scan.
struct Bench {
    derived: Derived,
}

fn bench() -> Bench {
    let out = wot_synth::generate(&wot_synth::SynthConfig::tiny(31)).unwrap();
    let derived = crate::pipeline::derive(&out.store, &crate::DeriveConfig::default()).unwrap();
    Bench { derived }
}

/// The bin [`Fig3Aggregates::histogram`] defines for `v > 0`.
fn ceil_bin(v: f64, nbins: usize) -> usize {
    ((v * nbins as f64).ceil() as usize).clamp(1, nbins) - 1
}

#[test]
fn aggregates_match_dense_reference() {
    let wb = bench();
    let dense = wb.derived.trust_dense().unwrap();
    let agg = fig3_aggregates(&wb.derived, &BlockConfig::sequential()).unwrap();
    let u = wb.derived.num_users();
    // Reference fold in the exact same per-row order.
    let mut support = 0u64;
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut histogram = vec![0u64; FIG3_HIST_BINS];
    for i in 0..u {
        let mut row_sum = 0.0;
        let mut row_support = 0u32;
        for &v in dense.row(i) {
            if v > 0.0 {
                row_support += 1;
                row_sum += v;
                max = max.max(v);
                histogram[ceil_bin(v, FIG3_HIST_BINS)] += 1;
            }
        }
        assert_eq!(agg.row_support[i], row_support, "row {i}");
        support += row_support as u64;
        sum += row_sum;
    }
    assert_eq!(agg.support, support);
    assert_eq!(agg.sum.to_bits(), sum.to_bits());
    assert_eq!(agg.max.to_bits(), max.to_bits());
    assert_eq!(agg.histogram, histogram);
    assert!(histogram.iter().filter(|&&n| n > 0).count() > 1);
    // Cross-check against the bitmask counter of Fig. 3.
    assert_eq!(agg.support, wb.derived.trust_support_count().unwrap());
    assert!(agg.density() > 0.0 && agg.density() <= 1.0);
    assert!(agg.mean_positive() > 0.0 && agg.mean_positive() <= agg.max);
}

#[test]
fn aggregates_invariant_to_blocks_and_threads() {
    let wb = bench();
    let reference = fig3_aggregates(&wb.derived, &BlockConfig::sequential()).unwrap();
    for isa in isas() {
        for (block_rows, threads) in [(1usize, 1usize), (7, 2), (64, 0), (0, 3)] {
            let cfg = BlockConfig {
                block_rows,
                threads,
            };
            let agg = wb.derived.trust_rows(&cfg).unwrap().fig3_with(isa);
            assert_eq!(agg.support, reference.support);
            assert_eq!(agg.sum, reference.sum, "bit-identical sum");
            assert_eq!(agg.max, reference.max);
            assert_eq!(agg.row_support, reference.row_support);
            assert_eq!(agg.histogram, reference.histogram);
        }
    }
}

/// The instruction sets this CPU can run: the baseline, and AVX2 where
/// it is detected.
fn isas() -> Vec<Isa> {
    if Isa::detected() == Isa::Avx2 {
        vec![Isa::Baseline, Isa::Avx2]
    } else {
        println!("AVX2 not detected: only the baseline chunk loops run");
        vec![Isa::Baseline]
    }
}

/// The shapes both chunk loops must get bit for bit: category counts
/// with and without a tail, all-zero `A` and `E` rows, writer counts off
/// the tile width, ties, a negative `A` entry (the top-k scan's
/// whole-row fallback), a lone writer, no writer and no category.
fn isa_instances() -> Vec<(String, Dense, Dense)> {
    let mut out = Vec::new();
    for c in [1usize, 3, 4, 12, 13] {
        let (mut a, e) = (53..)
            .map(|u| instance(u, c))
            .find(|(_, e)| !ExpertisePanel::new(e).writers().len().is_multiple_of(TILE))
            .unwrap();
        if c > 1 {
            a.set(3, 0, 0.75);
            a.set(3, 1, -0.25);
        }
        out.push((format!("c={c}"), a, e));
    }
    let (mut a, e) = tied_instance(61, 5);
    a.set(7, 2, -0.125);
    out.push(("tied".into(), a, e));
    let (a, mut e) = (instance(9, 5).0, Dense::zeros(9, 5));
    out.push(("no writer".into(), a.clone(), e.clone()));
    e.set(6, 4, 0.75);
    out.push(("lone writer".into(), a, e));
    out.push(("no category".into(), Dense::zeros(3, 0), Dense::zeros(3, 0)));
    out
}

fn chunked() -> BlockConfig {
    BlockConfig {
        block_rows: 7,
        threads: 2,
    }
}

#[test]
fn fold_rows_are_pairwise_on_every_isa() {
    for (name, a, e) in isa_instances() {
        let scan = TrustRows::new(&a, &e, &chunked()).unwrap();
        for isa in isas() {
            let fold = Fold {
                init: |_| Vec::new(),
                visit: |seen: &mut Vec<_>, i, cols: &[u32], vals: &[f64]| {
                    assert_eq!(cols.len(), vals.len());
                    let cells = cols.iter().zip(vals);
                    seen.push((i, cells.map(|(&j, v)| (j, v.to_bits())).collect::<Vec<_>>()));
                },
            };
            let rows: Vec<_> = scan.map_chunks(isa, &fold).concat();
            assert_eq!(rows.len(), a.nrows(), "{name} {isa:?}");
            for (row, (i, cells)) in rows.into_iter().enumerate() {
                assert_eq!(row, i);
                let live = a.row(i).iter().sum::<f64>() > 0.0;
                assert_eq!(
                    cells.len(),
                    if live { scan.panel.writers().len() } else { 0 }
                );
                for (j, v) in cells {
                    let want = trust::pairwise(&a, &e, i, j as usize).to_bits();
                    assert_eq!(v, want, "{name} {isa:?} ({i},{j})");
                }
            }
        }
    }
}

#[test]
fn fig3_aggregates_are_bit_identical_on_every_isa() {
    for (name, a, e) in isa_instances() {
        let u = a.nrows();
        // The scalar reference: positive cells of each row in ascending
        // column order, rows in ascending order.
        let (mut sum, mut max) = (0.0, 0.0f64);
        let (mut row_support, mut histogram) = (vec![0u32; u], vec![0u64; FIG3_HIST_BINS]);
        for (i, support) in row_support.iter_mut().enumerate() {
            let mut row_sum = 0.0;
            for v in (0..u).map(|j| trust::pairwise(&a, &e, i, j)) {
                if v > 0.0 {
                    row_sum += v;
                    max = max.max(v);
                    *support += 1;
                    histogram[ceil_bin(v, FIG3_HIST_BINS)] += 1;
                }
            }
            sum += row_sum;
        }
        for isa in isas() {
            let agg = TrustRows::new(&a, &e, &chunked()).unwrap().fig3_with(isa);
            let at = format!("{name} {isa:?}");
            assert_eq!(agg.users, u, "{at}");
            assert_eq!(agg.sum.to_bits(), sum.to_bits(), "{at}");
            assert_eq!(agg.max.to_bits(), max.to_bits(), "{at}");
            assert_eq!(agg.row_support, row_support, "{at}");
            assert_eq!(
                agg.support,
                row_support.iter().map(|&n| n as u64).sum(),
                "{at}"
            );
            assert_eq!(agg.histogram, histogram, "{at}");
        }
    }
}

#[test]
fn top_k_lists_and_cells_are_bit_identical_on_every_isa() {
    for (name, a, e) in isa_instances() {
        for k in [1usize, 4, 10, 200] {
            let baseline = TrustRows::top_k_with(&a, &e, k, &chunked(), Isa::Baseline).unwrap();
            for (i, list) in baseline.lists.iter().enumerate() {
                let want = top_k_single_row(&a, &e, i, k);
                assert_eq!(bits(list), bits(&want), "{name} k={k} row {i}");
            }
            for isa in isas() {
                let top = TrustRows::top_k_with(&a, &e, k, &chunked(), isa).unwrap();
                let at = format!("{name} k={k} {isa:?}");
                assert_eq!(top.lists.len(), baseline.lists.len(), "{at}");
                for (got, want) in top.lists.iter().zip(&baseline.lists) {
                    assert_eq!(bits(got), bits(want), "{at}");
                }
                assert_eq!(top.cells_computed, baseline.cells_computed, "{at}");
                assert_eq!(top.cells_full, baseline.cells_full, "{at}");
            }
        }
    }
}

#[test]
fn kernel_isa_is_avx2_exactly_where_detected() {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    assert_eq!(kernel_isa(), if avx2 { "avx2" } else { "baseline" });
}

/// `fig3_row::<N>` of `vals`, differenced into its histogram.
fn row_histogram<const N: usize>(vals: &[f64]) -> Vec<u64> {
    histogram_of(fig3_row::<N>(vals, 0.0).2)
}

fn threshold_rule_is_the_ceil_form<const N: usize>() {
    let n = N as f64;
    // Exact bin edges and their neighbours on both sides.
    let mut values: Vec<f64> = (0..=2 * N)
        .map(|b| b as f64 / n)
        .flat_map(|e| [e, e.next_down(), e.next_up()])
        .collect();
    // The smallest positive values, values past 1, and a sweep.
    values.extend([
        f64::MIN_POSITIVE,
        5e-324,
        1e-300,
        1.0,
        1.5,
        7.25,
        1e9,
        1e300,
    ]);
    values.extend((1..=10_000).map(|s| s as f64 / 9_973.0));
    let mut want = vec![0u64; N];
    for &v in values.iter().filter(|&&v| v > 0.0) {
        let mut one = vec![0u64; N];
        one[ceil_bin(v, N)] = 1;
        assert_eq!(row_histogram::<N>(&[v]), one, "v={v:e} N={N}");
        want[ceil_bin(v, N)] += 1;
    }
    // Counted nowhere: `-0.0`, negatives and NaN. `+∞` is in the last
    // bin.
    let nowhere = [-0.0, -f64::MIN_POSITIVE, -1.0, f64::NEG_INFINITY, f64::NAN];
    for v in nowhere {
        assert_eq!(row_histogram::<N>(&[v]), vec![0; N], "v={v:e} N={N}");
    }
    values.extend(nowhere);
    let mut last = vec![0u64; N];
    last[N - 1] = 1;
    assert_eq!(row_histogram::<N>(&[f64::INFINITY]), last, "+∞ N={N}");
    values.push(f64::INFINITY);
    want[N - 1] += 1;
    assert_eq!(row_histogram::<N>(&values), want, "N={N}");
    let (_, _, above) = fig3_row::<N>(&values, 0.0);
    assert_eq!(above[0], want.iter().sum::<u64>(), "the support");
}

#[test]
fn threshold_counts_are_the_ceil_form() {
    threshold_rule_is_the_ceil_form::<1>();
    threshold_rule_is_the_ceil_form::<4>();
    threshold_rule_is_the_ceil_form::<FIG3_HIST_BINS>();
    threshold_rule_is_the_ceil_form::<64>();
}

#[test]
fn row_sum_and_max_are_the_positive_cells_in_order() {
    let vals = [0.25, -0.0, 0.5, f64::NAN, 0.0, -3.0, 1e-300, 0.125, 0.75];
    let (sum, max, _) = fig3_row::<FIG3_HIST_BINS>(&vals, 0.0);
    let want = vals.iter().filter(|&&v| v > 0.0).fold(0.0, |s, &v| s + v);
    assert_eq!(sum.to_bits(), want.to_bits());
    assert_eq!(max, 0.75);
    assert_eq!(fig3_row::<FIG3_HIST_BINS>(&vals, 2.0).1, 2.0);
    let (sum, max, _) = fig3_row::<FIG3_HIST_BINS>(&[-0.0, f64::NAN, -1.0], 0.0);
    assert_eq!((sum.to_bits(), max.to_bits()), (0, 0), "+0.0 stays +0.0");
}
