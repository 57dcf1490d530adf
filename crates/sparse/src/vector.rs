//! Free functions over `&[f64]` used throughout the workspace.
//!
//! These are deliberately plain slices rather than a newtype: every consumer
//! (reputation scores, trust vectors, rating lists) already owns a `Vec<f64>`
//! and the operations are one-liners that benefit from zero ceremony.

/// Dot product. Panics in debug builds if lengths differ; in release the
/// shorter length wins (callers validate shapes at the matrix level).
///
/// This is the inner kernel of the per-cell Eq. 5 forms (`wot-core`'s
/// `trust::pairwise`, `trust::row` and `trust::derive_masked`), always over
/// the category dimension (`C ≤ 64` in practice), so it is unrolled
/// SIMD-style: **four independent f64 accumulators** over the
/// `chunks_exact(4)` body — breaking the sequential add dependency so
/// the CPU keeps 4 FMAs-worth of adds in flight (and autovectorizes to
/// packed doubles where available) — then a **fixed reduction tree**
/// `(s0 + s1) + (s2 + s3)` and a sequential tail for the `len % 4`
/// remainder.
///
/// The reduction tree is part of the function's contract: the result is
/// a *deterministic* reassociation of the scalar left-to-right sum
/// ([`dot_scalar`]), identical on every platform and thread count, and
/// bit-identical to a plain-scalar evaluation of the same tree (the
/// crate's bit-compat tests pin exactly that — no fast-math, no FMA
/// contraction). For lengths < 4 the unrolled body is empty and the
/// result equals [`dot_scalar`] (`==`; the one representational nuance
/// is a `-0.0` that `sum()`'s folding can surface where the tree's
/// `+0.0` seed cannot — numerically identical). `wot-core`'s tiled dense
/// Eq. 5 kernel evaluates the same tree a tile of cells at a time, so
/// every Eq. 5 form agrees bit for bit.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks_a = a.chunks_exact(4);
    let chunks_b = b.chunks_exact(4);
    let (tail_a, tail_b) = (chunks_a.remainder(), chunks_b.remainder());
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    for (x, y) in chunks_a.zip(chunks_b) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut acc = (s0 + s1) + (s2 + s3);
    for (x, y) in tail_a.iter().zip(tail_b) {
        acc += x * y;
    }
    acc
}

/// The scalar reference dot product: a plain left-to-right
/// multiply-accumulate. Kept as the semantic baseline the unrolled
/// [`dot`] is validated against (equal within rounding reassociation for
/// any input; bit-equal for lengths < 4, where the 4-wide body is
/// empty).
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_scalar: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of all elements.
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        sum(x) / x.len() as f64
    }
}

/// L1 norm (sum of absolute values).
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L2 (Euclidean) norm.
pub fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Largest absolute element-wise difference — the convergence criterion for
/// power iteration and the Riggs fixed point.
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "linf_distance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// In-place L1 normalization. Leaves an all-zero vector untouched and
/// returns `false` in that case.
pub fn l1_normalize(x: &mut [f64]) -> bool {
    let norm = l1_norm(x);
    if norm == 0.0 {
        return false;
    }
    for v in x.iter_mut() {
        *v /= norm;
    }
    true
}

/// Maximum element; `None` for an empty slice. NaN entries are skipped.
pub fn max(x: &[f64]) -> Option<f64> {
    x.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Minimum element; `None` for an empty slice. NaN entries are skipped.
pub fn min(x: &[f64]) -> Option<f64> {
    x.iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
}

/// Index of the maximum element (first occurrence); `None` if empty.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l1_norm(&[-1.0, 2.0]), 3.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    /// Deterministic pseudo-random vectors spanning several magnitudes,
    /// so reassociation differences would show if the tolerance were
    /// wrong.
    fn random_pair(len: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mantissa = ((state >> 33) % 2000) as f64 / 1000.0 - 1.0;
            let exp = [(1.0, 0), (1e-3, 1), (1e3, 2)][((state >> 20) % 3) as usize].0;
            mantissa * exp
        };
        let a = (0..len).map(|_| next()).collect();
        let b = (0..len).map(|_| next()).collect();
        (a, b)
    }

    /// A literal scalar transcription of `dot`'s documented reduction
    /// tree: 4 lane sums in index steps of 4, `(s0+s1)+(s2+s3)`, then
    /// the sequential tail.
    fn dot_tree_reference(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let body = n / 4 * 4;
        let mut lanes = [0.0f64; 4];
        for k in (0..body).step_by(4) {
            for l in 0..4 {
                lanes[l] += a[k + l] * b[k + l];
            }
        }
        let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for k in body..n {
            acc += a[k] * b[k];
        }
        acc
    }

    /// The unrolled kernel is a pure reordering: bit-identical to a
    /// plain-scalar evaluation of the same reduction tree for every
    /// length through and beyond the ≤64-category regime (no fast-math,
    /// no FMA contraction sneaking in).
    #[test]
    fn unrolled_dot_is_bit_identical_to_scalar_tree() {
        for len in 0..=67 {
            for seed in 1..=5u64 {
                let (a, b) = random_pair(len, seed * 77 + len as u64);
                assert_eq!(
                    dot(&a, &b).to_bits(),
                    dot_tree_reference(&a, &b).to_bits(),
                    "len={len} seed={seed}"
                );
            }
        }
    }

    /// Below the unroll width the 4-wide body is empty, so the kernel
    /// evaluates the same sequential sum as the scalar path: `==`-equal
    /// always, and bit-equal whenever the result is non-zero (a zero
    /// result may differ only in sign, from `sum()`'s folding seed).
    #[test]
    fn unrolled_dot_equals_scalar_below_unroll_width() {
        for len in 0..4 {
            for seed in 1..=5u64 {
                let (a, b) = random_pair(len, seed * 131 + len as u64);
                let (fast, slow) = (dot(&a, &b), dot_scalar(&a, &b));
                assert_eq!(fast, slow, "len={len} seed={seed}");
                if fast != 0.0 {
                    assert_eq!(fast.to_bits(), slow.to_bits(), "len={len} seed={seed}");
                }
            }
        }
    }

    /// Against the sequential scalar sum the unrolled kernel may differ
    /// only by summation-order rounding: relative error at the level of
    /// a few ulps-per-term, nowhere near the fixed point's 1e-x
    /// tolerances.
    #[test]
    fn unrolled_dot_matches_scalar_within_reassociation_error() {
        for len in [1usize, 4, 7, 16, 33, 64] {
            for seed in 1..=8u64 {
                let (a, b) = random_pair(len, seed * 31 + len as u64);
                let fast = dot(&a, &b);
                let slow = dot_scalar(&a, &b);
                let scale: f64 = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| (x * y).abs())
                    .sum::<f64>()
                    .max(1e-300);
                assert!(
                    (fast - slow).abs() <= 1e-12 * scale,
                    "len={len} seed={seed}: {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn linf_distance_is_max_abs_diff() {
        assert_eq!(linf_distance(&[1.0, 5.0], &[2.0, 4.5]), 1.0);
        assert_eq!(linf_distance(&[], &[]), 0.0);
    }

    #[test]
    fn l1_normalize_handles_zero_vector() {
        let mut x = [0.0, 0.0];
        assert!(!l1_normalize(&mut x));
        let mut y = [1.0, 3.0];
        assert!(l1_normalize(&mut y));
        assert!((sum(&y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extrema() {
        assert_eq!(max(&[1.0, 3.0, 2.0]), Some(3.0));
        assert_eq!(min(&[1.0, 3.0, 2.0]), Some(1.0));
        assert_eq!(max(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[f64::NAN, 2.0]), Some(2.0));
    }

    #[test]
    fn argmax_first_occurrence() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN]), None);
    }
}
