//! # wot-par — scoped-thread data parallelism
//!
//! The derivation pipeline's hot loops (per-category fixed points, the
//! row loops of Eq. 5, masked sparse products) are embarrassingly
//! parallel, but this workspace builds with no external dependencies, so
//! rayon is not available. This crate provides the three parallel shapes
//! those loops need, built on `std::thread::scope`:
//!
//! * [`par_map_indexed`] — dynamically-scheduled map over `0..n`
//!   (work-stealing via an atomic counter; good for skewed work like
//!   per-category fixed points), results in index order;
//!   [`par_map_indexed_with`] adds worker-local scratch (the Eq. 5 row
//!   scans keep one row buffer per worker);
//! * [`par_ranges`] — statically-split map over contiguous ranges of
//!   `0..n` (good for uniform row loops and reductions);
//! * [`par_chunks_mut`] — statically-split mutation of a buffer along
//!   caller-chosen element boundaries (good for writing disjoint slices of
//!   one output allocation, e.g. CSR value arrays or dense row blocks).
//!
//! All three are **deterministic**: the partitioning and output order
//! depend only on `(n, threads)`, never on scheduling. Callers that need
//! bit-identical sequential/parallel results (the pipeline's contract)
//! only have to ensure each unit of work is itself order-independent.
//!
//! `threads == 0` means "use all available parallelism"; `threads == 1`
//! runs inline on the calling thread with no spawn at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available, at least 1.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` → [`max_threads`], otherwise the
/// request itself.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        max_threads()
    } else {
        requested
    }
}

/// Maps `f` over `0..n` on up to `threads` worker threads with dynamic
/// scheduling, returning results in index order.
///
/// Dynamic scheduling makes this the right shape for *skewed* workloads
/// (e.g. Epinions category slices, whose sizes span four orders of
/// magnitude): a thread that drew a huge item does not hold back the rest
/// of the queue.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indexed_with(n, threads, || (), |(), i| f(i))
}

/// [`par_map_indexed`] with **worker-local scratch**: every worker calls
/// `init` once and hands the value to each `f(&mut scratch, i)` it runs
/// (a reusable buffer, say). Results must not depend on what earlier
/// items left in the scratch — which items share one is a scheduling
/// accident.
pub fn par_map_indexed_with<W, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let counter = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut out = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&mut scratch, i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wot-par worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

/// Splits `0..n` into at most `parts` contiguous, near-equal ranges
/// (empty ranges are never produced; fewer parts come back when `n` is
/// small).
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 0..parts {
        let len = base + usize::from(k < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over statically-split contiguous ranges of `0..n`, one range
/// per worker, returning the per-range results in range order.
///
/// Use for uniform row loops and reductions (sum the returned partials).
pub fn par_ranges<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = even_ranges(n, resolve_threads(threads));
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges.into_iter().map(|r| scope.spawn(|| f(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wot-par worker panicked"))
            .collect()
    })
}

/// Splits `data` at the given element `boundaries` and hands each chunk to
/// `f` on its own thread as `f(chunk_index, chunk)`.
///
/// `boundaries` must start at 0, end at `data.len()`, and be
/// non-decreasing; chunk `k` is `data[boundaries[k]..boundaries[k + 1]]`.
/// Empty chunks are still delivered (so chunk indices always align with
/// the caller's partition bookkeeping).
///
/// # Panics
/// Panics if `boundaries` is malformed.
pub fn par_chunks_mut<T, F>(data: &mut [T], boundaries: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        boundaries.first() == Some(&0) && boundaries.last() == Some(&data.len()),
        "boundaries must span 0..=data.len()"
    );
    let parts = boundaries.len() - 1;
    if parts == 1 {
        f(0, data);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut handles = Vec::with_capacity(parts);
        for k in 0..parts {
            let len = boundaries[k + 1]
                .checked_sub(boundaries[k])
                .expect("boundaries must be non-decreasing");
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let f = &f;
            handles.push(scope.spawn(move || f(k, chunk)));
        }
        for h in handles {
            h.join().expect("wot-par worker panicked");
        }
    });
}

/// Picks at most `parts` split points over `n` weighted items so each part
/// carries a near-equal share of the total weight, given the *cumulative*
/// weight table `cum` (`cum[i]` = total weight of items `0..i`;
/// `cum.len() == n + 1` — exactly the shape of a CSR `row_ptr`).
///
/// Returns item-index boundaries (`boundaries[0] == 0`,
/// `boundaries.last() == n`). Used to balance row-range parallelism by
/// non-zero count rather than row count.
pub fn weighted_boundaries(cum: &[usize], parts: usize) -> Vec<usize> {
    assert!(!cum.is_empty(), "cumulative table must have n + 1 entries");
    let n = cum.len() - 1;
    let total = *cum.last().expect("non-empty");
    let parts = parts.clamp(1, n.max(1));
    let mut boundaries = Vec::with_capacity(parts + 1);
    boundaries.push(0);
    for k in 1..parts {
        let target = total * k / parts;
        // First item index whose cumulative weight passes the target.
        let idx = cum.partition_point(|&c| c < target).min(n);
        let &last = boundaries.last().expect("seeded with 0");
        boundaries.push(idx.max(last));
    }
    boundaries.push(n);
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_means_all() {
        assert_eq!(resolve_threads(0), max_threads());
        assert_eq!(resolve_threads(3), 3);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn map_indexed_ordered_and_complete() {
        for &threads in &[1usize, 2, 4, 0] {
            let out = par_map_indexed(100, threads, |i| i * i);
            assert_eq!(out.len(), 100);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i);
            }
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_indexed_with_builds_one_scratch_per_worker() {
        for &threads in &[1usize, 3, 0] {
            let inits = AtomicUsize::new(0);
            let out = par_map_indexed_with(
                50,
                threads,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, i| {
                    scratch.clear();
                    scratch.extend(0..=i);
                    scratch.iter().sum::<usize>()
                },
            );
            let want: Vec<usize> = (0..50).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(out, want);
            let workers = inits.load(Ordering::Relaxed);
            assert!(workers >= 1 && workers <= resolve_threads(threads).min(50));
        }
    }

    #[test]
    fn even_ranges_partition() {
        for &(n, parts) in &[(10usize, 3usize), (1, 8), (0, 4), (7, 7), (100, 1)] {
            let rs = even_ranges(n, parts);
            let mut covered = 0;
            for r in &rs {
                assert_eq!(r.start, covered);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, n);
            assert!(rs.len() <= parts.max(1));
        }
    }

    #[test]
    fn par_ranges_reduces() {
        let partials = par_ranges(1000, 4, |r| r.sum::<usize>());
        let total: usize = partials.into_iter().sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn chunks_mut_writes_disjoint_slices() {
        let mut data = vec![0usize; 10];
        par_chunks_mut(&mut data, &[0, 3, 3, 10], |k, chunk| {
            for v in chunk {
                *v = k + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 3, 3, 3, 3, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "boundaries must span")]
    fn chunks_mut_rejects_bad_boundaries() {
        let mut data = vec![0u8; 4];
        par_chunks_mut(&mut data, &[0, 2], |_, _| {});
    }

    #[test]
    fn weighted_boundaries_balance() {
        // 6 rows with weights 0,0,100,0,0,1 (cumulative below).
        let cum = [0usize, 0, 0, 100, 100, 100, 101];
        let b = weighted_boundaries(&cum, 3);
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 6);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
        // Uniform weights split evenly.
        let cum: Vec<usize> = (0..=12).collect();
        let b = weighted_boundaries(&cum, 4);
        assert_eq!(b, vec![0, 3, 6, 9, 12]);
    }
}
