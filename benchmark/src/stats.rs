//! Order statistics for latency samples.

fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Median (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fastest of several timings of the same fixed work. Interference
/// from a shared machine only ever adds time, and here it comes in phases
/// of seconds that a median of three sits inside; the minimum is the one
/// estimate that a quiet moment anywhere in the run can reach.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::min)
}

/// Nearest rank (1-based) of a percentile given in tenths of a percent;
/// whole-number arithmetic, so 90 % of 100 samples is rank 90 exactly.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// A tail latency together with what supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50, 90, 95, 99 or 99.9).
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile with at least ten samples beyond it: a p99 read
/// off 200 samples is the second-worst observation, not a percentile.
/// Falls back to the median when even p90 is unsupported.
pub fn supported_tail(v: &mut [f64]) -> Tail {
    sort(v);
    let n = v.len();
    if n == 0 {
        return Tail {
            pct: 50.0,
            value: f64::NAN,
            samples: 0,
        };
    }
    let per_mille = [999, 990, 950, 900]
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= 10)
        .unwrap_or(500);
    Tail {
        pct: per_mille as f64 / 10.0,
        value: v[rank(n, per_mille) - 1],
        samples: n,
    }
}

/// Events per second of a closed-loop feed, from the median round time:
/// one stalled round (a scheduler hiccup, an fsync spike) moves the mean
/// but not this.
pub fn rounds_throughput(events_per_round: usize, round_secs: &mut [f64]) -> f64 {
    events_per_round as f64 / median(round_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[0.3, 0.2, 0.25]), 0.2);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 would leave 9.9 beyond it — unsupported.
        let t = supported_tail(&mut v);
        assert_eq!((t.pct, t.samples), (50.0, 99));
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = supported_tail(&mut v);
        assert_eq!((t.pct, t.value, t.samples), (90.0, 90.0, 100));
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = supported_tail(&mut v);
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        let mut v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(supported_tail(&mut v).pct, 99.9);
    }

    #[test]
    fn throughput_ignores_one_stalled_round() {
        let mut steady = [0.02; 9];
        let mut stalled = [0.02, 0.02, 0.02, 0.02, 5.0, 0.02, 0.02, 0.02, 0.02];
        assert_eq!(
            rounds_throughput(64, &mut steady),
            rounds_throughput(64, &mut stalled)
        );
        assert_eq!(rounds_throughput(64, &mut steady), 3200.0);
    }
}
