//! Order statistics for latency samples and repeat summaries.
//!
//! Two different conventions on purpose: a latency percentile is an
//! exact *nearest-rank* order statistic (a value some request really
//! saw), while the median/quartiles of a handful of repeats interpolate
//! the way Python's `statistics.quantiles(values, n=4)` does, because
//! that is how the driver judges the spread of this benchmark.

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the mass at or below it. Panics on an empty slice —
/// a percentile of nothing is a harness bug, not a measurement.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Share of the repeats that must read at least as well as the figure a
/// run reports (README, "Why the best repeats").
const BEST_SHARE: f64 = 0.05;

/// The figure a run reports for a quantity measured once per repeat:
/// the nearest-rank 5th percentile counted from the good end — the
/// lowest times when `lower_is_better`, the highest rates otherwise.
/// Up to twenty repeats that is the best repeat; among hundreds it is a
/// repeat that dozens of others matched or beat, so no fluke.
pub fn best(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    nearest_rank(&v, BEST_SHARE)
}

/// [`best`] of a time or any other lower-is-better quantity.
pub fn best_low(values: &[f64]) -> f64 {
    best(values, true)
}

/// Five-number summary of a few repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarises `values` (any order). Quartiles follow the "exclusive"
/// method of `statistics.quantiles`: position `(n + 1)·k/4` with linear
/// interpolation, clamped to the sample range. Panics when empty.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Summary {
        n,
        min: v[0],
        q1: at(1),
        median: at(2),
        q3: at(3),
        max: v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        // The textbook example: 5 samples, p30 → rank ceil(1.5) = 2.
        assert_eq!(nearest_rank(&[15, 20, 35, 40, 50], 0.30), 20);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        assert_eq!(nearest_rank(&[1.5, 2.5], 0.5), 1.5);
    }

    #[test]
    fn best_is_the_fifth_percentile_from_the_good_end() {
        // Few repeats: the best one.
        assert_eq!(best(&[3.0, 1.0, 2.0], true), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], false), 3.0);
        // A hundred repeats: the fifth best, whichever end is good.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(best(&v, true), 5.0);
        assert_eq!(best(&v, false), 96.0);
        assert_eq!(best_low(&v), 5.0);
    }

    #[test]
    fn summary_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Even count: the median is the mean of the middle pair.
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        // One repeat: everything collapses onto it.
        let s = summarize(&[9.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (9.0, 9.0, 9.0, 9.0, 9.0)
        );
    }
}
