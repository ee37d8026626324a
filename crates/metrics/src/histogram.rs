//! Fixed-width-bin histograms (used for CVR distributions, Fig. 6) and
//! log2-bucketed histograms (used by the observability layer for latency-
//! and size-like quantities spanning orders of magnitude).

/// A histogram with `bins` equal-width bins over `[lo, hi)`, plus overflow
/// and underflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram.
    ///
    /// # Panics
    /// Panics if `lo ≥ hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "lo must be < hi ({lo} vs {hi})");
        assert!(bins > 0, "need at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Total observations, including out-of-range.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `[start, end)` range of bin `i`.
    fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Approximate `q`-quantile (`q` clamped to `[0, 1]`) over everything
    /// recorded, linearly interpolated within the containing bin. Mass in
    /// the underflow bucket reports `lo`, mass in the overflow bucket
    /// reports `hi` — the sketch cannot resolve beyond its range, and
    /// clamping is more honest than extrapolating. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = self.underflow as f64;
        if self.underflow > 0 && target <= cum {
            return Some(self.lo);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if c > 0 && target <= next {
                let (start, end) = self.bin_range(i);
                return Some(start + (target - cum) / c as f64 * (end - start));
            }
            cum = next;
        }
        Some(self.hi)
    }
}

/// A log2-bucketed histogram over `u64` values: bucket 0 holds the value
/// 0, bucket `b ≥ 1` holds values whose bit length is `b` (i.e. the range
/// `[2^(b−1), 2^b)`), and the *last* bucket saturates — every value too
/// large for its own bucket lands there rather than in a lossy overflow
/// counter. With 65 buckets (the maximum useful count) every `u64`
/// including `u64::MAX` has its exact bucket.
///
/// This is the shape observability counters want: step counts, backoff
/// delays and batch sizes span orders of magnitude, and the question asked
/// of them is "what's the distribution's shape", not "what's the 37th
/// percentile to three digits".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
}

impl Log2Histogram {
    /// Largest bucket count that still discriminates: value 0 plus one
    /// bucket per possible bit length of a `u64`.
    pub const MAX_BUCKETS: usize = 65;

    /// Creates a histogram with `buckets` buckets (clamped to
    /// [`Self::MAX_BUCKETS`]).
    ///
    /// # Panics
    /// Panics when `buckets == 0`.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        Self {
            counts: vec![0; buckets.min(Self::MAX_BUCKETS)],
        }
    }

    /// Rebuilds a histogram from previously captured per-bucket counts
    /// (the inverse of [`counts`](Self::counts), for durable snapshots).
    ///
    /// # Panics
    /// Panics when `counts` is empty or longer than [`Self::MAX_BUCKETS`].
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(
            !counts.is_empty() && counts.len() <= Self::MAX_BUCKETS,
            "bucket count {} outside 1..={}",
            counts.len(),
            Self::MAX_BUCKETS
        );
        Self { counts }
    }

    /// The bucket a value falls into: 0 for 0, else its bit length,
    /// saturated into the last bucket.
    pub(crate) fn bucket_of(&self, value: u64) -> usize {
        let b = (u64::BITS - value.leading_zeros()) as usize;
        b.min(self.counts.len() - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let b = self.bucket_of(value);
        self.counts[b] += 1;
    }

    /// Per-bucket counts; bucket `b ≥ 1` covers `[2^(b−1), 2^b)`, the last
    /// bucket additionally holds everything larger.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The inclusive `[start, end]` value range of bucket `b` (the last
    /// bucket ends at `u64::MAX` by saturation).
    pub fn bucket_range(&self, b: usize) -> (u64, u64) {
        let last = self.counts.len() - 1;
        let start = if b == 0 { 0 } else { 1u64 << (b - 1) };
        let end = if b == 0 {
            0
        } else if b >= last || b >= 64 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        };
        (start, end)
    }

    /// Approximate `q`-quantile (`q` clamped to `[0, 1]`): the inclusive
    /// upper bound of the bucket holding the `q`-th observation — a
    /// guaranteed overestimate by at most the bucket's 2x width, which is
    /// the resolution this sketch trades for constant memory. `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0.0;
        let mut last_nonempty = None;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c as f64;
            if c > 0 {
                last_nonempty = Some(b);
                if target <= cum {
                    return Some(self.bucket_range(b).1);
                }
            }
        }
        last_nonempty.map(|b| self.bucket_range(b).1)
    }

    /// Interpolated `q`-quantile estimate: linear within the winning
    /// bucket's inclusive value range, the log2 analogue of
    /// [`Histogram::quantile`]. Where [`quantile`](Self::quantile)
    /// returns the bucket's *upper bound* (511, 8191, …), this spreads
    /// the bucket's mass uniformly over its range — still a sketch, but
    /// one that doesn't systematically overshoot by up to 2x. The
    /// saturated last bucket has no finite width, so its estimate is
    /// the bucket's lower bound. `None` when empty.
    pub fn quantile_interpolated(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        let mut last_nonempty = None;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                last_nonempty = Some(b);
                if target <= (cum + c) as f64 {
                    let (start, end) = self.bucket_range(b);
                    if end == u64::MAX || end <= start {
                        return Some(start as f64);
                    }
                    let frac = (target - cum as f64) / c as f64;
                    return Some(start as f64 + frac * (end - start) as f64);
                }
                cum += c;
            }
        }
        last_nonempty.map(|b| self.bucket_range(b).0 as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        for &x in &[0.0, 0.1, 0.26, 0.5, 0.74, 0.75, 0.99] {
            h.push(x);
        }
        assert_eq!(h.counts, [2, 1, 2, 2]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.5);
        h.push(1.0); // hi is exclusive
        h.push(2.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn bin_ranges_tile_interval() {
        let h = Histogram::new(2.0, 6.0, 4);
        assert_eq!(h.bin_range(0), (2.0, 3.0));
        assert_eq!(h.bin_range(3), (5.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "lo must be")]
    fn rejects_inverted_range() {
        let _ = Histogram::new(1.0, 0.0, 3);
    }

    #[test]
    fn quantiles_interpolate_within_bins() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..100 {
            h.push(i as f64 / 100.0);
        }
        // Uniform mass: the q-quantile is ~q to within one bin width.
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile(q).unwrap();
            assert!((est - q).abs() <= 0.1, "q={q} est={est}");
        }
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn quantiles_clamp_to_range_for_out_of_range_mass() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(0.5);
        h.push(9.0);
        h.push(9.0);
        assert_eq!(h.quantile(0.0), Some(0.0), "underflow mass reports lo");
        assert_eq!(h.quantile(1.0), Some(1.0), "overflow mass reports hi");
    }

    #[test]
    fn log2_quantile_reports_bucket_upper_bound() {
        let mut h = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(1.0), Some(127), "100 has bit length 7");
        assert_eq!(Log2Histogram::new(8).quantile(0.5), None);
    }

    #[test]
    fn log2_quantile_interpolated_spreads_bucket_mass() {
        let mut h = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
        // 100 values uniformly filling bucket [256, 511] (bit length 9).
        for _ in 0..100 {
            h.record(300);
        }
        // Plain quantile always says 511; interpolation walks the range.
        assert_eq!(h.quantile(0.5), Some(511));
        let p50 = h.quantile_interpolated(0.5).unwrap();
        assert!(
            (p50 - 383.5).abs() < 1.0,
            "midpoint of [256,511], got {p50}"
        );
        let p01 = h.quantile_interpolated(0.01).unwrap();
        assert!(
            (256.0..270.0).contains(&p01),
            "near bucket start, got {p01}"
        );
        // Bucket 0 holds only the value 0.
        let mut z = Log2Histogram::new(8);
        z.record(0);
        assert_eq!(z.quantile_interpolated(0.5), Some(0.0));
        // Saturated last bucket has no finite width: report its start.
        let mut s = Log2Histogram::new(4);
        s.record(u64::MAX);
        assert_eq!(s.quantile_interpolated(0.99), Some(4.0));
        assert_eq!(Log2Histogram::new(8).quantile_interpolated(0.5), None);
    }

    #[test]
    fn log2_buckets_by_bit_length() {
        let mut h = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.counts()[0], 1, "value 0");
        assert_eq!(h.counts()[1], 1, "value 1");
        assert_eq!(h.counts()[2], 2, "values 2..4");
        assert_eq!(h.counts()[3], 2, "values 4..8");
        assert_eq!(h.counts()[4], 1, "values 8..16");
        assert_eq!(h.counts()[11], 1, "value 1024");
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn log2_max_value_lands_in_last_bucket_not_overflow() {
        // The boundary bucket: the largest representable value must be
        // counted in the last bucket — there is no overflow counter to
        // silently absorb it.
        let mut h = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
        h.record(u64::MAX);
        assert_eq!(*h.counts().last().unwrap(), 1);
        assert_eq!(h.total(), 1);

        // With a truncated bucket count the last bucket saturates: both a
        // just-too-large value and u64::MAX land there.
        let mut small = Log2Histogram::new(4);
        small.record(7); // bit length 3 → own bucket (the last)
        small.record(8); // bit length 4 → saturates into the last
        small.record(u64::MAX);
        assert_eq!(small.counts(), &[0, 0, 0, 3]);
        assert_eq!(small.bucket_range(3), (4, u64::MAX));
    }

    #[test]
    fn log2_bucket_ranges_tile() {
        let h = Log2Histogram::new(Log2Histogram::MAX_BUCKETS);
        assert_eq!(h.bucket_range(0), (0, 0));
        assert_eq!(h.bucket_range(1), (1, 1));
        assert_eq!(h.bucket_range(2), (2, 3));
        assert_eq!(h.bucket_range(4), (8, 15));
        assert_eq!(h.bucket_range(64), (1 << 63, u64::MAX));
    }
}
