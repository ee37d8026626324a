//! Evenly-spaced time series.

/// A time series sampled every `dt` time units starting at `t0`.
///
/// Used for real-time PM counts, cumulative migrations (paper Fig. 9/10)
/// and workload traces (Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Time of the first sample.
    pub t0: f64,
    /// Sampling interval.
    pub dt: f64,
    /// Sample values.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    ///
    /// # Panics
    /// Panics if `dt ≤ 0`.
    pub fn new(t0: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive, got {dt}");
        Self {
            t0,
            dt,
            values: Vec::new(),
        }
    }

    /// Appends a sample.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no samples exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The timestamp of sample `i`.
    #[inline]
    pub(crate) fn time_at(&self, i: usize) -> f64 {
        self.t0 + self.dt * i as f64
    }

    /// `(time, value)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_at(i), v))
    }

    /// Running cumulative sum (e.g. migration events → cumulative curve).
    pub fn cumulative(&self) -> TimeSeries {
        let mut acc = 0.0;
        let values = self
            .values
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect();
        TimeSeries {
            t0: self.t0,
            dt: self.dt,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_even() {
        let mut ts = TimeSeries::new(10.0, 30.0);
        ts.push(1.0);
        ts.push(2.0);
        ts.push(3.0);
        assert_eq!(ts.time_at(0), 10.0);
        assert_eq!(ts.time_at(2), 70.0);
        let pts: Vec<_> = ts.points().collect();
        assert_eq!(pts, vec![(10.0, 1.0), (40.0, 2.0), (70.0, 3.0)]);
    }

    #[test]
    fn cumulative_sums_prefixes() {
        let ts = TimeSeries {
            t0: 0.0,
            dt: 1.0,
            values: vec![1.0, 0.0, 2.0, 3.0],
        };
        assert_eq!(ts.cumulative().values, vec![1.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn cumulative_of_empty_is_empty() {
        let ts = TimeSeries::new(0.0, 1.0);
        assert!(ts.cumulative().is_empty());
    }

    #[test]
    #[should_panic(expected = "dt")]
    fn rejects_nonpositive_dt() {
        let _ = TimeSeries::new(0.0, 0.0);
    }
}
