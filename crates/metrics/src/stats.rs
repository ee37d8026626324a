//! Summary statistics.

/// A five-number-style summary of a sample: count, mean, sample standard
//  deviation, min, max. The paper's Fig. 9 reports mean/min/max over ten
/// repetitions; this is the type those bars come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (0 for n < 2).
    pub std: f64,
    /// Minimum (+∞ for an empty sample).
    pub min: f64,
    /// Maximum (−∞ for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice.
    pub fn of(xs: &[f64]) -> Self {
        let mut o = OnlineStats::new();
        for &x in xs {
            o.push(x);
        }
        o.summary()
    }
}

/// Welford's online mean/variance accumulator — O(1) memory, numerically
/// stable, suitable for long simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OnlineStats {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Current mean (0 if empty).
    #[inline]
    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0 for n < 2).
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Snapshot as a [`Summary`].
    fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std: self.std(),
            min: self.min,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std of this classic set is sqrt(32/7).
        assert!((s.std - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_summary_is_well_defined() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
    }

    #[test]
    fn online_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 / 7.0).collect();
        let s = Summary::of(&xs);
        let batch_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean - batch_mean).abs() < 1e-10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn online_mean_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&xs);
            prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
            prop_assert!(s.std >= 0.0);
        }
    }
}
