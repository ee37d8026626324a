//! VM and PM specifications (paper Eq. 1–2).

use bursty_markov::OnOffChain;
use std::fmt;

/// A spec field outside its range, as [`VmSpec::try_new`] and
/// [`PmSpec::try_new`] refuse it. NaN is outside every range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecError {
    /// The field's name in the spec: `p_on`, `p_off`, `r_b`, `r_e` or
    /// `capacity`.
    pub field: &'static str,
    /// The value refused.
    pub value: f64,
    /// The range it missed, worded for the message.
    range: &'static str,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} must {}, got {}", self.field, self.range, self.value)
    }
}

impl std::error::Error for SpecError {}

/// `value` if `within`, else the error naming `field` and its `range`.
fn checked(
    field: &'static str,
    value: f64,
    within: bool,
    range: &'static str,
) -> Result<f64, SpecError> {
    if within {
        Ok(value)
    } else {
        Err(SpecError {
            field,
            value,
            range,
        })
    }
}

/// A virtual machine's workload specification — the paper's four-tuple
/// `V_i = (p_on, p_off, R_b, R_e)` (Eq. 1).
///
/// * `r_b` — resource demand of the normal (OFF) workload level,
/// * `r_e` — the spike size, so the peak demand is `R_p = R_b + R_e`,
/// * `p_on` — OFF→ON switch probability (spike frequency),
/// * `p_off` — ON→OFF switch probability (reciprocal spike duration).
///
/// Resource units are deliberately abstract: the paper uses memory, but any
/// one-dimensional resource (or a one-dimensional mapping of several) works.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Caller-assigned identifier; placement mappings index VMs by
    /// position, this id survives sorting/clustering.
    pub id: usize,
    /// OFF→ON switch probability.
    pub p_on: f64,
    /// ON→OFF switch probability.
    pub p_off: f64,
    /// Normal-level (base) demand `R_b`.
    pub r_b: f64,
    /// Spike size `R_e = R_p − R_b`.
    pub r_e: f64,
}

impl VmSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    /// Panics if probabilities are outside `(0, 1]`, `r_b ≤ 0`, `r_e < 0`
    /// (a spike-free VM is allowed with `r_e = 0`) or a demand is not
    /// finite — whatever [`VmSpec::try_new`] refuses.
    #[inline]
    pub fn new(id: usize, p_on: f64, p_off: f64, r_b: f64, r_e: f64) -> Self {
        Self::try_new(id, p_on, p_off, r_b, r_e).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a validated spec, or names the first field (in the order
    /// `p_on`, `p_off`, `r_b`, `r_e`) outside its range.
    ///
    /// # Errors
    /// [`SpecError`] for a probability outside `(0, 1]`, `r_b ≤ 0`,
    /// `r_e < 0` or an infinite demand.
    #[inline]
    pub fn try_new(
        id: usize,
        p_on: f64,
        p_off: f64,
        r_b: f64,
        r_e: f64,
    ) -> Result<Self, SpecError> {
        const PROBABILITY: &str = "lie in (0, 1]";
        Ok(Self {
            id,
            p_on: checked("p_on", p_on, p_on > 0.0 && p_on <= 1.0, PROBABILITY)?,
            p_off: checked("p_off", p_off, p_off > 0.0 && p_off <= 1.0, PROBABILITY)?,
            r_b: checked(
                "r_b",
                r_b,
                r_b > 0.0 && r_b < f64::INFINITY,
                "be positive and finite",
            )?,
            r_e: checked(
                "r_e",
                r_e,
                (0.0..f64::INFINITY).contains(&r_e),
                "be non-negative and finite",
            )?,
        })
    }

    /// Peak demand `R_p = R_b + R_e`.
    #[inline]
    pub fn r_p(&self) -> f64 {
        self.r_b + self.r_e
    }

    /// The VM's ON-OFF chain.
    #[inline]
    pub fn chain(&self) -> OnOffChain {
        OnOffChain::new(self.p_on, self.p_off)
    }

    /// Long-run mean demand `R_b + π_on · R_e`.
    #[inline]
    pub fn mean_demand(&self) -> f64 {
        self.r_b + self.chain().stationary_on() * self.r_e
    }

    /// Demand at a given workload state.
    #[inline]
    pub fn demand(&self, on: bool) -> f64 {
        if on {
            self.r_p()
        } else {
            self.r_b
        }
    }
}

/// A physical machine's specification — its capacity (paper Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmSpec {
    /// Caller-assigned identifier.
    pub id: usize,
    /// Capacity `C_j` in the same units as VM demands.
    pub capacity: f64,
}

impl PmSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    /// Panics if `capacity ≤ 0` or infinite — whatever [`PmSpec::try_new`]
    /// refuses.
    #[inline]
    pub fn new(id: usize, capacity: f64) -> Self {
        Self::try_new(id, capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a validated spec.
    ///
    /// # Errors
    /// [`SpecError`] if `capacity ≤ 0` or infinite: an infinite capacity
    /// would admit QUEUE's infinite need past the co-location cap.
    #[inline]
    pub fn try_new(id: usize, capacity: f64) -> Result<Self, SpecError> {
        // Two checks, so NaN is named by the range and `+∞` as infinite.
        let positive = checked("capacity", capacity, capacity > 0.0, "be positive")?;
        Ok(Self {
            id,
            capacity: checked("capacity", positive, positive.is_finite(), "be finite")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_base_plus_spike() {
        let v = VmSpec::new(0, 0.01, 0.09, 10.0, 5.0);
        assert_eq!(v.r_p(), 15.0);
        assert_eq!(v.demand(false), 10.0);
        assert_eq!(v.demand(true), 15.0);
    }

    #[test]
    fn mean_demand_uses_stationary_on_fraction() {
        // 10% ON => mean = 10 + 0.1 * 5 = 10.5.
        let v = VmSpec::new(0, 0.01, 0.09, 10.0, 5.0);
        assert!((v.mean_demand() - 10.5).abs() < 1e-12);
    }

    #[test]
    fn zero_spike_is_allowed() {
        let v = VmSpec::new(1, 0.5, 0.5, 4.0, 0.0);
        assert_eq!(v.r_p(), v.r_b);
    }

    #[test]
    fn chain_round_trip() {
        let v = VmSpec::new(0, 0.02, 0.08, 1.0, 1.0);
        assert_eq!(v.chain().p_on(), 0.02);
        assert_eq!(v.chain().p_off(), 0.08);
    }

    #[test]
    #[should_panic(expected = "r_b")]
    fn rejects_nonpositive_base() {
        let _ = VmSpec::new(0, 0.1, 0.1, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "r_e")]
    fn rejects_negative_spike() {
        let _ = VmSpec::new(0, 0.1, 0.1, 1.0, -0.5);
    }

    #[test]
    #[should_panic(expected = "p_on")]
    fn rejects_bad_p_on() {
        let _ = VmSpec::new(0, 0.0, 0.1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_nonpositive_capacity() {
        let _ = PmSpec::new(0, 0.0);
    }

    #[test]
    fn try_new_names_the_first_field_out_of_range() {
        let field = |r: Result<VmSpec, SpecError>| r.unwrap_err().field;
        assert_eq!(field(VmSpec::try_new(0, 0.0, 2.0, 0.0, -1.0)), "p_on");
        assert_eq!(field(VmSpec::try_new(0, 0.1, f64::NAN, 0.0, 1.0)), "p_off");
        assert_eq!(field(VmSpec::try_new(0, 0.1, 1.0, -2.0, 1.0)), "r_b");
        assert_eq!(field(VmSpec::try_new(0, 1.0, 1.0, 1.0, -0.5)), "r_e");
        let err = PmSpec::try_new(0, f64::NAN).unwrap_err();
        assert_eq!(err.to_string(), "capacity must be positive, got NaN");
        assert_eq!(
            VmSpec::try_new(7, 0.01, 0.09, 10.0, 5.0),
            Ok(VmSpec::new(7, 0.01, 0.09, 10.0, 5.0))
        );
    }

    #[test]
    fn non_finite_fields_are_refused_with_their_name() {
        let ok = [0.01, 0.09, 10.0, 5.0];
        let vm = |v: [f64; 4]| VmSpec::try_new(0, v[0], v[1], v[2], v[3]);
        for (at, field) in ["p_on", "p_off", "r_b", "r_e"].into_iter().enumerate() {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut v = ok;
                v[at] = bad;
                let err = vm(v).unwrap_err();
                assert_eq!(err.field, field, "{field} = {bad}");
                assert_eq!(err.value.to_bits(), bad.to_bits(), "{field} = {bad}");
            }
        }
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let err = PmSpec::try_new(0, bad).unwrap_err();
            assert_eq!(
                (err.field, err.value.to_bits()),
                ("capacity", bad.to_bits())
            );
        }
        assert_eq!(
            PmSpec::try_new(0, f64::INFINITY).unwrap_err().to_string(),
            "capacity must be finite, got inf"
        );
        assert_eq!(
            VmSpec::try_new(0, 0.1, 0.1, 1.0, f64::INFINITY)
                .unwrap_err()
                .to_string(),
            "r_e must be non-negative and finite, got inf"
        );
    }

    #[test]
    fn pm_spec_holds_fields() {
        let h = PmSpec::new(3, 96.0);
        assert_eq!(h.id, 3);
        assert_eq!(h.capacity, 96.0);
    }
}
