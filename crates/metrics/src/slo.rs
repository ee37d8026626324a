//! Translating capacity-violation ratios into SLO language.
//!
//! Operators reason in availability ("three nines") and violation minutes
//! per month; the paper reasons in CVR. These converters connect the two,
//! so a `ρ` choice can be justified in contract terms.

/// Seconds in a 30-day billing month.
const SECS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

/// Availability implied by a CVR: the fraction of time capacity holds.
pub(crate) fn availability(cvr: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&cvr),
        "CVR must be in [0,1], got {cvr}"
    );
    1.0 - cvr
}

/// The number of leading nines in an availability figure
/// (0.999 → 3; anything below 0.9 → 0), or `None` at exactly 1.0, which
/// has no finite count.
pub(crate) fn nines(availability: f64) -> Option<u32> {
    assert!(
        (0.0..=1.0).contains(&availability),
        "availability must be in [0,1]"
    );
    if availability == 1.0 {
        return None;
    }
    let mut count = 0;
    let mut x = availability;
    while x >= 0.9 {
        count += 1;
        x = x * 10.0 - 9.0;
        if count >= 12 {
            break; // beyond any meaningful precision
        }
    }
    Some(count)
}

/// Expected violation time per 30-day month at a given CVR, in seconds.
pub fn violation_secs_per_month(cvr: f64) -> f64 {
    assert!((0.0..=1.0).contains(&cvr), "CVR must be in [0,1]");
    cvr * SECS_PER_MONTH
}

/// Parses an availability target like `"99.9"` or `"99.95%"` into the CVR
/// budget it implies.
///
/// # Errors
/// A message for unparsable or out-of-range input.
pub fn cvr_budget_from_availability(target: &str) -> Result<f64, String> {
    let cleaned = target.trim().trim_end_matches('%');
    let pct: f64 = cleaned
        .parse()
        .map_err(|_| format!("`{target}` is not a percentage"))?;
    if !(0.0..100.0).contains(&pct) {
        return Err(format!("availability {pct}% out of range [0, 100)"));
    }
    Ok(1.0 - pct / 100.0)
}

/// A compact SLO summary of a measured CVR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// The measured CVR.
    pub cvr: f64,
    /// Implied availability.
    pub availability: f64,
    /// Leading nines of availability; `None` when no violation was
    /// measured (availability 1.0).
    pub nines: Option<u32>,
    /// Expected violation minutes per 30-day month.
    pub violation_mins_per_month: f64,
}

/// Summarizes a CVR in SLO terms.
///
/// # Examples
/// ```
/// use bursty_metrics::slo::summarize;
///
/// // The paper's ρ = 1% in operator language:
/// let s = summarize(0.01);
/// assert_eq!(s.nines, Some(2));                        // 99% availability
/// assert_eq!(s.violation_mins_per_month.round(), 432.0); // 7.2 h/month
/// ```
pub fn summarize(cvr: f64) -> SloSummary {
    let availability = availability(cvr);
    SloSummary {
        cvr,
        availability,
        nines: nines(availability),
        violation_mins_per_month: violation_secs_per_month(cvr) / 60.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rho_is_two_nines() {
        // ρ = 0.01 → availability 0.99 → two nines, ~7.2 h per month.
        let s = summarize(0.01);
        assert_eq!(s.nines, Some(2));
        assert!((s.availability - 0.99).abs() < 1e-12);
        assert!((s.violation_mins_per_month - 432.0).abs() < 1e-9);
    }

    #[test]
    fn nines_counting() {
        assert_eq!(nines(0.9), Some(1));
        assert_eq!(nines(0.99), Some(2));
        assert_eq!(nines(0.999), Some(3));
        assert_eq!(nines(0.9995), Some(3));
        assert_eq!(nines(0.89), Some(0));
        assert_eq!(nines(0.0), Some(0));
    }

    #[test]
    fn budget_parsing() {
        assert!((cvr_budget_from_availability("99").unwrap() - 0.01).abs() < 1e-12);
        assert!((cvr_budget_from_availability("99.9%").unwrap() - 0.001).abs() < 1e-12);
        assert!((cvr_budget_from_availability(" 95 ").unwrap() - 0.05).abs() < 1e-12);
        assert!(cvr_budget_from_availability("hi").is_err());
        assert!(cvr_budget_from_availability("100").is_err());
        assert!(cvr_budget_from_availability("-3").is_err());
    }

    #[test]
    fn round_trip_budget_and_summary() {
        let budget = cvr_budget_from_availability("99.95").unwrap();
        let s = summarize(budget);
        assert_eq!(s.nines, Some(3));
        assert!((s.violation_mins_per_month - 21.6).abs() < 1e-9);
    }

    #[test]
    fn zero_cvr_is_perfect() {
        let s = summarize(0.0);
        assert_eq!(s.availability, 1.0);
        assert_eq!(s.nines, None, "no finite count of nines");
        assert_eq!(s.violation_mins_per_month, 0.0);
    }

    #[test]
    #[should_panic(expected = "CVR")]
    fn rejects_out_of_range_cvr() {
        let _ = summarize(1.5);
    }
}
