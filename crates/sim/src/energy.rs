//! PM power/energy accounting.
//!
//! The paper uses "PMs used at the end of the evaluation period" as its
//! energy proxy. We additionally integrate a standard linear server power
//! model — idle power plus a utilization-proportional dynamic part — so the
//! proxy can be converted to joules.

/// Linear server power model: `P(u) = idle + (peak − idle) · u` for
/// utilization `u ∈ [0, 1]`; an unused (powered-off) PM draws nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerModel {
    /// Power at zero utilization, watts.
    pub idle_watts: f64,
    /// Power at full utilization, watts.
    pub peak_watts: f64,
}

impl Default for PowerModel {
    /// A typical commodity server: 150 W idle, 250 W at full load.
    fn default() -> Self {
        Self {
            idle_watts: 150.0,
            peak_watts: 250.0,
        }
    }
}

impl PowerModel {
    /// Instantaneous power draw at utilization `u` (clamped to `[0, 1]` —
    /// an overloaded PM cannot draw more than its peak).
    pub(crate) fn power(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_watts + (self.peak_watts - self.idle_watts) * u
    }

    /// Energy (joules) one PM consumes over `secs` at utilization `u`.
    pub(crate) fn energy(&self, utilization: f64, secs: f64) -> f64 {
        self.power(utilization) * secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let m = PowerModel {
            idle_watts: 100.0,
            peak_watts: 200.0,
        };
        assert_eq!(m.power(0.0), 100.0);
        assert_eq!(m.power(1.0), 200.0);
        assert_eq!(m.power(0.5), 150.0);
    }

    #[test]
    fn clamps_overload() {
        let m = PowerModel::default();
        assert_eq!(m.power(1.5), m.power(1.0));
        assert_eq!(m.power(-0.2), m.power(0.0));
    }

    #[test]
    fn energy_integrates_power() {
        let m = PowerModel {
            idle_watts: 100.0,
            peak_watts: 200.0,
        };
        assert_eq!(m.energy(0.5, 30.0), 150.0 * 30.0);
    }

    #[test]
    fn idle_dominates_energy_motivates_consolidation() {
        // Two half-loaded PMs draw more than one fully-loaded PM — the
        // economic argument for consolidation in one assert.
        let m = PowerModel::default();
        assert!(2.0 * m.power(0.5) > m.power(1.0));
    }
}
