//! Pre-copy live-migration cost model.
//!
//! The paper motivates reservation by the cost of live migration, citing
//! Voorsluys et al.'s measurement study ("in a nearly oversubscribed
//! system significant downtime is observed … which also incurs noticeable
//! CPU usage on the host"). This module implements the standard pre-copy
//! iteration model those costs come from, so the simulator's migration
//! counts can be converted into seconds of migration time, seconds of
//! downtime, and bytes moved.
//!
//! Model: round 0 transfers the VM's whole memory `M` at bandwidth `B`;
//! while a round runs, the guest dirties pages at rate `D`; round `i+1`
//! transfers what round `i` left dirty. Rounds continue until the residual
//! set fits the downtime target or the round cap is hit, then the VM is
//! paused and the residual is copied (the downtime).

/// Parameters of one migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationParams {
    /// VM memory footprint, MiB.
    pub memory_mib: f64,
    /// Page dirty rate, MiB/s.
    pub dirty_rate_mibs: f64,
    /// Available migration bandwidth, MiB/s.
    pub bandwidth_mibs: f64,
    /// Stop pre-copy once the residual would take at most this long to
    /// copy (the downtime target), seconds.
    pub downtime_target_secs: f64,
    /// Maximum pre-copy rounds before forcing the stop-and-copy.
    pub max_rounds: u32,
}

impl Default for MigrationParams {
    /// Defaults in the range of the paper's era: 1 GiB VM, 50 MiB/s
    /// dirtying, 1 GbE (~110 MiB/s) transport, 300 ms downtime target.
    fn default() -> Self {
        Self {
            memory_mib: 1024.0,
            dirty_rate_mibs: 50.0,
            bandwidth_mibs: 110.0,
            downtime_target_secs: 0.3,
            max_rounds: 30,
        }
    }
}

/// The predicted cost of one migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Total wall-clock migration time (pre-copy + stop-and-copy), s.
    pub total_secs: f64,
    /// Stop-and-copy downtime, s.
    pub downtime_secs: f64,
    /// Bytes moved across all rounds, MiB.
    pub transferred_mib: f64,
    /// Pre-copy rounds executed.
    pub rounds: u32,
    /// Whether the downtime target was met (false = the dirty rate beat
    /// the bandwidth and the round cap forced a long stop-and-copy).
    pub converged: bool,
}

/// Evaluates the pre-copy model.
///
/// # Examples
/// ```
/// use bursty_sim::migration_cost::{precopy_cost, MigrationParams};
///
/// let cost = precopy_cost(MigrationParams::default());
/// // A busy 1 GiB VM over 1 GbE: seconds of total time, sub-second
/// // downtime once pre-copy converges.
/// assert!(cost.converged);
/// assert!(cost.total_secs > 9.0);
/// assert!(cost.downtime_secs <= 0.3);
/// ```
///
/// # Panics
/// Panics on non-positive memory/bandwidth or a negative dirty rate.
pub fn precopy_cost(p: MigrationParams) -> MigrationCost {
    assert!(p.memory_mib > 0.0, "memory must be positive");
    assert!(p.bandwidth_mibs > 0.0, "bandwidth must be positive");
    assert!(p.dirty_rate_mibs >= 0.0, "dirty rate must be nonnegative");
    assert!(
        p.downtime_target_secs > 0.0,
        "downtime target must be positive"
    );

    let ratio = p.dirty_rate_mibs / p.bandwidth_mibs;
    let residual_target = p.downtime_target_secs * p.bandwidth_mibs;

    let mut residual = p.memory_mib;
    let mut transferred = 0.0;
    let mut precopy_time = 0.0;
    let mut rounds = 0u32;
    // Round 0 always transfers the full memory image.
    loop {
        let round_time = residual / p.bandwidth_mibs;
        transferred += residual;
        precopy_time += round_time;
        rounds += 1;
        residual = p.dirty_rate_mibs * round_time; // dirtied during the round
                                                   // With ratio ≥ 1 further rounds cannot shrink the residual, so a
                                                   // first full copy is all pre-copy can usefully do.
        if residual <= residual_target || rounds >= p.max_rounds || ratio >= 1.0 {
            break;
        }
    }
    let downtime = residual / p.bandwidth_mibs;
    MigrationCost {
        total_secs: precopy_time + downtime,
        downtime_secs: downtime,
        transferred_mib: transferred + residual,
        rounds,
        converged: downtime <= p.downtime_target_secs + 1e-9,
    }
}

/// Aggregates the cost of `migrations` identical migrations — the bridge
/// from the simulator's counts (Fig. 9(a)) to seconds and bytes.
pub fn total_cost(migrations: usize, params: MigrationParams) -> MigrationCost {
    let one = precopy_cost(params);
    MigrationCost {
        total_secs: one.total_secs * migrations as f64,
        downtime_secs: one.downtime_secs * migrations as f64,
        transferred_mib: one.transferred_mib * migrations as f64,
        rounds: one.rounds,
        converged: one.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_vm_migrates_in_one_round() {
        let cost = precopy_cost(MigrationParams {
            dirty_rate_mibs: 0.0,
            ..Default::default()
        });
        assert_eq!(cost.rounds, 1);
        assert!(cost.converged);
        assert!(cost.downtime_secs < 1e-9);
        // 1024 MiB over 110 MiB/s ≈ 9.3 s.
        assert!((cost.total_secs - 1024.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn busy_vm_needs_multiple_rounds_but_converges() {
        let cost = precopy_cost(MigrationParams::default());
        assert!(cost.rounds > 1);
        assert!(cost.converged, "ratio 0.45 < 1 must converge: {cost:?}");
        assert!(cost.downtime_secs <= 0.3 + 1e-9);
        // Geometric series: total transfer ≈ M / (1 − D/B).
        let expect = 1024.0 / (1.0 - 50.0 / 110.0);
        assert!(
            cost.transferred_mib < expect * 1.05,
            "transferred {} vs series bound {expect}",
            cost.transferred_mib
        );
    }

    #[test]
    fn dirty_rate_above_bandwidth_never_converges() {
        let cost = precopy_cost(MigrationParams {
            dirty_rate_mibs: 200.0,
            bandwidth_mibs: 110.0,
            ..Default::default()
        });
        assert!(!cost.converged);
        // Downtime is the whole dirtied residual of one full-copy round.
        assert!(cost.downtime_secs > 1.0);
    }

    #[test]
    fn round_cap_bounds_the_precopy() {
        let cost = precopy_cost(MigrationParams {
            dirty_rate_mibs: 109.0, // ratio 0.9909: converges very slowly
            max_rounds: 5,
            ..Default::default()
        });
        assert_eq!(cost.rounds, 5);
        assert!(!cost.converged);
    }

    #[test]
    fn faster_network_cuts_total_time() {
        let slow = precopy_cost(MigrationParams::default());
        let fast = precopy_cost(MigrationParams {
            bandwidth_mibs: 1100.0, // 10 GbE
            ..Default::default()
        });
        assert!(fast.total_secs < slow.total_secs / 5.0);
        assert!(fast.converged);
    }

    #[test]
    fn total_cost_scales_linearly() {
        let one = precopy_cost(MigrationParams::default());
        let many = total_cost(38, MigrationParams::default());
        assert!((many.total_secs - 38.0 * one.total_secs).abs() < 1e-9);
        assert!((many.transferred_mib - 38.0 * one.transferred_mib).abs() < 1e-6);
    }

    #[test]
    fn fig9_scale_sanity() {
        // RB's ~38 migrations per 3000 s run at defaults ≈ 38 × ~51 s of
        // migration activity — a sizeable fraction of the horizon, which
        // is exactly the paper's performance argument against RB.
        let rb = total_cost(38, MigrationParams::default());
        let queue = total_cost(1, MigrationParams::default());
        assert!(rb.total_secs > 30.0 * queue.total_secs);
        assert!(
            rb.total_secs > 0.15 * 3000.0,
            "RB spends >15% of the run migrating"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = precopy_cost(MigrationParams {
            bandwidth_mibs: 0.0,
            ..Default::default()
        });
    }
}
