//! Stochastic bin packing (SBP) — the related-work baseline family.
//!
//! The SBP line of work (refs. \[6], \[10], \[18] in the paper) models each VM's
//! demand as an independent random variable and packs under a chance
//! constraint: `Pr[Σᵢ Wᵢ > C] ≤ ρ` *at a single time instant*, typically
//! via a normal approximation `Σμᵢ + z₁₋ρ·√(Σσᵢ²) ≤ C`.
//!
//! For ON-OFF workloads the per-instant marginals are Bernoulli mixtures,
//! so SBP's effective-size rule applies directly — but SBP ignores the
//! *time* dimension entirely: it cannot distinguish a workload that spikes
//! for one step from one that spikes for an hour, which is exactly the gap
//! the paper's Markov model closes. Implementing SBP lets the benches
//! quantify that gap: per-step CVR is comparable, but violation *episodes*
//! under SBP last as long as the spikes do, and its packing ignores the
//! paper's lower-limit protection (`R_b` is not guaranteed).

use bursty_workload::VmSpec;

/// The inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0, 1)).
#[allow(clippy::excessive_precision)] // canonical Acklam coefficients
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "quantile argument must be in (0,1), got {p}"
    );
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Per-instant marginal moments of an ON-OFF VM's demand:
/// `W = R_b + Bernoulli(π_on)·R_e`.
pub(crate) fn marginal_moments(vm: &VmSpec) -> (f64, f64) {
    let q = vm.chain().stationary_on();
    let mean = vm.r_b + q * vm.r_e;
    let var = q * (1.0 - q) * vm.r_e * vm.r_e;
    (mean, var)
}

/// Normal-approximation stochastic bin packing's budget: a PM is feasible
/// when `Σμ + z₁₋ρ·√(Σσ²) ≤ C`. The constraint needs the hosted set's
/// variance sum, which [`crate::PmLoad`] does not carry, so SBP is a
/// packer over specs ([`pack_sbp`]), not a [`crate::Strategy`].
#[derive(Debug, Clone, Copy)]
struct SbpStrategy {
    z: f64,
}

impl SbpStrategy {
    /// Creates the budget for overflow probability `rho ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics for `rho` outside `(0, 1)`.
    fn new(rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1), got {rho}");
        Self {
            z: normal_quantile(1.0 - rho),
        }
    }

    /// Effective size of one VM under this budget, `μ + z·σ`.
    fn effective_size(&self, vm: &VmSpec) -> f64 {
        let (m, v) = marginal_moments(vm);
        m + self.z * v.sqrt()
    }
}

/// Exact SBP first-fit packing over specs (the entry point the benches
/// use): FFD by effective single-VM size `μ + z·σ` (the standard
/// effective-size heuristic), each VM onto the first PM whose exact
/// moment sums stay within the budget. Returns `assignment[i] = pm index`.
///
/// # Errors
/// Returns the id of the first unplaceable VM.
pub fn pack_sbp(vms: &[VmSpec], capacities: &[f64], rho: f64) -> Result<Vec<usize>, usize> {
    let strategy = SbpStrategy::new(rho);
    let mut order: Vec<usize> = (0..vms.len()).collect();
    order.sort_by(|&a, &b| {
        strategy
            .effective_size(&vms[b])
            .total_cmp(&strategy.effective_size(&vms[a]))
    });
    let mut means = vec![0.0; capacities.len()];
    let mut vars = vec![0.0; capacities.len()];
    let mut assignment = vec![usize::MAX; vms.len()];
    for &i in &order {
        let (m, v) = marginal_moments(&vms[i]);
        let slot = (0..capacities.len())
            .find(|&j| means[j] + m + strategy.z * (vars[j] + v).sqrt() <= capacities[j]);
        match slot {
            Some(j) => {
                means[j] += m;
                vars[j] += v;
                assignment[i] = j;
            }
            None => return Err(vms[i].id),
        }
    }
    Ok(assignment)
}

/// PMs used by an assignment from [`pack_sbp`].
pub fn pms_used(assignment: &[usize], n_pms: usize) -> usize {
    let mut used = vec![false; n_pms];
    for &j in assignment {
        if j != usize::MAX {
            used[j] = true;
        }
    }
    used.iter().filter(|&&u| u).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PmLoad, Strategy};

    /// The chance constraint on an explicit hosted set: its moments are
    /// additive, so `Σμ + z·√(Σσ²) ≤ C` is exact here.
    fn set_feasible(s: &SbpStrategy, vms: &[VmSpec], capacity: f64) -> bool {
        let (mean, var) = vms
            .iter()
            .map(marginal_moments)
            .fold((0.0, 0.0), |(m, v), (dm, dv)| (m + dm, v + dv));
        mean + s.z * var.sqrt() <= capacity
    }

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.99) - 2.326348).abs() < 1e-5);
        assert!((normal_quantile(0.01) + 2.326348).abs() < 1e-5);
        // Deep tail (uses the tail branch).
        assert!((normal_quantile(1e-6) + 4.753424).abs() < 1e-4);
    }

    #[test]
    fn quantile_is_antisymmetric() {
        for p in [0.001, 0.2, 0.4] {
            assert!(
                (normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9,
                "p = {p}"
            );
        }
    }

    #[test]
    fn marginal_moments_match_bernoulli_mixture() {
        let v = vm(0, 10.0, 20.0);
        let (m, var) = marginal_moments(&v);
        assert!((m - 12.0).abs() < 1e-12); // 10 + 0.1·20
        assert!((var - 0.1 * 0.9 * 400.0).abs() < 1e-12);
    }

    #[test]
    fn effective_size_between_mean_and_peak() {
        let s = SbpStrategy::new(0.01);
        let v = vm(0, 10.0, 20.0);
        let eff = s.effective_size(&v);
        let (m, _) = marginal_moments(&v);
        assert!(eff > m);
        assert!(eff < v.r_p() + 20.0); // sane scale
    }

    #[test]
    fn pack_sbp_feasible_and_uses_fewer_pms_than_peak() {
        let vms: Vec<VmSpec> = (0..60).map(|i| vm(i, 10.0, 10.0)).collect();
        let caps = vec![100.0; 60];
        let assignment = pack_sbp(&vms, &caps, 0.01).unwrap();
        let sbp_pms = pms_used(&assignment, 60);
        // Peak packing: 5 per PM → 12 PMs. SBP should beat that.
        assert!(sbp_pms < 12, "SBP used {sbp_pms}");
        // Chance constraint holds per PM (recompute).
        let s = SbpStrategy::new(0.01);
        for j in 0..60 {
            let hosted: Vec<VmSpec> = vms
                .iter()
                .zip(&assignment)
                .filter(|&(_, &a)| a == j)
                .map(|(v, _)| *v)
                .collect();
            assert!(set_feasible(&s, &hosted, 100.0), "PM {j}");
        }
    }

    #[test]
    fn sbp_normal_approximation_under_covers_spiky_vms() {
        // The gap the paper's exact chain model closes: SBP's normal
        // approximation packs 5 spiky VMs per PM at ρ = 5%, but the exact
        // per-instant overflow probability of that packing is ~8% —
        // 45 + 30·Binomial(5, 0.1) > 100 ⇔ ≥ 2 ON, and
        // Pr[Binomial(5,0.1) ≥ 2] = 0.0815. The queue strategy packs one
        // fewer VM and provably meets its bound.
        let vms: Vec<VmSpec> = (0..20).map(|i| vm(i, 9.0, 30.0)).collect();
        let caps = vec![100.0; 20];
        let assignment = pack_sbp(&vms, &caps, 0.05).unwrap();
        let per_pm: Vec<usize> = (0..20)
            .map(|j| assignment.iter().filter(|&&a| a == j).count())
            .filter(|&c| c > 0)
            .collect();
        let max_on_one = *per_pm.iter().max().unwrap();
        assert_eq!(max_on_one, 5, "normal approximation admits 5 per PM");

        // Exact overflow probability of the 5-VM PM exceeds the budget.
        let exact_overflow: f64 = (2..=5)
            .map(|x| bursty_markov::BinomialPmf::new(5, 0.1).pmf(x))
            .sum();
        assert!(
            exact_overflow > 0.05,
            "exact overflow {exact_overflow:.4} should exceed the 5% budget"
        );

        // The queue strategy stops at 4 per PM and meets its bound.
        let q = crate::strategy::QueueStrategy::build(16, 0.01, 0.09, 0.05);
        let four = PmLoad::rebuild(&vms[..4]);
        let five = PmLoad::rebuild(&vms[..5]);
        assert!(q.feasible(&four, 100.0));
        assert!(!q.feasible(&five, 100.0));
    }

    #[test]
    fn pack_sbp_holds_the_chance_constraint_on_hot_fleets() {
        // Every PM of the packing passes the exact spec-level check,
        // whatever the fleet's ON probability: π = 0.1, π = 0.5, and a
        // fleet mixing the two. At π = 0.5 four (10, 10) VMs need
        // Σμ + z·√(Σσ²) = 83.26, so an 83-capacity PM takes three.
        let s = SbpStrategy::new(0.01);
        let cool = |i: usize| vm(i, 4.0 + (i % 5) as f64, 6.0 + (i % 7) as f64);
        let hot = |i: usize| VmSpec::new(i, 0.5, 0.5, 10.0, 10.0);
        let fleets: [(&str, Vec<VmSpec>); 3] = [
            ("pi 0.1", (0..60).map(cool).collect()),
            ("pi 0.5", (0..60).map(hot).collect()),
            (
                "mixed",
                (0..60)
                    .map(|i| if i % 3 == 0 { hot(i) } else { cool(i) })
                    .collect(),
            ),
        ];
        for (name, vms) in &fleets {
            let caps = vec![83.0; vms.len()];
            let assignment = pack_sbp(vms, &caps, 0.01).unwrap();
            for (j, &cap) in caps.iter().enumerate() {
                let hosted: Vec<VmSpec> = vms
                    .iter()
                    .zip(&assignment)
                    .filter(|&(_, &a)| a == j)
                    .map(|(v, _)| *v)
                    .collect();
                assert!(set_feasible(&s, &hosted, cap), "{name}: PM {j}");
                if *name == "pi 0.5" {
                    assert!(hosted.len() <= 3, "PM {j} hosts {}", hosted.len());
                }
            }
        }
    }

    #[test]
    fn pack_sbp_errors_when_nothing_fits() {
        let vms = vec![vm(3, 200.0, 1.0)];
        assert_eq!(pack_sbp(&vms, &[100.0], 0.01), Err(3));
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_bad_rho() {
        let _ = SbpStrategy::new(0.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_bounds() {
        let _ = normal_quantile(1.0);
    }
}
