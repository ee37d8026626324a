//! The aggregated busy-block chain of `k` collocated VMs (paper Eq. 8–16).
//!
//! With `k` independent ON-OFF VMs sharing one PM, the number of VMs
//! simultaneously ON, `θ(t)`, is itself a Markov chain on `{0, …, k}`:
//!
//! ```text
//! θ(t+1) = θ(t) − O(t) + I(t),
//!   O(t) ~ Binomial(θ(t),     p_off)   (spikes ending)
//!   I(t) ~ Binomial(k − θ(t), p_on )   (spikes starting)
//! ```
//!
//! In queuing terms this is a discrete-time, finite-source `Geom/Geom/k`
//! system with no waiting room: every reserved block is a serving window,
//! and a spike arriving while all blocks are busy is a capacity violation.
//! The stationary distribution of the chain therefore directly yields the
//! PM's capacity-violation ratio for any number of reserved blocks.

use crate::binomial::{ln_factorials, BinomialPmf};
use bursty_linalg::{stationary_distribution, LinalgError, Matrix};

/// Tie-break slack for the Eq. 15 cumulative test `Σ_{m ≤ K} π_m ≥ 1 − ρ`.
///
/// When the cumulative sum lands *exactly* on `1 − ρ`, the two stationary
/// paths (closed-form Binomial and the Gaussian solver, which agree only
/// to ~1e-12) can perturb the sum by a few ulps in opposite directions and
/// flip the comparison — `mapping(k)` would then differ by one block
/// depending on which path computed `π`. Testing against
/// `1 − ρ − RESERVATION_TIE_EPS` instead makes both paths land on the same
/// side of any tie: the epsilon dwarfs the 1e-12 cross-path disagreement
/// (pinned by `closed_form_matches_gaussian_solver_to_1e12`) while staying
/// far below any meaningful CVR budget, so away from a knife edge the
/// chosen `K` is unchanged.
const RESERVATION_TIE_EPS: f64 = 1e-9;

/// The `(k+1)`-state chain of the number of busy blocks among `k`
/// collocated VMs with common switch probabilities.
///
/// # Examples
/// ```
/// use bursty_markov::AggregateChain;
///
/// // Algorithm 1 in three lines: how many spike blocks must a PM with
/// // 16 tenants reserve to keep violations under 1% of the time?
/// let chain = AggregateChain::new(16, 0.01, 0.09);
/// let blocks = chain.blocks_needed(0.01);
/// assert_eq!(blocks, 5); // instead of 16 — the consolidation win
/// assert!(chain.cvr_with_blocks(blocks) <= 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateChain {
    k: usize,
    p_on: f64,
    p_off: f64,
}

impl AggregateChain {
    /// Creates the aggregate chain for `k ≥ 1` VMs.
    ///
    /// # Panics
    /// Panics if `k == 0` or either probability is outside `(0, 1]`.
    pub fn new(k: usize, p_on: f64, p_off: f64) -> Self {
        assert!(k >= 1, "aggregate chain needs at least one VM");
        assert!(
            p_on > 0.0 && p_on <= 1.0,
            "p_on must be in (0,1], got {p_on}"
        );
        assert!(
            p_off > 0.0 && p_off <= 1.0,
            "p_off must be in (0,1], got {p_off}"
        );
        Self { k, p_on, p_off }
    }

    /// Number of VMs (`k`); the chain has `k + 1` states.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// One-step transition probability `p_ij` (paper Eq. 12):
    ///
    /// `p_ij = Σ_r  Pr[O = r | θ = i] · Pr[I = j − i + r | θ = i]`
    ///
    /// with `O ~ B(i, p_off)` and `I ~ B(k − i, p_on)`.
    pub(crate) fn transition_prob(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i <= self.k && j <= self.k);
        let leave = BinomialPmf::new(i as u64, self.p_off);
        let enter = BinomialPmf::new((self.k - i) as u64, self.p_on);
        let mut acc = 0.0;
        for r in 0..=i {
            let enter_count = j as i64 - i as i64 + r as i64;
            acc += leave.pmf(r as u64) * enter.pmf_signed(enter_count);
        }
        acc
    }

    /// Row `i` of the one-step transition matrix: `p_ij` for every
    /// `j ∈ 0..=k` (paper Eq. 12), each the same convolution
    /// [`AggregateChain::transition_prob`] sums, with the two binomial
    /// PMF families evaluated once for the row. `O(k²)`.
    ///
    /// # Panics
    /// Panics if `i > k`.
    pub fn transition_row(&self, i: usize) -> Vec<f64> {
        assert!(i <= self.k, "state {i} outside 0..={}", self.k);
        let leave = BinomialPmf::new(i as u64, self.p_off).pmf_all();
        let enter = BinomialPmf::new((self.k - i) as u64, self.p_on).pmf_all();
        (0..=self.k)
            .map(|j| {
                let mut acc = 0.0;
                for (r, &pl) in leave.iter().enumerate() {
                    let e = j as i64 - i as i64 + r as i64;
                    if e < 0 {
                        continue;
                    }
                    let e = e as usize;
                    if e >= enter.len() {
                        continue;
                    }
                    acc += pl * enter[e];
                }
                acc
            })
            .collect()
    }

    /// The full `(k+1) × (k+1)` one-step transition matrix `P`, row by
    /// row from [`AggregateChain::transition_row`].
    ///
    /// Cost `O(k³)`. Only the solver oracle needs it —
    /// [`AggregateChain::stationary`] is closed-form, so building `P` is
    /// not on MapCal's path.
    pub(crate) fn transition_matrix(&self) -> Matrix {
        let n = self.k + 1;
        let mut p = Matrix::zeros(n, n);
        for i in 0..n {
            for (j, v) in self.transition_row(i).into_iter().enumerate() {
                p[(i, j)] = v;
            }
        }
        p
    }

    /// Stationary distribution `Π` of the busy-block count, in closed form.
    ///
    /// The chain is the superposition of `k` *independent* two-state
    /// ON-OFF chains with common switch probabilities, so its stationary
    /// law is exactly `Binomial(k, p_on / (p_on + p_off))` — each VM is ON
    /// with its own stationary probability, independently of the others.
    /// An `O(k)` PMF evaluation, where the paper's Algorithm 1 solves an
    /// `O(k³)` linear system; that solve is kept as the one oracle,
    /// [`AggregateChain::stationary_by_solver`] (a differential proptest
    /// pins the two to 1e-12).
    pub fn stationary(&self) -> Vec<f64> {
        let q = self.p_on / (self.p_on + self.p_off);
        BinomialPmf::new(self.k as u64, q).pmf_all()
    }

    /// Stationary distribution solved from the transition matrix via
    /// Gaussian elimination (paper Eq. 14 / Algorithm 1 step 3) — the
    /// verification oracle for the closed-form [`AggregateChain::stationary`].
    /// `O(k³)`; prefer `stationary` everywhere a result is needed.
    ///
    /// # Errors
    /// Propagates solver failures; cannot occur for valid parameters since
    /// the chain is irreducible and aperiodic (paper Proposition 1).
    pub fn stationary_by_solver(&self) -> Result<Vec<f64>, LinalgError> {
        stationary_distribution(&self.transition_matrix())
    }

    /// The capacity-violation ratio if only `blocks` serving windows are
    /// reserved: `CVR = Σ_{m > blocks} π_m` (paper Eq. 16).
    pub fn cvr_with_blocks(&self, blocks: usize) -> f64 {
        let pi = self.stationary();
        // Clamp: roundoff can leave a tail sum at -1e-17 for blocks = k.
        pi.iter().skip(blocks + 1).sum::<f64>().max(0.0)
    }

    /// The minimum number of blocks `K` with
    /// `Σ_{m ≤ K} π_m ≥ 1 − ρ` (paper Eq. 15) — the heart of MapCal.
    ///
    /// Always exists with `K ≤ k` because the full sum is 1; the
    /// interesting (resource-saving) case is `K < k`.
    ///
    /// # Panics
    /// Panics unless `rho ∈ (0, 1)`.
    pub fn blocks_needed(&self, rho: f64) -> usize {
        self.reservation(rho).blocks
    }

    /// Eq. 15 and Eq. 16 answered by a *single* stationary evaluation: the
    /// minimal block count `K` meeting the bound `ρ` together with the CVR
    /// that `K` certifies, both read off the same `π`. Callers that need
    /// both quantities (MapCal builds a table of them per `k`) should use
    /// this instead of `blocks_needed` + `cvr_with_blocks`, which would
    /// each re-evaluate the stationary distribution.
    ///
    /// # Knife edge
    /// When the cumulative sum `Σ_{m ≤ K} π_m` lands *exactly* on `1 − ρ`
    /// for some `K`, the raw comparison sits on a knife edge: any change
    /// in how `π` is computed (closed form vs Gaussian solver) perturbs
    /// the sum by a few ulps and could flip it, moving `K` by one. The
    /// cumulative test therefore carries a [`RESERVATION_TIE_EPS`] slack
    /// that is orders of magnitude above the cross-path disagreement —
    /// both resolve every tie identically (to the smaller,
    /// resource-saving `K`), which the knife-edge differential regression
    /// test pins at exactly-representable tie points.
    ///
    /// # Panics
    /// Panics unless `rho ∈ (0, 1)`.
    pub fn reservation(&self, rho: f64) -> Reservation {
        Self::reservations(self.k, rho)(self.p_on / (self.p_on + self.p_off))
    }

    /// [`AggregateChain::reservation`] of `k` chains as a function of
    /// their stationary ON probability `π ∈ [0, 1]`, whatever pair
    /// produced it: the law reads only `π`, so this is the one entry for
    /// every caller that prices by `π` (a pair's `reservation` goes
    /// through it with `π = p_on/(p_on + p_off)`, bit for bit). The
    /// `ln x!` of the law are computed once, for a caller that folds one
    /// `k` at many `π`.
    ///
    /// # Panics
    /// The returned function panics if `π ∉ [0, 1]` or `rho ∉ (0, 1)`.
    pub fn reservations(k: usize, rho: f64) -> impl Fn(f64) -> Reservation {
        let ln_fact = ln_factorials(k);
        move |pi| {
            reservation_from_stationary(&BinomialPmf::new(k as u64, pi).pmf_all_with(&ln_fact), rho)
        }
    }
}

/// The shared Eq. 15/16 fold over a stationary law `pi` of `k + 1`
/// states: minimal `K` with `Σ_{m ≤ K} π_m ≥ 1 − ρ − RESERVATION_TIE_EPS`,
/// plus the certified CVR at that `K`. The solver oracle's `π` goes
/// through this same comparison in the tests, so a knife-edge tie cannot
/// split them.
fn reservation_from_stationary(pi: &[f64], rho: f64) -> Reservation {
    assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1), got {rho}");
    // Roundoff can leave the cumulative sum slightly below 1 − ρ at the
    // end; the full reservation k always satisfies the bound exactly.
    let mut blocks = pi.len() - 1;
    let mut cum = 0.0;
    for (m, &p) in pi.iter().enumerate() {
        cum += p;
        if cum >= 1.0 - rho - RESERVATION_TIE_EPS {
            blocks = m;
            break;
        }
    }
    // Clamp: roundoff can leave a tail sum at -1e-17 for blocks = k.
    let cvr = pi.iter().skip(blocks + 1).sum::<f64>().max(0.0);
    Reservation { blocks, cvr }
}

/// A block reservation certified by one stationary solve: the minimal
/// feasible block count and the CVR it actually achieves (Eq. 15 + 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// Minimal `K` with `Σ_{m ≤ K} π_m ≥ 1 − ρ`.
    pub blocks: usize,
    /// The certified CVR at that reservation: `Σ_{m > K} π_m ≤ ρ`.
    pub cvr: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_ON: f64 = 0.01;
    const P_OFF: f64 = 0.09;

    /// The reservation read off the Gaussian-solver oracle's `π` through
    /// the same Eq. 15/16 fold the closed form uses.
    fn solver_reservation(agg: &AggregateChain, rho: f64) -> Reservation {
        reservation_from_stationary(&agg.stationary_by_solver().unwrap(), rho)
    }

    #[test]
    fn k1_reduces_to_onoff_chain() {
        let agg = AggregateChain::new(1, P_ON, P_OFF);
        let p = agg.transition_matrix();
        assert!((p[(0, 0)] - (1.0 - P_ON)).abs() < 1e-12);
        assert!((p[(0, 1)] - P_ON).abs() < 1e-12);
        assert!((p[(1, 0)] - P_OFF).abs() < 1e-12);
        assert!((p[(1, 1)] - (1.0 - P_OFF)).abs() < 1e-12);
    }

    #[test]
    fn transition_matrix_is_row_stochastic() {
        for k in [1usize, 2, 5, 16, 40] {
            let agg = AggregateChain::new(k, P_ON, P_OFF);
            assert!(agg.transition_matrix().is_row_stochastic(1e-9), "k = {k}");
        }
    }

    #[test]
    fn entrywise_matches_matrix_builder() {
        let agg = AggregateChain::new(6, 0.2, 0.35);
        let p = agg.transition_matrix();
        for i in 0..=6 {
            for j in 0..=6 {
                assert!(
                    (p[(i, j)] - agg.transition_prob(i, j)).abs() < 1e-12,
                    "entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn stationary_is_binomial_with_on_fraction() {
        // Independence makes the stationary θ exactly Binomial(k, π_on):
        // each VM is ON w.p. p_on/(p_on+p_off) in steady state. The
        // Gaussian solver must agree with the closed form it verifies.
        let k = 10;
        let agg = AggregateChain::new(k, P_ON, P_OFF);
        let pi = agg.stationary();
        let solved = agg.stationary_by_solver().unwrap();
        let expect = BinomialPmf::new(k as u64, P_ON / (P_ON + P_OFF)).pmf_all();
        for (m, (&a, &b)) in pi.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "state {m}: {a} vs {b}");
        }
        for (m, (&a, &b)) in pi.iter().zip(&solved).enumerate() {
            assert!((a - b).abs() < 1e-10, "solver state {m}: {a} vs {b}");
        }
    }

    #[test]
    fn blocks_needed_paper_parameters() {
        // With p_on=0.01, p_off=0.09 (10% ON) and ρ=0.01, far fewer than k
        // blocks suffice — the entire point of the paper.
        let agg = AggregateChain::new(16, P_ON, P_OFF);
        let blocks = agg.blocks_needed(0.01);
        assert!(blocks < 16, "expected reduction, got K = {blocks}");
        assert!(
            blocks >= 1,
            "at 10% ON some reservation is needed, got K = {blocks}"
        );
        // Constraint actually holds…
        assert!(agg.cvr_with_blocks(blocks) <= 0.01 + 1e-12);
        // …and K is minimal.
        if blocks > 0 {
            assert!(agg.cvr_with_blocks(blocks - 1) > 0.01);
        }
    }

    #[test]
    fn blocks_needed_monotone_in_rho() {
        let agg = AggregateChain::new(16, P_ON, P_OFF);
        let strict = agg.blocks_needed(0.001);
        let loose = agg.blocks_needed(0.1);
        assert!(strict >= loose, "stricter ρ must need ≥ blocks");
    }

    #[test]
    fn blocks_needed_monotone_in_k() {
        let mut prev = 0;
        for k in 1..=20 {
            let b = AggregateChain::new(k, P_ON, P_OFF).blocks_needed(0.01);
            assert!(b >= prev, "k={k}: blocks {b} < previous {prev}");
            assert!(b <= k);
            prev = b;
        }
    }

    #[test]
    fn reservation_matches_separate_queries() {
        // The single-solve API must agree with the two independent ones.
        for k in [1usize, 4, 16] {
            let agg = AggregateChain::new(k, P_ON, P_OFF);
            let res = agg.reservation(0.01);
            assert_eq!(res.blocks, agg.blocks_needed(0.01));
            let cvr = agg.cvr_with_blocks(res.blocks);
            assert!((res.cvr - cvr).abs() < 1e-12, "k={k}: {} vs {cvr}", res.cvr);
            assert!(res.cvr <= 0.01 + 1e-12);
        }
    }

    #[test]
    fn full_reservation_has_zero_cvr() {
        let agg = AggregateChain::new(12, P_ON, P_OFF);
        assert_eq!(agg.cvr_with_blocks(12), 0.0);
    }

    #[test]
    fn zero_blocks_cvr_is_on_probability_complement() {
        let agg = AggregateChain::new(5, 0.3, 0.3);
        // CVR with 0 blocks = Pr[θ ≥ 1] = 1 − π_0.
        let pi = agg.stationary();
        let cvr = agg.cvr_with_blocks(0);
        assert!((cvr - (1.0 - pi[0])).abs() < 1e-12);
    }

    #[test]
    fn heavy_on_traffic_needs_nearly_full_reservation() {
        // 90% ON: reserving much less than k must violate a tight ρ.
        let agg = AggregateChain::new(10, 0.09, 0.01);
        let blocks = agg.blocks_needed(0.01);
        assert!(
            blocks >= 9,
            "heavy traffic should need ≥ 9 blocks, got {blocks}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn rejects_k_zero() {
        let _ = AggregateChain::new(0, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_rho_of_one() {
        let _ = AggregateChain::new(2, 0.1, 0.1).blocks_needed(1.0);
    }

    #[test]
    fn knife_edge_tie_break_is_consistent_across_stationary_paths() {
        // Constructed exact ties: with p_on = p_off = 0.5 the stationary
        // law is Binomial(k, 1/2), whose partial sums are exact dyadic
        // rationals — choosing ρ so that 1 − ρ equals such a sum puts the
        // Eq. 15 comparison precisely on the knife edge the doc block
        // warns about. k = 2: π = [1/4, 1/2, 1/4], cum(1) = 3/4, ρ = 1/4.
        // k = 4: π = [1,4,6,4,1]/16, cum(2) = 11/16, ρ = 5/16. Closed form
        // and Gaussian solver land a few ulps apart here; the shared
        // epsilon tie-break must make both pick the same (smaller) K.
        for &(k, rho, tie_blocks) in &[(2usize, 0.25f64, 1usize), (4, 0.3125, 2)] {
            let agg = AggregateChain::new(k, 0.5, 0.5);
            let closed = agg.reservation(rho);
            let solved = solver_reservation(&agg, rho);
            assert_eq!(
                closed.blocks, solved.blocks,
                "k={k} ρ={rho}: closed-form K={} vs solver K={}",
                closed.blocks, solved.blocks
            );
            assert_eq!(
                closed.blocks, tie_blocks,
                "k={k} ρ={rho}: tie must resolve to the feasible smaller K"
            );
            // The tie point certifies CVR = ρ exactly (within the slack).
            assert!((closed.cvr - rho).abs() < 1e-12);
        }
    }

    #[test]
    fn reservation_paths_agree_away_from_knife_edges() {
        for k in 1..=20 {
            let agg = AggregateChain::new(k, P_ON, P_OFF);
            for rho in [0.001, 0.01, 0.1] {
                let closed = agg.reservation(rho);
                let solved = solver_reservation(&agg, rho);
                assert_eq!(closed.blocks, solved.blocks, "k={k} ρ={rho}");
                assert!((closed.cvr - solved.cvr).abs() < 1e-10, "k={k} ρ={rho}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matrix_is_stochastic(
            k in 1usize..24, p_on in 0.005f64..0.995, p_off in 0.005f64..0.995
        ) {
            let agg = AggregateChain::new(k, p_on, p_off);
            prop_assert!(agg.transition_matrix().is_row_stochastic(1e-8));
        }

        #[test]
        fn stationary_matches_binomial_product_form(
            k in 1usize..16, p_on in 0.01f64..0.9, p_off in 0.01f64..0.9
        ) {
            let agg = AggregateChain::new(k, p_on, p_off);
            let pi = agg.stationary();
            let q = p_on / (p_on + p_off);
            let expect = BinomialPmf::new(k as u64, q).pmf_all();
            for (a, b) in pi.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-8);
            }
        }

        // The differential guard of the closed-form replacement: the
        // retained O(k³) Gaussian solver and the O(k) Binomial closed form
        // must agree to 1e-12 across the parameter space MapCal sweeps.
        #[test]
        fn closed_form_matches_gaussian_solver_to_1e12(
            k in 1usize..24, p_on in 0.005f64..0.995, p_off in 0.005f64..0.995
        ) {
            let agg = AggregateChain::new(k, p_on, p_off);
            let closed = agg.stationary();
            let solved = agg.stationary_by_solver().unwrap();
            prop_assert_eq!(closed.len(), solved.len());
            for (m, (a, b)) in closed.iter().zip(&solved).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-12,
                    "k={} state {}: closed {} vs solver {}", k, m, a, b
                );
            }
        }

        #[test]
        fn blocks_needed_is_minimal_feasible(
            k in 1usize..14, rho in 0.001f64..0.3
        ) {
            let agg = AggregateChain::new(k, 0.01, 0.09);
            let blocks = agg.blocks_needed(rho);
            prop_assert!(agg.cvr_with_blocks(blocks) <= rho + 1e-9);
            if blocks > 0 {
                prop_assert!(agg.cvr_with_blocks(blocks - 1) > rho - 1e-9);
            }
        }

        #[test]
        fn cvr_decreases_in_blocks(
            k in 2usize..12, p_on in 0.05f64..0.5, p_off in 0.05f64..0.5
        ) {
            let agg = AggregateChain::new(k, p_on, p_off);
            let mut prev = f64::INFINITY;
            for b in 0..=k {
                let cvr = agg.cvr_with_blocks(b);
                prop_assert!(cvr <= prev + 1e-12);
                prev = cvr;
            }
            prop_assert!(prev.abs() < 1e-12);
        }
    }
}
