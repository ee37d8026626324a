//! The exact finite-horizon law of one PM's violation count.
//!
//! A PM hosting `n_c` ON-OFF VMs of each class `c` is, for its load,
//! the product of the classes' Eq. 12 chains: the state is the vector
//! of per-class ON counts `x = (x_c)`, `Π (n_c + 1)` states, and the
//! transition matrix is the Kronecker product of the per-class
//! [`AggregateChain`] matrices (the classes evolve independently).
//! A caller-supplied predicate says which states overload the PM — in
//! the simulator that is `load(x) > C + CAP_EPS`.
//!
//! [`ViolationLaw`] answers questions about
//! `V_T = #{t ∈ 1..=T : X_t violates}` for a chain started from an
//! [`InitialLaw`] at `t = 0` (the simulator starts every VM OFF and
//! counts the state after each step):
//!
//! * [`ViolationLaw::moments`] — the exact mean and variance, the
//!   variance as the autocovariance sum
//!   `Σ_t p_t(1 − p_t) + 2 Σ_{t<u} Cov(1_t, 1_u)`, in `O(T·S·Σ n_c)`;
//! * [`ViolationLaw::distribution`] — the law of `min(V_T, top)` by a
//!   DP over (state, count), while `(T + 1)·S` stays under
//!   [`MAX_LAW_CELLS`]; past it the answer is [`NotCertified`], the way
//!   `pm_cvr_exact` answers `None` past its support cap.
//!
//! The stationary CVR the paper certifies is `E[V_T] / T` under
//! [`InitialLaw::Stationary`]; the finite-horizon spread around it is
//! what a run's per-PM CVR is judged against.

use crate::AggregateChain;

/// The largest DP table [`ViolationLaw::distribution`] fills:
/// `(T + 1)·S` probabilities.
pub const MAX_LAW_CELLS: usize = 1 << 22;

/// `n` VMs of one class, with the class's switch probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassChain {
    /// VMs of the class on the PM.
    pub count: usize,
    /// OFF → ON probability per step.
    pub p_on: f64,
    /// ON → OFF probability per step.
    pub p_off: f64,
}

/// Where the chain starts at `t = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialLaw {
    /// Every VM OFF, as the simulator starts.
    AllOff,
    /// Each class at its stationary `Binomial(n_c, p_on/(p_on + p_off))`.
    Stationary,
}

/// The full law was not computed: its DP table would hold `cells`
/// probabilities, more than the cap allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotCertified {
    /// `(T + 1)·S` of the refused request.
    pub cells: usize,
    /// The cap it exceeded.
    pub cap: usize,
}

/// Mean and variance of `V_T`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// `E[V_T]`.
    pub mean: f64,
    /// `Var[V_T]`.
    pub variance: f64,
}

/// The violation-count law of one PM configuration (module docs).
#[derive(Debug, Clone)]
pub struct ViolationLaw {
    /// `n_c + 1` per class; the flat state index is mixed-radix with
    /// class 0 fastest.
    dims: Vec<usize>,
    /// Per class, its `(n_c + 1)²` transition matrix, row-major.
    matrices: Vec<Vec<f64>>,
    /// Per class, its stationary law.
    stationary: Vec<Vec<f64>>,
    /// Per flat state, whether it overloads the PM.
    violating: Vec<bool>,
}

impl ViolationLaw {
    /// The law for `classes` (count-0 classes contribute nothing), with
    /// `violates(x)` deciding a state by its per-class ON counts (same
    /// order as `classes`).
    ///
    /// # Panics
    /// Panics if a probability is outside `(0, 1]`.
    pub fn new(classes: &[ClassChain], violates: impl Fn(&[usize]) -> bool) -> Self {
        let mut dims = Vec::with_capacity(classes.len());
        let mut matrices = Vec::with_capacity(classes.len());
        let mut stationary = Vec::with_capacity(classes.len());
        for c in classes {
            if c.count == 0 {
                dims.push(1);
                matrices.push(vec![1.0]);
                stationary.push(vec![1.0]);
                continue;
            }
            let chain = AggregateChain::new(c.count, c.p_on, c.p_off);
            dims.push(c.count + 1);
            matrices.push(
                (0..=c.count)
                    .flat_map(|i| chain.transition_row(i))
                    .collect(),
            );
            stationary.push(chain.stationary());
        }
        let states: usize = dims.iter().product();
        let mut x = vec![0usize; dims.len()];
        let violating = (0..states)
            .map(|s| {
                let mut rest = s;
                for (xc, &d) in x.iter_mut().zip(&dims) {
                    *xc = rest % d;
                    rest /= d;
                }
                violates(&x)
            })
            .collect();
        Self {
            dims,
            matrices,
            stationary,
            violating,
        }
    }

    /// The number of states `S = Π (n_c + 1)`.
    pub fn states(&self) -> usize {
        self.violating.len()
    }

    /// The probability of each state at `t = 0`.
    fn initial(&self, init: InitialLaw) -> Vec<f64> {
        let mut v = vec![0.0; self.states()];
        match init {
            InitialLaw::AllOff => v[0] = 1.0,
            InitialLaw::Stationary => {
                for (s, p) in v.iter_mut().enumerate() {
                    let mut rest = s;
                    *p = 1.0;
                    for (pi, &d) in self.stationary.iter().zip(&self.dims) {
                        *p *= pi[rest % d];
                        rest /= d;
                    }
                }
            }
        }
        v
    }

    /// `v ← v·P` (a law one step on), class axis by class axis.
    fn forward(&self, v: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        self.apply(v, scratch, false);
    }

    /// `g ← P·g` (a function of the state one step back).
    fn backward(&self, g: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        self.apply(g, scratch, true);
    }

    /// Multiplies `v` by `⊗ P_c` along every class axis: on the left
    /// (`v·P`) or, `transposed`, on the right (`P·v`).
    fn apply(&self, v: &mut Vec<f64>, scratch: &mut Vec<f64>, transposed: bool) {
        let mut stride = 1;
        for (m, &d) in self.matrices.iter().zip(&self.dims) {
            if d > 1 {
                scratch.clear();
                scratch.resize(v.len(), 0.0);
                let block = stride * d;
                for base in (0..v.len()).step_by(block) {
                    for lo in 0..stride {
                        let at = |i: usize| base + lo + i * stride;
                        for i in 0..d {
                            let mut acc = 0.0;
                            for j in 0..d {
                                let p = if transposed {
                                    m[i * d + j]
                                } else {
                                    m[j * d + i]
                                };
                                acc += p * v[at(j)];
                            }
                            scratch[at(i)] = acc;
                        }
                    }
                }
                std::mem::swap(v, scratch);
            }
            stride *= d;
        }
    }

    /// `Σ_{x violating} v(x)`.
    fn mass(&self, v: &[f64]) -> f64 {
        v.iter()
            .zip(&self.violating)
            .filter(|(_, &bad)| bad)
            .map(|(p, _)| p)
            .sum()
    }

    /// The exact mean and variance of `V_T`, the variance as the
    /// autocovariance sum. With `g_d(x) = P(X_d violates | X_0 = x)` and
    /// `C_m(x) = Σ_{t ≤ m} P(X_t = x)` over violating `x`,
    /// `Σ_{t<u} P(X_t, X_u violate) = Σ_d Σ_x C_{T−d}(x)·g_d(x)`.
    pub fn moments(&self, init: InitialLaw, horizon: usize) -> Moments {
        let s = self.states();
        let bad: Vec<usize> = (0..s).filter(|&x| self.violating[x]).collect();
        // prefix[m][b] = C_{m+1}(bad[b]), m = 0..horizon.
        let (mut v, mut scratch) = (self.initial(init), Vec::new());
        let mut prefix: Vec<Vec<f64>> = Vec::with_capacity(horizon);
        let mut p = Vec::with_capacity(horizon);
        let mut running = vec![0.0; bad.len()];
        for _ in 0..horizon {
            self.forward(&mut v, &mut scratch);
            for (r, &x) in running.iter_mut().zip(&bad) {
                *r += v[x];
            }
            prefix.push(running.clone());
            p.push(self.mass(&v));
        }
        let mean: f64 = p.iter().sum();
        let mut joint = 0.0;
        let mut g: Vec<f64> = self
            .violating
            .iter()
            .map(|&b| f64::from(u8::from(b)))
            .collect();
        for d in 1..horizon {
            self.backward(&mut g, &mut scratch);
            let c = &prefix[horizon - d - 1];
            joint += bad.iter().zip(c).map(|(&x, &cx)| cx * g[x]).sum::<f64>();
        }
        let square: f64 = p.iter().map(|q| q * q).sum();
        let variance = mean - square + 2.0 * (joint - (mean * mean - square) / 2.0);
        Moments { mean, variance }
    }

    /// The law of `min(V_T, top)`: entry `v < top` is `P(V_T = v)`, entry
    /// `top` is `P(V_T ≥ top)` (`top ≥ horizon` gives the full law). A DP
    /// over (state, count); [`NotCertified`] when its table of
    /// `(min(top, T) + 1)·S` probabilities exceeds [`MAX_LAW_CELLS`].
    pub fn distribution(
        &self,
        init: InitialLaw,
        horizon: usize,
        top: usize,
    ) -> Result<Vec<f64>, NotCertified> {
        let top = top.min(horizon);
        let s = self.states();
        let cells = (top + 1).saturating_mul(s);
        if cells > MAX_LAW_CELLS {
            return Err(NotCertified {
                cells,
                cap: MAX_LAW_CELLS,
            });
        }
        // f[v] = P(X_t = ·, min(V_t, top) = v).
        let mut f = vec![vec![0.0; s]; top + 1];
        f[0] = self.initial(init);
        let mut scratch = Vec::new();
        for t in 0..horizon {
            // Counts above t + 1 are still empty; walk down so each
            // slice's violating mass moves up into an already-stepped one.
            let reach = (t + 1).min(top);
            for v in (0..=reach).rev() {
                if v > t {
                    continue;
                }
                self.forward(&mut f[v], &mut scratch);
                if v == top {
                    continue;
                }
                let (low, high) = f.split_at_mut(v + 1);
                for (x, p) in low[v].iter_mut().enumerate() {
                    if self.violating[x] {
                        high[0][x] += *p;
                        *p = 0.0;
                    }
                }
            }
        }
        Ok(f.iter().map(|slice| slice.iter().sum()).collect())
    }
}

/// `Binomial(n, p)` pmf over `0..=n`, for tests of the `r = 0` case.
#[cfg(test)]
fn binomial_pmf(n: usize, p: f64) -> Vec<f64> {
    crate::BinomialPmf::new(n as u64, p).pmf_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const P_ON: f64 = 0.01;
    const P_OFF: f64 = 0.09;

    /// `k` Table-I VMs of one class, violating with more than `blocks` ON.
    fn one_class(k: usize, blocks: usize) -> ViolationLaw {
        ViolationLaw::new(
            &[ClassChain {
                count: k,
                p_on: P_ON,
                p_off: P_OFF,
            }],
            move |x| x[0] > blocks,
        )
    }

    fn law_moments(law: &[f64]) -> (f64, f64) {
        let mean: f64 = law.iter().enumerate().map(|(v, p)| v as f64 * p).sum();
        let second: f64 = law
            .iter()
            .enumerate()
            .map(|(v, p)| (v * v) as f64 * p)
            .sum();
        (mean, second - mean * mean)
    }

    #[test]
    fn the_k5_row_inflates_the_iid_variance_by_8_71_both_ways() {
        // The stationary k = 5, K = 2, T = 200 row: CVR 0.0086, and the
        // variance of V_200 is 8.71 times the i.i.d. T·p(1 − p).
        let law = one_class(5, 2);
        let p = law.moments(InitialLaw::Stationary, 1).mean;
        assert!((p - 0.0086).abs() < 5e-5, "stationary CVR {p}");
        let t = 200;
        let iid = t as f64 * p * (1.0 - p);
        let m = law.moments(InitialLaw::Stationary, t);
        let full = law.distribution(InitialLaw::Stationary, t, t).unwrap();
        assert!((full.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let (mean, var) = law_moments(&full);
        assert!(
            (m.mean - t as f64 * p).abs() < 1e-9,
            "{} vs {}",
            m.mean,
            t as f64 * p
        );
        assert!((mean - m.mean).abs() < 1e-9, "{mean} vs {}", m.mean);
        assert!(
            (var - m.variance).abs() < 1e-7 * var,
            "{var} vs {}",
            m.variance
        );
        let inflation = m.variance / iid;
        assert!((inflation - 8.71).abs() < 0.005, "inflation {inflation}");
    }

    #[test]
    fn the_other_stationary_rows_reproduce_too() {
        // (k, K, T = 200 inflation, T = 20 000 inflation).
        for (k, blocks, short, long) in
            [(4, 2, 8.03, 8.22), (8, 3, 7.30, 7.48), (16, 5, 6.09, 6.22)]
        {
            let law = one_class(k, blocks);
            for (t, want) in [(200, short), (20_000, long)] {
                let m = law.moments(InitialLaw::Stationary, t);
                let p = m.mean / t as f64;
                let inflation = m.variance / (t as f64 * p * (1.0 - p));
                assert!((inflation - want).abs() < 0.005, "k={k} T={t}: {inflation}");
            }
        }
    }

    #[test]
    fn at_zero_autocorrelation_the_law_is_binomial() {
        // p_on + p_off = 1: every step redraws each VM independently of
        // its past, from either start.
        let (k, t) = (6, 40);
        let classes = [ClassChain {
            count: k,
            p_on: 0.3,
            p_off: 0.7,
        }];
        let law = ViolationLaw::new(&classes, |x| x[0] >= 3);
        let p = law.moments(InitialLaw::Stationary, 1).mean;
        let want = binomial_pmf(t, p);
        for init in [InitialLaw::AllOff, InitialLaw::Stationary] {
            let got = law.distribution(init, t, t).unwrap();
            for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() < 1e-12, "{init:?} v={v}: {a} vs {b}");
            }
            let m = law.moments(init, t);
            assert!((m.variance - t as f64 * p * (1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    fn the_truncated_law_lumps_the_tail() {
        let law = one_class(5, 1);
        let full = law.distribution(InitialLaw::AllOff, 60, 60).unwrap();
        let cut = law.distribution(InitialLaw::AllOff, 60, 4).unwrap();
        assert_eq!(cut.len(), 5);
        for v in 0..4 {
            assert!((cut[v] - full[v]).abs() < 1e-14, "v={v}");
        }
        let tail: f64 = full[4..].iter().sum();
        assert!((cut[4] - tail).abs() < 1e-12);
    }

    #[test]
    fn past_the_cap_the_law_is_not_certified() {
        let classes = [ClassChain {
            count: 63,
            p_on: P_ON,
            p_off: P_OFF,
        }; 2];
        let law = ViolationLaw::new(&classes, |x| x[0] + x[1] > 20);
        assert_eq!(law.states(), 64 * 64);
        let refused = law.distribution(InitialLaw::AllOff, 2000, 2000);
        assert_eq!(
            refused,
            Err(NotCertified {
                cells: 2001 * 4096,
                cap: MAX_LAW_CELLS
            })
        );
        // The moments need no table and still answer.
        assert!(law.moments(InitialLaw::AllOff, 50).mean >= 0.0);
    }

    #[test]
    fn two_classes_match_a_monte_carlo_of_the_chains() {
        // Two classes of different demand and switch rates, started all
        // OFF: the exact law of V_T against 40 000 simulated runs.
        let classes = [
            ClassChain {
                count: 3,
                p_on: 0.05,
                p_off: 0.15,
            },
            ClassChain {
                count: 2,
                p_on: 0.1,
                p_off: 0.2,
            },
        ];
        let violates = |x: &[usize]| 10 * x[0] + 25 * x[1] > 40;
        let t = 50;
        let law = ViolationLaw::new(&classes, violates);
        let exact = law.distribution(InitialLaw::AllOff, t, 8).unwrap();
        let m = law.moments(InitialLaw::AllOff, t);
        let runs = 40_000u32;
        let mut rng = StdRng::seed_from_u64(7);
        let mut hist = [0u32; 9];
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..runs {
            let mut on = [[false; 3]; 2];
            let mut count = 0usize;
            for _ in 0..t {
                for (c, class) in classes.iter().enumerate() {
                    for vm in on[c].iter_mut().take(class.count) {
                        let flip = if *vm { class.p_off } else { class.p_on };
                        if rng.gen::<f64>() < flip {
                            *vm = !*vm;
                        }
                    }
                }
                let x = [
                    on[0].iter().filter(|&&b| b).count(),
                    on[1].iter().filter(|&&b| b).count(),
                ];
                count += usize::from(violates(&x));
            }
            hist[count.min(8)] += 1;
            sum += count as f64;
            sum_sq += (count * count) as f64;
        }
        let mean = sum / f64::from(runs);
        let var = sum_sq / f64::from(runs) - mean * mean;
        let se = (m.variance / f64::from(runs)).sqrt();
        assert!(
            (mean - m.mean).abs() < 4.0 * se,
            "mean {mean} vs {}",
            m.mean
        );
        assert!(
            (var / m.variance - 1.0).abs() < 0.05,
            "var {var} vs {}",
            m.variance
        );
        for (v, (&got, &p)) in hist.iter().zip(&exact).enumerate() {
            let want = p * f64::from(runs);
            let sd = (want * (1.0 - p)).sqrt().max(1.0);
            assert!(
                (f64::from(got) - want).abs() < 4.5 * sd,
                "v={v}: {got} runs against {want:.1} expected"
            );
        }
    }
}
