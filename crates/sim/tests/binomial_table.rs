//! Edge-seam certification of the memoized binomial sampler
//! (`sim::rng::binomial_table`) against the pmf-recurrence walk it
//! memoizes.
//!
//! The bit-identity contract (DESIGN.md §8) says the table path and the
//! walk path are the *same function* of `(key, counter, n, p)` — not
//! statistically close, bitwise equal. The seams where that could
//! silently break are (a) the `q^n`-underflow boundary, where the walk
//! switches to its `ln_gamma`-anchored log-space start, (b) the
//! degenerate cells `n = 0` and `p ∈ {0, 1}` that short-circuit before
//! any table is consulted, and (c) the far right tail, where the table
//! truncates its stored prefix once every later partial sum is
//! absorbed. On top of the bit-level checks, a chi-square
//! re-certification draws through the *cache* (flushes included) and
//! checks the empirical law against `Binomial(k, π)` — the same
//! marginal certification `class_equivalence.rs` applies to the
//! engine's cells.

use bursty_markov::binomial::BinomialPmf;
use bursty_placement::{first_fit, QueueStrategy};
use bursty_sim::bench_api::ClassCoreBench;
use bursty_sim::rng::binomial_table::{BinomialTable, TableCache};
use bursty_sim::rng::{binomial_from_u01, class_cell_key, class_hash, keyed_binomial};
use bursty_workload::{FleetGenerator, WorkloadPattern};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The smallest `n` whose `q^n` underflows to 0.0: below it the walk
/// anchors at `k = 0`, at and above it the `ln_gamma` log-space anchor
/// takes over.
fn underflow_cutoff(p: f64) -> u32 {
    let q = 1.0 - p;
    let mut lo = 1u32;
    let mut hi = 2u32;
    while q.powi(hi as i32) > 0.0 {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if q.powi(mid as i32) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[test]
fn underflow_cutoff_finder_is_correct() {
    for &p in &[0.01, 0.09, 0.3, 0.5] {
        let n = underflow_cutoff(p);
        let q = 1.0 - p;
        assert!(q.powi(n as i32) == 0.0, "p={p}: q^{n} did not underflow");
        assert!(q.powi(n as i32 - 1) > 0.0, "p={p}: cutoff {n} not minimal");
    }
}

#[test]
fn table_equals_walk_at_the_underflow_anchor_boundary() {
    // n straddling the cutoff on both sides: the table must follow the
    // walk into (and out of) the log-space anchored regime bitwise.
    for &p in &[0.01, 0.09, 0.3, 0.5, 0.77] {
        let cutoff = underflow_cutoff(p);
        for n in cutoff.saturating_sub(3)..=cutoff + 3 {
            let key = class_cell_key(42, u64::from(n), class_hash([1, 2, 3, 4]));
            let table = BinomialTable::build(n, p);
            let mut cache = TableCache::new(&[p], 1 << 20);
            let mut uniforms = StdRng::seed_from_u64(42 ^ u64::from(n));
            for counter in 0..2_000u64 {
                let u: f64 = uniforms.gen();
                assert_eq!(
                    table.sample_u01(u),
                    binomial_from_u01(u, n, p),
                    "u-level divergence at n={n} p={p} (cutoff {cutoff})"
                );
                assert_eq!(
                    cache.draw(0, key, counter, n),
                    keyed_binomial(key, counter, n, p),
                    "draw-level divergence at n={n} p={p} (cutoff {cutoff})"
                );
            }
        }
    }
}

#[test]
fn degenerate_cells_short_circuit_identically() {
    // n = 0 and p ∈ {0, 1} never consult a table; the cache must
    // reproduce the walk's short-circuits for them exactly — including
    // p values outside [0, 1], which the walk clamps by branch.
    let key = class_cell_key(7, 3, class_hash([5, 6, 7, 8]));
    let mut cache = TableCache::new(&[0.0, 1.0, -0.25, 1.5, 0.3], 1 << 16);
    for (slot, &p) in [0.0, 1.0, -0.25, 1.5, 0.3].iter().enumerate() {
        for &n in &[0u32, 1, 17, 400] {
            for counter in 0..64u64 {
                assert_eq!(
                    cache.draw(slot, key, counter, n),
                    keyed_binomial(key, counter, n, p),
                    "p={p} n={n} counter={counter}"
                );
            }
        }
    }
    // Nothing above may have built a table for the degenerate slots.
    let stats = cache.stats();
    assert_eq!(stats.evictions, 0);
}

/// The walk's zero boundary: the smallest `u` it does not map to 0
/// (i.e. its first partial sum), found by bisecting over f64 bit
/// patterns — or `None` when even `u = 0` maps above 0 (the
/// `q^n`-underflow regime, anchored at `start > 0`).
fn zero_boundary(n: u32, p: f64) -> Option<f64> {
    if binomial_from_u01(0.0, n, p) != 0 {
        return None;
    }
    // Invariant: walk(lo) == 0, walk(hi) != 0; positive f64s order like
    // their bit patterns.
    let (mut lo, mut hi) = (0.0f64.to_bits(), 1.0f64.to_bits());
    if binomial_from_u01(f64::from_bits(hi - 1), n, p) == 0 {
        return Some(1.0); // every u in [0, 1) maps to 0
    }
    hi -= 1;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if binomial_from_u01(f64::from_bits(mid), n, p) == 0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(f64::from_bits(hi))
}

#[test]
fn zero_outcome_fast_path_equals_walk_at_its_boundary() {
    // The fast path answers 0 from one comparison against the table's
    // first partial sum. Probe exactly there — one ulp below, at, and
    // one ulp above — plus both ends of [0, 1), first on a cold cache
    // (miss path builds the table) and again warm (fast path armed).
    let ps = [0.01, 0.09, 1e-9, 0.5, 1.0 - 1e-9];
    let top = 1.0 - f64::EPSILON / 2.0; // 1 − 2⁻⁵³
    for (slot, &p) in ps.iter().enumerate() {
        let mut cache = TableCache::new(&ps, 1 << 20);
        for n in 1..=64u32 {
            let mut us = vec![0.0, top];
            if let Some(cut) = zero_boundary(n, p).filter(|&c| c < 1.0) {
                us.extend([
                    f64::from_bits(cut.to_bits() - 1),
                    cut,
                    f64::from_bits(cut.to_bits() + 1),
                ]);
                assert_eq!(binomial_from_u01(us[2], n, p), 0);
                assert_ne!(binomial_from_u01(cut, n, p), 0);
            }
            for pass in ["cold", "warm"] {
                for &u in &us {
                    assert_eq!(
                        cache.draw_u01(slot, u, n),
                        binomial_from_u01(u, n, p),
                        "{pass}: n={n} p={p} u={u:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn tables_anchored_above_zero_never_take_the_fast_path() {
    // q^n underflows: the walk starts at the lower 12σ edge and can
    // never return 0, so neither may the cache — not even at u = 0 or
    // at subnormal u, cold or warm.
    let (n, p) = (5000u32, 0.5f64);
    assert!(zero_boundary(n, p).is_none(), "test premise: start > 0");
    let mut cache = TableCache::new(&[p], 1 << 20);
    for pass in 0..2 {
        for &u in &[0.0, f64::from_bits(1), f64::MIN_POSITIVE, 1e-300, 0.25, 0.5] {
            let x = cache.draw_u01(0, u, n);
            assert_eq!(x, binomial_from_u01(u, n, p), "pass {pass} u={u:e}");
            assert!(x > 0, "pass {pass}: fast path fired at u={u:e}");
        }
    }
    assert_eq!(cache.stats().misses, 1);
}

#[test]
fn cache_counters_match_the_pre_fast_path_sampler() {
    // The fast path must count exactly what the full lookup counted: a
    // hit where the table exists, nothing where it does not. A budget
    // this small flushes every few builds; a `zero_cut` entry surviving
    // a flush would turn the next draw's miss into a hit. The pinned
    // counters were produced by the sampler before the fast path
    // existed, over this same sequence (runs of 8 draws per n, so hits
    // and rebuilds interleave).
    let ps = [0.01, 0.09];
    let mut cache = TableCache::new(&ps, 160);
    let key = class_cell_key(3, 1, class_hash([1, 1, 2, 3]));
    for counter in 0..6_000u64 {
        let slot = (counter % 2) as usize;
        let n = 1 + (counter / 8 * 7 % 16) as u32;
        assert_eq!(
            cache.draw(slot, key, counter, n),
            keyed_binomial(key, counter, n, ps[slot])
        );
    }
    let s = cache.stats();
    assert!(s.evictions > 0, "test premise: flushes must happen");
    assert_eq!((s.hits, s.misses, s.evictions), PINNED_COUNTERS);
}

const PINNED_COUNTERS: (u64, u64, u64) = (4365, 1635, 1629);

#[test]
fn kernel_cache_counters_match_the_per_draw_kernel() {
    // The kernel's counters on a Table-I fleet at paper host density,
    // 200 steps, at 1 and 4 workers: every jump drawn from the jump
    // tables is a hit, and no cell here is dense, so no binomial table
    // is built. Pinned since the next-event kernel; the per-step kernel
    // before it read (2 144 987, 171, 0), two draws per cell per step.
    let n = 20_000;
    let mut gen = FleetGenerator::new(1);
    let vms = gen.vms_table_i(n, WorkloadPattern::EqualSpike);
    let pms = gen.pms(n / 4);
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let placement = first_fit(&vms, &pms, &strategy).unwrap();
    for threads in [1usize, 4] {
        let mut kernel =
            ClassCoreBench::new(&vms, pms.len(), &placement.assignment, 1, threads, true);
        for _ in 0..200 {
            kernel.step();
        }
        assert_eq!(
            kernel.cache_stats(),
            PINNED_KERNEL_COUNTERS,
            "{threads} threads"
        );
    }
}

const PINNED_KERNEL_COUNTERS: (u64, u64, u64) = (67_471, 0, 0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized sweep of the bit-identity contract over the whole
    /// (n, p) plane the engine can reach, both anchor regimes included.
    #[test]
    fn cache_draw_equals_walk_everywhere(
        n in 1u32..20_000,
        p_mil in 1u32..1_000_000,
        seed in 0u64..1_000,
    ) {
        let p = f64::from(p_mil) / 1e6;
        let key = class_cell_key(seed, 11, class_hash([9, 9, 9, 9]));
        let mut cache = TableCache::new(&[p], 1 << 20);
        for counter in 0..256u64 {
            prop_assert_eq!(
                cache.draw(0, key, counter, n),
                keyed_binomial(key, counter, n, p),
                "n={} p={} counter={}", n, p, counter
            );
        }
    }
}

/// Chi-square re-certification of the cached sampler: draws taken
/// through the cache — with a budget small enough to force generation
/// flushes mid-stream — must follow `Binomial(k, π)`. Flushes rebuild
/// tables from the same `(n, p)`, so they must be statistically
/// invisible.
#[test]
fn cached_draws_pass_chi_square_against_the_binomial_law() {
    let (n, p) = (40u32, 0.35f64);
    let draws = 200_000u64;
    // A budget below one table's entries forces a rebuild every draw
    // in the worst case; alternate n slightly to actually churn it.
    let mut cache = TableCache::new(&[p], 96);
    let key = class_cell_key(2024, 5, class_hash([4, 3, 2, 1]));
    let mut histogram = vec![0u64; n as usize + 1];
    for counter in 0..draws {
        // Interleave a second n to exercise eviction pressure.
        let _ = cache.draw(0, key, u64::MAX - counter, n - 1);
        let x = cache.draw(0, key, counter, n);
        histogram[x as usize] += 1;
    }
    assert!(
        cache.stats().evictions > 0,
        "test premise: flushes must happen mid-stream"
    );
    // Pool bins with expected count < 5 into the tails (standard
    // chi-square validity rule).
    let law = BinomialPmf::new(u64::from(n), p);
    let expected: Vec<f64> = (0..=u64::from(n))
        .map(|k| law.pmf(k) * draws as f64)
        .collect();
    let mut chi2 = 0.0;
    let mut pooled_obs = 0.0;
    let mut pooled_exp = 0.0;
    let mut dof: i64 = -1;
    for k in 0..=n as usize {
        if expected[k] < 5.0 {
            pooled_obs += histogram[k] as f64;
            pooled_exp += expected[k];
        } else {
            let d = histogram[k] as f64 - expected[k];
            chi2 += d * d / expected[k];
            dof += 1;
        }
    }
    if pooled_exp > 0.0 {
        let d = pooled_obs - pooled_exp;
        chi2 += d * d / pooled_exp;
        dof += 1;
    }
    // 99.9th percentile of chi-square at the realized dof (~17 pooled
    // bins for Binomial(40, 0.35)): comfortably above any healthy run,
    // far below a broken sampler.
    let dof = dof.max(1) as f64;
    let threshold = dof + 3.09 * (2.0 * dof).sqrt() + 2.0 * 3.09 * 3.09 / 3.0;
    assert!(
        chi2 < threshold,
        "chi2 {chi2:.2} over threshold {threshold:.2} at dof {dof}"
    );
}
