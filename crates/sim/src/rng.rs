//! Counter-based random streams for [`RngLayout::ClassAggregated`].
//!
//! The shared layout walks one sequential generator, so draw `i` of step
//! `t` depends on every draw before it — inherently serial. A *counter-
//! based* generator instead computes each draw as a pure function of its
//! coordinates `(seed, stream, counter)`: any thread can produce any
//! `(PM, class)` cell's draw for any step without touching shared state,
//! which is what makes the class-aggregated hot path embarrassingly
//! parallel *and* bit-reproducible at every thread count.
//!
//! The mixer is the SplitMix64 finalizer (Steele, Lea & Flood 2014) —
//! the same avalanche function the vendored `StdRng` already uses for
//! seeding. Two rounds over distinct golden-ratio multiples of the
//! coordinates decorrelate neighbouring `(stream, counter)` cells far
//! beyond what a two-state ON-OFF chain can detect; the statistical
//! tests in this module and the chi-square / marginal checks in
//! `sim/tests/binomial_table.rs` and `sim/tests/class_equivalence.rs`
//! guard that claim.
//!
//! [`RngLayout::ClassAggregated`]: crate::config::RngLayout::ClassAggregated

#[path = "binomial_table.rs"]
pub mod binomial_table;

/// Weyl increment: 2^64 / φ, the SplitMix64 stream constant.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Second odd constant (from MurmurHash3/SplitMix64 finalizers) keeping
/// the `stream` and `counter` axes from aliasing under the same mixer.
const MIX_B: u64 = 0x94D0_49BB_1331_11EB;

/// SplitMix64 finalizer: full-avalanche 64-bit mixing (every input bit
/// flips each output bit with probability ~1/2).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_B);
    z ^ (z >> 31)
}

/// The key of one stream: a mixed combination of the run seed and the
/// stream's index. Hoisting this out of the per-step call saves one
/// `mix64` round in the hot loop.
#[inline]
pub(crate) fn stream_key(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_mul(GOLDEN) ^ MIX_B))
}

/// Draw `counter` of a keyed stream as an integer `k < 2⁵³`: the top 53
/// bits of the mixed word (the full mantissa width, the same precision
/// as the vendored `StdRng::gen::<f64>()`).
#[inline]
pub(crate) fn keyed_bits(key: u64, counter: u64) -> u64 {
    mix64(key ^ counter.wrapping_mul(GOLDEN)) >> 11
}

/// The uniform `u = k · 2⁻⁵³` in `[0, 1)` of a 53-bit draw `k`.
#[inline]
pub(crate) fn bits_to_u01(bits: u64) -> f64 {
    bits as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draw `counter` of a keyed stream as a uniform `f64` in `[0, 1)`.
#[inline]
pub(crate) fn keyed_u01(key: u64, counter: u64) -> f64 {
    bits_to_u01(keyed_bits(key, counter))
}

/// `ceil(p · 2⁵³)`: a probability in the integer units of a 53-bit draw
/// `k`, whose uniform is `u = k · 2⁻⁵³`. Both `k · 2⁻⁵³` and `p · 2⁵³`
/// are exact in `f64` (scaling by a power of two only moves the
/// exponent), so `u < p` ⇔ `k < p · 2⁵³` ⇔ `k < ceil(p · 2⁵³)`: the same
/// decision with no convert. The saturating cast sends a `p` that can
/// never fire (`p ≤ 0`, NaN) to 0 and one that always fires (`p > 1`)
/// past every `k`.
#[inline]
pub(crate) fn flip_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Content hash of a VM class's exact bit-pattern key (the
/// `workload::classes::VmClass::key()` four-tuple), for keying
/// per-(PM, class) streams. A *content* hash — never a first-appearance
/// index — so the stream a class draws from is invariant under the order
/// classes are enumerated in the fleet.
#[inline]
pub fn class_hash(key: [u64; 4]) -> u64 {
    let mut acc = MIX_B;
    for word in key {
        acc = mix64(acc ^ word.wrapping_mul(GOLDEN));
    }
    acc
}

/// The key of one per-(PM, class) stream under
/// [`RngLayout::ClassAggregated`]: a pure function of the run seed, the
/// PM index and the class content hash. The engine uses `pm = m` (one
/// past the last PM) for the displaced-VM limbo pool.
///
/// [`RngLayout::ClassAggregated`]: crate::config::RngLayout::ClassAggregated
#[inline]
pub fn class_cell_key(seed: u64, pm: u64, class_hash: u64) -> u64 {
    stream_key(seed, mix64(class_hash ^ pm.wrapping_mul(GOLDEN)))
}

/// Deterministic `Binomial(n, p)` draw at `(key, counter)` coordinates:
/// one [`keyed_u01`] uniform inverted through the CDF by the standard
/// pmf-recurrence walk `pmf(k+1) = pmf(k)·(n−k)/(k+1)·p/(1−p)`.
///
/// Pure and stateless like [`keyed_u01`], so any thread can compute any
/// cell's draw for any step — that is what makes the class-aggregated
/// layout thread-count invariant. Cost is `O(E[X] + 1)` per draw: the
/// walk stops at the sampled value, and the chains this samples for keep
/// `n·p` small (`p_on`/`p_off` are per-step switch probabilities, a few
/// percent). The loop is bounded by `n` regardless of roundoff.
#[inline]
pub fn keyed_binomial(key: u64, counter: u64, n: u32, p: f64) -> u32 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    binomial_from_u01(keyed_u01(key, counter), n, p)
}

/// The walk's anchor: the first value covered and its pmf. `(0, q^n)`
/// when `q^n` is representable; otherwise (possible for cells of many
/// thousands of VMs) the lower 12σ edge of the distribution with the
/// anchor pmf evaluated in log space — the skipped left tail carries
/// < 1e-30 probability mass. Shared verbatim between the walk and
/// [`binomial_table::BinomialTable::build`], which is one half of the
/// table's bit-identity contract.
#[inline]
pub(crate) fn walk_anchor(n: u32, p: f64, q: f64) -> (u32, f64) {
    let pmf = q.powi(n as i32);
    if pmf > 0.0 {
        return (0, pmf);
    }
    let mean = n as f64 * p;
    let start = (mean - 12.0 * (mean * q).sqrt()).floor().max(0.0) as u32;
    use bursty_markov::binomial::ln_gamma;
    let ln_pmf = ln_gamma(f64::from(n) + 1.0)
        - ln_gamma(f64::from(start) + 1.0)
        - ln_gamma(f64::from(n - start) + 1.0)
        + f64::from(start) * p.ln()
        + f64::from(n - start) * q.ln();
    (start, ln_pmf.exp())
}

/// The inverse-CDF walk applied to an explicit uniform: the mapping
/// [`keyed_binomial`] pushes its keyed draw through. Exposed so the
/// memoized tables in [`binomial_table`] can be differential-tested
/// against the walk at the `u` level.
#[inline]
pub fn binomial_from_u01(u: f64, n: u32, p: f64) -> u32 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let q = 1.0 - p;
    let ratio = p / q;
    // Ordered inverse-CDF walk from the anchor: O(E[X] + 1) per draw
    // for the small switch probabilities the ON-OFF chains use. The
    // loop is bounded by `n` regardless of roundoff.
    let (start, mut pmf) = walk_anchor(n, p, q);
    let mut cdf = pmf;
    let mut k = start;
    while u >= cdf && k < n {
        pmf *= (n - k) as f64 / (k + 1) as f64 * ratio;
        k += 1;
        cdf += pmf;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform `[0, 1)` draw at coordinates `(seed, stream, counter)`.
    fn u01_at(seed: u64, stream: u64, counter: u64) -> f64 {
        keyed_u01(stream_key(seed, stream), counter)
    }

    #[test]
    fn draws_are_in_unit_interval() {
        for seed in [0, 1, u64::MAX] {
            for stream in [0, 7, 63, u64::MAX] {
                for counter in [0, 1, 999, u64::MAX] {
                    let u = u01_at(seed, stream, counter);
                    assert!((0.0..1.0).contains(&u), "u = {u}");
                }
            }
        }
    }

    #[test]
    fn pure_function_of_coordinates() {
        let a = u01_at(42, 3, 17);
        let b = u01_at(42, 3, 17);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn distinct_streams_and_counters_decorrelate() {
        // Neighbouring coordinates must not produce near-identical draws:
        // the same counter across adjacent streams, and adjacent counters
        // within one stream, should both look independent.
        let mut same = 0usize;
        for i in 0..1000u64 {
            if (u01_at(1, i, 0) - u01_at(1, i + 1, 0)).abs() < 1e-6 {
                same += 1;
            }
            if (u01_at(1, 0, i) - u01_at(1, 0, i + 1)).abs() < 1e-6 {
                same += 1;
            }
        }
        assert!(same <= 1, "{same} near-collisions in 2000 neighbour pairs");
    }

    #[test]
    fn mean_and_variance_close_to_uniform() {
        // 64 streams × 4096 counters ≈ a small fleet's worth of draws.
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let count = 64 * 4096;
        for stream in 0..64u64 {
            for counter in 0..4096u64 {
                let u = u01_at(20130527, stream, counter);
                sum += u;
                sum_sq += u * u;
            }
        }
        let mean = sum / count as f64;
        let var = sum_sq / count as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.002, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.002, "var {var}");
    }

    #[test]
    fn seed_changes_every_stream() {
        let mut diff = 0usize;
        for stream in 0..256u64 {
            if u01_at(1, stream, 0) != u01_at(2, stream, 0) {
                diff += 1;
            }
        }
        assert_eq!(diff, 256, "a seed change must re-key every stream");
    }

    #[test]
    fn binomial_edge_cases() {
        let key = stream_key(1, 0);
        assert_eq!(keyed_binomial(key, 0, 0, 0.5), 0);
        assert_eq!(keyed_binomial(key, 0, 10, 0.0), 0);
        assert_eq!(keyed_binomial(key, 0, 10, -0.1), 0);
        assert_eq!(keyed_binomial(key, 0, 10, 1.0), 10);
        for counter in 0..100 {
            let x = keyed_binomial(key, counter, 7, 0.3);
            assert!(x <= 7);
        }
    }

    #[test]
    fn binomial_is_pure_function_of_coordinates() {
        let key = class_cell_key(42, 3, class_hash([1, 2, 3, 4]));
        let a = keyed_binomial(key, 17, 25, 0.09);
        let b = keyed_binomial(key, 17, 25, 0.09);
        assert_eq!(a, b);
    }

    #[test]
    fn binomial_moments_match_the_law() {
        // Binomial(n, p) has mean np and variance npq; 40k draws pin both
        // to a few percent.
        for &(n, p) in &[(8u32, 0.09f64), (30, 0.01), (100, 0.25)] {
            let key = class_cell_key(7, 11, class_hash([5, 6, 7, 8]));
            let draws = 40_000u64;
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for counter in 0..draws {
                let x = f64::from(keyed_binomial(key, counter ^ (u64::from(n) << 32), n, p));
                sum += x;
                sum_sq += x * x;
            }
            let mean = sum / draws as f64;
            let var = sum_sq / draws as f64 - mean * mean;
            let (m, v) = (f64::from(n) * p, f64::from(n) * p * (1.0 - p));
            assert!(
                (mean - m).abs() < 0.05 * m.max(1.0),
                "n={n} p={p} mean {mean} vs {m}"
            );
            assert!(
                (var - v).abs() < 0.08 * v.max(1.0),
                "n={n} p={p} var {var} vs {v}"
            );
        }
    }

    #[test]
    fn binomial_large_n_path_is_sane() {
        // n large enough that q^n underflows: the log-space anchored walk
        // must still sample near np, never the saturated n.
        let key = stream_key(9, 4);
        let (n, p) = (50_000u32, 0.09f64);
        assert_eq!((1.0 - p).powi(n as i32), 0.0, "test premise: underflow");
        let draws = 2_000u64;
        let mut sum = 0.0;
        for counter in 0..draws {
            let x = keyed_binomial(key, counter, n, p);
            assert!(x < n, "saturated draw {x}");
            sum += f64::from(x);
        }
        let mean = sum / draws as f64;
        let expect = f64::from(n) * p;
        assert!(
            (mean - expect).abs() < 0.02 * expect,
            "mean {mean} vs {expect}"
        );
    }
}
