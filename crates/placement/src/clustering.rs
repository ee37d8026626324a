//! The `O(n)` spike-size clustering of Algorithm 2, lines 7–9.
//!
//! The paper clusters VMs "so that VMs with similar `R_e` are in the same
//! cluster", sorts clusters by `R_e` descending and VMs within a cluster by
//! `R_b` descending. Co-locating similar spike sizes keeps the uniform
//! block size (`max R_e` of the PM) close to every member's own `R_e`,
//! minimizing over-reservation.

use bursty_workload::VmSpec;

/// Partitions `vms` into `buckets` equal-width `R_e` bands (an `O(n)`
/// clustering, as the paper prescribes), then returns VM *indices* ordered
/// cluster-by-cluster: clusters by `R_e` band descending, members by `R_b`
/// descending — Algorithm 2's order spelled out bucket by bucket. The
/// packers derive the same order from QUEUE's sort keys
/// ([`crate::strategy::ffd_order`]); this is the oracle that
/// `ReferenceOnlineCluster` places batches by and the tests hold the
/// derived order to.
///
/// With `buckets = 1` this degrades to plain FFD-by-`R_b`; more buckets
/// give finer spike-size segregation. The paper leaves the clustering
/// method open; equal-width bucketing matches its `O(n)` cost note.
///
/// # Panics
/// Panics if `buckets == 0`.
pub(crate) fn cluster_order(vms: &[VmSpec], buckets: usize) -> Vec<usize> {
    let bands = cluster_bands(vms, buckets);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    for (i, &band) in bands.iter().enumerate() {
        clusters[band as usize].push(i);
    }
    // Highest R_e band first; within a band, R_b descending.
    let mut order = Vec::with_capacity(vms.len());
    for cluster in clusters.iter_mut().rev() {
        cluster.sort_by(|&a, &b| vms[b].r_b.total_cmp(&vms[a].r_b));
        order.extend_from_slice(cluster);
    }
    order
}

/// The equal-width `R_e` band of every VM — the cluster assignment
/// [`cluster_order`] groups by, and the band of QUEUE's sort keys.
/// `cluster_order(vms, buckets)` is exactly a stable sort of `0..n` by
/// `(band descending, R_b descending)` over these bands.
///
/// # Panics
/// Panics if `buckets == 0`.
pub(crate) fn cluster_bands(vms: &[VmSpec], buckets: usize) -> Vec<u32> {
    assert!(buckets > 0, "need at least one bucket");
    if vms.is_empty() {
        return Vec::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in vms {
        lo = lo.min(v.r_e);
        hi = hi.max(v.r_e);
    }
    let width = if hi > lo {
        (hi - lo) / buckets as f64
    } else {
        1.0
    };
    // Bucket index for a spike size; the max value lands in the top bucket.
    vms.iter()
        .map(|v| (((v.r_e - lo) / width) as usize).min(buckets - 1) as u32)
        .collect()
}

/// The default bucket count used by QueuingFFD: `⌈√n⌉`, a standard
/// density/granularity compromise for equal-width binning.
pub fn default_buckets(n: usize) -> usize {
    (n as f64).sqrt().ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    #[test]
    fn cluster_order_is_a_permutation() {
        let vms: Vec<VmSpec> = (0..20)
            .map(|i| vm(i, 2.0 + (i % 7) as f64, 2.0 + (i % 5) as f64))
            .collect();
        let mut order = cluster_order(&vms, 4);
        order.sort_unstable();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn clusters_come_out_in_descending_re_bands() {
        let vms = vec![
            vm(0, 1.0, 2.0),
            vm(1, 1.0, 19.0),
            vm(2, 1.0, 10.0),
            vm(3, 1.0, 18.0),
        ];
        let order = cluster_order(&vms, 3);
        // Band boundaries: [2, 7.67), [7.67, 13.3), [13.3, 19].
        assert_eq!(&order[..2], &[1, 3]);
        assert_eq!(order[2], 2);
        assert_eq!(order[3], 0);
    }

    #[test]
    fn within_cluster_rb_descending() {
        // All in one band.
        let vms = vec![vm(0, 5.0, 10.0), vm(1, 9.0, 10.1), vm(2, 7.0, 9.9)];
        let order = cluster_order(&vms, 1);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn identical_re_all_land_in_one_bucket() {
        let vms: Vec<VmSpec> = (0..5).map(|i| vm(i, (i + 1) as f64, 4.0)).collect();
        let order = cluster_order(&vms, 8);
        // Degenerate range: single band, R_b descending.
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn empty_input_gives_empty_order() {
        assert!(cluster_order(&[], 3).is_empty());
    }

    #[test]
    fn single_bucket_is_ffd_by_rb() {
        let vms = vec![vm(0, 2.0, 20.0), vm(1, 8.0, 2.0), vm(2, 5.0, 11.0)];
        assert_eq!(cluster_order(&vms, 1), vec![1, 2, 0]);
    }

    #[test]
    fn default_buckets_scales_with_sqrt() {
        assert_eq!(default_buckets(0), 1);
        assert_eq!(default_buckets(1), 1);
        assert_eq!(default_buckets(100), 10);
        assert_eq!(default_buckets(101), 11);
    }

    #[test]
    #[should_panic(expected = "bucket")]
    fn zero_buckets_panics() {
        let _ = cluster_order(&[], 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn vms_strategy() -> impl Strategy<Value = Vec<VmSpec>> {
        proptest::collection::vec((1.0f64..20.0, 0.0f64..20.0), 0..40).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (rb, re))| VmSpec::new(i, 0.01, 0.09, rb, re))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn always_a_permutation(vms in vms_strategy(), buckets in 1usize..10) {
            let mut order = cluster_order(&vms, buckets);
            order.sort_unstable();
            prop_assert_eq!(order, (0..vms.len()).collect::<Vec<_>>());
        }

        #[test]
        fn cluster_representative_re_nonincreasing(vms in vms_strategy(), buckets in 1usize..10) {
            // Walking the order, a strictly higher R_e band must never
            // reappear after we've left it (bands are emitted high→low).
            prop_assume!(!vms.is_empty());
            let order = cluster_order(&vms, buckets);
            let lo = vms.iter().map(|v| v.r_e).fold(f64::INFINITY, f64::min);
            let hi = vms.iter().map(|v| v.r_e).fold(f64::NEG_INFINITY, f64::max);
            let width = if hi > lo { (hi - lo) / buckets as f64 } else { 1.0 };
            let band = |re: f64| (((re - lo) / width) as usize).min(buckets - 1);
            let bands: Vec<usize> = order.iter().map(|&i| band(vms[i].r_e)).collect();
            for w in bands.windows(2) {
                prop_assert!(w[0] >= w[1], "bands out of order: {bands:?}");
            }
        }
    }
}
