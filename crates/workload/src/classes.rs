//! Equivalence classes of VM specifications.
//!
//! The paper's admission test (Eq. 17) depends on a VM only through its
//! four-tuple `(p_on, p_off, R_b, R_e)` — two VMs with identical tuples are
//! interchangeable everywhere in the consolidation pipeline. Production
//! fleets are built from a handful of instance types (Table I has seven
//! rows), so a million-VM input typically collapses to a few dozen
//! classes. This module extracts that structure:
//!
//! * [`VmClass`] — the tuple itself, hashable by exact bit pattern (no
//!   tolerance matching: only bit-identical specs are interchangeable
//!   under bit-identical arithmetic).
//! * [`class_runs`] — run-length-encodes a placement *order* into maximal
//!   runs of consecutive same-class VMs, preserving the order exactly (the
//!   paper's cluster-by-`R_e` / sort-by-`R_b` order puts same-class VMs
//!   next to each other, so the encoding is near-perfect there, but any
//!   order is legal — runs just get shorter).
//! * [`intern_classes`] — the one exact-key dedup pass: class ids in
//!   first-appearance order from a bounded linear-scan table that spills
//!   to a hash map, shared by the packer's collapse, the simulator's class
//!   table and [`distinct_classes`].

use crate::spec::VmSpec;
use std::collections::HashMap;

/// An equivalence class of VMs: the spec four-tuple without the id.
/// Equality and hashing use the exact bit patterns of the four fields, so
/// two classes compare equal exactly when every packing/admission
/// computation treats their members identically.
#[derive(Debug, Clone, Copy)]
pub struct VmClass {
    /// OFF→ON switch probability.
    pub p_on: f64,
    /// ON→OFF switch probability.
    pub p_off: f64,
    /// Normal-level (base) demand `R_b`.
    pub r_b: f64,
    /// Spike size `R_e`.
    pub r_e: f64,
}

impl VmClass {
    /// The class of a VM.
    #[inline]
    pub fn of(vm: &VmSpec) -> Self {
        Self {
            p_on: vm.p_on,
            p_off: vm.p_off,
            r_b: vm.r_b,
            r_e: vm.r_e,
        }
    }

    /// The exact dedup key: bit patterns of the four fields.
    #[inline]
    pub fn key(&self) -> [u64; 4] {
        [
            self.p_on.to_bits(),
            self.p_off.to_bits(),
            self.r_b.to_bits(),
            self.r_e.to_bits(),
        ]
    }
}

impl PartialEq for VmClass {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for VmClass {}

impl std::hash::Hash for VmClass {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

/// A maximal run of consecutive same-class VMs inside a placement order:
/// positions `start .. start + len` of the order slice all hold VMs of
/// `class`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassRun {
    /// The shared spec tuple of every VM in the run.
    pub class: VmClass,
    /// First position in the *order* slice (not a VM index).
    pub start: usize,
    /// Number of consecutive same-class positions.
    pub len: usize,
}

/// Run-length-encodes `order` (a permutation of VM indices, e.g. the
/// output of a packing strategy's ordering) into maximal [`ClassRun`]s.
/// Concatenating the runs reproduces `order` exactly, so a packer that
/// processes runs left to right visits VMs in the same sequence a per-VM
/// packer would.
pub fn class_runs(vms: &[VmSpec], order: &[usize]) -> Vec<ClassRun> {
    let mut runs: Vec<ClassRun> = Vec::new();
    for (pos, &i) in order.iter().enumerate() {
        let class = VmClass::of(&vms[i]);
        match runs.last_mut() {
            Some(run) if run.class == class => run.len += 1,
            _ => runs.push(ClassRun {
                class,
                start: pos,
                len: 1,
            }),
        }
    }
    runs
}

/// Classes the interner keeps in its linear-scan table before spilling to
/// a hash map: at this size the table (32 bytes a key) stays in L1 and a
/// scan of plain `u64` words beats hashing every VM's key; production
/// fleets have tens of instance types.
const TABLE_CLASSES: usize = 96;

/// Interns every VM's class key in first-appearance order — the one
/// class-dedupe pass the packer's collapse, the simulator's class table and
/// [`distinct_classes`] share. `visit(i, id)` is called once per VM, in
/// fleet order, with its class id (`id` equals the number of classes seen
/// before `vms[i]` exactly when `vms[i]` is the first member of a new
/// class). Returns the number of distinct classes, or `None` as soon as
/// more than `cap` have appeared — the VM that overflowed is not visited.
///
/// The first [`TABLE_CLASSES`] classes are found by a linear scan over
/// their cached keys, so a class-heavy fleet costs one memory pass and is
/// never hashed; a fleet with more classes moves the table into a
/// `HashMap` once and hashes from there on. The scan reads every key and
/// selects the match without a branch: its trip count is the class
/// count, which changes at most [`TABLE_CLASSES`] times, so a fleet of a
/// few classes in random order does not mispredict an exit at the match
/// on most VMs.
pub fn intern_classes(
    vms: &[VmSpec],
    cap: usize,
    mut visit: impl FnMut(usize, u32),
) -> Option<usize> {
    let mut table: Vec<[u64; 4]> = Vec::new();
    let mut spill: Option<HashMap<[u64; 4], u32>> = None;
    let mut classes = 0usize;
    for (i, vm) in vms.iter().enumerate() {
        let key = VmClass::of(vm).key();
        let known = match &spill {
            None => full_scan(&table, &key),
            Some(map) => map.get(&key).copied(),
        };
        let id = match known {
            Some(id) => id,
            None => {
                if classes == cap {
                    return None;
                }
                let id = classes as u32;
                if classes < TABLE_CLASSES {
                    table.push(key);
                } else {
                    spill
                        .get_or_insert_with(|| {
                            let mut map = HashMap::with_capacity(vms.len().min(1024));
                            map.extend(table.iter().copied().zip(0u32..));
                            map
                        })
                        .insert(key, id);
                }
                classes += 1;
                id
            }
        };
        visit(i, id);
    }
    Some(classes)
}

/// The position of `key` in `table`, whose keys are distinct, read
/// without an early exit and selected without branching on the match.
#[inline]
fn full_scan(table: &[[u64; 4]], key: &[u64; 4]) -> Option<u32> {
    let mut hit = u32::MAX;
    for (at, k) in table.iter().enumerate() {
        let diff = (k[0] ^ key[0]) | (k[1] ^ key[1]) | (k[2] ^ key[2]) | (k[3] ^ key[3]);
        hit = if diff == 0 { at as u32 } else { hit };
    }
    (hit != u32::MAX).then_some(hit)
}

/// Number of distinct classes in the fleet.
pub fn distinct_classes(vms: &[VmSpec]) -> usize {
    intern_classes(vms, usize::MAX, |_, _| {}).expect("no cap to overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    #[test]
    fn class_equality_is_bit_exact() {
        let a = VmClass::of(&vm(0, 5.0, 2.0));
        let b = VmClass::of(&vm(9, 5.0, 2.0));
        let c = VmClass::of(&vm(1, 5.0, 2.0 + 1e-12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, VmClass::of(&vm(3, 5.0, 2.5)));
    }

    #[test]
    fn probabilities_are_part_of_the_key() {
        let a = VmClass::of(&VmSpec::new(0, 0.01, 0.09, 5.0, 2.0));
        let b = VmClass::of(&VmSpec::new(0, 0.02, 0.09, 5.0, 2.0));
        assert_ne!(a, b);
    }

    #[test]
    fn runs_cover_the_order_exactly() {
        let vms = vec![vm(0, 5.0, 2.0), vm(1, 5.0, 2.0), vm(2, 3.0, 2.0)];
        let order = [2, 0, 1];
        let runs = class_runs(&vms, &order);
        assert_eq!(runs.len(), 2);
        assert_eq!((runs[0].start, runs[0].len), (0, 1));
        assert_eq!((runs[1].start, runs[1].len), (1, 2));
        assert_eq!(runs[1].class, VmClass::of(&vms[0]));
        let total: usize = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, order.len());
    }

    #[test]
    fn interleaved_classes_split_runs() {
        // Same class at positions 0 and 2 with a different class between:
        // three runs, not two.
        let vms = vec![vm(0, 5.0, 2.0), vm(1, 4.0, 2.0), vm(2, 5.0, 2.0)];
        let runs = class_runs(&vms, &[0, 1, 2]);
        assert_eq!(runs.len(), 3);
    }

    #[test]
    fn empty_inputs() {
        assert!(class_runs(&[], &[]).is_empty());
        assert_eq!(intern_classes(&[], 0, |_, _| unreachable!()), Some(0));
        assert_eq!(distinct_classes(&[]), 0);
    }

    #[test]
    fn collapse_counts_and_orders_by_first_appearance() {
        let vms = vec![
            vm(0, 5.0, 2.0),
            vm(1, 3.0, 1.0),
            vm(2, 5.0, 2.0),
            vm(3, 5.0, 2.0),
        ];
        let mut ids = Vec::new();
        assert_eq!(intern_classes(&vms, 2, |i, id| ids.push((i, id))), Some(2));
        assert_eq!(ids, [(0, 0), (1, 1), (2, 0), (3, 0)]);
        assert_eq!(distinct_classes(&vms), 2);
        // One class too many for the cap: the pass stops at the VM that
        // overflowed, without visiting it.
        ids.clear();
        assert_eq!(intern_classes(&vms, 1, |i, id| ids.push((i, id))), None);
        assert_eq!(ids, [(0, 0)]);
    }

    #[test]
    fn ids_keep_first_appearance_order_across_the_spill() {
        // More classes than the linear-scan table holds, every one met
        // again after the hash map took over: ids must be what a plain
        // first-appearance numbering gives, on both sides of the seam.
        let k = TABLE_CLASSES + 40;
        let vms: Vec<VmSpec> = (0..3 * k)
            .map(|i| vm(i, 1.0 + (i % k) as f64 * 0.25, 1.0))
            .collect();
        let mut ids = Vec::new();
        assert_eq!(
            intern_classes(&vms, usize::MAX, |_, id| ids.push(id)),
            Some(k)
        );
        assert!(ids.iter().enumerate().all(|(i, &id)| id as usize == i % k));
        assert_eq!(intern_classes(&vms, k, |_, _| {}), Some(k));
        assert_eq!(intern_classes(&vms, k - 1, |_, _| {}), None);
        assert_eq!(intern_classes(&vms, TABLE_CLASSES, |_, _| {}), None);
        assert_eq!(
            intern_classes(&vms[..TABLE_CLASSES], TABLE_CLASSES, |_, _| {}),
            Some(TABLE_CLASSES)
        );
    }

    #[test]
    fn ids_match_a_first_appearance_oracle_for_every_class_count() {
        // k = 1..200 classes drawn in random order: the table scan and
        // the hash map past TABLE_CLASSES must both number classes as a
        // HashMap does.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for k in 1..=200usize {
            let vms: Vec<VmSpec> = (0..4 * k)
                .map(|i| vm(i, 1.0 + rng.gen_range(0..k) as f64 * 0.5, 2.0))
                .collect();
            let mut oracle: HashMap<[u64; 4], u32> = HashMap::new();
            let expect: Vec<u32> = vms
                .iter()
                .map(|v| {
                    let next = oracle.len() as u32;
                    *oracle.entry(VmClass::of(v).key()).or_insert(next)
                })
                .collect();
            let mut ids = Vec::new();
            let classes = intern_classes(&vms, usize::MAX, |_, id| ids.push(id));
            assert_eq!(classes, Some(oracle.len()), "k = {k}");
            assert_eq!(ids, expect, "k = {k}");
        }
    }

    #[test]
    fn table_i_fleet_collapses_hard() {
        use crate::fleet::FleetGenerator;
        use crate::patterns::WorkloadPattern;
        let mut g = FleetGenerator::new(5);
        let vms = g.vms_table_i(1000, WorkloadPattern::EqualSpike);
        // Equal-spike Table I has three rows: (S,S), (M,M), (L,L).
        assert_eq!(distinct_classes(&vms), 3);
        let mut counts = [0usize; 3];
        intern_classes(&vms, 3, |_, id| counts[id as usize] += 1);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
