//! Batch re-placement of displaced VMs ("evacuation") over the headroom
//! index.
//!
//! When a PM crashes, every hosted VM must find a new home at once. Probing
//! each candidate PM linearly per VM is `O(k · m)`; this driver reuses the
//! [`HeadroomIndex`] segment tree from the packers so the whole batch costs
//! `O((k + r) log m)` — the same pruning contract as
//! [`crate::Strategy::headroom`] (`admits ⇒ headroom ≥ demand`), with the
//! admission rule supplied as a closure so the sim layer can plug in its
//! runtime policies (which this crate does not know about) without
//! duplicating the probe logic.
//!
//! Displaced VMs are processed in decreasing demand order (FFD): large
//! evacuees claim scarce contiguous headroom first, which maximizes how
//! many of the batch land — the mirror of Algorithm 2's decreasing order
//! at initial packing time.

use crate::index::HeadroomIndex;
use crate::pack::PRUNE_SLACK;
use bursty_obs::{Counter, Recorder};

/// Result of one evacuation batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvacuationOutcome {
    /// `(slot, pm)` for every displaced VM that found a target, in
    /// placement order (decreasing demand, ties by slot index).
    pub placed: Vec<(usize, usize)>,
    /// Slots that no PM admitted, in the same order.
    pub unplaced: Vec<usize>,
}

/// Re-places a batch of displaced VMs (identified by *slot* index into
/// `demands`) onto the PMs indexed by `index`.
///
/// * `demands[slot]` — the headroom requirement of the displaced VM under
///   the active admission rule's demand measure; the index prunes PMs whose
///   headroom is below it, less the packers' `PRUNE_SLACK`, so ulp-level
///   differences between the rule and its headroom measure cannot hide an
///   admissible PM.
/// * `place(pm, slot)` — the full admission check plus commit: returns
///   `Some(new_headroom)` when the PM admits the VM (the caller must have
///   applied the placement to its own state by the time it returns — the
///   updated headroom is written back into the index so the rest of the
///   batch sees the admission), or `None` to refuse, in which case the
///   probe skips ahead to the next candidate.
/// * `rec` — counts every `place` probe ([`Counter::EvacProbes`]) and
///   every refusal ([`Counter::EvacRefusals`]); it is an argument of its
///   own, not captured by `place`, so the caller's closure can keep
///   exclusive borrows of its own placement state.
///
/// Slots whose demand is non-finite are reported unplaced without probing
/// (a `NEG_INFINITY` headroom marks a PM unavailable; a non-finite demand
/// marks a VM unplaceable).
pub fn evacuate_batch_recorded<R: Recorder>(
    demands: &[f64],
    index: &mut HeadroomIndex,
    rec: &mut R,
    mut place: impl FnMut(usize, usize) -> Option<f64>,
) -> EvacuationOutcome {
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[b].total_cmp(&demands[a]).then(a.cmp(&b)));

    let mut outcome = EvacuationOutcome {
        placed: Vec::new(),
        unplaced: Vec::new(),
    };
    for slot in order {
        let demand = demands[slot];
        if !demand.is_finite() {
            outcome.unplaced.push(slot);
            continue;
        }
        let mut from = 0;
        let target = loop {
            match index.first_at_least(from, demand - PRUNE_SLACK) {
                Some(j) => {
                    rec.counter_inc(Counter::EvacProbes);
                    match place(j, slot) {
                        Some(headroom) => break Some((j, headroom)),
                        None => {
                            rec.counter_inc(Counter::EvacRefusals);
                            from = j + 1;
                        }
                    }
                }
                None => break None,
            }
        };
        match target {
            Some((j, headroom)) => {
                index.update(j, headroom);
                outcome.placed.push((slot, j));
            }
            None => outcome.unplaced.push(slot),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_obs::NoopRecorder;

    /// A toy capacity model: PMs admit while used + demand ≤ cap.
    struct Farm {
        caps: Vec<f64>,
        used: Vec<f64>,
    }

    impl Farm {
        fn new(caps: &[f64]) -> Self {
            Self {
                caps: caps.to_vec(),
                used: vec![0.0; caps.len()],
            }
        }

        fn index(&self) -> HeadroomIndex {
            let headrooms: Vec<f64> = self
                .caps
                .iter()
                .zip(&self.used)
                .map(|(c, u)| c - u)
                .collect();
            HeadroomIndex::new(&headrooms)
        }
    }

    fn run(farm: &mut Farm, demands: &[f64]) -> EvacuationOutcome {
        let mut index = farm.index();
        let caps = farm.caps.clone();
        let used = &mut farm.used;
        evacuate_batch_recorded(demands, &mut index, &mut NoopRecorder, |pm, slot| {
            if used[pm] + demands[slot] <= caps[pm] {
                used[pm] += demands[slot];
                Some(caps[pm] - used[pm])
            } else {
                None
            }
        })
    }

    #[test]
    fn places_everything_when_room_exists() {
        let mut farm = Farm::new(&[100.0, 100.0]);
        let out = run(&mut farm, &[30.0, 40.0, 50.0, 60.0]);
        assert!(out.unplaced.is_empty(), "{out:?}");
        assert_eq!(out.placed.len(), 4);
        // FFD order: 60 and 50 first.
        assert_eq!(out.placed[0].0, 3);
        assert_eq!(out.placed[1].0, 2);
        // Nothing overflows.
        for (pm, &used) in farm.used.iter().enumerate() {
            assert!(used <= farm.caps[pm]);
        }
    }

    #[test]
    fn overflow_is_reported_not_dropped() {
        let mut farm = Farm::new(&[50.0]);
        let out = run(&mut farm, &[30.0, 30.0, 30.0]);
        assert_eq!(out.placed.len(), 1);
        assert_eq!(out.unplaced.len(), 2);
        let mut all: Vec<usize> = out
            .placed
            .iter()
            .map(|&(s, _)| s)
            .chain(out.unplaced.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "every slot accounted for");
    }

    #[test]
    fn ffd_order_beats_arrival_order_here() {
        // 70 then 30+30 fits {100, 60}; arrival order 30, 30, 70 would
        // strand the 70 if the two 30s split across PMs. FFD packs it.
        let mut farm = Farm::new(&[100.0, 60.0]);
        let out = run(&mut farm, &[30.0, 30.0, 70.0]);
        assert!(out.unplaced.is_empty(), "{out:?}");
    }

    #[test]
    fn mid_batch_commits_constrain_later_placements() {
        // One PM of 100: 60 lands, the second 60 must not (the index must
        // see the committed headroom, not the initial one).
        let mut farm = Farm::new(&[100.0]);
        let out = run(&mut farm, &[60.0, 60.0]);
        assert_eq!(out.placed.len(), 1);
        assert_eq!(out.unplaced.len(), 1);
        assert_eq!(farm.used[0], 60.0);
    }

    #[test]
    fn refusal_skips_ahead_instead_of_giving_up() {
        // Headroom says yes everywhere, the rule vetoes PM 0: the probe
        // must move on to PM 1, not report the VM unplaced.
        let mut index = HeadroomIndex::new(&[100.0, 100.0]);
        let out = evacuate_batch_recorded(&[10.0], &mut index, &mut NoopRecorder, |pm, _| {
            (pm != 0).then_some(90.0)
        });
        assert_eq!(out.placed, vec![(0, 1)]);
    }

    #[test]
    fn down_pms_marked_neg_infinity_are_never_probed() {
        let mut index = HeadroomIndex::new(&[f64::NEG_INFINITY, 25.0]);
        let mut left = 25.0;
        let out = evacuate_batch_recorded(
            &[10.0, 10.0, 10.0],
            &mut index,
            &mut NoopRecorder,
            |pm, _| {
                assert_eq!(pm, 1, "the down PM must never be offered");
                (left >= 10.0).then(|| {
                    left -= 10.0;
                    left
                })
            },
        );
        // Only PM 1 is usable; after two commits its headroom (5) prunes
        // the third VM before `place` is even consulted.
        assert_eq!(out.placed.len(), 2);
        assert!(out.placed.iter().all(|&(_, pm)| pm == 1));
        assert_eq!(out.unplaced.len(), 1);
    }

    #[test]
    fn non_finite_demand_is_unplaceable() {
        let mut index = HeadroomIndex::new(&[100.0]);
        let out = evacuate_batch_recorded(
            &[f64::INFINITY, 10.0],
            &mut index,
            &mut NoopRecorder,
            |_, slot| {
                assert_eq!(slot, 1);
                Some(90.0)
            },
        );
        assert_eq!(out.placed, vec![(1, 0)]);
        assert_eq!(out.unplaced, vec![0]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut index = HeadroomIndex::new(&[10.0]);
        let out = evacuate_batch_recorded(&[], &mut index, &mut NoopRecorder, |_, _| Some(0.0));
        assert!(out.placed.is_empty());
        assert!(out.unplaced.is_empty());
    }

    #[test]
    fn recorded_variant_counts_probes_and_refusals() {
        use bursty_obs::MemoryRecorder;
        // Headroom admits everywhere; the rule vetoes PM 0, so the single
        // VM costs two probes (one refused, one placed).
        let mut index = HeadroomIndex::new(&[100.0, 100.0]);
        let mut rec = MemoryRecorder::new(0);
        let out = evacuate_batch_recorded(&[10.0], &mut index, &mut rec, |pm, _| {
            (pm != 0).then_some(90.0)
        });
        assert_eq!(out.placed, vec![(0, 1)]);
        assert_eq!(rec.counter(Counter::EvacProbes), 2);
        assert_eq!(rec.counter(Counter::EvacRefusals), 1);
    }
}
