//! Benchmark-only access to the class-aggregated hot loop.
//!
//! `WorkloadCore` is crate-private by design — the engine owns it — but
//! the throughput benches need to time the raw cell kernel without the
//! controller around it (the `cell_steps_per_sec` rows of
//! `BENCH_engine.json`). This module exposes exactly that: build a core
//! over a fleet, step it, read the occupancy and cache counters. Hidden
//! from docs and semver-stability promises.

use crate::config::RngLayout;
use crate::members::Members;
use crate::rng::binomial_table::CacheStats;
use crate::workload_core::WorkloadCore;
use bursty_workload::VmSpec;

/// Occupied `(location, class)` cells and mean VMs per cell for `vms`
/// placed by `host` over `m` PMs — the occupancy context `engine-bench`
/// attaches to its class-layout rows so throughput numbers carry the
/// cell population they were measured against.
pub fn class_occupancy(vms: &[VmSpec], m: usize, host: &[Option<usize>]) -> (usize, f64) {
    let mut core = WorkloadCore::new(vms, m, 0, RngLayout::ClassAggregated, 1);
    core.class_init(&Members::from_assignment(host, m));
    let cells = core.class_occupied_cells().unwrap_or(0);
    let placed = host.iter().flatten().count();
    let mean = if cells == 0 {
        0.0
    } else {
        placed as f64 / cells as f64
    };
    (cells, mean)
}

/// A class-aggregated [`WorkloadCore`] plus the fixed placement and
/// scratch the kernel steps against — the engine's hot loop with the
/// controller stripped away.
pub struct ClassCoreBench {
    core: WorkloadCore,
    members: Members,
    observed: Vec<f64>,
    next: u64,
}

impl ClassCoreBench {
    /// Builds the core under [`RngLayout::ClassAggregated`] over the
    /// given placement (`host[i]` = VM `i`'s PM) so kernel rates are
    /// measured at the cell density the engine actually runs, not a
    /// synthetic spread. `cached` selects the engine's kernel (`true`:
    /// the due locations only, jump and binomial tables) or its walk
    /// oracle (every cell visited, each jump row derived from Eq. 12
    /// where it is drawn, each dense draw by the pmf-recurrence walk);
    /// the two step to the same bits.
    pub fn new(
        vms: &[VmSpec],
        m: usize,
        host: &[Option<usize>],
        seed: u64,
        threads: usize,
        cached: bool,
    ) -> Self {
        let mut core = WorkloadCore::new(vms, m, seed, RngLayout::ClassAggregated, threads);
        core.set_cached_sampler(cached);
        let members = Members::from_assignment(host, m);
        core.class_init(&members);
        Self {
            core,
            members,
            observed: vec![0.0; m],
            next: 0,
        }
    }

    /// Advances the kernel one step, returning the first PM's observed
    /// demand (a data dependency that keeps the optimizer honest).
    pub fn step(&mut self) -> f64 {
        self.core.step(self.next, &self.members, &mut self.observed);
        self.next += 1;
        self.observed[0]
    }

    /// Occupied `(location, class)` cells — the unit the kernel's cost
    /// scales with.
    pub fn occupied_cells(&self) -> usize {
        self.core.class_occupied_cells().unwrap_or(0)
    }

    /// Cells the kernel drew for since construction: a jump at a
    /// sparse cell's change, a binomial pair at each step of a dense
    /// one.
    pub fn events(&self) -> u64 {
        self.core.class_events().unwrap_or(0)
    }

    /// Summed `(hits, misses, evictions)` of the sampler caches, each
    /// jump drawn from the jump tables counted a hit.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        let CacheStats {
            hits,
            misses,
            evictions,
        } = self.core.class_cache_stats().unwrap_or_default();
        (hits, misses, evictions)
    }
}
