//! Online consolidation (paper §IV-E): single arrivals, exits, batch
//! arrivals, and rounding of heterogeneous switch probabilities.
//!
//! Two engines implement the same contract:
//!
//! * [`OnlineCluster`] — the fleet-scale engine. Per-PM state is a set of
//!   *class-count cells* keyed by the cached `[u64; 4]` class bit pattern,
//!   so a departure is a counter decrement plus a canonical `O(d)` rebuild
//!   and one `O(log m)` index refresh — never a population scan. Batch
//!   arrivals route through the class-collapsed closed-form admissions of
//!   `batch.rs` and find their PMs with the index's lazy search
//!   ([`HeadroomIndex::first_admitting`]: a bounded look-ahead over the
//!   leaves in front of the tree, no climb per filled PM), and
//!   recalibration aggregates per class (`O(k)` in distinct classes,
//!   independent of the fleet size) with an ε-gate that keeps the cached
//!   mapping table when the rounded pair barely moves; a table that does
//!   move rewrites the occupied PMs' leaves and repairs the tree once.
//!   Both whole-fleet passes end with [`HeadroomIndex::flush`]: every
//!   public `&mut self` method returns with the index flushed, so single
//!   arrivals, departures and every `&self` reader search a tree that is
//!   right.
//! * [`ReferenceOnlineCluster`] — the direct per-VM implementation kept as
//!   the differential oracle. Its only structural concession is a per-PM
//!   member list so a departure rebuilds from the `≤ d` co-located VMs
//!   instead of scanning the whole host map.
//!
//! Both engines rebuild departed-from PMs through the same canonical
//! class-ordered exact fold and round probabilities through the same
//! class-aggregated sum, so their loads, headrooms and placements are
//! **bit-identical** under arbitrary interleaved churn — pinned by the
//! differential property test at the bottom of this file.

use crate::batch::{admit_run, admit_run_empty, class_schedule, collapse_classes, ClassTable};
use crate::clustering::{cluster_order, default_buckets};
use crate::index::HeadroomIndex;
use crate::load::PmLoad;
use crate::pack::{probe_first_fit, probe_first_fit_recorded, PackError, PRUNE_SLACK};
use crate::strategy::{QueueStrategy, Strategy};
use bursty_obs::durable::{put_f64, put_u32, put_usize, Cursor, FrameError};
use bursty_obs::{Counter, NoopRecorder, Recorder};
use bursty_workload::{PmSpec, VmClass, VmSpec};
use std::collections::{HashMap, HashSet};

/// Order-independent FNV-1a style fold over an engine's observable end
/// state: live VM→host assignments (in ascending VM id order) and every
/// PM's cached load (count, `sum_rb` bits, `max_re` bits). Two engines —
/// or one engine driven over two different transports — replaying the
/// same op sequence must produce equal digests; the churn benches and the
/// serving layer's transport-equivalence suite compare exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateDigest {
    pub n_vms: usize,
    pub pms_used: usize,
    pub hosts_hash: u64,
    pub loads_hash: u64,
}

impl StateDigest {
    /// The four fields folded into one `u64` for compact printing.
    pub fn combined(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv_step(h, self.n_vms as u64);
        h = fnv_step(h, self.pms_used as u64);
        h = fnv_step(h, self.hosts_hash);
        fnv_step(h, self.loads_hash)
    }
}

fn fnv_step(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h.wrapping_mul(0x100_0000_01b3)
}

/// Shared digest fold: `pairs` must arrive in ascending VM id order.
fn digest_from(
    n_vms: usize,
    pms_used: usize,
    pairs: impl Iterator<Item = (usize, usize)>,
    loads: &[PmLoad],
) -> StateDigest {
    let mut hosts_hash = 0xcbf2_9ce4_8422_2325u64;
    for (id, host) in pairs {
        hosts_hash = fnv_step(hosts_hash, id as u64);
        hosts_hash = fnv_step(hosts_hash, host as u64);
    }
    let mut loads_hash = 0xcbf2_9ce4_8422_2325u64;
    for load in loads {
        loads_hash = fnv_step(loads_hash, load.count as u64);
        loads_hash = fnv_step(loads_hash, load.sum_rb.to_bits());
        loads_hash = fnv_step(loads_hash, load.max_re.to_bits());
    }
    StateDigest {
        n_vms,
        pms_used,
        hosts_hash,
        loads_hash,
    }
}

/// Rounds heterogeneous per-VM switch probabilities to the uniform values
/// the queuing model needs — the paper's prescription when `p_on`/`p_off`
/// vary among VMs. We use the arithmetic mean (and the paper notes the
/// rounding must be refreshed periodically as VMs come and go — see
/// [`OnlineCluster::recalibrate`]).
pub fn round_probabilities(vms: &[VmSpec]) -> Option<(f64, f64)> {
    if vms.is_empty() {
        return None;
    }
    let n = vms.len() as f64;
    let p_on = vms.iter().map(|v| v.p_on).sum::<f64>() / n;
    let p_off = vms.iter().map(|v| v.p_off).sum::<f64>() / n;
    Some((p_on, p_off))
}

/// One per-PM class cell: the class's cached bit key, a representative
/// spec, and the number of hosted copies.
type ClassCell = ([u64; 4], VmSpec, u32);

/// Canonical exact rebuild of a PM load from class cells: sort by class
/// bit key, then fold each class with repeated exact adds
/// ([`PmLoad::add_copies`]). Both engines rebuild departed-from PMs
/// through this function, so their loads stay bit-identical even though
/// they store the population differently.
fn fold_cells(cells: &mut [ClassCell]) -> PmLoad {
    cells.sort_unstable_by_key(|c| c.0);
    let mut load = PmLoad::empty();
    for cell in cells.iter() {
        load.add_copies(&cell.1, cell.2 as usize);
    }
    load
}

/// Class-aggregated probability rounding: the same arithmetic mean as
/// [`round_probabilities`], computed as `Σ count·p / n` over class cells
/// in canonical (bit key) order. `O(k)` in distinct classes — independent
/// of the fleet size — and deterministic regardless of the order callers
/// accumulated the cells in.
fn round_classed(classes: &mut [([u64; 4], f64, f64, u64)]) -> Option<(f64, f64)> {
    let n: u64 = classes.iter().map(|c| c.3).sum();
    if n == 0 {
        return None;
    }
    classes.sort_unstable_by_key(|c| c.0);
    let (mut sum_on, mut sum_off) = (0.0, 0.0);
    for &(_, p_on, p_off, count) in classes.iter() {
        sum_on += count as f64 * p_on;
        sum_off += count as f64 * p_off;
    }
    Some((sum_on / n as f64, sum_off / n as f64))
}

/// The direct per-VM online engine, retained as the differential oracle
/// for [`OnlineCluster`]. Semantics per §IV-E:
///
/// * **arrival** — place one new VM on the first PM satisfying Eq. 17;
/// * **departure** — remove a VM and recompute the PM's load (from the
///   PM's own member list, not a fleet scan);
/// * **batch arrival** — cluster/sort the batch exactly as Algorithm 2
///   does, then First Fit each member;
/// * **recalibrate** — re-round `p_on`/`p_off` over the current population
///   and rebuild the mapping table unless the pair moved less than ε.
#[derive(Debug)]
pub struct ReferenceOnlineCluster {
    pms: Vec<PmSpec>,
    strategy: QueueStrategy,
    rho: f64,
    d: usize,
    epsilon: f64,
    /// Current VM population, keyed by VM id.
    vms: HashMap<usize, VmSpec>,
    /// Host PM index per VM id.
    hosts: HashMap<usize, usize>,
    /// Per-PM member lists (VM ids, unordered) so a departure rebuilds
    /// from the `≤ d` co-located VMs instead of scanning `hosts`.
    members: Vec<Vec<usize>>,
    /// Cached per-PM loads, kept consistent with `hosts`.
    loads: Vec<PmLoad>,
    /// Segment tree over per-PM headroom under the current strategy; kept
    /// consistent with `loads` so arrivals probe in `O(log m)`.
    index: HeadroomIndex,
}

impl ReferenceOnlineCluster {
    /// Creates an empty cluster over `pms` with the queue strategy built
    /// from `(d, p_on, p_off, rho)`.
    pub fn new(pms: Vec<PmSpec>, d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        let strategy = QueueStrategy::build(d, p_on, p_off, rho);
        let loads = vec![PmLoad::empty(); pms.len()];
        let headrooms: Vec<f64> = pms
            .iter()
            .map(|pm| strategy.headroom(&PmLoad::empty(), pm.capacity))
            .collect();
        let index = HeadroomIndex::new(&headrooms);
        let members = vec![Vec::new(); pms.len()];
        Self {
            pms,
            strategy,
            rho,
            d,
            epsilon: 0.0,
            vms: HashMap::new(),
            hosts: HashMap::new(),
            members,
            loads,
            index,
        }
    }

    /// Sets the recalibration ε: when a re-rounded `(p_on, p_off)` pair
    /// moves no more than ε per component, the cached mapping table is
    /// kept and no index rebuild happens.
    #[must_use]
    pub fn with_recalibration_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Repairs the index entry of PM `j` after its load changed.
    fn refresh_pm(&mut self, j: usize) {
        let h = self.strategy.headroom(&self.loads[j], self.pms[j].capacity);
        self.index.update(j, h);
    }

    /// Rebuilds the whole index — needed when the *strategy* changes,
    /// which moves every PM's headroom at once.
    fn refresh_index(&mut self) {
        for j in 0..self.pms.len() {
            self.refresh_pm(j);
        }
    }

    /// Number of VMs currently hosted.
    pub(crate) fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// Number of PMs currently in use.
    pub(crate) fn pms_used(&self) -> usize {
        self.loads.iter().filter(|l| !l.is_empty()).count()
    }

    /// The host of a VM, if present.
    pub fn host_of(&self, vm_id: usize) -> Option<usize> {
        self.hosts.get(&vm_id).copied()
    }

    /// The load of PM `j`.
    pub fn load(&self, j: usize) -> &PmLoad {
        &self.loads[j]
    }

    /// The active admission strategy.
    pub fn strategy(&self) -> &QueueStrategy {
        &self.strategy
    }

    /// Places a single newly-arrived VM on the first feasible PM.
    ///
    /// # Errors
    /// [`PackError`] if no PM admits the VM.
    ///
    /// # Panics
    /// Panics if the VM id is already present.
    pub fn arrive(&mut self, vm: VmSpec) -> Result<usize, PackError> {
        assert!(
            !self.vms.contains_key(&vm.id),
            "VM id {} already in the cluster",
            vm.id
        );
        let slot = probe_first_fit(&self.index, &self.loads, &self.pms, &self.strategy, &vm);
        match slot {
            Some(j) => {
                self.loads[j].add(&vm);
                self.refresh_pm(j);
                self.hosts.insert(vm.id, j);
                self.members[j].push(vm.id);
                self.vms.insert(vm.id, vm);
                Ok(j)
            }
            None => Err(PackError { vm_id: vm.id }),
        }
    }

    /// Removes a VM (§IV-E: "when a VM quits, we simply recalculate the
    /// size of the queue on the PM"). Returns its former host.
    pub fn depart(&mut self, vm_id: usize) -> Option<usize> {
        let host = self.hosts.remove(&vm_id)?;
        self.vms.remove(&vm_id);
        let list = &mut self.members[host];
        let pos = list
            .iter()
            .position(|&id| id == vm_id)
            .expect("departing VM must be on its host's member list");
        list.swap_remove(pos);
        // Canonical rebuild: collapse the survivors into class cells and
        // fold in class-key order, matching the fast engine bit for bit.
        let mut cells: Vec<ClassCell> = Vec::new();
        for &id in &self.members[host] {
            let v = self.vms[&id];
            let key = VmClass::of(&v).key();
            match cells.iter_mut().find(|c| c.0 == key) {
                Some(cell) => cell.2 += 1,
                None => cells.push((key, v, 1)),
            }
        }
        self.loads[host] = fold_cells(&mut cells);
        self.refresh_pm(host);
        Some(host)
    }

    /// Places a batch of new VMs using the same cluster-and-sort scheme as
    /// Algorithm 2 (§IV-E: "when a batch of new VMs arrives, we use the
    /// same scheme as Algorithm 2 to place them").
    ///
    /// # Errors
    /// [`PackError`] at the first unplaceable VM. VMs placed before the
    /// failure stay placed (the online system cannot un-arrive them).
    ///
    /// # Panics
    /// Panics if any batch member's id is already present, or appears
    /// twice in the batch.
    pub fn arrive_batch(&mut self, batch: Vec<VmSpec>) -> Result<Vec<(usize, usize)>, PackError> {
        let mut seen = HashSet::with_capacity(batch.len());
        for vm in &batch {
            assert!(
                !self.vms.contains_key(&vm.id) && seen.insert(vm.id),
                "VM id {} already in the cluster",
                vm.id
            );
        }
        let order = cluster_order(&batch, default_buckets(batch.len()));
        let mut result = Vec::with_capacity(batch.len());
        // Place one by one so partial progress is recorded before an error;
        // the cluster's own index persists across the whole batch, so each
        // member costs one O(log m) probe instead of an O(m) scan.
        for &i in &order {
            let vm = batch[i];
            let slot = probe_first_fit(&self.index, &self.loads, &self.pms, &self.strategy, &vm);
            let j = slot.ok_or(PackError { vm_id: vm.id })?;
            self.loads[j].add(&vm);
            self.refresh_pm(j);
            self.hosts.insert(vm.id, j);
            self.members[j].push(vm.id);
            self.vms.insert(vm.id, vm);
            result.push((vm.id, j));
        }
        Ok(result)
    }

    /// Re-rounds `p_on`/`p_off` over the current population and rebuilds
    /// the mapping table (§IV-E: heterogeneous probabilities "require
    /// periodical recalculation of the rounded values"), unless the pair
    /// moved no more than ε per component. Returns the new rounded pair,
    /// or `None` when the cluster is empty.
    pub fn recalibrate(&mut self) -> Option<(f64, f64)> {
        let mut classes: Vec<([u64; 4], f64, f64, u64)> = Vec::new();
        for v in self.vms.values() {
            let key = VmClass::of(v).key();
            match classes.iter_mut().find(|c| c.0 == key) {
                Some(c) => c.3 += 1,
                None => classes.push((key, v.p_on, v.p_off, 1)),
            }
        }
        let (p_on, p_off) = round_classed(&mut classes)?;
        let current = self.strategy.mapping().probabilities();
        if (p_on - current.0).abs() <= self.epsilon && (p_off - current.1).abs() <= self.epsilon {
            return Some((p_on, p_off));
        }
        self.strategy = QueueStrategy::build(self.d, p_on, p_off, self.rho);
        // A new table moves every PM's headroom; rebuild the index.
        self.refresh_index();
        Some((p_on, p_off))
    }

    /// Verifies internal consistency: every cached load matches a rebuild
    /// from the authoritative host map, and the member lists agree with
    /// it. Intended for tests and debug assertions.
    ///
    /// # Errors
    /// A description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut member_total = 0;
        // Group hosts once so the oracle stays O(n + m); filtering the
        // whole host map per PM would make fleet-scale checks quadratic.
        let mut hosted: Vec<Vec<usize>> = vec![Vec::new(); self.pms.len()];
        for (&id, &h) in &self.hosts {
            hosted[h].push(id);
        }
        for (j, members) in hosted.iter().enumerate() {
            let rebuilt = PmLoad::rebuild(members.iter().map(|id| &self.vms[id]));
            let cached = &self.loads[j];
            if rebuilt.count != cached.count
                || (rebuilt.sum_rb - cached.sum_rb).abs() > 1e-9
                || (rebuilt.max_re - cached.max_re).abs() > 1e-9
            {
                return Err(format!("PM {j}: cached {cached:?} != rebuilt {rebuilt:?}"));
            }
            let expected = self.strategy.headroom(cached, self.pms[j].capacity);
            let indexed = self.index.value(j);
            let matches = indexed == expected || (indexed - expected).abs() < 1e-9;
            if !matches {
                return Err(format!(
                    "PM {j}: indexed headroom {indexed} != expected {expected}"
                ));
            }
            if self.members[j].len() != cached.count {
                return Err(format!(
                    "PM {j}: member list has {} ids, load counts {}",
                    self.members[j].len(),
                    cached.count
                ));
            }
            for &id in &self.members[j] {
                if self.hosts.get(&id) != Some(&j) {
                    return Err(format!("PM {j}: member {id} not hosted here"));
                }
            }
            member_total += self.members[j].len();
        }
        if member_total != self.vms.len() {
            return Err(format!(
                "member lists hold {member_total} ids, population is {}",
                self.vms.len()
            ));
        }
        Ok(())
    }

    /// PMs whose hosted set violates Eq. 17 under the *current* strategy.
    ///
    /// Always empty right after placements made with the current table.
    /// After [`recalibrate`](Self::recalibrate) tightens the switch
    /// probabilities, incumbents may become infeasible — the paper's
    /// periodic recalculation implies exactly this drift; the operator
    /// then migrates VMs off the listed PMs (or accepts a CVR above ρ on
    /// them until natural churn fixes it).
    pub fn infeasible_pms(&self) -> Vec<usize> {
        self.pms
            .iter()
            .enumerate()
            .filter(|(j, pm)| {
                let load = &self.loads[*j];
                !load.is_empty() && !self.strategy.feasible(load, pm.capacity)
            })
            .map(|(j, _)| j)
            .collect()
    }

    /// The engine's observable end-state digest (see [`StateDigest`]).
    pub fn state_digest(&self) -> StateDigest {
        let mut ids: Vec<usize> = self.hosts.keys().copied().collect();
        ids.sort_unstable();
        digest_from(
            self.n_vms(),
            self.pms_used(),
            ids.iter().map(|&id| (id, self.hosts[&id])),
            &self.loads,
        )
    }
}

/// A VM's place in the fast engine: its host PM and class id. Two `u32`s
/// beside the `usize` key make a 16-byte slot of the `entries` table, the
/// one structure that grows with the population.
#[derive(Debug, Clone, Copy)]
struct VmEntry {
    host: u32,
    class: u32,
}

/// The fleet-scale online engine (see the module docs). Storage is a
/// dense structure-of-arrays over *classes* rather than VMs:
///
/// * a global class registry (`key → id`, representative spec, live
///   population count);
/// * per-PM class-count cells (`≤ d` entries, because the admission rule
///   caps co-location at `d`);
/// * a `HashMap` from VM id to its `(host, class)` entry — the only
///   per-VM state;
/// * the headroom segment tree, plus an explicit occupied-PM set so
///   whole-fleet walks (recalibration refresh, [`Self::infeasible_pms`])
///   touch only PMs that host something.
///
/// Per-operation costs at fleet size `n`, `m` PMs, `k` distinct classes:
/// arrival `O(log m + d)`, departure `O(d + log m)`, batch arrival
/// `O(fills · (gap + log d))` plus the linear scatter and one closing
/// flush (`O(log m)` per filled PM while those are under `m / 4`, one
/// `O(m)` pass beyond), and recalibration `O(k)` when the ε-gate holds,
/// `O(k + occupied + m)` when the table is rebuilt — nothing scans the
/// population.
#[derive(Debug)]
pub struct OnlineCluster {
    pms: Vec<PmSpec>,
    strategy: QueueStrategy,
    rho: f64,
    d: usize,
    epsilon: f64,
    /// Representative spec per registered class (first arrival wins; only
    /// the four class-defining fields are ever read from it).
    class_reps: Vec<VmSpec>,
    /// Cached class bit key per registered class.
    class_keys: Vec<[u64; 4]>,
    /// Live population per registered class.
    class_pop: Vec<u64>,
    /// Class bit key → class id.
    class_lookup: HashMap<[u64; 4], u32>,
    /// Per-VM entry: host PM and class id.
    entries: HashMap<usize, VmEntry>,
    /// Cached per-PM loads.
    loads: Vec<PmLoad>,
    /// Per-PM class-count cells `(class id, copies)`; at most `d` entries
    /// because the admission rule caps co-location.
    cells: Vec<Vec<(u32, u32)>>,
    /// Segment tree over per-PM headroom under the current strategy.
    index: HeadroomIndex,
    /// Occupied PMs, unordered; `occupied_pos[j]` is `j`'s slot in it
    /// (or `usize::MAX` when PM `j` is empty).
    occupied: Vec<usize>,
    occupied_pos: Vec<usize>,
    /// Reusable cell buffer for departure rebuilds.
    scratch: Vec<ClassCell>,
}

impl OnlineCluster {
    /// Creates an empty cluster over `pms` with the queue strategy built
    /// from `(d, p_on, p_off, rho)`.
    ///
    /// # Panics
    /// Panics if `pms` holds more than `u32::MAX` PMs (a VM's entry names
    /// its host in 32 bits).
    pub fn new(pms: Vec<PmSpec>, d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        assert!(
            u32::try_from(pms.len()).is_ok(),
            "a pool of {} PMs exceeds the u32 host index",
            pms.len()
        );
        let strategy = QueueStrategy::build(d, p_on, p_off, rho);
        let loads = vec![PmLoad::empty(); pms.len()];
        let headrooms: Vec<f64> = pms
            .iter()
            .map(|pm| strategy.headroom(&PmLoad::empty(), pm.capacity))
            .collect();
        let index = HeadroomIndex::new(&headrooms);
        let cells = vec![Vec::new(); pms.len()];
        let occupied_pos = vec![usize::MAX; pms.len()];
        Self {
            pms,
            strategy,
            rho,
            d,
            epsilon: 0.0,
            class_reps: Vec::new(),
            class_keys: Vec::new(),
            class_pop: Vec::new(),
            class_lookup: HashMap::new(),
            entries: HashMap::new(),
            loads,
            cells,
            index,
            occupied: Vec::new(),
            occupied_pos,
            scratch: Vec::new(),
        }
    }

    /// Sets the recalibration ε: when a re-rounded `(p_on, p_off)` pair
    /// moves no more than ε per component, the cached mapping table is
    /// kept and no index rebuild happens.
    #[must_use]
    pub fn with_recalibration_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Repairs the index entry of PM `j` after its load changed.
    fn refresh_pm(&mut self, j: usize) {
        let h = self.strategy.headroom(&self.loads[j], self.pms[j].capacity);
        self.index.update(j, h);
    }

    /// Number of VMs currently hosted.
    pub fn n_vms(&self) -> usize {
        self.entries.len()
    }

    /// Number of PMs currently in use — `O(1)` from the occupied set.
    pub fn pms_used(&self) -> usize {
        self.occupied.len()
    }

    /// The host of a VM, if present.
    pub fn host_of(&self, vm_id: usize) -> Option<usize> {
        self.entries.get(&vm_id).map(|e| e.host as usize)
    }

    /// The load of PM `j`.
    pub fn load(&self, j: usize) -> &PmLoad {
        &self.loads[j]
    }

    /// The active admission strategy.
    pub fn strategy(&self) -> &QueueStrategy {
        &self.strategy
    }

    /// The class id for `vm`'s class, registering it on first sight.
    fn class_id_of(&mut self, vm: &VmSpec) -> u32 {
        let key = VmClass::of(vm).key();
        if let Some(&cid) = self.class_lookup.get(&key) {
            return cid;
        }
        let cid = u32::try_from(self.class_reps.len()).expect("class registry overflow");
        self.class_reps.push(*vm);
        self.class_keys.push(key);
        self.class_pop.push(0);
        self.class_lookup.insert(key, cid);
        cid
    }

    /// Adds `copies` of class `cid` to PM `j`'s cells (`O(d)` walk).
    fn cell_add(&mut self, j: usize, cid: u32, copies: u32) {
        for cell in &mut self.cells[j] {
            if cell.0 == cid {
                cell.1 += copies;
                return;
            }
        }
        self.cells[j].push((cid, copies));
    }

    /// Removes one copy of class `cid` from PM `j`'s cells.
    fn cell_remove_one(&mut self, j: usize, cid: u32) {
        let cells = &mut self.cells[j];
        let pos = cells
            .iter()
            .position(|c| c.0 == cid)
            .expect("departing VM's class must have a cell on its host");
        cells[pos].1 -= 1;
        if cells[pos].1 == 0 {
            cells.swap_remove(pos);
        }
    }

    /// Marks PM `j` occupied (idempotent).
    fn occupy(&mut self, j: usize) {
        if self.occupied_pos[j] == usize::MAX {
            self.occupied_pos[j] = self.occupied.len();
            self.occupied.push(j);
        }
    }

    /// Marks PM `j` empty (idempotent).
    fn vacate(&mut self, j: usize) {
        let pos = self.occupied_pos[j];
        if pos == usize::MAX {
            return;
        }
        self.occupied_pos[j] = usize::MAX;
        self.occupied.swap_remove(pos);
        if pos < self.occupied.len() {
            let moved = self.occupied[pos];
            self.occupied_pos[moved] = pos;
        }
    }

    /// Commits a single VM placement onto PM `j` — the shared tail of
    /// [`Self::arrive_recorded`] and the fallback batch path.
    fn place_single<R: Recorder>(&mut self, vm: VmSpec, j: usize, rec: &mut R) {
        let was_empty = self.loads[j].is_empty();
        self.loads[j].add(&vm);
        self.refresh_pm(j);
        let cid = self.class_id_of(&vm);
        self.cell_add(j, cid, 1);
        self.class_pop[cid as usize] += 1;
        let entry = VmEntry {
            host: j as u32,
            class: cid,
        };
        assert!(
            self.entries.insert(vm.id, entry).is_none(),
            "VM id {} already in the cluster",
            vm.id
        );
        if was_empty {
            self.occupy(j);
        }
        rec.counter_inc(Counter::OnlineArrivals);
    }

    /// Places a single newly-arrived VM on the first PM satisfying Eq. 17
    /// (§IV-E: "when a new VM arrives, we place it on the first PM that
    /// satisfies the constraint in Equation (17)").
    ///
    /// # Errors
    /// [`PackError`] if no PM admits the VM.
    ///
    /// # Panics
    /// Panics if the VM id is already present.
    pub fn arrive(&mut self, vm: VmSpec) -> Result<usize, PackError> {
        self.arrive_recorded(vm, &mut NoopRecorder)
    }

    /// [`arrive`](Self::arrive) with instrumentation: probe counts plus
    /// one [`Counter::OnlineArrivals`] on success.
    ///
    /// # Errors
    /// [`PackError`] if no PM admits the VM.
    ///
    /// # Panics
    /// Panics if the VM id is already present.
    pub fn arrive_recorded<R: Recorder>(
        &mut self,
        vm: VmSpec,
        rec: &mut R,
    ) -> Result<usize, PackError> {
        assert!(
            !self.entries.contains_key(&vm.id),
            "VM id {} already in the cluster",
            vm.id
        );
        let slot = probe_first_fit_recorded(
            &self.index,
            &self.loads,
            &self.pms,
            &self.strategy,
            &vm,
            rec,
        );
        match slot {
            Some(j) => {
                self.place_single(vm, j, rec);
                Ok(j)
            }
            None => Err(PackError { vm_id: vm.id }),
        }
    }

    /// Removes a VM. Cost: one `O(d)` cell decrement, one canonical
    /// `O(d)` fold over the surviving cells, one `O(log m)` index
    /// refresh — never a population scan. Returns its former host.
    pub fn depart(&mut self, vm_id: usize) -> Option<usize> {
        self.depart_recorded(vm_id, &mut NoopRecorder)
    }

    /// [`depart`](Self::depart) with instrumentation: one
    /// [`Counter::OnlineDepartures`] when the VM was present, plus the
    /// surviving-cell count under [`Counter::DepartRebuildVisits`].
    pub fn depart_recorded<R: Recorder>(&mut self, vm_id: usize, rec: &mut R) -> Option<usize> {
        let entry = self.entries.remove(&vm_id)?;
        rec.counter_inc(Counter::OnlineDepartures);
        let (host, cid) = (entry.host as usize, entry.class);
        self.class_pop[cid as usize] -= 1;
        self.cell_remove_one(host, cid);
        rec.counter_add(Counter::DepartRebuildVisits, self.cells[host].len() as u64);
        let load = {
            let Self {
                cells,
                scratch,
                class_keys,
                class_reps,
                ..
            } = self;
            scratch.clear();
            for &(c, copies) in &cells[host] {
                scratch.push((class_keys[c as usize], class_reps[c as usize], copies));
            }
            fold_cells(scratch)
        };
        self.loads[host] = load;
        self.refresh_pm(host);
        if self.loads[host].is_empty() {
            self.vacate(host);
        }
        Some(host)
    }

    /// Places a batch of new VMs using the same cluster-and-sort scheme
    /// as Algorithm 2. On the fast path (all of [`collapse_classes`]'s
    /// conditions hold) whole classes are placed as closed-form runs via
    /// [`admit_run`]/[`admit_run_empty`] — amortized ~O(1) probes per VM
    /// on duplicate-heavy batches — and the per-VM assignments are
    /// scattered afterwards. Placements, the returned pairs and the error
    /// VM are identical to the per-VM reference on every input.
    ///
    /// # Errors
    /// [`PackError`] at the first unplaceable VM. VMs placed before the
    /// failure stay placed (the online system cannot un-arrive them).
    ///
    /// # Panics
    /// Panics if any batch member's id is already present, or appears
    /// twice in the batch.
    pub fn arrive_batch(&mut self, batch: Vec<VmSpec>) -> Result<Vec<(usize, usize)>, PackError> {
        self.arrive_batch_recorded(batch, &mut NoopRecorder)
    }

    /// [`arrive_batch`](Self::arrive_batch) with instrumentation: one
    /// [`Counter::OnlineBatches`], probe counts, plus one
    /// [`Counter::OnlineArrivals`] per placed member.
    ///
    /// # Errors
    /// [`PackError`] at the first unplaceable VM. VMs placed before the
    /// failure stay placed (the online system cannot un-arrive them).
    ///
    /// # Panics
    /// Panics if any batch member's id is already present, or appears
    /// twice in the batch. The check is the insert of the VM's entry, so
    /// the panic comes after earlier members were committed; callers that
    /// take ids from outside validate first (the daemon answers a
    /// duplicate with a typed 409 before the engine is reached).
    pub fn arrive_batch_recorded<R: Recorder>(
        &mut self,
        batch: Vec<VmSpec>,
        rec: &mut R,
    ) -> Result<Vec<(usize, usize)>, PackError> {
        let mut result = Vec::with_capacity(batch.len());
        self.arrive_batch_each(batch, rec, |vm_id, pm| result.push((vm_id, pm)))?;
        Ok(result)
    }

    /// [`arrive_batch_recorded`](Self::arrive_batch_recorded) handing each
    /// `(VM id, PM)` placement to `each` as it is committed instead of
    /// collecting them — for the caller that does not want the pairs (a
    /// daemon warming a million-VM fleet would build 16 MB to drop it).
    ///
    /// # Errors
    /// [`PackError`] at the first unplaceable VM, after `each` saw every
    /// member that was placed before it.
    ///
    /// # Panics
    /// As [`arrive_batch_recorded`](Self::arrive_batch_recorded).
    pub fn arrive_batch_each<R: Recorder>(
        &mut self,
        batch: Vec<VmSpec>,
        rec: &mut R,
        mut each: impl FnMut(usize, usize),
    ) -> Result<(), PackError> {
        rec.counter_inc(Counter::OnlineBatches);
        if batch.is_empty() {
            return Ok(());
        }
        // One allocation for the whole batch: growing by doubling would
        // hold the old and the new table at once at every step.
        self.entries.reserve(batch.len());
        let fast = collapse_classes(&batch).and_then(|table| {
            let keys = self.strategy.class_order_keys(batch.len(), &table.reps)?;
            let schedule = class_schedule(&keys)?;
            Some((table, schedule))
        });
        match fast {
            Some((table, schedule)) => {
                let result = self.batch_collapsed(&batch, &table, &schedule, rec, each);
                self.index.flush();
                result
            }
            None => {
                // Cross-class key ties (or too many classes): the stable
                // per-VM order is the semantics, so walk it directly.
                let order = cluster_order(&batch, default_buckets(batch.len()));
                for &i in &order {
                    let vm = batch[i];
                    let slot = probe_first_fit_recorded(
                        &self.index,
                        &self.loads,
                        &self.pms,
                        &self.strategy,
                        &vm,
                        rec,
                    );
                    let j = slot.ok_or(PackError { vm_id: vm.id })?;
                    self.place_single(vm, j, rec);
                    each(vm.id, j);
                }
                Ok(())
            }
        }
    }

    /// The fast batch path: one First-Fit cursor pass per class with
    /// closed-form run admissions, mirroring `crate::batch`'s offline
    /// packer but against the live cluster (loads only grow during a
    /// batch, so the cursor's "every passed PM already rejected this
    /// class" invariant carries over unchanged).
    fn batch_collapsed<R: Recorder>(
        &mut self,
        batch: &[VmSpec],
        table: &ClassTable,
        schedule: &[u32],
        rec: &mut R,
        mut each: impl FnMut(usize, usize),
    ) -> Result<(), PackError> {
        let k = table.reps.len();
        // Original-order member indices per class: the stable within-class
        // order that both the scatter and a partial failure must follow.
        let mut members_of: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (i, &kidx) in table.kid.iter().enumerate() {
            members_of[kidx as usize].push(i as u32);
        }
        // Exact fold memo for empty-PM admissions, rebuilt per class.
        let mut chain: Vec<PmLoad> = Vec::new();
        let mut fills: Vec<(usize, u32)> = Vec::new();
        for &cid in schedule {
            let template = table.reps[cid as usize];
            let want_total = table.counts[cid as usize] as usize;
            let threshold = self.strategy.demand(&template) - PRUNE_SLACK;
            let gid = self.class_id_of(&template);
            chain.clear();
            chain.push(PmLoad::empty());
            fills.clear();
            let mut placed = 0usize;
            let mut hint = 0usize;
            let mut from = 0usize;
            let mut failed = false;
            while placed < want_total {
                let candidate = self.index.first_admitting(from, threshold);
                rec.counter_inc(Counter::PackProbes);
                let Some(j) = candidate else {
                    failed = true;
                    break;
                };
                let seed = self.loads[j];
                let (new_load, c) = if seed.is_empty() {
                    admit_run_empty(
                        &mut chain,
                        &template,
                        self.pms[j].capacity,
                        want_total - placed,
                        hint,
                        &self.strategy,
                    )
                } else {
                    admit_run(
                        seed,
                        &template,
                        self.pms[j].capacity,
                        want_total - placed,
                        hint,
                        &self.strategy,
                    )
                };
                if c > 0 {
                    if seed.is_empty() {
                        self.occupy(j);
                    }
                    self.loads[j] = new_load;
                    let headroom = self.strategy.headroom(&new_load, self.pms[j].capacity);
                    self.index.set(j, headroom);
                    self.cell_add(j, gid, c as u32);
                    fills.push((j, c as u32));
                    placed += c;
                    hint = c;
                } else {
                    rec.counter_inc(Counter::PackRejectedProbes);
                }
                from = j + 1;
            }
            // Scatter this class's placed members (original batch order)
            // across the fill segments front to back.
            let members = &members_of[cid as usize];
            let mut mi = 0usize;
            for &(pm, copies) in &fills {
                for _ in 0..copies {
                    let vm = batch[members[mi] as usize];
                    let entry = VmEntry {
                        host: pm as u32,
                        class: gid,
                    };
                    assert!(
                        self.entries.insert(vm.id, entry).is_none(),
                        "VM id {} already in the cluster",
                        vm.id
                    );
                    self.class_pop[gid as usize] += 1;
                    rec.counter_inc(Counter::OnlineArrivals);
                    each(vm.id, pm);
                    mi += 1;
                }
            }
            if failed {
                // The first unplaced member, in the stable order — exactly
                // the VM the per-VM reference would have failed on.
                return Err(PackError {
                    vm_id: batch[members[placed] as usize].id,
                });
            }
        }
        Ok(())
    }

    /// Re-rounds `p_on`/`p_off` over the live class populations (`O(k)`,
    /// independent of the fleet size) and rebuilds the mapping table
    /// unless the pair moved no more than ε per component. After a
    /// rebuild only *occupied* PMs get their index leaves rewritten: an
    /// empty PM's headroom is exactly its capacity under every table
    /// (`count = 0` zeroes both the blocks term and the base sum), so the
    /// stored values stay bit-correct without touching them. The tree
    /// above the leaves is repaired once, by the flush that ends the pass.
    /// Returns the new rounded pair, or `None` when the cluster is empty.
    pub fn recalibrate(&mut self) -> Option<(f64, f64)> {
        self.recalibrate_recorded(&mut NoopRecorder)
    }

    /// [`recalibrate`](Self::recalibrate) with instrumentation: one
    /// [`Counter::OnlineRecalibrations`] per pass over a non-empty
    /// cluster, plus [`Counter::OnlineRecalibrationsSkipped`] when the
    /// ε-gate kept the cached table.
    pub fn recalibrate_recorded<R: Recorder>(&mut self, rec: &mut R) -> Option<(f64, f64)> {
        let mut classes: Vec<([u64; 4], f64, f64, u64)> = Vec::new();
        for cid in 0..self.class_reps.len() {
            let pop = self.class_pop[cid];
            if pop > 0 {
                let rep = self.class_reps[cid];
                classes.push((self.class_keys[cid], rep.p_on, rep.p_off, pop));
            }
        }
        let (p_on, p_off) = round_classed(&mut classes)?;
        rec.counter_inc(Counter::OnlineRecalibrations);
        let current = self.strategy.mapping().probabilities();
        if (p_on - current.0).abs() <= self.epsilon && (p_off - current.1).abs() <= self.epsilon {
            rec.counter_inc(Counter::OnlineRecalibrationsSkipped);
            return Some((p_on, p_off));
        }
        self.strategy = QueueStrategy::build(self.d, p_on, p_off, self.rho);
        for &j in &self.occupied {
            let headroom = self.strategy.headroom(&self.loads[j], self.pms[j].capacity);
            self.index.set(j, headroom);
        }
        self.index.flush();
        Some((p_on, p_off))
    }

    /// Verifies internal consistency: cells are well-formed, every cached
    /// load matches its canonical cell fold, the index is flushed and its
    /// leaves and the occupied set agree with the loads, and per-class
    /// populations add up.
    /// Intended for tests and debug assertions.
    ///
    /// # Errors
    /// A description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.index.check_flushed()?;
        let mut pop_seen = vec![0u64; self.class_reps.len()];
        for j in 0..self.pms.len() {
            let mut ids = HashSet::new();
            let mut cells: Vec<ClassCell> = Vec::with_capacity(self.cells[j].len());
            for &(cid, copies) in &self.cells[j] {
                if copies == 0 {
                    return Err(format!("PM {j}: zero-count cell for class {cid}"));
                }
                if !ids.insert(cid) {
                    return Err(format!("PM {j}: duplicate cell for class {cid}"));
                }
                pop_seen[cid as usize] += u64::from(copies);
                cells.push((
                    self.class_keys[cid as usize],
                    self.class_reps[cid as usize],
                    copies,
                ));
            }
            let rebuilt = fold_cells(&mut cells);
            let cached = &self.loads[j];
            if rebuilt.count != cached.count
                || (rebuilt.sum_rb - cached.sum_rb).abs() > 1e-9
                || (rebuilt.max_re - cached.max_re).abs() > 1e-9
            {
                return Err(format!("PM {j}: cached {cached:?} != rebuilt {rebuilt:?}"));
            }
            let expected = self.strategy.headroom(cached, self.pms[j].capacity);
            let indexed = self.index.value(j);
            let matches = indexed == expected || (indexed - expected).abs() < 1e-9;
            if !matches {
                return Err(format!(
                    "PM {j}: indexed headroom {indexed} != expected {expected}"
                ));
            }
            let occupied = self.occupied_pos[j] != usize::MAX;
            if occupied == cached.is_empty() {
                return Err(format!(
                    "PM {j}: occupied flag {occupied} but load count {}",
                    cached.count
                ));
            }
        }
        for (pos, &j) in self.occupied.iter().enumerate() {
            if self.occupied_pos[j] != pos {
                return Err(format!("occupied slot {pos} (PM {j}) has stale position"));
            }
        }
        if pop_seen != self.class_pop {
            return Err(format!(
                "class populations {:?} != cell totals {pop_seen:?}",
                self.class_pop
            ));
        }
        let total: u64 = pop_seen.iter().sum();
        if total != self.entries.len() as u64 {
            return Err(format!(
                "cells hold {total} VMs, entry map holds {}",
                self.entries.len()
            ));
        }
        for (&id, entry) in &self.entries {
            let on_host = self.cells[entry.host as usize]
                .iter()
                .any(|c| c.0 == entry.class);
            if !on_host {
                return Err(format!(
                    "VM {id}: host {} has no cell for its class {}",
                    entry.host, entry.class
                ));
            }
        }
        Ok(())
    }

    /// PMs whose hosted set violates Eq. 17 under the *current* strategy,
    /// ascending. Walks only the occupied set — `O(occupied)`, not
    /// `O(m)` — so a sparse million-PM pool costs what its population
    /// costs. See [`ReferenceOnlineCluster::infeasible_pms`] for when the
    /// list is non-empty.
    pub fn infeasible_pms(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .occupied
            .iter()
            .copied()
            .filter(|&j| !self.strategy.feasible(&self.loads[j], self.pms[j].capacity))
            .collect();
        out.sort_unstable();
        out
    }

    /// The engine's observable end-state digest (see [`StateDigest`]).
    pub fn state_digest(&self) -> StateDigest {
        let mut ids: Vec<usize> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        digest_from(
            self.n_vms(),
            self.pms_used(),
            ids.iter().map(|&id| (id, self.entries[&id].host as usize)),
            &self.loads,
        )
    }

    /// Serializes the full engine state as a compact binary image.
    ///
    /// Per-PM loads are stored **verbatim** (count plus the exact f64
    /// bits), never re-derived from the population on restore: `arrive`
    /// accumulates loads incrementally while `depart` re-folds them
    /// canonically, so a load's bit pattern depends on the PM's whole
    /// churn history and a re-fold would diverge from a run that never
    /// stopped. Only occupied PMs are encoded — an empty PM's load is
    /// exactly [`PmLoad::empty`] under both paths. The image is
    /// canonical: equal states produce equal bytes (hash maps are walked
    /// in sorted order).
    ///
    /// [`from_snapshot_bytes`](Self::from_snapshot_bytes) restores an
    /// engine that continues bit-identically — pinned by the round-trip
    /// tests below and the serving layer's crash/restore suite.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + 64 * self.occupied.len() + 24 * self.entries.len());
        put_usize(&mut buf, self.d);
        put_f64(&mut buf, self.rho);
        put_f64(&mut buf, self.epsilon);
        let (p_on, p_off) = self.strategy.mapping().probabilities();
        put_f64(&mut buf, p_on);
        put_f64(&mut buf, p_off);
        put_usize(&mut buf, self.pms.len());
        for pm in &self.pms {
            put_usize(&mut buf, pm.id);
            put_f64(&mut buf, pm.capacity);
        }
        put_usize(&mut buf, self.class_reps.len());
        for (cid, rep) in self.class_reps.iter().enumerate() {
            put_usize(&mut buf, rep.id);
            put_f64(&mut buf, rep.p_on);
            put_f64(&mut buf, rep.p_off);
            put_f64(&mut buf, rep.r_b);
            put_f64(&mut buf, rep.r_e);
            bursty_obs::durable::put_u64(&mut buf, self.class_pop[cid]);
        }
        put_usize(&mut buf, self.occupied.len());
        for &j in &self.occupied {
            put_usize(&mut buf, j);
            let load = &self.loads[j];
            put_usize(&mut buf, load.count);
            put_f64(&mut buf, load.max_re);
            put_f64(&mut buf, load.sum_rb);
            put_f64(&mut buf, load.sum_rp);
            put_usize(&mut buf, self.cells[j].len());
            for &(cid, copies) in &self.cells[j] {
                put_u32(&mut buf, cid);
                put_u32(&mut buf, copies);
            }
        }
        let mut ids: Vec<usize> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        put_usize(&mut buf, ids.len());
        for id in ids {
            let entry = self.entries[&id];
            put_usize(&mut buf, id);
            put_usize(&mut buf, entry.host as usize);
            put_u32(&mut buf, entry.class);
        }
        buf
    }

    /// Restores an engine from a [`to_snapshot_bytes`](Self::to_snapshot_bytes)
    /// image. Every structural invariant a corrupt payload could break is
    /// checked here (class/host indices in range, probabilities valid, no
    /// duplicate cells); callers wanting full confidence run
    /// [`check_consistency`](Self::check_consistency) on the result.
    ///
    /// # Errors
    /// [`FrameError::Decode`] on any truncation, range violation or
    /// malformed field.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, FrameError> {
        let bad = |msg: String| FrameError::Decode(msg);
        let mut c = Cursor::new(bytes);
        let d = c.usize()?;
        if d == 0 {
            return Err(bad("d must be at least 1".into()));
        }
        let rho = c.f64()?;
        let epsilon = c.f64()?;
        let p_on = c.f64()?;
        let p_off = c.f64()?;
        let prob_ok = |p: f64| p > 0.0 && p <= 1.0;
        if !prob_ok(p_on) || !prob_ok(p_off) {
            return Err(bad(format!("bad probabilities ({p_on}, {p_off})")));
        }
        if !(rho > 0.0 && rho < 1.0) {
            return Err(bad(format!("bad rho {rho}")));
        }
        let m = c.seq_len(16)?;
        if u32::try_from(m).is_err() {
            return Err(bad(format!("a pool of {m} PMs exceeds the u32 host index")));
        }
        let mut pms = Vec::with_capacity(m);
        for _ in 0..m {
            let id = c.usize()?;
            let capacity = c.f64()?;
            if capacity.is_nan() || capacity <= 0.0 {
                return Err(bad(format!("PM {id}: bad capacity {capacity}")));
            }
            pms.push(PmSpec { id, capacity });
        }
        let k = c.seq_len(48)?;
        let mut class_reps = Vec::with_capacity(k);
        let mut class_keys = Vec::with_capacity(k);
        let mut class_pop = Vec::with_capacity(k);
        let mut class_lookup = HashMap::with_capacity(k);
        for cid in 0..k {
            let id = c.usize()?;
            let (p_on, p_off) = (c.f64()?, c.f64()?);
            let (r_b, r_e) = (c.f64()?, c.f64()?);
            if !prob_ok(p_on)
                || !prob_ok(p_off)
                || r_b.is_nan()
                || r_b <= 0.0
                || r_e.is_nan()
                || r_e < 0.0
            {
                return Err(bad(format!("class {cid}: invalid representative spec")));
            }
            let rep = VmSpec {
                id,
                p_on,
                p_off,
                r_b,
                r_e,
            };
            let key = VmClass::of(&rep).key();
            if class_lookup.insert(key, cid as u32).is_some() {
                return Err(bad(format!("class {cid}: duplicate class key")));
            }
            class_reps.push(rep);
            class_keys.push(key);
            class_pop.push(c.u64()?);
        }
        let n_occupied = c.seq_len(40)?;
        if n_occupied > m {
            return Err(bad(format!("{n_occupied} occupied PMs exceed pool {m}")));
        }
        let mut loads = vec![PmLoad::empty(); m];
        let mut cells: Vec<Vec<(u32, u32)>> = vec![Vec::new(); m];
        let mut occupied = Vec::with_capacity(n_occupied);
        let mut occupied_pos = vec![usize::MAX; m];
        for _ in 0..n_occupied {
            let j = c.usize()?;
            if j >= m {
                return Err(bad(format!("occupied PM {j} out of range")));
            }
            if occupied_pos[j] != usize::MAX {
                return Err(bad(format!("PM {j} occupied twice")));
            }
            occupied_pos[j] = occupied.len();
            occupied.push(j);
            let count = c.usize()?;
            let (max_re, sum_rb, sum_rp) = (c.f64()?, c.f64()?, c.f64()?);
            if count == 0 {
                return Err(bad(format!("occupied PM {j} has an empty load")));
            }
            loads[j] = PmLoad {
                count,
                max_re,
                sum_rb,
                sum_rp,
            };
            let n_cells = c.seq_len(8)?;
            let mut pm_cells = Vec::with_capacity(n_cells);
            for _ in 0..n_cells {
                let cid = c.u32()?;
                let copies = c.u32()?;
                if cid as usize >= k {
                    return Err(bad(format!("PM {j}: cell class {cid} out of range")));
                }
                if copies == 0 || pm_cells.iter().any(|&(other, _)| other == cid) {
                    return Err(bad(format!("PM {j}: malformed cell for class {cid}")));
                }
                pm_cells.push((cid, copies));
            }
            cells[j] = pm_cells;
        }
        let n_entries = c.seq_len(20)?;
        let mut entries = HashMap::with_capacity(n_entries);
        for _ in 0..n_entries {
            let id = c.usize()?;
            let host = c.usize()?;
            let class = c.u32()?;
            if host >= m || class as usize >= k {
                return Err(bad(format!(
                    "VM {id}: entry ({host}, {class}) out of range"
                )));
            }
            let entry = VmEntry {
                host: host as u32,
                class,
            };
            if entries.insert(id, entry).is_some() {
                return Err(bad(format!("VM {id} appears twice")));
            }
        }
        c.expect_done()?;
        let strategy = QueueStrategy::build(d, p_on, p_off, rho);
        let headrooms: Vec<f64> = pms
            .iter()
            .enumerate()
            .map(|(j, pm)| strategy.headroom(&loads[j], pm.capacity))
            .collect();
        let index = HeadroomIndex::new(&headrooms);
        Ok(Self {
            pms,
            strategy,
            rho,
            d,
            epsilon,
            class_reps,
            class_keys,
            class_pop,
            class_lookup,
            entries,
            loads,
            cells,
            index,
            occupied,
            occupied_pos,
            scratch: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_obs::MemoryRecorder;

    fn vm(id: usize, r_b: f64, r_e: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, r_e)
    }

    fn cluster(caps: &[f64]) -> OnlineCluster {
        let pms = caps
            .iter()
            .enumerate()
            .map(|(j, &c)| PmSpec::new(j, c))
            .collect();
        OnlineCluster::new(pms, 16, 0.01, 0.09, 0.01)
    }

    fn ref_cluster(caps: &[f64]) -> ReferenceOnlineCluster {
        let pms = caps
            .iter()
            .enumerate()
            .map(|(j, &c)| PmSpec::new(j, c))
            .collect();
        ReferenceOnlineCluster::new(pms, 16, 0.01, 0.09, 0.01)
    }

    #[test]
    fn arrivals_fill_first_feasible_pm() {
        let mut c = cluster(&[100.0, 100.0]);
        let j0 = c.arrive(vm(0, 10.0, 5.0)).unwrap();
        let j1 = c.arrive(vm(1, 10.0, 5.0)).unwrap();
        assert_eq!(j0, 0);
        assert_eq!(j1, 0);
        assert_eq!(c.pms_used(), 1);
        c.check_consistency().unwrap();
    }

    #[test]
    fn departure_frees_capacity() {
        let mut c = cluster(&[40.0]);
        c.arrive(vm(0, 20.0, 5.0)).unwrap();
        c.arrive(vm(1, 10.0, 5.0)).unwrap();
        // A third large VM does not fit…
        assert!(c.arrive(vm(2, 20.0, 5.0)).is_err());
        // …until one departs.
        assert_eq!(c.depart(0), Some(0));
        c.arrive(vm(2, 20.0, 5.0)).unwrap();
        assert_eq!(c.n_vms(), 2);
        c.check_consistency().unwrap();
    }

    #[test]
    fn depart_unknown_vm_is_none() {
        let mut c = cluster(&[10.0]);
        assert_eq!(c.depart(99), None);
        let mut r = ref_cluster(&[10.0]);
        assert_eq!(r.depart(99), None);
    }

    #[test]
    fn departure_shrinks_max_re() {
        let mut c = cluster(&[100.0]);
        c.arrive(vm(0, 10.0, 20.0)).unwrap();
        c.arrive(vm(1, 10.0, 2.0)).unwrap();
        assert_eq!(c.load(0).max_re, 20.0);
        c.depart(0);
        assert_eq!(c.load(0).max_re, 2.0);
        c.check_consistency().unwrap();
    }

    #[test]
    fn batch_arrival_places_all_and_orders_by_cluster() {
        let mut c = cluster(&[100.0, 100.0, 100.0]);
        let batch: Vec<VmSpec> = (0..12)
            .map(|i| vm(i, 10.0, (i % 4 + 1) as f64 * 4.0))
            .collect();
        let placed = c.arrive_batch(batch).unwrap();
        assert_eq!(placed.len(), 12);
        assert_eq!(c.n_vms(), 12);
        c.check_consistency().unwrap();
    }

    #[test]
    fn batch_failure_keeps_partial_placements() {
        let mut c = cluster(&[25.0]);
        let batch = vec![vm(0, 10.0, 1.0), vm(1, 10.0, 1.0), vm(2, 10.0, 1.0)];
        let err = c.arrive_batch(batch).unwrap_err();
        // Two fit (2×10 + 1×1 block ≤ 25), the third does not.
        assert_eq!(err.vm_id, 2);
        assert_eq!(c.n_vms(), 2);
        c.check_consistency().unwrap();
    }

    #[test]
    fn rounding_averages_probabilities() {
        let vms = vec![
            VmSpec::new(0, 0.01, 0.05, 1.0, 1.0),
            VmSpec::new(1, 0.03, 0.15, 1.0, 1.0),
        ];
        let (p_on, p_off) = round_probabilities(&vms).unwrap();
        assert!((p_on - 0.02).abs() < 1e-12);
        assert!((p_off - 0.10).abs() < 1e-12);
        assert_eq!(round_probabilities(&[]), None);
    }

    #[test]
    fn recalibrate_rebuilds_strategy_from_population() {
        let mut c = cluster(&[1000.0]);
        c.arrive(VmSpec::new(0, 0.2, 0.2, 10.0, 5.0)).unwrap();
        c.arrive(VmSpec::new(1, 0.4, 0.4, 10.0, 5.0)).unwrap();
        let (p_on, p_off) = c.recalibrate().unwrap();
        assert!((p_on - 0.3).abs() < 1e-12);
        assert!((p_off - 0.3).abs() < 1e-12);
        assert_eq!(c.strategy().mapping().probabilities(), (p_on, p_off));
    }

    #[test]
    fn recalibrate_empty_cluster_is_none() {
        let mut c = cluster(&[10.0]);
        assert_eq!(c.recalibrate(), None);
        let mut r = ref_cluster(&[10.0]);
        assert_eq!(r.recalibrate(), None);
    }

    #[test]
    fn placements_are_feasible_until_recalibration_tightens() {
        let mut c = cluster(&[40.0]);
        // Two calm VMs fill the PM exactly under the calm table.
        c.arrive(VmSpec::new(0, 0.01, 0.09, 14.0, 12.0)).unwrap();
        c.arrive(VmSpec::new(1, 0.01, 0.09, 14.0, 11.0)).unwrap();
        assert!(c.infeasible_pms().is_empty());
        // A much burstier newcomer elsewhere drags the rounded p_on up;
        // the rebuilt table demands more blocks and PM 0 is now over.
        c.depart(1);
        c.arrive(VmSpec::new(2, 0.9, 0.09, 14.0, 12.0)).unwrap();
        c.recalibrate().unwrap();
        let infeasible = c.infeasible_pms();
        assert_eq!(infeasible, vec![0], "tightened table must flag PM 0");
        // Consistency (load caching) is unaffected by recalibration.
        c.check_consistency().unwrap();
    }

    #[test]
    fn index_stays_consistent_through_churn() {
        // Arrivals, departures, a batch, and a recalibration in sequence;
        // check_consistency validates the headroom index against a fresh
        // recomputation at every step.
        let mut c = cluster(&[60.0, 60.0, 60.0]);
        for i in 0..12 {
            c.arrive(vm(i, 6.0, 4.0)).unwrap();
        }
        c.check_consistency().unwrap();
        for i in (0..12).step_by(2) {
            assert!(c.depart(i).is_some());
        }
        c.check_consistency().unwrap();
        c.arrive_batch((100..106).map(|i| vm(i, 8.0, 3.0)).collect())
            .unwrap();
        c.check_consistency().unwrap();
        c.recalibrate().unwrap();
        c.check_consistency().unwrap();
    }

    #[test]
    fn recorded_churn_counts_arrivals_departures_recalibrations() {
        let mut c = cluster(&[100.0, 100.0]);
        let mut rec = MemoryRecorder::new(0);
        c.arrive_recorded(vm(0, 10.0, 5.0), &mut rec).unwrap();
        c.arrive_batch_recorded(vec![vm(1, 10.0, 5.0), vm(2, 10.0, 5.0)], &mut rec)
            .unwrap();
        assert_eq!(rec.counter(Counter::OnlineArrivals), 3);
        assert_eq!(rec.counter(Counter::OnlineBatches), 1);
        assert!(rec.counter(Counter::PackProbes) >= 2);
        assert_eq!(c.depart_recorded(1, &mut rec), Some(0));
        assert_eq!(c.depart_recorded(99, &mut rec), None, "unknown VM");
        assert_eq!(rec.counter(Counter::OnlineDepartures), 1);
        c.recalibrate_recorded(&mut rec).unwrap();
        assert_eq!(rec.counter(Counter::OnlineRecalibrations), 1);
        // The recorder never perturbs the cluster.
        c.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "already in the cluster")]
    fn duplicate_arrival_panics() {
        let mut c = cluster(&[100.0]);
        c.arrive(vm(0, 1.0, 1.0)).unwrap();
        let _ = c.arrive(vm(0, 1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "already in the cluster")]
    fn duplicate_inside_batch_panics() {
        let mut c = cluster(&[100.0]);
        let _ = c.arrive_batch(vec![vm(0, 1.0, 1.0), vm(0, 1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "VM id 7 already in the cluster")]
    fn batch_member_already_hosted_panics() {
        let mut c = cluster(&[100.0]);
        c.arrive(vm(7, 1.0, 1.0)).unwrap();
        let _ = c.arrive_batch(vec![vm(6, 1.0, 1.0), vm(7, 1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "VM id 3 already in the cluster")]
    fn duplicate_inside_batch_panics_on_the_per_vm_fallback() {
        // More classes than the collapse tracks: the batch is placed VM by
        // VM, and the second id 3 is caught at its insert there too.
        let mut c = cluster(&[1000.0; 8]);
        let mut batch: Vec<VmSpec> = (0..100)
            .map(|i| vm(i, 1.0 + i as f64 * 0.01, 1.0))
            .collect();
        assert!(collapse_classes(&batch).is_none());
        batch.push(vm(3, 0.5, 1.0));
        let _ = c.arrive_batch(batch);
    }

    #[test]
    fn whole_fleet_passes_stay_off_the_tree() {
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let mut g = FleetGenerator::new(1);
        let fleet = g.vms_table_i(20_000, WorkloadPattern::EqualSpike);
        let mut c = OnlineCluster::new(g.pms(5_000), 16, 0.01, 0.09, 0.01);
        // Warm-up: every gap between admitting PMs fits the look-ahead
        // window, and a pass that fills a quarter of the pool opens its
        // later runs at the window too — no search climbs.
        c.arrive_batch(fleet).unwrap();
        assert_eq!(c.index.probes(), 0);
        c.check_consistency().unwrap();
        // A small batch onto the populated cluster starts behind thousands
        // of full PMs: each class run opens at the tree, as it always has.
        let batch: Vec<VmSpec> = (0..12)
            .map(|i| {
                vm(
                    1_000_000 + i,
                    [5.0, 10.0, 20.0][i % 3],
                    [5.0, 10.0, 20.0][i % 3],
                )
            })
            .collect();
        c.arrive_batch(batch).unwrap();
        assert_eq!(c.index.probes(), 3, "one climb per class run");
        c.check_consistency().unwrap();
        // A rebuilt table rewrites the occupied PMs' leaves — most of the
        // pool — and repairs the tree in the one closing flush.
        c.arrive(VmSpec::new(2_000_000, 0.2, 0.3, 5.0, 5.0))
            .unwrap();
        c.recalibrate().unwrap();
        assert_eq!(c.index.probes(), 3);
        c.check_consistency().unwrap();
    }

    #[test]
    fn online_matches_offline_for_batch_from_empty() {
        // Placing a whole fleet as one batch from an empty cluster must
        // match Algorithm 2's offline result (same ordering, same Eq. 17).
        use crate::pack::first_fit;
        let vms: Vec<VmSpec> = (0..30)
            .map(|i| vm(i, 2.0 + (i % 9) as f64 * 2.0, 2.0 + (i % 5) as f64 * 4.0))
            .collect();
        let caps: Vec<f64> = vec![90.0; 30];
        let mut online = cluster(&caps);
        online.arrive_batch(vms.clone()).unwrap();

        let pms: Vec<PmSpec> = caps
            .iter()
            .enumerate()
            .map(|(j, &c)| PmSpec::new(j, c))
            .collect();
        let strategy =
            QueueStrategy::build(16, 0.01, 0.09, 0.01).with_buckets(default_buckets(vms.len()));
        let offline = first_fit(&vms, &pms, &strategy).unwrap();
        assert_eq!(online.pms_used(), offline.pms_used());
        for (i, v) in vms.iter().enumerate() {
            assert_eq!(online.host_of(v.id), offline.assignment[i]);
        }
    }

    #[test]
    fn departure_visit_counts_stay_bounded_as_fleet_grows() {
        // Satellite 1 regression: a departure must touch only the host
        // PM's survivors (≤ d), never the fleet — so per-departure visit
        // counts are identical at 128 and 1024 VMs.
        let mut per_fleet_max: Vec<u64> = Vec::new();
        for n in [128usize, 1024] {
            let mut c = cluster(&vec![100.0; n]);
            for i in 0..n {
                c.arrive(vm(i, 6.0 + (i % 3) as f64, 4.0 + (i % 2) as f64))
                    .unwrap();
            }
            let mut max_visits = 0u64;
            for i in (0..n).step_by(n / 8) {
                let mut rec = MemoryRecorder::new(0);
                assert!(c.depart_recorded(i, &mut rec).is_some());
                let visits = rec.counter(Counter::DepartRebuildVisits);
                assert!(visits <= 16, "visits {visits} exceed the d = 16 cap");
                max_visits = max_visits.max(visits);
            }
            per_fleet_max.push(max_visits);
        }
        assert_eq!(
            per_fleet_max[0], per_fleet_max[1],
            "per-departure rebuild work must not grow with the fleet"
        );
    }

    #[test]
    fn infeasible_pms_on_sparse_million_pm_pool() {
        // Satellite 2: a sparse huge pool — the scan must agree with the
        // O(m) oracle while walking only the occupied handful.
        let m = 1_000_000usize;
        let pms: Vec<PmSpec> = (0..m).map(|j| PmSpec::new(j, 40.0)).collect();
        let mut c = OnlineCluster::new(pms.clone(), 16, 0.01, 0.09, 0.01);
        for i in 0..32 {
            c.arrive(VmSpec::new(i, 0.01, 0.09, 14.0, 12.0)).unwrap();
        }
        assert_eq!(c.pms_used(), 16, "two calm VMs per 40-capacity PM");
        assert!(c.infeasible_pms().is_empty());
        c.arrive(VmSpec::new(1000, 0.9, 0.09, 14.0, 12.0)).unwrap();
        c.recalibrate().unwrap();
        let listed = c.infeasible_pms();
        let oracle: Vec<usize> = (0..m)
            .filter(|&j| {
                let load = c.load(j);
                !load.is_empty() && !c.strategy().feasible(load, pms[j].capacity)
            })
            .collect();
        assert_eq!(listed, oracle);
        assert!(
            !listed.is_empty(),
            "the tightened table must flag the calm pairs"
        );
        c.check_consistency().unwrap();
    }

    #[test]
    fn epsilon_recalibration_skips_rebuild() {
        // A drifted-but-close population: with ε = 0.05 the pair moves by
        // 0.004/0.004 and the cached table is kept; with the default
        // ε = 0 the same population forces a rebuild.
        let populate = |a: &mut OnlineCluster| {
            a.arrive(VmSpec::new(0, 0.012, 0.092, 10.0, 5.0)).unwrap();
            a.arrive(VmSpec::new(1, 0.016, 0.096, 10.0, 5.0)).unwrap();
        };
        let mut c = cluster(&[1000.0]).with_recalibration_epsilon(0.05);
        populate(&mut c);
        let mut rec = MemoryRecorder::new(0);
        let pair = c.recalibrate_recorded(&mut rec).unwrap();
        assert!((pair.0 - 0.014).abs() < 1e-12);
        assert!((pair.1 - 0.094).abs() < 1e-12);
        assert_eq!(rec.counter(Counter::OnlineRecalibrations), 1);
        assert_eq!(rec.counter(Counter::OnlineRecalibrationsSkipped), 1);
        assert_eq!(
            c.strategy().mapping().probabilities(),
            (0.01, 0.09),
            "ε-gate must keep the built table"
        );
        c.check_consistency().unwrap();

        // The reference engine applies the identical gate.
        let mut r = ref_cluster(&[1000.0]).with_recalibration_epsilon(0.05);
        r.arrive(VmSpec::new(0, 0.012, 0.092, 10.0, 5.0)).unwrap();
        r.arrive(VmSpec::new(1, 0.016, 0.096, 10.0, 5.0)).unwrap();
        let rpair = r.recalibrate().unwrap();
        assert_eq!(pair.0.to_bits(), rpair.0.to_bits());
        assert_eq!(r.strategy().mapping().probabilities(), (0.01, 0.09));

        // Default ε = 0: the same drift rebuilds.
        let mut c0 = cluster(&[1000.0]);
        populate(&mut c0);
        let pair0 = c0.recalibrate().unwrap();
        assert_eq!(c0.strategy().mapping().probabilities(), pair0);
        c0.check_consistency().unwrap();
    }

    /// Drives both engines through the same mixed churn (arrivals,
    /// departures, a batch, a recalibration) and returns them.
    fn churned_pair() -> (OnlineCluster, ReferenceOnlineCluster) {
        let caps = vec![70.0; 10];
        let mut a = cluster(&caps);
        let mut b = ref_cluster(&caps);
        for i in 0..20 {
            let v = vm(i, 5.0 + (i % 3) as f64, 3.0 + (i % 4) as f64);
            a.arrive(v).unwrap();
            b.arrive(v).unwrap();
        }
        for i in (0..20).step_by(3) {
            assert_eq!(a.depart(i), b.depart(i));
        }
        let batch: Vec<VmSpec> = (100..112)
            .map(|i| VmSpec::new(i, 0.02 + (i % 2) as f64 * 0.01, 0.08, 6.0, 4.0))
            .collect();
        assert_eq!(a.arrive_batch(batch.clone()), b.arrive_batch(batch));
        assert_eq!(a.recalibrate(), b.recalibrate());
        (a, b)
    }

    #[test]
    fn state_digest_agrees_across_engines_and_detects_change() {
        let (mut a, b) = churned_pair();
        let da = a.state_digest();
        assert_eq!(da, b.state_digest(), "bit-identical engines, equal digest");
        assert_eq!(da.n_vms, a.n_vms());
        assert_eq!(da.pms_used, a.pms_used());
        // Any further op must move the digest.
        a.depart(1).unwrap();
        assert_ne!(a.state_digest(), da);
        assert_ne!(a.state_digest().combined(), da.combined());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_and_continues_identically() {
        let (a, _) = churned_pair();
        let bytes = a.to_snapshot_bytes();
        let mut restored = OnlineCluster::from_snapshot_bytes(&bytes).expect("decodes");
        restored.check_consistency().unwrap();
        assert_eq!(restored.state_digest(), a.state_digest());
        // Loads must be verbatim, bits included.
        for j in 0..10 {
            assert_eq!(
                a.load(j).sum_rb.to_bits(),
                restored.load(j).sum_rb.to_bits()
            );
            assert_eq!(
                a.load(j).sum_rp.to_bits(),
                restored.load(j).sum_rp.to_bits()
            );
            assert_eq!(
                a.load(j).max_re.to_bits(),
                restored.load(j).max_re.to_bits()
            );
            assert_eq!(
                a.index.value(j).to_bits(),
                restored.index.value(j).to_bits()
            );
        }
        assert_eq!(
            a.strategy().mapping().probabilities(),
            restored.strategy().mapping().probabilities()
        );
        // The image is canonical: re-snapshotting reproduces it.
        assert_eq!(restored.to_snapshot_bytes(), bytes);
        // Continuation stays bit-identical through every op kind.
        let mut live = a;
        for (step, engine) in [&mut live, &mut restored].into_iter().enumerate() {
            engine.arrive(vm(500, 4.0, 2.0)).unwrap();
            engine
                .arrive_batch((600..605).map(|i| vm(i, 3.0, 6.0)).collect())
                .unwrap();
            engine.depart(101).unwrap();
            engine.recalibrate().unwrap();
            engine.check_consistency().unwrap();
            let _ = step;
        }
        assert_eq!(live.state_digest(), restored.state_digest());
    }

    #[test]
    fn snapshot_corruption_fails_cleanly() {
        let (a, _) = churned_pair();
        let bytes = a.to_snapshot_bytes();
        // Every truncation must error, never panic.
        for cut in 0..bytes.len() {
            assert!(OnlineCluster::from_snapshot_bytes(&bytes[..cut]).is_err());
        }
        // An out-of-range class id must be caught structurally.
        let mut torn = bytes.clone();
        torn.truncate(8);
        torn[0] = 0; // d = 0
        assert!(OnlineCluster::from_snapshot_bytes(&torn).is_err());
    }

    #[test]
    fn empty_cluster_snapshot_round_trips() {
        let a = cluster(&[50.0, 60.0]);
        let restored = OnlineCluster::from_snapshot_bytes(&a.to_snapshot_bytes()).unwrap();
        restored.check_consistency().unwrap();
        assert_eq!(restored.n_vms(), 0);
        assert_eq!(restored.state_digest(), a.state_digest());
    }

    #[test]
    fn batch_fast_path_matches_reference_on_populated_cluster() {
        // A duplicate-heavy batch onto a cluster that already carries
        // load and holes: the class-collapsed path and the per-VM
        // reference must agree on every host, bit-identical loads and
        // headrooms included.
        let caps = vec![60.0; 12];
        let mut a = cluster(&caps);
        let mut b = ref_cluster(&caps);
        for i in 0..10 {
            let v = vm(i, 6.0, 4.0);
            a.arrive(v).unwrap();
            b.arrive(v).unwrap();
        }
        for i in (0..10).step_by(3) {
            assert_eq!(a.depart(i), b.depart(i));
        }
        let batch: Vec<VmSpec> = (100..130)
            .map(|i| {
                if i % 2 == 0 {
                    vm(i, 8.0, 3.0)
                } else {
                    vm(i, 3.0, 6.0)
                }
            })
            .collect();
        let ra = a.arrive_batch(batch.clone()).unwrap();
        let rb = b.arrive_batch(batch).unwrap();
        assert_eq!(ra, rb);
        for j in 0..caps.len() {
            assert_eq!(a.load(j), b.load(j), "PM {j} load");
            assert_eq!(
                a.index.value(j).to_bits(),
                b.index.value(j).to_bits(),
                "PM {j} headroom"
            );
        }
        a.check_consistency().unwrap();
        b.check_consistency().unwrap();
    }

    mod churn {
        use super::*;
        use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
        use proptest::strategy::Strategy as PropStrategy;

        /// Six heterogeneous templates. Classes 0 and 2 share `(r_b,
        /// r_e)` with different probabilities, so a batch holding both
        /// has an exact cross-class key tie — `class_schedule` bails and
        /// the fallback per-VM path gets exercised alongside the fast
        /// one. Template 3 is bursty enough that recalibration tightens
        /// the table and induces infeasible incumbents.
        const TEMPLATES: [(f64, f64, f64, f64); 6] = [
            (0.01, 0.09, 4.0, 3.0),
            (0.01, 0.09, 7.0, 5.0),
            (0.02, 0.10, 4.0, 3.0),
            (0.30, 0.20, 10.0, 8.0),
            (0.05, 0.15, 2.0, 6.0),
            (0.01, 0.09, 7.0, 2.0),
        ];

        fn spec(t: u8, id: usize) -> VmSpec {
            let (p_on, p_off, r_b, r_e) = TEMPLATES[t as usize % TEMPLATES.len()];
            VmSpec::new(id, p_on, p_off, r_b, r_e)
        }

        #[derive(Debug, Clone)]
        enum Op {
            Arrive(u8),
            Depart(u8),
            Batch(Vec<u8>),
            Recalibrate,
        }

        fn op_gen() -> impl PropStrategy<Value = Op> {
            (
                0u8..9,
                0u8..6,
                proptest::collection::vec(0u8..6, 1..8),
                0u8..=255,
            )
                .prop_map(|(which, t, ts, sel)| match which {
                    0..=2 => Op::Arrive(t),
                    3..=5 => Op::Depart(sel),
                    6 | 7 => Op::Batch(ts),
                    _ => Op::Recalibrate,
                })
        }

        const CAPS: [f64; 6] = [55.0, 70.0, 40.0, 90.0, 60.0, 80.0];

        fn engines() -> (OnlineCluster, ReferenceOnlineCluster) {
            let pms: Vec<PmSpec> = CAPS
                .iter()
                .enumerate()
                .map(|(j, &c)| PmSpec::new(j, c))
                .collect();
            (
                OnlineCluster::new(pms.clone(), 5, 0.01, 0.09, 0.01),
                ReferenceOnlineCluster::new(pms, 5, 0.01, 0.09, 0.01),
            )
        }

        /// The full observable state must agree after every op — hosts,
        /// bit-identical loads and index entries, occupancy, and the
        /// infeasible list.
        fn compare(a: &OnlineCluster, b: &ReferenceOnlineCluster, live: &[usize]) {
            a.check_consistency().unwrap();
            b.check_consistency().unwrap();
            assert_eq!(a.n_vms(), b.n_vms());
            assert_eq!(a.pms_used(), b.pms_used());
            for &id in live {
                assert_eq!(a.host_of(id), b.host_of(id), "VM {id} host");
            }
            for j in 0..CAPS.len() {
                assert_eq!(a.load(j), b.load(j), "PM {j} load");
                assert_eq!(
                    a.index.value(j).to_bits(),
                    b.index.value(j).to_bits(),
                    "PM {j} headroom"
                );
            }
            assert_eq!(a.infeasible_pms(), b.infeasible_pms());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn interleaved_churn_matches_reference(
                ops in proptest::collection::vec(op_gen(), 1..50)
            ) {
                let (mut a, mut b) = engines();
                let mut live: Vec<usize> = Vec::new();
                let mut next_id = 0usize;
                for op in ops {
                    match op {
                        Op::Arrive(t) => {
                            let v = spec(t, next_id);
                            next_id += 1;
                            let ra = a.arrive(v);
                            let rb = b.arrive(v);
                            prop_assert_eq!(&ra, &rb);
                            if ra.is_ok() {
                                live.push(v.id);
                            }
                        }
                        Op::Depart(sel) => {
                            if live.is_empty() {
                                prop_assert_eq!(a.depart(usize::MAX), None);
                                prop_assert_eq!(b.depart(usize::MAX), None);
                            } else {
                                let i = sel as usize % live.len();
                                let id = live.swap_remove(i);
                                let ra = a.depart(id);
                                prop_assert_eq!(ra, b.depart(id));
                                prop_assert!(ra.is_some());
                            }
                        }
                        Op::Batch(ts) => {
                            let batch: Vec<VmSpec> = ts
                                .iter()
                                .map(|&t| {
                                    let v = spec(t, next_id);
                                    next_id += 1;
                                    v
                                })
                                .collect();
                            let ra = a.arrive_batch(batch.clone());
                            let rb = b.arrive_batch(batch.clone());
                            prop_assert_eq!(&ra, &rb);
                            // On a mid-batch failure both engines keep the
                            // same partial placements; pick them up.
                            for v in &batch {
                                if a.host_of(v.id).is_some() {
                                    live.push(v.id);
                                }
                            }
                        }
                        Op::Recalibrate => {
                            let ra = a.recalibrate();
                            let rb = b.recalibrate();
                            match (ra, rb) {
                                (None, None) => {}
                                (Some(x), Some(y)) => {
                                    prop_assert_eq!(x.0.to_bits(), y.0.to_bits());
                                    prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
                                }
                                other => prop_assert!(false, "recalibrate mismatch {:?}", other),
                            }
                        }
                    }
                    compare(&a, &b, &live);
                }
            }
        }
    }
}
