//! Online consolidation (paper §IV-E): single arrivals, exits and batch
//! arrivals of VMs whose switch probabilities differ.
//!
//! The paper rounds heterogeneous `p_on`/`p_off` to one fleet-wide pair
//! and "periodically recalculates" it. Both engines here check Eq. 17 per
//! PM instead, through the one QUEUE rule ([`QueueStrategy`]) built with
//! no floor: each PM is priced at the hottest chain it would host — the
//! largest `π = p_on/(p_on + p_off)` among its VMs and the newcomer. A
//! PM's ON count is stochastically below `Binomial(k, max π)`, so every
//! PM's exact CVR stays ≤ ρ whatever the rest of the fleet hosts, and
//! there is no fleet-wide pair to re-round: [`OnlineCluster::recalibrate`]
//! only reports the hottest live class (DESIGN §12). The configured
//! `(p_on, p_off)` prices nothing; a snapshot records it.
//!
//! Two engines implement the same contract:
//!
//! * [`OnlineCluster`] — the fleet-scale engine. Per-PM state is a set of
//!   *class-count cells* keyed by the cached `[u64; 4]` class bit pattern,
//!   so a departure is a counter decrement plus a canonical `O(d)` rebuild
//!   and one `O(log m)` index refresh — never a population scan. Batch
//!   arrivals take the offline packer's route and its run placer
//!   (`batch.rs`: class runs placed with closed-form admissions, PMs found
//!   by the index's lazy search, [`HeadroomIndex::first_admitting`] — a
//!   bounded look-ahead over the leaves in front of the tree, no climb per
//!   filled PM), and a collapsed batch is committed as the offline packer
//!   assigns: from its fills, with one batch-order scatter and no
//!   per-member order. A batch ends with [`HeadroomIndex::flush`]: every
//!   public `&mut self` method returns with the index flushed, so single
//!   arrivals, departures and every `&self` reader search a tree that is
//!   right. A new cluster holds the leaves only; its first arrival's
//!   flush builds the tree.
//! * [`ReferenceOnlineCluster`] — the direct per-VM implementation kept as
//!   the differential oracle. Its only structural concession is a per-PM
//!   member list so a departure rebuilds from the `≤ d` co-located VMs
//!   instead of scanning the whole host map.
//!
//! Both engines rebuild departed-from PMs through the same canonical
//! class-ordered exact fold and admit through the same rule, so their
//! loads, headrooms and placements are **bit-identical** under arbitrary
//! interleaved churn — pinned by the differential property test at the
//! bottom of this file, beside the one that holds every PM to ρ by its
//! exact stationary law.

use crate::batch::{
    collapse_classes_seeing, collapsed_schedule, fill_hosts, lap, nth_member_id, place_run,
    strategy_runs, ClassTable, FillCursors, RunMemo, RunPool, MAX_TRACKED_CLASSES,
};
use crate::clustering::{cluster_order, default_buckets};
use crate::index::HeadroomIndex;
use crate::load::{stationary_on, PmLoad};
use crate::order::PmOrder;
use crate::pack::{probe_first_fit, PackError};
use crate::strategy::{QueueStrategy, Strategy};
use bursty_obs::durable::{write_seq, Cursor, FrameError, Wire};
use bursty_obs::{Counter, NoopRecorder, Recorder};
use bursty_workload::{PmSpec, VmClass, VmSpec};
use std::collections::{hash_map::Entry, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

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

/// Shared digest fold: `pairs` must arrive in ascending VM id order, and
/// `loads` in PM index order.
fn digest_from<'a>(
    n_vms: usize,
    pms_used: usize,
    pairs: impl Iterator<Item = (usize, usize)>,
    loads: impl Iterator<Item = &'a PmLoad>,
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

/// The operations an online driver applies, the same over both engines:
/// the serving layer's one op applier (`server::state::apply_op`) and the
/// admission bench drive [`OnlineCluster`] and [`ReferenceOnlineCluster`]
/// through it. Each method is the engine's own method of that name, but
/// for `arrive_batch`, whose error also hands back the members placed
/// before the refused one; the mutating ones take the recorder
/// [`OnlineCluster`]'s `_recorded` methods take, which the reference
/// ignores (it records nothing).
pub trait OnlineEngine {
    fn host_of(&self, vm_id: usize) -> Option<usize>;
    fn arrive<R: Recorder>(&mut self, vm: VmSpec, rec: &mut R) -> Result<usize, PackError>;
    fn arrive_batch<R: Recorder>(&mut self, batch: Vec<VmSpec>, rec: &mut R) -> ArriveBatch;
    fn depart<R: Recorder>(&mut self, vm_id: usize, rec: &mut R) -> Option<usize>;
    fn recalibrate<R: Recorder>(&self, rec: &mut R) -> Option<(f64, f64)>;
    fn state_digest(&self) -> StateDigest;
    fn check_consistency(&self) -> Result<(), String>;
}

/// What a batch arrival returns: every `(VM id, PM)` placement, or the
/// first VM no PM admits beside the placements of the members committed
/// before it, which stay placed.
type ArriveBatch = Result<Vec<(usize, usize)>, (PackError, Vec<(usize, usize)>)>;

impl OnlineEngine for OnlineCluster {
    fn host_of(&self, vm_id: usize) -> Option<usize> {
        self.host_of(vm_id)
    }
    fn arrive<R: Recorder>(&mut self, vm: VmSpec, rec: &mut R) -> Result<usize, PackError> {
        self.arrive_recorded(vm, rec)
    }
    fn arrive_batch<R: Recorder>(&mut self, batch: Vec<VmSpec>, rec: &mut R) -> ArriveBatch {
        match self.arrive_batch_with(batch, rec, true) {
            (Ok(()), placed) => Ok(placed),
            (Err(e), placed) => Err((e, placed)),
        }
    }
    fn depart<R: Recorder>(&mut self, vm_id: usize, rec: &mut R) -> Option<usize> {
        self.depart_recorded(vm_id, rec)
    }
    fn recalibrate<R: Recorder>(&self, rec: &mut R) -> Option<(f64, f64)> {
        self.recalibrate_recorded(rec)
    }
    fn state_digest(&self) -> StateDigest {
        self.state_digest()
    }
    fn check_consistency(&self) -> Result<(), String> {
        self.check_consistency()
    }
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

/// Whether `p` is a switch probability, in `(0, 1]`.
fn is_probability(p: f64) -> bool {
    p > 0.0 && p <= 1.0
}

/// The `(p_on, p_off)` of the hottest of `classes`: the largest `π`, and
/// among equal `π` the largest pair by total order, so every walk order
/// names the same pair. `None` when there is no class.
fn hottest_pair<'a>(classes: impl Iterator<Item = &'a VmSpec>) -> Option<(f64, f64)> {
    classes
        .map(|vm| (stationary_on(vm), vm.p_on, vm.p_off))
        .max_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(a.2.total_cmp(&b.2))
        })
        .map(|(_, p_on, p_off)| (p_on, p_off))
}

/// The direct per-VM online engine, retained as the differential oracle
/// for [`OnlineCluster`]. Semantics per §IV-E, under the per-PM rule of
/// the module docs:
///
/// * **arrival** — place one new VM on the first PM satisfying Eq. 17;
/// * **departure** — remove a VM and recompute the PM's load (from the
///   PM's own member list, not a fleet scan);
/// * **batch arrival** — cluster/sort the batch exactly as Algorithm 2
///   does, then First Fit each member;
/// * **recalibrate** — report the hottest live class; nothing to rebuild.
#[derive(Debug)]
pub struct ReferenceOnlineCluster {
    pms: Vec<PmSpec>,
    /// The pool's First-Fit order; the index's leaves are by position in
    /// it, everything else by PM index.
    order: Arc<PmOrder>,
    strategy: QueueStrategy,
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
    /// Creates an empty cluster over `pms` admitting by Eq. 17 per PM
    /// with co-location cap `d` and CVR bound `rho`, each PM priced at
    /// the hottest chain it hosts (see the module docs).
    pub fn new(pms: Vec<PmSpec>, d: usize, rho: f64) -> Self {
        let strategy = QueueStrategy::unfloored(d, rho);
        let order = PmOrder::of(&pms);
        let loads = vec![PmLoad::empty(); pms.len()];
        let headrooms: Vec<f64> = order
            .capacities()
            .iter()
            .map(|&cap| strategy.headroom(&PmLoad::empty(), cap))
            .collect();
        let index = HeadroomIndex::new(&headrooms);
        let members = vec![Vec::new(); pms.len()];
        Self {
            pms,
            order,
            strategy,
            vms: HashMap::new(),
            hosts: HashMap::new(),
            members,
            loads,
            index,
        }
    }

    /// Repairs the index entry of PM `j` after its load changed.
    fn refresh_pm(&mut self, j: usize) {
        let h = self.strategy.headroom(&self.loads[j], self.pms[j].capacity);
        self.index.update(self.order.position(j), h);
    }

    /// Number of VMs currently hosted.
    pub(crate) fn n_vms(&self) -> usize {
        self.vms.len()
    }

    /// Number of PMs currently in use.
    pub(crate) fn pms_used(&self) -> usize {
        self.loads.iter().filter(|l| !l.is_empty()).count()
    }

    /// The load of PM `j`.
    pub fn load(&self, j: usize) -> &PmLoad {
        &self.loads[j]
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
        self.place(vm)
    }

    /// First Fit for one VM under the per-PM rule, committed on success.
    fn place(&mut self, vm: VmSpec) -> Result<usize, PackError> {
        let Self {
            pms,
            order,
            strategy,
            loads,
            ..
        } = self;
        let slot = probe_first_fit(&self.index, strategy.demand(&vm), |p| {
            let j = order.pm(p);
            strategy.admits(&loads[j], &vm, pms[j].capacity)
        });
        let j = order.pm(slot.ok_or(PackError { vm_id: vm.id })?);
        self.loads[j].add(&vm);
        self.refresh_pm(j);
        self.hosts.insert(vm.id, j);
        self.members[j].push(vm.id);
        self.vms.insert(vm.id, vm);
        Ok(j)
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
        self.arrive_batch_pairs(batch).map_err(|(e, _)| e)
    }

    /// [`Self::arrive_batch`], keeping the pairs placed before a failure.
    fn arrive_batch_pairs(&mut self, batch: Vec<VmSpec>) -> ArriveBatch {
        let mut seen = HashSet::with_capacity(batch.len());
        for vm in &batch {
            assert!(
                !self.vms.contains_key(&vm.id) && seen.insert(vm.id),
                "VM id {} already in the cluster",
                vm.id
            );
        }
        let order = cluster_order(&batch, default_buckets(batch.len()));
        // Place one by one so partial progress is recorded before an error;
        // the cluster's own index persists across the whole batch, so each
        // member costs one O(log m) probe instead of an O(m) scan.
        let mut placed = Vec::with_capacity(batch.len());
        for i in order {
            match self.place(batch[i]) {
                Ok(j) => placed.push((batch[i].id, j)),
                Err(e) => return Err((e, placed)),
            }
        }
        Ok(placed)
    }

    /// The `(p_on, p_off)` of the hottest live class (see
    /// [`OnlineCluster::recalibrate`]), or `None` when the cluster is
    /// empty. Walks the population: this is the oracle.
    pub fn recalibrate(&self) -> Option<(f64, f64)> {
        hottest_pair(self.vms.values())
    }
}

impl OnlineEngine for ReferenceOnlineCluster {
    /// The host of a VM, if present.
    fn host_of(&self, vm_id: usize) -> Option<usize> {
        self.hosts.get(&vm_id).copied()
    }
    fn arrive<R: Recorder>(&mut self, vm: VmSpec, _: &mut R) -> Result<usize, PackError> {
        self.arrive(vm)
    }
    fn arrive_batch<R: Recorder>(&mut self, batch: Vec<VmSpec>, _: &mut R) -> ArriveBatch {
        self.arrive_batch_pairs(batch)
    }
    fn depart<R: Recorder>(&mut self, vm_id: usize, _: &mut R) -> Option<usize> {
        self.depart(vm_id)
    }
    fn recalibrate<R: Recorder>(&self, _: &mut R) -> Option<(f64, f64)> {
        self.recalibrate()
    }

    /// Verifies internal consistency: every cached load matches a rebuild
    /// from the authoritative host map, and the member lists agree with
    /// it. Intended for tests and debug assertions.
    ///
    /// # Errors
    /// A description of the first inconsistency found.
    fn check_consistency(&self) -> Result<(), String> {
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
            if !loads_agree(&rebuilt, cached) {
                return Err(format!("PM {j}: cached {cached:?} != rebuilt {rebuilt:?}"));
            }
            let expected = self.strategy.headroom(cached, self.pms[j].capacity);
            let indexed = self.index.value(self.order.position(j));
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

    /// The engine's observable end-state digest (see [`StateDigest`]).
    fn state_digest(&self) -> StateDigest {
        let mut ids: Vec<usize> = self.hosts.keys().copied().collect();
        ids.sort_unstable();
        digest_from(
            self.n_vms(),
            self.pms_used(),
            ids.iter().map(|&id| (id, self.hosts[&id])),
            self.loads.iter(),
        )
    }
}

/// Whether a cached load matches its rebuild: counts and hottest chains
/// exactly (both are order-free), sums to within fold-order rounding.
fn loads_agree(rebuilt: &PmLoad, cached: &PmLoad) -> bool {
    rebuilt.count == cached.count
        && rebuilt.max_pi == cached.max_pi
        && (rebuilt.sum_rb - cached.sum_rb).abs() <= 1e-9
        && (rebuilt.max_re - cached.max_re).abs() <= 1e-9
}

/// One occupied PM in a snapshot image: its index, its load verbatim
/// (`max_pi` is refolded from the cells on restore) and its cells.
type OccupiedPm = (usize, PmLoad, Vec<(u32, u32)>);

/// A VM's place in the fast engine: its host PM and class id. Two `u32`s
/// make one 8-byte slot of the [`VmTable`], the one structure that grows
/// with the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VmEntry {
    host: u32,
    class: u32,
}

impl VmEntry {
    /// An empty dense slot. No live entry has this host: `new` and
    /// `from_snapshot_bytes` refuse pools of more than `u32::MAX` PMs, so
    /// the largest host index is `u32::MAX - 1`.
    const VACANT: VmEntry = VmEntry {
        host: u32::MAX,
        class: u32::MAX,
    };

    fn is_live(&self) -> bool {
        self.host != u32::MAX
    }
}

/// The most dense slots a table may hold for a population of
/// `population` VMs: `2·population + 1024`. Neither constant is an
/// option; together they cap the dense part at 8 B × (2·peak + 1024)
/// whatever ids clients send.
fn dense_bound(population: usize) -> usize {
    2 * population + 1024
}

/// VM id → [`VmEntry`], split by density. Ids below the density bound
/// live in `dense`, a slot vector indexed by id — an insert, lookup or
/// removal is one array access, and [`Self::ascending`] is a sequential
/// walk. An id past the dense part goes to `sparse`, std's keyed SipHash
/// map: ids come off the wire, and one a client picks to collide or to
/// sit far away costs a keyed hash, never a slot per id below it.
///
/// The dense part grows straight to the id (or a batch's largest id) it
/// must cover, and only while the new length stays within
/// [`dense_bound`] of the live population plus the entries about to
/// arrive. A growth moves the sparse ids it now covers into it, so each id
/// lives in exactly one place and every sparse id is at least
/// `dense.len()`.
///
/// The part is indexed from id 0 and never shrinks, so the gain holds
/// while live ids stay below `2·live + 1024`: a warm-up of `0..n` and the
/// first turnover of rising ids after it. A fleet whose ids keep rising
/// under churn outgrows it — each later id goes to the sparse map, and
/// after a few turnovers most live VMs are sparse: per-op costs are then
/// the `HashMap`'s again, and a digest or snapshot sorts the sparse ids
/// (still fewer than all of them).
#[derive(Debug, Default)]
struct VmTable {
    dense: Vec<VmEntry>,
    sparse: HashMap<usize, VmEntry>,
    /// Live entries in both parts.
    len: usize,
}

impl VmTable {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, id: usize) -> Option<VmEntry> {
        match self.dense.get(id) {
            Some(slot) => slot.is_live().then_some(*slot),
            None => self.sparse.get(&id).copied(),
        }
    }

    /// The dense length that would cover `max_id` ahead of `incoming`
    /// inserts, if the density bound allows it.
    fn growth(&self, max_id: usize, incoming: usize) -> Option<usize> {
        let new_len = max_id.saturating_add(1);
        (new_len <= dense_bound(self.len + incoming)).then_some(new_len)
    }

    /// Extends the dense part to `new_len` slots and moves the sparse ids
    /// it now covers, by probing the new slots or by one pass over the
    /// sparse map's buckets, whichever is shorter. Only the new slots are
    /// written; the vector's own capacity doubling amortises its moves.
    fn grow(&mut self, new_len: usize) {
        let old_len = self.dense.len();
        self.dense.resize(new_len, VmEntry::VACANT);
        if self.sparse.is_empty() {
            return;
        }
        if self.sparse.capacity() > new_len - old_len {
            for id in old_len..new_len {
                if let Some(entry) = self.sparse.remove(&id) {
                    self.dense[id] = entry;
                }
            }
        } else {
            let dense = &mut self.dense;
            self.sparse.retain(|&id, entry| {
                let covered = id < new_len;
                if covered {
                    dense[id] = *entry;
                }
                !covered
            });
        }
    }

    /// Grows the dense part to cover ids up to `max_id` ahead of
    /// `incoming` inserts, if the bound allows; otherwise leaves it as it
    /// is and makes room for all `incoming` in the sparse map, where the
    /// ids past it go (no more than the `HashMap` this table replaced
    /// reserved for them).
    fn reserve(&mut self, max_id: usize, incoming: usize) {
        if max_id >= self.dense.len() {
            match self.growth(max_id, incoming) {
                Some(new_len) => self.grow(new_len),
                None => self.sparse.reserve(incoming),
            }
        }
    }

    /// Inserts `id`'s entry; `false`, with nothing changed, when `id` is
    /// already present.
    fn insert(&mut self, id: usize, entry: VmEntry) -> bool {
        debug_assert!(entry.is_live());
        if id >= self.dense.len() {
            match self.growth(id, 1) {
                // A present id must not grow the table for an insert that
                // does not happen; the lookup hashes only while the
                // sparse map holds anything.
                Some(_) if !self.sparse.is_empty() && self.sparse.contains_key(&id) => {
                    return false
                }
                Some(new_len) => self.grow(new_len),
                None => {
                    return match self.sparse.entry(id) {
                        Entry::Occupied(_) => false,
                        Entry::Vacant(slot) => {
                            slot.insert(entry);
                            self.len += 1;
                            true
                        }
                    };
                }
            }
        }
        let slot = &mut self.dense[id];
        if slot.is_live() {
            return false;
        }
        *slot = entry;
        self.len += 1;
        true
    }

    fn remove(&mut self, id: usize) -> Option<VmEntry> {
        let entry = match self.dense.get_mut(id) {
            Some(slot) if slot.is_live() => std::mem::replace(slot, VmEntry::VACANT),
            Some(_) => return None,
            None => self.sparse.remove(&id)?,
        };
        self.len -= 1;
        Some(entry)
    }

    /// Every entry in ascending id order: the dense slots in index order,
    /// then the sparse ids sorted — each is at least `dense.len()`, so
    /// only they need a sort.
    fn ascending(&self) -> impl Iterator<Item = (usize, VmEntry)> + '_ {
        let mut far: Vec<(usize, VmEntry)> = self.sparse.iter().map(|(&id, &e)| (id, e)).collect();
        far.sort_unstable_by_key(|&(id, _)| id);
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_live())
            .map(|(id, &slot)| (id, slot))
            .chain(far)
    }

    /// The table's own invariants: no sparse id the dense part covers,
    /// and the live count equal to the entries held.
    fn check(&self) -> Result<(), String> {
        if let Some(id) = self.sparse.keys().find(|&&id| id < self.dense.len()) {
            return Err(format!(
                "VM {id} is sparse below the dense length {}",
                self.dense.len()
            ));
        }
        let held = self.dense.iter().filter(|slot| slot.is_live()).count() + self.sparse.len();
        if held != self.len {
            return Err(format!(
                "VM table holds {held} entries, counts {}",
                self.len
            ));
        }
        Ok(())
    }
}

/// Cells a PM holds inline in a [`CellTable`]: the 1M-VM Table-I warm
/// fleet averages 2.1 classes a PM, none more than three.
const INLINE_CELLS: usize = 3;

/// Per-PM class-count cells `(class id, copies)`, by position, each PM's
/// in the order a `Vec` per PM would hold them: classes as they arrived,
/// an emptied cell swap-removed. There are at most `d` per PM, because
/// the admission rule caps co-location, and few: the first
/// [`INLINE_CELLS`] live inline in `inline`, and only a PM hosting more
/// classes holds the rest in a spill list. A warm fleet's commit so
/// allocates nothing per PM, and `inline` and `spill_at` start as zeroed
/// allocations.
#[derive(Debug, Default)]
struct CellTable {
    /// `[class id, copies]` of each PM's first cells, packed to the
    /// front; a slot of 0 copies, and every slot after it, is empty.
    inline: Vec<[[u32; 2]; INLINE_CELLS]>,
    /// 1 + the index in `spills` of the PM's cells past the inline ones,
    /// or 0.
    spill_at: Vec<u32>,
    /// The cells past the inline ones of the PMs that host more classes;
    /// a list a PM empties is reused.
    spills: Vec<Vec<(u32, u32)>>,
    /// Emptied lists of `spills`.
    free: Vec<u32>,
}

impl CellTable {
    /// `m` PMs hosting nothing.
    fn new(m: usize) -> Self {
        Self {
            inline: vec![[[0; 2]; INLINE_CELLS]; m],
            spill_at: vec![0; m],
            spills: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Position `p`'s inline cells.
    fn inline_len(&self, p: usize) -> usize {
        self.inline[p].iter().take_while(|cell| cell[1] > 0).count()
    }

    /// Position `p`'s cells past the inline ones.
    fn spill(&self, p: usize) -> &[(u32, u32)] {
        match self.spill_at[p] {
            0 => &[],
            at => &self.spills[at as usize - 1],
        }
    }

    /// Position `p`'s cell count.
    fn len(&self, p: usize) -> usize {
        self.inline_len(p) + self.spill(p).len()
    }

    /// Position `p`'s cells in order.
    fn of(&self, p: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.inline[p]
            .iter()
            .take_while(|cell| cell[1] > 0)
            .map(|&[cid, copies]| (cid, copies))
            .chain(self.spill(p).iter().copied())
    }

    /// Adds `copies` of class `cid` to position `p` (`O(d)` walk).
    fn add(&mut self, p: usize, cid: u32, copies: u32) {
        for cell in &mut self.inline[p] {
            if cell[1] == 0 {
                *cell = [cid, copies];
                return;
            }
            if cell[0] == cid {
                cell[1] += copies;
                return;
            }
        }
        let at = match self.spill_at[p] {
            0 => {
                let at = self.free.pop().unwrap_or_else(|| {
                    self.spills.push(Vec::new());
                    self.spills.len() as u32 - 1
                });
                self.spill_at[p] = at + 1;
                at as usize
            }
            at => at as usize - 1,
        };
        let spill = &mut self.spills[at];
        match spill.iter_mut().find(|cell| cell.0 == cid) {
            Some(cell) => cell.1 += copies,
            None => spill.push((cid, copies)),
        }
    }

    /// Removes one copy of class `cid` from position `p`; an emptied cell
    /// is swap-removed: the last cell takes its place.
    ///
    /// # Panics
    /// Panics if `p` has no cell of class `cid`.
    fn remove_one(&mut self, p: usize, cid: u32) {
        let (held, at) = (self.inline_len(p), self.spill_at[p] as usize);
        let spilled = self.spill(p).len();
        let pos = (0..held)
            .find(|&i| self.inline[p][i][0] == cid)
            .or_else(|| {
                let spill = self.spill(p);
                spill
                    .iter()
                    .position(|cell| cell.0 == cid)
                    .map(|i| held + i)
            })
            .expect("departing VM's class must have a cell on its host");
        let copies = match pos.checked_sub(held) {
            None => &mut self.inline[p][pos][1],
            Some(i) => &mut self.spills[at - 1][i].1,
        };
        *copies -= 1;
        if *copies > 0 {
            return;
        }
        let last = match at {
            0 => std::mem::take(&mut self.inline[p][held - 1]),
            at => {
                let (cid, copies) = self.spills[at - 1]
                    .pop()
                    .expect("spill lists are not empty");
                [cid, copies]
            }
        };
        if pos + 1 < held + spilled {
            match pos.checked_sub(held) {
                None => self.inline[p][pos] = last,
                Some(i) => self.spills[at - 1][i] = (last[0], last[1]),
            }
        }
        if at > 0 && self.spills[at - 1].is_empty() {
            self.spill_at[p] = 0;
            self.free.push(at as u32 - 1);
        }
    }
}

/// The cluster's loads and headroom index as the run placer's pool,
/// borrowed apart from its PM specs and strategy, which the placer takes
/// beside them, with the run's fills collected for the commit that
/// follows and its candidates booked into the caller's recorder.
struct LivePool<'a, R> {
    loads: &'a mut Vec<PmLoad>,
    index: &'a mut HeadroomIndex,
    memo: &'a mut RunMemo,
    fills: &'a mut Vec<(u32, u32)>,
    rec: &'a mut R,
}

impl<R: Recorder> RunPool for LivePool<'_, R> {
    fn index(&mut self) -> &mut HeadroomIndex {
        self.index
    }

    fn memo(&mut self) -> &mut RunMemo {
        self.memo
    }

    fn load(&self, p: usize) -> PmLoad {
        *self.loads.get(p).unwrap_or(&PmLoad::EMPTY)
    }

    /// Compares the stored loads one by one; past them every position is
    /// empty, so a stretch of empty seeds runs to `limit` unread.
    fn like_until(&self, p: usize, seed: &PmLoad, limit: usize) -> usize {
        let (key, len) = (seed.bits(), self.loads.len());
        match (p + 1..limit.min(len)).find(|&q| self.loads[q].bits() != key) {
            Some(q) => q,
            None if len >= limit || seed.is_empty() => limit,
            None => len.max(p + 1),
        }
    }

    fn commit<S: Strategy + ?Sized>(
        &mut self,
        at: Range<usize>,
        load: PmLoad,
        copies: usize,
        caps: &[f64],
        strategy: &S,
    ) {
        // The loads as one range, the stored ones extended past their end.
        let (len, Range { start, end }) = (self.loads.len(), at.clone());
        self.loads[start.min(len)..end.min(len)].fill(load);
        if end > len {
            self.loads.resize(start.max(len), PmLoad::empty());
            self.loads.resize(end, load);
        }
        for p in at {
            self.fills.push((p as u32, copies as u32));
            self.index.set(p, strategy.headroom(&load, caps[p]));
        }
    }

    fn probed(&mut self, candidates: u64, rejected: u64) {
        self.rec.counter_add(Counter::PackProbes, candidates);
        self.rec.counter_add(Counter::PackRejectedProbes, rejected);
    }
}

/// A batch that takes the collapsed route: its class table, the schedule
/// its classes are placed in, and its largest VM id.
struct Collapsed<'a> {
    batch: &'a [VmSpec],
    table: &'a ClassTable,
    schedule: &'a [u32],
    max_id: usize,
}

/// Where the last batch arrival on an [`OnlineCluster`] spent its time
/// ([`OnlineCluster::last_batch`]): the phases `admit_bench` writes to
/// `BENCH_admit.json` for a daemon's warm start. On the ordered route
/// (more classes than the collapse tracks, or a cross-class key tie) each
/// run commits and hands out its members as it is placed, so `runs_s`
/// holds all three and `commit_s` and `scatter_s` are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchProfile {
    /// The class pass over the batch, which also finds its largest id;
    /// on the ordered route also the per-VM FFD order and its class runs.
    pub collapse_s: f64,
    /// Placing the class runs: candidate searches, folds, the loads and
    /// headroom leaves of each stretch.
    pub runs_s: f64,
    /// Registering the placed classes and writing their cells and the
    /// occupied set, fill by fill.
    pub commit_s: f64,
    /// Sizing the id table and the one fleet-order pass that inserts each
    /// placed member's entry and, for a caller that wants the pairs,
    /// writes them.
    pub scatter_s: f64,
    /// The closing index flush (the first batch on a new cluster builds
    /// the tree here).
    pub flush_s: f64,
}

/// The fleet-scale online engine (see the module docs). Storage is a
/// dense structure-of-arrays over *classes* rather than VMs:
///
/// * a global class registry (`key → id`, representative spec, live
///   population count);
/// * per-PM class-count cells (`≤ d` entries, because the admission rule
///   caps co-location at `d`; the first three inline, see [`CellTable`]);
/// * a [`VmTable`] from VM id to its `(host, class)` entry — the only
///   per-VM state: a slot vector indexed by id for dense ids, a SipHash
///   map for the rest;
/// * the headroom segment tree, plus an explicit occupied-PM set so
///   `pms_used` and the snapshot touch only PMs that host something;
/// * the configured `(p_on, p_off)`, which a snapshot records.
///
/// Per-operation costs at fleet size `n`, `m` PMs, `k` registered
/// classes: arrival `O(log m + d)`, departure `O(d + log m)`, recalibration
/// `O(k)` with no write — nothing scans the population. A batch of `b`
/// VMs on the collapsed route costs one class pass over it (which also
/// finds its largest id), `O(fills · (gap + log d))` to place its class
/// runs (a stretch of like PMs writes its loads as one range), an `O(d)`
/// commit per fill (no allocation while a PM hosts at most three
/// classes), one batch-order pass that inserts each placed member's entry
/// (and, for a caller that wants them, writes its pair at its rank in
/// placement order), and one closing flush: `O(log m)` per filled PM
/// while those are under `m / 4`, one `O(m)` pass beyond or on a new
/// cluster, whose tree is first built there. `new` itself computes the
/// `m` empty-PM leaves and allocates the rest zeroed. On the 1M-VM
/// Table-I warm fleet (`BENCH_admit.json`, `warm`), `new` plus the batch
/// is about twice the offline packer's `place` on the same fleet.
#[derive(Debug)]
pub struct OnlineCluster {
    pms: Vec<PmSpec>,
    /// The pool's First-Fit order, with the capacities by position. The
    /// per-PM state below — loads, cells, index leaves, occupied set — is
    /// by position in it; a VM's entry names its host by PM index, which
    /// [`PmOrder::position`] turns back into the slot a departure updates.
    order: Arc<PmOrder>,
    strategy: QueueStrategy,
    /// The configured `(p_on, p_off)`, for snapshots only.
    pair: (f64, f64),
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
    entries: VmTable,
    /// Cached per-PM loads, by position, up to the last position a batch
    /// or arrival ever loaded: every position past them is empty, and
    /// [`OnlineCluster::new`] stores none.
    loads: Vec<PmLoad>,
    /// Per-PM class-count cells, by position.
    cells: CellTable,
    /// Segment tree over per-PM headroom under the current strategy, by
    /// position.
    index: HeadroomIndex,
    /// Positions of the occupied PMs, unordered; `occupied_pos[p]` is
    /// 1 + `p`'s slot in it, or 0 when that PM is empty (so a new
    /// cluster's is one zeroed allocation).
    occupied: Vec<usize>,
    occupied_pos: Vec<u32>,
    /// Reusable cell buffer for departure rebuilds.
    scratch: Vec<ClassCell>,
    /// The run placer's fold memo and the `(PM, copies)` fills of the run
    /// being placed, reused by every arrival; boxed, since the memo's
    /// chains are inline.
    run: Box<(RunMemo, Vec<(u32, u32)>)>,
    /// The phase times of the last batch arrival.
    profile: BatchProfile,
}

impl OnlineCluster {
    /// Creates an empty cluster over `pms` admitting by Eq. 17 per PM
    /// (see the module docs) with co-location cap `d` and CVR bound `rho`;
    /// `(p_on, p_off)` is the configured pair, which prices nothing and
    /// which a snapshot records.
    ///
    /// # Panics
    /// Panics if `pms` holds more than `u32::MAX` PMs (a VM's entry names
    /// its host in 32 bits), or if a probability is outside `(0, 1]`.
    pub fn new(pms: Vec<PmSpec>, d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        assert!(
            u32::try_from(pms.len()).is_ok(),
            "a pool of {} PMs exceeds the u32 host index",
            pms.len()
        );
        assert!(
            is_probability(p_on) && is_probability(p_off),
            "bad probabilities ({p_on}, {p_off})"
        );
        let strategy = QueueStrategy::unfloored(d, rho);
        let order = PmOrder::of(&pms);
        let loads = Vec::with_capacity(pms.len());
        // The leaves only: the first arrival's closing flush builds the
        // tree, as it would rebuild one built here.
        let mut index = HeadroomIndex::new(&[]);
        let caps = order.capacities();
        index.reset_lazy(caps.len(), |leaves| {
            leaves.extend(
                caps.iter()
                    .map(|&cap| strategy.headroom(&PmLoad::empty(), cap)),
            )
        });
        let cells = CellTable::new(pms.len());
        let occupied_pos = vec![0; pms.len()];
        Self {
            pms,
            order,
            strategy,
            pair: (p_on, p_off),
            class_reps: Vec::new(),
            class_keys: Vec::new(),
            class_pop: Vec::new(),
            class_lookup: HashMap::new(),
            entries: VmTable::default(),
            loads,
            cells,
            index,
            occupied: Vec::new(),
            occupied_pos,
            scratch: Vec::new(),
            run: Box::default(),
            profile: BatchProfile::default(),
        }
    }

    /// Repairs the index entry of position `p` after its load changed.
    fn refresh_pm(&mut self, p: usize) {
        let h = self
            .strategy
            .headroom(self.load_at(p), self.order.capacities()[p]);
        self.index.update(p, h);
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
        self.entries.get(vm_id).map(|e| e.host as usize)
    }

    /// The load of PM `j`.
    pub fn load(&self, j: usize) -> &PmLoad {
        self.load_at(self.order.position(j))
    }

    /// The load of position `p`.
    fn load_at(&self, p: usize) -> &PmLoad {
        self.loads.get(p).unwrap_or(&PmLoad::EMPTY)
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

    /// Marks position `p` occupied (idempotent).
    fn occupy(&mut self, p: usize) {
        if self.occupied_pos[p] == 0 {
            self.occupied.push(p);
            self.occupied_pos[p] = self.occupied.len() as u32;
        }
    }

    /// Marks position `p` empty (idempotent).
    fn vacate(&mut self, p: usize) {
        let Some(pos) = (self.occupied_pos[p] as usize).checked_sub(1) else {
            return;
        };
        self.occupied_pos[p] = 0;
        self.occupied.swap_remove(pos);
        if pos < self.occupied.len() {
            let moved = self.occupied[pos];
            self.occupied_pos[moved] = pos as u32 + 1;
        }
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
    /// The arrival is a one-VM run: the run placer ([`place_run`]) finds
    /// its PM, the batch arrival's per-run commit records it, and the
    /// index is flushed before returning. The run's buffers are the
    /// engine's own, so the only allocations are the registry's for a new
    /// class and the id table's when it grows.
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
            self.entries.get(vm.id).is_none(),
            "VM id {} already in the cluster",
            vm.id
        );
        let mut host = 0;
        let placed = self.place_members(std::slice::from_ref(&vm), &[0], rec, |_, j| host = j);
        self.index.flush();
        placed.map(|()| host)
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
        let entry = self.entries.remove(vm_id)?;
        rec.counter_inc(Counter::OnlineDepartures);
        let (host, cid) = (entry.host as usize, entry.class);
        let p = self.order.position(host);
        self.class_pop[cid as usize] -= 1;
        self.cells.remove_one(p, cid);
        rec.counter_add(Counter::DepartRebuildVisits, self.cells.len(p) as u64);
        let load = {
            let Self {
                cells,
                scratch,
                class_keys,
                class_reps,
                ..
            } = self;
            scratch.clear();
            for (c, copies) in cells.of(p) {
                scratch.push((class_keys[c as usize], class_reps[c as usize], copies));
            }
            fold_cells(scratch)
        };
        self.loads[p] = load;
        self.refresh_pm(p);
        if self.loads[p].is_empty() {
            self.vacate(p);
        }
        Some(host)
    }

    /// Places a batch of new VMs using the same cluster-and-sort scheme
    /// as Algorithm 2, through the offline packer's route choice and run
    /// placer ([`place_run`]): whole classes as single runs when the batch
    /// collapses without cross-class key ties, the strategy's own order in
    /// class runs otherwise — amortized ~O(1) probes per VM on
    /// duplicate-heavy batches. Placements, the returned pairs and the
    /// error VM are identical to the per-VM reference on every input.
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
    /// The pairs come in placement order: the classes in the order they
    /// are placed, and within a class its members in batch order (on the
    /// ordered route, the strategy's per-VM order).
    ///
    /// # Errors
    /// [`PackError`] at the first unplaceable VM. VMs placed before the
    /// failure stay placed (the online system cannot un-arrive them).
    ///
    /// # Panics
    /// Panics if any batch member's id is already present, or appears
    /// twice in the batch. The check is the insert of the VM's entry, so
    /// the panic comes after the batch's loads were committed; callers
    /// that take ids from outside validate first (the daemon answers a
    /// duplicate with a typed 409 before the engine is reached). On the
    /// collapsed route a duplicate id panics at its batch-order insert,
    /// on the ordered route at its run's commit.
    pub fn arrive_batch_recorded<R: Recorder>(
        &mut self,
        batch: Vec<VmSpec>,
        rec: &mut R,
    ) -> Result<Vec<(usize, usize)>, PackError> {
        let (placed, pairs) = self.arrive_batch_with(batch, rec, true);
        placed.map(|()| pairs)
    }

    /// [`arrive_batch_recorded`](Self::arrive_batch_recorded) for the
    /// caller that wants no pairs: a daemon warming a million-VM fleet,
    /// which would otherwise pay a pass and a 16 MB buffer to drop them.
    ///
    /// # Errors
    /// [`PackError`] at the first unplaceable VM; the members placed
    /// before it stay placed.
    ///
    /// # Panics
    /// As [`arrive_batch_recorded`](Self::arrive_batch_recorded).
    pub fn arrive_batch_unpaired<R: Recorder>(
        &mut self,
        batch: Vec<VmSpec>,
        rec: &mut R,
    ) -> Result<(), PackError> {
        self.arrive_batch_with(batch, rec, false).0
    }

    /// The one batch arrival behind the public ones: its outcome, and the
    /// `(VM id, PM)` pair of every member placed, in placement order, if
    /// `want_pairs` (else none). On an error the pairs are those of the
    /// members placed before the refused one.
    fn arrive_batch_with<R: Recorder>(
        &mut self,
        batch: Vec<VmSpec>,
        rec: &mut R,
        want_pairs: bool,
    ) -> (Result<(), PackError>, Vec<(usize, usize)>) {
        rec.counter_inc(Counter::OnlineBatches);
        self.profile = BatchProfile::default();
        if batch.is_empty() {
            return (Ok(()), Vec::new());
        }
        let mut clock = Instant::now();
        let mut max_id = 0;
        let table = collapse_classes_seeing(&batch, |vm| max_id = max_id.max(vm.id));
        let outcome = match collapsed_schedule(&batch, &self.strategy, table) {
            Some((table, schedule)) => {
                self.profile.collapse_s = lap(&mut clock);
                let collapsed = Collapsed {
                    batch: &batch,
                    table: &table,
                    schedule: &schedule,
                    max_id,
                };
                self.arrive_collapsed(collapsed, rec, want_pairs, &mut clock)
            }
            None => {
                // Size the id table once, from the batch's largest id (the
                // collapse may have stopped before it): a warm-up of ids
                // `0..n` allocates its dense slots in one step and the
                // commits below write them in place.
                let max_id = batch.iter().map(|vm| vm.id).max().unwrap_or(0);
                self.entries.reserve(max_id, batch.len());
                let (order, runs) = strategy_runs(&batch, &self.strategy);
                self.profile.collapse_s = lap(&mut clock);
                let mut pairs = Vec::with_capacity(if want_pairs { batch.len() } else { 0 });
                let placed = runs.iter().try_for_each(|run| {
                    let members = &order[run.start..run.start + run.len];
                    self.place_members(&batch, members, rec, |id, j| {
                        if want_pairs {
                            pairs.push((id, j));
                        }
                    })
                });
                self.profile.runs_s = lap(&mut clock);
                (placed, pairs)
            }
        };
        self.index.flush();
        self.profile.flush_s = lap(&mut clock);
        outcome
    }

    /// The collapsed route of [`arrive_batch_with`](Self::arrive_batch_with),
    /// committed the way the offline packer assigns: every class run is
    /// placed in schedule order (up to the first that fails), then the
    /// placed classes are registered and their cells written in placement
    /// order, then one batch-order pass inserts each placed member's
    /// entry — class `c`'s `i`-th member takes the `i`-th copy of `c`'s
    /// fills, up to the copies placed — and, if `want_pairs`, writes its
    /// pair at its rank in placement order. A failure so commits what the
    /// per-VM reference does: every earlier class whole, the failing
    /// class's first placed members, nothing of later classes, which stay
    /// unregistered. The index is left unflushed for the caller.
    fn arrive_collapsed<R: Recorder>(
        &mut self,
        Collapsed {
            batch,
            table,
            schedule,
            max_id,
        }: Collapsed<'_>,
        rec: &mut R,
        want_pairs: bool,
        clock: &mut Instant,
    ) -> (Result<(), PackError>, Vec<(usize, usize)>) {
        let mut fills = std::mem::take(&mut self.run.1);
        fills.clear();
        // Class `c`'s fills are `fills[starts[c]..ends[c]]`, and
        // `placed[c]` of its members were placed (0 for a class the
        // batch did not reach).
        let mut starts = [0u32; MAX_TRACKED_CLASSES];
        let mut ends = [0u32; MAX_TRACKED_CLASSES];
        let mut placed = [0u32; MAX_TRACKED_CLASSES];
        let mut failed = None;
        let mut pool = LivePool {
            loads: &mut self.loads,
            index: &mut self.index,
            memo: &mut self.run.0,
            fills: &mut fills,
            rec: &mut *rec,
        };
        let caps = self.order.capacities();
        for &cid in schedule {
            let c = cid as usize;
            let want = table.counts[c] as usize;
            starts[c] = pool.fills.len() as u32;
            let got = place_run(&mut pool, caps, &self.strategy, &table.reps[c], want);
            ends[c] = pool.fills.len() as u32;
            placed[c] = got as u32;
            if got < want {
                failed = Some(PackError {
                    vm_id: nth_member_id(batch, &table.kid, cid, got),
                });
                break;
            }
        }
        self.profile.runs_s = lap(clock);

        // Classes, populations, cells and the occupied set in placement
        // order, as the runs committed one by one would leave them; the
        // fills' positions become PM indexes on the way.
        let mut engine_cid = [0u32; MAX_TRACKED_CLASSES];
        let mut total = 0u64;
        for &cid in schedule {
            let c = cid as usize;
            if placed[c] == 0 {
                break;
            }
            let ecid = self.class_id_of(&table.reps[c]);
            engine_cid[c] = ecid;
            self.class_pop[ecid as usize] += u64::from(placed[c]);
            total += u64::from(placed[c]);
            for fill in &mut fills[starts[c] as usize..ends[c] as usize] {
                let p = fill.0 as usize;
                self.occupy(p);
                self.cells.add(p, ecid, fill.1);
                fill.0 = self.order.pm(p) as u32;
            }
        }
        self.profile.commit_s = lap(clock);

        // One batch-order pass hands each placed member its slot and, for
        // a caller that wants the pairs, writes its pair at its rank in
        // placement order: class `c`'s pairs start at `first[c]`.
        self.entries.reserve(max_id, batch.len());
        let mut cursors = FillCursors::new();
        let mut first = [0usize; MAX_TRACKED_CLASSES];
        let mut at = 0;
        for &cid in schedule {
            let c = cid as usize;
            cursors.start(c, starts[c] as usize);
            first[c] = at;
            at += placed[c] as usize;
        }
        let mut pairs = vec![(0, 0); if want_pairs { at } else { 0 }];
        let mut handed = [0u32; MAX_TRACKED_CLASSES];
        for (vm, &cid) in batch.iter().zip(&table.kid) {
            let c = cid as usize;
            if handed[c] == placed[c] {
                continue;
            }
            let host = cursors.take(&fills, c);
            let entry = VmEntry {
                host,
                class: engine_cid[c],
            };
            assert!(
                self.entries.insert(vm.id, entry),
                "VM id {} already in the cluster",
                vm.id
            );
            if let Some(pair) = pairs.get_mut(first[c] + handed[c] as usize) {
                *pair = (vm.id, host as usize);
            }
            handed[c] += 1;
        }
        rec.counter_add(Counter::OnlineArrivals, total);
        self.profile.scatter_s = lap(clock);
        self.run.1 = fills;
        (failed.map_or(Ok(()), Err), pairs)
    }

    /// The phase times of the last batch arrival (all zero before the
    /// first, and for an empty batch).
    pub fn last_batch(&self) -> BatchProfile {
        self.profile
    }

    /// Places one class run — `members` of `batch`, all of one class —
    /// with the run placer and commits its placed members (class, cells,
    /// population, entries, `each`) before returning, so a failure keeps
    /// everything placed ahead of it, as the per-VM reference does; a
    /// class none of whose members was placed is not registered. Loads
    /// only grow while runs are placed, so the run placer's cursor
    /// argument holds on a populated cluster too. The index is left
    /// unflushed for the caller. Single arrivals (a one-VM run) and the
    /// ordered batch route place through it.
    fn place_members<R: Recorder>(
        &mut self,
        batch: &[VmSpec],
        members: &[usize],
        rec: &mut R,
        mut each: impl FnMut(usize, usize),
    ) -> Result<(), PackError> {
        let vm = batch[members[0]];
        let mut fills = std::mem::take(&mut self.run.1);
        fills.clear();
        let mut pool = LivePool {
            loads: &mut self.loads,
            index: &mut self.index,
            memo: &mut self.run.0,
            fills: &mut fills,
            rec: &mut *rec,
        };
        let caps = self.order.capacities();
        let placed = place_run(&mut pool, caps, &self.strategy, &vm, members.len());
        if placed > 0 {
            let cid = self.class_id_of(&vm);
            self.class_pop[cid as usize] += placed as u64;
            for &(p, copies) in &fills {
                self.occupy(p as usize);
                self.cells.add(p as usize, cid, copies);
            }
            fill_hosts(&fills, members, |i, p| {
                let (id, j) = (batch[i].id, self.order.pm(p));
                let entry = VmEntry {
                    host: j as u32,
                    class: cid,
                };
                assert!(
                    self.entries.insert(id, entry),
                    "VM id {id} already in the cluster"
                );
                rec.counter_inc(Counter::OnlineArrivals);
                each(id, j);
            });
        }
        self.run.1 = fills;
        match members.get(placed) {
            Some(&i) => Err(PackError { vm_id: batch[i].id }),
            None => Ok(()),
        }
    }

    /// The `(p_on, p_off)` of the hottest live class — the largest `π`
    /// any hosted VM has, the pair every PM hosting it is priced by — or
    /// `None` when the cluster is empty. `O(k)` in registered classes and
    /// changes nothing: the per-PM rule has no fleet-wide pair to
    /// re-round (§IV-E's periodic recalculation), and a PM's table moves
    /// only with its own arrivals and departures. It stays so a client
    /// that recalibrates on a schedule keeps working.
    pub fn recalibrate(&self) -> Option<(f64, f64)> {
        self.recalibrate_recorded(&mut NoopRecorder)
    }

    /// [`recalibrate`](Self::recalibrate) with instrumentation: one
    /// [`Counter::OnlineRecalibrations`] per call on a non-empty cluster.
    pub fn recalibrate_recorded<R: Recorder>(&self, rec: &mut R) -> Option<(f64, f64)> {
        let live = self
            .class_reps
            .iter()
            .zip(&self.class_pop)
            .filter(|&(_, &pop)| pop > 0)
            .map(|(rep, _)| rep);
        let pair = hottest_pair(live)?;
        rec.counter_inc(Counter::OnlineRecalibrations);
        Some(pair)
    }

    /// Verifies internal consistency: cells are well-formed, every cached
    /// load matches its canonical cell fold, the index is flushed (or, on
    /// a cluster that has seen no arrival, holds its leaves and no tree
    /// yet) and its leaves and the occupied set agree with the loads, and
    /// per-class populations add up.
    /// Intended for tests and debug assertions.
    ///
    /// # Errors
    /// A description of the first inconsistency found.
    pub fn check_consistency(&self) -> Result<(), String> {
        if !self.index.is_unbuilt() {
            self.index.check_flushed()?;
        }
        let mut pop_seen = vec![0u64; self.class_reps.len()];
        for (p, j) in self.order.pms().enumerate() {
            let mut ids = HashSet::new();
            let mut cells: Vec<ClassCell> = Vec::with_capacity(self.cells.len(p));
            for (cid, copies) in self.cells.of(p) {
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
            let cached = self.load_at(p);
            if !loads_agree(&rebuilt, cached) {
                return Err(format!("PM {j}: cached {cached:?} != rebuilt {rebuilt:?}"));
            }
            let expected = self.strategy.headroom(cached, self.pms[j].capacity);
            let indexed = self.index.value(p);
            let matches = indexed == expected || (indexed - expected).abs() < 1e-9;
            if !matches {
                return Err(format!(
                    "PM {j}: indexed headroom {indexed} != expected {expected}"
                ));
            }
            let occupied = self.occupied_pos[p] != 0;
            if occupied == cached.is_empty() {
                return Err(format!(
                    "PM {j}: occupied flag {occupied} but load count {}",
                    cached.count
                ));
            }
        }
        for (pos, &p) in self.occupied.iter().enumerate() {
            if self.occupied_pos[p] as usize != pos + 1 {
                let j = self.order.pm(p);
                return Err(format!("occupied slot {pos} (PM {j}) has stale position"));
            }
        }
        if pop_seen != self.class_pop {
            return Err(format!(
                "class populations {:?} != cell totals {pop_seen:?}",
                self.class_pop
            ));
        }
        self.entries.check()?;
        let total: u64 = pop_seen.iter().sum();
        if total != self.entries.len() as u64 {
            return Err(format!(
                "cells hold {total} VMs, entry table holds {}",
                self.entries.len()
            ));
        }
        for (id, entry) in self.entries.ascending() {
            let on_host = self
                .cells
                .of(self.order.position(entry.host as usize))
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

    /// The engine's observable end-state digest (see [`StateDigest`]).
    pub fn state_digest(&self) -> StateDigest {
        digest_from(
            self.n_vms(),
            self.pms_used(),
            self.entries
                .ascending()
                .map(|(id, entry)| (id, entry.host as usize)),
            (0..self.pms.len()).map(|j| self.load(j)),
        )
    }

    /// Serializes the full engine state as a compact binary image.
    ///
    /// Per-PM loads are stored **verbatim** (count plus the exact f64
    /// bits), never re-derived from the population on restore: `arrive`
    /// accumulates loads incrementally while `depart` re-folds them
    /// canonically, so a load's bit pattern depends on the PM's whole
    /// churn history and a re-fold would diverge from a run that never
    /// stopped. The exception is [`PmLoad::max_pi`], a max and so
    /// order-free: restore refolds it from the cells. The header keeps
    /// the slot of the retired recalibration ε, written as 0, so an image
    /// of a state that was never recalibrated is the one earlier builds
    /// wrote. Only occupied PMs are encoded — an empty PM's load is
    /// exactly [`PmLoad::empty`] under both paths. The image is
    /// canonical: equal states produce equal bytes (VM entries go in
    /// ascending id order, however the table splits them).
    ///
    /// [`from_snapshot_bytes`](Self::from_snapshot_bytes) restores an
    /// engine that continues bit-identically — pinned by the round-trip
    /// tests below and the serving layer's crash/restore suite.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(256 + 64 * self.occupied.len() + 24 * self.entries.len());
        let (p_on, p_off) = self.pair;
        let thresholds = &self.strategy.thresholds;
        (thresholds.d, [thresholds.rho, 0.0, p_on, p_off]).put(&mut buf);
        write_seq(&mut buf, self.pms.iter().map(|pm| (pm.id, pm.capacity)));
        let classes = self.class_reps.iter().zip(&self.class_pop);
        write_seq(
            &mut buf,
            classes.map(|(r, &pop)| (r.id, [r.p_on, r.p_off, r.r_b, r.r_e], pop)),
        );
        self.occupied.len().put(&mut buf);
        for &p in &self.occupied {
            // An `OccupiedPm`, written from the tables that hold it.
            self.order.pm(p).put(&mut buf);
            self.loads[p].put(&mut buf);
            // As the `Vec` of an `OccupiedPm` writes it.
            self.cells.len(p).put(&mut buf);
            for cell in self.cells.of(p) {
                cell.put(&mut buf);
            }
        }
        self.entries.len().put(&mut buf);
        for (id, entry) in self.entries.ascending() {
            (id, entry.host as usize, entry.class).put(&mut buf);
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
        let (d, [rho, _retired_epsilon, p_on, p_off]): (usize, [f64; 4]) = Wire::get(&mut c)?;
        if d == 0 {
            return Err(bad("d must be at least 1".into()));
        }
        if !is_probability(p_on) || !is_probability(p_off) {
            return Err(bad(format!("bad probabilities ({p_on}, {p_off})")));
        }
        if !(rho > 0.0 && rho < 1.0) {
            return Err(bad(format!("bad rho {rho}")));
        }
        let m = c.seq_len(<(usize, f64)>::MIN_BYTES)?;
        if u32::try_from(m).is_err() {
            return Err(bad(format!("a pool of {m} PMs exceeds the u32 host index")));
        }
        let mut pms = Vec::with_capacity(m);
        for _ in 0..m {
            let (id, capacity) = Wire::get(&mut c)?;
            // `try_new` refuses `+∞` too: QUEUE's need past `d` is `+∞`,
            // which an infinite budget would admit.
            let pm = PmSpec::try_new(id, capacity).map_err(|e| bad(format!("PM {id}: {e}")))?;
            pms.push(pm);
        }
        let k = c.seq_len(<(usize, [f64; 4], u64)>::MIN_BYTES)?;
        let mut class_reps = Vec::with_capacity(k);
        let mut class_keys = Vec::with_capacity(k);
        let mut class_pop = Vec::with_capacity(k);
        let mut class_lookup = HashMap::with_capacity(k);
        for cid in 0..k {
            let (id, [p_on, p_off, r_b, r_e], pop) = Wire::get(&mut c)?;
            let rep = VmSpec::try_new(id, p_on, p_off, r_b, r_e)
                .map_err(|e| bad(format!("class {cid}: {e}")))?;
            let key = VmClass::of(&rep).key();
            if class_lookup.insert(key, cid as u32).is_some() {
                return Err(bad(format!("class {cid}: duplicate class key")));
            }
            class_reps.push(rep);
            class_keys.push(key);
            class_pop.push(pop);
        }
        let n_occupied = c.seq_len(OccupiedPm::MIN_BYTES)?;
        if n_occupied > m {
            return Err(bad(format!("{n_occupied} occupied PMs exceed pool {m}")));
        }
        // The per-PM state is by position in the pool's order, which the
        // capacities alone fix: the image stores none.
        let order = PmOrder::of(&pms);
        let mut loads = vec![PmLoad::empty(); m];
        let mut cells = CellTable::new(m);
        let mut occupied = Vec::with_capacity(n_occupied);
        let mut occupied_pos = vec![0; m];
        for _ in 0..n_occupied {
            let (j, mut load, pm_cells): OccupiedPm = Wire::get(&mut c)?;
            if j >= m {
                return Err(bad(format!("occupied PM {j} out of range")));
            }
            let p = order.position(j);
            if occupied_pos[p] != 0 {
                return Err(bad(format!("PM {j} occupied twice")));
            }
            occupied.push(p);
            occupied_pos[p] = occupied.len() as u32;
            if load.count == 0 {
                return Err(bad(format!("occupied PM {j} has an empty load")));
            }
            let sums = [load.max_re, load.sum_rb, load.sum_rp];
            if !sums.iter().all(|x| x.is_finite()) {
                return Err(bad(format!("PM {j}: non-finite load {sums:?}")));
            }
            for (i, &(cid, copies)) in pm_cells.iter().enumerate() {
                if cid as usize >= k {
                    return Err(bad(format!("PM {j}: cell class {cid} out of range")));
                }
                if copies == 0 || pm_cells[..i].iter().any(|&(other, _)| other == cid) {
                    return Err(bad(format!("PM {j}: malformed cell for class {cid}")));
                }
                load.max_pi = load.max_pi.max(stationary_on(&class_reps[cid as usize]));
            }
            loads[p] = load;
            for &(cid, copies) in &pm_cells {
                cells.add(p, cid, copies);
            }
        }
        let n_entries = c.seq_len(<(usize, usize, u32)>::MIN_BYTES)?;
        // Canonical snapshots list ids in ascending order, so the dense
        // part grows as they are inserted. Each growth counts the entries
        // still to come, as a batch arrival's does: an image whose ids
        // span under twice its population restores dense, instead of
        // hashing ids until the count catches up, and the far ids of one
        // that does not go to a sparse map sized once for them.
        let mut entries = VmTable::default();
        for i in 0..n_entries {
            let (id, host, class): (usize, usize, u32) = Wire::get(&mut c)?;
            if host >= m || class as usize >= k {
                return Err(bad(format!(
                    "VM {id}: entry ({host}, {class}) out of range"
                )));
            }
            let entry = VmEntry {
                host: host as u32,
                class,
            };
            entries.reserve(id, n_entries - i);
            if !entries.insert(id, entry) {
                return Err(bad(format!("VM {id} appears twice")));
            }
        }
        c.expect_done()?;
        let strategy = QueueStrategy::unfloored(d, rho);
        let headrooms: Vec<f64> = order
            .capacities()
            .iter()
            .zip(&loads)
            .map(|(&cap, load)| strategy.headroom(load, cap))
            .collect();
        let index = HeadroomIndex::new(&headrooms);
        Ok(Self {
            pms,
            order,
            strategy,
            pair: (p_on, p_off),
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
            run: Box::default(),
            profile: BatchProfile::default(),
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
        ReferenceOnlineCluster::new(pms, 16, 0.01)
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
    fn recalibrate_reports_the_hottest_live_class_and_changes_nothing() {
        let mut c = cluster(&[1000.0]);
        let mut r = ref_cluster(&[1000.0]);
        for v in [
            VmSpec::new(0, 0.2, 0.2, 10.0, 5.0),
            VmSpec::new(1, 0.1, 0.3, 10.0, 5.0),
        ] {
            assert_eq!(c.arrive(v), r.arrive(v));
        }
        let before = c.to_snapshot_bytes();
        assert_eq!(c.recalibrate(), Some((0.2, 0.2)), "π 0.5 beats 0.25");
        assert_eq!(r.recalibrate(), Some((0.2, 0.2)));
        assert_eq!(c.to_snapshot_bytes(), before, "no admission state moves");
        // A tie on π names the larger pair, whatever order the walk takes.
        let tie = VmSpec::new(2, 0.4, 0.4, 10.0, 5.0);
        assert_eq!(c.arrive(tie), r.arrive(tie));
        assert_eq!(c.recalibrate(), Some((0.4, 0.4)));
        assert_eq!(r.recalibrate(), Some((0.4, 0.4)));
        // Only live classes count.
        for id in [0, 2] {
            assert_eq!(c.depart(id), r.depart(id));
        }
        assert_eq!(c.recalibrate(), Some((0.1, 0.3)));
        assert_eq!(r.recalibrate(), Some((0.1, 0.3)));
    }

    #[test]
    fn recalibrate_empty_cluster_is_none() {
        let c = cluster(&[10.0]);
        assert_eq!(c.recalibrate(), None);
        let r = ref_cluster(&[10.0]);
        assert_eq!(r.recalibrate(), None);
    }

    #[test]
    fn a_hot_newcomer_is_priced_by_its_own_table() {
        // Two calm VMs fill PM 0 exactly under the calm table. A much
        // burstier VM of the same size does not fit beside the survivor:
        // the pair is priced by the burstier chain's table, which reserves
        // both blocks. The fleet-wide calm table admitted it, at an exact
        // CVR of 0.1 · 0.91 ≈ 0.09 (both ON) against ρ = 0.01.
        let mut c = cluster(&[40.0]);
        let mut r = ref_cluster(&[40.0]);
        let calm = VmSpec::new(0, 0.01, 0.09, 14.0, 12.0);
        assert_eq!(c.arrive(calm), Ok(0));
        assert_eq!(c.arrive(VmSpec::new(1, 0.01, 0.09, 14.0, 11.0)), Ok(0));
        assert_eq!(c.depart(1), Some(0));
        assert_eq!(r.arrive(calm), Ok(0));
        let hot = VmSpec::new(2, 0.9, 0.09, 14.0, 12.0);
        assert!(
            crate::pm_cvr_exact(&[calm, hot], 40.0).unwrap() > 0.01,
            "the pair would breach ρ"
        );
        assert_eq!(c.arrive(hot), Err(PackError { vm_id: 2 }));
        assert_eq!(r.arrive(hot), Err(PackError { vm_id: 2 }));
        // The calm PM's leaf is still its calm headroom: a calm copy fits.
        assert_eq!(c.arrive(VmSpec::new(3, 0.01, 0.09, 14.0, 11.0)), Ok(0));
        c.check_consistency().unwrap();
        r.check_consistency().unwrap();
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
    fn duplicate_inside_batch_panics_on_the_ordered_route() {
        // More classes than the collapse tracks: the batch is placed in
        // the strategy's own order, and the second id 3 is caught at its
        // insert there too.
        let mut c = cluster(&[1000.0; 8]);
        let mut batch: Vec<VmSpec> = (0..100)
            .map(|i| vm(i, 1.0 + i as f64 * 0.01, 1.0))
            .collect();
        assert!(crate::batch::collapse_classes(&batch).is_none());
        batch.push(vm(3, 0.5, 1.0));
        let _ = c.arrive_batch(batch);
    }

    #[test]
    fn overflow_batch_matches_reference_and_fails_partway() {
        // Batches of 100 classes — more than the collapse tracks — take
        // the ordered route (the strategy's own order in class runs) onto
        // a cluster with holes: the first fits, the second runs out of
        // room inside a run. Both engines must agree on every pair and its
        // order, on the error VM and the members kept before it (its own
        // run's included), and on every load and headroom bit.
        let caps = vec![60.0; 16];
        let mut a = cluster(&caps);
        let mut b = ref_cluster(&caps);
        for i in 0..40 {
            let v = vm(i, 4.0 + (i % 5) as f64, 2.0 + (i % 3) as f64);
            a.arrive(v).unwrap();
            b.arrive(v).unwrap();
        }
        for i in (0..40).step_by(3) {
            assert_eq!(a.depart(i), b.depart(i));
        }
        let batch_of = |first_id: usize, copies: usize, r_b: f64| -> Vec<VmSpec> {
            (0..100 * copies)
                .map(|i| {
                    let k = i % 100;
                    vm(first_id + i, r_b + k as f64 * 0.01, 1.0 + (k % 7) as f64)
                })
                .collect()
        };
        let fits = batch_of(100, 1, 0.5);
        assert!(crate::batch::collapse_classes(&fits).is_none());
        let pairs = a.arrive_batch(fits.clone()).unwrap();
        assert_eq!(pairs, b.arrive_batch(fits).unwrap());

        let overflows = batch_of(1000, 3, 3.0);
        let (err, seen) =
            OnlineEngine::arrive_batch(&mut a, overflows.clone(), &mut NoopRecorder).unwrap_err();
        assert_eq!(b.arrive_batch(overflows.clone()).unwrap_err(), err);
        // The reference places in cluster order up to the VM it failed on.
        let order = cluster_order(&overflows, default_buckets(overflows.len()));
        let kept: Vec<(usize, usize)> = order
            .iter()
            .map(|&i| overflows[i].id)
            .take_while(|&id| id != err.vm_id)
            .map(|id| (id, b.host_of(id).expect("kept by the reference")))
            .collect();
        assert!(!kept.is_empty() && kept.len() < overflows.len() - 1);
        let (last_kept, failed) = (
            overflows[order[kept.len() - 1]],
            overflows[order[kept.len()]],
        );
        assert_eq!(
            VmClass::of(&last_kept),
            VmClass::of(&failed),
            "fails inside a run"
        );
        assert_eq!(seen, kept);
        for v in &overflows {
            assert_eq!(a.host_of(v.id), b.host_of(v.id), "VM {}", v.id);
        }
        assert_eq!(a.n_vms(), b.n_vms());
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

    #[test]
    fn a_batch_over_distinct_partial_pms_misses_the_memo_on_every_seed() {
        // Each PM holds one VM of its own base demand, so one 12-VM class
        // lands one copy per PM on twelve distinct seed loads — more than
        // the run memo keeps — and every fill starts a fresh fold.
        let caps = vec![60.0; 14];
        let mut a = cluster(&caps);
        let mut b = ref_cluster(&caps);
        for j in 0..caps.len() {
            let v = vm(j, 45.0 + 0.25 * j as f64, 1.0);
            assert_eq!(a.arrive(v).unwrap(), j);
            assert_eq!(b.arrive(v).unwrap(), j);
        }
        let batch: Vec<VmSpec> = (100..112).map(|i| vm(i, 8.0, 1.0)).collect();
        let pairs = a.arrive_batch(batch.clone()).unwrap();
        assert_eq!(pairs, b.arrive_batch(batch.clone()).unwrap());
        let hosts: Vec<usize> = pairs.iter().map(|&(_, j)| j).collect();
        assert_eq!(hosts, (0..12).collect::<Vec<_>>(), "one copy per PM");
        assert!(hosts.len() > crate::batch::MEMO_SEEDS);
        for v in &batch {
            assert_eq!(a.host_of(v.id), b.host_of(v.id), "VM {}", v.id);
        }
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

    #[test]
    fn a_batch_that_places_nothing_leaves_the_snapshot_unchanged() {
        // A run that places nothing registers no class, on either route,
        // just as a refused single arrival registers none.
        let mut c = cluster(&[10.0; 2]);
        c.arrive(vm(0, 8.0, 1.0)).unwrap();
        c.arrive(vm(1, 8.0, 1.0)).unwrap();
        let before = c.to_snapshot_bytes();
        let collapsed = vec![vm(2, 5.0, 1.0), vm(3, 5.0, 1.0)];
        assert_eq!(c.arrive_batch(collapsed).unwrap_err().vm_id, 2);
        let tied = vec![vm(4, 5.0, 1.0), VmSpec::new(5, 0.02, 0.09, 5.0, 1.0)];
        assert_eq!(c.arrive_batch(tied).unwrap_err().vm_id, 4);
        assert_eq!(c.to_snapshot_bytes(), before);
        c.check_consistency().unwrap();
    }

    #[test]
    fn whole_fleet_passes_stay_off_the_tree() {
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let mut g = FleetGenerator::new(1);
        let fleet = g.vms_table_i(20_000, WorkloadPattern::EqualSpike);
        let mut c = OnlineCluster::new(g.pms(5_000), 16, 0.01, 0.09, 0.01);
        // Warm-up: as in the offline pack of this fleet, a run searches
        // past the window where it meets a stretch of PMs an earlier class
        // filled (three such stretches), and a pass that has marked a
        // quarter of the pool reads on there instead of building the
        // tree; every other gap fits the look-ahead window.
        c.arrive_batch(fleet).unwrap();
        assert_eq!(c.index.probes(), 3);
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
        assert_eq!(c.index.probes(), 6, "one climb per class run");
        c.check_consistency().unwrap();
        // A single arrival is a one-VM run and opens at the tree the same
        // way: PM 0 is full, so its search climbs once. A recalibration
        // touches nothing.
        c.arrive(VmSpec::new(2_000_000, 0.2, 0.3, 5.0, 5.0))
            .unwrap();
        assert_eq!(c.index.probes(), 7, "one climb for the arrival's run");
        c.recalibrate().unwrap();
        assert_eq!(c.index.probes(), 7);
        c.check_consistency().unwrap();
    }

    #[test]
    fn batch_arrivals_in_stretches_end_on_the_reference_digest() {
        // A Table-I batch on a U(80, 100) pool fills long stretches of
        // like PMs, each after one search and one fold; a second batch
        // then stretches over the loads the first left. The per-VM
        // reference must place every member on the same PM and end on the
        // same digest after each, with every candidate booked.
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let mut g = FleetGenerator::new(5);
        let first = g.vms_table_i(6_000, WorkloadPattern::EqualSpike);
        let pms = g.pms(2_500);
        let second: Vec<VmSpec> = g
            .vms_table_i(2_000, WorkloadPattern::LargeSpike)
            .into_iter()
            .map(|v| VmSpec {
                id: v.id + 6_000,
                ..v
            })
            .collect();
        let mut a = OnlineCluster::new(pms.clone(), 16, 0.01, 0.09, 0.01);
        let mut b = ReferenceOnlineCluster::new(pms, 16, 0.01);
        for batch in [first, second] {
            let mut rec = MemoryRecorder::new(0);
            let placed = a.arrive_batch_recorded(batch.clone(), &mut rec).unwrap();
            assert_eq!(b.arrive_batch(batch.clone()).unwrap(), placed);
            assert_eq!(a.state_digest(), b.state_digest());
            a.check_consistency().unwrap();
            let fills = rec.counter(Counter::PackProbes) - rec.counter(Counter::PackRejectedProbes);
            let used: std::collections::BTreeSet<usize> = placed.iter().map(|&(_, j)| j).collect();
            assert!(used.len() as u64 <= fills && fills <= batch.len() as u64);
        }
    }

    #[test]
    fn a_single_arrival_rejected_at_its_first_candidate_climbs_past_the_window() {
        // PM 0 hosts one cool VM and has the base room a hot newcomer asks
        // for, but not the hot chain's spike blocks: it passes the headroom
        // filter and fails Eq. 17. PMs 1..=70 are full, so the next PM that
        // admits sits past the look-ahead window and the one-VM run climbs
        // the tree to find it. Both engines must land it there, with the
        // same loads and headroom leaves.
        use crate::index::LOOKAHEAD;
        let full = 70;
        assert!(full > LOOKAHEAD);
        let caps = vec![60.0; full + 10];
        let mut a = cluster(&caps);
        let mut b = ref_cluster(&caps);
        let mut arrivals = vec![vm(0, 20.0, 1.0)];
        arrivals.extend((1..=full).map(|i| vm(i, 55.0, 1.0)));
        for (j, &v) in arrivals.iter().enumerate() {
            assert_eq!(a.arrive(v), Ok(j));
            assert_eq!(b.arrive(v), Ok(j));
        }
        let hot = VmSpec::new(1_000, 0.5, 0.5, 10.0, 20.0);
        assert!(a.index.value(0) >= hot.r_b, "PM 0 passes the filter");
        let mut rec = MemoryRecorder::new(0);
        let climbs = a.index.probes();
        assert_eq!(a.arrive_recorded(hot, &mut rec), Ok(full + 1));
        assert_eq!(b.arrive(hot), Ok(full + 1));
        assert_eq!(rec.counter(Counter::PackRejectedProbes), 1, "PM 0 rejects");
        assert_eq!(rec.counter(Counter::PackProbes), 2);
        assert_eq!(a.index.probes(), climbs + 1, "one climb past the window");
        for v in arrivals.iter().chain([&hot]) {
            assert_eq!(a.host_of(v.id), b.host_of(v.id), "VM {}", v.id);
        }
        for j in 0..caps.len() {
            let (la, lb) = (a.load(j), b.load(j));
            assert_eq!(
                (la.count, la.max_re.to_bits(), la.sum_rb.to_bits()),
                (lb.count, lb.max_re.to_bits(), lb.sum_rb.to_bits()),
                "PM {j} load"
            );
            assert_eq!(
                (la.sum_rp.to_bits(), la.max_pi.to_bits()),
                (lb.sum_rp.to_bits(), lb.max_pi.to_bits()),
                "PM {j} load"
            );
            assert_eq!(
                a.index.value(j).to_bits(),
                b.index.value(j).to_bits(),
                "PM {j} headroom"
            );
        }
        a.check_consistency().unwrap();
        b.check_consistency().unwrap();
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
        assert_eq!(a.pair, restored.pair);
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
    fn a_restore_mid_program_on_a_heterogeneous_pool_ends_on_the_uninterrupted_digest() {
        // The PM order is not in the image: a restore recomputes it from
        // the capacities. On a pool whose order is far from index order,
        // an engine restored half-way through a churn program and fed the
        // rest ends where the uninterrupted one does, and so does the
        // per-VM oracle.
        use bursty_workload::{FleetGenerator, WorkloadPattern};
        let mut g = FleetGenerator::new(7);
        let fleet = g.vms_table_i(1_200, WorkloadPattern::EqualSpike);
        let pms = g.pms(400);
        let order = PmOrder::of(&pms);
        assert!(
            (0..pms.len()).any(|p| order.pm(p) != p),
            "the pool is reordered"
        );
        // Op `step` of the program: two arrivals, a six-VM batch and two
        // departures of earlier arrivals in every five.
        let drive = |c: &mut OnlineCluster,
                     r: &mut ReferenceOnlineCluster,
                     steps: std::ops::Range<usize>| {
            for step in steps {
                let vm = fleet[step];
                match step % 5 {
                    0 | 1 => assert_eq!(c.arrive(vm).ok(), r.arrive(vm).ok()),
                    2 => {
                        let batch: Vec<VmSpec> = (0..6)
                            .map(|k| VmSpec {
                                id: 10_000 + 6 * step + k,
                                ..fleet[(step + 1 + k) % fleet.len()]
                            })
                            .collect();
                        assert_eq!(c.arrive_batch(batch.clone()), r.arrive_batch(batch));
                    }
                    _ => {
                        let id = fleet[(7 * step) % (step + 1)].id;
                        assert_eq!(c.depart(id), r.depart(id));
                    }
                }
            }
        };
        let fresh = || {
            (
                OnlineCluster::new(pms.clone(), 16, 0.01, 0.09, 0.01),
                ReferenceOnlineCluster::new(pms.clone(), 16, 0.01),
            )
        };
        let (mut live, mut oracle) = fresh();
        drive(&mut live, &mut oracle, 0..600);
        let (mut first, mut twin) = fresh();
        drive(&mut first, &mut twin, 0..300);
        let mut restored = OnlineCluster::from_snapshot_bytes(&first.to_snapshot_bytes()).unwrap();
        restored.check_consistency().unwrap();
        drive(&mut restored, &mut twin, 300..600);
        restored.check_consistency().unwrap();
        assert!(live.n_vms() > 900, "{} VMs live", live.n_vms());
        assert_eq!(restored.state_digest(), live.state_digest());
        assert_eq!(oracle.state_digest(), live.state_digest());
        assert_eq!(restored.to_snapshot_bytes(), live.to_snapshot_bytes());
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
    fn a_snapshot_with_a_non_finite_or_non_positive_capacity_is_refused() {
        let mut c = cluster(&[50.0, 60.0]);
        // The larger PM comes first: the VM lands on PM 1.
        assert_eq!(c.arrive(vm(0, 10.0, 5.0)), Ok(1));
        let bytes = c.to_snapshot_bytes();
        // d, rho, the retired epsilon, the pair, the PM count, PM 0's id.
        let capacity = 7 * 8;
        // Then PM 0's capacity, PM 1, the class count, the representative's
        // id, p_on and p_off.
        let r_b = capacity + 8 + 16 + 8 + 3 * 8;
        // Then r_e, the population, the occupied count, the PM and its
        // count.
        let max_re = r_b + 2 * 8 + 8 + 8 + 2 * 8;
        let field = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let load = "PM 1: non-finite load";
        let cases: [(usize, f64, &str, &[f64]); 6] = [
            (
                capacity,
                50.0,
                "PM 0: capacity",
                &[inf, -inf, nan, 0.0, -1.0],
            ),
            (r_b, 10.0, "class 0: r_b", &[inf, nan]),
            (r_b + 8, 5.0, "class 0: r_e", &[inf, nan]),
            (max_re, 5.0, load, &[inf, -inf, nan]),
            (max_re + 8, 10.0, load, &[inf, -inf, nan]),
            (max_re + 16, 15.0, load, &[inf, -inf, nan]),
        ];
        for (at, value, refusal, bads) in cases {
            assert_eq!(field(at), value, "layout of {refusal}");
            for &bad in bads {
                let mut torn = bytes.clone();
                torn[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
                let err = OnlineCluster::from_snapshot_bytes(&torn).unwrap_err();
                assert!(err.to_string().contains(refusal), "{bad}: {err}");
            }
        }
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

    /// Arrives `batch` on `a` and on the reference `b` and holds the
    /// collapsed route's commit to the reference's: the same outcome, the
    /// same pairs in the same order, the same digest, and the
    /// snapshot bytes (class registry, populations, cells, occupied set,
    /// loads and entries) of a copy of `a` that arrives the reference's
    /// pairs one by one instead. A second copy arriving the batch without
    /// pairs ends on the same bytes.
    fn assert_scatter_commits_as_the_reference(
        a: &mut OnlineCluster,
        b: &mut ReferenceOnlineCluster,
        batch: &[VmSpec],
    ) -> Result<(), PackError> {
        let table = crate::batch::collapse_classes(batch);
        assert!(
            collapsed_schedule(batch, &a.strategy, table).is_some(),
            "the batch takes the collapsed route"
        );
        let image = a.to_snapshot_bytes();
        let (got, pairs) = a.arrive_batch_with(batch.to_vec(), &mut NoopRecorder, true);
        let want = b.arrive_batch_pairs(batch.to_vec());
        let placed = match (&got, want) {
            (Ok(()), Ok(placed)) => placed,
            (Err(e), Err((f, placed))) => {
                assert_eq!(e, &f, "refused VM");
                placed
            }
            (got, want) => panic!("outcomes differ: {got:?} vs {want:?}"),
        };
        assert_eq!(pairs, placed, "pairs in placement order");
        assert_eq!(a.state_digest(), b.state_digest());
        a.check_consistency().unwrap();

        let mut singles = OnlineCluster::from_snapshot_bytes(&image).unwrap();
        for &(id, j) in &pairs {
            let vm = *batch.iter().find(|vm| vm.id == id).unwrap();
            assert_eq!(singles.arrive(vm), Ok(j), "VM {id} arrived alone");
        }
        assert_eq!(singles.to_snapshot_bytes(), a.to_snapshot_bytes());

        let mut unpaired = OnlineCluster::from_snapshot_bytes(&image).unwrap();
        let quiet = unpaired.arrive_batch_unpaired(batch.to_vec(), &mut NoopRecorder);
        assert_eq!(quiet, got);
        assert_eq!(unpaired.to_snapshot_bytes(), a.to_snapshot_bytes());
        got
    }

    #[test]
    fn scatter_of_a_batch_failing_in_its_second_class_commits_what_the_reference_does() {
        // Three interleaved classes on too few PMs: every pool size
        // whose reference refuses a member of the second scheduled class
        // after placing some of it, so the first class is whole, the
        // second cut mid-run and the third never reached.
        let batch: Vec<VmSpec> = (0..90)
            .map(|i| match i % 3 {
                0 => vm(i, 20.0, 20.0),
                1 => vm(i, 10.0, 10.0),
                _ => vm(i, 5.0, 5.0),
            })
            .collect();
        let strategy = QueueStrategy::unfloored(16, 0.01);
        let (order, runs) = crate::batch::batch_runs(&batch, &strategy);
        assert_eq!(runs.len(), 3, "the batch collapses");
        let second = &order[runs[1].start..runs[1].start + runs[1].len];
        let mut cut = 0;
        for m in 1..40 {
            let caps = vec![100.0; m];
            let mut probe = ref_cluster(&caps);
            let Err(e) = probe.arrive_batch(batch.clone()) else {
                continue;
            };
            let Some(at) = second.iter().position(|&i| batch[i].id == e.vm_id) else {
                continue;
            };
            if at == 0 {
                continue;
            }
            let (mut a, mut b) = (cluster(&caps), ref_cluster(&caps));
            let refused = assert_scatter_commits_as_the_reference(&mut a, &mut b, &batch);
            assert_eq!(refused, Err(e));
            assert_eq!(a.class_reps.len(), 2, "the third class stays unregistered");
            assert_eq!(a.class_pop, vec![runs[0].len as u64, at as u64]);
            assert_eq!(a.n_vms(), runs[0].len + at);
            cut += 1;
        }
        assert!(cut > 0, "some pool cuts the second class");
    }

    #[test]
    fn scatter_of_a_second_warm_batch_on_a_populated_cluster_matches_the_reference() {
        // A warm batch, some departures, then a second warm batch of the
        // same classes plus a new one, ids interleaved with the gaps the
        // departures left; then one that overflows the pool.
        let caps: Vec<f64> = (0..64).map(|j| [100.0, 80.0, 60.0][j % 3]).collect();
        let (mut a, mut b) = (cluster(&caps), ref_cluster(&caps));
        let warm: Vec<VmSpec> = (0..120)
            .map(|i| {
                vm(
                    i,
                    [5.0, 10.0, 20.0][i * 7 % 3],
                    [5.0, 10.0, 20.0][i * 7 % 3],
                )
            })
            .collect();
        assert_scatter_commits_as_the_reference(&mut a, &mut b, &warm).unwrap();
        for id in (0..120).step_by(4) {
            assert_eq!(a.depart(id), b.depart(id));
        }
        let second: Vec<VmSpec> = (0..60)
            .map(|k| {
                let id = if k % 2 == 0 { 4 * (k / 2) } else { 200 + k };
                match k % 4 {
                    0 => vm(id, 10.0, 10.0),
                    1 => vm(id, 5.0, 5.0),
                    2 => vm(id, 7.0, 3.0),
                    _ => vm(id, 20.0, 20.0),
                }
            })
            .collect();
        assert_scatter_commits_as_the_reference(&mut a, &mut b, &second).unwrap();
        let overflow: Vec<VmSpec> = (1000..1400)
            .map(|i| vm(i, [5.0, 20.0][i % 2], [5.0, 20.0][i % 2]))
            .collect();
        assert!(assert_scatter_commits_as_the_reference(&mut a, &mut b, &overflow).is_err());
    }

    #[test]
    fn far_ids_stay_sparse_until_a_growth_covers_them() {
        let entry = |h: u32| VmEntry { host: h, class: 0 };
        let mut t = VmTable::default();
        for id in 0..10 {
            assert!(t.insert(id, entry(1)));
        }
        assert_eq!(t.dense.len(), 10, "each insert covers just its own id");
        // Past the bound for 11 VMs (2·11 + 1024): sparse.
        assert!(t.insert(5000, entry(2)));
        assert!(t.sparse.contains_key(&5000));
        assert!(!t.insert(5000, entry(3)), "a present sparse id");
        assert_eq!(t.dense.len(), 10, "a refused insert never grows");
        // A batch jump straight to its largest id, still short of 5000.
        t.reserve(2000, 500);
        assert_eq!(t.dense.len(), 2001);
        assert!(t.sparse.contains_key(&5000));
        // A growth that covers it moves it into the dense part.
        t.reserve(6000, 2500);
        assert_eq!(t.dense.len(), 6001);
        assert!(t.sparse.is_empty());
        assert_eq!(t.get(5000), Some(entry(2)));
        assert_eq!(t.remove(5000), Some(entry(2)));
        assert_eq!(t.get(5000), None);
        assert_eq!(t.len(), 10);
        t.check().unwrap();
    }

    #[test]
    fn far_ids_round_trip_and_duplicates_are_refused() {
        // Dense ids beside ids no density bound covers, the largest exact
        // JSON integer among them; departures on both sides.
        let mut c = cluster(&[100.0; 8]);
        let far = [1usize << 32, (1 << 32) + 7, (1 << 53) - 1];
        for id in (0..12).chain(far) {
            c.arrive(vm(id, 5.0, 3.0)).unwrap();
        }
        assert!(c.depart(3).is_some());
        assert!(c.depart(far[1]).is_some());
        c.check_consistency().unwrap();
        assert!(c.entries.sparse.contains_key(&far[2]));
        let bytes = c.to_snapshot_bytes();
        let restored = OnlineCluster::from_snapshot_bytes(&bytes).unwrap();
        restored.check_consistency().unwrap();
        assert_eq!(restored.state_digest(), c.state_digest());
        assert_eq!(restored.to_snapshot_bytes(), bytes);
        // The entries close the image, 20 bytes each, ascending: copying
        // one id over the next makes a duplicate, dense or sparse.
        let entry_at = |i: usize| bytes.len() - 20 * (c.n_vms() - i);
        for (from, to) in [(0, 1), (c.n_vms() - 2, c.n_vms() - 1)] {
            let mut torn = bytes.clone();
            torn.copy_within(entry_at(from)..entry_at(from) + 8, entry_at(to));
            let err = OnlineCluster::from_snapshot_bytes(&torn).unwrap_err();
            assert!(err.to_string().contains("appears twice"), "{err}");
        }
    }

    #[test]
    fn a_restore_within_the_bound_hashes_no_id() {
        // 1000 live ids from 1500 up: the first few alone are past the
        // bound, the image as a whole is not.
        let mut c = cluster(&[100.0; 200]);
        c.arrive_batch((0..2500).map(|id| vm(id, 1.0, 1.0)).collect())
            .unwrap();
        for id in 0..1500 {
            assert!(c.depart(id).is_some());
        }
        let bytes = c.to_snapshot_bytes();
        let restored = OnlineCluster::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.entries.dense.len(), 2500);
        assert_eq!(restored.entries.sparse.capacity(), 0, "no id went sparse");
        assert_eq!(restored.to_snapshot_bytes(), bytes);
    }

    mod cell_table {
        use super::*;
        use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Adds and removals over a few PMs and more classes than a
            /// PM holds inline: each PM's cells, in order, are those of a
            /// `Vec` that pushes a new class, adds to a present one and
            /// swap-removes an emptied one; a removal of an absent class
            /// is skipped in both.
            #[test]
            fn cells_match_a_vec_per_pm(
                ops in proptest::collection::vec((0usize..3, 0u32..6, 1u32..4, 0u8..3), 0..200)
            ) {
                let mut table = CellTable::new(3);
                let mut model: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 3];
                for (p, cid, copies, kind) in ops {
                    let cells = &mut model[p];
                    if kind > 0 {
                        table.add(p, cid, copies);
                        match cells.iter_mut().find(|c| c.0 == cid) {
                            Some(cell) => cell.1 += copies,
                            None => cells.push((cid, copies)),
                        }
                    } else if let Some(pos) = cells.iter().position(|c| c.0 == cid) {
                        table.remove_one(p, cid);
                        cells[pos].1 -= 1;
                        if cells[pos].1 == 0 {
                            cells.swap_remove(pos);
                        }
                    }
                    for (q, cells) in model.iter().enumerate() {
                        prop_assert_eq!(&table.of(q).collect::<Vec<_>>(), cells);
                        prop_assert_eq!(table.len(q), cells.len());
                    }
                }
                let spilled = (0..3).filter(|&q| table.spill_at[q] > 0).count();
                prop_assert_eq!(table.spills.len(), spilled + table.free.len());
            }
        }
    }

    mod vm_table {
        use super::*;
        use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
        use proptest::strategy::Strategy as PropStrategy;
        use std::collections::BTreeMap;

        const FAR_MAX: usize = (1 << 53) - 1;

        /// An id from one of three bands, resolved against the table when
        /// its op runs.
        #[derive(Debug, Clone)]
        enum Id {
            /// Inside the dense part (or below 64 while it is smaller).
            Dense(u16),
            /// Within ±16 of the dense length.
            Edge(i8),
            /// Within ±16 of the bound one more insert would grow under.
            Bound(i8),
            /// `2^53 − 1` minus an offset; small offsets repeat.
            Far(u64),
            /// An id the model holds (any band), if it holds one.
            Live(u16),
        }

        fn resolve(id: &Id, t: &VmTable, model: &BTreeMap<usize, VmEntry>) -> usize {
            let near = |base: usize, d: i8| base.saturating_add_signed(isize::from(d) % 17);
            match *id {
                Id::Dense(n) => usize::from(n) % t.dense.len().max(64),
                Id::Edge(d) => near(t.dense.len(), d),
                Id::Bound(d) => near(dense_bound(t.len() + 1), d),
                Id::Far(k) => FAR_MAX - (k as usize % (FAR_MAX - (1 << 32))),
                Id::Live(n) => match model.len() {
                    0 => 0,
                    len => *model.keys().nth(usize::from(n) % len).unwrap(),
                },
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Insert(Id, u32),
            Remove(Id),
            Get(Id),
            /// A batch arrival: one `reserve` for its largest id, then its
            /// absent, distinct ids inserted.
            Batch(Vec<Id>),
        }

        fn id_gen() -> impl PropStrategy<Value = Id> {
            (0u8..6, 0u16..=u16::MAX, -16i8..=16, 0u64..1 << 53).prop_map(|(band, n, d, far)| {
                match band {
                    0 => Id::Dense(n),
                    1 => Id::Edge(d),
                    2 => Id::Bound(d),
                    3 => Id::Far(u64::from(n % 8)),
                    4 => Id::Far(far),
                    _ => Id::Live(n),
                }
            })
        }

        fn op_gen() -> impl PropStrategy<Value = Op> {
            (
                0u8..10,
                id_gen(),
                0u32..1000,
                proptest::collection::vec(id_gen(), 1..40),
            )
                .prop_map(|(which, id, host, ids)| match which {
                    0..=3 => Op::Insert(id, host),
                    4..=6 => Op::Remove(id),
                    7 | 8 => Op::Get(id),
                    _ => Op::Batch(ids),
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn table_matches_an_ordered_map(
                ops in proptest::collection::vec(op_gen(), 1..150)
            ) {
                let mut t = VmTable::default();
                let mut model: BTreeMap<usize, VmEntry> = BTreeMap::new();
                let mut peak = 0usize;
                let entry = |host: u32| VmEntry { host, class: host / 3 };
                for op in ops {
                    match op {
                        Op::Insert(id, host) => {
                            let id = resolve(&id, &t, &model);
                            let fresh = !model.contains_key(&id);
                            prop_assert_eq!(t.insert(id, entry(host)), fresh);
                            model.entry(id).or_insert(entry(host));
                        }
                        Op::Remove(id) => {
                            let id = resolve(&id, &t, &model);
                            prop_assert_eq!(t.remove(id), model.remove(&id));
                        }
                        Op::Get(id) => {
                            let id = resolve(&id, &t, &model);
                            prop_assert_eq!(t.get(id), model.get(&id).copied());
                        }
                        Op::Batch(ids) => {
                            let mut fresh: Vec<usize> = Vec::new();
                            for id in &ids {
                                let id = resolve(id, &t, &model);
                                if !model.contains_key(&id) && !fresh.contains(&id) {
                                    fresh.push(id);
                                }
                            }
                            if let Some(&max_id) = fresh.iter().max() {
                                t.reserve(max_id, fresh.len());
                            }
                            for (i, id) in fresh.into_iter().enumerate() {
                                let host = i as u32;
                                prop_assert!(t.insert(id, entry(host)));
                                model.insert(id, entry(host));
                            }
                        }
                    }
                    peak = peak.max(model.len());
                    prop_assert_eq!(t.len(), model.len());
                    for (&id, &e) in &model {
                        prop_assert_eq!(t.get(id), Some(e));
                    }
                    let walked: Vec<(usize, VmEntry)> = t.ascending().collect();
                    let expected: Vec<(usize, VmEntry)> =
                        model.iter().map(|(&id, &e)| (id, e)).collect();
                    prop_assert_eq!(walked, expected);
                    prop_assert!(t.check().is_ok(), "{:?}", t.check());
                    prop_assert!(
                        t.dense.len() <= 2 * peak + 1024,
                        "dense length {} past the bound for peak {peak}",
                        t.dense.len()
                    );
                }
            }
        }
    }

    mod guarantee {
        //! The two online engines in lock-step under churn, and the
        //! paper's guarantee judged by the exact stationary law
        //! ([`pm_cvr_exact`]) rather than by the table a VM was admitted
        //! under: after every op both engines agree bit for bit, and every
        //! occupied PM of both has exact CVR ≤ ρ.
        use super::*;
        use crate::certify::pm_cvr_exact;
        use proptest::prelude::{prop_assert, proptest, ProptestConfig};
        use proptest::strategy::Strategy as PropStrategy;
        use std::collections::BTreeMap;

        /// `reservation`'s tie slack: a table certifies ρ to within it.
        const TIE: f64 = 1e-9;

        /// One fleet: ρ, d, PM capacities and up to four VM templates
        /// `(p_on, p_off, R_b, R_e)`. The engines are built with the first
        /// template's pair.
        #[derive(Debug, Clone)]
        struct Fleet {
            rho: f64,
            d: usize,
            caps: Vec<f64>,
            templates: Vec<(f64, f64, f64, f64)>,
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// One VM of template `t % templates`.
            Arrive(u8),
            /// The live VM at rank `sel % live` in id order.
            Depart(u8),
            Batch(Vec<u8>),
            Recalibrate,
            /// `OnlineCluster` through its snapshot image and back.
            Restore,
        }

        /// `(p_on, p_off)` from `u, v ∈ [0, 1)` under the five regimes of
        /// `tests/theory_vs_simulation.rs`'s
        /// `queue_placements_honor_rho_exactly_and_mean_rounding_does_not`:
        /// paper-like, near 0, anywhere in (0, 1], `p_off = 1`, `p_on = 1`.
        fn regime(which: u8, u: f64, v: f64) -> (f64, f64) {
            match which {
                0 => (0.005 + 0.015 * u, 0.05 + 0.10 * v),
                1 => (1e-4 + 9e-4 * u, 1e-3 + 9e-3 * v),
                2 => (1.0 - u, 1.0 - v),
                3 => (0.01 + 0.29 * u, 1.0),
                _ => (1.0, 1.0 - 0.5 * v),
            }
        }

        fn fleet_gen() -> impl PropStrategy<Value = Fleet> {
            let template = (
                0.0f64..1.0,
                0.0f64..1.0,
                0usize..3,
                1.0f64..20.0,
                0.0f64..20.0,
            );
            (
                0u8..5,
                0usize..3,
                0usize..3,
                0u8..2,
                proptest::collection::vec(40.0f64..140.0, 3..9),
                proptest::collection::vec(template, 1..5),
            )
                .prop_map(|(which, rho, d, table_i, caps, raw)| Fleet {
                    rho: [1e-4, 0.01, 0.3][rho],
                    d: [1, 5, 16][d],
                    caps,
                    templates: raw
                        .into_iter()
                        .map(|(u, v, size, r_b, r_e)| {
                            let (p_on, p_off) = regime(which, u, v);
                            let (r_b, r_e) = if table_i == 1 {
                                [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)][size]
                            } else {
                                (r_b, r_e)
                            };
                            (p_on, p_off, r_b, r_e)
                        })
                        .collect(),
                })
        }

        /// Six heterogeneous templates on six PMs. Templates 0 and 2
        /// share `(R_b, R_e)` with different probabilities, so a batch
        /// holding both has an exact cross-class key tie: `class_schedule`
        /// bails and the ordered batch route runs beside the collapsed
        /// one. Template 3 is bursty enough that a PM hosting it is priced
        /// by a much tighter table than its calm neighbours.
        fn tied_fleet() -> Fleet {
            Fleet {
                rho: 0.01,
                d: 5,
                caps: vec![55.0, 70.0, 40.0, 90.0, 60.0, 80.0],
                templates: vec![
                    (0.01, 0.09, 4.0, 3.0),
                    (0.01, 0.09, 7.0, 5.0),
                    (0.02, 0.10, 4.0, 3.0),
                    (0.30, 0.20, 10.0, 8.0),
                    (0.05, 0.15, 2.0, 6.0),
                    (0.01, 0.09, 7.0, 2.0),
                ],
            }
        }

        fn op_gen() -> impl PropStrategy<Value = Op> {
            (0u8..12, 0u8..=255, proptest::collection::vec(0u8..6, 1..12)).prop_map(
                |(which, sel, ts)| match which {
                    0..=3 => Op::Arrive(sel),
                    4..=6 => Op::Depart(sel),
                    7 | 8 => Op::Batch(ts),
                    9 | 10 => Op::Recalibrate,
                    _ => Op::Restore,
                },
            )
        }

        /// Runs `ops` on both engines in lock-step: equal answers,
        /// digests, per-PM loads and index leaves (bit for bit),
        /// consistent internals, and every occupied PM within ρ by its
        /// exact stationary CVR, after every op.
        fn run(fleet: &Fleet, ops: &[Op]) -> Result<(), String> {
            let pms: Vec<PmSpec> = fleet
                .caps
                .iter()
                .enumerate()
                .map(|(j, &c)| PmSpec::new(j, c))
                .collect();
            let (p_on, p_off, _, _) = fleet.templates[0];
            let mut a = OnlineCluster::new(pms.clone(), fleet.d, p_on, p_off, fleet.rho);
            let mut b = ReferenceOnlineCluster::new(pms, fleet.d, fleet.rho);
            let spec = |t: u8, id: usize| {
                let (p_on, p_off, r_b, r_e) = fleet.templates[t as usize % fleet.templates.len()];
                VmSpec::new(id, p_on, p_off, r_b, r_e)
            };
            let mut live: BTreeMap<usize, VmSpec> = BTreeMap::new();
            let mut next_id = 0;
            for (step, op) in ops.iter().enumerate() {
                let fail = |what: String| format!("op {step} {op:?}: {what}");
                match op {
                    Op::Arrive(t) => {
                        let v = spec(*t, next_id);
                        next_id += 1;
                        let (ra, rb) = (a.arrive(v), b.arrive(v));
                        if ra != rb {
                            return Err(fail(format!("engines answered {ra:?} vs {rb:?}")));
                        }
                        if ra.is_ok() {
                            live.insert(v.id, v);
                        }
                    }
                    Op::Depart(sel) => {
                        // With nothing live, an unknown id both must refuse.
                        let nth = live.keys().nth(*sel as usize % live.len().max(1));
                        let id = nth.copied().unwrap_or(usize::MAX);
                        let (ra, rb) = (a.depart(id), b.depart(id));
                        if ra.is_some() == live.is_empty() || ra != rb {
                            return Err(fail(format!("engines answered {ra:?} vs {rb:?}")));
                        }
                        live.remove(&id);
                    }
                    Op::Batch(ts) => {
                        let batch: Vec<VmSpec> = ts
                            .iter()
                            .map(|&t| {
                                next_id += 1;
                                spec(t, next_id - 1)
                            })
                            .collect();
                        let (ra, rb) =
                            (a.arrive_batch(batch.clone()), b.arrive_batch(batch.clone()));
                        if ra != rb {
                            return Err(fail(format!("engines answered {ra:?} vs {rb:?}")));
                        }
                        for v in &batch {
                            if a.host_of(v.id).is_some() {
                                live.insert(v.id, *v);
                            }
                        }
                    }
                    Op::Recalibrate => {
                        let (ra, rb) = (a.recalibrate(), b.recalibrate());
                        let bits =
                            |p: Option<(f64, f64)>| p.map(|(x, y)| (x.to_bits(), y.to_bits()));
                        if bits(ra) != bits(rb) || ra.is_some() == live.is_empty() {
                            return Err(fail(format!("engines answered {ra:?} vs {rb:?}")));
                        }
                    }
                    Op::Restore => {
                        let bytes = a.to_snapshot_bytes();
                        a = OnlineCluster::from_snapshot_bytes(&bytes)
                            .map_err(|e| fail(e.to_string()))?;
                        if a.to_snapshot_bytes() != bytes {
                            return Err(fail("the restored image differs".into()));
                        }
                    }
                }
                a.check_consistency().map_err(&fail)?;
                b.check_consistency().map_err(&fail)?;
                if a.state_digest() != b.state_digest() {
                    return Err(fail("the engines' digests differ".into()));
                }
                let bits = |l: &PmLoad| {
                    let sums = [l.max_re, l.sum_rb, l.sum_rp, l.max_pi].map(f64::to_bits);
                    (l.count, sums)
                };
                for j in 0..fleet.caps.len() {
                    let (la, lb) = (a.load(j), b.load(j));
                    let (ha, hb) = (a.index.value(j), b.index.value(j));
                    if bits(la) != bits(lb) || ha.to_bits() != hb.to_bits() {
                        return Err(fail(format!(
                            "PM {j}: loads {la:?} vs {lb:?}, headroom {ha} vs {hb}"
                        )));
                    }
                }
                let mut hosted: BTreeMap<usize, Vec<VmSpec>> = BTreeMap::new();
                for (&id, v) in &live {
                    let j = a.host_of(id).ok_or_else(|| fail(format!("VM {id} lost")))?;
                    if b.host_of(id) != Some(j) {
                        return Err(fail(format!("VM {id} hosted apart")));
                    }
                    hosted.entry(j).or_default().push(*v);
                }
                for (&j, vms) in &hosted {
                    let cvr = pm_cvr_exact(vms, fleet.caps[j]).expect("few classes per PM");
                    if cvr > fleet.rho + TIE {
                        return Err(fail(format!(
                            "PM {j} (capacity {}) hosts {vms:?} at exact CVR {cvr} > rho {}",
                            fleet.caps[j], fleet.rho
                        )));
                    }
                }
            }
            Ok(())
        }

        #[test]
        fn a_hot_batch_on_a_calm_table_holds_rho() {
            // The property's smallest failure under the fleet-wide table
            // (one op, found by deleting ops and batch members while it
            // still failed): engines built with template 0's pair
            // (π ≈ 0.090) took a batch of templates 0, 1, 1, 2 (π ≈ 0.159,
            // 0.159, 0.212) onto PM 0 under template 0's table, at an
            // exact CVR of 4.81e-4 against ρ = 1e-4.
            let fleet = Fleet {
                rho: 1e-4,
                d: 5,
                caps: vec![
                    138.52516260272563,
                    135.9019032025535,
                    118.33739737292755,
                    49.933477564193524,
                    54.46061059808423,
                ],
                templates: vec![
                    (0.01185387340774445, 0.11994251298212477, 10.0, 10.0),
                    (0.010541392498896537, 0.05578117204161447, 20.0, 20.0),
                    (0.014733909209330789, 0.054838950066824134, 20.0, 20.0),
                ],
            };
            run(&fleet, &[Op::Batch(vec![3, 1, 1, 2])]).unwrap();
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn every_pm_holds_rho_by_the_exact_law(
                fleet in fleet_gen(),
                ops in proptest::collection::vec(op_gen(), 1..40)
            ) {
                let outcome = run(&fleet, &ops);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn a_fleet_with_a_cross_class_key_tie_runs_in_lock_step(
                ops in proptest::collection::vec(op_gen(), 1..50)
            ) {
                let outcome = run(&tied_fleet(), &ops);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }
    }
}
