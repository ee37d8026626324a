//! The daemon's single source of truth: a live [`OnlineCluster`] plus a
//! [`MemoryRecorder`], mutated only through [`ClusterState::apply`], which
//! applies each engine op through [`apply_op`] — the one function that
//! gives an op its meaning, over either engine.
//!
//! The transport never touches the engine directly — workers call into
//! this module with validated [`Op`]s, one at a time under the
//! listener's engine lock. That serialization is what makes the daemon
//! a *deterministic function of its op sequence*: replaying the same ops through a bare
//! `OnlineCluster` must land on the same [`StateDigest`], which the
//! transport-equivalence suite pins.
//!
//! Snapshots frame three sections through `obs::durable` (the cluster's
//! canonical image, the recorder snapshot, and server metadata) and go
//! through any [`Store`], so the same torn-write fault sweeps that cover
//! the sim checkpoints cover the daemon.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bursty_obs::durable::{Cursor, FrameError, FrameWriter, Wire};
use bursty_obs::{Counter, Event, Gauge, HistId, MemoryRecorder, Recorder, Store};
use bursty_placement::{OnlineCluster, OnlineEngine};
use bursty_workload::{PmSpec, VmSpec};

use crate::error::ServeError;
use bursty_obs::json::{decimal, obj, Json};

/// Section tags inside a `serve-*.ckpt` frame.
const TAG_CLUSTER: u32 = 1;
const TAG_RECORDER: u32 = 2;
const TAG_META: u32 = 3;

/// Snapshot file prefix/suffix; the zero-padded applied-op count in the
/// middle makes lexicographic order equal numeric order.
const SNAP_PREFIX: &str = "serve-";
const SNAP_SUFFIX: &str = ".ckpt";

/// A state mutation, already validated by the routing layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Admit(VmSpec),
    AdmitBatch(Vec<VmSpec>),
    Depart { id: usize },
    Recalibrate,
    Snapshot,
}

/// What one op did to an engine, as [`apply_op`] reports it.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// A single admit placed VM `id` on PM `host`.
    Admitted { id: usize, host: usize },
    /// A batch placed every member: `(VM id, PM)` in placement order.
    AdmittedBatch(Vec<(usize, usize)>),
    /// VM `id` left PM `host`.
    Departed { id: usize, host: usize },
    /// The hottest live class's pair (see `OnlineCluster::recalibrate`).
    Recalibrated { p_on: f64, p_off: f64 },
    /// VM `id` of an admit is already placed; the engine was not reached.
    DuplicateId(usize),
    /// No PM admits VM `id`; earlier batch members stay placed.
    NoCapacity(usize),
    /// A departure of VM `id`, which is not placed; nothing changed.
    UnknownId(usize),
    /// A recalibration of a cluster that hosts no VM.
    EmptyCluster,
}

/// Applies one op to either engine — the one place an op's semantics are
/// written, shared by the daemon ([`ClusterState::apply`]), its oracles
/// (`replay::apply_engine`) and `bursty online-replay`. An admit of a
/// placed id, or a batch naming one, is refused whole before the engine
/// is reached; a batch that runs out of room keeps the members placed
/// before the refused one; a departure of an unknown id changes nothing.
/// `rec` goes to the engine's recorded methods and nowhere else. `None`
/// for [`Op::Snapshot`], which is the daemon's, not an engine's.
pub fn apply_op<E: OnlineEngine, R: Recorder>(
    engine: &mut E,
    op: Op,
    rec: &mut R,
) -> Option<Applied> {
    Some(match op {
        Op::Admit(vm) if engine.host_of(vm.id).is_some() => Applied::DuplicateId(vm.id),
        Op::Admit(vm) => match engine.arrive(vm, rec) {
            Ok(host) => Applied::Admitted { id: vm.id, host },
            Err(e) => Applied::NoCapacity(e.vm_id),
        },
        Op::AdmitBatch(vms) => match vms.iter().find(|v| engine.host_of(v.id).is_some()) {
            Some(dup) => Applied::DuplicateId(dup.id),
            None => match engine.arrive_batch(vms, rec) {
                Ok(placed) => Applied::AdmittedBatch(placed),
                Err(e) => Applied::NoCapacity(e.vm_id),
            },
        },
        Op::Depart { id } => match engine.depart(id, rec) {
            Some(host) => Applied::Departed { id, host },
            None => Applied::UnknownId(id),
        },
        Op::Recalibrate => match engine.recalibrate(rec) {
            Some((p_on, p_off)) => Applied::Recalibrated { p_on, p_off },
            None => Applied::EmptyCluster,
        },
        Op::Snapshot => return None,
    })
}

/// The engine plus its observability sidecar and the applied-op counter.
pub struct ClusterState {
    cluster: OnlineCluster,
    recorder: MemoryRecorder,
    /// Ops that reached the engine, in apply order. Engine-level
    /// rejections (a full cluster, an unknown VM id) still count: they
    /// are deterministic transitions (possibly the identity) and keep
    /// `applied` aligned with the seq stream.
    applied: u64,
}

impl ClusterState {
    /// A fresh daemon state over `pms` (see [`OnlineCluster::new`]).
    /// `_epsilon` is ignored: it was the retired recalibration ε, and the
    /// parameter stays only until the callers that pass it by position
    /// are updated.
    pub fn new(
        pms: Vec<PmSpec>,
        d: usize,
        p_on: f64,
        p_off: f64,
        rho: f64,
        _epsilon: f64,
        journal_cap: usize,
    ) -> Self {
        Self {
            cluster: OnlineCluster::new(pms, d, p_on, p_off, rho),
            recorder: MemoryRecorder::new(journal_cap),
            applied: 0,
        }
    }

    pub fn cluster(&self) -> &OnlineCluster {
        &self.cluster
    }

    pub fn cluster_mut(&mut self) -> &mut OnlineCluster {
        &mut self.cluster
    }

    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Applies one mutation through [`apply_op`] and renders its outcome
    /// as the JSON response (2xx) or a typed 404/409.
    ///
    /// Every call increments [`Counter::ServeRequests`] and, on reaching
    /// the engine, the applied-op counter — including engine-level
    /// rejections, which map to 404/409 but are still deterministic.
    pub fn apply(
        &mut self,
        op: Op,
        store: Option<&mut dyn Store>,
        snapshot_keep: usize,
        next_seq: u64,
    ) -> Result<Json, ServeError> {
        self.recorder.counter_inc(Counter::ServeRequests);
        let batch = matches!(op, Op::AdmitBatch(_));
        let Some(outcome) = apply_op(&mut self.cluster, op, &mut self.recorder) else {
            let store = store.ok_or_else(|| {
                ServeError::conflict("no_store", "daemon started without --state-dir")
            })?;
            return self.snapshot_to(store, snapshot_keep, next_seq);
        };
        self.applied += 1;
        let num = |x: usize| Json::Num(x as f64);
        let applied = ("applied", Json::Num(self.applied as f64));
        match outcome {
            Applied::Admitted { id, host } | Applied::Departed { id, host } => {
                Ok(obj(vec![("id", num(id)), ("host", num(host)), applied]))
            }
            Applied::AdmittedBatch(placed) => {
                let pair =
                    |&(id, host): &(usize, usize)| obj(vec![("id", num(id)), ("host", num(host))]);
                let hosts = Json::Arr(placed.iter().map(pair).collect());
                Ok(obj(vec![("placed", hosts), applied]))
            }
            Applied::Recalibrated { p_on, p_off } => Ok(obj(vec![
                ("p_on", Json::Num(p_on)),
                ("p_off", Json::Num(p_off)),
                applied,
            ])),
            Applied::DuplicateId(id) => Err(ServeError::conflict(
                "duplicate_id",
                format!("vm {id} is already placed"),
            )),
            Applied::NoCapacity(vm_id) => {
                let rest = if batch {
                    "; earlier batch members stay placed"
                } else {
                    ""
                };
                let msg = format!("vm {vm_id} fits on no PM{rest}");
                Err(ServeError::conflict("no_capacity", msg))
            }
            Applied::UnknownId(id) => Err(ServeError::not_found(format!("vm {id} is not placed"))),
            Applied::EmptyCluster => Err(ServeError::conflict(
                "empty_cluster",
                "recalibration needs at least one placed vm",
            )),
        }
    }

    /// Writes a `serve-{applied}.ckpt` frame and prunes older snapshots
    /// beyond `keep`.
    fn snapshot_to(
        &mut self,
        store: &mut dyn Store,
        keep: usize,
        next_seq: u64,
    ) -> Result<Json, ServeError> {
        let name = snapshot_name(self.applied);
        let mut meta = Vec::new();
        (self.applied, next_seq).put(&mut meta);
        let mut w = FrameWriter::new();
        w.section(TAG_CLUSTER, &self.cluster.to_snapshot_bytes());
        w.section(TAG_RECORDER, &self.recorder.to_snapshot_bytes());
        w.section(TAG_META, &meta);
        let bytes = w.finish();
        store
            .write_atomic(&name, &bytes)
            .map_err(|e| ServeError::internal(format!("snapshot write failed: {e}")))?;
        self.recorder.counter_inc(Counter::ServeSnapshots);
        self.recorder.record_event(Event::Snapshot {
            step: self.applied,
            bytes: bytes.len(),
        });
        // Best-effort prune: keep the newest `keep` snapshots.
        if let Ok(names) = store.list() {
            let mut snaps: Vec<String> = names
                .into_iter()
                .filter(|n| n.starts_with(SNAP_PREFIX) && n.ends_with(SNAP_SUFFIX))
                .collect();
            snaps.sort();
            if snaps.len() > keep {
                let excess = snaps.len() - keep;
                for old in &snaps[..excess] {
                    let _ = store.remove(old);
                }
            }
        }
        Ok(obj(vec![
            ("file", Json::Str(name)),
            ("bytes", Json::Num(bytes.len() as f64)),
            ("applied", Json::Num(self.applied as f64)),
        ]))
    }

    /// The end-state digest as a JSON object (hashes as hex strings —
    /// u64 does not survive a JSON `Number`).
    pub fn digest_json(&self) -> Json {
        let d = self.cluster.state_digest();
        obj(vec![
            ("n_vms", Json::Num(d.n_vms as f64)),
            ("pms_used", Json::Num(d.pms_used as f64)),
            ("hosts_hash", Json::Str(format!("{:016x}", d.hosts_hash))),
            ("loads_hash", Json::Str(format!("{:016x}", d.loads_hash))),
            ("digest", Json::Str(format!("{:016x}", d.combined()))),
            ("applied", Json::Num(self.applied as f64)),
        ])
    }

    pub fn fleet_json(&self) -> Json {
        obj(vec![
            ("n_vms", Json::Num(self.cluster.n_vms() as f64)),
            ("pms_used", Json::Num(self.cluster.pms_used() as f64)),
            ("applied", Json::Num(self.applied as f64)),
        ])
    }

    /// The `/metrics` text view: one `name value` line per counter and
    /// gauge, plus count/p50/p99 per histogram. `transport_bad` is the
    /// transport-side reject count — those requests never reach the
    /// engine, so the listener tracks them in an atomic and the
    /// recorder's own `serve_bad_requests` cell stays at zero.
    pub fn metrics_text(&mut self, transport_bad: u64) -> String {
        self.recorder.counter_inc(Counter::ServeRequests);
        // One buffer for the whole page (~2 KiB, plus the seq window's
        // lines the listener appends): this runs under the engine lock.
        let mut out = String::with_capacity(4096);
        for c in Counter::all() {
            let v = if c == Counter::ServeBadRequests {
                transport_bad
            } else {
                self.recorder.counter(c)
            };
            metric_line(&mut out, c.name(), "", v);
        }
        for g in Gauge::all() {
            let _ = writeln!(out, "{} {}", g.name(), self.recorder.gauge(g));
        }
        for h in HistId::all() {
            let (name, hist) = (h.name(), self.recorder.histogram(h));
            metric_line(&mut out, name, "_count", hist.total());
            metric_line(&mut out, name, "_p50", hist.quantile(0.50).unwrap_or(0));
            metric_line(&mut out, name, "_p99", hist.quantile(0.99).unwrap_or(0));
        }
        metric_line(&mut out, "serve_applied_ops", "", self.applied);
        metric_line(&mut out, "serve_fleet_vms", "", self.cluster.n_vms() as u64);
        let pms_used = self.cluster.pms_used() as u64;
        metric_line(&mut out, "serve_fleet_pms_used", "", pms_used);
        out
    }

    /// Point-in-time read, counted like any other request.
    pub fn read_counted(&mut self, f: impl FnOnce(&ClusterState) -> Json) -> Json {
        self.recorder.counter_inc(Counter::ServeRequests);
        f(self)
    }
}

/// Appends one `/metrics` line, `{name}{suffix} {value}`.
pub(crate) fn metric_line(out: &mut String, name: &str, suffix: &str, value: u64) {
    out.push_str(name);
    out.push_str(suffix);
    out.push(' ');
    out.push_str(decimal(value, &mut [0u8; 20]));
    out.push('\n');
}

/// `serve-{applied:020}.ckpt`.
pub fn snapshot_name(applied: u64) -> String {
    format!("{SNAP_PREFIX}{applied:020}{SNAP_SUFFIX}")
}

/// Why one snapshot file was skipped during restore.
#[derive(Debug)]
pub enum RestoreReason {
    /// The store could not produce the bytes.
    Io(String),
    /// The frame or a section failed CRC/decode validation.
    Corrupt(FrameError),
}

impl std::fmt::Display for RestoreReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreReason::Io(e) => write!(f, "unreadable: {e}"),
            RestoreReason::Corrupt(e) => write!(f, "corrupt: {e:?}"),
        }
    }
}

/// What restore found: the state it loaded (if any snapshot verified)
/// and every newer file it had to discard, with a typed reason each.
pub struct RestoreOutcome {
    pub state: Option<RestoredState>,
    pub discarded: Vec<(String, RestoreReason)>,
}

pub struct RestoredState {
    pub state: ClusterState,
    pub next_seq: u64,
    pub loaded_from: String,
}

/// Walks snapshots newest-first and returns the first one that fully
/// verifies (frame CRCs, cluster invariants, recorder layout). Corrupt
/// or unreadable files are skipped with a per-file reason — a torn
/// write can cost the newest checkpoint, never yield a skewed state.
pub fn restore_newest<S: Store + ?Sized>(store: &S) -> Result<RestoreOutcome, ServeError> {
    let names = store
        .list()
        .map_err(|e| ServeError::internal(format!("cannot list state dir: {e}")))?;
    let mut snaps: Vec<String> = names
        .into_iter()
        .filter(|n| n.starts_with(SNAP_PREFIX) && n.ends_with(SNAP_SUFFIX))
        .collect();
    snaps.sort();
    snaps.reverse();

    let mut discarded = Vec::new();
    for name in snaps {
        let bytes = match store.read(&name) {
            Ok(b) => b,
            Err(e) => {
                discarded.push((name, RestoreReason::Io(e.to_string())));
                continue;
            }
        };
        match decode_snapshot(&bytes) {
            Ok((state, next_seq)) => {
                let mut state = state;
                state.recorder.counter_inc(Counter::ServeRestores);
                state.recorder.record_event(Event::Restore {
                    step: state.applied,
                    discarded: discarded.len(),
                });
                return Ok(RestoreOutcome {
                    state: Some(RestoredState {
                        state,
                        next_seq,
                        loaded_from: name,
                    }),
                    discarded,
                });
            }
            Err(e) => {
                discarded.push((name, RestoreReason::Corrupt(e)));
            }
        }
    }
    Ok(RestoreOutcome {
        state: None,
        discarded,
    })
}

fn decode_snapshot(bytes: &[u8]) -> Result<(ClusterState, u64), FrameError> {
    let frames = bursty_obs::parse_frames(bytes)?;
    let sections: BTreeMap<u32, &[u8]> = frames.iter().map(|(t, p)| (*t, p.as_slice())).collect();
    let section = |tag, what| {
        let missing = || FrameError::Decode(format!("missing {what} section"));
        sections.get(&tag).copied().ok_or_else(missing)
    };
    let cluster = OnlineCluster::from_snapshot_bytes(section(TAG_CLUSTER, "cluster")?)?;
    let recorder = MemoryRecorder::from_snapshot_bytes(section(TAG_RECORDER, "recorder")?)?;
    let mut c = Cursor::new(section(TAG_META, "meta")?);
    let (applied, next_seq) = Wire::get(&mut c)?;
    c.expect_done()?;
    Ok((
        ClusterState {
            cluster,
            recorder,
            applied,
        },
        next_seq,
    ))
}

/// Reorder buffer for client-supplied `seq` numbers.
///
/// The daemon applies seq'd ops in strictly increasing seq order; an
/// op arriving early waits here, *without holding a worker thread* —
/// the listener parks the whole connection with the buffered op, and
/// the worker whose op closes the gap answers it when its turn comes.
/// Liveness therefore
/// needs only that each client sends its assigned seqs in ascending
/// order: the connection carrying the globally smallest unapplied seq
/// is always free to be picked up by any worker, so its arrival always
/// releases the buffer. A seq whose predecessor never arrives (a died
/// client) is evicted after a TTL via `SeqWindow::evict_where` and
/// answered with a retryable 503 — eviction never advances `next`, so
/// the evicted op can be resent once the gap fills.
///
/// A seq is *consumed* the moment it is released in order: engine-level
/// rejections (duplicate id, no capacity, unknown departure) are
/// deterministic identity transitions that still advance the window,
/// so resending a consumed seq answers 409 `seq_replayed` regardless of
/// the original op's outcome. Only buffered (never-released) seqs — 409
/// `seq_duplicate` / 503 `seq_gap_timeout` responses — remain open.
pub struct SeqWindow<T> {
    next: u64,
    window: u64,
    pending: BTreeMap<u64, T>,
}

/// Why an offered seq was rejected (the op is *not* applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// `seq` is below the next expected value — already applied.
    Replayed { seq: u64, next: u64 },
    /// `seq` is more than `window` ahead of the next expected value.
    TooFarAhead { seq: u64, next: u64, window: u64 },
    /// Another op already waits under this seq.
    Duplicate { seq: u64 },
}

impl SeqError {
    pub(crate) fn to_serve_error(&self) -> ServeError {
        match self {
            SeqError::Replayed { seq, next } => ServeError::conflict(
                "seq_replayed",
                format!("seq {seq} already applied (next is {next})"),
            ),
            SeqError::TooFarAhead { seq, next, window } => ServeError::conflict(
                "seq_too_far_ahead",
                format!("seq {seq} is beyond the window (next {next}, window {window})"),
            ),
            SeqError::Duplicate { seq } => ServeError::conflict(
                "seq_duplicate",
                format!("another request already holds seq {seq}"),
            ),
        }
    }
}

impl<T> SeqWindow<T> {
    pub fn new(next: u64, window: u64) -> Self {
        Self {
            next,
            window: window.max(1),
            pending: BTreeMap::new(),
        }
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next
    }

    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether `seq` would be accepted right now — lets a caller
    /// reject without giving up ownership of the op it would offer.
    pub(crate) fn check(&self, seq: u64) -> Result<(), SeqError> {
        if seq < self.next {
            return Err(SeqError::Replayed {
                seq,
                next: self.next,
            });
        }
        if seq >= self.next + self.window {
            return Err(SeqError::TooFarAhead {
                seq,
                next: self.next,
                window: self.window,
            });
        }
        if seq > self.next && self.pending.contains_key(&seq) {
            return Err(SeqError::Duplicate { seq });
        }
        Ok(())
    }

    /// Offers an op under `seq`; returns the (possibly empty) run of
    /// ops that are now ready, in seq order, each tagged with its own
    /// seq. The tag matters: `next` has already advanced past the whole
    /// run when this returns, but a caller persisting progress mid-run
    /// (a snapshot op) must record *its* seq + 1, not the run end —
    /// later ops in the run are not yet in the snapshotted state.
    pub fn offer(&mut self, seq: u64, item: T) -> Result<Vec<(u64, T)>, SeqError> {
        self.check(seq)?;
        if seq > self.next {
            self.pending.insert(seq, item);
            return Ok(Vec::new());
        }
        let mut ready = vec![(seq, item)];
        self.next += 1;
        while let Some(item) = self.pending.remove(&self.next) {
            ready.push((self.next, item));
            self.next += 1;
        }
        Ok(ready)
    }

    /// Removes buffered entries matching `pred` and returns them with
    /// their seqs. `next` is untouched: an evicted seq stays claimable,
    /// and the gap that stranded it still blocks later seqs.
    pub(crate) fn evict_where(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<(u64, T)> {
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, item)| pred(item))
            .map(|(seq, _)| *seq)
            .collect();
        stale
            .into_iter()
            .map(|seq| {
                let item = self.pending.remove(&seq).expect("seq was just listed");
                (seq, item)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_obs::{MemStore, NoopRecorder};
    use bursty_placement::ReferenceOnlineCluster;

    fn pms(m: usize) -> Vec<PmSpec> {
        (0..m).map(|j| PmSpec::new(j, 100.0)).collect()
    }

    fn vm(id: usize, r_b: f64) -> VmSpec {
        VmSpec::new(id, 0.01, 0.09, r_b, 5.0)
    }

    fn state() -> ClusterState {
        ClusterState::new(pms(16), 16, 0.01, 0.09, 0.01, 0.0, 256)
    }

    #[test]
    fn apply_matches_reference_replay() {
        let mut s = state();
        let mut oracle = ReferenceOnlineCluster::new(pms(16), 16, 0.01);
        for id in 0..30 {
            s.apply(Op::Admit(vm(id, 10.0)), None, 2, 0).unwrap();
            oracle.arrive(vm(id, 10.0)).unwrap();
        }
        for id in (0..30).step_by(3) {
            s.apply(Op::Depart { id }, None, 2, 0).unwrap();
            oracle.depart(id).unwrap();
        }
        let batch: Vec<VmSpec> = (100..112).map(|id| vm(id, 20.0)).collect();
        s.apply(Op::AdmitBatch(batch.clone()), None, 2, 0).unwrap();
        oracle.arrive_batch(batch).unwrap();
        s.apply(Op::Recalibrate, None, 2, 0).unwrap();
        oracle.recalibrate().unwrap();
        assert_eq!(s.cluster().state_digest(), oracle.state_digest());
        assert_eq!(s.applied(), 30 + 10 + 1 + 1);
    }

    /// The daemon's answer to one op as (status, code, placed `(id, host)`
    /// pairs, recalibrated pair).
    type Answer = (u16, &'static str, Vec<(usize, usize)>, Option<(f64, f64)>);

    fn daemon_answer(res: Result<Json, ServeError>) -> Answer {
        let json = match res {
            Ok(json) => json,
            Err(e) => return (e.status, e.code, Vec::new(), None),
        };
        let pair = |v: &Json| {
            let field = |k: &str| v.get(k).and_then(Json::as_usize).unwrap();
            (field("id"), field("host"))
        };
        let hosts = match json.get("placed").and_then(Json::as_array) {
            Some(placed) => placed.iter().map(pair).collect(),
            None if json.get("host").is_some() => vec![pair(&json)],
            None => Vec::new(),
        };
        let p = |k: &str| json.get(k).and_then(Json::as_f64);
        (200, "", hosts, p("p_on").zip(p("p_off")))
    }

    fn oracle_answer(applied: Applied) -> Answer {
        match applied {
            Applied::Admitted { id, host } | Applied::Departed { id, host } => {
                (200, "", vec![(id, host)], None)
            }
            Applied::AdmittedBatch(placed) => (200, "", placed, None),
            Applied::Recalibrated { p_on, p_off } => (200, "", Vec::new(), Some((p_on, p_off))),
            Applied::DuplicateId(_) => (409, "duplicate_id", Vec::new(), None),
            Applied::NoCapacity(_) => (409, "no_capacity", Vec::new(), None),
            Applied::UnknownId(_) => (404, "not_found", Vec::new(), None),
            Applied::EmptyCluster => (409, "empty_cluster", Vec::new(), None),
        }
    }

    #[test]
    fn every_op_answers_as_apply_op_on_the_reference() {
        // A 12-PM pool cannot hold the program, so single admits and batch
        // members are refused and later departures of them miss.
        let m = 12;
        let mut s = ClusterState::new(pms(m), 16, 0.01, 0.09, 0.01, 0.0, 256);
        let mut oracle = ReferenceOnlineCluster::new(pms(m), 16, 0.01);
        let mut ops = crate::replay::build_program(5, 900, 0).ops;
        let Op::Admit(first) = ops[0].clone() else {
            panic!("a program opens with an admit")
        };
        let fresh = |id| vm(id, 5.0);
        ops.splice(
            1..1,
            [
                Op::Admit(first),
                Op::AdmitBatch(vec![fresh(100_000), first, fresh(100_001)]),
                Op::Depart { id: 100_000 },
            ],
        );
        ops.insert(0, Op::Recalibrate);
        for at in [40, 300, 700] {
            ops.insert(at, Op::Depart { id: 999_999 });
        }
        let mut seen: Vec<&'static str> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let want = oracle_answer(apply_op(&mut oracle, op.clone(), &mut NoopRecorder).unwrap());
            let got = daemon_answer(s.apply(op, None, 2, 0));
            assert_eq!(got, want, "op {i}");
            seen.push(want.1);
        }
        assert_eq!(s.cluster().state_digest(), oracle.state_digest());
        oracle.check_consistency().unwrap();
        for code in [
            "",
            "duplicate_id",
            "no_capacity",
            "not_found",
            "empty_cluster",
        ] {
            let n = seen.iter().filter(|&&c| c == code).count();
            assert!(n > 0, "no op answered {code:?}");
        }
        let dups = seen.iter().filter(|&&c| c == "duplicate_id").count();
        assert_eq!(
            dups, 2,
            "one single admit and one batch repeat id {}",
            first.id
        );
    }

    #[test]
    fn engine_level_rejections_are_typed() {
        let mut s = state();
        s.apply(Op::Admit(vm(1, 10.0)), None, 2, 0).unwrap();
        let dup = s.apply(Op::Admit(vm(1, 10.0)), None, 2, 0).unwrap_err();
        assert_eq!((dup.status, dup.code), (409, "duplicate_id"));
        let gone = s.apply(Op::Depart { id: 99 }, None, 2, 0).unwrap_err();
        assert_eq!((gone.status, gone.code), (404, "not_found"));
        let nostore = s.apply(Op::Snapshot, None, 2, 0).unwrap_err();
        assert_eq!((nostore.status, nostore.code), (409, "no_store"));
        // Rejections still advance `applied` (deterministic identity ops),
        // except Snapshot, which never reaches the engine.
        assert_eq!(s.applied(), 3);
    }

    #[test]
    fn metrics_text_is_byte_identical_for_a_fixed_state() {
        let mut s = state();
        s.apply(Op::Admit(vm(1, 10.0)), None, 2, 0).unwrap();
        s.apply(Op::Admit(vm(2, 95.0)), None, 2, 0).unwrap();
        s.apply(Op::Depart { id: 1 }, None, 2, 0).unwrap();
        // The page as the line-at-a-time `format!` renderer produced it.
        let golden = concat!(
            "steps 0\nviolation_steps 0\ndegraded_violation_steps 0\nmigrations 0\n",
            "retried_migrations 0\nfailed_migrations 0\ncrashes 0\nrecoveries 0\n",
            "displaced_vms 0\nevacuations_placed 0\nevacuations_degraded 0\n",
            "stranded_vm_steps 0\nretry_enqueued 0\nretry_reenqueued 0\n",
            "retry_abandoned 0\nretry_cancelled 0\nretry_landed_overload 0\n",
            "retry_landed_evacuation 0\nretry_residual_overload 0\n",
            "retry_residual_evacuation 0\npack_probes 2\npack_rejected_probes 0\n",
            "pack_placed_vms 0\nbatch_placed_vms 0\nevac_probes 0\nevac_refusals 0\n",
            "online_arrivals 2\nonline_departures 1\nonline_recalibrations 0\n",
            "depart_rebuild_visits 0\nonline_batches 0\n",
            "binomial_table_hits 0\n",
            "binomial_table_misses 0\nbinomial_table_evictions 0\nserve_requests 4\n",
            "serve_bad_requests 7\nserve_snapshots 0\nserve_restores 0\n",
            "pms_used_at_pack 0\npeak_pms_used 0\nfinal_pms_used 0\nenergy_joules 0\n",
            "retry_backoff_steps_count 0\nretry_backoff_steps_p50 0\n",
            "retry_backoff_steps_p99 0\nevacuation_batch_size_count 0\n",
            "evacuation_batch_size_p50 0\nevacuation_batch_size_p99 0\n",
            "violations_per_step_count 0\nviolations_per_step_p50 0\n",
            "violations_per_step_p99 0\nonline_admit_nanos_count 0\n",
            "online_admit_nanos_p50 0\nonline_admit_nanos_p99 0\n",
            "online_depart_nanos_count 0\nonline_depart_nanos_p50 0\n",
            "online_depart_nanos_p99 0\nonline_recalibrate_nanos_count 0\n",
            "online_recalibrate_nanos_p50 0\nonline_recalibrate_nanos_p99 0\n",
            "serve_applied_ops 3\nserve_fleet_vms 1\nserve_fleet_pms_used 1\n",
        );
        assert_eq!(s.metrics_text(7), golden);
    }

    #[test]
    fn snapshot_restores_bit_identically_and_prunes() {
        let mut store = MemStore::new();
        let mut s = state();
        for id in 0..40 {
            s.apply(Op::Admit(vm(id, 7.0)), None, 2, 0).unwrap();
            if id % 5 == 4 {
                s.apply(Op::Snapshot, Some(&mut store), 2, id as u64 + 1)
                    .unwrap();
            }
        }
        // Pruned to the newest 2 snapshots.
        let names = store.list().unwrap();
        assert_eq!(names.len(), 2);
        let out = restore_newest(&store).unwrap();
        assert!(out.discarded.is_empty());
        let restored = out.state.unwrap();
        assert_eq!(restored.loaded_from, snapshot_name(40));
        assert_eq!(restored.next_seq, 40);
        assert_eq!(
            restored.state.cluster().state_digest(),
            s.cluster().state_digest()
        );
        // The restored engine keeps serving identically.
        let mut a = s;
        let mut b = restored.state;
        a.apply(Op::Admit(vm(500, 9.0)), None, 2, 0).unwrap();
        b.apply(Op::Admit(vm(500, 9.0)), None, 2, 0).unwrap();
        assert_eq!(a.cluster().state_digest(), b.cluster().state_digest());
    }

    #[test]
    fn restore_skips_corrupt_newest_with_typed_reason() {
        let mut store = MemStore::new();
        let mut s = state();
        for id in 0..10 {
            s.apply(Op::Admit(vm(id, 7.0)), None, 8, 0).unwrap();
        }
        s.apply(Op::Snapshot, Some(&mut store), 8, 10).unwrap();
        let digest_at_10 = s.cluster().state_digest();
        for id in 10..20 {
            s.apply(Op::Admit(vm(id, 7.0)), None, 8, 0).unwrap();
        }
        s.apply(Op::Snapshot, Some(&mut store), 8, 20).unwrap();
        // Corrupt the newest snapshot.
        let newest = snapshot_name(20);
        store.file_mut(&newest).unwrap()[40] ^= 0xFF;
        let out = restore_newest(&store).unwrap();
        assert_eq!(out.discarded.len(), 1);
        assert_eq!(out.discarded[0].0, newest);
        assert!(matches!(out.discarded[0].1, RestoreReason::Corrupt(_)));
        let restored = out.state.unwrap();
        assert_eq!(restored.loaded_from, snapshot_name(10));
        assert_eq!(restored.state.cluster().state_digest(), digest_at_10);
    }

    #[test]
    fn seq_window_orders_and_rejects() {
        let mut w: SeqWindow<&str> = SeqWindow::new(0, 4);
        assert_eq!(w.offer(2, "c").unwrap(), Vec::<(u64, &str)>::new());
        assert_eq!(w.offer(1, "b").unwrap(), Vec::<(u64, &str)>::new());
        // A released run tags each op with its own seq, in order.
        assert_eq!(w.offer(0, "a").unwrap(), vec![(0, "a"), (1, "b"), (2, "c")]);
        assert_eq!(w.next_seq(), 3);
        assert!(matches!(
            w.offer(1, "x"),
            Err(SeqError::Replayed { seq: 1, next: 3 })
        ));
        assert!(matches!(
            w.offer(7, "x"),
            Err(SeqError::TooFarAhead { seq: 7, .. })
        ));
        w.offer(5, "f").unwrap();
        assert!(matches!(
            w.offer(5, "x"),
            Err(SeqError::Duplicate { seq: 5 })
        ));
        assert_eq!(w.offer(3, "d").unwrap(), vec![(3, "d")]);
        assert_eq!(w.offer(4, "e").unwrap(), vec![(4, "e"), (5, "f")]);
        assert_eq!(w.pending_len(), 0);
    }

    #[test]
    fn seq_window_eviction_keeps_the_gap_open() {
        let mut w: SeqWindow<&str> = SeqWindow::new(0, 8);
        w.offer(3, "d").unwrap();
        w.offer(5, "f").unwrap();
        // Evict one buffered entry; next stays 0 and the seq reopens.
        let evicted = w.evict_where(|item| *item == "d");
        assert_eq!(evicted, vec![(3, "d")]);
        assert_eq!(w.next_seq(), 0);
        assert_eq!(w.pending_len(), 1);
        assert!(w.check(3).is_ok(), "evicted seq must be resendable");
        // The gap fills: the resent 3 releases with 5 still waiting on 4.
        w.offer(0, "a").unwrap();
        w.offer(1, "b").unwrap();
        w.offer(2, "c").unwrap();
        assert_eq!(w.offer(3, "d2").unwrap(), vec![(3, "d2")]);
        assert_eq!(w.offer(4, "e").unwrap(), vec![(4, "e"), (5, "f")]);
    }
}
