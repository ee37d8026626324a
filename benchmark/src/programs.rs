//! Seeded request programs for the serving workloads.
//!
//! Generated here rather than with `bursty_server::build_program`
//! because that program lets a third of its admissions be refused once
//! the pool fills; a benchmark that counts refusals as throughput
//! measures the wrong thing. These programs are *stationary* (the live
//! set they own stays within a few VMs of its target) and sized against
//! their PM pool so that no request is ever refused.

use bursty_core::prelude::*;
use bursty_server::{vm_to_json, Json, Lcg, Op};

/// Table-I equal-spike size classes `(R_b, R_e)`.
const TEMPLATES: [(f64, f64); 3] = [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)];
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
/// Jitter levels of the mixed program. `replay.rs` draws a fresh float
/// per VM, but `OnlineCluster`'s class registry is append-only, so a
/// continuous jitter grows it by one class per admission and every
/// recalibration gets slower than the last. A few discrete levels still
/// move the rounded pair on each recalibration and keep repeats
/// comparable.
const JITTER_LEVELS: u64 = 8;
pub const BATCH_SIZE: usize = 12;

/// One request as the load generator sends it: the path and the encoded
/// body are rendered before the clock starts.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOp {
    pub op: Op,
    pub path: &'static str,
    pub body: String,
}

fn render(op: Op, seq: Option<u64>) -> WireOp {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    let path = match &op {
        Op::Admit(vm) => {
            if let Json::Obj(p) = vm_to_json(vm) {
                pairs = p;
            }
            "/v1/admit"
        }
        Op::AdmitBatch(vms) => {
            let arr = Json::Arr(vms.iter().map(vm_to_json).collect());
            pairs.push(("vms".to_string(), arr));
            "/v1/admit-batch"
        }
        Op::Depart { id } => {
            pairs.push(("id".to_string(), Json::Num(*id as f64)));
            "/v1/depart"
        }
        Op::Recalibrate => "/v1/recalibrate",
        Op::Snapshot => "/v1/snapshot",
    };
    if let Some(seq) = seq {
        pairs.push(("seq".to_string(), Json::Num(seq as f64)));
    }
    let body = Json::Obj(pairs).encode();
    WireOp { op, path, body }
}

/// The live set a program owns, its id counter and its random stream.
struct Churn {
    rng: Lcg,
    live: Vec<usize>,
    next_id: usize,
    target: usize,
}

impl Churn {
    fn new(seed: u64, id_base: usize, target: usize) -> Self {
        Self {
            rng: Lcg::new(seed),
            live: Vec::with_capacity(target + BATCH_SIZE + 1),
            next_id: id_base,
            target,
        }
    }

    fn admit(&mut self, jitter: bool) -> VmSpec {
        let id = self.next_id;
        self.next_id += 1;
        self.live.push(id);
        let (r_b, r_e) = TEMPLATES[id % TEMPLATES.len()];
        let level = if jitter {
            self.rng.below(JITTER_LEVELS) as f64 / JITTER_LEVELS as f64
        } else {
            0.0
        };
        VmSpec::new(id, P_ON + 0.004 * level, P_OFF + 0.01 * level, r_b, r_e)
    }

    fn depart(&mut self) -> Op {
        let idx = self.rng.below(self.live.len() as u64) as usize;
        Op::Depart {
            id: self.live.swap_remove(idx),
        }
    }
}

/// `serve_churn`: ramp to `target` live VMs, then strictly alternate one
/// admit and one depart of un-jittered Table-I templates. Every op
/// carries the next seq, so op `i` can go to connection `i mod 2`.
pub struct ChurnProgram {
    churn: Churn,
    seq: u64,
}

impl ChurnProgram {
    /// Ids start at `id_base` so the program never collides with the
    /// warm fleet.
    pub fn new(seed: u64, id_base: usize, target: usize) -> Self {
        Self {
            churn: Churn::new(seed, id_base, target),
            seq: 0,
        }
    }

    fn stamp(&mut self, op: Op) -> WireOp {
        let seq = self.seq;
        self.seq += 1;
        render(op, Some(seq))
    }

    /// The admissions that bring the live set up to its target (empty
    /// once it is there).
    pub fn ramp(&mut self) -> Vec<WireOp> {
        let mut ops = Vec::new();
        while self.churn.live.len() < self.churn.target {
            let vm = self.churn.admit(false);
            ops.push(self.stamp(Op::Admit(vm)));
        }
        ops
    }

    /// The next `n` alternating ops.
    pub fn next_ops(&mut self, n: usize) -> Vec<WireOp> {
        (0..n)
            .map(|i| {
                let op = if i % 2 == 0 {
                    Op::Admit(self.churn.admit(false))
                } else {
                    self.churn.depart()
                };
                self.stamp(op)
            })
            .collect()
    }

    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.churn.live.len()
    }
}

/// `serve_mixed`'s writer: un-seq'd single admits and departs around a
/// live-set target, a 12-VM `admit-batch` every 16th op, a `recalibrate`
/// every 256th. Whenever the live set is at or above target the next
/// single op is a depart, which is what drains each batch again.
pub struct MixedProgram {
    churn: Churn,
    /// Ops generated so far; the batch/recalibrate cadence runs across
    /// repeats.
    count: usize,
}

impl MixedProgram {
    pub fn new(seed: u64, id_base: usize, target: usize) -> Self {
        Self {
            churn: Churn::new(seed, id_base, target),
            count: 0,
        }
    }

    pub fn ramp(&mut self) -> Vec<WireOp> {
        let mut ops = Vec::new();
        while self.churn.live.len() < self.churn.target {
            let vm = self.churn.admit(true);
            ops.push(render(Op::Admit(vm), None));
        }
        ops
    }

    pub fn next_ops(&mut self, n: usize) -> Vec<WireOp> {
        (0..n)
            .map(|_| {
                self.count += 1;
                let op = if self.count.is_multiple_of(256) {
                    Op::Recalibrate
                } else if self.count.is_multiple_of(16) {
                    Op::AdmitBatch((0..BATCH_SIZE).map(|_| self.churn.admit(true)).collect())
                } else if self.churn.live.len() >= self.churn.target {
                    self.churn.depart()
                } else {
                    Op::Admit(self.churn.admit(true))
                };
                render(op, None)
            })
            .collect()
    }

    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.churn.live.len()
    }
}

/// PMs for a serving workload: room for the warm fleet (Table-I equal
/// spikes pack about 4.36 VMs per PM) plus every VM the program can
/// have live, one per PM in the worst case.
pub fn pm_pool_size(fleet: usize, live_target: usize) -> usize {
    fleet / 4 + fleet / 50 + live_target + BATCH_SIZE + 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_server::apply_engine;

    const FLEET: usize = 2000;
    const TARGET: usize = 96;

    fn ops_of(wire: &[WireOp]) -> Vec<Op> {
        wire.iter().map(|w| w.op.clone()).collect()
    }

    /// Replays `ops` engine-direct on a warm 2k-VM cluster and counts
    /// the requests the daemon would have answered 404/409.
    fn refusals(seed: u64, pool: usize, ops: &[Op]) -> usize {
        let mut gen = FleetGenerator::new(seed);
        let fleet = gen.vms_table_i(FLEET, WorkloadPattern::EqualSpike);
        let mut cluster = OnlineCluster::new(gen.pms(pool), 16, P_ON, P_OFF, 0.01);
        cluster.arrive_batch(fleet).expect("warm fleet fits");
        let mut refused = 0;
        for op in ops {
            let ok = match op {
                Op::Admit(vm) => cluster.arrive(*vm).is_ok(),
                Op::AdmitBatch(vms) => cluster.arrive_batch(vms.clone()).is_ok(),
                Op::Depart { id } => cluster.depart(*id).is_some(),
                Op::Recalibrate => cluster.recalibrate().is_some(),
                Op::Snapshot => true,
            };
            refused += usize::from(!ok);
        }
        refused
    }

    #[test]
    fn churn_program_is_deterministic_stationary_and_never_refused() {
        let build = |seed| {
            let mut p = ChurnProgram::new(seed, FLEET, TARGET);
            let mut ops = p.ramp();
            assert_eq!(ops.len(), TARGET);
            for _ in 0..3 {
                ops.extend(p.next_ops(500));
                assert!(
                    p.live() == TARGET || p.live() == TARGET + 1,
                    "live {}",
                    p.live()
                );
            }
            assert!(p.ramp().is_empty(), "ramp is a no-op at target");
            ops
        };
        let a = build(1);
        assert_eq!(a, build(1));
        assert_ne!(a, build(2));
        // Strict alternation after the ramp, consecutive seqs throughout.
        for (i, w) in a.iter().enumerate() {
            assert!(w.body.ends_with(&format!("\"seq\":{i}}}")), "{}", w.body);
            if i >= TARGET {
                let admit = matches!(w.op, Op::Admit(_));
                assert_eq!(admit, (i - TARGET).is_multiple_of(2));
            }
        }
        assert_eq!(refusals(1, pm_pool_size(FLEET, TARGET), &ops_of(&a)), 0);
    }

    #[test]
    fn mixed_program_is_deterministic_stationary_and_never_refused() {
        let build = |seed| {
            let mut p = MixedProgram::new(seed, FLEET, TARGET);
            let mut ops = p.ramp();
            for _ in 0..3 {
                ops.extend(p.next_ops(600));
                assert!(
                    (TARGET - 1..=TARGET + BATCH_SIZE).contains(&p.live()),
                    "live {}",
                    p.live()
                );
            }
            ops
        };
        let a = build(5);
        assert_eq!(a, build(5));
        assert_ne!(a, build(6));
        let count = |f: fn(&Op) -> bool| a.iter().filter(|w| f(&w.op)).count();
        assert_eq!(count(|o| matches!(o, Op::Recalibrate)), 1800 / 256);
        assert_eq!(
            count(|o| matches!(o, Op::AdmitBatch(_))),
            1800 / 16 - 1800 / 256
        );
        assert!(
            a.iter().all(|w| !w.body.contains("seq")),
            "writer is un-seq'd"
        );
        assert_eq!(refusals(5, pm_pool_size(FLEET, TARGET), &ops_of(&a)), 0);
    }

    #[test]
    fn an_undersized_pool_refuses() {
        let mut p = ChurnProgram::new(1, FLEET, TARGET);
        let ops = ops_of(&p.ramp());
        // Exactly the PMs the warm fleet occupies, plus two.
        let mut gen = FleetGenerator::new(1);
        let fleet = gen.vms_table_i(FLEET, WorkloadPattern::EqualSpike);
        let mut probe = OnlineCluster::new(gen.pms(FLEET), 16, P_ON, P_OFF, 0.01);
        probe.arrive_batch(fleet).unwrap();
        assert!(refusals(1, probe.pms_used() + 2, &ops) > 0);
        // `apply_engine` swallows the same refusals silently — which is
        // why the workloads count statuses instead of trusting it.
        let mut gen = FleetGenerator::new(1);
        let _ = gen.vms_table_i(FLEET, WorkloadPattern::EqualSpike);
        let mut small = OnlineCluster::new(gen.pms(2), 16, P_ON, P_OFF, 0.01);
        assert!(apply_engine(&mut small, &ops).n_vms < ops.len());
    }
}
