//! Seeded churn programs and the two ways to run them: engine-direct
//! (the oracle) and over HTTP with N concurrent seq-ordered clients.
//!
//! The transport-equivalence contract — the whole point of applying
//! every op under the daemon's one engine lock — is that both runs land
//! on the same [`StateDigest`]. The integration suite, `serve_bench`,
//! the `serve-replay` CLI, and the CI smoke job all go through this
//! module so they are comparing literally the same op stream.

use std::net::SocketAddr;
use std::time::Instant;

use bursty_placement::{OnlineCluster, ReferenceOnlineCluster, StateDigest};
use bursty_workload::VmSpec;

use crate::client::Client;
use crate::routes::vm_to_json;
use crate::state::Op;
use bursty_obs::json::{obj, Json};

/// Deterministic 64-bit LCG (same multiplier as the CLI's replay
/// generator) — no `rand` dependency in the library proper.
#[derive(Clone)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded churn program plus the engine-level op stream it expands to.
pub struct Program {
    pub ops: Vec<Op>,
    pub admissions: usize,
    pub departures: usize,
    pub batches: usize,
    pub recalibrations: usize,
}

/// VM size templates (r_b, r_e) cycled through arrivals — the same trio
/// the `admit_bench` generator uses.
const TEMPLATES: [(f64, f64); 3] = [(5.0, 5.0), (10.0, 10.0), (20.0, 20.0)];

/// Expands `(seed, n_ops)` into a deterministic churn program:
/// mostly single admits, a departure of a random live VM every third
/// op, a 12-VM batch every 64 ops, a recalibration every 256. VM
/// probabilities jitter around (0.01, 0.09), so PMs are priced by
/// different hottest chains. Ids start at `id_base` so a program can run
/// against a pre-warmed fleet without colliding.
pub fn build_program(seed: u64, n_ops: usize, id_base: usize) -> Program {
    let mut rng = Lcg::new(seed);
    let mut ops = Vec::with_capacity(n_ops);
    let mut live: Vec<usize> = Vec::new();
    let mut next_id = id_base;
    let (mut admissions, mut departures, mut batches, mut recalibrations) = (0, 0, 0, 0);
    let vm = |id: usize, rng: &mut Lcg| {
        let (r_b, r_e) = TEMPLATES[id % TEMPLATES.len()];
        VmSpec {
            id,
            p_on: 0.01 + 0.004 * rng.unit(),
            p_off: 0.09 + 0.01 * rng.unit(),
            r_b,
            r_e,
        }
    };
    for i in 0..n_ops {
        if i > 0 && i % 256 == 0 {
            ops.push(Op::Recalibrate);
            recalibrations += 1;
        } else if i > 0 && i % 64 == 0 {
            let batch: Vec<VmSpec> = (0..12)
                .map(|_| {
                    let id = next_id;
                    next_id += 1;
                    live.push(id);
                    vm(id, &mut rng)
                })
                .collect();
            admissions += batch.len();
            batches += 1;
            ops.push(Op::AdmitBatch(batch));
        } else if i % 3 == 2 && !live.is_empty() {
            let idx = rng.below(live.len() as u64) as usize;
            let id = live.swap_remove(idx);
            ops.push(Op::Depart { id });
            departures += 1;
        } else {
            let id = next_id;
            next_id += 1;
            live.push(id);
            ops.push(Op::Admit(vm(id, &mut rng)));
            admissions += 1;
        }
    }
    Program {
        ops,
        admissions,
        departures,
        batches,
        recalibrations,
    }
}

/// Applies the program engine-direct, mirroring the daemon's semantics
/// exactly: admission failures leave earlier batch members placed,
/// departures of unknown ids are no-ops. Returns the end-state digest.
pub fn apply_engine(cluster: &mut OnlineCluster, ops: &[Op]) -> StateDigest {
    for op in ops {
        match op {
            Op::Admit(vm) => {
                if cluster.host_of(vm.id).is_none() {
                    let _ = cluster.arrive(*vm);
                }
            }
            Op::AdmitBatch(vms) => {
                if vms.iter().all(|v| cluster.host_of(v.id).is_none()) {
                    let _ = cluster.arrive_batch(vms.clone());
                }
            }
            Op::Depart { id } => {
                let _ = cluster.depart(*id);
            }
            Op::Recalibrate => {
                let _ = cluster.recalibrate();
            }
            Op::Snapshot => {}
        }
    }
    cluster.state_digest()
}

/// [`apply_engine`] against the per-VM oracle engine — the
/// single-threaded replay the concurrent-client determinism proptest
/// compares every interleaving to.
pub fn apply_reference(cluster: &mut ReferenceOnlineCluster, ops: &[Op]) -> StateDigest {
    for op in ops {
        match op {
            Op::Admit(vm) => {
                if cluster.host_of(vm.id).is_none() {
                    let _ = cluster.arrive(*vm);
                }
            }
            Op::AdmitBatch(vms) => {
                if vms.iter().all(|v| cluster.host_of(v.id).is_none()) {
                    let _ = cluster.arrive_batch(vms.clone());
                }
            }
            Op::Depart { id } => {
                let _ = cluster.depart(*id);
            }
            Op::Recalibrate => {
                let _ = cluster.recalibrate();
            }
            Op::Snapshot => {}
        }
    }
    cluster.state_digest()
}

/// Renders an op as its request `(path, body)`, stamping `seq`.
pub fn op_request(op: &Op, seq: u64) -> (&'static str, Json) {
    let seq = ("seq", Json::Num(seq as f64));
    match op {
        Op::Admit(vm) => {
            let mut body = vm_to_json(vm);
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("seq".to_string(), seq.1));
            }
            ("/v1/admit", body)
        }
        Op::AdmitBatch(vms) => (
            "/v1/admit-batch",
            obj(vec![
                ("vms", Json::Arr(vms.iter().map(vm_to_json).collect())),
                seq,
            ]),
        ),
        Op::Depart { id } => ("/v1/depart", obj(vec![("id", Json::Num(*id as f64)), seq])),
        Op::Recalibrate => ("/v1/recalibrate", obj(vec![seq])),
        Op::Snapshot => ("/v1/snapshot", obj(vec![seq])),
    }
}

/// How a concurrent HTTP replay went.
pub struct HttpReplayOutcome {
    pub digest: StateDigest,
    /// 2xx responses (engine acceptances).
    pub ok: usize,
    /// 4xx responses from the engine (no-capacity, unknown id) — these
    /// still count as applied ops.
    pub rejected: usize,
    /// VMs placed by a 2xx admit or admit-batch.
    pub admitted: usize,
    /// The latency of every answered request, refused ones included, in
    /// nanoseconds, client by client.
    pub latencies_ns: Vec<u64>,
    /// The latency of every 2xx single admit, in nanoseconds.
    pub admit_latencies_ns: Vec<u64>,
    /// Seconds from spawning the first client to joining the last; the
    /// digest read comes after.
    pub wall_secs: f64,
}

/// What one client saw.
#[derive(Default)]
struct Tally {
    ok: usize,
    rejected: usize,
    admitted: usize,
    latencies_ns: Vec<u64>,
    admit_latencies_ns: Vec<u64>,
}

/// Drives `ops` through the daemon over `clients` concurrent
/// connections, timing every request. Op `i` carries seq `seq_base + i`
/// and goes to client `i % clients`; each client sends its share in
/// ascending-seq order, which the daemon's reorder window serializes back
/// into program order. A 200 is ok, a 404 or 409 an engine refusal, any
/// other status an error. Returns what the clients saw and the daemon's
/// end-state digest (read after every client joined).
pub fn drive_http(
    addr: SocketAddr,
    ops: &[Op],
    clients: usize,
    seq_base: u64,
) -> std::io::Result<HttpReplayOutcome> {
    let clients = clients.max(1);
    let mut shares: Vec<Vec<(u64, Op)>> = vec![Vec::new(); clients];
    for (i, op) in ops.iter().enumerate() {
        shares[i % clients].push((seq_base + i as u64, op.clone()));
    }
    let start = Instant::now();
    let mut joins = Vec::with_capacity(clients);
    for share in shares {
        let handle = std::thread::spawn(move || -> std::io::Result<Tally> {
            let mut client = Client::connect(addr)?;
            let mut seen = Tally {
                latencies_ns: Vec::with_capacity(share.len()),
                ..Tally::default()
            };
            for (seq, op) in share {
                let (path, body) = op_request(&op, seq);
                let sent = Instant::now();
                let resp = client.post(path, &body)?;
                let ns = sent.elapsed().as_nanos() as u64;
                seen.latencies_ns.push(ns);
                match resp.status {
                    200 => {
                        seen.ok += 1;
                        match &op {
                            Op::Admit(_) => {
                                seen.admitted += 1;
                                seen.admit_latencies_ns.push(ns);
                            }
                            Op::AdmitBatch(vms) => seen.admitted += vms.len(),
                            _ => {}
                        }
                    }
                    404 | 409 => seen.rejected += 1,
                    s => {
                        return Err(std::io::Error::other(format!(
                            "unexpected status {s} for {path}: {}",
                            resp.text()
                        )))
                    }
                }
            }
            Ok(seen)
        });
        joins.push(handle);
    }
    let mut total = Tally::default();
    for j in joins {
        let seen = j
            .join()
            .map_err(|_| std::io::Error::other("replay client panicked"))??;
        total.ok += seen.ok;
        total.rejected += seen.rejected;
        total.admitted += seen.admitted;
        total.latencies_ns.extend(seen.latencies_ns);
        total.admit_latencies_ns.extend(seen.admit_latencies_ns);
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let mut client = Client::connect(addr)?;
    let digest = fetch_digest(&mut client)?;
    Ok(HttpReplayOutcome {
        digest,
        ok: total.ok,
        rejected: total.rejected,
        admitted: total.admitted,
        latencies_ns: total.latencies_ns,
        admit_latencies_ns: total.admit_latencies_ns,
        wall_secs,
    })
}

/// Reads `/v1/digest` into a [`StateDigest`].
pub fn fetch_digest(client: &mut Client) -> std::io::Result<StateDigest> {
    let resp = client.get("/v1/digest")?;
    if resp.status != 200 {
        return Err(std::io::Error::other(format!(
            "digest endpoint answered {}",
            resp.status
        )));
    }
    let v = resp
        .json()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let hex = |key: &str| -> std::io::Result<u64> {
        v.get(key)
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad {key} field"))
            })
    };
    Ok(StateDigest {
        n_vms: v.get("n_vms").and_then(Json::as_usize).unwrap_or(0),
        pms_used: v.get("pms_used").and_then(Json::as_usize).unwrap_or(0),
        hosts_hash: hex("hosts_hash")?,
        loads_hash: hex("loads_hash")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_is_deterministic_and_mixed() {
        let a = build_program(7, 600, 0);
        let b = build_program(7, 600, 0);
        assert_eq!(a.ops, b.ops);
        assert!(a.admissions > 0 && a.departures > 0);
        assert!(a.batches > 0 && a.recalibrations > 0);
        let c = build_program(8, 600, 0);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn engine_apply_mirrors_daemon_semantics() {
        use bursty_workload::PmSpec;
        let pms: Vec<PmSpec> = (0..64).map(|j| PmSpec::new(j, 100.0)).collect();
        let program = build_program(3, 400, 0);
        let mut a = OnlineCluster::new(pms.clone(), 16, 0.01, 0.09, 0.01);
        let mut b = OnlineCluster::new(pms, 16, 0.01, 0.09, 0.01);
        let da = apply_engine(&mut a, &program.ops);
        let db = apply_engine(&mut b, &program.ops);
        assert_eq!(da, db);
        assert!(da.n_vms > 0);
    }
}
