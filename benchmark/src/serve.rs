//! The two serving workloads: a closed-loop load generator against the
//! daemon spawned in-process, every response checked, the end state
//! compared with an engine-direct replay of the same program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bursty_core::obs::durable::MemStore;
use bursty_core::prelude::*;
use bursty_server::http::{encode_response, read_request};
use bursty_server::{
    apply_engine, fetch_digest, route, spawn, Action, Client, ClusterState, Json, Op, SeqWindow,
    ServerConfig, ServerHandle,
};

use crate::env::{cpu_seconds, peak_rss_mb};
use crate::metrics::Outcome;
use crate::programs::{pm_pool_size, ChurnProgram, MixedProgram, WireOp};
use crate::stats::{best, best_low, nearest_rank};
use crate::trace::Tracer;
use crate::RunCfg;

const D: usize = 16;
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
const RHO: f64 = 0.01;
/// Daemon worker threads, and the most connections the generator opens:
/// the sandbox has two cores.
const WORKERS: usize = 2;
/// The reader asks for `/metrics` on every 8th request, `/v1/fleet`
/// otherwise.
const METRICS_EVERY: usize = 8;
const RTT_PROBES: usize = 2000;
/// Timed repeats a traced run replays layer by layer in-process: enough
/// requests (16k churn, 8k mixed with 32 recalibrations) for each pass
/// to run for milliseconds.
const LADDER_REPEATS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Churn,
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeScale {
    /// Warm fleet admitted engine-direct before the listener opens.
    pub fleet: usize,
    pub pms: usize,
    /// Program VMs kept live on top of the warm fleet.
    pub live: usize,
    /// Write requests per repeat.
    pub ops: usize,
    /// How many times set-up runs before the timed repeats, and again
    /// after them; `setup_s` reports the best.
    pub setups: usize,
    /// The end-state digest is read after the warm-up, after the first
    /// timed repeat, after every n-th repeat and after the last. At 1M
    /// VMs `/v1/digest` costs more than a whole repeat, and a state that
    /// has diverged stays diverged until the next check.
    pub digest_every: usize,
}

impl ServeKind {
    pub fn full(self) -> ServeScale {
        // Repeats are short on purpose — about 20 ms, a whole number of
        // the mixed program's 256-op recalibration cycles: the host's
        // slow phases come and go within tens of milliseconds, and only
        // a repeat that fits between them reads true.
        let (fleet, live, ops, setups) = match self {
            ServeKind::Churn => (1_000_000, 4096, 1024, 4),
            ServeKind::Mixed => (100_000, 2048, 512, 9),
        };
        ServeScale {
            fleet,
            pms: pm_pool_size(fleet, live),
            live,
            ops,
            setups,
            digest_every: 128,
        }
    }

    pub fn smoke(self) -> ServeScale {
        ServeScale {
            fleet: 2000,
            pms: pm_pool_size(2000, 64),
            live: 64,
            ops: 500,
            setups: 1,
            digest_every: 1,
        }
    }
}

enum Program {
    Churn(ChurnProgram),
    Mixed(MixedProgram),
}

impl Program {
    fn new(kind: ServeKind, scale: ServeScale, seed: u64) -> Self {
        // Ids start past the warm fleet's.
        match kind {
            ServeKind::Churn => Program::Churn(ChurnProgram::new(seed, scale.fleet, scale.live)),
            ServeKind::Mixed => Program::Mixed(MixedProgram::new(seed, scale.fleet, scale.live)),
        }
    }

    /// The warm-up repeat starts with the ramp.
    fn next_repeat(&mut self, n: usize, ramp: bool) -> Vec<WireOp> {
        let (mut ops, next) = match self {
            Program::Churn(p) => (if ramp { p.ramp() } else { Vec::new() }, p.next_ops(n)),
            Program::Mixed(p) => (if ramp { p.ramp() } else { Vec::new() }, p.next_ops(n)),
        };
        ops.extend(next);
        ops
    }
}

fn warm_fleet(scale: ServeScale, seed: u64) -> (Vec<VmSpec>, Vec<PmSpec>) {
    let mut gen = FleetGenerator::new(seed);
    let fleet = gen.vms_table_i(scale.fleet, WorkloadPattern::EqualSpike);
    (fleet, gen.pms(scale.pms))
}

/// Request `(start, end)` pairs, ns since the tracer's epoch.
type Spans = Vec<(u64, u64)>;

/// What one connection saw during a repeat.
#[derive(Default)]
struct ClientLog {
    /// Latency of every 2xx response, ns.
    latency_ns: Vec<u64>,
    /// `(start, end)` since the tracer's epoch, kept in traced repeats.
    spans: Spans,
    sent: u64,
    failed: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.latency_ns.extend(other.latency_ns);
        self.spans.extend(other.spans);
        self.sent += other.sent;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        // The count is exact; a handful of messages is enough to debug.
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Sends one request, waits for the reply, and books it. `check`
    /// inspects a 2xx body. Returns false when the connection is dead.
    fn exchange(
        &mut self,
        client: &mut Client,
        method: &str,
        path: &str,
        body: Option<&str>,
        clock: Option<Instant>,
        check: impl FnOnce(&[u8]) -> bool,
    ) -> bool {
        self.sent += 1;
        let start = Instant::now();
        let reply = client.request(method, path, body);
        let end = Instant::now();
        match reply {
            Ok(r) if (200..300).contains(&r.status) => {
                if check(&r.body) {
                    self.latency_ns.push((end - start).as_nanos() as u64);
                } else {
                    self.fail(format!("{path}: malformed body {}", r.text()));
                }
            }
            // 404/409 are what an undersized pool or a broken program
            // look like: failures, never throughput.
            Ok(r) => self.fail(format!("{path}: status {} {}", r.status, r.text())),
            Err(e) => {
                self.fail(format!("{path}: {e}"));
                return false;
            }
        }
        if let Some(epoch) = clock {
            self.spans.push((
                (start - epoch).as_nanos() as u64,
                (end - epoch).as_nanos() as u64,
            ));
        }
        true
    }

    fn write_all<'a>(
        client: &mut Client,
        ops: impl ExactSizeIterator<Item = &'a WireOp>,
        clock: Option<Instant>,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        let total = ops.len() as u64;
        for op in ops {
            if !log.exchange(client, "POST", op.path, Some(&op.body), clock, |_| true) {
                // Everything this connection still owed is lost with it.
                log.failed += total - log.sent;
                log.sent = total;
                break;
            }
        }
        log
    }

    fn read_until(client: &mut Client, done: &AtomicBool, clock: Option<Instant>) -> ClientLog {
        let mut log = ClientLog::default();
        while !done.load(Ordering::SeqCst) {
            let alive = if log.sent as usize % METRICS_EVERY == METRICS_EVERY - 1 {
                log.exchange(client, "GET", "/metrics", None, clock, |body| {
                    String::from_utf8_lossy(body).contains("serve_applied_ops")
                })
            } else {
                log.exchange(client, "GET", "/v1/fleet", None, clock, |body| {
                    Json::parse(body).is_ok_and(|j| j.get("n_vms").is_some())
                })
            };
            if !alive {
                break;
            }
        }
        log
    }
}

/// Latency order statistics of one connection role in one repeat, µs.
#[derive(Default, Clone, Copy)]
struct Percentiles {
    p50_us: f64,
    p99_us: f64,
}

impl Percentiles {
    fn of(latency_ns: &mut [u64]) -> Self {
        if latency_ns.is_empty() {
            return Self::default();
        }
        latency_ns.sort_unstable();
        Self {
            p50_us: nearest_rank(latency_ns, 0.50) as f64 / 1e3,
            p99_us: nearest_rank(latency_ns, 0.99) as f64 / 1e3,
        }
    }
}

/// One repeat as the generator measured it. Only figures are kept —
/// what a run holds in memory must not grow with how many repeats the
/// machine got through, or `peak_rss_mb` would measure the clock.
struct Repeat {
    wall_s: f64,
    requests: u64,
    reads: u64,
    failed: u64,
    errors: Vec<String>,
    write: Percentiles,
    read: Percentiles,
    digest: Option<StateDigest>,
    /// Request `(start, end)` pairs of a traced repeat: writes, reads.
    spans: Option<(Spans, Spans)>,
}

impl Repeat {
    fn rate(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }
}

/// Drives one repeat's program over the two connections and, if asked,
/// reads the end-state digest.
fn drive(
    kind: ServeKind,
    clients: &mut [Client; 2],
    ops: &[WireOp],
    clock: Option<Instant>,
    read_digest: bool,
) -> Repeat {
    let start = Instant::now();
    let [a, b] = clients;
    let (mut writes, mut reads) = match kind {
        // Op `i` goes to connection `i mod 2`; the seq window puts the
        // two streams back in program order.
        ServeKind::Churn => std::thread::scope(|s| {
            let even = s.spawn(|| ClientLog::write_all(a, ops.iter().step_by(2), clock));
            let odd = s.spawn(|| ClientLog::write_all(b, ops.iter().skip(1).step_by(2), clock));
            let mut log = even.join().expect("client thread");
            log.merge(odd.join().expect("client thread"));
            (log, ClientLog::default())
        }),
        // One writer; the reader loops until the writer is through.
        ServeKind::Mixed => {
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let reader = s.spawn(|| ClientLog::read_until(b, &done, clock));
                let writes = ClientLog::write_all(a, ops.iter(), clock);
                done.store(true, Ordering::SeqCst);
                (writes, reader.join().expect("reader thread"))
            })
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let digest = read_digest
        .then(|| fetch_digest(&mut clients[0]).ok())
        .flatten();
    let mut errors = std::mem::take(&mut writes.errors);
    errors.append(&mut reads.errors);
    Repeat {
        wall_s,
        requests: writes.sent + reads.sent,
        reads: reads.sent,
        failed: writes.failed + reads.failed,
        errors,
        write: Percentiles::of(&mut writes.latency_ns),
        read: Percentiles::of(&mut reads.latency_ns),
        digest,
        spans: clock.map(|_| (writes.spans, reads.spans)),
    }
}

fn spawn_daemon(scale: ServeScale, seed: u64) -> std::io::Result<(ServerHandle, f64)> {
    let (fleet, pms) = warm_fleet(scale, seed);
    let mut config = ServerConfig::new(pms, D, P_ON, P_OFF, RHO);
    config.workers = WORKERS;
    config.initial = fleet;
    let t = Instant::now();
    let handle = spawn(config)?;
    Ok((handle, t.elapsed().as_secs_f64()))
}

/// Spawns the warm daemon `scale.setups` times into `slot`, shutting the
/// previous one down first so that two are never alive at once, and
/// books each as a `setup_s` sample.
fn timed_setups(
    scale: ServeScale,
    seed: u64,
    slot: &mut Option<ServerHandle>,
    spawn_s: &mut Vec<f64>,
    out: &mut Outcome,
) -> std::io::Result<()> {
    for _ in 0..scale.setups {
        if let Some(previous) = slot.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        let (handle, secs) = spawn_daemon(scale, seed)?;
        out.sample("setup_s", t.elapsed().as_secs_f64());
        spawn_s.push(secs);
        *slot = Some(handle);
    }
    Ok(())
}

pub fn run(kind: ServeKind, scale: ServeScale, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let abort = |mut out: Outcome, what: String| {
        out.errors.push(what);
        out.attempted = 1;
        out.failed = 1;
        out
    };

    // Set-up (fleet generation + daemon spawn and warm), a fixed number
    // of times; the last daemon is the one measured.
    let mut daemon: Option<ServerHandle> = None;
    let mut spawn_s = Vec::new();
    if let Err(e) = timed_setups(scale, cfg.seed, &mut daemon, &mut spawn_s, &mut out) {
        return abort(out, format!("daemon did not start: {e}"));
    }
    let daemon = daemon.expect("at least one set-up");
    let connect = || Client::connect(daemon.addr());
    let mut clients = match (connect(), connect()) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => {
            daemon.shutdown();
            return abort(out, format!("cannot connect: {e}"));
        }
    };

    // One discarded warm-up repeat (it also ramps the live set), then
    // timed repeats for `cfg.seconds`; a traced run alternates untraced
    // and traced repeats so it can price the tracing itself.
    let trace = tracer.enabled();
    let mut program = Program::new(kind, scale, cfg.seed);
    let warmup = program.next_repeat(scale.ops, true);
    let mut repeats = vec![drive(kind, &mut clients, &warmup, None, true)];
    let clock = Instant::now();
    let cpu0 = cpu_seconds();
    loop {
        let k = repeats.len();
        let traced_turn = trace && k % 2 == 0;
        let ops = program.next_repeat(scale.ops, false);
        let span_clock = traced_turn.then(|| tracer.epoch());
        let read_digest = k == 1 || k % scale.digest_every == 0;
        repeats.push(drive(kind, &mut clients, &ops, span_clock, read_digest));
        if k == 1 {
            // Daemon plus generator through one timed repeat; how many
            // more follow depends on the clock.
            out.sample("peak_rss_mb", peak_rss_mb());
        }
        let balanced = !trace || k % 2 == 0;
        if balanced && clock.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let timed_cpu_s = cpu_seconds() - cpu0;
    if let Some(last) = repeats.last_mut().filter(|r| r.digest.is_none()) {
        last.digest = fetch_digest(&mut clients[0]).ok();
    }

    let rtt = trace.then(|| {
        let probe = |client: &mut Client, path: &str| -> f64 {
            let ns: Vec<u64> = (0..RTT_PROBES)
                .filter_map(|_| {
                    let t = Instant::now();
                    client.get(path).ok().map(|_| t.elapsed().as_nanos() as u64)
                })
                .collect();
            p50(&ns)
        };
        (
            probe(&mut clients[0], "/healthz"),
            probe(&mut clients[0], "/v1/fleet"),
        )
    });
    drop(clients);
    daemon.shutdown();

    // The oracle: the same program, generated again, engine-direct on a
    // fresh cluster. It runs after the daemon is gone so a fleet-scale
    // state is never held twice. In a traced run the repeats the
    // in-process ladder replays go through the engine op by op under a
    // stopwatch instead, and are held to the same digests.
    let (fleet, pms) = warm_fleet(scale, cfg.seed);
    let mut engine = OnlineCluster::new(pms, D, P_ON, P_OFF, RHO);
    engine
        .arrive_batch(fleet)
        .expect("the daemon warmed the same fleet");
    let mut program = Program::new(kind, scale, cfg.seed);
    let mut engine_times = EngineTimes::default();
    let mut pending: Vec<Op> = Vec::new();
    let last = repeats.len() - 1;
    let ladder_repeats = LADDER_REPEATS.min(last);
    for (k, r) in repeats.iter().enumerate() {
        let ops = program
            .next_repeat(scale.ops, k == 0)
            .into_iter()
            .map(|w| w.op);
        if trace && (1..=ladder_repeats).contains(&k) {
            // Nothing is pending: the warm-up repeat carried a digest.
            engine_times.replay(&mut engine, &ops.collect::<Vec<_>>());
        } else {
            pending.extend(ops);
        }
        if r.digest.is_none() && k != last {
            continue;
        }
        let expect = apply_engine(&mut engine, &pending);
        pending.clear();
        out.check(r.digest == Some(expect), || {
            format!(
                "repeat {k}: daemon digest {:?} differs from the engine-direct {:016x}",
                r.digest.map(|d| format!("{:016x}", d.combined())),
                expect.combined()
            )
        });
    }
    drop(engine);

    // Set-up again at the far end of the run: all of them in one instant
    // would read that instant's share of the host's noise.
    let mut again = None;
    match timed_setups(scale, cfg.seed, &mut again, &mut spawn_s, &mut out) {
        Ok(()) => again.into_iter().for_each(ServerHandle::shutdown),
        Err(e) => out.errors.push(format!("daemon did not start again: {e}")),
    }

    for r in &repeats {
        out.attempted += r.requests;
        out.failed += r.failed;
        out.errors.extend(r.errors.iter().cloned());
    }
    let timed = &repeats[1..];
    for r in timed.iter().filter(|r| r.spans.is_none()) {
        out.sample("pipeline_s", r.wall_s);
        out.sample("decision_p50_ms", r.write.p50_us / 1e3);
        out.sample("throughput_per_s", r.rate());
    }
    // The end state of the first timed repeat: later repeats exist or
    // not depending on how fast the machine is.
    out.sample(
        "pms_used",
        timed[0].digest.map_or(0.0, |d| d.pms_used as f64),
    );

    if trace {
        let (healthz_ns, fleet_ns) = rtt.expect("probed in traced runs");
        out.layer("server.listener.healthz_rtt_p50_ns", healthz_ns);
        out.layer("server.listener.fleet_rtt_p50_ns", fleet_ns);
        out.layer("server.listener.spawn_s", best_low(&spawn_s));
        // The same estimator as the end-to-end figures, over the
        // untraced or the traced repeats.
        let of = |f: &dyn Fn(&Repeat) -> f64, traced: bool, lower_is_better: bool| {
            let values: Vec<f64> = timed
                .iter()
                .filter(|r| r.spans.is_some() == traced)
                .map(f)
                .collect();
            best(&values, lower_is_better)
        };
        out.layer(
            "server.listener.write_p50_us",
            of(&|r| r.write.p50_us, false, true),
        );
        out.layer(
            "server.listener.write_p99_us",
            of(&|r| r.write.p99_us, false, true),
        );
        out.layer(
            "server.listener.read_p50_us",
            of(&|r| r.read.p50_us, false, true),
        );
        out.layer(
            "server.listener.read_p99_us",
            of(&|r| r.read.p99_us, false, true),
        );
        // The kernel counts CPU time in 10 ms ticks, half a repeat, so
        // this one is taken over all timed repeats at once.
        let requests: u64 = timed.iter().map(|r| r.requests).sum();
        out.layer(
            "server.listener.cpu_us_per_req",
            timed_cpu_s * 1e6 / requests as f64,
        );
        let untraced_rate = of(&Repeat::rate, false, false);
        out.layer(
            "trace.overhead_pct",
            (untraced_rate / of(&Repeat::rate, true, false) - 1.0) * 100.0,
        );

        for (k, r) in repeats.iter().enumerate() {
            let Some((writes, reads)) = &r.spans else {
                continue;
            };
            tracer.set_repeat(k as u32);
            let all = || writes.iter().chain(reads);
            let lo = all().map(|s| s.0).min().unwrap_or(0);
            let hi = all().map(|s| s.1).max().unwrap_or(0);
            tracer.push("repeat", None, lo, hi);
            let parent = Some(tracer.spans().len() as u32 - 1);
            for &(s, e) in writes {
                tracer.push("server.listener.write", parent, s, e);
            }
            for &(s, e) in reads {
                tracer.push("server.listener.read", parent, s, e);
            }
        }

        let mut program = Program::new(kind, scale, cfg.seed);
        let warmup = program.next_repeat(scale.ops, true);
        let writes = program.next_repeat(scale.ops * ladder_repeats, false);
        let reads: u64 = timed[..ladder_repeats].iter().map(|r| r.reads).sum();
        in_process_ladder(
            scale,
            cfg.seed,
            kind == ServeKind::Mixed,
            &warmup,
            &writes,
            reads as usize,
            1.0 / untraced_rate,
            &engine_times,
            tracer,
            &mut out,
        );
    }
    out
}

/// Per-op stopwatch readings of an engine-direct replay.
#[derive(Default)]
struct EngineTimes {
    /// Seconds each replayed repeat took.
    chunk_s: Vec<f64>,
    admit_ns: Vec<u64>,
    depart_ns: Vec<u64>,
    batch_ns: Vec<u64>,
    recal_ns: Vec<u64>,
}

impl EngineTimes {
    /// `apply_engine` with a stopwatch around each op. The program has
    /// no duplicate ids and fits its pool, so the guards `apply_engine`
    /// wraps around each call never fire and the digest must come out
    /// the same.
    fn replay(&mut self, engine: &mut OnlineCluster, ops: &[Op]) {
        let mut total_ns = 0;
        for op in ops {
            let t = Instant::now();
            let bucket = match op {
                Op::Admit(vm) => {
                    let _ = engine.arrive(*vm);
                    &mut self.admit_ns
                }
                Op::AdmitBatch(vms) => {
                    let _ = engine.arrive_batch(vms.clone());
                    &mut self.batch_ns
                }
                Op::Depart { id } => {
                    let _ = engine.depart(*id);
                    &mut self.depart_ns
                }
                Op::Recalibrate => {
                    let _ = engine.recalibrate();
                    &mut self.recal_ns
                }
                Op::Snapshot => continue,
            };
            let ns = t.elapsed().as_nanos() as u64;
            bucket.push(ns);
            total_ns += ns;
        }
        self.chunk_s.push(total_ns as f64 / 1e9);
    }
}

fn p50(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, 0.5) as f64
}

/// The request exactly as `bursty_server::Client` puts it on the wire.
fn wire_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bursty\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Stateless passes of the in-process ladder run this many times and
/// report the best, like every other figure.
const PASSES: usize = 5;

/// Runs `pass` [`PASSES`] times, each under a span, and returns the last
/// result with the shortest time.
fn best_pass<T>(tracer: &mut Tracer, name: &'static str, mut pass: impl FnMut() -> T) -> (T, f64) {
    let (mut out, mut secs) = tracer.time(name, None, &mut pass);
    for _ in 1..PASSES {
        let (again, s) = tracer.time(name, None, &mut pass);
        out = again;
        secs = secs.min(s);
    }
    (out, secs)
}

/// Replays the first [`LADDER_REPEATS`] timed repeats' requests through
/// each transport layer's public functions in-process — no sockets, no
/// threads — one layer per pass, and books what is left of the measured
/// per-request time as the listener's residual (socket syscalls, thread
/// hand-offs, scheduling, and the client's own framing).
#[allow(clippy::too_many_arguments)]
fn in_process_ladder(
    scale: ServeScale,
    seed: u64,
    snapshot: bool,
    warmup: &[WireOp],
    writes: &[WireOp],
    reads: usize,
    secs_per_request: f64,
    engine: &EngineTimes,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let (fleet, pms) = warm_fleet(scale, seed);
    let mut state = ClusterState::new(pms, D, P_ON, P_OFF, RHO, 0.0, 4096);
    state
        .cluster_mut()
        .arrive_batch(fleet)
        .expect("the daemon warmed the same fleet");
    for w in warmup {
        let _ = state.apply(w.op.clone(), None, 4, 0);
    }

    let n_writes = writes.len();
    let n = (n_writes + reads) as f64;
    let mut wire = Vec::new();
    for w in writes {
        wire.extend(wire_bytes("POST", w.path, &w.body));
    }
    for i in 0..reads {
        let path = if i % METRICS_EVERY == METRICS_EVERY - 1 {
            "/metrics"
        } else {
            "/v1/fleet"
        };
        wire.extend(wire_bytes("GET", path, ""));
    }

    let never = AtomicBool::new(false);
    let (requests, read_s) = best_pass(tracer, "server.http.read_request", || {
        let mut cursor: &[u8] = &wire;
        (0..n as usize)
            .map(|_| read_request(&mut cursor, 1 << 20, &never).expect("well-formed request"))
            .collect::<Vec<_>>()
    });
    let (_, parse_s) = best_pass(tracer, "server.json.parse", || {
        for r in &requests[..n_writes] {
            std::hint::black_box(Json::parse(&r.body).expect("well-formed body"));
        }
    });
    let (actions, route_s) = best_pass(tracer, "server.routes.route", || {
        requests
            .iter()
            .map(|r| route(r).expect("valid request"))
            .collect::<Vec<_>>()
    });
    // The seq window as two connections feed it: each pair arrives
    // swapped, so every second offer releases a run of two.
    let seqs: Vec<u64> = actions
        .iter()
        .filter_map(|a| match a {
            Action::Apply { seq, .. } => *seq,
            _ => None,
        })
        .collect();
    let (_, seq_s) = best_pass(tracer, "server.state.seq_offer", || {
        if let Some(&first) = seqs.first() {
            let mut window: SeqWindow<u64> = SeqWindow::new(first, 4096);
            for pair in seqs.chunks(2) {
                for &seq in pair.iter().rev() {
                    std::hint::black_box(window.offer(seq, seq).expect("inside the window"));
                }
            }
        }
    });

    // Applying changes the state, so this pass runs once; it is timed
    // repeat by repeat and the best repeat stands for all of them, as in
    // the engine-direct replay it is compared with.
    let mut json_bodies: Vec<Json> = Vec::with_capacity(n as usize);
    let mut actions = actions.into_iter();
    let mut apply_chunk_s = Vec::new();
    while json_bodies.len() < n_writes {
        let chunk: Vec<Action> = actions.by_ref().take(scale.ops).collect();
        let (bodies, secs) = tracer.time("server.state.apply", None, || {
            chunk
                .into_iter()
                .map(|a| match a {
                    Action::Apply { op, .. } => state
                        .apply(op, None, 4, 0)
                        .expect("the daemon accepted this op"),
                    _ => unreachable!("writes route to Apply"),
                })
                .collect::<Vec<_>>()
        });
        json_bodies.extend(bodies);
        apply_chunk_s.push(secs);
    }
    let chunks = apply_chunk_s.len() as f64;
    let apply_s = best_low(&apply_chunk_s) * chunks;
    let engine_s = best_low(&engine.chunk_s) * chunks;

    let read_actions: Vec<Action> = actions.collect();
    let ((fleet_bodies, text_bodies), render_s) = best_pass(tracer, "server.state.read", || {
        let (mut fleet, mut text) = (Vec::new(), Vec::new());
        for a in &read_actions {
            match a {
                Action::Fleet => fleet.push(state.read_counted(|s| s.fleet_json())),
                Action::Metrics => text.push(state.metrics_text(0)),
                _ => unreachable!("reads route to Fleet or Metrics"),
            }
        }
        (fleet, text)
    });
    json_bodies.extend(fleet_bodies);
    // `/metrics` is rendered straight to text; only JSON bodies encode.
    let (encoded, encode_s) = best_pass(tracer, "server.json.encode", || {
        json_bodies.iter().map(Json::encode).collect::<Vec<_>>()
    });
    let (_, respond_s) = best_pass(tracer, "server.http.encode_response", || {
        for body in &encoded {
            std::hint::black_box(encode_response(
                200,
                "application/json",
                body.as_bytes(),
                true,
            ));
        }
        for body in &text_bodies {
            std::hint::black_box(encode_response(
                200,
                "text/plain; charset=utf-8",
                body.as_bytes(),
                true,
            ));
        }
    });

    let per = |secs: f64, count: f64| if count > 0.0 { secs * 1e9 / count } else { 0.0 };
    let writes_f = n_writes as f64;
    out.layer("server.http.read_request_ns_per_req", per(read_s, n));
    out.layer("server.json.parse_ns_per_req", per(parse_s, writes_f));
    out.layer("server.routes.route_ns_per_req", per(route_s, n));
    out.layer(
        "server.state.seq_offer_ns_per_op",
        per(seq_s, seqs.len() as f64),
    );
    out.layer("server.state.apply_ns_per_op", per(apply_s, writes_f));
    out.layer("server.json.encode_ns_per_resp", per(encode_s, n));
    out.layer("server.http.encode_response_ns_per_resp", per(respond_s, n));
    out.layer(
        "server.json.req_bytes_mean",
        writes.iter().map(|w| w.body.len()).sum::<usize>() as f64 / writes_f,
    );
    let resp_bytes = encoded
        .iter()
        .chain(&text_bodies)
        .map(String::len)
        .sum::<usize>();
    out.layer("server.json.resp_bytes_mean", resp_bytes as f64 / n);
    out.layer("placement.online.apply_ns_per_op", per(engine_s, writes_f));
    out.layer("placement.online.admit_p50_ns", p50(&engine.admit_ns));
    out.layer("placement.online.depart_p50_ns", p50(&engine.depart_ns));
    out.layer("placement.online.batch_p50_ns", p50(&engine.batch_ns));
    out.layer("placement.online.recal_p50_ns", p50(&engine.recal_ns));

    let (_, metrics_s) = best_pass(tracer, "server.state.metrics_text", || {
        for _ in 0..50 {
            std::hint::black_box(state.metrics_text(0));
        }
    });
    out.layer("server.state.metrics_text_ns", metrics_s * 1e9 / 50.0);
    let (_, digest_s) = best_pass(tracer, "server.state.digest", || state.digest_json());
    out.layer("server.state.digest_ms", digest_s * 1e3);
    if snapshot {
        let mut store = MemStore::new();
        let (reply, secs) = tracer.time("obs.durable.snapshot", None, || {
            state.apply(Op::Snapshot, Some(&mut store), 4, 0)
        });
        out.layer("obs.durable.snapshot_ms", secs * 1e3);
        out.layer(
            "obs.durable.snapshot_bytes",
            reply
                .ok()
                .and_then(|j| j.get("bytes").and_then(Json::as_f64))
                .unwrap_or(0.0),
        );
    }

    // The ladder, per request. `route` parses the body itself and
    // `apply` calls the engine; those two were also measured on their
    // own and are listed inside the row that contains them, not
    // subtracted from it — the difference of two separately timed
    // passes is mostly the host's noise.
    let rows = [
        ("server.http.read_request", read_s),
        ("server.routes.route", route_s),
        ("server.state.seq_offer", seq_s),
        ("server.state.apply", apply_s),
        ("server.state.read", render_s),
        ("server.json.encode", encode_s),
        ("server.http.encode_response", respond_s),
    ];
    let in_process: f64 = rows.iter().map(|(_, s)| s / n).sum();
    let residual = secs_per_request - in_process;
    out.layer("server.listener.residual_ns_per_req", residual * 1e9);
    out.ladder = rows.iter().map(|&(name, s)| (name, s / n)).collect();
    out.ladder.push(("server.listener.residual", residual));
    out.ladder_total = secs_per_request;
    out.ladder_within = vec![
        ("server.routes.route", "server.json.parse", parse_s / n),
        ("server.state.apply", "placement.online", engine_s / n),
    ];
}
