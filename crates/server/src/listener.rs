//! The daemon runtime: accept loop, worker pool, engine behind one lock.
//!
//! Two kinds of threads and one mutex:
//!
//! ```text
//! accept loop ──Conn──▶ worker pool (N threads, shared queue)
//!                       │  ▲ idle conns and released parked conns requeue
//!                       │  └──────────────────────────────────┐
//!                       │ lock · apply · unlock               │
//!                       ▼                                     │
//!            Mutex<Engine> { ClusterState, SeqWindow<Parked>, │
//!                            snapshot Store }  ── parked Conn ┘
//! ```
//!
//! The worker that read a request serves it to the end: it parses and
//! validates (answering transport-level 4xx on its own), takes the
//! engine lock, applies, releases the lock, then renders and writes the
//! reply itself. Every mutation happens under that one lock, in seq
//! order when clients stamp `seq` numbers, so the daemon's end state is
//! identical to replaying the same ops on a bare `OnlineCluster`.
//!
//! **Invariant: no socket I/O and no queue wait while the engine lock
//! is held.** The lock covers engine work only (the snapshot store
//! write is engine work); replies are rendered and written after it is
//! released, so a slow or dead client can stall nobody else.
//!
//! A seq'd op that arrives early parks its *whole connection* in the
//! reorder window and its worker goes back to the queue. The worker
//! whose op closes the gap applies the released run in seq order,
//! unlocks, writes every reply to its own connection, keeps serving its
//! own and requeues the rest. Likewise, a connection with no request in
//! flight is requeued on a read-timeout tick instead of pinning a
//! worker. Both rules exist for the same reason — connections may
//! outnumber workers, and progress of the op stream must never depend
//! on a specific connection holding a worker thread.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bursty_obs::{NoopRecorder, Store};
use bursty_workload::{PmSpec, VmSpec};

use crate::error::ServeError;
use crate::http::{read_request, write_response, HttpError};
use crate::routes::{route, Action};
use crate::state::{metric_line, restore_newest, ClusterState, Op, RestoreReason, SeqWindow};
use bursty_obs::json::Json;

/// Socket read timeout and worker poll interval: the granularity at
/// which idle connections requeue and the shutdown flag and pending-seq
/// TTL are observed.
const TICK: Duration = Duration::from_millis(25);

/// Cap on a declared request body, in bytes (1 MiB).
const MAX_BODY: usize = 1 << 20;

/// Event-journal capacity of the daemon's recorder.
const JOURNAL_CAP: usize = 4096;

/// Reorder-window width for client-supplied seq numbers.
const SEQ_WINDOW: u64 = 4096;

/// Everything the daemon needs to start.
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benches).
    pub addr: String,
    pub pms: Vec<PmSpec>,
    pub d: usize,
    pub p_on: f64,
    pub p_off: f64,
    pub rho: f64,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Snapshots kept after pruning.
    pub snapshot_keep: usize,
    /// How long a buffered seq'd op may wait for its missing
    /// predecessors before it is evicted with a retryable 503 — bounds
    /// the damage of a client that dies mid-stream.
    pub pending_ttl: Duration,
    /// Durable store for snapshot/restore; `None` disables `/v1/snapshot`.
    pub store: Option<Box<dyn Store + Send>>,
    /// Attempt to restore the newest valid snapshot before serving.
    pub restore: bool,
    /// VMs admitted engine-direct (one batch) before the listener opens.
    pub initial: Vec<VmSpec>,
}

impl ServerConfig {
    pub fn new(pms: Vec<PmSpec>, d: usize, p_on: f64, p_off: f64, rho: f64) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            pms,
            d,
            p_on,
            p_off,
            rho,
            workers: 4,
            snapshot_keep: 4,
            pending_ttl: Duration::from_secs(30),
            store: None,
            restore: false,
            initial: Vec::new(),
        }
    }
}

/// Transport-side tallies, merged into `/metrics` by whichever worker
/// renders the page.
#[derive(Default)]
struct TransportStats {
    bad_requests: AtomicU64,
}

/// What restore did at startup (only present when `restore` was set).
pub struct RestoreReport {
    /// Snapshot file that verified and was loaded, if any.
    pub loaded_from: Option<String>,
    /// Applied-op count of the loaded snapshot.
    pub applied: u64,
    /// Newer files skipped, each with its typed reason.
    pub discarded: Vec<(String, RestoreReason)>,
}

/// One live connection: a buffered reader plus a writer clone of the
/// same socket. Travels whole between workers and the seq window so
/// buffered (pipelined) bytes are never lost across a handoff.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

/// The queue of connections waiting for a worker: the accept loop and
/// every worker push, every worker pops. Unbounded; nothing disconnects
/// it — workers leave on the shutdown flag, seen at a [`TICK`].
struct WorkQueue<T> {
    items: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> WorkQueue<T> {
    fn new() -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, item: T) {
        self.lock().push_back(item);
        self.ready.notify_one();
    }

    /// The oldest item, waiting up to `timeout` for one to arrive.
    fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut items = self.lock();
        loop {
            if let Some(item) = items.pop_front() {
                return Some(item);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            // A spurious or stolen wake-up re-enters the loop; the
            // deadline bounds the total wait.
            (items, _) = self
                .ready
                .wait_timeout(items, left)
                .expect("work queue lock poisoned: a push or pop panicked");
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.items
            .lock()
            .expect("work queue lock poisoned: a push or pop panicked")
    }
}

/// A connection with a request in flight, and whether it stays open
/// once that request is answered.
struct Peer {
    conn: Conn,
    keep_alive: bool,
}

/// A seq'd op waiting in the reorder window for its predecessors,
/// with the connection that sent it (no thread waits with it) and the
/// time it arrived.
type Parked = (Op, Peer, Instant);

/// A reply decided under the engine lock, to be written once the lock
/// is released.
type Due = (Peer, Result<Json, ServeError>);

/// Everything a mutation touches, behind the one engine lock.
struct Engine {
    state: ClusterState,
    window: SeqWindow<Parked>,
    store: Option<Box<dyn Store + Send>>,
    snapshot_keep: usize,
    pending_ttl: Duration,
    last_evict: Instant,
}

impl Engine {
    /// Applies one op; `next_seq` is what a snapshot op persists.
    fn apply(&mut self, op: Op, next_seq: u64) -> Result<Json, ServeError> {
        let store = self.store.as_mut().map(|b| &mut **b as &mut dyn Store);
        self.state.apply(op, store, self.snapshot_keep, next_seq)
    }

    /// Offers a seq'd op together with its connection and returns the
    /// replies now due, in seq order. Empty: the op buffered behind a
    /// gap and its connection is parked in the window. Otherwise the
    /// caller's own reply comes first — a window rejection, or the head
    /// of the run its op released.
    fn offer(&mut self, seq: u64, op: Op, peer: Peer) -> Vec<Due> {
        if let Err(e) = self.window.check(seq) {
            return vec![(peer, Err(e.to_serve_error()))];
        }
        // `check` just accepted this seq, so `offer` cannot refuse it.
        let parked = (op, peer, Instant::now());
        let ready = self.window.offer(seq, parked).unwrap_or_default();
        // Each op persists *its own* seq + 1: a snapshot released
        // mid-run must not claim later ops in the run as applied.
        ready
            .into_iter()
            .map(|(op_seq, (op, peer, _))| (peer, self.apply(op, op_seq + 1)))
            .collect()
    }

    /// Evicts buffered ops whose missing predecessors never arrived, at
    /// most once per [`TICK`]: their clients get a retryable 503 and
    /// their connections come back to the pool. `next` stays put, so
    /// the stream stays consistent if the gap ever fills.
    fn evict_stale(&mut self) -> Vec<Due> {
        if self.last_evict.elapsed() < TICK || self.window.pending_len() == 0 {
            return Vec::new();
        }
        let now = Instant::now();
        self.last_evict = now;
        let ttl = self.pending_ttl;
        let stale = self
            .window
            .evict_where(|(_, _, since)| now.duration_since(*since) >= ttl);
        let timed_out = |seq| {
            ServeError::unavailable(
                "seq_gap_timeout",
                format!(
                    "op at seq {seq} was not applied: earlier seqs did not arrive \
                     within {}ms — safe to retry",
                    ttl.as_millis()
                ),
            )
        };
        stale
            .into_iter()
            .map(|(seq, (_, peer, _))| (peer, Err(timed_out(seq))))
            .collect()
    }

    /// The `/metrics` page: the state's own lines plus the seq window's.
    fn metrics_text(&mut self, transport_bad: u64) -> String {
        let mut text = self.state.metrics_text(transport_bad);
        metric_line(&mut text, "serve_seq_next", "", self.window.next_seq());
        let pending = self.window.pending_len() as u64;
        metric_line(&mut text, "serve_seq_pending", "", pending);
        text
    }
}

/// A running daemon; dropping the handle does *not* stop it — call
/// [`shutdown`](Self::shutdown) or [`wait`](Self::wait).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_join: JoinHandle<()>,
    worker_joins: Vec<JoinHandle<()>>,
    restore_report: Option<RestoreReport>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn restore_report(&self) -> Option<&RestoreReport> {
        self.restore_report.as_ref()
    }

    /// Requests a stop and joins every thread. Returns promptly even if
    /// clients still hold idle keep-alive connections: workers observe
    /// the flag on the next read-timeout tick and drop them.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop; the connection is dropped unread.
        let _ = TcpStream::connect(self.addr);
        self.join_all();
    }

    /// Blocks until the daemon stops (e.g. via `POST /v1/shutdown`).
    pub fn wait(self) {
        self.join_all();
    }

    fn join_all(self) {
        let _ = self.accept_join.join();
        // The last worker out drops the engine, and with it any
        // connection still parked in the seq window.
        for w in self.worker_joins {
            let _ = w.join();
        }
    }
}

/// Builds the state (restoring if asked), warms the initial fleet,
/// binds the listener, and starts the accept loop and worker pool.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let ServerConfig {
        addr,
        pms,
        d,
        p_on,
        p_off,
        rho,
        workers,
        snapshot_keep,
        pending_ttl,
        store,
        restore,
        initial,
    } = config;

    let mut next_seq = 0u64;
    let mut restore_report = None;
    let mut state = None;
    if restore {
        let store_ref = store.as_deref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "restore requires a store")
        })?;
        let outcome = restore_newest(store_ref)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        match outcome.state {
            Some(restored) => {
                restore_report = Some(RestoreReport {
                    loaded_from: Some(restored.loaded_from),
                    applied: restored.state.applied(),
                    discarded: outcome.discarded,
                });
                next_seq = restored.next_seq;
                state = Some(restored.state);
            }
            None => {
                restore_report = Some(RestoreReport {
                    loaded_from: None,
                    applied: 0,
                    discarded: outcome.discarded,
                });
            }
        }
    }
    let state = match state {
        Some(s) => s,
        None => {
            let mut s = ClusterState::new(pms, d, p_on, p_off, rho, 0.0, JOURNAL_CAP);
            if !initial.is_empty() {
                let warm = s
                    .cluster_mut()
                    .arrive_batch_each(initial, &mut NoopRecorder, |_, _| {});
                warm.map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("initial fleet does not fit: {e}"),
                    )
                })?;
            }
            s
        }
    };
    let engine = Arc::new(Mutex::new(Engine {
        state,
        window: SeqWindow::new(next_seq, SEQ_WINDOW),
        store,
        snapshot_keep,
        pending_ttl,
        last_evict: Instant::now(),
    }));

    let listener = TcpListener::bind(&addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(TransportStats::default());
    let queue = Arc::new(WorkQueue::<Conn>::new());

    // Worker pool: each worker serves a connection's requests end to
    // end. Workers poll the shared queue with a timeout so the shutdown
    // flag is observed even while connections sit idle.
    let mut worker_joins = Vec::with_capacity(workers.max(1));
    for i in 0..workers.max(1) {
        let ctx = WorkerCtx {
            engine: Arc::clone(&engine),
            queue: Arc::clone(&queue),
            shutdown: Arc::clone(&shutdown),
            stats: Arc::clone(&stats),
            poke_addr: local_addr,
        };
        worker_joins.push(
            std::thread::Builder::new()
                .name(format!("bursty-worker-{i}"))
                .spawn(move || loop {
                    match ctx.queue.pop_timeout(TICK) {
                        Some(conn) => serve_conn(conn, &ctx),
                        None => {
                            if ctx.shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            ctx.evict_stale();
                        }
                    }
                })?,
        );
    }
    drop(engine);

    // Accept loop: owns the listener and pushes each new connection.
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_join = std::thread::Builder::new()
        .name("bursty-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        // Small request/response pairs: Nagle + delayed
                        // ACK would add ~40ms per round trip.
                        let _ = s.set_nodelay(true);
                        // The read timeout turns blocked reads into
                        // ticks: idle connections requeue instead of
                        // pinning a worker, and shutdown is observed.
                        let _ = s.set_read_timeout(Some(TICK));
                        if let Ok(conn) = Conn::new(s) {
                            queue.push(conn);
                        }
                    }
                    Err(_) => continue,
                }
            }
        })?;

    Ok(ServerHandle {
        addr: local_addr,
        shutdown,
        accept_join,
        worker_joins,
        restore_report,
    })
}

/// Everything a worker needs to serve connections.
struct WorkerCtx {
    engine: Arc<Mutex<Engine>>,
    queue: Arc<WorkQueue<Conn>>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<TransportStats>,
    poke_addr: SocketAddr,
}

impl WorkerCtx {
    /// Runs `f` under the engine lock and releases it before returning:
    /// `f` gets the engine and nothing to do I/O with. A poisoned lock —
    /// a request panicked inside the engine — is a typed 500, not a
    /// second panic.
    fn with_engine<T>(&self, f: impl FnOnce(&mut Engine) -> T) -> Result<T, ServeError> {
        match self.engine.lock() {
            Ok(mut engine) => Ok(f(&mut engine)),
            Err(_) => Err(engine_poisoned()),
        }
    }

    /// Writes replies to connections this worker is not serving and
    /// gives the ones that stay open back to the pool.
    fn deliver(&self, due: impl IntoIterator<Item = Due>) {
        for (mut peer, out) in due {
            if answer(&mut peer.conn, out, peer.keep_alive) {
                self.queue.push(peer.conn);
            }
        }
    }

    /// The pending-seq TTL backstop, run from the workers' idle ticks.
    /// `try_lock`: if the engine is busy, some other tick will do it.
    fn evict_stale(&self) {
        let stale = match self.engine.try_lock() {
            Ok(mut engine) => engine.evict_stale(),
            Err(_) => return,
        };
        self.deliver(stale);
    }
}

fn engine_poisoned() -> ServeError {
    ServeError::internal("engine unavailable: an earlier request panicked while holding its lock")
}

const JSON: &str = "application/json";

/// Writes one response; returns whether the connection can carry
/// another request.
fn send(conn: &mut Conn, status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> bool {
    write_response(&mut conn.writer, status, content_type, body, keep_alive).is_ok() && keep_alive
}

/// [`send`] for a JSON outcome.
fn answer(conn: &mut Conn, out: Result<Json, ServeError>, keep_alive: bool) -> bool {
    let (status, body) = match out {
        Ok(json) => (200, json.encode()),
        Err(e) => (e.status, e.to_json()),
    };
    send(conn, status, JSON, body.as_bytes(), keep_alive)
}

/// [`answer`] for an outcome computed under the engine lock (released
/// before the write); a poisoned lock answers 500 and closes.
fn answer_locked(
    conn: &mut Conn,
    ctx: &WorkerCtx,
    keep_alive: bool,
    f: impl FnOnce(&mut Engine) -> Result<Json, ServeError>,
) -> bool {
    match ctx.with_engine(f) {
        Ok(out) => answer(conn, out, keep_alive),
        Err(poisoned) => answer(conn, Err(poisoned), false),
    }
}

/// Serves one connection until it closes, errors, goes idle (requeued),
/// or parks itself in the seq window behind a missing predecessor.
fn serve_conn(mut conn: Conn, ctx: &WorkerCtx) {
    loop {
        let req = match read_request(&mut conn.reader, MAX_BODY, &ctx.shutdown) {
            Ok(req) => req,
            Err(HttpError::Idle) => {
                // No request in flight: give the connection back so this
                // worker can serve others (and drop it at shutdown).
                if !ctx.shutdown.load(Ordering::SeqCst) {
                    ctx.queue.push(conn);
                }
                ctx.evict_stale();
                return;
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            Err(e) => {
                // Framing failure: typed 4xx, then close — the stream
                // position is unreliable past a malformed request.
                ctx.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                if let Some(status) = e.status() {
                    let e = ServeError {
                        status,
                        code: e.code(),
                        message: e.to_string(),
                    };
                    answer(&mut conn, Err(e), false);
                }
                return;
            }
        };
        let keep_alive = req.keep_alive;
        let open = match route(&req) {
            Err(e) => {
                ctx.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                answer(&mut conn, Err(e), keep_alive)
            }
            Ok(Action::Health) => send(&mut conn, 200, JSON, b"{\"status\":\"ok\"}", keep_alive),
            Ok(Action::Shutdown) => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                send(&mut conn, 200, JSON, b"{\"status\":\"stopping\"}", false);
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect(ctx.poke_addr);
                false
            }
            Ok(Action::Metrics) => {
                let bad = ctx.stats.bad_requests.load(Ordering::Relaxed);
                match ctx.with_engine(|engine| engine.metrics_text(bad)) {
                    Ok(text) => {
                        let plain = "text/plain; charset=utf-8";
                        send(&mut conn, 200, plain, text.as_bytes(), keep_alive)
                    }
                    Err(poisoned) => answer(&mut conn, Err(poisoned), false),
                }
            }
            Ok(Action::Digest) => answer_locked(&mut conn, ctx, keep_alive, |engine| {
                Ok(engine.state.read_counted(ClusterState::digest_json))
            }),
            Ok(Action::Fleet) => answer_locked(&mut conn, ctx, keep_alive, |engine| {
                Ok(engine.state.read_counted(ClusterState::fleet_json))
            }),
            Ok(Action::Apply { op, seq: None }) => {
                answer_locked(&mut conn, ctx, keep_alive, |engine| {
                    let next_seq = engine.window.next_seq();
                    engine.apply(op, next_seq)
                })
            }
            Ok(Action::Apply { op, seq: Some(seq) }) => {
                // The connection goes into the window with its op: the
                // op may buffer behind a missing seq, and that seq's
                // connection needs a free worker to make progress — so
                // this worker must not wait for it.
                let due = match ctx.engine.lock() {
                    Ok(mut engine) => engine.offer(seq, op, Peer { conn, keep_alive }),
                    Err(_) => {
                        let close = Peer {
                            conn,
                            keep_alive: false,
                        };
                        vec![(close, Err(engine_poisoned()))]
                    }
                };
                let mut due = due.into_iter();
                // Lock released. Nothing due: parked, back to the queue.
                let Some((own, out)) = due.next() else { return };
                conn = own.conn;
                let open = answer(&mut conn, out, own.keep_alive);
                // The rest of a released run belongs to other
                // connections; whoever is free reads their next request.
                ctx.deliver(due);
                open
            }
        };
        if !open {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn work_queue_pops_in_push_order() {
        let q = WorkQueue::new();
        for i in 0..5 {
            q.push(i);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop_timeout(Duration::ZERO)).collect();
        assert_eq!(got, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn work_queue_pop_on_empty_times_out() {
        let q = WorkQueue::<u8>::new();
        let start = Instant::now();
        assert_eq!(q.pop_timeout(TICK), None);
        let waited = start.elapsed();
        assert!(waited >= TICK, "returned early, after {waited:?}");
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }

    #[test]
    fn work_queue_hands_off_every_item_exactly_once() {
        const PUSHERS: usize = 4;
        const POPPERS: usize = 4;
        const EACH: usize = 250;
        let q = WorkQueue::new();
        let popped = AtomicUsize::new(0);
        // Every thread starts at once, so pops race the pushes.
        let start = Barrier::new(PUSHERS + POPPERS);
        let mut got: Vec<usize> = std::thread::scope(|scope| {
            let poppers: Vec<_> = (0..POPPERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut mine = Vec::new();
                        while popped.load(Ordering::SeqCst) < PUSHERS * EACH {
                            if let Some(item) = q.pop_timeout(TICK) {
                                popped.fetch_add(1, Ordering::SeqCst);
                                mine.push(item);
                            }
                        }
                        mine
                    })
                })
                .collect();
            for p in 0..PUSHERS {
                let (q, start) = (&q, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..EACH {
                        q.push(p * EACH + i);
                    }
                });
            }
            poppers
                .into_iter()
                .flat_map(|h| h.join().expect("popper panicked"))
                .collect()
        });
        got.sort_unstable();
        assert_eq!(got, (0..PUSHERS * EACH).collect::<Vec<_>>());
        assert_eq!(q.pop_timeout(Duration::ZERO), None);
    }
}
