//! The tentpole contract: the daemon is a transport, not a second
//! engine. A seeded churn program driven through HTTP — at 1, 2, and 8
//! concurrent clients — must land on the same end-state digest as the
//! same program driven directly through `OnlineCluster`, and as the
//! single-threaded `ReferenceOnlineCluster` replay.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bursty_placement::{OnlineCluster, ReferenceOnlineCluster};
use bursty_server::replay::{apply_engine, build_program, drive_http};
use bursty_server::{op_request, spawn, Client, Json, Op, ServerConfig};
use bursty_workload::{PmSpec, VmSpec};
use proptest::prelude::*;

const D: usize = 16;
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
const RHO: f64 = 0.01;

fn pms(m: usize) -> Vec<PmSpec> {
    (0..m).map(|j| PmSpec::new(j, 100.0)).collect()
}

fn config(m: usize) -> ServerConfig {
    let mut c = ServerConfig::new(pms(m), D, P_ON, P_OFF, RHO);
    // Deliberately below the widest client fan-out used here (8):
    // connections must never need a dedicated worker to make progress.
    c.workers = 2;
    c
}

fn admit(id: usize) -> Op {
    Op::Admit(VmSpec {
        id,
        p_on: P_ON,
        p_off: P_OFF,
        r_b: 5.0,
        r_e: 5.0,
    })
}

/// Polls `/metrics` until the seq window holds `n` parked ops — the only
/// way a test can know an early seq has reached the window rather than
/// still sitting in a socket buffer. A fresh connection per poll: a
/// connection that never goes idle keeps its worker, and with one
/// worker the op being waited for would never be read. Call under a
/// watchdog.
fn wait_for_pending(addr: SocketAddr, n: usize) {
    let line = format!("serve_seq_pending {n}\n");
    let pending = || {
        Client::connect(addr)
            .unwrap()
            .get("/metrics")
            .unwrap()
            .text()
    };
    while !pending().contains(&line) {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Posts one seq'd admit on a connection of its own, from a thread of
/// its own (the reply may be a long time coming), and returns the
/// reply's `(status, id, applied)`.
fn post_admit_detached(
    addr: SocketAddr,
    id: usize,
    seq: u64,
) -> std::thread::JoinHandle<(u16, Option<usize>, Option<u64>)> {
    std::thread::spawn(move || {
        let (path, body) = op_request(&admit(id), seq);
        let resp = Client::connect(addr).unwrap().post(path, &body).unwrap();
        let v = resp.json().unwrap();
        (
            resp.status,
            v.get("id").and_then(Json::as_usize),
            v.get("applied").and_then(Json::as_u64),
        )
    })
}

/// Runs `f` on a helper thread and fails the test if it does not finish
/// in time — a wedged daemon must fail loudly, not hang the suite.
fn with_watchdog<T: Send + 'static>(
    label: &str,
    secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name(format!("watchdog-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("watchdog thread spawns");
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{label}: wedged — watchdog expired after {secs}s"))
}

#[test]
fn http_replay_matches_engine_direct_at_1_2_and_8_clients() {
    let program = build_program(0xB0B, 900, 0);

    let mut engine = OnlineCluster::new(pms(128), D, P_ON, P_OFF, RHO);
    let engine_digest = apply_engine(&mut engine, &program.ops);
    let mut reference = ReferenceOnlineCluster::new(pms(128), D, RHO);
    let reference_digest = apply_engine(&mut reference, &program.ops);
    assert_eq!(engine_digest, reference_digest);
    assert!(engine_digest.n_vms > 0, "program must leave live VMs");

    for clients in [1usize, 2, 8] {
        let handle = spawn(config(128)).expect("daemon starts");
        let outcome =
            drive_http(handle.addr(), &program.ops, clients, 0).expect("http replay runs");
        handle.shutdown();
        assert_eq!(
            outcome.digest, engine_digest,
            "digest diverged at {clients} clients"
        );
        assert_eq!(outcome.ok + outcome.rejected, program.ops.len());
    }
}

/// Review regression: seq-stamped connections outnumbering workers used
/// to wedge the pool permanently — a worker blocked on a buffered op's
/// reply while the op's missing predecessor sat queued with no free
/// worker to serve it. Workers now park the connection in the seq
/// window instead of blocking, so a single worker serves any fan-out.
#[test]
fn seqd_clients_outnumbering_workers_cannot_deadlock() {
    let program = build_program(0xD0C, 360, 0);
    let mut engine = OnlineCluster::new(pms(64), D, P_ON, P_OFF, RHO);
    let expected = apply_engine(&mut engine, &program.ops);

    let outcome = with_watchdog("one-worker-six-clients", 120, move || {
        let mut c = ServerConfig::new(pms(64), D, P_ON, P_OFF, RHO);
        c.workers = 1;
        let handle = spawn(c).expect("daemon starts");
        let outcome = drive_http(handle.addr(), &program.ops, 6, 0).expect("http replay runs");
        handle.shutdown();
        outcome
    });
    assert_eq!(outcome.digest, expected);
}

/// One worker, four connections delivering seqs 3, 2, 1, 0 in that
/// order: three park, the fourth releases the whole run, and the one
/// worker must route each reply to the connection that sent the op.
#[test]
fn released_run_replies_reach_their_own_connections() {
    let ops: Vec<Op> = (0..4).map(|seq| admit(10 + seq)).collect();
    let mut engine = OnlineCluster::new(pms(16), D, P_ON, P_OFF, RHO);
    let expected = apply_engine(&mut engine, &ops);

    let (replies, digest) = with_watchdog("reverse-seq-delivery", 60, || {
        let mut c = config(16);
        c.workers = 1;
        let handle = spawn(c).expect("daemon starts");
        let mut joins = Vec::new();
        for seq in (1..4u64).rev() {
            joins.push(post_admit_detached(handle.addr(), 10 + seq as usize, seq));
            wait_for_pending(handle.addr(), joins.len());
        }
        joins.push(post_admit_detached(handle.addr(), 10, 0));
        let replies: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let mut client = Client::connect(handle.addr()).unwrap();
        let digest = bursty_server::fetch_digest(&mut client).unwrap();
        drop(client);
        handle.shutdown();
        (replies, digest)
    });
    // Sent in the order 3, 2, 1, 0; each got the reply to its own op.
    for (reply, seq) in replies.into_iter().zip([3u64, 2, 1, 0]) {
        assert_eq!(reply, (200, Some(10 + seq as usize), Some(seq + 1)));
    }
    assert_eq!(digest, expected);
}

/// A parked connection whose client hung up before its seq was
/// released: its op is still applied (the seq stream has no holes), the
/// rest of the run is answered, and the worker that found the dead
/// socket is not lost.
#[test]
fn dead_parked_connection_neither_drops_its_op_nor_a_worker() {
    let ops: Vec<Op> = (0..4).map(|seq| admit(20 + seq)).collect();
    let mut engine = OnlineCluster::new(pms(16), D, P_ON, P_OFF, RHO);
    let expected = apply_engine(&mut engine, &ops);

    let digest = with_watchdog("dead-parked-connection", 60, || {
        let mut c = config(16);
        c.workers = 1;
        let handle = spawn(c).expect("daemon starts");

        // seq 1 parks, then its client goes away without reading.
        let (path, body) = op_request(&admit(21), 1);
        let body = body.encode();
        let mut doomed = TcpStream::connect(handle.addr()).unwrap();
        write!(
            doomed,
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        wait_for_pending(handle.addr(), 1);
        drop(doomed);

        let parked = post_admit_detached(handle.addr(), 22, 2);
        wait_for_pending(handle.addr(), 2);
        // seq 0 releases 0, 1 (dead socket) and 2.
        let head = post_admit_detached(handle.addr(), 20, 0);
        assert_eq!(head.join().unwrap(), (200, Some(20), Some(1)));
        assert_eq!(parked.join().unwrap(), (200, Some(22), Some(3)));

        // The one worker is still there, for plain and seq'd requests.
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let tail = post_admit_detached(handle.addr(), 23, 3);
        assert_eq!(tail.join().unwrap(), (200, Some(23), Some(4)));
        let digest = bursty_server::fetch_digest(&mut client).unwrap();
        drop(client);
        handle.shutdown();
        digest
    });
    assert_eq!(digest, expected);
}

/// A buffered seq'd op whose predecessors never arrive (its client
/// died mid-stream) is evicted after `pending_ttl` with a retryable
/// 503. The window does not advance: the connection keeps working and
/// the full stream still applies once the gap is filled.
#[test]
fn stale_pending_seq_evicts_with_retryable_503() {
    let mut c = config(16);
    c.pending_ttl = Duration::from_millis(150);
    let handle = spawn(c).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).unwrap();

    // seq 5 with seqs 0..4 missing: buffered, then evicted on TTL.
    let (path, body) = op_request(&admit(100), 5);
    let resp = with_watchdog("evicted-op-answers", 30, {
        let addr = handle.addr();
        move || {
            let mut c = Client::connect(addr).unwrap();
            c.post(path, &body).unwrap()
        }
    });
    assert_eq!(resp.status, 503, "body: {}", resp.text());
    let v = resp.json().unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("seq_gap_timeout")
    );

    // Eviction did not consume the seqs: 0..=5 all apply now.
    for seq in 0..=5u64 {
        let (path, body) = op_request(&admit(seq as usize), seq);
        let resp = client.post(path, &body).unwrap();
        assert_eq!(resp.status, 200, "seq {seq} body: {}", resp.text());
    }
    let digest = bursty_server::fetch_digest(&mut client).unwrap();
    assert_eq!(digest.n_vms, 6);
    drop(client);
    handle.shutdown();
}

/// A store whose write panics: the one way to make a request die inside
/// the engine, under its lock, from outside the crate.
struct PanickingStore;

impl bursty_obs::Store for PanickingStore {
    fn write_atomic(&mut self, _: &str, _: &[u8]) -> std::io::Result<()> {
        panic!("store write panics (expected in this test)");
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        Ok(Vec::new())
    }
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        Err(std::io::Error::other(format!("no file {name}")))
    }
    fn remove(&mut self, _: &str) -> std::io::Result<()> {
        Ok(())
    }
}

/// A request that panics inside the engine poisons the engine lock and
/// takes its worker with it. Every later engine-bound request must
/// answer a typed 500 and close — not panic in turn — while `/healthz`,
/// which needs no engine, keeps answering.
#[test]
fn poisoned_engine_lock_is_a_typed_500_and_healthz_survives() {
    let mut c = config(16);
    c.store = Some(Box::new(PanickingStore));
    let handle = spawn(c).expect("daemon starts");
    with_watchdog("poisoned-engine-lock", 30, move || {
        let connect = || Client::connect(handle.addr()).unwrap();
        let empty = Json::Obj(Vec::new());
        assert!(connect().post("/v1/snapshot", &empty).is_err());

        let (path, seqd) = op_request(&admit(1), 0);
        let seqd = seqd.encode();
        for (method, path, body) in [
            ("GET", "/v1/fleet", ""),
            ("GET", "/v1/digest", ""),
            ("GET", "/metrics", ""),
            ("POST", "/v1/recalibrate", "{}"),
            ("POST", path, seqd.as_str()),
        ] {
            let mut client = connect();
            let resp = client.request(method, path, Some(body)).unwrap();
            assert_eq!(resp.status, 500, "{method} {path}: {}", resp.text());
            let v = resp.json().unwrap();
            let code = v.get("error").and_then(|e| e.get("code"));
            assert_eq!(code.and_then(Json::as_str), Some("internal"));
            // `Connection: close`: the server hung up after the reply.
            assert!(client.get("/healthz").is_err(), "{method} {path}");
        }
        let mut client = connect();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        handle.shutdown();
    });
}

/// Review regression: shutdown used to wait for every client to hang
/// up — a worker blocked reading an idle keep-alive connection never
/// saw the flag. Reads now tick on a socket timeout.
#[test]
fn shutdown_returns_while_clients_hold_idle_connections() {
    let handle = spawn(config(16)).expect("daemon starts");
    let mut active = Client::connect(handle.addr()).unwrap();
    assert_eq!(active.get("/healthz").unwrap().status, 200);
    let silent = Client::connect(handle.addr()).unwrap(); // never sends
    with_watchdog("shutdown-with-idle-conns", 30, move || handle.shutdown());
    drop(active);
    drop(silent);
}

#[test]
fn unseqd_single_client_also_matches() {
    // Without seq numbers a single connection still applies its ops in
    // send order.
    let program = build_program(0xCAFE, 300, 0);
    let mut engine = OnlineCluster::new(pms(64), D, P_ON, P_OFF, RHO);
    let engine_digest = apply_engine(&mut engine, &program.ops);

    let handle = spawn(config(64)).expect("daemon starts");
    let mut client = Client::connect(handle.addr()).unwrap();
    for op in &program.ops {
        let (path, body) = bursty_server::op_request(op, 0);
        // Strip the seq field: send the op body without ordering.
        let body = match body {
            Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "seq").collect()),
            other => other,
        };
        let resp = client.post(path, &body).unwrap();
        assert!(
            resp.status == 200 || resp.status == 404 || resp.status == 409,
            "unexpected status {} on {path}",
            resp.status
        );
    }
    let digest = bursty_server::fetch_digest(&mut client).unwrap();
    drop(client);
    handle.shutdown();
    assert_eq!(digest, engine_digest);
}

#[test]
fn fleet_and_metrics_views_report_the_served_state() {
    let program = build_program(0xF00D, 200, 0);
    let mut engine = OnlineCluster::new(pms(64), D, P_ON, P_OFF, RHO);
    let engine_digest = apply_engine(&mut engine, &program.ops);

    let handle = spawn(config(64)).expect("daemon starts");
    let outcome = drive_http(handle.addr(), &program.ops, 2, 0).unwrap();
    assert_eq!(outcome.digest, engine_digest);

    let mut client = Client::connect(handle.addr()).unwrap();
    let fleet = client.get("/v1/fleet").unwrap();
    assert_eq!(fleet.status, 200);
    let fleet = fleet.json().unwrap();
    assert_eq!(
        fleet.get("n_vms").and_then(Json::as_usize),
        Some(engine_digest.n_vms)
    );
    assert_eq!(
        fleet.get("pms_used").and_then(Json::as_usize),
        Some(engine_digest.pms_used)
    );
    assert_eq!(
        fleet.get("applied").and_then(Json::as_usize),
        Some(program.ops.len())
    );

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("serve_requests "));
    assert!(text.contains(&format!("serve_fleet_vms {}", engine_digest.n_vms)));
    assert!(text.contains("online_arrivals "));

    // The seq window's state: drained after the replay, then one op
    // held behind a gap, then drained again once the gap is filled.
    let next = program.ops.len() as u64;
    assert!(text.contains(&format!("serve_seq_next {next}\n")));
    assert!(text.contains("serve_seq_pending 0\n"));
    with_watchdog("metrics-show-a-held-gap", 30, move || {
        let early = post_admit_detached(handle.addr(), 900_001, next + 1);
        wait_for_pending(handle.addr(), 1);
        let text = client.get("/metrics").unwrap().text();
        assert!(text.contains(&format!("serve_seq_next {next}\n")));
        let gap = post_admit_detached(handle.addr(), 900_000, next);
        assert_eq!(gap.join().unwrap().0, 200);
        assert_eq!(early.join().unwrap().0, 200);
        let text = client.get("/metrics").unwrap().text();
        assert!(text.contains(&format!("serve_seq_next {}\n", next + 2)));
        assert!(text.contains("serve_seq_pending 0\n"));
        drop(client);
        handle.shutdown();
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 1: an *arbitrary* assignment of the seeded op set to N
    /// loopback connections — not just round-robin — produces the same
    /// end-state digest as the single-threaded reference replay. Each
    /// client sends its share in ascending-seq order; everything else
    /// (scheduling, interleaving, arrival order at the listener) is up
    /// to the OS.
    #[test]
    fn arbitrary_client_partitions_are_deterministic(
        seed in 1u64..1000,
        clients in 2usize..6,
        assignment in proptest::collection::vec(0usize..6, 240),
    ) {
        let program = build_program(seed, assignment.len(), 0);
        let mut reference = ReferenceOnlineCluster::new(pms(64), D, RHO);
        let expected = apply_engine(&mut reference, &program.ops);

        let handle = spawn(config(64)).expect("daemon starts");
        // Partition by the proptest-chosen assignment, preserving seq
        // order inside each share.
        let mut shares: Vec<Vec<(u64, bursty_server::Op)>> = vec![Vec::new(); clients];
        for (i, op) in program.ops.iter().enumerate() {
            shares[assignment[i] % clients].push((i as u64, op.clone()));
        }
        let addr = handle.addr();
        let joins: Vec<_> = shares
            .into_iter()
            .map(|share| {
                std::thread::spawn(move || -> std::io::Result<()> {
                    let mut client = Client::connect(addr)?;
                    for (seq, op) in share {
                        let (path, body) = bursty_server::op_request(&op, seq);
                        let resp = client.post(path, &body)?;
                        if !matches!(resp.status, 200 | 404 | 409) {
                            return Err(std::io::Error::other(format!(
                                "status {} on {path}",
                                resp.status
                            )));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        for j in joins {
            j.join().expect("client thread").expect("client i/o");
        }
        let mut client = Client::connect(addr).unwrap();
        let digest = bursty_server::fetch_digest(&mut client).unwrap();
        drop(client);
        handle.shutdown();
        prop_assert_eq!(digest, expected);
    }
}
