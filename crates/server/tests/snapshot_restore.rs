//! Satellite 2: daemon-level snapshot/restore over `obs::durable`.
//!
//! Serve a churn prefix → snapshot → kill the daemon → restore a new
//! daemon from the same directory → serve the suffix: the end digest
//! must equal an uninterrupted run. A `FailingStore` torn-write sweep
//! then proves restore falls back to the older snapshot with a typed
//! per-file reason — never a skewed state.

use bursty_obs::{FailingStore, FsStore, MemStore, Store};
use bursty_placement::{OnlineCluster, ReferenceOnlineCluster};
use bursty_server::replay::{apply_engine, build_program, drive_http};
use bursty_server::state::{restore_newest, ClusterState, Op, RestoreReason};
use bursty_server::{op_request, spawn, Client, Json, ServerConfig};
use bursty_workload::{PmSpec, VmSpec};

const D: usize = 16;
const P_ON: f64 = 0.01;
const P_OFF: f64 = 0.09;
const RHO: f64 = 0.01;

fn pms(m: usize) -> Vec<PmSpec> {
    (0..m).map(|j| PmSpec::new(j, 100.0)).collect()
}

fn config_with_store(m: usize, dir: &std::path::Path, restore: bool) -> ServerConfig {
    let mut c = ServerConfig::new(pms(m), D, P_ON, P_OFF, RHO);
    c.workers = 4;
    c.store = Some(Box::new(FsStore::open(dir).expect("state dir opens")));
    c.restore = restore;
    c
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bursty-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_and_restore_matches_uninterrupted_run() {
    let dir = temp_dir("roundtrip");
    let program = build_program(0xDEAD, 600, 0);
    let (prefix, suffix) = program.ops.split_at(350);

    // Oracle: the uninterrupted engine-direct run.
    let mut engine = OnlineCluster::new(pms(96), D, P_ON, P_OFF, RHO);
    let expected = apply_engine(&mut engine, &program.ops);

    // Serve the prefix, snapshot over HTTP, then kill the daemon.
    let handle = spawn(config_with_store(96, &dir, false)).unwrap();
    let mid = drive_http(handle.addr(), prefix, 2, 0).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // Unsequenced: a seq'd snapshot would advance the window past the
    // suffix's first seq.
    let snap = client.post("/v1/snapshot", &Json::Obj(vec![])).unwrap();
    assert_eq!(snap.status, 200, "snapshot failed: {}", snap.text());
    let snap = snap.json().unwrap();
    assert_eq!(
        snap.get("applied").and_then(Json::as_usize),
        Some(prefix.len())
    );
    drop(client);
    handle.shutdown(); // "kill": all threads join, state dropped

    // Restore a fresh daemon from the same directory.
    let handle = spawn(config_with_store(96, &dir, true)).unwrap();
    {
        let report = handle.restore_report().expect("restore ran");
        assert!(report.loaded_from.is_some());
        assert_eq!(report.applied, prefix.len() as u64);
        assert!(report.discarded.is_empty());
    }
    // The restored digest equals the mid-run digest...
    let mut client = Client::connect(handle.addr()).unwrap();
    let restored = bursty_server::fetch_digest(&mut client).unwrap();
    assert_eq!(restored, mid.digest);
    drop(client);
    // ...and serving the suffix (seqs continue where the prefix left
    // off — the snapshot persisted next_seq) lands on the oracle digest.
    let end = drive_http(handle.addr(), suffix, 2, prefix.len() as u64).unwrap();
    handle.shutdown();
    assert_eq!(end.digest, expected);
}

/// Review regression: a seq'd snapshot released early in a reorder run
/// used to persist the *run end* as `next_seq`, so after a crash and
/// restore, clients resending the later-in-run ops were answered 409
/// `seq_replayed` and those ops were silently lost. The snapshot must
/// persist its own seq + 1.
#[test]
fn seqd_snapshot_mid_run_persists_its_own_seq() {
    let dir = temp_dir("midseq");
    let admit = |id: usize| {
        Op::Admit(VmSpec {
            id,
            p_on: P_ON,
            p_off: P_OFF,
            r_b: 5.0,
            r_e: 5.0,
        })
    };
    let handle = spawn(config_with_store(16, &dir, false)).unwrap();
    let addr = handle.addr();

    // Snapshot at seq 1 and an admit at seq 2 arrive first and buffer;
    // both block until the seq-0 admit below releases the run [0, 1, 2].
    let post_seqd = |op: Op, seq: u64| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let (path, body) = op_request(&op, seq);
            let resp = client.post(path, &body).unwrap();
            assert_eq!(resp.status, 200, "seq {seq} body: {}", resp.text());
        })
    };
    let snap_join = post_seqd(Op::Snapshot, 1);
    let tail_join = post_seqd(admit(200), 2);
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut client = Client::connect(addr).unwrap();
    let (path, body) = op_request(&admit(100), 0);
    assert_eq!(client.post(path, &body).unwrap().status, 200);
    snap_join.join().expect("snapshot client");
    tail_join.join().expect("tail-admit client");
    drop(client);
    handle.shutdown(); // crash after the whole run applied

    // The snapshot saw one applied op (the seq-0 admit) and must have
    // persisted next_seq = 2, not the run end (3).
    let handle = spawn(config_with_store(16, &dir, true)).unwrap();
    let report = handle.restore_report().expect("restore ran");
    assert_eq!(report.applied, 1, "snapshot captured only the seq-0 op");

    // The client never learned its post-snapshot op was lost by the
    // crash; resending seq 2 must apply (the old bug answered 409).
    let mut client = Client::connect(handle.addr()).unwrap();
    let (path, body) = op_request(&admit(200), 2);
    let resp = client.post(path, &body).unwrap();
    assert_eq!(resp.status, 200, "resent seq 2 body: {}", resp.text());
    let digest = bursty_server::fetch_digest(&mut client).unwrap();
    assert_eq!(digest.n_vms, 2);
    drop(client);
    handle.shutdown();
}

/// Ids no density bound covers keep the contract: a program whose ids mix
/// `0..n`, `2^32 + k` and `2^53 − 1`, departures included, served over
/// HTTP lands on the reference digest; the snapshot it leaves holds the
/// engine-direct run's exact image, and a daemon restored from it serves
/// the same digest.
#[test]
fn mixed_far_ids_serve_snapshot_and_restore_identically() {
    let dir = temp_dir("farids");
    let far = |id: usize| match id % 3 {
        0 => id,
        1 => (1 << 32) + id,
        _ => (1 << 53) - 2 - id / 3,
    };
    let top = VmSpec::new((1 << 53) - 1, P_ON, P_OFF, 5.0, 5.0);
    let mut ops: Vec<Op> = build_program(0x5EED, 600, 0)
        .ops
        .into_iter()
        .map(|op| match op {
            Op::Admit(vm) => Op::Admit(VmSpec {
                id: far(vm.id),
                ..vm
            }),
            Op::AdmitBatch(vms) => Op::AdmitBatch(
                vms.into_iter()
                    .map(|vm| VmSpec {
                        id: far(vm.id),
                        ..vm
                    })
                    .collect(),
            ),
            Op::Depart { id } => Op::Depart { id: far(id) },
            other => other,
        })
        .collect();
    ops.push(Op::Admit(top));
    let far_departs = ops
        .iter()
        .filter(|op| matches!(op, Op::Depart { id } if *id > 1 << 32))
        .count();
    assert!(far_departs > 0, "far ids depart too");
    let mut reference = ReferenceOnlineCluster::new(pms(96), D, RHO);
    let expected = apply_engine(&mut reference, &ops);
    let mut engine = OnlineCluster::new(pms(96), D, P_ON, P_OFF, RHO);
    assert_eq!(apply_engine(&mut engine, &ops), expected);
    assert!(engine.host_of(top.id).is_some(), "2^53 - 1 is live");

    let handle = spawn(config_with_store(96, &dir, false)).unwrap();
    let served = drive_http(handle.addr(), &ops, 2, 0).unwrap();
    assert_eq!(served.digest, expected);
    let mut client = Client::connect(handle.addr()).unwrap();
    let snap = client.post("/v1/snapshot", &Json::Obj(vec![])).unwrap();
    assert_eq!(snap.status, 200, "snapshot failed: {}", snap.text());
    drop(client);
    handle.shutdown();

    let outcome = restore_newest(&FsStore::open(&dir).unwrap()).unwrap();
    let restored = outcome.state.expect("the snapshot verifies").state;
    assert_eq!(restored.cluster().state_digest(), expected);
    assert_eq!(
        restored.cluster().to_snapshot_bytes(),
        engine.to_snapshot_bytes()
    );

    let handle = spawn(config_with_store(96, &dir, true)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(bursty_server::fetch_digest(&mut client).unwrap(), expected);
    drop(client);
    handle.shutdown();
}

#[test]
fn torn_write_sweep_falls_back_with_typed_reasons() {
    // Drive snapshots through a FailingStore across many seeds. Every
    // restore must either load a verified snapshot whose digest matches
    // the state at that snapshot's op count, or report why each
    // candidate was discarded — never return a half-written state.
    let mut skewed = 0u32;
    let mut fell_back = 0u32;
    let mut clean = 0u32;
    for seed in 0..40u64 {
        let mut store = FailingStore::new(MemStore::new(), seed, 40, 40, 40);
        let mut state = ClusterState::new(pms(32), D, P_ON, P_OFF, RHO, 0.0, 256);
        let program = build_program(seed.wrapping_add(99), 120, 0);
        // Digest checkpoints keyed by applied-op count at snapshot time.
        let mut digests = std::collections::HashMap::new();
        for (i, op) in program.ops.iter().enumerate() {
            let _ = state.apply(op.clone(), None, 4, 0);
            if i % 30 == 29 {
                // Snapshot through the faulty store; a failed write is
                // an error the daemon surfaces, not a crash.
                let _ = state.apply(Op::Snapshot, Some(&mut store), 4, 0);
                digests.insert(state.applied(), state.cluster().state_digest());
            }
        }
        let outcome = restore_newest(&store).unwrap();
        match outcome.state {
            Some(restored) => {
                let expected = digests.get(&restored.state.applied()).unwrap_or_else(|| {
                    panic!(
                        "restored applied={} matches no snapshot point",
                        restored.state.applied()
                    )
                });
                if restored.state.cluster().state_digest() != *expected {
                    skewed += 1;
                } else if outcome.discarded.is_empty() {
                    clean += 1;
                } else {
                    fell_back += 1;
                }
                for (name, reason) in &outcome.discarded {
                    assert!(
                        matches!(reason, RestoreReason::Corrupt(_) | RestoreReason::Io(_)),
                        "untyped reason for {name}"
                    );
                }
            }
            None => {
                // Every snapshot write failed or was torn — acceptable
                // only if each file has a typed reason.
                for (name, reason) in &outcome.discarded {
                    assert!(
                        matches!(reason, RestoreReason::Corrupt(_) | RestoreReason::Io(_)),
                        "untyped reason for {name}"
                    );
                }
            }
        }
    }
    assert_eq!(skewed, 0, "restore must never yield a skewed state");
    assert!(clean > 0, "sweep never exercised a clean restore");
    assert!(
        fell_back > 0,
        "sweep never exercised the corrupt-newest fallback (weak fault injection?)"
    );
}

#[test]
fn restore_from_empty_dir_starts_fresh() {
    let dir = temp_dir("empty");
    let handle = spawn(config_with_store(16, &dir, true)).unwrap();
    let report = handle.restore_report().expect("restore ran");
    assert!(report.loaded_from.is_none());
    assert!(report.discarded.is_empty());
    let mut client = Client::connect(handle.addr()).unwrap();
    let digest = bursty_server::fetch_digest(&mut client).unwrap();
    assert_eq!(digest.n_vms, 0);
    drop(client);
    handle.shutdown();
}

#[test]
fn fs_store_corruption_on_disk_is_skipped() {
    // Corrupt the newest snapshot on the real filesystem store, not
    // just MemStore: the daemon must boot from the older one.
    let dir = temp_dir("fscorrupt");
    let program = build_program(0xFEED, 200, 0);
    let handle = spawn(config_with_store(32, &dir, false)).unwrap();
    let first = drive_http(handle.addr(), &program.ops[..100], 1, 0).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        client
            .post("/v1/snapshot", &Json::Obj(vec![]))
            .unwrap()
            .status,
        200
    );
    drive_http(handle.addr(), &program.ops[100..], 1, 100).unwrap();
    assert_eq!(
        client
            .post("/v1/snapshot", &Json::Obj(vec![]))
            .unwrap()
            .status,
        200
    );
    drop(client);
    handle.shutdown();

    // Flip one byte in the lexicographically-newest snapshot file.
    let store = FsStore::open(&dir).unwrap();
    let mut names: Vec<String> = store.list().unwrap();
    names.sort();
    let newest = names.last().unwrap().clone();
    let path = dir.join(&newest);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&path, bytes).unwrap();

    let handle = spawn(config_with_store(32, &dir, true)).unwrap();
    let report = handle.restore_report().expect("restore ran");
    assert_eq!(report.discarded.len(), 1);
    assert_eq!(report.discarded[0].0, newest);
    assert!(matches!(report.discarded[0].1, RestoreReason::Corrupt(_)));
    assert_eq!(report.applied, 100);
    let mut client = Client::connect(handle.addr()).unwrap();
    let digest = bursty_server::fetch_digest(&mut client).unwrap();
    assert_eq!(digest, first.digest);
    drop(client);
    handle.shutdown();
}
