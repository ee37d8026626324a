//! The `OnlineCluster` snapshot image, byte for byte: the section the
//! placement daemon's snapshots carry. A small churned cluster — three
//! classes, a PM emptied after use, ids far enough apart to take the
//! sparse id table — is pinned as a hex literal; any change to field
//! order, integer widths or the canonical id order fails here.

use bursty_obs::NoopRecorder;
use bursty_placement::{OnlineCluster, OnlineEngine, ReferenceOnlineCluster};
use bursty_workload::{PmSpec, VmSpec};

/// Ids past `2·n + 1024` of a dense warm-up go to the sparse table.
const FAR: usize = 1 << 33;

fn pool() -> Vec<PmSpec> {
    (0..5)
        .map(|j| PmSpec::new(20 + j, 90.0 + 5.0 * j as f64))
        .collect()
}

fn churned_cluster() -> OnlineCluster {
    churn(OnlineCluster::new(pool(), 8, 0.01, 0.09, 0.01))
}

/// The churn program, driven through either engine.
fn churn<E: OnlineEngine>(mut c: E) -> E {
    let rec = &mut NoopRecorder;
    let classes = [
        (0.01, 0.09, 10.0, 10.0),
        (0.02, 0.08, 18.0, 12.0),
        (0.05, 0.2, 30.0, 25.0),
    ];
    let ids: Vec<usize> = (0..6).chain((0..5).map(|k| FAR + 3 * k)).collect();
    for (i, &id) in ids.iter().enumerate() {
        let (p_on, p_off, r_b, r_e) = classes[i % classes.len()];
        c.arrive(VmSpec::new(id, p_on, p_off, r_b, r_e), rec)
            .expect("the pool has room");
    }
    // Empty the host of the first far id, then let one more VM in.
    let emptied = c.host_of(FAR).expect("placed");
    for &id in &ids {
        if c.host_of(id) == Some(emptied) {
            c.depart(id, rec).expect("placed");
        }
    }
    c.arrive(VmSpec::new(FAR + 100, 0.02, 0.08, 18.0, 12.0), rec)
        .expect("the pool has room");
    let survivor = (0..6)
        .find(|&id| c.host_of(id).is_some())
        .expect("one stays");
    c.depart(survivor, rec).expect("placed");
    c
}

/// `churned_cluster().to_snapshot_bytes()`, 32 bytes a line.
const PINNED: &str = "\
    08000000000000007b14ae47e17a843f00000000000000007b14ae47e17a843f\
    0ad7a3703d0ab73f050000000000000014000000000000000000000000805640\
    15000000000000000000000000c0574016000000000000000000000000005940\
    17000000000000000000000000405a4018000000000000000000000000805b40\
    030000000000000000000000000000007b14ae47e17a843f0ad7a3703d0ab73f\
    0000000000002440000000000000244000000000000000000100000000000000\
    7b14ae47e17a943f7b14ae47e17ab43f00000000000032400000000000002840\
    030000000000000002000000000000009a9999999999a93f9a9999999999c93f\
    0000000000003e40000000000000394003000000000000000400000000000000\
    0400000000000000020000000000000000000000000039400000000000004840\
    0000000000405540020000000000000002000000010000000100000001000000\
    0100000000000000010000000000000000000000000039400000000000003e40\
    0000000000804b40010000000000000002000000010000000200000000000000\
    0200000000000000000000000000394000000000000048400000000000405540\
    0200000000000000020000000100000001000000010000000300000000000000\
    0100000000000000000000000000284000000000000032400000000000003e40\
    0100000000000000010000000100000006000000000000000100000000000000\
    0400000000000000010000000200000000000000040000000000000002000000\
    0500000000000000020000000000000002000000060000000200000001000000\
    00000000020000000c0000000200000002000000000000000100000064000000\
    02000000030000000000000001000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn online_cluster_snapshot_bytes_are_pinned() {
    let c = churned_cluster();
    // The per-VM oracle ends the same program in the same state.
    let oracle = churn(ReferenceOnlineCluster::new(pool(), 8, 0.01));
    assert_eq!(oracle.state_digest(), c.state_digest());
    let bytes = c.to_snapshot_bytes();
    assert_eq!(hex(&bytes), PINNED);
    let restored = OnlineCluster::from_snapshot_bytes(&bytes).expect("the pinned image decodes");
    assert_eq!(hex(&restored.to_snapshot_bytes()), PINNED);
    assert_eq!(restored.state_digest(), c.state_digest());
}
