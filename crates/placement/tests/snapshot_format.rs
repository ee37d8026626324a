//! The `OnlineCluster` snapshot image, byte for byte: the section the
//! placement daemon's snapshots carry. A small churned cluster — three
//! classes, a PM emptied after use, ids far enough apart to take the
//! sparse id table — is pinned as a hex literal; any change to field
//! order, integer widths or the canonical id order fails here.

use bursty_placement::OnlineCluster;
use bursty_workload::{PmSpec, VmSpec};

/// Ids past `2·n + 1024` of a dense warm-up go to the sparse table.
const FAR: usize = 1 << 33;

fn churned_cluster() -> OnlineCluster {
    let pms = (0..5).map(|j| PmSpec::new(20 + j, 90.0 + 5.0 * j as f64));
    let mut c = OnlineCluster::new(pms.collect(), 8, 0.01, 0.09, 0.01);
    let classes = [
        (0.01, 0.09, 10.0, 10.0),
        (0.02, 0.08, 18.0, 12.0),
        (0.05, 0.2, 30.0, 25.0),
    ];
    let ids: Vec<usize> = (0..6).chain((0..5).map(|k| FAR + 3 * k)).collect();
    for (i, &id) in ids.iter().enumerate() {
        let (p_on, p_off, r_b, r_e) = classes[i % classes.len()];
        c.arrive(VmSpec::new(id, p_on, p_off, r_b, r_e))
            .expect("the pool has room");
    }
    // Empty the host of the first far id, then let one more VM in.
    let emptied = c.host_of(FAR).expect("placed");
    for &id in &ids {
        if c.host_of(id) == Some(emptied) {
            c.depart(id).expect("placed");
        }
    }
    c.arrive(VmSpec::new(FAR + 100, 0.02, 0.08, 18.0, 12.0))
        .expect("the pool has room");
    let survivor = (0..6)
        .find(|&id| c.host_of(id).is_some())
        .expect("one stays");
    c.depart(survivor).expect("placed");
    c
}

/// `churned_cluster().to_snapshot_bytes()`, 32 bytes a line.
const PINNED: &str = "\
    08000000000000007b14ae47e17a843f00000000000000007b14ae47e17a843f\
    0ad7a3703d0ab73f050000000000000014000000000000000000000000805640\
    15000000000000000000000000c0574016000000000000000000000000005940\
    17000000000000000000000000405a4018000000000000000000000000805b40\
    030000000000000000000000000000007b14ae47e17a843f0ad7a3703d0ab73f\
    0000000000002440000000000000244001000000000000000100000000000000\
    7b14ae47e17a943f7b14ae47e17ab43f00000000000032400000000000002840\
    040000000000000002000000000000009a9999999999a93f9a9999999999c93f\
    0000000000003e40000000000000394002000000000000000500000000000000\
    0400000000000000010000000000000000000000000028400000000000003240\
    0000000000003e40010000000000000001000000010000000100000000000000\
    0100000000000000000000000000244000000000000024400000000000003440\
    0100000000000000000000000100000002000000000000000200000000000000\
    0000000000003940000000000000484000000000004055400200000000000000\
    0100000001000000020000000100000003000000000000000200000000000000\
    0000000000003940000000000000484000000000004055400200000000000000\
    0100000001000000020000000100000000000000000000000100000000000000\
    000000000000284000000000000032400000000000003e400100000000000000\
    0100000001000000070000000000000004000000000000000200000000000000\
    0100000005000000000000000200000000000000020000000300000002000000\
    0300000000000000010000000600000002000000030000000000000002000000\
    09000000020000000100000000000000000000000c0000000200000004000000\
    00000000010000006400000002000000000000000000000001000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn online_cluster_snapshot_bytes_are_pinned() {
    let c = churned_cluster();
    let bytes = c.to_snapshot_bytes();
    assert_eq!(hex(&bytes), PINNED);
    let restored = OnlineCluster::from_snapshot_bytes(&bytes).expect("the pinned image decodes");
    assert_eq!(hex(&restored.to_snapshot_bytes()), PINNED);
    assert_eq!(restored.state_digest(), c.state_digest());
}
