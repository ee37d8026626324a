//! Online consolidation (§IV-E): VMs arrive and leave a live cluster.
//!
//! Demonstrates single arrivals (first PM satisfying Eq. 17), departures
//! (queue size recalculated) and batch arrivals (Algorithm-2 ordering) of
//! VMs whose switch probabilities differ: each PM is priced by the table
//! of the hottest chain it hosts, so no fleet-wide pair is ever re-rounded.
//!
//! ```text
//! cargo run --example online_cloud --release
//! ```

use bursty_core::placement::online::OnlineCluster;
use bursty_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut gen = FleetGenerator::new(77);
    let pms = gen.pms(120);
    let mut cluster = OnlineCluster::new(pms, 16, 0.01, 0.09, 0.01);
    let mut rng = StdRng::seed_from_u64(3);

    // Day 0: a tenant brings up 60 VMs at once (batch arrival).
    let batch = gen.vms_table_i(60, WorkloadPattern::EqualSpike);
    let placed = cluster.arrive_batch(batch).expect("capacity suffices");
    println!(
        "batch of {} VMs placed on {} PMs",
        placed.len(),
        cluster.pms_used()
    );

    // Then a steady trickle: 100 arrival/departure events.
    let mut next_id = 1000;
    let mut live: Vec<usize> = placed.iter().map(|&(id, _)| id).collect();
    let (mut arrivals, mut departures, mut rejections) = (0, 0, 0);
    for _ in 0..100 {
        if rng.gen_bool(0.6) || live.is_empty() {
            // Arrival with its own (heterogeneous) switch probabilities.
            let vm = VmSpec::new(
                next_id,
                rng.gen_range(0.005..0.02),
                rng.gen_range(0.05..0.15),
                rng.gen_range(4.0..16.0),
                rng.gen_range(4.0..16.0),
            );
            next_id += 1;
            match cluster.arrive(vm) {
                Ok(_) => {
                    live.push(vm.id);
                    arrivals += 1;
                }
                Err(_) => rejections += 1,
            }
        } else {
            let idx = rng.gen_range(0..live.len());
            let id = live.swap_remove(idx);
            cluster.depart(id);
            departures += 1;
        }
    }
    println!(
        "after churn: {arrivals} arrivals, {departures} departures, \
         {rejections} rejections; {} VMs on {} PMs",
        cluster.n_vms(),
        cluster.pms_used()
    );

    // Recalibration names the hottest live class; no PM is re-priced, so
    // no incumbent can end up over-committed.
    if let Some((p_on, p_off)) = cluster.recalibrate() {
        println!("hottest live class: p_on = {p_on:.4}, p_off = {p_off:.4}");
    }
    cluster
        .check_consistency()
        .expect("cluster invariants hold");
    println!("cluster invariants verified");
}
