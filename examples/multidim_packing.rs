//! Multi-dimensional consolidation (§IV-E): CPU and memory packed with
//! per-dimension queuing reservation, versus projecting correlated
//! dimensions to one scalar.
//!
//! ```text
//! cargo run --example multidim_packing --release
//! ```

use bursty_core::placement::multidim::{first_fit_multidim, MultiDimPmSpec};
use bursty_core::prelude::*;
use bursty_core::workload::multidim::{MultiDimVmSpec, ResourceVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(11);

    // 80 VMs with independent CPU/memory demands: dimension 0 = CPU,
    // dimension 1 = memory.
    let vms: Vec<MultiDimVmSpec> = (0..80)
        .map(|id| {
            MultiDimVmSpec::new(
                id,
                0.01,
                0.09,
                ResourceVec::new(vec![rng.gen_range(2.0..12.0), rng.gen_range(4.0..16.0)]),
                ResourceVec::new(vec![rng.gen_range(2.0..12.0), rng.gen_range(4.0..16.0)]),
            )
        })
        .collect();
    let pms: Vec<MultiDimPmSpec> = (0..80)
        .map(|id| MultiDimPmSpec {
            id,
            capacity: ResourceVec::new(vec![64.0, 96.0]),
        })
        .collect();

    // Route 1 (uncorrelated dimensions): per-dimension reservation + FF,
    // each dimension priced by the QUEUE rule (Eq. 17 at the PM's hottest
    // chain, floored at the pair the strategy is built with).
    let strategy = QueueStrategy::build(16, 0.01, 0.09, 0.01);
    let placement = first_fit_multidim(&vms, &pms, &strategy).expect("pool suffices");
    println!(
        "per-dimension reservation: {} PMs for {} VMs",
        placement.pms_used(),
        vms.len()
    );

    // Route 2 (correlated dimensions): project to one scalar and reuse the
    // full Algorithm-2 pipeline. Weights normalize each dimension by the
    // PM capacity so both contribute equally.
    let weights = [1.0 / 64.0, 1.0 / 96.0];
    let scalar_vms: Vec<VmSpec> = vms.iter().map(|v| v.project(&weights)).collect();
    let scalar_pms: Vec<PmSpec> = pms
        .iter()
        .map(|p| PmSpec::new(p.id, p.capacity.project(&weights)))
        .collect();
    let scalar_placement = Consolidator::new(Scheme::Queue)
        .place(&scalar_vms, &scalar_pms)
        .expect("pool suffices");
    println!(
        "projected-scalar QueuingFFD: {} PMs (bound is optimistic — a \n\
         scalar fit can hide per-dimension overflow, which is why the paper \n\
         reserves per dimension when resources are uncorrelated)",
        scalar_placement.pms_used()
    );

    // Peak-provisioning reference in the bottleneck dimension.
    let peak_placement = Consolidator::new(Scheme::Rp)
        .place(&scalar_vms, &scalar_pms)
        .expect("pool suffices");
    println!(
        "projected-scalar FFD by R_p: {} PMs",
        peak_placement.pms_used()
    );
}
