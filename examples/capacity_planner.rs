//! A capacity-planning what-if tool built on Algorithm 1 (MapCal).
//!
//! For an operator deciding how aggressively to consolidate: given the
//! fleet's burstiness (`p_on`, `p_off`) and an SLA violation budget `ρ`,
//! print how many spike blocks a PM must reserve per co-location level,
//! the implied CVR, and the capacity a PM needs for k identical VMs.
//!
//! ```text
//! cargo run --example capacity_planner --release
//! ```

use bursty_core::markov::AggregateChain;
use bursty_core::metrics::Table;
use bursty_core::prelude::*;

fn main() {
    let (p_on, p_off) = (0.01, 0.09);
    let on_fraction = p_on / (p_on + p_off);
    println!(
        "fleet burstiness: p_on = {p_on}, p_off = {p_off} \
         (ON {:.0}% of the time; mean spike length {:.1} periods)\n",
        on_fraction * 100.0,
        1.0 / p_off
    );

    // Reservation table across SLA budgets.
    let rhos = [0.001, 0.01, 0.05];
    let mut table = Table::new(&[
        "k",
        "blocks @ rho=0.1%",
        "@ 1%",
        "@ 5%",
        "CVR @ 1% blocks",
        "saved vs peak",
    ]);
    for k in [1usize, 2, 4, 8, 12, 16, 24, 32] {
        let chain = AggregateChain::new(k, p_on, p_off);
        let blocks: Vec<usize> = rhos.iter().map(|&r| chain.blocks_needed(r)).collect();
        let cvr = chain.cvr_with_blocks(blocks[1]);
        table.row(&[
            k.to_string(),
            blocks[0].to_string(),
            blocks[1].to_string(),
            blocks[2].to_string(),
            format!("{cvr:.5}"),
            format!("{}", k - blocks[1]),
        ]);
    }
    println!("{}", table.render());

    // What does that mean in capacity terms? k identical VMs
    // (R_b = R_e = 10) on one PM:
    println!("capacity needed for k identical VMs (R_b = R_e = 10), rho = 1%:");
    let mapping = MappingTable::build(32, p_on, p_off, 0.01);
    let mut table = Table::new(&["k", "peak provisioning", "QUEUE reservation", "normal only"]);
    for k in [4usize, 8, 16, 32] {
        let peak = 20.0 * k as f64;
        let queue = 10.0 * k as f64 + 10.0 * mapping.blocks_for(k) as f64;
        let base = 10.0 * k as f64;
        table.row(&[
            k.to_string(),
            format!("{peak:.0}"),
            format!("{queue:.0} ({:.0}% of peak)", queue / peak * 100.0),
            format!("{base:.0}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading: the QUEUE column is the provable sweet spot — every PM\n\
         tolerates spikes with probability ≥ 99% per period, at a fraction\n\
         of peak provisioning's footprint."
    );
}
