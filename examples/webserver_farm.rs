//! A web-server farm under flash crowds — the paper's §V-D scenario.
//!
//! Each VM is a web server visited by a user population (Table I size
//! classes). Users think for `max(0.1 s, Exp(1 s))` between requests; a
//! flash crowd (the ON state) triples the population. We consolidate the
//! farm with each scheme and watch migrations, PM usage and the actual
//! request traffic of one server.
//!
//! ```text
//! cargo run --example webserver_farm --release
//! ```

use bursty_core::markov::OnOffChain;
use bursty_core::metrics::plot::ascii_series;
use bursty_core::prelude::*;
use bursty_core::workload::WebServerWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- Part 1: what one server's traffic actually looks like. ---------
    let chain = OnOffChain::new(0.05, 0.09);
    let server = WebServerWorkload::new(
        SizeClass::Medium.users(),
        SizeClass::Medium.users() + SizeClass::Large.users(),
        chain,
    );
    let mut rng = StdRng::seed_from_u64(1);
    let trace = server.generate_trace(300, 1.0, &mut rng);
    let series: Vec<f64> = trace.iter().map(|&(_, r)| r as f64).collect();
    println!("One medium web server (800 users, flash crowds to 2400), requests/s:");
    println!("{}", ascii_series(&series, 90, 8));

    // --- Part 2: consolidating a farm of 150 such servers. --------------
    let pattern = WorkloadPattern::LargeSpike; // flash crowds: R_e > R_b
    let mut gen = FleetGenerator::new(99);
    let vms = gen.vms_table_i(150, pattern);
    let pms = gen.pms(450);

    println!("Farm: 150 web servers, pattern {pattern}, 10 replications each:\n");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "scheme", "migrations", "final PMs", "mean CVR", "energy kWh"
    );
    for scheme in [Scheme::Queue, Scheme::Rb, Scheme::RbEx] {
        let consolidator = Consolidator::new(scheme);
        let outcomes = replicate(10, 5000, |seed| {
            let cfg = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let (_, out) = consolidator
                .evaluate(&vms, &pms, cfg)
                .expect("pool suffices");
            out
        });
        let migrations = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.total_migrations() as f64)
                .collect::<Vec<_>>(),
        );
        let final_pms = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.final_pms_used as f64)
                .collect::<Vec<_>>(),
        );
        let cvr = Summary::of(
            &outcomes
                .iter()
                .map(SimOutcome::mean_cvr)
                .collect::<Vec<_>>(),
        );
        let energy = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.energy_joules / 3.6e6)
                .collect::<Vec<_>>(),
        );
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12}",
            scheme.label(),
            format!("{:.1}", migrations.mean),
            format!("{:.1}", final_pms.mean),
            format!("{:.4}", cvr.mean),
            format!("{:.2}", energy.mean),
        );
    }
    println!(
        "\nShape check (paper Fig. 9, R_b < R_e): RB migrates an order of\n\
         magnitude more than QUEUE; RB-EX sits in between; QUEUE's CVR\n\
         stays near ρ = 0.01 while RB's packing melts down."
    );
}
