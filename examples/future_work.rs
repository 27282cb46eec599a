//! The paper's §5 future-work list, executed: inter-node measurements,
//! CPU-vendor comparison, and MPI-implementation comparison.
//!
//! ```text
//! cargo run --release --example future_work
//! ```

use doebench::{studies, Campaign};

fn main() {
    let campaign = Campaign::quick();

    // Future work 1: inter-node latency/bandwidth, contention, collectives.
    println!("{}", studies::internode_latency_table(1).to_ascii());
    println!("\"There goes the neighborhood\" (Bhatele et al. [20]):");
    for (flows, bw) in studies::contention_series(2, 7) {
        let bar = "#".repeat((bw / 1.2) as usize);
        println!("  {flows} flows | {bw:>6.2} GB/s {bar}");
    }
    println!();
    println!("{}", studies::internode_collectives_table(4).to_ascii());

    // Future work 3: Intel vs AMD vs Arm design points.
    println!("{}", studies::cpu_vendor_table(&campaign).to_ascii());

    // Future work 4: MPI implementations on one machine (cf. [26]).
    let t = studies::mpi_variant_table("Summit", &campaign).expect("Summit exists");
    println!("{}", t.to_ascii());
    println!("(same hardware, 4 software stacks: the [26] effect)");
}
