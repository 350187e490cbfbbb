//! Multi-site migration tour (§VII future work, implemented): a VM hops
//! among several machines, and *storage version maintenance* — the fleet
//! orchestrator's replica table — makes every hop to a previously-visited
//! machine incremental.
//!
//! ```text
//! cargo run --release --example datacenter_tour
//! ```

use bench_suite::experiments::futurework::multisite_tour;
use block_bitmap_migration::prelude::*;

fn main() {
    let cfg = MigrationConfig::paper_testbed();
    // From rack 0: two first visits, then three revisits, 15 minutes of
    // guest writes before each hop after the first.
    let route = [1, 2, 0, 1, 2];
    let hops = multisite_tour(
        cfg.disk_blocks,
        cfg.mem_pages,
        &route,
        SimDuration::from_secs(900),
    );

    println!(
        "{:<28} {:>20} {:>11} {:>11}",
        "hop", "first pass (blocks)", "total (s)", "data (MB)"
    );
    for r in &hops {
        println!(
            "{:<28} {:>20} {:>11.1} {:>11.0}",
            format!("rack-{} -> rack-{}", r.src, r.dst),
            r.first_pass_blocks,
            r.total_secs(),
            r.bytes as f64 / 1048576.0
        );
    }

    println!(
        "\nOnce every machine holds a (stale) copy, the VM roams the cluster in\n\
         seconds per hop instead of minutes — the paper's §VII vision."
    );
}
