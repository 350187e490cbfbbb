//! Downtime as an invariant on a slow link (ROADMAP 6d).
//!
//! The frozen memory tail is the one freeze payload whose size follows
//! the guest, so on a paced link downtime is tail bytes ÷ rate. The tail
//! crosses as compressed page frames, not as pages: downtime follows the
//! compressed bytes. A file of its own because the bound is wall-clock:
//! tests of one binary run in parallel, and `live_backpressure`'s
//! 50 ms downtime ceiling should not share CPUs with this one's LZ work.

use std::time::Duration;

use block_bitmap_migration::migrate::live::{run_live, LiveConfig, LiveRun};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::simnet::proto::Category;

#[test]
fn paced_link_downtime_follows_compressed_tail_bytes_not_pages() {
    // Idle disk, busy RAM, one memory pass: whatever the guest dirties
    // during that pass and the 60 ticks before the suspend is the frozen
    // tail — most of the 512 pages — and the link runs at 10 MiB/s.
    const RATE: f64 = 10.0 * 1024.0 * 1024.0;
    let cfg = LiveConfig {
        num_blocks: 4_096,
        workload: WorkloadKind::Idle,
        mem_pages: 512,
        mem_page_size: 4_096,
        mem_writes_per_tick: 64,
        max_mem_iterations: 1,
        min_guest_ticks: 60,
        rate_limit: Some(RATE),
        ..LiveConfig::test_default()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("paced migration completes");
    assert_eq!(out.read_violations, 0, "guest observed stale data");
    assert!(
        out.inconsistent_blocks().is_empty(),
        "image not block-exact"
    );
    assert!(out.inconsistent_pages().is_empty(), "RAM not page-exact");
    assert!(
        out.frozen_mem_dirty >= 100,
        "the geometry must leave a real frozen tail, got {} pages",
        out.frozen_mem_dirty
    );
    let raw_tail = out.frozen_mem_dirty * cfg.mem_page_size as u64;
    // Every memory byte of the run — the full first pass *and* the tail
    // — is under a quarter of what the tail alone weighs raw, so the
    // freeze phase's share certainly is.
    let memory = out.src_ledger.get(Category::Memory);
    assert!(
        memory * 4 <= raw_tail,
        "{memory} memory bytes on the wire for a raw tail of {raw_tail}"
    );
    // And the guest was down for less than the raw tail alone would have
    // occupied the link, whatever else the freeze had to send.
    let raw_tail_time = Duration::from_secs_f64(raw_tail as f64 / RATE);
    assert!(
        out.downtime < raw_tail_time,
        "downtime {:?} with a frozen tail worth {raw_tail_time:?} of raw pages at link rate",
        out.downtime
    );
}
