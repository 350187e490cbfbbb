//! Live-mode demonstration: a *real* multi-threaded migration with real
//! bytes, not a simulation.
//!
//! Three threads run concurrently: the guest driver (writing stamped
//! blocks through the intercepting disk), the source protocol (pre-copy
//! iterations, freeze, post-copy push), and the destination protocol
//! (apply, pull, drop). Afterwards every destination block is verified
//! against the guest's own ground-truth write log.
//!
//! ```text
//! cargo run --release --example live_demo
//! cargo run --release --example live_demo -- --trace-out /tmp/journal.jsonl
//! ```
//!
//! With `--trace-out FILE` the run records a telemetry journal: every
//! phase transition, pre-copy iteration, and post-copy block event lands
//! in FILE as JSONL, and a phase summary reconstructed *from the journal*
//! is printed alongside the engine's own numbers.

use block_bitmap_migration::prelude::*;

fn main() {
    let trace_out = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.as_slice() {
            [] => None,
            [flag, path] if flag == "--trace-out" => Some(path.clone()),
            _ => {
                eprintln!("usage: live_demo [--trace-out FILE]");
                std::process::exit(2);
            }
        }
    };
    let cfg = LiveConfig {
        num_blocks: 65_536, // 32 MiB of real bytes at 512 B blocks
        telemetry: if trace_out.is_some() {
            Recorder::enabled()
        } else {
            Recorder::off()
        },
        ..LiveConfig::test_default()
    };
    println!(
        "Live migration: {} blocks x {} B, workload={:?}, {} max iterations\n",
        cfg.num_blocks, cfg.block_size, cfg.workload, cfg.max_iterations
    );

    let out = run_live(&cfg, LiveRun::default()).expect("live migration completes");

    if let Some(path) = &trace_out {
        let records = cfg.telemetry.export();
        std::fs::write(path, block_bitmap_migration::telemetry::to_jsonl(&records))
            .expect("journal written");
        println!("telemetry journal: {} records -> {path}", records.len());
        print!("{}", out.fold.summary());
        println!();
    }

    println!("disk pre-copy iterations (blocks): {:?}", out.iterations);
    println!(
        "memory pre-copy iterations (pages):{:?}",
        out.mem_iterations
    );
    println!(
        "freeze-phase dirty blocks/pages:   {} / {}",
        out.frozen_dirty, out.frozen_mem_dirty
    );
    println!(
        "post-copy: {} pushed, {} pulled, {} dropped, {} reads stalled",
        out.pushed, out.pulled, out.dropped, out.stalled_reads
    );
    println!(
        "downtime: {:?} of {:?} total ({:.1} %)",
        out.downtime,
        out.total,
        100.0 * out.downtime.as_secs_f64() / out.total.as_secs_f64()
    );
    println!(
        "source sent {:.1} MB ({} bytes of bitmap)",
        out.src_ledger.total() as f64 / 1048576.0,
        out.src_ledger
            .get(block_bitmap_migration::simnet::proto::Category::Bitmap),
    );

    let bad = out.inconsistent_blocks();
    let bad_pages = out.inconsistent_pages();
    println!(
        "\nground-truth verification: {} / {} blocks and {} / {} RAM pages correct, {} read violations",
        cfg.num_blocks - bad.len(),
        cfg.num_blocks,
        cfg.mem_pages - bad_pages.len(),
        cfg.mem_pages,
        out.read_violations
    );
    assert!(bad.is_empty(), "inconsistent blocks: {bad:?}");
    assert!(bad_pages.is_empty(), "inconsistent pages: {bad_pages:?}");
    assert_eq!(out.read_violations, 0);
    println!(
        "destination disk AND RAM are byte-identical to the guest's view — migration correct."
    );
}
