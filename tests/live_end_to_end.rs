//! Live (threaded) migration end-to-end tests: real bytes, real
//! concurrency, ground-truth verification against the guest's own write
//! log.

use block_bitmap_migration::des;
use block_bitmap_migration::migrate::live::{run_live, LiveConfig, LiveRun};
use block_bitmap_migration::prelude::*;
use std::sync::Arc;

/// The paper's Gigabit LAN, bytes/second: the link of the two tests below
/// that compare content-aware savings. An unpaced link, in-process or
/// same-host socket, is free and uses neither dedup nor LZ.
const GIGABIT: f64 = 125e6;

fn base_cfg() -> LiveConfig {
    LiveConfig {
        num_blocks: 16_384,
        ..LiveConfig::test_default()
    }
}

fn assert_fully_consistent(out: &block_bitmap_migration::migrate::live::LiveOutcome) {
    assert_eq!(out.read_violations, 0, "guest observed stale data");
    let bad = out.inconsistent_blocks();
    assert!(
        bad.is_empty(),
        "{} inconsistent blocks (first: {:?})",
        bad.len(),
        bad.first()
    );
}

#[test]
fn live_web_workload_consistent() {
    let out = run_live(&base_cfg(), LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&out);
    assert_eq!(out.iterations[0], 16_384, "first pass ships the whole disk");
    assert_eq!(out.reconnects, 0, "clean transport needs no recovery");
}

#[test]
fn live_video_workload_consistent() {
    let cfg = LiveConfig {
        workload: WorkloadKind::Video,
        seed: 11,
        ..base_cfg()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&out);
}

#[test]
fn live_diabolical_workload_consistent() {
    // The I/O storm: many iterations, many dirty blocks at freeze, and
    // post-resume reads that race with pushes (pull path exercised).
    let cfg = LiveConfig {
        workload: WorkloadKind::Diabolical,
        dt_per_tick: des::SimDuration::from_millis(100),
        max_iterations: 4,
        // Slow the wire so the guest gets plenty of ticks to dirty blocks
        // during pre-copy (~0.5 s of migration wall time).
        rate_limit: Some(24.0 * 1024.0 * 1024.0),
        seed: 13,
        // Deterministic de-flake: guarantee the guest completes ticks
        // between disk pre-copy convergence and suspend, so the storm
        // demonstrably leaves dirty blocks in the freeze bitmap even when
        // parallel test load starves the driver thread.
        min_guest_ticks: 10,
        ..base_cfg()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&out);
    assert!(
        out.pushed + out.pulled + out.dropped >= out.frozen_dirty,
        "every frozen-dirty block must be pushed, pulled or superseded"
    );
    assert!(
        out.frozen_dirty > 0,
        "the storm must leave dirty blocks at freeze"
    );
}

#[test]
fn live_rate_limited_consistent() {
    let cfg = LiveConfig {
        rate_limit: Some(32.0 * 1024.0 * 1024.0),
        seed: 17,
        ..base_cfg()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&out);
}

#[test]
fn live_idle_guest_single_iteration() {
    let cfg = LiveConfig {
        workload: WorkloadKind::Idle,
        num_blocks: 8_192,
        ..base_cfg()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&out);
    assert_eq!(
        out.iterations.len(),
        1,
        "an idle guest converges immediately"
    );
    assert_eq!(out.frozen_dirty, 0);
    assert_eq!(out.pushed + out.pulled, 0);
}

#[test]
fn live_im_roundtrip() {
    let cfg = base_cfg();
    let first = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&first);

    // Migrate back: only blocks dirtied since the primary migration (the
    // destination's new-write bitmap, plus any still-divergent blocks)
    // need to move.
    let mut im_bitmap = first.new_bitmap.clone();
    let src_back = Arc::clone(&first.dst_disk);
    let dst_back = Arc::clone(&first.src_disk);
    for b in src_back.disk().diff_blocks(dst_back.disk()) {
        im_bitmap.set(b);
    }
    let cfg_back = LiveConfig {
        seed: cfg.seed + 100,
        ..cfg.clone()
    };
    let out = run_live(
        &cfg_back,
        LiveRun {
            disks: Some((src_back, dst_back)),
            initial_bitmap: Some(im_bitmap.clone()),
            ..LiveRun::default()
        },
    )
    .expect("IM migration completes");
    assert_eq!(out.read_violations, 0);
    assert_eq!(
        out.iterations[0],
        im_bitmap.count_ones() as u64,
        "IM's first pass ships exactly the inherited bitmap"
    );
    assert!(
        (out.iterations[0] as usize) < cfg.num_blocks / 2,
        "IM must move far less than the whole disk"
    );
    // After the back-migration, the disks agree except where its own
    // guest wrote post-resume.
    let diffs = out.src_disk.disk().diff_blocks(out.dst_disk.disk());
    assert!(diffs.into_iter().all(|b| out.new_bitmap.get(b)));
}

#[test]
fn live_migration_ships_bitmap_not_blocks_in_freeze() {
    // The defining trick of the paper: the freeze phase carries the
    // bitmap (bytes), never the dirty blocks themselves.
    let out = run_live(&base_cfg(), LiveRun::default()).expect("migration completes");
    let bitmap_bytes = out
        .src_ledger
        .get(block_bitmap_migration::simnet::proto::Category::Bitmap);
    assert!(bitmap_bytes > 0, "a bitmap must cross during freeze");
    assert!(
        bitmap_bytes < 64 * 1024,
        "the bitmap must be small ({} bytes)",
        bitmap_bytes
    );
}

#[test]
fn live_migration_over_real_tcp_sockets() {
    // The same protocol, framed through simnet::codec over actual
    // loopback TCP — process-boundary-ready.
    let cfg = LiveConfig {
        num_blocks: 16_384,
        seed: 23,
        // Unpaced, both ends of this socket are one host, its bytes are
        // free and the content-aware path stays off.
        rate_limit: Some(GIGABIT),
        ..LiveConfig::test_default()
    };
    let out = run_live(
        &cfg,
        LiveRun {
            tcp: true,
            ..LiveRun::default()
        },
    )
    .expect("tcp migration completes");
    assert_fully_consistent(&out);
    assert_eq!(out.iterations[0], 16_384);
    // Every block's raw content was read and shipped in some form; with
    // the default dedup+compression the bytes that actually crossed the
    // socket are fewer than the raw image.
    assert!(out.wire.bytes_raw >= (16_384 * 512) as u64);
    assert!(
        out.wire.bytes_sent < out.wire.bytes_raw,
        "wire savings expected: sent {} raw {}",
        out.wire.bytes_sent,
        out.wire.bytes_raw
    );
    assert!(out.src_ledger.total() > 0);
}

#[test]
fn live_memory_migrates_byte_exactly() {
    // Whole-system: the guest dirties RAM pages throughout; after
    // migration the destination RAM must hold exactly the guest's last
    // write to every page (or the initial image).
    let cfg = LiveConfig {
        num_blocks: 16_384,
        mem_pages: 4_096,
        mem_writes_per_tick: 16,
        // Slow the wire so the guest demonstrably dirties pages while the
        // memory pre-copy is in flight.
        rate_limit: Some(16.0 * 1024.0 * 1024.0),
        seed: 31,
        ..LiveConfig::test_default()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_fully_consistent(&out);
    assert!(!out.mem_iterations.is_empty(), "memory pre-copy must run");
    assert_eq!(
        out.mem_iterations[0], 4_096,
        "first memory pass ships all pages"
    );
    assert!(
        out.mem_iterations.len() > 1 || out.frozen_mem_dirty > 0,
        "a dirtying guest must force memory iterations or a freeze tail"
    );
    let bad_pages = out.inconsistent_pages();
    assert!(
        bad_pages.is_empty(),
        "{} inconsistent RAM pages (first: {:?})",
        bad_pages.len(),
        bad_pages.first()
    );
}

#[test]
fn ram_follows_the_compress_agreement_and_no_compress_is_raw_page_frames() {
    use block_bitmap_migration::simnet::proto::{Category, FRAME_OVERHEAD};
    // An idle guest dirties nothing: RAM crosses exactly once, in
    // `mem_pages / mem_batch` frames.
    let cfg = LiveConfig {
        workload: WorkloadKind::Idle,
        num_blocks: 4_096,
        mem_pages: 512,
        mem_page_size: 4_096,
        mem_writes_per_tick: 0,
        ..LiveConfig::test_default()
    };
    let raw_ram = (cfg.mem_pages * cfg.mem_page_size) as u64;
    let frames = (cfg.mem_pages / cfg.mem_batch) as u64;

    // Without compression every frame is a `MemPages` of 8 B per index
    // plus the pages themselves. A `CompressedPages` frame is only ever
    // sent when it is smaller, so equality to the byte also says none was.
    // (Paced like the run it is compared with below, so that both
    // fingerprint: a free link would use neither LZ nor dedup.)
    let plain = run_live(
        &LiveConfig {
            compress: false,
            rate_limit: Some(GIGABIT),
            ..cfg.clone()
        },
        LiveRun::default(),
    )
    .expect("migration completes");
    assert_fully_consistent(&plain);
    assert!(plain.inconsistent_pages().is_empty());
    assert_eq!(plain.mem_iterations, vec![cfg.mem_pages as u64]);
    assert_eq!(
        plain.src_ledger.get(Category::Memory),
        frames * FRAME_OVERHEAD + 8 * cfg.mem_pages as u64 + raw_ram
    );
    assert_eq!(plain.wire.pages_compressed, 0);
    assert_eq!(plain.wire.page_bytes_sent, raw_ram);

    // With it, on a link slow enough to pay for LZ (477 ns a byte against
    // the few LZ takes: no preemption inside a sample flips a batch), the
    // same RAM is a fraction of that, and the saving is booked as page
    // traffic, not as block traffic. What the agreement means on a link
    // that does not pay is tests/live_adaptive_codec.rs.
    let packed = run_live(
        &LiveConfig {
            rate_limit: Some(2.0 * 1024.0 * 1024.0),
            ..cfg.clone()
        },
        LiveRun::default(),
    )
    .expect("migration completes");
    assert_fully_consistent(&packed);
    assert!(packed.inconsistent_pages().is_empty());
    assert_eq!(packed.wire.pages_compressed, cfg.mem_pages as u64);
    assert_eq!(packed.wire.page_bytes_raw, raw_ram);
    assert_eq!(
        packed.src_ledger.get(Category::Memory),
        frames * FRAME_OVERHEAD + 8 * cfg.mem_pages as u64 + packed.wire.page_bytes_sent
    );
    assert!(packed.wire.page_bytes_sent * 4 < raw_ram);
    assert_eq!(packed.wire.bytes_raw, plain.wire.bytes_raw);
    assert_eq!(packed.wire.blocks_deduped, plain.wire.blocks_deduped);
}

#[test]
fn live_memory_over_tcp() {
    let cfg = LiveConfig {
        num_blocks: 16_384,
        mem_pages: 2_048,
        mem_writes_per_tick: 8,
        seed: 37,
        ..LiveConfig::test_default()
    };
    let out = run_live(
        &cfg,
        LiveRun {
            tcp: true,
            ..LiveRun::default()
        },
    )
    .expect("tcp migration completes");
    assert_fully_consistent(&out);
    assert!(out.inconsistent_pages().is_empty());
}

#[test]
fn concurrent_live_migrations_do_not_interfere() {
    // Two independent whole-system migrations running simultaneously on
    // separate thread sets — a basic thread-safety stress for the whole
    // stack (disks, bitmaps, transports, drivers).
    let mk = |seed: u64, kind: WorkloadKind| LiveConfig {
        num_blocks: 16_384,
        workload: kind,
        seed,
        ..LiveConfig::test_default()
    };
    let a = std::thread::spawn(move || {
        run_live(&mk(101, WorkloadKind::Web), LiveRun::default()).expect("migration A completes")
    });
    let b = std::thread::spawn(move || {
        run_live(&mk(202, WorkloadKind::Video), LiveRun::default()).expect("migration B completes")
    });
    let out_a = a.join().expect("migration A panicked");
    let out_b = b.join().expect("migration B panicked");
    assert_fully_consistent(&out_a);
    assert_fully_consistent(&out_b);
    assert!(out_a.inconsistent_pages().is_empty());
    assert!(out_b.inconsistent_pages().is_empty());
}

#[test]
fn cow_overlay_seeds_a_collective_style_live_migration() {
    // A guest on a CoW disk over a shared base image: the overlay bitmap
    // is exactly the IM-style initial set — only diverged blocks cross.
    use block_bitmap_migration::vdisk::{CowStorage, DenseStorage, Storage};
    let blocks = 16_384usize;
    let mut base = DenseStorage::new(512, blocks);
    for b in 0..blocks {
        base.write_block(b, &vdisk_stamp(b, 0));
    }
    let base: block_bitmap_migration::vdisk::BaseImage = Arc::new(base);

    // Source guest ran on a CoW overlay and diverged on 200 blocks.
    let mut cow = CowStorage::new(Arc::clone(&base));
    for b in (0..200).map(|i| i * 80) {
        cow.write_block(b, &vdisk_stamp(b, 0)); // same stamp-0 content: the
                                                // *bitmap*, not content, drives the transfer set
    }
    let diff = cow.overlay_blocks();
    let src = Arc::new(TrackedDisk::new(Arc::new(
        block_bitmap_migration::vdisk::VirtualDisk::new(Box::new(cow)),
    )));
    // Destination holds the same base image (that is the Collective's
    // premise).
    let dst_cow = CowStorage::new(base);
    let dst = Arc::new(TrackedDisk::new(Arc::new(
        block_bitmap_migration::vdisk::VirtualDisk::new(Box::new(dst_cow)),
    )));

    let cfg = LiveConfig {
        num_blocks: blocks,
        seed: 77,
        ..LiveConfig::test_default()
    };
    let out = run_live(
        &cfg,
        LiveRun {
            disks: Some((src, dst)),
            initial_bitmap: Some(diff.clone()),
            ..LiveRun::default()
        },
    )
    .expect("CoW-seeded migration completes");
    assert_eq!(out.read_violations, 0);
    assert_eq!(
        out.iterations[0],
        diff.count_ones() as u64,
        "first pass ships exactly the CoW diff"
    );
    assert!(out.inconsistent_blocks().is_empty());
}

fn vdisk_stamp(block: usize, stamp: u64) -> Vec<u8> {
    block_bitmap_migration::vdisk::stamp_bytes(block, stamp, 512)
}

use block_bitmap_migration::vdisk::TrackedDisk;
