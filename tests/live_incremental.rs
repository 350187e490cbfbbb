//! Incremental migration costs what is dirty (ROADMAP item 2), asserted
//! from counts, never from a stopwatch.
//!
//! The destination's content index lives with its migration: a primary
//! session's handshake builds it by hashing the resident image, and a
//! session that carries an inherited bitmap hashes nothing and starts from
//! an index that knows nothing. So on an IM hop both sides read and hash
//! a number of blocks that depends on the bitmap and not on the disk, and
//! what the guest wrote crosses in full — a copy of a clean block
//! included, which only a hashed resident image could have named.
//!
//! Every hop here crosses a link paced at [`GIGABIT`]: a session
//! fingerprints only on a link whose bytes cost something (DESIGN.md §15,
//! "When fingerprinting runs"), and on the unpaced in-process link none of
//! this would run. The limiter's opening burst covers every image below,
//! so the pacing costs the file no wall time, and no count asserted here
//! depends on whether a batch then also crossed LZ-compressed.

use std::sync::Arc;

use block_bitmap_migration::migrate::live::{run_live, LiveConfig, LiveRun, SideWork, WorkLedger};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::telemetry::Event;
use block_bitmap_migration::vdisk::{stamp_bytes, DomainId, IoRequest};

const GUEST: DomainId = DomainId(1);
/// Blocks dirtied between the two hops; one batch of the default 256.
const DIRTY: usize = 128;

/// The paper's Gigabit LAN, bytes/second.
const GIGABIT: f64 = 125e6;

fn idle_cfg(num_blocks: usize) -> LiveConfig {
    LiveConfig {
        num_blocks,
        workload: WorkloadKind::Idle,
        mem_writes_per_tick: 0,
        rate_limit: Some(GIGABIT),
        telemetry: Recorder::enabled(),
        ..LiveConfig::test_default()
    }
}

/// Stamp of the image the tests start from (stamp 0 would make block 0
/// all zeroes, which a blank destination already holds); the guest's
/// writes use `BASE + 1`.
const BASE: u64 = 5;

/// A disk whose every block is written with content of its own, behind a
/// tracker that knows nothing about it yet.
fn image(cfg: &LiveConfig) -> Arc<TrackedDisk> {
    let disk = VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
    for b in 0..cfg.num_blocks {
        disk.write_block(b, &stamp_bytes(b, BASE, cfg.block_size));
    }
    Arc::new(TrackedDisk::new(Arc::new(disk)))
}

/// The same `DIRTY` blocks on any geometry of at least 4 096 blocks.
fn dirty_blocks() -> Vec<usize> {
    (0..DIRTY).map(|i| 7 + 31 * i).collect()
}

fn bitmap_of(num_blocks: usize, blocks: &[usize]) -> FlatBitmap {
    let mut bm = FlatBitmap::new(num_blocks);
    for &b in blocks {
        bm.set(b);
    }
    bm
}

/// `(fingerprints, hashed_blocks, cached_blocks)` of each session's
/// handshake, in order.
fn handshakes(cfg: &LiveConfig) -> Vec<(u64, u64, u64)> {
    cfg.telemetry
        .records()
        .iter()
        .filter_map(|r| match r.event {
            Event::HandshakeSummary {
                fingerprints,
                hashed_blocks,
                cached_blocks,
                ..
            } => Some((fingerprints, hashed_blocks, cached_blocks)),
            _ => None,
        })
        .collect()
}

fn total(work: &WorkLedger) -> u64 {
    work.src.blocks_read + work.src.blocks_hashed + work.dst.blocks_read + work.dst.blocks_hashed
}

#[test]
fn an_im_hop_reads_and_hashes_what_is_dirty_whatever_the_disk_holds() {
    let dirty = dirty_blocks();
    let run = |num_blocks: usize, incremental: bool| {
        let cfg = idle_cfg(num_blocks);
        let (src, dst) = (image(&cfg), image(&cfg));
        for &b in &dirty {
            src.disk()
                .write_block(b, &stamp_bytes(b, BASE + 1, cfg.block_size));
        }
        let bitmap = incremental.then(|| bitmap_of(num_blocks, &dirty));
        let out = run_live(
            &cfg,
            LiveRun {
                disks: Some((Arc::clone(&src), Arc::clone(&dst))),
                initial_bitmap: bitmap,
                ..LiveRun::default()
            },
        )
        .expect("migration completes");
        assert!(src.disk().content_equals(dst.disk()), "image not exact");
        (out, handshakes(&cfg))
    };

    // The IM hop, destination store fresh: nothing to summarise, nothing
    // hashed to find that out, and the work is the same on a disk 16
    // times the size.
    let (small, small_hs) = run(4_096, true);
    let (large, large_hs) = run(65_536, true);
    assert_eq!(small_hs, vec![(0, 0, 0)]);
    assert_eq!(large_hs, vec![(0, 0, 0)]);
    assert_eq!(small.iterations, vec![DIRTY as u64]);
    assert_eq!(large.iterations, vec![DIRTY as u64]);
    assert_eq!(small.work, large.work, "work depends on the disk's size");
    assert!(
        total(&small.work) <= 4 * DIRTY as u64,
        "{:?} for {DIRTY} dirty blocks",
        small.work
    );
    // Read once and hashed once where they leave, hashed once where they
    // land; nothing else on the disk is touched.
    let d = DIRTY as u64;
    assert_eq!(
        (small.work.src.blocks_read, small.work.src.blocks_hashed),
        (d, d)
    );
    assert_eq!(
        (small.work.dst.blocks_read, small.work.dst.blocks_hashed),
        (0, d)
    );

    // A primary session between the same disks is what it was: the
    // destination fingerprints every resident block, once, and the clean
    // blocks cross as references.
    for num_blocks in [4_096u64, 65_536] {
        let (out, hs) = run(num_blocks as usize, false);
        assert_eq!(hs, vec![(num_blocks, num_blocks, 0)]);
        assert_eq!(out.iterations, vec![num_blocks]);
        assert_eq!(out.wire.blocks_deduped, num_blocks - d);
        // The handshake, then one verification per reference and one
        // record per full block.
        assert_eq!(out.work.dst.blocks_hashed, 2 * num_blocks);
        assert_eq!(out.work.dst.blocks_read, 2 * num_blocks - d);
    }
}

#[test]
fn a_primary_handshake_counts_blocks_written_with_zeroes_as_hashed() {
    // The destination's allocation map says which blocks the handshake
    // must read: a block written with zeroes is one of them, though its
    // fingerprint is the one a never-written block is answered with.
    const ZEROED: usize = 64;
    let cfg = idle_cfg(4_096);
    let n = cfg.num_blocks as u64;
    let dst = VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
    for b in (0..ZEROED).map(|i| 3 + 61 * i) {
        dst.write_block(b, &vec![0u8; cfg.block_size]);
    }
    let (src, dst) = (image(&cfg), Arc::new(TrackedDisk::new(Arc::new(dst))));
    let out = run_live(
        &cfg,
        LiveRun {
            disks: Some((Arc::clone(&src), Arc::clone(&dst))),
            ..LiveRun::default()
        },
    )
    .expect("migration completes");
    assert!(src.disk().content_equals(dst.disk()), "image not exact");
    // One fingerprint (the zero block's), `ZEROED` blocks read and hashed
    // to learn it; then every block arrives full and is hashed to record.
    assert_eq!(handshakes(&cfg), vec![(1, ZEROED as u64, 0)]);
    assert_eq!(out.work.dst.blocks_read, ZEROED as u64);
    assert_eq!(out.work.dst.blocks_hashed, ZEROED as u64 + n);
}

#[test]
fn a_round_trip_ships_what_the_guest_wrote_in_full() {
    // A → B primary, then the guest writes at B: every fourth dirtied
    // block becomes a copy of a clean block, the rest get content of their
    // own. The writes go through the tracked path with a tracker attached,
    // so the bitmap is the hook's, not the test's.
    let cfg = idle_cfg(4_096);
    let a = image(&cfg);
    let b = Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::dense(
        cfg.block_size,
        cfg.num_blocks,
    ))));
    let first = run_live(
        &cfg,
        LiveRun {
            disks: Some((Arc::clone(&a), Arc::clone(&b))),
            ..LiveRun::default()
        },
    )
    .expect("primary hop completes");
    assert!(a.disk().content_equals(b.disk()));
    assert_eq!(first.wire.blocks_deduped, 0, "every block is its own");

    let tracker = Arc::new(AtomicBitmap::new(cfg.num_blocks));
    let handle = b.attach_tracker(Arc::clone(&tracker), Some(GUEST));
    b.enable_tracking();
    for (i, &d) in dirty_blocks().iter().enumerate() {
        let data = if i % 4 == 0 {
            // A clean block well away from the dirtied ones.
            b.disk().read_block(d + 11)
        } else {
            stamp_bytes(d, BASE + 1, cfg.block_size)
        };
        b.submit(IoRequest::write(d, GUEST), Some(&data));
    }
    b.disable_tracking();
    b.detach_tracker(handle);
    let bitmap = tracker.snapshot();
    assert_eq!(bitmap.to_indices(), dirty_blocks());

    // B → A with the inherited bitmap, in the same process. The handshake
    // hashes nothing and summarises nothing, so the copies cannot be
    // named as content A holds: every dirty block crosses in full, is
    // read and hashed once where it leaves and hashed once where it
    // lands, and nothing else on either disk is touched.
    let back = idle_cfg(4_096);
    let out = run_live(
        &back,
        LiveRun {
            disks: Some((Arc::clone(&b), Arc::clone(&a))),
            initial_bitmap: Some(bitmap),
            ..LiveRun::default()
        },
    )
    .expect("IM hop completes");
    assert!(b.disk().content_equals(a.disk()), "image not exact");
    assert_eq!(handshakes(&back), vec![(0, 0, 0)]);
    let d = DIRTY as u64;
    assert_eq!(out.iterations, vec![d]);
    assert_eq!(out.wire.blocks_deduped, 0);
    assert_eq!(out.wire.bytes_raw, d * back.block_size as u64);
    let (src, dst) = (out.work.src, out.work.dst);
    assert_eq!((src.blocks_read, src.blocks_hashed), (d, d));
    assert_eq!(
        dst,
        SideWork {
            blocks_read: 0,
            blocks_hashed: d
        }
    );
}

#[test]
fn a_web_guest_round_trip_lands_exact_under_a_writing_guest() {
    // Both hops run with the guest writing: post-copy arrivals and the
    // guest's own writes at the destination race, and the hop back ships
    // the bitmap those writes left. Every read the guest makes sees the
    // newest content, and where the two images differ at the end the
    // guest wrote the block at A after it resumed there.
    let cfg = LiveConfig {
        num_blocks: 16_384,
        min_guest_ticks: 20,
        rate_limit: Some(GIGABIT),
        telemetry: Recorder::enabled(),
        ..LiveConfig::test_default()
    };
    let first = run_live(&cfg, LiveRun::default()).expect("primary hop completes");
    assert_eq!(first.read_violations, 0);
    assert!(first.inconsistent_blocks().is_empty());
    let (a, b) = (Arc::clone(&first.src_disk), Arc::clone(&first.dst_disk));

    let mut bitmap = first.new_bitmap.clone();
    for blk in b.disk().diff_blocks(a.disk()) {
        bitmap.set(blk);
    }
    let back = LiveConfig {
        seed: cfg.seed + 100,
        telemetry: Recorder::enabled(),
        ..cfg.clone()
    };
    let out = run_live(
        &back,
        LiveRun {
            disks: Some((Arc::clone(&b), Arc::clone(&a))),
            initial_bitmap: Some(bitmap),
            ..LiveRun::default()
        },
    )
    .expect("IM hop completes");
    assert_eq!(out.read_violations, 0);
    assert!(b
        .disk()
        .diff_blocks(a.disk())
        .into_iter()
        .all(|blk| out.new_bitmap.get(blk)));
    // The handshake hashed nothing; the destination then hashed what
    // arrived, at most twice over (a reference that bounces is verified,
    // then re-sent in full).
    assert_eq!(handshakes(&back), vec![(0, 0, 0)]);
    let shipped: u64 = out.iterations.iter().sum();
    assert!(
        out.work.dst.blocks_hashed <= 2 * shipped,
        "{:?} for {shipped} blocks shipped",
        out.work
    );
}
