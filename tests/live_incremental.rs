//! Incremental migration costs what is dirty (ROADMAP item 2), asserted
//! from counts, never from a stopwatch.
//!
//! Fingerprints live with the disk (`TrackedDisk::content_index`): every
//! hash a migration computes is recorded there, every write nobody hashed
//! invalidates its block on the path that sets the block-bitmap bit, and a
//! session that carries an inherited bitmap answers its dedup handshake
//! from that store alone. So on an IM hop both sides read and hash a
//! number of blocks that depends on the bitmap and not on the disk; the
//! resident-content dedup a full handshake bought is kept wherever the
//! previous hop left fingerprints behind; and a store that is wrong — on
//! purpose here — costs `BlockRefMiss` bounces, never a block of the
//! image.
//!
//! Every hop here crosses a link paced at [`GIGABIT`]: a session
//! fingerprints only on a link whose bytes cost something (DESIGN.md §15,
//! "When fingerprinting runs"), and on the unpaced in-process link none of
//! this would run. The limiter's opening burst covers every image below,
//! so the pacing costs the file no wall time, and no count asserted here
//! depends on whether a batch then also crossed LZ-compressed.

use std::sync::Arc;

use block_bitmap_migration::migrate::live::{
    run_live, LiveConfig, LiveOutcome, LiveRun, WorkLedger,
};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::telemetry::Event;
use block_bitmap_migration::vdisk::{hash_block, stamp_bytes, DomainId, IoRequest};

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

/// Every fingerprint the disk's store holds is the true one.
fn assert_store_exact(disk: &TrackedDisk, who: &str) -> usize {
    let known: Vec<(usize, u64)> = {
        let index = disk.content_index();
        (0..disk.disk().num_blocks())
            .filter_map(|b| index.fingerprint_of(b).map(|fp| (b, fp)))
            .collect()
    };
    for &(b, fp) in &known {
        assert_eq!(
            fp,
            hash_block(&disk.disk().read_block(b)),
            "{who}: stale fingerprint left on block {b}"
        );
    }
    known.len()
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

/// What the round-trip tests share: A → B primary, then the guest's
/// writes at B. Every fourth dirtied block becomes a copy of a clean block
/// (`copies`: dirtied block, the block it copies); the rest get content of
/// their own. Writes go through the tracked path with a tracker attached,
/// so the returned bitmap is the hook's, not the test's.
struct RoundTrip {
    cfg: LiveConfig,
    a: Arc<TrackedDisk>,
    b: Arc<TrackedDisk>,
    bitmap: FlatBitmap,
    copies: Vec<(usize, usize)>,
}

fn primary_hop_then_guest_writes() -> RoundTrip {
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
    // The by-product: both sides now hold every fingerprint, the source
    // from the hashes its dedup partition made, the destination from the
    // ones it verified arrivals with.
    assert_eq!(assert_store_exact(&a, "A after hop 1"), cfg.num_blocks);
    assert_eq!(assert_store_exact(&b, "B after hop 1"), cfg.num_blocks);

    let tracker = Arc::new(AtomicBitmap::new(cfg.num_blocks));
    let handle = b.attach_tracker(Arc::clone(&tracker), Some(GUEST));
    b.enable_tracking();
    let mut copies = Vec::new();
    for (i, &d) in dirty_blocks().iter().enumerate() {
        let data = if i % 4 == 0 {
            // A clean block well away from the dirtied ones.
            let clean = d + 11;
            copies.push((d, clean));
            b.disk().read_block(clean)
        } else {
            stamp_bytes(d, BASE + 1, cfg.block_size)
        };
        b.submit(IoRequest::write(d, GUEST), Some(&data));
    }
    b.disable_tracking();
    b.detach_tracker(handle);
    let bitmap = tracker.snapshot();
    assert_eq!(bitmap.to_indices(), dirty_blocks());
    // The hook that set those bits dropped exactly those fingerprints.
    assert_eq!(
        assert_store_exact(&b, "B after the guest's writes"),
        cfg.num_blocks - DIRTY
    );
    RoundTrip {
        cfg: idle_cfg(4_096),
        a,
        b,
        bitmap,
        copies,
    }
}

/// B → A with the inherited bitmap. Whatever state A's store is in, the
/// handshake hashes nothing: the summary is what the store holds, of
/// `known` blocks.
fn hop_back(rt: &RoundTrip, bitmap: FlatBitmap, known: usize) -> LiveOutcome {
    let out = run_live(
        &rt.cfg,
        LiveRun {
            disks: Some((Arc::clone(&rt.b), Arc::clone(&rt.a))),
            initial_bitmap: Some(bitmap),
            ..LiveRun::default()
        },
    )
    .expect("IM hop completes");
    assert!(rt.b.disk().content_equals(rt.a.disk()), "image not exact");
    // Every block's content is its own, so as many distinct fingerprints.
    assert_eq!(handshakes(&rt.cfg), vec![(known as u64, 0, known as u64)]);
    out
}

#[test]
fn round_trip_keeps_resident_dedup_without_hashing_the_resident_image() {
    let rt = primary_hop_then_guest_writes();
    let out = hop_back(&rt, rt.bitmap.clone(), rt.cfg.num_blocks);
    let (d, copies) = (DIRTY as u64, rt.copies.len() as u64);
    assert_eq!(copies, d / 4);
    assert_eq!(out.iterations, vec![d]);
    // The copies crossed as 16-byte references to blocks A never sent or
    // re-read; nothing bounced (every block was shipped once).
    assert_eq!(out.wire.blocks_deduped, copies);
    assert_eq!(out.wire.bytes_raw, d * rt.cfg.block_size as u64);
    assert_eq!(
        out.work.dst,
        block_bitmap_migration::migrate::live::SideWork {
            // One holder per reference, read to be copied and verified.
            blocks_read: copies,
            blocks_hashed: d,
        }
    );
    assert!(total(&out.work) <= 4 * d, "{:?}", out.work);
    // Both stores are whole again, and right.
    assert_eq!(
        assert_store_exact(&rt.a, "A after hop 2"),
        rt.cfg.num_blocks
    );
    assert_eq!(
        assert_store_exact(&rt.b, "B after hop 2"),
        rt.cfg.num_blocks
    );
}

#[test]
fn a_poisoned_store_costs_bounces_never_a_block() {
    let rt = primary_hop_then_guest_writes();
    let bs = rt.cfg.block_size;
    let mut bitmap = rt.bitmap.clone();
    let (lied_about, rest) = rt.copies.split_at(8);
    let (rewritten, honest) = rest.split_at(8);

    // Store entries corrupted: the fingerprint of the block each of these
    // copies was made from is moved onto an unrelated block, so A still
    // advertises the content and resolves it to the wrong holder.
    for &(_, clean) in lied_about {
        let mut index = rt.a.content_index();
        let fp = index.fingerprint_of(clean).expect("known after hop 1");
        index.invalidate(clean);
        index.record(clean + 1, fp);
    }
    // Blocks rewritten behind the store's back: A's copy of these clean
    // blocks is overwritten directly, so the store still advertises what
    // they held. (They now differ from B's, so they join the bitmap — a
    // block that differs and is not in it is outside IM's premise.)
    for &(_, clean) in rewritten {
        rt.a.disk().write_block(clean, &stamp_bytes(clean, 99, bs));
        bitmap.set(clean);
    }

    let out = hop_back(&rt, bitmap.clone(), rt.cfg.num_blocks - lied_about.len());
    let shipped = bitmap.count_ones() as u64;
    assert_eq!(out.iterations, vec![shipped]);
    // Each lie bounces the copy that trusted it; each rewritten block
    // bounces the copy made from it and its own reference (B still holds
    // what A's store says A holds). Every bounce is one block re-read and
    // sent in full, and that is the whole cost.
    let bounces = (lied_about.len() + 2 * rewritten.len()) as u64;
    assert_eq!(out.wire.bytes_raw, (shipped + bounces) * bs as u64);
    assert_eq!(
        out.wire.blocks_deduped,
        honest.len() as u64 + bounces,
        "references sent: the honest ones land, the rest bounce"
    );
    assert_eq!(out.work.src.blocks_read, shipped + bounces);
    assert!(
        total(&out.work) <= 4 * (shipped + bounces),
        "{:?}",
        out.work
    );
    // What the bounces found out is corrected, not kept: the stores end
    // up exact, poison included.
    assert_store_exact(&rt.a, "A after the poisoned hop");
    assert_store_exact(&rt.b, "B after the poisoned hop");
}

#[test]
fn web_guest_round_trip_never_leaves_a_stale_fingerprint() {
    // The source records fingerprints of batches it read while the guest
    // was free to overwrite them; the arrivals of post-copy and the
    // guest's writes at the destination are never hashed at all. Whatever
    // the interleaving, an entry that survives must be true. (This is the
    // race under real threads; `write_hook_keeps_the_disk_index_exact` in
    // `crates/vdisk/tests/proptests.rs` replays its losing order on
    // purpose.)
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
    let known_a = assert_store_exact(&a, "A after hop 1");
    let known_b = assert_store_exact(&b, "B after hop 1");
    // How many survive is the scheduler's business (a batch a write raced
    // with records nothing); that any do is what makes the check above
    // and the handshake below say something.
    assert!(known_a > 0 && known_b > 0, "A kept {known_a}, B {known_b}");

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
    // The handshake hashed nothing and summarised what hop 1 left; the
    // destination then hashed what arrived, at most twice over (a
    // reference that bounces is verified, then re-sent in full).
    let hs = handshakes(&back);
    assert_eq!(hs.len(), 1);
    assert_eq!((hs[0].1, hs[0].2), (0, known_a as u64));
    let shipped: u64 = out.iterations.iter().sum();
    assert!(
        out.work.dst.blocks_hashed <= 2 * shipped,
        "{:?} for {shipped} blocks shipped",
        out.work
    );
    assert_store_exact(&a, "A after hop 2");
    assert_store_exact(&b, "B after hop 2");
}
