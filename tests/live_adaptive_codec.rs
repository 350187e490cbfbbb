//! When LZ runs and when fingerprinting runs (ROADMAP 1c, DESIGN.md §15
//! "When LZ runs" and "When fingerprinting runs"), pinned by counts, not
//! stopwatches.
//!
//! `compress` is a capability the two sides negotiate; whether a batch
//! is compressed is decided per batch from what a byte costs on the link
//! (`Transport::link_ns_per_byte`) against what LZ costs to save it. The
//! link kinds below make that decision deterministic:
//! an unpaced in-process link costs nothing, so nothing is ever
//! compressed and the run equals a `compress: false` run byte for byte;
//! a link paced at 2 MiB/s costs 477 ns a byte against the few LZ takes,
//! so every batch whose LZ stream is smaller is compressed — from the
//! first batch, which the limiter's opening burst lets through without a
//! wait. A batch is one stream (units share their history), so the bytes
//! pinned below are `compress_blocks` over the batches the engine formed;
//! and a socket is whichever of the two its pacing and its addresses say:
//! unpaced between two ends of one host there is no wire and it ships
//! raw, paced it compresses as the paced duplex does. (An unpaced socket
//! between two hosts cannot say what a byte costs and gets what every
//! link got before the rule; no test here can open one, so that arm is
//! pinned on the addresses in `simnet::tcp` and on a cannot-tell
//! transport in `migrate::live::lz_rule`.)
//!
//! `dedup` is a capability as well, decided once per session from the same
//! link cost: a session on a free link hashes nothing on either side,
//! sends no content summary, so the destination builds no content index
//! — inside the freeze window included — and is the `dedup: false` session
//! byte for byte; on every other link, one that cannot tell included, it
//! fingerprints from the first block.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use block_bitmap_migration::migrate::live::{
    fingerprinting_pays, lz_pays, run_live, run_live_migration_connected, LiveConfig, LiveOutcome,
    LiveRun, OnceConnector, SideWork,
};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::simnet::codec::compress_blocks;
use block_bitmap_migration::simnet::fault::FaultPlan;
use block_bitmap_migration::simnet::proto::{
    Category, MigMessage, TransferLedger, ALL_CATEGORIES, BLOCK_REF_WIRE, FRAME_OVERHEAD,
};
use block_bitmap_migration::simnet::transport::{duplex, Endpoint, Transport, TransportError};
use block_bitmap_migration::telemetry::{Event, Recorder, Resource};
use block_bitmap_migration::vdisk::stamp_bytes;
use proptest::prelude::*;

/// A > 100 × margin over LZ in the optimised build, and a 32 KiB sample
/// (eight 4 KiB units) would have to lose ~12 ms to a preemption before
/// a batch flipped.
const PACED: f64 = 2.0 * 1024.0 * 1024.0;

/// The paper's Gigabit LAN, bytes/second: 8 ns a byte, so a session on it
/// fingerprints, and raw megabytes cross it inside the limiter's burst.
const GIGABIT: f64 = 125e6;

/// 1 MiB of stamp-0 blocks (period-64 patterns: LZ saves most of every
/// block) and 1 MiB of stamp-0 pages, 4 KiB units, idle guest: every
/// block and page crosses exactly once, in 64- and 32-unit batches.
/// Stamp-0 unit 0 is all zeroes: as a block it is what a blank
/// destination already holds and, on a session that fingerprints, crosses
/// as the run's one reference.
fn idle_cfg() -> LiveConfig {
    LiveConfig {
        block_size: 4_096,
        num_blocks: 256,
        batch: 64,
        mem_pages: 256,
        mem_page_size: 4_096,
        mem_batch: 32,
        workload: WorkloadKind::Idle,
        mem_writes_per_tick: 0,
        ..LiveConfig::test_default()
    }
}

fn paced(cfg: &LiveConfig) -> LiveConfig {
    LiveConfig {
        rate_limit: Some(PACED),
        ..cfg.clone()
    }
}

fn run(cfg: &LiveConfig) -> LiveOutcome {
    let out = run_live(cfg, LiveRun::default()).expect("migration completes");
    assert_eq!(out.read_violations, 0, "guest observed stale data");
    assert!(
        out.inconsistent_blocks().is_empty(),
        "image not block-exact"
    );
    assert!(out.inconsistent_pages().is_empty(), "RAM not page-exact");
    out
}

/// Bytes of the LZ stream of one batch of stamp-0 units.
fn stamp_stream_len(units: impl Iterator<Item = usize>, unit_size: usize) -> u64 {
    let raw: Vec<u8> = units.flat_map(|u| stamp_bytes(u, 0, unit_size)).collect();
    compress_blocks(&raw, unit_size).len() as u64
}

/// The same over several batches: a unit's bytes depend on the units it
/// shares a stream with, so the batches are the engine's or the sum is
/// not the ledger's.
fn stamp_streams_len(batches: impl Iterator<Item = Range<usize>>, unit_size: usize) -> u64 {
    batches.map(|b| stamp_stream_len(b, unit_size)).sum()
}

/// Ledger bytes of `units` whole units shipped in `frames` messages with
/// `payload` bytes of body between them.
fn framed(frames: u64, units: u64, payload: u64) -> u64 {
    frames * FRAME_OVERHEAD + 8 * units + payload
}

/// What the zero block costs the disk ledger.
const ZERO_BLOCK_REF: u64 = FRAME_OVERHEAD + BLOCK_REF_WIRE;

/// Batches a pass of `units` makes at `batch` a message.
fn batches(units: u64, batch: usize) -> u64 {
    units.div_ceil(batch as u64)
}

#[test]
fn an_unpaced_link_never_compresses_and_equals_the_no_compress_run() {
    let cfg = idle_cfg();
    assert!(
        cfg.compress && cfg.rate_limit.is_none(),
        "the default data plane"
    );
    let out = run(&cfg);
    assert_eq!(out.wire.blocks_compressed, 0);
    assert_eq!(out.wire.pages_compressed, 0);
    let plain = run(&LiveConfig {
        compress: false,
        ..cfg.clone()
    });
    assert_eq!(out.src_ledger, plain.src_ledger);
    assert_eq!(out.dst_ledger, plain.dst_ledger);
    assert_eq!(out.wire, plain.wire);
    // Which is raw frames, to the byte: the link is free, so the zero
    // block is not fingerprinted either and crosses like the rest (as a
    // reference on a link that pays: `a_paced_link_fingerprints_...`).
    assert_eq!(out.wire.blocks_deduped, 0);
    assert_eq!(
        out.src_ledger.get(Category::DiskPrecopy),
        framed(4, 256, 256 * 4_096)
    );
    assert_eq!(
        out.src_ledger.get(Category::Memory),
        framed(8, 256, 256 * 4_096)
    );
}

#[test]
fn a_paced_link_compresses_every_batch_from_the_first() {
    let cfg = LiveConfig {
        telemetry: Recorder::enabled(),
        ..paced(&idle_cfg())
    };
    let out = run(&cfg);
    // Every batch, the ones inside the limiter's 0.1 s burst (all of
    // them, here: 205 KiB) included — a rule that waited to see the
    // sender wait would have shipped those raw.
    assert_eq!(out.wire.blocks_deduped, 1, "the zero block");
    assert_eq!(out.wire.blocks_compressed, 255);
    assert_eq!(out.wire.pages_compressed, 256);
    // And the ledger is what compressing every batch whole produces:
    // four block batches of 64 full blocks (a flush waits for 64, so the
    // zero block's reference leaves a hole the next chunk fills), eight
    // of pages, one stream each.
    let block_frames = stamp_streams_len([1..65, 65..129, 129..193, 193..256].into_iter(), 4_096);
    assert_eq!(out.wire.bytes_sent, block_frames + BLOCK_REF_WIRE);
    assert_eq!(
        out.wire.page_bytes_sent,
        stamp_streams_len((0..8).map(|b| 32 * b..32 * (b + 1)), 4_096)
    );
    assert_eq!(
        out.src_ledger.get(Category::DiskPrecopy),
        framed(4, 255, block_frames) + ZERO_BLOCK_REF
    );
    assert_eq!(
        out.src_ledger.get(Category::Memory),
        framed(8, 256, out.wire.page_bytes_sent)
    );
    assert!(out.wire.bytes_sent * 2 < out.wire.bytes_raw);

    // The journal says what was decided and from which two numbers.
    let decisions: Vec<Event> = cfg
        .telemetry
        .records()
        .into_iter()
        .map(|r| r.event)
        .filter(|e| matches!(e, Event::CodecDecision { .. }))
        .collect();
    let per_byte_ps = (1e12 / PACED) as u64;
    for (kind, batches) in [(Resource::Disk, 4), (Resource::Memory, 8)] {
        let of_kind: Vec<_> = decisions
            .iter()
            .filter(|e| matches!(e, Event::CodecDecision { resource, .. } if *resource == kind))
            .collect();
        let [Event::CodecDecision {
            batches_compressed,
            batches_raw,
            sample_bytes,
            link_ps_per_byte,
            lz_ps_per_raw_byte,
            ..
        }] = of_kind.as_slice()
        else {
            panic!("one pass of {kind:?}, one decision record: {of_kind:?}");
        };
        assert_eq!((*batches_compressed, *batches_raw), (batches, 0));
        assert_eq!(*sample_bytes, batches * 8 * 4_096);
        assert_eq!(*link_ps_per_byte, per_byte_ps);
        assert!(0 < *lz_ps_per_raw_byte && *lz_ps_per_raw_byte < per_byte_ps / 2);
    }
}

fn run_tcp(cfg: &LiveConfig) -> LiveOutcome {
    let out = run_live(
        cfg,
        LiveRun {
            tcp: true,
            ..LiveRun::default()
        },
    )
    .expect("tcp migration completes");
    assert!(out.inconsistent_blocks().is_empty() && out.inconsistent_pages().is_empty());
    out
}

#[test]
fn a_same_host_socket_never_compresses_and_equals_the_no_compress_tcp_run() {
    // Both ends on 127.0.0.1: the bytes cross a `memcpy`, not a wire, and
    // the receiver's inbox is budgeted, so a raw batch costs the source
    // neither link time nor the destination memory.
    let out = run_tcp(&idle_cfg());
    assert_eq!(out.wire.blocks_compressed, 0);
    assert_eq!(out.wire.pages_compressed, 0);
    let plain = run_tcp(&LiveConfig {
        compress: false,
        ..idle_cfg()
    });
    assert_eq!(out.wire, plain.wire);
    assert_eq!(out.src_ledger, plain.src_ledger);
    assert_eq!(out.dst_ledger, plain.dst_ledger);
    // The frames the unpaced duplex ships, to the byte.
    assert_eq!(out.src_ledger, run(&idle_cfg()).src_ledger);
}

#[test]
fn a_paced_socket_compresses_every_batch_as_a_paced_duplex_does() {
    // `write` returning says the kernel has the bytes, not what the link
    // took; the pacer in front of it does say, and is believed.
    let out = run_tcp(&paced(&idle_cfg()));
    assert_eq!(out.wire.blocks_compressed, 255);
    assert_eq!(out.wire.pages_compressed, 256);
    let slow = run(&paced(&idle_cfg()));
    assert_eq!(out.wire, slow.wire);
    assert_eq!(out.src_ledger, slow.src_ledger);
}

#[test]
fn the_frozen_tail_follows_the_rule_too() {
    // Idle disk, a guest writing RAM, one memory pass: whatever it
    // dirties during the pass and the ticks before the suspend is the
    // frozen tail, sent while the guest is down.
    let cfg = LiveConfig {
        mem_writes_per_tick: 32,
        max_mem_iterations: 1,
        min_guest_ticks: 30,
        ..idle_cfg()
    };
    let pages_sent =
        |out: &LiveOutcome| out.mem_iterations.iter().sum::<u64>() + out.frozen_mem_dirty;
    let page_frames = |out: &LiveOutcome| {
        out.mem_iterations
            .iter()
            .chain([&out.frozen_mem_dirty])
            .map(|&pass| batches(pass, cfg.mem_batch))
            .sum::<u64>()
    };

    // Unpaced: raw page frames in pre-copy and in the tail, the
    // `compress: false` arithmetic to the byte.
    let idle = run(&cfg);
    assert!(idle.frozen_mem_dirty > 0, "the geometry leaves a tail");
    assert_eq!(idle.wire.pages_compressed, 0);
    assert_eq!(
        idle.src_ledger.get(Category::Memory),
        framed(
            page_frames(&idle),
            pages_sent(&idle),
            pages_sent(&idle) * 4_096
        )
    );

    // Paced: every page batch of both passes crosses compressed (stamp
    // pages of any generation compress), so downtime is spent on the
    // compressed tail.
    let slow = run(&paced(&cfg));
    assert!(slow.frozen_mem_dirty > 0, "the geometry leaves a tail");
    assert_eq!(slow.wire.pages_compressed, pages_sent(&slow));
    assert_eq!(
        slow.src_ledger.get(Category::Memory),
        framed(
            page_frames(&slow),
            pages_sent(&slow),
            slow.wire.page_bytes_sent
        )
    );
    assert!(slow.wire.page_bytes_sent * 2 < slow.wire.page_bytes_raw);
}

/// What one compressed batch was: its kind, its unit ids, its stream's
/// length.
type SentBatch = (Resource, Vec<u64>, u64);

/// The compressed batches among `frames`, in sending order.
fn compressed_batches(frames: &[MigMessage]) -> Vec<SentBatch> {
    frames
        .iter()
        .filter_map(|msg| match msg {
            MigMessage::CompressedBlocks {
                blocks, payload, ..
            } => Some((Resource::Disk, blocks.clone(), payload.len() as u64)),
            MigMessage::CompressedPages { pages, payload, .. } => {
                Some((Resource::Memory, pages.clone(), payload.len() as u64))
            }
            _ => None,
        })
        .collect()
}

/// Frames one end of a link sent, in sending order.
type Sent = Arc<Mutex<Vec<MigMessage>>>;

/// One end of a duplex link, keeping a copy of every frame it sends.
struct Tap {
    link: Endpoint,
    sent: Sent,
    /// Answer `None` for the link's cost, as a socket between two hosts
    /// does.
    cannot_tell: bool,
}

impl Tap {
    fn new(link: Endpoint, cannot_tell: bool) -> (Self, Sent) {
        let sent = Sent::default();
        let tap = Self {
            link,
            sent: Arc::clone(&sent),
            cannot_tell,
        };
        (tap, sent)
    }
}

impl Transport for Tap {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        self.sent.lock().expect("tap lock").push(msg.clone());
        self.link.send(msg)
    }
    fn recv(&self) -> Result<MigMessage, TransportError> {
        self.link.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        self.link.recv_timeout(timeout)
    }
    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        self.link.try_recv()
    }
    fn sent_ledger(&self) -> TransferLedger {
        self.link.sent_ledger()
    }
    fn link_ns_per_byte(&self) -> Option<f64> {
        if self.cannot_tell {
            None
        } else {
            self.link.link_ns_per_byte()
        }
    }
}

/// `src` migrated onto `dst` over a link tapped at both ends: the outcome
/// and the frames each side sent, in sending order.
fn run_tapped_disks(
    cfg: &LiveConfig,
    src: VirtualDisk,
    dst: VirtualDisk,
    cannot_tell: bool,
) -> (LiveOutcome, Vec<MigMessage>, Vec<MigMessage>) {
    let src = Arc::new(TrackedDisk::new(Arc::new(src)));
    let dst = Arc::new(TrackedDisk::new(Arc::new(dst)));
    let (mut link, peer) = duplex();
    if let Some(rate) = cfg.rate_limit {
        link.set_rate_limit(rate);
    }
    let (src_tap, src_sent) = Tap::new(link, cannot_tell);
    let (dst_tap, dst_sent) = Tap::new(peer, false);
    let out = run_live_migration_connected(
        cfg,
        Arc::clone(&src),
        Arc::clone(&dst),
        None,
        OnceConnector::new(src_tap),
        OnceConnector::new(dst_tap),
    )
    .expect("migration completes");
    assert!(
        src.disk().content_equals(dst.disk()),
        "image not block-exact"
    );
    assert!(out.inconsistent_pages().is_empty(), "RAM not page-exact");
    let frames = |sent: Sent| sent.lock().expect("tap lock").clone();
    (out, frames(src_sent), frames(dst_sent))
}

/// The engine's stamp-0 image of `cfg`'s geometry.
fn stamp_image(cfg: &LiveConfig) -> VirtualDisk {
    let disk = VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
    for b in 0..cfg.num_blocks {
        disk.write_block(b, &stamp_bytes(b, 0, cfg.block_size));
    }
    disk
}

/// A stamp-0 image to a blank disk over a tapped link: the outcome and
/// the compressed batches the source formed, in sending order.
fn run_tapped(cfg: &LiveConfig, cannot_tell: bool) -> (LiveOutcome, Vec<SentBatch>) {
    let blank = VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
    let (out, sent, _) = run_tapped_disks(cfg, stamp_image(cfg), blank, cannot_tell);
    (out, compressed_batches(&sent))
}

#[test]
fn four_streams_equal_one_under_the_rule() {
    // 48 a batch over four 64-block shards: six batches either way, of
    // other blocks (each shard's first 48, then the four tails).
    let regrouped = LiveConfig {
        batch: 48,
        ..idle_cfg()
    };
    // Unpaced, nothing is compressed: what crosses, in what form and in
    // how many bytes does not notice the sharding.
    let one = run(&regrouped);
    let four = run(&LiveConfig {
        streams: 4,
        ..regrouped.clone()
    });
    assert_eq!(four.src_ledger, one.src_ledger);
    assert_eq!(four.dst_ledger, one.dst_ledger);
    assert_eq!(four.wire, one.wire);

    // Paced, a unit's LZ bytes depend on the units it shares a stream
    // with. K = 4 == K = 1 is an identity of units and forms — same
    // images, same units raw, compressed and referenced — and of bytes
    // wherever LZ does not run; where it does, each run's bytes are the
    // streams of its own batches.
    let cfg = paced(&regrouped);
    let (one, one_batches) = run_tapped(&cfg, false);
    let (four, four_batches) = run_tapped(
        &LiveConfig {
            streams: 4,
            ..cfg.clone()
        },
        false,
    );
    let ids_of = |batches: &[SentBatch], kind: Resource| -> Vec<Vec<u64>> {
        batches
            .iter()
            .filter(|(k, ..)| *k == kind)
            .map(|(_, ids, _)| ids.clone())
            .collect()
    };
    let (one_disk, four_disk) = (
        ids_of(&one_batches, Resource::Disk),
        ids_of(&four_batches, Resource::Disk),
    );
    assert_eq!((one_disk.len(), four_disk.len()), (6, 6));
    assert_ne!(one_disk, four_disk, "the sharding regrouped the blocks");
    assert_eq!(
        ids_of(&one_batches, Resource::Memory),
        ids_of(&four_batches, Resource::Memory),
        "pages are not sharded"
    );
    for (out, batches) in [(&one, &one_batches), (&four, &four_batches)] {
        let mut sent = [0u64; 2];
        for (kind, ids, stream_len) in batches {
            let units = ids.iter().map(|&u| u as usize);
            assert_eq!(*stream_len, stamp_stream_len(units, 4_096), "{ids:?}");
            sent[usize::from(*kind == Resource::Memory)] += stream_len;
        }
        assert_eq!(out.wire.bytes_sent, sent[0] + BLOCK_REF_WIRE);
        assert_eq!(out.wire.page_bytes_sent, sent[1]);
    }
    assert_eq!(four.wire.bytes_raw, one.wire.bytes_raw);
    assert_eq!(four.wire.blocks_deduped, one.wire.blocks_deduped);
    assert_eq!(four.wire.blocks_compressed, one.wire.blocks_compressed);
    assert_eq!(four.wire.pages_compressed, one.wire.pages_compressed);
    assert_eq!(four.wire.page_bytes_raw, one.wire.page_bytes_raw);
    assert_eq!(four.dst_ledger, one.dst_ledger);
    for category in ALL_CATEGORIES {
        if category != Category::DiskPrecopy {
            assert_eq!(
                four.src_ledger.get(category),
                one.src_ledger.get(category),
                "{category:?}"
            );
        }
    }
    // The disk category is its frames' arithmetic in either run.
    for out in [&one, &four] {
        assert_eq!(
            out.src_ledger.get(Category::DiskPrecopy),
            framed(6, 255, out.wire.bytes_sent - BLOCK_REF_WIRE) + ZERO_BLOCK_REF
        );
    }
}

#[test]
fn incompressible_blocks_ship_raw_on_a_paced_link_after_the_sample() {
    let cfg = LiveConfig {
        telemetry: Recorder::enabled(),
        ..paced(&idle_cfg())
    };
    // Word-random blocks: nothing for LZ to find, the head of the stream
    // longer than the units it covers.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let src = VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
    for b in 0..cfg.num_blocks {
        let block: Vec<u8> = (0..cfg.block_size / 8)
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()
            })
            .collect();
        src.write_block(b, &block);
    }
    let src = Arc::new(TrackedDisk::new(Arc::new(src)));
    let dst = Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::dense(
        cfg.block_size,
        cfg.num_blocks,
    ))));
    let out = run_live(
        &cfg,
        LiveRun {
            disks: Some((Arc::clone(&src), Arc::clone(&dst))),
            ..LiveRun::default()
        },
    )
    .expect("migration completes");
    assert!(src.disk().content_equals(dst.disk()));
    assert_eq!(out.wire.blocks_compressed, 0);
    assert_eq!(out.wire.bytes_sent, out.wire.bytes_raw);
    assert_eq!(
        out.src_ledger.get(Category::DiskPrecopy),
        framed(4, 256, 256 * 4_096)
    );
    // The sample is all the LZ those four batches cost; the pages behind
    // them are stamp pages and compress as ever.
    let sampled = cfg
        .telemetry
        .records()
        .into_iter()
        .find_map(|r| match r.event {
            Event::CodecDecision {
                resource: Resource::Disk,
                batches_compressed,
                batches_raw,
                sample_bytes,
                ..
            } => Some((batches_compressed, batches_raw, sample_bytes)),
            _ => None,
        });
    assert_eq!(sampled, Some((0, 4, 4 * 8 * 4_096)));
    assert_eq!(out.wire.pages_compressed, 256);
}

/// `(fingerprints, hashed_blocks, cached_blocks)` of each dedup handshake
/// the destination journaled, and the source's two session counters.
fn dedup_sessions(cfg: &LiveConfig) -> (Vec<(u64, u64, u64)>, u64, u64) {
    let handshakes = cfg
        .telemetry
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
        .collect();
    let m = cfg.telemetry.metrics();
    (
        handshakes,
        m.counter("dedup.sessions_fingerprinted").get(),
        m.counter("dedup.sessions_skipped").get(),
    )
}

fn traced(cfg: &LiveConfig) -> LiveConfig {
    LiveConfig {
        telemetry: Recorder::enabled(),
        ..cfg.clone()
    }
}

/// The default run on a free link is the `dedup: false` run: same
/// ledgers, same savings and work ledgers, nothing hashed, and no
/// summary, so the destination never built a content index.
fn assert_is_the_no_dedup_run(out: &LiveOutcome, cfg: &LiveConfig, plain: &LiveOutcome) {
    assert_eq!(out.src_ledger, plain.src_ledger);
    assert_eq!(out.dst_ledger, plain.dst_ledger);
    assert_eq!(out.wire, plain.wire);
    assert_eq!(out.work, plain.work);
    assert_eq!(out.wire.blocks_deduped, 0);
    assert_eq!(out.work.src.blocks_hashed, 0);
    assert_eq!(out.work.dst.blocks_hashed, 0);
    assert_eq!(dedup_sessions(cfg), (vec![], 0, 1));
}

#[test]
fn a_free_link_fingerprints_nothing_and_equals_the_no_dedup_run() {
    for streams in [1, 4] {
        let base = LiveConfig {
            batch: 48,
            streams,
            ..idle_cfg()
        };
        assert!(base.dedup && base.rate_limit.is_none(), "the default plane");
        let plain = run(&LiveConfig {
            dedup: false,
            ..base.clone()
        });
        let cfg = traced(&base);
        assert_is_the_no_dedup_run(&run(&cfg), &cfg, &plain);
    }
}

#[test]
fn a_same_host_socket_fingerprints_nothing_and_equals_the_no_dedup_tcp_run() {
    let cfg = traced(&idle_cfg());
    let plain = run_tcp(&LiveConfig {
        dedup: false,
        ..idle_cfg()
    });
    assert_is_the_no_dedup_run(&run_tcp(&cfg), &cfg, &plain);
}

#[test]
fn a_paced_link_fingerprints_from_the_first_block_duplex_and_socket_alike() {
    // `compress: false`, so the ledger is the zero-block arithmetic alone:
    // 255 blocks in four raw frames and one 16-byte reference, which the
    // blank destination's summary (the zero fingerprint, from its
    // allocation map: nothing read, nothing hashed) made possible. Any
    // price above zero will do.
    let cfg = LiveConfig {
        compress: false,
        rate_limit: Some(GIGABIT),
        ..idle_cfg()
    };
    let runs: [fn(&LiveConfig) -> LiveOutcome; 2] = [run, run_tcp];
    for run_on in runs {
        let cfg = traced(&cfg);
        let out = run_on(&cfg);
        assert_eq!(out.wire.blocks_deduped, 1, "the zero block");
        assert_eq!(
            out.src_ledger.get(Category::DiskPrecopy),
            framed(4, 255, 255 * 4_096) + ZERO_BLOCK_REF
        );
        // Every block hashed where it left and where it landed (a full
        // block to record it, the reference to verify its holder).
        assert_eq!(out.work.src.blocks_hashed, 256);
        assert_eq!(out.work.dst.blocks_hashed, 256);
        assert_eq!(dedup_sessions(&cfg), (vec![(1, 0, 0)], 1, 0));
    }
}

#[test]
fn a_link_that_cannot_tell_fingerprints() {
    // Unpaced underneath, but it does not say so: the session keeps
    // fingerprinting, as it keeps compressing.
    let cfg = traced(&idle_cfg());
    let (out, batches) = run_tapped(&cfg, true);
    assert_eq!(out.wire.blocks_deduped, 1, "the zero block");
    assert_eq!(out.work.src.blocks_hashed, 256);
    assert_eq!(dedup_sessions(&cfg), (vec![(1, 0, 0)], 1, 0));
    assert_eq!(out.wire.blocks_compressed, 255);
    assert_eq!(batches.len(), 4 + 8);
}

#[test]
fn a_template_clone_sends_whole_batches_and_books_references_as_the_simulator_does() {
    // 1 024 blocks, a quarter rewritten (every fourth), against a
    // destination that holds the template; 64 a batch, so a flush spans
    // four chunks. Block 100 is rewritten with what block 4 now holds: a
    // duplicate of a full block staged in the same flush.
    let cfg = LiveConfig {
        num_blocks: 1_024,
        ..paced(&idle_cfg())
    };
    let bs = cfg.block_size;
    let src = stamp_image(&cfg);
    for b in (0..cfg.num_blocks).step_by(4) {
        src.write_block(b, &stamp_bytes(b, 1, bs));
    }
    src.write_block(100, &stamp_bytes(4, 1, bs));
    let (out, sent, answered) = run_tapped_disks(&cfg, src, stamp_image(&cfg), false);

    // Full blocks cross in streams of `batch`, the pass's last excepted.
    let (mut full_bytes, mut streams) = (0, 0);
    let (mut sizes, mut refs) = (Vec::new(), Vec::new());
    for msg in &sent {
        match msg {
            MigMessage::CompressedBlocks {
                blocks, payload, ..
            } => {
                full_bytes += msg.wire_size();
                streams += payload.len() as u64;
                sizes.push(blocks.len());
            }
            MigMessage::DiskBlocks { .. } => panic!("every batch compresses on this link"),
            MigMessage::BlockRef { .. } => panic!("a reference crossed alone"),
            MigMessage::BlockRefs {
                blocks,
                fingerprints,
            } => {
                assert_eq!(blocks.len(), fingerprints.len());
                refs.push(blocks.len() as u64);
            }
            _ => {}
        }
    }
    assert_eq!(sizes, [64, 64, 64, 63]);

    // References cross one frame per flush, and the ledger books each
    // frame as the simulator books a step's references: FRAME_OVERHEAD
    // plus BLOCK_REF_WIRE a reference.
    assert_eq!(refs.len(), 4, "{refs:?}");
    assert_eq!(refs.iter().sum::<u64>(), 768 + 1);
    assert_eq!(out.wire.blocks_deduped, 768 + 1);
    let ref_bytes: u64 = refs
        .iter()
        .map(|n| FRAME_OVERHEAD + BLOCK_REF_WIRE * n)
        .sum();
    assert_eq!(
        out.src_ledger.get(Category::DiskPrecopy),
        full_bytes + ref_bytes
    );
    assert_eq!(out.wire.bytes_sent, streams + 769 * BLOCK_REF_WIRE);

    // The duplicate resolved against block 4, staged ahead of it in its
    // flush: nothing bounced, and every block crossed once.
    assert!(!answered
        .iter()
        .any(|m| matches!(m, MigMessage::BlockRefMiss { .. })));
    assert_eq!(out.wire.bytes_raw, (cfg.num_blocks * bs) as u64);
}

#[test]
fn a_reconnect_decides_again_and_the_same_link_decides_the_same() {
    // The second disk frame of the first connection is cut.
    let plan = || FaultPlan::none().reset_after_category(0, Category::DiskPrecopy, 2);

    let cfg = traced(&paced(&idle_cfg()));
    let out = run_live(
        &cfg,
        LiveRun {
            faults: plan(),
            ..LiveRun::default()
        },
    )
    .expect("recovers");
    assert!(out.inconsistent_blocks().is_empty());
    assert_eq!(out.reconnects, 1);
    let (handshakes, fingerprinted, skipped) = dedup_sessions(&cfg);
    assert_eq!((fingerprinted, skipped), (2, 0));
    // The resumed session's summary comes out of the index the first one
    // was keeping: the destination held on to it because dedup was on.
    assert_eq!(handshakes.len(), 2);
    assert_eq!(handshakes[0], (1, 0, 0));
    assert!(handshakes[1].2 >= 64, "{handshakes:?}");
    assert!(out.wire.blocks_deduped >= 1);

    let cfg = traced(&idle_cfg());
    let out = run_live(
        &cfg,
        LiveRun {
            faults: plan(),
            ..LiveRun::default()
        },
    )
    .expect("recovers");
    assert!(out.inconsistent_blocks().is_empty());
    assert_eq!(out.reconnects, 1);
    assert_eq!(dedup_sessions(&cfg), (vec![], 0, 2));
    assert_eq!(out.wire.blocks_deduped, 0);
    assert_eq!(out.work.src.blocks_hashed, 0);
    assert_eq!(out.work.dst, SideWork::default());
}

#[test]
fn no_session_builds_a_content_index_inside_the_freeze_window() {
    // With `multisource` the source hashes the frozen blocks for the
    // failover manifest after the guest is suspended. That is a check and
    // stays; building a content index there (four vectors the size of
    // the disk) would put it inside the downtime. On a free link, offered
    // dedup or not, the manifest is all that is hashed and no handshake
    // summarises, so the destination never builds an index.
    let idle = LiveConfig {
        multisource: true,
        ..idle_cfg()
    };
    // A writing guest, held long enough that the manifest is not empty.
    let web = LiveConfig {
        multisource: true,
        num_blocks: 16_384,
        min_guest_ticks: 25,
        ..LiveConfig::test_default()
    };
    for cfg in [idle, web] {
        for dedup in [true, false] {
            let cfg = traced(&LiveConfig {
                dedup,
                ..cfg.clone()
            });
            let out = run(&cfg);
            if cfg.workload != WorkloadKind::Idle {
                assert!(out.frozen_dirty > 0, "the geometry leaves a manifest");
            }
            assert_eq!(out.work.src.blocks_hashed, out.frozen_dirty);
            assert_eq!(out.work.dst.blocks_hashed, 0);
            assert!(dedup_sessions(&cfg).0.is_empty());
        }
    }
}

proptest! {
    /// Fingerprinting is refused at a cost of exactly zero and nowhere
    /// else, whatever a transport answers: every bit pattern is some
    /// `f64` — NaNs, infinities, negatives, subnormals.
    #[test]
    fn fingerprinting_pays_everywhere_but_on_a_free_link(bits in any::<u64>()) {
        let link = f64::from_bits(bits);
        prop_assert_eq!(fingerprinting_pays(Some(link)), link != 0.0);
        for odd in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, f64::MIN_POSITIVE] {
            prop_assert!(fingerprinting_pays(Some(odd)));
        }
        prop_assert!(!fingerprinting_pays(Some(0.0)) && !fingerprinting_pays(Some(-0.0)));
        prop_assert!(fingerprinting_pays(None));
    }

    /// The decision as a function of its three numbers: never on a free
    /// link, never when nothing is saved, and once it says yes a costlier
    /// link or a larger saving cannot make it say no.
    #[test]
    fn the_decision_is_monotone_in_link_cost_and_saved_share(
        saved in -1.0f64..1.0,
        link in 0.0f64..10_000.0,
        lz in 0.0f64..1_000.0,
        more_link in 0.0f64..10_000.0,
        more_saved in 0.0f64..1.0,
    ) {
        prop_assert!(!lz_pays(saved, 0.0, lz));
        prop_assert!(!lz_pays(saved.min(0.0), link, lz));
        if lz_pays(saved, link, lz) {
            prop_assert!(lz_pays(saved, link + more_link, lz));
            prop_assert!(lz_pays((saved + more_saved).min(1.0), link, lz));
            // And cheaper LZ never hurts.
            prop_assert!(lz_pays(saved, link, lz / 2.0));
        }
    }
}
