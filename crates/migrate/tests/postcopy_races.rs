//! Scripted post-copy races (§IV-A-3): hand-written guest traces pin
//! reads and writes to exact virtual times so every branch of the paper's
//! destination algorithm is exercised deterministically — pull on read,
//! cancel on write, drop superseded pushes, queue-once per block.

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng, SimTime};
use migrate::sim::{run_postcopy, PostCopyConfig};
use simnet::proto::{Category, TransferLedger};
use vdisk::MetaDisk;
use workloads::probe::ThroughputProbe;
use workloads::{Guest, OpKind, OpTrace, TimedOp, TraceWorkload};

const BLOCKS: usize = 4096;

/// Very slow push (1 block/s) so scripted guest ops land long before the
/// pushes reach their blocks.
fn slow_cfg() -> PostCopyConfig {
    PostCopyConfig {
        block_size: 4096,
        push_rate: 4096.0, // one block per second
        workload_share: 1e6,
        latency: SimDuration::from_millis(1),
        push_batch: 1,
        slice: SimDuration::from_millis(10),
        horizon: SimDuration::from_secs(3600),
        push_enabled: true,
    }
}

struct Setup {
    src: MetaDisk,
    dst: MetaDisk,
    bm: FlatBitmap,
}

/// Source holds newer data for `dirty`; both sides agree on the bitmap.
fn setup(dirty: &[usize]) -> Setup {
    let mut src = MetaDisk::new(BLOCKS);
    let dst = MetaDisk::new(BLOCKS);
    let mut bm = FlatBitmap::new(BLOCKS);
    for &b in dirty {
        src.write(b);
        bm.set(b);
    }
    Setup { src, dst, bm }
}

fn run(
    setup: &mut Setup,
    trace: OpTrace,
    cfg: PostCopyConfig,
) -> (migrate::PostCopyStats, FlatBitmap, TransferLedger) {
    let replay = Box::new(TraceWorkload::new(trace, 1e6));
    let mut guest = Guest::with_workload(replay, 64, SimRng::new(1));
    let mut new_bm = FlatBitmap::new(BLOCKS);
    let mut ledger = TransferLedger::new();
    let mut probe = ThroughputProbe::new();
    let out = run_postcopy(
        cfg,
        SimTime::ZERO,
        &setup.src,
        &mut setup.dst,
        setup.bm.clone(),
        setup.bm.clone(),
        &mut new_bm,
        &mut guest,
        &mut ledger,
        &mut probe,
        &mut telemetry::Fold::default(),
        &telemetry::Recorder::off(),
    );
    assert_eq!(out.residual_blocks, 0, "push must always converge");
    (out.stats, new_bm, ledger)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[test]
fn read_to_dirty_block_pulls_it() {
    // Blocks 100 and 200 dirty; the guest reads 200 at t=5ms, long before
    // the 1-block/s push would reach it.
    let mut s = setup(&[100, 200]);
    let mut trace = OpTrace::new();
    trace.push(TimedOp::new(ms(5), OpKind::Read { block: 200 }));
    let (stats, _, ledger) = run(&mut s, trace, slow_cfg());
    assert_eq!(stats.pulled, 1, "the read must trigger exactly one pull");
    assert_eq!(stats.pushed, 1, "the other block is pushed");
    assert_eq!(stats.dropped, 0);
    assert!(ledger.get(Category::DiskPull) > 0);
    assert!(s.src.content_equals(&s.dst));
}

#[test]
fn read_to_clean_block_never_pulls() {
    let mut s = setup(&[100]);
    let mut trace = OpTrace::new();
    trace.push(TimedOp::new(ms(5), OpKind::Read { block: 300 })); // clean
    let (stats, _, ledger) = run(&mut s, trace, slow_cfg());
    assert_eq!(stats.pulled, 0);
    assert_eq!(ledger.get(Category::DiskPull), 0);
    assert_eq!(stats.pushed, 1);
}

#[test]
fn write_to_dirty_block_cancels_sync_and_push_is_dropped() {
    // Block 100 dirty; guest overwrites it locally before the push lands.
    // Paper: "A write request in the destination to a dirty block will
    // overwrite the whole block and thus does not require pulling".
    let mut s = setup(&[50, 100]);
    let mut trace = OpTrace::new();
    trace.push(TimedOp::new(ms(5), OpKind::Write { block: 100 }));
    let (stats, im, _) = run(&mut s, trace, slow_cfg());
    // Both source-marked blocks leave the wire; the one superseded by the
    // local write is dropped on arrival.
    assert_eq!(stats.pushed + stats.dropped, 2);
    assert_eq!(stats.dropped, 1, "the superseded push must be dropped");
    assert_eq!(stats.pulled, 0);
    // The write is in the IM bitmap…
    assert!(im.get(100));
    // …and the destination keeps the *local* data: src and dst disagree
    // exactly on the written block.
    assert_eq!(s.src.diff_blocks(&s.dst), vec![100]);
}

#[test]
fn repeated_reads_issue_one_pull() {
    // Three reads of the same dirty block while the first pull is in
    // flight: the pending queue parks them; only one pull crosses. The
    // read targets a block deep in the bitmap so the 1-block/s push
    // cannot beat the pull to it.
    let dirty: Vec<usize> = (0..50).chain([3000]).collect();
    let mut s = setup(&dirty);
    let mut cfg = slow_cfg();
    cfg.latency = SimDuration::from_millis(200); // keep the pull in flight
    let mut trace = OpTrace::new();
    for t in [5u64, 6, 7] {
        trace.push(TimedOp::new(ms(t), OpKind::Read { block: 3000 }));
    }
    let (stats, _, ledger) = run(&mut s, trace, cfg);
    assert_eq!(stats.pulled, 1);
    let pull_req_bytes = simnet::proto::MigMessage::PullRequest { block: 0 }.wire_size();
    let pull_block_bytes = simnet::proto::MigMessage::PostCopyBlock {
        block: 0,
        pulled: true,
        payload_len: 4096,
        payload: None,
    }
    .wire_size();
    assert_eq!(
        ledger.get(Category::DiskPull),
        pull_req_bytes + pull_block_bytes,
        "exactly one pull request and one pulled block on the wire"
    );
    assert!(stats.pending_high_water >= 2, "later reads must queue");
}

#[test]
fn write_then_read_needs_no_pull() {
    // Overwrite a dirty block, then read it: the read sees local data,
    // no pull.
    let mut s = setup(&[42]);
    let mut trace = OpTrace::new();
    trace.push(TimedOp::new(ms(5), OpKind::Write { block: 42 }));
    trace.push(TimedOp::new(ms(6), OpKind::Read { block: 42 }));
    let (stats, _, ledger) = run(&mut s, trace, slow_cfg());
    assert_eq!(stats.pulled, 0);
    assert_eq!(ledger.get(Category::DiskPull), 0);
    assert_eq!(stats.dropped, 1);
}

#[test]
fn pull_and_push_race_never_double_applies() {
    // Many dirty blocks with a fast push racing scripted reads across the
    // whole set: every block is applied exactly once (pushed, pulled, or
    // dropped after a local write) and the disks converge.
    let dirty: Vec<usize> = (0..512).map(|i| i * 8).collect();
    let mut s = setup(&dirty);
    let mut cfg = slow_cfg();
    cfg.push_rate = 2.0e6; // ~500 blocks/s: real racing
    let mut trace = OpTrace::new();
    for (i, &b) in dirty.iter().enumerate() {
        let kind = if i % 3 == 0 {
            OpKind::Write { block: b as u64 }
        } else {
            OpKind::Read { block: b as u64 }
        };
        trace.push(TimedOp::new(ms(1 + (i as u64 % 700)), kind));
    }
    let (stats, im, _) = run(&mut s, trace, cfg);
    // Applied syncs never exceed the dirty set; arrivals can exceed it
    // because a pull may race a push already in flight for the same
    // block — the duplicate is dropped by the bitmap check (the paper's
    // receive algorithm, lines 2-3).
    assert!(stats.pushed + stats.pulled <= 512);
    assert!(
        stats.pushed + stats.pulled + stats.dropped >= 512,
        "every dirty block must produce at least one arrival or local write"
    );
    assert!(stats.dropped > 0, "the race must actually occur");
    // Disks agree except on destination-written blocks.
    for b in s.src.diff_blocks(&s.dst) {
        assert!(im.get(b), "block {b} diverged without a local write");
    }
}
