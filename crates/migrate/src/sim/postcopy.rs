//! Event-driven post-copy synchronization (§IV-A-3).
//!
//! At resume time, source and destination hold identical copies of the
//! block-bitmap marking every unsynchronized block. The source pushes the
//! marked blocks continuously; the destination intercepts guest I/O:
//!
//! * a **read** to a dirty block queues in the pending list and sends a
//!   pull request — the source answers it preferentially;
//! * a **write** to a dirty block clears the bit outright (the whole block
//!   is overwritten locally, so the stale copy is never needed) and sets
//!   the bit in the *new* bitmap that a later Incremental Migration uses;
//! * a pushed block arriving after a local write finds its bit cleared
//!   and is dropped.
//!
//! Push guarantees the phase ends in finite time; disabling it (the
//! on-demand-fetching baseline of §II-B) leaves a residual dependency on
//! the source that this module measures.

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng, SimTime, Simulator};
use simnet::proto::{Category, MigMessage, TransferLedger};
use telemetry::{Event, Fold, Recorder};
use vdisk::{DomainId, IoRequest, MetaDisk, PendingQueue};
use workloads::probe::ThroughputProbe;
use workloads::{OpKind, TimedOp, Workload};

use crate::phase::Worklist;
use crate::report::PostCopyStats;
use crate::MigrationConfig;

/// Parameters of the post-copy phase.
#[derive(Debug, Clone)]
pub struct PostCopyConfig {
    /// Block size in bytes.
    pub block_size: u64,
    /// Throughput of the source push stream, bytes/second.
    pub push_rate: f64,
    /// Disk share the guest workload achieves on the destination.
    pub workload_share: f64,
    /// One-way network latency.
    pub latency: SimDuration,
    /// Blocks batched per push message.
    pub push_batch: usize,
    /// Workload slicing interval.
    pub slice: SimDuration,
    /// Abandon the phase at this horizon (only reached when push is
    /// disabled).
    pub horizon: SimDuration,
    /// `false` reproduces the pure on-demand-fetching baseline.
    pub push_enabled: bool,
}

impl PostCopyConfig {
    /// The post-copy phase of a `cfg` migration whose guest asks `demand`
    /// of the destination's disk, which it shares seek-aware with the
    /// push stream: 32-block pushes, 20 ms workload slices.
    pub fn of(cfg: &MigrationConfig, demand: f64, horizon: SimDuration, push: bool) -> Self {
        let (workload_share, push_share) = cfg.disk_shares(demand);
        Self {
            block_size: cfg.block_size,
            push_rate: push_share.max(1.0),
            workload_share,
            latency: cfg.link.latency(),
            push_batch: 32,
            slice: SimDuration::from_millis(20),
            horizon,
            push_enabled: push,
        }
    }
}

/// Result of the post-copy phase.
#[derive(Debug)]
pub struct PostCopyOutcome {
    /// Phase statistics for the report.
    pub stats: PostCopyStats,
    /// Blocks never synchronized when the horizon fired (0 with push).
    pub residual_blocks: u64,
    /// Virtual time at which the phase completed.
    pub finished_at: SimTime,
}

struct PcState<'a> {
    cfg: PostCopyConfig,
    start: SimTime,
    src_disk: &'a MetaDisk,
    dst_disk: &'a mut MetaDisk,
    /// Blocks the source still intends to push.
    push: Worklist,
    /// The destination's transferred_block_bitmap.
    dst_bm: FlatBitmap,
    new_bm: &'a mut FlatBitmap,
    workload: &'a mut dyn Workload,
    rng: &'a mut SimRng,
    /// One workload slice's ops, cleared and refilled per slice.
    ops: Vec<TimedOp>,
    ledger: &'a mut TransferLedger,
    probe: &'a mut ThroughputProbe,
    pending: PendingQueue,
    in_flight: u64,
    pulls_outstanding: u64,
    stats: PostCopyStats,
    done: bool,
    finished_at: SimTime,
    fold: &'a mut Fold,
    rec: &'a Recorder,
}

impl PcState<'_> {
    fn apply_arrival(&mut self, now: SimTime, block: usize, pulled: bool) {
        let block_id = block as u64;
        let event = if self.dst_bm.get(block) {
            self.dst_disk.copy_block_from(self.src_disk, block);
            self.dst_bm.clear(block);
            if pulled {
                Event::BlockPulled { block: block_id }
            } else {
                Event::BlockPushed { block: block_id }
            }
        } else {
            // Superseded by a destination write (or a racing pull/push
            // pair): drop, per the paper's receive algorithm.
            Event::BlockDropped { block: block_id }
        };
        self.fold.at_nanos(self.rec, now.as_nanos(), event);
        // Release any reads parked on this block: its data is now local
        // either way.
        for req in self.pending.take_for_block(block) {
            debug_assert!(!req.is_write());
        }
    }

    fn check_done(&mut self, now: SimTime) {
        if self.done {
            return;
        }
        let src_drained = self.push.is_empty() || !self.cfg.push_enabled;
        if self.cfg.push_enabled
            && src_drained
            && self.in_flight == 0
            && self.pulls_outstanding == 0
        {
            debug_assert!(
                self.dst_bm.none_set(),
                "push completed but destination bitmap not empty"
            );
            debug_assert!(self.pending.is_empty());
            self.done = true;
            self.finished_at = now;
        }
    }
}

fn schedule_push(sim: &mut Simulator<PcState<'_>>, st: &mut PcState<'_>) {
    if !st.cfg.push_enabled || st.done {
        return;
    }
    // Gather the next batch of blocks still marked at the source.
    let mut batch = Vec::with_capacity(st.cfg.push_batch);
    st.push.take(st.cfg.push_batch, None, |b| batch.push(b));
    if batch.is_empty() {
        // Everything handed to the wire; completion happens at the last
        // arrival (PushComplete itself is control traffic).
        let msg = MigMessage::PushComplete;
        st.ledger.record(&msg);
        return;
    }
    let bytes: u64 = batch.len() as u64 * st.cfg.block_size;
    let msg = MigMessage::DiskBlocks {
        blocks: batch.iter().map(|&b| b as u64).collect(),
        payload_len: bytes,
        payload: None,
    };
    // Account pushes under their own category, not pre-copy.
    st.ledger.add(Category::DiskPush, msg.wire_size());
    st.in_flight += batch.len() as u64;
    let serialize = SimDuration::from_secs_f64(bytes as f64 / st.cfg.push_rate);
    let arrive_in = serialize + st.cfg.latency;
    sim.schedule_in(arrive_in, move |sim2, st2: &mut PcState<'_>| {
        for b in batch {
            st2.apply_arrival(sim2.now(), b, false);
            st2.in_flight -= 1;
        }
        st2.check_done(sim2.now());
    });
    // Pipeline: next batch leaves as soon as this one has serialized.
    sim.schedule_in(serialize, schedule_push);
}

fn workload_slice(sim: &mut Simulator<PcState<'_>>, st: &mut PcState<'_>) {
    if st.done {
        return;
    }
    let slice = st.cfg.slice;
    let share = st.cfg.workload_share;
    st.ops.clear();
    st.workload.ops_into(slice, share, st.rng, &mut st.ops);
    for op in &st.ops {
        match op.kind {
            OpKind::Write { block } => {
                let block = block as usize;
                st.dst_disk.write(block);
                st.new_bm.set(block);
                if st.dst_bm.get(block) {
                    // Whole-block overwrite: no pull needed, cancel sync.
                    st.dst_bm.clear(block);
                    st.rec
                        .record_at_nanos(sim.now().as_nanos(), || Event::SyncCancelled {
                            block: block as u64,
                        });
                    for req in st.pending.take_for_block(block) {
                        debug_assert!(!req.is_write());
                    }
                }
            }
            OpKind::Read { block } => {
                let block = block as usize;
                if st.dst_bm.get(block) {
                    let already_waiting = st.pending.waiting_on(block);
                    st.pending.push(IoRequest::read(block, DomainId(1)));
                    st.stats.pending_high_water = st
                        .stats
                        .pending_high_water
                        .max(st.pending.high_water() as u64);
                    if !already_waiting {
                        // Issue a pull. The source answers preferentially
                        // and removes the block from its push plan.
                        let req = MigMessage::PullRequest {
                            block: block as u64,
                        };
                        st.ledger.record(&req);
                        st.rec
                            .record_at_nanos(sim.now().as_nanos(), || Event::PullRequested {
                                block: block as u64,
                            });
                        st.push.pull(block);
                        st.pulls_outstanding += 1;
                        let resp_bytes = st.cfg.block_size;
                        let rtt = st.cfg.latency * 2u64
                            + SimDuration::from_secs_f64(resp_bytes as f64 / st.cfg.push_rate);
                        let resp = MigMessage::PostCopyBlock {
                            block: block as u64,
                            pulled: true,
                            payload_len: resp_bytes,
                            payload: None,
                        };
                        st.ledger.record(&resp);
                        sim.schedule_in(op.offset() + rtt, move |sim2, st2: &mut PcState<'_>| {
                            st2.apply_arrival(sim2.now(), block, true);
                            st2.pulls_outstanding -= 1;
                            st2.check_done(sim2.now());
                        });
                    }
                }
            }
        }
    }
    st.probe
        .record(sim.now() + slice, st.workload.client_throughput(share));
    st.check_done(sim.now());
    if !st.done {
        sim.schedule_in(slice, workload_slice);
    }
}

/// Run the post-copy phase.
///
/// `src_bm` and `dst_bm` are the two copies of the freeze-phase bitmap;
/// `new_bm` is the destination-side tracker feeding a later IM. The source
/// disk is immutable during the phase (the guest now runs on the
/// destination); destination writes land in `dst_disk`. Per-block push /
/// pull / drop events go through `fold`, which the outcome's counts are
/// read from; they and the cancel events are journaled into `recorder`
/// in virtual time (pass `Recorder::off()` for no tracing).
#[allow(clippy::too_many_arguments)]
pub fn run_postcopy(
    cfg: PostCopyConfig,
    start: SimTime,
    src_disk: &MetaDisk,
    dst_disk: &mut MetaDisk,
    src_bm: FlatBitmap,
    dst_bm: FlatBitmap,
    new_bm: &mut FlatBitmap,
    workload: &mut dyn Workload,
    rng: &mut SimRng,
    ledger: &mut TransferLedger,
    probe: &mut ThroughputProbe,
    fold: &mut Fold,
    recorder: &Recorder,
) -> PostCopyOutcome {
    assert!(cfg.push_rate > 0.0, "push rate must be positive");
    assert_eq!(src_bm.len(), dst_bm.len(), "bitmap sizes must match");
    let remaining = dst_bm.count_ones() as u64;

    // The simulator starts at t=0; the first events are scheduled at
    // `start`, which aligns its clock with the engine's.
    let mut sim: Simulator<PcState<'_>> = Simulator::new();

    let mut st = PcState {
        cfg: cfg.clone(),
        start,
        src_disk,
        dst_disk,
        push: Worklist::new(src_bm),
        dst_bm,
        new_bm,
        workload,
        rng,
        ops: Vec::new(),
        ledger,
        probe,
        pending: PendingQueue::new(),
        in_flight: 0,
        pulls_outstanding: 0,
        stats: PostCopyStats {
            remaining_at_resume: remaining,
            ..PostCopyStats::default()
        },
        done: false,
        finished_at: start,
        fold,
        rec: recorder,
    };

    // Degenerate case: nothing to synchronize.
    if remaining == 0 && cfg.push_enabled {
        st.stats.duration_secs = 0.0;
        return PostCopyOutcome {
            stats: st.stats,
            residual_blocks: 0,
            finished_at: start,
        };
    }

    sim.schedule_at(start, schedule_push);
    sim.schedule_at(start, workload_slice);
    let horizon = start + cfg.horizon;
    sim.schedule_at(horizon, |sim2, st2: &mut PcState<'_>| {
        if !st2.done {
            st2.done = true;
            st2.finished_at = sim2.now();
        }
    });

    sim.run_while(&mut st, |s| s.done);

    let residual = st.dst_bm.count_ones() as u64;
    let [pushed, pulled, dropped] = st.fold.postcopy_blocks();
    PostCopyOutcome {
        stats: PostCopyStats {
            duration_secs: st.finished_at.since(st.start).as_secs_f64(),
            pushed,
            pulled,
            dropped,
            ..st.stats
        },
        residual_blocks: residual,
        finished_at: st.finished_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimRng;
    use workloads::WorkloadKind;

    fn cfg(push: bool) -> PostCopyConfig {
        PostCopyConfig {
            block_size: 4096,
            push_rate: 50.0 * 1024.0 * 1024.0,
            workload_share: 2.0 * 1024.0 * 1024.0,
            latency: SimDuration::from_micros(100),
            push_batch: 32,
            slice: SimDuration::from_millis(20),
            horizon: SimDuration::from_secs(60),
            push_enabled: push,
        }
    }

    fn run(push: bool, dirty: &[usize]) -> (PostCopyOutcome, MetaDisk, MetaDisk) {
        let blocks = 65_536;
        let mut src = MetaDisk::new(blocks);
        let mut dst = MetaDisk::new(blocks);
        // Source holds newer data for the dirty blocks.
        let mut bm = FlatBitmap::new(blocks);
        for &b in dirty {
            src.write(b);
            bm.set(b);
        }
        let mut new_bm = FlatBitmap::new(blocks);
        let mut workload = WorkloadKind::Idle.build(blocks as u64);
        let mut rng = SimRng::new(7);
        let mut ledger = TransferLedger::new();
        let mut probe = ThroughputProbe::new();
        let out = run_postcopy(
            cfg(push),
            SimTime::from_nanos(1_000_000_000),
            &src,
            &mut dst,
            bm.clone(),
            bm,
            &mut new_bm,
            workload.as_mut(),
            &mut rng,
            &mut ledger,
            &mut probe,
            &mut Fold::default(),
            &Recorder::off(),
        );
        (out, src, dst)
    }

    #[test]
    fn push_synchronizes_everything() {
        let dirty: Vec<usize> = (0..500).map(|i| i * 100).collect();
        let (out, src, dst) = run(true, &dirty);
        assert_eq!(out.residual_blocks, 0);
        assert_eq!(out.stats.pushed, 500);
        assert_eq!(out.stats.pulled, 0);
        assert!(src.content_equals(&dst));
        // 500 blocks at 50 MB/s is ~40 ms plus latency.
        assert!(out.stats.duration_secs < 1.0);
    }

    #[test]
    fn empty_bitmap_finishes_instantly() {
        let (out, src, dst) = run(true, &[]);
        assert_eq!(out.stats.duration_secs, 0.0);
        assert_eq!(out.stats.remaining_at_resume, 0);
        assert!(src.content_equals(&dst));
    }

    fn run_with_workload(kind: WorkloadKind, push_rate: f64, dirty: &[usize]) -> PostCopyOutcome {
        let blocks = 65_536;
        let mut src = MetaDisk::new(blocks);
        let mut dst = MetaDisk::new(blocks);
        let mut bm = FlatBitmap::new(blocks);
        for &b in dirty {
            src.write(b);
            bm.set(b);
        }
        let mut new_bm = FlatBitmap::new(blocks);
        let mut workload = kind.build(blocks as u64);
        let mut rng = SimRng::new(7);
        let mut ledger = TransferLedger::new();
        let mut probe = ThroughputProbe::new();
        run_postcopy(
            PostCopyConfig {
                push_rate,
                ..cfg(true)
            },
            SimTime::from_nanos(1_000_000_000),
            &src,
            &mut dst,
            bm.clone(),
            bm,
            &mut new_bm,
            workload.as_mut(),
            &mut rng,
            &mut ledger,
            &mut probe,
            &mut Fold::default(),
            &Recorder::off(),
        )
    }

    #[test]
    fn reading_guest_forces_pulls() {
        // A live web guest reads its data region (blocks 16384..49152 on
        // this disk) at ~500 blocks/s while a 2 MiB/s push needs ~16 s to
        // drain 8192 dirty blocks sitting in that region: reads MUST land
        // on still-dirty blocks before the push reaches them, firing the
        // on-demand pull path.
        let dirty: Vec<usize> = (16_384..24_576).collect();
        let out = run_with_workload(WorkloadKind::Web, 2.0 * 1024.0 * 1024.0, &dirty);
        assert!(
            out.stats.pulled > 0,
            "a reading guest over a slow push must pull (stats: {:?})",
            out.stats
        );
        assert_eq!(out.residual_blocks, 0, "push still finishes the phase");
    }

    #[test]
    fn local_writes_drop_superseded_pushes() {
        // Bonnie++'s putc phase rewrites its file extent (blocks
        // 26214..34406 here) sequentially at the same ~512 blocks/s the
        // push stream achieves, so the write cursor chases the push cursor
        // through the dirty set and keeps overwriting blocks whose pushed
        // copy is still in flight. Those arrivals MUST be dropped (the
        // paper's receive algorithm), never applied over newer local data.
        let a_start = 65_536 * 2 / 5;
        let dirty: Vec<usize> = (a_start..a_start + 8_192).collect();
        let out = run_with_workload(WorkloadKind::Diabolical, 2.0 * 1024.0 * 1024.0, &dirty);
        assert!(
            out.stats.dropped > 0,
            "in-flight pushes superseded by local writes must be dropped (stats: {:?})",
            out.stats
        );
        assert_eq!(out.residual_blocks, 0);
        assert!(
            out.stats.pushed + out.stats.pulled < dirty.len() as u64,
            "superseded blocks must not also count as synchronized arrivals"
        );
    }

    #[test]
    fn on_demand_without_push_leaves_residual() {
        // Idle workload issues no reads: with push disabled nothing ever
        // synchronizes — the residual-dependency problem of §II-B.
        let dirty: Vec<usize> = (0..100).collect();
        let (out, _, _) = run(false, &dirty);
        assert_eq!(out.residual_blocks, 100);
        assert_eq!(out.stats.pushed, 0);
        // The phase only ended because the horizon fired.
        assert!((out.stats.duration_secs - 60.0).abs() < 1.0);
    }
}
