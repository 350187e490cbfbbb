//! The related-work baselines of §II, implemented over the same substrate
//! as TPM so the comparison is apples-to-apples.
//!
//! * [`run_freeze_and_copy`] — Internet Suspend/Resume-style: stop the VM,
//!   copy everything, restart it. Zero redundancy, catastrophic downtime.
//! * [`run_on_demand`] — migrate memory/CPU live, resume immediately, and
//!   fetch disk blocks only when the guest touches them. Downtime matches
//!   shared-storage migration, but blocks the guest never reads are never
//!   synchronized: the source can never be retired, and system
//!   availability drops to p² (both machines must stay up).
//! * [`run_collective`] — The Collective (OSDI'02): freeze-and-copy over
//!   a shared base image, transferring only the copy-on-write diff —
//!   smaller, but the VM is still down for the whole transfer.
//! * [`run_delta_queue`] — Bradford et al. (VEE'07): pre-copy the disk
//!   once while forwarding every write as a delta record; after resume,
//!   destination I/O is blocked until the queued deltas are replayed.
//!   Write locality makes many deltas redundant — the redundancy TPM's
//!   bitmap eliminates by construction.

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng, SimTime};
use simnet::capacity::seek_aware_share;
use simnet::proto::{Category, TransferLedger, FRAME_OVERHEAD};
use vdisk::MetaDisk;
use vmstate::{CpuState, GuestMemory};
use workloads::probe::ThroughputProbe;
use workloads::{OpKind, Workload, WorkloadKind};

use crate::report::{IterationStats, MigrationReport, PhaseTimings, PostCopyStats};
use crate::sim::{DirtyTracker, PostCopyConfig};
use crate::MigrationConfig;

/// Availability of the migrated system when it depends on `n` machines
/// each available with probability `p` — the paper's p² argument against
/// on-demand fetching.
pub fn dependent_availability(p: f64, machines: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "availability must be in [0,1]");
    p.powi(machines as i32)
}

struct BaselineWorld {
    cfg: MigrationConfig,
    workload: Box<dyn Workload>,
    rng: SimRng,
    now: SimTime,
    src_disk: MetaDisk,
    dst_disk: MetaDisk,
    src_mem: GuestMemory,
    dst_mem: GuestMemory,
    cpu: CpuState,
    ledger: TransferLedger,
    probe: ThroughputProbe,
}

impl BaselineWorld {
    fn new(cfg: MigrationConfig, kind: WorkloadKind) -> Self {
        cfg.validate();
        let mut rng = SimRng::new(cfg.seed);
        let workload = kind.build(cfg.disk_blocks as u64);
        let mut src_disk = MetaDisk::new(cfg.disk_blocks);
        for b in 0..cfg.disk_blocks {
            src_disk.write(b);
        }
        let mut src_mem = GuestMemory::new(4096, cfg.mem_pages);
        for p in 0..cfg.mem_pages {
            src_mem.touch(p);
        }
        src_mem.drain_dirty();
        let mut cpu = CpuState::new(cfg.vcpus);
        cpu.scribble(rng.next_u64());
        Self {
            dst_disk: MetaDisk::new(cfg.disk_blocks),
            dst_mem: GuestMemory::new(4096, cfg.mem_pages),
            workload,
            rng,
            now: SimTime::ZERO,
            src_disk,
            src_mem,
            cpu,
            ledger: TransferLedger::new(),
            probe: ThroughputProbe::new(),
            cfg,
        }
    }

    fn empty_report(&self, scheme: &str) -> MigrationReport {
        MigrationReport {
            scheme: scheme.into(),
            workload: self.workload.name().into(),
            total_time_secs: 0.0,
            downtime_ms: 0.0,
            disruption_secs: 0.0,
            ledger: TransferLedger::new(),
            wire: Default::default(),
            disk_iterations: Vec::new(),
            mem_iterations: Vec::new(),
            postcopy: PostCopyStats::default(),
            phases: PhaseTimings::default(),
            timeline: Vec::new(),
            io_blocked_secs: 0.0,
            residual_blocks: 0,
            redundant_deltas: 0,
            stream_blocks: Vec::new(),
            multisource: Default::default(),
            consistent: false,
        }
    }
}

/// Freeze-and-copy (Internet Suspend/Resume): suspend, move everything,
/// resume. Downtime equals total migration time.
pub fn run_freeze_and_copy(cfg: MigrationConfig, kind: WorkloadKind) -> MigrationReport {
    let mut w = BaselineWorld::new(cfg, kind);
    let bs = w.cfg.block_size;
    let rate = w.cfg.disk_stream_demand(); // the pipeline ceiling still applies
    let disk_bytes = w.cfg.disk_blocks as u64 * (bs + 8) + FRAME_OVERHEAD;
    let mem_bytes = w.cfg.mem_pages as u64 * (4096 + 8) + FRAME_OVERHEAD;
    let cpu_bytes = w.cpu.size_bytes() as u64 + FRAME_OVERHEAD;

    // VM is down for the entire transfer.
    w.probe.record(w.now, 0.0);
    for b in 0..w.cfg.disk_blocks {
        w.dst_disk.copy_block_from(&w.src_disk, b);
    }
    for p in 0..w.cfg.mem_pages {
        w.dst_mem.copy_page_from(&w.src_mem, p);
    }
    w.ledger.add(Category::DiskPrecopy, disk_bytes);
    w.ledger.add(Category::Memory, mem_bytes);
    w.ledger.add(Category::Cpu, cpu_bytes);
    let total_bytes = disk_bytes + mem_bytes + cpu_bytes;
    let downtime = w.cfg.suspend_overhead
        + SimDuration::from_secs_f64(total_bytes as f64 / rate.min(w.cfg.migration_net_rate()))
        + w.cfg.link.latency()
        + w.cfg.resume_overhead;
    w.now += downtime;
    w.probe.record(w.now, 0.0);

    let consistent = w.src_disk.content_equals(&w.dst_disk) && w.src_mem.content_equals(&w.dst_mem);
    MigrationReport {
        total_time_secs: downtime.as_secs_f64(),
        downtime_ms: downtime.as_millis_f64(),
        disruption_secs: downtime.as_secs_f64(),
        ledger: w.ledger.clone(),
        disk_iterations: vec![IterationStats {
            index: 1,
            units_sent: w.cfg.disk_blocks as u64,
            bytes: w.cfg.disk_blocks as u64 * bs,
            duration_secs: downtime.as_secs_f64(),
            dirty_at_end: 0,
        }],
        timeline: w.probe.samples().to_vec(),
        consistent,
        ..w.empty_report("freeze-and-copy")
    }
}

/// On-demand fetching: live memory/CPU migration, then resume with the
/// whole disk remote; blocks are pulled as the guest reads them, and
/// *nothing is pushed*. Measures the residual source dependency at
/// `horizon`.
pub fn run_on_demand(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    horizon: SimDuration,
) -> MigrationReport {
    let mut w = BaselineWorld::new(cfg, kind);

    // Live memory pre-copy (simplified single pass + remainder, which is
    // what matters for downtime parity with shared-storage migration).
    let net = w.cfg.migration_net_rate();
    let mem_bytes = w.cfg.mem_pages as u64 * (4096 + 8);
    let mem_time = SimDuration::from_secs_f64(mem_bytes as f64 / net);
    // Guest runs normally during the memory copy.
    let solo = w.workload.disk_demand().min(w.cfg.disk_capacity);
    let mut t = SimDuration::ZERO;
    let mut ops = Vec::new();
    while t < mem_time {
        let dt = w.cfg.step.min(mem_time - t);
        ops.clear();
        w.workload.ops_into(dt, solo, &mut w.rng, &mut ops);
        for op in &ops {
            if let OpKind::Write { block } = op.kind {
                w.src_disk.write(block as usize);
            }
        }
        w.probe
            .record(w.now + dt, w.workload.client_throughput(solo));
        t += dt;
        w.now += dt;
    }
    for p in 0..w.cfg.mem_pages {
        w.dst_mem.copy_page_from(&w.src_mem, p);
    }
    w.ledger.add(Category::Memory, mem_bytes + FRAME_OVERHEAD);
    w.ledger
        .add(Category::Cpu, w.cpu.size_bytes() as u64 + FRAME_OVERHEAD);

    let downtime = w.cfg.suspend_overhead
        + SimDuration::from_secs_f64(w.cpu.size_bytes() as f64 / net)
        + w.cfg.link.latency()
        + w.cfg.resume_overhead;
    w.probe.record(w.now, 0.0);
    w.now += downtime;
    let t_resume = w.now;

    // Every block is remote; pulls only.
    let all_remote = FlatBitmap::all_set(w.cfg.disk_blocks);
    let mut dead_tracker = DirtyTracker::new(w.cfg.bitmap, w.cfg.disk_blocks);
    let (w_share, pull_rate) = seek_aware_share(
        w.cfg.disk_capacity,
        w.cfg.seek_penalty,
        w.workload.disk_demand(),
        w.cfg.disk_stream_demand(),
    );
    let pc = PostCopyConfig {
        block_size: w.cfg.block_size,
        push_rate: pull_rate.max(1.0),
        workload_share: w_share,
        latency: w.cfg.link.latency(),
        push_batch: 32,
        slice: SimDuration::from_millis(20),
        horizon,
        push_enabled: false,
    };
    let mut rng = w.rng.fork(1);
    let out = crate::sim::run_postcopy(
        pc,
        t_resume,
        &w.src_disk,
        &mut w.dst_disk,
        all_remote.clone(),
        all_remote,
        &mut dead_tracker,
        w.workload.as_mut(),
        &mut rng,
        &mut w.ledger,
        &mut w.probe,
        &telemetry::Recorder::off(),
    );
    w.now = out.finished_at;

    MigrationReport {
        total_time_secs: w.now.since(SimTime::ZERO).as_secs_f64(),
        downtime_ms: downtime.as_millis_f64(),
        disruption_secs: 0.0,
        ledger: w.ledger.clone(),
        postcopy: out.stats,
        residual_blocks: out.residual_blocks,
        timeline: w.probe.samples().to_vec(),
        // On-demand never converges: the destination is NOT a complete
        // copy at the horizon.
        consistent: out.residual_blocks == 0,
        ..w.empty_report("on-demand")
    }
}

/// Collective-style migration (Sapuntzakis et al., OSDI'02): freeze-and-
/// copy, but all updates since a shared base image are captured in a
/// copy-on-write disk, so only the differences transfer. Downtime shrinks
/// with the diff size — but it is still downtime: the VM is stopped for
/// the whole transfer ("even transferring disk updates could cause
/// significant downtimes", §II-B).
///
/// `cow_dirty` marks the blocks that have diverged from the base image
/// both ends share.
pub fn run_collective(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    cow_dirty: &FlatBitmap,
) -> MigrationReport {
    assert_eq!(
        cow_dirty.len(),
        cfg.disk_blocks,
        "CoW bitmap must cover the whole disk"
    );
    let mut w = BaselineWorld::new(cfg, kind);
    // Both ends share the base image; the source then diverges on the
    // CoW-captured blocks.
    w.dst_disk = w.src_disk.clone();
    for b in cow_dirty.iter_set() {
        w.src_disk.write(b);
    }
    let bs = w.cfg.block_size;
    let rate = w.cfg.disk_stream_demand().min(w.cfg.migration_net_rate());
    let diff_blocks = cow_dirty.count_ones() as u64;
    let disk_bytes = diff_blocks * (bs + 8) + FRAME_OVERHEAD;
    let mem_bytes = w.cfg.mem_pages as u64 * (4096 + 8) + FRAME_OVERHEAD;
    let cpu_bytes = w.cpu.size_bytes() as u64 + FRAME_OVERHEAD;

    w.probe.record(w.now, 0.0);
    for b in cow_dirty.iter_set() {
        w.dst_disk.copy_block_from(&w.src_disk, b);
    }
    for p in 0..w.cfg.mem_pages {
        w.dst_mem.copy_page_from(&w.src_mem, p);
    }
    w.ledger.add(Category::DiskPrecopy, disk_bytes);
    w.ledger.add(Category::Memory, mem_bytes);
    w.ledger.add(Category::Cpu, cpu_bytes);
    let total_bytes = disk_bytes + mem_bytes + cpu_bytes;
    let downtime = w.cfg.suspend_overhead
        + SimDuration::from_secs_f64(total_bytes as f64 / rate)
        + w.cfg.link.latency()
        + w.cfg.resume_overhead;
    w.now += downtime;
    w.probe.record(w.now, 0.0);

    let consistent = w.src_disk.content_equals(&w.dst_disk) && w.src_mem.content_equals(&w.dst_mem);
    MigrationReport {
        total_time_secs: downtime.as_secs_f64(),
        downtime_ms: downtime.as_millis_f64(),
        disruption_secs: downtime.as_secs_f64(),
        ledger: w.ledger.clone(),
        disk_iterations: vec![IterationStats {
            index: 1,
            units_sent: diff_blocks,
            bytes: diff_blocks * bs,
            duration_secs: downtime.as_secs_f64(),
            dirty_at_end: 0,
        }],
        timeline: w.probe.samples().to_vec(),
        consistent,
        ..w.empty_report("collective")
    }
}

/// Bradford-style delta-queue migration: one disk pass with every
/// concurrent write forwarded as a delta; after resume, destination I/O
/// blocks until the remaining queue replays. Reports the redundant bytes
/// and the I/O-blocked time that TPM avoids.
pub fn run_delta_queue(cfg: MigrationConfig, kind: WorkloadKind) -> MigrationReport {
    let mut w = BaselineWorld::new(cfg, kind);
    let bs = w.cfg.block_size;

    // ---- single disk pass with write forwarding ----
    let total_blocks = w.cfg.disk_blocks as u64;
    let mut sent = 0u64;
    let mut forwarded: u64 = 0; // total deltas forwarded
    let mut seen = FlatBitmap::new(w.cfg.disk_blocks);
    let mut redundant: u64 = 0;
    let mut queue: u64 = 0; // deltas queued at dst, not yet applied
    let phase_start = w.now;
    let mut ops = Vec::new();
    while sent < total_blocks {
        let (w_share, m_share) = seek_aware_share(
            w.cfg.disk_capacity,
            w.cfg.seek_penalty,
            w.workload.disk_demand(),
            w.cfg.disk_stream_demand(),
        );
        let dt = w.cfg.step;
        let n = ((m_share * dt.as_secs_f64() / bs as f64) as u64).min(total_blocks - sent);
        for b in sent..sent + n {
            w.dst_disk.copy_block_from(&w.src_disk, b as usize);
        }
        w.ledger
            .add(Category::DiskPrecopy, n * (bs + 8) + FRAME_OVERHEAD);
        sent += n;
        // Guest writes become deltas on the wire (including rewrites).
        ops.clear();
        w.workload.ops_into(dt, w_share, &mut w.rng, &mut ops);
        for op in &ops {
            if let OpKind::Write { block } = op.kind {
                let b = block as usize;
                w.src_disk.write(b);
                forwarded += 1;
                queue += 1;
                if seen.set(b) {
                    redundant += 1;
                }
                // A delta record: location + size + payload.
                w.ledger.add(Category::DiskPush, bs + 16);
            }
        }
        w.probe
            .record(w.now + dt, w.workload.client_throughput(w_share));
        w.now += dt;
    }
    let precopy_secs = w.now.since(phase_start).as_secs_f64();

    // ---- memory copy + freeze (Xen-equivalent, simplified) ----
    let net = w.cfg.migration_net_rate();
    let mem_bytes = w.cfg.mem_pages as u64 * (4096 + 8);
    w.now += SimDuration::from_secs_f64(mem_bytes as f64 / net);
    for p in 0..w.cfg.mem_pages {
        w.dst_mem.copy_page_from(&w.src_mem, p);
    }
    w.ledger.add(Category::Memory, mem_bytes + FRAME_OVERHEAD);
    w.ledger
        .add(Category::Cpu, w.cpu.size_bytes() as u64 + FRAME_OVERHEAD);
    let downtime = w.cfg.suspend_overhead
        + SimDuration::from_secs_f64(w.cpu.size_bytes() as f64 / net)
        + w.cfg.link.latency()
        + w.cfg.resume_overhead;
    w.probe.record(w.now, 0.0);
    w.now += downtime;

    // ---- replay: destination I/O blocked until the queue drains ----
    // Deltas apply at local disk speed; the queue at resume is whatever
    // was forwarded during the (short) freeze tail — conservatively, the
    // deltas of the last pre-copy step plus those in flight.
    let replay_blocks = queue.min(forwarded);
    let apply_rate = w.cfg.disk_capacity;
    let io_blocked = SimDuration::from_secs_f64(
        // The paper's complaint: every queued delta must apply before any
        // guest I/O proceeds. Locality means the queue holds redundant
        // work proportional to the rewrite ratio.
        replay_blocks as f64 * bs as f64 / apply_rate,
    );
    w.probe.record(w.now, 0.0);
    w.now += io_blocked;

    // Apply the deltas (the destination converges after the replay).
    for b in seen.iter_set() {
        w.dst_disk.copy_block_from(&w.src_disk, b);
    }
    let consistent = w.src_disk.content_equals(&w.dst_disk) && w.src_mem.content_equals(&w.dst_mem);

    MigrationReport {
        total_time_secs: w.now.since(SimTime::ZERO).as_secs_f64(),
        downtime_ms: downtime.as_millis_f64(),
        disruption_secs: io_blocked.as_secs_f64(),
        ledger: w.ledger.clone(),
        disk_iterations: vec![IterationStats {
            index: 1,
            units_sent: total_blocks,
            bytes: total_blocks * bs,
            duration_secs: precopy_secs,
            dirty_at_end: forwarded,
        }],
        io_blocked_secs: io_blocked.as_secs_f64(),
        redundant_deltas: redundant,
        timeline: w.probe.samples().to_vec(),
        consistent,
        ..w.empty_report("delta-queue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MigrationConfig {
        MigrationConfig::small()
    }

    #[test]
    fn availability_squares() {
        assert!((dependent_availability(0.99, 2) - 0.9801).abs() < 1e-9);
        assert!((dependent_availability(0.9, 1) - 0.9).abs() < 1e-9);
        assert!(dependent_availability(0.99, 2) < 0.99);
    }

    #[test]
    fn freeze_and_copy_downtime_equals_total_time() {
        let r = run_freeze_and_copy(cfg(), WorkloadKind::Idle);
        assert!(r.consistent);
        assert!((r.downtime_ms / 1000.0 - r.total_time_secs).abs() < 1e-6);
        // 256 MiB + 32 MiB at ~52 MB/s: seconds of downtime, not millis.
        assert!(r.downtime_ms > 1_000.0, "downtime {} ms", r.downtime_ms);
    }

    #[test]
    fn on_demand_has_short_downtime_but_residual_dependency() {
        let r = run_on_demand(cfg(), WorkloadKind::Web, SimDuration::from_secs(30));
        // Downtime comparable to shared-storage migration (ms).
        assert!(r.downtime_ms < 200.0, "downtime {} ms", r.downtime_ms);
        // But a huge residual dependency on the source.
        assert!(
            r.residual_blocks > (cfg().disk_blocks as u64) / 2,
            "residual {}",
            r.residual_blocks
        );
        assert!(!r.consistent);
    }

    #[test]
    fn collective_downtime_scales_with_diff() {
        let c = cfg();
        let mut small_diff = FlatBitmap::new(c.disk_blocks);
        for b in (0..c.disk_blocks).step_by(100) {
            small_diff.set(b);
        }
        let small = run_collective(c.clone(), WorkloadKind::Idle, &small_diff);
        assert!(small.consistent);
        let big = run_freeze_and_copy(c.clone(), WorkloadKind::Idle);
        // A 1% diff shrinks downtime dramatically (memory still crosses
        // in full) — but it is still far above TPM's, because the VM
        // stays frozen for the whole transfer.
        assert!(small.downtime_ms * 5.0 < big.downtime_ms);
        let tpm = crate::sim::run_tpm(c, WorkloadKind::Idle).report;
        assert!(
            tpm.downtime_ms * 5.0 < small.downtime_ms,
            "TPM {} ms vs Collective {} ms",
            tpm.downtime_ms,
            small.downtime_ms
        );
    }

    #[test]
    fn delta_queue_ships_redundant_bytes_and_blocks_io() {
        let r = run_delta_queue(cfg(), WorkloadKind::Web);
        assert!(r.consistent);
        // Forwarded deltas exist and the destination endured an I/O block.
        assert!(r.ledger.get(Category::DiskPush) > 0);
        assert!(r.io_blocked_secs >= 0.0);
        // TPM on the same scenario ships less disk data: every rewrite is
        // a redundant delta here but a free re-set bit there.
        let tpm = crate::sim::run_tpm(cfg(), WorkloadKind::Web).report;
        assert!(
            tpm.ledger.disk_total() < r.ledger.disk_total(),
            "tpm {} vs delta {}",
            tpm.ledger.disk_total(),
            r.ledger.disk_total()
        );
    }
}
