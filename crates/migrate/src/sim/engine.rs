//! The simulated TPM/IM engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use block_bitmap::{ser, DirtyMap, FlatBitmap};
use blockstore::{BlockDirectory, FetchPlan, FetchPlanner};
use des::{SimDuration, SimRng, SimTime};
use simnet::capacity::seek_aware_share;
use simnet::proto::{Category, TransferLedger, WireStats, BLOCK_REF_WIRE, FRAME_OVERHEAD};
use telemetry::Recorder;
use vdisk::MetaDisk;
use vmstate::{CpuState, Domain, DomainId, GuestMemory, WssModel};
use workloads::probe::ThroughputProbe;
use workloads::{OpKind, TimedOp, Workload, WorkloadKind};

use crate::report::{IterationStats, MigrationReport, MultiSourceReport, PeerBytes, PhaseTimings};
use crate::sim::postcopy::{run_postcopy, PostCopyConfig};
use crate::sim::tracker::DirtyTracker;
use crate::{precopy_stops, MigrationConfig};

/// The single migrating VM's id inside the engine's private
/// [`BlockDirectory`] (the orchestrator uses real VM ids; a lone engine
/// has only one image to name).
const MS_VM: u64 = 0;

/// One step of a paced transfer of `remaining` units at `rate`
/// bytes/second: the step's length and the units that cross in it.
/// `carry` holds the fractional unit between steps; the step shrinks so
/// the last unit crosses exactly at its end, keeping phase timing exact.
fn pace_step(
    step: SimDuration,
    rate: f64,
    unit_bytes: f64,
    remaining: u64,
    carry: &mut f64,
) -> (SimDuration, u64) {
    let full_step_units = rate * step.as_secs_f64() / unit_bytes;
    let dt = if full_step_units + *carry >= remaining as f64 {
        SimDuration::from_secs_f64(((remaining as f64 - *carry).max(0.0) * unit_bytes) / rate)
    } else {
        step
    };
    let raw = *carry + rate * dt.as_secs_f64() / unit_bytes;
    let mut n = (raw.floor() as u64).min(remaining);
    *carry = raw - n as f64;
    if dt == SimDuration::ZERO || (n == 0 && dt < step) {
        // Numerical corner: force the last unit(s) through.
        n = remaining;
        *carry = 0.0;
    }
    (dt, n)
}

/// Everything a completed migration leaves behind: the report, the
/// destination-side state the VM now runs on, and the IM tracker that a
/// later migration back can use.
pub struct TpmOutcome {
    /// Metrics of the run.
    pub report: MigrationReport,
    /// The (now stale) source disk, exactly as it was at suspend time plus
    /// nothing — the source was retired.
    pub src_disk: MetaDisk,
    /// The live destination disk the VM runs on.
    pub dst_disk: MetaDisk,
    /// The live destination memory.
    pub dst_mem: GuestMemory,
    /// Destination-side tracker of post-resume writes (the paper's
    /// BM_3 / new_block_bitmap, feeding IM).
    pub im_tracker: DirtyTracker,
    /// The workload, carried over so IM continues the same op stream.
    pub workload: Box<dyn Workload>,
    /// The RNG, carried over for determinism across TPM→dwell→IM.
    pub rng: SimRng,
    /// Client throughput samples across the whole run so far.
    pub probe: ThroughputProbe,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
    /// Workload kind, for constructing follow-up runs.
    pub kind: WorkloadKind,
}

/// The simulated three-phase migration engine.
pub struct TpmEngine {
    pub(crate) cfg: MigrationConfig,
    pub(crate) kind: WorkloadKind,
    pub(crate) workload: Box<dyn Workload>,
    pub(crate) rng: SimRng,
    /// One guest step's ops, cleared and refilled per step.
    pub(crate) ops: Vec<TimedOp>,
    pub(crate) now: SimTime,
    pub(crate) src_disk: MetaDisk,
    pub(crate) dst_disk: MetaDisk,
    pub(crate) src_mem: GuestMemory,
    pub(crate) dst_mem: GuestMemory,
    pub(crate) cpu: CpuState,
    pub(crate) wss: WssModel,
    pub(crate) domain: Domain,
    pub(crate) tracker: DirtyTracker,
    pub(crate) tracking: bool,
    pub(crate) probe: ThroughputProbe,
    pub(crate) ledger: TransferLedger,
    /// Dedup/compression accounting for the disk pre-copy data plane.
    pub(crate) wire: WireStats,
    /// `Some` = incremental migration: only these blocks need the first
    /// pass.
    pub(crate) initial_to_send: Option<FlatBitmap>,
    pub(crate) scheme: &'static str,
    pub(crate) block_carry: f64,
    /// Guest-declared free blocks (§VII future work): never transferred
    /// unless written, and exempt from the consistency check — their
    /// contents are, by the guest's own declaration, meaningless.
    pub(crate) free_blocks: Option<FlatBitmap>,
    /// Blocks carried by each parallel stream across all disk phases
    /// (one entry per stream; index 0 carries everything when
    /// `cfg.streams == 1`).
    pub(crate) stream_blocks: Vec<u64>,
    /// Telemetry sink; disabled by default (a single atomic check per
    /// potential record). Events are stamped with virtual time.
    pub(crate) recorder: Arc<Recorder>,
    /// Peer holders for multi-source fetching: (host id, the image that
    /// host holds), ascending host id. Empty (the default) means
    /// classic single-source.
    pub(crate) peers: Vec<(u64, MetaDisk)>,
    /// The peers' images as the fetch planner reads them, and the NIC
    /// budget each offers; both built once, in `set_peers`.
    pub(crate) peer_dir: BlockDirectory,
    pub(crate) peer_budgets: BTreeMap<u64, f64>,
    /// Multi-source plan accounting for the report.
    pub(crate) ms: MultiSourceReport,
    /// Per-peer (blocks, bytes) fetched so far.
    pub(crate) peer_fetched: BTreeMap<u64, (u64, u64)>,
}

impl TpmEngine {
    /// Fresh primary migration: the source disk holds an installed system
    /// image (every block written once); the destination is blank.
    pub fn new(cfg: MigrationConfig, kind: WorkloadKind) -> Self {
        cfg.validate();
        let mut rng = SimRng::new(cfg.seed);
        let workload = kind.build(cfg.disk_blocks as u64);
        let mut src_disk = MetaDisk::new(cfg.disk_blocks);
        // The installed image: every block distinct from the blank
        // destination, so the first full pass is load-bearing for the
        // consistency check.
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
        let wss = workload.wss_model(cfg.mem_pages);
        let tracker = DirtyTracker::new(cfg.bitmap, cfg.disk_blocks);
        Self {
            dst_disk: MetaDisk::new(cfg.disk_blocks),
            dst_mem: GuestMemory::new(4096, cfg.mem_pages),
            domain: Domain::new(
                DomainId(1),
                format!("vm-{}", workload.name()),
                GuestMemory::new(4096, 1),
                CpuState::new(1),
            ),
            kind,
            workload,
            rng,
            ops: Vec::new(),
            now: SimTime::ZERO,
            src_disk,
            src_mem,
            cpu,
            wss,
            tracker,
            tracking: false,
            probe: ThroughputProbe::new(),
            ledger: TransferLedger::new(),
            wire: WireStats::default(),
            initial_to_send: None,
            scheme: "tpm",
            block_carry: 0.0,
            free_blocks: None,
            stream_blocks: vec![0; cfg.streams],
            cfg,
            recorder: Recorder::off(),
            peers: Vec::new(),
            peer_dir: BlockDirectory::new(),
            peer_budgets: BTreeMap::new(),
            ms: MultiSourceReport::default(),
            peer_fetched: BTreeMap::new(),
        }
    }

    /// Attach a telemetry recorder; every subsequent phase, iteration, and
    /// post-copy block event is journaled in virtual time.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = recorder;
    }

    /// Enable guest-assisted sparse migration (§VII): the guest declares
    /// `free` blocks unused, the first pre-copy pass skips them, and the
    /// consistency contract excludes them (unless the guest writes them,
    /// which re-enters them through the dirty path).
    ///
    /// # Panics
    /// Panics when the bitmap size does not match the disk.
    pub fn set_free_blocks(&mut self, free: FlatBitmap) {
        assert_eq!(
            free.len(),
            self.cfg.disk_blocks,
            "free bitmap must cover the whole disk"
        );
        self.free_blocks = Some(free);
    }

    /// Attach peer holders for multi-source fetching: each entry maps a
    /// host id to the disk image that host holds (a template clone, a
    /// `ReplicaTable` departure image…). Owed full blocks a peer holds
    /// at the live generation are fetched from the peers instead of the
    /// source, paced by `max_min_share` over `cfg.peer_budget` and the
    /// destination's ingest rate.
    ///
    /// # Panics
    /// Panics when a peer image's geometry does not match the disk.
    pub fn set_peers(&mut self, peers: BTreeMap<u64, MetaDisk>) {
        self.peer_dir = BlockDirectory::new();
        for (&host, disk) in &peers {
            assert_eq!(
                disk.num_blocks(),
                self.cfg.disk_blocks,
                "peer image must match the disk geometry"
            );
            self.peer_dir.publish(MS_VM, host, disk);
        }
        self.peer_budgets = peers.keys().map(|&h| (h, self.cfg.peer_budget)).collect();
        self.peers = peers.into_iter().collect();
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run the guest without migrating for `duration` (pre-migration
    /// timeline for the figures; also ages the disk image).
    pub fn warmup(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            let dt = self.cfg.step.min(end.since(self.now));
            self.guest_step(dt, self.workload_solo_share());
        }
    }

    /// Disk share the workload gets when no migration stream competes.
    fn workload_solo_share(&self) -> f64 {
        self.workload.disk_demand().min(self.cfg.disk_capacity)
    }

    /// Advance the guest by `dt` at the given achieved disk share: apply
    /// workload ops to the source disk (tracking writes when enabled),
    /// dirty guest memory, record a throughput sample.
    fn guest_step(&mut self, dt: SimDuration, w_share: f64) {
        self.ops.clear();
        self.workload
            .ops_into(dt, w_share, &mut self.rng, &mut self.ops);
        for op in &self.ops {
            if let OpKind::Write { block } = op.kind {
                let b = block as usize;
                self.src_disk.write(b);
                if self.tracking {
                    self.tracker.set(b);
                }
            }
        }
        self.wss.dirty_for(&mut self.src_mem, dt, &mut self.rng);
        self.probe
            .record(self.now + dt, self.workload.client_throughput(w_share));
        self.now += dt;
    }

    /// Transfer every block marked in `set` to the destination while the
    /// guest keeps running, contending for the disk. With `cfg.dedup` the
    /// set is first split against a snapshot of what the destination
    /// already holds verbatim (same generation at the same index — the
    /// MetaDisk notion of identical content): those blocks cross as
    /// 16-byte references, the rest as full payloads. Returns
    /// (blocks_sent, bytes, duration).
    fn transfer_disk_set(&mut self, set: &FlatBitmap, cat: Category) -> (u64, u64, SimDuration) {
        if !self.cfg.dedup {
            return self.transfer_disk_fulls(set, cat);
        }
        let mut refs = FlatBitmap::new(set.len());
        for b in set.iter_set() {
            if self.dst_disk.generation(b) == self.src_disk.generation(b) {
                refs.set(b);
            }
        }
        if refs.count_ones() == 0 {
            // Nothing to reference: take the classic path, bit-identical
            // to a dedup-off run (same floats, same ledger, same clock).
            return self.transfer_disk_fulls(set, cat);
        }
        // Full payloads first, then the cheap references — two
        // uniform-cost sub-phases, so K-stream sharding still cannot
        // change how many blocks cross per step (the invariant behind
        // `four_streams_match_single_stream_exactly`).
        let mut fulls = set.clone();
        fulls.subtract(&refs);
        let (fs, fb, fd) = self.transfer_disk_fulls(&fulls, cat);
        let (rs, rb, rd) = self.transfer_disk_blocks::<true>(&refs, cat);
        (fs + rs, fb + rb, fd + rd)
    }

    /// Route full payloads: classic source-streamed transfer, or — with
    /// multi-source on and at least one fresh holder — a planned split
    /// between the source stream and peer-fetch sessions. With
    /// multisource off, no peers attached, or no owed block fresh on
    /// any peer, the call reduces to the classic transfer loop with
    /// zero extra float math: bit-identical ledger and clock.
    fn transfer_disk_fulls(
        &mut self,
        fulls: &FlatBitmap,
        cat: Category,
    ) -> (u64, u64, SimDuration) {
        if !self.cfg.multisource || self.peers.is_empty() || fulls.count_ones() == 0 {
            return self.transfer_disk_blocks::<false>(fulls, cat);
        }
        let plan = FetchPlanner::plan(
            &self.peer_dir,
            MS_VM,
            &self.src_disk,
            fulls,
            None, // dedup already classified resident content as refs
            &self.peer_budgets,
            self.cfg.migration_net_rate(),
        );
        if plan.any_peer.count_ones() == 0 {
            return self.transfer_disk_blocks::<false>(fulls, cat);
        }
        self.ms.plans += 1;
        self.ms.planned_source += plan.source_only.count_ones() as u64;
        self.ms.planned_peer += plan.any_peer.count_ones() as u64;
        let rec = Arc::clone(&self.recorder);
        rec.record_at_nanos(self.now.as_nanos(), || telemetry::Event::FetchPlanned {
            side: telemetry::Side::Destination,
            source_blocks: plan.source_only.count_ones() as u64,
            peer_blocks: plan.any_peer.count_ones() as u64,
            ref_blocks: 0,
            peers: plan.per_peer.len() as u64,
        });
        let (ss, sb, sd) = self.transfer_disk_blocks::<false>(&plan.source_only, cat);
        let (ps, pb, pd) = self.transfer_peer_blocks(&plan);
        (ss + ps, sb + pb, sd + pd)
    }

    /// Drain the plan's per-peer assignments: blocks stream from their
    /// holders round-robin (ascending host id) at the aggregate max-min
    /// fan-in rate, while the guest keeps its full disk share — peer
    /// fetches never touch the source's disk, which is the whole point.
    /// Ledger entries go to [`Category::DiskPull`]: peer traffic
    /// accounts like post-copy pulls, per the wire protocol's category
    /// mapping for `BlockData`.
    fn transfer_peer_blocks(&mut self, plan: &FetchPlan) -> (u64, u64, SimDuration) {
        let phase_start = self.now;
        let total = plan.any_peer.count_ones() as u64;
        if total == 0 {
            return (0, 0, SimDuration::ZERO);
        }
        // Aggregate fan-in: the per-peer max-min shares already respect
        // both the holders' budgets and the destination's ingest cap.
        let rate: f64 = plan
            .per_peer
            .keys()
            .filter_map(|h| plan.shares.get(h))
            .sum::<f64>()
            .max(1.0);
        let bs = self.cfg.block_size;
        /// One serving peer's fetch session.
        struct Lane<'p> {
            /// Where the peer sits in `TpmEngine::peers`.
            peer: usize,
            assigned: &'p FlatBitmap,
            /// The next block to look from; `parked` once drained.
            cursor: usize,
            fetched: u64,
        }
        // Hosts resolve to lanes once, ascending host id: the block
        // loop below indexes and looks nothing up.
        let mut lanes: Vec<Lane<'_>> = plan
            .per_peer
            .iter()
            .filter_map(|(host, assigned)| {
                Some(Lane {
                    peer: self.peers.binary_search_by_key(host, |p| p.0).ok()?,
                    assigned,
                    cursor: 0,
                    fetched: 0,
                })
            })
            .collect();
        let parked = plan.any_peer.len();
        let mut sent = 0u64;
        let mut bytes = 0u64;
        let mut carry = 0.0f64;
        let mut rr = 0usize;
        while sent < total {
            let (dt, n) = pace_step(self.cfg.step, rate, bs as f64, total - sent, &mut carry);
            for _ in 0..n {
                let (peer, b) = loop {
                    let lanes_len = lanes.len();
                    let lane = &mut lanes[rr % lanes_len];
                    rr += 1;
                    if let Some(b) = lane.assigned.next_set_from(lane.cursor) {
                        lane.cursor = b + 1;
                        lane.fetched += 1;
                        break (lane.peer, b);
                    }
                    // This peer's assignment is drained; `sent < total`
                    // guarantees another peer still holds blocks.
                    lane.cursor = parked;
                };
                self.dst_disk.copy_block_from(&self.peers[peer].1, b);
            }
            if n > 0 {
                // BlockData frames: 16-byte header per block, one frame
                // envelope per step batch.
                self.ledger
                    .add(Category::DiskPull, n * (bs + 16) + FRAME_OVERHEAD);
                if self.cfg.compress {
                    self.wire.bytes_sent += n * bs / 2;
                    self.wire.blocks_compressed += n;
                } else {
                    self.wire.bytes_sent += n * bs;
                }
                self.wire.bytes_raw += n * bs;
            }
            sent += n;
            bytes += n * bs;
            self.guest_step(dt, self.workload_solo_share());
        }
        let rec = Arc::clone(&self.recorder);
        for lane in lanes {
            let (host, blocks, b) = (self.peers[lane.peer].0, lane.fetched, lane.fetched * bs);
            rec.record_at_nanos(self.now.as_nanos(), || telemetry::Event::PeerFetch {
                side: telemetry::Side::Destination,
                peer: host,
                blocks,
                bytes: b,
            });
            let e = self.peer_fetched.entry(host).or_insert((0, 0));
            e.0 += blocks;
            e.1 += b;
        }
        (sent, bytes, self.now.since(phase_start))
    }

    /// Uniform-cost transfer loop: every block in `set` crosses either as
    /// a full payload (`AS_REFS == false`) or as a 16-byte content
    /// reference. A referenced block is *not* copied — the destination
    /// already holds identical content by the snapshot; if the guest
    /// overwrites it mid-flight the dirty tracker re-enters it as a full
    /// send, exactly like the live engine's fingerprint-mismatch
    /// fallback.
    fn transfer_disk_blocks<const AS_REFS: bool>(
        &mut self,
        set: &FlatBitmap,
        cat: Category,
    ) -> (u64, u64, SimDuration) {
        let phase_start = self.now;
        let total = set.count_ones() as u64;
        if total == 0 {
            return (0, 0, SimDuration::ZERO);
        }
        let mut bytes = 0u64;
        let mut sent = 0u64;
        let bs = self.cfg.block_size;
        // Budget the step in whatever unit actually crosses the wire.
        // With `AS_REFS == false` this is exactly `bs as f64`, so the
        // float sequence of a feature-off run is unchanged bit for bit.
        let unit_bytes = if AS_REFS {
            BLOCK_REF_WIRE as f64
        } else {
            bs as f64
        };
        // One cursor per stream, each walking its own word-aligned shard
        // of the set (a lone stream walks the set directly, no copy).
        // Blocks drain round-robin across streams, so sharding decides
        // *which* block crosses next — the per-step quota `n`, the ledger
        // entries, and the guest stepping below never see the stream
        // count, which is what keeps K-stream runs bit-identical to
        // single-stream in time and bytes.
        let k = self.cfg.streams;
        let shards: Vec<FlatBitmap> = if k > 1 {
            FlatBitmap::shard_bounds(set.len(), k)
                .into_iter()
                .map(|r| set.restrict_to(r))
                .collect()
        } else {
            Vec::new()
        };
        let mut cursors = vec![0usize; k];
        let mut rr = 0usize;
        while sent < total {
            let w_demand = self.workload.disk_demand();
            let (w_share, m_share) = seek_aware_share(
                self.cfg.disk_capacity,
                self.cfg.seek_penalty,
                w_demand,
                self.cfg.disk_stream_demand(),
            );
            debug_assert!(m_share > 0.0, "migration starved of disk bandwidth");
            let (dt, n) = pace_step(
                self.cfg.step,
                m_share,
                unit_bytes,
                total - sent,
                &mut self.block_carry,
            );
            for _ in 0..n {
                let (s, b) = loop {
                    let s = rr % k;
                    rr += 1;
                    // A drained cursor parks at `set.len()` so the probe
                    // skips it without re-scanning the map tail.
                    if cursors[s] >= set.len() {
                        continue;
                    }
                    let shard = if k > 1 { &shards[s] } else { set };
                    if let Some(b) = shard.next_set_from(cursors[s]) {
                        break (s, b);
                    }
                    // This shard is drained; `sent < total` guarantees
                    // another stream still holds blocks.
                    cursors[s] = set.len();
                };
                cursors[s] = b + 1;
                if !AS_REFS {
                    self.dst_disk.copy_block_from(&self.src_disk, b);
                }
                self.stream_blocks[s] += 1;
            }
            if n > 0 {
                if AS_REFS {
                    self.ledger.add(cat, n * BLOCK_REF_WIRE + FRAME_OVERHEAD);
                    self.wire.bytes_sent += n * BLOCK_REF_WIRE;
                    self.wire.blocks_deduped += n;
                } else {
                    self.ledger.add(cat, n * (bs + 8) + FRAME_OVERHEAD);
                    if self.cfg.compress {
                        // Modeled 2:1 on residual full payloads — the sim
                        // has no real bytes, so this touches the wire
                        // accounting only, never the ledger or the clock.
                        self.wire.bytes_sent += n * bs / 2;
                        self.wire.blocks_compressed += n;
                    } else {
                        self.wire.bytes_sent += n * bs;
                    }
                }
                self.wire.bytes_raw += n * bs;
            }
            sent += n;
            bytes += n * if AS_REFS { BLOCK_REF_WIRE } else { bs };
            self.guest_step(dt, w_share);
        }
        (sent, bytes, self.now.since(phase_start))
    }

    /// Transfer every page marked in `set` (memory is network-bound, not
    /// disk-bound; the guest keeps its full disk share). Returns
    /// (pages_sent, bytes, duration).
    fn transfer_mem_set(&mut self, set: &FlatBitmap) -> (u64, u64, SimDuration) {
        let phase_start = self.now;
        let total = set.count_ones() as u64;
        if total == 0 {
            return (0, 0, SimDuration::ZERO);
        }
        let rate = self.cfg.migration_net_rate();
        let page = 4096u64;
        let mut sent = 0u64;
        let mut cursor = 0usize;
        let mut carry = 0.0f64;
        while sent < total {
            let (dt, n) = pace_step(self.cfg.step, rate, page as f64, total - sent, &mut carry);
            for _ in 0..n {
                let p = set
                    .next_set_from(cursor)
                    .expect("set must contain the pages being counted");
                self.dst_mem.copy_page_from(&self.src_mem, p);
                cursor = p + 1;
            }
            if n > 0 {
                self.ledger
                    .add(Category::Memory, n * (page + 8) + FRAME_OVERHEAD);
            }
            sent += n;
            self.guest_step(dt, self.workload_solo_share());
        }
        (sent, total * page, self.now.since(phase_start))
    }

    /// Execute the three phases. Consumes the engine; the guest ends up
    /// running on the destination.
    pub fn run(mut self) -> TpmOutcome {
        let t_start = self.now;
        self.tracking = true;
        let mut disk_iterations: Vec<IterationStats> = Vec::new();
        let rec = Arc::clone(&self.recorder);
        rec.record_at_nanos(t_start.as_nanos(), || telemetry::Event::PhaseStart {
            side: telemetry::Side::Source,
            phase: telemetry::Phase::DiskPrecopy,
        });

        // ---------------- Phase 1a: iterative disk pre-copy ----------------
        let mut to_send = match self.initial_to_send.take() {
            Some(bm) => bm,
            None => FlatBitmap::all_set(self.cfg.disk_blocks),
        };
        if let Some(free) = &self.free_blocks {
            to_send.subtract(free);
        }
        for iter in 1..=self.cfg.max_disk_iterations {
            let (sent, bytes, duration) = self.transfer_disk_set(&to_send, Category::DiskPrecopy);
            let dirty = self.tracker.drain();
            let dirty_count = dirty.count_ones();
            disk_iterations.push(IterationStats {
                index: iter,
                units_sent: sent,
                bytes,
                duration_secs: duration.as_secs_f64(),
                dirty_at_end: dirty_count as u64,
            });
            rec.record_at_nanos(self.now.as_nanos(), || telemetry::Event::Iteration {
                side: telemetry::Side::Source,
                resource: telemetry::Resource::Disk,
                index: iter as u64,
                units_sent: sent,
                dirty_at_end: dirty_count as u64,
            });
            rec.record_at_nanos(self.now.as_nanos(), || telemetry::Event::BitmapSnapshot {
                side: telemetry::Side::Source,
                set_bits: dirty_count as u64,
            });
            if precopy_stops(
                iter,
                self.cfg.max_disk_iterations,
                sent,
                dirty_count,
                self.cfg.disk_dirty_threshold,
            ) {
                // The final dirty set rides along through the memory phase,
                // still accumulating, and crosses as the freeze bitmap.
                self.tracker.merge(&dirty);
                break;
            }
            to_send = dirty;
        }

        let t_disk_end = self.now;
        rec.record_at_nanos(t_disk_end.as_nanos(), || telemetry::Event::PhaseEnd {
            side: telemetry::Side::Source,
            phase: telemetry::Phase::DiskPrecopy,
        });
        rec.record_at_nanos(t_disk_end.as_nanos(), || telemetry::Event::PhaseStart {
            side: telemetry::Side::Source,
            phase: telemetry::Phase::MemPrecopy,
        });

        // ---------------- Phase 1b: iterative memory pre-copy --------------
        let mut mem_iterations: Vec<IterationStats> = Vec::new();
        self.src_mem.drain_dirty(); // everything is sent in pass 1 anyway
        let mut pages_to_send = FlatBitmap::all_set(self.cfg.mem_pages);
        let mut remaining_pages = FlatBitmap::new(self.cfg.mem_pages);
        for iter in 1..=self.cfg.max_mem_iterations {
            let (sent, bytes, duration) = self.transfer_mem_set(&pages_to_send);
            let dirty = self.src_mem.drain_dirty();
            let dirty_count = dirty.count_ones();
            mem_iterations.push(IterationStats {
                index: iter,
                units_sent: sent,
                bytes,
                duration_secs: duration.as_secs_f64(),
                dirty_at_end: dirty_count as u64,
            });
            rec.record_at_nanos(self.now.as_nanos(), || telemetry::Event::Iteration {
                side: telemetry::Side::Source,
                resource: telemetry::Resource::Memory,
                index: iter as u64,
                units_sent: sent,
                dirty_at_end: dirty_count as u64,
            });
            if precopy_stops(
                iter,
                self.cfg.max_mem_iterations,
                sent,
                dirty_count,
                self.cfg.mem_dirty_threshold,
            ) {
                remaining_pages = dirty;
                break;
            }
            pages_to_send = dirty;
        }

        // ---------------- Phase 2: freeze-and-copy -------------------------
        self.domain.suspend().expect("guest was running");
        let t_suspend = self.now;
        rec.record_at_nanos(t_suspend.as_nanos(), || telemetry::Event::PhaseEnd {
            side: telemetry::Side::Source,
            phase: telemetry::Phase::MemPrecopy,
        });
        rec.record_at_nanos(t_suspend.as_nanos(), || telemetry::Event::PhaseStart {
            side: telemetry::Side::Source,
            phase: telemetry::Phase::Freeze,
        });
        rec.record_at_nanos(t_suspend.as_nanos(), || telemetry::Event::Suspended {
            side: telemetry::Side::Source,
        });
        self.probe.record(t_suspend, 0.0);
        let final_bitmap = self.tracker.drain();
        let bitmap_encoded_len = ser::encoded_len(&final_bitmap) as u64;
        rec.record_at_nanos(t_suspend.as_nanos(), || telemetry::Event::BitmapEncoded {
            set_bits: final_bitmap.count_ones() as u64,
            encoded_bytes: bitmap_encoded_len,
        });
        let page = 4096u64;
        let rem_count = remaining_pages.count_ones() as u64;
        let down_bytes = rem_count * (page + 8)
            + self.cpu.size_bytes() as u64
            + bitmap_encoded_len
            + 3 * FRAME_OVERHEAD;
        self.ledger
            .add(Category::Memory, rem_count * (page + 8) + FRAME_OVERHEAD);
        self.ledger
            .add(Category::Cpu, self.cpu.size_bytes() as u64 + FRAME_OVERHEAD);
        self.ledger
            .add(Category::Bitmap, bitmap_encoded_len + FRAME_OVERHEAD);
        for p in remaining_pages.iter_set() {
            self.dst_mem.copy_page_from(&self.src_mem, p);
        }
        let dst_cpu = self.cpu.clone();
        let rate = self.cfg.migration_net_rate();
        let downtime = self.cfg.suspend_overhead
            + SimDuration::from_secs_f64(down_bytes as f64 / rate)
            + self.cfg.link.latency()
            + self.cfg.resume_overhead;
        self.now += downtime;
        self.probe.record(self.now, 0.0);

        // Memory and CPU must now be exactly synchronized.
        let mem_consistent = self.src_mem.content_equals(&self.dst_mem);
        let cpu_consistent = dst_cpu.checksum() == self.cpu.checksum();

        self.domain.resume().expect("guest was suspended");
        let t_resume = self.now;
        rec.record_at_nanos(t_resume.as_nanos(), || telemetry::Event::PhaseEnd {
            side: telemetry::Side::Source,
            phase: telemetry::Phase::Freeze,
        });
        rec.record_at_nanos(t_resume.as_nanos(), || telemetry::Event::Resumed {
            side: telemetry::Side::Destination,
        });
        rec.record_at_nanos(t_resume.as_nanos(), || telemetry::Event::PhaseStart {
            side: telemetry::Side::Destination,
            phase: telemetry::Phase::PostCopy,
        });

        // ---------------- Phase 3: push-and-pull post-copy -----------------
        let mut im_tracker = DirtyTracker::new(self.cfg.bitmap, self.cfg.disk_blocks);
        let (w_share_dst, push_share) = seek_aware_share(
            self.cfg.disk_capacity,
            self.cfg.seek_penalty,
            self.workload.disk_demand(),
            self.cfg.disk_stream_demand(),
        );
        let pc_cfg = PostCopyConfig {
            block_size: self.cfg.block_size,
            push_rate: push_share.max(1.0),
            workload_share: w_share_dst,
            latency: self.cfg.link.latency(),
            push_batch: 32,
            slice: SimDuration::from_millis(20),
            horizon: self.cfg.postcopy_horizon,
            push_enabled: true,
        };
        let outcome = run_postcopy(
            pc_cfg,
            t_resume,
            &self.src_disk,
            &mut self.dst_disk,
            final_bitmap.clone(),
            final_bitmap,
            &mut im_tracker,
            self.workload.as_mut(),
            &mut self.rng,
            &mut self.ledger,
            &mut self.probe,
            &rec,
        );
        self.now = outcome.finished_at + self.cfg.postcopy_fixed_overhead;
        let mut pc_stats = outcome.stats;
        // One subtraction over the whole span (rather than summing partial
        // spans) so the report and a journal-reconstructed timing are the
        // same f64, bit for bit.
        pc_stats.duration_secs = self.now.since(t_resume).as_secs_f64();
        rec.record_at_nanos(self.now.as_nanos(), || telemetry::Event::PhaseEnd {
            side: telemetry::Side::Destination,
            phase: telemetry::Phase::PostCopy,
        });

        // ---------------- Verification & report ----------------------------
        // Every difference between source and destination must be a block
        // the guest wrote after resuming.
        let im_snapshot = match &im_tracker {
            DirtyTracker::Flat(b) => b.clone(),
            DirtyTracker::Layered(b) => b.to_flat(),
        };
        let disk_consistent = self
            .src_disk
            .diff_blocks(&self.dst_disk)
            .into_iter()
            .all(|b| im_snapshot.get(b) || self.free_blocks.as_ref().is_some_and(|f| f.get(b)));
        let total_time = self.now.since(t_start);
        let downtime_ms = downtime.as_millis_f64();

        let baseline = self.workload.client_throughput(self.workload_solo_share());
        let disruption = self.probe.disruption_time(baseline, 0.10);

        let report = MigrationReport {
            scheme: self.scheme.into(),
            workload: self.workload.name().into(),
            total_time_secs: total_time.as_secs_f64(),
            downtime_ms,
            disruption_secs: disruption.as_secs_f64(),
            ledger: self.ledger.clone(),
            wire: self.wire,
            disk_iterations,
            mem_iterations,
            phases: PhaseTimings {
                disk_precopy_secs: t_disk_end.since(t_start).as_secs_f64(),
                mem_precopy_secs: t_suspend.since(t_disk_end).as_secs_f64(),
                freeze_secs: downtime.as_secs_f64(),
                postcopy_secs: pc_stats.duration_secs,
            },
            postcopy: pc_stats.clone(),
            timeline: self.probe.samples().to_vec(),
            io_blocked_secs: 0.0,
            residual_blocks: outcome.residual_blocks,
            redundant_deltas: 0,
            stream_blocks: self.stream_blocks.clone(),
            multisource: {
                let mut ms = self.ms.clone();
                ms.peer_bytes = self
                    .peer_fetched
                    .iter()
                    .map(|(&host, &(blocks, bytes))| PeerBytes {
                        host,
                        blocks,
                        bytes,
                    })
                    .collect();
                ms
            },
            consistent: disk_consistent && mem_consistent && cpu_consistent,
        };

        if rec.is_enabled() {
            let m = rec.metrics();
            m.counter("sim.disk.blocks_sent")
                .add(report.disk_iterations.iter().map(|i| i.units_sent).sum());
            m.counter("sim.mem.pages_sent")
                .add(report.mem_iterations.iter().map(|i| i.units_sent).sum());
            m.counter("sim.postcopy.pushed").add(report.postcopy.pushed);
            m.counter("sim.postcopy.pulled").add(report.postcopy.pulled);
            m.counter("sim.postcopy.dropped")
                .add(report.postcopy.dropped);
            m.gauge("sim.freeze.remaining_at_resume")
                .set(report.postcopy.remaining_at_resume);
            m.gauge("sim.bytes_total").set(report.ledger.total());
            m.counter("wire.bytes_raw").add(report.wire.bytes_raw);
            m.counter("wire.bytes_sent").add(report.wire.bytes_sent);
            m.counter("wire.blocks_deduped")
                .add(report.wire.blocks_deduped);
            m.counter("wire.blocks_compressed")
                .add(report.wire.blocks_compressed);
            for (i, &blocks) in report.stream_blocks.iter().enumerate() {
                m.counter(&format!("sim.stream.{i}.blocks_sent"))
                    .add(blocks);
            }
            if report.multisource.plans > 0 {
                m.counter("blockstore.plans").add(report.multisource.plans);
                m.counter("blockstore.plan_blocks")
                    .add(report.multisource.planned_source + report.multisource.planned_peer);
                m.counter("blockstore.planned_source")
                    .add(report.multisource.planned_source);
                m.counter("blockstore.planned_peer")
                    .add(report.multisource.planned_peer);
                for p in &report.multisource.peer_bytes {
                    m.counter(&format!("blockstore.peer.{}.blocks", p.host))
                        .add(p.blocks);
                    m.counter(&format!("blockstore.peer.{}.bytes", p.host))
                        .add(p.bytes);
                }
            }
        }

        TpmOutcome {
            report,
            src_disk: self.src_disk,
            dst_disk: self.dst_disk,
            dst_mem: self.dst_mem,
            im_tracker,
            workload: self.workload,
            rng: self.rng,
            probe: self.probe,
            end_time: self.now,
            kind: self.kind,
        }
    }
}

/// Run a primary TPM migration under `cfg` with the given workload.
pub fn run_tpm(cfg: MigrationConfig, kind: WorkloadKind) -> TpmOutcome {
    TpmEngine::new(cfg, kind).run()
}

/// Run a primary TPM migration with a telemetry recorder attached: every
/// phase transition, pre-copy iteration, and post-copy block event is
/// journaled in virtual time.
pub fn run_tpm_traced(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    recorder: Arc<Recorder>,
) -> TpmOutcome {
    let mut engine = TpmEngine::new(cfg, kind);
    engine.set_recorder(recorder);
    engine.run()
}

/// Let the guest run on the destination for `duration` after a migration,
/// with the IM tracker recording every write — the maintenance window /
/// telecommute workday between the primary migration and the migration
/// back.
pub fn dwell(outcome: &mut TpmOutcome, cfg: &MigrationConfig, duration: SimDuration) {
    let mut now = outcome.end_time;
    let end = now + duration;
    let mut ops = Vec::new();
    while now < end {
        let dt = cfg.step.min(end.since(now));
        let share = outcome.workload.disk_demand().min(cfg.disk_capacity);
        ops.clear();
        outcome
            .workload
            .ops_into(dt, share, &mut outcome.rng, &mut ops);
        for op in &ops {
            if let OpKind::Write { block } = op.kind {
                outcome.dst_disk.write(block as usize);
                outcome.im_tracker.set(block as usize);
            }
        }
        outcome
            .probe
            .record(now + dt, outcome.workload.client_throughput(share));
        now += dt;
    }
    outcome.end_time = end;
}

/// Migrate back to the original source using Incremental Migration: the
/// first pre-copy iteration transfers only the blocks dirtied since the
/// primary migration (§V).
pub fn run_im(cfg: MigrationConfig, prev: TpmOutcome) -> TpmOutcome {
    cfg.validate();
    assert_eq!(
        prev.dst_disk.num_blocks(),
        cfg.disk_blocks,
        "IM must use the same disk geometry as the primary migration"
    );
    let mut engine = TpmEngine::new(cfg.clone(), prev.kind);
    // Migrating back: the old destination is the new source; the retired
    // original source still holds its stale image.
    engine.src_disk = prev.dst_disk;
    engine.dst_disk = prev.src_disk;
    engine.src_mem = prev.dst_mem;
    engine.dst_mem = GuestMemory::new(4096, cfg.mem_pages);
    engine.workload = prev.workload;
    engine.rng = prev.rng;
    engine.probe = prev.probe;
    engine.now = prev.end_time;
    engine.kind = prev.kind;
    engine.scheme = "im";
    // "We check if the bitmap exists before the first iteration. If it
    // does, only the blocks marked dirty in the block-bitmap need to be
    // migrated."
    let mut im_tracker = prev.im_tracker;
    engine.initial_to_send = Some(im_tracker.drain());
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MigrationConfig {
        MigrationConfig::small()
    }

    #[test]
    fn idle_guest_migrates_consistently() {
        let out = run_tpm(small_cfg(), WorkloadKind::Idle);
        let r = &out.report;
        assert!(r.consistent, "migration must be consistent");
        // Idle guest: one disk iteration, nothing dirty, nothing pushed.
        assert_eq!(r.disk_iterations.len(), 1);
        assert_eq!(r.disk_iterations[0].units_sent, 65_536);
        assert_eq!(r.postcopy.remaining_at_resume, 0);
        assert_eq!(r.residual_blocks, 0);
        // All blocks crossed exactly once (plus headers).
        let disk_bytes = r.ledger.get(simnet::proto::Category::DiskPrecopy);
        assert!(disk_bytes >= 65_536 * 4096);
        assert!(disk_bytes < 65_536 * 4096 * 102 / 100);
    }

    #[test]
    fn downtime_is_milliseconds_not_seconds() {
        let out = run_tpm(small_cfg(), WorkloadKind::Idle);
        assert!(
            out.report.downtime_ms < 1_000.0,
            "downtime {} ms",
            out.report.downtime_ms
        );
        assert!(out.report.downtime_ms > 1.0);
    }

    #[test]
    fn web_guest_converges_and_stays_consistent() {
        let mut cfg = small_cfg();
        cfg.disk_blocks = 2 * 1024 * 1024; // 8 GiB: room for the regions
        let out = run_tpm(cfg, WorkloadKind::Web);
        let r = &out.report;
        assert!(r.consistent);
        assert!(r.disk_iterations.len() >= 2, "writes must force iterations");
        // Iterations shrink geometrically.
        let first = r.disk_iterations[0].units_sent;
        let second = r.disk_iterations[1].units_sent;
        assert!(second < first / 10, "second iteration {second} vs {first}");
        assert!(r.downtime_ms < 500.0);
    }

    #[test]
    fn im_moves_far_less_data_than_tpm() {
        let mut cfg = small_cfg();
        cfg.disk_blocks = 2 * 1024 * 1024;
        let mut out = run_tpm(cfg.clone(), WorkloadKind::Web);
        let tpm_mb = out.report.migrated_mb();
        let tpm_time = out.report.total_time_secs;
        dwell(&mut out, &cfg, SimDuration::from_secs(30));
        let back = run_im(cfg, out);
        assert!(back.report.consistent, "IM must be consistent");
        assert_eq!(back.report.scheme, "im");
        let im_mb = back.report.migrated_mb();
        assert!(
            im_mb * 20.0 < tpm_mb,
            "IM moved {im_mb} MB vs TPM {tpm_mb} MB"
        );
        assert!(back.report.total_time_secs * 5.0 < tpm_time);
    }

    #[test]
    fn rate_limit_stretches_migration() {
        let cfg = small_cfg();
        let limited = MigrationConfig {
            rate_limit: Some(10.0 * 1024.0 * 1024.0),
            ..cfg.clone()
        };
        let fast = run_tpm(cfg, WorkloadKind::Idle);
        let slow = run_tpm(limited, WorkloadKind::Idle);
        assert!(
            slow.report.total_time_secs > fast.report.total_time_secs * 2.0,
            "limited {} vs unlimited {}",
            slow.report.total_time_secs,
            fast.report.total_time_secs
        );
    }

    #[test]
    fn layered_bitmap_produces_identical_migration() {
        let cfg_flat = small_cfg();
        let cfg_layered = MigrationConfig {
            bitmap: crate::BitmapKind::Layered,
            ..small_cfg()
        };
        let a = run_tpm(cfg_flat, WorkloadKind::Web);
        let b = run_tpm(cfg_layered, WorkloadKind::Web);
        assert_eq!(a.report.ledger, b.report.ledger);
        assert_eq!(
            a.report.total_time_secs.to_bits(),
            b.report.total_time_secs.to_bits()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_tpm(small_cfg(), WorkloadKind::Web);
        let b = run_tpm(small_cfg(), WorkloadKind::Web);
        assert_eq!(a.report.ledger, b.report.ledger);
        assert_eq!(
            a.report.downtime_ms.to_bits(),
            b.report.downtime_ms.to_bits()
        );
        let c = run_tpm(
            MigrationConfig {
                seed: 999,
                ..small_cfg()
            },
            WorkloadKind::Web,
        );
        assert_ne!(a.report.ledger, c.report.ledger);
    }

    #[test]
    fn dedup_is_a_noop_when_nothing_matches() {
        // A fresh TPM ships into a blank destination: no block can be
        // referenced, so a dedup-on run must be bit-identical in ledger
        // and clock to a dedup-off run — the feature-off parity claim.
        let on = run_tpm(small_cfg(), WorkloadKind::Idle);
        let off = run_tpm(
            MigrationConfig {
                dedup: false,
                compress: false,
                ..small_cfg()
            },
            WorkloadKind::Idle,
        );
        assert_eq!(on.report.wire.blocks_deduped, 0);
        assert_eq!(on.report.ledger, off.report.ledger);
        assert_eq!(
            on.report.total_time_secs.to_bits(),
            off.report.total_time_secs.to_bits()
        );
        assert_eq!(
            on.report.downtime_ms.to_bits(),
            off.report.downtime_ms.to_bits()
        );
        // Wire accounting still reflects the modeled compression of the
        // full payloads; off means off.
        assert_eq!(off.report.wire.bytes_sent, off.report.wire.bytes_raw);
        assert!(on.report.wire.bytes_sent < on.report.wire.bytes_raw);
    }

    #[test]
    fn four_streams_match_single_stream_exactly() {
        let one = run_tpm(small_cfg(), WorkloadKind::Web);
        let four = run_tpm(
            MigrationConfig {
                streams: 4,
                ..small_cfg()
            },
            WorkloadKind::Web,
        );
        assert!(four.report.consistent);
        // Same bytes in every category, same downtime, same total time —
        // bit for bit, not approximately.
        assert_eq!(one.report.ledger, four.report.ledger);
        assert_eq!(
            one.report.downtime_ms.to_bits(),
            four.report.downtime_ms.to_bits()
        );
        assert_eq!(
            one.report.total_time_secs.to_bits(),
            four.report.total_time_secs.to_bits()
        );
        // Same final image on the destination.
        assert!(one.dst_disk.content_equals(&four.dst_disk));
        // The streams genuinely shared the work: every stream carried
        // blocks, and together they carried exactly the pre-copy total.
        assert_eq!(four.report.stream_blocks.len(), 4);
        assert!(four.report.stream_blocks.iter().all(|&b| b > 0));
        let per_stream: u64 = four.report.stream_blocks.iter().sum();
        let sent: u64 = four
            .report
            .disk_iterations
            .iter()
            .map(|i| i.units_sent)
            .sum();
        assert_eq!(per_stream, sent);
    }

    #[test]
    fn warmup_extends_timeline_without_migrating() {
        let mut engine = TpmEngine::new(small_cfg(), WorkloadKind::Web);
        engine.warmup(SimDuration::from_secs(10));
        assert_eq!(engine.now(), SimTime::from_nanos(10_000_000_000));
        let out = engine.run();
        assert!(out.report.consistent);
        // Timeline includes the warmup samples.
        assert!(out.report.timeline.first().expect("samples").t_secs <= 1.0);
    }
}
