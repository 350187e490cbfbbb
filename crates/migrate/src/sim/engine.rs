//! The simulated TPM/IM engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use block_bitmap::{ser, DirtyMap, FlatBitmap};
use blockstore::{BlockDirectory, FetchPlan, FetchPlanner};
use des::{SimDuration, SimRng, SimTime};
use simnet::proto::{Category, TransferLedger, WireStats, BLOCK_REF_WIRE};
use telemetry::{Event, Fold, Phase, Recorder, Resource, Side};
use vdisk::MetaDisk;
use vmstate::{CpuState, Domain, DomainId, GuestMemory};
use workloads::probe::ThroughputProbe;
use workloads::{Guest, TimedOp, WorkloadKind};

use crate::phase::{
    batch_wire, fetch_wire, freeze_window, pace_step, FreezeBill, PhaseMachine, StopRule, Voice,
    Worklist, PAGE_SIZE,
};
use crate::report::{MigrationReport, MultiSourceReport, PeerBytes, PostCopyStats};
use crate::sim::postcopy::{run_postcopy, PostCopyConfig};
use crate::{testbed, MigrationConfig};

/// The single migrating VM's id inside the engine's private
/// [`BlockDirectory`] (the orchestrator uses real VM ids; a lone engine
/// has only one image to name).
const MS_VM: u64 = 0;

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
    pub im_tracker: FlatBitmap,
    /// The guest, carried over so dwell and IM continue its streams.
    pub guest: Guest,
    /// Client throughput samples across the whole run so far.
    pub probe: ThroughputProbe,
    /// Virtual time at the end of the run.
    pub end_time: SimTime,
    /// Workload kind, for constructing follow-up runs.
    pub kind: WorkloadKind,
    /// The run's events folded: what its report's phases, iterations and
    /// post-copy counts were read from.
    pub fold: Fold,
}

/// The simulated three-phase migration engine.
pub struct TpmEngine {
    pub(crate) cfg: MigrationConfig,
    pub(crate) kind: WorkloadKind,
    pub(crate) guest: Guest,
    /// One guest step's writes, cleared and refilled per step.
    pub(crate) ops: Vec<TimedOp>,
    pub(crate) now: SimTime,
    pub(crate) src_disk: MetaDisk,
    pub(crate) dst_disk: MetaDisk,
    pub(crate) src_mem: GuestMemory,
    pub(crate) dst_mem: GuestMemory,
    pub(crate) cpu: CpuState,
    pub(crate) domain: Domain,
    pub(crate) tracker: FlatBitmap,
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
    /// Telemetry sink; disabled by default (a single atomic check per
    /// potential record). Events are stamped with virtual time.
    pub(crate) recorder: Arc<Recorder>,
    /// Peer holders for multi-source fetching: the image each peer host
    /// holds, and the NIC budget each offers; both built once, in
    /// `set_peers`. Empty (the default) means classic single-source.
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
        // The guest's streams fork first from the seed, as a fleet VM's
        // fork from its master seed (`orchestrator::Cluster::new`).
        let mut rng = SimRng::new(cfg.seed);
        let guest = Guest::new(kind, cfg.disk_blocks as u64, cfg.mem_pages, rng.fork(0));
        // The installed image: every block distinct from the blank
        // destination, so the first full pass is load-bearing for the
        // consistency check.
        let src_disk = MetaDisk::installed(cfg.disk_blocks);
        let src_mem = GuestMemory::installed(cfg.mem_pages);
        let mut cpu = CpuState::new(testbed::VCPUS);
        cpu.scribble(rng.next_u64());
        let tracker = FlatBitmap::new(cfg.disk_blocks);
        Self {
            dst_disk: MetaDisk::new(cfg.disk_blocks),
            dst_mem: GuestMemory::new(cfg.mem_pages),
            domain: Domain::new(DomainId(1), format!("vm-{}", guest.name())),
            kind,
            guest,
            ops: Vec::new(),
            now: SimTime::ZERO,
            src_disk,
            src_mem,
            cpu,
            tracker,
            tracking: false,
            probe: ThroughputProbe::new(),
            ledger: TransferLedger::new(),
            wire: WireStats::default(),
            initial_to_send: None,
            scheme: "tpm",
            block_carry: 0.0,
            free_blocks: None,
            cfg,
            recorder: Recorder::off(),
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
    /// departure image…). Owed full blocks a peer holds at the live
    /// generation are fetched from the peers instead of the source,
    /// paced by `max_min_share` over [`testbed::PEER_BUDGET`] and the
    /// destination's ingest rate.
    ///
    /// # Panics
    /// Panics when a peer image's geometry does not match the disk.
    pub fn set_peers(&mut self, peers: BTreeMap<u64, MetaDisk>) {
        self.peer_budgets = peers.keys().map(|&h| (h, testbed::PEER_BUDGET)).collect();
        self.peer_dir = BlockDirectory::new();
        for (host, disk) in peers {
            assert_eq!(
                disk.num_blocks(),
                self.cfg.disk_blocks,
                "peer image must match the disk geometry"
            );
            self.peer_dir.publish(MS_VM, host, disk);
        }
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
        self.guest.disk_demand().min(testbed::DISK_CAPACITY)
    }

    /// Advance the guest by `dt` at the given achieved disk share: apply
    /// its writes to the source disk (tracking them when enabled), record
    /// a throughput sample. Its reads act on nothing before post-copy,
    /// so none is drawn.
    fn guest_step(&mut self, dt: SimDuration, w_share: f64) {
        self.ops.clear();
        self.guest.writes_into(dt, w_share, &mut self.ops);
        for op in &self.ops {
            let b = op.kind.block() as usize;
            self.src_disk.write(b);
            if self.tracking {
                self.tracker.set(b);
            }
        }
        self.probe
            .record(self.now + dt, self.guest.client_throughput(w_share));
        self.now += dt;
    }

    /// Transfer every block marked in `set` to the destination while the
    /// guest keeps running, contending for the disk. With `cfg.dedup` the
    /// set is first split against a snapshot of what the destination
    /// already holds verbatim (same generation at the same index — the
    /// MetaDisk notion of identical content, [`MetaDisk::agreement`]):
    /// those blocks cross as 16-byte references, the rest as full
    /// payloads. Returns (blocks_sent, bytes).
    fn transfer_disk_set(&mut self, set: FlatBitmap, cat: Category) -> (u64, u64) {
        if !self.cfg.dedup {
            return self.transfer_disk_fulls(set, cat);
        }
        let held = self.dst_disk.generations();
        let words = (set.words().iter().enumerate())
            .map(|(w, &bits)| match bits {
                0 => 0,
                _ => bits & self.src_disk.agreement(w, held),
            })
            .collect();
        let refs = FlatBitmap::from_words(set.len(), words);
        if refs.none_set() {
            // Nothing to reference: take the classic path, bit-identical
            // to a dedup-off run (same floats, same ledger, same clock).
            return self.transfer_disk_fulls(set, cat);
        }
        // Full payloads first, then the cheap references: two
        // uniform-cost sub-phases.
        let mut fulls = set;
        fulls.subtract(&refs);
        let (fs, fb) = self.transfer_disk_fulls(fulls, cat);
        let (rs, rb) = self.transfer_disk_blocks::<true>(refs, cat);
        (fs + rs, fb + rb)
    }

    /// Route full payloads: classic source-streamed transfer, or — with
    /// multi-source on and at least one fresh holder — a planned split
    /// between the source stream and peer-fetch sessions. With
    /// multisource off, no peers attached, or no owed block fresh on
    /// any peer, the call reduces to the classic transfer loop with
    /// zero extra float math: bit-identical ledger and clock.
    fn transfer_disk_fulls(&mut self, fulls: FlatBitmap, cat: Category) -> (u64, u64) {
        if !self.cfg.multisource || self.peer_dir.is_empty() || fulls.none_set() {
            return self.transfer_disk_blocks::<false>(fulls, cat);
        }
        let mut plan = FetchPlanner::plan(
            &self.peer_dir,
            MS_VM,
            &self.src_disk,
            &fulls,
            None, // dedup already classified resident content as refs
            &self.peer_budgets,
            self.cfg.migration_net_rate(),
        );
        if plan.any_peer.none_set() {
            return self.transfer_disk_blocks::<false>(fulls, cat);
        }
        self.ms.plans += 1;
        self.ms.planned_source += plan.source_only.count_ones() as u64;
        self.ms.planned_peer += plan.any_peer.count_ones() as u64;
        let rec = Arc::clone(&self.recorder);
        rec.record_at_nanos(self.now.as_nanos(), || Event::FetchPlanned {
            side: Side::Destination,
            source_blocks: plan.source_only.count_ones() as u64,
            peer_blocks: plan.any_peer.count_ones() as u64,
            ref_blocks: 0,
            peers: plan.per_peer.len() as u64,
        });
        let source_only = std::mem::take(&mut plan.source_only);
        let (ss, sb) = self.transfer_disk_blocks::<false>(source_only, cat);
        let (ps, pb) = self.transfer_peer_blocks(&plan);
        (ss + ps, sb + pb)
    }

    /// Drain the plan's per-peer assignments: blocks stream from their
    /// holders round-robin (ascending host id) at the aggregate max-min
    /// fan-in rate, while the guest keeps its full disk share — peer
    /// fetches never touch the source's disk, which is the whole point.
    /// Ledger entries go to [`Category::DiskPull`]: peer traffic
    /// accounts like post-copy pulls, per the wire protocol's category
    /// mapping for `BlockData`.
    fn transfer_peer_blocks(&mut self, plan: &FetchPlan) -> (u64, u64) {
        let total = plan.any_peer.count_ones() as u64;
        if total == 0 {
            return (0, 0);
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
        // The round-robin drains every lane before the drain ends, and
        // the peers' images stay put while the guest steps (its writes
        // land on the source): each lane's assignment is copied now, a
        // word at a time, and it fetches exactly its assignment. The
        // pacing loop below books counts.
        let mut fetched = Vec::with_capacity(plan.per_peer.len());
        for (&host, assigned) in &plan.per_peer {
            let Some(image) = self.peer_dir.image(MS_VM, host) else {
                continue;
            };
            for (w, &mask) in assigned.words().iter().enumerate() {
                if mask != 0 {
                    self.dst_disk.copy_masked_from(image, w, mask);
                }
            }
            fetched.push((host, assigned.count_ones() as u64));
        }
        let mut sent = 0u64;
        let mut bytes = 0u64;
        let mut carry = 0.0f64;
        while sent < total {
            let (dt, n) = pace_step(self.cfg.step, rate, bs as f64, total - sent, &mut carry);
            if n > 0 {
                // BlockData frames: 16-byte header per block, one frame
                // envelope per step batch.
                self.ledger.add(Category::DiskPull, fetch_wire(n, bs));
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
        for (host, blocks) in fetched {
            let b = blocks * bs;
            rec.record_at_nanos(self.now.as_nanos(), || Event::PeerFetch {
                side: Side::Destination,
                peer: host,
                blocks,
                bytes: b,
            });
            let e = self.peer_fetched.entry(host).or_insert((0, 0));
            e.0 += blocks;
            e.1 += b;
        }
        (sent, bytes)
    }

    /// Uniform-cost transfer loop: every block in `set` crosses either as
    /// a full payload (`AS_REFS == false`) or as a 16-byte content
    /// reference. Each step's full payloads are taken off the set a
    /// bitmap word at a time and copied by mask. A referenced block is
    /// *not* copied — the destination already holds identical content by
    /// the snapshot; if the guest overwrites it mid-flight the dirty
    /// tracker re-enters it as a full send, exactly like the live
    /// engine's fingerprint-mismatch fallback.
    fn transfer_disk_blocks<const AS_REFS: bool>(
        &mut self,
        set: FlatBitmap,
        cat: Category,
    ) -> (u64, u64) {
        let total = set.count_ones() as u64;
        if total == 0 {
            return (0, 0);
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
        let mut left = Worklist::new(set);
        while sent < total {
            let w_demand = self.guest.disk_demand();
            let (w_share, m_share) = self.cfg.disk_shares(w_demand);
            debug_assert!(m_share > 0.0, "migration starved of disk bandwidth");
            let (dt, n) = pace_step(
                self.cfg.step,
                m_share,
                unit_bytes,
                total - sent,
                &mut self.block_carry,
            );
            if !AS_REFS {
                let (dst, src) = (&mut self.dst_disk, &self.src_disk);
                let taken = left.take(n as usize, None, |w, mask| {
                    dst.copy_masked_from(src, w, mask);
                });
                debug_assert_eq!(taken as u64, n, "the set holds the blocks being counted");
            }
            if n > 0 {
                if AS_REFS {
                    self.ledger.add(cat, batch_wire(0, bs, n));
                    self.wire.bytes_sent += n * BLOCK_REF_WIRE;
                    self.wire.blocks_deduped += n;
                } else {
                    self.ledger.add(cat, batch_wire(n, bs, 0));
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
        (sent, bytes)
    }

    /// Transfer every page marked in `set`, each step's pages taken a
    /// bitmap word at a time and copied by mask (memory is network-bound,
    /// not disk-bound; the guest keeps its full disk share). Returns
    /// (pages_sent, bytes).
    fn transfer_mem_set(&mut self, set: FlatBitmap) -> (u64, u64) {
        let total = set.count_ones() as u64;
        if total == 0 {
            return (0, 0);
        }
        let rate = self.cfg.migration_net_rate();
        let page = PAGE_SIZE;
        let mut sent = 0u64;
        let mut left = Worklist::new(set);
        let mut carry = 0.0f64;
        while sent < total {
            let (dt, n) = pace_step(self.cfg.step, rate, page as f64, total - sent, &mut carry);
            let (dst, src) = (&mut self.dst_mem, &self.src_mem);
            let taken = left.take(n as usize, None, |w, mask| {
                dst.copy_masked_from(src, w, mask);
            });
            debug_assert_eq!(taken as u64, n, "the set holds the pages being counted");
            if n > 0 {
                self.ledger.add(Category::Memory, batch_wire(n, page, 0));
            }
            sent += n;
            // Memory pre-copy is the one phase a page write acts on.
            self.guest.dirty_pages(dt, |p| self.src_mem.touch(p));
            self.guest_step(dt, self.workload_solo_share());
        }
        (sent, total * page)
    }

    /// Execute the three phases. Consumes the engine; the guest ends up
    /// running on the destination.
    pub fn run(mut self) -> TpmOutcome {
        let t_start = self.now;
        self.tracking = true;
        let rec = Arc::clone(&self.recorder);
        let mut fold = Fold::default();
        let c = &self.cfg;
        let mut machine = PhaseMachine::new(
            Voice::Engine,
            StopRule::new(testbed::MAX_DISK_PASSES, c.disk_dirty_threshold),
            StopRule::new(testbed::MAX_MEM_PASSES, c.mem_dirty_threshold),
        );
        machine.start(|e| fold.at_nanos(&rec, t_start.as_nanos(), e));

        // ---------------- Phase 1a: iterative disk pre-copy ----------------
        let mut to_send = match self.initial_to_send.take() {
            Some(bm) => bm,
            None => FlatBitmap::all_set(self.cfg.disk_blocks),
        };
        if let Some(free) = &self.free_blocks {
            to_send.subtract(free);
        }
        loop {
            let (sent, bytes) = self.transfer_disk_set(to_send, Category::DiskPrecopy);
            let at = self.now.as_nanos();
            let dirty = std::mem::replace(&mut self.tracker, FlatBitmap::new(self.cfg.disk_blocks));
            match machine.end_pass(sent, bytes, dirty, |e| fold.at_nanos(&rec, at, e)) {
                Some(next) => to_send = next,
                None => break,
            }
        }

        // ---------------- Phase 1b: iterative memory pre-copy --------------
        // Everything is sent in pass 1; the guest dirties pages from here.
        self.src_mem.drain_dirty();
        let mut pages_to_send = FlatBitmap::all_set(self.cfg.mem_pages);
        loop {
            let (sent, bytes) = self.transfer_mem_set(pages_to_send);
            let (at, dirty) = (self.now.as_nanos(), self.src_mem.drain_dirty());
            match machine.end_pass(sent, bytes, dirty, |e| fold.at_nanos(&rec, at, e)) {
                Some(next) => pages_to_send = next,
                None => break,
            }
        }

        // ---------------- Phase 2: freeze-and-copy -------------------------
        self.domain.suspend().expect("guest was running");
        let t_suspend = self.now;
        let suspend = t_suspend.as_nanos();
        let raced = std::mem::replace(&mut self.tracker, FlatBitmap::new(self.cfg.disk_blocks));
        let (frozen, tail) = machine.suspend(&raced, None, |e| fold.at_nanos(&rec, suspend, e));
        self.probe.record(t_suspend, 0.0);
        let bill = FreezeBill {
            pages: tail.count_ones() as u64,
            cpu: self.cpu.size_bytes() as u64,
            bitmap: ser::encoded_len(&frozen) as u64,
        };
        rec.record_at_nanos(suspend, || Event::BitmapEncoded {
            set_bits: frozen.count_ones() as u64,
            encoded_bytes: bill.bitmap,
        });
        for (category, bytes) in bill.frames() {
            self.ledger.add(category, bytes);
        }
        for p in tail.iter_set() {
            self.dst_mem.copy_page_from(&self.src_mem, p);
        }
        let dst_cpu = self.cpu.clone();
        let rate = self.cfg.migration_net_rate();
        let downtime = freeze_window(bill.bytes(), rate, self.cfg.link.latency());
        self.now += downtime;
        self.probe.record(self.now, 0.0);

        // Memory and CPU must now be exactly synchronized.
        let mem_consistent = self.src_mem.content_equals(&self.dst_mem);
        let cpu_consistent = dst_cpu.checksum() == self.cpu.checksum();

        self.domain.resume().expect("guest was suspended");
        let t_resume = self.now;
        machine.resume(|e| fold.at_nanos(&rec, t_resume.as_nanos(), e));

        // ---------------- Phase 3: push-and-pull post-copy -----------------
        let mut im_tracker = FlatBitmap::new(self.cfg.disk_blocks);
        let demand = self.guest.disk_demand();
        let pc_cfg = PostCopyConfig::of(&self.cfg, demand, testbed::POSTCOPY_HORIZON, true);
        let outcome = run_postcopy(
            pc_cfg,
            t_resume,
            &self.src_disk,
            &mut self.dst_disk,
            frozen.clone(),
            frozen,
            &mut im_tracker,
            &mut self.guest,
            &mut self.ledger,
            &mut self.probe,
            &mut fold,
            &rec,
        );
        self.now = outcome.finished_at + testbed::POSTCOPY_FIXED_OVERHEAD;
        fold.at_nanos(
            &rec,
            self.now.as_nanos(),
            Event::PhaseEnd {
                side: Side::Destination,
                phase: Phase::PostCopy,
            },
        );

        // ---------------- Verification & report ----------------------------
        // Every difference between source and destination must be a block
        // the guest wrote after resuming.
        let disk_consistent = self
            .src_disk
            .diff_blocks(&self.dst_disk)
            .into_iter()
            .all(|b| im_tracker.get(b) || self.free_blocks.as_ref().is_some_and(|f| f.get(b)));
        let total_time = self.now.since(t_start);
        let downtime_ms = downtime.as_millis_f64();

        let baseline = self.guest.client_throughput(self.workload_solo_share());
        let disruption = self.probe.disruption_time(baseline, 0.10);

        // Phases, iterations and post-copy counts are what the events say.
        let phases = fold.phases();
        let report = MigrationReport {
            scheme: self.scheme.into(),
            workload: self.guest.name().into(),
            total_time_secs: total_time.as_secs_f64(),
            downtime_ms,
            disruption_secs: disruption.as_secs_f64(),
            ledger: self.ledger.clone(),
            wire: self.wire,
            disk_iterations: fold.iterations(Resource::Disk).to_vec(),
            mem_iterations: fold.iterations(Resource::Memory).to_vec(),
            postcopy: PostCopyStats {
                duration_secs: phases.postcopy_secs,
                ..outcome.stats
            },
            phases,
            timeline: self.probe.samples().to_vec(),
            io_blocked_secs: 0.0,
            residual_blocks: outcome.residual_blocks,
            redundant_deltas: 0,
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
            fold.publish("sim", m);
            m.gauge("sim.freeze.remaining_at_resume")
                .set(report.postcopy.remaining_at_resume);
            m.gauge("sim.bytes_total").set(report.ledger.total());
            report.wire.publish(m);
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
            guest: self.guest,
            probe: self.probe,
            end_time: self.now,
            kind: self.kind,
            fold,
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
        let share = outcome.guest.disk_demand().min(testbed::DISK_CAPACITY);
        ops.clear();
        outcome.guest.writes_into(dt, share, &mut ops);
        for op in &ops {
            let b = op.kind.block() as usize;
            outcome.dst_disk.write(b);
            outcome.im_tracker.set(b);
        }
        outcome
            .probe
            .record(now + dt, outcome.guest.client_throughput(share));
        now += dt;
    }
    outcome.end_time = end;
}

/// Migrate back to the original source using Incremental Migration: the
/// first pre-copy iteration transfers only the blocks dirtied since the
/// primary migration (§V).
pub fn run_im(cfg: MigrationConfig, prev: TpmOutcome) -> TpmOutcome {
    run_im_traced(cfg, prev, Recorder::off())
}

/// [`run_im`] with a telemetry recorder attached.
pub fn run_im_traced(
    cfg: MigrationConfig,
    prev: TpmOutcome,
    recorder: Arc<Recorder>,
) -> TpmOutcome {
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
    engine.dst_mem = GuestMemory::new(cfg.mem_pages);
    engine.guest = prev.guest;
    engine.probe = prev.probe;
    engine.now = prev.end_time;
    engine.kind = prev.kind;
    engine.scheme = "im";
    // "We check if the bitmap exists before the first iteration. If it
    // does, only the blocks marked dirty in the block-bitmap need to be
    // migrated."
    engine.initial_to_send = Some(prev.im_tracker);
    engine.set_recorder(recorder);
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
