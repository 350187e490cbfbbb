//! The fleet executor: a time-sliced engine running many concurrent
//! migrations under shared per-host capacity.
//!
//! Each admitted migration is a [`Task`] walking the paper's §IV phase
//! structure — iterative disk pre-copy under a block-bitmap, one memory
//! pre-copy pass, freeze-and-copy, then push post-copy with §III-A write
//! cancellation. The per-stream numerics (block-carry accumulator, wire
//! framing, the freeze-window downtime formula) mirror `migrate`'s
//! simulated TPM engine; the memory model is coarsened to a single
//! pre-copy pass plus a fixed frozen working set, because a fleet run
//! simulates dozens of migrations at once (DESIGN.md §13 records the
//! mapping).
//!
//! Every tick the executor: admits pending requests through the
//! scheduling policy, pools stream and guest-workload demands on each
//! host's NIC and disk and splits them with
//! [`simnet::capacity::max_min_share`], advances every stream at its
//! bottleneck rate, then advances every guest workload at its achieved
//! disk rate. Iteration is index-ordered everywhere and the only clock
//! is virtual time, so a run is a pure function of its configuration:
//! same seed, same journal, byte for byte.

use std::collections::BTreeSet;
use std::sync::Arc;

use block_bitmap::{ser, DirtyMap, FlatBitmap};
use des::{SimDuration, SimTime};
use migrate::precopy_stops;
use migrate::sim::DirtyTracker;
use simnet::capacity::max_min_share;
use simnet::fault::{Fault, FaultKind, FaultPlan, FaultTrigger};
use simnet::proto::{BLOCK_REF_WIRE, FRAME_OVERHEAD};
use telemetry::{Event, FaultLabel, Phase, Recorder};
use vdisk::MetaDisk;
use workloads::TimedOp;

use crate::cluster::{Cluster, HostId, VmId};
use crate::config::{ClusterConfig, ConfigError, Scenario};
use crate::dynamics::{FleetDynamics, StaticDynamics};
use crate::report::{ClusterReport, MigrationRecord};
use crate::scheduler::{ClusterView, MigrationRequest, Policy, Scheduler};

/// Message-count window for seeded per-migration fault schedules: a
/// reset armed by `fault_resets` fires after between `FAULT_LO` and
/// `FAULT_HI` pre-copy batches on its connection attempt.
const FAULT_LO: u64 = 2;
/// Upper bound (exclusive) of the seeded fault window.
const FAULT_HI: u64 = 16;

/// Per-page wire cost: 4 KiB payload plus the 8-byte index header, the
/// same framing the TPM engine charges per block.
const PAGE_WIRE: u64 = 4096 + 8;

/// One in-flight migration stream.
struct Task {
    id: u64,
    request: usize,
    vm: VmId,
    src: HostId,
    dst: HostId,
    phase: Phase,
    pass: u32,
    /// Blocks still to ship this pass (bits clear as blocks go out, so a
    /// reconnect resumes exactly where the cut stream stopped, and a
    /// destination write can cancel a pending post-copy push).
    to_send: FlatBitmap,
    cursor: usize,
    carry: f64,
    dst_disk: MetaDisk,
    /// Source-side writes since the current pass's bitmap was snapshot.
    tracker: DirtyTracker,
    /// Destination-side guest writes after resume (consistency witness).
    post_writes: FlatBitmap,
    mem_remaining: f64,
    resume_at: SimTime,
    stall_until: SimTime,
    plan: FaultPlan,
    armed: Vec<Fault>,
    attempt: u32,
    msgs: u64,
    attempt_bytes: u64,
    incremental: bool,
    first_pass_blocks: u64,
    blocks_sent: u64,
    /// `blocks_sent` when the current disk pre-copy pass began.
    pass_start: u64,
    blocks_cancelled: u64,
    /// Blocks that crossed as 16-byte content references because the
    /// destination replica already held the identical generation.
    blocks_deduped: u64,
    /// Full blocks some other host also held at the live generation —
    /// the multi-source fan-in share (accounting only).
    blocks_peer: u64,
    bytes: u64,
    retries: u32,
    failed: bool,
    start: SimTime,
    freeze_at: SimTime,
    downtime: SimDuration,
    workload_name: &'static str,
    /// The stream's endpoints cannot currently talk (partition or down
    /// host): it stalls in place, bitmap holding position.
    stranded: bool,
    /// While stranded, the replica holder currently serving owed blocks
    /// to the destination (the PR-9 directory fan-in used as failover).
    peer_source: Option<usize>,
}

impl Task {
    fn done(&self) -> bool {
        self.failed || (self.phase == Phase::PostCopy && self.to_send.none_set())
    }
}

/// Which pool participant an allocation belongs to.
#[derive(Clone, Copy)]
enum Part {
    Vm(usize),
    Task(usize),
}

/// How a stream's bytes flow this tick, as decided by the fleet
/// dynamics: straight from the source, fed by a reachable replica
/// holder while the source is stranded, or not at all.
enum Route {
    /// Source and destination can talk: the normal path.
    Direct,
    /// The source is unreachable but `peer` holds fresh copies of the
    /// blocks in `mask`: the destination pulls those from the peer.
    PeerFed { peer: usize, mask: FlatBitmap },
    /// Nobody can serve: the stream stalls in place, no retry burn.
    Severed,
}

/// Per-tick connectivity snapshot, taken once from the dynamics and
/// shared by admission and guest advancement. One set of buffers serves
/// the whole run: every tick overwrites them in place.
struct TickNet {
    host_up: Vec<bool>,
    cordoned: Vec<bool>,
    link_ok: Vec<bool>,
    high_activity: Vec<bool>,
}

impl TickNet {
    fn new(hosts: usize, vms: usize) -> Self {
        Self {
            host_up: vec![true; hosts],
            cordoned: vec![false; hosts],
            link_ok: vec![true; hosts * hosts],
            high_activity: vec![false; vms],
        }
    }

    fn snapshot(&mut self, dynamics: &dyn FleetDynamics, now: SimTime) {
        let hosts = self.host_up.len();
        for a in 0..hosts {
            self.host_up[a] = dynamics.host_up(a);
            self.cordoned[a] = dynamics.cordoned(a);
            for b in 0..hosts {
                self.link_ok[a * hosts + b] = dynamics.connected(a, b);
            }
        }
        for (vm, high) in self.high_activity.iter_mut().enumerate() {
            *high = dynamics.high_activity(vm, now);
        }
    }
}

/// The cluster executor: owns the fleet, runs scenarios.
pub struct Orchestrator {
    cfg: ClusterConfig,
    cluster: Cluster,
    scheduler: Box<dyn Scheduler>,
    recorder: Arc<Recorder>,
    next_id: u64,
    /// Per-VM guest-op sequence numbers, the basis for deterministic op
    /// thinning in low-activity workload phases.
    op_seq: Vec<u64>,
    /// One tick of one guest's ops, cleared and refilled per VM per tick.
    ops: Vec<TimedOp>,
}

impl Orchestrator {
    /// Build an orchestrator over a fresh fleet.
    pub fn new(
        cfg: ClusterConfig,
        policy: Policy,
        recorder: Arc<Recorder>,
    ) -> Result<Self, ConfigError> {
        let cluster = Cluster::new(&cfg)?;
        let op_seq = vec![0u64; cluster.vms.len()];
        Ok(Self {
            cfg,
            cluster,
            scheduler: policy.build(),
            recorder,
            next_id: 0,
            op_seq,
            ops: Vec::new(),
        })
    }

    /// The fleet state (replica table, VM placement) as it stands now —
    /// inspect after [`Orchestrator::run`] to see where VMs landed.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Run a scenario to completion (or to the configured horizon) and
    /// return the fleet report. The replica table persists across calls,
    /// so a second scenario on the same orchestrator sees the stale
    /// images the first one left behind.
    ///
    /// Runs over [`StaticDynamics`] — the flat, always-on fleet — and is
    /// byte-identical to the pre-dynamics executor.
    pub fn run(&mut self, scenario: &Scenario) -> ClusterReport {
        let mut dynamics = StaticDynamics::from_config(&self.cfg);
        self.run_with_dynamics(scenario, &mut dynamics)
    }

    /// Run a scenario under explicit fleet dynamics: partitions, host
    /// lifecycle, WAN links, heterogeneous capacities and workload
    /// cycles all flow through the [`FleetDynamics`] oracle, which is
    /// advanced once at the top of every tick and may inject new
    /// migration requests (maintenance evacuations) into the arrival
    /// stream.
    pub fn run_with_dynamics(
        &mut self,
        scenario: &Scenario,
        dynamics: &mut dyn FleetDynamics,
    ) -> ClusterReport {
        let step = self.cfg.step;
        let mut now = SimTime::ZERO;
        let mut future: Vec<(usize, MigrationRequest)> =
            scenario.requests.iter().copied().enumerate().collect();
        let mut next_request = scenario.requests.len();
        let mut pending: Vec<(usize, MigrationRequest)> = Vec::new();
        let mut tasks: Vec<Task> = Vec::new();
        let mut records: Vec<MigrationRecord> = Vec::new();
        let mut max_concurrent = 0usize;
        let mut makespan = SimTime::ZERO;
        let mut endpoints: Vec<(usize, usize)> = Vec::new();
        let mut net = TickNet::new(self.cfg.hosts, self.cluster.vms.len());

        loop {
            // 0. Dynamics: interpret timeline events due now (journaling
            // each topology change) and inject evacuation requests.
            endpoints.clear();
            endpoints.extend(
                tasks
                    .iter()
                    .filter(|t| !t.failed)
                    .map(|t| (t.src.0, t.dst.0)),
            );
            for req in dynamics.advance(now, &self.cluster, &endpoints, &self.recorder) {
                future.push((next_request, req));
                next_request += 1;
            }
            net.snapshot(dynamics, now);

            // 1. Arrivals: requests whose time has come join the queue.
            future.retain(|&(idx, req)| {
                let due = req.at <= now;
                if due {
                    pending.push((idx, req));
                }
                !due
            });

            // 2. Scheduling: admit until the policy (or admission
            // control) says stop.
            self.admit(&mut pending, &mut tasks, now, &net);
            max_concurrent = max_concurrent.max(tasks.len());

            if future.is_empty()
                && pending.is_empty()
                && tasks.is_empty()
                && dynamics.exhausted(now)
            {
                break;
            }
            if now.as_nanos() > self.cfg.horizon.as_nanos() {
                // Safety valve: abandon whatever is still running.
                for t in &mut tasks {
                    t.failed = true;
                }
                for t in tasks.drain(..) {
                    records.push(self.finalize(t, now));
                }
                break;
            }

            let tick_end = now + step;

            // 3. Routing: per-stream path for this tick — direct,
            // peer-fed across a partition, or severed (stalled).
            let routes = self.route_streams(&mut tasks, dynamics, now);

            // 4. Capacity: pool demands per host, max-min share them,
            // then cap each stream by its path's WAN link.
            let (task_rates, vm_rates) = self.compute_rates(&tasks, &routes, now, dynamics);

            // 5. Streams advance at their bottleneck rates.
            for (ti, t) in tasks.iter_mut().enumerate() {
                self.advance_stream(
                    t,
                    task_rates[ti],
                    &routes[ti],
                    now,
                    tick_end,
                    step,
                    dynamics,
                );
            }

            // 6. Guests advance at their achieved disk rates.
            self.advance_vms(&mut tasks, &vm_rates, step, now, &net, dynamics);

            // 7. Reap finished streams, in stream order.
            let mut ti = 0;
            while ti < tasks.len() {
                if tasks[ti].done() {
                    makespan = makespan.max(tick_end);
                    records.push(self.finalize(tasks.remove(ti), tick_end));
                } else {
                    ti += 1;
                }
            }

            now = tick_end;
        }

        let unserved = pending.len() + future.len();
        self.publish_metrics(&records, max_concurrent, unserved);
        ClusterReport {
            policy: self.scheduler.name().to_string(),
            hosts: self.cfg.hosts,
            vms: self.cfg.vms,
            seed: self.cfg.seed,
            records,
            unserved,
            max_concurrent,
            makespan_nanos: makespan.as_nanos(),
        }
    }

    /// Run the scheduling policy until it stops producing admissible
    /// decisions, turning each one into a live [`Task`].
    fn admit(
        &mut self,
        pending: &mut Vec<(usize, MigrationRequest)>,
        tasks: &mut Vec<Task>,
        now: SimTime,
        net: &TickNet,
    ) {
        if pending.is_empty() {
            return;
        }
        // What a decision reads, built once per round and moved forward
        // by each admission: the queue, the per-host stream counts and
        // the migrating VMs. The one thing `open_task` changes behind
        // the view is the directory (the admitted destination's replica
        // is consumed and must not be offered again), and the cluster
        // retires that entry itself.
        let mut reqs: Vec<MigrationRequest> = pending.iter().map(|(_, r)| *r).collect();
        let mut streams = self.streams_per_host(tasks);
        let mut busy: BTreeSet<usize> = tasks.iter().map(|t| t.vm.0).collect();
        while !pending.is_empty() {
            let view = ClusterView {
                hosts: self.cfg.hosts,
                vms: &self.cluster.vms,
                directory: self.cluster.directory(),
                streams: &streams,
                max_streams_per_host: self.cfg.max_streams_per_host,
                disk_blocks: self.cfg.disk_blocks,
                busy: &busy,
                host_up: &net.host_up,
                cordoned: &net.cordoned,
                link_ok: &net.link_ok,
                high_activity: &net.high_activity,
                now,
                cycle_patience: self.cfg.cycle_patience,
            };
            let Some(d) = self.scheduler.next(&reqs, &view) else {
                return;
            };
            if d.index >= pending.len() || d.dest.0 >= self.cfg.hosts {
                return;
            }
            let vm = reqs[d.index].vm;
            let src = self.cluster.vms[vm.0].host;
            if view.vm_busy(vm) || !view.admissible(src, d.dest) {
                // A misbehaving policy stalls the round instead of
                // oversubscribing a host.
                return;
            }
            let (request, _) = pending.remove(d.index);
            reqs.remove(d.index);
            streams[src.0] += 1;
            streams[d.dest.0] += 1;
            busy.insert(vm.0);
            let task = self.open_task(request, vm, src, d.dest, now);
            tasks.push(task);
        }
    }

    /// Create the stream for an admitted migration: consume the
    /// destination's stale replica if it holds a usable one (§V — the
    /// first pass ships only the bitmap diff), otherwise start from an
    /// empty image and an all-set bitmap.
    fn open_task(
        &mut self,
        request: usize,
        vm: VmId,
        src: HostId,
        dst: HostId,
        now: SimTime,
    ) -> Task {
        let id = self.next_id;
        self.next_id += 1;
        let nblocks = self.cfg.disk_blocks;
        let live_blocks = self.cluster.vms[vm.0].disk.num_blocks();
        // Write point 2 of the block directory: the admitted migration
        // consumes its destination's image.
        let replica = self.cluster.consume_replica(vm, dst);
        if replica.is_some() {
            let retires = "orchestrator.directory.retires";
            self.recorder.metrics().counter(retires).inc();
        }
        let replica = replica.filter(|r| r.disk.num_blocks() == live_blocks);
        let (dst_disk, to_send, incremental) = match replica {
            Some(r) => {
                let mut bm = FlatBitmap::new(nblocks);
                for b in self.cluster.vms[vm.0].disk.diff_blocks(&r.disk) {
                    bm.set(b);
                }
                (r.disk, bm, true)
            }
            None => (MetaDisk::new(nblocks), FlatBitmap::all_set(nblocks), false),
        };
        let first_pass_blocks = to_send.count_ones() as u64;
        let plan = if self.cfg.fault_resets > 0 {
            FaultPlan::seeded_resets(
                self.cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                self.cfg.fault_resets,
                FAULT_LO,
                FAULT_HI,
            )
        } else {
            FaultPlan::none()
        };
        let armed = plan.for_attempt(0);
        let t_nanos = now.as_nanos();
        self.recorder
            .record_at_nanos(t_nanos, || Event::MigrationAdmitted {
                migration: id,
                vm: vm.0 as u64,
                src: src.0 as u64,
                dst: dst.0 as u64,
                incremental,
                first_pass_blocks,
            });
        self.recorder
            .record_at_nanos(t_nanos, || Event::MigrationPhaseStart {
                migration: id,
                phase: Phase::DiskPrecopy,
            });
        Task {
            id,
            request,
            vm,
            src,
            dst,
            phase: Phase::DiskPrecopy,
            pass: 0,
            to_send,
            cursor: 0,
            carry: 0.0,
            dst_disk,
            tracker: DirtyTracker::new(self.cfg.bitmap, nblocks),
            post_writes: FlatBitmap::new(nblocks),
            mem_remaining: (self.cfg.mem_pages as u64 * PAGE_WIRE) as f64,
            resume_at: SimTime::ZERO,
            stall_until: SimTime::ZERO,
            plan,
            armed,
            attempt: 0,
            msgs: 0,
            attempt_bytes: 0,
            incremental,
            first_pass_blocks,
            blocks_sent: 0,
            pass_start: 0,
            blocks_cancelled: 0,
            blocks_deduped: 0,
            blocks_peer: 0,
            bytes: 0,
            retries: 0,
            failed: false,
            start: now,
            freeze_at: SimTime::ZERO,
            downtime: SimDuration::ZERO,
            workload_name: self.cluster.vms[vm.0].workload.name(),
            stranded: false,
            peer_source: None,
        }
    }

    /// Decide how each stream's bytes flow this tick. A stream whose
    /// endpoints can talk runs [`Route::Direct`]; one cut off by a
    /// partition or a down host strands in place — and, during disk
    /// pre-copy or post-copy with multi-source on, re-plans through the
    /// block directory to pull owed blocks from the freshest replica
    /// holder the destination can still reach ([`Route::PeerFed`]).
    /// Every strand, re-plan and reconnect is journaled; a reconnect
    /// charges the stream one encoded-bitmap re-send, the §IV resume
    /// handshake.
    fn route_streams(
        &self,
        tasks: &mut [Task],
        dynamics: &dyn FleetDynamics,
        now: SimTime,
    ) -> Vec<Route> {
        let t_nanos = now.as_nanos();
        let mut routes = Vec::with_capacity(tasks.len());
        for t in tasks.iter_mut() {
            if t.failed {
                routes.push(Route::Severed);
                continue;
            }
            let pair_ok = dynamics.host_up(t.src.0)
                && dynamics.host_up(t.dst.0)
                && dynamics.connected(t.src.0, t.dst.0);
            if pair_ok {
                if t.stranded {
                    // Reconnected: the source re-learns the worklist by
                    // re-shipping the current bitmap (bitmap resume,
                    // charged to the stream like any retry reconnect).
                    t.stranded = false;
                    t.peer_source = None;
                    let enc = ser::encoded_len(&t.to_send) as u64 + FRAME_OVERHEAD;
                    t.bytes += enc;
                    t.attempt_bytes += enc;
                    let id = t.id;
                    self.recorder
                        .record_at_nanos(t_nanos, || Event::MigrationReconnected {
                            migration: id,
                            bitmap_bytes: enc,
                        });
                }
                routes.push(Route::Direct);
                continue;
            }
            // Endpoints cannot talk. Freeze still completes on schedule:
            // its handshake was in flight when the cut landed (a
            // documented simplification — DESIGN.md §18).
            if t.phase == Phase::Freeze {
                routes.push(Route::Direct);
                continue;
            }
            if !t.stranded {
                t.stranded = true;
                let id = t.id;
                self.recorder
                    .record_at_nanos(t_nanos, || Event::MigrationStranded { migration: id });
            }
            // Failover re-plan: during the block-shipping phases another
            // replica holder reachable from the destination can serve
            // whatever owed blocks it holds at the live generation.
            let replannable = self.cfg.multisource
                && matches!(t.phase, Phase::DiskPrecopy | Phase::PostCopy)
                && dynamics.host_up(t.dst.0);
            let peer = if replannable {
                let allowed: Vec<u64> = (0..self.cfg.hosts)
                    .filter(|&h| {
                        h != t.src.0
                            && h != t.dst.0
                            && dynamics.host_up(h)
                            && dynamics.connected(h, t.dst.0)
                    })
                    .map(|h| h as u64)
                    .collect();
                self.cluster.directory().best_holder(
                    t.vm.0 as u64,
                    &self.cluster.vms[t.vm.0].disk,
                    &t.to_send,
                    &allowed,
                )
            } else {
                None
            };
            match peer {
                Some((site, mask)) => {
                    let site = site as usize;
                    if t.peer_source != Some(site) {
                        t.peer_source = Some(site);
                        let id = t.id;
                        let servable = mask.count_ones() as u64;
                        self.recorder
                            .record_at_nanos(t_nanos, || Event::MigrationPeerFed {
                                migration: id,
                                peer: site as u64,
                                servable,
                            });
                    }
                    routes.push(Route::PeerFed { peer: site, mask });
                }
                None => {
                    t.peer_source = None;
                    routes.push(Route::Severed);
                }
            }
        }
        routes
    }

    /// Streams touching each host (any phase — a frozen stream still
    /// occupies its admission slot).
    fn streams_per_host(&self, tasks: &[Task]) -> Vec<usize> {
        let mut streams = vec![0usize; self.cfg.hosts];
        for t in tasks {
            streams[t.src.0] += 1;
            streams[t.dst.0] += 1;
        }
        streams
    }

    /// Pool every demand on each host's disk and NIC, max-min share each
    /// pool, and fold allocations back: a stream's rate is the minimum
    /// over every pool it crosses (then capped by its path's WAN
    /// bandwidth and derated by its path's loss); a guest's achieved
    /// rate is its share of its host's disk.
    ///
    /// Pool membership by phase: disk pre-copy and post-copy streams
    /// read the serving side's disk, write the destination disk and
    /// cross both NICs; the memory pass crosses both NICs only; a frozen
    /// stream's bytes are inside its downtime formula, so it leaves the
    /// pools. A severed stream leaves every pool; a peer-fed stream's
    /// source-side pools are the *peer's*. A down host's pools vanish
    /// entirely.
    fn compute_rates(
        &self,
        tasks: &[Task],
        routes: &[Route],
        now: SimTime,
        dynamics: &dyn FleetDynamics,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut task_rates = vec![0.0f64; tasks.len()];
        let mut task_seen = vec![false; tasks.len()];
        let mut vm_rates = vec![0.0f64; self.cluster.vms.len()];
        let suspended: BTreeSet<usize> = tasks
            .iter()
            .filter(|t| t.phase == Phase::Freeze)
            .map(|t| t.vm.0)
            .collect();
        // Serving endpoints per stream this tick: `None` drops the
        // stream out of every pool.
        let endpoints: Vec<Option<(usize, usize)>> = tasks
            .iter()
            .zip(routes)
            .map(|(t, r)| match r {
                Route::Direct => Some((t.src.0, t.dst.0)),
                Route::PeerFed { peer, .. } => Some((*peer, t.dst.0)),
                Route::Severed => None,
            })
            .collect();
        for h in 0..self.cfg.hosts {
            if !dynamics.host_up(h) {
                continue;
            }
            let mut parts: Vec<Part> = Vec::new();
            let mut demands: Vec<f64> = Vec::new();
            for vm in &self.cluster.hosts[h].resident {
                if suspended.contains(&vm.0) {
                    continue;
                }
                parts.push(Part::Vm(vm.0));
                demands.push(
                    self.cluster.vms[vm.0].workload.disk_demand()
                        * dynamics.workload_scale(vm.0, now),
                );
            }
            for (ti, t) in tasks.iter().enumerate() {
                let Some((from, to)) = endpoints[ti] else {
                    continue;
                };
                let active = !t.failed && now >= t.stall_until;
                let uses_disk = matches!(t.phase, Phase::DiskPrecopy | Phase::PostCopy);
                if active && uses_disk && (from == h || to == h) {
                    parts.push(Part::Task(ti));
                    demands.push(self.cfg.stream_demand);
                }
            }
            let alloc = max_min_share(dynamics.disk_capacity(h), &demands);
            for (part, a) in parts.iter().zip(alloc) {
                match *part {
                    Part::Vm(v) => vm_rates[v] = a,
                    Part::Task(ti) => {
                        task_rates[ti] = if task_seen[ti] {
                            task_rates[ti].min(a)
                        } else {
                            a
                        };
                        task_seen[ti] = true;
                    }
                }
            }
            let mut nic_parts: Vec<usize> = Vec::new();
            let mut nic_demands: Vec<f64> = Vec::new();
            for (ti, t) in tasks.iter().enumerate() {
                let Some((from, to)) = endpoints[ti] else {
                    continue;
                };
                let active = !t.failed && now >= t.stall_until;
                let uses_nic = matches!(
                    t.phase,
                    Phase::DiskPrecopy | Phase::MemPrecopy | Phase::PostCopy
                );
                if active && uses_nic && (from == h || to == h) {
                    nic_parts.push(ti);
                    nic_demands.push(self.cfg.stream_demand);
                }
            }
            let alloc = max_min_share(dynamics.nic_capacity(h), &nic_demands);
            for (ti, a) in nic_parts.iter().zip(alloc) {
                task_rates[*ti] = if task_seen[*ti] {
                    task_rates[*ti].min(a)
                } else {
                    a
                };
                task_seen[*ti] = true;
            }
        }
        // WAN link ceiling and loss derate on the serving path. Both are
        // exact identities on a LAN (`min(x, ∞) = x`, `x · 1.0 = x`).
        for (ti, ep) in endpoints.iter().enumerate() {
            if let Some((from, to)) = *ep {
                if task_seen[ti] {
                    task_rates[ti] = task_rates[ti].min(dynamics.link_bandwidth(from, to))
                        * dynamics.link_quality(from, to);
                }
            }
        }
        (task_rates, vm_rates)
    }

    /// Advance one stream by one tick at its bottleneck rate, along the
    /// route the dynamics allowed it this tick. A severed stream stalls
    /// in place — no progress, no retry burn, the bitmap holds position
    /// until the partition heals (freeze alone completes regardless, its
    /// handshake being already in flight).
    #[allow(clippy::too_many_arguments)]
    fn advance_stream(
        &mut self,
        t: &mut Task,
        rate: f64,
        route: &Route,
        now: SimTime,
        tick_end: SimTime,
        dt: SimDuration,
        dynamics: &dyn FleetDynamics,
    ) {
        if t.failed || now < t.stall_until {
            return;
        }
        if matches!(route, Route::Severed) && t.phase != Phase::Freeze {
            return;
        }
        let peer_mask = match route {
            Route::PeerFed { mask, .. } => Some(mask),
            _ => None,
        };
        match t.phase {
            Phase::DiskPrecopy => {
                let last = self.pump_blocks(t, rate, dt, peer_mask);
                if peer_mask.is_none() {
                    // The seeded fault plan models the source link;
                    // while peer-fed, that link is already cut.
                    self.check_faults(t, tick_end, last);
                }
                if t.failed || now < t.stall_until || t.phase != Phase::DiskPrecopy {
                    return;
                }
                if t.to_send.none_set() {
                    t.pass += 1;
                    let next = t.tracker.drain();
                    let sent = t.blocks_sent - t.pass_start;
                    t.pass_start = t.blocks_sent;
                    if precopy_stops(
                        t.pass,
                        self.cfg.max_disk_passes,
                        sent,
                        next.count_ones(),
                        self.cfg.dirty_threshold,
                    ) {
                        // Leftover dirt keeps accumulating into the
                        // freeze bitmap while memory pre-copies.
                        t.tracker.merge(&next);
                        self.switch_phase(t, Phase::MemPrecopy, tick_end);
                        t.carry = 0.0;
                    } else {
                        t.to_send = next;
                        t.cursor = 0;
                        t.carry = 0.0;
                    }
                }
            }
            Phase::MemPrecopy => {
                t.mem_remaining -= rate * dt.as_secs_f64();
                t.msgs += 1;
                t.attempt_bytes += (rate * dt.as_secs_f64()) as u64;
                self.check_faults(t, tick_end, None);
                if t.failed || now < t.stall_until {
                    return;
                }
                if t.mem_remaining <= 0.0 {
                    self.enter_freeze(t, rate, tick_end, dynamics);
                }
            }
            Phase::Freeze => {
                if tick_end >= t.resume_at {
                    let resume_nanos = t.resume_at.as_nanos();
                    self.recorder
                        .record_at_nanos(resume_nanos, || Event::MigrationPhaseEnd {
                            migration: t.id,
                            phase: Phase::Freeze,
                        });
                    self.recorder
                        .record_at_nanos(resume_nanos, || Event::MigrationPhaseStart {
                            migration: t.id,
                            phase: Phase::PostCopy,
                        });
                    t.phase = Phase::PostCopy;
                    t.cursor = 0;
                    t.carry = 0.0;
                    // The VM resumes on the destination: its workload
                    // demand moves to the destination's disk pool.
                    self.cluster.relocate(t.vm, t.dst);
                }
            }
            Phase::PostCopy => {
                self.pump_blocks(t, rate, dt, peer_mask);
            }
        }
    }

    /// Ship up to `rate * dt` worth of blocks off the worklist using the
    /// TPM engine's carry accumulator, charging per-block framing plus
    /// one frame overhead per batch. With `cfg.dedup`, a block whose
    /// generation already matches the destination replica (the same
    /// replica-table version maintenance that seeded the first-pass diff)
    /// is charged a 16-byte reference instead of a full payload; pacing
    /// is deliberately left uniform, so dedup-off runs are byte- and
    /// clock-identical to the classic math. With `cfg.multisource`, a
    /// full block some *other* host also holds at the live generation is
    /// additionally counted as peer-servable — the directory fan-in the
    /// two-host engine performs for real — without changing the byte or
    /// clock math at all.
    ///
    /// With `peer_mask` set the stream is peer-fed across a partition:
    /// only owed blocks inside the mask (the ones the serving replica
    /// holds at the live generation) are eligible, and every full block
    /// shipped counts as peer-served. Returns the last block shipped.
    fn pump_blocks(
        &self,
        t: &mut Task,
        rate: f64,
        dt: SimDuration,
        peer_mask: Option<&FlatBitmap>,
    ) -> Option<usize> {
        let bs = self.cfg.block_size as f64;
        // While peer-fed only the mask's intersection with the worklist
        // is shippable; the rest waits for the source link.
        let mut candidates = peer_mask.map(|m| {
            let mut c = t.to_send.clone();
            c.intersect_with(m);
            c
        });
        let raw = t.carry + rate * dt.as_secs_f64() / bs;
        let remaining = match &candidates {
            Some(c) => c.count_ones() as u64,
            None => t.to_send.count_ones() as u64,
        };
        let n = (raw.floor().max(0.0) as u64).min(remaining);
        t.carry = raw - n as f64;
        if n == 0 {
            return None;
        }
        let mut last = None;
        let mut refs = 0u64;
        let mut peer = 0u64;
        let src_disk = &self.cluster.vms[t.vm.0].disk;
        // What the replica sites other than the endpoints hold: the
        // images a multi-source fetch could draw a fresh block from.
        // (While peer-fed the server is known, so the scan is skipped.)
        let bystanders: Vec<&[u32]> = if self.cfg.multisource && peer_mask.is_none() {
            self.cluster
                .directory()
                .views(t.vm.0 as u64, src_disk)
                .filter(|&(site, _)| site != t.src.0 as u64 && site != t.dst.0 as u64)
                .map(|(_, held)| held)
                .collect()
        } else {
            Vec::new()
        };
        for _ in 0..n {
            let worklist = candidates.as_ref().unwrap_or(&t.to_send);
            let b = match worklist.next_set_from(t.cursor) {
                Some(b) => b,
                None => match worklist.next_set_from(0) {
                    Some(b) => b,
                    None => break,
                },
            };
            if self.cfg.dedup && t.dst_disk.generation(b) == src_disk.generation(b) {
                // Destination already holds this exact content: nothing
                // to copy, only the reference crosses.
                refs += 1;
            } else {
                t.dst_disk.copy_block_from(src_disk, b);
                // A peer-fed block counts unconditionally (the server
                // IS a peer); otherwise count it when some bystander
                // replica also holds it at the live generation.
                if peer_mask.is_some()
                    || bystanders
                        .iter()
                        .any(|held| held[b] == src_disk.generation(b))
                {
                    peer += 1;
                }
            }
            t.to_send.clear(b);
            if let Some(c) = candidates.as_mut() {
                c.clear(b);
            }
            t.cursor = b + 1;
            t.blocks_sent += 1;
            last = Some(b);
        }
        let wire = (n - refs) * (self.cfg.block_size + 8) + refs * BLOCK_REF_WIRE + FRAME_OVERHEAD;
        t.bytes += wire;
        t.attempt_bytes += wire;
        t.blocks_deduped += refs;
        t.blocks_peer += peer;
        t.msgs += 1;
        last
    }

    /// Fire the first armed fault whose trigger has been crossed.
    /// Faults only arm during pre-copy (disk and memory): that is where
    /// the bitmap-resume story lives; freeze and post-copy are protected
    /// by the same retry machinery in the two-host engine and would only
    /// duplicate it here.
    fn check_faults(&self, t: &mut Task, tick_end: SimTime, last: Option<usize>) {
        let hit = |f: &Fault| match f.trigger {
            FaultTrigger::Messages(n) => t.msgs >= n,
            FaultTrigger::Bytes(n) => t.attempt_bytes >= n,
            FaultTrigger::CategoryMessages(_, n) => t.msgs >= n,
        };
        let Some(pos) = t.armed.iter().position(hit) else {
            return;
        };
        let fault = t.armed.remove(pos);
        t.armed.retain(|f| !hit(f));
        let t_nanos = tick_end.as_nanos();
        match fault.kind {
            FaultKind::Stall(d) => {
                self.recorder
                    .record_at_nanos(t_nanos, || Event::FaultInjected {
                        fault: FaultLabel::Stall,
                        messages_before: t.msgs,
                    });
                t.stall_until = tick_end + SimDuration::from_nanos(d.as_nanos() as u64);
            }
            FaultKind::Truncate => {
                self.recorder
                    .record_at_nanos(t_nanos, || Event::FaultInjected {
                        fault: FaultLabel::Truncate,
                        messages_before: t.msgs,
                    });
                // The last frame was silently lost: its block rides the
                // next pass, and the connection is severed behind it.
                if let Some(b) = last {
                    t.to_send.set(b);
                }
                self.reset_stream(t, tick_end);
            }
            FaultKind::Reset => {
                self.recorder
                    .record_at_nanos(t_nanos, || Event::FaultInjected {
                        fault: FaultLabel::Reset,
                        messages_before: t.msgs,
                    });
                self.reset_stream(t, tick_end);
            }
            FaultKind::Drop => {
                self.recorder
                    .record_at_nanos(t_nanos, || Event::FaultInjected {
                        fault: FaultLabel::Drop,
                        messages_before: t.msgs,
                    });
                // The last frame vanished on a lossy link that stayed
                // up: its block rides the next pass, nothing resets.
                if let Some(b) = last {
                    t.to_send.set(b);
                }
            }
        }
    }

    /// The stream lost its connection: burn a retry, back off, and
    /// reconnect by re-shipping the current worklist bitmap — never the
    /// blocks already applied, which is the whole point of bitmap-based
    /// resume.
    fn reset_stream(&self, t: &mut Task, tick_end: SimTime) {
        t.retries += 1;
        if t.retries > self.cfg.max_retries {
            t.failed = true;
            return;
        }
        t.attempt += 1;
        let t_nanos = tick_end.as_nanos();
        self.recorder
            .record_at_nanos(t_nanos, || Event::MigrationRetry {
                migration: t.id,
                attempt: u64::from(t.attempt),
            });
        t.armed = t.plan.for_attempt(t.attempt);
        t.msgs = 0;
        t.attempt_bytes = 0;
        t.carry = 0.0;
        t.stall_until = tick_end + self.cfg.retry_backoff;
        let enc = ser::encoded_len(&t.to_send) as u64;
        t.bytes += enc + FRAME_OVERHEAD;
    }

    /// Suspend the guest: drain the dirty tracker into the final bitmap,
    /// price the freeze window with the engine's downtime formula
    /// (remaining state + encoded bitmap + handshake frames at the rate
    /// the stream held going in), and schedule the exact resume instant.
    fn enter_freeze(
        &mut self,
        t: &mut Task,
        rate: f64,
        tick_end: SimTime,
        dynamics: &dyn FleetDynamics,
    ) {
        t.bytes += self.cfg.mem_pages as u64 * PAGE_WIRE + FRAME_OVERHEAD;
        let final_bm = t.tracker.drain();
        let enc = ser::encoded_len(&final_bm) as u64;
        let down_bytes = self.cfg.frozen_mem_pages as u64 * PAGE_WIRE
            + self.cfg.cpu_state_bytes
            + enc
            + 3 * FRAME_OVERHEAD;
        let down_rate = rate.max(1.0);
        let downtime = self.cfg.suspend_overhead
            + SimDuration::from_secs_f64(down_bytes as f64 / down_rate)
            + self.cfg.latency
            + dynamics.link_latency(t.src.0, t.dst.0)
            + self.cfg.resume_overhead;
        t.bytes += down_bytes;
        t.downtime = downtime;
        t.freeze_at = tick_end;
        t.resume_at = tick_end + downtime;
        t.to_send = final_bm;
        t.cursor = 0;
        t.carry = 0.0;
        self.switch_phase(t, Phase::Freeze, tick_end);
    }

    /// Journal the end of the current phase and the start of the next,
    /// both at the same instant.
    fn switch_phase(&self, t: &mut Task, next: Phase, at: SimTime) {
        let t_nanos = at.as_nanos();
        let prev = t.phase;
        self.recorder
            .record_at_nanos(t_nanos, || Event::MigrationPhaseEnd {
                migration: t.id,
                phase: prev,
            });
        self.recorder
            .record_at_nanos(t_nanos, || Event::MigrationPhaseStart {
                migration: t.id,
                phase: next,
            });
        t.phase = next;
    }

    /// Advance every guest one tick at its achieved disk rate, routing
    /// writes by migration phase: pre-copy writes land on the source
    /// image and the dirty tracker; post-copy writes land on the
    /// destination image and cancel any pending push of the same block
    /// (§III-A); a frozen guest does nothing. A guest on a down host is
    /// powered off with it — no ops at all, which matters for open-loop
    /// workloads that would otherwise keep writing at rate zero. Ops are
    /// thinned by the dynamics' `op_keep` ratio in low-activity phases
    /// (the `(1, 1)` default keeps everything, exactly).
    fn advance_vms(
        &mut self,
        tasks: &mut [Task],
        vm_rates: &[f64],
        dt: SimDuration,
        now: SimTime,
        net: &TickNet,
        dynamics: &dyn FleetDynamics,
    ) {
        let nblocks = self.cfg.disk_blocks;
        for (vi, &rate) in vm_rates.iter().enumerate() {
            if !net.host_up[self.cluster.vms[vi].host.0] {
                continue;
            }
            let ti = tasks.iter().position(|t| t.vm.0 == vi && !t.failed);
            if let Some(ti) = ti {
                if tasks[ti].phase == Phase::Freeze {
                    continue;
                }
            }
            self.ops.clear();
            let vm = &mut self.cluster.vms[vi];
            vm.workload.ops_into(dt, rate, &mut vm.rng, &mut self.ops);
            let (keep, of) = dynamics.op_keep(vi, now);
            let of = of.max(1);
            for op in &self.ops {
                let seq = self.op_seq[vi];
                self.op_seq[vi] = seq.wrapping_add(1);
                if seq % of >= keep {
                    continue;
                }
                if !op.kind.is_write() {
                    continue;
                }
                let b = op.kind.block() as usize;
                if b >= nblocks {
                    continue;
                }
                match ti {
                    Some(ti) if tasks[ti].phase == Phase::PostCopy => {
                        let t = &mut tasks[ti];
                        t.dst_disk.write(b);
                        t.post_writes.set(b);
                        if t.to_send.get(b) {
                            t.to_send.clear(b);
                            t.blocks_cancelled += 1;
                        }
                    }
                    Some(ti) => {
                        self.cluster.vms[vi].disk.write(b);
                        tasks[ti].tracker.set(b);
                    }
                    None => {
                        self.cluster.vms[vi].disk.write(b);
                    }
                }
            }
        }
    }

    /// Close out a finished stream: verify consistency, install the new
    /// image, retire the old one into the replica table (that is what a
    /// later IM-aware hop comes back for), and journal the outcome.
    fn finalize(&mut self, mut t: Task, at: SimTime) -> MigrationRecord {
        let t_nanos = at.as_nanos();
        let vm = t.vm.0;
        let consistent;
        if t.failed {
            // Close whatever phase was open so journal spans balance.
            let phase = t.phase;
            self.recorder
                .record_at_nanos(t_nanos, || Event::MigrationPhaseEnd {
                    migration: t.id,
                    phase,
                });
            if t.phase == Phase::PostCopy {
                // Aborted after resume (horizon): the VM falls back to
                // its source image.
                self.cluster.relocate(t.vm, t.src);
            }
            // The partial image is still a (stale) replica the next
            // attempt can diff against.
            self.keep_replica(t.vm, t.dst, t.dst_disk.clone());
            consistent = false;
        } else {
            self.recorder
                .record_at_nanos(t_nanos, || Event::MigrationPhaseEnd {
                    migration: t.id,
                    phase: Phase::PostCopy,
                });
            // Every block that differs from the frozen source image must
            // be explained by a destination guest write.
            consistent = t
                .dst_disk
                .diff_blocks(&self.cluster.vms[vm].disk)
                .iter()
                .all(|&b| t.post_writes.get(b));
            let fresh = std::mem::replace(&mut t.dst_disk, MetaDisk::new(0));
            let old = std::mem::replace(&mut self.cluster.vms[vm].disk, fresh);
            self.keep_replica(t.vm, t.src, old);
        }
        let completed = !t.failed;
        self.recorder
            .record_at_nanos(t_nanos, || Event::MigrationCompleted {
                migration: t.id,
                bytes: t.bytes,
                retries: u64::from(t.retries),
                completed,
            });
        MigrationRecord {
            migration: t.id,
            request: t.request,
            vm,
            src: t.src.0,
            dst: t.dst.0,
            workload: t.workload_name,
            incremental: t.incremental,
            first_pass_blocks: t.first_pass_blocks,
            passes: t.pass,
            blocks_sent: t.blocks_sent,
            blocks_cancelled: t.blocks_cancelled,
            blocks_deduped: t.blocks_deduped,
            blocks_peer: t.blocks_peer,
            bytes: t.bytes,
            retries: t.retries,
            completed,
            consistent,
            start_nanos: t.start.as_nanos(),
            freeze_nanos: t.freeze_at.as_nanos(),
            resume_nanos: t.resume_at.as_nanos(),
            finish_nanos: t_nanos,
            downtime_nanos: t.downtime.as_nanos(),
        }
    }

    /// Write point 1 of the block directory: a host keeps an image.
    fn keep_replica(&mut self, vm: VmId, host: HostId, disk: MetaDisk) {
        self.cluster.keep_replica(vm, host, disk);
        let publishes = "orchestrator.directory.publishes";
        self.recorder.metrics().counter(publishes).inc();
    }

    /// Publish `cluster.*` metrics into the recorder's registry.
    fn publish_metrics(&self, records: &[MigrationRecord], max_concurrent: usize, unserved: usize) {
        let m = self.recorder.metrics();
        let completed = records.iter().filter(|r| r.completed).count() as u64;
        m.counter("cluster.migrations.admitted")
            .add(records.len() as u64);
        m.counter("cluster.migrations.completed").add(completed);
        m.counter("cluster.migrations.failed")
            .add(records.len() as u64 - completed);
        m.counter("cluster.migrations.incremental")
            .add(records.iter().filter(|r| r.incremental).count() as u64);
        m.counter("cluster.migrations.unserved")
            .add(unserved as u64);
        m.counter("cluster.retries")
            .add(records.iter().map(|r| u64::from(r.retries)).sum());
        m.counter("cluster.bytes.total")
            .add(records.iter().map(|r| r.bytes).sum());
        m.counter("cluster.blocks.sent")
            .add(records.iter().map(|r| r.blocks_sent).sum());
        m.counter("cluster.blocks.cancelled")
            .add(records.iter().map(|r| r.blocks_cancelled).sum());
        m.counter("cluster.blocks.deduped")
            .add(records.iter().map(|r| r.blocks_deduped).sum());
        m.counter("cluster.blocks.peer_served")
            .add(records.iter().map(|r| r.blocks_peer).sum());
        m.gauge("cluster.hosts").set(self.cfg.hosts as u64);
        m.gauge("cluster.vms").set(self.cfg.vms as u64);
        m.gauge("cluster.max_concurrent").set(max_concurrent as u64);
        let total_ms = m.histogram("cluster.migration.total_ms");
        let down_us = m.histogram("cluster.migration.downtime_us");
        for r in records.iter().filter(|r| r.completed) {
            total_ms.observe(r.finish_nanos.saturating_sub(r.start_nanos) / 1_000_000);
            down_us.observe(r.downtime_nanos / 1_000);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    fn small_cfg(hosts: usize, vms: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(hosts, vms);
        cfg.disk_blocks = 8_192;
        cfg.mem_pages = 256;
        cfg.frozen_mem_pages = 32;
        cfg.dirty_threshold = 64;
        cfg
    }

    #[test]
    fn single_wave_completes_consistently() {
        let cfg = small_cfg(3, 3);
        let scenario = Scenario::single_wave(&cfg, None);
        let rec = Recorder::enabled();
        let mut orch = Orchestrator::new(cfg, Policy::Fifo, rec.clone()).expect("valid config");
        let report = orch.run(&scenario);
        assert_eq!(report.completed(), 3);
        assert!(report.all_consistent());
        assert_eq!(report.unserved, 0);
        assert!(report.max_concurrent >= 1);
        // Each VM left a replica behind on its old host.
        assert_eq!(orch.cluster().replicas().len(), 3);
        // Each VM actually moved (ring placement).
        assert_eq!(orch.cluster().vms[0].host, HostId(1));
        // The journal balances starts and ends.
        let records = rec.records();
        let starts = records
            .iter()
            .filter(|r| matches!(r.event, Event::MigrationPhaseStart { .. }))
            .count();
        let ends = records
            .iter()
            .filter(|r| matches!(r.event, Event::MigrationPhaseEnd { .. }))
            .count();
        assert_eq!(starts, ends);
    }

    #[test]
    fn second_hop_back_is_incremental_and_cheaper() {
        let cfg = small_cfg(2, 1);
        let rec = Recorder::enabled();
        let mut orch = Orchestrator::new(cfg.clone(), Policy::ImAware, rec).expect("valid config");
        let scenario = Scenario::two_wave(&cfg, SimDuration::from_secs(5));
        let report = orch.run(&scenario);
        assert_eq!(report.completed(), 2);
        assert!(report.all_consistent());
        let first = &report.records[0];
        let second = &report.records[1];
        assert!(!first.incremental);
        assert!(second.incremental, "return hop must find the stale replica");
        assert!(
            second.bytes < first.bytes / 4,
            "incremental hop moved {} vs full {}",
            second.bytes,
            first.bytes
        );
        assert!(second.total_secs() < first.total_secs());
    }

    #[test]
    fn dedup_off_reproduces_classic_byte_math() {
        let cfg_on = small_cfg(2, 1);
        let mut cfg_off = small_cfg(2, 1);
        cfg_off.dedup = false;
        let scenario = Scenario::two_wave(&cfg_on, SimDuration::from_secs(5));
        let mut on =
            Orchestrator::new(cfg_on, Policy::ImAware, Recorder::off()).expect("valid config");
        let mut off =
            Orchestrator::new(cfg_off, Policy::ImAware, Recorder::off()).expect("valid config");
        let ra = on.run(&scenario);
        let rb = off.run(&scenario);
        // Dedup is wire accounting only: the clock and every decision are
        // unchanged…
        assert_eq!(ra.makespan_nanos, rb.makespan_nanos);
        assert_eq!(ra.completed(), rb.completed());
        assert!(ra.all_consistent() && rb.all_consistent());
        assert_eq!(rb.total_deduped(), 0);
        // …and every reference saved exactly (payload − reference) bytes.
        let bs = ClusterConfig::new(2, 1).block_size;
        assert_eq!(
            ra.total_bytes() + ra.total_deduped() * (bs + 8 - BLOCK_REF_WIRE),
            rb.total_bytes()
        );
    }

    #[test]
    fn multisource_off_is_byte_and_clock_identical() {
        // A pinned three-hop tour: h0 -> h1 leaves a replica on h0, then
        // h1 -> h2 runs with h0 as a bystander replica holder — the
        // fan-in case the peer-served counter must see.
        let scenario = Scenario {
            requests: vec![
                MigrationRequest {
                    vm: VmId(0),
                    dest: Some(HostId(1)),
                    at: SimTime::ZERO,
                },
                MigrationRequest {
                    vm: VmId(0),
                    dest: Some(HostId(2)),
                    at: SimTime::ZERO + SimDuration::from_secs(5),
                },
            ],
        };
        let cfg_on = small_cfg(3, 1);
        let mut cfg_off = small_cfg(3, 1);
        cfg_off.multisource = false;
        let mut on =
            Orchestrator::new(cfg_on, Policy::Fifo, Recorder::off()).expect("valid config");
        let mut off =
            Orchestrator::new(cfg_off, Policy::Fifo, Recorder::off()).expect("valid config");
        let ra = on.run(&scenario);
        let rb = off.run(&scenario);
        // Multisource is accounting only: bytes, clock and outcomes are
        // identical with it off — only the peer-served counter moves.
        assert_eq!(ra.makespan_nanos, rb.makespan_nanos);
        assert_eq!(ra.total_bytes(), rb.total_bytes());
        assert_eq!(ra.completed(), rb.completed());
        assert!(ra.all_consistent() && rb.all_consistent());
        assert_eq!(rb.total_peer_served(), 0);
        assert!(
            ra.total_peer_served() > 0,
            "the second hop must see h0's bystander replica as a peer holder"
        );
    }

    #[test]
    fn injected_resets_retry_and_still_complete() {
        let mut cfg = small_cfg(2, 1);
        cfg.fault_resets = 2;
        let rec = Recorder::enabled();
        let mut orch =
            Orchestrator::new(cfg.clone(), Policy::Fifo, rec.clone()).expect("valid config");
        let report = orch.run(&Scenario::single_wave(&cfg, None));
        assert_eq!(report.completed(), 1);
        assert!(report.all_consistent());
        assert!(report.records[0].retries >= 1, "the seeded reset must fire");
        assert!(rec
            .records()
            .iter()
            .any(|r| matches!(r.event, Event::MigrationRetry { .. })));
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_migration_in_place() {
        let mut cfg = small_cfg(2, 1);
        cfg.fault_resets = 8;
        cfg.max_retries = 1;
        // Slow the stream so pre-copy always spans the whole seeded fault
        // window — every attempt is guaranteed to hit its reset.
        cfg.stream_demand = 5.0 * 1024.0 * 1024.0;
        let rec = Recorder::enabled();
        let mut orch = Orchestrator::new(cfg.clone(), Policy::Fifo, rec).expect("valid config");
        let report = orch.run(&Scenario::single_wave(&cfg, None));
        assert_eq!(report.completed(), 0);
        assert!(!report.records.is_empty());
        // The VM never moved.
        assert_eq!(orch.cluster().vms[0].host, HostId(0));
        // The partial copy was kept as a stale replica at the target.
        assert!(orch.cluster().replicas().has(0, 1));
    }

    /// Flat-capacity dynamics with one link severed during a window —
    /// the smallest chaos a partition can be.
    struct WindowPartition {
        nic: f64,
        disk: f64,
        a: usize,
        b: usize,
        from: SimTime,
        until: SimTime,
        now: SimTime,
        down_host: Option<usize>,
        quiesced_vm: Option<usize>,
    }

    impl WindowPartition {
        fn new(cfg: &ClusterConfig, a: usize, b: usize, from: SimTime, until: SimTime) -> Self {
            Self {
                nic: cfg.nic_capacity,
                disk: cfg.disk_capacity,
                a,
                b,
                from,
                until,
                now: SimTime::ZERO,
                down_host: None,
                quiesced_vm: None,
            }
        }
    }

    impl FleetDynamics for WindowPartition {
        fn advance(
            &mut self,
            now: SimTime,
            cluster: &Cluster,
            _streams: &[(usize, usize)],
            _recorder: &Recorder,
        ) -> Vec<MigrationRequest> {
            self.now = now;
            // Every tick of every run under this dynamics: the directory
            // the executor maintains is the one a rebuild would give.
            crate::cluster::assert_directory_matches_table(cluster);
            Vec::new()
        }

        fn host_up(&self, host: usize) -> bool {
            self.down_host != Some(host)
        }

        fn connected(&self, a: usize, b: usize) -> bool {
            let cut = self.now >= self.from && self.now < self.until;
            !(cut && ((a == self.a && b == self.b) || (a == self.b && b == self.a)))
        }

        fn nic_capacity(&self, _host: usize) -> f64 {
            self.nic
        }

        fn disk_capacity(&self, _host: usize) -> f64 {
            self.disk
        }

        fn op_keep(&self, vm: usize, _now: SimTime) -> (u64, u64) {
            if self.quiesced_vm == Some(vm) {
                (0, 1)
            } else {
                (1, 1)
            }
        }
    }

    #[test]
    fn static_dynamics_matches_the_default_run_exactly() {
        let cfg = small_cfg(3, 3);
        let scenario = Scenario::two_wave(&cfg, SimDuration::from_secs(5));
        let mut a =
            Orchestrator::new(cfg.clone(), Policy::ImAware, Recorder::off()).expect("valid config");
        let mut b =
            Orchestrator::new(cfg.clone(), Policy::ImAware, Recorder::off()).expect("valid config");
        let ra = a.run(&scenario);
        let mut dynamics = StaticDynamics::from_config(&cfg);
        let rb = b.run_with_dynamics(&scenario, &mut dynamics);
        assert_eq!(ra.makespan_nanos, rb.makespan_nanos);
        assert_eq!(ra.total_bytes(), rb.total_bytes());
        assert_eq!(ra.completed(), rb.completed());
        assert_eq!(ra.records.len(), rb.records.len());
    }

    #[test]
    fn partition_strands_the_stream_and_heal_resumes_it() {
        let cfg = small_cfg(2, 1);
        // Cut the only link shortly after the stream starts; heal at 10 s.
        let mut dynamics = WindowPartition::new(
            &cfg,
            0,
            1,
            SimTime::ZERO + SimDuration::from_millis(250),
            SimTime::ZERO + SimDuration::from_secs(10),
        );
        let rec = Recorder::enabled();
        let mut orch =
            Orchestrator::new(cfg.clone(), Policy::Fifo, rec.clone()).expect("valid config");
        let report = orch.run_with_dynamics(&Scenario::single_wave(&cfg, None), &mut dynamics);
        assert_eq!(report.completed(), 1);
        assert!(report.all_consistent());
        assert_eq!(report.records[0].retries, 0, "a strand is not a retry");
        assert!(
            report.makespan_nanos >= SimDuration::from_secs(10).as_nanos(),
            "the stream waited out the partition"
        );
        let records = rec.records();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::MigrationStranded { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::MigrationReconnected { bitmap_bytes, .. } if bitmap_bytes > 0)));
    }

    #[test]
    fn stranded_stream_is_fed_by_a_reachable_replica_holder() {
        // Tour: h0 -> h1 leaves vm0's old image on h0; then h1 -> h2 is
        // cut off from its source mid-copy. h0 still reaches h2, so the
        // directory re-plan serves the owed blocks h0 holds fresh.
        let cfg = small_cfg(3, 1);
        let scenario = Scenario {
            requests: vec![
                MigrationRequest {
                    vm: VmId(0),
                    dest: Some(HostId(1)),
                    at: SimTime::ZERO,
                },
                MigrationRequest {
                    vm: VmId(0),
                    dest: Some(HostId(2)),
                    at: SimTime::ZERO + SimDuration::from_secs(20),
                },
            ],
        };
        let mut dynamics = WindowPartition::new(
            &cfg,
            1,
            2,
            SimTime::ZERO + SimDuration::from_millis(20_250),
            SimTime::ZERO + SimDuration::from_secs(60),
        );
        let rec = Recorder::enabled();
        let mut orch =
            Orchestrator::new(cfg.clone(), Policy::Fifo, rec.clone()).expect("valid config");
        let report = orch.run_with_dynamics(&scenario, &mut dynamics);
        assert_eq!(report.completed(), 2);
        assert!(report.all_consistent());
        let second = &report.records[1];
        assert!(
            second.blocks_peer > 0,
            "the stranded hop pulled {} peer blocks",
            second.blocks_peer
        );
        let records = rec.records();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::MigrationPeerFed { peer: 0, .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::MigrationReconnected { .. })));
    }

    /// The failover re-plan reads the cluster's maintained directory;
    /// the peer it picks and the owed blocks that peer can serve are the
    /// ones the per-stream rebuild from the replica table picked (values
    /// recorded from the commit before the directory was maintained).
    #[test]
    fn stranded_replan_picks_the_same_peer_and_servable_count() {
        let cfg = small_cfg(4, 1);
        let hop = |dest: usize, secs: u64| MigrationRequest {
            vm: VmId(0),
            dest: Some(HostId(dest)),
            at: SimTime::ZERO + SimDuration::from_secs(secs),
        };
        // h0 -> h1 -> h2 leaves images of two ages on h0 and h1; the
        // third hop, h2 -> h3, loses its source link mid-copy.
        let scenario = Scenario {
            requests: vec![hop(1, 0), hop(2, 20), hop(3, 40)],
        };
        let mut dynamics = WindowPartition::new(
            &cfg,
            2,
            3,
            SimTime::ZERO + SimDuration::from_millis(40_250),
            SimTime::ZERO + SimDuration::from_secs(80),
        );
        let rec = Recorder::enabled();
        let mut orch =
            Orchestrator::new(cfg.clone(), Policy::Fifo, rec.clone()).expect("valid config");
        let report = orch.run_with_dynamics(&scenario, &mut dynamics);
        assert_eq!(report.completed(), 3);
        assert!(report.all_consistent());
        let fed: Vec<(u64, u64)> = rec
            .records()
            .iter()
            .filter_map(|r| match r.event {
                Event::MigrationPeerFed { peer, servable, .. } => Some((peer, servable)),
                _ => None,
            })
            .collect();
        assert_eq!(fed, vec![(1, 4_854), (0, 1_654)]);
        assert_eq!(report.records[2].blocks_peer, 8_005);
    }

    #[test]
    fn down_hosts_and_thinned_vms_stop_writing() {
        let mut cfg = small_cfg(3, 3);
        cfg.workload_cycle = vec![WorkloadKind::Web];
        let mut dynamics = WindowPartition::new(&cfg, 0, 1, SimTime::ZERO, SimTime::ZERO);
        dynamics.down_host = Some(2);
        dynamics.quiesced_vm = Some(1);
        // Five quiet seconds before the move give vm0 time to write.
        let scenario = Scenario {
            requests: vec![MigrationRequest {
                vm: VmId(0),
                dest: Some(HostId(1)),
                at: SimTime::ZERO + SimDuration::from_secs(5),
            }],
        };
        let mut orch =
            Orchestrator::new(cfg.clone(), Policy::Fifo, Recorder::off()).expect("valid config");
        let report = orch.run_with_dynamics(&scenario, &mut dynamics);
        assert_eq!(report.completed(), 1);
        // vm2 sits on the down host: powered off, no guest writes past
        // the initial image fill. vm1 is up but fully op-thinned: same.
        let initial = cfg.disk_blocks as u64;
        for vm in [1usize, 2] {
            let disk = &orch.cluster().vms[vm].disk;
            assert_eq!(disk.write_count(), initial, "vm{vm} must not have written");
        }
        // vm0 ran flat out: the source image it left behind in the
        // replica table shows guest writes beyond the initial fill.
        let retired = orch
            .cluster()
            .replicas()
            .get(0, 0)
            .expect("vm0's old image was retired to h0");
        assert!(retired.disk.write_count() > initial);
    }

    #[test]
    fn admission_control_caps_concurrency() {
        let mut cfg = small_cfg(2, 6);
        cfg.max_streams_per_host = 1;
        cfg.workload_cycle = vec![WorkloadKind::Idle];
        let rec = Recorder::enabled();
        let mut orch = Orchestrator::new(cfg.clone(), Policy::Fifo, rec).expect("valid config");
        let report = orch.run(&Scenario::single_wave(&cfg, None));
        assert_eq!(report.completed(), 6);
        assert_eq!(report.max_concurrent, 1, "one stream per host pair");
    }
}
