//! The fleet executor: a virtual-time engine running many concurrent
//! migrations under shared per-host capacity.
//!
//! Each admitted migration is a [`Task`], a shell around
//! [`migrate::phase::PhaseMachine`]: the machine makes every §IV
//! decision (when a disk or memory pass stops, what the freeze sends,
//! what post-copy pushes and which guest write cancels a push), and the
//! phase module prices every frame and the freeze window and paces every
//! step. The shell keeps the fleet's own mechanics: shared capacity,
//! routes around partitions and seeded faults (DESIGN.md §13 lists what
//! still differs from the simulator).
//!
//! Every step the executor: admits pending requests through the
//! scheduling policy, shares each host's NIC max-min and its disk
//! seek-aware ([`simnet::capacity`]) among streams and guests (a pool
//! solves again only when its inputs change, [`crate::pools`]), ends the
//! step at `testbed::STEP` or sooner at the first instant a stream
//! reaches (a pass's last unit, a freeze window's end, post-copy's end)
//! or at which a request arrives, a stall ends or the dynamics change,
//! and advances every stream, then every guest. One VM on an idle fleet
//! steps as the simulator does. Iteration is index-ordered and the only
//! clock is virtual time, so a run is a pure function of its
//! configuration: same seed, same journal, byte for byte.

use std::sync::Arc;

use block_bitmap::{mask_last, ser, DirtyMap, FlatBitmap};
use des::{SimDuration, SimTime};
use migrate::phase::{
    batch_wire, frame_wire, freeze_window, pace_step, FreezeBill, PhaseMachine, StopRule, Voice,
    Worklist, PAGE_SIZE,
};
use migrate::testbed;
use simnet::fault::{Fault, FaultKind, FaultPlan, FaultTrigger};
use telemetry::{Event, Fold, Phase, Recorder};
use vdisk::MetaDisk;
use vmstate::CpuState;
use workloads::TimedOp;

use crate::cluster::{Cluster, HostId, VmId};
use crate::config::{ClusterConfig, ConfigError, Scenario, CYCLE_PATIENCE, HORIZON, RETRY_BACKOFF};
use crate::dynamics::{FleetDynamics, StaticDynamics};
use crate::pools::HostPools;
use crate::report::{ClusterReport, MigrationRecord};
use crate::scheduler::{ClusterView, MigrationRequest, Policy, Scheduler};

/// Message-count window for seeded per-migration fault schedules: a
/// reset armed by `fault_resets` fires after between `FAULT_LO` and
/// `FAULT_HI` pre-copy batches on its connection attempt.
const FAULT_LO: u64 = 2;
/// Upper bound (exclusive) of the seeded fault window.
const FAULT_HI: u64 = 16;

/// A block's bytes, as the pacer counts them.
const BLOCK_BYTES: f64 = testbed::BLOCK_SIZE as f64;

/// One in-flight migration stream.
struct Task {
    id: u64,
    request: usize,
    vm: VmId,
    src: HostId,
    dst: HostId,
    /// The migration's §IV decisions: passes, freeze, resume.
    machine: PhaseMachine,
    /// Blocks or pages still to ship this pass (bits clear as units go
    /// out, so a reconnect resumes exactly where the cut stream stopped,
    /// and a destination write can cancel a pending post-copy push).
    to_send: Worklist,
    carry: f64,
    dst_disk: MetaDisk,
    /// Source-side writes since the current pass's bitmap was snapshot.
    tracker: FlatBitmap,
    /// Pages the guest dirtied since the current memory pass began.
    mem_dirty: FlatBitmap,
    /// Page writes drawn so far, the basis for thinning them as the
    /// guest's disk ops are thinned in a low-activity phase.
    page_seq: u64,
    /// Destination-side guest writes after resume (consistency witness).
    post_writes: FlatBitmap,
    resume_at: SimTime,
    /// When post-copy ends: set once nothing is left to push.
    finish_at: Option<SimTime>,
    stall_until: SimTime,
    plan: FaultPlan,
    armed: Vec<Fault>,
    attempt: u32,
    msgs: u64,
    attempt_bytes: u64,
    incremental: bool,
    first_pass_blocks: u64,
    blocks_sent: u64,
    /// Units shipped since the current pre-copy pass began.
    pass_sent: u64,
    /// Blocks that crossed as 16-byte content references because the
    /// destination replica already held the identical generation.
    blocks_deduped: u64,
    /// Full blocks some other host also held at the live generation —
    /// the multi-source fan-in share (accounting only).
    blocks_peer: u64,
    bytes: u64,
    retries: u32,
    failed: bool,
    /// The migration's events folded: its record's phase instants,
    /// passes, retries and cancellations are read off it.
    fold: Fold,
    workload_name: &'static str,
    /// The stream's endpoints cannot currently talk (partition or down
    /// host): it stalls in place, bitmap holding position.
    stranded: bool,
    /// While stranded, the replica holder currently serving owed blocks
    /// to the destination (the PR-9 directory fan-in used as failover).
    peer_source: Option<usize>,
}

impl Task {
    fn done(&self, now: SimTime) -> bool {
        self.failed || self.finish_at.is_some_and(|f| f <= now)
    }

    /// How long this stream runs from `now` before it reaches an instant
    /// of its own: its pass's last unit crossing at `rate` (its own
    /// step, [`Task::pace`]), its freeze window's end or post-copy's end
    /// (`now` itself while that end is still to be set). `None` while
    /// nothing of its own bounds the step: failed, stalled, or off the
    /// direct route.
    fn own_step(&self, rate: f64, route: &Route, now: SimTime) -> Option<SimDuration> {
        match self.machine.phase() {
            _ if self.failed || now < self.stall_until => None,
            Phase::Freeze => Some(self.resume_at.since(now)),
            Phase::PostCopy if self.to_send.is_empty() => {
                Some(self.finish_at.map_or(SimDuration::ZERO, |f| f.since(now)))
            }
            _ if !matches!(route, Route::Direct) => None,
            Phase::MemPrecopy => Some(self.pace(rate, PAGE_SIZE as f64, self.remaining()).0),
            _ => Some(self.pace(rate, BLOCK_BYTES, self.remaining()).0),
        }
    }

    /// The stream's own step: what `pace_step` over `testbed::STEP` at
    /// `rate` gives on a copy of its carry — the step's length, the units
    /// that cross in it, the carry after.
    fn pace(&self, rate: f64, unit: f64, remaining: u64) -> (SimDuration, u64, f64) {
        let mut carry = self.carry;
        let (dt, n) = pace_step(testbed::STEP, rate, unit, remaining, &mut carry);
        (dt, n, carry)
    }

    /// Units this stream ships in a step of `dt`: its own step's when that
    /// is `dt`, as the simulator's step would, else `dt`'s worth with its
    /// carry.
    fn paced(&mut self, rate: f64, unit: f64, remaining: u64, dt: SimDuration) -> u64 {
        match self.pace(rate, unit, remaining) {
            (own, n, carry) if own == dt => {
                self.carry = carry;
                n
            }
            _ if dt > SimDuration::ZERO => pace_step(dt, rate, unit, remaining, &mut self.carry).1,
            _ => 0,
        }
    }

    /// Set post-copy's end once nothing is left to push: the last push
    /// arrives one `latency` after it crossed at `crossed` (no push, no
    /// wait), then the completion handshake, as the simulator's.
    fn finish_postcopy(&mut self, crossed: SimTime, latency: SimDuration) {
        let arrived = if self.pass_sent > 0 {
            crossed + latency
        } else {
            crossed
        };
        (self.finish_at).get_or_insert(arrived + testbed::POSTCOPY_FIXED_OVERHEAD);
    }

    /// Units still to ship this pass.
    fn remaining(&self) -> u64 {
        self.to_send.set().count_ones() as u64
    }

    /// Book one batch of `n` units that cost `wire` bytes.
    fn ship(&mut self, n: u64, wire: u64) {
        self.bytes += wire;
        self.attempt_bytes += wire;
        self.pass_sent += n;
        self.msgs += 1;
    }
}

/// How a stream's bytes flow this step, as decided by the fleet
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

impl Route {
    /// The hosts `t`'s bytes flow between along this route, serving side
    /// first; `None` while severed, which leaves every pool.
    fn serving(&self, t: &Task) -> Option<(usize, usize)> {
        match self {
            Route::Direct => Some((t.src.0, t.dst.0)),
            Route::PeerFed { peer, .. } => Some((*peer, t.dst.0)),
            Route::Severed => None,
        }
    }
}

/// Per-step connectivity snapshot, taken once from the dynamics and
/// shared by admission and guest advancement. One set of buffers serves
/// the whole run: every step overwrites them in place.
struct StepNet {
    host_up: Vec<bool>,
    cordoned: Vec<bool>,
    link_ok: Vec<bool>,
    high_activity: Vec<bool>,
}

impl StepNet {
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

/// What a step shares out, in buffers every step reuses: each host's
/// pools with their held solves ([`crate::pools`]), and the rates they
/// give each stream and guest.
struct StepRates {
    hosts: Vec<HostPools>,
    /// A stream's least allocation over its pools, `None` while it sits
    /// in none.
    least: Vec<Option<f64>>,
    /// Per VM: its migration is frozen, so it asks nothing of its disk.
    suspended: Vec<bool>,
    /// One pool's demands, refilled per pool.
    demands: Vec<f64>,
    /// Per stream: its rate this step.
    task: Vec<f64>,
    /// Per VM: its guest's achieved disk rate this step.
    vm: Vec<f64>,
}

impl StepRates {
    fn new(hosts: usize, vms: usize) -> Self {
        Self {
            hosts: (0..hosts).map(|_| HostPools::default()).collect(),
            least: Vec::new(),
            suspended: vec![false; vms],
            demands: Vec::new(),
            task: Vec::new(),
            vm: vec![0.0; vms],
        }
    }
}

/// Which of a run of consecutive ops (or page writes), numbered from
/// `seq` on, a low-activity phase keeps under `op_keep`'s `(keep, of)`:
/// the one numbered `n` when `n % of < keep`, with one division for the
/// whole run and none when everything is kept. (Sequence numbers wrap
/// at 2^64, which no run reaches.)
fn thinning(seq: u64, (keep, of): (u64, u64)) -> impl FnMut() -> bool {
    let of = of.max(1);
    let mut rem = if keep >= of { 0 } else { seq % of };
    move || {
        let kept = rem < keep;
        rem = if rem + 1 == of { 0 } else { rem + 1 };
        kept
    }
}

/// The cluster executor: owns the fleet, runs scenarios.
pub struct Orchestrator {
    cfg: ClusterConfig,
    cluster: Cluster,
    scheduler: Box<dyn Scheduler>,
    recorder: Arc<Recorder>,
    next_id: u64,
    /// Per-VM guest-write sequence numbers, the basis for deterministic
    /// thinning in low-activity workload phases.
    op_seq: Vec<u64>,
    /// One step of one guest's writes, cleared and refilled per VM per step.
    ops: Vec<TimedOp>,
    /// Each host's pools and the rates they give, refilled per step.
    rates: StepRates,
    /// What an admission round's decisions read, refilled per round.
    admission: Admission,
}

/// The view of the fleet an admission round moves forward with each
/// admission: the queued requests, the streams touching each host (any
/// phase — a frozen stream still occupies its admission slot) and which
/// VMs are migrating. Held by the [`Orchestrator`] and refilled, so a
/// round allocates nothing once the buffers have grown.
#[derive(Default)]
struct Admission {
    reqs: Vec<MigrationRequest>,
    streams: Vec<usize>,
    busy: Vec<bool>,
}

impl Admission {
    fn refill(
        &mut self,
        pending: &[(usize, MigrationRequest)],
        tasks: &[Task],
        hosts: usize,
        vms: usize,
    ) {
        self.reqs.clear();
        self.reqs.extend(pending.iter().map(|&(_, r)| r));
        self.streams.clear();
        self.streams.resize(hosts, 0);
        self.busy.clear();
        self.busy.resize(vms, false);
        for t in tasks {
            self.streams[t.src.0] += 1;
            self.streams[t.dst.0] += 1;
            self.busy[t.vm.0] = true;
        }
    }
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
        let rates = StepRates::new(cfg.hosts, cluster.vms.len());
        Ok(Self {
            cfg,
            cluster,
            scheduler: policy.build(),
            recorder,
            next_id: 0,
            op_seq,
            ops: Vec::new(),
            rates,
            admission: Admission::default(),
        })
    }

    /// The fleet state (kept images, VM placement) as it stands now —
    /// inspect after [`Orchestrator::run`] to see where VMs landed.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Run a scenario to completion (or to the configured horizon) and
    /// return the fleet report. The kept images persist across calls,
    /// so a second scenario on the same orchestrator sees the stale
    /// images the first one left behind.
    ///
    /// Runs over [`StaticDynamics`] — the flat, always-on fleet — and is
    /// byte-identical to the pre-dynamics executor.
    pub fn run(&mut self, scenario: &Scenario) -> ClusterReport {
        self.run_with_dynamics(scenario, &mut StaticDynamics)
    }

    /// Run a scenario under explicit fleet dynamics: partitions, host
    /// lifecycle, WAN links, heterogeneous capacities and workload
    /// cycles all flow through the [`FleetDynamics`] oracle, which is
    /// advanced once at the top of every step and may inject new
    /// migration requests (maintenance evacuations) into the arrival
    /// stream.
    pub fn run_with_dynamics(
        &mut self,
        scenario: &Scenario,
        dynamics: &mut dyn FleetDynamics,
    ) -> ClusterReport {
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
        let mut net = StepNet::new(self.cfg.hosts, self.cluster.vms.len());
        let mut routes: Vec<Route> = Vec::new();
        let mut steps = 0u64;
        let mut guest_ops = 0u64;

        loop {
            // A turn of this loop is a step; the last finds the run over.
            steps += 1;

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
            if now.as_nanos() > HORIZON.as_nanos() {
                // Safety valve: abandon whatever is still running.
                for t in &mut tasks {
                    t.failed = true;
                }
                for t in tasks.drain(..) {
                    records.push(self.finalize(t, now));
                }
                break;
            }

            // 3. Routing: per-stream path for this step — direct,
            // peer-fed across a partition, or severed (stalled).
            self.route_streams(&mut tasks, dynamics, now, &mut routes);

            // 4. Capacity: pool demands per host, share them, then cap
            // each stream by its path's WAN link.
            self.compute_rates(&tasks, &routes, now, dynamics);

            // 5. The step: `testbed::STEP`, or less when a stream reaches
            // an instant of its own sooner, or when something the next
            // step must see changes: a request arrives or outwaits its
            // cycle deferral, a stall or backoff ends, the dynamics move.
            let changes = (future.iter().map(|(_, r)| r.at))
                .chain(pending.iter().map(|(_, r)| r.at + CYCLE_PATIENCE))
                .chain(tasks.iter().map(|t| t.stall_until))
                .chain(dynamics.next_change(now))
                .filter(|&at| at > now)
                .map(|at| at.since(now));
            let dt = (tasks.iter().zip(&self.rates.task).zip(&routes))
                .filter_map(|((t, &rate), route)| t.own_step(rate, route, now))
                .chain(changes)
                .fold(testbed::STEP, SimDuration::min);
            let step_end = now + dt;

            // 6. Streams advance at their bottleneck rates.
            for (ti, t) in tasks.iter_mut().enumerate() {
                let (rate, route) = (self.rates.task[ti], &routes[ti]);
                self.advance_stream(t, rate, route, now, step_end, dt, dynamics);
            }

            // 7. Guests advance at their achieved disk rates, each in the
            // phase its migration ran the step in.
            guest_ops += self.advance_vms(&mut tasks, dt, now, &net, dynamics);

            // 8. A pass whose last unit crossed ends with its guest's dirt
            // of the step, as the simulator's does; a closed freeze window
            // resumes the guest.
            for (ti, t) in tasks.iter_mut().enumerate() {
                let (rate, route) = (self.rates.task[ti], &routes[ti]);
                self.end_step(t, rate, route, now, step_end, dynamics);
            }

            // 9. Reap finished streams, in stream order.
            let mut ti = 0;
            while ti < tasks.len() {
                if tasks[ti].done(step_end) {
                    makespan = makespan.max(step_end);
                    records.push(self.finalize(tasks.remove(ti), step_end));
                } else {
                    ti += 1;
                }
            }

            now = step_end;
        }

        let unserved = pending.len() + future.len();
        self.publish_metrics(&records, max_concurrent, unserved, steps, guest_ops);
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
        net: &StepNet,
    ) {
        if pending.is_empty() {
            return;
        }
        // What a decision reads, refilled once per round and moved
        // forward by each admission: the queue, the per-host stream
        // counts and the migrating VMs. The one thing `open_task` changes
        // behind the view is the directory (the admitted destination's
        // replica is consumed and must not be offered again), and the
        // cluster retires that entry itself.
        let mut round = std::mem::take(&mut self.admission);
        round.refill(pending, tasks, self.cfg.hosts, self.cluster.vms.len());
        while !pending.is_empty() {
            let view = ClusterView {
                hosts: self.cfg.hosts,
                vms: &self.cluster.vms,
                directory: self.cluster.directory(),
                streams: &round.streams,
                max_streams_per_host: self.cfg.max_streams_per_host,
                disk_blocks: self.cfg.disk_blocks,
                busy: &round.busy,
                host_up: &net.host_up,
                cordoned: &net.cordoned,
                link_ok: &net.link_ok,
                high_activity: &net.high_activity,
                now,
            };
            let Some(d) = self.scheduler.next(&round.reqs, &view) else {
                break;
            };
            if d.index >= pending.len() || d.dest.0 >= self.cfg.hosts {
                break;
            }
            let vm = round.reqs[d.index].vm;
            let src = self.cluster.vms[vm.0].host;
            if view.vm_busy(vm) || !view.admissible(src, d.dest) {
                // A misbehaving policy stalls the round instead of
                // oversubscribing a host.
                break;
            }
            let (request, _) = pending.remove(d.index);
            round.reqs.remove(d.index);
            round.streams[src.0] += 1;
            round.streams[d.dest.0] += 1;
            round.busy[vm.0] = true;
            let task = self.open_task(request, vm, src, d.dest, now);
            tasks.push(task);
        }
        self.admission = round;
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
        let replica = replica.filter(|r| r.num_blocks() == live_blocks);
        let (dst_disk, to_send, incremental) = match replica {
            Some(r) => {
                // The blocks the replica does not hold at the live
                // generation, a word at a time.
                let live = &self.cluster.vms[vm.0].disk;
                let words = (0..nblocks.div_ceil(64))
                    .map(|w| !live.agreement(w, r.generations()))
                    .collect();
                (r, FlatBitmap::from_words(nblocks, words), true)
            }
            None => (MetaDisk::new(nblocks), FlatBitmap::all_set(nblocks), false),
        };
        let first_pass_blocks = to_send.count_ones() as u64;
        let seed = self.cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = if self.cfg.fault_resets > 0 {
            FaultPlan::seeded_resets(seed, self.cfg.fault_resets, FAULT_LO, FAULT_HI)
        } else {
            FaultPlan::none()
        };
        let armed = plan.for_attempt(0);
        let mut fold = Fold::default();
        let admitted = Event::MigrationAdmitted {
            migration: id,
            vm: vm.0 as u64,
            src: src.0 as u64,
            dst: dst.0 as u64,
            incremental,
            first_pass_blocks,
        };
        fold.at_nanos(&self.recorder, now.as_nanos(), admitted);
        let machine = PhaseMachine::new(
            Voice::Fleet(id),
            StopRule::new(testbed::MAX_DISK_PASSES, self.cfg.dirty_threshold),
            StopRule::new(testbed::MAX_MEM_PASSES, testbed::MEM_DIRTY_THRESHOLD),
        );
        machine.start(|e| fold.at_nanos(&self.recorder, now.as_nanos(), e));
        let guest = &self.cluster.vms[vm.0].guest;
        Task {
            id,
            request,
            vm,
            src,
            dst,
            machine,
            to_send: Worklist::new(to_send),
            carry: 0.0,
            dst_disk,
            tracker: FlatBitmap::new(nblocks),
            mem_dirty: FlatBitmap::new(self.cfg.mem_pages),
            page_seq: 0,
            post_writes: FlatBitmap::new(nblocks),
            resume_at: SimTime::ZERO,
            finish_at: None,
            stall_until: SimTime::ZERO,
            plan,
            armed,
            attempt: 0,
            msgs: 0,
            attempt_bytes: 0,
            incremental,
            first_pass_blocks,
            blocks_sent: 0,
            pass_sent: 0,
            blocks_deduped: 0,
            blocks_peer: 0,
            bytes: 0,
            retries: 0,
            failed: false,
            fold,
            workload_name: guest.name(),
            stranded: false,
            peer_source: None,
        }
    }

    /// Decide how each stream's bytes flow this step. A stream whose
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
        routes: &mut Vec<Route>,
    ) {
        let t_nanos = now.as_nanos();
        routes.clear();
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
                    let enc = frame_wire(ser::encoded_len(t.to_send.set()) as u64);
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
            if t.machine.phase() == Phase::Freeze {
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
                && matches!(t.machine.phase(), Phase::DiskPrecopy | Phase::PostCopy)
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
                    t.to_send.set(),
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
    }

    /// Pool every demand on each host's disk and NIC, max-min share each
    /// pool, and fold allocations back: a stream's rate is the minimum
    /// over every pool it crosses (then capped by its path's WAN
    /// bandwidth and derated by its path's loss); a guest's achieved
    /// rate is its share of its host's disk.
    ///
    /// Pool membership by phase: disk pre-copy and post-copy streams
    /// read the serving side's disk, write the destination disk and
    /// cross both NICs, each asking the pipeline's `stream_demand`;
    /// memory passes cross both NICs only and ask for the whole NIC, as
    /// the simulator's run at the link's rate; a frozen stream's bytes
    /// are inside its freeze window, so it leaves the pools. A severed
    /// stream leaves every pool; a peer-fed stream's source-side pools
    /// are the *peer's*. A down host's pools vanish entirely.
    fn compute_rates(
        &mut self,
        tasks: &[Task],
        routes: &[Route],
        now: SimTime,
        dynamics: &dyn FleetDynamics,
    ) {
        let Self {
            cfg,
            cluster,
            rates,
            ..
        } = self;
        let StepRates {
            hosts,
            least,
            suspended,
            demands,
            task,
            vm,
        } = rates;
        for pools in hosts.iter_mut() {
            pools.clear();
        }
        least.clear();
        least.resize(tasks.len(), None);
        suspended.fill(false);
        // One pass sorts each stream into the pools of the hosts it
        // touches, in stream order.
        for (ti, (t, route)) in tasks.iter().zip(routes).enumerate() {
            let phase = t.machine.phase();
            if phase == Phase::Freeze {
                suspended[t.vm.0] = true;
            }
            // Post-copy with nothing left to push only waits out its end;
            // a pass emptied before a fault's stall still ends on its
            // share.
            let waiting = phase == Phase::PostCopy && t.to_send.is_empty();
            let active = !t.failed && now >= t.stall_until && !waiting;
            let Some((from, to)) = route.serving(t).filter(|_| active) else {
                continue;
            };
            let disk = matches!(phase, Phase::DiskPrecopy | Phase::PostCopy);
            let nic = disk || phase == Phase::MemPrecopy;
            for h in [Some(from), (to != from).then_some(to)]
                .into_iter()
                .flatten()
            {
                if disk {
                    hosts[h].disk.push(ti);
                }
                if nic {
                    hosts[h].nic.push(ti);
                }
            }
        }
        for (vi, handle) in cluster.vms.iter().enumerate() {
            if !suspended[vi] {
                hosts[handle.host.0].guests.push(vi);
            }
        }
        vm.fill(0.0);
        let mut bottleneck = |ti: usize, a: f64| {
            least[ti] = Some(least[ti].map_or(a, |r: f64| r.min(a)));
        };
        for (h, pools) in hosts.iter_mut().enumerate() {
            if !dynamics.host_up(h) {
                continue;
            }
            // The disk pool: resident guests first, then streams.
            demands.clear();
            demands.extend(
                pools
                    .guests
                    .iter()
                    .map(|&v| cluster.vms[v].guest.disk_demand() * dynamics.workload_scale(v, now)),
            );
            demands.extend(pools.disk.iter().map(|_| cfg.stream_demand));
            let guests = pools.guests.len();
            let alloc = pools
                .disk_share
                .disk(dynamics.disk_capacity(h), guests, demands);
            for (&v, &a) in pools.guests.iter().zip(alloc) {
                vm[v] = a;
            }
            for (&ti, &a) in pools.disk.iter().zip(&alloc[guests..]) {
                bottleneck(ti, a);
            }
            let capacity = dynamics.nic_capacity(h);
            demands.clear();
            demands.extend(pools.nic.iter().map(|&ti| match tasks[ti].machine.phase() {
                Phase::MemPrecopy => capacity,
                _ => cfg.stream_demand,
            }));
            for (&ti, &a) in pools.nic.iter().zip(pools.nic_share.nic(capacity, demands)) {
                bottleneck(ti, a);
            }
        }
        // WAN link ceiling and loss derate on the serving path. Both are
        // exact identities on a LAN (`min(x, ∞) = x`, `x · 1.0 = x`).
        task.clear();
        task.extend(
            (least.iter().zip(tasks).zip(routes)).map(|((&rate, t), route)| {
                match (rate, route.serving(t)) {
                    (Some(r), Some((from, to))) => {
                        r.min(dynamics.link_bandwidth(from, to)) * dynamics.link_quality(from, to)
                    }
                    (rate, _) => rate.unwrap_or(0.0),
                }
            }),
        );
    }

    /// Advance one stream by one step of `dt` at its bottleneck rate, along
    /// the route the dynamics allowed it this step. A severed stream stalls
    /// in place — no progress, no retry burn, the bitmap holds position
    /// until the partition heals. What the step ends (a pass, a freeze
    /// window) ends after the guests' step, in [`Orchestrator::end_step`].
    #[allow(clippy::too_many_arguments)]
    fn advance_stream(
        &mut self,
        t: &mut Task,
        rate: f64,
        route: &Route,
        now: SimTime,
        step_end: SimTime,
        dt: SimDuration,
        dynamics: &dyn FleetDynamics,
    ) {
        if t.failed || now < t.stall_until {
            return;
        }
        let latency = dynamics.link_latency(t.src.0, t.dst.0);
        if t.machine.phase() == Phase::PostCopy && t.to_send.is_empty() {
            // Nothing left to push (none owed at resume, or the guest's
            // writes cancelled the rest): post-copy ends from here.
            t.finish_postcopy(now, latency);
            return;
        }
        if matches!(route, Route::Severed) {
            return;
        }
        let peer_mask = match route {
            Route::PeerFed { mask, .. } => Some(mask),
            _ => None,
        };
        match t.machine.phase() {
            phase @ (Phase::DiskPrecopy | Phase::MemPrecopy) => {
                let last = if phase == Phase::DiskPrecopy {
                    self.pump_blocks(t, rate, dt, peer_mask)
                } else {
                    pump_pages(t, rate, dt)
                };
                if peer_mask.is_none() {
                    // The seeded fault plan models the source link;
                    // while peer-fed, that link is already cut.
                    self.check_faults(t, step_end, last);
                }
            }
            Phase::Freeze => {}
            Phase::PostCopy => {
                self.pump_blocks(t, rate, dt, peer_mask);
                if t.to_send.is_empty() {
                    t.finish_postcopy(step_end, latency);
                }
            }
        }
    }

    /// End what a stream's step ended, once the guests have run it: a
    /// pre-copy pass whose last unit crossed (on a stream neither
    /// stalled nor severed) ends with the dirt its guest made in the
    /// step, and a freeze window that closed resumes the guest. A
    /// frozen stream resumes even while severed, its handshake being
    /// already in flight.
    fn end_step(
        &mut self,
        t: &mut Task,
        rate: f64,
        route: &Route,
        now: SimTime,
        step_end: SimTime,
        dynamics: &dyn FleetDynamics,
    ) {
        if t.failed || now < t.stall_until {
            return;
        }
        match t.machine.phase() {
            Phase::DiskPrecopy | Phase::MemPrecopy
                if t.to_send.is_empty() && !matches!(route, Route::Severed) =>
            {
                let disk = t.machine.phase() == Phase::DiskPrecopy;
                let at = step_end.as_nanos();
                let sent = std::mem::take(&mut t.pass_sent);
                let pages = t.mem_dirty.len();
                let dirty = if disk {
                    let blocks = t.tracker.len();
                    std::mem::replace(&mut t.tracker, FlatBitmap::new(blocks))
                } else {
                    std::mem::replace(&mut t.mem_dirty, FlatBitmap::new(pages))
                };
                // The carry runs on across disk passes, as the
                // simulator's does, and starts afresh with each memory pass.
                let carry = std::mem::take(&mut t.carry);
                let emit = |e| t.fold.at_nanos(&self.recorder, at, e);
                // A pass that stops leaves its dirt in the machine: the
                // disk's joins the freeze bitmap, memory's is the tail.
                match t.machine.end_pass(sent, 0, dirty, emit) {
                    Some(next) => {
                        t.carry = if disk { carry } else { 0.0 };
                        t.to_send = Worklist::new(next);
                    }
                    None if disk => t.to_send = Worklist::new(FlatBitmap::all_set(pages)),
                    None => self.enter_freeze(t, rate, step_end, dynamics),
                }
            }
            Phase::Freeze if step_end >= t.resume_at => {
                let at = t.resume_at.as_nanos();
                t.machine.resume(|e| t.fold.at_nanos(&self.recorder, at, e));
                // The VM resumes on the destination: its workload
                // demand moves to the destination's disk pool.
                self.cluster.vms[t.vm.0].host = t.dst;
            }
            _ => {}
        }
    }

    /// Ship the step's paced blocks off the worklist (`Task::paced`) as
    /// one booked batch. With
    /// `cfg.dedup` a block the destination replica holds at the live
    /// generation crosses as a reference; pacing stays uniform, so
    /// dedup-off runs are byte- and clock-identical. With
    /// `cfg.multisource` a full block another host also holds at the
    /// live generation counts as peer-servable, accounting only. With
    /// `peer_mask` the stream is peer-fed across a partition: only owed
    /// blocks the serving replica holds qualify, and each counts as
    /// peer-served. Returns the last block shipped.
    fn pump_blocks(
        &self,
        t: &mut Task,
        rate: f64,
        dt: SimDuration,
        peer_mask: Option<&FlatBitmap>,
    ) -> Option<usize> {
        // While peer-fed only the mask's intersection with the worklist
        // is shippable; the rest waits for the source link.
        let mut candidates = peer_mask.map(|m| {
            let mut c = t.to_send.set().clone();
            c.intersect_with(m);
            c
        });
        let remaining = candidates.as_ref().unwrap_or(t.to_send.set()).count_ones() as u64;
        let n = t.paced(rate, BLOCK_BYTES, remaining, dt);
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
        let dst_disk = &mut t.dst_disk;
        let taken = t.to_send.take(n as usize, candidates.as_mut(), |w, mask| {
            // Blocks the destination already holds at the live
            // generation: nothing to copy, only the reference crosses.
            let resident = match self.cfg.dedup {
                true => mask & src_disk.agreement(w, dst_disk.generations()),
                false => 0,
            };
            let full = mask & !resident;
            dst_disk.copy_masked_from(src_disk, w, full);
            refs += u64::from(resident.count_ones());
            // A peer-fed block counts unconditionally (the server IS a
            // peer); otherwise a full block counts when some bystander
            // replica also holds it at the live generation.
            let servable = match peer_mask {
                Some(_) => full,
                None => {
                    let fresh =
                        (bystanders.iter()).fold(0, |acc, held| acc | src_disk.agreement(w, held));
                    full & fresh
                }
            };
            peer += u64::from(servable.count_ones());
            last = Some(mask_last(w, mask));
        });
        t.blocks_sent += taken as u64;
        t.ship(n, batch_wire(n - refs, testbed::BLOCK_SIZE, refs));
        t.blocks_deduped += refs;
        t.blocks_peer += peer;
        last
    }

    /// Fire the first armed fault whose trigger has been crossed.
    /// Faults only arm during pre-copy (disk and memory): that is where
    /// the bitmap-resume story lives; freeze and post-copy are protected
    /// by the same retry machinery in the two-host engine and would only
    /// duplicate it here.
    fn check_faults(&self, t: &mut Task, step_end: SimTime, last: Option<usize>) {
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
        self.recorder
            .record_at_nanos(step_end.as_nanos(), || Event::FaultInjected {
                fault: fault.kind.label(),
                messages_before: t.msgs,
            });
        // A truncated or dropped frame was silently lost: its block rides
        // the next pass. A truncate severs the connection behind it, as a
        // reset does; a lossy link that dropped a frame stays up.
        if let (FaultKind::Truncate | FaultKind::Drop, Some(b)) = (&fault.kind, last) {
            t.to_send.requeue(b);
        }
        match fault.kind {
            FaultKind::Stall(d) => {
                t.stall_until = step_end + SimDuration::from_nanos(d.as_nanos() as u64);
            }
            FaultKind::Truncate | FaultKind::Reset => self.reset_stream(t, step_end),
            FaultKind::Drop => {}
        }
    }

    /// The stream lost its connection: burn a retry, back off, and
    /// reconnect by re-shipping the current worklist bitmap — never the
    /// blocks already applied, which is the whole point of bitmap-based
    /// resume.
    fn reset_stream(&self, t: &mut Task, step_end: SimTime) {
        t.retries += 1;
        let retry = Event::MigrationRetry {
            migration: t.id,
            attempt: u64::from(t.retries),
        };
        t.fold.at_nanos(&self.recorder, step_end.as_nanos(), retry);
        if t.retries > self.cfg.max_retries {
            t.failed = true;
            return;
        }
        t.attempt += 1;
        t.armed = t.plan.for_attempt(t.attempt);
        t.msgs = 0;
        t.attempt_bytes = 0;
        t.carry = 0.0;
        t.stall_until = step_end + RETRY_BACKOFF;
        t.bytes += frame_wire(ser::encoded_len(t.to_send.set()) as u64);
    }

    /// Suspend the guest: the machine seals the frozen bitmap and the
    /// memory tail, the freeze window is priced from what it sends (tail
    /// pages, CPU context, encoded bitmap) at the rate the stream held
    /// going in and the path's latency, and the exact resume instant is
    /// scheduled.
    fn enter_freeze(
        &mut self,
        t: &mut Task,
        rate: f64,
        step_end: SimTime,
        dynamics: &dyn FleetDynamics,
    ) {
        let at = step_end.as_nanos();
        let blocks = t.tracker.len();
        let raced = std::mem::replace(&mut t.tracker, FlatBitmap::new(blocks));
        let emit = |e| t.fold.at_nanos(&self.recorder, at, e);
        let (frozen, tail) = t.machine.suspend(&raced, None, emit);
        let bill = FreezeBill {
            pages: tail.count_ones() as u64,
            cpu: CpuState::new(testbed::VCPUS).size_bytes() as u64,
            bitmap: ser::encoded_len(&frozen) as u64,
        };
        let latency = dynamics.link_latency(t.src.0, t.dst.0);
        t.bytes += bill.bytes();
        t.resume_at = step_end + freeze_window(bill.bytes(), rate.max(1.0), latency);
        t.to_send = Worklist::new(frozen);
    }

    /// Advance every guest one step at its achieved disk rate, routing
    /// writes by migration phase: pre-copy writes land on the source
    /// image and the dirty tracker; post-copy writes land on the
    /// destination image and cancel any pending push of the same block
    /// (§III-A); a frozen guest does nothing. A guest on a down host is
    /// powered off with it — no ops at all, which matters for open-loop
    /// workloads that would otherwise keep writing at rate zero. Writes
    /// and memory pre-copy's page writes are thinned by the dynamics'
    /// `op_keep` ratio in low-activity phases (the `(1, 1)` default keeps
    /// everything, exactly). Returns how many writes the guests drew.
    fn advance_vms(
        &mut self,
        tasks: &mut [Task],
        dt: SimDuration,
        now: SimTime,
        net: &StepNet,
        dynamics: &dyn FleetDynamics,
    ) -> u64 {
        let nblocks = self.cfg.disk_blocks;
        let Self {
            cluster,
            recorder,
            op_seq,
            ops,
            rates,
            ..
        } = self;
        let mut drawn = 0u64;
        for ((vi, vm), &rate) in cluster.vms.iter_mut().enumerate().zip(&rates.vm) {
            if !net.host_up[vm.host.0] {
                continue;
            }
            let keep = dynamics.op_keep(vi, now);
            // The VM's migration, its phase resolved once for the step.
            let mut task = tasks.iter_mut().find(|t| t.vm.0 == vi && !t.failed);
            if let Some(t) = task.as_deref_mut() {
                match t.machine.phase() {
                    Phase::Freeze => continue,
                    Phase::MemPrecopy => {
                        let mut kept = thinning(t.page_seq, keep);
                        let dirty = &mut t.mem_dirty;
                        let touched = vm.guest.dirty_pages(dt, |p| {
                            if kept() {
                                dirty.set(p);
                            }
                        });
                        t.page_seq = t.page_seq.wrapping_add(touched);
                    }
                    _ => {}
                }
            }
            // The fleet's post-copy pulls nothing, so no phase acts on a
            // guest read: the guest draws its writes alone.
            ops.clear();
            vm.guest.writes_into(dt, rate, ops);
            drawn += ops.len() as u64;
            let mut kept = thinning(op_seq[vi], keep);
            op_seq[vi] = op_seq[vi].wrapping_add(ops.len() as u64);
            let writes = (ops.iter())
                .filter(|_| kept())
                .map(|op| op.kind.block() as usize)
                .filter(|&b| b < nblocks);
            match task {
                Some(t) if t.machine.phase() == Phase::PostCopy => {
                    for b in writes {
                        t.dst_disk.write(b);
                        t.post_writes.set(b);
                        if t.to_send.cancel(b) {
                            let cancel = Event::MigrationSyncCancelled {
                                migration: t.id,
                                block: b as u64,
                            };
                            t.fold.at_nanos(recorder, now.as_nanos(), cancel);
                        }
                    }
                }
                Some(t) => {
                    for b in writes {
                        vm.disk.write(b);
                        t.tracker.set(b);
                    }
                }
                None => {
                    for b in writes {
                        vm.disk.write(b);
                    }
                }
            }
        }
        drawn
    }

    /// Close out a finished stream: verify consistency, install the new
    /// image, keep the old one on the source host (that is what a
    /// later IM-aware hop comes back for), and journal the outcome.
    fn finalize(&mut self, mut t: Task, at: SimTime) -> MigrationRecord {
        let t_nanos = at.as_nanos();
        let vm = t.vm.0;
        let consistent;
        // Close whatever phase was open (post-copy, when it finished) so
        // the spans balance.
        let close = Event::MigrationPhaseEnd {
            migration: t.id,
            phase: t.machine.phase(),
        };
        t.fold.at_nanos(&self.recorder, t_nanos, close);
        if t.failed {
            if t.machine.phase() == Phase::PostCopy {
                // Aborted after resume (horizon): the VM falls back to
                // its source image.
                self.cluster.vms[t.vm.0].host = t.src;
            }
            // The partial image is still a (stale) replica the next
            // attempt can diff against.
            self.keep_replica(t.vm, t.dst, t.dst_disk);
            consistent = false;
        } else {
            // Every block that differs from the frozen source image must
            // be explained by a destination guest write.
            consistent = t
                .dst_disk
                .diff_blocks(&self.cluster.vms[vm].disk)
                .iter()
                .all(|&b| t.post_writes.get(b));
            let old = std::mem::replace(&mut self.cluster.vms[vm].disk, t.dst_disk);
            self.keep_replica(t.vm, t.src, old);
        }
        let completed = !t.failed;
        let done = Event::MigrationCompleted {
            migration: t.id,
            bytes: t.bytes,
            completed,
        };
        t.fold.at_nanos(&self.recorder, t_nanos, done);
        let account = t.fold.migration(t.id).cloned().unwrap_or_default();
        MigrationRecord {
            migration: t.id,
            request: t.request,
            vm,
            src: t.src.0,
            dst: t.dst.0,
            workload: t.workload_name,
            incremental: t.incremental,
            first_pass_blocks: t.first_pass_blocks,
            passes: account.passes,
            blocks_sent: t.blocks_sent,
            blocks_cancelled: account.cancelled,
            blocks_deduped: t.blocks_deduped,
            blocks_peer: t.blocks_peer,
            bytes: t.bytes,
            retries: account.retries,
            completed,
            consistent,
            start_nanos: account.start_nanos,
            freeze_nanos: account.freeze_nanos(),
            resume_nanos: account.resume_nanos(),
            finish_nanos: account.finish_nanos,
            downtime_nanos: account.downtime_nanos(),
        }
    }

    /// Write point 1 of the block directory: a host keeps an image.
    fn keep_replica(&mut self, vm: VmId, host: HostId, disk: MetaDisk) {
        self.cluster.keep_replica(vm, host, disk);
        let publishes = "orchestrator.directory.publishes";
        self.recorder.metrics().counter(publishes).inc();
    }

    /// Publish `cluster.*` metrics into the recorder's registry, with the
    /// run's step count and the guest writes it drew.
    fn publish_metrics(
        &self,
        records: &[MigrationRecord],
        max_concurrent: usize,
        unserved: usize,
        steps: u64,
        guest_ops: u64,
    ) {
        let m = self.recorder.metrics();
        m.counter("cluster.steps").add(steps);
        m.counter("cluster.guest_ops").add(guest_ops);
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

/// Ship the step's paced pages off a memory pass's worklist as one
/// booked batch. Returns the last page shipped.
fn pump_pages(t: &mut Task, rate: f64, dt: SimDuration) -> Option<usize> {
    let n = t.paced(rate, PAGE_SIZE as f64, t.remaining(), dt);
    let mut last = None;
    t.to_send.take(n as usize, None, |w, mask| {
        last = Some(mask_last(w, mask));
    });
    last?;
    t.ship(n, batch_wire(n, PAGE_SIZE, 0));
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NIC_CAPACITY;
    use simnet::proto::BLOCK_REF_WIRE;
    use workloads::WorkloadKind;

    fn small_cfg(hosts: usize, vms: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(hosts, vms);
        cfg.disk_blocks = 8_192;
        cfg.mem_pages = 256;
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
        assert_eq!(orch.cluster().directory().len(), 3);
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
        let bs = testbed::BLOCK_SIZE;
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
        assert!(orch.cluster().directory().image(0, 1).is_some());
    }

    /// Flat-capacity dynamics with one link severed during a window —
    /// the smallest chaos a partition can be.
    struct WindowPartition {
        a: usize,
        b: usize,
        from: SimTime,
        until: SimTime,
        now: SimTime,
        down_host: Option<usize>,
        quiesced_vm: Option<usize>,
    }

    impl WindowPartition {
        fn new(a: usize, b: usize, from: SimTime, until: SimTime) -> Self {
            Self {
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
            _cluster: &Cluster,
            _streams: &[(usize, usize)],
            _recorder: &Recorder,
        ) -> Vec<MigrationRequest> {
            self.now = now;
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
            NIC_CAPACITY
        }

        fn disk_capacity(&self, _host: usize) -> f64 {
            testbed::DISK_CAPACITY
        }

        fn op_keep(&self, vm: usize, _now: SimTime) -> (u64, u64) {
            if self.quiesced_vm == Some(vm) {
                (0, 1)
            } else {
                (1, 1)
            }
        }

        fn next_change(&self, now: SimTime) -> Option<SimTime> {
            [self.from, self.until].into_iter().find(|&at| at > now)
        }
    }

    /// A flat fleet whose guests all drop to a quarter of their disk
    /// demand, and a quarter of their ops, from 0.5 s to 1 s.
    struct CycleFlip;

    impl CycleFlip {
        const LOW: [SimTime; 2] = [
            SimTime::from_nanos(500_000_000),
            SimTime::from_nanos(1_000_000_000),
        ];

        fn low(now: SimTime) -> bool {
            now >= Self::LOW[0] && now < Self::LOW[1]
        }
    }

    impl FleetDynamics for CycleFlip {
        fn nic_capacity(&self, _host: usize) -> f64 {
            NIC_CAPACITY
        }

        fn disk_capacity(&self, _host: usize) -> f64 {
            testbed::DISK_CAPACITY
        }

        fn workload_scale(&self, _vm: usize, now: SimTime) -> f64 {
            if Self::low(now) {
                0.25
            } else {
                1.0
            }
        }

        fn op_keep(&self, _vm: usize, now: SimTime) -> (u64, u64) {
            if Self::low(now) {
                (1, 4)
            } else {
                (1, 1)
            }
        }

        fn next_change(&self, now: SimTime) -> Option<SimTime> {
            Self::LOW.into_iter().find(|&at| at > now)
        }
    }

    /// Every pool's held allocation is checked against a fresh solve
    /// each step it is reused (`HeldShare::share` does so in test
    /// builds). On two hosts whose guests' cycle flips while one stream
    /// runs, a second joins and both leave, every pool both solves and
    /// reuses.
    #[test]
    fn held_pool_shares_equal_a_fresh_solve_every_step() {
        let mut cfg = small_cfg(2, 2);
        cfg.workload_cycle = vec![WorkloadKind::Web];
        let request = |vm: usize, dest: usize, at_ms: u64| MigrationRequest {
            vm: VmId(vm),
            dest: Some(HostId(dest)),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        };
        let scenario = Scenario {
            requests: vec![request(0, 1, 0), request(1, 0, 300)],
        };
        let mut orch = Orchestrator::new(cfg, Policy::Fifo, Recorder::off()).expect("valid config");
        let report = orch.run_with_dynamics(&scenario, &mut CycleFlip);
        assert_eq!(report.completed(), 2);
        assert!(report.all_consistent());
        assert_eq!(
            report.max_concurrent, 2,
            "the second stream joins the first"
        );
        for (h, pools) in orch.rates.hosts.iter().enumerate() {
            for (pool, held) in [("disk", &pools.disk_share), ("nic", &pools.nic_share)] {
                assert!(
                    held.solves > 1 && held.reuses > 0,
                    "h{h} {pool}: {} solves, {} reuses",
                    held.solves,
                    held.reuses
                );
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
        let rb = b.run_with_dynamics(&scenario, &mut StaticDynamics);
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
    /// ones the per-stream rebuild from the old replica table picked
    /// (values recorded from the commit before the directory was
    /// maintained; the counts re-recorded, the peers unchanged, once the
    /// hops arrived and the partition began at their exact instants, and
    /// again once the guest drew its writes on a stream of their own).
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
        assert_eq!(fed, vec![(1, 4_830), (0, 1_630)]);
        assert_eq!(report.records[2].blocks_peer, 7_979);
    }

    #[test]
    fn down_hosts_and_thinned_vms_stop_writing() {
        let mut cfg = small_cfg(3, 3);
        cfg.workload_cycle = vec![WorkloadKind::Web];
        let mut dynamics = WindowPartition::new(0, 1, SimTime::ZERO, SimTime::ZERO);
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
        // vm0 ran flat out: the source image it left behind on h0
        // shows guest writes beyond the initial fill.
        let retired = orch
            .cluster()
            .directory()
            .image(0, 0)
            .expect("vm0's old image was retired to h0");
        assert!(retired.write_count() > initial);
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

    /// A reset that fires on the last batch of a memory pass that stops
    /// leaves the stream an empty worklist until its backoff ends. The
    /// pass then ends on the stream's NIC share, so the freeze is priced
    /// at that share and the downtime stays in milliseconds.
    #[test]
    fn a_reset_on_the_last_memory_batch_freezes_at_the_nic_share() {
        let mut cfg = small_cfg(2, 1);
        cfg.disk_blocks = 64;
        cfg.mem_pages = 512;
        cfg.workload_cycle = vec![WorkloadKind::Idle];
        cfg.fault_resets = 1;
        // One batch of disk, then one of memory: the first migration's
        // reset must fire on its second message (its seed is `cfg.seed`).
        let second = |seed| {
            let plan = FaultPlan::seeded_resets(seed, 1, FAULT_LO, FAULT_HI);
            plan.for_attempt(0)[0].trigger == FaultTrigger::Messages(2)
        };
        cfg.seed = (0..).find(|&seed| second(seed)).unwrap();
        let rec = Recorder::enabled();
        let mut orch = Orchestrator::new(cfg.clone(), Policy::Fifo, rec.clone()).unwrap();
        let report = orch.run(&Scenario::single_wave(&cfg, None));
        assert_eq!(report.completed(), 1);
        assert_eq!(report.records[0].retries, 1);
        let at = |hit: &dyn Fn(&Event) -> bool| {
            let records = rec.records();
            records.iter().find(|r| hit(&r.event)).map(|r| r.t_nanos)
        };
        let fault = at(&|e| matches!(e, Event::FaultInjected { .. })).unwrap();
        let mem_end = at(&|e| {
            matches!(
                e,
                Event::MigrationPhaseEnd {
                    phase: Phase::MemPrecopy,
                    ..
                }
            )
        });
        assert_eq!(
            mem_end,
            Some(fault + RETRY_BACKOFF.as_nanos()),
            "the pass ends after the backoff"
        );
        let downtime = report.records[0].downtime_ms();
        assert!(downtime < 100.0, "downtime {downtime} ms");
    }
}
