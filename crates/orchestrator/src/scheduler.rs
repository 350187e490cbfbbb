//! Pluggable migration scheduling policies under admission control.
//!
//! The scheduler sees the pending request queue and a read-only
//! [`ClusterView`] and picks the next migration to admit plus its
//! destination. Admission control is part of the view: a host can carry
//! at most `max_streams_per_host` concurrent streams (as source or
//! destination), the §VI-C observation that migration streams contend
//! for the same NIC and disk as the workloads, lifted to fleet scale.

use blockstore::BlockDirectory;
use des::SimTime;

use crate::cluster::{HostId, VmHandle, VmId};
use crate::config::CYCLE_PATIENCE;

/// One request: move `vm` (optionally to a pinned destination) at or
/// after virtual time `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// The VM to move.
    pub vm: VmId,
    /// Pinned destination, or `None` to let the policy place it.
    pub dest: Option<HostId>,
    /// Earliest virtual time the migration may start.
    pub at: SimTime,
}

/// A scheduling decision: start `pending[index]`, placing the VM on
/// `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index into the pending slice passed to [`Scheduler::next`].
    pub index: usize,
    /// Destination host.
    pub dest: HostId,
}

/// Read-only cluster state a policy decides against.
pub struct ClusterView<'a> {
    /// Number of hosts.
    pub hosts: usize,
    /// VM handles, by index.
    pub vms: &'a [VmHandle],
    /// The cluster block directory (the images hosts kept; staleness
    /// ranked against live images). It is the single map every
    /// replica-aware decision reads —
    /// IM-aware placement here, fetch planning and source-death failover
    /// in `blockstore` — so the scheduler ranks destinations by exactly
    /// the per-block freshness a multi-source fetch would see.
    pub directory: &'a BlockDirectory,
    /// Active migration streams touching each host (source or dest).
    pub streams: &'a [usize],
    /// Admission cap per host.
    pub max_streams_per_host: usize,
    /// Per-VM disk capacity in blocks.
    pub disk_blocks: usize,
    /// Per-VM flags: `true` while the VM is migrating (its requests
    /// must wait).
    pub busy: &'a [bool],
    /// Per-host liveness (from the fleet dynamics): a down host can
    /// neither source nor receive a migration.
    pub host_up: &'a [bool],
    /// Per-host cordon flags: a cordoned host refuses *new* inbound
    /// streams (it is being evacuated) but may still act as a source.
    pub cordoned: &'a [bool],
    /// Row-major `hosts × hosts` connectivity matrix: `link_ok[a *
    /// hosts + b]` is `false` when a partition separates `a` from `b`.
    pub link_ok: &'a [bool],
    /// Per-VM workload-phase flags: `true` while the VM is in a
    /// high-activity phase cycle-aware policies should wait out.
    pub high_activity: &'a [bool],
    /// The scheduling instant (for deferral ages).
    pub now: SimTime,
}

impl ClusterView<'_> {
    /// `true` when the VM already has an active stream.
    pub fn vm_busy(&self, vm: VmId) -> bool {
        self.busy.get(vm.0).copied().unwrap_or(false)
    }

    /// Host currently running `vm`.
    pub fn vm_host(&self, vm: VmId) -> HostId {
        self.vms[vm.0].host
    }

    /// Admission control: can a stream from `src` to `dst` start now?
    /// Both endpoints must be up, reachable from each other, and under
    /// their stream caps; the destination must not be cordoned.
    pub fn admissible(&self, src: HostId, dst: HostId) -> bool {
        src != dst
            && self.host_up[src.0]
            && self.host_up[dst.0]
            && !self.cordoned[dst.0]
            && self.link_ok[src.0 * self.hosts + dst.0]
            && self.streams[src.0] < self.max_streams_per_host
            && self.streams[dst.0] < self.max_streams_per_host
    }

    /// Cycle deferral: should this request wait for its VM's workload
    /// phase to quiet down? Bounded by [`CYCLE_PATIENCE`] so a VM that
    /// never idles still migrates.
    pub fn defer_for_cycle(&self, req: &MigrationRequest) -> bool {
        self.high_activity[req.vm.0] && self.now.saturating_since(req.at) < CYCLE_PATIENCE
    }

    /// Replica-blind placement: the next *serviceable* host in the ring
    /// (down and cordoned hosts are stepped over). On a fully-up fleet
    /// this is exactly the paper's §V baseline — a destination chosen
    /// with no knowledge of stale replicas, so every hop is a full copy.
    pub fn naive_dest(&self, vm: VmId) -> HostId {
        let here = self.vm_host(vm).0;
        for k in 1..self.hosts {
            let h = (here + k) % self.hosts;
            if self.host_up[h] && !self.cordoned[h] {
                return HostId(h);
            }
        }
        HostId((here + 1) % self.hosts)
    }

    /// Hosts (other than the current one) holding a usable stale replica
    /// of `vm`, with their stale-block counts, ascending by host. A
    /// holder's staleness is the directory's count of its blocks off the
    /// live generation; geometry-mismatched holders contribute nothing.
    pub fn replica_dests(&self, vm: VmId) -> Vec<(HostId, usize)> {
        let here = self.vm_host(vm);
        let live = &self.vms[vm.0].disk;
        self.directory
            .holders(vm.0 as u64)
            .into_iter()
            .filter_map(|site| {
                let host = HostId(site as usize);
                if host == here || host.0 >= self.hosts {
                    return None;
                }
                self.directory
                    .stale_count(vm.0 as u64, site, live)
                    .map(|stale| (host, stale))
            })
            .collect()
    }

    /// Blocks the first pre-copy pass must ship for `vm -> dst`: the
    /// replica diff when `dst` holds one, else the whole disk (§V's
    /// all-set bitmap).
    pub fn first_pass_blocks(&self, vm: VmId, dst: HostId) -> usize {
        let live = &self.vms[vm.0].disk;
        self.directory
            .stale_count(vm.0 as u64, dst.0 as u64, live)
            .unwrap_or(self.disk_blocks)
    }
}

/// A migration scheduling policy.
///
/// [`Scheduler::next`] is called repeatedly each step until it returns
/// `None`; every decision it returns is validated against admission
/// control by the executor, so a policy returning an inadmissible
/// decision stalls the scheduling round rather than oversubscribing a
/// host.
pub trait Scheduler {
    /// Identifier used in reports and the CLI.
    fn name(&self) -> &'static str;

    /// Pick the next request to admit, or `None` to wait.
    fn next(&mut self, pending: &[MigrationRequest], view: &ClusterView<'_>) -> Option<Decision>;
}

/// First-in-first-out with ring placement: requests start in arrival
/// order; an unpinned request goes to the next host in the ring,
/// replicas ignored. The fleet-scale analogue of always running a
/// primary (full-copy) migration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn next(&mut self, pending: &[MigrationRequest], view: &ClusterView<'_>) -> Option<Decision> {
        for (index, req) in pending.iter().enumerate() {
            if view.vm_busy(req.vm) {
                continue;
            }
            let dest = req.dest.unwrap_or_else(|| view.naive_dest(req.vm));
            if view.admissible(view.vm_host(req.vm), dest) {
                return Some(Decision { index, dest });
            }
        }
        None
    }
}

/// Shortest-remaining-dirty-first: among startable requests, admit the
/// one whose first pass ships the fewest blocks (against its would-be
/// destination). Short incremental hops jump the queue, draining the
/// request backlog fastest; placement itself stays ring-naive.
#[derive(Debug, Default, Clone, Copy)]
pub struct Srdf;

impl Scheduler for Srdf {
    fn name(&self) -> &'static str {
        "srdf"
    }

    fn next(&mut self, pending: &[MigrationRequest], view: &ClusterView<'_>) -> Option<Decision> {
        let mut best: Option<(usize, usize, HostId)> = None;
        for (index, req) in pending.iter().enumerate() {
            if view.vm_busy(req.vm) {
                continue;
            }
            let dest = req.dest.unwrap_or_else(|| view.naive_dest(req.vm));
            if !view.admissible(view.vm_host(req.vm), dest) {
                continue;
            }
            let blocks = view.first_pass_blocks(req.vm, dest);
            let better = match &best {
                None => true,
                Some((b, _, _)) => blocks < *b,
            };
            if better {
                best = Some((blocks, index, dest));
            }
        }
        best.map(|(_, index, dest)| Decision { index, dest })
    }
}

/// IM-aware placement: an unpinned request goes to the admissible host
/// holding the *least-stale* replica of the VM, so the hop ships only
/// the bitmap diff (§V incremental migration, fleet-wide). A VM whose
/// only replica hosts are saturated waits for one to free up rather
/// than burn a full copy elsewhere; a VM with no replica anywhere falls
/// back to ring placement.
#[derive(Debug, Default, Clone, Copy)]
pub struct ImAware;

impl Scheduler for ImAware {
    fn name(&self) -> &'static str {
        "im-aware"
    }

    fn next(&mut self, pending: &[MigrationRequest], view: &ClusterView<'_>) -> Option<Decision> {
        replica_first(pending, view, |_| false)
    }
}

/// The first request replica-first placement can start, skipping the
/// requests `defer` holds back: a pinned request goes where it is
/// pinned, an unpinned one to the admissible replica host of least
/// staleness, and one whose replica hosts are all saturated waits; a VM
/// with no replica anywhere falls back to ring placement.
fn replica_first(
    pending: &[MigrationRequest],
    view: &ClusterView<'_>,
    defer: impl Fn(&MigrationRequest) -> bool,
) -> Option<Decision> {
    for (index, req) in pending.iter().enumerate() {
        if view.vm_busy(req.vm) || defer(req) {
            continue;
        }
        let src = view.vm_host(req.vm);
        if let Some(dest) = req.dest {
            if view.admissible(src, dest) {
                return Some(Decision { index, dest });
            }
            continue;
        }
        let mut replicas = view.replica_dests(req.vm);
        replicas.sort_by_key(|(host, stale)| (*stale, host.0));
        if let Some(&(dest, _)) = replicas.iter().find(|(d, _)| view.admissible(src, *d)) {
            return Some(Decision { index, dest });
        }
        if !replicas.is_empty() {
            // Replica hosts exist but are saturated: wait for one.
            continue;
        }
        let dest = view.naive_dest(req.vm);
        if view.admissible(src, dest) {
            return Some(Decision { index, dest });
        }
    }
    None
}

/// Cycle-aware IM placement: exactly [`ImAware`]'s replica-first
/// placement, except a request whose VM is mid high-activity workload
/// phase is deferred — migrating a busy VM re-dirties blocks as fast as
/// they ship, so waiting for the quiet part of the cycle makes every
/// pass shorter. Deferral is bounded by [`CYCLE_PATIENCE`], so
/// a VM that never idles still migrates (no starvation).
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleAware;

impl Scheduler for CycleAware {
    fn name(&self) -> &'static str {
        "cycle-aware"
    }

    fn next(&mut self, pending: &[MigrationRequest], view: &ClusterView<'_>) -> Option<Decision> {
        replica_first(pending, view, |req| view.defer_for_cycle(req))
    }
}

/// The policy menu, as a factory enum (CLI/bench parse this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Policy {
    /// [`Fifo`].
    Fifo,
    /// [`Srdf`].
    Srdf,
    /// [`ImAware`].
    #[default]
    ImAware,
    /// [`CycleAware`].
    CycleAware,
}

impl Policy {
    /// All policies, for sweeps.
    pub const ALL: [Policy; 4] = [
        Policy::Fifo,
        Policy::Srdf,
        Policy::ImAware,
        Policy::CycleAware,
    ];

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "fifo" => Some(Policy::Fifo),
            "srdf" => Some(Policy::Srdf),
            "im-aware" | "im" => Some(Policy::ImAware),
            "cycle-aware" | "cycle" => Some(Policy::CycleAware),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Srdf => "srdf",
            Policy::ImAware => "im-aware",
            Policy::CycleAware => "cycle-aware",
        }
    }

    /// Instantiate the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            Policy::Fifo => Box::new(Fifo),
            Policy::Srdf => Box::new(Srdf),
            Policy::ImAware => Box::new(ImAware),
            Policy::CycleAware => Box::new(CycleAware),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::config::ClusterConfig;
    use des::SimDuration;

    /// Owned connectivity state a test view borrows from: everything
    /// up, connected, and quiet unless the test says otherwise.
    struct Net {
        host_up: Vec<bool>,
        cordoned: Vec<bool>,
        link_ok: Vec<bool>,
        high_activity: Vec<bool>,
    }

    impl Net {
        fn all_up(hosts: usize, vms: usize) -> Self {
            Self {
                host_up: vec![true; hosts],
                cordoned: vec![false; hosts],
                link_ok: vec![true; hosts * hosts],
                high_activity: vec![false; vms],
            }
        }

        fn sever(&mut self, hosts: usize, a: usize, b: usize) {
            self.link_ok[a * hosts + b] = false;
            self.link_ok[b * hosts + a] = false;
        }
    }

    fn view<'a>(
        cluster: &'a Cluster,
        cfg: &ClusterConfig,
        streams: &'a [usize],
        busy: &'a [bool],
        net: &'a Net,
    ) -> ClusterView<'a> {
        ClusterView {
            hosts: cfg.hosts,
            vms: &cluster.vms,
            directory: cluster.directory(),
            streams,
            max_streams_per_host: cfg.max_streams_per_host,
            disk_blocks: cfg.disk_blocks,
            busy,
            host_up: &net.host_up,
            cordoned: &net.cordoned,
            link_ok: &net.link_ok,
            high_activity: &net.high_activity,
            now: SimTime::ZERO,
        }
    }

    fn req(vm: usize) -> MigrationRequest {
        MigrationRequest {
            vm: VmId(vm),
            dest: None,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_admits_in_arrival_order_with_ring_placement() {
        let cfg = ClusterConfig::new(3, 3);
        let cluster = Cluster::new(&cfg).expect("valid");
        let streams = vec![0usize; 3];
        let busy = vec![false; cfg.vms];
        let net = Net::all_up(cfg.hosts, cfg.vms);
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        let d = Fifo.next(&[req(2), req(0)], &v).expect("admits");
        assert_eq!(d.index, 0);
        // vm2 lives on host 2; ring placement sends it to host 0.
        assert_eq!(d.dest, HostId(0));
    }

    #[test]
    fn busy_vms_and_saturated_hosts_are_skipped() {
        let cfg = ClusterConfig::new(3, 3);
        let cluster = Cluster::new(&cfg).expect("valid");
        let mut busy = vec![false; cfg.vms];
        busy[0] = true;
        // Host 1 (vm0's ring dest) saturated; vm1's dest host 2 is free.
        let streams = vec![0usize, cfg.max_streams_per_host, 0];
        let net = Net::all_up(cfg.hosts, cfg.vms);
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        // vm0 is busy; vm1 lives on host 1 (saturated as *source*?) — no:
        // source host 1 is saturated, so vm1 cannot start either.
        let d = Fifo.next(&[req(0), req(1), req(2)], &v);
        // vm2: host 2 -> host 0, both free.
        let d = d.expect("vm2 admissible");
        assert_eq!(d.index, 2);
        assert_eq!(d.dest, HostId(0));
    }

    #[test]
    fn srdf_prefers_the_smallest_first_pass() {
        let cfg = ClusterConfig::new(3, 3);
        let mut cluster = Cluster::new(&cfg).expect("valid");
        // Give vm1's ring destination (host 2) a nearly-fresh replica.
        let disk = cluster.vms[1].disk.clone();
        cluster.keep_replica(VmId(1), HostId(2), disk);
        cluster.vms[1].disk.write(7);
        let streams = vec![0usize; 3];
        let busy = vec![false; cfg.vms];
        let net = Net::all_up(cfg.hosts, cfg.vms);
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        let d = Srdf.next(&[req(0), req(1)], &v).expect("admits");
        assert_eq!(d.index, 1, "the 1-block incremental hop goes first");
        assert_eq!(d.dest, HostId(2));
    }

    #[test]
    fn im_aware_places_on_the_replica_host() {
        let cfg = ClusterConfig::new(4, 4);
        let mut cluster = Cluster::new(&cfg).expect("valid");
        // vm0 lives on host 0; host 2 holds a stale replica.
        let disk = cluster.vms[0].disk.clone();
        cluster.keep_replica(VmId(0), HostId(2), disk);
        cluster.vms[0].disk.write(1);
        let streams = vec![0usize; 4];
        let busy = vec![false; cfg.vms];
        let net = Net::all_up(cfg.hosts, cfg.vms);
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        let d = ImAware.next(&[req(0)], &v).expect("admits");
        assert_eq!(d.dest, HostId(2), "replica host beats ring placement");
        assert_eq!(v.first_pass_blocks(VmId(0), HostId(2)), 1);
        assert_eq!(v.first_pass_blocks(VmId(0), HostId(1)), cfg.disk_blocks);
    }

    #[test]
    fn im_aware_waits_for_a_saturated_replica_host() {
        let cfg = ClusterConfig::new(3, 3);
        let mut cluster = Cluster::new(&cfg).expect("valid");
        let disk = cluster.vms[0].disk.clone();
        cluster.keep_replica(VmId(0), HostId(2), disk);
        let mut streams = vec![0usize; 3];
        streams[2] = cfg.max_streams_per_host;
        let busy = vec![false; cfg.vms];
        let net = Net::all_up(cfg.hosts, cfg.vms);
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        assert!(
            ImAware.next(&[req(0)], &v).is_none(),
            "waits for the replica host instead of burning a full copy"
        );
        // Fifo would happily start the full copy to host 1.
        assert!(Fifo.next(&[req(0)], &v).is_some());
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in Policy::ALL {
            assert_eq!(Policy::parse(p.name()), Some(p));
            assert_eq!(p.build().name(), p.name());
        }
        assert_eq!(Policy::parse("im"), Some(Policy::ImAware));
        assert_eq!(Policy::parse("cycle"), Some(Policy::CycleAware));
        assert_eq!(Policy::parse("nope"), None);
    }

    #[test]
    fn partitions_down_hosts_and_cordons_gate_admission() {
        let cfg = ClusterConfig::new(3, 3);
        let cluster = Cluster::new(&cfg).expect("valid");
        let streams = vec![0usize; 3];
        let busy = vec![false; cfg.vms];

        // A severed link blocks exactly that pair.
        let mut net = Net::all_up(cfg.hosts, cfg.vms);
        net.sever(cfg.hosts, 0, 1);
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        assert!(!v.admissible(HostId(0), HostId(1)));
        assert!(v.admissible(HostId(0), HostId(2)));

        // A down host can neither send nor receive, and ring placement
        // steps over it.
        let mut net = Net::all_up(cfg.hosts, cfg.vms);
        net.host_up[1] = false;
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        assert!(!v.admissible(HostId(1), HostId(2)));
        assert!(!v.admissible(HostId(0), HostId(1)));
        assert_eq!(v.naive_dest(VmId(0)), HostId(2), "ring skips the down host");

        // A cordoned host refuses new inbound streams but still sources.
        let mut net = Net::all_up(cfg.hosts, cfg.vms);
        net.cordoned[1] = true;
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        assert!(!v.admissible(HostId(0), HostId(1)));
        assert!(
            v.admissible(HostId(1), HostId(2)),
            "evacuation outbound is fine"
        );
        assert_eq!(v.naive_dest(VmId(0)), HostId(2), "ring skips the cordon");
    }

    #[test]
    fn cycle_aware_defers_busy_vms_until_patience_runs_out() {
        let cfg = ClusterConfig::new(3, 3);
        let cluster = Cluster::new(&cfg).expect("valid");
        let streams = vec![0usize; 3];
        let busy = vec![false; cfg.vms];
        let mut net = Net::all_up(cfg.hosts, cfg.vms);
        net.high_activity[0] = true;

        // Mid high-activity phase: vm0's request waits, vm1 goes first.
        let v = view(&cluster, &cfg, &streams, &busy, &net);
        let d = CycleAware.next(&[req(0), req(1)], &v).expect("admits");
        assert_eq!(d.index, 1, "the busy VM's request is deferred");
        // ImAware, cycle-blind, would have taken vm0 first.
        let d = ImAware.next(&[req(0), req(1)], &v).expect("admits");
        assert_eq!(d.index, 0);

        // Once the request has aged past the patience bound it runs even
        // through the busy phase — no starvation.
        let mut v = view(&cluster, &cfg, &streams, &busy, &net);
        v.now = SimTime::ZERO + SimDuration::from_secs(601);
        let d = CycleAware.next(&[req(0), req(1)], &v).expect("admits");
        assert_eq!(d.index, 0, "patience exhausted: the request runs anyway");
    }
}
