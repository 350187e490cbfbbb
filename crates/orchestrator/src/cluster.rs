//! The fleet model: hosts, VM handles, the shared replica table and
//! the block directory kept over it.

use std::collections::BTreeSet;

use blockstore::BlockDirectory;
use des::SimRng;
use vdisk::{MetaDisk, Replica, ReplicaTable};
use workloads::{Workload, WorkloadKind};

use crate::config::{ClusterConfig, ConfigError};

/// A physical machine, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A virtual machine, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub usize);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// One physical machine: its NIC and disk capacities live in
/// [`ClusterConfig`] (a homogeneous fleet); the host tracks which VMs
/// currently run on it.
#[derive(Debug, Clone)]
pub struct Host {
    /// This host's id.
    pub id: HostId,
    /// VMs currently running here, ascending.
    pub resident: BTreeSet<VmId>,
}

/// One VM: its live disk image, its workload generator, and its private
/// RNG stream (forked from the master seed, so per-VM behaviour is
/// independent of scheduling order).
pub struct VmHandle {
    /// This VM's id.
    pub id: VmId,
    /// Host the VM currently runs on.
    pub host: HostId,
    /// Which workload the VM runs.
    pub kind: WorkloadKind,
    /// The live disk image (generation counters per block).
    pub disk: MetaDisk,
    /// The workload generator.
    pub workload: Box<dyn Workload>,
    /// Private RNG stream.
    pub rng: SimRng,
}

impl std::fmt::Debug for VmHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmHandle")
            .field("id", &self.id)
            .field("host", &self.host)
            .field("kind", &self.kind)
            .finish()
    }
}

/// The whole fleet: hosts, VMs, and the shared stale-replica table.
#[derive(Debug)]
pub struct Cluster {
    /// Physical machines, by index.
    pub hosts: Vec<Host>,
    /// Virtual machines, by index.
    pub vms: Vec<VmHandle>,
    /// §VII version maintenance, fleet-wide: the stale image each host
    /// kept when a VM departed (or a failed stream's partial copy).
    replicas: ReplicaTable,
    /// The table's generation vectors as every replica-aware decision
    /// reads them. Written only where the table is, by
    /// [`Cluster::keep_replica`] and [`Cluster::consume_replica`], so it
    /// holds exactly the table's `(vm, host)` pairs at all times.
    directory: BlockDirectory,
}

impl Cluster {
    /// Build the fleet: VM `i` starts on host `i % hosts`, runs
    /// `workload_cycle[i % len]`, and owns a fully-written disk image
    /// (every block at a real generation, so a primary migration must
    /// move the whole disk, as in §V).
    pub fn new(cfg: &ClusterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let hosts: Vec<Host> = (0..cfg.hosts)
            .map(|h| Host {
                id: HostId(h),
                resident: BTreeSet::new(),
            })
            .collect();
        let mut cluster = Self {
            hosts,
            vms: Vec::with_capacity(cfg.vms),
            replicas: ReplicaTable::new(),
            directory: BlockDirectory::new(),
        };
        let mut master = SimRng::new(cfg.seed);
        for i in 0..cfg.vms {
            let host = HostId(i % cfg.hosts);
            let kind = cfg.workload_cycle[i % cfg.workload_cycle.len()];
            let mut disk = MetaDisk::new(cfg.disk_blocks);
            for b in 0..cfg.disk_blocks {
                disk.write(b);
            }
            cluster.vms.push(VmHandle {
                id: VmId(i),
                host,
                kind,
                disk,
                workload: kind.build(cfg.disk_blocks as u64),
                rng: master.fork(i as u64),
            });
            cluster.hosts[host.0].resident.insert(VmId(i));
        }
        Ok(cluster)
    }

    /// The stale-replica table (read-only: it changes through
    /// `Cluster::keep_replica` and `Cluster::consume_replica`).
    pub fn replicas(&self) -> &ReplicaTable {
        &self.replicas
    }

    /// The block directory over the replica table: placement, failover
    /// re-plans and peer-servable accounting all read this one map.
    pub fn directory(&self) -> &BlockDirectory {
        &self.directory
    }

    /// `host` keeps `disk` as its replica of `vm` (the image a departing
    /// VM left behind, or a failed stream's partial copy): recorded in
    /// the table and published to the directory in one step.
    pub(crate) fn keep_replica(&mut self, vm: VmId, host: HostId, disk: MetaDisk) {
        self.directory.publish(vm.0 as u64, host.0 as u64, &disk);
        self.replicas.record(vm.0 as u64, host.0 as u64, disk);
    }

    /// An incoming migration of `vm` consumes `host`'s replica: taken
    /// from the table and retired from the directory in one step, so the
    /// very next decision no longer sees it offered.
    pub(crate) fn consume_replica(&mut self, vm: VmId, host: HostId) -> Option<Replica> {
        self.directory.retire(vm.0 as u64, host.0 as u64);
        self.replicas.take(vm.0 as u64, host.0 as u64)
    }

    /// Move a VM between hosts' resident sets and update its handle.
    pub(crate) fn relocate(&mut self, vm: VmId, to: HostId) {
        let from = self.vms[vm.0].host;
        self.hosts[from.0].resident.remove(&vm);
        self.hosts[to.0].resident.insert(vm);
        self.vms[vm.0].host = to;
    }
}

/// The test oracle for the maintained directory: every VM's replicas
/// folded into a fresh [`BlockDirectory`], from scratch.
#[cfg(test)]
fn directory_of(replicas: &ReplicaTable, vms: usize) -> BlockDirectory {
    let mut dir = BlockDirectory::new();
    for vm in 0..vms {
        dir.merge_replicas(vm as u64, replicas);
    }
    dir
}

/// Maintained ≡ rebuilt: the directory holds exactly the table's
/// `(vm, host)` pairs, and answers every freshness query as
/// [`directory_of`] the table does.
#[cfg(test)]
pub(crate) fn assert_directory_matches_table(cluster: &Cluster) {
    let rebuilt = directory_of(cluster.replicas(), cluster.vms.len());
    assert_eq!(cluster.directory().len(), cluster.replicas().len());
    for vm in &cluster.vms {
        let id = vm.id.0 as u64;
        assert_eq!(cluster.directory().holders(id), rebuilt.holders(id));
        for host in 0..cluster.hosts.len() as u64 {
            assert_eq!(
                cluster.directory().fresh_bitmap(id, host, &vm.disk),
                rebuilt.fresh_bitmap(id, host, &vm.disk),
                "{} on h{host}",
                vm.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_follows_the_table_through_every_write() {
        let mut cfg = ClusterConfig::new(4, 3);
        cfg.disk_blocks = 8_192;
        for seed in 0..4 {
            let mut c = Cluster::new(&cfg).expect("valid config");
            let mut rng = SimRng::new(seed);
            for _ in 0..40 {
                let vm = VmId(rng.below_usize(cfg.vms));
                let host = HostId(rng.below_usize(cfg.hosts));
                for _ in 0..rng.below(40) {
                    c.vms[vm.0].disk.write(rng.below_usize(cfg.disk_blocks));
                }
                if rng.chance(0.6) {
                    // Mostly the live image as it stands; now and then
                    // one of another geometry (a resized disk).
                    let disk = if rng.chance(0.1) {
                        MetaDisk::new(cfg.disk_blocks / 2)
                    } else {
                        c.vms[vm.0].disk.clone()
                    };
                    c.keep_replica(vm, host, disk);
                } else {
                    let had = c.replicas().has(vm.0 as u64, host.0 as u64);
                    assert_eq!(c.consume_replica(vm, host).is_some(), had);
                }
                assert_directory_matches_table(&c);
            }
        }
    }

    #[test]
    fn fleet_round_robins_vms_and_workloads() {
        let cfg = ClusterConfig::new(3, 7);
        let c = Cluster::new(&cfg).expect("valid config");
        assert_eq!(c.hosts.len(), 3);
        assert_eq!(c.vms.len(), 7);
        assert_eq!(c.vms[4].host, HostId(1));
        assert_eq!(c.hosts[0].resident.len(), 3);
        assert_eq!(c.hosts[1].resident.len(), 2);
        // Every block starts at a real generation.
        assert!((0..cfg.disk_blocks).all(|b| c.vms[0].disk.generation(b) > 0));
        assert!(c.replicas().is_empty() && c.directory().is_empty());
    }

    #[test]
    fn relocate_moves_residency() {
        let cfg = ClusterConfig::new(2, 2);
        let mut c = Cluster::new(&cfg).expect("valid config");
        c.relocate(VmId(0), HostId(1));
        assert_eq!(c.vms[0].host, HostId(1));
        assert!(!c.hosts[0].resident.contains(&VmId(0)));
        assert!(c.hosts[1].resident.contains(&VmId(0)));
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(Cluster::new(&ClusterConfig::new(1, 4)).is_err());
    }
}
