//! The fleet model: hosts, VM handles, and the block directory that
//! holds the images hosts kept.

use blockstore::BlockDirectory;
use des::SimRng;
use vdisk::MetaDisk;
use workloads::{Guest, WorkloadKind};

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
/// [`ClusterConfig`] (a homogeneous fleet); which VMs run on it is each
/// [`VmHandle::host`], read through [`Cluster::residents`].
#[derive(Debug, Clone)]
pub struct Host {
    /// This host's id.
    pub id: HostId,
}

/// One VM: its live disk image and its guest, whose streams fork from
/// the master seed (so per-VM behaviour is independent of scheduling
/// order).
pub struct VmHandle {
    /// This VM's id.
    pub id: VmId,
    /// Host the VM currently runs on.
    pub host: HostId,
    /// Which workload the VM runs.
    pub kind: WorkloadKind,
    /// The live disk image (generation counters per block).
    pub disk: MetaDisk,
    /// The guest: its workload and the streams it draws on.
    pub guest: Guest,
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

/// The whole fleet: hosts, VMs, and the images hosts kept.
#[derive(Debug)]
pub struct Cluster {
    /// Physical machines, by index.
    pub hosts: Vec<Host>,
    /// Virtual machines, by index.
    pub vms: Vec<VmHandle>,
    /// §VII version maintenance, fleet-wide: the stale image each host
    /// kept when a VM departed (or a failed stream's partial copy).
    /// Written only by [`Cluster::keep_replica`] and
    /// [`Cluster::consume_replica`].
    directory: BlockDirectory,
}

impl Cluster {
    /// Build the fleet: VM `i` starts on host `i % hosts`, runs
    /// `workload_cycle[i % len]`, and owns a fully-written disk image
    /// (every block at a real generation, so a primary migration must
    /// move the whole disk, as in §V).
    pub fn new(cfg: &ClusterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut cluster = Self {
            hosts: (0..cfg.hosts).map(|h| Host { id: HostId(h) }).collect(),
            vms: Vec::with_capacity(cfg.vms),
            directory: BlockDirectory::new(),
        };
        let mut master = SimRng::new(cfg.seed);
        for i in 0..cfg.vms {
            let host = HostId(i % cfg.hosts);
            let kind = cfg.workload_cycle[i % cfg.workload_cycle.len()];
            let disk = MetaDisk::installed(cfg.disk_blocks);
            cluster.vms.push(VmHandle {
                id: VmId(i),
                host,
                kind,
                disk,
                guest: Guest::new(
                    kind,
                    cfg.disk_blocks as u64,
                    cfg.mem_pages,
                    master.fork(i as u64),
                ),
            });
        }
        Ok(cluster)
    }

    /// The images hosts kept (read-only: it changes through
    /// `Cluster::keep_replica` and `Cluster::consume_replica`). Placement,
    /// failover re-plans and peer-servable accounting all read this one
    /// map.
    pub fn directory(&self) -> &BlockDirectory {
        &self.directory
    }

    /// `host` keeps `disk` as its replica of `vm`: the image a departing
    /// VM left behind, or a failed stream's partial copy.
    pub(crate) fn keep_replica(&mut self, vm: VmId, host: HostId, disk: MetaDisk) {
        self.directory.publish(vm.0 as u64, host.0 as u64, disk);
    }

    /// An incoming migration of `vm` consumes `host`'s replica, so the
    /// very next decision no longer sees it offered.
    pub(crate) fn consume_replica(&mut self, vm: VmId, host: HostId) -> Option<MetaDisk> {
        self.directory.retire(vm.0 as u64, host.0 as u64)
    }

    /// VMs running on `host`, ascending id.
    pub fn residents(&self, host: HostId) -> impl Iterator<Item = VmId> + '_ {
        self.vms
            .iter()
            .filter(move |vm| vm.host == host)
            .map(|vm| vm.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_round_robins_vms_and_workloads() {
        let cfg = ClusterConfig::new(3, 7);
        let c = Cluster::new(&cfg).expect("valid config");
        assert_eq!(c.hosts.len(), 3);
        assert_eq!(c.vms.len(), 7);
        assert_eq!(c.vms[4].host, HostId(1));
        assert_eq!(c.residents(HostId(0)).count(), 3);
        assert!(c.residents(HostId(1)).eq([VmId(1), VmId(4)]));
        // Every block starts at a real generation.
        assert!((0..cfg.disk_blocks).all(|b| c.vms[0].disk.generation(b) > 0));
        assert!(c.directory().is_empty());
    }

    #[test]
    fn residents_follow_each_vm_host() {
        let cfg = ClusterConfig::new(2, 3);
        let mut c = Cluster::new(&cfg).expect("valid config");
        c.vms[0].host = HostId(1);
        assert!(c.residents(HostId(0)).eq([VmId(2)]));
        assert!(c.residents(HostId(1)).eq([VmId(0), VmId(1)]));
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(Cluster::new(&ClusterConfig::new(1, 4)).is_err());
    }
}
