//! Fleet configuration and migration request scenarios.

use des::{SimDuration, SimTime};
use migrate::testbed;
use simnet::Link;
use workloads::WorkloadKind;

use crate::cluster::{HostId, VmId};
use crate::scheduler::MigrationRequest;

/// A configuration error, reported instead of panicking: the orchestrator
/// lives in the transport lint zone (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Each host's NIC, bytes/second: the Gigabit LAN, shared by every
/// stream entering or leaving the host.
pub const NIC_CAPACITY: f64 = Link::gigabit().bandwidth();

/// Virtual-time pause before a cut stream reconnects (the live engine's
/// `RetryPolicy::backoff` is wall-clock time).
pub const RETRY_BACKOFF: SimDuration = SimDuration::from_secs(2);

/// Safety horizon: what still runs after 4 h of virtual time is marked
/// failed. It bounds a livelocked schedule (an IM-aware policy waiting
/// for a replica host forever); no fleet run comes near it.
pub const HORIZON: SimDuration = SimDuration::from_secs(4 * 3600);

/// Starvation bound of cycle-aware deferral: 600 s, twenty times the
/// high phase `scenarios/maintenance.scn` declares, so deferral waits a
/// phase out and only a VM that never idles reaches the bound.
pub const CYCLE_PATIENCE: SimDuration = SimDuration::from_secs(600);

/// Fleet geometry, the knobs a run varies, and the fault schedule for
/// one orchestrated run. Per-host capacities and the pass caps are the
/// testbed's ([`migrate::testbed`]); the fleet's own constants are this
/// module's.
///
/// Each migration runs `migrate`'s phase machine as the simulated TPM
/// engine does: iterated disk and memory pre-copy under the same stop
/// rules, paced by the same step rule on a seek-aware disk, the same
/// freeze window, and post-copy ended by the same handshake. What still
/// differs (the guest's draws, pulls and push batching, the pace of a
/// dedup reference) is listed in DESIGN.md §13.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of physical hosts (≥ 2).
    pub hosts: usize,
    /// Number of VMs.
    pub vms: usize,
    /// Per-VM disk capacity in blocks of [`testbed::BLOCK_SIZE`] bytes.
    pub disk_blocks: usize,
    /// Guest memory pages (4 KiB each), iterated by memory pre-copy.
    pub mem_pages: usize,
    /// Per-stream pipeline ceiling, bytes/second — the demand one
    /// migration stream places on each pool it touches.
    pub stream_demand: f64,
    /// Stop disk pre-copy when a pass ends with at most this many dirty
    /// blocks.
    pub dirty_threshold: usize,
    /// Admission control: maximum migration streams touching one host
    /// (as source or destination) at once.
    pub max_streams_per_host: usize,
    /// Content-addressed transfer: a block the destination replica
    /// already holds at the identical generation crosses as a 16-byte
    /// reference instead of a full payload (wire accounting only — the
    /// stream's pacing is unchanged, a deliberately conservative model).
    /// Off reproduces the classic byte math exactly.
    pub dedup: bool,
    /// Multi-source accounting: a full block some *other* host also
    /// holds at the live generation is counted as served by that peer
    /// (the block-directory fan-in the two-host engine performs for
    /// real). Wire bytes and pacing are unchanged — the payload crosses
    /// either way — so runs are byte- and clock-identical with this off;
    /// only the per-migration peer-served counter moves.
    pub multisource: bool,
    /// Master seed: forks every per-VM workload stream and the fault
    /// schedule deterministically.
    pub seed: u64,
    /// Per-migration count of seeded connection resets injected during
    /// pre-copy (0 = fault-free run).
    pub fault_resets: u32,
    /// Retries a stream survives before its migration is abandoned.
    pub max_retries: u32,
    /// Workload assignment: VM `i` runs `workload_cycle[i % len]`.
    pub workload_cycle: Vec<WorkloadKind>,
}

impl ClusterConfig {
    /// A fleet of `hosts` hosts and `vms` VMs with the testbed's
    /// per-host capacities (Gigabit NIC, SATA-class disk, ~50 MB/s
    /// migration pipeline) and CI-sized images.
    pub fn new(hosts: usize, vms: usize) -> Self {
        Self {
            hosts,
            vms,
            disk_blocks: 65_536,
            mem_pages: 8_192,
            stream_demand: testbed::PIPELINE_CAP,
            dirty_threshold: testbed::DIRTY_THRESHOLD,
            max_streams_per_host: 2,
            dedup: true,
            multisource: true,
            seed: 2008,
            fault_resets: 0,
            max_retries: 3,
            workload_cycle: vec![
                WorkloadKind::Web,
                WorkloadKind::Video,
                WorkloadKind::Idle,
                WorkloadKind::KernelBuild,
            ],
        }
    }

    /// Check the configuration, returning a typed error instead of
    /// panicking.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |m: &str| Err(ConfigError(m.to_string()));
        if self.hosts < 2 {
            return err("need at least 2 hosts");
        }
        if self.vms == 0 {
            return err("need at least 1 VM");
        }
        if self.disk_blocks == 0 || self.mem_pages == 0 {
            return err("disk and memory geometry must be non-empty");
        }
        let needs_large_disk = self
            .workload_cycle
            .iter()
            .any(|k| !matches!(k, WorkloadKind::Idle));
        if needs_large_disk && self.disk_blocks < 8_192 {
            return err("paper workloads need at least 8192 blocks (~32 MiB) of disk");
        }
        if !self.stream_demand.is_finite() || self.stream_demand <= 0.0 {
            return err("stream_demand must be finite and positive");
        }
        if self.max_streams_per_host == 0 {
            return err("max_streams_per_host must be at least 1");
        }
        if self.workload_cycle.is_empty() {
            return err("workload_cycle must be non-empty");
        }
        Ok(())
    }
}

/// A timed stream of migration requests — the orchestrator's input.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Requests, in submission order.
    pub requests: Vec<MigrationRequest>,
}

impl Scenario {
    /// The evacuation/return scenario behind the bench experiment and the
    /// acceptance test: every VM is evacuated at `t = 0` (wave 1, full
    /// copies that leave replicas behind), dwells for `gap`, then must
    /// move again (wave 2, destination left to the scheduler). Wave 2 is
    /// where IM-aware placement pays: a policy that sends each VM back to
    /// a host holding its stale replica ships only the bitmap diff.
    pub fn two_wave(cfg: &ClusterConfig, gap: SimDuration) -> Self {
        let mut requests = Vec::new();
        for wave in 0..2u64 {
            let at = SimTime::ZERO + SimDuration::from_nanos(wave * gap.as_nanos());
            for vm in 0..cfg.vms {
                requests.push(MigrationRequest {
                    vm: VmId(vm),
                    dest: None,
                    at,
                });
            }
        }
        Self { requests }
    }

    /// A single wave of requests at `t = 0`, optionally pinned to a
    /// destination host.
    pub fn single_wave(cfg: &ClusterConfig, dest: Option<HostId>) -> Self {
        Self {
            requests: (0..cfg.vms)
                .map(|vm| MigrationRequest {
                    vm: VmId(vm),
                    dest,
                    at: SimTime::ZERO,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ClusterConfig::new(4, 8).validate().is_ok());
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        assert!(ClusterConfig::new(1, 8).validate().is_err());
        assert!(ClusterConfig::new(4, 0).validate().is_err());
        for demand in [f64::NAN, f64::INFINITY] {
            let mut c = ClusterConfig::new(4, 8);
            c.stream_demand = demand;
            assert!(c.validate().is_err(), "stream_demand {demand}");
        }
        let mut c = ClusterConfig::new(4, 8);
        c.workload_cycle.clear();
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::new(4, 8);
        c.mem_pages = 0;
        assert!(c.validate().is_err(), "a guest has memory to pre-copy");
        let mut c = ClusterConfig::new(4, 8);
        c.disk_blocks = 2048;
        assert!(c.validate().is_err(), "paper workloads need a bigger disk");
        c.workload_cycle = vec![WorkloadKind::Idle];
        assert!(c.validate().is_ok(), "idle fleets may use tiny disks");
    }

    #[test]
    fn two_wave_orders_requests_by_time() {
        let cfg = ClusterConfig::new(3, 5);
        let s = Scenario::two_wave(&cfg, SimDuration::from_secs(30));
        assert_eq!(s.requests.len(), 10);
        assert_eq!(s.requests[0].at, SimTime::ZERO);
        assert_eq!(s.requests[9].at, SimTime::ZERO + SimDuration::from_secs(30));
        assert!(s.requests.iter().all(|r| r.dest.is_none()));
    }
}
