//! Fleet configuration and migration request scenarios.

use des::{SimDuration, SimTime};
use migrate::BitmapKind;
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

/// Fleet geometry, per-host capacities, phase-model knobs, and the fault
/// schedule for one orchestrated run.
///
/// The per-migration stream model mirrors `migrate`'s simulated TPM
/// engine — same phase structure, stop conditions and freeze-and-copy
/// downtime formula — but coarsens the memory model (one pre-copy pass
/// plus a fixed frozen working set) because a fleet run simulates dozens
/// of migrations, not one. DESIGN.md §13 records the mapping.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of physical hosts (≥ 2).
    pub hosts: usize,
    /// Number of VMs.
    pub vms: usize,
    /// Per-VM disk capacity in blocks.
    pub disk_blocks: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Guest memory pages (4 KiB each) shipped in the single memory
    /// pre-copy pass.
    pub mem_pages: usize,
    /// Pages still dirty at suspend, shipped inside the freeze window.
    pub frozen_mem_pages: usize,
    /// CPU context size in bytes, shipped inside the freeze window.
    pub cpu_state_bytes: u64,
    /// Per-host NIC capacity, bytes/second (each host has one NIC shared
    /// by every migration stream entering or leaving it).
    pub nic_capacity: f64,
    /// Per-host disk capacity, bytes/second (shared by resident guest
    /// workloads and the migration streams reading/writing images).
    pub disk_capacity: f64,
    /// Per-stream pipeline ceiling, bytes/second — the demand one
    /// migration stream places on each pool it touches.
    pub stream_demand: f64,
    /// One-way link latency added to every freeze window.
    pub latency: SimDuration,
    /// Maximum disk pre-copy passes before forcing freeze-and-copy.
    pub max_disk_passes: u32,
    /// Stop disk pre-copy when a pass ends with at most this many dirty
    /// blocks.
    pub dirty_threshold: usize,
    /// Admission control: maximum migration streams touching one host
    /// (as source or destination) at once.
    pub max_streams_per_host: usize,
    /// Simulation time slice.
    pub step: SimDuration,
    /// Fixed hypervisor suspend overhead (freeze window).
    pub suspend_overhead: SimDuration,
    /// Fixed hypervisor resume overhead (freeze window).
    pub resume_overhead: SimDuration,
    /// Which bitmap structure tracks dirty blocks.
    pub bitmap: BitmapKind,
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
    /// Virtual-time backoff before a cut stream reconnects.
    pub retry_backoff: SimDuration,
    /// Safety horizon: the run aborts (remaining migrations marked
    /// failed) if virtual time passes this bound.
    pub horizon: SimDuration,
    /// Starvation bound for cycle-aware scheduling: how long a request
    /// may be deferred waiting for its VM's low-activity workload phase
    /// before it is admitted regardless.
    pub cycle_patience: SimDuration,
    /// Workload assignment: VM `i` runs `workload_cycle[i % len]`.
    pub workload_cycle: Vec<WorkloadKind>,
}

impl ClusterConfig {
    /// A fleet of `hosts` hosts and `vms` VMs with paper-calibrated
    /// per-host capacities (Gigabit NIC, SATA-class disk, ~50 MB/s
    /// migration pipeline) and CI-sized images.
    pub fn new(hosts: usize, vms: usize) -> Self {
        Self {
            hosts,
            vms,
            disk_blocks: 65_536,
            block_size: 4096,
            mem_pages: 8_192,
            frozen_mem_pages: 256,
            cpu_state_bytes: 8_192,
            nic_capacity: 119.0 * 1024.0 * 1024.0,
            disk_capacity: 137.7 * 1024.0 * 1024.0,
            stream_demand: 50.0 * 1024.0 * 1024.0,
            latency: SimDuration::from_micros(200),
            max_disk_passes: 8,
            dirty_threshold: 256,
            max_streams_per_host: 2,
            step: SimDuration::from_millis(250),
            suspend_overhead: SimDuration::from_millis(15),
            resume_overhead: SimDuration::from_millis(25),
            bitmap: BitmapKind::Flat,
            dedup: true,
            multisource: true,
            seed: 2008,
            fault_resets: 0,
            max_retries: 3,
            retry_backoff: SimDuration::from_secs(2),
            horizon: SimDuration::from_secs(4 * 3600),
            cycle_patience: SimDuration::from_secs(600),
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
        if self.disk_blocks == 0 || self.block_size == 0 {
            return err("disk geometry must be non-empty");
        }
        let needs_large_disk = self
            .workload_cycle
            .iter()
            .any(|k| !matches!(k, WorkloadKind::Idle));
        if needs_large_disk && self.disk_blocks < 8_192 {
            return err("paper workloads need at least 8192 blocks (~32 MiB) of disk");
        }
        for (name, v) in [
            ("nic_capacity", self.nic_capacity),
            ("disk_capacity", self.disk_capacity),
            ("stream_demand", self.stream_demand),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ConfigError(format!("{name} must be finite and positive")));
            }
        }
        if self.max_streams_per_host == 0 {
            return err("max_streams_per_host must be at least 1");
        }
        if self.step == SimDuration::ZERO {
            return err("step must be positive");
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
    /// copies that seed the replica table), dwells for `gap`, then must
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
        let mut c = ClusterConfig::new(4, 8);
        c.nic_capacity = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::new(4, 8);
        c.workload_cycle.clear();
        assert!(c.validate().is_err());
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
