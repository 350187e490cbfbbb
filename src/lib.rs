//! # block-bitmap-migration
//!
//! A full reproduction of *"Live and Incremental Whole-System Migration of
//! Virtual Machines Using Block-Bitmap"* (Luo, Zhang, Wang, Wang, Sun,
//! Chen — IEEE CLUSTER 2008) as a Rust workspace.
//!
//! The paper migrates a VM's **whole system state** — local disk, memory,
//! CPU — between hosts with ~100 ms of downtime, using:
//!
//! * **Three-Phase Migration (TPM)**: iterative disk pre-copy under a
//!   dirty **block-bitmap**, Xen-style memory pre-copy, a freeze phase
//!   that ships only the remaining dirty pages + CPU context + *the
//!   bitmap itself*, and a push-and-pull post-copy that synchronizes the
//!   last dirty blocks after the VM has already resumed.
//! * **Incremental Migration (IM)**: a fresh bitmap keeps recording
//!   writes at the destination, so migrating *back* moves only the blocks
//!   dirtied since.
//!
//! This crate is the façade: it re-exports every subsystem so downstream
//! users can depend on one crate. See the individual crates for deep
//! documentation:
//!
//! * [`block_bitmap`] — flat / layered / atomic dirty-block bitmaps.
//! * [`des`] — deterministic discrete-event simulation kernel.
//! * [`vdisk`] — virtual block devices with write interception.
//! * [`vmstate`] — guest memory, CPU context, domain lifecycle.
//! * [`simnet`] — link models, rate limiting, wire protocol, transport.
//! * [`workloads`] — the paper's workload generators and analysis.
//! * [`migrate`] — the TPM/IM engines (simulated and live) and baselines.
//! * [`telemetry`] — dual-clock tracing, metrics, and event journal.
//! * [`orchestrator`] — fleet-scale scheduling: many concurrent
//!   migrations across N hosts under pluggable (IM-aware) policies.
//! * [`scenario`] — deterministic cluster topologies and chaos
//!   schedules: partitions, WAN links, heterogeneous fleets, rolling
//!   maintenance and workload cycles, all in virtual time.
//!
//! ## Quickstart
//!
//! ```
//! use block_bitmap_migration::prelude::*;
//!
//! // Simulate the paper's testbed at reduced scale: migrate a web-serving
//! // guest and inspect the report.
//! let cfg = MigrationConfig::small();
//! let outcome = run_tpm(cfg, WorkloadKind::Web);
//! assert!(outcome.report.consistent);
//! assert!(outcome.report.downtime_ms < 1_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use block_bitmap;
pub use des;
pub use migrate;
pub use orchestrator;
pub use scenario;
pub use simnet;
pub use telemetry;
pub use vdisk;
pub use vmstate;
pub use workloads;

/// The most common imports for using the library.
pub mod prelude {
    pub use block_bitmap::{AtomicBitmap, BlockMapper, DirtyMap, FlatBitmap, LayeredBitmap};
    pub use des::{SimDuration, SimRng, SimTime};
    pub use migrate::baselines::{run_delta_queue, run_freeze_and_copy, run_on_demand};
    pub use migrate::live::{run_live, LiveConfig, LiveOutcome, LiveRun, MigrationError};
    pub use migrate::sim::{dwell, run_im, run_tpm, TpmEngine, TpmOutcome};
    pub use migrate::{BitmapKind, MigrationConfig, MigrationReport, RetryPolicy};
    pub use orchestrator::{
        Cluster, ClusterConfig, ClusterReport, Orchestrator, Policy, Scenario, Scheduler,
    };
    pub use scenario::{ChaosEvent, CycleSpec, ScenarioDynamics, ScenarioSpec, TimedEvent};
    pub use simnet::fault::FaultPlan;
    pub use simnet::Link;
    pub use telemetry::Recorder;
    pub use vdisk::{MetaDisk, TrackedDisk, VirtualDisk};
    pub use vmstate::{CpuState, Domain, GuestMemory, WssModel};
    pub use workloads::{Workload, WorkloadKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let cfg = MigrationConfig::small();
        let out = run_tpm(cfg, WorkloadKind::Idle);
        assert!(out.report.consistent);
    }
}
