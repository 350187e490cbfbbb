//! Cluster orchestrator: concurrent, IM-aware migration scheduling
//! across many hosts.
//!
//! The paper migrates one VM between two machines; its Incremental
//! Migration result (§V: a ~800 s primary migration collapsing to
//! seconds on the return trip) only pays off when a *scheduler* can
//! choose to send a VM back to a machine that still holds a stale
//! replica. This crate is that layer: a deterministic, virtual-time
//! cluster model of N hosts and M VMs in which many migrations run
//! concurrently, contending for per-host NIC and disk capacity through
//! `simnet::capacity` (max-min NICs, seek-aware disks), each tracked by
//! its own block-bitmap, admitted and placed by [`Scheduler`] policies.
//!
//! The pieces:
//!
//! * [`ClusterConfig`] / [`Scenario`] — fleet geometry, the knobs a run
//!   varies, fault plan, and the timed migration request stream. Host
//!   capacities, the step and the pass caps are the paper's testbed,
//!   read from [`migrate::testbed`]; the fleet's own constants
//!   ([`NIC_CAPACITY`], [`RETRY_BACKOFF`], [`HORIZON`],
//!   [`CYCLE_PATIENCE`]) sit beside `ClusterConfig`, each with its
//!   reason.
//! * [`Cluster`] / [`Host`] / [`VmHandle`] — the fleet model: per-VM
//!   [`vdisk::MetaDisk`] images, each VM's host (a host's residents are
//!   derived from it), and one [`blockstore::BlockDirectory`] holding
//!   the stale images hosts kept (§VII's version maintenance,
//!   fleet-wide).
//! * [`Scheduler`] — the policy trait, with [`Fifo`], [`Srdf`]
//!   (shortest-remaining-dirty-first) and [`ImAware`] (prefer a
//!   destination holding a stale replica) implementations, all under
//!   per-host admission control.
//! * [`Orchestrator`] — the executor: a virtual-time engine on the
//!   simulator's pacer that runs each admitted migration through the §IV
//!   phases under shared capacity, retries on injected `simnet::fault`
//!   resets by resuming from the block-bitmap, and journals `cluster.*`
//!   metrics and per-migration phase spans through `telemetry`.
//! * [`ClusterReport`] / [`MigrationRecord`] — the run's accounting,
//!   exact to the journal's nanosecond arithmetic.
//!
//! Everything is deterministic: one seed fixes the workload streams, the
//! fault schedule and every scheduling decision, so two runs with the
//! same configuration produce byte-identical JSONL journals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): transport, deterministic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod cluster;
mod config;
mod dynamics;
mod executor;
mod pools;
mod report;
mod scheduler;

pub use cluster::{Cluster, Host, HostId, VmHandle, VmId};
pub use config::{
    ClusterConfig, ConfigError, Scenario, CYCLE_PATIENCE, HORIZON, NIC_CAPACITY, RETRY_BACKOFF,
};
pub use dynamics::{FleetDynamics, StaticDynamics};
pub use executor::Orchestrator;
pub use migrate::testbed;
pub use report::{ClusterReport, MigrationRecord};
pub use scheduler::{
    ClusterView, CycleAware, Decision, Fifo, ImAware, MigrationRequest, Policy, Scheduler, Srdf,
};
