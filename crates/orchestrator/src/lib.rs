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
//! `simnet::capacity::max_min_share`, each tracked by its own
//! block-bitmap, admitted and placed by pluggable [`Scheduler`] policies.
//!
//! The pieces:
//!
//! * [`ClusterConfig`] / [`Scenario`] — fleet geometry, capacities,
//!   fault plan, and the timed migration request stream.
//! * [`Cluster`] / [`Host`] / [`VmHandle`] — the fleet model: per-VM
//!   [`vdisk::MetaDisk`] images plus a shared [`vdisk::ReplicaTable`] of
//!   stale departure images (§VII's version maintenance, fleet-wide).
//! * [`Scheduler`] — the policy trait, with [`Fifo`], [`Srdf`]
//!   (shortest-remaining-dirty-first) and [`ImAware`] (prefer a
//!   destination holding a stale replica) implementations, all under
//!   per-host admission control.
//! * [`Orchestrator`] — the executor: a time-sliced engine that runs
//!   each admitted migration through the §IV phase structure under
//!   shared capacity, retries on injected `simnet::fault` resets by
//!   resuming from the block-bitmap, and journals `cluster.*` metrics
//!   and per-migration phase spans through `telemetry` in virtual time.
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
mod report;
mod scheduler;

pub use cluster::{Cluster, Host, HostId, VmHandle, VmId};
pub use config::{ClusterConfig, ConfigError, Scenario};
pub use dynamics::{FleetDynamics, StaticDynamics};
pub use executor::Orchestrator;
pub use report::{ClusterReport, MigrationRecord};
pub use scheduler::{
    ClusterView, CycleAware, Decision, Fifo, ImAware, MigrationRequest, Policy, Scheduler, Srdf,
};
