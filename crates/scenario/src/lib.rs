//! Scenario engine: deterministic cluster topology and chaos schedules
//! for the migration orchestrator.
//!
//! The paper evaluates block-bitmap migration on one clean LAN link;
//! the fleet the ROADMAP aims at lives on messier ground — racks
//! behind WAN uplinks, hosts cycling through maintenance, networks
//! that partition and heal, workloads with day/night activity cycles
//! (Baruchi et al., PAPERS.md). This crate models that ground as data:
//!
//! * [`topology`] — islands, heterogeneous per-host NIC/disk
//!   capacities, per-link bandwidth/latency/drop, compiled to dense
//!   matrices whose unset entries are exact identity elements.
//! * [`timeline`] — a declarative virtual-time schedule of chaos
//!   events (partition/heal, host down/up, link degrade/restore,
//!   rolling maintenance waves) plus workload cycles and migration
//!   directives, resolved into a [`ScenarioSpec`].
//! * [`parse`](mod@parse) — the `.scn` line language (`vmmigrate orchestrate
//!   --scenario cluster.scn`), with line-numbered typed errors.
//! * [`dynamics`] — [`ScenarioDynamics`], the `FleetDynamics` oracle
//!   the orchestrator's executor consults every step; it interprets
//!   the timeline, drives maintenance drains, and journals every
//!   topology change as a typed telemetry event.
//! * [`runner`] — spec → config → orchestrated run.
//!
//! Everything is deterministic: one spec and one seed fix the run, and
//! an **empty** scenario reproduces the classic flat-fleet orchestrator
//! journal byte-for-byte (`tests/scenario_chaos.rs` pins both).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): transport, deterministic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod dynamics;
pub mod parse;
pub mod runner;
pub mod timeline;
pub mod topology;

pub use dynamics::ScenarioDynamics;
pub use parse::parse;
pub use runner::{config_for, run, run_with_policy, ScenarioRun};
pub use timeline::{ChaosEvent, CycleSpec, ScenarioSpec, TimedEvent};
pub use topology::{drop_quality, HostCaps, Island, LinkSpec, Topology};

/// A scenario error: what went wrong and, for parse errors, the
/// 1-based line it came from (`0` = not tied to a line).
///
/// Typed, never panicking — this crate sits in the transport lint
/// zone, same as the transport and orchestrator it drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line, or `0` when the error has no line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ScenarioError {
    /// An error not tied to a source line.
    pub fn spec(msg: impl Into<String>) -> Self {
        Self {
            line: 0,
            msg: msg.into(),
        }
    }

    /// A parse error at `line` (1-based).
    pub fn at(line: usize, msg: impl Into<String>) -> Self {
        Self {
            line,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.msg)
        } else {
            write!(f, "scenario line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_with_and_without_lines() {
        assert_eq!(
            ScenarioError::spec("no fleet").to_string(),
            "scenario: no fleet"
        );
        assert_eq!(
            ScenarioError::at(3, "bad host").to_string(),
            "scenario line 3: bad host"
        );
    }
}
