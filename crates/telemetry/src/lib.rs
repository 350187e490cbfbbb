//! Dual-clock tracing, metrics, and event journal for migration runs.
//!
//! The paper's whole evaluation (Figures 4–6, Tables I–III) is a timeline
//! story — phase durations, per-iteration transfer counts, downtime — yet a
//! migration engine on its own only yields end-of-run aggregates. This crate
//! is the observability substrate both execution modes record into:
//!
//! * the **DES simulator** stamps events with virtual [`des` time] as raw
//!   nanoseconds ([`ClockDomain::Sim`]);
//! * the **live engine's** real threads stamp events with monotonic wall
//!   time relative to the recorder's epoch ([`ClockDomain::Wall`]).
//!
//! One typed [`Event`] taxonomy serves both, so the same exporters and the
//! same phase-timing reconstruction work on either journal.
//!
//! The [`Recorder`] sits on the hot path of the protocol threads, so it is
//! held to the rules of the transport lint zone (DESIGN.md §11):
//!
//! * **panic-free** — no `unwrap`/`expect`/panic-family macros;
//! * **never blocks the producer** — when the bounded journal is full,
//!   records are counted as dropped, not queued;
//! * **disabled is ~free** — a disabled recorder's `record` call is a single
//!   relaxed atomic load; the event closure never runs, so no allocation and
//!   no lock happen.
//!
//! Exporters ([`to_jsonl`], [`from_jsonl`], [`phase_summary`],
//! [`reconstruct_phases`], [`metrics_json`]) turn a journal into a JSONL
//! trace file, a human-readable phase table, or the per-phase durations that
//! must agree exactly with `migrate`'s own `MigrationReport` accounting.
//!
//! [`des` time]: ClockDomain::Sim

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): transport, deterministic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod clock;
mod event;
mod export;
mod metrics;
mod recorder;

pub use clock::ClockDomain;
pub use event::{Event, FaultLabel, Phase, Record, Resource, Side};
pub use export::{
    codec_summary, from_jsonl, metrics_json, migration_ids, migration_phase_span_nanos,
    phase_span_nanos, phase_summary, reconstruct_migration_phases, reconstruct_phases, to_jsonl,
    PhaseDurations,
};
pub use metrics::{
    bucket_index, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramBucket,
    HistogramSnapshot, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use recorder::{Recorder, DEFAULT_JOURNAL_CAPACITY};
