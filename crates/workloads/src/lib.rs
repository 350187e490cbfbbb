//! Workload generators for migration evaluation.
//!
//! §VI-B of the paper picks "typical workloads with different I/O loads":
//!
//! * a **dynamic web server** (SPECweb2005 Banking, 100 connections) —
//!   bursty writes with high locality (25.2 % of writes rewrite a block
//!   written before);
//! * a **low-latency video server** (Samba sharing a 210 MB video) —
//!   continuous sequential reads at under 500 kbps with only rare log
//!   writes;
//! * a **diabolical server** (Bonnie++) — phase-structured sequential
//!   output/input, rewrite, and random-seek storms that hammer the disk as
//!   fast as it will go (35.6 % rewrite ratio);
//!
//! plus the **kernel build** used for the locality measurement (11 %
//! rewrite ratio).
//!
//! Each generator implements [`Workload`]: a deterministic, seeded stream
//! of block-granular disk operations whose volume reacts to the disk
//! throughput the workload actually achieves (closed-loop workloads like
//! Bonnie++ slow down when the migration competes for the disk; open-loop
//! ones like the video server do not). The migration engines — simulated
//! and live — consume the same streams, and [`locality`] verifies the
//! rewrite ratios against the paper's measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): reactor-ready.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod diabolical;
mod kernel;
pub mod locality;
mod op;
mod pattern;
pub mod probe;
mod trace;
mod video;
mod web;
mod workload;

pub use diabolical::{BonniePhase, DiabolicalWorkload};
pub use kernel::KernelBuildWorkload;
pub use op::{OpKind, OpTrace, TimedOp};
pub use pattern::WritePattern;
pub use trace::{record, TraceWorkload};
pub use video::VideoStreamWorkload;
pub use web::WebServerWorkload;
pub use workload::{Workload, WorkloadKind};
