//! Multi-source block store: a content-addressed, generation-aware
//! "who holds which block" data plane for live migration.
//!
//! The paper's block-bitmap tells a migration *which* blocks are owed;
//! this crate answers *where each owed block can come from*. Three
//! layers compose:
//!
//! 1. [`BlockDirectory`] — the fleet's one store of kept images: the
//!    [`vdisk::MetaDisk`] each host holds of each VM (a departure image,
//!    a failed stream's partial copy, a template clone), keyed
//!    `(vm, host)`, and the freshness queries against the live image.
//!    [`BlockDirectory::publish`] keeps an image and
//!    [`BlockDirectory::retire`] hands it back as a migration consumes it.
//! 2. [`FetchPlanner`] — given the owed bitmap, partitions blocks into
//!    *source-only*, *any-peer*, and *ref-only* classes and assigns
//!    any-peer blocks to concrete holders under per-host NIC budgets
//!    (`simnet::capacity::max_min_share`), so K-peer fan-in never
//!    starves resident workloads.
//! 3. [`session`] — the peer-fetch wire protocol on the existing
//!    `simnet` transport: `BlockRequest` / `BlockData` / `BlockMiss`
//!    frames with windowed pipelining, content re-verification at the
//!    destination, and shipped/got reconciliation so a holder dying
//!    mid-fetch leaves a re-plannable remainder instead of a wedged
//!    migration.
//!
//! All non-test code in this crate lives inside the `transport`,
//! `deterministic` and `result-dropped` lint zones (DESIGN.md §11): no
//! panicking escape hatches, `BTreeMap` ordering only, no wall-clock
//! reads, and no silently discarded `Result`s.

#![forbid(unsafe_code)]
// Lint zones (DESIGN.md §11): transport, deterministic, result-dropped.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]

pub mod directory;
pub mod planner;
pub mod session;

pub use directory::BlockDirectory;
pub use planner::{FetchPlan, FetchPlanner};
pub use session::{fetch_blocks, serve_blocks, BlockSource, BlockWant, FetchOutcome};
