//! Live (threaded) migration prototype.
//!
//! This is the paper's `blkd`/`blkback` architecture rebuilt in userspace
//! with real bytes and real concurrency:
//!
//! * a **guest driver** thread plays the workload, writing stamped block
//!   contents through the write-intercepting [`vdisk::TrackedDisk`] — the
//!   `blkback` analogue — first on the source, then (after resume) on the
//!   destination;
//! * a **source protocol** thread runs pre-copy iterations by draining the
//!   atomic block-bitmap, then freeze-and-copy (ships the bitmap, not the
//!   blocks), then the post-copy push loop that also answers pulls
//!   preferentially;
//! * a **destination protocol** thread provisions the VBD, applies
//!   incoming blocks, and during post-copy implements the paper's
//!   destination algorithm: reads to dirty blocks wait on a pull, writes
//!   cancel synchronization, late pushes are dropped.
//!
//! Consistency is verified end-to-end: every guest write carries a unique
//! stamp, and after migration the destination disk must hold, for every
//! block, exactly the last stamp the guest wrote (or the initial image).
//!
//! [`run_live`] is the entry point (`engine.rs`, with the reconnect
//! driver both sides share); `source.rs` and `dest.rs` are the two
//! protocol threads, `plane.rs` the data plane between them.

// Lint zones (DESIGN.md §11): transport, result-dropped, protocol.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

mod connect;
mod dest;
mod driver;
mod engine;
mod error;
mod io;
mod lz_rule;
mod plane;
mod source;

pub use connect::{
    duplex_connector_pair, Connector, DuplexConnector, OnceConnector, TcpDestConnector,
    TcpSourceConnector,
};
pub use driver::{DriverCtl, DriverHandle, DriverResult, LiveWorkload};
pub use engine::{
    fresh_disks, run_live, run_live_migration_connected, run_live_migration_tcp,
    run_live_migration_with, LiveConfig, LiveOutcome, LivePeer, LiveRun, SideWork, WorkLedger,
};
pub use error::MigrationError;
pub use io::{DestIo, GuestIo, SourceIo};
pub use lz_rule::{fingerprinting_pays, lz_pays};
