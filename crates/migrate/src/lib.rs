//! Three-Phase Migration (TPM) and Incremental Migration (IM) — the
//! paper's contribution — plus the baselines it compares against.
//!
//! # The algorithms
//!
//! **TPM** (§IV) migrates a VM's whole system state — local disk, memory,
//! CPU — in three phases:
//!
//! 1. **Pre-copy**: the local disk is copied iteratively: the first
//!    iteration ships every block while a block-bitmap records concurrent
//!    guest writes; each later iteration ships the blocks dirtied during
//!    the previous one. When the dirty set stops shrinking (or an
//!    iteration cap is hit) memory is pre-copied the same way, Xen-style,
//!    with the disk bitmap still recording writes.
//! 2. **Freeze-and-copy**: the VM suspends; the remaining dirty pages, the
//!    CPU context, and the *block-bitmap itself* (not the blocks!) are
//!    sent. Downtime is exactly this phase.
//! 3. **Post-copy**: the VM resumes on the destination immediately. The
//!    source *pushes* the remaining dirty blocks continuously while the
//!    destination *pulls* any dirty block a guest read touches; a guest
//!    write to a dirty block cancels its synchronization entirely (the
//!    write overwrites the whole block). Push guarantees completion in
//!    finite time — the paper's "finite dependency on the source".
//!
//! **IM** (§V) keeps a fresh bitmap recording writes on the destination
//! after the primary migration; migrating *back* only ships the blocks in
//! that bitmap.
//!
//! # Engines
//!
//! * [`sim`] — deterministic virtual-time engine at full paper scale
//!   (40 GB disks, 512 MB guests, Gigabit link), used by the benchmark
//!   harness to regenerate every table and figure.
//! * [`live`] — a real multi-threaded userspace prototype: actual byte
//!   disks, actual concurrent workload writes, actual channel transport —
//!   the paper's `blkd`/`blkback` architecture reproduced in userspace.
//! * [`baselines`] — freeze-and-copy (Internet Suspend/Resume), pure
//!   on-demand fetching, and Bradford-style delta forward-and-replay, for
//!   the related-work comparisons of §II.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod config;
pub mod live;
mod report;
pub mod sim;

pub use config::{precopy_stops, BitmapKind, MigrationConfig, RetryPolicy};
pub use report::{
    IterationStats, MigrationReport, MultiSourceReport, PeerBytes, PhaseTimings, PostCopyStats,
};
