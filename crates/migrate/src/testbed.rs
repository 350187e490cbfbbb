//! The paper's testbed (§VI), written once: a SATA-class disk, the
//! `blkd` pipeline's ceiling and the pre-copy stop rule's bounds; the
//! Gigabit LAN is [`simnet::Link::gigabit`], and Xen's fixed suspend and
//! resume costs are priced with the freeze window
//! ([`crate::phase::freeze_window`]).
//! [`MigrationConfig::paper_testbed`] and the fleet's `ClusterConfig::new`
//! read these constants for every value they share.
//!
//! [`MigrationConfig::paper_testbed`]: crate::MigrationConfig::paper_testbed

use des::SimDuration;

/// Bytes per disk block: the 4 KiB unit the block-bitmap tracks (§IV-A-2).
pub const BLOCK_SIZE: u64 = 4096;

/// vCPUs of the migrated guest: the paper's domain runs one.
pub const VCPUS: u32 = 1;

/// Streaming throughput of a host's disk with one sequential stream,
/// bytes/second. Fits §VI-C-3's rate-limiting observations and Bonnie++'s
/// 96 MB/s `write(2)`; buffered guest writes are not held to
/// [`PIPELINE_CAP`].
pub const DISK_CAPACITY: f64 = 137.7 * 1024.0 * 1024.0;

/// Disk capacity lost per byte/second of interleaved migration traffic:
/// the seeks between the migration's scan and the guest's own I/O
/// (`simnet::capacity::seek_aware_share`).
pub const SEEK_PENALTY: f64 = 1.2;

/// Throughput ceiling of the migration pipeline (reads through `blkd`,
/// userspace copies, TCP), bytes/second: the paper moves a 40 GB VBD in
/// ~790 s, about 52 MB/s, on a link that could carry twice that.
pub const PIPELINE_CAP: f64 = 50.0 * 1024.0 * 1024.0;

/// Bandwidth each peer holder offers a multi-source migration,
/// bytes/second: a holder serves blocks through the same pipeline. With
/// the destination's ingest it feeds `max_min_share`, so fan-in never
/// starves the holders' own guests.
pub const PEER_BUDGET: f64 = PIPELINE_CAP;

/// Disk pre-copy passes before the freeze is forced: the paper "limits
/// the maximum number of iterations to avoid endless migration".
pub const MAX_DISK_PASSES: u32 = 8;

/// Default stop threshold of disk pre-copy: a pass that leaves at most
/// this many dirty blocks is the last.
pub const DIRTY_THRESHOLD: usize = 256;

/// Memory pre-copy passes before the freeze is forced: Xen's cap.
pub const MAX_MEM_PASSES: u32 = 10;

/// Default stop threshold of memory pre-copy: a pass that leaves at most
/// this many dirty pages is the last.
pub const MEM_DIRTY_THRESHOLD: usize = 512;

/// Virtual-time slice of the time-sliced phases.
pub const STEP: SimDuration = SimDuration::from_millis(250);

/// Control-plane cost of entering and completing post-copy: `blkd`
/// wakeups, the bitmap's acknowledgement, the completion handshake.
pub const POSTCOPY_FIXED_OVERHEAD: SimDuration = SimDuration::from_millis(300);

/// Horizon at which TPM's post-copy is abandoned: a backstop, since the
/// push stream always ends it first (the on-demand baseline sets its own).
pub const POSTCOPY_HORIZON: SimDuration = SimDuration::from_secs(3600);
