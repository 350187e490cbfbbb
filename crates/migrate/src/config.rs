//! Migration engine configuration.

use std::time::Duration;

use des::SimDuration;
use simnet::Link;

/// How the live engine recovers from transport failures.
///
/// A mid-stream connection failure is not fatal: the source reconnects
/// with exponential-free fixed backoff, the two sides exchange a
/// [`simnet::proto::MigMessage::ResumeFrom`] bitmap, and only the blocks
/// and pages the destination is still missing are retransmitted — the
/// paper's Incremental Migration mechanism reused as crash recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts permitted after the initial connection.
    pub max_reconnects: u32,
    /// Wall-clock pause before each reconnect attempt.
    pub backoff: Duration,
    /// A protocol phase that makes no progress for this long is declared
    /// dead (the peer is connected but stuck).
    pub phase_timeout: Duration,
    /// Partition tolerance: with a budget set, reconnect attempts beyond
    /// `max_reconnects` are still permitted while the wall-clock time
    /// since the migration's *first* transport failure stays under it. A
    /// network partition that heals within the budget is ridden out on
    /// backoff instead of burning the attempt counter; a source that is
    /// truly dead still fails once the budget drains (and the
    /// destination still falls over to peer holders at that point).
    pub outage_budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_reconnects: 3,
            backoff: Duration::from_millis(25),
            phase_timeout: Duration::from_secs(10),
            outage_budget: None,
        }
    }
}

impl RetryPolicy {
    /// No recovery: the first transport failure ends the migration.
    pub fn none() -> Self {
        Self {
            max_reconnects: 0,
            ..Self::default()
        }
    }

    /// Has the retry budget truly run out? Attempts up to
    /// `max_reconnects` are always allowed; beyond that, an
    /// [`RetryPolicy::outage_budget`] keeps the session alive while the
    /// outage that started at `outage_start` is younger than the budget.
    pub fn exhausted(&self, attempt: u32, outage_start: Option<std::time::Instant>) -> bool {
        if attempt <= self.max_reconnects {
            return false;
        }
        match (self.outage_budget, outage_start) {
            (Some(budget), Some(start)) => start.elapsed() >= budget,
            // Budget configured but no failure observed yet: not spent.
            (Some(_), None) => false,
            (None, _) => true,
        }
    }
}

/// The pre-copy stop rule (§IV-A-1) every engine applies after each
/// pass, disk and memory alike: stop once the pass left at most
/// `threshold` units dirty (converged), once it was pass `max_passes`
/// (capped), or once the guest dirtied at least as many units as the
/// pass sent — a dirty rate the transfer cannot outrun.
pub fn precopy_stops(
    pass: u32,
    max_passes: u32,
    sent: u64,
    dirty: usize,
    threshold: usize,
) -> bool {
    dirty <= threshold || pass >= max_passes || (sent > 0 && dirty as u64 >= sent)
}

/// Which bitmap structure tracks dirty blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitmapKind {
    /// Dense flat bitmap (1 bit/block, always allocated).
    Flat,
    /// Two-layer lazily allocated bitmap (§IV-A-2).
    Layered,
}

/// Configuration for a whole-system migration.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Disk capacity in 4 KiB blocks.
    pub disk_blocks: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Guest memory pages (4 KiB each).
    pub mem_pages: usize,
    /// Number of vCPUs (sizes the CPU context transfer).
    pub vcpus: u32,
    /// The migration network link.
    pub link: Link,
    /// Optional cap on the bandwidth the migration may use (§VI-C-3),
    /// bytes/second.
    pub rate_limit: Option<f64>,
    /// Nominal streaming disk throughput of each host with a single
    /// sequential stream, bytes/second.
    pub disk_capacity: f64,
    /// Capacity lost per byte/second of interleaved migration traffic
    /// (seek interference between the migration's sequential scan and the
    /// guest's own I/O). See `simnet::capacity::seek_aware_share`.
    pub seek_penalty: f64,
    /// End-to-end throughput ceiling of the migration pipeline
    /// (sustained whole-disk reads through `blkd`, userspace copies, TCP),
    /// bytes/second. The paper's prototype moves a 40 GB VBD in ~790 s —
    /// about 52 MB/s — on a link that could carry twice that; this models
    /// the same pipeline ceiling. Buffered guest writes (Table III's
    /// 96 MB/s `write(2)`) are *not* subject to it, hence the separate
    /// `disk_capacity`.
    pub migration_throughput_cap: f64,
    /// Maximum disk pre-copy iterations (the paper limits the maximum
    /// number of iterations to avoid endless migration").
    pub max_disk_iterations: u32,
    /// Stop disk pre-copy when an iteration ends with at most this many
    /// dirty blocks.
    pub disk_dirty_threshold: usize,
    /// Maximum memory pre-copy iterations (Xen's cap).
    pub max_mem_iterations: u32,
    /// Proceed to freeze-and-copy when the memory dirty set is at most
    /// this many pages.
    pub mem_dirty_threshold: usize,
    /// Simulation step for the time-sliced phases.
    pub step: SimDuration,
    /// Fixed hypervisor overhead for suspending the guest.
    pub suspend_overhead: SimDuration,
    /// Fixed hypervisor overhead for resuming the guest.
    pub resume_overhead: SimDuration,
    /// Fixed control-plane overhead of entering and completing post-copy
    /// (blkd wakeups, bitmap acknowledgement, completion handshake).
    pub postcopy_fixed_overhead: SimDuration,
    /// Which bitmap implementation the tracker uses.
    pub bitmap: BitmapKind,
    /// Parallel transport streams for the disk data plane. The block
    /// range is sharded into this many contiguous word-aligned
    /// [`block_bitmap::FlatBitmap`] shards; each stream drains its own
    /// shard, interleaved round-robin. Aggregate bandwidth, ledger
    /// accounting, and downtime are identical to a single stream under
    /// the same seed — sharding changes *which* block crosses next, never
    /// how many cross per step.
    pub streams: usize,
    /// Content-addressed transfer: ship a 16-byte reference instead of a
    /// full block whenever the destination provably already holds the
    /// identical content (template clones, blocks re-sent unchanged).
    /// With dedup off — or when no block qualifies — the data plane is
    /// bit-identical to the classic one, floats and all.
    pub dedup: bool,
    /// Model wire compression of residual full-block payloads. The
    /// simulation carries no real bytes, so this affects only the
    /// `wire.*` accounting (a fixed 2:1 modeled ratio); ledger bytes and
    /// timing are unchanged.
    pub compress: bool,
    /// Multi-source block fetching: owed full blocks that a fresh
    /// replica holder can serve are pulled from peer hosts instead of
    /// the source. With multisource off — or when no peers are attached
    /// or no owed block is fresh anywhere else — the data plane is
    /// bit-identical to the single-source engine, floats and all.
    pub multisource: bool,
    /// NIC bandwidth each peer holder offers a multi-source migration,
    /// bytes/second. The destination's ingest (its migration net rate)
    /// and this per-holder budget feed `max_min_share`, so K-peer
    /// fan-in never starves the holders' resident workloads.
    pub peer_budget: f64,
    /// RNG seed — every run with the same config and seed is
    /// bit-identical.
    pub seed: u64,
    /// Horizon for abandoning a post-copy that cannot converge (only the
    /// on-demand baseline hits this).
    pub postcopy_horizon: SimDuration,
}

impl MigrationConfig {
    /// The paper's testbed: 40 GB VBD, 512 MB guest, one vCPU, Gigabit
    /// LAN, SATA-class disk (~110 MB/s), 3-iteration-scale pre-copy caps.
    pub fn paper_testbed() -> Self {
        Self {
            // The paper's VBD is 40 GB = 40·10⁹ bytes ("39070MB"):
            disk_blocks: 9_765_625,
            block_size: 4096,
            mem_pages: 131_072, // 512 MiB at 4 KiB
            vcpus: 1,
            link: Link::gigabit(),
            rate_limit: None,
            disk_capacity: 137.7 * 1024.0 * 1024.0,
            seek_penalty: 1.2,
            migration_throughput_cap: 50.0 * 1024.0 * 1024.0,
            max_disk_iterations: 8,
            disk_dirty_threshold: 256,
            max_mem_iterations: 10,
            mem_dirty_threshold: 512,
            step: SimDuration::from_millis(250),
            suspend_overhead: SimDuration::from_millis(15),
            resume_overhead: SimDuration::from_millis(25),
            postcopy_fixed_overhead: SimDuration::from_millis(300),
            bitmap: BitmapKind::Flat,
            streams: 1,
            dedup: true,
            compress: true,
            multisource: true,
            peer_budget: 50.0 * 1024.0 * 1024.0,
            seed: 2008,
            postcopy_horizon: SimDuration::from_secs(3600),
        }
    }

    /// A scaled-down configuration for fast tests: 256 MiB disk, 32 MiB
    /// guest, same rates.
    pub fn small() -> Self {
        Self {
            disk_blocks: 65_536, // 256 MiB
            mem_pages: 8_192,    // 32 MiB
            disk_dirty_threshold: 64,
            mem_dirty_threshold: 128,
            step: SimDuration::from_millis(100),
            ..Self::paper_testbed()
        }
    }

    /// Effective network rate available to the migration, bytes/second.
    pub fn migration_net_rate(&self) -> f64 {
        match self.rate_limit {
            Some(l) => self.link.bandwidth().min(l),
            None => self.link.bandwidth(),
        }
    }

    /// Demand the disk-copy stream places on the disk: the network rate
    /// further capped by the migration pipeline ceiling.
    pub fn disk_stream_demand(&self) -> f64 {
        self.migration_net_rate().min(self.migration_throughput_cap)
    }

    /// Disk capacity in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_blocks as u64 * self.block_size
    }

    /// Validate invariants; call before running an engine.
    ///
    /// # Panics
    /// Panics on nonsensical configurations (zero-sized disk or memory,
    /// zero step, non-positive capacities).
    pub fn validate(&self) {
        assert!(self.disk_blocks > 0, "disk must have at least one block");
        assert!(self.block_size > 0, "block size must be non-zero");
        assert!(self.mem_pages > 0, "guest memory must be non-empty");
        assert!(self.vcpus > 0, "guest needs at least one vCPU");
        assert!(self.disk_capacity > 0.0, "disk capacity must be positive");
        assert!(
            self.step > SimDuration::ZERO,
            "simulation step must be positive"
        );
        assert!(
            self.max_disk_iterations >= 1,
            "need at least one disk pre-copy iteration"
        );
        assert!(self.streams >= 1, "need at least one transport stream");
        assert!(
            self.peer_budget >= 0.0 && self.peer_budget.is_finite(),
            "peer budget must be finite and non-negative"
        );
        if let Some(l) = self.rate_limit {
            assert!(l > 0.0, "rate limit must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_geometry() {
        let c = MigrationConfig::paper_testbed();
        c.validate();
        assert_eq!(c.disk_bytes(), 40_000_000_000);
        assert_eq!(c.mem_pages * 4096, 512 * 1024 * 1024);
        // Unlimited: migration may use the whole link.
        assert_eq!(c.migration_net_rate(), c.link.bandwidth());
    }

    #[test]
    fn rate_limit_caps_net_rate() {
        let mut c = MigrationConfig::small();
        c.rate_limit = Some(1_000_000.0);
        c.validate();
        assert_eq!(c.migration_net_rate(), 1_000_000.0);
        // A limit above the link speed has no effect.
        c.rate_limit = Some(1e12);
        assert_eq!(c.migration_net_rate(), c.link.bandwidth());
    }

    #[test]
    fn precopy_stops_on_convergence_cap_or_a_dirty_rate_it_cannot_outrun() {
        // Converged: at most the threshold left dirty.
        assert!(precopy_stops(1, 8, 1000, 64, 64));
        assert!(!precopy_stops(1, 8, 1000, 65, 64));
        // Capped: the last permitted pass stops whatever it left.
        assert!(precopy_stops(8, 8, 1000, 900, 64));
        // Not converging: the pass dirtied at least what it sent.
        assert!(precopy_stops(2, 8, 1609, 2048, 256));
        assert!(precopy_stops(2, 8, 500, 500, 256));
        assert!(!precopy_stops(2, 8, 501, 500, 256));
        // A pass that sent nothing proves nothing about the rate.
        assert!(!precopy_stops(1, 8, 0, 500, 256));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_disk_rejected() {
        let c = MigrationConfig {
            disk_blocks: 0,
            ..MigrationConfig::small()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one transport stream")]
    fn zero_streams_rejected() {
        let c = MigrationConfig {
            streams: 0,
            ..MigrationConfig::small()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "rate limit must be positive")]
    fn zero_rate_limit_rejected() {
        let c = MigrationConfig {
            rate_limit: Some(0.0),
            ..MigrationConfig::small()
        };
        c.validate();
    }
}
