//! Migration engine configuration.

use std::time::Duration;

use des::SimDuration;
use simnet::capacity::seek_aware_share;
use simnet::Link;

use crate::testbed;

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

/// Configuration for a whole-system migration.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Disk capacity in 4 KiB blocks.
    pub disk_blocks: usize,
    /// Block size in bytes.
    pub block_size: u64,
    /// Guest memory pages (4 KiB each).
    pub mem_pages: usize,
    /// The migration network link.
    pub link: Link,
    /// Optional cap on the bandwidth the migration may use (§VI-C-3),
    /// bytes/second.
    pub rate_limit: Option<f64>,
    /// Stop disk pre-copy when an iteration ends with at most this many
    /// dirty blocks.
    pub disk_dirty_threshold: usize,
    /// Proceed to freeze-and-copy when the memory dirty set is at most
    /// this many pages.
    pub mem_dirty_threshold: usize,
    /// Simulation step for the time-sliced phases.
    pub step: SimDuration,
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
    /// RNG seed — every run with the same config and seed is
    /// bit-identical.
    pub seed: u64,
}

impl MigrationConfig {
    /// The paper's testbed ([`testbed`]): 40 GB VBD, 512 MB guest, one
    /// vCPU, Gigabit LAN, SATA-class disk.
    pub fn paper_testbed() -> Self {
        Self {
            // The paper's VBD is 40 GB = 40·10⁹ bytes ("39070MB"):
            disk_blocks: 9_765_625,
            block_size: testbed::BLOCK_SIZE,
            mem_pages: 131_072, // 512 MiB at 4 KiB
            link: Link::gigabit(),
            rate_limit: None,
            disk_dirty_threshold: testbed::DIRTY_THRESHOLD,
            mem_dirty_threshold: testbed::MEM_DIRTY_THRESHOLD,
            step: testbed::STEP,
            dedup: true,
            compress: true,
            multisource: true,
            seed: 2008,
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
        self.migration_net_rate().min(testbed::PIPELINE_CAP)
    }

    /// How a testbed disk splits, seek-aware, between a guest asking
    /// `demand` bytes/second and the disk-copy stream: `(guest,
    /// migration)` shares, bytes/second.
    pub fn disk_shares(&self, demand: f64) -> (f64, f64) {
        let stream = self.disk_stream_demand();
        let a = seek_aware_share(
            testbed::DISK_CAPACITY,
            testbed::SEEK_PENALTY,
            &[demand],
            &[stream],
        );
        (a[0], a[1])
    }

    /// Disk capacity in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_blocks as u64 * self.block_size
    }

    /// Validate invariants; call before running an engine.
    ///
    /// # Panics
    /// Panics on nonsensical configurations (zero-sized disk or memory,
    /// zero step, a non-positive rate limit).
    pub fn validate(&self) {
        assert!(self.disk_blocks > 0, "disk must have at least one block");
        assert!(self.block_size > 0, "block size must be non-zero");
        assert!(self.mem_pages > 0, "guest memory must be non-empty");
        assert!(
            self.step > SimDuration::ZERO,
            "simulation step must be positive"
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
    #[should_panic(expected = "at least one block")]
    fn zero_disk_rejected() {
        let c = MigrationConfig {
            disk_blocks: 0,
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
