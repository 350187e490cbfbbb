//! Migration outcome reports — the numbers behind every table and figure.

use serde::Serialize;

use des::SimDuration;
use simnet::proto::{TransferLedger, WireStats};
use workloads::probe::Sample;

pub use telemetry::IterationStats;

/// Duration of each migration phase, seconds: the phase spans of the
/// run's [`telemetry::Fold`].
pub type PhaseTimings = telemetry::PhaseDurations;

/// Post-copy phase statistics.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PostCopyStats {
    /// Phase duration in seconds (the paper reports 349 ms / 380 ms).
    pub duration_secs: f64,
    /// Dirty blocks outstanding when the VM resumed.
    pub remaining_at_resume: u64,
    /// Blocks pushed by the source.
    pub pushed: u64,
    /// Blocks pulled on demand by guest reads.
    pub pulled: u64,
    /// Pushed blocks dropped because a destination write superseded them.
    pub dropped: u64,
    /// Largest pending-read queue population.
    pub pending_high_water: u64,
}

/// Bytes one peer holder contributed to a multi-source migration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PeerBytes {
    /// Peer host id.
    pub host: u64,
    /// Full blocks fetched from this peer.
    pub blocks: u64,
    /// Wire bytes those blocks cost.
    pub bytes: u64,
}

/// Multi-source block store accounting: where the owed full blocks
/// actually came from. All zeros/empty for single-source runs and
/// feature-off runs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MultiSourceReport {
    /// Fetch plans computed (one per worklist that had a fresh peer).
    pub plans: u64,
    /// Owed full blocks routed to the migration source.
    pub planned_source: u64,
    /// Owed full blocks routed to peer holders.
    pub planned_peer: u64,
    /// Per-peer contribution, ascending host id.
    pub peer_bytes: Vec<PeerBytes>,
    /// Source-death failovers completed from surviving holders.
    pub failovers: u64,
}

impl MultiSourceReport {
    /// Fraction of owed full blocks that arrived from non-source peers
    /// (the E14 headline number).
    pub fn peer_fraction(&self) -> f64 {
        let fulls = self.planned_source + self.planned_peer;
        if fulls == 0 {
            0.0
        } else {
            self.planned_peer as f64 / fulls as f64
        }
    }

    /// Total full blocks fetched from peers.
    pub fn peer_blocks(&self) -> u64 {
        self.peer_bytes.iter().map(|p| p.blocks).sum()
    }
}

/// Complete report of one migration run.
#[derive(Debug, Clone, Serialize)]
pub struct MigrationReport {
    /// Engine that produced the report ("tpm", "im", "freeze-and-copy",
    /// "on-demand", "delta-queue").
    pub scheme: String,
    /// Workload running in the guest.
    pub workload: String,
    /// Total migration time: start to full synchronization (§III-A).
    pub total_time_secs: f64,
    /// Downtime: suspend on the source to resume on the destination.
    pub downtime_ms: f64,
    /// Disruption time: client-observed degradation (§III-A).
    pub disruption_secs: f64,
    /// Exact per-category byte counts.
    pub ledger: TransferLedger,
    /// Dedup/compression accounting for the disk pre-copy data plane:
    /// raw block bytes versus bytes that actually crossed, plus how many
    /// blocks went as references or compressed frames. All zeros for
    /// baselines and feature-off runs.
    pub wire: WireStats,
    /// Disk pre-copy iterations.
    pub disk_iterations: Vec<IterationStats>,
    /// Memory pre-copy iterations.
    pub mem_iterations: Vec<IterationStats>,
    /// Post-copy statistics.
    pub postcopy: PostCopyStats,
    /// Per-phase duration breakdown.
    pub phases: PhaseTimings,
    /// Client throughput timeline (Figures 5 & 6).
    pub timeline: Vec<Sample>,
    /// Destination I/O blocked time (delta-queue baseline only; zero for
    /// TPM — the property the paper claims).
    pub io_blocked_secs: f64,
    /// Blocks never synchronized at the report horizon (on-demand
    /// baseline's residual dependency; zero for TPM).
    pub residual_blocks: u64,
    /// Forwarded delta records that were redundant rewrites of an
    /// already-forwarded block (delta-queue baseline only; structurally
    /// zero for TPM's bitmap).
    pub redundant_deltas: u64,
    /// Disk pre-copy blocks carried by each parallel stream (one entry
    /// per stream; a single entry for the classic one-stream data plane,
    /// empty for baselines that never shard).
    pub stream_blocks: Vec<u64>,
    /// Multi-source block store accounting (bytes-from-source vs
    /// bytes-from-peers); defaulted for single-source runs.
    pub multisource: MultiSourceReport,
    /// Whether the destination state verified equal to the source state
    /// (modulo post-resume guest writes).
    pub consistent: bool,
}

impl MigrationReport {
    /// Amount of migrated data in MB (the unit of Tables I & II; the
    /// paper uses decimal-ish MB for a "39 070 MB" 40 GB disk, i.e. MiB).
    pub fn migrated_mb(&self) -> f64 {
        self.ledger.total() as f64 / (1024.0 * 1024.0)
    }

    /// Disk blocks retransferred after the first pass (the paper quotes
    /// 6 680 for the web server, 610 for video).
    pub fn retransferred_blocks(&self) -> u64 {
        self.disk_iterations
            .iter()
            .skip(1)
            .map(|i| i.units_sent)
            .sum()
    }

    /// Total migration time in seconds.
    pub fn total_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.total_time_secs)
    }

    /// Multi-section plain-text rendering of the whole report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== {} migration of '{}' — {} ===",
            self.scheme,
            self.workload,
            if self.consistent {
                "CONSISTENT"
            } else {
                "INCONSISTENT"
            }
        );
        let _ = writeln!(
            out,
            "total {:.1}s | downtime {:.1}ms | disruption {:.1}s | data {:.1} MB",
            self.total_time_secs,
            self.downtime_ms,
            self.disruption_secs,
            self.migrated_mb()
        );
        let _ = writeln!(
            out,
            "phases: disk pre-copy {:.1}s, memory pre-copy {:.2}s, freeze {:.0}ms, post-copy {:.0}ms",
            self.phases.disk_precopy_secs,
            self.phases.mem_precopy_secs,
            self.phases.freeze_secs * 1000.0,
            self.phases.postcopy_secs * 1000.0,
        );
        if !self.disk_iterations.is_empty() {
            let _ = writeln!(out, "disk pre-copy iterations:");
            for it in &self.disk_iterations {
                let _ = writeln!(
                    out,
                    "  #{:<2} {:>10} blocks {:>9.1} MB {:>8.2}s  (dirtied meanwhile: {})",
                    it.index,
                    it.units_sent,
                    it.bytes as f64 / 1048576.0,
                    it.duration_secs,
                    it.dirty_at_end
                );
            }
        }
        if !self.mem_iterations.is_empty() {
            let _ = writeln!(out, "memory pre-copy iterations:");
            for it in &self.mem_iterations {
                let _ = writeln!(
                    out,
                    "  #{:<2} {:>10} pages  {:>9.1} MB {:>8.2}s  (dirtied meanwhile: {})",
                    it.index,
                    it.units_sent,
                    it.bytes as f64 / 1048576.0,
                    it.duration_secs,
                    it.dirty_at_end
                );
            }
        }
        let _ = writeln!(
            out,
            "post-copy: {} outstanding at resume — {} pushed, {} pulled, {} dropped (peak pending {})",
            self.postcopy.remaining_at_resume,
            self.postcopy.pushed,
            self.postcopy.pulled,
            self.postcopy.dropped,
            self.postcopy.pending_high_water,
        );
        use simnet::proto::Category as C;
        let mb = |c: C| self.ledger.get(c) as f64 / 1048576.0;
        let _ = writeln!(
            out,
            "wire: disk pre-copy {:.1} MB, push {:.3} MB, pull {:.3} MB, memory {:.1} MB, bitmap {} B, cpu {:.2} MB",
            mb(C::DiskPrecopy),
            mb(C::DiskPush),
            mb(C::DiskPull),
            mb(C::Memory),
            self.ledger.get(C::Bitmap),
            mb(C::Cpu),
        );
        if self.wire.blocks_deduped > 0 || self.wire.blocks_compressed > 0 {
            let _ = writeln!(
                out,
                "content-aware: {:.1} MB raw -> {:.1} MB sent ({:.1}% off the wire; {} deduped, {} compressed)",
                self.wire.bytes_raw as f64 / 1048576.0,
                self.wire.bytes_sent as f64 / 1048576.0,
                self.wire.reduction_pct(),
                self.wire.blocks_deduped,
                self.wire.blocks_compressed,
            );
        }
        if self.multisource.planned_peer > 0 || self.multisource.failovers > 0 {
            let _ = writeln!(
                out,
                "multi-source: {} fulls from {} peer(s), {} from source ({:.1}% off-source); {} failover(s)",
                self.multisource.planned_peer,
                self.multisource.peer_bytes.len(),
                self.multisource.planned_source,
                self.multisource.peer_fraction() * 100.0,
                self.multisource.failovers,
            );
            for p in &self.multisource.peer_bytes {
                let _ = writeln!(
                    out,
                    "  peer {:<4} {:>10} blocks {:>9.1} MB",
                    p.host,
                    p.blocks,
                    p.bytes as f64 / 1048576.0
                );
            }
        }
        if self.io_blocked_secs > 0.0 {
            let _ = writeln!(out, "destination I/O blocked: {:.2}s", self.io_blocked_secs);
        }
        if self.residual_blocks > 0 {
            let _ = writeln!(
                out,
                "RESIDUAL DEPENDENCY: {} blocks never synchronized",
                self.residual_blocks
            );
        }
        out
    }

    /// One-line summary, used by the repro harness.
    pub fn summary(&self) -> String {
        format!(
            "{:<12} {:<12} total={:>8.1}s downtime={:>7.1}ms data={:>9.0}MB iters={} postcopy={:.0}ms (push {} pull {} drop {}) consistent={}",
            self.scheme,
            self.workload,
            self.total_time_secs,
            self.downtime_ms,
            self.migrated_mb(),
            self.disk_iterations.len(),
            self.postcopy.duration_secs * 1000.0,
            self.postcopy.pushed,
            self.postcopy.pulled,
            self.postcopy.dropped,
            self.consistent,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::proto::Category;

    fn sample_report() -> MigrationReport {
        let mut ledger = TransferLedger::new();
        ledger.add(Category::DiskPrecopy, 40 * 1024 * 1024 * 1024);
        ledger.add(Category::Memory, 600 * 1024 * 1024);
        MigrationReport {
            scheme: "tpm".into(),
            workload: "web".into(),
            total_time_secs: 796.1,
            downtime_ms: 60.0,
            disruption_secs: 3.0,
            ledger,
            wire: WireStats::default(),
            disk_iterations: vec![
                IterationStats {
                    index: 1,
                    units_sent: 10_485_760,
                    bytes: 40 * 1024 * 1024 * 1024,
                    duration_secs: 790.0,
                    dirty_at_end: 6_618,
                },
                IterationStats {
                    index: 2,
                    units_sent: 6_618,
                    bytes: 6_618 * 4096,
                    duration_secs: 0.5,
                    dirty_at_end: 62,
                },
                IterationStats {
                    index: 3,
                    units_sent: 62,
                    bytes: 62 * 4096,
                    duration_secs: 0.01,
                    dirty_at_end: 62,
                },
            ],
            mem_iterations: vec![],
            phases: PhaseTimings {
                disk_precopy_secs: 790.51,
                mem_precopy_secs: 5.2,
                freeze_secs: 0.06,
                postcopy_secs: 0.349,
            },
            postcopy: PostCopyStats {
                duration_secs: 0.349,
                remaining_at_resume: 62,
                pushed: 61,
                pulled: 1,
                dropped: 0,
                pending_high_water: 1,
            },
            timeline: vec![],
            io_blocked_secs: 0.0,
            residual_blocks: 0,
            redundant_deltas: 0,
            stream_blocks: vec![10_485_760 + 6_618 + 62],
            multisource: MultiSourceReport::default(),
            consistent: true,
        }
    }

    #[test]
    fn migrated_mb_sums_ledger() {
        let r = sample_report();
        assert!((r.migrated_mb() - (40.0 * 1024.0 + 600.0)).abs() < 0.01);
    }

    #[test]
    fn retransferred_counts_after_first_pass() {
        let r = sample_report();
        assert_eq!(r.retransferred_blocks(), 6_618 + 62);
    }

    #[test]
    fn summary_mentions_key_metrics() {
        let s = sample_report().summary();
        assert!(s.contains("796.1s"));
        assert!(s.contains("60.0ms"));
        assert!(s.contains("consistent=true"));
    }

    #[test]
    fn render_covers_all_sections() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("CONSISTENT"));
        assert!(text.contains("downtime 60.0ms"));
        assert!(text.contains("disk pre-copy iterations:"));
        assert!(text.contains("6618"));
        assert!(text.contains("post-copy: 62 outstanding"));
        assert!(text.contains("wire: disk pre-copy"));
        // No residual / blocked sections for a clean TPM run.
        assert!(!text.contains("RESIDUAL"));
        assert!(!text.contains("I/O blocked"));
    }

    #[test]
    fn report_serializes_to_json() {
        let r = sample_report();
        let j = serde_json::to_string(&r).unwrap();
        assert!(j.contains("\"scheme\":\"tpm\""));
        assert!(j.contains("\"downtime_ms\":60.0"));
        assert!(j.contains("\"disk_precopy_secs\""));
    }

    #[test]
    fn phase_timings_sum_close_to_total() {
        let r = sample_report();
        let sum = r.phases.disk_precopy_secs
            + r.phases.mem_precopy_secs
            + r.phases.freeze_secs
            + r.phases.postcopy_secs;
        assert!((sum - r.total_time_secs).abs() < 1.0);
    }
}
