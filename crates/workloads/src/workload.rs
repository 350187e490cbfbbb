//! The workload interface consumed by both migration engines.

use des::{SimDuration, SimRng};
use vmstate::WssModel;

use crate::TimedOp;

/// A guest workload: a deterministic generator of block-granular disk
/// operations plus the demand/throughput model the contention simulation
/// needs.
///
/// Time is divided by the engine into small intervals. For each interval
/// the engine computes the disk throughput the workload *achieves* (its
/// demand, max-min-shared against the migration stream) and asks the
/// workload for the operations it performs in that interval at that
/// achieved rate. Closed-loop workloads (Bonnie++) scale their operation
/// volume with the achieved rate; open-loop ones (video streaming) issue a
/// fixed schedule regardless.
pub trait Workload: Send {
    /// Short identifier used in reports ("web", "video", "diabolical").
    fn name(&self) -> &'static str;

    /// Demand placed on the disk when unimpeded, in bytes/second.
    fn disk_demand(&self) -> f64;

    /// `true` when the workload issues I/O as fast as the disk allows
    /// (its op volume scales with the achieved rate); `false` when it
    /// follows a fixed schedule.
    fn closed_loop(&self) -> bool;

    /// Append to `out` the operations performed during an interval of
    /// `dt` in which the workload achieved `achieved` bytes/second of disk
    /// throughput: its writes, drawn on `write_rng`, and, when `read_rng`
    /// is given, its reads, drawn on that stream alone. Offsets lie in
    /// `[0, dt)`; what `out` already holds is kept. Whether reads are
    /// asked for moves neither the write stream nor any state a later
    /// write is drawn from, so an engine that uses no read draws none.
    /// Engines call this through [`crate::Guest`], which owns the streams.
    fn draw_into(
        &mut self,
        dt: SimDuration,
        achieved: f64,
        write_rng: &mut SimRng,
        read_rng: Option<&mut SimRng>,
        out: &mut Vec<TimedOp>,
    );

    /// Every op of an interval, writes and reads, in a fresh vector: the
    /// writes drawn on `rng`, the reads on a stream forked from it. For
    /// tests and one-off callers; the lint zones ban it (`clippy.toml`).
    fn ops_for(&mut self, dt: SimDuration, achieved: f64, rng: &mut SimRng) -> Vec<TimedOp> {
        let mut reads = rng.fork(crate::guest::READS);
        let mut out = Vec::new();
        self.draw_into(dt, achieved, rng, Some(&mut reads), &mut out);
        out
    }

    /// Client-observed service throughput (bytes/second) when the workload
    /// achieves `achieved` bytes/second at the disk. This is the y-axis of
    /// Figures 5 and 6.
    fn client_throughput(&self, achieved: f64) -> f64;

    /// Memory-dirtying model for a guest with `num_pages` pages.
    fn wss_model(&self, num_pages: usize) -> WssModel;
}

/// The paper's workload menu, as a factory enum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// SPECweb2005 Banking-like dynamic web server.
    #[default]
    Web,
    /// Samba video-streaming server.
    Video,
    /// Bonnie++-like diabolical I/O server.
    Diabolical,
    /// Linux kernel build (used for the locality measurement).
    KernelBuild,
    /// No guest I/O at all (baseline / idle control).
    Idle,
}

impl WorkloadKind {
    /// All kinds, for sweeps.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Web,
        WorkloadKind::Video,
        WorkloadKind::Diabolical,
        WorkloadKind::KernelBuild,
        WorkloadKind::Idle,
    ];

    /// The three workloads of Table I.
    pub const TABLE1: [WorkloadKind; 3] = [
        WorkloadKind::Web,
        WorkloadKind::Video,
        WorkloadKind::Diabolical,
    ];

    /// Instantiate the workload for a disk of `num_blocks` 4 KiB blocks.
    pub fn build(self, num_blocks: u64) -> Box<dyn Workload> {
        match self {
            WorkloadKind::Web => Box::new(crate::WebServerWorkload::paper_default(num_blocks)),
            WorkloadKind::Video => Box::new(crate::VideoStreamWorkload::paper_default(num_blocks)),
            WorkloadKind::Diabolical => {
                Box::new(crate::DiabolicalWorkload::paper_default(num_blocks))
            }
            WorkloadKind::KernelBuild => {
                Box::new(crate::KernelBuildWorkload::paper_default(num_blocks))
            }
            WorkloadKind::Idle => Box::new(IdleWorkload),
        }
    }

    /// Report label matching the paper's table headings.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Web => "Dynamic web server",
            WorkloadKind::Video => "Low latency server",
            WorkloadKind::Diabolical => "Diabolical server",
            WorkloadKind::KernelBuild => "Kernel build",
            WorkloadKind::Idle => "Idle",
        }
    }
}

/// A guest that performs no I/O and dirties no memory.
#[derive(Debug, Clone, Copy)]
pub struct IdleWorkload;

impl Workload for IdleWorkload {
    fn name(&self) -> &'static str {
        "idle"
    }

    fn disk_demand(&self) -> f64 {
        0.0
    }

    fn closed_loop(&self) -> bool {
        false
    }

    fn draw_into(
        &mut self,
        _: SimDuration,
        _: f64,
        _: &mut SimRng,
        _: Option<&mut SimRng>,
        _: &mut Vec<TimedOp>,
    ) {
    }

    fn client_throughput(&self, _achieved: f64) -> f64 {
        0.0
    }

    fn wss_model(&self, num_pages: usize) -> WssModel {
        WssModel::idle(num_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCKS_40GB: u64 = 10 * 1024 * 1024;

    #[test]
    fn factory_builds_every_kind() {
        for kind in WorkloadKind::ALL {
            let w = kind.build(BLOCKS_40GB);
            assert!(!w.name().is_empty());
            assert!(w.disk_demand() >= 0.0);
        }
    }

    #[test]
    fn idle_workload_is_silent() {
        let mut w = IdleWorkload;
        let mut rng = SimRng::new(0);
        assert!(w
            .ops_for(SimDuration::from_secs(10), 0.0, &mut rng)
            .is_empty());
        assert_eq!(w.client_throughput(1e9), 0.0);
        assert!(!w.closed_loop());
    }

    #[test]
    fn labels_match_paper_headings() {
        assert_eq!(WorkloadKind::Web.label(), "Dynamic web server");
        assert_eq!(WorkloadKind::Video.label(), "Low latency server");
        assert_eq!(WorkloadKind::Diabolical.label(), "Diabolical server");
    }
}
