//! Diabolical I/O workload (Bonnie++-like).
//!
//! §VI-C-3 migrates the VM while Bonnie++ runs: "a benchmark suite that
//! performs a number of simple tests for hard disk drive and file system
//! performance, including sequential output, sequential input, random
//! seeks…". It is the *closed-loop* workload: it issues I/O as fast as the
//! disk allows, so the migration stream and the benchmark fight for disk
//! bandwidth and both slow down — the mechanism behind Figure 6 and the
//! rate-limiting experiment.
//!
//! The phase structure mirrors Bonnie++: per-character sequential output
//! (`putc`), block sequential output (`write(2)`), `rewrite`, per-character
//! sequential input (`getc`), block sequential input, and random seeks.
//! Nominal standalone rates are taken from the paper's own Table III
//! (putc 47 740 KB/s, write(2) 96 122 KB/s, rewrite 26 125 KB/s).
//!
//! The test file is sized at twice guest RAM (Bonnie++'s rule: 1 GB for
//! the paper's 512 MB guest). `putc` and `write(2)` recreate the file —
//! the block allocator hands back a different extent — and `rewrite`
//! rewrites it in place, which lands the whole-run rewrite ratio near the
//! paper's 35.6 %.

use des::{SimDuration, SimRng};
use vmstate::WssModel;

use crate::{OpKind, TimedOp, Workload};

/// Bonnie++ phase labels, matching the series of Figure 6 / Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BonniePhase {
    /// Per-character sequential output.
    Putc,
    /// Block sequential output via `write(2)`.
    WriteBlock,
    /// Read-modify-write over the existing file.
    Rewrite,
    /// Per-character sequential input.
    Getc,
    /// Block sequential input.
    ReadBlock,
    /// Random seeks (mostly reads, ~10 % writes).
    Seeks,
}

impl BonniePhase {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Self::Putc => "putc",
            Self::WriteBlock => "write(2)",
            Self::Rewrite => "rewrite",
            Self::Getc => "getc",
            Self::ReadBlock => "read",
            Self::Seeks => "seeks",
        }
    }
}

const PHASES: [BonniePhase; 6] = [
    BonniePhase::Putc,
    BonniePhase::WriteBlock,
    BonniePhase::Rewrite,
    BonniePhase::Getc,
    BonniePhase::ReadBlock,
    BonniePhase::Seeks,
];

/// Closed-loop diabolical workload. See module docs for calibration.
#[derive(Debug)]
pub struct DiabolicalWorkload {
    /// putc/getc file extent (blocks).
    region_a: (u64, u64),
    /// write(2)/rewrite/read/seek file extent (blocks).
    region_b: (u64, u64),
    file_bytes: f64,
    phase_idx: usize,
    /// File bytes processed within the current phase.
    progress: f64,
    block_carry: f64,
}

impl DiabolicalWorkload {
    /// Paper-calibrated instance for a disk of `num_blocks` 4 KiB blocks.
    /// Bonnie++'s file is twice guest RAM — 1 GB on the paper's testbed;
    /// on smaller test disks it scales down to an eighth of the disk.
    ///
    /// # Panics
    /// Panics when the disk is smaller than ~32 MiB.
    pub fn paper_default(num_blocks: u64) -> Self {
        assert!(
            num_blocks >= 8_192,
            "diabolical workload needs at least ~32 MiB of disk"
        );
        // Bonnie++ sizes its file at twice guest RAM (1 GB for the 512 MB
        // guest); the run recreates it across phases, so each of the two
        // file extents is 512 MB.
        let file = (512 * 1024 * 1024u64).min(num_blocks / 8 * 4096);
        Self::with_file_size(num_blocks, file)
    }

    /// Instance with an explicit Bonnie++ file size in bytes.
    ///
    /// # Panics
    /// Panics when the disk cannot hold two files of that size.
    pub fn with_file_size(num_blocks: u64, file_bytes: u64) -> Self {
        let file_blocks = file_bytes / 4096;
        assert!(
            num_blocks >= file_blocks * 4,
            "disk too small for two {file_bytes}-byte test files"
        );
        let a_start = num_blocks * 2 / 5;
        let b_start = num_blocks * 3 / 5;
        Self {
            region_a: (a_start, file_blocks),
            region_b: (b_start, file_blocks),
            file_bytes: file_bytes as f64,
            phase_idx: 0,
            progress: 0.0,
            block_carry: 0.0,
        }
    }

    /// Current Bonnie++ phase.
    pub fn phase(&self) -> BonniePhase {
        PHASES[self.phase_idx]
    }

    /// Nominal standalone client-visible throughput of `phase`, bytes/s
    /// (the paper's Table III "Normal" row).
    pub fn nominal_visible(phase: BonniePhase) -> f64 {
        match phase {
            BonniePhase::Putc => 47_740.0 * 1024.0,
            BonniePhase::WriteBlock => 96_122.0 * 1024.0,
            BonniePhase::Rewrite => 26_125.0 * 1024.0,
            BonniePhase::Getc => 47_000.0 * 1024.0,
            BonniePhase::ReadBlock => 92_000.0 * 1024.0,
            BonniePhase::Seeks => 8_000.0 * 1024.0,
        }
    }

    /// Disk I/O bytes per client-visible byte (rewrite moves two bytes of
    /// disk I/O per file byte: a read plus a write).
    fn io_factor(phase: BonniePhase) -> f64 {
        match phase {
            BonniePhase::Rewrite => 2.0,
            _ => 1.0,
        }
    }

    /// Fraction of the phase's disk I/O that is writes.
    fn write_frac(phase: BonniePhase) -> f64 {
        match phase {
            BonniePhase::Putc | BonniePhase::WriteBlock => 1.0,
            BonniePhase::Rewrite => 0.5,
            BonniePhase::Getc | BonniePhase::ReadBlock => 0.0,
            BonniePhase::Seeks => 0.1,
        }
    }

    /// File bytes a phase processes before completing. Bonnie++'s seek
    /// phase performs a fixed number of random accesses, not a full file
    /// pass — a small fraction of the file's volume.
    fn phase_bytes(&self, phase: BonniePhase) -> f64 {
        match phase {
            BonniePhase::Seeks => self.file_bytes * 0.05,
            _ => self.file_bytes,
        }
    }

    fn region_for(&self, phase: BonniePhase) -> (u64, u64) {
        match phase {
            BonniePhase::Putc | BonniePhase::Getc => self.region_a,
            _ => self.region_b,
        }
    }
}

impl Workload for DiabolicalWorkload {
    fn name(&self) -> &'static str {
        "diabolical"
    }

    fn disk_demand(&self) -> f64 {
        let p = self.phase();
        Self::nominal_visible(p) * Self::io_factor(p)
    }

    fn closed_loop(&self) -> bool {
        true
    }

    fn draw_into(
        &mut self,
        dt: SimDuration,
        achieved: f64,
        write_rng: &mut SimRng,
        mut read_rng: Option<&mut SimRng>,
        ops: &mut Vec<TimedOp>,
    ) {
        let mut elapsed = 0.0;
        let dt_s = dt.as_secs_f64();
        // Walk phase by phase: the achieved disk rate bounds progress; a
        // finished phase hands the remaining time to the next one.
        while elapsed < dt_s - 1e-12 {
            let phase = self.phase();
            let io_rate = achieved.min(self.disk_demand());
            if io_rate <= 0.0 {
                break; // fully starved: no progress this interval
            }
            let file_rate = io_rate / Self::io_factor(phase);
            let remaining_file = self.phase_bytes(phase) - self.progress;
            let time_to_finish = remaining_file / file_rate;
            let span = time_to_finish.min(dt_s - elapsed);
            let file_bytes_done = file_rate * span;

            // Convert processed file bytes into block ops.
            let raw_blocks = self.block_carry + file_bytes_done / 4096.0;
            let nblocks = raw_blocks.floor() as u64;
            self.block_carry = raw_blocks - nblocks as f64;
            let (rstart, rlen) = self.region_for(phase);
            let start_block = rstart + (self.progress / 4096.0) as u64 % rlen;
            let wf = Self::write_frac(phase);
            let reads = wf < 1.0 && read_rng.is_some();
            if wf > 0.0 || reads {
                for i in 0..nblocks {
                    let at = SimDuration::from_secs_f64(
                        elapsed + span * (i as f64 + 0.5) / nblocks as f64,
                    );
                    let seq = rstart + (start_block - rstart + i) % rlen;
                    match phase {
                        BonniePhase::Rewrite => {
                            // Read-modify-write: both ops on the same block.
                            if reads {
                                ops.push(TimedOp::new(at, OpKind::Read { block: seq }));
                            }
                            ops.push(TimedOp::new(at, OpKind::Write { block: seq }));
                        }
                        // A seek is a write with probability `wf`, at a
                        // block of its own stream's choosing.
                        BonniePhase::Seeks => {
                            if write_rng.chance(wf) {
                                let block = rstart + write_rng.below(rlen);
                                ops.push(TimedOp::new(at, OpKind::Write { block }));
                            } else if let Some(rng) = read_rng.as_deref_mut() {
                                let block = rstart + rng.below(rlen);
                                ops.push(TimedOp::new(at, OpKind::Read { block }));
                            }
                        }
                        _ if wf >= 1.0 => ops.push(TimedOp::new(at, OpKind::Write { block: seq })),
                        _ => ops.push(TimedOp::new(at, OpKind::Read { block: seq })),
                    }
                }
            }

            self.progress += file_bytes_done;
            elapsed += span;
            if self.progress >= self.phase_bytes(phase) - 1.0 {
                self.progress = 0.0;
                self.phase_idx = (self.phase_idx + 1) % PHASES.len();
            }
        }
    }

    fn client_throughput(&self, achieved: f64) -> f64 {
        let p = self.phase();
        (achieved / Self::io_factor(p)).min(Self::nominal_visible(p))
    }

    fn wss_model(&self, num_pages: usize) -> WssModel {
        // Page-cache churn: a tight, furiously rewritten hot set (block
        // buffers) that memory pre-copy can never fully flush — the reason
        // the paper's diabolical downtime (110 ms) is ~2x the web server's.
        WssModel::new(num_pages, 0.023, 0.98, 50_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const BLOCKS_40GB: u64 = 10 * 1024 * 1024;

    fn run_for(
        w: &mut DiabolicalWorkload,
        secs: u64,
        achieved: f64,
        rng: &mut SimRng,
    ) -> Vec<TimedOp> {
        let mut all = Vec::new();
        for _ in 0..secs {
            all.extend(w.ops_for(SimDuration::from_secs(1), achieved, rng));
        }
        all
    }

    #[test]
    fn phases_cycle_in_bonnie_order() {
        let mut w = DiabolicalWorkload::with_file_size(BLOCKS_40GB, 64 * 1024 * 1024);
        let mut rng = SimRng::new(1);
        let mut seen = vec![w.phase()];
        // Drive at full demand until we've wrapped the cycle. Steps must
        // be shorter than the shortest phase (seeks) to observe them all.
        for _ in 0..20_000 {
            let demand = w.disk_demand();
            w.ops_for(SimDuration::from_millis(100), demand, &mut rng);
            if *seen.last().unwrap() != w.phase() {
                seen.push(w.phase());
            }
            if seen.len() > 6 {
                break;
            }
        }
        assert_eq!(
            &seen[..7.min(seen.len())],
            &[
                BonniePhase::Putc,
                BonniePhase::WriteBlock,
                BonniePhase::Rewrite,
                BonniePhase::Getc,
                BonniePhase::ReadBlock,
                BonniePhase::Seeks,
                BonniePhase::Putc,
            ]
        );
    }

    #[test]
    fn closed_loop_volume_scales_with_achieved_rate() {
        // Drive the disk below every phase's nominal rate so the disk is
        // the binding constraint (putc alone is CPU-bound at ~47 MB/s).
        let mut w1 = DiabolicalWorkload::paper_default(BLOCKS_40GB);
        let mut w2 = DiabolicalWorkload::paper_default(BLOCKS_40GB);
        let mut rng1 = SimRng::new(2);
        let mut rng2 = SimRng::new(2);
        let full = run_for(&mut w1, 5, 20e6, &mut rng1).len();
        let half = run_for(&mut w2, 5, 10e6, &mut rng2).len();
        let ratio = full as f64 / half as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rewrite_ratio_near_paper_value() {
        // One full Bonnie++ cycle: putc writes file A, write(2) writes
        // file B, rewrite rewrites file B, seeks re-hit file B
        // => ratio ≈ 35 % (paper: 35.6 %).
        let mut w = DiabolicalWorkload::with_file_size(BLOCKS_40GB, 32 * 1024 * 1024);
        let mut rng = SimRng::new(3);
        let mut seen = HashSet::new();
        let mut rewrites = 0usize;
        let mut writes = 0usize;
        let mut left_putc = false;
        // Collect exactly one phase cycle (the paper measures one run).
        loop {
            if w.phase() != BonniePhase::Putc {
                left_putc = true;
            } else if left_putc {
                break;
            }
            let demand = w.disk_demand();
            for op in w.ops_for(SimDuration::from_millis(200), demand, &mut rng) {
                if let OpKind::Write { block } = op.kind {
                    writes += 1;
                    if !seen.insert(block) {
                        rewrites += 1;
                    }
                }
            }
        }
        let ratio = rewrites as f64 / writes as f64;
        assert!((0.28..0.43).contains(&ratio), "rewrite ratio {ratio}");
    }

    #[test]
    fn starved_disk_generates_nothing() {
        let mut w = DiabolicalWorkload::paper_default(BLOCKS_40GB);
        let mut rng = SimRng::new(4);
        assert!(w
            .ops_for(SimDuration::from_secs(1), 0.0, &mut rng)
            .is_empty());
    }

    #[test]
    fn client_throughput_caps_at_nominal() {
        let w = DiabolicalWorkload::paper_default(BLOCKS_40GB);
        // Phase 0 is putc (nominal ~47 MB/s): a faster disk doesn't help.
        let putc_nominal = DiabolicalWorkload::nominal_visible(BonniePhase::Putc);
        assert_eq!(w.client_throughput(200e6), putc_nominal);
        assert!(w.client_throughput(20e6) < putc_nominal);
    }

    #[test]
    fn table3_normal_rates_encoded() {
        assert_eq!(
            DiabolicalWorkload::nominal_visible(BonniePhase::Putc),
            47_740.0 * 1024.0
        );
        assert_eq!(
            DiabolicalWorkload::nominal_visible(BonniePhase::WriteBlock),
            96_122.0 * 1024.0
        );
        assert_eq!(
            DiabolicalWorkload::nominal_visible(BonniePhase::Rewrite),
            26_125.0 * 1024.0
        );
    }

    #[test]
    fn ops_confined_to_file_regions() {
        let mut w = DiabolicalWorkload::with_file_size(BLOCKS_40GB, 16 * 1024 * 1024);
        let (a0, alen) = w.region_a;
        let (b0, blen) = w.region_b;
        let mut rng = SimRng::new(5);
        for op in run_for(&mut w, 30, 60e6, &mut rng) {
            let b = op.kind.block();
            let in_a = (a0..a0 + alen).contains(&b);
            let in_b = (b0..b0 + blen).contains(&b);
            assert!(in_a || in_b, "block {b} outside both regions");
        }
    }
}
