//! Kernel-build workload.
//!
//! §IV-A-2: "When we make a Linux kernel, about 11% of the write
//! operations rewrite those blocks written before." The build is the
//! paper's locality yardstick rather than a migration workload, but it is
//! a realistic moderate-I/O guest: a compiler streaming out object files
//! (fresh sequential-ish blocks) with occasional rewrites of headers,
//! dependency files and logs.

use des::dist::SequentialCursor;
use des::{SimDuration, SimRng};
use vmstate::WssModel;

use crate::pattern::Placement;
use crate::web::take_events;
use crate::{OpKind, TimedOp, Workload, WritePattern};

/// Linux-kernel-build-like workload: ~3 MB/s of writes at an 11 % rewrite
/// ratio, plus source-tree reads.
#[derive(Debug)]
pub struct KernelBuildWorkload {
    writes: WritePattern,
    source_region: (u64, u64),
    write_rate: f64,
    read_rate: f64,
    write_carry: f64,
    read_carry: f64,
    disk_demand: f64,
}

impl KernelBuildWorkload {
    /// Paper-calibrated instance for a disk of `num_blocks` 4 KiB blocks.
    /// At paper scale the build output region is 2 GiB; on smaller test
    /// disks both regions scale down proportionally.
    ///
    /// # Panics
    /// Panics when the disk is smaller than ~32 MiB.
    pub fn paper_default(num_blocks: u64) -> Self {
        assert!(
            num_blocks >= 8_192,
            "kernel build workload needs at least ~32 MiB of disk"
        );
        // Build output streams into a scratch region; sources are read
        // from a region below it.
        let out_start = num_blocks / 2;
        let out_len = 524_288.min(num_blocks / 4);
        let src_start = num_blocks / 8;
        let src_len = 262_144.min(num_blocks / 4);
        let write_rate = 700.0; // blocks/s ≈ 2.9 MB/s of writes
        let read_rate = 400.0; // blocks/s ≈ 1.6 MB/s of reads
        Self {
            writes: WritePattern::new(
                Placement::Sequential(SequentialCursor::new(out_start, out_len)),
                0.11,
                16_384,
            ),
            source_region: (src_start, src_len),
            write_rate,
            read_rate,
            write_carry: 0.0,
            read_carry: 0.0,
            disk_demand: (write_rate + read_rate) * 4096.0,
        }
    }
}

impl Workload for KernelBuildWorkload {
    fn name(&self) -> &'static str {
        "kernel-build"
    }

    fn disk_demand(&self) -> f64 {
        self.disk_demand
    }

    fn closed_loop(&self) -> bool {
        false
    }

    fn ops_into(
        &mut self,
        dt: SimDuration,
        achieved: f64,
        rng: &mut SimRng,
        ops: &mut Vec<TimedOp>,
    ) {
        if achieved <= 0.0 && self.disk_demand > 0.0 {
            return;
        }
        // The build slows proportionally when the disk is contended.
        let scale = (achieved / self.disk_demand).min(1.0);
        let writes = take_events(&mut self.write_carry, self.write_rate * scale, dt);
        for _ in 0..writes {
            let at = SimDuration::from_nanos(rng.below(dt.as_nanos().max(1)));
            ops.push(TimedOp::new(
                at,
                OpKind::Write {
                    block: self.writes.next_block(rng),
                },
            ));
        }
        let reads = take_events(&mut self.read_carry, self.read_rate * scale, dt);
        let (ss, sl) = self.source_region;
        for _ in 0..reads {
            let at = SimDuration::from_nanos(rng.below(dt.as_nanos().max(1)));
            ops.push(TimedOp::new(
                at,
                OpKind::Read {
                    block: ss + rng.below(sl),
                },
            ));
        }
    }

    fn client_throughput(&self, achieved: f64) -> f64 {
        // "Client throughput" for a build is its I/O progress rate.
        achieved.min(self.disk_demand)
    }

    fn wss_model(&self, num_pages: usize) -> WssModel {
        // Compiler working set: moderate churn.
        WssModel::new(num_pages, 0.03, 0.8, 4000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::rewrite_ratio;

    const BLOCKS_40GB: u64 = 10 * 1024 * 1024;

    #[test]
    fn rewrite_ratio_near_11_percent() {
        let mut w = KernelBuildWorkload::paper_default(BLOCKS_40GB);
        let mut rng = SimRng::new(1);
        let mut ops = Vec::new();
        for _ in 0..120 {
            ops.extend(w.ops_for(SimDuration::from_secs(1), w.disk_demand(), &mut rng));
        }
        let r = rewrite_ratio(ops.iter().map(|o| o.kind));
        assert!((0.08..0.15).contains(&r), "rewrite ratio {r}");
    }

    #[test]
    fn contention_slows_the_build() {
        let mut w1 = KernelBuildWorkload::paper_default(BLOCKS_40GB);
        let mut w2 = KernelBuildWorkload::paper_default(BLOCKS_40GB);
        let mut rng1 = SimRng::new(2);
        let mut rng2 = SimRng::new(2);
        let full: usize = (0..10)
            .map(|_| {
                w1.ops_for(SimDuration::from_secs(1), w1.disk_demand(), &mut rng1)
                    .len()
            })
            .sum();
        let starved: usize = (0..10)
            .map(|_| {
                w2.ops_for(SimDuration::from_secs(1), w2.disk_demand() / 4.0, &mut rng2)
                    .len()
            })
            .sum();
        assert!(
            starved * 3 < full,
            "contended build not slowed: {starved} vs {full}"
        );
    }
}
