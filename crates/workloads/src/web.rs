//! Dynamic web server workload (SPECweb2005 Banking-like).
//!
//! §VI-C-1: 100 client connections drive a banking application that
//! "generates a lot of writes in bursts". The paper's run shows ~6680
//! blocks retransferred across 3 pre-copy iterations of a ~796 s
//! migration, 62 blocks left for post-copy, one pulled block, and a
//! measured 25.2 % rewrite ratio. Calibration:
//!
//! * writes arrive in bursts (a few per second) at ~11 writes/s average —
//!   that average times the ~790 s first iteration gives the observed
//!   few-thousand-block dirty set;
//! * a rewrite probability of ~0.23 plus placement collisions yields the
//!   ~25 % rewrite ratio;
//! * reads are page-cache-friendly, so disk read demand is modest and
//!   client throughput is essentially network-bound (Figure 5 shows no
//!   visible dip during migration).

use des::{SimDuration, SimRng};
use vmstate::WssModel;

use crate::pattern::Placement;
use crate::{OpKind, TimedOp, Workload, WritePattern};

/// SPECweb-Banking-like workload. See module docs for calibration.
#[derive(Debug)]
pub struct WebServerWorkload {
    writes: WritePattern,
    data_region: (u64, u64),
    burst_per_sec: f64,
    writes_per_burst: (u64, u64),
    read_rate: f64,
    burst_carry: f64,
    read_carry: f64,
    disk_demand: f64,
    baseline_client: f64,
}

impl WebServerWorkload {
    /// Paper-calibrated instance for a disk of `num_blocks` 4 KiB blocks.
    /// On the paper's 40 GB disk the data region is 4 GiB; on smaller
    /// test disks it scales down proportionally.
    ///
    /// # Panics
    /// Panics when the disk is smaller than ~32 MiB.
    pub fn paper_default(num_blocks: u64) -> Self {
        assert!(
            num_blocks >= 8_192,
            "web workload needs at least ~32 MiB of disk"
        );
        // Application data spread over a region in the middle of the
        // disk; fresh writes scatter uniformly (user records), rewrites
        // re-hit recent blocks.
        let data_start = num_blocks / 4;
        let data_len = 1_048_576.min(num_blocks / 2); // 4 GiB at paper scale
        Self {
            writes: WritePattern::new(
                Placement::Uniform {
                    start: data_start,
                    len: data_len,
                },
                0.23,
                8192,
            ),
            data_region: (data_start, data_len),
            burst_per_sec: 1.1,
            writes_per_burst: (5, 16),
            read_rate: 500.0, // 4 KiB blocks/s => ~2 MB/s of disk reads
            burst_carry: 0.0,
            read_carry: 0.0,
            disk_demand: 2.1 * 1024.0 * 1024.0,
            baseline_client: 70.0 * 1024.0 * 1024.0,
        }
    }
}

/// Deterministic fractional-rate counter: returns the integer number of
/// events for `rate * dt` while carrying the remainder.
pub(crate) fn take_events(carry: &mut f64, rate: f64, dt: SimDuration) -> u64 {
    let x = *carry + rate * dt.as_secs_f64();
    let n = x.floor();
    *carry = x - n;
    n as u64
}

impl Workload for WebServerWorkload {
    fn name(&self) -> &'static str {
        "web"
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
        // Open loop: the schedule does not scale with `achieved`, but a
        // fully starved disk (no share at all) stalls the application.
        if achieved <= 0.0 && self.disk_demand > 0.0 {
            return;
        }
        let bursts = take_events(&mut self.burst_carry, self.burst_per_sec, dt);
        for _ in 0..bursts {
            let at = SimDuration::from_nanos(rng.below(dt.as_nanos().max(1)));
            let n = rng.range(self.writes_per_burst.0, self.writes_per_burst.1);
            for _ in 0..n {
                ops.push(TimedOp::new(
                    at,
                    OpKind::Write {
                        block: self.writes.next_block(rng),
                    },
                ));
            }
        }
        let reads = take_events(&mut self.read_carry, self.read_rate, dt);
        let (rs, rl) = self.data_region;
        for _ in 0..reads {
            let at = SimDuration::from_nanos(rng.below(dt.as_nanos().max(1)));
            ops.push(TimedOp::new(
                at,
                OpKind::Read {
                    block: rs + rng.below(rl),
                },
            ));
        }
    }

    fn client_throughput(&self, achieved: f64) -> f64 {
        // Network-bound service: full throughput whenever the disk keeps
        // up with its (small) demand, degrading proportionally below that.
        self.baseline_client * (achieved / self.disk_demand).min(1.0)
    }

    fn wss_model(&self, num_pages: usize) -> WssModel {
        // Active banking sessions: a few-MB hot set, ~3000 page writes/s.
        WssModel::new(num_pages, 0.02, 0.85, 3000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCKS_40GB: u64 = 10 * 1024 * 1024;

    #[test]
    fn write_rate_matches_calibration() {
        let mut w = WebServerWorkload::paper_default(BLOCKS_40GB);
        let mut rng = SimRng::new(1);
        let mut writes = 0usize;
        for _ in 0..100 {
            let ops = w.ops_for(SimDuration::from_secs(1), w.disk_demand(), &mut rng);
            writes += ops.iter().filter(|o| o.kind.is_write()).count();
        }
        // ~11 writes/s average (bursts of 5-15 at ~1.1 bursts/s).
        let per_sec = writes as f64 / 100.0;
        assert!((7.0..16.0).contains(&per_sec), "writes/s = {per_sec}");
    }

    #[test]
    fn unique_dirty_blocks_accumulate_like_the_paper() {
        // Over ~790 s the paper dirties ~6.6k unique blocks.
        let mut w = WebServerWorkload::paper_default(BLOCKS_40GB);
        let mut rng = SimRng::new(2);
        let mut dirty = std::collections::HashSet::new();
        for _ in 0..790 {
            for op in w.ops_for(SimDuration::from_secs(1), w.disk_demand(), &mut rng) {
                if let OpKind::Write { block } = op.kind {
                    dirty.insert(block);
                }
            }
        }
        assert!(
            (3_000..12_000).contains(&dirty.len()),
            "unique dirty blocks {}",
            dirty.len()
        );
    }

    #[test]
    fn starved_disk_stalls_the_app() {
        let mut w = WebServerWorkload::paper_default(BLOCKS_40GB);
        let mut rng = SimRng::new(3);
        assert!(w
            .ops_for(SimDuration::from_secs(1), 0.0, &mut rng)
            .is_empty());
        assert_eq!(w.client_throughput(0.0), 0.0);
    }

    #[test]
    fn client_throughput_insensitive_to_disk_when_demand_met() {
        let w = WebServerWorkload::paper_default(BLOCKS_40GB);
        let full = w.client_throughput(w.disk_demand() * 50.0);
        let just_met = w.client_throughput(w.disk_demand());
        assert_eq!(full, just_met);
        assert!(w.client_throughput(w.disk_demand() / 2.0) < full);
    }

    #[test]
    fn ops_stay_on_disk() {
        let mut w = WebServerWorkload::paper_default(BLOCKS_40GB);
        let mut rng = SimRng::new(4);
        for _ in 0..20 {
            for op in w.ops_for(SimDuration::from_secs(1), w.disk_demand(), &mut rng) {
                assert!(op.kind.block() < BLOCKS_40GB);
                assert!(op.offset() < SimDuration::from_secs(1));
            }
        }
    }

    #[test]
    fn take_events_conserves_rate() {
        let mut carry = 0.0;
        let mut total = 0u64;
        for _ in 0..1000 {
            total += take_events(&mut carry, 0.77, SimDuration::from_secs(1));
        }
        assert!((765..775).contains(&total), "total {total}");
    }
}
