//! The guest an engine runs: one workload and the streams it draws on.
//!
//! An engine reads a guest's ops only where the paper's algorithm acts
//! on them. Disk pre-copy acts on writes alone (the block-bitmap records
//! nothing else), memory pre-copy on page writes, and post-copy on
//! writes and reads (a read of an unsynchronized block is a pull). So a
//! [`Guest`] draws its writes, its reads and its page writes on three
//! streams forked from one seed, and an engine asks for what it uses:
//! [`Guest::writes_into`] in pre-copy, [`Guest::ops_into`] in post-copy,
//! [`Guest::dirty_pages`] while memory pre-copy runs. Asking for reads
//! never moves the write stream, so two engines that ask for different
//! things still see the same writes.

use des::{SimDuration, SimRng};
use vmstate::WssModel;

use crate::{TimedOp, Workload, WorkloadKind};

/// Stream labels the guest forks its draws on.
const WRITES: u64 = 0;
pub(crate) const READS: u64 = 1;
const PAGES: u64 = 2;

/// A workload with its write, read and page-write streams.
pub struct Guest {
    workload: Box<dyn Workload>,
    wss: WssModel,
    writes: SimRng,
    reads: SimRng,
    pages: SimRng,
}

impl std::fmt::Debug for Guest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guest")
            .field("workload", &self.workload.name())
            .finish_non_exhaustive()
    }
}

impl Guest {
    /// A `kind` guest on a disk of `num_blocks` blocks and `mem_pages`
    /// pages of RAM, its streams forked from `rng`.
    pub fn new(kind: WorkloadKind, num_blocks: u64, mem_pages: usize, rng: SimRng) -> Self {
        Self::with_workload(kind.build(num_blocks), mem_pages, rng)
    }

    /// A guest running `workload` (a replayed trace, say), its streams
    /// forked from `rng`.
    pub fn with_workload(workload: Box<dyn Workload>, mem_pages: usize, mut rng: SimRng) -> Self {
        Self {
            wss: workload.wss_model(mem_pages),
            writes: rng.fork(WRITES),
            reads: rng.fork(READS),
            pages: rng.fork(PAGES),
            workload,
        }
    }

    /// Append the writes of an interval of `dt` at `achieved` bytes/second
    /// of disk throughput to `out`: what pre-copy reads of a guest.
    pub fn writes_into(&mut self, dt: SimDuration, achieved: f64, out: &mut Vec<TimedOp>) {
        (self.workload).draw_into(dt, achieved, &mut self.writes, None, out);
    }

    /// Append the writes and reads of an interval to `out`: what
    /// post-copy reads of a guest. The writes are those
    /// [`Guest::writes_into`] would have drawn.
    pub fn ops_into(&mut self, dt: SimDuration, achieved: f64, out: &mut Vec<TimedOp>) {
        let reads = Some(&mut self.reads);
        (self.workload).draw_into(dt, achieved, &mut self.writes, reads, out);
    }

    /// Run `dt` of the guest's memory: draw each page write its
    /// writable-working-set model makes and hand the page to `touch`.
    /// Returns how many were drawn.
    pub fn dirty_pages(&mut self, dt: SimDuration, touch: impl FnMut(usize)) -> u64 {
        self.wss.dirty_for(dt, &mut self.pages, touch)
    }

    /// The workload's short name ("web", "video", …).
    pub fn name(&self) -> &'static str {
        self.workload.name()
    }

    /// The disk throughput the workload asks for, bytes/second.
    pub fn disk_demand(&self) -> f64 {
        self.workload.disk_demand()
    }

    /// Client-observed throughput at `achieved` bytes/second of disk.
    pub fn client_throughput(&self, achieved: f64) -> f64 {
        self.workload.client_throughput(achieved)
    }
}
