//! The guest driver thread: plays a workload against the current disk,
//! with suspend/resume orchestration and end-to-end stamp verification.

// Lint zones (DESIGN.md §11): deterministic-order.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use des::dist::HotCold;
use des::{SimDuration, SimRng};
use parking_lot::{Condvar, Mutex};
use telemetry::Recorder;
use vdisk::{is_stamp, stamp_into};
use vmstate::LiveRam;

use crate::live::error::MigrationError;
use workloads::{Guest, OpKind, Workload, WorkloadKind};

use crate::live::GuestIo;

/// A workload adapted for wall-clock live mode: each driver tick plays
/// `dt_per_tick` of virtual workload time.
pub struct LiveWorkload {
    inner: Box<dyn Workload>,
    dt_per_tick: SimDuration,
}

impl LiveWorkload {
    /// Wrap a simulation workload; every driver tick (~1 ms of wall time)
    /// replays `dt_per_tick` of its virtual op stream.
    pub fn new(inner: Box<dyn Workload>, dt_per_tick: SimDuration) -> Self {
        Self { inner, dt_per_tick }
    }

    /// Standard construction from a workload kind for a disk of
    /// `num_blocks` blocks.
    pub fn from_kind(kind: WorkloadKind, num_blocks: u64, dt_per_tick: SimDuration) -> Self {
        Self::new(kind.build(num_blocks), dt_per_tick)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    SuspendRequested,
    Suspended,
}

struct CtlInner {
    state: Mutex<CtlState>,
    cv: Condvar,
    ticks: AtomicU64,
}

struct CtlState {
    phase: Phase,
    target: Arc<dyn GuestIo>,
    ram: Arc<LiveRam>,
    stop: bool,
    suspended_at: Option<Instant>,
    resumed_at: Option<Instant>,
}

/// Shared control handle for the driver thread (clonable across the
/// protocol threads).
#[derive(Clone)]
pub struct DriverCtl(Arc<CtlInner>);

impl DriverCtl {
    /// Ask the guest to pause (the `xc_linux_save` suspend signal) and
    /// wait until it acknowledges. Returns the suspension instant —
    /// downtime starts here.
    pub fn request_suspend(&self) -> Instant {
        parking_lot::assert_no_lock_held();
        let mut st = self.0.state.lock();
        assert_eq!(st.phase, Phase::Running, "guest must be running to suspend");
        st.phase = Phase::SuspendRequested;
        self.0.cv.notify_all();
        while st.phase != Phase::Suspended {
            self.0.cv.wait(&mut st);
        }
        // Phase::Suspended implies the driver stamped the instant; fall
        // back to "now" rather than panicking a protocol thread.
        st.suspended_at.unwrap_or_else(Instant::now)
    }

    /// Resume the guest on the destination's I/O path and RAM. Returns
    /// the resume instant — downtime ends here.
    pub fn resume_on(&self, target: Arc<dyn GuestIo>, ram: Arc<LiveRam>) -> Instant {
        let mut st = self.0.state.lock();
        assert_eq!(
            st.phase,
            Phase::Suspended,
            "guest must be suspended to resume"
        );
        st.target = target;
        st.ram = ram;
        st.phase = Phase::Running;
        let now = Instant::now();
        st.resumed_at = Some(now);
        self.0.cv.notify_all();
        now
    }

    /// Guest ticks completed while running (workload ops + memory
    /// writes). Monotonic; lets the engine wait for guaranteed guest
    /// progress between protocol phases without sleeping blind.
    pub fn ticks(&self) -> u64 {
        self.0.ticks.load(Ordering::Acquire)
    }

    /// Wait until the guest has completed `target` ticks, or `guard` has
    /// passed. Woken by the driver at the end of each tick, so the wait
    /// ends on the tick that reaches `target`, not on a poll after it.
    pub fn wait_ticks(&self, target: u64, guard: Duration) {
        parking_lot::assert_no_lock_held();
        let deadline = Instant::now() + guard;
        let mut st = self.0.state.lock();
        while self.ticks() < target {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            self.0.cv.wait_for(&mut st, left);
        }
    }

    fn request_stop(&self) {
        let mut st = self.0.state.lock();
        st.stop = true;
        self.0.cv.notify_all();
    }
}

/// What the guest did, for verification.
#[derive(Debug)]
pub struct DriverResult {
    /// Last stamp written per block (ground truth for consistency).
    pub model: BTreeMap<usize, u64>,
    /// Last stamp written per memory page.
    pub mem_model: BTreeMap<usize, u64>,
    /// Total writes issued.
    pub writes: u64,
    /// Total reads issued.
    pub reads: u64,
    /// Memory page writes issued.
    pub mem_writes: u64,
    /// Reads that returned data not matching the guest's own last write
    /// (or the initial image). Must be zero for a correct migration.
    pub read_violations: u64,
}

/// Handle to the running guest driver thread.
pub struct DriverHandle {
    ctl: DriverCtl,
    join: JoinHandle<DriverResult>,
}

impl DriverHandle {
    /// Start the guest: plays `workload` against `initial` (the source
    /// path) and dirties `ram` at `mem_writes_per_tick` pages/tick, one
    /// tick per `tick_wall` of wall time. Guest activity totals land in
    /// `telemetry`'s `guest.*` counters when the recorder is enabled.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        workload: LiveWorkload,
        initial: Arc<dyn GuestIo>,
        ram: Arc<LiveRam>,
        mem_writes_per_tick: u64,
        block_size: usize,
        seed: u64,
        tick_wall: Duration,
        telemetry: Arc<Recorder>,
    ) -> Self {
        let page_size = ram.page_size();
        let num_pages = ram.num_pages();
        let hot_pages = HotCold::new(num_pages as u64, 0, (num_pages as u64 / 8).max(1), 0.8);
        let ctl = DriverCtl(Arc::new(CtlInner {
            state: Mutex::new(CtlState {
                phase: Phase::Running,
                target: initial,
                ram,
                stop: false,
                suspended_at: None,
                resumed_at: None,
            }),
            cv: Condvar::new(),
            ticks: AtomicU64::new(0),
        }));
        let thread_ctl = ctl.clone();
        let join = std::thread::spawn(move || {
            // Page writes draw on `rng`; the guest's disk ops, writes and
            // reads alike (its reads check read-your-writes), on the
            // guest's own streams.
            let mut rng = SimRng::new(seed);
            let LiveWorkload { inner, dt_per_tick } = workload;
            let mut guest = Guest::with_workload(inner, num_pages, SimRng::new(seed).fork(1));
            let mut ops = Vec::new();
            let mut model: BTreeMap<usize, u64> = BTreeMap::new();
            let mut stamp = 1u64;
            let mut mem_model: BTreeMap<usize, u64> = BTreeMap::new();
            // Every write is stamped into one of these and copied from it.
            let mut block_bytes = vec![0u8; block_size];
            let mut page_bytes = vec![0u8; page_size];
            // When the tick about to run is due.
            let mut due = Instant::now();
            let mut res = DriverResult {
                model: BTreeMap::new(),
                mem_model: BTreeMap::new(),
                writes: 0,
                reads: 0,
                mem_writes: 0,
                read_violations: 0,
            };
            loop {
                let running = {
                    let mut st = thread_ctl.0.state.lock();
                    loop {
                        if st.stop {
                            break None;
                        }
                        match st.phase {
                            Phase::Running => {
                                break Some((Arc::clone(&st.target), Arc::clone(&st.ram)))
                            }
                            Phase::SuspendRequested => {
                                st.phase = Phase::Suspended;
                                st.suspended_at = Some(Instant::now());
                                thread_ctl.0.cv.notify_all();
                            }
                            Phase::Suspended => {
                                thread_ctl.0.cv.wait(&mut st);
                                // A resumed guest's first tick is on time.
                                due = Instant::now();
                            }
                        }
                    }
                };
                let Some((target, ram)) = running else {
                    res.model = model;
                    res.mem_model = mem_model;
                    if telemetry.is_enabled() {
                        let m = telemetry.metrics();
                        m.counter("guest.disk_writes").add(res.writes);
                        m.counter("guest.disk_reads").add(res.reads);
                        m.counter("guest.mem_writes").add(res.mem_writes);
                        m.counter("guest.ticks")
                            .add(thread_ctl.0.ticks.load(Ordering::Acquire));
                    }
                    return res;
                };
                ops.clear();
                guest.ops_into(dt_per_tick, guest.disk_demand(), &mut ops);
                for op in &ops {
                    match op.kind {
                        OpKind::Write { block } => {
                            let b = block as usize;
                            stamp_into(b, stamp, &mut block_bytes);
                            target.write(b, &block_bytes);
                            model.insert(b, stamp);
                            stamp += 1;
                            res.writes += 1;
                        }
                        OpKind::Read { block } => {
                            let b = block as usize;
                            let data = target.read(b);
                            res.reads += 1;
                            let ok = data.len() == block_size
                                && match model.get(&b) {
                                    // Read-your-writes: the guest's own last
                                    // write must be exactly what comes back.
                                    Some(&expect) => is_stamp(b, expect, &data),
                                    // Never written by this guest: the block
                                    // carries whatever image the run started
                                    // from (an incremental migration inherits
                                    // a prior run's stamps), which the driver
                                    // cannot know. It must still be a
                                    // well-formed stamp block for THIS index
                                    // — zeroed, torn, or misdirected content
                                    // all fail here.
                                    None if block_size >= 16 => {
                                        let stamp = u64::from_le_bytes(
                                            data[8..16].try_into().unwrap_or([0; 8]),
                                        );
                                        is_stamp(b, stamp, &data)
                                    }
                                    None => is_stamp(b, 0, &data),
                                };
                            if !ok {
                                res.read_violations += 1;
                            }
                        }
                    }
                }
                // Memory dirtying: hot/cold page writes, stamped like
                // disk blocks so the destination RAM can be verified.
                for _ in 0..mem_writes_per_tick {
                    let p = hot_pages.sample(&mut rng) as usize;
                    stamp_into(p, stamp, &mut page_bytes);
                    ram.write_page(p, &page_bytes);
                    mem_model.insert(p, stamp);
                    stamp += 1;
                    res.mem_writes += 1;
                }
                thread_ctl.0.ticks.fetch_add(1, Ordering::Release);
                due = next_tick(due, tick_wall, Instant::now());
                // Out of the tick's wait at once on a suspend or stop
                // request: a freeze must not start on the guest's clock.
                // Nor wait for one: whoever waits on the tick count
                // (`wait_ticks`) hears of this tick now.
                let mut st = thread_ctl.0.state.lock();
                thread_ctl.0.cv.notify_all();
                while st.phase == Phase::Running && !st.stop {
                    let left = due.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    thread_ctl.0.cv.wait_for(&mut st, left);
                }
            }
        });
        Self { ctl, join }
    }

    /// The clonable control handle.
    pub fn ctl(&self) -> DriverCtl {
        self.ctl.clone()
    }

    /// Stop the guest and collect its ground-truth model. A driver
    /// thread that died surfaces as a protocol error, not a panic.
    pub fn finish(self) -> Result<DriverResult, MigrationError> {
        parking_lot::assert_no_lock_held();
        self.ctl.request_stop();
        self.join.join().map_err(|_| MigrationError::Protocol {
            phase: "guest driver",
            detail: "guest driver thread panicked".into(),
        })
    }
}

/// When the tick after one due at `due` is: a `tick_wall` later, so the
/// guest keeps one tick per `tick_wall` however long a tick's work takes.
/// A tick that ends past that point makes the next one due `now`, once:
/// a late guest resumes its pace and never replays the ticks it missed.
fn next_tick(due: Instant, tick_wall: Duration, now: Instant) -> Instant {
    (due + tick_wall).max(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::SourceIo;
    use vdisk::{stamp_bytes, DomainId, TrackedDisk, VirtualDisk};
    use vmstate::LiveRam;

    fn io(blocks: usize) -> (Arc<TrackedDisk>, Arc<dyn GuestIo>, Arc<LiveRam>) {
        let disk = Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::dense(512, blocks))));
        // Initialize with the stamp-0 image the verifier expects.
        for b in 0..blocks {
            disk.disk().write_block(b, &stamp_bytes(b, 0, 512));
        }
        let g: Arc<dyn GuestIo> = Arc::new(SourceIo::new(Arc::clone(&disk), DomainId(1)));
        let ram = Arc::new(LiveRam::new(512, 64));
        (disk, g, ram)
    }

    fn workload(blocks: u64) -> LiveWorkload {
        LiveWorkload::from_kind(WorkloadKind::Web, blocks, SimDuration::from_millis(100))
    }

    #[test]
    fn ticks_keep_their_deadlines_and_a_late_tick_queues_no_burst() {
        let tick = Duration::from_millis(1);
        let due = Instant::now();
        // On time: the work took a third of a tick, the next is a tick on.
        assert_eq!(next_tick(due, tick, due + tick / 3), due + tick);
        assert_eq!(next_tick(due, tick, due + tick), due + tick);
        // Late by one tick: the next one is due now, not a tick back.
        let now = due + tick + tick / 5;
        assert_eq!(next_tick(due, tick, now), now);
        // Late by many: still only now, and the pace resumes from there.
        let now = due + tick * 7 + tick / 2;
        assert_eq!(next_tick(due, tick, now), now);
        assert_eq!(next_tick(now, tick, now), now + tick);
    }

    #[test]
    fn driver_writes_and_verifies_reads() {
        let (disk, g, ram) = io(65_536);
        let h = DriverHandle::start(
            workload(65_536),
            g,
            Arc::clone(&ram),
            2,
            512,
            3,
            Duration::from_millis(1),
            Recorder::off(),
        );
        // The op stream is seeded, so the first 20 ticks hold the same
        // writes on every run, however the threads are scheduled.
        h.ctl().wait_ticks(20, Duration::from_secs(10));
        assert!(h.ctl().ticks() >= 20, "the guest stalled");
        let res = h.finish().expect("driver thread healthy");
        assert!(res.writes > 0, "driver made no writes");
        assert!(res.mem_writes > 0, "driver dirtied no memory");
        assert_eq!(res.read_violations, 0, "read-your-writes violated");
        // The disk holds exactly the model's last stamps.
        for (&b, &s) in &res.model {
            assert_eq!(disk.disk().read_block(b), stamp_bytes(b, s, 512));
        }
        // And the RAM holds the memory model's last stamps.
        for (&p, &s) in &res.mem_model {
            assert_eq!(ram.read_page(p), stamp_bytes(p, s, 512));
        }
    }

    #[test]
    fn a_tick_wait_ends_on_the_tick_and_a_suspended_guest_ends_it_at_the_guard() {
        let (_disk, g, ram) = io(65_536);
        let h = DriverHandle::start(
            workload(65_536),
            Arc::clone(&g),
            Arc::clone(&ram),
            1,
            512,
            5,
            Duration::from_millis(1),
            Recorder::off(),
        );
        let ctl = h.ctl();
        let target = ctl.ticks() + 5;
        ctl.wait_ticks(target, Duration::from_secs(10));
        assert!(ctl.ticks() >= target);
        // No tick comes while the guest is down: the guard ends the wait.
        ctl.request_suspend();
        let frozen = ctl.ticks();
        let started = Instant::now();
        ctl.wait_ticks(frozen + 1, Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(ctl.ticks(), frozen);
        ctl.resume_on(g, ram);
        assert_eq!(
            h.finish().expect("driver thread healthy").read_violations,
            0
        );
    }

    #[test]
    fn suspend_blocks_progress_until_resume() {
        let (_disk, g, ram) = io(65_536);
        let h = DriverHandle::start(
            workload(65_536),
            Arc::clone(&g),
            Arc::clone(&ram),
            1,
            512,
            4,
            Duration::from_millis(1),
            Recorder::off(),
        );
        let ctl = h.ctl();
        ctl.wait_ticks(5, Duration::from_secs(10));
        assert!(ctl.ticks() >= 5, "the guest stalled");
        let t_suspend = ctl.request_suspend();
        // While suspended the guest completes no tick.
        let frozen = ctl.ticks();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ctl.ticks(), frozen);
        let t_resume = ctl.resume_on(g, ram);
        assert!(t_resume - t_suspend >= Duration::from_millis(20));
        // And once resumed it ticks again.
        ctl.wait_ticks(frozen + 1, Duration::from_secs(10));
        assert!(ctl.ticks() > frozen, "the guest did not resume");
        let res = h.finish().expect("driver thread healthy");
        assert_eq!(res.read_violations, 0);
    }
}
