//! The bounded, panic-free, multi-producer recorder.
//!
//! Protocol threads, the guest driver, and the DES engine all hold
//! `Arc<Recorder>` clones and record concurrently. Design rules (the same
//! ones the transport lint zone this sits inside enforces):
//!
//! * **Disabled is a single relaxed atomic load.** `record` takes the event
//!   as a closure; when the recorder is disabled the closure never runs, so
//!   the disabled path allocates nothing and takes no lock.
//! * **Full never blocks.** The journal is bounded; once full, further
//!   records bump a drop counter and return. A slow consumer can lose
//!   events, never stall a migration.
//! * **No panics.** No `unwrap`/`expect`/panic-family macros anywhere on
//!   the recording path.
//!
//! Sequence numbers are assigned under the journal lock, so `seq` order is
//! exactly buffer order — the canonical happened-before relation used by
//! the §III-A cancellation-ordering test.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::clock::ClockDomain;
use crate::event::{Event, Record};
use crate::metrics::Registry;

/// Default bound on the journal: generous for any single migration run
/// (a full live run records well under a million events).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 20;

struct Journal {
    records: Vec<Record>,
    next_seq: u64,
}

/// A bounded multi-producer event journal plus a metrics registry, shared
/// across threads as `Arc<Recorder>`.
///
/// Wall-clock records are stamped relative to `epoch` (the creation
/// instant), so spans between two wall records are exact monotonic-clock
/// differences.
pub struct Recorder {
    enabled: AtomicBool,
    capacity: usize,
    epoch: Instant,
    dropped: AtomicU64,
    journal: Mutex<Journal>,
    metrics: Registry,
}

impl Recorder {
    /// An enabled recorder holding at most `capacity` records.
    #[expect(
        clippy::disallowed_methods,
        reason = "the epoch of the wall half of the dual clock"
    )]
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            enabled: AtomicBool::new(true),
            capacity,
            epoch: Instant::now(),
            dropped: AtomicU64::new(0),
            journal: Mutex::new(Journal {
                records: Vec::new(),
                next_seq: 0,
            }),
            metrics: Registry::new(),
        })
    }

    /// An enabled recorder with the default capacity.
    pub fn enabled() -> Arc<Self> {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A disabled recorder: every `record*` call is a single relaxed atomic
    /// load and an early return. Engines default to this so instrumentation
    /// costs nothing when nobody asked for a trace.
    #[expect(
        clippy::disallowed_methods,
        reason = "the epoch of the wall half of the dual clock"
    )]
    pub fn off() -> Arc<Self> {
        Arc::new(Self {
            enabled: AtomicBool::new(false),
            capacity: 0,
            epoch: Instant::now(),
            dropped: AtomicU64::new(0),
            journal: Mutex::new(Journal {
                records: Vec::new(),
                next_seq: 0,
            }),
            metrics: Registry::new(),
        })
    }

    /// Whether recording is active (relaxed load — the fast-path check).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The instant wall-clock timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a wall-clock event stamped "now". The closure only runs when
    /// the recorder is enabled.
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock record is stamped when it happens; sim records take virtual time"
    )]
    pub fn record(&self, make: impl FnOnce() -> Event) {
        if !self.is_enabled() {
            return;
        }
        self.record_at_instant(Instant::now(), make);
    }

    /// Record a wall-clock event stamped with a caller-supplied instant —
    /// used where the engine already holds the authoritative instant (e.g.
    /// the suspend/resume instants that define downtime), so the journal
    /// reconstructs *exactly* the durations the engine reports.
    #[inline]
    pub fn record_at_instant(&self, at: Instant, make: impl FnOnce() -> Event) {
        if !self.is_enabled() {
            return;
        }
        let since = at.saturating_duration_since(self.epoch);
        let t_nanos = u64::try_from(since.as_nanos()).unwrap_or(u64::MAX);
        self.push(t_nanos, ClockDomain::Wall, make());
    }

    /// Record a virtual-time event stamped with raw simulator nanoseconds
    /// (`SimTime::as_nanos()`). The closure only runs when enabled.
    #[inline]
    pub fn record_at_nanos(&self, t_nanos: u64, make: impl FnOnce() -> Event) {
        if !self.is_enabled() {
            return;
        }
        self.push(t_nanos, ClockDomain::Sim, make());
    }

    /// Append under the journal lock; count a drop instead of growing past
    /// the bound. The event is fully constructed before the lock is taken.
    fn push(&self, t_nanos: u64, clock: ClockDomain, event: Event) {
        let mut j = self.journal.lock();
        if j.records.len() >= self.capacity {
            drop(j);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let seq = j.next_seq;
        j.next_seq += 1;
        j.records.push(Record {
            seq,
            t_nanos,
            clock,
            event,
        });
    }

    /// Records dropped because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of records currently in the journal.
    pub fn len(&self) -> usize {
        self.journal.lock().records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the journal in `seq` order.
    pub fn records(&self) -> Vec<Record> {
        self.journal.lock().records.clone()
    }

    /// The metrics registry recorded alongside the journal.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Side;
    use std::cell::Cell;

    #[test]
    fn disabled_path_runs_no_closure_and_takes_no_lock() {
        let rec = Recorder::off();
        let ran = Cell::new(0u32);
        // Hold the journal lock for the whole disabled-record sequence:
        // if any record path below tried to take it, this test would
        // deadlock (parking_lot mutexes are not reentrant). Completing
        // proves the disabled path is just the atomic check.
        let _guard = rec.journal.lock();
        rec.record(|| {
            ran.set(ran.get() + 1);
            Event::Suspended { side: Side::Source }
        });
        rec.record_at_instant(Instant::now(), || {
            ran.set(ran.get() + 1);
            Event::Resumed { side: Side::Source }
        });
        rec.record_at_nanos(42, || {
            ran.set(ran.get() + 1);
            Event::PullRequested { block: 7 }
        });
        drop(_guard);
        assert_eq!(ran.get(), 0, "closure ran on a disabled recorder");
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn full_journal_counts_drops_instead_of_blocking() {
        let rec = Recorder::new(4);
        for b in 0..10u64 {
            rec.record_at_nanos(b, || Event::BlockPushed { block: b });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let seqs: Vec<u64> = rec.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sim_and_wall_records_carry_their_clock_domain() {
        let rec = Recorder::new(16);
        rec.record_at_nanos(1_000, || Event::Suspended { side: Side::Source });
        rec.record(|| Event::Resumed {
            side: Side::Destination,
        });
        let rs = rec.records();
        assert_eq!(rs[0].clock, ClockDomain::Sim);
        assert_eq!(rs[0].t_nanos, 1_000);
        assert_eq!(rs[1].clock, ClockDomain::Wall);
    }

    #[test]
    fn multi_producer_seq_is_dense_and_unique() {
        let rec = Recorder::new(4_000);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..100u64 {
                        rec.record_at_nanos(i, || Event::BlockPulled { block: t * 100 + i });
                    }
                });
            }
        });
        let mut seqs: Vec<u64> = rec.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), 400);
        // Buffer order IS seq order.
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        seqs.sort_unstable();
        assert_eq!(seqs, (0..400).collect::<Vec<_>>());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn record_at_instant_spans_are_exact_instant_differences() {
        let rec = Recorder::new(16);
        let a = Instant::now();
        let b = a + std::time::Duration::from_micros(1234);
        rec.record_at_instant(a, || Event::Suspended { side: Side::Source });
        rec.record_at_instant(b, || Event::Resumed {
            side: Side::Destination,
        });
        let rs = rec.records();
        assert_eq!(
            rs[1].t_nanos - rs[0].t_nanos,
            (b - a).as_nanos() as u64,
            "wall spans must be exact monotonic differences"
        );
    }
}
