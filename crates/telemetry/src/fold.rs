//! Reports are folds over the event stream.
//!
//! An engine keeps one account of a migration: the events it emits. Each
//! goes through a [`Fold`] — plain struct updates, no buffer, no lock, no
//! clock read — and on to the optional [`Recorder`] behind its relaxed
//! load. Whatever the events determine is read off the fold at the end of
//! a run and written nowhere else: phase spans, pre-copy iterations,
//! post-copy block counts, reconnects, and per cluster migration its phase
//! instants, passes, retries and cancellations. A journal of the same
//! events folds ([`Fold::of_journal`]) to the same account by
//! construction: it is the same code over the same stream.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::event::{Event, Phase, Record, Resource, Side};
use crate::export::PhaseDurations;
use crate::metrics::Registry;
use crate::recorder::Recorder;

/// Statistics of one pre-copy iteration (disk or memory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// Iteration number (1-based; iteration 1 is the full copy).
    pub index: u32,
    /// Blocks (or pages) transferred in this iteration.
    pub units_sent: u64,
    /// Bytes on the wire for this iteration.
    pub bytes: u64,
    /// From its phase's start, or the previous iteration's end, to its own.
    pub duration_secs: f64,
    /// Dirty units accumulated by the time the iteration finished
    /// (the next iteration's work).
    pub dirty_at_end: u64,
}

/// The earliest start and the latest end recorded for a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Span {
    start: Option<u64>,
    end: Option<u64>,
}

impl Span {
    fn open(&mut self, t: u64) {
        self.start = Some(self.start.map_or(t, |s| s.min(t)));
    }

    fn close(&mut self, t: u64) {
        self.end = Some(self.end.map_or(t, |e| e.max(t)));
    }

    fn nanos(self) -> Option<u64> {
        Some(self.end?.saturating_sub(self.start?))
    }
}

/// Seconds per phase, `(end - start) as f64 / 1e9` (the expression behind
/// `SimDuration::as_secs_f64`); a phase that never ran reads zero.
fn durations(spans: &[Span; 4]) -> PhaseDurations {
    let secs = |p: Phase| spans[p as usize].nanos().unwrap_or(0) as f64 / 1e9;
    PhaseDurations {
        disk_precopy_secs: secs(Phase::DiskPrecopy),
        mem_precopy_secs: secs(Phase::MemPrecopy),
        freeze_secs: secs(Phase::Freeze),
        postcopy_secs: secs(Phase::PostCopy),
    }
}

/// One cluster migration as its events tell it, in virtual nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationAccount {
    spans: [Span; 4],
    /// When it was admitted.
    pub start_nanos: u64,
    /// When it finished, success or failure.
    pub finish_nanos: u64,
    /// Disk pre-copy passes run.
    pub passes: u32,
    /// Retries spent on injected faults.
    pub retries: u32,
    /// Post-copy pushes cancelled by destination writes (§III-A).
    pub cancelled: u64,
}

impl MigrationAccount {
    /// Per-phase durations.
    pub fn phases(&self) -> PhaseDurations {
        durations(&self.spans)
    }

    /// Nanoseconds `phase` spanned, or `None` when the span is incomplete.
    pub fn span_nanos(&self, phase: Phase) -> Option<u64> {
        self.spans[phase as usize].nanos()
    }

    /// When the guest was suspended (0 if never frozen).
    pub fn freeze_nanos(&self) -> u64 {
        self.spans[Phase::Freeze as usize].start.unwrap_or(0)
    }

    /// When the freeze ended: the guest resumed, or the run gave up on it
    /// (0 if never frozen).
    pub fn resume_nanos(&self) -> u64 {
        self.spans[Phase::Freeze as usize].end.unwrap_or(0)
    }

    /// The freeze span, which is the downtime (0 if never frozen).
    pub fn downtime_nanos(&self) -> u64 {
        self.span_nanos(Phase::Freeze).unwrap_or(0)
    }
}

/// The account a migration's events fold to; see the module docs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fold {
    spans: [Span; 4],
    iterations: [Vec<IterationStats>; 2],
    /// Per resource, when the iteration in progress began.
    iteration_from: [Option<u64>; 2],
    /// Post-copy blocks pushed, pulled and dropped.
    blocks: [u64; 3],
    reconnects: [u64; 2],
    migrations: BTreeMap<u64, MigrationAccount>,
}

impl Fold {
    /// Fold one event stamped `t` nanoseconds.
    pub fn apply(&mut self, t: u64, event: &Event) {
        match *event {
            Event::PhaseStart { phase, .. } => {
                self.spans[phase as usize].open(t);
                // The two pre-copy phases are numbered as their resources:
                // each one's start opens its first iteration.
                if let Some(from) = self.iteration_from.get_mut(phase as usize) {
                    from.get_or_insert(t);
                }
            }
            Event::PhaseEnd { phase, .. } => self.spans[phase as usize].close(t),
            Event::Iteration {
                resource,
                index,
                units_sent,
                bytes,
                dirty_at_end,
                ..
            } => {
                let r = resource as usize;
                let from = self.iteration_from[r].replace(t).unwrap_or(t);
                self.iterations[r].push(IterationStats {
                    index: index as u32,
                    units_sent,
                    bytes,
                    duration_secs: t.saturating_sub(from) as f64 / 1e9,
                    dirty_at_end,
                });
            }
            Event::BlockPushed { .. } => self.blocks[0] += 1,
            Event::BlockPulled { .. } => self.blocks[1] += 1,
            Event::BlockDropped { .. } => self.blocks[2] += 1,
            Event::Reconnect { side, .. } => self.reconnects[side as usize] += 1,
            Event::MigrationAdmitted { migration, .. } => self.account(migration).start_nanos = t,
            Event::MigrationPhaseStart { migration, phase } => {
                self.account(migration).spans[phase as usize].open(t);
            }
            Event::MigrationPhaseEnd { migration, phase } => {
                self.account(migration).spans[phase as usize].close(t);
            }
            Event::MigrationPass {
                migration,
                resource: Resource::Disk,
                ..
            } => self.account(migration).passes += 1,
            Event::MigrationRetry { migration, .. } => self.account(migration).retries += 1,
            Event::MigrationSyncCancelled { migration, .. } => {
                self.account(migration).cancelled += 1;
            }
            Event::MigrationCompleted { migration, .. } => {
                self.account(migration).finish_nanos = t;
            }
            _ => {}
        }
    }

    fn account(&mut self, migration: u64) -> &mut MigrationAccount {
        self.migrations.entry(migration).or_default()
    }

    /// The emit helper of a virtual-time engine: fold `event` at `t`, and
    /// journal it there when recording is on.
    pub fn at_nanos(&mut self, rec: &Recorder, t: u64, event: Event) {
        self.apply(t, &event);
        rec.record_at_nanos(t, || event);
    }

    /// The emit helper of a wall-clock engine, for an event whose instant
    /// the engine holds (a suspend, a resume).
    pub fn at_instant(&mut self, rec: &Recorder, at: Instant, event: Event) {
        self.apply(rec.wall_nanos(at), &event);
        rec.record_at_instant(at, || event);
    }

    /// The emit helper of a wall-clock engine, stamped now. With recording
    /// off, only an event whose account depends on its time reads the
    /// clock: a block count or a reconnect does not.
    #[expect(
        clippy::disallowed_methods,
        reason = "a wall-clock event is stamped when it happens"
    )]
    pub fn emit(&mut self, rec: &Recorder, event: Event) {
        match event {
            Event::PhaseStart { .. } | Event::PhaseEnd { .. } | Event::Iteration { .. } => {
                self.at_instant(rec, Instant::now(), event);
            }
            _ => {
                self.apply(0, &event);
                rec.record(|| event);
            }
        }
    }

    /// Fold in the account of another stream of the same run (the other
    /// protocol thread, one side's reconnects): spans widen, counts add,
    /// iterations and migrations append.
    pub fn merge(&mut self, other: Fold) {
        for (a, b) in self.spans.iter_mut().zip(other.spans) {
            b.start.into_iter().for_each(|t| a.open(t));
            b.end.into_iter().for_each(|t| a.close(t));
        }
        for (r, list) in other.iterations.into_iter().enumerate() {
            self.iterations[r].extend(list);
            self.iteration_from[r] = self.iteration_from[r].or(other.iteration_from[r]);
        }
        let counts = self.blocks.iter_mut().chain(&mut self.reconnects);
        for (a, b) in counts.zip(other.blocks.into_iter().chain(other.reconnects)) {
            *a += b;
        }
        self.migrations.extend(other.migrations);
    }

    /// Fold a parsed journal to the account its run kept. A journal that
    /// carries [`Event::JournalDropped`] is refused: its recorder was
    /// full, so its spans and counts are not the run's.
    pub fn of_journal(records: &[Record]) -> Result<Fold, String> {
        let dropped = records.iter().find_map(|r| match r.event {
            Event::JournalDropped { n } => Some(n),
            _ => None,
        });
        match dropped {
            Some(n) => Err(format!(
                "the journal is incomplete: its recorder was full and dropped {n} records"
            )),
            None => Ok(Self::of_records(records)),
        }
    }

    /// Fold every record, whether or not the journal is complete.
    pub fn of_records(records: &[Record]) -> Fold {
        let mut fold = Fold::default();
        for r in records {
            fold.apply(r.t_nanos, &r.event);
        }
        fold
    }

    /// Per-phase durations.
    pub fn phases(&self) -> PhaseDurations {
        durations(&self.spans)
    }

    /// Nanoseconds from the first start to the last end of `phase`, or
    /// `None` when the span is incomplete. The freeze span is the downtime.
    pub fn span_nanos(&self, phase: Phase) -> Option<u64> {
        self.spans[phase as usize].nanos()
    }

    /// The pre-copy iterations over `resource`, in order.
    pub fn iterations(&self, resource: Resource) -> &[IterationStats] {
        &self.iterations[resource as usize]
    }

    /// Post-copy blocks `[pushed, pulled, dropped]`: applied as pushes,
    /// applied as pulls, and superseded by destination writes.
    pub fn postcopy_blocks(&self) -> [u64; 3] {
        self.blocks
    }

    /// Reconnects `side` performed.
    pub fn reconnects(&self, side: Side) -> u64 {
        self.reconnects[side as usize]
    }

    /// Cluster migration `id`, if it was admitted.
    pub fn migration(&self, id: u64) -> Option<&MigrationAccount> {
        self.migrations.get(&id)
    }

    /// Every cluster migration, ascending id.
    pub fn migrations(&self) -> impl Iterator<Item = (&u64, &MigrationAccount)> {
        self.migrations.iter()
    }

    /// Add the post-copy counts and the source's reconnects to
    /// `{prefix}.postcopy.{pushed,pulled,dropped}` and `{prefix}.reconnects`.
    pub fn publish(&self, prefix: &str, m: &Registry) {
        let names = [
            "postcopy.pushed",
            "postcopy.pulled",
            "postcopy.dropped",
            "reconnects",
        ];
        let values = self
            .blocks
            .into_iter()
            .chain([self.reconnects(Side::Source)]);
        for (name, value) in names.into_iter().zip(values) {
            m.counter(&format!("{prefix}.{name}")).add(value);
        }
    }

    /// The account in the one rendering a run and `trace analyze` print:
    /// phase spans, the units of each iteration, post-copy block counts
    /// and reconnects.
    pub fn summary(&self) -> String {
        let p = self.phases();
        let mut out = String::from("phase            duration\n");
        for (name, secs) in [
            ("disk pre-copy", p.disk_precopy_secs),
            ("mem pre-copy", p.mem_precopy_secs),
            ("freeze (down)", p.freeze_secs),
            ("post-copy", p.postcopy_secs),
        ] {
            let _ = writeln!(out, "{name:<16} {secs:>10.6} s");
        }
        for (name, r) in [("disk", Resource::Disk), ("mem", Resource::Memory)] {
            let units: Vec<u64> = self.iterations(r).iter().map(|i| i.units_sent).collect();
            let _ = writeln!(out, "{:<16} {units:?}", format!("{name} iterations"));
        }
        let [pushed, pulled, dropped] = self.blocks;
        let _ = writeln!(
            out,
            "post-copy        {pushed} pushed, {pulled} pulled, {dropped} dropped"
        );
        let [src, dst] = self.reconnects;
        let _ = writeln!(out, "reconnects       {src} src + {dst} dst");
        out
    }
}
