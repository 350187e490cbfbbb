//! The §IV phase machine: every decision of the paper's three phases,
//! made once. It is sans-IO: a shell (the live source's threads and
//! frames, the simulator's virtual-time pacing, the fleet executor's
//! shared capacity) moves the bytes, tells the machine what it measured
//! and does what it returns.
//!
//! * [`PhaseMachine::end_pass`] journals a pre-copy pass and applies the
//!   [`StopRule`]; a stopped disk phase keeps its dirty set as the
//!   residual, a stopped memory phase its own as the freeze tail;
//! * [`PhaseMachine::suspend`] seals what the freeze sends: residual ∪
//!   the writes that raced the last drain, tail ∪ the pages dirtied
//!   since ([`FreezeBill`] books it for the virtual-time engines);
//! * post-copy drains a [`Worklist`]: a pull takes its block off, a
//!   destination write cancels a pending push (§III-A);
//! * `PhaseMachine::reconcile` folds a reconnecting destination's receipt
//!   into where the source restarts: owed = shipped − got.
//!
//! The destination's arrival gate (`live::io::DestIo`, the simulator's
//! destination bitmap) stays with each destination.

// Lint zones (DESIGN.md §11): deterministic.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod book;

pub use book::{
    batch_wire, fetch_wire, frame_wire, freeze_window, pace_step, units_wire, FreezeBill, PAGE_SIZE,
};

use block_bitmap::{mask_last, DirtyMap, FlatBitmap, BITS_PER_WORD};
use telemetry::{Event, Phase, Resource, Side};

/// The pre-copy stop rule (§IV-A-1), disk and memory alike: stop once a
/// pass left at most `threshold` units dirty (converged), once it was
/// pass `max_passes` (capped), or once the guest dirtied at least as many
/// units as the pass sent — a dirty rate the transfer cannot outrun.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StopRule {
    /// The last pass permitted.
    pub max_passes: u32,
    /// Dirty units a pass may leave and still converge.
    pub threshold: usize,
}

impl StopRule {
    /// At most `max_passes` passes, converged at `threshold` dirty units.
    pub const fn new(max_passes: u32, threshold: usize) -> Self {
        Self {
            max_passes,
            threshold,
        }
    }

    fn stops(self, pass: u32, sent: u64, dirty: usize) -> bool {
        dirty <= self.threshold || pass >= self.max_passes || (sent > 0 && dirty as u64 >= sent)
    }
}

/// The journal vocabulary a machine speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Voice {
    /// A two-host engine: `Iteration`, per-side `PhaseStart`/`PhaseEnd`,
    /// `Suspended` and `Resumed`.
    Engine,
    /// Fleet migration `id`: `MigrationPass`, `MigrationPhaseStart`/`End`.
    Fleet(u64),
}

/// What a reconnecting destination reports: nothing (it never
/// prepared), the blocks and pages the failed session delivered (`true`
/// once it saw the guest suspend), or the blocks it still needs while it
/// runs the guest.
pub(crate) enum Receipt {
    Unprepared,
    Got(FlatBitmap, FlatBitmap, bool),
    StillNeeded(FlatBitmap),
}

/// What a source that reconnects still owes, by where it goes next.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    /// The disk pass's worklist.
    pub disk: Vec<usize>,
    /// Blocks owed ahead of the memory pass or the freeze payloads.
    pub resend: Vec<usize>,
    /// The memory pass's worklist.
    pub mem: Vec<usize>,
    /// The freeze tail.
    pub tail: Vec<usize>,
    /// The post-copy push set.
    pub push: Worklist,
    /// What the current session shipped, blocks and pages.
    pub shipped: [FlatBitmap; 2],
    /// The destination saw `Suspended`.
    pub dest_suspended: bool,
}

/// Add `owed` to `queue`, sorted and deduplicated over `nbits` slots.
pub(crate) fn requeue(queue: &mut Vec<usize>, owed: impl IntoIterator<Item = usize>, nbits: usize) {
    let mut bm = FlatBitmap::new(nbits);
    for u in owed.into_iter().chain(queue.iter().copied()) {
        bm.set(u);
    }
    *queue = bm.to_indices();
}

/// One migration's §IV decisions (see the module docs).
#[derive(Debug, Clone)]
pub struct PhaseMachine {
    voice: Voice,
    phase: Phase,
    /// Disk, then memory.
    rules: [StopRule; 2],
    passes: [u32; 2],
    residual: FlatBitmap,
    tail: FlatBitmap,
}

impl Default for PhaseMachine {
    fn default() -> Self {
        Self::new(Voice::Engine, StopRule::default(), StopRule::default())
    }
}

impl PhaseMachine {
    /// A migration about to start disk pre-copy.
    pub fn new(voice: Voice, disk: StopRule, mem: StopRule) -> Self {
        Self {
            voice,
            phase: Phase::DiskPrecopy,
            rules: [disk, mem],
            passes: [0; 2],
            residual: FlatBitmap::default(),
            tail: FlatBitmap::default(),
        }
    }

    /// The phase the source is in.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The migration starts: disk pre-copy opens.
    pub fn start(&self, mut emit: impl FnMut(Event)) {
        emit(self.opens(Side::Source, Phase::DiskPrecopy));
    }

    /// A pass of the current pre-copy phase sent `sent` units (`bytes` on
    /// the wire) and left `dirty`. Journals it through `emit`; returns the
    /// next pass's worklist, or `None` once the phase stopped.
    pub fn end_pass(
        &mut self,
        sent: u64,
        bytes: u64,
        dirty: FlatBitmap,
        mut emit: impl FnMut(Event),
    ) -> Option<FlatBitmap> {
        let disk = self.phase == Phase::DiskPrecopy;
        let r = usize::from(!disk);
        self.passes[r] += 1;
        let (index, left) = (self.passes[r], dirty.count_ones());
        let resource = [Resource::Disk, Resource::Memory][r];
        emit(match self.voice {
            Voice::Engine => Event::Iteration {
                side: Side::Source,
                resource,
                index: u64::from(index),
                units_sent: sent,
                bytes,
                dirty_at_end: left as u64,
            },
            Voice::Fleet(migration) => Event::MigrationPass {
                migration,
                resource,
                index: u64::from(index),
                units_sent: sent,
                dirty_at_end: left as u64,
            },
        });
        if !self.rules[r].stops(index, sent, left) {
            return Some(dirty);
        }
        if disk {
            // The residual is NOT sent: it becomes the freeze bitmap.
            self.residual = dirty;
            self.change(Side::Source, Phase::MemPrecopy, &mut emit);
        } else {
            // Drained at the decision and not sent: the freeze tail.
            self.tail = dirty;
            self.phase = Phase::Freeze;
        }
        None
    }

    /// The guest stopped: `raced` holds the block writes since the last
    /// drain, `raced_pages` the page writes (`None`: the shell models
    /// none). Returns what the freeze sends: the frozen block-bitmap,
    /// shipped instead of the blocks and then the push set, and the
    /// memory tail. Memory pre-copy ends here, whenever its last pass did.
    pub fn suspend(
        &mut self,
        raced: &FlatBitmap,
        raced_pages: Option<&FlatBitmap>,
        mut emit: impl FnMut(Event),
    ) -> (FlatBitmap, FlatBitmap) {
        let mut blocks = std::mem::take(&mut self.residual);
        blocks.union_with(raced);
        let mut pages = std::mem::take(&mut self.tail);
        if let Some(raced) = raced_pages {
            pages.union_with(raced);
        }
        self.phase = Phase::MemPrecopy;
        self.change(Side::Source, Phase::Freeze, &mut emit);
        if self.voice == Voice::Engine {
            emit(Event::Suspended { side: Side::Source });
        }
        (blocks, pages)
    }

    /// The guest runs on the destination: post-copy starts.
    pub fn resume(&mut self, mut emit: impl FnMut(Event)) {
        self.change(Side::Destination, Phase::PostCopy, &mut emit);
        if self.voice == Voice::Engine {
            let side = Side::Destination;
            emit(Event::Resumed { side });
        }
    }

    /// Fold a reconnecting destination's `receipt` into the queues: what
    /// the failed session shipped and the destination did not get is
    /// owed, and goes where the source restarts. Returns the blocks owed;
    /// `Err` names a receipt no source state can follow.
    pub(crate) fn reconcile(
        &mut self,
        receipt: Receipt,
        q: &mut Queues,
    ) -> Result<u64, &'static str> {
        let [nb, np] = q.shipped.each_ref().map(FlatBitmap::len);
        let owed = |shipped: &FlatBitmap, got: &FlatBitmap| -> Vec<usize> {
            shipped.iter_set().filter(|&u| !got.get(u)).collect()
        };
        let (blocks, pages, frozen) = match receipt {
            // Nothing was ever acknowledged: all that was shipped is owed.
            Receipt::Unprepared => (q.shipped[0].to_indices(), Vec::new(), false),
            Receipt::Got(b, p, frozen) => {
                (owed(&q.shipped[0], &b), owed(&q.shipped[1], &p), frozen)
            }
            Receipt::StillNeeded(set) if self.phase == Phase::PostCopy => {
                let still = set.count_ones() as u64;
                q.push = Worklist::new(set);
                return Ok(still);
            }
            Receipt::StillNeeded(_) => {
                return Err("destination resumed but the source never shipped the bitmap")
            }
        };
        let owed = blocks.len() as u64;
        match self.phase {
            Phase::DiskPrecopy | Phase::MemPrecopy if frozen => {
                return Err("destination is frozen but the source never suspended")
            }
            Phase::DiskPrecopy => requeue(&mut q.disk, blocks, nb),
            Phase::MemPrecopy => {
                requeue(&mut q.resend, blocks, nb);
                requeue(&mut q.mem, pages, np);
            }
            // Post-copy progress is void if the destination never
            // resumed: every freeze payload goes again, and the push set
            // restarts from the whole frozen bitmap (re-read at push
            // time, so content stays current).
            Phase::Freeze | Phase::PostCopy => {
                self.phase = Phase::Freeze;
                requeue(&mut q.resend, blocks, nb);
                requeue(&mut q.tail, pages, np);
                q.dest_suspended = frozen;
            }
        }
        Ok(owed)
    }

    /// Close the current phase and open `next`; a two-host engine
    /// journals the change on `side`.
    fn change(&mut self, side: Side, next: Phase, emit: &mut impl FnMut(Event)) {
        let phase = self.phase;
        emit(match self.voice {
            Voice::Engine => Event::PhaseEnd { side, phase },
            Voice::Fleet(migration) => Event::MigrationPhaseEnd { migration, phase },
        });
        emit(self.opens(side, next));
        self.phase = next;
    }

    fn opens(&self, side: Side, phase: Phase) -> Event {
        match self.voice {
            Voice::Engine => Event::PhaseStart { side, phase },
            Voice::Fleet(migration) => Event::MigrationPhaseStart { migration, phase },
        }
    }
}

/// Units still to ship, walked by a cursor that wraps: the post-copy
/// push set, and the fleet executor's pass worklist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Worklist {
    set: FlatBitmap,
    cursor: usize,
}

impl Worklist {
    /// Ship every unit of `set`, from the start.
    pub fn new(set: FlatBitmap) -> Self {
        Self { set, cursor: 0 }
    }

    /// What is still to ship.
    #[inline]
    pub fn set(&self) -> &FlatBitmap {
        &self.set
    }

    /// Nothing is left to ship.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.none_set()
    }

    /// The next unit to ship, taken off the set: [`Worklist::take`] of one.
    #[inline]
    pub fn next(&mut self, within: Option<&mut FlatBitmap>) -> Option<usize> {
        let mut unit = None;
        self.take(1, within, |w, mask| {
            unit = Some(w * BITS_PER_WORD + mask.trailing_zeros() as usize);
        });
        unit
    }

    /// Take up to `n` units off the set a word at a time, handing each
    /// word's taken units to `out` as `(word index, mask)`: those from the
    /// cursor on in ascending order, then those from the start, and the
    /// cursor moves past the last one. With `within`, only its units
    /// qualify, and each taken unit leaves it too. Returns how many were
    /// taken.
    #[inline]
    pub fn take(
        &mut self,
        n: usize,
        within: Option<&mut FlatBitmap>,
        mut out: impl FnMut(usize, u64),
    ) -> usize {
        let Self { set, cursor } = self;
        let (from, mut also) = match within {
            Some(w) => (w, Some(set)),
            None => (set, None),
        };
        let mut last = None;
        let mut out = |w, mask: u64| {
            last = Some(mask_last(w, mask));
            out(w, mask);
        };
        let mut taken = from.take_from(*cursor, n, also.as_deref_mut(), &mut out);
        if taken < n {
            taken += from.take_from(0, n - taken, also, &mut out);
        }
        if let Some(u) = last {
            *cursor = u + 1;
        }
        taken
    }

    /// A pull: the block is answered now, ahead of every push, and is
    /// never pushed.
    #[inline]
    pub fn pull(&mut self, u: usize) {
        self.set.clear(u);
    }

    /// §III-A: a destination write overwrote the whole block, so its
    /// pending push is cancelled. `true` when one was pending.
    #[inline]
    pub fn cancel(&mut self, u: usize) -> bool {
        let pending = self.set.get(u);
        self.set.clear(u);
        pending
    }

    /// A unit whose frame was lost rejoins the set.
    #[inline]
    pub fn requeue(&mut self, u: usize) {
        self.set.set(u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_bitmap::mask_indices;

    const DISK: StopRule = StopRule::new(8, 64);
    const MEM: StopRule = StopRule::new(8, 256);

    fn bits(n: usize, set: impl IntoIterator<Item = usize>) -> FlatBitmap {
        let mut bm = FlatBitmap::new(n);
        for u in set {
            bm.set(u);
        }
        bm
    }

    /// A machine in memory pre-copy: one disk pass went again, the next
    /// stopped leaving `residual`.
    fn in_memory_precopy(residual: &[usize]) -> PhaseMachine {
        let mut m = PhaseMachine::new(Voice::Engine, DISK, MEM);
        let next = m.end_pass(1000, 0, bits(1000, 0..100), |_| {});
        assert!(next.is_some(), "100 of 1000 left dirty goes again");
        let stopped = m.end_pass(100, 0, bits(1000, residual.iter().copied()), |_| {});
        assert_eq!(stopped, None);
        assert_eq!(m.phase(), Phase::MemPrecopy);
        m
    }

    /// Whether disk pass `pass` (all before it ran and did not stop)
    /// stops after sending `sent` and leaving `dirty` dirty, by `rule`.
    fn stops(rule: StopRule, pass: u32, sent: u64, dirty: usize) -> bool {
        let mut m = PhaseMachine::new(Voice::Fleet(7), rule, MEM);
        m.passes[0] = pass - 1;
        let mut events = Vec::new();
        let next = m.end_pass(sent, 0, bits(4096, 0..dirty), |e| events.push(e));
        assert_eq!(
            events[0],
            Event::MigrationPass {
                migration: 7,
                resource: Resource::Disk,
                index: u64::from(pass),
                units_sent: sent,
                dirty_at_end: dirty as u64,
            }
        );
        assert_eq!(next.is_none(), m.phase() == Phase::MemPrecopy);
        next.is_none()
    }

    #[test]
    fn a_pass_stops_on_convergence_cap_or_a_dirty_rate_it_cannot_outrun() {
        let rule = |threshold| StopRule::new(8, threshold);
        // Converged: at most the threshold left dirty.
        assert!(stops(rule(64), 1, 1000, 64));
        assert!(!stops(rule(64), 1, 1000, 65));
        // Capped: the last permitted pass stops whatever it left.
        assert!(stops(rule(64), 8, 1000, 900));
        // Not converging: the pass dirtied at least what it sent.
        assert!(stops(rule(256), 2, 1609, 2048));
        assert!(stops(rule(256), 2, 500, 500));
        assert!(!stops(rule(256), 2, 501, 500));
        // A pass that sent nothing proves nothing about the rate.
        assert!(!stops(rule(256), 1, 0, 500));
    }

    #[test]
    fn passes_journal_their_index_and_a_stop_changes_phase() {
        let mut m = PhaseMachine::new(Voice::Engine, DISK, MEM);
        let mut events = Vec::new();
        let next = m.end_pass(1000, 4096, bits(1000, 0..500), |e| events.push(e));
        assert_eq!(next, Some(bits(1000, 0..500)));
        m.end_pass(500, 2048, bits(1000, 0..3), |e| events.push(e));
        let mut expected = vec![
            Event::Iteration {
                side: Side::Source,
                resource: Resource::Disk,
                index: 1,
                units_sent: 1000,
                bytes: 4096,
                dirty_at_end: 500,
            },
            Event::Iteration {
                side: Side::Source,
                resource: Resource::Disk,
                index: 2,
                units_sent: 500,
                bytes: 2048,
                dirty_at_end: 3,
            },
        ];
        expected.extend(Event::phase_change(
            Side::Source,
            Phase::DiskPrecopy,
            Phase::MemPrecopy,
        ));
        assert_eq!(events, expected);
    }

    #[test]
    fn the_freeze_sends_the_residual_and_the_writes_that_raced_the_last_drain() {
        let mut m = in_memory_precopy(&[5, 9]);
        // Memory converges, leaving pages 1 and 2 for the tail.
        assert_eq!(m.end_pass(64, 0, bits(64, [1, 2]), |_| {}), None);
        assert_eq!(m.phase(), Phase::Freeze);
        let mut events = Vec::new();
        let raced = (bits(1000, [9, 700]), bits(64, [40]));
        let frozen = m.suspend(&raced.0, Some(&raced.1), |e| events.push(e));
        assert_eq!(frozen, (bits(1000, [5, 9, 700]), bits(64, [1, 2, 40])));
        let [end, start] = Event::phase_change(Side::Source, Phase::MemPrecopy, Phase::Freeze);
        let suspended = Event::Suspended { side: Side::Source };
        assert_eq!(events, vec![end, start, suspended]);
    }

    #[test]
    fn a_pull_preempts_the_next_push() {
        let mut push = Worklist::new(bits(100, [3, 10, 20]));
        assert_eq!(push.next(None), Some(3));
        // The destination asks for 10, the block the cursor reaches next:
        // it is answered now and never pushed.
        push.pull(10);
        assert_eq!(push.next(None), Some(20));
        assert_eq!(push.next(None), None);
    }

    #[test]
    fn a_destination_write_cancels_a_pending_push() {
        let mut push = Worklist::new(bits(100, [3, 10, 20]));
        assert!(push.cancel(10), "10 was pending");
        assert!(!push.cancel(11), "11 never was");
        let pushed: Vec<usize> = std::iter::from_fn(|| push.next(None)).collect();
        assert_eq!(pushed, vec![3, 20]);
        assert!(push.is_empty());
    }

    #[test]
    fn the_cursor_wraps_to_a_unit_requeued_behind_it() {
        let mut list = Worklist::new(bits(100, [3, 10]));
        assert_eq!(list.next(None), Some(3));
        list.requeue(3);
        let mut within = bits(100, [3]);
        assert_eq!(list.next(Some(&mut within)), Some(3));
        assert!(within.none_set());
        assert_eq!(list.next(None), Some(10));
    }

    /// A unit taken by definition: the first of `within` (else of the
    /// set) from the cursor on, else the first from the start, cleared
    /// from the set and from `within`.
    fn next_by_definition(list: &mut Worklist, within: Option<&mut FlatBitmap>) -> Option<usize> {
        let from = within.as_deref().unwrap_or(&list.set);
        let u = (from.next_set_from(list.cursor)).or_else(|| from.next_set_from(0))?;
        list.set.clear(u);
        if let Some(w) = within {
            w.clear(u);
        }
        list.cursor = u + 1;
        Some(u)
    }

    /// A bitmap of `nbits` from random words, thinned to about a quarter
    /// when `sparse`.
    fn random_bits(nbits: usize, words: &[u64], thin: &[u64], sparse: bool) -> FlatBitmap {
        let n = nbits.div_ceil(64);
        let words = (words.iter().zip(thin).take(n))
            .map(|(&w, &t)| if sparse { w & t } else { w })
            .collect();
        FlatBitmap::from_words(nbits, words)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `take(n, within)` takes exactly what `n` calls of `next(within)`
        /// would, in the same order (each mask read lowest bit first), and
        /// leaves the same set, mask and cursor: over sets with partial
        /// tail words, empty sets, random cursors and masks, and `n` below
        /// and beyond the set's size.
        #[test]
        fn take_is_n_calls_of_next(
            nbits in 1usize..300,
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 5),
            thin in proptest::collection::vec(proptest::prelude::any::<u64>(), 5),
            mask in proptest::collection::vec(proptest::prelude::any::<u64>(), 5),
            sparse in proptest::bool::ANY,
            empty in proptest::bool::ANY,
            masked in proptest::bool::ANY,
            cursor in 0usize..300,
            n in 0usize..400,
        ) {
            let set = if empty {
                FlatBitmap::new(nbits)
            } else {
                random_bits(nbits, &words, &thin, sparse)
            };
            let start = Worklist { set, cursor: cursor.min(nbits) };
            let within = masked.then(|| random_bits(nbits, &mask, &thin, sparse));

            let (mut want, mut want_within, mut expected) = (start.clone(), within.clone(), vec![]);
            for _ in 0..n {
                match next_by_definition(&mut want, want_within.as_mut()) {
                    Some(u) => expected.push(u),
                    None => break,
                }
            }
            let (mut got, mut got_within, mut taken) = (start.clone(), within.clone(), vec![]);
            let count = got.take(n, got_within.as_mut(), |w, m| taken.extend(mask_indices(w, m)));
            proptest::prop_assert_eq!(count, taken.len());
            proptest::prop_assert_eq!(&taken, &expected);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&got_within, &want_within);

            // `next` is `take` of one.
            let (mut one, mut one_within) = (start.clone(), within.clone());
            let (mut def, mut def_within) = (start, within);
            for _ in 0..n.min(8) {
                proptest::prop_assert_eq!(
                    one.next(one_within.as_mut()),
                    next_by_definition(&mut def, def_within.as_mut())
                );
            }
            proptest::prop_assert_eq!(&one, &def);
        }
    }

    /// Queues whose session shipped `blocks` and `pages`.
    fn shipped(blocks: &[usize], pages: &[usize]) -> Queues {
        Queues {
            shipped: [
                bits(1000, blocks.iter().copied()),
                bits(64, pages.iter().copied()),
            ],
            ..Queues::default()
        }
    }

    #[test]
    fn reconciliation_requeues_exactly_shipped_minus_got() {
        let got = Receipt::Got(bits(1000, [2, 500, 900]), bits(64, [5]), false);
        let mut q = shipped(&[1, 2, 3, 500], &[4, 5, 6]);
        q.mem = vec![6, 9];
        let mut m = in_memory_precopy(&[]);
        assert_eq!(m.reconcile(got, &mut q), Ok(2));
        assert_eq!((q.resend, q.mem), (vec![1, 3], vec![4, 6, 9]));
        assert!(q.disk.is_empty() && q.tail.is_empty());
        // Still in disk pre-copy the owed blocks rejoin the pass; a
        // destination that never prepared is owed everything shipped.
        let mut q = shipped(&[1, 2, 3, 500], &[]);
        q.disk = vec![7];
        let got = Receipt::Got(bits(1000, [2]), bits(64, []), false);
        assert_eq!(PhaseMachine::default().reconcile(got, &mut q), Ok(3));
        assert_eq!(q.disk, vec![1, 3, 7, 500]);
        let mut q = shipped(&[1, 2], &[]);
        let unprepared = PhaseMachine::default().reconcile(Receipt::Unprepared, &mut q);
        assert_eq!((unprepared, q.disk), (Ok(2), vec![1, 2]));
    }

    #[test]
    fn reconciliation_after_suspend_refreezes_and_post_copy_adopts_the_receipt() {
        let mut m = in_memory_precopy(&[7]);
        m.end_pass(64, 0, bits(64, []), |_| {});
        m.suspend(&bits(1000, []), None, |_| {});
        m.resume(|_| {});
        let mut q = shipped(&[7], &[]);
        assert_eq!(
            m.reconcile(Receipt::StillNeeded(bits(1000, [7])), &mut q),
            Ok(1)
        );
        assert_eq!(q.push, Worklist::new(bits(1000, [7])));
        // A destination that never resumed voids post-copy progress.
        let got = Receipt::Got(bits(1000, []), bits(64, []), true);
        let mut q = shipped(&[7], &[1]);
        assert_eq!(m.reconcile(got, &mut q), Ok(1));
        assert_eq!(
            (q.resend, q.tail, q.dest_suspended),
            (vec![7], vec![1], true)
        );
        assert_eq!(m.phase(), Phase::Freeze);
        // Receipts no source state can follow.
        let mut m = PhaseMachine::default();
        let frozen = Receipt::Got(bits(1000, []), bits(64, []), true);
        assert!(m.reconcile(frozen, &mut shipped(&[], &[])).is_err());
        let resumed = Receipt::StillNeeded(bits(1000, []));
        assert!(m.reconcile(resumed, &mut shipped(&[], &[])).is_err());
    }
}
