//! Event-calendar simulator.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type EventFn<S> = Box<dyn FnOnce(&mut Simulator<S>, &mut S)>;

struct Entry<S> {
    at: SimTime,
    seq: u64,
    id: EventId,
    f: EventFn<S>,
}

impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Entry<S> {}
impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first, with the
        // sequence number as a deterministic FIFO tie-break.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulator over user state `S`.
///
/// Events are closures `FnOnce(&mut Simulator<S>, &mut S)`; they may
/// schedule further events. Two events at the same instant run in the order
/// they were scheduled.
///
/// ```
/// use des::{SimDuration, Simulator};
///
/// let mut sim: Simulator<Vec<u32>> = Simulator::new();
/// sim.schedule_in(SimDuration::from_secs(2), |sim, log| {
///     log.push(2);
///     sim.schedule_in(SimDuration::from_secs(1), |_, log| log.push(3));
/// });
/// sim.schedule_in(SimDuration::from_secs(1), |_, log| log.push(1));
/// let mut log = Vec::new();
/// sim.run_to_completion(&mut log);
/// assert_eq!(log, vec![1, 2, 3]);
/// assert_eq!(sim.now().as_secs_f64(), 3.0);
/// ```
pub struct Simulator<S> {
    now: SimTime,
    next_seq: u64,
    next_id: u64,
    queue: BinaryHeap<Entry<S>>,
    cancelled: std::collections::HashSet<u64>,
    executed: u64,
}

impl<S> Default for Simulator<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Simulator<S> {
    /// Create a simulator at t = 0 with an empty calendar.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            next_seq: 0,
            next_id: 0,
            queue: BinaryHeap::new(),
            cancelled: std::collections::HashSet::new(),
            executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending (including cancelled ones not yet
    /// reaped).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `f` at absolute virtual time `at`.
    ///
    /// # Panics
    /// Panics when `at` is in the past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Simulator<S>, &mut S) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {}",
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry {
            at,
            seq,
            id,
            f: Box::new(f),
        });
        id
    }

    /// Schedule `f` after a relative delay `d`.
    pub fn schedule_in(
        &mut self,
        d: SimDuration,
        f: impl FnOnce(&mut Simulator<S>, &mut S) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + d, f)
    }

    /// Cancel a previously scheduled event. Cancelling an already-executed
    /// or already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Execute the next event, advancing the clock to its timestamp.
    /// Returns `false` when the calendar is empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        while let Some(entry) = self.queue.pop() {
            if self.cancelled.remove(&entry.id.0) {
                continue;
            }
            debug_assert!(entry.at >= self.now, "event calendar went backwards");
            self.now = entry.at;
            self.executed += 1;
            (entry.f)(self, state);
            return true;
        }
        false
    }

    /// Run until the calendar drains.
    pub fn run_to_completion(&mut self, state: &mut S) {
        while self.step(state) {}
    }

    /// Run until `pred(state)` becomes true (checked after every event) or
    /// the calendar drains. Returns `true` when the predicate fired.
    pub fn run_while(&mut self, state: &mut S, mut pred: impl FnMut(&S) -> bool) -> bool {
        loop {
            if pred(state) {
                return true;
            }
            if !self.step(state) {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_in_time_order() {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(30), |_, v| v.push(30));
        sim.schedule_at(SimTime::from_nanos(10), |_, v| v.push(10));
        sim.schedule_at(SimTime::from_nanos(20), |_, v| v.push(20));
        let mut v = Vec::new();
        sim.run_to_completion(&mut v);
        assert_eq!(v, vec![10, 20, 30]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(5), move |_, v| v.push(i));
        }
        let mut v = Vec::new();
        sim.run_to_completion(&mut v);
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Simulator<u64> = Simulator::new();
        fn tick(sim: &mut Simulator<u64>, count: &mut u64) {
            *count += 1;
            if *count < 5 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_in(SimDuration::from_secs(1), tick);
        let mut count = 0;
        sim.run_to_completion(&mut count);
        assert_eq!(count, 5);
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_past_panics() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), |sim, _| {
            sim.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        sim.run_to_completion(&mut ());
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: Simulator<Vec<&'static str>> = Simulator::new();
        let id = sim.schedule_in(SimDuration::from_secs(1), |_, v| v.push("cancelled"));
        sim.schedule_in(SimDuration::from_secs(2), |_, v| v.push("kept"));
        sim.cancel(id);
        let mut v = Vec::new();
        sim.run_to_completion(&mut v);
        assert_eq!(v, vec!["kept"]);
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn cancel_twice_and_after_run_is_noop() {
        let mut sim: Simulator<()> = Simulator::new();
        let id = sim.schedule_in(SimDuration::from_secs(1), |_, _| {});
        sim.run_to_completion(&mut ());
        sim.cancel(id);
        sim.cancel(id);
        assert!(!sim.step(&mut ()));
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut sim: Simulator<u64> = Simulator::new();
        for i in 1..=10u64 {
            sim.schedule_at(SimTime::from_nanos(i), |_, n| *n += 1);
        }
        let mut n = 0;
        let fired = sim.run_while(&mut n, |&n| n >= 4);
        assert!(fired);
        assert_eq!(n, 4);
        let fired = sim.run_while(&mut n, |&n| n >= 100);
        assert!(!fired);
        assert_eq!(n, 10);
    }
}
