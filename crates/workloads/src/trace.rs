//! Trace recording and replay.
//!
//! Any workload's op stream can be recorded into an [`OpTrace`]
//! (serializable, for offline locality analysis or archival) and replayed
//! later through [`TraceWorkload`], which implements [`Workload`] so a
//! recorded stream can drive a migration exactly like a live generator.
//! Replay is also the mechanism behind the scripted post-copy race tests:
//! a hand-written trace pins guest reads/writes to exact virtual times.

use des::{SimDuration, SimRng};
use vmstate::WssModel;

use crate::{Guest, OpTrace, TimedOp, Workload};

/// Record `duration` of a guest's op stream, writes and reads (driven at
/// its full demand), into a trace with absolute offsets from the
/// recording start, in time order: a generator draws each op's offset
/// within its step, so a step's ops are sorted by it (stably: ops at one
/// instant keep the order they were generated in), and a replay may
/// split a step anywhere.
pub fn record(guest: &mut Guest, duration: SimDuration, step: SimDuration) -> OpTrace {
    assert!(step > SimDuration::ZERO, "step must be positive");
    let mut trace = OpTrace::new();
    let mut elapsed = SimDuration::ZERO;
    while elapsed < duration {
        let dt = step.min(duration - elapsed);
        let demand = guest.disk_demand();
        let from = trace.ops.len();
        guest.ops_into(dt, demand, &mut trace.ops);
        let step_ops = &mut trace.ops[from..];
        for op in step_ops.iter_mut() {
            *op = TimedOp::new(elapsed + op.offset(), op.kind);
        }
        step_ops.sort_by_key(|op| op.offset());
        elapsed += dt;
    }
    trace
}

/// Replays a recorded (or hand-written) trace as a [`Workload`].
///
/// Ops are emitted when the replay clock passes their absolute offset;
/// offsets within each emitted batch are re-based to the interval start.
/// The stream is open-loop (a trace has no feedback), and after the trace
/// is exhausted the workload optionally loops. A looped replay restarts
/// the trace at the next interval: the rest of the interval that emitted
/// the last op is dropped, not filled from the trace's start.
#[derive(Debug)]
pub struct TraceWorkload {
    trace: OpTrace,
    cursor: usize,
    clock: SimDuration,
    looping: bool,
    disk_demand: f64,
    client_baseline: f64,
}

impl TraceWorkload {
    /// Create a one-shot replay of `trace`.
    ///
    /// `disk_demand` is the nominal disk load the trace represents
    /// (bytes/second) — used by the contention model; derive it from the
    /// recording with [`TraceWorkload::demand_of`] when unsure.
    pub fn new(trace: OpTrace, disk_demand: f64) -> Self {
        Self {
            trace,
            cursor: 0,
            clock: SimDuration::ZERO,
            looping: false,
            disk_demand,
            client_baseline: disk_demand,
        }
    }

    /// Replay the trace endlessly (wrapping offsets).
    pub fn looped(mut self) -> Self {
        self.looping = true;
        self
    }

    /// Mean disk demand of a trace at `block_size` bytes per op.
    pub fn demand_of(trace: &OpTrace, block_size: u64) -> f64 {
        let len = trace
            .ops
            .last()
            .map(|op| op.offset().as_secs_f64())
            .unwrap_or(0.0);
        if len <= 0.0 {
            return 0.0;
        }
        trace.ops.len() as f64 * block_size as f64 / len
    }

    /// Ops remaining in a one-shot replay.
    pub fn remaining(&self) -> usize {
        self.trace.ops.len() - self.cursor
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn disk_demand(&self) -> f64 {
        self.disk_demand
    }

    fn closed_loop(&self) -> bool {
        false
    }

    fn draw_into(
        &mut self,
        dt: SimDuration,
        _: f64,
        _: &mut SimRng,
        read_rng: Option<&mut SimRng>,
        out: &mut Vec<TimedOp>,
    ) {
        let reads = read_rng.is_some();
        let start = self.clock;
        let end = self.clock + dt;
        while self.cursor < self.trace.ops.len() {
            let op = self.trace.ops[self.cursor];
            if op.offset() >= end {
                break;
            }
            if reads || op.kind.is_write() {
                out.push(TimedOp::new(op.offset() - start, op.kind));
            }
            self.cursor += 1;
        }
        self.clock = end;
        if self.looping && self.cursor >= self.trace.ops.len() && !self.trace.is_empty() {
            // Wrap: the next interval starts the trace over.
            self.cursor = 0;
            self.clock = SimDuration::ZERO;
        }
    }

    fn client_throughput(&self, achieved: f64) -> f64 {
        if self.disk_demand <= 0.0 {
            0.0
        } else {
            self.client_baseline * (achieved / self.disk_demand).min(1.0)
        }
    }

    fn wss_model(&self, num_pages: usize) -> WssModel {
        WssModel::idle(num_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, WorkloadKind};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn record_then_replay_preserves_ops() {
        let mut guest = Guest::new(WorkloadKind::Web, 1 << 22, 64, SimRng::new(5));
        let trace = record(&mut guest, SimDuration::from_secs(30), ms(500));
        assert!(!trace.is_empty());
        assert!(trace.write_count() > 0);

        let total = trace.len();
        let mut replay = TraceWorkload::new(trace, 1e6);
        let mut rng2 = SimRng::new(0);
        let mut replayed = 0usize;
        for _ in 0..40 {
            replayed += replay
                .ops_for(SimDuration::from_secs(1), 1e6, &mut rng2)
                .len();
        }
        assert_eq!(
            replayed, total,
            "every recorded op must replay exactly once"
        );
        assert_eq!(replay.remaining(), 0);
    }

    #[test]
    fn a_recording_replays_at_intervals_that_split_its_steps() {
        // Web draws each op's offset within its step, so a step's ops come
        // out of the generator in no time order.
        let mut guest = Guest::new(WorkloadKind::Web, 1 << 22, 64, SimRng::new(5));
        let trace = record(&mut guest, SimDuration::from_secs(5), ms(500));
        assert!(trace.len() > 100);
        for interval in [ms(300), ms(70)] {
            let mut replay = TraceWorkload::new(trace.clone(), 1e6);
            let mut rng = SimRng::new(0);
            let (mut start, mut buf, mut replayed) = (SimDuration::ZERO, Vec::new(), Vec::new());
            while replay.remaining() > 0 {
                buf.clear();
                replay.draw_into(interval, 1e6, &mut rng, Some(&mut SimRng::new(1)), &mut buf);
                replayed.extend(
                    buf.iter()
                        .map(|op| TimedOp::new(start + op.offset(), op.kind)),
                );
                start += interval;
            }
            // Every op once, at its recorded time, and time never runs back.
            assert_eq!(replayed, trace.ops, "at {interval:?}");
            assert!(replayed.windows(2).all(|w| w[0].offset() <= w[1].offset()));
        }
    }

    #[test]
    fn replay_respects_timing() {
        let mut trace = OpTrace::new();
        trace.push(TimedOp::new(ms(100), OpKind::Write { block: 1 }));
        trace.push(TimedOp::new(ms(1_500), OpKind::Write { block: 2 }));
        trace.push(TimedOp::new(ms(2_100), OpKind::Read { block: 1 }));
        let mut w = TraceWorkload::new(trace, 1000.0);
        let mut rng = SimRng::new(0);

        let s1 = w.ops_for(SimDuration::from_secs(1), 1000.0, &mut rng);
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].kind, OpKind::Write { block: 1 });
        assert_eq!(s1[0].offset(), ms(100));

        let s2 = w.ops_for(SimDuration::from_secs(1), 1000.0, &mut rng);
        assert_eq!(s2.len(), 1);
        assert_eq!(s2[0].offset(), ms(500)); // re-based to interval start

        let s3 = w.ops_for(SimDuration::from_secs(1), 1000.0, &mut rng);
        assert_eq!(s3.len(), 1);
        assert!(!s3[0].kind.is_write());
    }

    #[test]
    fn looped_replay_wraps() {
        let mut trace = OpTrace::new();
        trace.push(TimedOp::new(ms(10), OpKind::Write { block: 7 }));
        let mut w = TraceWorkload::new(trace, 1000.0).looped();
        let mut rng = SimRng::new(0);
        let mut seen = 0;
        for _ in 0..5 {
            seen += w.ops_for(ms(100), 1000.0, &mut rng).len();
        }
        assert!(seen >= 4, "looped trace must keep emitting (saw {seen})");
    }

    #[test]
    fn demand_estimation() {
        let mut trace = OpTrace::new();
        for i in 0..100 {
            trace.push(TimedOp::new(ms(i * 10), OpKind::Write { block: i }));
        }
        // 100 ops over ~1s at 4096 B/op ≈ 410 KB/s.
        let d = TraceWorkload::demand_of(&trace, 4096);
        assert!((350_000.0..500_000.0).contains(&d), "demand {d}");
        assert_eq!(TraceWorkload::demand_of(&OpTrace::new(), 4096), 0.0);
    }

    #[test]
    fn trace_json_roundtrip_through_replay() {
        let mut guest = Guest::new(WorkloadKind::Video, 1 << 22, 64, SimRng::new(9));
        let trace = record(&mut guest, SimDuration::from_secs(5), ms(500));
        let json = trace.to_json();
        let back = OpTrace::from_json(&json).expect("roundtrip");
        assert_eq!(back.ops, trace.ops);
    }
}
