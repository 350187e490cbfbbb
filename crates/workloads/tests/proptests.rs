//! Property tests for the generator interface: appending into a held
//! buffer makes the same draws, in the same order, as a fresh vector, and
//! a guest's writes are the same whether or not its reads are asked for.

use des::{SimDuration, SimRng};
use proptest::prelude::*;
use workloads::{record, Guest, OpKind, TimedOp, TraceWorkload, Workload, WorkloadKind};

/// A disk big enough for every paper workload (256 MiB of 4 KiB blocks).
const BLOCKS: u64 = 65_536;
/// A 32 MiB guest of 4 KiB pages.
const PAGES: usize = 8_192;

/// Every [`WorkloadKind`], then (at `WorkloadKind::ALL.len()`) a looped
/// replay of a recorded web trace.
fn build(which: usize) -> Box<dyn Workload> {
    match WorkloadKind::ALL.get(which) {
        Some(kind) => kind.build(BLOCKS),
        None => {
            let mut web = Guest::new(WorkloadKind::Web, BLOCKS, PAGES, SimRng::new(9));
            let step = SimDuration::from_millis(100);
            let trace = record(&mut web, SimDuration::from_secs(3), step);
            let demand = TraceWorkload::demand_of(&trace, 4096);
            Box::new(TraceWorkload::new(trace, demand).looped())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// N ticks of `draw_into` into one buffer that is never cleared
    /// append exactly what a same-seed twin draws into a fresh vector per
    /// tick; what the buffer held before (a sentinel, then earlier ticks)
    /// is kept; and both twins end on the same generator states.
    #[test]
    fn draw_into_appends_what_a_fresh_vector_gets(
        which in 0usize..WorkloadKind::ALL.len() + 1,
        seed in any::<u64>(),
        ticks in prop::collection::vec((1u64..500, 0.0f64..=1.5), 1..24),
    ) {
        let (mut held, mut fresh) = (build(which), build(which));
        let mut held_rngs = (SimRng::new(seed), SimRng::new(!seed));
        let mut fresh_rngs = held_rngs.clone();
        let sentinel = TimedOp::new(SimDuration::from_nanos(7), OpKind::Read { block: u64::MAX });
        let mut buf = vec![sentinel];
        let mut want = buf.clone();
        for &(ms, load) in &ticks {
            let dt = SimDuration::from_millis(ms);
            let achieved = fresh.disk_demand() * load;
            let (w, r) = &mut fresh_rngs;
            let mut ops = Vec::new();
            fresh.draw_into(dt, achieved, w, Some(r), &mut ops);
            want.extend(ops);
            let (w, r) = &mut held_rngs;
            held.draw_into(dt, achieved, w, Some(r), &mut buf);
            prop_assert_eq!(&buf, &want);
        }
        prop_assert_eq!(held_rngs, fresh_rngs);
    }

    /// Every kind of guest, at any seed: a twin that asks for its reads
    /// tick after tick (post-copy's draw) gets, among its ops, exactly the
    /// writes of a twin that asks for writes alone (pre-copy's), in the
    /// same order and at the same offsets; and switching between the two
    /// at any tick leaves the writes as they were.
    #[test]
    fn asking_for_reads_never_moves_the_write_stream(
        seed in any::<u64>(),
        ticks in prop::collection::vec((1u64..500, 0.0f64..=1.5, any::<bool>()), 1..24),
    ) {
        for which in 0..=WorkloadKind::ALL.len() {
            let guest = |w: Box<dyn Workload>| Guest::with_workload(w, PAGES, SimRng::new(seed));
            let (mut writer, mut reader, mut mixed) = (guest(build(which)), guest(build(which)), guest(build(which)));
            let (mut writes, mut ops, mut either) = (Vec::new(), Vec::new(), Vec::new());
            let demand = build(which).disk_demand();
            for &(ms, load, asks_reads) in &ticks {
                let (dt, achieved) = (SimDuration::from_millis(ms), demand * load);
                writer.writes_into(dt, achieved, &mut writes);
                reader.ops_into(dt, achieved, &mut ops);
                if asks_reads {
                    mixed.ops_into(dt, achieved, &mut either);
                } else {
                    mixed.writes_into(dt, achieved, &mut either);
                }
            }
            prop_assert!(writes.iter().all(|op| op.kind.is_write()));
            let of = |ops: &[TimedOp]| ops.iter().copied().filter(|op| op.kind.is_write()).collect::<Vec<_>>();
            prop_assert_eq!(&of(&ops), &writes, "{} reads", which);
            prop_assert_eq!(&of(&either), &writes, "{} mixed", which);
        }
    }
}
