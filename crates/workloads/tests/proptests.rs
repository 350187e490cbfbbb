//! Property tests for the generator interface: appending into a held
//! buffer makes the same draws, in the same order, as a fresh vector.

use des::{SimDuration, SimRng};
use proptest::prelude::*;
use workloads::{record, OpKind, TimedOp, TraceWorkload, Workload, WorkloadKind};

/// A disk big enough for every paper workload (256 MiB of 4 KiB blocks).
const BLOCKS: u64 = 65_536;

/// Every [`WorkloadKind`], then (at `WorkloadKind::ALL.len()`) a looped
/// replay of a recorded web trace.
fn build(which: usize) -> Box<dyn Workload> {
    match WorkloadKind::ALL.get(which) {
        Some(kind) => kind.build(BLOCKS),
        None => {
            let mut web = WorkloadKind::Web.build(BLOCKS);
            let step = SimDuration::from_millis(100);
            let trace = record(
                web.as_mut(),
                SimDuration::from_secs(3),
                step,
                &mut SimRng::new(9),
            );
            let demand = TraceWorkload::demand_of(&trace, 4096);
            Box::new(TraceWorkload::new(trace, demand).looped())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// N ticks of `ops_into` into one buffer that is never cleared append
    /// exactly what `ops_for` returns on a same-seed twin, tick by tick;
    /// what the buffer held before (a sentinel, then earlier ticks) is
    /// kept; and both twins end on the same generator state.
    #[test]
    fn ops_into_appends_what_ops_for_returns(
        which in 0usize..WorkloadKind::ALL.len() + 1,
        seed in any::<u64>(),
        ticks in prop::collection::vec((1u64..500, 0.0f64..=1.5), 1..24),
    ) {
        let (mut held, mut fresh) = (build(which), build(which));
        let (mut held_rng, mut fresh_rng) = (SimRng::new(seed), SimRng::new(seed));
        let sentinel = TimedOp::new(SimDuration::from_nanos(7), OpKind::Read { block: u64::MAX });
        let mut buf = vec![sentinel];
        let mut want = buf.clone();
        for &(ms, load) in &ticks {
            let dt = SimDuration::from_millis(ms);
            let achieved = fresh.disk_demand() * load;
            want.extend(fresh.ops_for(dt, achieved, &mut fresh_rng));
            held.ops_into(dt, achieved, &mut held_rng, &mut buf);
            prop_assert_eq!(&buf, &want);
        }
        prop_assert_eq!(held_rng, fresh_rng);
    }
}
