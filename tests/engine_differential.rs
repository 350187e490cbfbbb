//! The two virtual-time engines side by side: one VM on an uncontended
//! two-host fleet against `run_tpm` with the same geometry and the paper
//! testbed's rates. Both drive `migrate::phase`'s machine, pacer and
//! freeze window on a seek-aware disk and draw one `Guest`'s streams;
//! what they still do differently is each one's post-copy and pace of a
//! dedup reference (DESIGN.md §13), and this test pins every difference
//! that remains by value.

use block_bitmap_migration::prelude::*;
use block_bitmap_migration::telemetry::{Event, Phase, Record};

/// Blocks and pages of the shared geometry: 256 MiB disk, 32 MiB guest.
const BLOCKS: usize = 65_536;
const PAGES: usize = 8_192;

/// What one engine did, read off its journal.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    /// Per resource (disk, memory), each pass's units sent and units
    /// left dirty.
    passes: [Vec<(u64, u64)>; 2],
    /// Each phase's start and end, in virtual nanoseconds from the start.
    phases: [(u64, u64); 4],
    /// Bytes on the wire.
    bytes: u64,
}

impl Run {
    fn of(records: &[Record], bytes: u64) -> Self {
        let mut run = Run {
            passes: [Vec::new(), Vec::new()],
            phases: [(0, 0); 4],
            bytes,
        };
        for r in records {
            match r.event {
                Event::Iteration {
                    resource,
                    units_sent,
                    dirty_at_end,
                    ..
                }
                | Event::MigrationPass {
                    resource,
                    units_sent,
                    dirty_at_end,
                    ..
                } => run.passes[resource as usize].push((units_sent, dirty_at_end)),
                Event::PhaseStart { phase, .. } | Event::MigrationPhaseStart { phase, .. } => {
                    run.phases[phase as usize].0 = r.t_nanos;
                }
                Event::PhaseEnd { phase, .. } | Event::MigrationPhaseEnd { phase, .. } => {
                    run.phases[phase as usize].1 = r.t_nanos;
                }
                _ => {}
            }
        }
        run
    }

    fn lasts(&self, phase: Phase) -> u64 {
        let (start, end) = self.phases[phase as usize];
        end - start
    }
}

fn simulated(kind: WorkloadKind) -> Run {
    let cfg = MigrationConfig {
        disk_blocks: BLOCKS,
        mem_pages: PAGES,
        ..MigrationConfig::paper_testbed()
    };
    let rec = Recorder::enabled();
    let out = block_bitmap_migration::migrate::sim::run_tpm_traced(cfg, kind, rec.clone());
    assert!(out.report.consistent);
    Run::of(&rec.records(), out.report.ledger.total())
}

fn fleet(kind: WorkloadKind) -> Run {
    let mut cfg = ClusterConfig::new(2, 1);
    cfg.disk_blocks = BLOCKS;
    cfg.mem_pages = PAGES;
    cfg.workload_cycle = vec![kind];
    let scenario = Scenario::single_wave(&cfg, None);
    let rec = Recorder::enabled();
    let report = Orchestrator::new(cfg, Policy::Fifo, rec.clone())
        .expect("valid config")
        .run(&scenario);
    assert_eq!(report.completed(), 1);
    assert!(report.all_consistent());
    Run::of(&rec.records(), report.records[0].bytes)
}

/// An idle guest dirties nothing, so each engine's own clock and guest
/// are all that could tell the two apart, and neither does: the fleet
/// steps with the simulator's pacer on the simulator's seek-aware disk
/// and ends post-copy with its handshake, so the passes and their units,
/// every phase's start and end to the nanosecond and the bytes on the
/// wire are equal.
#[test]
fn an_idle_guest_migrates_alike_on_both_engines() {
    let (sim, fleet) = (simulated(WorkloadKind::Idle), fleet(WorkloadKind::Idle));
    assert_eq!(sim.passes, [vec![(65_536, 0)], vec![(8_192, 0)]]);
    assert_eq!(sim.lasts(Phase::Freeze), 40_166_108);
    assert_eq!(sim.bytes, 302_588_345);
    assert_eq!(fleet, sim);
}

/// A writing guest draws its writes and page writes alike on both
/// engines (one `Guest`, one stream for each, pages only while memory
/// pre-copy runs, a pass ending with its step's dirt), so the web and
/// video guests' passes and every phase's start and end are equal to the
/// nanosecond, as the idle guest's are. What still differs is pinned here
/// by value (DESIGN.md §13):
/// * post-copy's bytes: the simulator pushes full blocks in 32-block
///   frames and books a `PushComplete`, the fleet books one frame per
///   step and sends a block the destination already holds at the live
///   generation as a reference (web: 26 of its 45 frozen blocks);
/// * a dedup reference's pace: the fleet paces it as a full block, the
///   simulator at `BLOCK_REF_WIRE`, so the diabolical guest's disk
///   passes from the second on run longer and end differently.
#[test]
fn busy_guests_differ_only_where_pinned() {
    let run = |disk: &[(u64, u64)], mem: &[(u64, u64)], phases: [(u64, u64); 4], bytes| Run {
        passes: [disk.to_vec(), mem.to_vec()],
        phases,
        bytes,
    };
    for (kind, disk, mem, phases, [sim_bytes, fleet_bytes]) in [
        (
            WorkloadKind::Web,
            (65_536, 45),
            (8_192, 289),
            [
                (0, 5_120_000_000),
                (5_120_000_000, 5_388_907_563),
                (5_388_907_563, 5_438_581_692),
                (5_438_581_692, 5_742_197_317),
            ],
            [303_959_489, 303_853_169],
        ),
        (
            WorkloadKind::Video,
            (65_536, 4),
            (8_192, 73),
            [
                (0, 5_120_000_000),
                (5_120_000_000, 5_388_907_563),
                (5_388_907_563, 5_431_474_751),
                (5_431_474_751, 5_731_887_251),
            ],
            [302_904_401, 302_904_385],
        ),
    ] {
        let (sim, fleet) = (simulated(kind), fleet(kind));
        assert_eq!(sim, run(&[disk], &[mem], phases, sim_bytes), "{kind:?}");
        assert_eq!(fleet.passes, sim.passes, "{kind:?}");
        assert_eq!(fleet.phases, sim.phases, "{kind:?}");
        assert_eq!(fleet.bytes, fleet_bytes, "{kind:?}");
    }

    let diabolical = (
        run(
            &[
                (65_536, 16_384),
                (16_384, 8_191),
                (8_191, 2_412),
                (2_412, 1_025),
                (1_025, 0),
            ],
            &[(8_192, 427)],
            [
                (0, 7_834_391_655),
                (7_834_391_655, 8_103_299_218),
                (8_103_299_218, 8_157_509_246),
                (8_157_509_246, 8_457_509_246),
            ],
            391_401_705,
        ),
        run(
            &[
                (65_536, 16_384),
                (16_384, 8_191),
                (8_191, 1_727),
                (1_727, 0),
            ],
            &[(8_192, 427)],
            [
                (0, 8_296_296_296),
                (8_296_296_296, 8_565_203_859),
                (8_565_203_859, 8_619_413_887),
                (8_619_413_887, 8_919_413_887),
            ],
            391_480_585,
        ),
    );
    let kind = WorkloadKind::Diabolical;
    assert_eq!(simulated(kind), diabolical.0, "on the simulator");
    assert_eq!(self::fleet(kind), diabolical.1, "on the fleet");
}
