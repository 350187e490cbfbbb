//! The two virtual-time engines side by side: one VM on an uncontended
//! two-host fleet against `run_tpm` with the same geometry and the paper
//! testbed's rates. Both drive `migrate::phase`'s machine, pacer and
//! freeze window on a seek-aware disk; what they still do differently
//! is each one's guest, post-copy and pace of a dedup reference
//! (DESIGN.md §13), and this test pins every difference that remains by
//! value.

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

/// A writing guest shows the divergences that remain, pinned here by
/// value (DESIGN.md §13):
/// * the guest's draws: the fleet's guest draws its disk ops on the VM's
///   stream and its page writes on one of their own, where the
///   simulator's guest draws both on one, so a pass leaves other dirt
///   (web: 44 blocks against 29);
/// * a dedup reference: the fleet paces it as a full block, the
///   simulator at `BLOCK_REF_WIRE`, so the diabolical guest's disk
///   passes from the second on run longer and end differently;
/// * post-copy: the fleet pushes on its steps without pulls, the
///   simulator in 32-block batches answering pulls first.
#[test]
fn busy_guests_differ_only_where_pinned() {
    let run = |disk: &[(u64, u64)], mem: &[(u64, u64)], phases: [(u64, u64); 4], bytes| Run {
        passes: [disk.to_vec(), mem.to_vec()],
        phases,
        bytes,
    };
    let web = (
        run(
            &[(65_536, 29)],
            &[(8_192, 289)],
            [
                (0, 5_120_000_000),
                (5_120_000_000, 5_388_907_563),
                (5_388_907_563, 5_438_580_666),
                (5_438_580_666, 5_740_946_291),
            ],
            303_893_681,
        ),
        run(
            &[(65_536, 44)],
            &[(8_192, 327)],
            [
                (0, 5_120_000_000),
                (5_120_000_000, 5_388_907_563),
                (5_388_907_563, 5_439_831_438),
                (5_439_831_438, 5_743_368_938),
            ],
            304_045_889,
        ),
    );
    let video = (
        run(
            &[(65_536, 4)],
            &[(8_192, 74)],
            [
                (0, 5_120_000_000),
                (5_120_000_000, 5_388_907_563),
                (5_388_907_563, 5_431_507_640),
                (5_431_507_640, 5_731_920_140),
            ],
            302_908_505,
        ),
        run(
            &[(65_536, 4)],
            &[(8_192, 85)],
            [
                (0, 5_120_000_000),
                (5_120_000_000, 5_388_907_563),
                (5_388_907_563, 5_431_869_427),
                (5_431_869_427, 5_732_281_927),
            ],
            302_953_633,
        ),
    );
    let diabolical = (
        run(
            &[
                (65_536, 16_384),
                (16_384, 8_191),
                (8_191, 2_411),
                (2_411, 1_025),
                (1_025, 0),
            ],
            &[(8_192, 453)],
            [
                (0, 7_834_391_300),
                (7_834_391_300, 8_103_298_863),
                (8_103_298_863, 8_158_364_025),
                (8_158_364_025, 8_458_364_025),
            ],
            391_508_361,
        ),
        run(
            &[
                (65_536, 16_384),
                (16_384, 8_191),
                (8_191, 3_034),
                (3_034, 0),
            ],
            &[(8_192, 482)],
            [
                (0, 8_414_941_902),
                (8_414_941_902, 8_683_849_465),
                (8_683_849_465, 8_739_868_429),
                (8_739_868_429, 9_039_868_429),
            ],
            391_727_233,
        ),
    );
    for (kind, (sim, fleet)) in [
        (WorkloadKind::Web, web),
        (WorkloadKind::Video, video),
        (WorkloadKind::Diabolical, diabolical),
    ] {
        assert_eq!(simulated(kind), sim, "{kind:?} on the simulator");
        assert_eq!(self::fleet(kind), fleet, "{kind:?} on the fleet");
    }
}
