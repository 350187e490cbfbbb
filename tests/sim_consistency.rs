//! Cross-crate integration: the simulated TPM/IM engines must produce a
//! consistent destination under *any* workload, seed and (sane)
//! geometry — the paper's §III "Consistency" requirement as a
//! property.

use block_bitmap_migration::prelude::*;
use block_bitmap_migration::telemetry;
use proptest::prelude::*;

fn tiny_cfg(disk_blocks: usize, mem_pages: usize, seed: u64) -> MigrationConfig {
    MigrationConfig {
        disk_blocks,
        mem_pages,
        seed,
        disk_dirty_threshold: 32,
        mem_dirty_threshold: 64,
        step: SimDuration::from_millis(100),
        ..MigrationConfig::small()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TPM leaves the destination equal to the source (modulo post-resume
    /// writes, which the engine verifies internally) for every workload
    /// and seed.
    #[test]
    fn tpm_always_consistent(
        seed in 0u64..1_000,
        kind_idx in 0usize..5,
        disk_kb in 32_768usize..200_000,
    ) {
        let kind = WorkloadKind::ALL[kind_idx];
        let cfg = tiny_cfg(disk_kb / 4, 4_096, seed);
        let out = run_tpm(cfg, kind);
        prop_assert!(out.report.consistent, "inconsistent: {}", out.report.summary());
        prop_assert_eq!(out.report.residual_blocks, 0);
        // Downtime is bounded: the point of live migration.
        prop_assert!(out.report.downtime_ms < 2_000.0);
        // The full disk crossed at least once.
        prop_assert!(out.report.disk_iterations[0].units_sent as usize == disk_kb / 4);
    }

    /// A TPM → dwell → IM round trip is consistent and IM moves less
    /// disk data than the primary.
    #[test]
    fn im_roundtrip_consistent_and_cheaper(
        seed in 0u64..1_000,
        kind_idx in 0usize..3,
        dwell_secs in 5u64..60,
    ) {
        let kind = WorkloadKind::TABLE1[kind_idx];
        let cfg = tiny_cfg(32_768, 4_096, seed);
        let mut out = run_tpm(cfg.clone(), kind);
        let primary_disk = out.report.ledger.disk_total();
        dwell(&mut out, &cfg, SimDuration::from_secs(dwell_secs));
        let back = run_im(cfg, out);
        prop_assert!(back.report.consistent, "IM inconsistent: {}", back.report.summary());
        prop_assert!(
            back.report.ledger.disk_total() < primary_disk,
            "IM moved {} vs primary {}",
            back.report.ledger.disk_total(),
            primary_disk
        );
    }

    /// The engine is fully deterministic: identical configs give
    /// bit-identical reports.
    #[test]
    fn deterministic_and_bitmap_kind_invariant(seed in 0u64..500, kind_idx in 0usize..3) {
        let kind = WorkloadKind::TABLE1[kind_idx];
        let a = run_tpm(tiny_cfg(16_384, 2_048, seed), kind);
        let b = run_tpm(tiny_cfg(16_384, 2_048, seed), kind);
        prop_assert_eq!(a.report.ledger, b.report.ledger);
        prop_assert_eq!(a.report.downtime_ms.to_bits(), b.report.downtime_ms.to_bits());
        prop_assert_eq!(
            a.report.total_time_secs.to_bits(),
            b.report.total_time_secs.to_bits()
        );
    }
}

/// Pinned regression from `sim_consistency.proptest-regressions`
/// (seed = 0, kind_idx = 0, layered = false, disk_kb = 64000): the web
/// workload used to panic on disks under 64 MiB because of an
/// over-conservative size floor, and the property's `disk_kb` range had
/// been narrowed to dodge it instead of fixing the floor. The stub
/// proptest runner does not replay regression files, so the input is
/// pinned here explicitly.
#[test]
fn tpm_consistent_on_62mib_disk_regression() {
    let kind = WorkloadKind::ALL[0];
    let disk_kb = 64_000usize;
    let cfg = tiny_cfg(disk_kb / 4, 4_096, 0);
    let out = run_tpm(cfg, kind);
    assert!(
        out.report.consistent,
        "inconsistent: {}",
        out.report.summary()
    );
    assert_eq!(out.report.residual_blocks, 0);
    assert!(out.report.downtime_ms < 2_000.0);
    assert_eq!(
        out.report.disk_iterations[0].units_sent as usize,
        disk_kb / 4
    );
}

#[test]
fn back_to_back_im_stays_consistent() {
    // Three consecutive round trips (the telecommute pattern).
    let cfg = tiny_cfg(32_768, 2_048, 7);
    let mut out = run_tpm(cfg.clone(), WorkloadKind::Web);
    assert!(out.report.consistent);
    for _ in 0..3 {
        dwell(&mut out, &cfg, SimDuration::from_secs(20));
        out = run_im(cfg.clone(), out);
        assert!(out.report.consistent);
        assert_eq!(out.report.scheme, "im");
    }
}

#[test]
fn rate_limited_migration_still_consistent() {
    let cfg = MigrationConfig {
        rate_limit: Some(2.0 * 1024.0 * 1024.0),
        ..tiny_cfg(16_384, 2_048, 3)
    };
    let out = run_tpm(cfg, WorkloadKind::Video);
    assert!(out.report.consistent);
}

/// Template-clone dedup at the paper's testbed scale (40 GB of 4 KiB
/// blocks, an idle guest): the destination was provisioned from the same
/// golden image and every 12th block has diverged since. Both byte counts
/// are pinned, so any change to what the simulator books on the wire
/// shows here as a changed digit.
#[test]
fn template_clone_dedup_wire_bytes_are_pinned() {
    use block_bitmap_migration::migrate::sim::run_template_clone_tpm;
    let bytes_sent = |dedup: bool| {
        let mut cfg = MigrationConfig::paper_testbed();
        cfg.seed = 2008;
        cfg.dedup = dedup;
        cfg.compress = dedup;
        let mut diverged = FlatBitmap::new(cfg.disk_blocks);
        for b in (0..cfg.disk_blocks).step_by(12) {
            diverged.set(b);
        }
        let out = run_template_clone_tpm(cfg, WorkloadKind::Idle, diverged);
        assert!(out.report.consistent);
        out.report.wire.bytes_sent
    };
    // 40 000 000 000 B is every block once; dedup cuts 95.5 % of it.
    assert_eq!(bytes_sent(false), 40_000_000_000);
    assert_eq!(bytes_sent(true), 1_809_897_696);
}

/// One round of the benchmark's `virtual_time` suite at `seed`, each run
/// journaled by an enabled recorder: TPM under the web and the diabolical
/// guest and the 4-peer template fan-in (256 MiB disk, 16 MiB guest, the
/// paper testbed's rates), then an 8-VM cycle-aware rolling-maintenance
/// fleet.
struct SuiteRound {
    sims: [MigrationReport; 3],
    peer_fraction: f64,
    fleet: ClusterReport,
    /// Per run, in suite order: the journal's record count and the
    /// FNV-1a-64 of its JSONL export.
    journals: [(usize, u64); 4],
    /// The fleet's `cluster.steps` and `cluster.guest_ops` metrics.
    fleet_steps: u64,
    fleet_guest_ops: u64,
}

/// FNV-1a-64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn suite_round(seed: u64) -> SuiteRound {
    use block_bitmap_migration::migrate::sim::{run_template_clone_fanin_traced, run_tpm_traced};

    let journal = |rec: &Recorder| {
        let records = rec.records();
        (
            records.len(),
            fnv1a64(telemetry::to_jsonl(&records).as_bytes()),
        )
    };
    let cfg = MigrationConfig {
        disk_blocks: 65_536,
        mem_pages: 4_096,
        seed,
        ..MigrationConfig::paper_testbed()
    };
    let mut diverged = FlatBitmap::new(cfg.disk_blocks);
    for b in (0..cfg.disk_blocks).step_by(12) {
        diverged.set(b);
    }
    let recs: Vec<_> = (0..4).map(|_| Recorder::enabled()).collect();
    let web = run_tpm_traced(cfg.clone(), WorkloadKind::Web, recs[0].clone()).report;
    let diabolical = run_tpm_traced(cfg.clone(), WorkloadKind::Diabolical, recs[1].clone()).report;
    let fanin =
        run_template_clone_fanin_traced(cfg, WorkloadKind::Idle, diverged, 4, recs[2].clone())
            .report;

    let mut scn = format!("fleet hosts=8 vms=8 blocks=16384 seed={seed} policy=cycle-aware\n");
    for h in 0..8 {
        scn += &format!("host h{h} nic=25MiB\n");
    }
    for vm in 0..8 {
        scn += &format!("cycle vm{vm} high=20s low=40s scale=0.125 keep=1/8\n");
    }
    scn += "at 0s maintenance h0 h1 h2 h3 h4 h5 h6 h7 dwell=15s\n";
    let spec = block_bitmap_migration::scenario::parse(&scn).expect("fleet spec parses");
    let fleet = block_bitmap_migration::scenario::run(&spec, recs[3].clone())
        .expect("fleet runs")
        .report;
    let counter = |name: &str| recs[3].metrics().counter(name).get();
    SuiteRound {
        fleet_steps: counter("cluster.steps"),
        fleet_guest_ops: counter("cluster.guest_ops"),
        peer_fraction: fanin.multisource.peer_fraction(),
        sims: [web, diabolical, fanin],
        fleet,
        journals: [0, 1, 2, 3].map(|i| journal(&recs[i])),
    }
}

/// The simulated outputs of the benchmark's `virtual_time` suite at seed
/// 1, by equality, and every run's journal at seeds 1 and 7 by record
/// count and digest. Every guest op and every page touch is a random
/// draw, so a generator that draws once more, once less or in another
/// order changes a digit; an event journaled at another instant or in
/// another order changes a digest.
#[test]
fn virtual_time_outputs_are_pinned() {
    let round = suite_round(1);
    assert!(round.sims.iter().all(|r| r.consistent));
    let total_s: f64 = round.sims.iter().map(|r| r.total_time_secs).sum();
    let downtime_ms: f64 = round.sims.iter().map(|r| r.downtime_ms).sum();
    let wire_bytes: u64 = round.sims.iter().map(|r| r.ledger.total()).sum();
    assert_eq!(total_s, 16.792540988);
    assert_eq!(downtime_ms, 132.669965);
    assert_eq!(wire_bytes, 946_567_619);
    assert_eq!(round.peer_fraction, 0.916656494140625);

    let fleet = &round.fleet;
    assert!(fleet.all_consistent());
    assert_eq!(fleet.completed(), fleet.records.len());
    assert_eq!(fleet.makespan_secs(), 205.525798183);
    assert_eq!(fleet.total_bytes(), 1_055_502_911);
    // How the fleet's host time divides: steps, and guest ops drawn.
    assert_eq!((round.fleet_steps, round.fleet_guest_ops), (949, 446_686));

    // TPM web, TPM diabolical, fan-in, fleet.
    let seed1 = [
        (51, 636_487_679_124_536_475),
        (17, 2_521_803_080_156_543_265),
        (18, 5_289_254_101_281_495_556),
        (268, 12_976_178_118_105_488_681),
    ];
    assert_eq!(round.journals, seed1, "seed 1");
    let seed7 = [
        (48, 13_630_457_491_637_277_419),
        (17, 13_825_228_821_362_908_102),
        (18, 5_289_254_101_281_495_556),
        (268, 3_342_887_583_856_492_001),
    ];
    assert_eq!(suite_round(7).journals, seed7, "seed 7");

    // The suite's fleets cancel no post-copy push; the WAN scenario at
    // seed 3 cancels three, so their order is pinned here.
    let text = include_str!("../scenarios/wan.scn");
    let mut spec = block_bitmap_migration::scenario::parse(text).expect("wan.scn parses");
    spec.seed = Some(3);
    let rec = Recorder::enabled();
    block_bitmap_migration::scenario::run(&spec, rec.clone()).expect("wan.scn runs");
    let records = rec.records();
    let cancelled = (records.iter())
        .filter(|r| matches!(r.event, telemetry::Event::MigrationSyncCancelled { .. }))
        .count();
    assert_eq!(cancelled, 3);
    let text = telemetry::to_jsonl(&records);
    assert_eq!(
        (records.len(), fnv1a64(text.as_bytes())),
        (105, 5_055_221_022_036_877_238)
    );
}

/// The simulator's journals beyond the `virtual_time` suite, at the
/// suite's seed-1 config (65 536 blocks, 4 096 pages, the paper
/// testbed's rates), by record count and FNV-1a-64 of the JSONL export:
/// TPM under the video, kernel-build and idle guests, then one web
/// TPM → 20 s dwell → IM round trip, whose IM run ships what the
/// destination's tracker recorded. Each run goes through the write
/// tracker and the IM tracker, so a tracker that records one block more,
/// one less or drains in another order changes a digest.
#[test]
fn tpm_and_im_journals_are_pinned() {
    use block_bitmap_migration::migrate::sim::{run_im_traced, run_tpm_traced};

    let cfg = MigrationConfig {
        disk_blocks: 65_536,
        mem_pages: 4_096,
        seed: 1,
        ..MigrationConfig::paper_testbed()
    };
    let journal = |rec: &Recorder| {
        let records = rec.records();
        let text = telemetry::to_jsonl(&records);
        (records.len(), fnv1a64(text.as_bytes()))
    };
    let tpm = |kind| {
        let rec = Recorder::enabled();
        assert!(
            run_tpm_traced(cfg.clone(), kind, rec.clone())
                .report
                .consistent
        );
        journal(&rec)
    };
    let got = [
        tpm(WorkloadKind::Video),
        tpm(WorkloadKind::KernelBuild),
        tpm(WorkloadKind::Idle),
    ];
    let mut out = run_tpm(cfg.clone(), WorkloadKind::Web);
    dwell(&mut out, &cfg, SimDuration::from_secs(20));
    let rec = Recorder::enabled();
    let back = run_im_traced(cfg, out, rec.clone());
    assert!(back.report.consistent);
    assert_eq!(back.report.scheme, "im");
    let pinned = [
        (17, 11_416_957_774_817_009_941),
        (204, 16_320_228_782_984_245_062),
        (13, 16_112_414_427_598_610_463),
    ];
    assert_eq!(got, pinned, "TPM video, kernel build, idle");
    assert_eq!(
        journal(&rec),
        (13, 4_387_807_080_967_022_623),
        "web round trip's IM run"
    );
}
