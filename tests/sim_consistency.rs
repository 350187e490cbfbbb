//! Cross-crate integration: the simulated TPM/IM engines must produce a
//! consistent destination under *any* workload, seed, bitmap kind and
//! (sane) geometry — the paper's §III "Consistency" requirement as a
//! property.

use block_bitmap_migration::prelude::*;
use proptest::prelude::*;

fn tiny_cfg(
    disk_blocks: usize,
    mem_pages: usize,
    seed: u64,
    bitmap: BitmapKind,
) -> MigrationConfig {
    MigrationConfig {
        disk_blocks,
        mem_pages,
        bitmap,
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
    /// writes, which the engine verifies internally) for every workload,
    /// seed and bitmap kind.
    #[test]
    fn tpm_always_consistent(
        seed in 0u64..1_000,
        kind_idx in 0usize..5,
        layered in proptest::bool::ANY,
        disk_kb in 32_768usize..200_000,
    ) {
        let kind = WorkloadKind::ALL[kind_idx];
        let bitmap = if layered { BitmapKind::Layered } else { BitmapKind::Flat };
        let cfg = tiny_cfg(disk_kb / 4, 4_096, seed, bitmap);
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
        let cfg = tiny_cfg(32_768, 4_096, seed, BitmapKind::Flat);
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
    /// bit-identical reports; the bitmap kind never changes the outcome,
    /// only its cost.
    #[test]
    fn deterministic_and_bitmap_kind_invariant(seed in 0u64..500, kind_idx in 0usize..3) {
        let kind = WorkloadKind::TABLE1[kind_idx];
        let a = run_tpm(tiny_cfg(16_384, 2_048, seed, BitmapKind::Flat), kind);
        let b = run_tpm(tiny_cfg(16_384, 2_048, seed, BitmapKind::Flat), kind);
        let c = run_tpm(tiny_cfg(16_384, 2_048, seed, BitmapKind::Layered), kind);
        prop_assert_eq!(a.report.ledger.clone(), b.report.ledger.clone());
        prop_assert_eq!(a.report.downtime_ms.to_bits(), b.report.downtime_ms.to_bits());
        prop_assert_eq!(a.report.ledger, c.report.ledger);
        prop_assert_eq!(
            a.report.total_time_secs.to_bits(),
            c.report.total_time_secs.to_bits()
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
    let cfg = tiny_cfg(disk_kb / 4, 4_096, 0, BitmapKind::Flat);
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
    let cfg = tiny_cfg(32_768, 2_048, 7, BitmapKind::Layered);
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
        ..tiny_cfg(16_384, 2_048, 3, BitmapKind::Flat)
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

/// The simulated outputs of the benchmark's `virtual_time` suite at seed
/// 1, by equality: TPM under the web and the diabolical guest and the
/// 4-peer template fan-in (256 MiB disk, 16 MiB guest, the paper
/// testbed's rates), then an 8-VM cycle-aware rolling-maintenance fleet.
/// Every guest op and every page touch is a random draw, so a generator
/// that draws once more, once less or in another order changes a digit.
#[test]
fn virtual_time_outputs_are_pinned() {
    use block_bitmap_migration::migrate::sim::run_template_clone_fanin;

    let cfg = MigrationConfig {
        disk_blocks: 65_536,
        mem_pages: 4_096,
        seed: 1,
        ..MigrationConfig::paper_testbed()
    };
    let mut diverged = FlatBitmap::new(cfg.disk_blocks);
    for b in (0..cfg.disk_blocks).step_by(12) {
        diverged.set(b);
    }
    let web = run_tpm(cfg.clone(), WorkloadKind::Web).report;
    let diabolical = run_tpm(cfg.clone(), WorkloadKind::Diabolical).report;
    let fanin = run_template_clone_fanin(cfg, WorkloadKind::Idle, diverged, 4).report;
    let sims = [&web, &diabolical, &fanin];
    assert!(sims.iter().all(|r| r.consistent));
    let total_s: f64 = sims.iter().map(|r| r.total_time_secs).sum();
    let downtime_ms: f64 = sims.iter().map(|r| r.downtime_ms).sum();
    let wire_bytes: u64 = sims.iter().map(|r| r.ledger.total()).sum();
    assert_eq!(total_s, 16.792540988);
    assert_eq!(downtime_ms, 132.669965);
    assert_eq!(wire_bytes, 946_567_619);
    assert_eq!(fanin.multisource.peer_fraction(), 0.916656494140625);

    let mut scn = String::from("fleet hosts=8 vms=8 blocks=16384 seed=1 policy=cycle-aware\n");
    for h in 0..8 {
        scn += &format!("host h{h} nic=25MiB\n");
    }
    for vm in 0..8 {
        scn += &format!("cycle vm{vm} high=20s low=40s scale=0.125 keep=1/8\n");
    }
    scn += "at 0s maintenance h0 h1 h2 h3 h4 h5 h6 h7 dwell=15s\n";
    let spec = block_bitmap_migration::scenario::parse(&scn).expect("fleet spec parses");
    let fleet = block_bitmap_migration::scenario::run(&spec, Recorder::off())
        .expect("fleet runs")
        .report;
    assert!(fleet.all_consistent());
    assert_eq!(fleet.completed(), fleet.records.len());
    assert_eq!(fleet.makespan_secs(), 227.25);
    assert_eq!(fleet.total_bytes(), 1_075_676_807);
}
