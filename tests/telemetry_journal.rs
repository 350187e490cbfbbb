//! Telemetry journal consistency tests.
//!
//! A report is read off the fold of its run's events, so a journal of
//! those events must fold to the same report: written out, parsed back
//! and folded, it equals the run's own account, field for field, for the
//! simulated and the live engine alike. The event stream must also
//! respect the §III-A cancellation ordering — once a destination write
//! cancels synchronization for a block, that block must never again
//! arrive as a push or a pull.

use block_bitmap_migration::migrate::live::{run_live, LiveConfig, LiveRun};
use block_bitmap_migration::migrate::sim::{
    run_im_traced, run_template_clone_fanin_traced, run_tpm_traced,
};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::simnet::proto::Category;
use block_bitmap_migration::telemetry::{from_jsonl, to_jsonl, Event, Fold, Phase, Resource, Side};

/// The fold of `rec`'s journal, after a trip through JSONL.
fn journal_fold(rec: &Recorder) -> Fold {
    let text = to_jsonl(&rec.export());
    let records = from_jsonl(&text).expect("journal parses back");
    assert_eq!(
        to_jsonl(&records),
        text,
        "JSONL round-trip altered the journal"
    );
    Fold::of_journal(&records).expect("a whole journal folds")
}

/// A simulated run's journal folds to its report: phases, both iteration
/// tables and the post-copy counts, bit for bit (f64 equality).
fn assert_sim_journal_folds_to(rec: &Recorder, out: &TpmOutcome) {
    let fold = journal_fold(rec);
    let r = &out.report;
    let folded = (
        fold.phases(),
        fold.iterations(Resource::Disk),
        fold.iterations(Resource::Memory),
        fold.postcopy_blocks(),
        fold.phases().postcopy_secs,
    );
    let reported = (
        r.phases,
        &r.disk_iterations[..],
        &r.mem_iterations[..],
        [r.postcopy.pushed, r.postcopy.pulled, r.postcopy.dropped],
        r.postcopy.duration_secs,
    );
    assert_eq!(folded, reported, "{} / {}", r.scheme, r.workload);
    assert_eq!(fold, out.fold);
}

/// TPM under a web and a diabolical guest, the IM hop back, and the
/// template fan-in: each journal folds to its report.
#[test]
fn sim_journals_fold_to_their_reports() {
    let cfg = MigrationConfig::small();
    for kind in [WorkloadKind::Web, WorkloadKind::Diabolical] {
        let rec = Recorder::enabled();
        let out = run_tpm_traced(cfg.clone(), kind, rec.clone());
        assert!(out.report.consistent);
        assert_sim_journal_folds_to(&rec, &out);
        if kind == WorkloadKind::Web {
            let mut out = out;
            dwell(&mut out, &cfg, SimDuration::from_secs(5));
            let rec = Recorder::enabled();
            let back = run_im_traced(cfg.clone(), out, rec.clone());
            assert!(back.report.consistent);
            assert_eq!(back.report.scheme, "im");
            assert_sim_journal_folds_to(&rec, &back);
        }
    }
    let mut diverged = FlatBitmap::new(cfg.disk_blocks);
    for b in (0..cfg.disk_blocks).step_by(12) {
        diverged.set(b);
    }
    let rec = Recorder::enabled();
    let out = run_template_clone_fanin_traced(cfg, WorkloadKind::Idle, diverged, 4, rec.clone());
    assert!(out.report.consistent && out.report.multisource.plans > 0);
    assert_sim_journal_folds_to(&rec, &out);
}

/// A journal the recorder's bound cut ends in `JournalDropped`, and the
/// fold refuses it, naming what was dropped, rather than reading the
/// spans it lost as zero.
#[test]
fn an_overflowed_journal_refuses_to_fold() {
    let rec = Recorder::new(8);
    let out = run_tpm_traced(MigrationConfig::small(), WorkloadKind::Web, rec.clone());
    assert!(out.report.consistent);
    let records = from_jsonl(&to_jsonl(&rec.export())).expect("parses");
    assert_eq!(records.len(), 9);
    let n = rec.dropped();
    assert!(n > 0);
    assert_eq!(records[8].event, Event::JournalDropped { n });
    let err = Fold::of_journal(&records).expect_err("a cut journal must not fold");
    assert!(err.contains(&format!("dropped {n} records")), "{err}");
}

/// Satellite (§III-A ordering): a destination write cancels
/// synchronization for its block; after the `SyncCancelled` event no
/// transfer event (`BlockPushed` / `BlockPulled`) for that block may
/// appear — a superseded in-flight copy must journal as `BlockDropped`.
#[test]
fn sim_journal_cancellation_precedes_no_transfer() {
    let rec = Recorder::enabled();
    let cfg = MigrationConfig {
        // Slow wire: plenty of dirty blocks survive into post-copy, so
        // the resumed diabolical guest demonstrably overwrites some of
        // them before they arrive.
        rate_limit: Some(24.0 * 1024.0 * 1024.0),
        ..MigrationConfig::small()
    };
    let out = run_tpm_traced(cfg, WorkloadKind::Diabolical, rec.clone());
    assert!(out.report.consistent);

    let records = rec.records();
    let mut cancelled = std::collections::HashSet::new();
    let mut cancellations = 0u64;
    for r in &records {
        match &r.event {
            Event::SyncCancelled { block } => {
                cancelled.insert(*block);
                cancellations += 1;
            }
            Event::BlockPushed { block } | Event::BlockPulled { block } => {
                assert!(
                    !cancelled.contains(block),
                    "block {block} transferred after its sync was cancelled \
                     (seq {})",
                    r.seq
                );
            }
            _ => {}
        }
    }
    assert!(
        cancellations > 0,
        "the diabolical run must cancel at least one synchronization"
    );
}

/// A live run's journal folds to its outcome: the account both protocol
/// threads kept, merged, and every `LiveOutcome` field read off it —
/// downtime, both iteration lists, post-copy counts, reconnects — over
/// the in-process link, over loopback TCP, and under resets that force
/// reconnects.
#[test]
fn live_journals_fold_to_their_outcomes() {
    let resets = FaultPlan::none()
        .reset_after_category(0, Category::DiskPrecopy, 20)
        .reset_after_category(1, Category::DiskPush, 5);
    for (tcp, faults) in [
        (false, FaultPlan::none()),
        (true, FaultPlan::none()),
        (false, resets),
    ] {
        let cfg = LiveConfig {
            num_blocks: 16_384,
            telemetry: Recorder::enabled(),
            seed: 41,
            min_guest_ticks: 25,
            retry: RetryPolicy {
                max_reconnects: 4,
                ..RetryPolicy::default()
            },
            ..LiveConfig::test_default()
        };
        let reconnecting = faults != FaultPlan::none();
        let out = run_live(
            &cfg,
            LiveRun {
                faults,
                tcp,
                ..LiveRun::default()
            },
        )
        .expect("migration completes");
        assert_eq!(out.read_violations, 0);
        assert!(out.inconsistent_blocks().is_empty());

        let fold = journal_fold(&cfg.telemetry);
        assert_eq!(fold, out.fold, "tcp {tcp}, reconnecting {reconnecting}");
        let units = |r| -> Vec<u64> { fold.iterations(r).iter().map(|i| i.units_sent).collect() };
        let freeze = fold.span_nanos(Phase::Freeze).expect("freeze span");
        assert_eq!(
            (
                u128::from(freeze),
                units(Resource::Disk),
                units(Resource::Memory),
                fold.postcopy_blocks(),
                fold.reconnects(Side::Source),
            ),
            (
                out.downtime.as_nanos(),
                out.iterations.clone(),
                out.mem_iterations.clone(),
                [out.pushed, out.pulled, out.dropped],
                u64::from(out.reconnects),
            )
        );
        // Every phase ran; only the faulted run reconnected.
        for phase in [Phase::DiskPrecopy, Phase::MemPrecopy, Phase::PostCopy] {
            assert!(fold.span_nanos(phase).is_some(), "{phase:?} span missing");
        }
        assert_eq!(out.reconnects > 0, reconnecting);
    }
}

/// PR-7 acceptance: the content-aware data plane is deterministic end to
/// end. Two template-clone migrations under the same seed must produce
/// byte-identical JSONL journals and byte-identical destination images,
/// while still showing the dedup wire savings against a dedup-off run.
#[test]
fn template_dedup_same_seed_journals_byte_identically() {
    use block_bitmap_migration::migrate::sim::run_template_clone_tpm_traced;

    let cfg = MigrationConfig {
        dedup: true,
        compress: true,
        ..MigrationConfig::small()
    };
    // ~8% divergence, the benchmark scenario's shape.
    let diverged = {
        let mut d = FlatBitmap::new(cfg.disk_blocks);
        for b in (0..cfg.disk_blocks).step_by(12) {
            d.set(b);
        }
        d
    };

    let run = || {
        let rec = Recorder::enabled();
        let out = run_template_clone_tpm_traced(
            cfg.clone(),
            WorkloadKind::Idle,
            diverged.clone(),
            rec.clone(),
        );
        assert!(out.report.consistent);
        (to_jsonl(&rec.records()), out)
    };
    let (journal_a, out_a) = run();
    let (journal_b, out_b) = run();

    assert!(!journal_a.is_empty(), "traced run recorded nothing");
    assert_eq!(
        journal_a, journal_b,
        "same seed must journal byte-identically with dedup on"
    );
    assert!(
        out_a.dst_disk.content_equals(&out_b.dst_disk),
        "same seed must converge to byte-identical destination images"
    );

    // The journaled runs still realize the content-aware savings: most of
    // the clone is shipped as 16-byte references, not payloads.
    let off = block_bitmap_migration::migrate::sim::run_template_clone_tpm(
        MigrationConfig {
            dedup: false,
            compress: false,
            ..cfg.clone()
        },
        WorkloadKind::Idle,
        diverged,
    );
    assert!(out_a.dst_disk.content_equals(&off.dst_disk));
    let reduction =
        100.0 * (1.0 - out_a.report.wire.bytes_sent as f64 / off.report.wire.bytes_sent as f64);
    assert!(
        reduction >= 60.0,
        "template-clone dedup must cut >=60% of wire bytes (got {reduction:.1}%)"
    );
}

/// PR-9 acceptance: the multi-source data plane is deterministic end to
/// end. Two template-clone *fan-in* migrations under the same seed must
/// produce byte-identical JSONL journals (the fetch plan, the per-peer
/// streams, and every telemetry record replay exactly), and with no
/// peers the multisource knob must be invisible — journals byte-identical
/// on and off.
#[test]
fn multisource_fanin_same_seed_journals_byte_identically() {
    use block_bitmap_migration::migrate::sim::run_template_clone_fanin_traced;

    let cfg = MigrationConfig::small();
    // The E14 shape: ~8% divergence since the template boot, four fleet
    // peers still holding the golden image.
    let diverged = {
        let mut d = FlatBitmap::new(cfg.disk_blocks);
        for b in (0..cfg.disk_blocks).step_by(12) {
            d.set(b);
        }
        d
    };

    let run = || {
        let rec = Recorder::enabled();
        let out = run_template_clone_fanin_traced(
            cfg.clone(),
            WorkloadKind::Idle,
            diverged.clone(),
            4,
            rec.clone(),
        );
        assert!(out.report.consistent);
        (to_jsonl(&rec.records()), out)
    };
    let (journal_a, out_a) = run();
    let (journal_b, out_b) = run();

    assert!(!journal_a.is_empty(), "traced run recorded nothing");
    assert_eq!(
        journal_a, journal_b,
        "same seed must journal byte-identically with multi-source fetch on"
    );
    assert!(
        out_a.dst_disk.content_equals(&out_b.dst_disk),
        "same seed must converge to byte-identical destination images"
    );
    // The journaled runs actually exercised the fan-in: most owed full
    // blocks arrived from the four peers, and the journal says so.
    assert!(
        out_a.report.multisource.peer_fraction() >= 0.70,
        "peer fraction {:.3} below the E14 bar",
        out_a.report.multisource.peer_fraction()
    );
    let records = from_jsonl(&journal_a).expect("journal parses back");
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, Event::PeerFetch { .. })),
        "fan-in run must journal peer fetches"
    );

    // With no peer holders the knob is invisible: a classic two-host run
    // journals byte-identically whether multisource is on or off (the
    // PR-7 bit-identity contract carried forward).
    let classic = |multisource: bool| {
        let rec = Recorder::enabled();
        let out = run_tpm_traced(
            MigrationConfig {
                multisource,
                ..MigrationConfig::small()
            },
            WorkloadKind::Web,
            rec.clone(),
        );
        assert!(out.report.consistent);
        to_jsonl(&rec.records())
    };
    assert_eq!(
        classic(true),
        classic(false),
        "with no peers, --no-multisource must reproduce the classic journal byte for byte"
    );
}
