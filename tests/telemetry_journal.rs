//! Telemetry journal consistency tests.
//!
//! The journal is only trustworthy if it agrees with the engines' own
//! accounting: phase timings reconstructed from span events must equal
//! the `MigrationReport` (simulated) / `LiveOutcome` (live) numbers, and
//! the event stream must respect the §III-A cancellation ordering — once
//! a destination write cancels synchronization for a block, that block
//! must never again arrive as a push or a pull.

use block_bitmap_migration::migrate::live::{run_live, LiveConfig, LiveRun};
use block_bitmap_migration::migrate::sim::run_tpm_traced;
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::telemetry::{
    from_jsonl, phase_span_nanos, reconstruct_phases, to_jsonl, Event, Phase,
};

/// Satellite: the report's phase timings and the journal are two views of
/// one accounting. Reconstructing `PhaseDurations` from the journal's
/// span events must reproduce `MigrationReport.phases` *exactly* (f64
/// equality, not approximate): both sides compute
/// `(end_nanos - start_nanos) as f64 / 1e9` over the same instants.
#[test]
fn sim_journal_reconstructs_report_phases_exactly() {
    let rec = Recorder::enabled();
    let out = run_tpm_traced(MigrationConfig::small(), WorkloadKind::Web, rec.clone());
    assert!(out.report.consistent);

    // The journal must survive a serde round-trip bit for bit.
    let records = rec.records();
    assert!(!records.is_empty(), "traced run recorded nothing");
    let back = from_jsonl(&to_jsonl(&records)).expect("journal parses back");
    assert_eq!(back, records, "JSONL round-trip altered the journal");

    let phases = reconstruct_phases(&back);
    let report = &out.report.phases;
    assert_eq!(phases.disk_precopy_secs, report.disk_precopy_secs);
    assert_eq!(phases.mem_precopy_secs, report.mem_precopy_secs);
    assert_eq!(phases.freeze_secs, report.freeze_secs);
    assert_eq!(phases.postcopy_secs, report.postcopy_secs);

    // Per-iteration journal entries mirror the report's iteration tables.
    let disk_iters: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::Iteration {
                resource: block_bitmap_migration::telemetry::Resource::Disk,
                units_sent,
                ..
            } => Some(*units_sent),
            _ => None,
        })
        .collect();
    let report_iters: Vec<u64> = out
        .report
        .disk_iterations
        .iter()
        .map(|i| i.units_sent)
        .collect();
    assert_eq!(disk_iters, report_iters);
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

/// Live satellite: the journal's freeze span *is* the measured downtime.
/// Source and destination stamp the freeze boundary events at the exact
/// suspend/resume instants against a shared epoch, so the reconstructed
/// span equals `LiveOutcome::downtime` to the nanosecond.
#[test]
fn live_journal_freeze_span_equals_downtime() {
    let cfg = LiveConfig {
        num_blocks: 16_384,
        telemetry: Recorder::enabled(),
        seed: 41,
        ..LiveConfig::test_default()
    };
    let out = run_live(&cfg, LiveRun::default()).expect("migration completes");
    assert_eq!(out.read_violations, 0);

    let records = cfg.telemetry.records();
    let back = from_jsonl(&to_jsonl(&records)).expect("journal parses back");
    assert_eq!(back, records);

    let freeze = phase_span_nanos(&back, Phase::Freeze).expect("freeze span recorded");
    assert_eq!(
        u128::from(freeze),
        out.downtime.as_nanos(),
        "journal freeze span must equal the engine's measured downtime"
    );

    // Every phase ran and is visible in the journal.
    for phase in [Phase::DiskPrecopy, Phase::MemPrecopy, Phase::PostCopy] {
        assert!(
            phase_span_nanos(&back, phase).is_some(),
            "{phase:?} span missing from journal"
        );
    }

    // A clean transport journals no incidents.
    assert!(!back.iter().any(|r| matches!(
        r.event,
        Event::Reconnect { .. } | Event::FaultInjected { .. }
    )));

    // Post-copy block events account for the engine's own counts.
    let (mut pushed, mut pulled, mut dropped) = (0u64, 0u64, 0u64);
    for r in &back {
        match r.event {
            Event::BlockPushed { .. } => pushed += 1,
            Event::BlockPulled { .. } => pulled += 1,
            Event::BlockDropped { .. } => dropped += 1,
            _ => {}
        }
    }
    assert_eq!(pushed, out.pushed);
    assert_eq!(pulled, out.pulled);
    assert_eq!(dropped, out.dropped);
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
