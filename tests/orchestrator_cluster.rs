//! Orchestrator determinism and journal consistency tests.
//!
//! The cluster run is only trustworthy if (a) one seed pins *everything*
//! — two identical runs must journal byte-identical JSONL — and (b) the
//! journal folds to the report: each record's phase instants, passes,
//! retries and cancellations are read off the fold of its migration's
//! events, so the journal's fold must give them back exactly.

use block_bitmap_migration::des::SimDuration;
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::scenario::{config_for, parse};
use block_bitmap_migration::telemetry::{from_jsonl, to_jsonl, Event, Fold, Phase, Record};

/// The acceptance geometry: 4 hosts, 8 VMs, IM-aware policy, seed 2008.
fn acceptance_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(4, 8);
    cfg.seed = 2008;
    cfg
}

fn traced_run(
    cfg: ClusterConfig,
) -> (
    ClusterReport,
    Vec<block_bitmap_migration::telemetry::Record>,
) {
    let scenario = Scenario::two_wave(&cfg, SimDuration::from_secs(30));
    let rec = Recorder::enabled();
    let mut orch =
        Orchestrator::new(cfg, Policy::ImAware, rec.clone()).expect("acceptance config is valid");
    let report = orch.run(&scenario);
    (report, rec.records())
}

/// Tentpole acceptance: the 4-host / 8-VM / seed-2008 run completes at
/// least 8 migrations (here: all 16 of the two-wave scenario), every
/// image verifies consistent, and the return wave is incremental.
#[test]
fn acceptance_run_completes_and_verifies() {
    let (report, records) = traced_run(acceptance_cfg());
    assert_eq!(report.records.len(), 16, "two waves of 8 VMs");
    assert_eq!(report.completed(), 16);
    assert!(report.completed() >= 8, "acceptance floor");
    assert_eq!(report.unserved, 0);
    assert!(report.all_consistent());
    assert_eq!(
        report.incremental(),
        8,
        "every return migration must land on its stale replica"
    );
    // Every admitted migration is visible in the journal.
    let ids: Vec<u64> = Fold::of_records(&records)
        .migrations()
        .map(|(&id, _)| id)
        .collect();
    assert_eq!(ids, (0..16).collect::<Vec<u64>>());
}

/// Satellite: seed determinism. Two runs with the same configuration
/// produce byte-identical JSONL journals and identical reports.
#[test]
fn same_seed_runs_journal_byte_identically() {
    let (report_a, records_a) = traced_run(acceptance_cfg());
    let (report_b, records_b) = traced_run(acceptance_cfg());
    assert_eq!(
        to_jsonl(&records_a),
        to_jsonl(&records_b),
        "same seed must journal byte-identically"
    );
    let json_a = serde_json::to_string(&report_a).expect("report serializes");
    let json_b = serde_json::to_string(&report_b).expect("report serializes");
    assert_eq!(json_a, json_b, "same seed must report identically");

    // A different seed must actually change the run (the determinism
    // above is not vacuous).
    let mut other = acceptance_cfg();
    other.seed = 2009;
    let (_, records_c) = traced_run(other);
    assert_ne!(to_jsonl(&records_a), to_jsonl(&records_c));
}

/// Each record's fold-owned fields equal what the fold of the journal,
/// written out and parsed back, says of its migration; and the four
/// phases tile [start, finish] with no gap.
fn assert_fleet_journal_folds_to(report: &ClusterReport, records: &[Record]) {
    let back = from_jsonl(&to_jsonl(records)).expect("journal parses back");
    let fold = Fold::of_journal(&back).expect("a whole journal folds");
    assert_eq!(fold.migrations().count(), report.records.len());
    for r in &report.records {
        let m = fold.migration(r.migration).expect("admission journaled");
        let folded = (
            [
                m.start_nanos,
                m.freeze_nanos(),
                m.resume_nanos(),
                m.finish_nanos,
            ],
            m.downtime_nanos(),
            (m.passes, m.retries, m.cancelled),
        );
        let reported = (
            [
                r.start_nanos,
                r.freeze_nanos,
                r.resume_nanos,
                r.finish_nanos,
            ],
            r.downtime_nanos,
            (r.passes, r.retries, r.blocks_cancelled),
        );
        assert_eq!(folded, reported, "migration {}", r.migration);
        if r.completed {
            let spans = [
                Phase::DiskPrecopy,
                Phase::MemPrecopy,
                Phase::Freeze,
                Phase::PostCopy,
            ]
            .map(|p| m.span_nanos(p).expect("every phase ran"));
            let total = r.finish_nanos - r.start_nanos;
            assert_eq!(
                spans.iter().sum::<u64>(),
                total,
                "migration {}",
                r.migration
            );
        }
    }
}

/// The acceptance fleet, and a `.scn` partition fleet whose streams also
/// take seeded resets: each journal folds to its report.
#[test]
fn fleet_journals_fold_to_their_reports() {
    let (report, records) = traced_run(acceptance_cfg());
    assert_eq!(report.completed(), 16);
    assert_fleet_journal_folds_to(&report, &records);

    let text = std::fs::read_to_string("scenarios/partition.scn").expect("checked-in scenario");
    let spec = parse(&text).expect("parses");
    let mut cfg = config_for(&spec);
    cfg.fault_resets = 2;
    let rec = Recorder::enabled();
    let mut orch = Orchestrator::new(cfg.clone(), Policy::ImAware, rec.clone()).expect("valid");
    let mut dynamics = ScenarioDynamics::new(&spec);
    let scenario = Scenario {
        requests: spec.requests.clone(),
    };
    let report = orch.run_with_dynamics(&scenario, &mut dynamics);
    let records = rec.records();
    assert!(
        report.records.iter().any(|r| r.retries > 0),
        "a seeded reset must fire"
    );
    assert!(records
        .iter()
        .any(|r| matches!(r.event, Event::MigrationStranded { .. })));
    assert_fleet_journal_folds_to(&report, &records);
}
