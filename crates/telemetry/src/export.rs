//! Exporters: JSONL journal, the phase durations a journal folds to, a
//! human-readable summary of what a journal says beyond its fold, and
//! metrics JSON.
//!
//! There is no reconstruction arithmetic here. [`reconstruct_phases`] and
//! [`reconstruct_migration_phases`] run the engines' own [`Fold`] over a
//! parsed journal: the same code over the same events, so a journal's
//! phase durations equal its run's `MigrationReport.phases` and the
//! orchestrator's records bit for bit.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::event::{Event, Phase, Record, Side};
use crate::fold::Fold;
use crate::metrics::Registry;

/// Serialize records as one JSON object per line (JSONL).
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        // Serialization of a Record cannot fail (string keys only); a
        // defective record is skipped rather than panicking an exporter.
        if let Ok(line) = serde_json::to_string(r) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parse a JSONL journal back into records. Blank lines are ignored;
/// the first malformed line aborts with a description.
pub fn from_jsonl(s: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Record>(line) {
            Ok(r) => out.push(r),
            Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// Per-phase durations in seconds: the fold's phase spans
/// ([`Fold::phases`]) and, under the name `PhaseTimings`, the
/// `MigrationReport`'s.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseDurations {
    /// Iterative disk pre-copy (§IV-B1).
    pub disk_precopy_secs: f64,
    /// Iterative memory pre-copy (§IV-B2).
    pub mem_precopy_secs: f64,
    /// Freeze-and-copy — the downtime (§IV-C).
    pub freeze_secs: f64,
    /// Push-and-pull post-copy (§IV-D).
    pub postcopy_secs: f64,
}

/// The phase durations a journal folds to. Missing spans read as zero;
/// unlike [`Fold::of_journal`] this folds a cut journal too.
pub fn reconstruct_phases(records: &[Record]) -> PhaseDurations {
    Fold::of_records(records).phases()
}

/// The phase durations cluster migration `migration` folds to in an
/// orchestrator journal (zero when it was never admitted).
pub fn reconstruct_migration_phases(records: &[Record], migration: u64) -> PhaseDurations {
    Fold::of_records(records)
        .migration(migration)
        .map(|m| m.phases())
        .unwrap_or_default()
}

/// What a journal says beyond the account it folds to ([`Fold::summary`]):
/// post-copy cancellations and pull requests, transport incidents, per
/// phase the batches the LZ rule compressed, and the record count.
pub fn journal_summary(records: &[Record]) -> String {
    let mut out = String::new();
    let (mut cancelled, mut pull_reqs, mut faults, mut src_bytes) = (0u64, 0u64, 0u64, 0u64);
    // Batches (compressed, raw) the source's LZ rule decided, by the
    // phase the source was in when it journaled them.
    let mut lz: Vec<(Phase, u64, u64)> = Vec::new();
    let mut src_phase = Phase::DiskPrecopy;
    for r in records {
        match &r.event {
            Event::PhaseStart {
                side: Side::Source,
                phase,
            } => src_phase = *phase,
            Event::CodecDecision {
                batches_compressed,
                batches_raw,
                ..
            } => match lz.iter_mut().find(|(p, ..)| *p == src_phase) {
                Some((_, packed, raw)) => {
                    *packed += batches_compressed;
                    *raw += batches_raw;
                }
                None => lz.push((src_phase, *batches_compressed, *batches_raw)),
            },
            Event::SyncCancelled { .. } => cancelled += 1,
            Event::PullRequested { .. } => pull_reqs += 1,
            Event::FaultInjected { .. } => faults += 1,
            Event::TransportBytes {
                side: Side::Source,
                bytes,
            } => src_bytes = src_bytes.max(*bytes),
            _ => {}
        }
    }
    let _ = writeln!(
        out,
        "post-copy events {cancelled} cancelled, {pull_reqs} pull requests"
    );
    let _ = writeln!(
        out,
        "transport        {faults} faults injected, {src_bytes} bytes from source"
    );
    for (phase, packed, raw) in lz {
        let _ = writeln!(
            out,
            "lz {:<13} {packed} of {} batches compressed ({:.1}%)",
            format!("{phase:?}"),
            packed + raw,
            100.0 * packed as f64 / (packed + raw).max(1) as f64
        );
    }
    let _ = writeln!(out, "journal          {} records", records.len());
    out
}

/// What the batches the LZ rule compressed weighed before and after,
/// per unit kind, from the `codec.{block,page}.{raw,lz}_bytes` counters:
/// the achieved ratio the journal's batch counts do not carry. Then how
/// many sessions fingerprinted and how many were offered dedup but left it
/// alone on a free link, from `dedup.sessions_{fingerprinted,skipped}`.
/// Empty when nothing crossed compressed and no session was counted.
pub fn codec_summary(reg: &Registry) -> String {
    let snapshot = reg.snapshot();
    let count = |name: String| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let mut out = String::new();
    for kind in ["block", "page"] {
        let raw = count(format!("codec.{kind}.raw_bytes"));
        let lz = count(format!("codec.{kind}.lz_bytes"));
        if lz > 0 {
            let _ = writeln!(
                out,
                "lz {:<13} {raw} raw -> {lz} bytes ({:.2} x)",
                format!("{kind} bytes"),
                raw as f64 / lz as f64
            );
        }
    }
    let fingerprinted = count("dedup.sessions_fingerprinted".into());
    let skipped = count("dedup.sessions_skipped".into());
    if fingerprinted + skipped > 0 {
        let _ = writeln!(
            out,
            "dedup sessions   {fingerprinted} fingerprinted, {skipped} skipped (free link)"
        );
    }
    out
}

/// Pretty-printed JSON snapshot of a metrics registry — the shape
/// `crates/bench` writes under `results/`.
pub fn metrics_json(reg: &Registry) -> String {
    serde_json::to_string_pretty(&reg.snapshot()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;
    use crate::event::{FaultLabel, Resource};
    use crate::recorder::Recorder;

    fn sample_journal() -> Vec<Record> {
        let rec = Recorder::new(64);
        rec.record_at_nanos(0, || Event::PhaseStart {
            side: Side::Source,
            phase: Phase::DiskPrecopy,
        });
        rec.record_at_nanos(1_500_000_000, || Event::Iteration {
            side: Side::Source,
            resource: Resource::Disk,
            index: 1,
            units_sent: 4096,
            bytes: 4096 * 4096,
            dirty_at_end: 120,
        });
        rec.record_at_nanos(1_900_000_000, || Event::CodecDecision {
            side: Side::Source,
            resource: Resource::Disk,
            batches_compressed: 3,
            batches_raw: 13,
            sample_bytes: 16 * 4096,
            link_ps_per_byte: 95_367,
            lz_ps_per_raw_byte: 1_100,
        });
        rec.record_at_nanos(2_000_000_000, || Event::PhaseEnd {
            side: Side::Source,
            phase: Phase::DiskPrecopy,
        });
        rec.record_at_nanos(2_000_000_000, || Event::PhaseStart {
            side: Side::Source,
            phase: Phase::Freeze,
        });
        rec.record_at_nanos(2_010_000_000, || Event::CodecDecision {
            side: Side::Source,
            resource: Resource::Memory,
            batches_compressed: 0,
            batches_raw: 2,
            sample_bytes: 2 * 4096,
            link_ps_per_byte: 0,
            lz_ps_per_raw_byte: 900,
        });
        rec.record_at_nanos(2_000_000_000, || Event::Suspended { side: Side::Source });
        rec.record_at_nanos(2_054_000_000, || Event::Resumed {
            side: Side::Destination,
        });
        rec.record_at_nanos(2_054_000_000, || Event::PhaseEnd {
            side: Side::Source,
            phase: Phase::Freeze,
        });
        rec.record_at_nanos(2_100_000_000, || Event::FaultInjected {
            fault: FaultLabel::Reset,
            messages_before: 20,
        });
        rec.record_at_nanos(2_200_000_000, || Event::SyncCancelled { block: 9 });
        rec.record_at_nanos(2_300_000_000, || Event::BlockDropped { block: 9 });
        rec.records()
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let records = sample_journal();
        let jsonl = to_jsonl(&records);
        assert_eq!(jsonl.lines().count(), records.len());
        let back = from_jsonl(&jsonl).expect("parse journal");
        assert_eq!(back, records);
    }

    #[test]
    fn from_jsonl_reports_malformed_lines() {
        let err = from_jsonl("{\"seq\":0\nnot json").expect_err("must fail");
        assert!(err.contains("line 1"), "got: {err}");
    }

    #[test]
    fn reconstructed_spans_match_simduration_arithmetic() {
        let records = sample_journal();
        let phases = reconstruct_phases(&records);
        // Exactly (end - start) as f64 / 1e9 — SimDuration::as_secs_f64.
        assert_eq!(phases.disk_precopy_secs, 2_000_000_000_f64 / 1e9);
        assert_eq!(phases.freeze_secs, 54_000_000_f64 / 1e9);
        assert_eq!(phases.mem_precopy_secs, 0.0);
        let fold = Fold::of_journal(&records).expect("a whole journal");
        assert_eq!(fold.span_nanos(Phase::PostCopy), None);
        // An iteration lasts from its phase's start to its own event.
        let first = &fold.iterations(Resource::Disk)[0];
        assert_eq!((first.index, first.duration_secs), (1, 1.5));
    }

    #[test]
    fn summaries_mention_the_interesting_numbers() {
        let records = sample_journal();
        let s = Fold::of_journal(&records).expect("whole").summary();
        assert!(s.contains("disk pre-copy"), "{s}");
        assert!(s.contains("disk iterations  [4096]"), "{s}");
        assert!(s.contains("0 pushed, 0 pulled, 1 dropped"), "{s}");
        assert!(s.contains("0 src + 0 dst"), "{s}");
        let s = journal_summary(&records);
        assert!(s.contains("1 faults injected"), "{s}");
        assert!(s.contains("1 cancelled"), "{s}");
        assert!(s.contains("3 of 16 batches compressed (18.8%)"), "{s}");
        assert!(s.contains("lz Freeze"), "{s}");
        assert!(s.contains("0 of 2 batches compressed (0.0%)"), "{s}");
    }

    #[test]
    fn codec_summary_reads_the_byte_counters_and_registers_nothing() {
        let reg = Registry::new();
        assert_eq!(codec_summary(&reg), "");
        assert!(reg.snapshot().counters.is_empty());
        reg.counter("codec.block.raw_bytes").add(4_194_304);
        reg.counter("codec.block.lz_bytes").add(1_619_422);
        let s = codec_summary(&reg);
        assert_eq!(
            s,
            "lz block bytes   4194304 raw -> 1619422 bytes (2.59 x)\n"
        );
        reg.counter("dedup.sessions_skipped").add(2);
        assert!(codec_summary(&reg)
            .ends_with("dedup sessions   0 fingerprinted, 2 skipped (free link)\n"));
    }

    #[test]
    fn migration_spans_are_scoped_per_migration() {
        let rec = Recorder::new(64);
        rec.record_at_nanos(0, || Event::MigrationAdmitted {
            migration: 0,
            vm: 3,
            src: 0,
            dst: 1,
            incremental: false,
            first_pass_blocks: 4096,
        });
        rec.record_at_nanos(0, || Event::MigrationPhaseStart {
            migration: 0,
            phase: Phase::DiskPrecopy,
        });
        rec.record_at_nanos(500, || Event::MigrationPhaseStart {
            migration: 1,
            phase: Phase::DiskPrecopy,
        });
        rec.record_at_nanos(1_000, || Event::MigrationPhaseEnd {
            migration: 0,
            phase: Phase::DiskPrecopy,
        });
        rec.record_at_nanos(2_000, || Event::MigrationPhaseEnd {
            migration: 1,
            phase: Phase::DiskPrecopy,
        });
        rec.record_at_nanos(9, || Event::MigrationAdmitted {
            migration: 1,
            vm: 4,
            src: 1,
            dst: 0,
            incremental: true,
            first_pass_blocks: 17,
        });
        let records = rec.records();
        let fold = Fold::of_journal(&records).expect("whole");
        let span = |id| fold.migration(id).map(|m| m.phases().disk_precopy_secs);
        assert_eq!(span(0), Some(1_000_f64 / 1e9));
        assert_eq!(span(1), Some(1_500_f64 / 1e9));
        assert_eq!(fold.migration(1).map(|m| m.downtime_nanos()), Some(0));
        assert_eq!(
            fold.migrations().map(|(&id, _)| id).collect::<Vec<_>>(),
            vec![0, 1]
        );

        let phases = reconstruct_migration_phases(&records, 1);
        assert_eq!(phases.disk_precopy_secs, 1_500_f64 / 1e9);
        assert_eq!(phases.freeze_secs, 0.0);

        // The cluster variants survive the JSONL round-trip like the rest.
        let back = from_jsonl(&to_jsonl(&records)).expect("parse");
        assert_eq!(back, records);
    }

    #[test]
    fn wall_records_survive_the_round_trip() {
        let rec = Recorder::new(8);
        rec.record(|| Event::Reconnect {
            side: Side::Destination,
            attempt: 2,
        });
        let back = from_jsonl(&to_jsonl(&rec.records())).expect("parse");
        assert_eq!(back[0].clock, ClockDomain::Wall);
        assert_eq!(
            back[0].event,
            Event::Reconnect {
                side: Side::Destination,
                attempt: 2
            }
        );
    }
}
