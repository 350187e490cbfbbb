//! Exporters: JSONL journal, phase-timing reconstruction, human-readable
//! phase summary, and metrics JSON.
//!
//! The reconstruction arithmetic here is deliberately identical to the
//! engines' own accounting: a span is `(end_nanos - start_nanos) as f64 /
//! 1e9`, the exact expression behind `SimDuration::as_secs_f64`, so a
//! journal-reconstructed [`PhaseDurations`] equals a simulated run's
//! `MigrationReport.phases` bit for bit — the two accounting paths cannot
//! silently diverge.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::event::{Event, Phase, Record, Resource, Side};
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

/// Phase durations reconstructed from span events — the journal's answer
/// to `migrate`'s `PhaseTimings`, field for field.
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

/// Nanoseconds between the first `PhaseStart` and the last `PhaseEnd`
/// recorded for `phase`, or `None` when the span is incomplete.
///
/// Taking the *last* end makes reconnect-interrupted live phases span
/// their full extent; in a simulated journal each phase starts and ends
/// exactly once.
pub fn phase_span_nanos(records: &[Record], phase: Phase) -> Option<u64> {
    let mut start = None;
    let mut end = None;
    for r in records {
        match &r.event {
            Event::PhaseStart { phase: p, .. } if *p == phase && start.is_none() => {
                start = Some(r.t_nanos);
            }
            Event::PhaseEnd { phase: p, .. } if *p == phase => end = Some(r.t_nanos),
            _ => {}
        }
    }
    match (start, end) {
        (Some(s), Some(e)) => Some(e.saturating_sub(s)),
        _ => None,
    }
}

/// Reconstruct per-phase durations from span events. Missing spans read
/// as zero (matching `PhaseTimings::default()` for phases that never ran).
pub fn reconstruct_phases(records: &[Record]) -> PhaseDurations {
    let secs = |p: Phase| phase_span_nanos(records, p).unwrap_or(0) as f64 / 1e9;
    PhaseDurations {
        disk_precopy_secs: secs(Phase::DiskPrecopy),
        mem_precopy_secs: secs(Phase::MemPrecopy),
        freeze_secs: secs(Phase::Freeze),
        postcopy_secs: secs(Phase::PostCopy),
    }
}

/// Nanoseconds between the first `MigrationPhaseStart` and the last
/// `MigrationPhaseEnd` recorded for cluster migration `migration` in
/// `phase`, or `None` when the span is incomplete — the per-migration
/// analogue of [`phase_span_nanos`] for orchestrator journals.
pub fn migration_phase_span_nanos(records: &[Record], migration: u64, phase: Phase) -> Option<u64> {
    let mut start = None;
    let mut end = None;
    for r in records {
        match &r.event {
            Event::MigrationPhaseStart {
                migration: m,
                phase: p,
            } if *m == migration && *p == phase && start.is_none() => {
                start = Some(r.t_nanos);
            }
            Event::MigrationPhaseEnd {
                migration: m,
                phase: p,
            } if *m == migration && *p == phase => {
                end = Some(r.t_nanos);
            }
            _ => {}
        }
    }
    match (start, end) {
        (Some(s), Some(e)) => Some(e.saturating_sub(s)),
        _ => None,
    }
}

/// Reconstruct one cluster migration's per-phase durations from its span
/// events, using the same `(end - start) as f64 / 1e9` arithmetic as
/// [`reconstruct_phases`] so the result equals the orchestrator's own
/// report bit for bit.
pub fn reconstruct_migration_phases(records: &[Record], migration: u64) -> PhaseDurations {
    let secs =
        |p: Phase| migration_phase_span_nanos(records, migration, p).unwrap_or(0) as f64 / 1e9;
    PhaseDurations {
        disk_precopy_secs: secs(Phase::DiskPrecopy),
        mem_precopy_secs: secs(Phase::MemPrecopy),
        freeze_secs: secs(Phase::Freeze),
        postcopy_secs: secs(Phase::PostCopy),
    }
}

/// Every cluster migration id admitted in the journal, ascending and
/// deduplicated.
pub fn migration_ids(records: &[Record]) -> Vec<u64> {
    let mut ids: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::MigrationAdmitted { migration, .. } => Some(*migration),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Render a human-readable summary of a journal: phase table, pre-copy
/// iteration counts, post-copy block events, transport incidents.
pub fn phase_summary(records: &[Record]) -> String {
    let phases = reconstruct_phases(records);
    let mut out = String::new();
    let _ = writeln!(out, "phase            duration");
    let rows = [
        ("disk pre-copy", phases.disk_precopy_secs),
        ("mem pre-copy", phases.mem_precopy_secs),
        ("freeze (down)", phases.freeze_secs),
        ("post-copy", phases.postcopy_secs),
    ];
    for (name, secs) in rows {
        let _ = writeln!(out, "{name:<16} {:>10.6} s", secs);
    }

    let mut disk_iters: Vec<u64> = Vec::new();
    let mut mem_iters: Vec<u64> = Vec::new();
    let (mut pushed, mut pulled, mut dropped, mut cancelled, mut pull_reqs) = (0u64, 0, 0, 0, 0);
    let (mut src_reconnects, mut dst_reconnects, mut faults) = (0u64, 0u64, 0u64);
    let mut src_bytes = 0u64;
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
            Event::Iteration {
                resource: Resource::Disk,
                units_sent,
                ..
            } => disk_iters.push(*units_sent),
            Event::Iteration {
                resource: Resource::Memory,
                units_sent,
                ..
            } => mem_iters.push(*units_sent),
            Event::BlockPushed { .. } => pushed += 1,
            Event::BlockPulled { .. } => pulled += 1,
            Event::BlockDropped { .. } => dropped += 1,
            Event::SyncCancelled { .. } => cancelled += 1,
            Event::PullRequested { .. } => pull_reqs += 1,
            Event::Reconnect {
                side: Side::Source, ..
            } => src_reconnects += 1,
            Event::Reconnect {
                side: Side::Destination,
                ..
            } => dst_reconnects += 1,
            Event::FaultInjected { .. } => faults += 1,
            Event::TransportBytes {
                side: Side::Source,
                bytes,
            } => src_bytes = src_bytes.max(*bytes),
            _ => {}
        }
    }
    let _ = writeln!(out, "disk iterations  {disk_iters:?}");
    let _ = writeln!(out, "mem iterations   {mem_iters:?}");
    let _ = writeln!(
        out,
        "post-copy        {pushed} pushed, {pulled} pulled, {dropped} dropped, \
         {cancelled} cancelled, {pull_reqs} pull requests"
    );
    let _ = writeln!(
        out,
        "transport        {src_reconnects} src + {dst_reconnects} dst reconnects, \
         {faults} faults injected, {src_bytes} bytes from source"
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
    use crate::event::FaultLabel;
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
            index: 0,
            units_sent: 4096,
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
        assert_eq!(phase_span_nanos(&records, Phase::PostCopy), None);
    }

    #[test]
    fn summary_mentions_the_interesting_numbers() {
        let s = phase_summary(&sample_journal());
        assert!(s.contains("disk pre-copy"), "{s}");
        assert!(s.contains("0 src + 0 dst reconnects"), "{s}");
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
        assert_eq!(
            migration_phase_span_nanos(&records, 0, Phase::DiskPrecopy),
            Some(1_000)
        );
        assert_eq!(
            migration_phase_span_nanos(&records, 1, Phase::DiskPrecopy),
            Some(1_500)
        );
        assert_eq!(migration_phase_span_nanos(&records, 1, Phase::Freeze), None);
        assert_eq!(migration_ids(&records), vec![0, 1]);

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
