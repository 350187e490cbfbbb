//! Figure 6 — Bonnie++ throughput while migrating.
//!
//! The paper plots per-phase Bonnie++ throughput (putc, write(2), rewrite,
//! getc) over a 3500 s window and shows pronounced degradation while the
//! migration's disk reads compete with the benchmark. We reproduce the
//! timeline and additionally tabulate the per-phase normal vs
//! during-migration rates the figure encodes.

use des::SimDuration;
use migrate::sim::{dwell, TpmEngine};
use serde_json::json;
use workloads::{DiabolicalWorkload, WorkloadKind};

use crate::render::{ascii_chart, Table};
use crate::{ExpResult, Scale};

use workloads::BonniePhase;

/// Run Figure 6.
pub fn run(scale: Scale) -> ExpResult {
    let cfg = scale.config();
    let warmup = SimDuration::from_secs(if scale == Scale::Paper { 250 } else { 20 });
    let cooldown = SimDuration::from_secs(if scale == Scale::Paper { 600 } else { 30 });

    let mut engine = TpmEngine::new(cfg.clone(), WorkloadKind::Diabolical);
    engine.warmup(warmup);
    let mig_start = engine.now().as_secs_f64();
    let mut out = engine.run();
    let mig_end = out.end_time.as_secs_f64();
    dwell(&mut out, &cfg, cooldown);

    let buckets = out.probe.bucketed(10.0);
    let series: Vec<(f64, f64)> = buckets
        .iter()
        .map(|s| (s.t_secs, s.throughput / 1024.0)) // KB/s like the paper
        .collect();

    let baseline = out.probe.mean_between(0.0, mig_start) / 1024.0;
    let during = out.probe.mean_between(mig_start, mig_end) / 1024.0;
    let drop_pct = (1.0 - during / baseline.max(1e-9)) * 100.0;

    // Per-phase normal vs during-migration rates (the figure's series).
    let phases = [
        BonniePhase::Putc,
        BonniePhase::WriteBlock,
        BonniePhase::Rewrite,
        BonniePhase::Getc,
    ];
    let mut t = Table::new(&["phase", "normal (KB/s)", "during migration (KB/s)", "drop"]);
    let mut phase_rows = Vec::new();
    for p in phases {
        let nominal = DiabolicalWorkload::nominal_visible(p);
        let io_factor = if p == BonniePhase::Rewrite { 2.0 } else { 1.0 };
        let (w_share, _) = cfg.disk_shares(nominal * io_factor);
        let during_phase = (w_share / io_factor).min(nominal);
        t.row(&[
            p.label().into(),
            format!("{:.0}", nominal / 1024.0),
            format!("{:.0}", during_phase / 1024.0),
            format!("{:.0}%", (1.0 - during_phase / nominal) * 100.0),
        ]);
        phase_rows.push(json!({
            "phase": p.label(),
            "normal_kbs": nominal / 1024.0,
            "during_kbs": during_phase / 1024.0,
        }));
    }

    let human = format!(
        "Figure 6 reproduction — {}\nBonnie++ client throughput (KB/s), 10 s buckets; \
         migration runs t={:.0}s..{:.0}s\n\n{}\nPhase envelope (the figure's per-phase \
         series):\n{}\nMean throughput: normal {:.0} KB/s, during migration {:.0} KB/s \
         (drop {:.0} %). The paper's figure shows the same qualitative collapse while \
         the migration reads the disk at a high rate.\n",
        scale.label(),
        mig_start,
        mig_end,
        ascii_chart(&series, 80, 12, "KB/s"),
        t.render(),
        baseline,
        during,
        drop_pct,
    );

    let json = json!({
        "scale": scale.label(),
        "migration_window_secs": [mig_start, mig_end],
        "baseline_kbs": baseline,
        "during_kbs": during,
        "drop_pct": drop_pct,
        "series_10s": series,
        "phases": phase_rows,
        "report": super::compact(&out.report),
    });
    ExpResult {
        id: "fig6",
        title: "Figure 6 — Impact on Bonnie++ throughput",
        human,
        json,
    }
}
