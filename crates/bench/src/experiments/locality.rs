//! §IV-A-2 — storage write locality (rewrite ratios).
//!
//! "When we make a Linux kernel, about 11% of the write operations
//! rewrite those blocks written before. The percentage is 25.2% in
//! SPECweb Banking Server, and 35.6% while Bonnie++ is running."

use des::{SimDuration, SimRng};
use serde_json::json;
use workloads::locality::analyze;
use workloads::{Workload, WorkloadKind};

use crate::render::Table;
use crate::{ExpResult, Scale};

/// Paper's measured rewrite ratios.
pub const PAPER: [(&str, f64); 3] = [
    ("Kernel build", 0.11),
    ("SPECweb Banking", 0.252),
    ("Bonnie++", 0.356),
];

/// Generate a representative op stream and measure its locality.
///
/// Open-loop workloads run for `secs` *at paper scale*; on smaller disks
/// the window shrinks proportionally so the stream covers the same
/// fraction of its (scaled) working regions. The diabolical workload runs
/// exactly one Bonnie++ cycle — one benchmark execution, as the paper
/// measured.
fn measure(
    kind: WorkloadKind,
    blocks: u64,
    secs: u64,
    seed: u64,
) -> workloads::locality::LocalityReport {
    // The analysis counts writes alone, so the guest draws no read.
    let mut rng = SimRng::new(seed);
    let mut ops = Vec::new();
    let dt = SimDuration::from_millis(500);
    if kind == WorkloadKind::Diabolical {
        // Concrete type: watch the phase cycle wrap back to Putc.
        let mut w = workloads::DiabolicalWorkload::paper_default(blocks);
        use workloads::BonniePhase;
        let mut left_putc = false;
        loop {
            if w.phase() != BonniePhase::Putc {
                left_putc = true;
            } else if left_putc {
                break;
            }
            let demand = w.disk_demand();
            w.draw_into(dt, demand, &mut rng, None, &mut ops);
        }
    } else {
        let mut w = kind.build(blocks);
        let scaled = (secs as f64 * (blocks as f64 / 9_765_625.0)).max(5.0);
        let mut elapsed = 0.0;
        while elapsed < scaled {
            let demand = w.disk_demand();
            w.draw_into(dt, demand, &mut rng, None, &mut ops);
            elapsed += dt.as_secs_f64();
        }
    }
    analyze(ops.into_iter().map(|t| t.kind), 4096)
}

/// Run the locality experiment.
pub fn run(scale: Scale) -> ExpResult {
    let blocks = scale.config().disk_blocks as u64;
    let rows = [
        (
            "Kernel build",
            measure(WorkloadKind::KernelBuild, blocks, 300, 1),
            PAPER[0].1,
        ),
        (
            "SPECweb Banking",
            measure(WorkloadKind::Web, blocks, 800, 2),
            PAPER[1].1,
        ),
        (
            "Bonnie++",
            measure(WorkloadKind::Diabolical, blocks, 120, 3),
            PAPER[2].1,
        ),
    ];

    let mut t = Table::new(&[
        "workload",
        "writes",
        "unique blocks",
        "rewrite ratio",
        "paper",
        "delta-queue bytes (MB)",
        "bitmap bytes (MB)",
    ]);
    for (name, rep, paper) in &rows {
        t.row(&[
            name.to_string(),
            format!("{}", rep.writes),
            format!("{}", rep.unique_blocks),
            format!("{:.1}%", rep.rewrite_ratio * 100.0),
            format!("{:.1}%", paper * 100.0),
            format!("{:.1}", rep.delta_bytes as f64 / 1048576.0),
            format!("{:.1}", rep.bitmap_scheme_bytes as f64 / 1048576.0),
        ]);
    }
    let human = format!(
        "§IV-A-2 reproduction — {}\nRewrite ratio = fraction of writes whose block was \
         written before.\nEvery rewrite is a redundant delta for forward-and-replay \
         sync, but a free re-set bit for the block-bitmap.\n\n{}",
        scale.label(),
        t.render()
    );

    let json = json!({
        "scale": scale.label(),
        "rows": rows.iter().map(|(n, rep, paper)| json!({
            "workload": n,
            "measured": rep,
            "paper_ratio": paper,
        })).collect::<Vec<_>>(),
    });
    ExpResult {
        id: "locality",
        title: "§IV-A-2 — storage write locality (rewrite ratios)",
        human,
        json,
    }
}
