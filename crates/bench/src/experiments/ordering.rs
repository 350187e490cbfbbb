//! §IV-B — disk-before-memory pre-copy ordering ablation.
//!
//! "Disk storage data are pre-copied before memory copying because memory
//! dirty rate is much higher than disk storage and the disk storage
//! pre-copy lasts very long. A large amount of dirty memory can be
//! produced during the disk storage pre-copy. Simultaneous or premature
//! memory pre-copy is useless."
//!
//! We quantify the waste: if memory were pre-copied *first*, every page
//! the guest dirties during the long disk pre-copy would need
//! retransmission. The ablation measures the unique pages dirtied over
//! each workload's actual disk pre-copy duration and compares the memory
//! bytes each ordering moves.

use block_bitmap::DirtyMap;
use des::{SimDuration, SimRng};
use migrate::sim::run_tpm;
use serde_json::json;
use simnet::proto::Category;
use vmstate::GuestMemory;
use workloads::WorkloadKind;

use crate::render::Table;
use crate::{ExpResult, Scale};

/// Run the ordering ablation.
pub fn run(scale: Scale) -> ExpResult {
    let cfg = scale.config();
    let mut t = Table::new(&[
        "workload",
        "disk pre-copy (s)",
        "mem bytes, disk-first (MB)",
        "mem bytes, memory-first (MB)",
        "waste",
    ]);
    let mut rows = Vec::new();
    for kind in WorkloadKind::TABLE1 {
        let out = run_tpm(cfg.clone(), kind);
        let r = &out.report;
        let disk_secs: f64 = r.disk_iterations.iter().map(|i| i.duration_secs).sum();
        let ours = r.ledger.get(Category::Memory) as f64 / 1048576.0;

        // Memory-first: the full image crosses up front, then every page
        // dirtied during the disk pre-copy must cross again (and the
        // final convergence iterations repeat as in our order).
        let mut mem = GuestMemory::new(4096, cfg.mem_pages);
        let wss = kind.build(cfg.disk_blocks as u64).wss_model(cfg.mem_pages);
        let mut rng = SimRng::new(cfg.seed ^ 0x5eed);
        wss.dirty_for(SimDuration::from_secs_f64(disk_secs), &mut rng, |p| {
            mem.touch(p)
        });
        let redirtied = mem.drain_dirty().count_ones() as f64;
        let memory_first = ours + redirtied * 4096.0 / 1048576.0;

        t.row(&[
            kind.label().into(),
            format!("{disk_secs:.0}"),
            format!("{ours:.0}"),
            format!("{memory_first:.0}"),
            format!("+{:.0}%", (memory_first / ours - 1.0) * 100.0),
        ]);
        rows.push(json!({
            "workload": kind.label(),
            "disk_precopy_secs": disk_secs,
            "mem_mb_disk_first": ours,
            "mem_mb_memory_first": memory_first,
            "redirtied_pages": redirtied,
        }));
    }

    let human = format!(
        "§IV-B ordering ablation — {}\nMemory bytes on the wire under the paper's \
         disk-before-memory order vs a memory-first order (full image up front, then \
         retransmission of every page dirtied during the long disk pre-copy).\n\n{}",
        scale.label(),
        t.render()
    );
    let json = json!({ "scale": scale.label(), "rows": rows });
    ExpResult {
        id: "ordering",
        title: "§IV-B — disk-before-memory pre-copy ordering ablation",
        human,
        json,
    }
}
