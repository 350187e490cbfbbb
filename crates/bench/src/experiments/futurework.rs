//! §VII — the paper's future-work proposals, implemented and measured.
//!
//! * Guest-assisted sparse migration (skip free blocks),
//! * template-based migration (ship only writes-since-install),
//! * multi-site IM with storage version maintenance, run on the fleet
//!   orchestrator's replica table.

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimTime};
use migrate::sim::{
    reserve_workload_blocks, run_sparse_migration, run_template_migration, run_tpm,
};
use orchestrator::{
    ClusterConfig, HostId, MigrationRecord, MigrationRequest, Orchestrator, Policy, Scenario, VmId,
};
use serde_json::json;
use telemetry::Recorder;
use workloads::WorkloadKind;

use crate::render::Table;
use crate::{ExpResult, Scale};

/// Run the future-work experiment.
pub fn run(scale: Scale) -> ExpResult {
    let cfg = scale.config();

    // --- baseline: full TPM ---
    let full = run_tpm(cfg.clone(), WorkloadKind::Web).report;

    // --- sparse: guest declares 60% of the disk free ---
    let mut free = migrate::sim::synthetic_free_map(&cfg, 0.4, 17);
    reserve_workload_blocks(&mut free, WorkloadKind::Web, &cfg, 900);
    let free_count = free.count_ones();
    let sparse = run_sparse_migration(cfg.clone(), WorkloadKind::Web, free).report;

    // --- template: 8% of blocks written since OS installation ---
    let mut since_install = FlatBitmap::new(cfg.disk_blocks);
    for b in (0..cfg.disk_blocks).step_by(12) {
        since_install.set(b);
    }
    let template = run_template_migration(cfg.clone(), WorkloadKind::Web, since_install).report;

    // --- multi-site: office (0) -> home (1) -> office -> lab (2) -> home ---
    let hops = multisite_tour(
        cfg.disk_blocks,
        cfg.mem_pages,
        &[1, 0, 2, 1],
        SimDuration::from_secs(600),
    );

    let mut t = Table::new(&["scheme", "total (s)", "disk data (MB)", "consistent"]);
    for (name, r) in [
        ("full TPM (baseline)", &full),
        ("sparse (guest-assisted)", &sparse),
        ("template (same OS image)", &template),
    ] {
        t.row(&[
            name.into(),
            format!("{:.1}", r.total_time_secs),
            format!("{:.0}", r.ledger.disk_total() as f64 / 1048576.0),
            format!("{}", r.consistent),
        ]);
    }
    let mut tour = Table::new(&["hop", "first pass (blocks)", "total (s)", "data (MB)"]);
    let names = [
        "office->home (first visit)",
        "home->office (revisit)",
        "office->lab (first visit)",
        "lab->home (revisit)",
    ];
    for (name, r) in names.into_iter().zip(&hops) {
        tour.row(&[
            name.into(),
            format!("{}", r.first_pass_blocks),
            format!("{:.1}", r.total_secs()),
            format!("{:.0}", r.bytes as f64 / 1048576.0),
        ]);
    }

    let human = format!(
        "§VII future-work extensions — {}\n\nGuest declares {} of {} blocks free; \
         template image covers ~92% of blocks.\n\n{}\nMulti-site version maintenance \
         (every revisited site gets an incremental hop):\n{}",
        scale.label(),
        free_count,
        cfg.disk_blocks,
        t.render(),
        tour.render()
    );

    let json = json!({
        "scale": scale.label(),
        "full": super::compact(&full),
        "sparse": super::compact(&sparse),
        "template": super::compact(&template),
        "multisite_hops": hops,
        "disk_blocks": cfg.disk_blocks,
        "free_blocks": free_count,
    });
    ExpResult {
        id: "futurework",
        title: "§VII — future-work extensions (sparse, template, multi-site IM)",
        human,
        json,
    }
}

/// §VII's multi-site tour on the fleet orchestrator: one web VM on a
/// three-host fleet, starting on host 0. Each hop is one
/// [`Orchestrator::run`] of one request pinned to the next host of
/// `route`; every hop but the first waits `dwell` for its turn while the
/// guest keeps writing. The replica table keeps the image each host was
/// left with, so a hop back to a host ships only what changed since, and
/// a host never visited gets the whole disk.
///
/// # Panics
/// Panics when a hop fails or does not verify block-exact.
pub fn multisite_tour(
    disk_blocks: usize,
    mem_pages: usize,
    route: &[usize],
    dwell: SimDuration,
) -> Vec<MigrationRecord> {
    let mut cfg = ClusterConfig::new(3, 1);
    cfg.disk_blocks = disk_blocks;
    cfg.mem_pages = mem_pages;
    cfg.workload_cycle = vec![WorkloadKind::Web];
    let mut orch = Orchestrator::new(cfg, Policy::ImAware, Recorder::off()).expect("valid tour");
    let mut at = SimTime::ZERO;
    let mut hops = Vec::with_capacity(route.len());
    for &host in route {
        let request = MigrationRequest {
            vm: VmId(0),
            dest: Some(HostId(host)),
            at,
        };
        let report = orch.run(&Scenario {
            requests: vec![request],
        });
        let hop = report.records.into_iter().next().expect("the hop ran");
        assert!(hop.completed && hop.consistent, "hop to h{host}: {hop:?}");
        hops.push(hop);
        at = SimTime::ZERO + dwell;
    }
    hops
}
