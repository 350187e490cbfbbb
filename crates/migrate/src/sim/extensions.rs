//! §VII future-work extensions, implemented.
//!
//! The paper's conclusion sketches three improvements. Two of them are
//! built here on top of the TPM engine:
//!
//! * **Guest-assisted sparse migration** — "If the Guest OS … can take
//!   part in and tell the migration process which part is not used, the
//!   amount of migrated data can be reduced further."
//!   ([`TpmEngine::set_free_blocks`], exercised by
//!   [`run_sparse_migration`]).
//! * **Template-based migration** — "Another approach is to track all the
//!   writes since the Guest OS installation… Only these dirty blocks need
//!   to be transferred to a VM using the same OS image."
//!   ([`run_template_migration`]).
//!
//! The third, "local disk storage version maintenance to facilitate IM …
//! among any recently used physical machines", is the orchestrator's
//! replica table: every host a VM leaves keeps its image, and a later
//! hop back ships only the blocks that changed since.

use std::sync::Arc;

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng};
use telemetry::Recorder;
use vdisk::MetaDisk;
use workloads::{OpKind, WorkloadKind};

use crate::sim::engine::{TpmEngine, TpmOutcome};
use crate::MigrationConfig;

/// Run a primary migration where the guest has declared `free` blocks
/// unused: the first pass skips them entirely.
pub fn run_sparse_migration(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    free: FlatBitmap,
) -> TpmOutcome {
    let mut engine = TpmEngine::new(cfg, kind);
    engine.set_free_blocks(free);
    engine.run()
}

/// An engine whose source has diverged on exactly the `diverged` blocks
/// since it was cloned, and the image it was cloned from.
fn diverged_since_clone(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    diverged: &FlatBitmap,
) -> (TpmEngine, MetaDisk) {
    assert_eq!(
        diverged.len(),
        cfg.disk_blocks,
        "divergence bitmap must cover the whole disk"
    );
    let mut engine = TpmEngine::new(cfg, kind);
    let clone = engine.src_disk.clone();
    for b in diverged.iter_set() {
        engine.src_disk.write(b);
    }
    (engine, clone)
}

/// Run a template-based migration: the destination already holds the
/// guest's installation image, and `dirty_since_install` marks every
/// block written since the OS was installed (tracked by a block-bitmap
/// left running from installation time, per §VII). Only those blocks —
/// not the whole disk — cross in the first pass.
pub fn run_template_migration(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    dirty_since_install: FlatBitmap,
) -> TpmOutcome {
    let (mut engine, install) = diverged_since_clone(cfg, kind, &dirty_since_install);
    engine.dst_disk = install;
    engine.initial_to_send = Some(dirty_since_install);
    engine.scheme = "template";
    engine.run()
}

/// Run a template-clone migration: the destination holds a byte-identical
/// clone of the source's installed image (a template instance), the
/// source has since diverged on exactly the `diverged` blocks — but,
/// unlike [`run_template_migration`], *no* installation-time bitmap
/// survives, so the first pass must walk the whole disk. The
/// content-addressed data plane (`cfg.dedup`) discovers the still-shared
/// blocks on its own and ships them as 16-byte references instead of
/// full payloads; with dedup off the whole image crosses, which makes
/// this the paper-scale benchmark scenario for bytes-on-wire reduction.
pub fn run_template_clone_tpm(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    diverged: FlatBitmap,
) -> TpmOutcome {
    run_template_clone_tpm_traced(cfg, kind, diverged, Recorder::off())
}

/// [`run_template_clone_tpm`] with a telemetry recorder attached, so the
/// dedup benchmark scenario can prove same-seed journal determinism.
pub fn run_template_clone_tpm_traced(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    diverged: FlatBitmap,
    recorder: Arc<Recorder>,
) -> TpmOutcome {
    let (mut engine, template) = diverged_since_clone(cfg, kind, &diverged);
    engine.dst_disk = template;
    engine.scheme = "template-clone";
    engine.set_recorder(recorder);
    engine.run()
}

/// Run a template-clone *boot storm* migration with multi-source
/// fetching (E14): the destination is blank, the source holds the
/// golden image plus its private divergence, and `num_peers` other
/// hosts each hold an unmodified clone of the golden image (the fleet
/// that booted from the same template). The fetch planner routes every
/// still-golden block to a peer — only the diverged blocks stream from
/// the source — so the source's NIC carries roughly the divergence
/// fraction of the image instead of all of it.
pub fn run_template_clone_fanin(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    diverged: FlatBitmap,
    num_peers: usize,
) -> TpmOutcome {
    run_template_clone_fanin_traced(cfg, kind, diverged, num_peers, Recorder::off())
}

/// [`run_template_clone_fanin`] with a telemetry recorder attached, so
/// the multi-source scenario can prove same-seed journal determinism.
pub fn run_template_clone_fanin_traced(
    cfg: MigrationConfig,
    kind: WorkloadKind,
    diverged: FlatBitmap,
    num_peers: usize,
    recorder: Arc<Recorder>,
) -> TpmOutcome {
    assert!(num_peers >= 1, "fan-in needs at least one peer holder");
    let (mut engine, golden) = diverged_since_clone(cfg, kind, &diverged);
    let peers = (1..=num_peers as u64)
        .map(|h| (h, golden.clone()))
        .collect();
    engine.set_peers(peers);
    engine.scheme = "template-fanin";
    engine.set_recorder(recorder);
    engine.run()
}

/// Build a plausible guest-declared free-block map: everything outside
/// the workload's active regions plus a filesystem-metadata reserve. Used
/// by the sparse-migration experiment and tests.
pub fn synthetic_free_map(cfg: &MigrationConfig, used_fraction: f64, seed: u64) -> FlatBitmap {
    assert!((0.0..=1.0).contains(&used_fraction), "fraction in [0,1]");
    let mut free = FlatBitmap::all_set(cfg.disk_blocks);
    let mut rng = SimRng::new(seed);
    let used = (cfg.disk_blocks as f64 * used_fraction) as usize;
    // The used set: a few large extents (files) plus scattered metadata.
    let mut marked = 0usize;
    while marked < used {
        let extent = (rng.below(4096) + 64) as usize;
        let extent = extent.min(used - marked);
        let start = rng.below((cfg.disk_blocks - extent) as u64) as usize;
        for b in start..start + extent {
            if free.clear(b) {
                marked += 1;
            }
        }
    }
    free
}

/// Convenience: mark the blocks a workload will touch as used so sparse
/// migration cannot skip them. Runs the generator briefly and clears its
/// blocks from `free`.
pub fn reserve_workload_blocks(
    free: &mut FlatBitmap,
    kind: WorkloadKind,
    cfg: &MigrationConfig,
    probe_secs: u64,
) {
    let mut w = kind.build(cfg.disk_blocks as u64);
    let mut rng = SimRng::new(cfg.seed ^ 0xF0F0);
    let mut ops = Vec::new();
    for _ in 0..probe_secs * 2 {
        let demand = w.disk_demand();
        ops.clear();
        w.ops_into(SimDuration::from_millis(500), demand, &mut rng, &mut ops);
        for op in &ops {
            let (OpKind::Write { block } | OpKind::Read { block }) = op.kind;
            free.clear(block as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::proto::Category;

    fn cfg() -> MigrationConfig {
        MigrationConfig::small()
    }

    #[test]
    fn sparse_migration_skips_free_blocks() {
        let c = cfg();
        // Guest uses 30% of the disk; idle workload so the free map stays
        // authoritative.
        let free = synthetic_free_map(&c, 0.3, 9);
        let free_count = free.count_ones();
        let full = crate::sim::run_tpm(c.clone(), WorkloadKind::Idle).report;
        let sparse = run_sparse_migration(c.clone(), WorkloadKind::Idle, free).report;
        assert!(sparse.consistent);
        assert_eq!(
            sparse.disk_iterations[0].units_sent as usize,
            c.disk_blocks - free_count
        );
        assert!(
            sparse.ledger.disk_total() < full.ledger.disk_total() * 75 / 100,
            "sparse {} vs full {}",
            sparse.ledger.disk_total(),
            full.ledger.disk_total()
        );
        assert!(sparse.total_time_secs < full.total_time_secs * 0.75);
    }

    #[test]
    fn sparse_migration_with_live_writes_stays_consistent() {
        let c = cfg();
        let mut free = synthetic_free_map(&c, 0.2, 11);
        // The web workload writes into its own regions; they must be
        // reserved (a real guest would never declare live file blocks
        // free).
        reserve_workload_blocks(&mut free, WorkloadKind::Web, &c, 600);
        let out = run_sparse_migration(c, WorkloadKind::Web, free);
        assert!(out.report.consistent);
    }

    #[test]
    fn template_migration_moves_only_divergence() {
        let c = cfg();
        let mut since_install = FlatBitmap::new(c.disk_blocks);
        for b in (0..c.disk_blocks).step_by(37) {
            since_install.set(b);
        }
        let divergent = since_install.count_ones();
        let out = run_template_migration(c.clone(), WorkloadKind::Idle, since_install);
        assert!(out.report.consistent);
        assert_eq!(out.report.scheme, "template");
        assert_eq!(out.report.disk_iterations[0].units_sent as usize, divergent);
        // Far less than the whole disk crossed.
        assert!(out.report.ledger.get(Category::DiskPrecopy) < c.disk_bytes() / 10);
    }

    #[test]
    fn template_clone_dedup_slashes_bytes_on_wire() {
        let c = cfg();
        // ~8% divergence, the ISSUE's paper-scale scenario in miniature.
        let mut diverged = FlatBitmap::new(c.disk_blocks);
        for b in (0..c.disk_blocks).step_by(12) {
            diverged.set(b);
        }
        let on = run_template_clone_tpm(c.clone(), WorkloadKind::Idle, diverged.clone());
        let off = run_template_clone_tpm(
            MigrationConfig {
                dedup: false,
                ..c.clone()
            },
            WorkloadKind::Idle,
            diverged,
        );
        assert!(on.report.consistent && off.report.consistent);
        assert_eq!(on.report.scheme, "template-clone");
        // Same final image either way — dedup is a transport optimization,
        // never a content change.
        assert!(on.dst_disk.content_equals(&off.dst_disk));
        // Every block still "crossed" (as a payload or a reference)…
        assert_eq!(
            on.report.disk_iterations[0].units_sent,
            off.report.disk_iterations[0].units_sent
        );
        // …but the identical ~92% went as 16-byte references: at least a
        // 60% bytes-on-wire cut (the acceptance threshold; the model
        // predicts ~90%).
        assert!(on.report.wire.blocks_deduped > 0);
        assert!(
            on.report.wire.bytes_sent * 5 <= off.report.wire.bytes_sent * 2,
            "dedup-on sent {} vs dedup-off {}",
            on.report.wire.bytes_sent,
            off.report.wire.bytes_sent
        );
        // The ledger (real framing bytes) shrinks too, and the migration
        // finishes sooner.
        assert!(on.report.ledger.total() < off.report.ledger.total() / 2);
        assert!(on.report.total_time_secs < off.report.total_time_secs);
    }

    #[test]
    fn template_fanin_serves_most_blocks_from_peers() {
        let c = cfg();
        // E14: 8% divergence since the template boot, four fleet peers
        // still holding the golden image.
        let mut diverged = FlatBitmap::new(c.disk_blocks);
        for b in (0..c.disk_blocks).step_by(12) {
            diverged.set(b);
        }
        let out = run_template_clone_fanin(c.clone(), WorkloadKind::Idle, diverged, 4);
        let ms = &out.report.multisource;
        assert!(out.report.consistent);
        assert_eq!(out.report.scheme, "template-fanin");
        assert!(ms.plans > 0);
        assert_eq!(ms.failovers, 0);
        // The acceptance bar: at least 70% of owed full blocks arrive
        // from non-source peers (the model predicts ~92% — everything
        // still golden).
        assert!(
            ms.peer_fraction() >= 0.70,
            "peer fraction {:.3} (source {} / peer {})",
            ms.peer_fraction(),
            ms.planned_source,
            ms.planned_peer
        );
        // Every peer byte is attributed to a named host, and the totals
        // reconcile with the plan.
        assert_eq!(ms.peer_blocks(), ms.planned_peer);
        assert_eq!(ms.peer_bytes.len(), 4);
        for p in &ms.peer_bytes {
            assert!(p.blocks > 0, "peer {} idle despite equal budgets", p.host);
            assert_eq!(p.bytes, p.blocks * c.block_size);
        }
    }

    #[test]
    fn template_fanin_off_reproduces_classic_image() {
        let c = cfg();
        let mut diverged = FlatBitmap::new(c.disk_blocks);
        for b in (0..c.disk_blocks).step_by(12) {
            diverged.set(b);
        }
        // Idle guest: with no concurrent writes the two runs must install
        // the exact same image (a live workload would diverge the virtual
        // clocks, hence the write history — each run is still internally
        // consistent, checked below).
        let on = run_template_clone_fanin(c.clone(), WorkloadKind::Idle, diverged.clone(), 3);
        let off = run_template_clone_fanin(
            MigrationConfig {
                multisource: false,
                ..c.clone()
            },
            WorkloadKind::Idle,
            diverged.clone(),
            3,
        );
        assert!(on.report.consistent && off.report.consistent);
        let live = run_template_clone_fanin(c, WorkloadKind::Web, diverged, 3);
        assert!(live.report.consistent);
        // Multi-source is a transport optimization, never a content
        // change: both runs install the same final image.
        assert!(on.dst_disk.content_equals(&off.dst_disk));
        // With the knob off the planner never runs and the report says so.
        assert_eq!(off.report.multisource.plans, 0);
        assert_eq!(off.report.multisource.peer_blocks(), 0);
        assert!(on.report.multisource.planned_peer > 0);
    }

    #[test]
    fn synthetic_free_map_hits_requested_fraction() {
        let c = cfg();
        let free = synthetic_free_map(&c, 0.4, 3);
        let used = c.disk_blocks - free.count_ones();
        let frac = used as f64 / c.disk_blocks as f64;
        assert!((0.38..0.42).contains(&frac), "used fraction {frac}");
    }
}
