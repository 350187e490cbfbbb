//! Command execution.

use std::fmt;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use block_bitmap::{DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng};
use migrate::baselines::{run_delta_queue, run_freeze_and_copy, run_on_demand};
use migrate::live::{fingerprinting_pays, fresh_disks, LiveConfig, LivePeer, LiveRun};
use migrate::sim::{
    dwell, run_im, run_template_clone_fanin, run_template_clone_fanin_traced, run_tpm,
    run_tpm_traced,
};
use migrate::{MigrationConfig, MigrationReport, RetryPolicy};
use simnet::fault::FaultPlan;
use telemetry::{Fold, Recorder};
use workloads::locality::analyze;

use orchestrator::{ClusterConfig, Orchestrator, Scenario};

use vmmigrate::args::{Args, Cmd};

const MB: f64 = 1024.0 * 1024.0;

/// Why a command stopped short.
#[derive(Debug)]
pub enum Error {
    /// Standard output refused a write: its reader hung up (`| head -1`)
    /// or its file is full.
    Stdout(std::io::Error),
    /// The command failed; the message says why.
    Failed(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Stdout(e) => write!(f, "writing standard output: {e}"),
            Error::Failed(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Failed(msg)
    }
}

impl From<&str> for Error {
    fn from(msg: &str) -> Self {
        Error::Failed(msg.into())
    }
}

/// Every byte the CLI prints goes through here, so a reader that hangs
/// up ends the command with [`Error::Stdout`] instead of a panic.
fn put(text: fmt::Arguments<'_>) -> Result<(), Error> {
    std::io::stdout().write_fmt(text).map_err(Error::Stdout)
}

/// `println!` through [`put`].
macro_rules! say {
    ($($arg:tt)*) => {
        put(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// An enabled recorder when either telemetry flag asks for one.
fn recorder_for(a: &Args) -> Option<Arc<Recorder>> {
    (a.trace_out.is_some() || a.metrics_out.is_some()).then(Recorder::enabled)
}

/// Write the journal / metrics snapshot a run recorded. A one-migration
/// run hands in its fold: its account prints in the rendering `trace
/// analyze` prints for the journal, then what the journal says beyond it.
fn export_telemetry(rec: &Recorder, a: &Args, fold: Option<&Fold>) -> Result<(), Error> {
    if let Some(path) = &a.trace_out {
        let records = rec.export();
        std::fs::write(path, telemetry::to_jsonl(&records))
            .map_err(|e| format!("writing {path}: {e}"))?;
        match fold {
            Some(fold) => {
                say!("telemetry journal: {} records -> {path}", records.len())?;
                put(format_args!("{}", fold.summary()))?;
                put(format_args!("{}", telemetry::journal_summary(&records)))?;
                put(format_args!("{}", telemetry::codec_summary(rec.metrics())))?;
            }
            // A fleet journal holds per-migration spans.
            None => say!(
                "telemetry journal: {} records across {} migrations -> {path}",
                records.len(),
                Fold::of_records(&records).migrations().count()
            )?,
        }
        if rec.dropped() > 0 {
            say!("warning: journal full, {} events dropped", rec.dropped())?;
        }
    }
    if let Some(path) = &a.metrics_out {
        std::fs::write(path, telemetry::metrics_json(rec.metrics()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        say!("metrics snapshot -> {path}")?;
    }
    Ok(())
}

fn config_for(a: &Args) -> MigrationConfig {
    let mut cfg = if a.paper_scale {
        MigrationConfig::paper_testbed()
    } else {
        MigrationConfig {
            disk_blocks: 262_144,
            mem_pages: 16_384,
            ..MigrationConfig::paper_testbed()
        }
    };
    cfg.rate_limit = a.rate_limit_mbps.map(|m| m * MB);
    cfg.seed = a.seed;
    cfg.dedup = a.dedup;
    cfg.compress = a.compress;
    cfg.multisource = a.multisource;
    cfg
}

/// The E14 divergence pattern: ~8% of the image written since the clone
/// booted from the golden template (every 12th block).
fn fanin_divergence(disk_blocks: usize) -> FlatBitmap {
    let mut diverged = FlatBitmap::new(disk_blocks);
    for b in (0..disk_blocks).step_by(12) {
        diverged.set(b);
    }
    diverged
}

fn emit(report: &MigrationReport, json: bool) -> Result<(), Error> {
    if json {
        let mut compact = report.clone();
        compact.timeline.clear();
        say!(
            "{}",
            serde_json::to_string_pretty(&compact).expect("report serializes")
        )
    } else {
        say!("{}", report.render())
    }
}

/// The summary line of a virtual-time run: how much simulated time the
/// engine covered per second of host time since `started`.
fn print_engine_speed(virt_secs: f64, started: Instant) -> Result<(), Error> {
    let wall = started.elapsed().as_secs_f64();
    say!(
        "engine: {virt_secs:.1} simulated s in {:.1} ms of host time ({:.0} simulated s per wall s)",
        wall * 1e3,
        virt_secs / wall.max(1e-9)
    )
}

/// Execute a parsed command.
pub fn run(cmd: Cmd) -> Result<(), Error> {
    match cmd {
        Cmd::Simulate(a) => {
            let rec = recorder_for(&a);
            let cfg = config_for(&a);
            let started = Instant::now();
            let out = if a.sources > 0 {
                // Template-clone boot storm (E14): peers hold the golden
                // image, the fetch plan draws still-golden blocks from them.
                let diverged = fanin_divergence(cfg.disk_blocks);
                match &rec {
                    Some(r) => run_template_clone_fanin_traced(
                        cfg,
                        a.workload,
                        diverged,
                        a.sources,
                        Arc::clone(r),
                    ),
                    None => run_template_clone_fanin(cfg, a.workload, diverged, a.sources),
                }
            } else {
                match &rec {
                    Some(r) => run_tpm_traced(cfg, a.workload, Arc::clone(r)),
                    None => run_tpm(cfg, a.workload),
                }
            };
            emit(&out.report, a.json)?;
            if !a.json {
                print_engine_speed(out.report.total_time_secs, started)?;
            }
            if let Some(r) = &rec {
                export_telemetry(r, &a, Some(&out.fold))?;
            }
            if !out.report.consistent {
                return Err("migration verified INCONSISTENT".into());
            }
            Ok(())
        }
        Cmd::Roundtrip(a) => {
            let cfg = config_for(&a);
            let mut out = run_tpm(cfg.clone(), a.workload);
            emit(&out.report, a.json)?;
            dwell(&mut out, &cfg, SimDuration::from_secs(a.dwell_secs));
            let back = run_im(cfg, out);
            emit(&back.report, a.json)?;
            if !back.report.consistent {
                return Err("IM verified INCONSISTENT".into());
            }
            Ok(())
        }
        Cmd::Live(a) => run_live(a),
        Cmd::Orchestrate(a) => run_orchestrate(a),
        Cmd::Baselines(a) => {
            let cfg = config_for(&a);
            let reports = [
                run_tpm(cfg.clone(), a.workload).report,
                run_freeze_and_copy(cfg.clone(), a.workload),
                run_on_demand(cfg.clone(), a.workload, SimDuration::from_secs(600)),
                run_delta_queue(cfg, a.workload),
            ];
            for r in &reports {
                emit(r, a.json)?;
            }
            Ok(())
        }
        Cmd::TraceRecord {
            workload,
            secs,
            out,
        } => {
            let mut w = workload.build(MigrationConfig::paper_testbed().disk_blocks as u64);
            let mut rng = SimRng::new(2008);
            let trace = workloads::record(
                w.as_mut(),
                SimDuration::from_secs(secs),
                SimDuration::from_millis(500),
                &mut rng,
            );
            std::fs::write(&out, trace.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
            say!(
                "recorded {} ops ({} writes) over {secs}s to {out}",
                trace.len(),
                trace.write_count()
            )?;
            Ok(())
        }
        Cmd::TraceAnalyze { path } => {
            let data =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            // A `--trace-out` journal: the account it folds to, in the
            // rendering its run printed, then what it says beyond that.
            match telemetry::from_jsonl(&data) {
                Ok(records) if !records.is_empty() => {
                    let fold = Fold::of_journal(&records).map_err(|e| format!("{path}: {e}"))?;
                    put(format_args!("{}", fold.summary()))?;
                    put(format_args!("{}", telemetry::journal_summary(&records)))?;
                    return Ok(());
                }
                _ => {}
            }
            let trace =
                workloads::OpTrace::from_json(&data).map_err(|e| format!("parsing {path}: {e}"))?;
            let rep = analyze(trace.ops.iter().map(|o| o.kind), 4096);
            say!(
                "{path}: {} ops, {} writes, {} unique blocks, rewrite ratio {:.1}%",
                trace.len(),
                rep.writes,
                rep.unique_blocks,
                rep.rewrite_ratio * 100.0
            )?;
            say!(
                "  delta-queue sync would ship {:.1} MB; bitmap sync ships {:.1} MB",
                rep.delta_bytes as f64 / MB,
                rep.bitmap_scheme_bytes as f64 / MB
            )?;
            Ok(())
        }
    }
}

fn run_orchestrate(a: Args) -> Result<(), Error> {
    let rec = recorder_for(&a);
    let recorder = rec.clone().unwrap_or_else(Recorder::off);
    let started = Instant::now();
    let report = if let Some(path) = &a.scenario {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut spec = scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        // The spec wins where it speaks; CLI flags fill the gaps, so a
        // seed matrix can sweep one .scn file with --seed.
        if spec.seed.is_none() {
            spec.seed = Some(a.seed);
        }
        let policy = spec.policy.unwrap_or(a.policy);
        let run = scenario::run_with_policy(&spec, policy, recorder)
            .map_err(|e| format!("{path}: {e}"))?;
        run.report
    } else {
        let mut cfg = ClusterConfig::new(a.hosts, a.vms);
        cfg.disk_blocks = a.blocks;
        cfg.seed = a.seed;
        cfg.fault_resets = a.faults;
        cfg.dedup = a.dedup;
        cfg.multisource = a.multisource;
        let scenario = Scenario::two_wave(&cfg, SimDuration::from_secs(a.dwell_secs));
        let mut orch = Orchestrator::new(cfg, a.policy, recorder).map_err(|e| e.to_string())?;
        orch.run(&scenario)
    };
    if a.json {
        say!(
            "{}",
            serde_json::to_string_pretty(&report).expect("report serializes")
        )?;
    } else {
        put(format_args!("{}", report.render()))?;
        print_engine_speed(report.makespan_secs(), started)?;
    }
    if let Some(r) = &rec {
        export_telemetry(r, &a, None)?;
    }
    if !report.all_consistent() {
        return Err("a migrated image verified INCONSISTENT".into());
    }
    if report.completed() < report.records.len() {
        return Err(format!(
            "{} of {} migrations failed",
            report.records.len() - report.completed(),
            report.records.len()
        )
        .into());
    }
    Ok(())
}

fn run_live(a: Args) -> Result<(), Error> {
    let rec = recorder_for(&a);
    let mut cfg = LiveConfig {
        num_blocks: a.blocks,
        workload: a.workload,
        rate_limit: a.rate_limit_mbps.map(|m| m * MB),
        streams: a.streams,
        dedup: a.dedup,
        compress: a.compress,
        multisource: a.multisource,
        seed: a.seed,
        retry: RetryPolicy {
            max_reconnects: a.max_reconnects,
            ..RetryPolicy::default()
        },
        telemetry: rec.clone().unwrap_or_else(Recorder::off),
        ..LiveConfig::test_default()
    };
    // Each injected fault resets one connection attempt somewhere in its
    // first few hundred messages (seed-deterministic), so the engine must
    // reconnect and resume from the block-bitmap.
    let faults = if a.faults > 0 {
        FaultPlan::seeded_resets(a.seed, a.faults, 10, 200)
    } else {
        FaultPlan::none()
    };
    let mut run = LiveRun {
        faults,
        tcp: a.tcp,
        ..LiveRun::default()
    };
    if a.sources > 0 {
        // Shared-storage replica holders (hosts 1..=N) of the source image,
        // registered as failover peers with multi-source fetch enabled.
        let (src, dst) = fresh_disks(&cfg);
        cfg.multisource = true;
        cfg.peers = (1..=a.sources as u64)
            .map(|host| LivePeer {
                host,
                disk: Arc::clone(&src),
            })
            .collect();
        run.disks = Some((src, dst));
    }
    let out = migrate::live::run_live(&cfg, run).map_err(|e| format!("migration failed: {e}"))?;
    say!(
        "live migration{}: disk iters {:?}, mem iters {:?}, frozen dirty {}+{}p, downtime {:?} of {:?}",
        if a.tcp { " (TCP)" } else { "" },
        out.iterations,
        out.mem_iterations,
        out.frozen_dirty,
        out.frozen_mem_dirty,
        out.downtime,
        out.total
    )?;
    if out.reconnects > 0 {
        say!(
            "fault recovery: {} reconnects, resumed with {:?} owed blocks per retry",
            out.reconnects,
            out.resume_owed
        )?;
    }
    if out.failovers > 0 {
        let fetched: u64 = out.peer_bytes.iter().map(|p| p.blocks).sum();
        say!(
            "source failover: image completed from {} peer holder(s), {} blocks fetched",
            out.peer_bytes.len(),
            fetched
        )?;
    }
    say!(
        "post-copy: {} pushed, {} pulled, {} dropped; src sent {:.1} MB",
        out.pushed,
        out.pulled,
        out.dropped,
        out.src_ledger.total() as f64 / MB
    )?;
    // Both links this command opens, in-process and loopback socket, cost
    // what their pacing says; the rule is the engine's.
    let link_ns_per_byte = cfg.rate_limit.map_or(0.0, |rate| 1e9 / rate);
    if (cfg.dedup || cfg.compress) && !fingerprinting_pays(Some(link_ns_per_byte)) {
        say!("content-aware: not used: the link is free")?;
    } else if out.wire.blocks_deduped > 0 || out.wire.blocks_compressed > 0 {
        say!(
            "content-aware: {:.1} MB raw -> {:.1} MB sent ({:.1}% off the wire; {} deduped, {} compressed)",
            out.wire.bytes_raw as f64 / MB,
            out.wire.bytes_sent as f64 / MB,
            out.wire.reduction_pct(),
            out.wire.blocks_deduped,
            out.wire.blocks_compressed,
        )?;
    }
    if out.wire.pages_compressed > 0 {
        say!(
            "memory pages: {:.1} MB raw -> {:.1} MB sent ({:.1}% off the wire; {} compressed)",
            out.wire.page_bytes_raw as f64 / MB,
            out.wire.page_bytes_sent as f64 / MB,
            out.wire.page_reduction_pct(),
            out.wire.pages_compressed,
        )?;
    }
    if let Some(r) = &rec {
        export_telemetry(r, &a, Some(&out.fold))?;
    }
    let bad = out.inconsistent_blocks();
    let bad_pages = out.inconsistent_pages();
    if out.read_violations > 0 || !bad.is_empty() || !bad_pages.is_empty() {
        return Err(format!(
            "VERIFICATION FAILED: {} read violations, {} bad blocks, {} bad pages",
            out.read_violations,
            bad.len(),
            bad_pages.len()
        )
        .into());
    }
    say!(
        "verification: all {} blocks and {} RAM pages byte-identical to guest ground truth",
        a.blocks,
        out.dst_ram.num_pages()
    )?;
    Ok(())
}
