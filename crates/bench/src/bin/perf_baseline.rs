//! Performance baseline harness: wall-clock p50/p99 per scenario,
//! emitted as CI-comparable JSON (`BENCH_baseline.json`).
//!
//! Three scenario families cover the migration data plane end to end:
//!
//! * **bitmap** — word-batched `FlatBitmap` scans, unions and shard
//!   extraction at the paper's 40 GB / 4 KiB scale (9,765,625 bits);
//! * **codec** — wire encode/decode of bitmap and block-batch frames,
//!   including a `*_naive` reference that re-creates the pre-overhaul
//!   per-word copy path so the bulk-path speedup stays measurable;
//! * **sim** — end-to-end three-phase migrations at paper scale, with
//!   one and four transport streams;
//! * **scenario** — the WAN-profile cluster run (two islands over a
//!   capped, lossy uplink with a mid-run degrade), timing the scenario
//!   engine's interpretation overhead end to end.
//!
//! ```text
//! perf_baseline [--out FILE] [--quick] [--verify-speedup]
//! perf_baseline --compare BENCH_baseline.json [--threshold PCT] [--quick]
//! ```
//!
//! `--compare` reruns every scenario and fails (exit 1) when a fresh p50
//! regresses past `baseline_p50 * (1 + PCT/100)`. The default threshold
//! is deliberately loose (75%): wall-clock on shared CI machines is
//! noisy, and the gate is meant to catch algorithmic regressions (a
//! copy-per-word slipping back in), not scheduler jitter.

use std::hint::black_box;

use block_bitmap::{ser, DirtyMap, FlatBitmap};
use des::{SimDuration, SimRng, SimTime};
use migrate::sim::{run_template_clone_fanin, run_template_clone_tpm, run_tpm};
use migrate::MigrationConfig;
use orchestrator::{MigrationRequest, Policy, VmId};
use scenario::{ChaosEvent, HostCaps, Island, LinkSpec, ScenarioSpec, TimedEvent};
use serde::{Deserialize, Serialize};
use simnet::codec;
use simnet::proto::MigMessage;
use telemetry::Recorder;
use vdisk::content::hash_block;
use workloads::WorkloadKind;

/// 40 GB disk at 4 KiB blocks — the paper's testbed geometry.
const NBITS: usize = 9_765_625;

/// Minimum acceptable bulk-vs-naive speedup for the bitmap-frame encode
/// path (`--verify-speedup`).
const REQUIRED_SPEEDUP: f64 = 3.0;

/// `--verify-speedup` gate for the LZ round-trip on run-heavy data: the
/// corpus must shrink by at least this factor, or compressing residual
/// sends is not pulling its weight.
const LZ_REQUIRED_RATIO: f64 = 2.0;

/// `--verify-speedup` budget for the LZ round-trip's wall clock, in
/// multiples of memcpy-ing the same bytes. A healthy single-pass codec
/// lands near 50x (measured; both sides of the ratio come from the same
/// process seconds apart); an accidental quadratic match scan or
/// per-byte push lands in the thousands, which is what this trips on.
const LZ_MEMCPY_BUDGET: f64 = 400.0;

/// Minimum bytes-on-wire reduction `sim_tpm_template_dedup` must deliver
/// against the identical dedup-off run (ISSUE acceptance: >= 60 %).
const REQUIRED_DEDUP_REDUCTION_PCT: f64 = 60.0;

/// Minimum fraction of owed full blocks `multisource_template_fanin`
/// must serve from non-source peers (E14 acceptance: >= 70 %; the model
/// predicts ~92 % at 8 % divergence with four golden-image holders).
const REQUIRED_PEER_FRACTION: f64 = 0.70;

#[derive(Serialize, Deserialize)]
struct ScenarioStat {
    name: String,
    iters: usize,
    p50_ns: u64,
    p99_ns: u64,
}

#[derive(Serialize, Deserialize)]
struct Baseline {
    schema: String,
    nbits: usize,
    scenarios: Vec<ScenarioStat>,
    /// p50(naive bitmap-frame encode) / p50(bulk bitmap-frame encode).
    codec_bitmap_encode_speedup_vs_naive: f64,
    /// p50(LZ round-trip) / p50(memcpy of the same bytes). `Option`
    /// because pre-PR-7 baselines lack the key (missing parses as None).
    lz_roundtrip_vs_memcpy: Option<f64>,
    /// raw bytes / compressed bytes over the run-heavy corpus.
    lz_compression_ratio: Option<f64>,
    /// Bytes-on-wire cut the template-clone dedup run achieved against
    /// the identical dedup-off run, percent. `Option` because pre-PR-7
    /// baselines lack the key.
    template_dedup_wire_reduction_pct: Option<f64>,
    /// Fraction of owed full blocks the fan-in scenario served from
    /// non-source peers, percent. `Option` because pre-PR-9 baselines
    /// lack the key.
    multisource_peer_fraction_pct: Option<f64>,
    /// Virtual-time makespan of the WAN-profile scenario run, seconds.
    /// Deterministic (same seed => same figure), so recorded exactly.
    /// `Option` because pre-PR-10 baselines lack the key.
    wan_scenario_makespan_secs: Option<f64>,
    /// Total bytes the WAN-profile scenario shipped across all its
    /// migrations. `Option` because pre-PR-10 baselines lack the key.
    wan_scenario_total_bytes: Option<u64>,
}

/// Time `f` over `iters` iterations (after `warmup` untimed ones) and
/// report order statistics of the per-iteration wall clock.
fn measure<F: FnMut()>(name: &str, warmup: usize, iters: usize, mut f: F) -> ScenarioStat {
    for _ in 0..warmup {
        f();
    }
    let mut ns: Vec<u64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = std::time::Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    let p50 = ns[iters / 2];
    let p99 = ns[((iters * 99) / 100).min(iters - 1)];
    eprintln!("{name:<44} p50 {p50:>12} ns   p99 {p99:>12} ns   ({iters} iters)");
    ScenarioStat {
        name: name.to_string(),
        iters,
        p50_ns: p50,
        p99_ns: p99,
    }
}

/// Clustered dirty pattern at full map scale, like a real pre-copy
/// iteration's write set (the paper's workloads dirty runs of blocks,
/// not uniform noise).
fn clustered_bitmap(dirty: usize, seed: u64) -> FlatBitmap {
    let mut rng = SimRng::new(seed);
    let mut bm = FlatBitmap::new(NBITS);
    let clusters = (dirty / 512).max(1);
    let per = dirty / clusters;
    for _ in 0..clusters {
        let start = rng.below((NBITS - per) as u64) as usize;
        for i in start..start + per {
            bm.set(i);
        }
    }
    bm
}

/// The pre-overhaul bitmap-frame path, kept as a timing reference: one
/// 8-byte extend per word into unreserved buffers, then body and frame
/// assembled by separate concatenating copies.
fn naive_bitmap_frame(bm: &FlatBitmap) -> Vec<u8> {
    let mut encoded = Vec::new();
    encoded.push(0u8);
    encoded.extend_from_slice(&(bm.len() as u64).to_le_bytes());
    for w in bm.words() {
        encoded.extend_from_slice(&w.to_le_bytes());
    }
    let mut body = Vec::new();
    body.push(4u8);
    body.extend_from_slice(&(encoded.len() as u64).to_le_bytes());
    body.extend_from_slice(&encoded);
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

fn bulk_bitmap_frame(bm: &FlatBitmap) -> Vec<u8> {
    let msg = MigMessage::Bitmap {
        encoded: ser::encode_raw(bm).into(),
    };
    codec::encode_framed(&msg)
}

fn sim_scenario(streams: usize) -> MigrationConfig {
    let mut cfg = MigrationConfig::paper_testbed();
    cfg.streams = streams;
    cfg.seed = 2008;
    // The legacy scenarios pin the content-aware and multi-source paths
    // off: the feature-off plane is bit-identical to the classic one, so
    // their numbers stay comparable against baselines recorded before
    // either feature existed.
    cfg.dedup = false;
    cfg.compress = false;
    cfg.multisource = false;
    cfg
}

/// The paper-scale template-clone scenario: a destination provisioned
/// from the same golden image, 8 % diverged since (every 12th block
/// rewritten on the source).
fn template_dedup_outcome(dedup: bool) -> migrate::sim::TpmOutcome {
    let mut cfg = MigrationConfig::paper_testbed();
    cfg.seed = 2008;
    cfg.dedup = dedup;
    cfg.compress = dedup;
    let mut diverged = FlatBitmap::new(cfg.disk_blocks);
    for b in (0..cfg.disk_blocks).step_by(12) {
        diverged.set(b);
    }
    run_template_clone_tpm(cfg, WorkloadKind::Idle, diverged)
}

/// The paper-scale E14 fan-in scenario: an 8 %-diverged template clone
/// boot-storms onto a blank destination while four fleet peers still
/// hold the golden image; the fetch planner routes every still-golden
/// full block to a peer under equal NIC budgets.
fn template_fanin_outcome() -> migrate::sim::TpmOutcome {
    let mut cfg = MigrationConfig::paper_testbed();
    cfg.seed = 2008;
    let mut diverged = FlatBitmap::new(cfg.disk_blocks);
    for b in (0..cfg.disk_blocks).step_by(12) {
        diverged.set(b);
    }
    run_template_clone_fanin(cfg, WorkloadKind::Idle, diverged, 4)
}

/// The PR-10 WAN-profile scenario: two LAN islands joined by a 20 MiB/s,
/// 40 ms, 5‰-drop uplink, one heterogeneous slow host, a full wave of
/// migrations at t=0, and a mid-run degrade/restore on one WAN pair.
/// Mirrors `scenarios/wan.scn` so the checked-in file and the recorded
/// perf figure describe the same run.
fn wan_scenario_spec() -> ScenarioSpec {
    let mib = 1024.0 * 1024.0;
    let mut s = ScenarioSpec::new(4, 8);
    s.disk_blocks = Some(8_192);
    s.seed = Some(2008);
    s.islands.push(Island {
        name: "CORE".to_string(),
        hosts: vec![0, 1],
    });
    s.islands.push(Island {
        name: "EDGE".to_string(),
        hosts: vec![2, 3],
    });
    s.links.push(LinkSpec {
        from: vec![0, 1],
        to: vec![2, 3],
        symmetric: true,
        bandwidth: Some(20.0 * mib),
        latency: Some(SimDuration::from_millis(40)),
        drop_permille: Some(5),
    });
    s.caps.push((
        3,
        HostCaps {
            nic: Some(60.0 * mib),
            disk: Some(90.0 * mib),
        },
    ));
    for vm in 0..s.vms {
        s.requests.push(MigrationRequest {
            vm: VmId(vm),
            dest: None,
            at: SimTime::ZERO,
        });
    }
    s.events.push(TimedEvent {
        at: SimTime::ZERO + SimDuration::from_secs(20),
        event: ChaosEvent::LinkDegrade {
            a: 0,
            b: 2,
            bandwidth: 5.0 * mib,
            drop_permille: Some(50),
        },
    });
    s.events.push(TimedEvent {
        at: SimTime::ZERO + SimDuration::from_secs(60),
        event: ChaosEvent::LinkRestore { a: 0, b: 2 },
    });
    s
}

/// Run-heavy compressible payload: runs of 16–200 repeats of one byte,
/// the shape RLE and LZ back-references both exploit.
fn compressible_payload(bytes: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    let mut out = Vec::with_capacity(bytes);
    while out.len() < bytes {
        let run = 16 + rng.below_usize(185);
        let byte = rng.below(256) as u8;
        let n = run.min(bytes - out.len());
        out.extend(std::iter::repeat_n(byte, n));
    }
    out
}

fn run_all(quick: bool) -> Baseline {
    // `--quick` trades percentile stability for turnaround; the emitted
    // JSON still has the same shape so compare mode works either way.
    let scale = |iters: usize| if quick { (iters / 10).max(5) } else { iters };
    let mut scenarios = Vec::new();

    // --- bitmap family ------------------------------------------------
    let a = clustered_bitmap(360_000, 11);
    let b = clustered_bitmap(360_000, 13);
    scenarios.push(measure("bitmap_count_ones_40g", 3, scale(2000), || {
        black_box(a.count_ones());
    }));
    scenarios.push(measure("bitmap_next_set_scan_40g", 3, scale(400), || {
        let mut n = 0usize;
        let mut from = 0usize;
        while let Some(i) = a.next_set_from(from) {
            n += 1;
            from = i + 1;
        }
        black_box(n);
    }));
    // Union into an already-unioned scratch: identical word traffic on
    // every iteration without re-cloning the 1.2 MB map each time.
    let mut scratch = a.clone();
    scenarios.push(measure("bitmap_union_40g", 3, scale(1000), || {
        scratch.union_with(&b);
        black_box(scratch.count_ones());
    }));
    scenarios.push(measure(
        "bitmap_shard_restrict_x4_40g",
        3,
        scale(400),
        || {
            for r in FlatBitmap::shard_bounds(NBITS, 4) {
                black_box(a.restrict_to(r));
            }
        },
    ));

    // --- codec family -------------------------------------------------
    let naive = measure("codec_bitmap_frame_encode_naive_40g", 3, scale(300), || {
        black_box(naive_bitmap_frame(&a));
    });
    let bulk = measure("codec_bitmap_frame_encode_40g", 3, scale(300), || {
        black_box(bulk_bitmap_frame(&a));
    });
    let speedup = naive.p50_ns as f64 / bulk.p50_ns.max(1) as f64;
    eprintln!("codec bitmap-frame encode speedup vs naive: {speedup:.2}x");
    let framed = bulk_bitmap_frame(&a);
    scenarios.push(naive);
    scenarios.push(bulk);
    scenarios.push(measure(
        "codec_bitmap_frame_decode_40g",
        3,
        scale(300),
        || {
            black_box(codec::decode(&framed[4..]).expect("valid frame"));
        },
    ));
    let blocks: Vec<u64> = (0..100_000u64).map(|i| i * 7).collect();
    let disk_msg = MigMessage::DiskBlocks {
        payload_len: blocks.len() as u64 * 4096,
        blocks,
        payload: None,
    };
    let disk_framed = codec::encode_framed(&disk_msg);
    scenarios.push(measure(
        "codec_diskblocks_frame_encode_100k",
        3,
        scale(500),
        || {
            black_box(codec::encode_framed(&disk_msg));
        },
    ));
    scenarios.push(measure(
        "codec_diskblocks_frame_decode_100k",
        3,
        scale(500),
        || {
            black_box(codec::decode(&disk_framed[4..]).expect("valid frame"));
        },
    ));

    // --- content-aware family -----------------------------------------
    // Fingerprint throughput: 2,560 paper-sized blocks (10 MiB) of
    // word-varied data per iteration.
    let mut rng = SimRng::new(17);
    let mut hash_payload = vec![0u8; 2_560 * 4096];
    for chunk in hash_payload.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    scenarios.push(measure("hash_block_40g", 3, scale(300), || {
        let mut acc = 0u64;
        for block in hash_payload.chunks_exact(4096) {
            acc ^= hash_block(block);
        }
        black_box(acc);
    }));

    // LZ round-trip over 256 run-heavy blocks (1 MiB), against a memcpy
    // of the same bytes as the budget unit.
    let compressible = compressible_payload(256 * 4096, 19);
    let lz = measure("codec_lz_roundtrip", 3, scale(300), || {
        let stream = codec::compress_blocks(&compressible, 4096);
        let out = codec::decompress_blocks(&stream, 256, 4096).expect("own stream round-trips");
        black_box(out.len());
    });
    let mut copy_dst = vec![0u8; compressible.len()];
    let memcpy = measure("codec_lz_memcpy_ref", 3, scale(300), || {
        copy_dst.copy_from_slice(&compressible);
        black_box(copy_dst[copy_dst.len() - 1]);
    });
    let lz_ratio = lz.p50_ns as f64 / memcpy.p50_ns.max(1) as f64;
    let compressed = codec::compress_blocks(&compressible, 4096).len();
    let lz_compression = compressible.len() as f64 / compressed.max(1) as f64;
    eprintln!(
        "LZ round-trip: {lz_compression:.2}x compression, \
         {lz_ratio:.2}x a memcpy of the same bytes"
    );
    scenarios.push(lz);
    scenarios.push(memcpy);

    // Template-clone dedup at paper scale, on vs off; the derived figure
    // is the bytes-on-wire cut dedup delivered.
    let clone_iters = if quick { 3 } else { 9 };
    let mut wire_on = None;
    scenarios.push(measure("sim_tpm_template_dedup", 1, clone_iters, || {
        let out = template_dedup_outcome(true);
        assert!(out.report.consistent, "template-clone dedup inconsistent");
        wire_on = Some(out.report.wire);
        black_box(out.report.downtime_ms);
    }));
    let mut wire_off = None;
    scenarios.push(measure(
        "sim_tpm_template_dedup_off",
        1,
        clone_iters,
        || {
            let out = template_dedup_outcome(false);
            assert!(out.report.consistent, "template-clone classic inconsistent");
            wire_off = Some(out.report.wire);
            black_box(out.report.downtime_ms);
        },
    ));
    let (wire_on, wire_off) = (
        wire_on.expect("dedup run measured"),
        wire_off.expect("classic run measured"),
    );
    let dedup_reduction =
        (1.0 - wire_on.bytes_sent as f64 / wire_off.bytes_sent.max(1) as f64) * 100.0;
    eprintln!(
        "template-clone dedup: {} -> {} wire bytes ({dedup_reduction:.1}% cut, {} refs)",
        wire_off.bytes_sent, wire_on.bytes_sent, wire_on.blocks_deduped
    );
    assert!(
        dedup_reduction >= REQUIRED_DEDUP_REDUCTION_PCT,
        "template-clone dedup cut only {dedup_reduction:.1}% of wire bytes \
         (acceptance floor {REQUIRED_DEDUP_REDUCTION_PCT}%)"
    );

    // Multi-source fan-in at paper scale (E14): the derived figure is the
    // fraction of owed full blocks the plan served from non-source peers.
    let mut fanin = None;
    scenarios.push(measure(
        "multisource_template_fanin",
        1,
        clone_iters,
        || {
            let out = template_fanin_outcome();
            assert!(out.report.consistent, "template fan-in inconsistent");
            fanin = Some(out.report.multisource.clone());
            black_box(out.report.downtime_ms);
        },
    ));
    let fanin = fanin.expect("fan-in run measured");
    let peer_fraction = fanin.peer_fraction();
    eprintln!(
        "template fan-in: {} fulls from {} peers, {} from source \
         ({:.1}% off-source)",
        fanin.planned_peer,
        fanin.peer_bytes.len(),
        fanin.planned_source,
        peer_fraction * 100.0
    );
    assert!(
        peer_fraction >= REQUIRED_PEER_FRACTION,
        "fan-in served only {:.1}% of owed fulls from peers \
         (acceptance floor {:.0}%)",
        peer_fraction * 100.0,
        REQUIRED_PEER_FRACTION * 100.0
    );

    // --- scenario family ----------------------------------------------
    // The WAN-profile cluster run (PR-10): the wall-clock stat gates
    // the scenario engine's own overhead (topology compile + per-step
    // dynamics interpretation), while the recorded makespan and bytes
    // are virtual-time figures that must be identical run to run.
    let wan_iters = if quick { 3 } else { 9 };
    let mut wan_report = None;
    scenarios.push(measure("scenario_wan_profile", 1, wan_iters, || {
        let s = wan_scenario_spec();
        let run = scenario::run_with_policy(&s, Policy::ImAware, Recorder::off())
            .expect("valid WAN bench spec");
        assert!(
            run.report.all_consistent(),
            "WAN scenario migration inconsistent"
        );
        wan_report = Some(run.report);
    }));
    let wan_report = wan_report.expect("WAN scenario measured");
    let wan_makespan = wan_report.makespan_secs();
    let wan_bytes = wan_report.total_bytes();
    eprintln!(
        "WAN scenario: {}/{} migrations, {wan_makespan:.1} s virtual makespan, {} MiB on the wire",
        wan_report.completed(),
        wan_report.records.len(),
        wan_bytes / 1_048_576
    );
    assert_eq!(
        wan_report.completed(),
        wan_report.records.len(),
        "WAN scenario left migrations incomplete"
    );

    // --- end-to-end sim family ----------------------------------------
    let e2e = [
        ("sim_tpm_web_streams1", WorkloadKind::Web, 1),
        ("sim_tpm_web_streams4", WorkloadKind::Web, 4),
        ("sim_tpm_idle_streams1", WorkloadKind::Idle, 1),
        ("sim_tpm_diabolical_streams1", WorkloadKind::Diabolical, 1),
    ];
    for (name, kind, streams) in e2e {
        let iters = if quick { 3 } else { 9 };
        scenarios.push(measure(name, 1, iters, || {
            let out = run_tpm(sim_scenario(streams), kind);
            assert!(out.report.consistent, "{name}: migration inconsistent");
            black_box(out.report.downtime_ms);
        }));
    }

    Baseline {
        schema: "bench-baseline-v1".to_string(),
        nbits: NBITS,
        scenarios,
        codec_bitmap_encode_speedup_vs_naive: (speedup * 100.0).round() / 100.0,
        lz_roundtrip_vs_memcpy: Some((lz_ratio * 100.0).round() / 100.0),
        lz_compression_ratio: Some((lz_compression * 100.0).round() / 100.0),
        template_dedup_wire_reduction_pct: Some((dedup_reduction * 10.0).round() / 10.0),
        multisource_peer_fraction_pct: Some((peer_fraction * 1000.0).round() / 10.0),
        wan_scenario_makespan_secs: Some((wan_makespan * 10.0).round() / 10.0),
        wan_scenario_total_bytes: Some(wan_bytes),
    }
}

fn compare(fresh: &Baseline, base: &Baseline, threshold_pct: f64) -> bool {
    let mut ok = true;
    // A scenario recorded in the baseline but absent from this run means
    // coverage was lost (renamed or deleted), not that perf is fine —
    // fail with the scenario's name instead of silently skipping it.
    for b in &base.scenarios {
        if !fresh.scenarios.iter().any(|f| f.name == b.name) {
            eprintln!(
                "{:<44} MISSING from this run (present in baseline) — \
                 re-record the baseline if the scenario was renamed",
                b.name
            );
            ok = false;
        }
    }
    for f in &fresh.scenarios {
        let Some(b) = base.scenarios.iter().find(|b| b.name == f.name) else {
            // The other direction is expected: this PR's new scenarios
            // have no baseline yet. Report, don't fail.
            eprintln!("{:<44} NEW (not in baseline; skipped)", f.name);
            continue;
        };
        let limit = b.p50_ns as f64 * (1.0 + threshold_pct / 100.0);
        let delta = (f.p50_ns as f64 / b.p50_ns.max(1) as f64 - 1.0) * 100.0;
        let verdict = if (f.p50_ns as f64) > limit {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        eprintln!(
            "{:<44} p50 {:>12} ns vs baseline {:>12} ns  ({delta:+6.1}%)  {verdict}",
            f.name, f.p50_ns, b.p50_ns
        );
    }
    ok
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut threshold = 75.0f64;
    let mut quick = false;
    let mut verify_speedup = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(args.next().expect("--out requires a file")),
            "--compare" => compare_path = Some(args.next().expect("--compare requires a file")),
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold requires a percentage")
            }
            "--quick" => quick = true,
            "--verify-speedup" => verify_speedup = true,
            "--help" | "-h" => {
                println!(
                    "usage: perf_baseline [--out FILE] [--quick] [--verify-speedup]\n\
                     \x20      perf_baseline --compare FILE [--threshold PCT] [--quick]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
    }

    let fresh = run_all(quick);
    if verify_speedup && fresh.codec_bitmap_encode_speedup_vs_naive < REQUIRED_SPEEDUP {
        eprintln!(
            "FAIL: bulk bitmap-frame encode is only {:.2}x the naive path (need >= {REQUIRED_SPEEDUP}x)",
            fresh.codec_bitmap_encode_speedup_vs_naive
        );
        std::process::exit(1);
    }
    let lz_compression = fresh.lz_compression_ratio.unwrap_or(0.0);
    if verify_speedup && lz_compression < LZ_REQUIRED_RATIO {
        eprintln!(
            "FAIL: LZ shrinks the run-heavy corpus only {lz_compression:.2}x \
             (need >= {LZ_REQUIRED_RATIO}x)"
        );
        std::process::exit(1);
    }
    let lz_ratio = fresh.lz_roundtrip_vs_memcpy.unwrap_or(0.0);
    if verify_speedup && lz_ratio > LZ_MEMCPY_BUDGET {
        eprintln!(
            "FAIL: LZ round-trip costs {lz_ratio:.2}x a memcpy of the same bytes \
             (budget {LZ_MEMCPY_BUDGET}x)"
        );
        std::process::exit(1);
    }

    if let Some(path) = compare_path {
        let data = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        let base: Baseline =
            serde_json::from_str(&data).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
        eprintln!("--- comparing against {path} (threshold {threshold}%) ---");
        if !compare(&fresh, &base, threshold) {
            eprintln!("FAIL: at least one scenario regressed past the threshold");
            std::process::exit(1);
        }
        eprintln!("all scenarios within threshold");
        return;
    }

    let json = serde_json::to_string_pretty(&fresh).expect("baseline serializes");
    match out {
        Some(path) => {
            std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("baseline written -> {path}");
        }
        None => println!("{json}"),
    }
}
