//! Fault-tolerant live migration: deterministic transport faults are
//! injected mid-migration and the engine must reconnect and resume from
//! the block-bitmap, finishing with the exact same consistency verdict a
//! fault-free run produces.

use block_bitmap_migration::migrate::live::{
    fresh_disks, run_live, run_live_migration_connected, LiveConfig, LiveOutcome, LiveRun,
    MigrationError, OnceConnector,
};
use block_bitmap_migration::migrate::RetryPolicy;
use block_bitmap_migration::simnet::fault::{Fault, FaultKind, FaultPlan, FaultTrigger};
use block_bitmap_migration::simnet::proto::{Category, MigMessage, TransferLedger, FRAME_OVERHEAD};
use block_bitmap_migration::simnet::transport::{duplex, Endpoint, Transport, TransportError};
use block_bitmap_migration::telemetry::{Event, FaultLabel, Recorder, Side};
use block_bitmap_migration::vdisk::{stamp_bytes, TrackedDisk, VirtualDisk};
use std::sync::Arc;
use std::time::Duration;

/// The paper's Gigabit LAN, bytes/second: the link of the two tests that
/// assert dedup behaviour. An unpaced in-process link is free, and a
/// session on it does not fingerprint (DESIGN.md §15).
const GIGABIT: f64 = 125e6;

/// A primary migration between fresh disks over the in-process link,
/// under `faults`.
fn faulted(cfg: &LiveConfig, faults: FaultPlan) -> Result<LiveOutcome, MigrationError> {
    run_live(
        cfg,
        LiveRun {
            faults,
            ..LiveRun::default()
        },
    )
}

fn fault_cfg() -> LiveConfig {
    LiveConfig {
        num_blocks: 16_384,
        // Guarantee the guest dirties blocks between pre-copy convergence
        // and suspend, so post-copy has real push traffic to fault.
        min_guest_ticks: 25,
        retry: RetryPolicy {
            max_reconnects: 4,
            backoff: Duration::from_millis(10),
            phase_timeout: Duration::from_secs(5),
            outage_budget: None,
        },
        ..LiveConfig::test_default()
    }
}

fn assert_consistent(out: &block_bitmap_migration::migrate::live::LiveOutcome) {
    assert_eq!(out.read_violations, 0, "guest observed stale data");
    let bad = out.inconsistent_blocks();
    assert!(
        bad.is_empty(),
        "{} inconsistent blocks (first: {:?})",
        bad.len(),
        bad.first()
    );
    let bad_pages = out.inconsistent_pages();
    assert!(
        bad_pages.is_empty(),
        "{} inconsistent RAM pages (first: {:?})",
        bad_pages.len(),
        bad_pages.first()
    );
}

#[test]
fn resets_during_precopy_and_postcopy_recover() {
    // The headline scenario: one connection reset in the middle of the
    // first disk pre-copy pass (message 20 of 64), a second one after the
    // guest has already resumed on the destination (5th post-copy push).
    // Both must be absorbed: reconnect, exchange ResumeFrom bitmaps,
    // retransmit only what the dead sessions left uncertain.
    let cfg = fault_cfg();
    let plan = FaultPlan::none()
        .reset_after_category(0, Category::DiskPrecopy, 20)
        .reset_after_category(1, Category::DiskPush, 5);
    let out = faulted(&cfg, plan).expect("faulted migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 2, "both injected resets must be survived");
    assert_eq!(out.resume_owed.len(), 2);

    // Resume efficiency (the bitmap is the recovery ledger, not a restart
    // marker): the pre-copy reconnect owes only the blocks of the one
    // unconfirmed batch, never a second full-disk pass.
    assert!(out.resume_owed[0] >= 1, "the failed batch must be owed");
    assert!(
        (out.resume_owed[0] as usize) < cfg.num_blocks / 4,
        "resume must not degenerate into a full resend ({} owed)",
        out.resume_owed[0]
    );
    // Ledger proof: total pre-copy disk traffic stays well under the two
    // full passes a restart-from-scratch would cost.
    let full_pass_bytes = (cfg.num_blocks * (cfg.block_size + 30)) as u64;
    let precopy = out.src_ledger.get(Category::DiskPrecopy);
    assert!(
        precopy < full_pass_bytes * 3 / 2,
        "pre-copy shipped {precopy} bytes — a full pass is ~{full_pass_bytes}; \
         resume must not re-ship the whole disk"
    );
}

#[test]
fn barrier_frames_are_control_traffic() {
    // Every pre-copy pass — each disk iteration, the (normally empty)
    // resend pass that opens memory pre-copy, each memory iteration —
    // closes with a Barrier the destination echoes. Both frames are
    // control traffic, so the disk and memory categories the resume
    // arithmetic above is built on carry payload only. Without dedup the
    // destination's control ledger is exactly its fixed frames plus the
    // echoes.
    let cfg = LiveConfig {
        dedup: false,
        ..fault_cfg()
    };
    let out = faulted(&cfg, FaultPlan::none()).expect("clean run completes");
    assert_consistent(&out);
    let barriers = (out.iterations.len() + 1 + out.mem_iterations.len()) as u64;
    // PrepareAck, Resumed and MigrationComplete are the other three.
    assert_eq!(
        out.dst_ledger.get(Category::Control),
        (3 + barriers) * FRAME_OVERHEAD,
        "one BarrierAck per pre-copy pass ({barriers} passes)"
    );
}

#[test]
fn reset_mid_dedup_stream_converges_with_wire_savings() {
    // A reset lands in the middle of a dedup-enabled pre-copy stream
    // (test_default runs with dedup and compression on). The resumed
    // session must not trust the dead session's reference state: the
    // destination reseeds the source with a ContentSummary of what it
    // verifiably holds, and the re-owed blocks that did arrive before
    // the cut then cross as 16-byte references instead of full payloads.
    // The end state must be exactly as consistent as a fault-free run,
    // and the wire accounting must still show content-aware savings.
    // Paced, because a session fingerprints only on a link whose bytes
    // cost something; both sessions cross it, so both fingerprint.
    let cfg = LiveConfig {
        rate_limit: Some(GIGABIT),
        ..fault_cfg()
    };
    assert!(
        cfg.dedup && cfg.compress,
        "scenario exercises the dedup stream"
    );
    let plan = FaultPlan::none().reset_after_category(0, Category::DiskPrecopy, 20);
    let out = faulted(&cfg, plan).expect("faulted dedup migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 1);
    assert!(
        out.wire.blocks_deduped > 0,
        "the re-owed batch must dedup against the reseeded content index"
    );
    assert!(
        out.wire.bytes_sent < out.wire.bytes_raw,
        "content-aware path must save wire bytes across the fault: sent {} raw {}",
        out.wire.bytes_sent,
        out.wire.bytes_raw
    );
}

#[test]
fn reconnect_resummarises_from_the_kept_index_not_from_the_disk() {
    // A reset in the middle of disk pre-copy towards a pre-seeded
    // destination: every block resident, a quarter of them stale. The
    // first handshake fingerprints the resident image; the resumed
    // session's summary comes out of the content index the destination
    // kept exact while it applied — the disk is not read a second time.
    let cfg = LiveConfig {
        rate_limit: Some(GIGABIT),
        telemetry: Recorder::enabled(),
        ..fault_cfg()
    };
    let n = cfg.num_blocks as u64;
    let disk = |stale_every: Option<usize>| {
        let disk = VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
        for b in 0..cfg.num_blocks {
            let stamp = if stale_every.is_some_and(|k| b % k == 0) {
                9
            } else {
                0
            };
            disk.write_block(b, &stamp_bytes(b, stamp, cfg.block_size));
        }
        Arc::new(TrackedDisk::new(Arc::new(disk)))
    };
    let (src, dst) = (disk(None), disk(Some(4)));
    // A flush is one frame of 256 full blocks and one of the 768
    // references staged beside them (four chunks of 64 and 192): message
    // 3 is the second flush's full frame.
    let plan = FaultPlan::none().reset_after_category(0, Category::DiskPrecopy, 3);
    let out = run_live(
        &cfg,
        LiveRun {
            disks: Some((src, dst)),
            faults: plan,
            ..LiveRun::default()
        },
    )
    .expect("faulted migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 1);

    // Resume arithmetic as in the headline scenario: the cut batch is
    // owed, not the disk.
    assert_eq!(out.resume_owed.len(), 1);
    let owed = out.resume_owed[0];
    assert!(owed >= 1, "the failed batch must be owed");
    assert!(
        owed < n / 4,
        "resume degenerated into a resend ({owed} owed)"
    );

    let handshakes: Vec<(u64, u64)> = cfg
        .telemetry
        .records()
        .iter()
        .filter_map(|r| match r.event {
            Event::HandshakeSummary {
                hashed_blocks,
                cached_blocks,
                ..
            } => Some((hashed_blocks, cached_blocks)),
            _ => None,
        })
        .collect();
    assert_eq!(
        handshakes,
        vec![(n, 0), (0, n)],
        "(hashed, cached) per session: one pass over the disk, then none"
    );
    // Over the whole run the destination hashed the resident image once,
    // and then one block per block the source sent it (a full block to
    // record it, a reference to verify its holder) — the source hashes
    // each block it sends, so its count is that number. A second pass
    // over the disk would add `n`.
    let sent = out.work.src.blocks_hashed;
    assert!(sent >= n && sent < n + n / 4, "source sent {sent} blocks");
    assert!(
        out.work.dst.blocks_hashed <= n + sent,
        "destination hashed {} blocks: {n} resident + {sent} sent to it",
        out.work.dst.blocks_hashed
    );
}

#[test]
fn outage_budget_rides_out_a_partition_reset_storm() {
    // A network partition looks like a storm of connection resets: every
    // reconnect attempt dies until the partition heals. With only the
    // attempt counter (max_reconnects: 1), the storm below exhausts the
    // budget; with a wall-clock outage budget, the engine keeps
    // reconnecting on backoff until the link comes back — the paper's
    // bitmap-resume makes each ride-out cost one bitmap exchange, not a
    // restart.
    let storm = || {
        FaultPlan::none()
            .reset_after_category(0, Category::DiskPrecopy, 20)
            .reset_after_category(1, Category::DiskPrecopy, 5)
            .reset_after_category(2, Category::DiskPrecopy, 5)
        // Attempt 3: the partition healed; the session runs clean.
    };

    let impatient = fault_cfg();
    let impatient = LiveConfig {
        retry: RetryPolicy {
            max_reconnects: 1,
            ..impatient.retry
        },
        ..impatient
    };
    match faulted(&impatient, storm()) {
        Err(MigrationError::RetriesExhausted { attempts, .. }) => {
            assert_eq!(attempts, 2, "counter-only policy dies mid-storm")
        }
        Err(other) => panic!("attempt-bounded run must exhaust retries, got {other:?}"),
        Ok(_) => panic!("attempt-bounded run must exhaust retries, but completed"),
    }

    let tolerant = fault_cfg();
    let tolerant = LiveConfig {
        retry: RetryPolicy {
            max_reconnects: 1,
            outage_budget: Some(Duration::from_secs(30)),
            ..tolerant.retry
        },
        ..tolerant
    };
    let out = faulted(&tolerant, storm()).expect("outage budget must ride out the storm");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 3, "all three storm resets survived");
}

#[test]
fn truncated_frame_mid_precopy_is_retransmitted() {
    // A truncate fault makes one send *appear* to succeed while the frame
    // vanishes (the TCP-RST-after-buffered-write case). The per-session
    // shipped/received reconciliation must re-owe exactly that batch —
    // cumulative accounting would mark it delivered and lose the blocks.
    let cfg = fault_cfg();
    let plan = FaultPlan::none().truncate_after_messages(0, 10);
    let out = faulted(&cfg, plan).expect("truncated migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 1);
    assert!(
        out.resume_owed[0] >= cfg.batch as u64,
        "the silently-lost batch must be re-owed ({} owed)",
        out.resume_owed[0]
    );
}

#[test]
fn truncated_compressed_page_frame_is_the_only_one_resent() {
    // The second memory frame of a compressed session vanishes with the
    // link. An idle guest dirties no RAM, so every page crosses exactly
    // once on a clean run, and a lost frame never reaches the ledger:
    // if the resumed session re-ships the un-got batch and nothing else,
    // the faulted run's memory bytes equal the clean run's to the byte.
    let cfg = LiveConfig {
        workload: block_bitmap_migration::workloads::WorkloadKind::Idle,
        mem_writes_per_tick: 0,
        min_guest_ticks: 0,
        // Slow enough that LZ pays whatever a sample's timing suffers
        // (477 ns a byte against the few LZ takes), on every connection.
        rate_limit: Some(2.0 * 1024.0 * 1024.0),
        ..fault_cfg()
    };
    assert!(cfg.compress, "scenario exercises compressed page frames");
    let clean = faulted(&cfg, FaultPlan::none()).expect("clean run completes");
    assert_consistent(&clean);
    assert_eq!(clean.wire.pages_compressed, cfg.mem_pages as u64);

    let mut plan = FaultPlan::none();
    plan.faults.push(Fault {
        attempt: 0,
        trigger: FaultTrigger::CategoryMessages(Category::Memory, 2),
        kind: FaultKind::Truncate,
    });
    let out = faulted(&cfg, plan).expect("truncated migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 1);
    // The disk pass was complete and acknowledged by its barrier.
    assert_eq!(out.resume_owed, vec![0]);
    assert_eq!(
        out.src_ledger.get(Category::Memory),
        clean.src_ledger.get(Category::Memory),
        "resume must re-ship the lost page batch and only that"
    );
}

#[test]
fn tcp_reset_recovers_over_real_sockets() {
    // Same recovery logic across a real network stack: the fault severs
    // the actual loopback socket, the destination re-accepts, the source
    // re-dials.
    let cfg = LiveConfig {
        num_blocks: 16_384,
        seed: 41,
        retry: RetryPolicy {
            max_reconnects: 2,
            backoff: Duration::from_millis(10),
            phase_timeout: Duration::from_secs(5),
            outage_budget: None,
        },
        ..LiveConfig::test_default()
    };
    let plan = FaultPlan::none().reset_after_category(0, Category::DiskPrecopy, 7);
    let out = run_live(
        &cfg,
        LiveRun {
            faults: plan,
            tcp: true,
            ..LiveRun::default()
        },
    )
    .expect("tcp migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 1);
}

#[test]
fn exhausted_reconnect_budget_is_a_typed_error() {
    // Every attempt dies on its first message and the policy allows one
    // reconnect: the migration must fail with RetriesExhausted — not a
    // panic, not a hang.
    let cfg = LiveConfig {
        num_blocks: 16_384,
        retry: RetryPolicy {
            max_reconnects: 1,
            backoff: Duration::from_millis(5),
            phase_timeout: Duration::from_secs(5),
            outage_budget: None,
        },
        ..LiveConfig::test_default()
    };
    let plan = FaultPlan::none()
        .reset_after_messages(0, 1)
        .reset_after_messages(1, 1);
    match faulted(&cfg, plan) {
        Err(MigrationError::RetriesExhausted { attempts, last }) => {
            assert_eq!(attempts, 2, "initial connection + one reconnect");
            assert!(!last.is_empty(), "the last failure must be reported");
        }
        Err(other) => panic!("expected RetriesExhausted, got {other}"),
        Ok(_) => panic!("migration cannot succeed when every attempt is reset"),
    }
}

#[test]
fn journal_counts_match_the_fault_plan() {
    // The telemetry journal is the black-box flight recorder for fault
    // runs: every injected fault and every survived reconnect must appear
    // in it, with counts matching the configured FaultPlan and the
    // engine's own tally.
    let cfg = LiveConfig {
        telemetry: Recorder::enabled(),
        ..fault_cfg()
    };
    let plan = FaultPlan::none()
        .reset_after_category(0, Category::DiskPrecopy, 20)
        .reset_after_category(1, Category::DiskPush, 5);
    let out = faulted(&cfg, plan).expect("faulted migration recovers");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 2);

    let records = cfg.telemetry.records();
    let resets = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::FaultInjected {
                    fault: FaultLabel::Reset,
                    ..
                }
            )
        })
        .count();
    assert_eq!(resets, 2, "both configured resets must be journaled");

    // Source-side reconnect events are the journal's counterpart of
    // `LiveOutcome::reconnects`; their attempt numbers count up from 1.
    let mut attempts: Vec<u64> = records
        .iter()
        .filter_map(|r| match r.event {
            Event::Reconnect {
                side: Side::Source,
                attempt,
            } => Some(attempt),
            _ => None,
        })
        .collect();
    attempts.sort_unstable();
    assert_eq!(attempts.len() as u32, out.reconnects);
    assert_eq!(attempts, vec![1, 2]);
}

#[test]
fn journal_records_a_stall_without_reconnects() {
    // A stall journals as an injected fault but causes no reconnect:
    // the fault count still matches the plan while the reconnect count
    // stays zero, matching the engine.
    let cfg = LiveConfig {
        num_blocks: 16_384,
        seed: 43,
        telemetry: Recorder::enabled(),
        ..LiveConfig::test_default()
    };
    let plan = FaultPlan::none().stall_after_messages(0, 12, Duration::from_millis(150));
    let out = faulted(&cfg, plan).expect("stalled migration completes");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 0);

    let records = cfg.telemetry.records();
    let stalls = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                Event::FaultInjected {
                    fault: FaultLabel::Stall,
                    ..
                }
            )
        })
        .count();
    assert_eq!(stalls, 1, "the configured stall must be journaled");
    assert!(
        !records
            .iter()
            .any(|r| matches!(r.event, Event::Reconnect { .. })),
        "a stall must not journal a reconnect"
    );
}

#[test]
fn stall_fault_delays_but_completes_without_reconnect() {
    // A stall is pure latency, not a failure: the migration rides it out
    // on the same connection.
    let cfg = LiveConfig {
        num_blocks: 16_384,
        seed: 43,
        ..LiveConfig::test_default()
    };
    let plan = FaultPlan::none().stall_after_messages(0, 12, Duration::from_millis(150));
    let out = faulted(&cfg, plan).expect("stalled migration completes");
    assert_consistent(&out);
    assert_eq!(out.reconnects, 0);
    assert!(out.resume_owed.is_empty());
}

/// The destination's end of a link on which the source's block-bitmap
/// frame is replaced, in flight, by `frame`.
struct ForgedBitmap {
    inner: Endpoint,
    frame: Vec<u8>,
}

impl ForgedBitmap {
    fn forge(&self, got: Result<MigMessage, TransportError>) -> Result<MigMessage, TransportError> {
        match got {
            Ok(MigMessage::Bitmap { .. }) => Ok(MigMessage::Bitmap {
                encoded: self.frame.clone().into(),
            }),
            other => other,
        }
    }
}

impl Transport for ForgedBitmap {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        self.inner.send(msg)
    }
    fn recv(&self) -> Result<MigMessage, TransportError> {
        self.forge(self.inner.recv())
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        self.forge(self.inner.recv_timeout(timeout))
    }
    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        self.forge(self.inner.try_recv())
    }
    fn sent_ledger(&self) -> TransferLedger {
        self.inner.sent_ledger()
    }
}

#[test]
fn a_bitmap_frame_claiming_a_trillion_blocks_is_a_protocol_error() {
    // Tag RLE, 2^40 bits, no runs: nine bytes that once sized a 128 GiB
    // allocation on the destination, which aborted the process.
    let mut frame = vec![2u8];
    frame.extend((1u64 << 40).to_le_bytes());
    let cfg = LiveConfig {
        num_blocks: 16_384,
        ..LiveConfig::test_default()
    };
    let (src, dst) = fresh_disks(&cfg);
    let (src_ep, dst_ep) = duplex();
    let run = run_live_migration_connected(
        &cfg,
        src,
        dst,
        None,
        OnceConnector::new(src_ep),
        OnceConnector::new(ForgedBitmap {
            inner: dst_ep,
            frame,
        }),
    );
    // The destination refuses the frame and hangs up; the source, unable
    // to reconnect, reports that.
    let Err(err) = run else {
        panic!("a forged bitmap completed a migration");
    };
    assert!(matches!(err, MigrationError::Protocol { .. }), "{err:?}");
}
