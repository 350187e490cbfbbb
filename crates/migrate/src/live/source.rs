//! The source half of the protocol (the paper's `xc_linux_save` with
//! `blkd`): disk pre-copy under the block-bitmap, memory pre-copy, the
//! freeze that ships the bitmap instead of the blocks, and the post-copy
//! push loop that answers pulls first. Every decision among them is the
//! [`PhaseMachine`]'s; this shell moves the frames. All progress lives in
//! [`SourceState`], outside any connection, where each reconnecting
//! destination's receipt report is folded in.

use std::sync::Arc;
use std::time::{Duration, Instant};

use block_bitmap::{ser, AtomicBitmap, DirtyMap, FlatBitmap};
use bytes::Bytes;
use simnet::proto::{MigMessage, ResumePhase, TransferLedger};
use simnet::transport::{Transport, TransportError};
use telemetry::{Event, Fold, Phase, Side};
use vdisk::{hash_block, FingerprintSet, TrackedDisk, TrackerHandle};
use vmstate::LiveRam;

use crate::live::engine::{
    classify, decode_bitmap, protocol_err, recv_or, run_sessions, send_or, SessionError,
    SessionsEnd,
};
use crate::live::plane::{
    read_batch, send_disk_worklist, send_page_worklist, sync_barrier, DedupCtx,
};
use crate::live::{fingerprinting_pays, Connector, DriverCtl, LiveConfig, MigrationError};
use crate::phase::{requeue, PhaseMachine, Queues, Receipt, StopRule, Voice, Worklist};

/// All source-side progress, held *outside* any connection so a dead
/// transport loses nothing but in-flight frames.
#[derive(Default)]
pub(super) struct SourceState {
    /// Where the protocol stands; advanced only on confirmed sends.
    machine: PhaseMachine,
    session_id: u64,
    /// An inherited block-bitmap opened the run (§V): told to the
    /// destination in every [`MigMessage::SessionHello`].
    incremental: bool,
    prepared: bool,
    /// The worklists, and what this session shipped of them.
    q: Queues,
    // Disk pre-copy.
    pub(super) iter_bm: Arc<AtomicBitmap>,
    pub(super) tracker: Option<TrackerHandle>,
    converged_at_tick: Option<u64>,
    // Memory pre-copy.
    mem_started: bool,
    // Freeze.
    suspended: bool,
    frozen_bitmap: FlatBitmap,
    pub(super) frozen_dirty: u64,
    pub(super) frozen_mem_dirty: u64,
    // Wire optimizations (per-session agreement, run-wide savings).
    pub(super) ctx: DedupCtx,
    // Accounting: the source's events folded, and what no event carries.
    pub(super) fold: Fold,
    pub(super) ledger: TransferLedger,
    pub(super) resume_owed: Vec<u64>,
}

/// Disk pre-copy ends when a pass leaves at most this many dirty blocks,
/// a quarter of one default `DiskBlocks` batch (256): a residual that
/// small is not worth another pass, and post-copy pushes it.
const DIRTY_THRESHOLD: usize = 64;

/// Memory pre-copy ends when a pass leaves at most this many dirty pages,
/// a quarter of one default `MemPages` batch (128), which the freeze then
/// sends.
const MEM_DIRTY_THRESHOLD: usize = 32;

impl SourceState {
    pub(super) fn new(cfg: &LiveConfig, initial_bitmap: Option<&FlatBitmap>) -> Self {
        Self {
            machine: PhaseMachine::new(
                Voice::Engine,
                StopRule::new(cfg.max_iterations, DIRTY_THRESHOLD),
                StopRule::new(cfg.max_mem_iterations, MEM_DIRTY_THRESHOLD),
            ),
            session_id: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            incremental: initial_bitmap.is_some(),
            q: Queues {
                disk: match initial_bitmap {
                    Some(bm) => bm.to_indices(),
                    None => (0..cfg.num_blocks).collect(),
                },
                shipped: [
                    FlatBitmap::new(cfg.num_blocks),
                    FlatBitmap::new(cfg.mem_pages),
                ],
                ..Queues::default()
            },
            iter_bm: Arc::new(AtomicBitmap::new(cfg.num_blocks)),
            ..Self::default()
        }
    }
}

/// Drive the source protocol to completion. On failure the error is
/// paired with the state gathered so far (`Some` once the guest was
/// suspended) — a destination that fails over to peer holders still
/// needs the source's phase statistics for the outcome report.
pub(super) fn source_protocol<C: Connector>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    mut connector: C,
    ctl: &DriverCtl,
    mut st: SourceState,
) -> Result<SourceState, (MigrationError, Option<Box<SourceState>>)> {
    st.machine.start(|e| st.fold.emit(&cfg.telemetry, e));
    let sessions = run_sessions(cfg, Side::Source, &mut connector, |ep, attempt| {
        run_source_session(cfg, disk, ram, ep, ctl, &mut st, attempt)
    });
    connector.abort();
    st.ledger = sessions.ledger;
    st.fold.merge(sessions.fold);
    let e = match sessions.end {
        Ok(()) => return Ok(st),
        Err(SessionsEnd::Fatal(e) | SessionsEnd::Unreachable(e)) => e,
    };
    // A failed migration leaves the guest on the source: stop paying the
    // write-interception cost.
    if let Some(h) = st.tracker.take() {
        disk.detach_tracker(h);
    }
    disk.disable_tracking();
    // A source that died after suspending still hands its phase
    // accounting to a failover outcome.
    Err((e, st.suspended.then(|| Box::new(st))))
}

/// Handshake + reconcile + drive the protocol to completion (or the next
/// failure) on one connection.
fn run_source_session<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    ctl: &DriverCtl,
    st: &mut SourceState,
    attempt: u32,
) -> Result<(), SessionError> {
    // Dedup is a capability; whether this session uses it is the link's
    // call, made afresh on every connection.
    let offer_dedup = cfg.dedup && fingerprinting_pays(ep.link_ns_per_byte());
    send_or(
        ep,
        "handshake",
        MigMessage::SessionHello {
            session_id: st.session_id,
            attempt,
            dedup: offer_dedup,
            compress: cfg.compress,
            incremental: st.incremental,
        },
    )?;
    let resume = recv_or(ep, "handshake", cfg.retry.phase_timeout)?;
    let MigMessage::ResumeFrom {
        phase: dest_phase,
        dedup: dest_dedup,
        compress: dest_compress,
        disk_bitmap,
        mem_bitmap,
    } = resume
    else {
        return Err(protocol_err(
            "handshake",
            format!("expected ResumeFrom, got {resume:?}"),
        ));
    };
    if attempt == 0 && dest_phase != ResumePhase::AwaitPrepare {
        return Err(protocol_err(
            "handshake",
            format!("destination claims {dest_phase:?} on the initial connection"),
        ));
    }
    // The destination echoes the acceptance it will actually honour;
    // AND-ing with our own offer guards against a peer accepting a
    // feature that was never offered.
    st.ctx
        .reset(offer_dedup && dest_dedup, cfg.compress && dest_compress);
    if cfg.telemetry.is_enabled() {
        let m = cfg.telemetry.metrics();
        m.counter("dedup.sessions_fingerprinted")
            .add(u64::from(st.ctx.dedup));
        m.counter("dedup.sessions_skipped")
            .add(u64::from(cfg.dedup && !offer_dedup));
    }
    if st.ctx.dedup {
        // Dedup-negotiated sessions open with the resident-content
        // summary; the previous session's view was discarded above.
        let summary = recv_or(ep, "handshake", cfg.retry.phase_timeout)?;
        let MigMessage::ContentSummary { fingerprints } = summary else {
            return Err(protocol_err(
                "handshake",
                format!("expected ContentSummary, got {summary:?}"),
            ));
        };
        // Sized for the summary plus what this session will ship in
        // full, so the first pass does not rehash its way up.
        st.ctx.known_remote = FingerprintSet::with_capacity(fingerprints.len() + st.q.disk.len());
        st.ctx.known_remote.extend(fingerprints);
    }
    // Fold the receipt in: the machine decides what the failed session
    // left owed and where the source restarts.
    let receipt = match dest_phase {
        ResumePhase::AwaitPrepare if st.prepared => {
            return Err(protocol_err(
                "handshake",
                "destination lost its prepared state".to_string(),
            ))
        }
        ResumePhase::AwaitPrepare => Receipt::Unprepared,
        ResumePhase::Precopy | ResumePhase::Frozen => Receipt::Got(
            decode_bitmap("handshake", &disk_bitmap, cfg.num_blocks)?,
            decode_bitmap("handshake", &mem_bitmap, cfg.mem_pages)?,
            dest_phase == ResumePhase::Frozen,
        ),
        ResumePhase::PostCopy => {
            Receipt::StillNeeded(decode_bitmap("handshake", &disk_bitmap, cfg.num_blocks)?)
        }
    };
    let owed = st
        .machine
        .reconcile(receipt, &mut st.q)
        .map_err(|why| protocol_err("handshake", why.to_string()))?;
    // Only actual resumes contribute a resume_owed entry; the initial
    // handshake has nothing owed by construction.
    if attempt > 0 {
        st.resume_owed.push(owed);
    }
    for shipped in &mut st.q.shipped {
        shipped.clear_all();
    }

    if !st.prepared {
        send_or(
            ep,
            "prepare",
            MigMessage::PrepareVbd {
                block_size: cfg.block_size as u32,
                num_blocks: cfg.num_blocks as u64,
            },
        )?;
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "a source that waits for PrepareAck refuses every other frame"
        )]
        match recv_or(ep, "prepare", cfg.retry.phase_timeout)? {
            MigMessage::PrepareAck => st.prepared = true,
            other => {
                return Err(protocol_err(
                    "prepare",
                    format!("expected PrepareAck, got {other:?}"),
                ))
            }
        }
    }

    loop {
        match st.machine.phase() {
            Phase::DiskPrecopy => source_disk_precopy(cfg, disk, ep, ctl, st)?,
            Phase::MemPrecopy => source_mem_precopy(cfg, disk, ram, ep, st)?,
            Phase::Freeze => source_freeze(cfg, disk, ram, ep, ctl, st)?,
            Phase::PostCopy => return source_post_copy(cfg, disk, ep, st),
        }
    }
}

fn source_disk_precopy<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ep: &T,
    ctl: &DriverCtl,
    st: &mut SourceState,
) -> Result<(), SessionError> {
    // Iterative pre-copy. IM: iteration 1 ships only the inherited
    // bitmap's blocks (or everything on a primary migration).
    loop {
        let count = st.q.disk.len() as u64;
        let sent_before = st.ctx.wire.bytes_sent;
        send_disk_worklist(
            ep,
            disk,
            &mut st.q.disk,
            &mut st.q.shipped[0],
            &mut st.ctx,
            cfg,
            "disk pre-copy",
            true,
        )?;
        let bytes = st.ctx.wire.bytes_sent - sent_before;
        let snap = st.iter_bm.snapshot_and_clear();
        let emit = |e| st.fold.emit(&cfg.telemetry, e);
        let Some(next) = st.machine.end_pass(count, bytes, snap, emit) else {
            st.converged_at_tick = Some(ctl.ticks());
            return Ok(());
        };
        st.q.disk = next.to_indices();
    }
}

fn source_mem_precopy<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    st: &mut SourceState,
) -> Result<(), SessionError> {
    // Converged disk content lost by a failed session goes first; the
    // destination applies DiskBlocks the same way in every pre-freeze
    // state.
    send_disk_worklist(
        ep,
        disk,
        &mut st.q.resend,
        &mut st.q.shipped[0],
        &mut st.ctx,
        cfg,
        "memory pre-copy",
        true,
    )?;
    if !st.mem_started {
        ram.enable_tracking();
        st.q.mem = (0..cfg.mem_pages).collect();
        st.mem_started = true;
    }
    // Memory pre-copy (disk writes keep accumulating in iter_bm for the
    // freeze bitmap): iteration 1 ships every page, later iterations ship
    // the pages dirtied meanwhile, Xen-style.
    loop {
        let count = st.q.mem.len() as u64;
        let sent_before = st.ctx.wire.page_bytes_sent;
        send_page_worklist(
            ep,
            ram,
            &mut st.q.mem,
            &mut st.q.shipped[1],
            &mut st.ctx,
            cfg,
            "memory pre-copy",
        )?;
        // The iteration ends when the destination has applied it: what
        // the guest dirties meanwhile rides the next iteration, and the
        // guest is never suspended into a backlog of pre-copy frames.
        let mut misses = Vec::new();
        sync_barrier(ep, &mut misses, "memory pre-copy", cfg.retry.phase_timeout)?;
        if let Some(b) = misses.first() {
            // Every reference of this session was settled by the disk
            // passes' own barriers.
            return Err(protocol_err(
                "memory pre-copy",
                format!("reference bounce for block {b} with no reference outstanding"),
            ));
        }
        let bytes = st.ctx.wire.page_bytes_sent - sent_before;
        let emit = |e| st.fold.emit(&cfg.telemetry, e);
        let Some(next) = st.machine.end_pass(count, bytes, ram.drain_dirty(), emit) else {
            return Ok(());
        };
        st.q.mem = next.to_indices();
    }
}

fn source_freeze<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    ctl: &DriverCtl,
    st: &mut SourceState,
) -> Result<(), SessionError> {
    // First entry: actually suspend the guest and seal the bitmaps. On
    // re-entry after a reconnect the guest is already suspended and all
    // frozen content is stable — resending any of it is idempotent.
    if !st.suspended {
        if cfg.min_guest_ticks > 0 {
            // Let the guest run: guarantees a writing workload lands
            // blocks in the freeze bitmap, deterministically.
            let target = st.converged_at_tick.unwrap_or(0) + cfg.min_guest_ticks;
            ctl.wait_ticks(target, Duration::from_secs(10));
        }
        let suspended_at = ctl.request_suspend();
        st.suspended = true;
        // The writes that raced with the last drains join the freeze.
        let (raced, raced_pages) = (st.iter_bm.snapshot_and_clear(), ram.drain_dirty());
        // Stamped at the instant the guest stopped: the freeze span, and
        // so the reported downtime, opens there.
        let emit = |e| st.fold.at_instant(&cfg.telemetry, suspended_at, e);
        let (frozen, tail) = st.machine.suspend(&raced, Some(&raced_pages), emit);
        if let Some(h) = st.tracker.take() {
            disk.detach_tracker(h);
        }
        st.frozen_dirty = frozen.count_ones() as u64;
        st.frozen_bitmap = frozen;
        requeue(&mut st.q.tail, tail.iter_set(), cfg.mem_pages);
        st.frozen_mem_dirty = st.q.tail.len() as u64;
        ram.disable_tracking();
    }
    // Pre-copy disk content still owed from a failed session.
    send_disk_worklist(
        ep,
        disk,
        &mut st.q.resend,
        &mut st.q.shipped[0],
        &mut st.ctx,
        cfg,
        "freeze",
        false,
    )?;
    if !st.q.dest_suspended {
        send_or(ep, "freeze", MigMessage::Suspended)?;
        st.q.dest_suspended = true;
    }
    // Ship the memory tail, the CPU context and the disk bitmap (not the
    // blocks).
    send_page_worklist(
        ep,
        ram,
        &mut st.q.tail,
        &mut st.q.shipped[1],
        &mut st.ctx,
        cfg,
        "freeze",
    )?;
    send_or(
        ep,
        "freeze",
        MigMessage::CpuState {
            payload_len: 8 * 1024,
            payload: None,
        },
    )?;
    if cfg.multisource {
        // The guest is suspended: the frozen blocks' content is final,
        // so these fingerprints anchor peer-holder verification for the
        // whole post-copy phase (source-death failover). Re-sent on
        // freeze re-entry like every other freeze payload — idempotent.
        let frozen = st.frozen_bitmap.to_indices();
        let fingerprints: Vec<u64> = read_batch(disk, &frozen, cfg.block_size)
            .chunks_exact(cfg.block_size)
            .map(hash_block)
            .collect();
        st.ctx.work.blocks_read += frozen.len() as u64;
        st.ctx.work.blocks_hashed += frozen.len() as u64;
        send_or(
            ep,
            "freeze",
            MigMessage::BlockManifest {
                blocks: frozen.iter().map(|&b| b as u64).collect(),
                fingerprints,
            },
        )?;
    }
    let encoded = Bytes::from(ser::encode(&st.frozen_bitmap));
    cfg.telemetry.record(|| Event::BitmapEncoded {
        set_bits: st.frozen_bitmap.count_ones() as u64,
        encoded_bytes: encoded.len() as u64,
    });
    send_or(ep, "freeze", MigMessage::Bitmap { encoded })?;
    st.q.push = Worklist::new(st.frozen_bitmap.clone());
    // The destination journals its own resume.
    st.machine.resume(|_| {});
    Ok(())
}

/// Ship one block of the frozen bitmap, pushed or pulled, as the disk
/// holds it now.
fn send_post_copy_block<T: Transport>(
    cfg: &LiveConfig,
    disk: &TrackedDisk,
    ep: &T,
    st: &mut SourceState,
    b: usize,
    pulled: bool,
) -> Result<(), SessionError> {
    let payload = Bytes::from(read_batch(disk, &[b], cfg.block_size));
    st.ctx.work.blocks_read += 1;
    send_or(
        ep,
        "post-copy",
        MigMessage::PostCopyBlock {
            block: b as u64,
            pulled,
            payload_len: payload.len() as u64,
            payload: Some(payload),
        },
    )
}

fn source_post_copy<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ep: &T,
    st: &mut SourceState,
) -> Result<(), SessionError> {
    // Push continuously, answer pulls preferentially: every queued
    // request is answered before the next push.
    let mut push_complete_sent = false;
    let mut last_progress = Instant::now();
    loop {
        let msg = match ep.try_recv() {
            Err(TransportError::Empty) => match st.q.push.next(None) {
                Some(b) => {
                    send_post_copy_block(cfg, disk, ep, st, b, false)?;
                    continue;
                }
                None => {
                    if !push_complete_sent {
                        send_or(ep, "post-copy", MigMessage::PushComplete)?;
                        push_complete_sent = true;
                    }
                    // Nothing to push: wait for pulls or completion.
                    match ep.recv_timeout(Duration::from_millis(20)) {
                        Err(TransportError::Timeout)
                            if last_progress.elapsed() > cfg.retry.phase_timeout =>
                        {
                            return Err(SessionError::Fatal(MigrationError::Timeout {
                                phase: "post-copy",
                                waited: cfg.retry.phase_timeout,
                            }));
                        }
                        Err(TransportError::Timeout) => continue,
                        received => received,
                    }
                }
            },
            received => received,
        };
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "in post-copy the source refuses every frame but a pull, a bounce, Resumed and MigrationComplete"
        )]
        match msg.map_err(|e| classify("post-copy", e))? {
            // A reference bounce that was still in flight when pre-copy
            // ended: the destination unioned the block into its
            // still-needed set, so it is answered like a pull.
            MigMessage::PullRequest { block } | MigMessage::BlockRefMiss { block } => {
                last_progress = Instant::now();
                st.q.push.pull(block as usize);
                send_post_copy_block(cfg, disk, ep, st, block as usize, true)?;
            }
            MigMessage::MigrationComplete => {
                // Best-effort ack: the destination is provably synced and
                // completes on its own evidence if the ack is lost. The
                // loss is still observed, as `live.ack_lost`.
                if ep.send(MigMessage::CompleteAck).is_err() && cfg.telemetry.is_enabled() {
                    cfg.telemetry.metrics().counter("live.ack_lost").add(1);
                }
                return Ok(());
            }
            MigMessage::Resumed => {} // downtime over; informational
            other => {
                return Err(protocol_err(
                    "post-copy",
                    format!("unexpected message at source: {other:?}"),
                ))
            }
        }
    }
}
