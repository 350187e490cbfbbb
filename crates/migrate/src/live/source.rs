//! The source half of the protocol (the paper's `xc_linux_save` with
//! `blkd`): disk pre-copy under the block-bitmap, memory pre-copy, the
//! freeze that ships the bitmap instead of the blocks, and the post-copy
//! push loop that answers pulls first. All progress lives in
//! [`SourceState`], outside any connection; [`reconcile_source`] folds a
//! reconnecting destination's receipt report into it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use block_bitmap::{ser, AtomicBitmap, DirtyMap, FlatBitmap};
use bytes::Bytes;
use simnet::proto::{MigMessage, ResumePhase, TransferLedger};
use simnet::transport::{Transport, TransportError};
use telemetry::{Event, Fold, Phase, Resource, Side};
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
use crate::precopy_stops;

/// Where the source protocol stands; advanced only on confirmed sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum SrcPhase {
    #[default]
    DiskPrecopy,
    MemPrecopy,
    Frozen,
    PostCopy,
}

/// All source-side progress, held *outside* any connection so a dead
/// transport loses nothing but in-flight frames.
#[derive(Default)]
pub(super) struct SourceState {
    phase: SrcPhase,
    session_id: u64,
    /// An inherited block-bitmap opened the run (§V): told to the
    /// destination in every [`MigMessage::SessionHello`].
    incremental: bool,
    prepared: bool,
    // Disk pre-copy.
    disk_worklist: Vec<usize>,
    disk_resend: Vec<usize>,
    session_disk_shipped: FlatBitmap,
    pub(super) iter_bm: Arc<AtomicBitmap>,
    pub(super) tracker: Option<TrackerHandle>,
    converged_at_tick: Option<u64>,
    // Memory pre-copy.
    mem_started: bool,
    mem_worklist: Vec<usize>,
    session_mem_shipped: FlatBitmap,
    // Freeze.
    dest_suspended: bool,
    suspended: bool,
    frozen_bitmap: FlatBitmap,
    pub(super) frozen_dirty: u64,
    tail_worklist: Vec<usize>,
    pub(super) frozen_mem_dirty: u64,
    // Post-copy: what is still to push.
    src_bm: FlatBitmap,
    // Wire optimizations (per-session agreement, run-wide savings).
    pub(super) ctx: DedupCtx,
    // Accounting: the source's events folded, and what no event carries.
    pub(super) fold: Fold,
    pub(super) ledger: TransferLedger,
    pub(super) resume_owed: Vec<u64>,
}

impl SourceState {
    pub(super) fn new(cfg: &LiveConfig, initial_bitmap: Option<&FlatBitmap>) -> Self {
        Self {
            session_id: cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            incremental: initial_bitmap.is_some(),
            disk_worklist: match initial_bitmap {
                Some(bm) => bm.to_indices(),
                None => (0..cfg.num_blocks).collect(),
            },
            session_disk_shipped: FlatBitmap::new(cfg.num_blocks),
            iter_bm: Arc::new(AtomicBitmap::new(cfg.num_blocks)),
            session_mem_shipped: FlatBitmap::new(cfg.mem_pages),
            ..Self::default()
        }
    }
}

/// Union of `extra` indices and a `current` worklist, deduplicated and
/// sorted via a scratch bitmap over `nbits` slots.
fn merged_worklist(
    nbits: usize,
    extra: impl IntoIterator<Item = usize>,
    current: &[usize],
) -> Vec<usize> {
    let mut bm = FlatBitmap::new(nbits);
    for b in extra.into_iter().chain(current.iter().copied()) {
        bm.set(b);
    }
    bm.to_indices()
}

/// Indices marked in `shipped` but not in `got`: sent during the failed
/// session with no proof of delivery, hence owed on resume.
fn owed_indices(shipped: &FlatBitmap, got: &FlatBitmap) -> Vec<usize> {
    shipped.iter_set().filter(|&b| !got.get(b)).collect()
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
    st.fold.emit(
        &cfg.telemetry,
        Event::PhaseStart {
            side: Side::Source,
            phase: Phase::DiskPrecopy,
        },
    );
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
        st.ctx.known_remote =
            FingerprintSet::with_capacity(fingerprints.len() + st.disk_worklist.len());
        st.ctx.known_remote.extend(fingerprints);
    }
    reconcile_source(cfg, st, attempt, dest_phase, &disk_bitmap, &mem_bitmap)?;

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
        match st.phase {
            SrcPhase::DiskPrecopy => source_disk_precopy(cfg, disk, ep, ctl, st)?,
            SrcPhase::MemPrecopy => source_mem_precopy(cfg, disk, ram, ep, st)?,
            SrcPhase::Frozen => source_freeze(cfg, disk, ram, ep, ctl, st)?,
            SrcPhase::PostCopy => return source_post_copy(cfg, disk, ep, st),
        }
    }
}

/// Fold the destination's receipt report into the source state: decide
/// what the failed session left owed, and where to restart.
fn reconcile_source(
    cfg: &LiveConfig,
    st: &mut SourceState,
    attempt: u32,
    dest_phase: ResumePhase,
    disk_bitmap: &Bytes,
    mem_bitmap: &Bytes,
) -> Result<(), SessionError> {
    // Only actual resumes contribute a resume_owed entry; the initial
    // handshake has nothing owed by construction.
    let record_owed = attempt > 0;
    match dest_phase {
        ResumePhase::AwaitPrepare => {
            if st.prepared {
                return Err(protocol_err(
                    "handshake",
                    "destination lost its prepared state".to_string(),
                ));
            }
            // Nothing the destination ever acknowledged: everything the
            // failed sessions attempted rejoins the worklist.
            let owed = st.session_disk_shipped.to_indices();
            if record_owed {
                st.resume_owed.push(owed.len() as u64);
            }
            st.disk_worklist = merged_worklist(cfg.num_blocks, owed, &st.disk_worklist);
        }
        ResumePhase::Precopy | ResumePhase::Frozen => {
            let got_blocks = decode_bitmap("handshake", disk_bitmap, cfg.num_blocks)?;
            let got_pages = decode_bitmap("handshake", mem_bitmap, cfg.mem_pages)?;
            let disk_owed = owed_indices(&st.session_disk_shipped, &got_blocks);
            let mem_owed = owed_indices(&st.session_mem_shipped, &got_pages);
            if record_owed {
                st.resume_owed.push(disk_owed.len() as u64);
            }
            if dest_phase == ResumePhase::Frozen
                && matches!(st.phase, SrcPhase::DiskPrecopy | SrcPhase::MemPrecopy)
            {
                return Err(protocol_err(
                    "handshake",
                    "destination is frozen but the source never suspended".to_string(),
                ));
            }
            match st.phase {
                SrcPhase::DiskPrecopy => {
                    st.disk_worklist =
                        merged_worklist(cfg.num_blocks, disk_owed, &st.disk_worklist);
                }
                SrcPhase::MemPrecopy => {
                    st.disk_resend = merged_worklist(cfg.num_blocks, disk_owed, &st.disk_resend);
                    st.mem_worklist = merged_worklist(cfg.mem_pages, mem_owed, &st.mem_worklist);
                }
                SrcPhase::Frozen | SrcPhase::PostCopy => {
                    st.disk_resend = merged_worklist(cfg.num_blocks, disk_owed, &st.disk_resend);
                    st.tail_worklist = merged_worklist(cfg.mem_pages, mem_owed, &st.tail_worklist);
                    // Post-copy progress is void if the destination never
                    // resumed: the freeze payloads must go again, and the
                    // push set reverts to the full frozen bitmap (re-read
                    // at push time, so content stays current).
                    st.phase = SrcPhase::Frozen;
                    st.dest_suspended = dest_phase == ResumePhase::Frozen;
                }
            }
        }
        ResumePhase::PostCopy => {
            if st.phase != SrcPhase::PostCopy {
                return Err(protocol_err(
                    "handshake",
                    "destination resumed but the source never shipped the bitmap".to_string(),
                ));
            }
            // The destination's still-needed set is authoritative.
            st.src_bm = decode_bitmap("handshake", disk_bitmap, cfg.num_blocks)?;
            if record_owed {
                st.resume_owed.push(st.src_bm.count_ones() as u64);
            }
        }
    }
    st.session_disk_shipped.clear_all();
    st.session_mem_shipped.clear_all();
    Ok(())
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
        let iter = st.fold.iterations(Resource::Disk).len() as u32 + 1;
        let count = st.disk_worklist.len() as u64;
        let sent_before = st.ctx.wire.bytes_sent;
        send_disk_worklist(
            ep,
            disk,
            &mut st.disk_worklist,
            &mut st.session_disk_shipped,
            &mut st.ctx,
            cfg,
            "disk pre-copy",
            true,
        )?;
        let snap = st.iter_bm.snapshot_and_clear();
        let dirty = snap.count_ones();
        st.fold.emit(
            &cfg.telemetry,
            Event::Iteration {
                side: Side::Source,
                resource: Resource::Disk,
                index: u64::from(iter),
                units_sent: count,
                bytes: st.ctx.wire.bytes_sent - sent_before,
                dirty_at_end: dirty as u64,
            },
        );
        if precopy_stops(iter, cfg.max_iterations, count, dirty, cfg.dirty_threshold) {
            // The residual set is NOT sent: it becomes the freeze-phase
            // bitmap (the paper ships the bitmap, not the blocks).
            st.frozen_bitmap = snap;
            st.converged_at_tick = Some(ctl.ticks());
            st.phase = SrcPhase::MemPrecopy;
            for event in Event::phase_change(Side::Source, Phase::DiskPrecopy, Phase::MemPrecopy) {
                st.fold.emit(&cfg.telemetry, event);
            }
            return Ok(());
        }
        st.disk_worklist = snap.to_indices();
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
        &mut st.disk_resend,
        &mut st.session_disk_shipped,
        &mut st.ctx,
        cfg,
        "memory pre-copy",
        true,
    )?;
    if !st.mem_started {
        ram.enable_tracking();
        st.mem_worklist = (0..cfg.mem_pages).collect();
        st.mem_started = true;
    }
    // Memory pre-copy (disk writes keep accumulating in iter_bm for the
    // freeze bitmap): iteration 1 ships every page, later iterations ship
    // the pages dirtied meanwhile, Xen-style.
    loop {
        let iter = st.fold.iterations(Resource::Memory).len() as u32 + 1;
        let count = st.mem_worklist.len() as u64;
        let sent_before = st.ctx.wire.page_bytes_sent;
        send_page_worklist(
            ep,
            ram,
            &mut st.mem_worklist,
            &mut st.session_mem_shipped,
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
        let dirty = ram.drain_dirty();
        let remaining = dirty.count_ones();
        st.fold.emit(
            &cfg.telemetry,
            Event::Iteration {
                side: Side::Source,
                resource: Resource::Memory,
                index: u64::from(iter),
                units_sent: count,
                bytes: st.ctx.wire.page_bytes_sent - sent_before,
                dirty_at_end: remaining as u64,
            },
        );
        if precopy_stops(
            iter,
            cfg.max_mem_iterations,
            count,
            remaining,
            cfg.mem_dirty_threshold,
        ) {
            // The set drained at the convergence decision has NOT been
            // sent; it must ride into the freeze tail or those pages are
            // silently lost.
            st.tail_worklist = merged_worklist(cfg.mem_pages, dirty.to_indices(), &[]);
            st.phase = SrcPhase::Frozen;
            return Ok(());
        }
        st.mem_worklist = dirty.to_indices();
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
        // Stamped at the instant the guest stopped: the freeze span, and
        // so the reported downtime, opens there.
        let side = Side::Source;
        let [end, start] = Event::phase_change(side, Phase::MemPrecopy, Phase::Freeze);
        for event in [end, start, Event::Suspended { side }] {
            st.fold.at_instant(&cfg.telemetry, suspended_at, event);
        }
        // Fold in the writes that raced with the last drains.
        let mut frozen = std::mem::take(&mut st.frozen_bitmap);
        frozen.union_with(&st.iter_bm.snapshot_and_clear());
        if let Some(h) = st.tracker.take() {
            disk.detach_tracker(h);
        }
        st.frozen_dirty = frozen.count_ones() as u64;
        st.frozen_bitmap = frozen;
        let tail_extra = ram.drain_dirty();
        st.tail_worklist =
            merged_worklist(cfg.mem_pages, tail_extra.to_indices(), &st.tail_worklist);
        st.frozen_mem_dirty = st.tail_worklist.len() as u64;
        ram.disable_tracking();
    }
    // Pre-copy disk content still owed from a failed session.
    send_disk_worklist(
        ep,
        disk,
        &mut st.disk_resend,
        &mut st.session_disk_shipped,
        &mut st.ctx,
        cfg,
        "freeze",
        false,
    )?;
    if !st.dest_suspended {
        send_or(ep, "freeze", MigMessage::Suspended)?;
        st.dest_suspended = true;
    }
    // Ship the memory tail, the CPU context and the disk bitmap (not the
    // blocks).
    send_page_worklist(
        ep,
        ram,
        &mut st.tail_worklist,
        &mut st.session_mem_shipped,
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
        // Only a session that fingerprints has an index to leave them in:
        // asking for it here would build it while the guest is down.
        let seen = st.ctx.dedup.then(|| disk.content_index().invalidations());
        let fingerprints: Vec<u64> = read_batch(disk, &frozen, cfg.block_size)
            .chunks_exact(cfg.block_size)
            .map(hash_block)
            .collect();
        if let Some(seen) = seen {
            disk.record_fingerprints(&frozen, &fingerprints, seen);
        }
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
    st.src_bm = st.frozen_bitmap.clone();
    st.phase = SrcPhase::PostCopy;
    Ok(())
}

/// Ship one block of the frozen bitmap, pushed or pulled, as the disk
/// holds it now, and take it off the push set.
fn send_post_copy_block<T: Transport>(
    cfg: &LiveConfig,
    disk: &TrackedDisk,
    ep: &T,
    st: &mut SourceState,
    b: usize,
    pulled: bool,
) -> Result<(), SessionError> {
    st.src_bm.clear(b);
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
    // request is answered before the next push. Each session pushes from
    // the start of what is left; the cursor only passes bits it cleared
    // and pulls only clear, so once nothing is set from the cursor on,
    // nothing is set at all.
    let (mut cursor, mut push_complete_sent) = (0, false);
    let mut last_progress = Instant::now();
    loop {
        let msg = match ep.try_recv() {
            Err(TransportError::Empty) => match st.src_bm.next_set_from(cursor) {
                Some(b) => {
                    cursor = b + 1;
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
