//! The destination half of the protocol (the paper's `xc_linux_restore`
//! with the destination `blkd`): provision the VBD, apply pre-copy and
//! freeze payloads, resume the guest, then the post-copy receive
//! algorithm — reads of a still-dirty block wait on a pull, writes cancel
//! its synchronization, late pushes are dropped. All progress lives in
//! [`DestState`], outside any connection; if the source dies for good
//! during post-copy, [`dest_failover`] completes the image from peer
//! holders.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use block_bitmap::{ser, AtomicBitmap, DirtyMap, FlatBitmap};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use simnet::proto::{MigMessage, ResumePhase, TransferLedger};
use simnet::transport::{duplex, Transport, TransportError};
use telemetry::{Event, Phase, Recorder, Side};

use blockstore::{fetch_blocks, serve_blocks, BlockSource, BlockWant};
use vdisk::{hash_block, TrackedDisk};
use vmstate::LiveRam;

use crate::live::engine::{
    classify, decode_bitmap, protocol_err, recv_or, run_sessions, send_or, SessionError,
    SessionsEnd, GUEST,
};
use crate::live::plane::{checked_block, dest_apply_data};
use crate::live::{Connector, DestIo, DriverCtl, GuestIo, LiveConfig, MigrationError, SideWork};
use crate::report::PeerBytes;

/// Serves a [`LivePeer`](crate::live::LivePeer)'s disk over a blockstore
/// session: a block is shipped only when its current content hashes to
/// the requested fingerprint, anything else answers a miss.
struct PeerDiskSource {
    disk: Arc<TrackedDisk>,
}

impl BlockSource for PeerDiskSource {
    fn fetch(&self, block: u64, fingerprint: u64, _generation: u64) -> Option<Bytes> {
        let b = block as usize;
        if b >= self.disk.disk().num_blocks() {
            return None;
        }
        let data = self.disk.disk().read_block(b);
        (hash_block(&data) == fingerprint).then(|| Bytes::from(data))
    }
}

/// All destination-side progress, held outside any connection.
#[derive(Default)]
pub(super) struct DestState {
    phase: ResumePhase,
    session_seen: Option<u64>,
    pub(super) session_got_blocks: FlatBitmap,
    pub(super) session_got_pages: FlatBitmap,
    /// This session's dedup agreement (re-derived at every handshake).
    /// While it holds, every block applied is fingerprinted into the
    /// disk's content index ([`TrackedDisk::content_index`]), which stays
    /// exact across sessions; otherwise what is applied is invalidated.
    pub(super) dedup: bool,
    /// Blocks whose *latest* delivery attempt was a reference that could
    /// not be resolved; folded into the still-needed bitmap at freeze so
    /// post-copy recovers them even if the bounce answer raced the
    /// phase change.
    pub(super) ref_missing: FlatBitmap,
    /// Freeze-time fingerprint manifest (block → `hash_block`), the
    /// verification anchors for a peer-holder failover. Populated by
    /// [`MigMessage::BlockManifest`] on multi-source runs.
    manifest: BTreeMap<usize, u64>,
    /// Source-death failovers performed (0 or 1).
    pub(super) failovers: u32,
    /// Per-peer blocks and bytes applied during failover.
    pub(super) failover_peers: Vec<PeerBytes>,
    transferred: Option<Arc<AtomicBitmap>>,
    /// Still recording once the guest resumed here: it runs on until the
    /// driver is stopped.
    pub(super) new_bm: Option<Arc<AtomicBitmap>>,
    pub(super) dest_io: Option<Arc<DestIo>>,
    /// Guest reads parked on a still-owed block, from `dest_io`.
    pull_rx: Option<Receiver<usize>>,
    requested: HashSet<usize>,
    pub(super) pushed: u64,
    pub(super) pulled: u64,
    pub(super) dropped: u64,
    complete_sent: bool,
    pub(super) resumed_at: Option<Instant>,
    pub(super) ledger: TransferLedger,
    pub(super) work: SideWork,
}

impl DestState {
    pub(super) fn new(cfg: &LiveConfig) -> Self {
        Self {
            session_got_blocks: FlatBitmap::new(cfg.num_blocks),
            session_got_pages: FlatBitmap::new(cfg.mem_pages),
            ref_missing: FlatBitmap::new(cfg.num_blocks),
            ..Self::default()
        }
    }
}

/// Source-death failover: complete post-copy from surviving peer
/// holders. Eligible only when the run is multi-source, peers exist,
/// and the guest already runs here (post-copy) — otherwise, or if some
/// owed block survives nowhere, the original `dead` error is returned.
///
/// Every still-owed block is fetched over a per-peer blockstore
/// session and verified against the freeze-time manifest fingerprint
/// before it is applied; blocks superseded by local guest writes in
/// the meantime are dropped exactly like late source pushes. Holders
/// are tried in declaration order, each seeing only what its
/// predecessors missed.
fn dest_failover(
    cfg: &LiveConfig,
    st: &mut DestState,
    dead: MigrationError,
) -> Result<(), MigrationError> {
    let eligible = cfg.multisource
        && !cfg.peers.is_empty()
        && st.phase == ResumePhase::PostCopy
        && st.resumed_at.is_some();
    let (Some(transferred), Some(dest_io)) = (
        st.transferred.clone().filter(|_| eligible),
        st.dest_io.clone(),
    ) else {
        return Err(dead);
    };
    let owed = transferred.snapshot();
    cfg.telemetry.record(|| Event::SourceFailover {
        side: Side::Destination,
        owed_blocks: owed.count_ones() as u64,
        peers: cfg.peers.len() as u64,
    });
    st.failovers += 1;
    // Owed blocks absent from the manifest have no verification anchor
    // and cannot be fetched (only unresolved dedup bounces can end up
    // here); they stay owed and fail the run below.
    let mut wants: Vec<BlockWant> = owed
        .iter_set()
        .filter_map(|b| {
            st.manifest.get(&b).map(|&fp| BlockWant {
                block: b as u64,
                fingerprint: fp,
                generation: 0,
            })
        })
        .collect();
    for peer in &cfg.peers {
        if wants.is_empty() {
            break;
        }
        let (mine, theirs) = duplex();
        let serve_disk = Arc::clone(&peer.disk);
        let server = std::thread::spawn(move || {
            let holder = PeerDiskSource { disk: serve_disk };
            serve_blocks(&theirs, &holder)
        });
        let mut applied = 0u64;
        let outcome = fetch_blocks(&mine, &wants, cfg.num_blocks, &mut |b, payload| {
            // Verified content: applied (waking any guest read parked on
            // the block) if the block is still owed; if a local write
            // superseded it while the fetch was in flight, dropped like a
            // late source push.
            match payload {
                Some(data) if dest_io.apply_arrival(b as usize, data) => applied += 1,
                Some(_) => st.dropped += 1,
                None => {}
            }
        });
        st.ledger.merge(&mine.sent_ledger());
        drop(mine);
        // The serve side's byte count is advisory (it includes payloads
        // a local write later superseded), and a peer link that died
        // mid-session — or a panicked serve thread — leaves whatever it
        // failed to serve set in `transferred`, rolling to the next
        // holder. Either way the join result carries nothing actionable.
        let _joined: Result<_, _> = server.join();
        if applied > 0 {
            let (host, bytes) = (peer.host, applied * cfg.block_size as u64);
            cfg.telemetry.record(|| Event::PeerFetch {
                side: Side::Destination,
                peer: host,
                blocks: applied,
                bytes,
            });
            st.failover_peers.push(PeerBytes {
                host,
                blocks: applied,
                bytes,
            });
        }
        // Blocks this holder missed (or that died with a failed link)
        // are still set in `transferred` and stay in the next holder's
        // want list.
        debug_assert!(outcome.got.count_ones() as u64 >= applied);
        wants.retain(|w| transferred.get(w.block as usize));
    }
    if transferred.count_ones() == 0 {
        // The image is complete on local evidence; there is no source
        // left to exchange MigrationComplete/CompleteAck with.
        st.complete_sent = true;
        Ok(())
    } else {
        Err(dead)
    }
}

/// Drive the destination protocol to completion: sessions until one
/// completes, then — if the source will never come back — whatever the
/// data already here and the peer holders can still make of it.
pub(super) fn dest_protocol<C: Connector>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    mut connector: C,
    ctl: &DriverCtl,
) -> Result<DestState, MigrationError> {
    let mut st = DestState::new(cfg);
    let sessions = run_sessions(cfg, Side::Destination, &mut connector, |ep, _| {
        match run_dest_session(cfg, disk, ram, ep, ctl, &mut st) {
            // Full sync was announced: a link that dies now lost at most
            // the ack, and the data here is complete.
            Err(SessionError::Reconnect(_)) if st.complete_sent => Ok(()),
            other => other,
        }
    });
    st.ledger = sessions.ledger;
    let result = match sessions.end {
        Ok(()) => Ok(()),
        Err(SessionsEnd::Fatal(e)) => Err(e),
        // The source will never reconnect. If we already announced full
        // sync, the lost message was only the ack: the migration
        // succeeded.
        Err(SessionsEnd::Unreachable(_)) if st.complete_sent => Ok(()),
        // The source is dead for good, or gave up before our own budget
        // ran out. If the guest already runs here, the still-owed blocks
        // may survive on peer holders.
        Err(SessionsEnd::Unreachable(e)) => dest_failover(cfg, &mut st, e),
    };
    connector.abort();
    match result {
        Ok(()) => {
            cfg.telemetry.record(|| Event::PhaseEnd {
                side: Side::Destination,
                phase: Phase::PostCopy,
            });
            Ok(st)
        }
        Err(e) => {
            // Unpark any guest reads stalled on pulls that will never be
            // answered, so the driver can be stopped and diagnosed.
            if let Some(io) = &st.dest_io {
                io.poison();
            }
            Err(e)
        }
    }
}

fn run_dest_session<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    ctl: &DriverCtl,
    st: &mut DestState,
) -> Result<(), SessionError> {
    let hello = recv_or(ep, "handshake", cfg.retry.phase_timeout)?;
    let MigMessage::SessionHello {
        session_id,
        dedup: offer_dedup,
        compress: offer_compress,
        incremental,
        ..
    } = hello
    else {
        return Err(protocol_err(
            "handshake",
            format!("expected SessionHello, got {hello:?}"),
        ));
    };
    // References are only valid before the guest resumes here (local
    // writes would invalidate the content index), so a post-copy resume
    // declines dedup outright. Compression needs no index and stays
    // available (post-copy pushes are uncompressed anyway).
    st.dedup = cfg.dedup && offer_dedup && st.phase != ResumePhase::PostCopy;
    let seen = *st.session_seen.get_or_insert(session_id);
    if seen != session_id {
        return Err(protocol_err(
            "handshake",
            format!("session {session_id:#x} reconnected into session {seen:#x}"),
        ));
    }
    // Report what the last session actually delivered (during pre-copy
    // and freeze) or what is still needed (during post-copy), then reset
    // the per-session receipt ledgers for this connection.
    let (disk_bm, mem_bm) = match st.phase {
        ResumePhase::AwaitPrepare => (Bytes::new(), Bytes::new()),
        ResumePhase::Precopy | ResumePhase::Frozen => (
            Bytes::from(ser::encode(&st.session_got_blocks)),
            Bytes::from(ser::encode(&st.session_got_pages)),
        ),
        ResumePhase::PostCopy => {
            let Some(transferred) = st.transferred.as_ref() else {
                return Err(protocol_err(
                    "handshake",
                    "post-copy resume state lost its transfer bitmap".into(),
                ));
            };
            (
                Bytes::from(ser::encode(&transferred.snapshot())),
                Bytes::from(ser::encode(&FlatBitmap::new(0))),
            )
        }
    };
    send_or(
        ep,
        "handshake",
        MigMessage::ResumeFrom {
            phase: st.phase,
            dedup: st.dedup,
            compress: cfg.compress && offer_compress,
            disk_bitmap: disk_bm,
            mem_bitmap: mem_bm,
        },
    )?;
    st.session_got_blocks.clear_all();
    st.session_got_pages.clear_all();
    if st.dedup {
        // Open the dedup session with a summary of resident content, so
        // a resumed source re-validates every assumption instead of
        // trusting the previous session's view.
        let fingerprints = summarise_resident(disk, incremental, st, &cfg.telemetry);
        send_or(ep, "handshake", MigMessage::ContentSummary { fingerprints })?;
    }

    if st.phase == ResumePhase::AwaitPrepare {
        // Provision the VBD.
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "a destination that waits for PrepareVbd refuses every other frame"
        )]
        match recv_or(ep, "prepare", cfg.retry.phase_timeout)? {
            MigMessage::PrepareVbd {
                block_size,
                num_blocks,
            } => {
                if block_size as usize != cfg.block_size || num_blocks as usize != cfg.num_blocks {
                    return Err(protocol_err(
                        "prepare",
                        format!("geometry mismatch: {block_size} B × {num_blocks} blocks"),
                    ));
                }
            }
            other => {
                return Err(protocol_err(
                    "prepare",
                    format!("expected PrepareVbd, got {other:?}"),
                ))
            }
        }
        send_or(ep, "prepare", MigMessage::PrepareAck)?;
        st.phase = ResumePhase::Precopy;
    }

    if st.phase == ResumePhase::Precopy {
        dest_precopy(cfg, disk, ram, ep, st)?;
    }
    if st.phase == ResumePhase::Frozen {
        dest_freeze(cfg, disk, ram, ep, st)?;
    }
    dest_post_copy(cfg, disk, ram, ep, ctl, st)
}

/// The fingerprints a dedup session opens with, out of the disk's
/// content index. A primary session's first handshake fills the index by
/// hashing the resident image — the one place a handshake reads the
/// disk. An incremental session hashes nothing: its block-bitmap says a
/// previous hop left this image here, and whatever fingerprints that hop
/// did not leave are done without (DESIGN.md §15a has the arithmetic).
/// Nor does a reconnect, which finds the index as exact as the last
/// session's applies kept it.
fn summarise_resident(
    disk: &TrackedDisk,
    incremental: bool,
    st: &mut DestState,
    telemetry: &Recorder,
) -> Vec<u64> {
    let mut index = disk.content_index();
    let known = index.known_blocks();
    let (hashed, cached) = if !incremental && known < index.num_blocks() {
        // `hash_all` answers a never-written block with the zero block's
        // fingerprint without reading it; every other entry was hashed.
        let zero = hash_block(&vec![0u8; disk.disk().block_size()]);
        let mut hashed = 0;
        for (block, fp) in disk.disk().hash_all().into_iter().enumerate() {
            index.record(block, fp);
            hashed += u64::from(fp != zero);
        }
        (hashed, 0)
    } else {
        (0, known as u64)
    };
    let fingerprints = index.fingerprints();
    drop(index);
    st.work.blocks_read += hashed;
    st.work.blocks_hashed += hashed;
    telemetry.record(|| Event::HandshakeSummary {
        side: Side::Destination,
        fingerprints: fingerprints.len() as u64,
        hashed_blocks: hashed,
        cached_blocks: cached,
    });
    fingerprints
}

fn dest_precopy<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    st: &mut DestState,
) -> Result<(), SessionError> {
    // Apply incoming block and page batches until the source suspends.
    loop {
        let msg = recv_or(ep, "pre-copy", cfg.retry.phase_timeout)?;
        match dest_apply_data(st, disk, ram, ep, msg, "pre-copy")? {
            None => {}
            // Everything before the barrier is applied by now, and any
            // bounce it provoked is already queued ahead of this echo.
            Some(MigMessage::Barrier) => send_or(ep, "pre-copy", MigMessage::BarrierAck)?,
            Some(MigMessage::Suspended) => {
                st.phase = ResumePhase::Frozen;
                return Ok(());
            }
            Some(other) => {
                return Err(protocol_err(
                    "pre-copy",
                    format!("unexpected message at destination: {other:?}"),
                ))
            }
        }
    }
}

fn dest_freeze<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    st: &mut DestState,
) -> Result<(), SessionError> {
    // Freeze payloads: the memory tail, the CPU context, the block-bitmap.
    // Re-sent pre-copy blocks (lost by a failed session) and a duplicate
    // `Suspended` marker are accepted too — frozen content is stable, so
    // applying any of it twice is harmless.
    let transferred_flat = loop {
        let msg = recv_or(ep, "freeze", cfg.retry.phase_timeout)?;
        match dest_apply_data(st, disk, ram, ep, msg, "freeze")? {
            None | Some(MigMessage::CpuState { .. } | MigMessage::Suspended) => {}
            Some(MigMessage::BlockManifest {
                blocks,
                fingerprints,
            }) => {
                for (&b, &fp) in blocks.iter().zip(fingerprints.iter()) {
                    st.manifest.insert(b as usize, fp);
                }
            }
            Some(MigMessage::Bitmap { encoded }) => {
                let mut still_needed = decode_bitmap("freeze", &encoded, cfg.num_blocks)?;
                // References bounced but not yet re-answered join the
                // still-needed set: their `BlockRefMiss` is answered
                // from post-copy as a pulled block.
                still_needed.union_with(&st.ref_missing);
                break still_needed;
            }
            Some(other) => {
                return Err(protocol_err(
                    "freeze",
                    format!("unexpected freeze message: {other:?}"),
                ))
            }
        }
    };
    // Stand up the destination interception path.
    let transferred = Arc::new(AtomicBitmap::new(cfg.num_blocks));
    transferred.load_from(&transferred_flat);
    let new_bm = Arc::new(AtomicBitmap::new(cfg.num_blocks));
    disk.attach_tracker(Arc::clone(&new_bm), Some(GUEST));
    disk.enable_tracking();
    let (pull_tx, pull_rx) = unbounded();
    st.dest_io = Some(Arc::new(DestIo::new(
        Arc::clone(disk),
        GUEST,
        Arc::clone(&transferred),
        pull_tx,
        Arc::clone(&cfg.telemetry),
    )));
    st.pull_rx = Some(pull_rx);
    st.transferred = Some(transferred);
    st.new_bm = Some(new_bm);
    st.phase = ResumePhase::PostCopy;
    Ok(())
}

fn dest_post_copy<T: Transport>(
    cfg: &LiveConfig,
    disk: &Arc<TrackedDisk>,
    ram: &Arc<LiveRam>,
    ep: &T,
    ctl: &DriverCtl,
    st: &mut DestState,
) -> Result<(), SessionError> {
    // Freeze-and-copy builds these before entering post-copy; a gap is a
    // protocol bug surfaced as an error, not a panic.
    let (Some(transferred), Some(io), Some(pull_rx)) = (
        st.transferred.clone(),
        st.dest_io.clone(),
        st.pull_rx.clone(),
    ) else {
        return Err(protocol_err(
            "post-copy",
            "post-copy entered without the freeze-phase bitmap and io path".into(),
        ));
    };
    // First entry: resume the guest on the destination path. Reconnects
    // find it already running.
    if st.resumed_at.is_none() {
        let guest_io = Arc::clone(&io) as Arc<dyn GuestIo>;
        let resumed_at = ctl.resume_on(guest_io, Arc::clone(ram));
        st.resumed_at = Some(resumed_at);
        // Stamped at the resume instant: with the source's suspend stamp
        // this bounds the freeze span to exactly the reported downtime.
        cfg.telemetry
            .record_at_instant(resumed_at, || Event::PhaseEnd {
                side: Side::Destination,
                phase: Phase::Freeze,
            });
        cfg.telemetry
            .record_at_instant(resumed_at, || Event::Resumed {
                side: Side::Destination,
            });
        cfg.telemetry
            .record_at_instant(resumed_at, || Event::PhaseStart {
                side: Side::Destination,
                phase: Phase::PostCopy,
            });
    }
    send_or(ep, "post-copy", MigMessage::Resumed)?;
    // Pull requests forwarded on a dead session got no answer: re-issue
    // every outstanding one so parked readers make progress.
    for &b in st.requested.iter().filter(|&&b| transferred.get(b)) {
        send_or(ep, "post-copy", MigMessage::PullRequest { block: b as u64 })?;
    }
    // The source re-announces push completion every session.
    let mut push_done = false;

    let mut last_progress = Instant::now();
    loop {
        // Forward guest pull requests.
        while let Ok(b) = pull_rx.try_recv() {
            // A block may be requested by several stalled reads or have
            // been cleared since; only forward live, novel requests.
            if transferred.get(b) && st.requested.insert(b) {
                cfg.telemetry
                    .record(|| Event::PullRequested { block: b as u64 });
                send_or(ep, "post-copy", MigMessage::PullRequest { block: b as u64 })?;
            }
        }
        // Process arrivals.
        match ep.recv_timeout(Duration::from_millis(2)) {
            Ok(MigMessage::PostCopyBlock {
                block,
                pulled: was_pulled,
                payload,
                ..
            }) => {
                last_progress = Instant::now();
                let b = checked_block(disk, block)?;
                let Some(payload) = payload.filter(|p| p.len() == cfg.block_size) else {
                    return Err(protocol_err(
                        "post-copy",
                        format!("block {block} arrived without one block of bytes"),
                    ));
                };
                // Applied only while the block is still owed, atomically
                // with respect to the guest's own writes.
                if io.apply_arrival(b, &payload) {
                    if was_pulled {
                        st.pulled += 1;
                        cfg.telemetry.record(|| Event::BlockPulled { block });
                    } else {
                        st.pushed += 1;
                        cfg.telemetry.record(|| Event::BlockPushed { block });
                    }
                } else {
                    // Superseded by a local write: drop (paper lines 2-3
                    // of the receive algorithm).
                    st.dropped += 1;
                    cfg.telemetry.record(|| Event::BlockDropped { block });
                }
            }
            Ok(MigMessage::PushComplete) => {
                last_progress = Instant::now();
                push_done = true;
            }
            Ok(other) => {
                return Err(protocol_err(
                    "post-copy",
                    format!("unexpected message at destination: {other:?}"),
                ))
            }
            Err(TransportError::Timeout) => {
                if last_progress.elapsed() > cfg.retry.phase_timeout {
                    return Err(SessionError::Fatal(MigrationError::Timeout {
                        phase: "post-copy",
                        waited: cfg.retry.phase_timeout,
                    }));
                }
            }
            Err(TransportError::Empty) => {}
            Err(e) => return Err(classify("post-copy", e)),
        }
        if push_done && transferred.count_ones() == 0 {
            send_or(ep, "completion", MigMessage::MigrationComplete)?;
            st.complete_sent = true;
            // Wait for the source's ack so a lost completion message
            // cannot strand it in post-copy.
            let deadline = Instant::now() + cfg.retry.phase_timeout;
            loop {
                match ep.recv_timeout(Duration::from_millis(20)) {
                    Ok(MigMessage::CompleteAck) => return Ok(()),
                    // Late pushes raced with completion: superseded.
                    Ok(MigMessage::PostCopyBlock { block, .. }) => {
                        st.dropped += 1;
                        cfg.telemetry.record(|| Event::BlockDropped { block });
                    }
                    Ok(MigMessage::PushComplete) => {}
                    Ok(other) => {
                        return Err(protocol_err(
                            "completion",
                            format!("expected CompleteAck, got {other:?}"),
                        ))
                    }
                    Err(TransportError::Timeout) => {
                        if Instant::now() > deadline {
                            return Err(SessionError::Fatal(MigrationError::Timeout {
                                phase: "completion",
                                waited: cfg.retry.phase_timeout,
                            }));
                        }
                    }
                    Err(e) => return Err(classify("completion", e)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::RetryPolicy;
    use crate::live::{fresh_disks, run_live, LiveConfig, LivePeer, LiveRun};
    use simnet::fault::FaultPlan;
    use std::sync::Arc;
    use std::time::Duration;
    use telemetry::{Event, Recorder, Side};
    use vdisk::{stamp_bytes, TrackedDisk, VirtualDisk};

    #[test]
    fn source_death_fails_over_to_peer_holders() {
        use simnet::proto::Category;

        let mut cfg = LiveConfig {
            num_blocks: 16_384,
            // Guarantee the guest dirties blocks between pre-copy
            // convergence and suspend: post-copy must have real traffic
            // left when the source dies.
            min_guest_ticks: 25,
            // The freeze-time manifest covers the frozen bitmap only;
            // unresolved dedup reference bounces would have no
            // verification anchor, so this scenario runs without dedup.
            dedup: false,
            multisource: true,
            telemetry: Recorder::enabled(),
            retry: RetryPolicy {
                max_reconnects: 2,
                backoff: Duration::from_millis(10),
                phase_timeout: Duration::from_secs(5),
                outage_budget: None,
            },
            ..LiveConfig::test_default()
        };
        let (src, dst) = fresh_disks(&cfg);
        // A stale holder: the start-of-migration image. Every frozen
        // block was dirtied after start (stamp ≥ 1 vs stamp 0), so each
        // fingerprint probe must miss and roll to the next holder.
        let stale = Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::dense(
            cfg.block_size,
            cfg.num_blocks,
        ))));
        for b in 0..cfg.num_blocks {
            stale
                .disk()
                .write_block(b, &stamp_bytes(b, 0, cfg.block_size));
        }
        // A synchronous replica (shared-storage model): the same backing
        // disk the suspended source holds, so it serves every frozen
        // block with a matching fingerprint.
        cfg.peers = vec![
            LivePeer {
                host: 7,
                disk: stale,
            },
            LivePeer {
                host: 8,
                disk: Arc::clone(&src),
            },
        ];
        // Kill every attempt on its second post-copy push: the reconnect
        // budget exhausts with blocks still owed while the guest already
        // runs on the destination — the failover precondition.
        let mut plan = FaultPlan::none();
        for attempt in 0..=cfg.retry.max_reconnects + 1 {
            plan = plan.reset_after_category(attempt, Category::DiskPush, 2);
        }
        let run = LiveRun {
            disks: Some((src, dst)),
            faults: plan,
            ..LiveRun::default()
        };
        let out =
            run_live(&cfg, run).expect("failover must complete the migration without a source");
        assert_eq!(out.failovers, 1, "exactly one source-death failover");
        assert_eq!(out.read_violations, 0, "guest observed stale data");
        assert!(
            out.inconsistent_blocks().is_empty(),
            "destination image must be block-exact after failover"
        );
        assert!(out.inconsistent_pages().is_empty());
        // Every failover block came from the replica; the stale holder
        // missed every probe (its content predates the freeze).
        assert!(!out.peer_bytes.is_empty(), "failover must fetch blocks");
        for pb in &out.peer_bytes {
            assert_eq!(pb.host, 8, "stale holder cannot serve frozen content");
            assert_eq!(pb.bytes, pb.blocks * cfg.block_size as u64);
        }
        // The journal records the failover decision and the peer fetch.
        let records = cfg.telemetry.records();
        let failovers = records
            .iter()
            .filter(|r| matches!(r.event, Event::SourceFailover { .. }))
            .count();
        assert_eq!(failovers, 1, "one SourceFailover event");
        assert!(
            records.iter().any(|r| matches!(
                r.event,
                Event::PeerFetch {
                    side: Side::Destination,
                    peer: 8,
                    ..
                }
            )),
            "the replica's contribution must be journaled"
        );
    }
}
