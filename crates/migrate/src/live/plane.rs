//! The data plane both protocol threads share. On the source a worklist
//! of blocks or pages becomes batches on the wire — raw, one LZ stream,
//! or content references — with flow control at iteration boundaries; on
//! the destination each such message is validated as a whole and applied.

use std::collections::HashSet;
use std::mem::take;
use std::time::Duration;

use block_bitmap::{DirtyMap, FlatBitmap};
use bytes::Bytes;
use simnet::codec::decompress_blocks;
use simnet::proto::{MigMessage, WireStats, BLOCK_REF_WIRE, FRAME_OVERHEAD};
use simnet::transport::{Transport, TransportError, SEND_WINDOW};
use telemetry::{Recorder, Resource};
use vdisk::{hash_block, FingerprintSet, TrackedDisk};
use vmstate::LiveRam;

use crate::live::dest::DestState;
use crate::live::engine::{
    classify, protocol_err, recv_or, send_or, LiveConfig, SessionError, SideWork,
};
use crate::live::lz_rule::LzRule;

/// The current content of `blocks`, concatenated in order, read once
/// into one buffer under one acquisition of the disk lock.
pub(super) fn read_batch(disk: &TrackedDisk, blocks: &[usize], block_size: usize) -> Vec<u8> {
    let mut payload = Vec::with_capacity(blocks.len() * block_size);
    disk.disk().read_blocks_append(blocks, &mut payload);
    payload
}

/// Reorder a disk worklist for K parallel logical streams: the block
/// range splits into K contiguous word-aligned shards
/// ([`FlatBitmap::shard_bounds`]), and batches are drawn round-robin
/// across them — the send order K independent transport streams would
/// produce. Per-stream scheduled-block counts land in the
/// `live.stream.{i}.blocks_scheduled` counters.
fn interleave_streams(
    worklist: &[usize],
    num_blocks: usize,
    streams: usize,
    batch: usize,
    telemetry: &Recorder,
) -> Vec<usize> {
    let bounds = FlatBitmap::shard_bounds(num_blocks, streams);
    // No sortedness assumption: a reconnect hands back an already
    // interleaved remainder, so each block finds its shard by range.
    let mut per: Vec<Vec<usize>> = vec![Vec::new(); bounds.len()];
    for &b in worklist {
        let s = bounds.partition_point(|r| r.end <= b);
        per[s.min(bounds.len() - 1)].push(b);
    }
    if telemetry.is_enabled() {
        let m = telemetry.metrics();
        for (i, shard) in per.iter().enumerate() {
            m.counter(&format!("live.stream.{i}.blocks_scheduled"))
                .add(shard.len() as u64);
        }
    }
    let mut out = Vec::with_capacity(worklist.len());
    let mut idx = vec![0usize; per.len()];
    while out.len() < worklist.len() {
        for (s, shard) in per.iter().enumerate() {
            let i = idx[s];
            if i < shard.len() {
                let end = (i + batch).min(shard.len());
                out.extend_from_slice(&shard[i..end]);
                idx[s] = end;
            }
        }
    }
    out
}

/// Per-session wire-optimization state on the source side: the
/// negotiated dedup/compress agreement, the source's view of which
/// fingerprints the destination can resolve (seeded from
/// [`MigMessage::ContentSummary`], grown by every full block this
/// session stages — each flush sends its full blocks ahead of its
/// references, and in-order transports guarantee the destination indexed
/// those before any reference to them arrives), blocks the
/// destination bounced with [`MigMessage::BlockRefMiss`] (always re-sent
/// in full, never re-referenced), the run-wide savings and work ledgers,
/// and the rule that says when the negotiated compression is worth using.
#[derive(Default)]
pub(super) struct DedupCtx {
    pub(super) dedup: bool,
    compress: bool,
    pub(super) known_remote: FingerprintSet,
    force_full: HashSet<usize>,
    pub(super) wire: WireStats,
    pub(super) work: SideWork,
    lz: LzRule,
}

impl DedupCtx {
    /// Re-arm for a fresh session: the negotiated flags are this
    /// session's, and the previous session's view of remote content is
    /// discarded — a resumed session re-validates against a fresh
    /// [`MigMessage::ContentSummary`], it never trusts stale knowledge.
    /// The savings and work ledgers and what LZ was measured to cost span
    /// the whole run and survive.
    pub(super) fn reset(&mut self, dedup: bool, compress: bool) {
        self.dedup = dedup;
        self.compress = compress;
        self.known_remote = FingerprintSet::default();
        self.force_full.clear();
    }
}

/// Pull every queued [`MigMessage::BlockRefMiss`] off the transport.
/// During pre-copy and freeze the destination sends nothing else
/// unprompted, so any other message is a protocol violation.
fn drain_ref_misses<T: Transport>(
    ep: &T,
    misses: &mut Vec<usize>,
    phase: &'static str,
) -> Result<(), SessionError> {
    loop {
        match ep.try_recv() {
            Ok(MigMessage::BlockRefMiss { block }) => misses.push(block as usize),
            Ok(other) => {
                return Err(protocol_err(
                    phase,
                    format!("unexpected message at source: {other:?}"),
                ))
            }
            Err(TransportError::Empty) => return Ok(()),
            Err(e) => return Err(classify(phase, e)),
        }
    }
}

/// Send a [`MigMessage::Barrier`] and wait for its echo: on return the
/// destination has applied everything sent before the barrier, and every
/// [`MigMessage::BlockRefMiss`] that traffic provoked is in `misses`
/// (the link is ordered, so bounces precede the ack). The wait is how a
/// source that outruns its destination is held to the destination's
/// pace at iteration boundaries; a connection that dies meanwhile takes
/// the ordinary reconnect path.
pub(super) fn sync_barrier<T: Transport>(
    ep: &T,
    misses: &mut Vec<usize>,
    phase: &'static str,
    timeout: Duration,
) -> Result<(), SessionError> {
    send_or(ep, phase, MigMessage::Barrier)?;
    loop {
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "a source that waits for its barrier's ack refuses every frame but the ack and a bounce"
        )]
        match recv_or(ep, phase, timeout)? {
            MigMessage::BarrierAck => return Ok(()),
            MigMessage::BlockRefMiss { block } => misses.push(block as usize),
            other => {
                return Err(protocol_err(
                    phase,
                    format!("unexpected message at source: {other:?}"),
                ))
            }
        }
    }
}

/// Ship a batch of whole units — blocks and pages are framed alike, an
/// index list plus equal-sized units, raw or as one LZ stream —
/// compressed when the session negotiated it, the link pays for it
/// ([`LzRule`]) and the codec actually wins: the one place that is
/// decided, and booked in the savings ledger, for blocks and pages alike.
fn send_full_batch<T: Transport>(
    ep: &T,
    ctx: &mut DedupCtx,
    unit: Resource,
    ids: Vec<u64>,
    payload: Vec<u8>,
    unit_size: usize,
    phase: &'static str,
) -> Result<(), SessionError> {
    let (count, raw_len) = (ids.len() as u64, payload.len() as u64);
    let frames = ctx
        .compress
        .then(|| ctx.lz.encode(ep, unit, &payload, unit_size))
        .flatten();
    let compressed = frames.is_some();
    let body = Bytes::from(frames.unwrap_or(payload));
    let sent = body.len() as u64;
    let msg = match (unit, compressed) {
        (Resource::Disk, true) => MigMessage::CompressedBlocks {
            blocks: ids,
            raw_len,
            payload: body,
        },
        (Resource::Disk, false) => MigMessage::DiskBlocks {
            blocks: ids,
            payload_len: sent,
            payload: Some(body),
        },
        (Resource::Memory, true) => MigMessage::CompressedPages {
            pages: ids,
            raw_len,
            payload: body,
        },
        (Resource::Memory, false) => MigMessage::MemPages {
            pages: ids,
            payload_len: sent,
            payload: Some(body),
        },
    };
    send_or(ep, phase, msg)?;
    let wire = &mut ctx.wire;
    let (bytes_sent, units_compressed) = match unit {
        Resource::Disk => (&mut wire.bytes_sent, &mut wire.blocks_compressed),
        Resource::Memory => (&mut wire.page_bytes_sent, &mut wire.pages_compressed),
    };
    *bytes_sent += sent;
    if compressed {
        *units_compressed += count;
    }
    Ok(())
}

/// What one pass of a disk worklist has read but not yet sent: full
/// blocks (ids and bytes, in worklist order) and references. A session
/// that fingerprints stages chunk after chunk here and flushes
/// ([`DiskOutbox::flush`]) when `batch` full blocks are staged, when one
/// more reference would take the reference frame past [`SEND_WINDOW`],
/// and at the end of the pass — so on a link that pays, LZ runs on whole
/// `batch`-block streams and references cross a frame of many at a time.
/// A session that does not fingerprint flushes after every chunk: the
/// chunk as read, one frame.
#[derive(Default)]
struct DiskOutbox {
    batch: usize,
    block_size: usize,
    fulls: Vec<u64>,
    payload: Vec<u8>,
    refs: Vec<u64>,
    ref_fps: Vec<u64>,
    /// A fingerprinting session's chunk as read.
    read: Vec<u8>,
}

impl DiskOutbox {
    /// Read one chunk of the worklist — it starts at worklist offset `at`
    /// — and stage it, flushing as the bounds say. The chunk is read from
    /// the disk exactly once. On a fingerprinting session each block is
    /// hashed once, in that read: content the destination provably holds,
    /// or that a block staged or sent before it carries, is staged as a
    /// 16-byte reference instead of `block_size` bytes. After every flush
    /// `*done` is the length of the worklist prefix whose blocks have all
    /// been sent.
    #[allow(clippy::too_many_arguments)]
    fn stage<T: Transport>(
        &mut self,
        ep: &T,
        disk: &TrackedDisk,
        ctx: &mut DedupCtx,
        chunk: &[usize],
        at: usize,
        done: &mut usize,
        phase: &'static str,
    ) -> Result<(), SessionError> {
        let bs = self.block_size;
        ctx.wire.bytes_raw += (chunk.len() * bs) as u64;
        ctx.work.blocks_read += chunk.len() as u64;
        if !ctx.dedup {
            self.payload = read_batch(disk, chunk, bs);
            self.fulls.extend(chunk.iter().map(|&b| b as u64));
            self.flush(ep, ctx, phase)?;
            *done = at + chunk.len();
            return Ok(());
        }
        let mut data = take(&mut self.read);
        data.clear();
        disk.disk().read_blocks_append(chunk, &mut data);
        ctx.work.blocks_hashed += chunk.len() as u64;
        for (i, (&b, block)) in chunk.iter().zip(data.chunks_exact(bs)).enumerate() {
            let fp = hash_block(block);
            // One probe answers both "can it be referenced" and "it is
            // known from here on"; a bounced block is known already and
            // goes in full regardless.
            let known = !ctx.known_remote.insert(fp);
            if known && !ctx.force_full.contains(&b) {
                let frame = FRAME_OVERHEAD + BLOCK_REF_WIRE * (self.refs.len() as u64 + 1);
                if frame > SEND_WINDOW {
                    self.flush(ep, ctx, phase)?;
                    *done = at + i;
                }
                self.refs.push(b as u64);
                self.ref_fps.push(fp);
            } else {
                if self.fulls.is_empty() {
                    self.payload.reserve(self.batch * bs);
                }
                self.payload.extend_from_slice(block);
                self.fulls.push(b as u64);
                if self.fulls.len() == self.batch {
                    self.flush(ep, ctx, phase)?;
                    *done = at + i + 1;
                }
            }
        }
        self.read = data;
        Ok(())
    }

    /// Send everything staged: the full blocks as one frame — one LZ
    /// stream when [`send_full_batch`] says so — then the references as
    /// one [`MigMessage::BlockRefs`]. In that order a reference never
    /// crosses ahead of the full block whose content it names, so a
    /// duplicate staged in the same flush resolves at the destination
    /// without a bounce.
    fn flush<T: Transport>(
        &mut self,
        ep: &T,
        ctx: &mut DedupCtx,
        phase: &'static str,
    ) -> Result<(), SessionError> {
        if !self.fulls.is_empty() {
            let (fulls, payload) = (take(&mut self.fulls), take(&mut self.payload));
            send_full_batch(
                ep,
                ctx,
                Resource::Disk,
                fulls,
                payload,
                self.block_size,
                phase,
            )?;
        }
        if !self.refs.is_empty() {
            let n = self.refs.len() as u64;
            ctx.wire.bytes_sent += n * BLOCK_REF_WIRE;
            ctx.wire.blocks_deduped += n;
            let msg = MigMessage::BlockRefs {
                blocks: take(&mut self.refs),
                fingerprints: take(&mut self.ref_fps),
            };
            send_or(ep, phase, msg)?;
        }
        Ok(())
    }
}

/// Drain a disk worklist through a [`DiskOutbox`], marking each block in
/// the session-shipped set *before* its send is attempted (delivery of an
/// errored send is unknown — assume sent, let the destination's receipt
/// report settle it). On failure the worklist keeps every block from the
/// first one no successful flush carried.
///
/// With `cfg.streams > 1` the worklist is first re-interleaved so
/// consecutive batches rotate across the stream shards; because shipped
/// accounting is per-block and global, ordering never affects
/// correctness or resume.
///
/// `BlockRefMiss` bounces are drained between chunks and re-queued as
/// forced-full sends. A pass ends with a flush, then — with `barrier`
/// (the pre-copy phases) — a [`sync_barrier`]: when this returns the
/// destination has applied the whole worklist and no bounce is in flight.
/// The freeze-phase resend after a reconnect passes `false` — the guest
/// is down, a round trip is downtime — and a bounce still in flight then
/// is answered from post-copy instead.
#[allow(clippy::too_many_arguments)]
pub(super) fn send_disk_worklist<T: Transport>(
    ep: &T,
    disk: &TrackedDisk,
    worklist: &mut Vec<usize>,
    shipped: &mut FlatBitmap,
    ctx: &mut DedupCtx,
    cfg: &LiveConfig,
    phase: &'static str,
    barrier: bool,
) -> Result<(), SessionError> {
    let batch = cfg.batch.max(1);
    if cfg.streams > 1 && worklist.len() > batch {
        *worklist =
            interleave_streams(worklist, cfg.num_blocks, cfg.streams, batch, &cfg.telemetry);
    }
    let mut misses = Vec::new();
    let mut out = DiskOutbox {
        batch,
        block_size: cfg.block_size,
        ..DiskOutbox::default()
    };
    loop {
        let (mut at, mut done, mut res) = (0, 0, Ok(()));
        while res.is_ok() && at < worklist.len() {
            let chunk = &worklist[at..(at + batch).min(worklist.len())];
            for &b in chunk {
                shipped.set(b);
            }
            res = out.stage(ep, disk, ctx, chunk, at, &mut done, phase);
            at += chunk.len();
            if res.is_ok() && ctx.dedup {
                res = drain_ref_misses(ep, &mut misses, phase);
            }
        }
        if res.is_ok() {
            res = out.flush(ep, ctx, phase);
            if res.is_ok() {
                done = at;
            }
        }
        worklist.drain(..done);
        res?;
        if barrier {
            sync_barrier(ep, &mut misses, phase, cfg.retry.phase_timeout)?;
        } else if ctx.dedup {
            drain_ref_misses(ep, &mut misses, phase)?;
        }
        if misses.is_empty() {
            ctx.lz.journal(&cfg.telemetry, Resource::Disk);
            return Ok(());
        }
        // Bounced references rejoin the worklist as forced-full sends —
        // a re-sent block can never bounce again, so this converges.
        for &b in &misses {
            ctx.force_full.insert(b);
        }
        worklist.append(&mut misses);
    }
}

/// Page analogue of [`send_disk_worklist`] over the same
/// [`send_full_batch`]. There is no content index over RAM, so no
/// references, nothing to bounce and no barrier of its own.
pub(super) fn send_page_worklist<T: Transport>(
    ep: &T,
    ram: &LiveRam,
    worklist: &mut Vec<usize>,
    shipped: &mut FlatBitmap,
    ctx: &mut DedupCtx,
    cfg: &LiveConfig,
    phase: &'static str,
) -> Result<(), SessionError> {
    let (mut done, mut res) = (0, Ok(()));
    while res.is_ok() && done < worklist.len() {
        let chunk = &worklist[done..(done + cfg.mem_batch.max(1)).min(worklist.len())];
        for &p in chunk {
            shipped.set(p);
        }
        let payload = ram.read_pages(chunk);
        ctx.wire.page_bytes_raw += payload.len() as u64;
        let pages = chunk.iter().map(|&p| p as u64).collect();
        res = send_full_batch(
            ep,
            ctx,
            Resource::Memory,
            pages,
            payload,
            ram.page_size(),
            phase,
        );
        if res.is_ok() {
            done += chunk.len();
        }
    }
    worklist.drain(..done);
    ctx.lz.journal(&cfg.telemetry, Resource::Memory);
    res
}

/// A block or page index off the wire, checked against the store it
/// targets: the storage layers assert their ranges, and a peer's frame
/// must never reach an assert.
fn checked_index(what: &'static str, idx: u64, count: usize) -> Result<usize, SessionError> {
    usize::try_from(idx)
        .ok()
        .filter(|&i| i < count)
        .ok_or_else(|| protocol_err("apply", format!("{what} {idx} where {count} exist")))
}

pub(super) fn checked_block(disk: &TrackedDisk, block: u64) -> Result<usize, SessionError> {
    checked_index("block", block, disk.disk().num_blocks())
}

/// Validate a whole batch frame before any of it is applied: payload
/// length against the index list, every index against the store.
fn check_batch(
    what: &'static str,
    ids: &[u64],
    payload: &[u8],
    unit_size: usize,
    count: usize,
) -> Result<(), SessionError> {
    if ids.len().checked_mul(unit_size) != Some(payload.len()) {
        return Err(protocol_err(
            "apply",
            format!(
                "payload of {} bytes for {} {what}s of {unit_size}",
                payload.len(),
                ids.len()
            ),
        ));
    }
    for &i in ids {
        checked_index(what, i, count)?;
    }
    Ok(())
}

/// Write one message's blocks under one acquisition of the disk lock,
/// after validating the whole frame.
fn apply_blocks(
    disk: &TrackedDisk,
    blocks: &[u64],
    payload: &[u8],
    block_size: usize,
) -> Result<(), SessionError> {
    let num_blocks = disk.disk().num_blocks();
    check_batch("block", blocks, payload, block_size, num_blocks)?;
    disk.disk().write_blocks(blocks, payload);
    Ok(())
}

/// Apply a batch of full blocks at the destination: write the bytes,
/// mark the per-session receipt bitmap, and, on a dedup session, keep the
/// content index exact by recording each block's new fingerprint.
fn dest_apply_full(
    st: &mut DestState,
    disk: &TrackedDisk,
    blocks: &[u64],
    payload: &[u8],
    block_size: usize,
) -> Result<(), SessionError> {
    apply_blocks(disk, blocks, payload, block_size)?;
    for &b in blocks {
        st.session_got_blocks.set(b as usize);
        st.ref_missing.clear(b as usize);
    }
    if let Some(index) = st.index.as_mut() {
        for (&b, data) in blocks.iter().zip(payload.chunks_exact(block_size)) {
            index.record(b as usize, hash_block(data));
        }
        st.work.blocks_hashed += blocks.len() as u64;
    }
    Ok(())
}

/// Materialize a frame of content references — a
/// [`MigMessage::BlockRefs`], or a lone [`MigMessage::BlockRef`] as a
/// frame of one. The frame is validated as a whole first: as many
/// fingerprints as blocks, every block on the disk, or nothing of it is
/// applied. Then each reference in order: its resolved holder is
/// re-hashed in place before use, so an index gone stale under any hash
/// behaviour degrades to a [`MigMessage::BlockRefMiss`] bounce and an
/// eventual full resend — never to a wrong image. A block that already
/// holds the content (a template clone's, an incremental return's
/// unchanged blocks) is verified and left as it is; another block's
/// content is copied over.
fn dest_apply_refs<T: Transport>(
    st: &mut DestState,
    disk: &TrackedDisk,
    ep: &T,
    blocks: &[u64],
    fingerprints: &[u64],
    phase: &'static str,
) -> Result<(), SessionError> {
    if blocks.len() != fingerprints.len() {
        return Err(protocol_err(
            "apply",
            format!(
                "{} references with {} fingerprints",
                blocks.len(),
                fingerprints.len()
            ),
        ));
    }
    for &block in blocks {
        checked_block(disk, block)?;
    }
    for (&block, &fingerprint) in blocks.iter().zip(fingerprints) {
        let b = block as usize;
        let verified = st.index.as_mut().is_some_and(|index| {
            let Some(holder) = index.resolve(fingerprint) else {
                return false;
            };
            st.work.blocks_read += 1;
            st.work.blocks_hashed += 1;
            let found = disk.disk().hash_block_at(holder);
            if found != fingerprint {
                // The index was wrong about the holder (a write went
                // round it): now it is right, at the price of this bounce.
                index.record(holder, found);
                return false;
            }
            // This protocol thread is the disk's one writer until
            // resume: the holder still holds what was just hashed.
            if holder != b {
                disk.disk().write_block(b, &disk.disk().read_block(holder));
            }
            index.record(b, fingerprint);
            true
        });
        if verified {
            st.session_got_blocks.set(b);
            st.ref_missing.clear(b);
        } else {
            st.ref_missing.set(b);
            send_or(ep, phase, MigMessage::BlockRefMiss { block })?;
        }
    }
    Ok(())
}

/// Apply a batch of memory pages at the destination, validated as a
/// whole first (a bad index after good ones applies nothing), and mark
/// the per-session receipt bitmap.
fn dest_apply_pages(
    st: &mut DestState,
    ram: &LiveRam,
    pages: &[u64],
    payload: &[u8],
) -> Result<(), SessionError> {
    check_batch("page", pages, payload, ram.page_size(), ram.num_pages())?;
    ram.apply_pages(pages, payload);
    for &p in pages {
        st.session_got_pages.set(p as usize);
    }
    Ok(())
}

/// Decode a compressed batch of `count` units back to raw bytes. The
/// advertised raw length must be the units' own, and the batch's one LZ
/// stream must decode to exactly that.
fn decode_compressed(
    count: usize,
    raw_len: u64,
    payload: &Bytes,
    unit_size: usize,
    phase: &'static str,
) -> Result<Bytes, SessionError> {
    if raw_len != (count as u64).saturating_mul(unit_size as u64) {
        return Err(protocol_err(
            phase,
            format!(
                "compressed batch declared {raw_len} raw bytes for {count} units of {unit_size}"
            ),
        ));
    }
    decompress_blocks(payload, count, unit_size)
        .map(Bytes::from)
        .map_err(|e| protocol_err(phase, format!("undecodable compressed batch: {e:?}")))
}

/// The destination half of the data plane, shared by pre-copy and
/// freeze: a message carrying blocks or pages — raw, compressed or by
/// reference — is decoded, validated and applied here; any other is
/// handed back for the phase's own protocol.
pub(super) fn dest_apply_data<T: Transport>(
    st: &mut DestState,
    disk: &TrackedDisk,
    ram: &LiveRam,
    ep: &T,
    msg: MigMessage,
    phase: &'static str,
) -> Result<Option<MigMessage>, SessionError> {
    let block_size = disk.disk().block_size();
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "a frame that is not data goes back to the phase that received it"
    )]
    match msg {
        MigMessage::DiskBlocks {
            blocks,
            payload: Some(payload),
            ..
        } => dest_apply_full(st, disk, &blocks, &payload, block_size)?,
        MigMessage::CompressedBlocks {
            blocks,
            raw_len,
            payload,
        } => {
            let raw = decode_compressed(blocks.len(), raw_len, &payload, block_size, phase)?;
            dest_apply_full(st, disk, &blocks, &raw, block_size)?;
        }
        MigMessage::BlockRef { block, fingerprint } => {
            dest_apply_refs(st, disk, ep, &[block], &[fingerprint], phase)?;
        }
        MigMessage::BlockRefs {
            blocks,
            fingerprints,
        } => dest_apply_refs(st, disk, ep, &blocks, &fingerprints, phase)?,
        MigMessage::MemPages {
            pages,
            payload: Some(payload),
            ..
        } => dest_apply_pages(st, ram, &pages, &payload)?,
        MigMessage::CompressedPages {
            pages,
            raw_len,
            payload,
        } => {
            let raw = decode_compressed(pages.len(), raw_len, &payload, ram.page_size(), phase)?;
            dest_apply_pages(st, ram, &pages, &raw)?;
        }
        other => return Ok(Some(other)),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::dest::summarise_resident;
    use crate::live::MigrationError;
    use simnet::proto::TransferLedger;
    use simnet::transport::duplex;
    use std::sync::Arc;
    use vdisk::{stamp_bytes, ContentIndex, VirtualDisk};

    #[test]
    fn interleave_rotates_batches_across_shards() {
        let rec = Recorder::off();
        // 256 blocks, 4 streams → word-aligned shards of 64 blocks each.
        let worklist: Vec<usize> = (0..256).collect();
        let out = interleave_streams(&worklist, 256, 4, 16, &rec);
        assert_eq!(out.len(), 256);
        // Same multiset of blocks.
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, worklist);
        // First batch from shard 0, second from shard 1, and so on.
        assert_eq!(&out[..16], (0..16).collect::<Vec<_>>().as_slice());
        assert_eq!(&out[16..32], (64..80).collect::<Vec<_>>().as_slice());
        assert_eq!(&out[32..48], (128..144).collect::<Vec<_>>().as_slice());
        assert_eq!(&out[48..64], (192..208).collect::<Vec<_>>().as_slice());
        // Uneven remainder still drains completely.
        let sparse: Vec<usize> = (0..256).step_by(7).collect();
        let out = interleave_streams(&sparse, 256, 4, 16, &rec);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, sparse);
    }

    #[test]
    fn malformed_block_frames_are_typed_errors_not_storage_panics() {
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(512, 8)));
        let fatal = |r: Result<(), SessionError>| match r {
            Err(SessionError::Fatal(MigrationError::Protocol { detail, .. })) => detail,
            Err(_) => panic!("expected a protocol error, got another error"),
            Ok(()) => panic!("expected a protocol error, got Ok"),
        };
        // An index past the disk, alone or after valid ones: nothing is
        // written, not even the valid prefix.
        let data = stamp_bytes(3, 1, 512);
        let two = [data.clone(), data.clone()].concat();
        assert!(fatal(apply_blocks(&disk, &[8], &data, 512)).contains("block 8"));
        assert!(fatal(apply_blocks(&disk, &[3, u64::MAX], &two, 512)).contains("block"));
        assert_eq!(disk.disk().read_block(3), vec![0u8; 512]);
        // Payload length that does not match the block list.
        assert!(fatal(apply_blocks(&disk, &[3], &two, 512)).contains("payload"));
        assert!(fatal(apply_blocks(&disk, &[3, 4], &data, 512)).contains("payload"));
        assert!(fatal(apply_blocks(&disk, &[3], &data, usize::MAX)).contains("payload"));
        // The well-formed frame lands, repeats included (last piece wins).
        let newer = stamp_bytes(3, 2, 512);
        assert!(apply_blocks(&disk, &[3, 3], &[data, newer.clone()].concat(), 512).is_ok());
        assert_eq!(disk.disk().read_block(3), newer);
    }

    fn ok<T>(r: Result<T, SessionError>) -> T {
        match r {
            Ok(v) => v,
            Err(SessionError::Fatal(e)) => panic!("fatal session error: {e}"),
            Err(SessionError::Reconnect(e)) => panic!("link error: {e}"),
        }
    }

    fn index(st: &DestState) -> &ContentIndex {
        st.index.as_ref().expect("a dedup session holds the index")
    }

    #[test]
    fn a_session_without_dedup_leaves_no_fingerprint_a_later_one_trusts() {
        let cfg = LiveConfig {
            num_blocks: 8,
            ..LiveConfig::test_default()
        };
        let bs = cfg.block_size;
        let ram = LiveRam::new(cfg.mem_page_size, cfg.mem_pages);
        let rec = Recorder::off();
        let full = |blocks: &[usize], stamp: u64| MigMessage::DiskBlocks {
            blocks: blocks.iter().map(|&b| b as u64).collect(),
            payload_len: (blocks.len() * bs) as u64,
            payload: Some(Bytes::from(
                blocks
                    .iter()
                    .flat_map(|&b| stamp_bytes(b, stamp, bs))
                    .collect::<Vec<u8>>(),
            )),
        };
        let old = hash_block(&stamp_bytes(2, 1, bs));
        for incremental in [false, true] {
            let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(bs, cfg.num_blocks)));
            let (ep, peer) = duplex();
            let mut st = DestState::new(&cfg);
            let session = |st: &mut DestState, dedup: bool| {
                summarise_resident(&disk, dedup, incremental, st, &rec).is_some()
            };
            // A dedup session applies blocks 2 and 3 and indexes them.
            assert!(session(&mut st, true));
            let msg = full(&[2, 3], 1);
            assert!(ok(dest_apply_data(&mut st, &disk, &ram, &ep, msg, "test")).is_none());
            assert_eq!(index(&st).resolve(old), Some(2));
            // A session without dedup overwrites block 2 unhashed.
            assert!(!session(&mut st, false));
            assert!(st.index.is_none());
            let msg = full(&[2], 2);
            assert!(ok(dest_apply_data(&mut st, &disk, &ram, &ep, msg, "test")).is_none());
            // The next dedup session asks for block 2's old content: a
            // primary handshake re-hashed the disk and knows nobody holds
            // it, an incremental one starts from nothing; either way the
            // reference bounces and the block keeps the newer bytes.
            assert!(session(&mut st, true));
            assert_eq!(index(&st).resolve(old), None);
            let msg = MigMessage::BlockRef {
                block: 5,
                fingerprint: old,
            };
            assert!(ok(dest_apply_data(&mut st, &disk, &ram, &ep, msg, "test")).is_none());
            assert!(matches!(
                peer.try_recv(),
                Ok(MigMessage::BlockRefMiss { block: 5 })
            ));
            assert_eq!(disk.disk().read_block(2), stamp_bytes(2, 2, bs));
            assert_eq!(disk.disk().read_block(5), vec![0u8; bs]);
            // Content a block truly holds still resolves on a primary hop.
            let newer = hash_block(&stamp_bytes(2, 2, bs));
            assert_eq!(index(&st).resolve(newer), (!incremental).then_some(2));
        }
    }

    #[test]
    fn a_reference_is_verified_in_place_and_a_stale_one_still_bounces() {
        let cfg = LiveConfig {
            num_blocks: 8,
            ..LiveConfig::test_default()
        };
        let bs = cfg.block_size;
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(bs, cfg.num_blocks)));
        let ram = LiveRam::new(cfg.mem_page_size, cfg.mem_pages);
        let fp = |b: usize| hash_block(&stamp_bytes(b, 1, bs));
        for b in 0..cfg.num_blocks {
            disk.disk().write_block(b, &stamp_bytes(b, 1, bs));
        }
        let (ep, peer) = duplex();
        let mut st = DestState::new(&cfg);
        st.index = Some(ContentIndex::from_fps(
            (0..cfg.num_blocks).map(fp).collect(),
        ));
        let apply = |st: &mut DestState, block: usize, fingerprint: u64| {
            let msg = MigMessage::BlockRef {
                block: block as u64,
                fingerprint,
            };
            assert!(ok(dest_apply_data(st, &disk, &ram, &ep, msg, "test")).is_none());
        };
        let work = |st: &DestState| (st.work.blocks_read, st.work.blocks_hashed);

        // The block holds the content already: one hash, the image as it
        // was, and the block received.
        let image = disk.disk().fingerprint_all();
        apply(&mut st, 3, fp(3));
        assert_eq!(disk.disk().fingerprint_all(), image);
        assert_eq!(work(&st), (1, 1));
        assert!(st.session_got_blocks.get(3) && !st.ref_missing.get(3));
        assert!(matches!(peer.try_recv(), Err(TransportError::Empty)));

        // Another block's content is copied over, and indexed there.
        apply(&mut st, 5, fp(3));
        assert_eq!(disk.disk().read_block(5), stamp_bytes(3, 1, bs));
        assert_eq!(work(&st), (2, 2));
        assert_eq!(index(&st).resolve(fp(5)), None);

        // A write that went round the index: the entry is stale, so the
        // reference bounces, the block keeps what it holds, and the index
        // learns what that is.
        let newer = stamp_bytes(6, 2, bs);
        disk.disk().write_block(6, &newer);
        apply(&mut st, 6, fp(6));
        assert_eq!(disk.disk().read_block(6), newer);
        assert_eq!(work(&st), (3, 3));
        assert!(st.ref_missing.get(6) && !st.session_got_blocks.get(6));
        assert!(matches!(
            peer.try_recv(),
            Ok(MigMessage::BlockRefMiss { block: 6 })
        ));
        assert_eq!(index(&st).resolve(hash_block(&newer)), Some(6));
    }

    #[test]
    fn a_frame_of_references_is_checked_whole_then_applied_one_by_one() {
        let cfg = LiveConfig {
            num_blocks: 8,
            ..LiveConfig::test_default()
        };
        let bs = cfg.block_size;
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(bs, cfg.num_blocks)));
        let ram = LiveRam::new(cfg.mem_page_size, cfg.mem_pages);
        let fp = |b: usize| hash_block(&stamp_bytes(b, 1, bs));
        for b in 0..cfg.num_blocks {
            disk.disk().write_block(b, &stamp_bytes(b, 1, bs));
        }
        let (ep, peer) = duplex();
        let mut st = DestState::new(&cfg);
        st.index = Some(ContentIndex::from_fps(
            (0..cfg.num_blocks).map(fp).collect(),
        ));
        let refs = |blocks: &[u64], fingerprints: &[u64]| MigMessage::BlockRefs {
            blocks: blocks.to_vec(),
            fingerprints: fingerprints.to_vec(),
        };
        let image = disk.disk().fingerprint_all();

        // Unequal lengths, or a block past the disk after valid ones: a
        // protocol error, and nothing of the frame is applied or bounced.
        for bad in [
            refs(&[5, 6], &[fp(3)]),
            refs(&[5], &[fp(3), fp(6)]),
            refs(&[5, 8], &[fp(3), fp(3)]),
            refs(&[5, u64::MAX], &[fp(3), fp(3)]),
        ] {
            match dest_apply_data(&mut st, &disk, &ram, &ep, bad, "test") {
                Err(SessionError::Fatal(MigrationError::Protocol { .. })) => {}
                Err(_) => panic!("expected a protocol error, got another error"),
                Ok(_) => panic!("expected a protocol error, got Ok"),
            }
        }
        assert_eq!(disk.disk().fingerprint_all(), image);
        assert_eq!((st.work.blocks_read, st.work.blocks_hashed), (0, 0));
        assert!(st.session_got_blocks.to_indices().is_empty());
        assert!(matches!(peer.try_recv(), Err(TransportError::Empty)));

        // A valid frame, one reference at a time: block 5 gets block 3's
        // content, block 6 already holds its own, and content nobody
        // holds bounces without a read.
        let msg = refs(&[5, 6, 1], &[fp(3), fp(6), 99]);
        assert!(ok(dest_apply_data(&mut st, &disk, &ram, &ep, msg, "test")).is_none());
        assert_eq!(disk.disk().read_block(5), stamp_bytes(3, 1, bs));
        assert_eq!(disk.disk().read_block(6), stamp_bytes(6, 1, bs));
        assert_eq!((st.work.blocks_read, st.work.blocks_hashed), (2, 2));
        assert_eq!(st.session_got_blocks.to_indices(), vec![5, 6]);
        assert!(st.ref_missing.get(1));
        assert!(matches!(
            peer.try_recv(),
            Ok(MigMessage::BlockRefMiss { block: 1 })
        ));
        assert!(matches!(peer.try_recv(), Err(TransportError::Empty)));
    }

    /// One page of each kind a guest's RAM is made of: untouched, filled
    /// with one byte, text-like (words from a small vocabulary) and
    /// word-random (nothing for LZ to find).
    fn mix_page(kind: usize, seed: u64, page_size: usize) -> Vec<u8> {
        const WORDS: [&str; 8] = [
            "page ", "frame ", "bitmap ", "dirty ", "guest ", "copy ", "the ", "of ",
        ];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        match kind % 4 {
            0 => vec![0u8; page_size],
            1 => vec![seed as u8 | 1; page_size],
            2 => {
                let mut page = Vec::with_capacity(page_size + 8);
                while page.len() < page_size {
                    page.extend_from_slice(WORDS[(next() % 8) as usize].as_bytes());
                }
                page.truncate(page_size);
                page
            }
            _ => (0..page_size / 8)
                .flat_map(|_| next().to_le_bytes())
                .collect(),
        }
    }

    /// Slow enough that LZ pays whatever a sample's timing suffers: 477 ns
    /// a byte against the few LZ takes, so a preemption of milliseconds
    /// inside one 32 KiB sample cannot flip a batch. The limiter's burst
    /// (0.1 s of it) covers everything these tests send, so none waits.
    const PACED: Option<f64> = Some(2.0 * 1024.0 * 1024.0);

    /// Drive `worklist` through the page sender over an in-process link
    /// (`rate`-paced or not) and apply everything that arrives through the
    /// destination's data path; returns the frames as sent.
    fn ship_pages(
        src: &LiveRam,
        dst: &LiveRam,
        mut worklist: Vec<usize>,
        compress: bool,
        rate: Option<f64>,
    ) -> (Vec<MigMessage>, TransferLedger, WireStats) {
        let cfg = LiveConfig {
            num_blocks: 8,
            mem_pages: src.num_pages(),
            mem_page_size: src.page_size(),
            mem_batch: 16,
            ..LiveConfig::test_default()
        };
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(cfg.block_size, cfg.num_blocks)));
        let (mut a, b) = duplex();
        if let Some(rate) = rate {
            a.set_rate_limit(rate);
        }
        let mut ctx = DedupCtx::default();
        ctx.reset(false, compress);
        let mut shipped = FlatBitmap::new(cfg.mem_pages);
        let sent_pages = worklist.clone();
        ok(send_page_worklist(
            &a,
            src,
            &mut worklist,
            &mut shipped,
            &mut ctx,
            &cfg,
            "test",
        ));
        assert!(worklist.is_empty());
        let mut st = DestState::new(&cfg);
        let mut frames = Vec::new();
        while let Ok(msg) = b.try_recv() {
            frames.push(msg.clone());
            assert!(ok(dest_apply_data(&mut st, &disk, dst, &b, msg, "test")).is_none());
        }
        for p in sent_pages {
            assert!(shipped.get(p) && st.session_got_pages.get(p), "page {p}");
        }
        (frames, a.sent_ledger(), ctx.wire)
    }

    #[test]
    fn page_mix_crosses_in_the_smaller_form_and_lands_page_exact() {
        use simnet::proto::{Category, FRAME_OVERHEAD};
        const PS: usize = 4096;
        const N: usize = 64;
        let src = LiveRam::new(PS, N);
        for p in 0..N {
            src.write_page(p, &mix_page(p, p as u64 + 1, PS));
        }
        let of_kind = |k: usize| (0..N).filter(|p| p % 4 == k).collect::<Vec<_>>();

        // The whole mix, 16 pages a batch, on a link that pays for LZ:
        // every batch holds pages that compress, so every batch crosses
        // compressed; RAM is page-exact and the Memory ledger is the
        // frames' own sizes, to the byte.
        let dst = LiveRam::new(PS, N);
        let (frames, ledger, wire) = ship_pages(&src, &dst, (0..N).collect(), true, PACED);
        assert!(src.content_equals(&dst));
        assert_eq!(frames.len(), 4);
        assert!(frames
            .iter()
            .all(|m| matches!(m, MigMessage::CompressedPages { .. })));
        let framed: u64 = frames.iter().map(MigMessage::wire_size).sum();
        assert_eq!(ledger.get(Category::Memory), framed);
        assert_eq!(ledger.total(), framed);
        assert_eq!(wire.page_bytes_raw, (N * PS) as u64);
        assert_eq!(
            wire.page_bytes_sent + (8 * N) as u64 + 4 * FRAME_OVERHEAD,
            framed
        );
        assert_eq!(wire.pages_compressed, N as u64);
        assert!(wire.page_bytes_sent < wire.page_bytes_raw / 2);
        assert_eq!(
            (wire.bytes_raw, wire.bytes_sent, wire.blocks_compressed),
            (0, 0, 0)
        );

        // Zero pages need no message of their own: 8 B of index each and
        // one run between them — a literal, an offset-1 match and a byte
        // of length chain per 255 bytes of it.
        let dst = LiveRam::new(PS, N);
        let zeros = of_kind(0);
        let (_, ledger, _) = ship_pages(&src, &dst, zeros.clone(), true, PACED);
        let run = (zeros.len() * PS - 1 - 4 - 15) as u64;
        assert_eq!(
            ledger.get(Category::Memory),
            FRAME_OVERHEAD + 8 * zeros.len() as u64 + 4 + run / 255 + 1
        );

        // A batch of random pages streams no smaller than raw, so it
        // travels as plain `MemPages` however slow the link.
        let dst = LiveRam::new(PS, N);
        let noise = of_kind(3);
        let (frames, ledger, wire) = ship_pages(&src, &dst, noise.clone(), true, PACED);
        assert!(matches!(frames.as_slice(), [MigMessage::MemPages { .. }]));
        assert_eq!(
            ledger.get(Category::Memory),
            FRAME_OVERHEAD + (noise.len() * (8 + PS)) as u64
        );
        assert_eq!(wire.pages_compressed, 0);
        assert!(noise.iter().all(|&p| dst.read_page(p) == src.read_page(p)));

        // A session whose compress agreement came out false (either side
        // declined) ships the same mix as raw page frames only, on the
        // same link.
        let dst = LiveRam::new(PS, N);
        let (frames, ledger, wire) = ship_pages(&src, &dst, (0..N).collect(), false, PACED);
        assert!(src.content_equals(&dst));
        assert!(frames
            .iter()
            .all(|m| matches!(m, MigMessage::MemPages { .. })));
        assert_eq!(
            ledger.get(Category::Memory),
            4 * FRAME_OVERHEAD + (N * (8 + PS)) as u64
        );
        assert_eq!(wire.page_bytes_sent, wire.page_bytes_raw);
    }

    #[test]
    fn malformed_page_frames_are_typed_errors_not_ram_panics() {
        const PS: usize = 512;
        let cfg = LiveConfig {
            num_blocks: 8,
            mem_pages: 8,
            mem_page_size: PS,
            ..LiveConfig::test_default()
        };
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(cfg.block_size, cfg.num_blocks)));
        let ram = LiveRam::new(PS, cfg.mem_pages);
        let (ep, _peer) = duplex();
        let mut st = DestState::new(&cfg);
        let mut apply = |msg: MigMessage| dest_apply_data(&mut st, &disk, &ram, &ep, msg, "test");
        let fatal = |r: Result<Option<MigMessage>, SessionError>| match r {
            Err(SessionError::Fatal(MigrationError::Protocol { detail, .. })) => detail,
            Err(_) => panic!("expected a protocol error, got another error"),
            Ok(_) => panic!("expected a protocol error, got Ok"),
        };
        let raw = |pages: &[u64], payload: &[u8]| MigMessage::MemPages {
            pages: pages.to_vec(),
            payload_len: payload.len() as u64,
            payload: Some(Bytes::copy_from_slice(payload)),
        };
        let packed =
            |pages: &[u64], raw_len: usize, payload: Vec<u8>| MigMessage::CompressedPages {
                pages: pages.to_vec(),
                raw_len: raw_len as u64,
                payload: Bytes::from(payload),
            };
        let data = stamp_bytes(3, 1, PS);
        let two = [data.clone(), data.clone()].concat();
        // An index past the RAM, alone or after valid ones, raw or
        // compressed: nothing is applied, not even the valid prefix.
        assert!(fatal(apply(raw(&[8], &data))).contains("page 8"));
        assert!(fatal(apply(raw(&[3, u64::MAX], &two))).contains("page"));
        let frames = simnet::codec::compress_blocks(&two, PS);
        assert!(fatal(apply(packed(&[3, 8], two.len(), frames.clone()))).contains("page 8"));
        // Payload length that does not match the page list.
        assert!(fatal(apply(raw(&[3], &two))).contains("payload"));
        assert!(fatal(apply(raw(&[3, 4], &data))).contains("payload"));
        // A raw length that is not the page list's, a page count the
        // stream does not decode to, and bytes that are no stream at all.
        assert!(fatal(apply(packed(&[3, 4], PS, frames.clone()))).contains("declared"));
        assert!(fatal(apply(packed(&[3], PS, frames.clone()))).contains("undecodable"));
        assert!(fatal(apply(packed(&[3, 4, 5], 3 * PS, frames.clone()))).contains("undecodable"));
        assert!(fatal(apply(packed(&[3], PS, vec![9u8; 40]))).contains("undecodable"));
        assert_eq!(ram.read_page(3), vec![0u8; PS]);
        // The well-formed frames land, repeats included (last piece wins).
        assert!(ok(apply(packed(&[3, 4], two.len(), frames))).is_none());
        let newer = stamp_bytes(3, 2, PS);
        assert!(ok(apply(raw(&[3, 3], &[data.clone(), newer.clone()].concat()))).is_none());
        assert_eq!(ram.read_page(3), newer);
        assert_eq!(ram.read_page(4), data);
        assert_eq!(st.session_got_pages.to_indices(), vec![3, 4]);
    }
}
