//! Binary wire codec for [`MigMessage`].
//!
//! The in-process transports pass messages by value; crossing a real
//! socket needs bytes. The encoding is a simple tagged binary format with
//! length-prefixed framing ([`write_frame`] / [`read_frame`]) — little
//! endian throughout, payloads inline.
//!
//! A message's bulk bytes (block, page or bitmap payload) are always its
//! last field, so a frame is a small *head* — length prefix, tag, id
//! list, lengths — followed by the payload exactly as the message holds
//! it. [`write_frame`] hands the two to the stream in one vectored write
//! and never copies the payload; [`read_frame_or_eof`] reads a frame into
//! one allocation and [`decode_owned`] lends the payload out of it.

use std::io::{IoSlice, Read, Write};

use bytes::Bytes;

use crate::proto::MigMessage;

pub mod lz;

/// Maximum accepted frame size (guards against corrupt length prefixes):
/// generous enough for a 4096-block batch of 4 KiB blocks.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Errors from decoding a wire frame.
#[derive(Debug)]
pub enum CodecError {
    /// Frame shorter than its own header, unknown tag, or bad lengths.
    Malformed(String),
    /// A message whose encoded body is this many bytes, more than
    /// [`MAX_FRAME`]: refused before any of it is written, so the stream
    /// stays on a frame boundary.
    FrameTooLarge(usize),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The peer closed the stream on a frame boundary. Surfaced by
    /// [`read_frame`] so callers that treat any EOF as an error still get
    /// a typed value instead of a synthesized `UnexpectedEof`; callers
    /// that want to treat a clean close as end-of-session should prefer
    /// [`read_frame_or_eof`].
    CleanEof,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(m) => write!(f, "malformed frame: {m}"),
            Self::FrameTooLarge(n) => {
                write!(f, "frame body of {n} bytes exceeds {MAX_FRAME}")
            }
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::CleanEof => write!(f, "stream closed on a frame boundary"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

const T_PREPARE: u8 = 1;
const T_PREPARE_ACK: u8 = 2;
const T_DISK_BLOCKS: u8 = 3;
const T_MEM_PAGES: u8 = 4;
const T_CPU: u8 = 5;
const T_BITMAP: u8 = 6;
const T_SUSPENDED: u8 = 7;
const T_RESUMED: u8 = 8;
const T_PULL: u8 = 9;
const T_PC_BLOCK: u8 = 10;
const T_PUSH_COMPLETE: u8 = 11;
const T_COMPLETE: u8 = 12;
const T_COMPLETE_ACK: u8 = 13;
const T_HELLO: u8 = 14;
const T_RESUME_FROM: u8 = 15;
const T_BLOCK_REF: u8 = 16;
const T_BLOCK_REF_MISS: u8 = 17;
const T_CONTENT_SUMMARY: u8 = 18;
const T_COMPRESSED_BLOCKS: u8 = 19;
const T_BLOCK_REQUEST: u8 = 20;
const T_BLOCK_DATA: u8 = 21;
const T_BLOCK_MISS: u8 = 22;
const T_BLOCK_MANIFEST: u8 = 23;
const T_BARRIER: u8 = 24;
const T_BARRIER_ACK: u8 = 25;
const T_COMPRESSED_PAGES: u8 = 26;
const T_BLOCK_REFS: u8 = 27;

/// Words converted per batch in the bulk [`Writer::u64s`] path: large
/// enough for the inner loop to vectorize, small enough to live on the
/// stack.
const BULK_WORDS: usize = 32;

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.reserve(8 + b.len());
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
    fn u64s(&mut self, v: &[u64]) {
        // One reserve up front, then batched word→byte conversion: a
        // per-element `extend_from_slice` re-checks capacity on every
        // word, which dominates encode time for bitmap-scale runs.
        self.buf.reserve(8 + v.len() * 8);
        self.u64(v.len() as u64);
        let mut chunk = [0u8; BULK_WORDS * 8];
        for words in v.chunks(BULK_WORDS) {
            for (slot, w) in chunk.chunks_exact_mut(8).zip(words) {
                slot.copy_from_slice(&w.to_le_bytes());
            }
            self.buf.extend_from_slice(&chunk[..words.len() * 8]);
        }
    }
    /// A message's last byte run: its length goes in the head, the run
    /// itself is handed back for the caller to place after the head.
    fn tail<'a>(&mut self, b: &'a [u8]) -> &'a [u8] {
        self.u64(b.len() as u64);
        b
    }
    fn opt_tail<'a>(&mut self, b: &'a Option<Bytes>) -> &'a [u8] {
        match b {
            Some(b) => {
                self.u8(1);
                self.tail(b)
            }
            None => {
                self.u8(0);
                &[]
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The buffer `buf` is the whole of, when the caller owns one: byte
    /// runs are lent out of it instead of copied.
    frame: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() - self.pos {
            return Err(CodecError::Malformed(format!(
                "need {n} bytes at offset {}, frame is {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        match *self.take(4)? {
            [a, b, c, d] => Ok(u32::from_le_bytes([a, b, c, d])),
            _ => Err(CodecError::Malformed("short u32".into())),
        }
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        match *self.take(8)? {
            [a, b, c, d, e, f, g, h] => Ok(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
            _ => Err(CodecError::Malformed("short u64".into())),
        }
    }
    fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let n = self.u64()? as usize;
        if n > MAX_FRAME as usize {
            return Err(CodecError::Malformed(format!("byte run of {n}")));
        }
        let at = self.pos;
        let run = self.take(n)?;
        Ok(match self.frame {
            Some(frame) => frame.slice(at..at + n),
            None => Bytes::copy_from_slice(run),
        })
    }
    fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.u64()? as usize;
        if n > MAX_FRAME as usize / 8 {
            return Err(CodecError::Malformed(format!("u64 run of {n}")));
        }
        // Bounds-check the whole run once, then convert in place: the
        // per-element `u64()` path pays a length check per word.
        let raw = self.take(n * 8)?;
        let mut out = Vec::with_capacity(n);
        for c in raw.chunks_exact(8) {
            out.push(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        Ok(out)
    }
    fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!("bool tag {other}"))),
        }
    }
    fn opt_bytes(&mut self) -> Result<Option<Bytes>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            other => Err(CodecError::Malformed(format!("option tag {other}"))),
        }
    }
    fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Compress a concatenation of equal-sized raw blocks (or memory pages)
/// into the payload of a [`MigMessage::CompressedBlocks`] /
/// [`MigMessage::CompressedPages`]: one LZ stream over the whole batch
/// ([`lz`]), so a block's matches reach into the blocks before it. Never
/// more than `raw.len() + raw.len() / 255 + 2` bytes; a caller that wants
/// the smaller form sends the batch raw when this is not it.
pub fn compress_blocks(raw: &[u8], block_size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    compress_blocks_into(raw, block_size, &mut out);
    out
}

/// [`compress_blocks`] appending the batch's stream to `out`.
pub fn compress_blocks_into(raw: &[u8], block_size: usize, out: &mut Vec<u8>) {
    if block_size == 0 {
        return;
    }
    lz::Encoder::new(raw, &mut lz::MatchTables::default()).finish(out);
}

/// Decode a [`MigMessage::CompressedBlocks`] (or
/// [`MigMessage::CompressedPages`]) payload back into `count`
/// concatenated raw blocks. The stream must decode to exactly
/// `count * block_size` bytes, which is all this allocates.
pub fn decompress_blocks(
    payload: &[u8],
    count: usize,
    block_size: usize,
) -> Result<Vec<u8>, CodecError> {
    // A stream byte yields at most 255 bytes (one link of a length chain)
    // and a frame carries at most `MAX_FRAME` raw: a count the payload
    // cannot decode to is refused before anything is reserved for it.
    let raw_len = count
        .checked_mul(block_size)
        .filter(|&n| n <= payload.len().saturating_mul(255) && n <= MAX_FRAME as usize)
        .ok_or_else(|| {
            CodecError::Malformed(format!(
                "{count} compressed blocks of {block_size} bytes in {} bytes",
                payload.len()
            ))
        })?;
    let mut out = Vec::with_capacity(raw_len);
    lz::decompress_into(payload, raw_len, &mut out)
        .map_err(|e| CodecError::Malformed(e.to_string()))?;
    Ok(out)
}

/// Encode a message to its wire bytes (without the outer length prefix).
pub fn encode(msg: &MigMessage) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(head_size_hint(msg)),
    };
    let tail = encode_head(&mut w, msg);
    w.buf.extend_from_slice(tail);
    w.buf
}

/// Encode a message as one contiguous length-prefixed frame, 4-byte LE
/// prefix first. For callers that want the frame in memory; a stream is
/// better served by [`write_frame`], which does not copy the payload.
///
/// # Panics
/// Panics when the encoded body exceeds [`MAX_FRAME`].
pub fn encode_framed(msg: &MigMessage) -> Vec<u8> {
    let parts = frame_parts(msg);
    assert!(parts.is_ok(), "frame too large");
    // `Ok`, by the line above.
    let (mut frame, tail) = parts.unwrap_or_default();
    frame.extend_from_slice(tail);
    frame
}

/// A frame as the two runs [`write_frame_parts`] sends: the head —
/// length prefix included — and the payload that follows it on the wire,
/// still where the message holds it. The body's length is known here,
/// before a byte is written anywhere: one over [`MAX_FRAME`] is refused,
/// `Err` saying how long it would have been.
pub(crate) fn frame_parts(msg: &MigMessage) -> Result<(Vec<u8>, &[u8]), usize> {
    let mut w = Writer {
        buf: Vec::with_capacity(4 + head_size_hint(msg)),
    };
    w.buf.extend_from_slice(&[0u8; 4]);
    let tail = encode_head(&mut w, msg);
    let body_len = w.buf.len() - 4 + tail.len();
    let prefix = u32::try_from(body_len)
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or(body_len)?;
    w.buf[..4].copy_from_slice(&prefix.to_le_bytes());
    Ok((w.buf, tail))
}

/// Close-enough capacity estimate for a message's encoded head —
/// everything but its last byte run — so the head is one allocation. The
/// fixed slack covers tags and lengths for every variant.
fn head_size_hint(msg: &MigMessage) -> usize {
    let variable = match msg {
        MigMessage::DiskBlocks { blocks, .. } | MigMessage::CompressedBlocks { blocks, .. } => {
            blocks.len() * 8
        }
        MigMessage::MemPages { pages, .. } | MigMessage::CompressedPages { pages, .. } => {
            pages.len() * 8
        }
        MigMessage::ResumeFrom { disk_bitmap, .. } => disk_bitmap.len(),
        MigMessage::ContentSummary { fingerprints } => fingerprints.len() * 8,
        MigMessage::BlockManifest {
            blocks,
            fingerprints,
        }
        | MigMessage::BlockRefs {
            blocks,
            fingerprints,
        } => (blocks.len() + fingerprints.len()) * 8,
        MigMessage::CpuState { .. }
        | MigMessage::Bitmap { .. }
        | MigMessage::PostCopyBlock { .. }
        | MigMessage::BlockData { .. }
        | MigMessage::PrepareVbd { .. }
        | MigMessage::PrepareAck
        | MigMessage::Suspended
        | MigMessage::Resumed
        | MigMessage::PullRequest { .. }
        | MigMessage::PushComplete
        | MigMessage::MigrationComplete
        | MigMessage::CompleteAck
        | MigMessage::Barrier
        | MigMessage::BarrierAck
        | MigMessage::SessionHello { .. }
        | MigMessage::BlockRef { .. }
        | MigMessage::BlockRefMiss { .. }
        | MigMessage::BlockRequest { .. }
        | MigMessage::BlockMiss { .. } => 0,
    };
    variable + 64
}

/// Encode everything of `msg` but its last byte run, which comes back
/// for the caller to place (empty for a message that has none).
fn encode_head<'a>(w: &mut Writer, msg: &'a MigMessage) -> &'a [u8] {
    let mut tail: &[u8] = &[];
    match msg {
        MigMessage::PrepareVbd {
            block_size,
            num_blocks,
        } => {
            w.u8(T_PREPARE);
            w.u32(*block_size);
            w.u64(*num_blocks);
        }
        MigMessage::PrepareAck => w.u8(T_PREPARE_ACK),
        MigMessage::DiskBlocks {
            blocks,
            payload_len,
            payload,
        } => {
            w.u8(T_DISK_BLOCKS);
            w.u64s(blocks);
            w.u64(*payload_len);
            tail = w.opt_tail(payload);
        }
        MigMessage::MemPages {
            pages,
            payload_len,
            payload,
        } => {
            w.u8(T_MEM_PAGES);
            w.u64s(pages);
            w.u64(*payload_len);
            tail = w.opt_tail(payload);
        }
        MigMessage::CpuState {
            payload_len,
            payload,
        } => {
            w.u8(T_CPU);
            w.u64(*payload_len);
            tail = w.opt_tail(payload);
        }
        MigMessage::Bitmap { encoded } => {
            w.u8(T_BITMAP);
            tail = w.tail(encoded);
        }
        MigMessage::Suspended => w.u8(T_SUSPENDED),
        MigMessage::Resumed => w.u8(T_RESUMED),
        MigMessage::PullRequest { block } => {
            w.u8(T_PULL);
            w.u64(*block);
        }
        MigMessage::PostCopyBlock {
            block,
            pulled,
            payload_len,
            payload,
        } => {
            w.u8(T_PC_BLOCK);
            w.u64(*block);
            w.u8(u8::from(*pulled));
            w.u64(*payload_len);
            tail = w.opt_tail(payload);
        }
        MigMessage::PushComplete => w.u8(T_PUSH_COMPLETE),
        MigMessage::MigrationComplete => w.u8(T_COMPLETE),
        MigMessage::CompleteAck => w.u8(T_COMPLETE_ACK),
        MigMessage::Barrier => w.u8(T_BARRIER),
        MigMessage::BarrierAck => w.u8(T_BARRIER_ACK),
        MigMessage::SessionHello {
            session_id,
            attempt,
            dedup,
            compress,
            incremental,
        } => {
            w.u8(T_HELLO);
            w.u64(*session_id);
            w.u32(*attempt);
            w.u8(u8::from(*dedup));
            w.u8(u8::from(*compress));
            w.u8(u8::from(*incremental));
        }
        MigMessage::ResumeFrom {
            phase,
            dedup,
            compress,
            disk_bitmap,
            mem_bitmap,
        } => {
            w.u8(T_RESUME_FROM);
            w.u8(phase.to_u8());
            w.u8(u8::from(*dedup));
            w.u8(u8::from(*compress));
            w.bytes(disk_bitmap);
            tail = w.tail(mem_bitmap);
        }
        MigMessage::BlockRef { block, fingerprint } => {
            w.u8(T_BLOCK_REF);
            w.u64(*block);
            w.u64(*fingerprint);
        }
        MigMessage::BlockRefs {
            blocks,
            fingerprints,
        } => {
            w.u8(T_BLOCK_REFS);
            w.u64s(blocks);
            w.u64s(fingerprints);
        }
        MigMessage::BlockRefMiss { block } => {
            w.u8(T_BLOCK_REF_MISS);
            w.u64(*block);
        }
        MigMessage::ContentSummary { fingerprints } => {
            w.u8(T_CONTENT_SUMMARY);
            w.u64s(fingerprints);
        }
        MigMessage::CompressedBlocks {
            blocks,
            raw_len,
            payload,
        } => {
            w.u8(T_COMPRESSED_BLOCKS);
            w.u64s(blocks);
            w.u64(*raw_len);
            tail = w.tail(payload);
        }
        MigMessage::CompressedPages {
            pages,
            raw_len,
            payload,
        } => {
            w.u8(T_COMPRESSED_PAGES);
            w.u64s(pages);
            w.u64(*raw_len);
            tail = w.tail(payload);
        }
        MigMessage::BlockRequest {
            block,
            fingerprint,
            generation,
        } => {
            w.u8(T_BLOCK_REQUEST);
            w.u64(*block);
            w.u64(*fingerprint);
            w.u64(*generation);
        }
        MigMessage::BlockData {
            block,
            generation,
            payload_len,
            payload,
        } => {
            w.u8(T_BLOCK_DATA);
            w.u64(*block);
            w.u64(*generation);
            w.u64(*payload_len);
            tail = w.opt_tail(payload);
        }
        MigMessage::BlockMiss { block } => {
            w.u8(T_BLOCK_MISS);
            w.u64(*block);
        }
        MigMessage::BlockManifest {
            blocks,
            fingerprints,
        } => {
            w.u8(T_BLOCK_MANIFEST);
            w.u64s(blocks);
            w.u64s(fingerprints);
        }
    }
    tail
}

/// Decode a message from its wire bytes, copying its byte runs out of
/// `buf`.
pub fn decode(buf: &[u8]) -> Result<MigMessage, CodecError> {
    decode_from(Reader {
        buf,
        pos: 0,
        frame: None,
    })
}

/// Decode a message from a frame body the caller owns: the message's
/// byte runs are [`Bytes::slice`]s of `frame`, not copies, so the frame's
/// allocation lives as long as any payload decoded from it.
pub fn decode_owned(frame: Vec<u8>) -> Result<MigMessage, CodecError> {
    let frame = Bytes::from(frame);
    decode_from(Reader {
        buf: &frame,
        pos: 0,
        frame: Some(&frame),
    })
}

fn decode_from(mut r: Reader<'_>) -> Result<MigMessage, CodecError> {
    let msg = match r.u8()? {
        T_PREPARE => MigMessage::PrepareVbd {
            block_size: r.u32()?,
            num_blocks: r.u64()?,
        },
        T_PREPARE_ACK => MigMessage::PrepareAck,
        T_DISK_BLOCKS => MigMessage::DiskBlocks {
            blocks: r.u64s()?,
            payload_len: r.u64()?,
            payload: r.opt_bytes()?,
        },
        T_MEM_PAGES => MigMessage::MemPages {
            pages: r.u64s()?,
            payload_len: r.u64()?,
            payload: r.opt_bytes()?,
        },
        T_CPU => MigMessage::CpuState {
            payload_len: r.u64()?,
            payload: r.opt_bytes()?,
        },
        T_BITMAP => MigMessage::Bitmap {
            encoded: r.bytes()?,
        },
        T_SUSPENDED => MigMessage::Suspended,
        T_RESUMED => MigMessage::Resumed,
        T_PULL => MigMessage::PullRequest { block: r.u64()? },
        T_PC_BLOCK => MigMessage::PostCopyBlock {
            block: r.u64()?,
            pulled: match r.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(CodecError::Malformed(format!("bool tag {other}")));
                }
            },
            payload_len: r.u64()?,
            payload: r.opt_bytes()?,
        },
        T_PUSH_COMPLETE => MigMessage::PushComplete,
        T_COMPLETE => MigMessage::MigrationComplete,
        T_COMPLETE_ACK => MigMessage::CompleteAck,
        T_BARRIER => MigMessage::Barrier,
        T_BARRIER_ACK => MigMessage::BarrierAck,
        T_HELLO => MigMessage::SessionHello {
            session_id: r.u64()?,
            attempt: r.u32()?,
            dedup: r.flag()?,
            compress: r.flag()?,
            incremental: r.flag()?,
        },
        T_RESUME_FROM => MigMessage::ResumeFrom {
            phase: {
                let raw = r.u8()?;
                crate::proto::ResumePhase::from_u8(raw)
                    .ok_or_else(|| CodecError::Malformed(format!("resume phase {raw}")))?
            },
            dedup: r.flag()?,
            compress: r.flag()?,
            disk_bitmap: r.bytes()?,
            mem_bitmap: r.bytes()?,
        },
        T_BLOCK_REF => MigMessage::BlockRef {
            block: r.u64()?,
            fingerprint: r.u64()?,
        },
        T_BLOCK_REFS => {
            let blocks = r.u64s()?;
            let fingerprints = r.u64s()?;
            if blocks.len() != fingerprints.len() {
                return Err(CodecError::Malformed(format!(
                    "{} references with {} fingerprints",
                    blocks.len(),
                    fingerprints.len()
                )));
            }
            MigMessage::BlockRefs {
                blocks,
                fingerprints,
            }
        }
        T_BLOCK_REF_MISS => MigMessage::BlockRefMiss { block: r.u64()? },
        T_CONTENT_SUMMARY => MigMessage::ContentSummary {
            fingerprints: r.u64s()?,
        },
        T_COMPRESSED_BLOCKS => MigMessage::CompressedBlocks {
            blocks: r.u64s()?,
            raw_len: r.u64()?,
            payload: r.bytes()?,
        },
        T_COMPRESSED_PAGES => MigMessage::CompressedPages {
            pages: r.u64s()?,
            raw_len: r.u64()?,
            payload: r.bytes()?,
        },
        T_BLOCK_REQUEST => MigMessage::BlockRequest {
            block: r.u64()?,
            fingerprint: r.u64()?,
            generation: r.u64()?,
        },
        T_BLOCK_DATA => MigMessage::BlockData {
            block: r.u64()?,
            generation: r.u64()?,
            payload_len: r.u64()?,
            payload: r.opt_bytes()?,
        },
        T_BLOCK_MISS => MigMessage::BlockMiss { block: r.u64()? },
        T_BLOCK_MANIFEST => MigMessage::BlockManifest {
            blocks: r.u64s()?,
            fingerprints: r.u64s()?,
        },
        other => return Err(CodecError::Malformed(format!("unknown tag {other}"))),
    };
    r.finish()?;
    Ok(msg)
}

/// Write one length-prefixed frame to a stream: head and payload go to
/// the writer together ([`Write::write_vectored`]), so an unbuffered TCP
/// stream issues one syscall per frame and the payload is never copied
/// in user space. A message too large to frame is refused with
/// [`CodecError::FrameTooLarge`] before anything is written.
pub fn write_frame(w: &mut impl Write, msg: &MigMessage) -> Result<(), CodecError> {
    let (head, tail) = frame_parts(msg).map_err(CodecError::FrameTooLarge)?;
    write_frame_parts(w, &head, tail)?;
    Ok(())
}

/// Write the two runs of [`frame_parts`] in full, as few vectored
/// writes as the writer needs, then flush.
pub(crate) fn write_frame_parts(
    w: &mut impl Write,
    head: &[u8],
    tail: &[u8],
) -> std::io::Result<()> {
    let mut runs = [IoSlice::new(head), IoSlice::new(tail)];
    let mut left = &mut runs[..];
    // Advancing by nothing drops an empty leading run.
    IoSlice::advance_slices(&mut left, 0);
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one length-prefixed frame from a stream. A peer that closes on a
/// frame boundary surfaces as the typed [`CodecError::CleanEof`]; use
/// [`read_frame_or_eof`] to treat that close as a normal end-of-session.
pub fn read_frame(r: &mut impl Read) -> Result<MigMessage, CodecError> {
    match read_frame_or_eof(r)? {
        Some(msg) => Ok(msg),
        None => Err(CodecError::CleanEof),
    }
}

/// Read one frame, distinguishing a clean shutdown from a broken stream:
/// returns `Ok(None)` when EOF falls exactly on a frame boundary (the peer
/// closed between messages), and an error when the stream dies with a
/// partially delivered frame (truncation, reset, I/O failure).
pub fn read_frame_or_eof(r: &mut impl Read) -> Result<Option<MigMessage>, CodecError> {
    let mut len = [0u8; 4];
    // Read the length prefix byte-wise so EOF before the first byte is
    // distinguishable from EOF inside the prefix.
    let mut got = 0usize;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(CodecError::Malformed(format!(
                    "eof after {got} bytes of a frame length prefix"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(CodecError::Malformed(format!("frame length {len}")));
    }
    let mut body = Vec::new();
    read_body(r, len as usize, &mut body)?;
    decode_owned(body).map(Some)
}

/// Most a frame reader reserves ahead of the bytes that have actually
/// arrived: the length prefix is the peer's word, and 4 bytes of it must
/// not cost [`MAX_FRAME`] of memory. Every batch the engine sends at its
/// default sizes fits, so a real frame is still one allocation; a larger
/// one grows as `read_to_end` grows a `Vec`, by doubling what has come.
const BODY_RESERVE: usize = 2 * 1024 * 1024;

/// Read a frame body of exactly `len` bytes onto the end of an empty
/// `body`. Filled through `read_to_end`, which writes into spare
/// capacity: nothing is zeroed to be overwritten.
fn read_body(r: &mut impl Read, len: usize, body: &mut Vec<u8>) -> Result<(), CodecError> {
    body.reserve_exact(len.min(BODY_RESERVE));
    let got = r.take(len as u64).read_to_end(body)?;
    if got < len {
        return Err(CodecError::Malformed(format!(
            "frame truncated short of {len} bytes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<MigMessage> {
        vec![
            MigMessage::PrepareVbd {
                block_size: 4096,
                num_blocks: 1 << 20,
            },
            MigMessage::PrepareAck,
            MigMessage::DiskBlocks {
                blocks: vec![1, 5, 9],
                payload_len: 3 * 4096,
                payload: Some(Bytes::from(vec![7u8; 3 * 4096])),
            },
            MigMessage::DiskBlocks {
                blocks: vec![],
                payload_len: 0,
                payload: None,
            },
            MigMessage::MemPages {
                pages: vec![42],
                payload_len: 4096,
                payload: None,
            },
            MigMessage::CpuState {
                payload_len: 8192,
                payload: Some(Bytes::from(vec![1u8; 16])),
            },
            MigMessage::Bitmap {
                encoded: Bytes::from(vec![0u8; 17]),
            },
            MigMessage::Suspended,
            MigMessage::Resumed,
            MigMessage::PullRequest { block: 12345 },
            MigMessage::PostCopyBlock {
                block: 77,
                pulled: true,
                payload_len: 512,
                payload: Some(Bytes::from(vec![3u8; 512])),
            },
            MigMessage::PushComplete,
            MigMessage::MigrationComplete,
            MigMessage::CompleteAck,
            MigMessage::Barrier,
            MigMessage::BarrierAck,
            MigMessage::SessionHello {
                session_id: 0xDEAD_BEEF_CAFE,
                attempt: 3,
                dedup: true,
                compress: false,
                incremental: true,
            },
            MigMessage::ResumeFrom {
                phase: crate::proto::ResumePhase::PostCopy,
                dedup: false,
                compress: true,
                disk_bitmap: Bytes::from(vec![5u8; 33]),
                mem_bitmap: Bytes::from(vec![]),
            },
            MigMessage::BlockRef {
                block: 4242,
                fingerprint: 0x0123_4567_89AB_CDEF,
            },
            MigMessage::BlockRefs {
                blocks: vec![4242, 7, 4243],
                fingerprints: vec![0x0123_4567_89AB_CDEF, 1, 0x0123_4567_89AB_CDEF],
            },
            MigMessage::BlockRefs {
                blocks: vec![],
                fingerprints: vec![],
            },
            MigMessage::BlockRefMiss { block: 4242 },
            MigMessage::ContentSummary {
                fingerprints: (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(),
            },
            MigMessage::CompressedBlocks {
                blocks: vec![3, 8, 11],
                raw_len: 3 * 4096,
                payload: Bytes::from(compress_blocks(&vec![9u8; 3 * 4096], 4096)),
            },
            MigMessage::CompressedPages {
                pages: vec![0, 511],
                raw_len: 2 * 4096,
                payload: Bytes::from(compress_blocks(&vec![0u8; 2 * 4096], 4096)),
            },
            MigMessage::BlockRequest {
                block: 991,
                fingerprint: 0xFEED_FACE_0123,
                generation: 7,
            },
            MigMessage::BlockData {
                block: 991,
                generation: 7,
                payload_len: 4096,
                payload: Some(Bytes::from(vec![11u8; 4096])),
            },
            MigMessage::BlockData {
                block: 992,
                generation: 0,
                payload_len: 4096,
                payload: None,
            },
            MigMessage::BlockMiss { block: 991 },
            MigMessage::BlockManifest {
                blocks: vec![5, 17, 4095],
                fingerprints: vec![0xAAAA, 0xBBBB, 0xCCCC],
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in all_messages() {
            let enc = encode(&msg);
            let back = decode(&enc).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn framing_roundtrips_over_a_stream() {
        let mut wire = Vec::new();
        for msg in all_messages() {
            write_frame(&mut wire, &msg).expect("write");
        }
        let mut cursor = std::io::Cursor::new(wire);
        for expected in all_messages() {
            let got = read_frame(&mut cursor).expect("read");
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99]).is_err());
        // Truncated DiskBlocks.
        let enc = encode(&MigMessage::PullRequest { block: 1 });
        assert!(decode(&enc[..enc.len() - 1]).is_err());
        // Trailing junk.
        let mut enc = encode(&MigMessage::Suspended);
        enc.push(0);
        assert!(decode(&enc).is_err());
        // Bad option tag.
        let mut enc = encode(&MigMessage::CpuState {
            payload_len: 1,
            payload: None,
        });
        let n = enc.len();
        enc[n - 1] = 9;
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn clean_eof_distinguished_from_truncation() {
        // EOF on a frame boundary: clean shutdown.
        let mut wire = Vec::new();
        write_frame(&mut wire, &MigMessage::Suspended).expect("write");
        let mut cursor = std::io::Cursor::new(wire.clone());
        assert_eq!(
            read_frame_or_eof(&mut cursor).expect("frame"),
            Some(MigMessage::Suspended)
        );
        assert_eq!(read_frame_or_eof(&mut cursor).expect("clean eof"), None);

        // EOF inside the length prefix: truncation.
        let mut cursor = std::io::Cursor::new(wire[..2].to_vec());
        assert!(matches!(
            read_frame_or_eof(&mut cursor),
            Err(CodecError::Malformed(_))
        ));

        // EOF inside the body: truncation.
        let mut cursor = std::io::Cursor::new(wire[..wire.len() - 1].to_vec());
        assert!(matches!(
            read_frame_or_eof(&mut cursor),
            Err(CodecError::Malformed(_))
        ));

        // The plain reader maps clean EOF to the typed variant.
        let mut cursor = std::io::Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut cursor), Err(CodecError::CleanEof)));
    }

    #[test]
    fn framed_encoding_is_prefix_plus_body() {
        for msg in all_messages() {
            let body = encode(&msg);
            let framed = encode_framed(&msg);
            assert_eq!(&framed[..4], (body.len() as u32).to_le_bytes());
            assert_eq!(&framed[4..], &body[..]);
        }
    }

    #[test]
    fn bulk_u64_runs_roundtrip_across_chunk_boundaries() {
        // Lengths straddling the bulk-conversion chunk size, including a
        // bitmap-scale run, must decode to exactly what was encoded.
        for n in [0usize, 1, 31, 32, 33, 63, 64, 65, 100_000] {
            let blocks: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
            let msg = MigMessage::DiskBlocks {
                blocks,
                payload_len: 0,
                payload: None,
            };
            let back = decode(&encode(&msg)).unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(back, msg, "n={n}");
        }
    }

    #[test]
    fn compressed_batch_roundtrips_as_one_stream() {
        let bs = 512usize;
        let mut raw = Vec::new();
        raw.extend_from_slice(&vec![0u8; bs]); // pristine block
        raw.extend_from_slice(&vec![0xAAu8; bs]); // run block
        let mut noise = Vec::with_capacity(bs);
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..bs {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            noise.push(x as u8);
        }
        raw.extend_from_slice(&noise); // incompressible block
        let payload = compress_blocks(&raw, bs);
        assert!(payload.len() < bs + 64, "two of three blocks are runs");
        let back = decompress_blocks(&payload, 3, bs).expect("payload decodes");
        assert_eq!(back, raw);
        // Corrupting the payload surfaces as a typed error.
        let mut bad = payload.clone();
        bad[0] = 0x90;
        assert!(decompress_blocks(&bad, 3, bs).is_err());
        // So does any count but the one the stream decodes to, and one no
        // payload of this size could decode to is refused unallocated.
        assert!(decompress_blocks(&payload, 2, bs).is_err());
        assert!(decompress_blocks(&payload, 4, bs).is_err());
        assert!(decompress_blocks(&payload, usize::MAX / 2, bs).is_err());
        assert!(decompress_blocks(&payload, 1 << 20, bs).is_err());
        // A batch that does not compress still decodes: its own bytes
        // behind a literal count, which is why nobody sends it.
        let stored = compress_blocks(&noise, bs);
        assert_eq!(stored.len(), noise.len() + 3);
        assert_eq!(decompress_blocks(&stored, 1, bs).expect("decodes"), noise);
    }

    #[test]
    fn compressed_pages_tag_and_layout_are_pinned() {
        // Tag 26, then the index run, the raw length and the stream, all
        // length-prefixed little-endian. A zero 4 KiB page is a 20-byte
        // stream: one literal, then a match one byte back for the other
        // 4095 (4 + 15 in the token, 15 x 255 + 251 in the chain).
        let msg = MigMessage::CompressedPages {
            pages: vec![7],
            raw_len: 4096,
            payload: Bytes::from(compress_blocks(&[0u8; 4096], 4096)),
        };
        let mut expect = vec![26u8];
        expect.extend_from_slice(&1u64.to_le_bytes());
        expect.extend_from_slice(&7u64.to_le_bytes());
        expect.extend_from_slice(&4096u64.to_le_bytes());
        expect.extend_from_slice(&20u64.to_le_bytes());
        expect.extend_from_slice(&[0x1F, 0x00]);
        expect.extend_from_slice(&1u16.to_le_bytes());
        expect.extend_from_slice(&[255; 15]);
        expect.push(251);
        assert_eq!(encode(&msg), expect);
        assert_eq!(msg.wire_size(), crate::proto::FRAME_OVERHEAD + 8 + 20);
    }

    #[test]
    fn block_refs_tag_and_layout_are_pinned_and_unequal_lengths_are_refused() {
        // Tag 27, then the block run and the fingerprint run, each
        // length-prefixed little-endian: `BlockManifest`'s layout.
        let msg = MigMessage::BlockRefs {
            blocks: vec![5],
            fingerprints: vec![0xAB],
        };
        let mut expect = vec![27u8];
        for word in [1u64, 5, 1, 0xAB] {
            expect.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(encode(&msg), expect);
        assert_eq!(
            msg.wire_size(),
            crate::proto::FRAME_OVERHEAD + crate::proto::BLOCK_REF_WIRE
        );
        // A fingerprint run one longer than the block run: well-formed
        // runs, refused as a whole.
        let mut uneven = vec![27u8];
        for word in [1u64, 5, 2, 0xAB, 0xCD] {
            uneven.extend_from_slice(&word.to_le_bytes());
        }
        assert!(matches!(
            decode(&uneven),
            Err(CodecError::Malformed(m)) if m.contains("1 references with 2 fingerprints")
        ));
        // Every strict prefix of a valid frame is an error.
        for keep in 0..expect.len() {
            assert!(decode(&expect[..keep]).is_err(), "{keep} bytes");
        }
    }

    #[test]
    fn an_owned_frame_lends_its_byte_runs_instead_of_copying_them() {
        for msg in all_messages() {
            let body = encode(&msg);
            let frame = body.as_ptr_range();
            let back = decode_owned(body).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
            let runs: Vec<&Bytes> = match &back {
                MigMessage::DiskBlocks { payload, .. }
                | MigMessage::MemPages { payload, .. }
                | MigMessage::CpuState { payload, .. }
                | MigMessage::PostCopyBlock { payload, .. }
                | MigMessage::BlockData { payload, .. } => payload.iter().collect(),
                MigMessage::CompressedBlocks { payload, .. }
                | MigMessage::CompressedPages { payload, .. } => vec![payload],
                MigMessage::Bitmap { encoded } => vec![encoded],
                MigMessage::ResumeFrom {
                    disk_bitmap,
                    mem_bitmap,
                    ..
                } => vec![disk_bitmap, mem_bitmap],
                _ => vec![],
            };
            for run in runs.into_iter().filter(|r| !r.is_empty()) {
                let at = run.as_ptr_range();
                assert!(
                    frame.start <= at.start && at.end <= frame.end,
                    "{msg:?}: run at {at:?} outside its frame {frame:?}"
                );
            }
        }
        // From a borrowed buffer there is nothing to lend: a copy.
        let body = encode(&MigMessage::Bitmap {
            encoded: Bytes::from(vec![3u8; 64]),
        });
        let MigMessage::Bitmap { encoded } = decode(&body).expect("decodes") else {
            panic!("a bitmap");
        };
        assert!(!body.as_ptr_range().contains(&encoded.as_ptr()));
    }

    /// A writer that takes at most `sip` bytes a call and only from the
    /// first run offered, as a socket under pressure may.
    struct Sipping {
        got: Vec<u8>,
        sip: usize,
        calls: usize,
    }

    impl Write for Sipping {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.sip);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frame_write_survives_partial_writes_and_is_one_call_when_whole() {
        for msg in all_messages() {
            let framed = encode_framed(&msg);
            // Whole: a `Vec` takes every run of a vectored write at once.
            let mut whole = Vec::new();
            write_frame(&mut whole, &msg).expect("write");
            assert_eq!(whole, framed);
            // In sips that split the head, the payload and the seam.
            for sip in [1, 3, 7, 4096] {
                let mut w = Sipping {
                    got: Vec::new(),
                    sip,
                    calls: 0,
                };
                write_frame(&mut w, &msg).expect("write");
                assert_eq!(w.got, framed, "{msg:?} in sips of {sip}");
                assert!(w.calls >= framed.len().div_ceil(sip));
            }
        }
        // A writer that takes nothing is an error, not a spin.
        let mut stuck = Sipping {
            got: Vec::new(),
            sip: 0,
            calls: 0,
        };
        assert!(matches!(
            write_frame(&mut stuck, &MigMessage::Suspended),
            Err(CodecError::Io(e)) if e.kind() == std::io::ErrorKind::WriteZero
        ));
    }

    #[test]
    fn a_message_too_large_to_frame_is_refused_before_a_byte_is_written() {
        // One byte over: the head is tag + id run + lengths + option tag.
        let head = encode(&MigMessage::DiskBlocks {
            blocks: vec![0],
            payload_len: 0,
            payload: Some(Bytes::new()),
        })
        .len();
        let fits = MAX_FRAME as usize - head;
        let msg = |payload_bytes: usize| MigMessage::DiskBlocks {
            blocks: vec![0],
            payload_len: 0,
            // Zero pages the test never touches.
            payload: Some(Bytes::from(vec![0u8; payload_bytes])),
        };
        let mut wire = Sipping {
            got: Vec::new(),
            sip: 0,
            calls: 0,
        };
        assert!(matches!(
            write_frame(&mut wire, &msg(fits + 1)),
            Err(CodecError::FrameTooLarge(n)) if n == MAX_FRAME as usize + 1
        ));
        assert_eq!(wire.calls, 0, "refused after writing");
        // Exactly the limit frames, and says so in its prefix.
        let at_limit = msg(fits);
        let (head, tail) = frame_parts(&at_limit).expect("at the limit");
        assert_eq!(head[..4], MAX_FRAME.to_le_bytes());
        assert_eq!(head.len() - 4 + tail.len(), MAX_FRAME as usize);
    }

    /// Delivers `have` bytes of a stream, then ends it.
    fn short_stream(have: usize) -> impl Read {
        std::io::repeat(0xA5).take(have as u64)
    }

    #[test]
    fn a_length_prefix_reserves_no_more_than_a_bound_ahead_of_the_bytes_behind_it() {
        // 64 MiB promised, 3 bytes delivered: one `BODY_RESERVE`.
        let mut body = Vec::new();
        let err = read_body(&mut short_stream(3), MAX_FRAME as usize, &mut body);
        assert!(matches!(err, Err(CodecError::Malformed(m)) if m.contains("truncated")));
        assert_eq!(body.len(), 3);
        assert!(body.capacity() <= BODY_RESERVE, "{} B", body.capacity());
        // 64 MiB promised, 5 MiB delivered: grown by doubling what came.
        let have = 5 * 1024 * 1024;
        let mut body = Vec::new();
        assert!(read_body(&mut short_stream(have), MAX_FRAME as usize, &mut body).is_err());
        assert_eq!(body.len(), have);
        assert!(body.capacity() <= 2 * have, "{} B", body.capacity());
        // An honest frame is one exact allocation.
        let mut body = Vec::new();
        read_body(&mut short_stream(4096), 1000, &mut body).expect("whole");
        assert_eq!((body.len(), body.capacity()), (1000, 1000));
        // And the frame reader says the same through its own door.
        let mut wire = MAX_FRAME.to_le_bytes().to_vec();
        wire.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame_or_eof(&mut std::io::Cursor::new(wire)),
            Err(CodecError::Malformed(m)) if m.contains("truncated")
        ));
    }

    #[test]
    fn read_frame_rejects_oversized_length() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&[0; 8]);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CodecError::Malformed(_))
        ));
    }
}
