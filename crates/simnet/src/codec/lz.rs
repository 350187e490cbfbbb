//! Hand-rolled block compression for residual full-block sends:
//! run-length and LZ77-style back-references, no dependencies.
//!
//! A compressed block is a self-describing frame (DESIGN.md §15):
//!
//! ```text
//! [scheme: u8][payload_len: u32 LE][payload]
//! ```
//!
//! The decoder needs nothing but the frame: `RLE` payloads are
//! `[run: u32 LE][byte]` pairs, `LZ` payloads are LZ4-like sequences
//! (token of literal/match nibbles with 255-chain extensions, literals,
//! 2-byte little-endian back-reference offset), `SCHEME_RAW` carries the
//! block verbatim — which is what bounds every frame at `raw + HEADER`
//! bytes.
//!
//! The encoder ([`compress_block_into`]) is built to cost close to
//! nothing on data that will not compress, because that is what most of
//! a unique image is: frames are appended straight into the caller's
//! batch buffer, the hash table lives in a caller-owned [`Scratch`], the
//! match search skips ahead faster the longer it goes without a match,
//! and it stops the moment the frame can no longer come out smaller than
//! the best alternative in hand. RLE is tried only on a block that opens
//! with a run (a zeroed block costs about one read pass); when both RLE
//! and LZ succeed the smaller payload is kept.
//!
//! This module sits on the transport receive path (lintkit
//! `no-panic-transport` zone): malformed frames surface as
//! [`CorruptFrame`], never as a panic, and no decode step allocates
//! beyond the caller's `max_out`.

use std::fmt;

/// Bytes of frame header in front of every compressed payload.
pub const HEADER: usize = 5;

/// Scheme byte: payload is the raw block.
pub const SCHEME_RAW: u8 = 0;
/// Scheme byte: payload is `[run: u32 LE][byte]` pairs.
pub const SCHEME_RLE: u8 = 1;
/// Scheme byte: payload is LZ77 sequences.
pub const SCHEME_LZ: u8 = 2;

const MIN_MATCH: usize = 4;
const HASH_LOG: u32 = 13;
/// The match search widens its stride by one byte per this many
/// consecutive probes that found nothing (LZ4's "acceleration").
const SKIP_SHIFT: u32 = 6;

/// A compressed frame failed validation during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptFrame;

impl fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt compressed block frame")
    }
}

impl std::error::Error for CorruptFrame {}

/// Encoder working memory, reused across the blocks of a batch so a
/// block costs no allocation. Carries no state from one block to the
/// next: a block compresses to the same bytes whatever came before it.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Hash of a 4-byte sequence → position + 1 of its last occurrence in
    /// the current block (0 = none).
    table: Vec<u32>,
}

fn read_u32(src: &[u8], at: usize) -> u32 {
    let b = &src[at..at + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn read_u64(src: &[u8], at: usize) -> u64 {
    let b = &src[at..at + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Length of the common prefix of `a` and `b`, eight bytes per step.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut k = 0usize;
    while k + 8 <= n {
        let diff = read_u64(a, k) ^ read_u64(b, k);
        if diff != 0 {
            return k + (diff.trailing_zeros() / 8) as usize;
        }
        k += 8;
    }
    while k < n && a[k] == b[k] {
        k += 1;
    }
    k
}

/// Compress one block and append its frame to `out`, choosing among
/// raw/RLE/LZ. The frame always includes the [`HEADER`] and is never
/// longer than `raw.len() + HEADER`.
pub fn compress_block_into(raw: &[u8], out: &mut Vec<u8>, scratch: &mut Scratch) {
    let frame = out.len();
    out.extend_from_slice(&[0u8; HEADER]);
    let body = out.len();
    let mut scheme = SCHEME_RAW;
    // A payload is kept only when strictly smaller than the best so far.
    let mut best = raw.len();
    if raw.len() >= 8 && raw[..8] == [raw[0]; 8] {
        if rle_compress(raw, out, best) {
            scheme = SCHEME_RLE;
            best = out.len() - body;
        } else {
            out.truncate(body);
        }
    }
    let lz = out.len();
    if lz_compress(raw, out, best, scratch) {
        scheme = SCHEME_LZ;
        best = out.len() - lz;
        out.copy_within(lz.., body);
    }
    if scheme == SCHEME_RAW {
        out.truncate(body);
        out.extend_from_slice(raw);
    } else {
        // The winning payload sits at `body`; drop what lost behind it.
        out.truncate(body + best);
    }
    let payload_len = (out.len() - body) as u32;
    out[frame] = scheme;
    out[frame + 1..body].copy_from_slice(&payload_len.to_le_bytes());
}

/// Decode one frame produced by [`compress_block_into`], appending the
/// block to `out`. `max_out` bounds the decompressed size (callers pass
/// the negotiated block size), so a corrupt frame cannot balloon memory.
/// On error `out` is left as it was.
///
/// Returns the total frame length consumed.
pub fn decompress_block_into(
    frame: &[u8],
    max_out: usize,
    out: &mut Vec<u8>,
) -> Result<usize, CorruptFrame> {
    let (&scheme, rest) = frame.split_first().ok_or(CorruptFrame)?;
    let len_bytes = rest.get(..4).ok_or(CorruptFrame)?;
    let plen =
        u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
    let payload = rest
        .get(4..)
        .and_then(|p| p.get(..plen))
        .ok_or(CorruptFrame)?;
    let base = out.len();
    let decoded = match scheme {
        SCHEME_RAW if payload.len() <= max_out => {
            out.extend_from_slice(payload);
            Ok(())
        }
        SCHEME_RLE => rle_decompress(payload, max_out, out),
        SCHEME_LZ => lz_decompress(payload, max_out, out),
        _ => Err(CorruptFrame),
    };
    if decoded.is_err() {
        out.truncate(base);
    }
    decoded.map(|()| HEADER + plen)
}

/// [`decompress_block_into`] a fresh buffer: the decompressed bytes and
/// the frame length consumed.
pub fn decompress_block(frame: &[u8], max_out: usize) -> Result<(Vec<u8>, usize), CorruptFrame> {
    let mut out = Vec::new();
    let used = decompress_block_into(frame, max_out, &mut out)?;
    Ok((out, used))
}

/// Run-length encode `src` onto `out`; `false` (with `out` in an
/// unspecified longer state) once the payload reaches `limit` bytes.
fn rle_compress(src: &[u8], out: &mut Vec<u8>, limit: usize) -> bool {
    let start = out.len();
    let mut i = 0usize;
    while i < src.len() {
        let b = src[i];
        let pat = [b; 8];
        let mut j = i + 1;
        // Word-batched run scan: compare eight bytes per step.
        while j + 8 <= src.len() && src[j..j + 8] == pat {
            j += 8;
        }
        while j < src.len() && src[j] == b {
            j += 1;
        }
        out.extend_from_slice(&((j - i) as u32).to_le_bytes());
        out.push(b);
        if out.len() - start >= limit {
            return false;
        }
        i = j;
    }
    true
}

/// Decode RLE pairs onto `out`, at most `max_out` bytes of them.
fn rle_decompress(src: &[u8], max_out: usize, out: &mut Vec<u8>) -> Result<(), CorruptFrame> {
    let base = out.len();
    let mut pos = 0usize;
    while pos < src.len() {
        let pair = src.get(pos..pos + 5).ok_or(CorruptFrame)?;
        let run = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize;
        if run == 0 || run > max_out - (out.len() - base) {
            return Err(CorruptFrame);
        }
        out.resize(out.len() + run, pair[4]);
        pos += 5;
    }
    Ok(())
}

/// 255-chain length extension (LZ4 style).
fn push_len(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn read_len(src: &[u8], pos: &mut usize) -> Result<usize, CorruptFrame> {
    let mut total = 0usize;
    loop {
        let &b = src.get(*pos).ok_or(CorruptFrame)?;
        *pos += 1;
        total = total.saturating_add(b as usize);
        if b != 255 {
            return Ok(total);
        }
    }
}

/// One LZ sequence: `lits` verbatim, then (when `matched` is `Some`) a
/// back-reference of `MIN_MATCH + mext` bytes at distance `off`.
fn push_sequence(out: &mut Vec<u8>, lits: &[u8], matched: Option<(u16, usize)>) {
    let mext = matched.map_or(0, |(_, mext)| mext);
    out.push(((lits.len().min(15) as u8) << 4) | mext.min(15) as u8);
    if lits.len() >= 15 {
        push_len(out, lits.len() - 15);
    }
    out.extend_from_slice(lits);
    if let Some((off, mext)) = matched {
        out.extend_from_slice(&off.to_le_bytes());
        if mext >= 15 {
            push_len(out, mext - 15);
        }
    }
}

/// Greedy LZ77 with a 4-byte hash table and 16-bit offsets, appended to
/// `out`; `false` (with `out` in an unspecified longer state) when the
/// input is tiny or the payload cannot come out under `limit` bytes.
///
/// Two things keep incompressible input cheap. The stride between probes
/// grows by one for every `1 << SKIP_SHIFT` misses in a row and snaps
/// back to one on a match, so noise is sampled, not scanned. And the
/// literals waiting since the last match must be emitted whatever comes
/// next, so once they alone push the payload to `limit` the search stops.
fn lz_compress(src: &[u8], out: &mut Vec<u8>, limit: usize, scratch: &mut Scratch) -> bool {
    if src.len() < MIN_MATCH + 4 {
        return false;
    }
    // Size the table to the input: small disk blocks get a small table
    // (less zeroing per block), large inputs keep the full hash space.
    let hash_log = HASH_LOG.min(usize::BITS - src.len().leading_zeros());
    if scratch.table.len() < 1 << hash_log {
        scratch.table.resize(1 << hash_log, 0);
    }
    let table = &mut scratch.table[..1 << hash_log];
    table.fill(0);
    let start = out.len();
    let last_probe = src.len() - MIN_MATCH;
    let mut anchor = 0usize;
    let mut misses = 0usize;
    let mut i = 0usize;
    while i <= last_probe {
        let seq = read_u32(src, i);
        let h = (seq.wrapping_mul(0x9E37_79B1) >> (32 - hash_log)) as usize;
        let cand = table[h] as usize;
        table[h] = (i + 1) as u32;
        // A candidate is an earlier probe position, so `c < i`.
        let c = cand.wrapping_sub(1);
        if cand > 0 && i - c <= usize::from(u16::MAX) && read_u32(src, c) == seq {
            let mut mext = common_prefix(&src[c + MIN_MATCH..], &src[i + MIN_MATCH..]);
            // Grow the match backwards over pending literals: a stride
            // wider than one lands past the true start of a match.
            let mut c = c;
            while i > anchor && c > 0 && src[i - 1] == src[c - 1] {
                i -= 1;
                c -= 1;
                mext += 1;
            }
            push_sequence(out, &src[anchor..i], Some(((i - c) as u16, mext)));
            i += MIN_MATCH + mext;
            anchor = i;
            misses = 0;
        } else {
            i += 1 + (misses >> SKIP_SHIFT);
            misses += 1;
        }
        // Whatever follows, the pending literals and one token are owed.
        if out.len() - start + (i.min(src.len()) - anchor) >= limit {
            return false;
        }
    }
    // Final literal-only sequence (possibly empty).
    push_sequence(out, &src[anchor..], None);
    out.len() - start < limit
}

/// Decode LZ sequences onto `out`, at most `max_out` bytes of them.
/// Back-references reach only into this block's own output.
fn lz_decompress(src: &[u8], max_out: usize, out: &mut Vec<u8>) -> Result<(), CorruptFrame> {
    let base = out.len();
    let mut pos = 0usize;
    while pos < src.len() {
        let &token = src.get(pos).ok_or(CorruptFrame)?;
        pos += 1;
        let mut lits = (token >> 4) as usize;
        if lits == 15 {
            lits = lits.saturating_add(read_len(src, &mut pos)?);
        }
        let lit_bytes = src
            .get(pos..)
            .and_then(|s| s.get(..lits))
            .ok_or(CorruptFrame)?;
        if lits > max_out - (out.len() - base) {
            return Err(CorruptFrame);
        }
        out.extend_from_slice(lit_bytes);
        pos += lits;
        if pos == src.len() {
            break;
        }
        let off_bytes = src.get(pos..pos + 2).ok_or(CorruptFrame)?;
        let off = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        pos += 2;
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen = mlen.saturating_add(read_len(src, &mut pos)?);
        }
        mlen = mlen.saturating_add(MIN_MATCH);
        let produced = out.len() - base;
        if off == 0 || off > produced || mlen > max_out - produced {
            return Err(CorruptFrame);
        }
        // `off < mlen` repeats the pattern: each pass copies what exists
        // so far, so the copyable span doubles.
        let start = out.len() - off;
        let mut left = mlen;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress_block(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        compress_block_into(raw, &mut out, &mut Scratch::default());
        out
    }

    fn roundtrip(data: &[u8], bs: usize) {
        let frame = compress_block(data);
        assert!(
            frame.len() <= data.len() + HEADER,
            "bound violated: {}",
            frame.len()
        );
        let (back, used) = decompress_block(&frame, bs).expect("frame decodes");
        assert_eq!(used, frame.len());
        assert_eq!(back, data);
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut next = xorshift(seed);
        (0..len).map(|_| next() as u8).collect()
    }

    /// One 4 KiB block of text the way `benchmark/src/images.rs` builds
    /// it: a 16-digit serial, then sentences from a pool drawn from a
    /// small skewed vocabulary.
    fn text_fixture() -> Vec<u8> {
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let vocabulary: Vec<Vec<u8>> = (0..512)
            .map(|_| {
                let len = 2 + (next() % 8) as usize;
                (0..len).map(|_| b'a' + (next() % 26) as u8).collect()
            })
            .collect();
        let sentences: Vec<Vec<u8>> = (0..2048)
            .map(|_| {
                let mut s = Vec::new();
                for _ in 0..4 + next() % 9 {
                    let u = (next() % 512) as usize;
                    s.extend_from_slice(&vocabulary[u * u / 512]);
                    s.push(b' ');
                }
                s.push(b'\n');
                s
            })
            .collect();
        let mut block = format!("{:016x}", next()).into_bytes();
        while block.len() < 4096 {
            block.extend_from_slice(&sentences[(next() % 2048) as usize]);
        }
        block.truncate(4096);
        block
    }

    #[test]
    fn zero_blocks_collapse() {
        for len in [512usize, 4096] {
            let data = vec![0u8; len];
            let frame = compress_block(&data);
            assert_eq!(frame[0], SCHEME_RLE);
            assert!(
                frame.len() <= 16,
                "{len}-byte zero block frame was {} bytes",
                frame.len()
            );
            roundtrip(&data, len);
        }
    }

    #[test]
    fn repetitive_data_uses_lz_or_rle() {
        let mut data = Vec::new();
        while data.len() < 4096 {
            data.extend_from_slice(b"the same sixteen!");
        }
        data.truncate(4096);
        let frame = compress_block(&data);
        assert!(
            frame.len() < data.len() / 4,
            "compressible data stayed {} bytes",
            frame.len()
        );
        roundtrip(&data, 4096);
    }

    #[test]
    fn incompressible_data_stays_raw_within_bound() {
        let data = noise(0x243F_6A88_85A3_08D3, 4096);
        let frame = compress_block(&data);
        assert_eq!(frame[0], SCHEME_RAW);
        assert_eq!(frame.len(), data.len() + HEADER);
        roundtrip(&data, 4096);
    }

    #[test]
    fn text_compresses_as_well_as_the_unaccelerated_encoder() {
        // 2814 bytes is what the exhaustive (one byte per miss, no early
        // exit) encoder this one replaced made of the same fixture.
        let data = text_fixture();
        let frame = compress_block(&data);
        assert_eq!(frame[0], SCHEME_LZ);
        assert!(
            frame.len() * 100 <= 2814 * 101,
            "text fixture grew to {} bytes",
            frame.len()
        );
        roundtrip(&data, 4096);
    }

    #[test]
    fn long_match_survives_accelerated_skipping() {
        // 2 KiB of noise, then the same 2 KiB again: by the time the
        // search reaches the copy it strides several bytes per probe, and
        // must still land on the match that halves the block.
        for seed in 1..50u64 {
            let mut data = noise(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, 2048);
            data.extend_from_within(..);
            let frame = compress_block(&data);
            assert!(
                frame.len() < 3072,
                "seed {seed}: repeated half left a {}-byte frame",
                frame.len()
            );
            roundtrip(&data, 4096);
        }
    }

    #[test]
    fn scratch_reuse_leaks_nothing_between_blocks() {
        let blocks = [
            text_fixture(),
            vec![0u8; 4096],
            noise(7, 4096),
            text_fixture(),
            noise(9, 512),
            vec![0xAB; 512],
        ];
        let mut batched = Vec::new();
        let mut scratch = Scratch::default();
        let mut separate = Vec::new();
        for b in &blocks {
            compress_block_into(b, &mut batched, &mut scratch);
            separate.extend_from_slice(&compress_block(b));
        }
        assert_eq!(batched, separate);
    }

    #[test]
    fn tiny_and_empty_blocks() {
        roundtrip(&[], 4096);
        roundtrip(&[7], 4096);
        roundtrip(&[1, 2, 3, 4, 5, 6, 7], 4096);
    }

    #[test]
    fn property_roundtrip_arbitrary_bytes_within_bound() {
        // Hand-rolled property test (no proptest dep): 300 xorshift-
        // driven blocks mixing pure noise (incompressible — must stay
        // within raw + HEADER), byte runs, and repeated motifs. The
        // `roundtrip` helper asserts both the size bound and bit-exact
        // recovery.
        let mut next = xorshift(0x853C_49E6_748F_EA9B);
        for case in 0..300 {
            let len = (next() % 4500) as usize;
            let mut data = Vec::with_capacity(len);
            match case % 3 {
                // Incompressible noise.
                0 => data.extend((0..len).map(|_| next() as u8)),
                // Byte runs of arbitrary length.
                1 => {
                    while data.len() < len {
                        let run = 1 + (next() % 300) as usize;
                        let byte = next() as u8;
                        let n = run.min(len - data.len());
                        data.extend(std::iter::repeat_n(byte, n));
                    }
                }
                // A short motif repeated — LZ back-reference shape.
                _ => {
                    let motif: Vec<u8> = (0..1 + (next() % 23) as usize)
                        .map(|_| next() as u8)
                        .collect();
                    while data.len() < len {
                        let n = motif.len().min(len - data.len());
                        data.extend_from_slice(&motif[..n]);
                    }
                }
            }
            roundtrip(&data, 4500);
        }
    }

    #[test]
    fn corrupt_frames_are_typed_errors() {
        assert_eq!(decompress_block(&[], 4096), Err(CorruptFrame));
        assert_eq!(decompress_block(&[9, 0, 0, 0, 0], 4096), Err(CorruptFrame));
        // Truncated payload length.
        assert_eq!(
            decompress_block(&[SCHEME_LZ, 10, 0, 0, 0, 1], 4096),
            Err(CorruptFrame)
        );
        // RLE run overflowing the block size.
        let mut f = vec![SCHEME_RLE, 5, 0, 0, 0];
        f.extend_from_slice(&9000u32.to_le_bytes());
        f.push(0);
        assert_eq!(decompress_block(&f, 4096), Err(CorruptFrame));
        // A frame the compressor produced, bit-flipped scheme.
        let mut frame = compress_block(&vec![3u8; 4096]);
        frame[0] = 7;
        assert_eq!(decompress_block(&frame, 4096), Err(CorruptFrame));
    }

    #[test]
    fn a_failed_frame_leaves_the_shared_buffer_untouched() {
        // Literals decode, then the back-reference points before the
        // block's own start — into the previous block's bytes, which a
        // frame must never reach.
        let mut out = vec![0xEE; 64];
        let bad = [SCHEME_LZ, 8, 0, 0, 0, 0x40, 1, 2, 3, 4, 9, 0, 0];
        assert_eq!(
            decompress_block_into(&bad, 4096, &mut out),
            Err(CorruptFrame)
        );
        assert_eq!(out, vec![0xEE; 64]);
    }
}
