//! Hand-rolled batch compression for residual full-unit sends: one
//! LZ77 stream per batch, no dependencies.
//!
//! The payload of a compressed batch is a single stream of LZ4-like
//! sequences over the concatenated units (DESIGN.md §15):
//!
//! ```text
//! [token: literal-count nibble | match-length nibble]
//! [literal count, 255-chain]? [literals]
//! [offset: u16 LE] [match length, 255-chain]?
//! ```
//!
//! A stream ends after the literals of its last sequence. There is no
//! header: the receiver knows from the message around it how many bytes
//! the stream decodes to, and a batch that does not shrink is not sent as
//! a stream at all. A match may reach back up to 64 KiB into earlier
//! units of the same batch, never further: what a batch decodes to
//! depends on that batch alone.
//!
//! The [`Encoder`] is built to cost close to nothing on data that will
//! not compress, because that is what most of a unique image is: the
//! match search strides faster the longer it goes without a match, so
//! noise is sampled, not scanned. It can stop anywhere and be resumed,
//! so a caller may weigh the head of a stream before paying for the rest.
//!
//! This module sits on the transport receive path (the transport lint
//! zone): malformed streams surface as
//! [`CorruptFrame`], never as a panic, and decoding allocates exactly
//! the caller's `raw_len`.

use std::fmt;

const MIN_MATCH: usize = 4;
const HASH_LOG: u32 = 13;
/// The match search widens its stride by one byte per this many
/// consecutive probes that found nothing (LZ4's "acceleration").
const SKIP_SHIFT: u32 = 6;

/// A compressed stream failed validation during decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptFrame;

impl fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt compressed batch stream")
    }
}

impl std::error::Error for CorruptFrame {}

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

/// Greedy LZ77 over one batch with a 4-byte hash table and 16-bit
/// offsets, resumable: [`Encoder::advance`] in any number of steps and
/// then [`Encoder::finish`] append the bytes one `finish` alone would.
///
/// One table serves the whole batch, so a unit's matches reach into the
/// units before it. The stride between probes grows by one for every
/// `1 << SKIP_SHIFT` misses in a row and snaps back to one on a match:
/// an incompressible batch costs a fraction of one pass and comes out as
/// its own bytes behind a literal count, `len / 255 + 2` bytes longer.
#[derive(Debug)]
pub struct Encoder<'a> {
    src: &'a [u8],
    /// Hash of a 4-byte sequence → position + 1 of its last probed
    /// occurrence (0 = none).
    table: Vec<u32>,
    hash_log: u32,
    /// Start of the literals no sequence has carried yet.
    anchor: usize,
    /// Where the search probes next.
    next: usize,
    /// Probes since the last match.
    misses: usize,
}

impl<'a> Encoder<'a> {
    /// An encoder at the start of `src`. Positions are kept in 32 bits: a
    /// batch is far smaller (`MAX_FRAME`), and past 4 GiB the search only
    /// finds less, every match being verified against `src` itself.
    pub fn new(src: &'a [u8]) -> Self {
        // Sized to the input: a lone small unit zeroes a small table.
        let hash_log = HASH_LOG.min(usize::BITS - src.len().leading_zeros()).max(1);
        Self {
            src,
            table: vec![0; 1 << hash_log],
            hash_log,
            anchor: 0,
            next: 0,
            misses: 0,
        }
    }

    /// Run the match search over positions before `upto`, appending the
    /// sequences it completes to `out` (the same `out` every call). A
    /// match found before `upto` is followed as far as it goes.
    pub fn advance(&mut self, upto: usize, out: &mut Vec<u8>) {
        let src = self.src;
        let Some(last_probe) = src.len().checked_sub(MIN_MATCH) else {
            return;
        };
        let stop = upto.min(last_probe + 1);
        let shift = 32 - self.hash_log;
        let table = self.table.as_mut_slice();
        let (mut i, mut anchor, mut misses) = (self.next, self.anchor, self.misses);
        while i < stop {
            let seq = read_u32(src, i);
            let h = (seq.wrapping_mul(0x9E37_79B1) >> shift) as usize;
            // No entry reads as `usize::MAX`; an entry is an earlier probe.
            let mut c = (table[h] as usize).wrapping_sub(1);
            table[h] = (i + 1) as u32;
            if c < i && i - c <= usize::from(u16::MAX) && read_u32(src, c) == seq {
                let mut mext = common_prefix(&src[c + MIN_MATCH..], &src[i + MIN_MATCH..]);
                // Grow the match backwards over pending literals: a stride
                // wider than one lands past the true start of a match.
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
        }
        (self.next, self.anchor, self.misses) = (i, anchor, misses);
    }

    /// What `out` would hold had the stream ended where the search
    /// stands: the sequences so far plus the literals they leave owed.
    pub fn len_if_ended(&self, out: &[u8]) -> usize {
        out.len() + (self.next.min(self.src.len()) - self.anchor)
    }

    /// Search the rest of the batch and close the stream with the
    /// literals left over, if any.
    pub fn finish(mut self, out: &mut Vec<u8>) {
        self.advance(usize::MAX, out);
        if self.anchor < self.src.len() {
            push_sequence(out, &self.src[self.anchor..], None);
        }
    }
}

/// Decode one stream, appending exactly `raw_len` bytes to `out`.
/// Back-references reach only into this stream's own output, never into
/// what `out` held before. A stream that decodes to more or fewer bytes
/// is corrupt; on error `out` is left as it was.
pub fn decompress_into(src: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), CorruptFrame> {
    let base = out.len();
    // Pre-sized, so a match is one `copy_within` and nothing regrows.
    out.resize(base + raw_len, 0);
    let decoded = decode_exact(src, &mut out[base..]);
    if decoded.is_err() {
        out.truncate(base);
    }
    decoded
}

/// Bytes the decoder moves at a time where there is room to overshoot:
/// a copy of constant length is a pair of register moves, not a call.
const WILD: usize = 16;

/// Decode `src` so that it fills `dst` exactly.
fn decode_exact(src: &[u8], dst: &mut [u8]) -> Result<(), CorruptFrame> {
    let mut pos = 0usize;
    let mut at = 0usize;
    while pos < src.len() {
        let &token = src.get(pos).ok_or(CorruptFrame)?;
        pos += 1;
        let mut lits = (token >> 4) as usize;
        if lits < 15 && pos + WILD <= src.len() && at + WILD <= dst.len() {
            // Short literals with room behind them on both sides: what
            // is copied past `lits` is overwritten by what comes next.
            dst[at..at + WILD].copy_from_slice(&src[pos..pos + WILD]);
        } else {
            if lits == 15 {
                lits = lits.saturating_add(read_len(src, &mut pos)?);
            }
            let lit_bytes = src
                .get(pos..)
                .and_then(|s| s.get(..lits))
                .ok_or(CorruptFrame)?;
            dst.get_mut(at..)
                .and_then(|d| d.get_mut(..lits))
                .ok_or(CorruptFrame)?
                .copy_from_slice(lit_bytes);
        }
        pos += lits;
        at += lits;
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
        if off == 0 || off > at || mlen > dst.len() - at {
            return Err(CorruptFrame);
        }
        let start = at - off;
        let end = at + mlen;
        if off >= WILD && end + WILD <= dst.len() {
            // Source and destination do not overlap within one step.
            let mut from = start;
            while at < end {
                dst.copy_within(from..from + WILD, at);
                from += WILD;
                at += WILD;
            }
            at = end;
        } else {
            // `off < mlen` repeats the pattern: each pass copies what
            // exists so far, so the copyable span doubles.
            while at < end {
                let n = (end - at).min(at - start);
                dst.copy_within(start..start + n, at);
                at += n;
            }
        }
    }
    if at == dst.len() {
        Ok(())
    } else {
        Err(CorruptFrame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Encoder::new(raw).finish(&mut out);
        out
    }

    fn decompress(stream: &[u8], raw_len: usize) -> Result<Vec<u8>, CorruptFrame> {
        let mut out = Vec::new();
        decompress_into(stream, raw_len, &mut out).map(|()| out)
    }

    /// Round trip, and the bound every stream keeps: the input's own
    /// bytes plus a literal count.
    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let stream = compress(data);
        assert!(
            stream.len() <= data.len() + data.len() / 255 + 16,
            "bound violated: {} bytes for {}",
            stream.len(),
            data.len()
        );
        assert_eq!(decompress(&stream, data.len()).as_deref(), Ok(data));
        stream
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

    /// 4 KiB units of text the way `benchmark/src/images.rs` builds
    /// them: a 16-digit serial, then sentences from a pool drawn from a
    /// small skewed vocabulary.
    fn text_units(count: usize) -> Vec<Vec<u8>> {
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
        (0..count)
            .map(|_| {
                let mut unit = format!("{:016x}", next()).into_bytes();
                while unit.len() < 4096 {
                    unit.extend_from_slice(&sentences[(next() % 2048) as usize]);
                }
                unit.truncate(4096);
                unit
            })
            .collect()
    }

    #[test]
    fn zero_units_collapse_into_one_run() {
        // One literal, then an offset-1 match over the rest: a run is
        // nothing but that, whatever number of units it spans.
        let one = roundtrip(&[0u8; 4096]);
        let mut expect = vec![0x1F, 0x00, 0x01, 0x00];
        expect.extend_from_slice(&[255; 15]);
        expect.push(251);
        assert_eq!(one, expect);
        let batch = roundtrip(&vec![0u8; 128 * 4096]);
        assert_eq!(batch.len(), 4 + (128 * 4096 - 1 - MIN_MATCH - 15) / 255 + 1);
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = b"the same sixteen!"
            .iter()
            .copied()
            .cycle()
            .take(4096)
            .collect();
        let stream = roundtrip(&data);
        assert!(
            stream.len() < data.len() / 4,
            "compressible data stayed {} bytes",
            stream.len()
        );
    }

    #[test]
    fn noise_costs_a_fraction_of_a_pass_and_comes_out_no_smaller() {
        // 64 word-random 4 KiB units. The stride only ever widens, so the
        // probes are a small share of the positions; what comes out is the
        // input behind one literal count.
        let data = noise(0x243F_6A88_85A3_08D3, 64 * 4096);
        let mut out = Vec::new();
        let mut enc = Encoder::new(&data);
        enc.advance(usize::MAX, &mut out);
        assert!(out.is_empty(), "noise matched itself");
        assert!(
            enc.misses * 16 < data.len(),
            "{} probes over {} bytes",
            enc.misses,
            data.len()
        );
        enc.finish(&mut out);
        assert_eq!(out.len(), 1 + (data.len() - 15) / 255 + 1 + data.len());
        assert_eq!(out, roundtrip(&data));
    }

    #[test]
    fn text_compresses_as_well_as_the_unaccelerated_encoder() {
        // 2809 bytes is what the exhaustive (one byte per miss) encoder
        // the accelerated one replaced made of the same unit.
        let data = &text_units(1)[0];
        let stream = roundtrip(data);
        assert!(
            stream.len() * 100 <= 2809 * 101,
            "text unit grew to {} bytes",
            stream.len()
        );
    }

    #[test]
    fn a_unit_finds_its_matches_in_the_units_before_it() {
        // Sentences recur across units far more than within one.
        let units = text_units(16);
        let apart: usize = units.iter().map(|u| compress(u).len()).sum();
        let together = roundtrip(&units.concat()).len();
        assert!(
            together * 10 < apart * 7,
            "{together} bytes as one stream, {apart} unit by unit"
        );
    }

    #[test]
    fn long_match_survives_accelerated_skipping() {
        // 2 KiB of noise, then the same 2 KiB again: by the time the
        // search reaches the copy it strides several bytes per probe, and
        // must still land on the match that halves the input.
        for seed in 1..50u64 {
            let mut data = noise(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, 2048);
            data.extend_from_within(..);
            let stream = roundtrip(&data);
            assert!(
                stream.len() < 3072,
                "seed {seed}: repeated half left a {}-byte stream",
                stream.len()
            );
        }
    }

    #[test]
    fn a_mixed_batch_round_trips_within_the_bound_and_text_after_noise_still_shrinks() {
        let text = text_units(9);
        let units = [
            vec![0u8; 4096],
            noise(7, 4096),
            text[0].clone(),
            noise(9, 4096),
            text[0].clone(),
            vec![0xAB; 4096],
        ];
        let stream = roundtrip(&units.concat());
        assert!(stream.len() < 3 * 4096 + 512, "{} bytes", stream.len());
        // The stride 64 units of noise built up (some 90 bytes a probe)
        // costs the text behind them its first match late, once: under a
        // unit's worth of literals, not the text.
        let mut behind_noise = noise(11, 64 * 4096);
        let text_at = behind_noise.len();
        behind_noise.extend_from_slice(&text[1..].concat());
        let stream = roundtrip(&behind_noise);
        let text_alone = compress(&behind_noise[text_at..]).len();
        assert!(
            stream.len() < text_at + text_at / 255 + 2 + text_alone + 4096,
            "{} bytes; the text alone is {text_alone}",
            stream.len()
        );
    }

    #[test]
    fn an_encoder_paused_anywhere_gives_the_bytes_of_one_call() {
        let mut data = text_units(3).concat();
        data.extend_from_slice(&noise(3, 5000));
        data.extend_from_slice(&[0u8; 9000]);
        let whole = compress(&data);
        for stops in [
            vec![0],
            vec![1, 2, 3],
            vec![4096],
            vec![5000, 5001, 12_288, 20_000],
            vec![data.len() - 1],
            vec![data.len(), data.len() + 7],
        ] {
            let mut out = Vec::new();
            let mut enc = Encoder::new(&data);
            for upto in stops {
                enc.advance(upto, &mut out);
                // The estimate is the stream that would end here.
                assert!(enc.len_if_ended(&out) >= out.len());
                assert!(enc.len_if_ended(&out) <= out.len() + data.len());
            }
            enc.finish(&mut out);
            assert_eq!(out, whole);
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
        assert_eq!(roundtrip(&[7]), vec![0x10, 7]);
        roundtrip(&[1, 2, 3, 4, 5, 6, 7]);
        roundtrip(&[5; 8]);
    }

    #[test]
    fn property_roundtrip_arbitrary_bytes_within_bound() {
        // Hand-rolled property test (no proptest dep): 300 xorshift-
        // driven inputs mixing pure noise, byte runs, and repeated
        // motifs. The `roundtrip` helper asserts both the size bound and
        // bit-exact recovery.
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
            roundtrip(&data);
        }
    }

    #[test]
    fn corrupt_streams_are_typed_errors() {
        let data = [3u8; 4096];
        let stream = compress(&data);
        // Too many or too few bytes for what the stream holds.
        assert_eq!(decompress(&stream, 4095), Err(CorruptFrame));
        assert_eq!(decompress(&stream, 4097), Err(CorruptFrame));
        assert_eq!(decompress(&[], 1), Err(CorruptFrame));
        assert_eq!(decompress(&[], 0), Ok(Vec::new()));
        // Cut anywhere, it is short or malformed.
        for cut in 0..stream.len() {
            assert_eq!(decompress(&stream[..cut], 4096), Err(CorruptFrame));
        }
        // Literals the stream does not carry, an offset of zero, a length
        // chain that never ends.
        assert_eq!(decompress(&[0x50, 1, 2], 5), Err(CorruptFrame));
        assert_eq!(decompress(&[0x10, 9, 0, 0], 5), Err(CorruptFrame));
        assert_eq!(decompress(&[0xF0, 255, 255], 4096), Err(CorruptFrame));
    }

    #[test]
    fn a_failed_stream_leaves_the_shared_buffer_untouched() {
        // Four literals decode, then the back-reference points nine
        // bytes back — before the stream's own start, into what the
        // buffer held already, which a stream must never reach.
        let mut out = vec![0xEE; 64];
        let bad = [0x40, 1, 2, 3, 4, 9, 0];
        assert_eq!(decompress_into(&bad, 12, &mut out), Err(CorruptFrame));
        assert_eq!(out, vec![0xEE; 64]);
        // The same reference four bytes back is the stream's own output.
        let good = [0x40, 1, 2, 3, 4, 4, 0];
        assert_eq!(decompress_into(&good, 8, &mut out), Ok(()));
        assert_eq!(out[64..], [1, 2, 3, 4, 1, 2, 3, 4]);
    }
}
