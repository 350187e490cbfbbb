//! Hand-rolled batch compression for residual full-unit sends: one
//! LZ77 stream per batch, no dependencies.
//!
//! The payload of a compressed batch is a single stream of LZ4-like
//! sequences over the concatenated units (DESIGN.md §15):
//!
//! ```text
//! [token: literal-count nibble | match-length nibble]
//! [literal count, 255-chain]? [literals]
//! [offset] [match length, 255-chain]?
//!
//! offset < 2^15:          [u16 LE = offset]                  top bit clear
//! 2^15 <= offset < 2^23:  [u16 LE = offset % 2^15 | 2^15]    top bit set
//!                         [u8 = offset >> 15]
//! ```
//!
//! A stream ends after the literals of its last sequence. There is no
//! header: the receiver knows from the message around it how many bytes
//! the stream decodes to, and a batch that does not shrink is not sent as
//! a stream at all. A match may reach back up to 8 MiB into earlier units
//! of the same batch — anywhere in a batch the live engine forms — never
//! into another: what a batch decodes to depends on that batch alone.
//!
//! The [`Encoder`] is built to cost close to nothing on data that will
//! not compress, because that is what most of a unique image is: the
//! match search strides faster the longer it goes without a match, so
//! noise is sampled, not scanned. It can stop anywhere and be resumed,
//! so a caller may weigh the head of a stream before paying for the rest.
//! Its two hash tables are [`MatchTables`] the caller holds, so a caller
//! that encodes batch after batch allocates them once.
//!
//! This module sits on the transport receive path (the transport lint
//! zone): malformed streams surface as
//! [`CorruptFrame`], never as a panic, and decoding allocates exactly
//! the caller's `raw_len`.

use std::fmt;

/// The shortest match, and the bytes the short table keys on.
const MIN_MATCH: usize = 4;
/// The bytes the long table keys on: what finds the sentence behind the
/// word a short key matches.
const LONG_KEY: usize = 8;
const LONG_LOG: u32 = 16;
const SHORT_LOG: u32 = 14;
/// The match search widens its stride by one byte per this many
/// consecutive probes that found nothing (LZ4's "acceleration").
const SKIP_SHIFT: u32 = 6;
/// Offsets from here on take three bytes, flagged by the top bit of the
/// first two.
const LONG_OFFSET: usize = 1 << 15;
const MAX_OFFSET: usize = (1 << 23) - 1;

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

/// Length of the match at `at` against the earlier `c`, whose first
/// `key` bytes are known to agree.
fn match_len(src: &[u8], c: usize, at: usize, key: usize) -> usize {
    key + common_prefix(&src[c + key..], &src[at + key..])
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
/// back-reference of `MIN_MATCH + mext` bytes at distance `off`, which is
/// at most [`MAX_OFFSET`].
fn push_sequence(out: &mut Vec<u8>, lits: &[u8], matched: Option<(usize, usize)>) {
    let mext = matched.map_or(0, |(_, mext)| mext);
    out.push(((lits.len().min(15) as u8) << 4) | mext.min(15) as u8);
    if lits.len() >= 15 {
        push_len(out, lits.len() - 15);
    }
    out.extend_from_slice(lits);
    if let Some((off, mext)) = matched {
        if off < LONG_OFFSET {
            out.extend_from_slice(&(off as u16).to_le_bytes());
        } else {
            out.extend_from_slice(&((off % LONG_OFFSET) as u16 | LONG_OFFSET as u16).to_le_bytes());
            out.push((off / LONG_OFFSET) as u8);
        }
        if mext >= 15 {
            push_len(out, mext - 15);
        }
    }
}

/// The [`Encoder`]'s two single-slot hash tables, each mapping the hash
/// of the bytes at a position to position + 1 of their latest sighting
/// (0 = none): 2¹⁶ slots keyed on eight bytes, 2¹⁴ keyed on four, both
/// fewer for an input under 64 KiB. Every [`Encoder::new`] clears them,
/// so what a stream holds never depends on what they served before.
#[derive(Debug, Default)]
pub struct MatchTables {
    long: Vec<u32>,
    short: Vec<u32>,
}

impl MatchTables {
    /// Empty, and sized to an input of `len` bytes: a lone small unit
    /// zeroes small tables. The zeroes are written here, not left to the
    /// allocator to fault in lazily: a caller that times the search
    /// (`LzRule`'s sample) must not time the tables' first touch.
    fn clear_for(&mut self, len: usize) {
        let bits = (usize::BITS - len.leading_zeros()).max(1);
        for (table, log) in [(&mut self.long, LONG_LOG), (&mut self.short, SHORT_LOG)] {
            table.clear();
            table.resize(1 << log.min(bits), 0);
        }
    }
}

/// Position + 1 → the earlier position it names, if `i` may refer to it:
/// an empty slot reads as `usize::MAX`, which never may.
fn candidate(slot: u32, i: usize) -> Option<usize> {
    let c = (slot as usize).wrapping_sub(1);
    (c < i && i - c <= MAX_OFFSET).then_some(c)
}

/// Greedy LZ77 over one batch with two hash tables (zstd's "double
/// fast") and offsets that reach across the batch, resumable:
/// [`Encoder::advance`] in any number of steps and then
/// [`Encoder::finish`] append the bytes one `finish` alone would.
///
/// Each probe looks up the eight bytes at a position first, then the
/// four: a short key finds the latest occurrence of a word, a long one
/// the earlier copy of the sentence around it. On a short hit the long
/// key one byte on is probed too, and the longer match is kept. After a
/// match, positions near both its ends are entered in both tables. The
/// stride between probes grows by one for every `1 << SKIP_SHIFT` misses
/// in a row and snaps back to one on a match: an incompressible batch
/// costs a fraction of one pass and comes out as its own bytes behind a
/// literal count, `len / 255 + 2` bytes longer.
#[derive(Debug)]
pub struct Encoder<'a> {
    src: &'a [u8],
    long: &'a mut [u32],
    short: &'a mut [u32],
    /// Start of the literals no sequence has carried yet.
    anchor: usize,
    /// Where the search probes next.
    next: usize,
    /// Probes since the last match.
    misses: usize,
}

impl<'a> Encoder<'a> {
    /// An encoder at the start of `src`, over `tables` cleared for it.
    /// Positions are kept in 32 bits: a batch is far smaller
    /// (`MAX_FRAME`), and past 4 GiB the search only finds less, every
    /// match being verified against `src` itself.
    pub fn new(src: &'a [u8], tables: &'a mut MatchTables) -> Self {
        tables.clear_for(src.len());
        Self {
            src,
            long: &mut tables.long,
            short: &mut tables.short,
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
        // Every probe reads a long key; a match still runs to the end.
        let Some(last_probe) = src.len().checked_sub(LONG_KEY) else {
            return;
        };
        let stop = upto.min(last_probe + 1);
        let long_shift = u64::BITS - self.long.len().trailing_zeros();
        let short_shift = u32::BITS - self.short.len().trailing_zeros();
        let long_hash = |at: usize| {
            (read_u64(src, at).wrapping_mul(0xCF1B_BCDC_B7A5_6463) >> long_shift) as usize
        };
        let short_hash =
            |at: usize| (read_u32(src, at).wrapping_mul(0x9E37_79B1) >> short_shift) as usize;
        // (start, candidate, length) of a match of a key's bytes or more.
        let long_match = |c: Option<usize>, at: usize| {
            c.filter(|&c| read_u64(src, c) == read_u64(src, at))
                .map(|c| (at, c, match_len(src, c, at, LONG_KEY)))
        };
        let short_match = |c: Option<usize>, at: usize| {
            c.filter(|&c| read_u32(src, c) == read_u32(src, at))
                .map(|c| (at, c, match_len(src, c, at, MIN_MATCH)))
        };
        let (long, short) = (&mut *self.long, &mut *self.short);
        let (mut i, mut anchor, mut misses) = (self.next, self.anchor, self.misses);
        while i < stop {
            let (hl, hs) = (long_hash(i), short_hash(i));
            let (cl, cs) = (candidate(long[hl], i), candidate(short[hs], i));
            long[hl] = (i + 1) as u32;
            short[hs] = (i + 1) as u32;
            let found = long_match(cl, i).or_else(|| {
                let word = short_match(cs, i)?;
                if i == last_probe {
                    return Some(word);
                }
                // The word may open a sentence the long key finds a byte on.
                let h = long_hash(i + 1);
                let next = candidate(long[h], i + 1);
                long[h] = (i + 2) as u32;
                Some(
                    long_match(next, i + 1)
                        .filter(|m| m.2 > word.2)
                        .unwrap_or(word),
                )
            });
            let Some((mut at, mut c, mut len)) = found else {
                i += 1 + (misses >> SKIP_SHIFT);
                misses += 1;
                continue;
            };
            // Grow the match backwards over pending literals: a stride
            // wider than one lands past the true start of a match.
            while at > anchor && c > 0 && src[at - 1] == src[c - 1] {
                at -= 1;
                c -= 1;
                len += 1;
            }
            push_sequence(out, &src[anchor..at], Some((at - c, len - MIN_MATCH)));
            let end = at + len;
            for p in [at + 2, end - 2, end - 1] {
                if p <= last_probe {
                    long[long_hash(p)] = (p + 1) as u32;
                    short[short_hash(p)] = (p + 1) as u32;
                }
            }
            i = end;
            anchor = end;
            misses = 0;
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
        let mut off = usize::from(u16::from_le_bytes([off_bytes[0], off_bytes[1]]));
        pos += 2;
        if off >= LONG_OFFSET {
            let &high = src.get(pos).ok_or(CorruptFrame)?;
            pos += 1;
            off = off % LONG_OFFSET + usize::from(high) * LONG_OFFSET;
        }
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
        Encoder::new(raw, &mut MatchTables::default()).finish(&mut out);
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
        let mut tables = MatchTables::default();
        let mut enc = Encoder::new(&data, &mut tables);
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
    fn a_text_batch_finds_its_sentences_across_the_batch() {
        // A match of one word costs about as much as its literals; the
        // long key and the batch-wide offsets find the whole sentence,
        // wherever in the batch it last occurred. The encoder with one
        // 4-byte key and 16-bit offsets made 2.6 x of this.
        let data = text_units(64).concat();
        let stream = roundtrip(&data);
        assert!(
            stream.len() * 35 <= data.len() * 10,
            "{} bytes to {}: {:.2} x",
            data.len(),
            stream.len(),
            data.len() as f64 / stream.len() as f64
        );
    }

    /// A 4 KiB unit of noise, 40 KiB of byte runs, then the unit again:
    /// the repeat is one match 44 KiB back, and nothing nearer matches.
    fn far_repeat() -> Vec<u8> {
        let unit = noise(5, 4096);
        let mut data = unit.clone();
        for byte in 1..=40u8 {
            data.extend_from_slice(&[byte; 1024]);
        }
        data.extend_from_slice(&unit);
        data
    }

    #[test]
    fn a_repeat_past_32_kib_takes_a_three_byte_offset() {
        let data = far_repeat();
        let stream = roundtrip(&data);
        assert!(stream.len() < 4096 + 1024, "{} bytes", stream.len());
        // The stream ends with the repeat: a token, the three offset
        // bytes, and 16 bytes of length chain for its 4 092 - 15 past
        // the token's nibble.
        let off = stream.len() - 19;
        let far = 40 * 1024 + 4096;
        assert_eq!(
            stream[off..off + 3],
            [far as u8, (far >> 8) as u8 | 0x80, (far >> 15) as u8]
        );
        // Cut after the second offset byte, the third is missing.
        assert_eq!(
            decompress(&stream[..off + 2], data.len()),
            Err(CorruptFrame)
        );
        assert_eq!(
            decompress(&stream[..off + 3], data.len()),
            Err(CorruptFrame)
        );
    }

    #[test]
    fn a_long_offset_before_the_stream_start_is_corrupt_and_leaves_the_buffer() {
        // Four literals, then a reference 2^15 bytes back: the buffer
        // holds that many bytes before the stream's own, and a stream
        // must never reach them.
        let mut out = vec![0xEE; 40_000];
        let bad = [0x40, 1, 2, 3, 4, 0x00, 0x80, 0x01];
        assert_eq!(decompress_into(&bad, 12, &mut out), Err(CorruptFrame));
        assert_eq!(decompress_into(&bad[..7], 12, &mut out), Err(CorruptFrame));
        assert_eq!(out, vec![0xEE; 40_000]);
        // The flag with a high byte of zero names a short offset, four
        // bytes back, inside the stream: not canonical, but well formed.
        let good = [0x40, 1, 2, 3, 4, 0x04, 0x80, 0x00];
        assert_eq!(decompress_into(&good, 8, &mut out), Ok(()));
        assert_eq!(out[40_000..], [1, 2, 3, 4, 1, 2, 3, 4]);
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
        let mut tables = MatchTables::default();
        for stops in [
            vec![0],
            vec![1, 2, 3],
            vec![4096],
            vec![5000, 5001, 12_288, 20_000],
            vec![data.len() - 1],
            vec![data.len(), data.len() + 7],
        ] {
            let mut out = Vec::new();
            let mut enc = Encoder::new(&data, &mut tables);
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
    fn held_tables_start_every_encoder_empty() {
        // Entries a batch left behind would let the next one's stream
        // depend on it; `new` clears them even when the size is unchanged.
        let data = text_units(3).concat();
        let mut tables = MatchTables::default();
        Encoder::new(&data, &mut tables).finish(&mut Vec::new());
        assert!(tables.long.iter().any(|&slot| slot != 0));
        let (long, short) = (tables.long.len(), tables.short.len());
        Encoder::new(&data[3000..], &mut tables);
        assert_eq!((tables.long.len(), tables.short.len()), (long, short));
        assert!(tables
            .long
            .iter()
            .chain(&tables.short)
            .all(|&slot| slot == 0));
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
