//! Wire encodings for shipping a block-bitmap between hosts.
//!
//! The bitmap is transferred in the freeze-and-copy phase while the VM is
//! suspended, so every byte of encoding contributes directly to downtime.
//! The paper notes the map is small (1 MiB per 32 GiB disk, "and smaller if
//! layered-bitmap is used"); these encodings realize that: a dense raw
//! encoding for heavily dirty maps, a sparse index encoding for scattered
//! near-empty maps, and a run-length encoding for the common case — a
//! near-empty map whose dirty bits *cluster* (the write locality the whole
//! paper builds on). [`encode`] picks whichever is smallest.

use crate::{DirtyMap, FlatBitmap};

/// Encoding discriminants, stored as the first byte of the wire form.
const TAG_RAW: u8 = 0;
const TAG_SPARSE: u8 = 1;
const TAG_RLE: u8 = 2;

/// Header size: tag byte + u64 bit-count.
const HEADER: usize = 1 + 8;

/// Errors produced when decoding a wire-format bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated,
    /// Unknown encoding tag byte.
    BadTag(u8),
    /// Payload length inconsistent with the header.
    LengthMismatch {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A sparse index lies outside the declared bit count.
    IndexOutOfRange(u64),
    /// The header declares a bit count other than the receiver's.
    WrongBitCount {
        /// Bits the receiver holds.
        expected: u64,
        /// Bits the header declares.
        actual: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "bitmap wire data truncated"),
            Self::BadTag(t) => write!(f, "unknown bitmap encoding tag {t}"),
            Self::LengthMismatch { expected, actual } => {
                write!(f, "bitmap payload length {actual}, expected {expected}")
            }
            Self::IndexOutOfRange(i) => write!(f, "sparse bitmap index {i} out of range"),
            Self::WrongBitCount { expected, actual } => {
                write!(f, "bitmap of {actual} bits, expected {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Words converted per batch in [`encode_raw`]: one stack buffer's worth
/// of word→byte conversion per `extend_from_slice`, instead of a
/// capacity check per word.
const BULK_WORDS: usize = 32;

/// Encode as raw little-endian words: `tag, nbits_le64, words…`.
pub fn encode_raw(bm: &FlatBitmap) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + bm.words().len() * 8);
    out.push(TAG_RAW);
    out.extend_from_slice(&(bm.len() as u64).to_le_bytes());
    let mut chunk = [0u8; BULK_WORDS * 8];
    for words in bm.words().chunks(BULK_WORDS) {
        for (slot, w) in chunk.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&chunk[..words.len() * 8]);
    }
    out
}

/// Encode as a sorted list of set-bit indices: `tag, nbits_le64, idx_le64…`.
pub fn encode_sparse(bm: &FlatBitmap) -> Vec<u8> {
    let ones = bm.count_ones();
    let mut out = Vec::with_capacity(HEADER + ones * 8);
    out.push(TAG_SPARSE);
    out.extend_from_slice(&(bm.len() as u64).to_le_bytes());
    for idx in bm.iter_set() {
        out.extend_from_slice(&(idx as u64).to_le_bytes());
    }
    out
}

/// Encode as run-length pairs of set-bit runs: `tag, nbits_le64,
/// (start_le64, len_le64)…`. Disk writes cluster (the locality the paper
/// builds on), so the dirty map is usually a handful of long runs — far
/// cheaper than one index per bit.
pub fn encode_rle(bm: &FlatBitmap) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + 64);
    out.push(TAG_RLE);
    out.extend_from_slice(&(bm.len() as u64).to_le_bytes());
    for (start, len) in runs(bm) {
        out.extend_from_slice(&(start as u64).to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
    }
    out
}

/// Iterate the maximal runs of set bits as `(start, len)` pairs.
fn runs(bm: &FlatBitmap) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut cursor = 0usize;
    while let Some(start) = bm.next_set_from(cursor) {
        let mut end = start + 1;
        while end < bm.len() && bm.get(end) {
            end += 1;
        }
        out.push((start, end - start));
        cursor = end;
    }
    out
}

/// Encode with whichever of [`encode_raw`] / [`encode_sparse`] /
/// [`encode_rle`] is smallest.
///
/// Sparse wins when fewer than 1/64 of the blocks are dirty and
/// scattered; RLE wins when the dirty bits cluster into runs (the normal
/// case, per the paper's locality argument); raw wins when the map is
/// dense.
pub fn encode(bm: &FlatBitmap) -> Vec<u8> {
    let sparse_len = HEADER + bm.count_ones() * 8;
    let raw_len = HEADER + bm.words().len() * 8;
    let rle_len = HEADER + runs(bm).len() * 16;
    let min = sparse_len.min(raw_len).min(rle_len);
    if min == rle_len {
        encode_rle(bm)
    } else if min == sparse_len {
        encode_sparse(bm)
    } else {
        encode_raw(bm)
    }
}

/// Size in bytes [`encode`] would produce.
pub fn encoded_len(bm: &FlatBitmap) -> usize {
    let sparse_len = HEADER + bm.count_ones() * 8;
    let raw_len = HEADER + bm.words().len() * 8;
    let rle_len = HEADER + runs(bm).len() * 16;
    sparse_len.min(raw_len).min(rle_len)
}

/// The bit count a wire-format bitmap's header declares.
fn declared_bits(data: &[u8]) -> Result<u64, DecodeError> {
    let header = data.get(1..HEADER).ok_or(DecodeError::Truncated)?;
    Ok(u64::from_le_bytes(
        header.try_into().expect("slice is 8 bytes"),
    ))
}

/// [`decode`] for a receiver that knows how many bits the map holds: a
/// header declaring any other count is refused before anything is
/// allocated, so a peer's 9-byte frame cannot size an allocation.
pub fn decode_expecting(data: &[u8], nbits: usize) -> Result<FlatBitmap, DecodeError> {
    let actual = declared_bits(data)?;
    if actual != nbits as u64 {
        return Err(DecodeError::WrongBitCount {
            expected: nbits as u64,
            actual,
        });
    }
    decode(data)
}

/// Decode a wire-format bitmap produced by any of the encoders. The
/// header's bit count sizes the result: a peer's frame goes through
/// [`decode_expecting`].
pub fn decode(data: &[u8]) -> Result<FlatBitmap, DecodeError> {
    let nbits = declared_bits(data)? as usize;
    let payload = &data[HEADER..];
    match data[0] {
        TAG_RAW => {
            let expected = crate::words_for(nbits).checked_mul(8);
            if expected != Some(payload.len()) {
                return Err(DecodeError::LengthMismatch {
                    expected: expected.unwrap_or(usize::MAX),
                    actual: payload.len(),
                });
            }
            let words = payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                .collect();
            Ok(FlatBitmap::from_words(nbits, words))
        }
        TAG_RLE => {
            if !payload.len().is_multiple_of(16) {
                return Err(DecodeError::LengthMismatch {
                    expected: payload.len() / 16 * 16,
                    actual: payload.len(),
                });
            }
            let mut bm = FlatBitmap::new(nbits);
            for pair in payload.chunks_exact(16) {
                let start = u64::from_le_bytes(pair[..8].try_into().expect("8 bytes"));
                let len = u64::from_le_bytes(pair[8..].try_into().expect("8 bytes"));
                let end = start
                    .checked_add(len)
                    .ok_or(DecodeError::IndexOutOfRange(start))?;
                if end > nbits as u64 {
                    return Err(DecodeError::IndexOutOfRange(end));
                }
                for i in start..end {
                    bm.set(i as usize);
                }
            }
            Ok(bm)
        }
        TAG_SPARSE => {
            if !payload.len().is_multiple_of(8) {
                return Err(DecodeError::LengthMismatch {
                    expected: payload.len() / 8 * 8,
                    actual: payload.len(),
                });
            }
            let mut bm = FlatBitmap::new(nbits);
            for c in payload.chunks_exact(8) {
                let idx = u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes"));
                if idx as usize >= nbits {
                    return Err(DecodeError::IndexOutOfRange(idx));
                }
                bm.set(idx as usize);
            }
            Ok(bm)
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nbits: usize, idxs: &[usize]) -> FlatBitmap {
        let mut bm = FlatBitmap::new(nbits);
        for &i in idxs {
            bm.set(i);
        }
        bm
    }

    #[test]
    fn raw_roundtrip() {
        let bm = sample(1000, &[0, 63, 64, 999]);
        let enc = encode_raw(&bm);
        assert_eq!(decode(&enc).unwrap(), bm);
    }

    #[test]
    fn sparse_roundtrip() {
        let bm = sample(100_000, &[5, 99_999]);
        let enc = encode_sparse(&bm);
        assert_eq!(decode(&enc).unwrap(), bm);
    }

    #[test]
    fn auto_picks_smaller() {
        // Nearly empty and scattered: sparse must win (3 isolated bits =
        // 3 RLE runs of 16 bytes vs 3 sparse indices of 8 bytes).
        let sparse_bm = sample(1 << 20, &[1, 5_000, 900_000]);
        let enc = encode(&sparse_bm);
        assert_eq!(enc[0], TAG_SPARSE);
        assert_eq!(enc.len(), encoded_len(&sparse_bm));
        assert_eq!(decode(&enc).unwrap(), sparse_bm);

        // Half dirty: raw must win.
        let mut dense_bm = FlatBitmap::new(1 << 16);
        for i in (0..(1 << 16)).step_by(2) {
            dense_bm.set(i);
        }
        let enc = encode(&dense_bm);
        assert_eq!(enc[0], TAG_RAW);
        assert_eq!(enc.len(), encoded_len(&dense_bm));
    }

    #[test]
    fn empty_bitmap_roundtrip() {
        let bm = FlatBitmap::new(0);
        assert_eq!(decode(&encode(&bm)).unwrap(), bm);
        let bm = FlatBitmap::new(10);
        assert_eq!(decode(&encode(&bm)).unwrap(), bm);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[9; 8]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[9; 9]), Err(DecodeError::BadTag(9)));
        let mut enc = encode_raw(&sample(64, &[1]));
        enc[0] = 7;
        assert_eq!(decode(&enc), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let mut enc = encode_raw(&sample(64, &[1]));
        enc.pop();
        assert!(matches!(
            decode(&enc),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_out_of_range_sparse_index() {
        let bm = sample(64, &[63]);
        let mut enc = encode_sparse(&bm);
        // Overwrite the index with 64 (out of range for 64 bits).
        let n = enc.len();
        enc[n - 8..].copy_from_slice(&64u64.to_le_bytes());
        assert_eq!(decode(&enc), Err(DecodeError::IndexOutOfRange(64)));
    }

    #[test]
    fn rle_roundtrip_and_wins_on_clusters() {
        // Three dense runs across a 10 Mi-block space: RLE needs 3 pairs.
        let mut bm = FlatBitmap::new(10 * 1024 * 1024);
        for base in [1000usize, 500_000, 9_000_000] {
            for i in 0..2_000 {
                bm.set(base + i);
            }
        }
        let rle = encode_rle(&bm);
        assert_eq!(decode(&rle).unwrap(), bm);
        // 6000 dirty bits: sparse = 48 KB, RLE = 48 bytes + header.
        assert!(rle.len() < 100);
        let auto = encode(&bm);
        assert_eq!(auto[0], TAG_RLE, "auto-encoding must pick RLE");
        assert_eq!(auto.len(), encoded_len(&bm));
        assert_eq!(decode(&auto).unwrap(), bm);
    }

    #[test]
    fn rle_rejects_out_of_range_runs() {
        let bm = sample(64, &[60, 61, 62, 63]);
        let mut enc = encode_rle(&bm);
        // Corrupt the run length to overflow the bit space.
        let n = enc.len();
        enc[n - 8..].copy_from_slice(&100u64.to_le_bytes());
        assert!(matches!(decode(&enc), Err(DecodeError::IndexOutOfRange(_))));
    }

    #[test]
    fn paper_sized_bitmap_encodes_compactly() {
        // End of pre-copy for the web workload: 62 dirty blocks out of a
        // 40 GB disk (10 Mi blocks). The paper transfers the bitmap during
        // downtime; sparse encoding keeps that well under a kilobyte.
        let bm = sample(
            10 * 1024 * 1024,
            &(0..62).map(|i| i * 1000).collect::<Vec<_>>(),
        );
        assert!(encoded_len(&bm) < 1024);
        // Raw form would be 1.25 MiB.
        assert!(encode_raw(&bm).len() > 1024 * 1024);
    }
}
