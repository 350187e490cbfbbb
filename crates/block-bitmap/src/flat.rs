//! Dense word-packed bitmap.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::{tail_mask, words_for, DirtyMap, BITS_PER_WORD};

/// Words processed per batched step in the bulk set operations. Eight
/// `u64`s is one cache line: wide enough for the compiler to vectorize
/// the loop body, small enough that the scalar tail stays trivial.
const LANES: usize = 8;

/// Apply `f` word-wise across two equal-length slices in [`LANES`]-wide
/// batches. The fixed-size inner loop over `chunks_exact` compiles to
/// straight-line SIMD on every target the workspace builds for; the
/// remainder (at most `LANES - 1` words) runs scalar.
#[inline]
fn zip_words_in_place(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in (&mut d).zip(&mut s) {
        for i in 0..LANES {
            dc[i] = f(dc[i], sc[i]);
        }
    }
    for (w, o) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *w = f(*w, *o);
    }
}

/// A dense bitmap with one bit per block, packed into `u64` words.
///
/// This is the canonical representation used on the wire and by the
/// migration engine's per-iteration snapshots. Iteration over set bits uses
/// word-level trailing-zero scans, so scanning a mostly-clean map touches
/// one word per 64 blocks.
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatBitmap {
    nbits: usize,
    words: Vec<u64>,
}

impl std::fmt::Debug for FlatBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatBitmap")
            .field("nbits", &self.nbits)
            .field("count_ones", &self.count_ones())
            .finish()
    }
}

impl FlatBitmap {
    /// Create an all-clean bitmap tracking `nbits` blocks.
    pub fn new(nbits: usize) -> Self {
        Self {
            nbits,
            words: vec![0; words_for(nbits)],
        }
    }

    /// Create an all-dirty bitmap tracking `nbits` blocks.
    pub fn all_set(nbits: usize) -> Self {
        let mut bm = Self {
            nbits,
            words: vec![u64::MAX; words_for(nbits)],
        };
        bm.mask_tail();
        bm
    }

    /// Construct from raw words. Bits beyond `nbits` in the last word are
    /// masked off.
    ///
    /// # Panics
    /// Panics when `words.len() != words_for(nbits)`.
    pub fn from_words(nbits: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            words_for(nbits),
            "word count must match bit count"
        );
        let mut bm = Self { nbits, words };
        bm.mask_tail();
        bm
    }

    /// Zero any ghost bits beyond `nbits` in the final word. Every
    /// constructor or bulk fill that could raise bits past the end funnels
    /// through this one helper, so the "no ghost bits" invariant has a
    /// single owner.
    #[inline]
    fn mask_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.nbits);
        }
    }

    /// The backing words, little-bit-endian within each word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate the indices of set bits in ascending order.
    pub fn iter_set(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            nbits: self.nbits,
        }
    }

    /// Bitwise OR `other` into `self`, in word-chunked batches.
    ///
    /// # Panics
    /// Panics when `other` tracks a different number of bits.
    pub fn union_with(&mut self, other: &FlatBitmap) {
        assert_eq!(self.nbits, other.nbits, "bitmap sizes must match");
        zip_words_in_place(&mut self.words, &other.words, |w, o| w | o);
    }

    /// Remove from `self` every bit set in `other` (`self &= !other`), in
    /// word-chunked batches.
    ///
    /// # Panics
    /// Panics when `other` tracks a different number of bits.
    pub fn subtract(&mut self, other: &FlatBitmap) {
        assert_eq!(self.nbits, other.nbits, "bitmap sizes must match");
        zip_words_in_place(&mut self.words, &other.words, |w, o| w & !o);
    }

    /// Bitwise AND with `other`, in word-chunked batches.
    ///
    /// # Panics
    /// Panics when `other` tracks a different number of bits.
    pub fn intersect_with(&mut self, other: &FlatBitmap) {
        assert_eq!(self.nbits, other.nbits, "bitmap sizes must match");
        zip_words_in_place(&mut self.words, &other.words, |w, o| w & o);
    }

    /// Index of the first set bit at or after `from`, if any.
    ///
    /// After the (possibly partial) first word, the scan walks the word
    /// array in [`LANES`]-wide batches: a whole batch whose OR is zero is
    /// skipped with no per-word branch, so sweeping the long clean gaps of
    /// a 40 GB/4 KiB map costs one vectorized reduction per cache line.
    #[inline]
    pub fn next_set_from(&self, from: usize) -> Option<usize> {
        if from >= self.nbits {
            return None;
        }
        let wi = from / BITS_PER_WORD;
        let first = self.words[wi] & (u64::MAX << (from % BITS_PER_WORD));
        if first != 0 {
            let idx = wi * BITS_PER_WORD + first.trailing_zeros() as usize;
            return (idx < self.nbits).then_some(idx);
        }
        let rest = &self.words[wi + 1..];
        let mut base = wi + 1;
        let mut chunks = rest.chunks_exact(LANES);
        for chunk in &mut chunks {
            if chunk.iter().fold(0u64, |a, &w| a | w) != 0 {
                for (i, &w) in chunk.iter().enumerate() {
                    if w != 0 {
                        let idx = (base + i) * BITS_PER_WORD + w.trailing_zeros() as usize;
                        return (idx < self.nbits).then_some(idx);
                    }
                }
            }
            base += LANES;
        }
        for (i, &w) in chunks.remainder().iter().enumerate() {
            if w != 0 {
                let idx = (base + i) * BITS_PER_WORD + w.trailing_zeros() as usize;
                return (idx < self.nbits).then_some(idx);
            }
        }
        None
    }

    /// Split `[0, nbits)` into `k` contiguous, word-aligned, non-overlapping
    /// ranges that together cover the whole bit space. Words are spread as
    /// evenly as possible (the first `words % k` shards get one extra), so
    /// per-stream bitmaps never share a word — each shard can be filled,
    /// scanned and merged without touching its neighbours. When `k` exceeds
    /// the word count the surplus shards come back empty.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn shard_bounds(nbits: usize, k: usize) -> Vec<Range<usize>> {
        assert!(k > 0, "need at least one shard");
        let words = words_for(nbits);
        let base = words / k;
        let extra = words % k;
        let mut out = Vec::with_capacity(k);
        let mut word = 0usize;
        for i in 0..k {
            let take = base + usize::from(i < extra);
            let start = (word * BITS_PER_WORD).min(nbits);
            word += take;
            let end = (word * BITS_PER_WORD).min(nbits);
            out.push(start..end);
        }
        out
    }

    /// Copy of `self` restricted to `range`: same length, but every bit
    /// outside `range` cleared. With ranges from [`FlatBitmap::shard_bounds`]
    /// this yields the per-stream bitmaps of a sharded migration — disjoint,
    /// and OR-ing all shards back together reproduces `self` exactly.
    ///
    /// # Panics
    /// Panics when `range` extends past the bitmap.
    pub fn restrict_to(&self, range: Range<usize>) -> FlatBitmap {
        assert!(range.end <= self.nbits, "range must lie within the bitmap");
        let mut out = FlatBitmap::new(self.nbits);
        if range.start >= range.end {
            return out;
        }
        let first_w = range.start / BITS_PER_WORD;
        let last_w = (range.end - 1) / BITS_PER_WORD;
        out.words[first_w..=last_w].copy_from_slice(&self.words[first_w..=last_w]);
        // Trim the partial boundary words.
        out.words[first_w] &= u64::MAX << (range.start % BITS_PER_WORD);
        let end_rem = range.end % BITS_PER_WORD;
        if end_rem != 0 {
            out.words[last_w] &= (1u64 << end_rem) - 1;
        }
        out
    }

    /// `true` when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    fn check(&self, idx: usize) {
        assert!(
            idx < self.nbits,
            "bit index {idx} out of range for bitmap of {} bits",
            self.nbits
        );
    }
}

impl DirtyMap for FlatBitmap {
    fn len(&self) -> usize {
        self.nbits
    }

    #[inline]
    fn set(&mut self, idx: usize) -> bool {
        self.check(idx);
        let (w, b) = (idx / BITS_PER_WORD, idx % BITS_PER_WORD);
        let prev = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        prev
    }

    #[inline]
    fn clear(&mut self, idx: usize) -> bool {
        self.check(idx);
        let (w, b) = (idx / BITS_PER_WORD, idx % BITS_PER_WORD);
        let prev = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        prev
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        self.check(idx);
        self.words[idx / BITS_PER_WORD] & (1 << (idx % BITS_PER_WORD)) != 0
    }

    fn count_ones(&self) -> usize {
        // Word-chunked with per-lane accumulators: the independent popcount
        // sums vectorize, where a single serial accumulator would chain.
        let mut lanes = [0usize; LANES];
        let mut chunks = self.words.chunks_exact(LANES);
        for chunk in &mut chunks {
            for i in 0..LANES {
                lanes[i] += chunk[i].count_ones() as usize;
            }
        }
        let tail: usize = chunks
            .remainder()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        lanes.iter().sum::<usize>() + tail
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }

    fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    fn to_indices(&self) -> Vec<usize> {
        self.iter_set().collect()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.capacity() * 8
    }
}

/// Iterator over set-bit indices of a [`FlatBitmap`].
pub struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    nbits: usize,
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.word_idx * BITS_PER_WORD + bit;
                return (idx < self.nbits).then_some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clean() {
        let bm = FlatBitmap::new(100);
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 0);
        assert!(bm.none_set());
        assert!((0..100).all(|i| !bm.get(i)));
    }

    #[test]
    fn all_set_masks_tail() {
        let bm = FlatBitmap::all_set(70);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.get(69));
        // Last word must not have ghost bits.
        assert_eq!(bm.words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut bm = FlatBitmap::new(130);
        assert!(!bm.set(0));
        assert!(bm.set(0));
        assert!(!bm.set(64));
        assert!(!bm.set(129));
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.clear(64));
        assert!(!bm.clear(64));
        assert_eq!(bm.count_ones(), 2);
        assert_eq!(bm.to_indices(), vec![0, 129]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        FlatBitmap::new(10).set(10);
    }

    #[test]
    fn iter_set_matches_gets() {
        let mut bm = FlatBitmap::new(300);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 255, 299] {
            bm.set(i);
        }
        let got: Vec<_> = bm.iter_set().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 65, 127, 128, 255, 299]);
    }

    #[test]
    fn iter_set_empty_and_full() {
        assert_eq!(FlatBitmap::new(0).iter_set().count(), 0);
        assert_eq!(FlatBitmap::new(67).iter_set().count(), 0);
        assert_eq!(FlatBitmap::all_set(67).iter_set().count(), 67);
    }

    #[test]
    fn union_subtract_intersect() {
        let mut a = FlatBitmap::new(128);
        let mut b = FlatBitmap::new(128);
        for i in [1usize, 5, 70] {
            a.set(i);
        }
        for i in [5usize, 70, 100] {
            b.set(i);
        }
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_indices(), vec![1, 5, 70, 100]);

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.to_indices(), vec![1]);

        a.intersect_with(&b);
        assert_eq!(a.to_indices(), vec![5, 70]);
    }

    #[test]
    fn next_set_from_walks_forward() {
        let mut bm = FlatBitmap::new(200);
        bm.set(3);
        bm.set(64);
        bm.set(199);
        assert_eq!(bm.next_set_from(0), Some(3));
        assert_eq!(bm.next_set_from(3), Some(3));
        assert_eq!(bm.next_set_from(4), Some(64));
        assert_eq!(bm.next_set_from(65), Some(199));
        assert_eq!(bm.next_set_from(200), None);
        assert_eq!(FlatBitmap::new(0).next_set_from(0), None);
    }

    #[test]
    fn set_all_then_clear_all() {
        let mut bm = FlatBitmap::new(129);
        bm.set_all();
        assert_eq!(bm.count_ones(), 129);
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn from_words_masks_tail() {
        let bm = FlatBitmap::from_words(65, vec![u64::MAX, u64::MAX]);
        assert_eq!(bm.count_ones(), 65);
    }

    #[test]
    fn shard_bounds_partition_word_aligned() {
        for (nbits, k) in [
            (1000usize, 4usize),
            (64, 1),
            (65, 3),
            (9_765_625, 7),
            (10, 4),
        ] {
            let bounds = FlatBitmap::shard_bounds(nbits, k);
            assert_eq!(bounds.len(), k);
            assert_eq!(bounds[0].start, 0);
            assert_eq!(bounds[k - 1].end, nbits);
            for w in bounds.windows(2) {
                assert_eq!(w[0].end, w[1].start, "shards must tile");
            }
            for r in &bounds {
                // Non-empty shards start on a word boundary; empty shards
                // collapse to `nbits..nbits` at the tail.
                if r.start < r.end {
                    assert_eq!(r.start % 64, 0, "shard start must be word aligned");
                }
            }
        }
    }

    #[test]
    fn shards_are_disjoint_and_union_to_original() {
        let mut bm = FlatBitmap::new(1000);
        for i in [0usize, 63, 64, 100, 500, 640, 999] {
            bm.set(i);
        }
        let shards: Vec<_> = FlatBitmap::shard_bounds(1000, 4)
            .into_iter()
            .map(|r| bm.restrict_to(r))
            .collect();
        let total: usize = shards.iter().map(|s| s.count_ones()).sum();
        assert_eq!(total, bm.count_ones(), "no bit may land in two shards");
        let mut merged = FlatBitmap::new(1000);
        for s in &shards {
            merged.union_with(s);
        }
        assert_eq!(merged, bm);
    }

    #[test]
    fn restrict_to_trims_unaligned_edges() {
        let bm = FlatBitmap::all_set(200);
        let r = bm.restrict_to(10..70);
        assert_eq!(r.count_ones(), 60);
        assert_eq!(r.next_set_from(0), Some(10));
        assert_eq!(r.next_set_from(70), None);
        assert!(bm.restrict_to(50..50).none_set());
    }

    #[test]
    fn next_set_from_crosses_long_clean_gaps() {
        // The batched scan must step over multiple whole LANES-chunks.
        let mut bm = FlatBitmap::new(64 * 64);
        bm.set(1);
        bm.set(64 * 63 + 7);
        assert_eq!(bm.next_set_from(2), Some(64 * 63 + 7));
        bm.clear(64 * 63 + 7);
        assert_eq!(bm.next_set_from(2), None);
    }

    #[test]
    fn memory_bytes_scales_with_size() {
        let small = FlatBitmap::new(64);
        let big = FlatBitmap::new(1 << 20);
        assert!(big.memory_bytes() > small.memory_bytes());
        // 1 Mi bits = 128 KiB of words (plus struct header).
        assert!(big.memory_bytes() >= (1 << 20) / 8);
    }
}
