//! Lock-free bitmap for the concurrent write-interception path.
//!
//! In the paper the modified `blkback` driver records every guest write into
//! the block-bitmap while the migration process (`blkd`) periodically copies
//! and resets it at iteration boundaries. Guest I/O and the migration loop
//! run concurrently, so the interception-side bitmap must be thread safe
//! without serializing guest writes — exactly what per-word atomic
//! fetch-or/swap provides.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{tail_mask, words_for, DirtyMap, FlatBitmap, BITS_PER_WORD};

/// A concurrently-writable bitmap backed by `AtomicU64` words.
///
/// Writers call [`AtomicBitmap::set`] from any number of threads; the
/// migration loop calls [`AtomicBitmap::snapshot_and_clear`] to atomically
/// drain the accumulated dirty set for one pre-copy iteration. A write that
/// races with the drain lands either in the drained snapshot or in the next
/// iteration's map — never lost, which is the correctness property the
/// migration algorithm needs (a block may be transferred twice, but a dirty
/// block is never skipped).
#[derive(Default)]
pub struct AtomicBitmap {
    nbits: usize,
    words: Vec<AtomicU64>,
}

impl std::fmt::Debug for AtomicBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicBitmap")
            .field("nbits", &self.nbits)
            .field("count_ones", &self.count_ones())
            .finish()
    }
}

impl AtomicBitmap {
    /// Create an all-clean atomic bitmap over `nbits` blocks.
    pub fn new(nbits: usize) -> Self {
        let mut words = Vec::with_capacity(words_for(nbits));
        words.resize_with(words_for(nbits), || AtomicU64::new(0));
        Self { nbits, words }
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// `true` when the map tracks zero blocks.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Mark block `idx` dirty. Returns the previous value of the bit.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    pub fn set(&self, idx: usize) -> bool {
        self.check(idx);
        let mask = 1u64 << (idx % BITS_PER_WORD);
        let prev = self.words[idx / BITS_PER_WORD].fetch_or(mask, Ordering::AcqRel);
        prev & mask != 0
    }

    /// Mark block `idx` clean. Returns the previous value of the bit.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    pub fn clear(&self, idx: usize) -> bool {
        self.check(idx);
        let mask = 1u64 << (idx % BITS_PER_WORD);
        let prev = self.words[idx / BITS_PER_WORD].fetch_and(!mask, Ordering::AcqRel);
        prev & mask != 0
    }

    /// Read the bit for block `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    pub fn get(&self, idx: usize) -> bool {
        self.check(idx);
        let mask = 1u64 << (idx % BITS_PER_WORD);
        self.words[idx / BITS_PER_WORD].load(Ordering::Acquire) & mask != 0
    }

    /// Number of dirty blocks at this instant (racy under concurrent
    /// writers, exact when quiescent).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Atomically drain the bitmap: every word is swapped with zero and the
    /// pre-swap contents are returned as a [`FlatBitmap`] snapshot.
    ///
    /// This is the paper's iteration boundary: "At the beginning of each
    /// iteration, after the block-bitmap is copied to blkd, it is reset for
    /// recording dirty blocks in the next iteration."
    pub fn snapshot_and_clear(&self) -> FlatBitmap {
        let words: Vec<u64> = self
            .words
            .iter()
            .map(|w| w.swap(0, Ordering::AcqRel))
            .collect();
        FlatBitmap::from_words(self.nbits, words)
    }

    /// Non-destructive copy of the current contents.
    pub fn snapshot(&self) -> FlatBitmap {
        let words: Vec<u64> = self
            .words
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .collect();
        FlatBitmap::from_words(self.nbits, words)
    }

    /// Overwrite the contents from a dense bitmap (used when seeding the
    /// destination's transferred-bitmap at the start of post-copy).
    ///
    /// # Panics
    /// Panics when lengths differ.
    pub fn load_from(&self, src: &FlatBitmap) {
        assert_eq!(self.nbits, src.len(), "bitmap sizes must match");
        for (w, s) in self.words.iter().zip(src.words()) {
            w.store(*s, Ordering::Release);
        }
    }

    /// Clear every bit.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }

    /// Set every bit.
    pub fn set_all(&self) {
        let n = self.words.len();
        for (i, w) in self.words.iter().enumerate() {
            let val = if i + 1 == n {
                tail_mask(self.nbits)
            } else {
                u64::MAX
            };
            w.store(val, Ordering::Release);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_clear() {
        let bm = AtomicBitmap::new(130);
        assert!(!bm.set(129));
        assert!(bm.set(129));
        assert!(bm.get(129));
        assert!(!bm.get(0));
        assert!(bm.clear(129));
        assert!(!bm.clear(129));
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn snapshot_and_clear_drains() {
        let bm = AtomicBitmap::new(200);
        for i in [0usize, 63, 64, 199] {
            bm.set(i);
        }
        let snap = bm.snapshot_and_clear();
        assert_eq!(snap.to_indices(), vec![0, 63, 64, 199]);
        assert_eq!(bm.count_ones(), 0);
        // Second drain is empty.
        assert!(bm.snapshot_and_clear().none_set());
    }

    #[test]
    fn snapshot_is_nondestructive() {
        let bm = AtomicBitmap::new(100);
        bm.set(42);
        let snap = bm.snapshot();
        assert!(snap.get(42));
        assert!(bm.get(42));
    }

    #[test]
    fn load_from_and_set_all() {
        let bm = AtomicBitmap::new(70);
        bm.set_all();
        assert_eq!(bm.count_ones(), 70);
        let mut flat = FlatBitmap::new(70);
        flat.set(7);
        bm.load_from(&flat);
        assert_eq!(bm.snapshot().to_indices(), vec![7]);
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        // 8 threads each set a disjoint slice; a drainer loops concurrently.
        // Union of all drained snapshots must equal the full set.
        let bm = Arc::new(AtomicBitmap::new(8 * 4096));
        let mut joins = Vec::new();
        for t in 0..8 {
            let bm = Arc::clone(&bm);
            joins.push(std::thread::spawn(move || {
                for i in 0..4096 {
                    bm.set(t * 4096 + i);
                }
            }));
        }
        let drainer = {
            let bm = Arc::clone(&bm);
            std::thread::spawn(move || {
                let mut acc = FlatBitmap::new(8 * 4096);
                for _ in 0..100 {
                    acc.union_with(&bm.snapshot_and_clear());
                }
                acc
            })
        };
        for j in joins {
            j.join().unwrap();
        }
        let mut acc = drainer.join().unwrap();
        acc.union_with(&bm.snapshot_and_clear());
        assert_eq!(acc.count_ones(), 8 * 4096);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        AtomicBitmap::new(8).set(8);
    }
}
