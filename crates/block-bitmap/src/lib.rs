//! Block bitmaps for dirty-block tracking during live VM migration.
//!
//! This crate implements the data structure at the heart of the CLUSTER 2008
//! paper *"Live and Incremental Whole-System Migration of Virtual Machines
//! Using Block-Bitmap"*: a bitmap with one bit per fixed-size disk block
//! (typically 4 KiB), used to record which blocks a guest has written while
//! its disk is being copied to another host.
//!
//! Three implementations are provided, each suited to a different point in
//! the migration pipeline:
//!
//! * [`FlatBitmap`] — a dense `Vec<u64>`-backed bitmap. Simple, cache
//!   friendly, and the canonical semantics against which the others are
//!   tested. One bit per block: a 32 GiB disk at 4 KiB granularity costs
//!   1 MiB of memory (the figure the paper quotes).
//! * [`LayeredBitmap`] — the paper's two-layer bitmap (§IV-A-2). The bit
//!   space is divided into fixed-size *parts*; a small top-level bitmap
//!   records which parts contain any dirty bit, and the per-part leaf
//!   bitmaps are allocated lazily on first write. Because disk writes are
//!   highly local, most parts are never allocated, which shrinks both the
//!   memory footprint and the per-iteration scan cost.
//! * [`AtomicBitmap`] — a lock-free bitmap built on `AtomicU64`, used on the
//!   write-interception path (the `blkback` analogue) where guest I/O
//!   threads record dirty blocks concurrently with the migration thread
//!   scanning and resetting the map. `snapshot_and_clear` atomically drains
//!   the map word-by-word, which is exactly the "copy the bitmap to blkd,
//!   then reset it for the next iteration" step of the paper's pre-copy
//!   loop.
//!
//! Supporting pieces:
//!
//! * [`BlockMapper`] — converts byte/sector extents into block index ranges
//!   (the paper's `blkback` "splits the requested area into 4K blocks and
//!   sets corresponding bits").
//! * [`ser`] — compact wire encodings for shipping a bitmap in the
//!   freeze-and-copy phase, where its size contributes to downtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): deterministic.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

mod atomic;
mod flat;
mod layered;
mod mapper;
pub mod ser;

pub use atomic::AtomicBitmap;
pub use flat::FlatBitmap;
pub use layered::LayeredBitmap;
pub use mapper::{BlockMapper, BlockRange};

/// Number of bits per storage word. All implementations pack bits into
/// `u64` words.
pub const BITS_PER_WORD: usize = 64;

/// Common read/write interface over a dirty-block map.
///
/// Both [`FlatBitmap`] and [`LayeredBitmap`] implement this trait so that
/// migration engines can be generic over the tracking structure, and so the
/// test-suite can assert the two stay semantically identical.
pub trait DirtyMap {
    /// Total number of tracked blocks (bits).
    fn len(&self) -> usize;

    /// `true` when the map tracks zero blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark block `idx` dirty. Returns the previous value of the bit.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    fn set(&mut self, idx: usize) -> bool;

    /// Mark block `idx` clean. Returns the previous value of the bit.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    fn clear(&mut self, idx: usize) -> bool;

    /// Read the bit for block `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    fn get(&self, idx: usize) -> bool;

    /// Number of dirty blocks.
    fn count_ones(&self) -> usize;

    /// Mark every block clean.
    fn clear_all(&mut self);

    /// Mark every block dirty (used by IM when no bitmap survives from a
    /// previous migration: "an all-set block-bitmap is generated").
    fn set_all(&mut self);

    /// Collect the indices of all dirty blocks in ascending order.
    fn to_indices(&self) -> Vec<usize>;

    /// Approximate resident memory of the structure in bytes, used for the
    /// layered-vs-flat memory experiment (E10).
    fn memory_bytes(&self) -> usize;
}

/// The indices the set bits of `mask` name in word `word`, ascending:
/// how a caller of a word-at-a-time walk ([`FlatBitmap::take_from`])
/// that needs single indices loops over a mask.
#[inline]
pub fn mask_indices(word: usize, mask: u64) -> impl Iterator<Item = usize> {
    let base = word * BITS_PER_WORD;
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            base + bit
        })
    })
}

/// The highest index a non-empty `mask` names in word `word`: the last
/// unit a word-at-a-time walk handed out.
#[inline]
pub fn mask_last(word: usize, mask: u64) -> usize {
    debug_assert_ne!(mask, 0, "an empty mask names no index");
    word * BITS_PER_WORD + (BITS_PER_WORD - 1 - mask.leading_zeros() as usize)
}

/// Ceiling division of `bits` by the word width.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(BITS_PER_WORD)
}

/// Mask selecting the valid bits of the final word of a `bits`-sized map.
#[inline]
pub(crate) fn tail_mask(bits: usize) -> u64 {
    let rem = bits % BITS_PER_WORD;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_rounds_up() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_covers_partial_words() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(3), 0b111);
        assert_eq!(tail_mask(65), 1);
    }

    #[test]
    fn mask_indices_walks_a_word_ascending() {
        assert_eq!(mask_indices(2, 0).count(), 0);
        let got: Vec<usize> = mask_indices(2, (1 << 63) | 0b1010).collect();
        assert_eq!(got, vec![129, 131, 191]);
        assert_eq!(mask_last(2, (1 << 63) | 0b1010), 191);
        assert_eq!(mask_last(0, 1), 0);
    }

    #[test]
    fn paper_memory_figure_32gib_disk() {
        // The paper: "For a 32GB disk, a 4KB-block bitmap costs only 1MB
        // memory, but a 512B-sector bitmap will use up to 8MB."
        let blocks_4k = 32 * 1024 * 1024 * 1024usize / 4096;
        let sectors = 32 * 1024 * 1024 * 1024usize / 512;
        assert_eq!(words_for(blocks_4k) * 8, 1024 * 1024); // 1 MiB
        assert_eq!(words_for(sectors) * 8, 8 * 1024 * 1024); // 8 MiB
    }
}
