//! The paper's two-layer bitmap (§IV-A-2).
//!
//! > "a bitmap is divided into several parts and organized as two layers.
//! > The upper layer records whether these parts are dirty. If the bitmap
//! > must be checked through, the top layer is checked first, and then only
//! > the parts marked dirty need to be checked further. When using
//! > layered-bitmap, the lower parts are allocated only when there is a
//! > write access to this part, which can reduce bitmap size and save
//! > memory space."

use serde::{Deserialize, Serialize};

use crate::{DirtyMap, FlatBitmap};

/// Default number of blocks covered by one leaf part: 32 Ki blocks
/// (= 128 MiB of disk at 4 KiB blocks, a 4 KiB leaf bitmap).
pub const DEFAULT_PART_BITS: usize = 32 * 1024;

/// Two-layer lazily-allocated bitmap exploiting write locality.
#[derive(Clone, Serialize, Deserialize)]
pub struct LayeredBitmap {
    nbits: usize,
    part_bits: usize,
    /// Top layer: one bit per part, set when the part has any dirty bit.
    top: FlatBitmap,
    /// Leaf bitmaps, allocated on first write into the part.
    parts: Vec<Option<Box<FlatBitmap>>>,
}

impl std::fmt::Debug for LayeredBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredBitmap")
            .field("nbits", &self.nbits)
            .field("part_bits", &self.part_bits)
            .field("allocated_parts", &self.allocated_parts())
            .field("count_ones", &self.count_ones())
            .finish()
    }
}

impl LayeredBitmap {
    /// Create an all-clean layered bitmap over `nbits` blocks with the
    /// default part size.
    pub fn new(nbits: usize) -> Self {
        Self::with_part_bits(nbits, DEFAULT_PART_BITS)
    }

    /// Create an all-clean layered bitmap with `part_bits` blocks per leaf.
    ///
    /// # Panics
    /// Panics when `part_bits == 0`.
    pub fn with_part_bits(nbits: usize, part_bits: usize) -> Self {
        assert!(part_bits > 0, "part size must be non-zero");
        let nparts = nbits.div_ceil(part_bits);
        Self {
            nbits,
            part_bits,
            top: FlatBitmap::new(nparts),
            parts: vec![None; nparts],
        }
    }

    /// Blocks covered by each leaf part.
    pub fn part_bits(&self) -> usize {
        self.part_bits
    }

    /// Number of leaf parts currently allocated.
    pub fn allocated_parts(&self) -> usize {
        self.parts.iter().filter(|p| p.is_some()).count()
    }

    /// Size in bits of part `p` (the final part may be short).
    fn part_len(&self, p: usize) -> usize {
        let start = p * self.part_bits;
        (self.nbits - start).min(self.part_bits)
    }

    /// Flatten into a dense [`FlatBitmap`] with identical contents.
    pub fn to_flat(&self) -> FlatBitmap {
        let mut out = FlatBitmap::new(self.nbits);
        for idx in self.iter_set() {
            out.set(idx);
        }
        out
    }

    /// Iterate set bit indices in ascending order, skipping clean parts
    /// entirely (the scan-cost advantage the paper describes).
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.top.iter_set().flat_map(move |p| {
            let base = p * self.part_bits;
            self.parts[p]
                .as_deref()
                .into_iter()
                .flat_map(move |leaf| leaf.iter_set().map(move |b| base + b))
        })
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

impl DirtyMap for LayeredBitmap {
    fn len(&self) -> usize {
        self.nbits
    }

    fn set(&mut self, idx: usize) -> bool {
        self.check(idx);
        let p = idx / self.part_bits;
        let off = idx % self.part_bits;
        let part_len = self.part_len(p);
        let leaf = self.parts[p].get_or_insert_with(|| Box::new(FlatBitmap::new(part_len)));
        let prev = leaf.set(off);
        self.top.set(p);
        prev
    }

    fn clear(&mut self, idx: usize) -> bool {
        self.check(idx);
        let p = idx / self.part_bits;
        let off = idx % self.part_bits;
        let Some(leaf) = self.parts[p].as_deref_mut() else {
            return false;
        };
        let prev = leaf.clear(off);
        if leaf.none_set() {
            // Keep the invariant: top bit set <=> leaf has a dirty bit.
            // Free the leaf too; locality means it may never be touched
            // again.
            self.parts[p] = None;
            self.top.clear(p);
        }
        prev
    }

    fn get(&self, idx: usize) -> bool {
        self.check(idx);
        let p = idx / self.part_bits;
        self.parts[p]
            .as_deref()
            .is_some_and(|leaf| leaf.get(idx % self.part_bits))
    }

    fn count_ones(&self) -> usize {
        self.parts
            .iter()
            .flatten()
            .map(|leaf| leaf.count_ones())
            .sum()
    }

    fn clear_all(&mut self) {
        self.top.clear_all();
        self.parts.iter_mut().for_each(|p| *p = None);
    }

    fn set_all(&mut self) {
        self.top.set_all();
        for p in 0..self.parts.len() {
            let len = self.part_len(p);
            self.parts[p] = Some(Box::new(FlatBitmap::all_set(len)));
        }
    }

    fn to_indices(&self) -> Vec<usize> {
        self.iter_set().collect()
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.top.memory_bytes()
            + self.parts.capacity() * std::mem::size_of::<Option<Box<FlatBitmap>>>()
            + self
                .parts
                .iter()
                .flatten()
                .map(|leaf| leaf.memory_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_unallocated() {
        let bm = LayeredBitmap::with_part_bits(1000, 64);
        assert_eq!(bm.len(), 1000);
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.allocated_parts(), 0);
    }

    #[test]
    fn set_allocates_only_touched_part() {
        let mut bm = LayeredBitmap::with_part_bits(1000, 64);
        bm.set(5);
        bm.set(6);
        bm.set(999);
        assert_eq!(bm.allocated_parts(), 2);
        assert!(bm.get(5) && bm.get(6) && bm.get(999));
        assert!(!bm.get(7) && !bm.get(64));
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn clear_frees_empty_part() {
        let mut bm = LayeredBitmap::with_part_bits(256, 64);
        bm.set(10);
        bm.set(11);
        assert_eq!(bm.allocated_parts(), 1);
        assert!(bm.clear(10));
        assert_eq!(bm.allocated_parts(), 1);
        assert!(bm.clear(11));
        assert_eq!(bm.allocated_parts(), 0);
        assert!(!bm.clear(11)); // idempotent on clean bit
    }

    #[test]
    fn clear_on_unallocated_part_is_noop() {
        let mut bm = LayeredBitmap::with_part_bits(256, 64);
        assert!(!bm.clear(100));
        assert_eq!(bm.allocated_parts(), 0);
    }

    #[test]
    fn iter_set_sorted_and_complete() {
        let mut bm = LayeredBitmap::with_part_bits(512, 64);
        for i in [511usize, 0, 64, 65, 200] {
            bm.set(i);
        }
        assert_eq!(bm.to_indices(), vec![0, 64, 65, 200, 511]);
    }

    #[test]
    fn short_tail_part() {
        // 100 bits with 64-bit parts: second part is 36 bits.
        let mut bm = LayeredBitmap::with_part_bits(100, 64);
        bm.set(99);
        assert!(bm.get(99));
        bm.set_all();
        assert_eq!(bm.count_ones(), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        LayeredBitmap::with_part_bits(100, 64).get(100);
    }

    #[test]
    fn flat_roundtrip() {
        let mut bm = LayeredBitmap::with_part_bits(777, 50);
        for i in (0..777).step_by(31) {
            bm.set(i);
        }
        let flat = bm.to_flat();
        assert_eq!(flat.to_indices(), bm.to_indices());
    }

    #[test]
    fn memory_smaller_than_flat_when_sparse() {
        // 8 Mi blocks (32 GiB disk at 4 KiB): flat = 1 MiB. A layered map
        // with a handful of localized writes must be far smaller.
        let nbits = 8 * 1024 * 1024;
        let flat = FlatBitmap::new(nbits);
        let mut layered = LayeredBitmap::new(nbits);
        for i in 0..100 {
            layered.set(1_000_000 + i);
        }
        assert!(layered.memory_bytes() < flat.memory_bytes() / 10);
    }

    #[test]
    fn set_all_allocates_everything() {
        let mut bm = LayeredBitmap::with_part_bits(300, 100);
        bm.set_all();
        assert_eq!(bm.allocated_parts(), 3);
        assert_eq!(bm.count_ones(), 300);
        bm.clear_all();
        assert_eq!(bm.allocated_parts(), 0);
        assert_eq!(bm.count_ones(), 0);
    }
}
