//! Byte-level backing stores for virtual disks.

use std::collections::BTreeMap;

use block_bitmap::{DirtyMap, FlatBitmap};

/// A block-addressed backing store.
///
/// Implementations are single-threaded; thread safety is added by
/// [`crate::VirtualDisk`], which owns the store behind a lock.
pub trait Storage: Send + Sync {
    /// Block size in bytes.
    fn block_size(&self) -> usize;

    /// Capacity in blocks.
    fn num_blocks(&self) -> usize;

    /// Copy block `idx` into `out`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or `out.len() != block_size()`.
    fn read_block(&self, idx: usize, out: &mut [u8]);

    /// Overwrite block `idx` with `data`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or `data.len() != block_size()`.
    fn write_block(&mut self, idx: usize, data: &[u8]);

    /// Block `idx`'s bytes, lent in place, or `None` for a block that was
    /// never written (it reads as zeroes). A block written with zeroes
    /// may answer either way: callers may rely on `None` meaning zero,
    /// never on zero meaning `None`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range.
    fn resident_block(&self, idx: usize) -> Option<&[u8]>;

    /// Append the blocks `idxs`, in order, to `out`: one dynamic call per
    /// batch instead of one per block (the per-block calls inside are
    /// static — a default method is compiled once per store — which is
    /// why no store overrides this), and no buffer zeroed first only to
    /// be overwritten.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    fn read_blocks_append(&self, idxs: &[usize], out: &mut Vec<u8>) {
        let bs = self.block_size();
        out.reserve(idxs.len() * bs);
        for &idx in idxs {
            match self.resident_block(idx) {
                Some(block) => out.extend_from_slice(block),
                None => out.resize(out.len() + bs, 0),
            }
        }
    }

    /// Overwrite the blocks `idxs`, in order, with consecutive
    /// `block_size()` pieces of `data` (a repeated index keeps its last
    /// piece). Indices are `u64` as they arrive off the wire.
    ///
    /// # Panics
    /// Panics when an index is out of range or
    /// `data.len() != idxs.len() * block_size()`.
    fn write_blocks(&mut self, idxs: &[u64], data: &[u8]) {
        let bs = self.block_size();
        assert_eq!(data.len(), idxs.len() * bs, "buffer/batch size mismatch");
        for (piece, &idx) in data.chunks_exact(bs).zip(idxs) {
            let idx = usize::try_from(idx).unwrap_or(usize::MAX);
            self.write_block(idx, piece);
        }
    }

    /// Bytes of memory the store currently occupies (approximate).
    fn resident_bytes(&self) -> usize;
}

/// Dense storage: one contiguous allocation for the whole device.
pub struct DenseStorage {
    block_size: usize,
    data: Vec<u8>,
    /// Allocation map — the paper's block-bitmap put to a second use: set
    /// by every write, never cleared. An unset bit proves the block still
    /// holds the zeroes it was allocated with, without touching its
    /// (lazily faulted) pages.
    written: FlatBitmap,
}

impl DenseStorage {
    /// Allocate a zero-filled dense store.
    ///
    /// # Panics
    /// Panics when `block_size == 0`.
    pub fn new(block_size: usize, num_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        Self {
            block_size,
            data: vec![0; block_size * num_blocks],
            written: FlatBitmap::new(num_blocks),
        }
    }

    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        let start = idx * self.block_size;
        start..start + self.block_size
    }
}

impl Storage for DenseStorage {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> usize {
        self.written.len()
    }

    fn read_block(&self, idx: usize, out: &mut [u8]) {
        let r = self.range(idx);
        assert_eq!(out.len(), self.block_size, "buffer/block size mismatch");
        out.copy_from_slice(&self.data[r]);
    }

    fn write_block(&mut self, idx: usize, data: &[u8]) {
        let r = self.range(idx);
        assert_eq!(data.len(), self.block_size, "buffer/block size mismatch");
        self.data[r].copy_from_slice(data);
        self.written.set(idx);
    }

    fn resident_block(&self, idx: usize) -> Option<&[u8]> {
        let r = self.range(idx);
        self.written.get(idx).then(|| &self.data[r])
    }

    fn resident_bytes(&self) -> usize {
        self.data.capacity()
    }
}

/// Sparse storage: blocks are allocated on first write; unwritten blocks
/// read as zeroes. Suited to large mostly-empty test disks.
pub struct SparseStorage {
    block_size: usize,
    num_blocks: usize,
    blocks: BTreeMap<usize, Box<[u8]>>,
}

impl SparseStorage {
    /// Create an all-zero sparse store.
    ///
    /// # Panics
    /// Panics when `block_size == 0`.
    pub fn new(block_size: usize, num_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        Self {
            block_size,
            num_blocks,
            blocks: BTreeMap::new(),
        }
    }

    /// Number of blocks actually materialized.
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.len()
    }
}

impl Storage for SparseStorage {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    fn read_block(&self, idx: usize, out: &mut [u8]) {
        assert!(idx < self.num_blocks, "block {idx} out of range");
        assert_eq!(out.len(), self.block_size, "buffer/block size mismatch");
        match self.blocks.get(&idx) {
            Some(b) => out.copy_from_slice(b),
            None => out.fill(0),
        }
    }

    fn resident_block(&self, idx: usize) -> Option<&[u8]> {
        assert!(idx < self.num_blocks, "block {idx} out of range");
        self.blocks.get(&idx).map(|b| &**b)
    }

    fn write_block(&mut self, idx: usize, data: &[u8]) {
        assert!(idx < self.num_blocks, "block {idx} out of range");
        assert_eq!(data.len(), self.block_size, "buffer/block size mismatch");
        if data.iter().all(|&b| b == 0) {
            // Writing zeroes to an unallocated block can stay unallocated.
            if let Some(existing) = self.blocks.get_mut(&idx) {
                existing.fill(0);
            }
        } else {
            self.blocks.insert(idx, data.into());
        }
    }

    fn resident_bytes(&self) -> usize {
        self.blocks.len() * self.block_size + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut s: impl Storage) {
        let bs = s.block_size();
        let mut buf = vec![0u8; bs];

        // Fresh blocks read as zero.
        s.read_block(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));

        // Write/read round-trip.
        let data: Vec<u8> = (0..bs).map(|i| (i % 251) as u8).collect();
        s.write_block(3, &data);
        s.read_block(3, &mut buf);
        assert_eq!(buf, data);

        // Overwrite wins.
        let data2 = vec![0xAB; bs];
        s.write_block(3, &data2);
        s.read_block(3, &mut buf);
        assert_eq!(buf, data2);

        // Neighbours untouched.
        s.read_block(2, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        s.read_block(4, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn dense_roundtrip() {
        exercise(DenseStorage::new(512, 16));
    }

    #[test]
    fn sparse_roundtrip() {
        exercise(SparseStorage::new(512, 16));
    }

    #[test]
    fn sparse_lazy_allocation() {
        let mut s = SparseStorage::new(4096, 1_000_000);
        assert_eq!(s.allocated_blocks(), 0);
        s.write_block(999_999, &vec![7u8; 4096]);
        assert_eq!(s.allocated_blocks(), 1);
        // Zero writes to untouched blocks do not allocate.
        s.write_block(5, &vec![0u8; 4096]);
        assert_eq!(s.allocated_blocks(), 1);
        assert!(s.resident_bytes() < 100_000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dense_out_of_range() {
        let mut s = DenseStorage::new(512, 4);
        s.write_block(4, &[0; 512]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn dense_size_mismatch() {
        let mut s = DenseStorage::new(512, 4);
        s.write_block(0, &[0; 100]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_out_of_range_read() {
        let s = SparseStorage::new(512, 4);
        let mut buf = [0u8; 512];
        s.read_block(9, &mut buf);
    }
}
