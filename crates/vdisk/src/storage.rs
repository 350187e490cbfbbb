//! The byte store under virtual disks and live guest RAM.

use block_bitmap::{DirtyMap, FlatBitmap};

use crate::{stamp_append, stamp_into};

/// What a store's never-written units read as: its initial content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unwritten {
    /// Zeroes: a blank device.
    Zeroes,
    /// Unit `u` reads as [`stamp_bytes`](crate::stamp_bytes)`(u, 0, len)`:
    /// the image a primary migration's source starts from, computed when
    /// read instead of laid out in memory.
    StampZero,
}

impl Unwritten {
    /// Fill `out` with the initial content of unit `idx`.
    pub fn fill(self, idx: usize, out: &mut [u8]) {
        match self {
            Self::Zeroes => out.fill(0),
            Self::StampZero => stamp_into(idx, 0, out),
        }
    }

    /// Append the `len`-byte initial content of unit `idx` to `out`,
    /// without zeroing the space first.
    pub fn append(self, idx: usize, len: usize, out: &mut Vec<u8>) {
        match self {
            Self::Zeroes => out.resize(out.len() + len, 0),
            Self::StampZero => stamp_append(idx, 0, len, out),
        }
    }
}

/// Dense storage: one contiguous allocation for the whole device.
pub struct DenseStorage {
    block_size: usize,
    data: Vec<u8>,
    /// Allocation map — the paper's block-bitmap put to a second use: set
    /// by every write, never cleared. An unset bit proves the block still
    /// holds the store's initial content, without touching its (lazily
    /// faulted) pages: the content is computed, not stored.
    written: FlatBitmap,
    unwritten: Unwritten,
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
            unwritten: Unwritten::Zeroes,
        }
    }

    /// A dense store whose every block reads as its stamp-0 content until
    /// written, and which occupies no memory until then.
    ///
    /// # Panics
    /// Panics when `block_size == 0`.
    pub fn stamp_zero(block_size: usize, num_blocks: usize) -> Self {
        Self {
            unwritten: Unwritten::StampZero,
            ..Self::new(block_size, num_blocks)
        }
    }

    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        let start = idx * self.block_size;
        start..start + self.block_size
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> usize {
        self.written.len()
    }

    /// Copy block `idx` into `out`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or `out.len() != block_size()`.
    pub fn read_block(&self, idx: usize, out: &mut [u8]) {
        let r = self.range(idx);
        assert_eq!(out.len(), self.block_size, "buffer/block size mismatch");
        if self.written.get(idx) {
            out.copy_from_slice(&self.data[r]);
        } else {
            self.unwritten.fill(idx, out);
        }
    }

    /// Overwrite block `idx` with `data`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or `data.len() != block_size()`.
    pub fn write_block(&mut self, idx: usize, data: &[u8]) {
        let r = self.range(idx);
        assert_eq!(data.len(), self.block_size, "buffer/block size mismatch");
        self.data[r].copy_from_slice(data);
        self.written.set(idx);
    }

    /// Block `idx`'s bytes, lent in place, or `None` for a block that was
    /// never written and so reads as [`Self::unwritten`] content. A block
    /// written with its initial content answers `Some`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range.
    pub fn resident_block(&self, idx: usize) -> Option<&[u8]> {
        let r = self.range(idx);
        self.written.get(idx).then(|| &self.data[r])
    }

    /// What a block [`Self::resident_block`] answers `None` for reads as.
    pub fn unwritten(&self) -> Unwritten {
        self.unwritten
    }

    /// Blocks written at least once: the allocation map's population.
    pub fn written_blocks(&self) -> usize {
        self.written.count_ones()
    }

    /// Append the blocks `idxs`, in order, to `out`, with no buffer
    /// zeroed first only to be overwritten.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn read_blocks_append(&self, idxs: &[usize], out: &mut Vec<u8>) {
        let bs = self.block_size;
        out.reserve(idxs.len() * bs);
        for &idx in idxs {
            match self.resident_block(idx) {
                Some(block) => out.extend_from_slice(block),
                None => self.unwritten.append(idx, bs, out),
            }
        }
    }

    /// Overwrite the blocks `idxs`, in order, with consecutive
    /// `block_size()` pieces of `data` (a repeated index keeps its last
    /// piece). Indices are `u64` as they arrive off the wire, or `usize`.
    ///
    /// # Panics
    /// Panics when an index is out of range or
    /// `data.len() != idxs.len() * block_size()`.
    pub fn write_blocks<I: Copy + TryInto<usize>>(&mut self, idxs: &[I], data: &[u8]) {
        let bs = self.block_size;
        assert_eq!(data.len(), idxs.len() * bs, "buffer/batch size mismatch");
        for (piece, &idx) in data.chunks_exact(bs).zip(idxs) {
            self.write_block(idx.try_into().unwrap_or(usize::MAX), piece);
        }
    }

    /// Bytes of memory the store occupies, approximately: written blocks
    /// only, since the allocation's pages are faulted in by the writes
    /// that touch them and its capacity is a virtual size.
    pub fn resident_bytes(&self) -> usize {
        self.written_blocks() * self.block_size + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut s: DenseStorage) {
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
}
