//! Byte/sector extent to block index mapping.
//!
//! The paper fixes bit granularity at the 4 KiB block level rather than the
//! 512 B sector level (§IV-A-2) and has `blkback` "split the requested area
//! into 4K blocks and set corresponding bits". [`BlockMapper`] performs that
//! splitting for arbitrary byte extents and sector extents.

use serde::{Deserialize, Serialize};

/// Half-open range of block indices `[start, end)` touched by an extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockRange {
    /// First block index covered.
    pub start: usize,
    /// One past the last block index covered.
    pub end: usize,
}

impl BlockRange {
    /// Number of blocks in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the range covers no blocks.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Iterate the block indices in the range.
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Maps byte and sector extents onto block indices for a device with a
/// fixed block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMapper {
    block_size: u64,
    sector_size: u64,
    num_blocks: usize,
}

impl BlockMapper {
    /// Standard sector size assumed throughout the paper (512 B).
    pub const SECTOR_SIZE: u64 = 512;

    /// Standard block size used by the paper (4 KiB).
    pub const BLOCK_SIZE_4K: u64 = 4096;

    /// Create a mapper for a device of `num_blocks` blocks of `block_size`
    /// bytes with 512-byte sectors.
    ///
    /// # Panics
    /// Panics unless `block_size` is a positive multiple of the sector
    /// size.
    pub fn new(block_size: u64, num_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        assert_eq!(
            block_size % Self::SECTOR_SIZE,
            0,
            "block size must be a multiple of the sector size"
        );
        Self {
            block_size,
            sector_size: Self::SECTOR_SIZE,
            num_blocks,
        }
    }

    /// Mapper for the paper's canonical 4 KiB-block layout over a device of
    /// `capacity_bytes` (rounded up to whole blocks).
    pub fn paper_default(capacity_bytes: u64) -> Self {
        let blocks = capacity_bytes.div_ceil(Self::BLOCK_SIZE_4K) as usize;
        Self::new(Self::BLOCK_SIZE_4K, blocks)
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Device capacity in blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.block_size * self.num_blocks as u64
    }

    /// Blocks touched by the byte extent `[offset, offset + len)`.
    /// A zero-length extent touches no blocks.
    ///
    /// # Panics
    /// Panics when the extent extends past the end of the device.
    pub fn byte_extent(&self, offset: u64, len: u64) -> BlockRange {
        if len == 0 {
            let start = (offset / self.block_size) as usize;
            return BlockRange { start, end: start };
        }
        let start = (offset / self.block_size) as usize;
        let end = ((offset + len - 1) / self.block_size) as usize + 1;
        assert!(
            end <= self.num_blocks,
            "byte extent [{offset}, {}) out of range",
            offset + len
        );
        BlockRange { start, end }
    }

    /// Blocks touched by the sector extent `[sector, sector + count)`.
    ///
    /// # Panics
    /// Panics when the extent extends past the end of the device.
    pub fn sector_extent(&self, sector: u64, count: u64) -> BlockRange {
        self.byte_extent(sector * self.sector_size, count * self.sector_size)
    }

    /// Byte offset of the start of block `block`.
    ///
    /// # Panics
    /// Panics when `block` is out of range.
    pub fn byte_of_block(&self, block: usize) -> u64 {
        assert!(block < self.num_blocks, "block {block} out of range");
        block as u64 * self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        // 40 GB VBD as in the paper's testbed.
        let m = BlockMapper::paper_default(40 * 1024 * 1024 * 1024);
        assert_eq!(m.block_size(), 4096);
        assert_eq!(m.num_blocks(), 10 * 1024 * 1024);
        // Eight 512 B sectors to a block.
        let r = m.sector_extent(8, 8);
        assert_eq!((r.start, r.end), (1, 2));
    }

    #[test]
    fn byte_extent_within_one_block() {
        let m = BlockMapper::new(4096, 100);
        let r = m.byte_extent(100, 200);
        assert_eq!((r.start, r.end), (0, 1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn byte_extent_spanning_blocks() {
        let m = BlockMapper::new(4096, 100);
        // Crosses the 4096 boundary: blocks 0 and 1.
        let r = m.byte_extent(4000, 200);
        assert_eq!((r.start, r.end), (0, 2));
        // Exactly block-aligned 3 blocks.
        let r = m.byte_extent(4096, 3 * 4096);
        assert_eq!((r.start, r.end), (1, 4));
    }

    #[test]
    fn byte_extent_zero_length_is_empty() {
        let m = BlockMapper::new(4096, 100);
        let r = m.byte_extent(5000, 0);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn extent_to_end_of_device_ok() {
        let m = BlockMapper::new(4096, 10);
        let r = m.byte_extent(9 * 4096, 4096);
        assert_eq!((r.start, r.end), (9, 10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extent_past_end_panics() {
        let m = BlockMapper::new(4096, 10);
        m.byte_extent(9 * 4096, 4097);
    }

    #[test]
    fn sector_extent_splits_into_blocks() {
        let m = BlockMapper::new(4096, 100);
        // Sectors 7..9 straddle the block 0/1 boundary (8 sectors/block).
        let r = m.sector_extent(7, 2);
        assert_eq!((r.start, r.end), (0, 2));
        // One full block worth of sectors.
        let r = m.sector_extent(8, 8);
        assert_eq!((r.start, r.end), (1, 2));
    }

    #[test]
    fn block_byte_roundtrip() {
        let m = BlockMapper::new(4096, 100);
        for b in [0usize, 1, 50, 99] {
            let r = m.byte_extent(m.byte_of_block(b), 1);
            assert_eq!((r.start, r.end), (b, b + 1));
        }
    }

    #[test]
    fn range_iter() {
        let r = BlockRange { start: 3, end: 6 };
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
    }
}
