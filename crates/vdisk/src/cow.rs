//! Copy-on-write storage backend.
//!
//! The Collective (§II-B of the paper) captures "all the updates … in a
//! Copy-on-Write disk. So only the differences of the disk storage need
//! to be migrated." [`CowStorage`] is that mechanism: reads fall through
//! to an immutable shared base image; writes land in a private overlay.
//! The overlay's block set *is* the diff a Collective-style migration
//! ships, and [`CowStorage::overlay_blocks`] exports it as a bitmap for
//! the `migrate::baselines::run_collective` scheme and for seeding
//! template migrations.

use std::collections::BTreeMap;
use std::sync::Arc;

use block_bitmap::{DirtyMap, FlatBitmap};

use crate::Storage;

/// A base image shared (immutably) among any number of CoW overlays.
pub type BaseImage = Arc<dyn Storage>;

/// Copy-on-write store: an immutable base plus a private write overlay.
pub struct CowStorage {
    base: BaseImage,
    overlay: BTreeMap<usize, Box<[u8]>>,
}

impl CowStorage {
    /// Create an overlay over `base`. The overlay starts empty: every
    /// read initially reflects the base.
    pub fn new(base: BaseImage) -> Self {
        Self {
            base,
            overlay: BTreeMap::new(),
        }
    }

    /// Number of blocks the overlay has diverged on.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// The diverged blocks as a bitmap — the diff a Collective-style
    /// migration transfers.
    pub fn overlay_blocks(&self) -> FlatBitmap {
        let mut bm = FlatBitmap::new(self.base.num_blocks());
        for &b in self.overlay.keys() {
            bm.set(b);
        }
        bm
    }

    /// Discard the overlay, reverting every block to the base image
    /// (the Collective's "rollback to golden image" operation).
    pub fn revert(&mut self) {
        self.overlay.clear();
    }

    /// Fold the overlay into a new base image (an explicit, allocating
    /// snapshot), returning it for use as the next generation's base.
    pub fn snapshot(&self) -> crate::DenseStorage {
        let bs = self.block_size();
        let mut out = crate::DenseStorage::new(bs, self.num_blocks());
        let mut buf = vec![0u8; bs];
        for b in 0..self.num_blocks() {
            self.read_block(b, &mut buf);
            out.write_block(b, &buf);
        }
        out
    }
}

impl Storage for CowStorage {
    fn block_size(&self) -> usize {
        self.base.block_size()
    }

    fn num_blocks(&self) -> usize {
        self.base.num_blocks()
    }

    fn read_block(&self, idx: usize, out: &mut [u8]) {
        match self.overlay.get(&idx) {
            Some(b) => {
                assert_eq!(out.len(), self.block_size(), "buffer/block size mismatch");
                out.copy_from_slice(b);
            }
            None => self.base.read_block(idx, out),
        }
    }

    fn write_block(&mut self, idx: usize, data: &[u8]) {
        assert!(idx < self.num_blocks(), "block {idx} out of range");
        assert_eq!(data.len(), self.block_size(), "buffer/block size mismatch");
        self.overlay.insert(idx, data.into());
    }

    fn resident_block(&self, idx: usize) -> Option<&[u8]> {
        match self.overlay.get(&idx) {
            Some(b) => Some(b),
            None => self.base.resident_block(idx),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.overlay.len() * self.block_size() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stamp_bytes, DenseStorage};

    fn base(blocks: usize) -> BaseImage {
        let mut b = DenseStorage::new(512, blocks);
        for i in 0..blocks {
            b.write_block(i, &stamp_bytes(i, 0, 512));
        }
        Arc::new(b)
    }

    #[test]
    fn reads_fall_through_until_written() {
        let mut cow = CowStorage::new(base(8));
        let mut buf = vec![0u8; 512];
        cow.read_block(3, &mut buf);
        assert_eq!(buf, stamp_bytes(3, 0, 512));
        cow.write_block(3, &stamp_bytes(3, 9, 512));
        cow.read_block(3, &mut buf);
        assert_eq!(buf, stamp_bytes(3, 9, 512));
        // Neighbours untouched.
        cow.read_block(2, &mut buf);
        assert_eq!(buf, stamp_bytes(2, 0, 512));
        assert_eq!(cow.overlay_len(), 1);
    }

    #[test]
    fn overlay_blocks_is_the_diff() {
        let mut cow = CowStorage::new(base(16));
        for b in [1usize, 5, 5, 9] {
            cow.write_block(b, &stamp_bytes(b, 1, 512));
        }
        assert_eq!(cow.overlay_blocks().to_indices(), vec![1, 5, 9]);
        assert_eq!(cow.overlay_len(), 3);
    }

    #[test]
    fn two_overlays_share_one_base_independently() {
        let shared = base(8);
        let mut a = CowStorage::new(Arc::clone(&shared));
        let mut b = CowStorage::new(shared);
        a.write_block(0, &stamp_bytes(0, 1, 512));
        b.write_block(0, &stamp_bytes(0, 2, 512));
        let mut buf = vec![0u8; 512];
        a.read_block(0, &mut buf);
        assert_eq!(buf, stamp_bytes(0, 1, 512));
        b.read_block(0, &mut buf);
        assert_eq!(buf, stamp_bytes(0, 2, 512));
    }

    #[test]
    fn revert_restores_base() {
        let mut cow = CowStorage::new(base(4));
        cow.write_block(2, &stamp_bytes(2, 7, 512));
        cow.revert();
        assert_eq!(cow.overlay_len(), 0);
        let mut buf = vec![0u8; 512];
        cow.read_block(2, &mut buf);
        assert_eq!(buf, stamp_bytes(2, 0, 512));
    }

    #[test]
    fn snapshot_folds_overlay() {
        let mut cow = CowStorage::new(base(4));
        cow.write_block(1, &stamp_bytes(1, 5, 512));
        let snap = cow.snapshot();
        let mut buf = vec![0u8; 512];
        snap.read_block(1, &mut buf);
        assert_eq!(buf, stamp_bytes(1, 5, 512));
        snap.read_block(0, &mut buf);
        assert_eq!(buf, stamp_bytes(0, 0, 512));
    }

    #[test]
    fn resident_bytes_tracks_overlay_only() {
        let mut cow = CowStorage::new(base(1024));
        let before = cow.resident_bytes();
        for b in 0..10 {
            cow.write_block(b, &stamp_bytes(b, 1, 512));
        }
        assert!(cow.resident_bytes() >= before + 10 * 512);
        assert!(cow.resident_bytes() < 100 * 512);
    }

    #[test]
    fn works_behind_a_virtual_disk() {
        // A CoW store plugs into the same VirtualDisk/TrackedDisk stack.
        let disk = crate::VirtualDisk::new(Box::new(CowStorage::new(base(8))));
        disk.write_block(4, &stamp_bytes(4, 3, 512));
        assert_eq!(disk.read_block(4), stamp_bytes(4, 3, 512));
        assert_eq!(disk.read_block(5), stamp_bytes(5, 0, 512));
    }
}
