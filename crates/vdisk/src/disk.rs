//! Thread-safe virtual block device (VBD).

use block_bitmap::BlockMapper;
use parking_lot::RwLock;

use crate::{fingerprint_block, hash_block, Storage};

/// A virtual block device: geometry plus a locked backing store.
///
/// This is the disk the guest sees (Xen's VBD). All access is
/// block-granular; extent helpers split byte ranges via the
/// [`BlockMapper`]. The store lives behind a `parking_lot::RwLock` so that
/// live-mode migration (reader) and the guest workload (writer) can share
/// the device across threads.
pub struct VirtualDisk {
    mapper: BlockMapper,
    storage: RwLock<Box<dyn Storage>>,
}

impl VirtualDisk {
    /// Wrap a backing store.
    pub fn new(storage: Box<dyn Storage>) -> Self {
        let mapper = BlockMapper::new(storage.block_size() as u64, storage.num_blocks());
        Self {
            mapper,
            storage: RwLock::new(storage),
        }
    }

    /// Dense zero-filled disk of `num_blocks` × `block_size`.
    pub fn dense(block_size: usize, num_blocks: usize) -> Self {
        Self::new(Box::new(crate::DenseStorage::new(block_size, num_blocks)))
    }

    /// Sparse zero-filled disk of `num_blocks` × `block_size`.
    pub fn sparse(block_size: usize, num_blocks: usize) -> Self {
        Self::new(Box::new(crate::SparseStorage::new(block_size, num_blocks)))
    }

    /// Device geometry.
    pub fn mapper(&self) -> BlockMapper {
        self.mapper
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.mapper.block_size() as usize
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> usize {
        self.mapper.num_blocks()
    }

    /// Read block `idx` into a fresh buffer.
    pub fn read_block(&self, idx: usize) -> Vec<u8> {
        let mut buf = vec![0u8; self.block_size()];
        self.storage.read().read_block(idx, &mut buf);
        buf
    }

    /// Read block `idx` into `out`.
    pub fn read_block_into(&self, idx: usize, out: &mut [u8]) {
        self.storage.read().read_block(idx, out);
    }

    /// Overwrite block `idx`.
    pub fn write_block(&self, idx: usize, data: &[u8]) {
        self.storage.write().write_block(idx, data);
    }

    /// Append the blocks `idxs`, in order, to `out`, under one acquisition
    /// of the lock.
    pub fn read_blocks_append(&self, idxs: &[usize], out: &mut Vec<u8>) {
        self.storage.read().read_blocks_append(idxs, out);
    }

    /// Overwrite the blocks `idxs` with consecutive pieces of `data`,
    /// under one acquisition of the lock: a concurrent writer waits for
    /// one batch's copy, so callers keep batches short.
    pub fn write_blocks(&self, idxs: &[u64], data: &[u8]) {
        self.storage.write().write_blocks(idxs, data);
    }

    /// [`hash_block`] content fingerprint of every block, in block order
    /// — what a dedup handshake summarises. Blocks are hashed in place
    /// under one read lock, and a never-written block is answered with
    /// the zero block's fingerprint straight from the store's allocation
    /// map, so a blank disk costs no memory traffic at all.
    pub fn hash_all(&self) -> Vec<u64> {
        let zero = hash_block(&vec![0u8; self.block_size()]);
        let guard = self.storage.read();
        (0..self.num_blocks())
            .map(|b| guard.resident_block(b).map_or(zero, hash_block))
            .collect()
    }

    /// [`hash_block`] of block `idx`, hashed in place under one read lock
    /// as [`Self::hash_all`] hashes every block: no copy of it is made.
    pub fn hash_block_at(&self, idx: usize) -> u64 {
        match self.storage.read().resident_block(idx) {
            Some(block) => hash_block(block),
            None => hash_block(&vec![0u8; self.block_size()]),
        }
    }

    /// FNV-1a fingerprint of one block's contents.
    pub fn fingerprint(&self, idx: usize) -> u64 {
        fingerprint_block(&self.read_block(idx))
    }

    /// Fingerprints of every block — the consistency-check signature used
    /// by the integration tests.
    pub fn fingerprint_all(&self) -> Vec<u64> {
        let mut buf = vec![0u8; self.block_size()];
        let guard = self.storage.read();
        (0..self.num_blocks())
            .map(|i| {
                guard.read_block(i, &mut buf);
                fingerprint_block(&buf)
            })
            .collect()
    }

    /// `true` when every block matches `other` byte-for-byte.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn content_equals(&self, other: &VirtualDisk) -> bool {
        assert_eq!(self.mapper, other.mapper, "disk geometries must match");
        let mut a = vec![0u8; self.block_size()];
        let mut b = vec![0u8; self.block_size()];
        let ga = self.storage.read();
        let gb = other.storage.read();
        (0..self.num_blocks()).all(|i| {
            ga.read_block(i, &mut a);
            gb.read_block(i, &mut b);
            a == b
        })
    }

    /// Indices of blocks whose contents differ from `other`.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn diff_blocks(&self, other: &VirtualDisk) -> Vec<usize> {
        assert_eq!(self.mapper, other.mapper, "disk geometries must match");
        let mut a = vec![0u8; self.block_size()];
        let mut b = vec![0u8; self.block_size()];
        let ga = self.storage.read();
        let gb = other.storage.read();
        (0..self.num_blocks())
            .filter(|&i| {
                ga.read_block(i, &mut a);
                gb.read_block(i, &mut b);
                a != b
            })
            .collect()
    }

    /// Resident memory of the backing store.
    pub fn resident_bytes(&self) -> usize {
        self.storage.read().resident_bytes()
    }
}

impl std::fmt::Debug for VirtualDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualDisk")
            .field("block_size", &self.block_size())
            .field("num_blocks", &self.num_blocks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp_bytes;

    #[test]
    fn write_read_roundtrip() {
        let d = VirtualDisk::dense(512, 8);
        let data = stamp_bytes(3, 1, 512);
        d.write_block(3, &data);
        assert_eq!(d.read_block(3), data);
        let mut out = vec![0u8; 512];
        d.read_block_into(3, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn content_equality_and_diff() {
        let a = VirtualDisk::dense(512, 8);
        let b = VirtualDisk::sparse(512, 8);
        assert!(a.content_equals(&b));
        a.write_block(2, &stamp_bytes(2, 9, 512));
        a.write_block(5, &stamp_bytes(5, 9, 512));
        assert!(!a.content_equals(&b));
        assert_eq!(a.diff_blocks(&b), vec![2, 5]);
        b.write_block(2, &stamp_bytes(2, 9, 512));
        b.write_block(5, &stamp_bytes(5, 9, 512));
        assert!(a.content_equals(&b));
    }

    #[test]
    fn fingerprints_track_contents() {
        let d = VirtualDisk::dense(512, 4);
        let before = d.fingerprint_all();
        assert_eq!(before.len(), 4);
        assert!(before.windows(2).all(|w| w[0] == w[1])); // all-zero blocks
        d.write_block(1, &stamp_bytes(1, 1, 512));
        let after = d.fingerprint_all();
        assert_ne!(before[1], after[1]);
        assert_eq!(before[0], after[0]);
        assert_eq!(d.fingerprint(1), after[1]);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let d = Arc::new(VirtualDisk::dense(512, 64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let blk = t * 16 + i;
                        d.write_block(blk, &stamp_bytes(blk, 1, 512));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for blk in 0..64 {
            assert_eq!(d.read_block(blk), stamp_bytes(blk, 1, 512));
        }
    }

    #[test]
    #[should_panic(expected = "geometries must match")]
    fn mismatched_geometry_panics() {
        let a = VirtualDisk::dense(512, 8);
        let b = VirtualDisk::dense(512, 9);
        a.content_equals(&b);
    }
}
