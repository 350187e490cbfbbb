//! Thread-safe virtual block device (VBD).

use block_bitmap::BlockMapper;
use parking_lot::RwLock;

use crate::{fingerprint_block, hash_block, DenseStorage, Unwritten};

/// A virtual block device: geometry plus a locked [`DenseStorage`].
///
/// This is the disk the guest sees (Xen's VBD), and, with page-sized
/// blocks, the byte store under live guest RAM (`vmstate::LiveRam`).
/// All access is block-granular; extent helpers split byte ranges via
/// its [`BlockMapper`]. The store lives behind a `parking_lot::RwLock` so
/// that live-mode migration (reader) and the guest workload (writer) can
/// share the device across threads.
pub struct VirtualDisk {
    block_size: usize,
    num_blocks: usize,
    storage: RwLock<DenseStorage>,
}

impl VirtualDisk {
    fn over(storage: DenseStorage) -> Self {
        Self {
            block_size: storage.block_size(),
            num_blocks: storage.num_blocks(),
            storage: RwLock::new(storage),
        }
    }

    /// Dense zero-filled disk of `num_blocks` × `block_size`.
    pub fn dense(block_size: usize, num_blocks: usize) -> Self {
        Self::over(DenseStorage::new(block_size, num_blocks))
    }

    /// Dense disk whose every block reads as its stamp-0 content until
    /// written (see [`DenseStorage::stamp_zero`]).
    pub fn stamp_zero(block_size: usize, num_blocks: usize) -> Self {
        Self::over(DenseStorage::stamp_zero(block_size, num_blocks))
    }

    /// Device geometry in sectors, for byte and sector extents.
    ///
    /// # Panics
    /// Panics when the block size is not a whole number of sectors (a
    /// page of live guest RAM need not be one).
    pub fn mapper(&self) -> BlockMapper {
        BlockMapper::new(self.block_size as u64, self.num_blocks)
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// # Panics
    /// Panics when `other`'s geometry is not this disk's.
    fn assert_same_geometry(&self, other: &VirtualDisk) {
        assert_eq!(
            (self.block_size, self.num_blocks),
            (other.block_size, other.num_blocks),
            "disk geometries must match"
        );
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
    pub fn write_blocks<I: Copy + TryInto<usize>>(&self, idxs: &[I], data: &[u8]) {
        self.storage.write().write_blocks(idxs, data);
    }

    /// [`hash_block`] content fingerprint of every block, in block order
    /// — what a dedup handshake summarises — and how many blocks were
    /// read and hashed to make it. Blocks are hashed in place under one
    /// read lock. A never-written block is known from the store's
    /// allocation map: on a zero-based store it is answered with the zero
    /// block's fingerprint and not counted, so a blank disk costs no
    /// memory traffic at all; otherwise its initial content is computed
    /// into one held buffer and hashed.
    pub fn hash_all(&self) -> (Vec<u64>, u64) {
        let guard = self.storage.read();
        let unwritten = guard.unwritten();
        let mut buf = vec![0u8; self.block_size()];
        let zero = hash_block(&buf);
        let fps = (0..self.num_blocks())
            .map(|b| match guard.resident_block(b) {
                Some(block) => hash_block(block),
                None if unwritten == Unwritten::Zeroes => zero,
                None => {
                    unwritten.fill(b, &mut buf);
                    hash_block(&buf)
                }
            })
            .collect();
        let hashed = match unwritten {
            Unwritten::Zeroes => guard.written_blocks(),
            Unwritten::StampZero => self.num_blocks(),
        };
        (fps, hashed as u64)
    }

    /// [`hash_block`] of block `idx`, hashed in place under one read lock
    /// as [`Self::hash_all`] hashes every block: no copy of a written
    /// block is made.
    pub fn hash_block_at(&self, idx: usize) -> u64 {
        let guard = self.storage.read();
        match guard.resident_block(idx) {
            Some(block) => hash_block(block),
            None => {
                let mut buf = vec![0u8; self.block_size()];
                guard.unwritten().fill(idx, &mut buf);
                hash_block(&buf)
            }
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

    /// `true` when every block matches `other` byte-for-byte. Each block
    /// is read under its own lock, so compare disks nobody is writing.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn content_equals(&self, other: &VirtualDisk) -> bool {
        self.assert_same_geometry(other);
        let mut a = vec![0u8; self.block_size()];
        let mut b = vec![0u8; self.block_size()];
        (0..self.num_blocks()).all(|i| {
            self.read_block_into(i, &mut a);
            other.read_block_into(i, &mut b);
            a == b
        })
    }

    /// Indices of blocks whose contents differ from `other`, read one
    /// block at a time like [`VirtualDisk::content_equals`].
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn diff_blocks(&self, other: &VirtualDisk) -> Vec<usize> {
        self.assert_same_geometry(other);
        let mut a = vec![0u8; self.block_size()];
        let mut b = vec![0u8; self.block_size()];
        (0..self.num_blocks())
            .filter(|&i| {
                self.read_block_into(i, &mut a);
                other.read_block_into(i, &mut b);
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
        let b = VirtualDisk::dense(512, 8);
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
