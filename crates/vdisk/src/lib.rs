//! Virtual block devices with write-intercepting dirty tracking.
//!
//! In the paper the Xen backend driver `blkback` is modified to intercept
//! every write from the migrated domain, split the written extent into
//! 4 KiB blocks, and set the corresponding bits of the block-bitmap. This
//! crate is that layer, rebuilt in userspace:
//!
//! * [`IoRequest`] — the paper's request triple *R⟨O, N, VM⟩*: operation,
//!   block number, and the ID of the domain that submitted it.
//! * [`Storage`] — byte-level backing stores: dense ([`DenseStorage`]) and
//!   lazily-allocated sparse ([`SparseStorage`]).
//! * [`VirtualDisk`] — a thread-safe virtual block device (VBD) over a
//!   [`Storage`], with per-block and extent I/O.
//! * [`TrackedDisk`] — the `blkback` analogue: a [`VirtualDisk`] wrapper
//!   that records every write into any number of attached
//!   [`block_bitmap::AtomicBitmap`] trackers (the paper keeps up to three
//!   live at once: the pre-copy iteration map, the post-copy transferred
//!   map, and the IM new-dirty map).
//! * [`PendingQueue`] — the destination-side pending list *P* of the
//!   post-copy algorithm, holding read requests that must wait for their
//!   block to be pulled from the source.
//! * [`CowStorage`] — a copy-on-write overlay over a shared base image
//!   (the Collective's §II-B mechanism; its overlay is the migration
//!   diff).
//! * [`MetaDisk`] — a metadata-only disk model (per-block version
//!   counters) for full-scale simulation where materializing 40 GB of
//!   bytes is pointless but write-ordering consistency still needs
//!   checking.
//! * [`ReplicaTable`] — the §V/§VII stale-replica store: per (VM, site)
//!   departure images with bitmap-diff staleness, backing incremental
//!   migration in the multi-site extension and the cluster orchestrator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): deterministic.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod content;
mod cow;
mod disk;
mod meta;
mod pending;
mod replica;
mod request;
mod storage;
mod tracked;

pub use content::{hash_block, hash_u64, ContentIndex, FingerprintSet};
pub use cow::{BaseImage, CowStorage};
pub use disk::VirtualDisk;
pub use meta::MetaDisk;
pub use pending::PendingQueue;
pub use replica::{Replica, ReplicaTable};
pub use request::{DomainId, IoOp, IoRequest};
pub use storage::{DenseStorage, SparseStorage, Storage};
pub use tracked::{TrackedDisk, TrackerHandle};

/// Per-block 64-bit FNV-1a fingerprint, used by consistency checks.
pub fn fingerprint_block(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic fill pattern for block `idx` with generation `stamp`,
/// used by tests to verify which write "won" on a block after migration.
pub fn stamp_bytes(idx: usize, stamp: u64, block_size: usize) -> Vec<u8> {
    let mut out = vec![0u8; block_size];
    let seed = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stamp;
    for (i, b) in out.iter_mut().enumerate() {
        *b = (seed.rotate_left((i % 64) as u32) >> (i % 8)) as u8;
    }
    // Embed the stamp verbatim so failures are debuggable.
    if block_size >= 16 {
        out[..8].copy_from_slice(&(idx as u64).to_le_bytes());
        out[8..16].copy_from_slice(&stamp.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_contents() {
        let a = fingerprint_block(&[0u8; 4096]);
        let b = fingerprint_block(&[1u8; 4096]);
        assert_ne!(a, b);
        assert_eq!(a, fingerprint_block(&[0u8; 4096]));
    }

    #[test]
    fn stamp_bytes_unique_per_block_and_stamp() {
        let a = stamp_bytes(1, 1, 4096);
        let b = stamp_bytes(2, 1, 4096);
        let c = stamp_bytes(1, 2, 4096);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, stamp_bytes(1, 1, 4096));
        assert_eq!(&a[8..16], &1u64.to_le_bytes());
    }
}
