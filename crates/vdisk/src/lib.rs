//! Virtual block devices with write-intercepting dirty tracking.
//!
//! In the paper the Xen backend driver `blkback` is modified to intercept
//! every write from the migrated domain, split the written extent into
//! 4 KiB blocks, and set the corresponding bits of the block-bitmap. This
//! crate is that layer, rebuilt in userspace:
//!
//! * [`IoRequest`] — the paper's request triple *R⟨O, N, VM⟩*: operation,
//!   block number, and the ID of the domain that submitted it.
//! * [`DenseStorage`] — the one byte store: a dense allocation plus an
//!   allocation map, so a never-written block reads as its [`Unwritten`]
//!   content (zeroes, or the stamp-0 image) without occupying memory.
//! * [`VirtualDisk`] — a thread-safe virtual block device (VBD) over a
//!   [`DenseStorage`], with per-block and batched I/O. Live guest RAM
//!   (`vmstate::LiveRam`) is one of these with page-sized blocks, so
//!   pages and blocks cross the same read and write path.
//! * [`TrackedDisk`] — the `blkback` analogue: a [`VirtualDisk`] wrapper
//!   that records every write into any number of attached
//!   [`block_bitmap::AtomicBitmap`] trackers (the paper keeps up to three
//!   live at once: the pre-copy iteration map, the post-copy transferred
//!   map, and the IM new-dirty map).
//! * [`PendingQueue`] — the destination-side pending list *P* of the
//!   post-copy algorithm, holding read requests that must wait for their
//!   block to be pulled from the source.
//! * [`MetaDisk`] — a metadata-only disk model (per-block version
//!   counters) for full-scale simulation where materializing 40 GB of
//!   bytes is pointless but write-ordering consistency still needs
//!   checking; the virtual-time guest RAM (`vmstate::GuestMemory`) is
//!   one of these with a page per block.
//!
//! The images a host keeps of a VM after it leaves (§V's incremental
//! migration, §VII's version maintenance) are [`MetaDisk`]s held by the
//! fleet's one replica store, `blockstore::BlockDirectory`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): deterministic.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod content;
mod disk;
mod meta;
mod pending;
mod request;
mod storage;
mod tracked;

pub use content::{hash_block, hash_u64, ContentIndex, FingerprintSet};
pub use disk::VirtualDisk;
pub use meta::MetaDisk;
pub use pending::PendingQueue;
pub use request::{DomainId, IoOp, IoRequest};
pub use storage::{DenseStorage, Unwritten};
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

/// Bytes after which a stamp block's pattern repeats.
const STAMP_PERIOD: usize = 64;

/// Deterministic content of unit `idx` (a disk block or a RAM page) at
/// generation `stamp`: the live guest's content model — every block and
/// page it writes, the stamp-0 image a primary migration starts from,
/// and the reference the verifier checks the destination against. Past
/// a 16-byte header holding `idx` and `stamp` verbatim (so failures are
/// debuggable; omitted below 16 bytes) it repeats every 64 bytes.
/// Allocating form of [`stamp_append`].
pub fn stamp_bytes(idx: usize, stamp: u64, block_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(block_size);
    stamp_append(idx, stamp, block_size, &mut out);
    out
}

/// Append the `len`-byte [`stamp_bytes`] content of unit `idx` at
/// generation `stamp` to `out`, a period at a time, without zeroing the
/// space first.
pub fn stamp_append(idx: usize, stamp: u64, len: usize, out: &mut Vec<u8>) {
    let (head, period) = stamp_periods(idx, stamp, len);
    out.reserve(len);
    out.extend_from_slice(&head[..len.min(STAMP_PERIOD)]);
    let rest = len.saturating_sub(STAMP_PERIOD);
    for _ in 0..rest / STAMP_PERIOD {
        out.extend_from_slice(&period);
    }
    out.extend_from_slice(&period[..rest % STAMP_PERIOD]);
}

/// Fill `out` with the [`stamp_bytes`] content of unit `idx` at
/// generation `stamp`: one period is computed, the rest is copies of it.
pub fn stamp_into(idx: usize, stamp: u64, out: &mut [u8]) {
    let (head, period) = stamp_periods(idx, stamp, out.len());
    let mut chunks = out.chunks_mut(STAMP_PERIOD);
    if let Some(first) = chunks.next() {
        first.copy_from_slice(&head[..first.len()]);
    }
    for chunk in chunks {
        chunk.copy_from_slice(&period[..chunk.len()]);
    }
}

/// `data == stamp_bytes(idx, stamp, data.len())`, compared in place
/// against one period without building the block.
pub fn is_stamp(idx: usize, stamp: u64, data: &[u8]) -> bool {
    let (head, period) = stamp_periods(idx, stamp, data.len());
    let mut chunks = data.chunks(STAMP_PERIOD);
    chunks
        .next()
        .is_none_or(|first| *first == head[..first.len()])
        && chunks.all(|chunk| *chunk == period[..chunk.len()])
}

/// The first period of a `len`-byte stamp block (the header laid over it
/// when the block has room for one) and the period every later one repeats.
fn stamp_periods(idx: usize, stamp: u64, len: usize) -> ([u8; STAMP_PERIOD], [u8; STAMP_PERIOD]) {
    // Byte i is `(seed.rotate_left(i) >> (i % 8)) as u8`, which is the
    // low byte of `seed.rotate_left(8 * (i / 8))`: eight runs of eight
    // equal bytes, each one byte of the seed.
    let seed = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stamp;
    let mut period = [0u8; STAMP_PERIOD];
    for (k, run) in period.chunks_exact_mut(8).enumerate() {
        run.fill(seed.rotate_left(8 * k as u32) as u8);
    }
    let mut head = period;
    if len >= 16 {
        head[..8].copy_from_slice(&(idx as u64).to_le_bytes());
        head[8..16].copy_from_slice(&stamp.to_le_bytes());
    }
    (head, period)
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
