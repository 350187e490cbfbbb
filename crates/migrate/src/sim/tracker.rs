//! Bitmap-kind dispatch for the write tracker.

use block_bitmap::{DirtyMap, FlatBitmap, LayeredBitmap};

use crate::BitmapKind;

/// The engine-side dirty tracker, dispatching between the flat and
/// layered bitmap implementations (the §IV-A-2 design alternatives —
/// E10 benchmarks their scan/memory trade-off).
#[derive(Debug, Clone)]
pub enum DirtyTracker {
    /// Dense bitmap.
    Flat(FlatBitmap),
    /// Two-layer lazily allocated bitmap.
    Layered(LayeredBitmap),
}

impl DirtyTracker {
    /// Create an all-clean tracker of the requested kind.
    pub fn new(kind: BitmapKind, nbits: usize) -> Self {
        match kind {
            BitmapKind::Flat => Self::Flat(FlatBitmap::new(nbits)),
            BitmapKind::Layered => Self::Layered(LayeredBitmap::new(nbits)),
        }
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        match self {
            Self::Flat(b) => b.len(),
            Self::Layered(b) => b.len(),
        }
    }

    /// `true` when the tracker covers zero blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark a block dirty.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        match self {
            Self::Flat(b) => {
                b.set(idx);
            }
            Self::Layered(b) => {
                b.set(idx);
            }
        }
    }

    /// Current dirty count.
    pub fn count(&self) -> usize {
        match self {
            Self::Flat(b) => b.count_ones(),
            Self::Layered(b) => b.count_ones(),
        }
    }

    /// Drain into a dense snapshot, resetting the tracker — the pre-copy
    /// iteration boundary.
    pub fn drain(&mut self) -> FlatBitmap {
        match self {
            Self::Flat(b) => std::mem::replace(b, FlatBitmap::new(b.len())),
            Self::Layered(b) => {
                let snap = b.to_flat();
                b.clear_all();
                snap
            }
        }
    }

    /// Merge a dense bitmap back into the tracker (used when a drained
    /// set must keep accumulating, e.g. across the memory pre-copy).
    pub fn merge(&mut self, other: &FlatBitmap) {
        match self {
            Self::Flat(b) => b.union_with(other),
            Self::Layered(b) => {
                for idx in other.iter_set() {
                    b.set(idx);
                }
            }
        }
    }

    /// Resident memory (the E10 metric).
    pub fn memory_bytes(&self) -> usize {
        match self {
            Self::Flat(b) => b.memory_bytes(),
            Self::Layered(b) => b.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kinds_agree() {
        for kind in [BitmapKind::Flat, BitmapKind::Layered] {
            let mut t = DirtyTracker::new(kind, 1000);
            assert_eq!(t.len(), 1000);
            t.set(1);
            t.set(999);
            t.set(1);
            assert_eq!(t.count(), 2);
            let snap = t.drain();
            assert_eq!(snap.to_indices(), vec![1, 999]);
            assert_eq!(t.count(), 0);
            t.merge(&snap);
            assert_eq!(t.count(), 2);
        }
    }

    #[test]
    fn layered_uses_less_memory_when_sparse() {
        let mut flat = DirtyTracker::new(BitmapKind::Flat, 10 * 1024 * 1024);
        let mut layered = DirtyTracker::new(BitmapKind::Layered, 10 * 1024 * 1024);
        for i in 0..100 {
            flat.set(i);
            layered.set(i);
        }
        assert!(layered.memory_bytes() * 10 < flat.memory_bytes());
    }
}
