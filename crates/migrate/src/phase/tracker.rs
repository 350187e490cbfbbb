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

    /// Mark a block dirty.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        match self {
            Self::Flat(b) => b.set(idx),
            Self::Layered(b) => b.set(idx),
        };
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kinds_agree() {
        for kind in [BitmapKind::Flat, BitmapKind::Layered] {
            let mut t = DirtyTracker::new(kind, 1000);
            t.set(1);
            t.set(999);
            t.set(1);
            assert_eq!(t.drain().to_indices(), vec![1, 999]);
            assert!(t.drain().none_set());
        }
    }
}
