//! Page-granular guest memory with log-dirty tracking.

use block_bitmap::{DirtyMap, FlatBitmap};
use vdisk::MetaDisk;

/// Guest memory model: a [`MetaDisk`] with a page per block (one
/// generation counter per page) plus a dirty-page bitmap, mirroring Xen's
/// log-dirty mode (the shadow page tables mark a page dirty on first
/// write after each bitmap drain).
///
/// Contents are modelled as generations: the memory pre-copy algorithm
/// needs to know *which pages changed*, not what bytes they hold, and a
/// 512 MB guest at 4 KiB pages is 131 072 pages — cheap to track exactly.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    pages: MetaDisk,
    dirty: FlatBitmap,
}

impl GuestMemory {
    /// Create memory of `num_pages` pages, all at generation 0 and clean.
    pub fn new(num_pages: usize) -> Self {
        Self {
            pages: MetaDisk::new(num_pages),
            dirty: FlatBitmap::new(num_pages),
        }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.num_blocks()
    }

    /// Guest write to `page`: bump its generation, mark it dirty.
    ///
    /// # Panics
    /// Panics when `page` is out of range.
    pub fn touch(&mut self, page: usize) {
        self.pages.write(page);
        self.dirty.set(page);
    }

    /// Drain the dirty bitmap: returns the dirty set and resets tracking —
    /// one iteration boundary of Xen's pre-copy loop.
    pub fn drain_dirty(&mut self) -> FlatBitmap {
        let fresh = FlatBitmap::new(self.num_pages());
        std::mem::replace(&mut self.dirty, fresh)
    }

    /// Copy one page's generation from `src` — the simulated transfer of a
    /// page between hosts.
    ///
    /// # Panics
    /// Panics when geometries differ or `page` is out of range.
    pub fn copy_page_from(&mut self, src: &GuestMemory, page: usize) {
        self.pages.copy_block_from(&src.pages, page);
    }

    /// `true` when every page matches `other`.
    pub fn content_equals(&self, other: &GuestMemory) -> bool {
        self.pages.content_equals(&other.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_marks_dirty_and_bumps_generation() {
        let blank = GuestMemory::new(16);
        let mut m = GuestMemory::new(16);
        m.touch(3);
        m.touch(3);
        m.touch(7);
        assert!(!m.content_equals(&blank));
        assert_eq!(m.drain_dirty().to_indices(), vec![3, 7]);
    }

    #[test]
    fn drain_resets_tracking_but_keeps_contents() {
        let mut m = GuestMemory::new(16);
        m.touch(5);
        let before = m.clone();
        let drained = m.drain_dirty();
        assert_eq!(drained.to_indices(), vec![5]);
        assert!(m.drain_dirty().none_set());
        assert!(m.content_equals(&before));
    }

    #[test]
    fn precopy_sync_pattern() {
        // Simulate one migration round: copy all, then copy dirty-only.
        let mut src = GuestMemory::new(32);
        let mut dst = GuestMemory::new(32);
        for p in [1usize, 9, 9, 20] {
            src.touch(p);
        }
        src.drain_dirty();
        // Full first pass.
        for p in 0..32 {
            dst.copy_page_from(&src, p);
        }
        assert!(src.content_equals(&dst));
        // Guest dirties more during the pass; second pass copies only those.
        src.touch(2);
        src.touch(9);
        assert!(!src.content_equals(&dst));
        let dirty = src.drain_dirty();
        assert_eq!(dirty.to_indices(), vec![2, 9]);
        for p in dirty.to_indices() {
            dst.copy_page_from(&src, p);
        }
        assert!(src.content_equals(&dst));
    }

    #[test]
    #[should_panic(expected = "geometries must match")]
    fn geometry_mismatch_panics() {
        let mut a = GuestMemory::new(4);
        let b = GuestMemory::new(8);
        a.copy_page_from(&b, 0);
    }
}
