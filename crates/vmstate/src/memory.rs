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
    page_size: usize,
    pages: MetaDisk,
    dirty: FlatBitmap,
}

impl GuestMemory {
    /// Create memory of `num_pages` pages of `page_size` bytes, all at
    /// generation 0 and clean.
    ///
    /// # Panics
    /// Panics when `page_size == 0`.
    pub fn new(page_size: usize, num_pages: usize) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        Self {
            page_size,
            pages: MetaDisk::new(num_pages),
            dirty: FlatBitmap::new(num_pages),
        }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.num_blocks()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total memory in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.page_size as u64 * self.num_pages() as u64
    }

    /// Guest write to `page`: bump its generation, mark it dirty.
    ///
    /// # Panics
    /// Panics when `page` is out of range.
    pub fn touch(&mut self, page: usize) {
        self.pages.write(page);
        self.dirty.set(page);
    }

    /// Current generation of `page`.
    pub fn generation(&self, page: usize) -> u32 {
        self.pages.generation(page)
    }

    /// Number of pages currently marked dirty.
    pub fn dirty_count(&self) -> usize {
        self.dirty.count_ones()
    }

    /// Drain the dirty bitmap: returns the dirty set and resets tracking —
    /// one iteration boundary of Xen's pre-copy loop.
    pub fn drain_dirty(&mut self) -> FlatBitmap {
        let fresh = FlatBitmap::new(self.num_pages());
        std::mem::replace(&mut self.dirty, fresh)
    }

    /// Peek at the dirty bitmap without resetting.
    pub fn dirty_map(&self) -> &FlatBitmap {
        &self.dirty
    }

    /// Copy one page's generation from `src` — the simulated transfer of a
    /// page between hosts.
    ///
    /// # Panics
    /// Panics when geometries differ or `page` is out of range.
    pub fn copy_page_from(&mut self, src: &GuestMemory, page: usize) {
        self.pages.copy_block_from(&src.pages, page);
    }

    /// Pages whose generations differ from `other`.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn diff_pages(&self, other: &GuestMemory) -> Vec<usize> {
        self.pages.diff_blocks(&other.pages)
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
        let mut m = GuestMemory::new(4096, 16);
        assert_eq!(m.dirty_count(), 0);
        m.touch(3);
        m.touch(3);
        m.touch(7);
        assert_eq!(m.dirty_count(), 2);
        assert!(m.generation(3) > 0);
        assert!(m.dirty_map().get(3));
    }

    #[test]
    fn drain_resets_tracking_but_keeps_contents() {
        let mut m = GuestMemory::new(4096, 16);
        m.touch(5);
        let g = m.generation(5);
        let drained = m.drain_dirty();
        assert_eq!(drained.to_indices(), vec![5]);
        assert_eq!(m.dirty_count(), 0);
        assert_eq!(m.generation(5), g);
    }

    #[test]
    fn precopy_sync_pattern() {
        // Simulate one migration round: copy all, then copy dirty-only.
        let mut src = GuestMemory::new(4096, 32);
        let mut dst = GuestMemory::new(4096, 32);
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
        let dirty = src.drain_dirty();
        assert_eq!(dst.diff_pages(&src), vec![2, 9]);
        for p in dirty.to_indices() {
            dst.copy_page_from(&src, p);
        }
        assert!(src.content_equals(&dst));
    }

    #[test]
    #[should_panic(expected = "geometries must match")]
    fn geometry_mismatch_panics() {
        let a = GuestMemory::new(4096, 4);
        let b = GuestMemory::new(4096, 8);
        a.content_equals(&b);
        a.diff_pages(&b);
    }
}
